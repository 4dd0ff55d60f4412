"""Deformed melting-crystal partition functions over boxed plane partitions.

The weight of a plane partition depends on where consecutive diagonal slices
agree, with one deformation parameter beta on top of the box-count variable q.
Everything here is evaluated two ways: brute-force sums over enumerated
configurations against closed determinant or product formulas, in numeric
(rational q) or series mode.  The same code builds the determinant's entries
and prefactor in both modes.  The modes differ in the determinant and in the
final division by a power of q: numeric mode takes `Matrix.det` and
multiplies by that power, while series mode eliminates over Q[[q]] with
pivots of least valuation (`qadic_det`), whose valuation is exactly the power
the division removes.

Entropy numerics are the one floating-point corner, matching the Bethe-root
treatment elsewhere.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import OutOfBoxError, ParameterError, PoleError, PrecisionError
from .exactcore import Matrix, TruncatedSeries, qadic_det
from .partitions import PlanePartition, check_box, check_plane_partition, enumerate_boxed, pp_size


# a plane partition's class, the pairs (c_up[j], c_down[j]) of `_agreements`
_Class = tuple[tuple[int, int], ...]


def _phi_factors(n: int, q, beta):
    """The j-only factors of the weight in an n x n base, as power tables:
    up[j][c] = (1 + beta*q^j)^-c (None where 1 + beta*q^j vanishes) and
    down[j][c] = (1 + beta*q^(1-j))^c, for c = 0..n-j."""
    one = q**0
    up, down = {}, {}
    for j in range(1, n):
        den = one + beta * q**j
        up[j] = None if den == 0 else _powers(den**-1, n - j)
        down[j] = _powers(one + beta * q ** (1 - j), n - j)
    return one, up, down


def _powers(x, top: int) -> list:
    out = [x**0]
    for _ in range(top):
        out.append(out[-1] * x)
    return out


def _agreements(pi: PlanePartition, n: int) -> _Class:
    """The class of a plane partition that fits the n x n base: the pair
    (c_up[j], c_down[j]) for j = 1..n-1, on which its weight depends.

    Part k of diagonal slice m is the entry (k - min(m, 0), k + max(m, 0))
    (1-based) of the zero-padded n x n entry grid.  For k = 1..n-j, c_up[j]
    counts where slice j agrees with slice j-1 one part further along, and
    c_down[j] where slice -j differs from slice 1-j at part k; both compare
    a grid entry with the one below it.
    """
    grid = [list(row) + [0] * (n - len(row)) for row in pi] + [[0] * n] * (n - len(pi))
    return tuple(
        (
            sum(grid[k][k + j] == grid[k + 1][k + j] for k in range(n - j)),
            sum(grid[k + j][k] != grid[k + j - 1][k] for k in range(n - j)),
        )
        for j in range(1, n)
    )


def _phi(cls: _Class, factors):
    """The weight of a class: each c_up[j] divides by 1 + beta*q^j and each
    c_down[j] multiplies by 1 + beta*q^(1-j)."""
    one, up, down = factors
    val = one
    for j, (c_up, c_down) in enumerate(cls, 1):
        if c_up:
            if up[j] is None:
                raise PoleError(f"1 + beta*q^{j} vanishes")
            val = val * up[j][c_up]
        if c_down:
            # a vanishing factor is a zero weight, not a pole
            val = val * down[j][c_down]
    return val


def weight_phi(pi: PlanePartition, q, beta, n_slices: int) -> object:
    """Slice-agreement weight of a plane partition inside an n x n base.

    Exact over any coefficient field containing q and beta with q invertible;
    the series-mode identities go through the determinant and product routes
    instead, since a lone weight involves negative powers of q.
    """
    pi = check_plane_partition(pi)
    n = n_slices
    if len(pi) > n or (pi and len(pi[0]) > n):
        raise OutOfBoxError("plane partition leaves the n x n base")
    return _phi(_agreements(pi, n), _phi_factors(n, q, beta))


@functools.lru_cache(maxsize=32)
def _box_classes(n: int, height: int) -> tuple[tuple[_Class, tuple[int, ...]], ...]:
    """Every plane partition in the n x n x height box, once, grouped by class:
    (class, counts) pairs, counts[s] being the number of size s for
    s = 0..n*n*height, with the classes in the order they first appear."""
    table: dict = {}
    for pi in enumerate_boxed(n, n, height):
        cls = _agreements(pi, n)
        if cls not in table:
            table[cls] = [0] * (n * n * height + 1)
        table[cls][pp_size(pi)] += 1
    return tuple((cls, tuple(counts)) for cls, counts in table.items())


def z_box_bruteforce(n: int, height: int, q: Fraction, beta: Fraction) -> Fraction:
    """Sum of weight * q^size over all plane partitions in the n x n x height box.

    The box is enumerated once per process and summed per weight class.  A
    vanishing 1 + beta*q^j raises at the first class, in enumeration order,
    that uses it.
    """
    q = Fraction(q)
    beta = Fraction(beta)
    if q == 0:
        raise ParameterError("q must be nonzero")
    factors = _phi_factors(n, q, beta)
    classes = _box_classes(n, height)
    top = n * n * height
    a, b = q.numerator, q.denominator
    # q^s = a^s b^(top-s) / b^top, so a class's size sum is one integer over b^top
    mono = [a**s * b ** (top - s) for s in range(top + 1)]
    total = sum(
        _phi(cls, factors) * sum(c * m for c, m in zip(counts, mono)) for cls, counts in classes
    )
    return total / b**top


def _det_shift(n: int) -> int:
    """The power of q in front of the determinant formula; never positive."""
    return n * (n - 1) // 2 - 2 * sum(j * (n - j) for j in range(1, n))


def _z_box_det_parts(n: int, height: int, q, beta):
    """The determinant formula as (entries, prefactor).

    The full answer is q**_det_shift(n) * prefactor * det(entries).  Both
    parts only use nonnegative powers of q and inverses of units, so they are
    valid for both rational and series q, and the prefactor is a unit.
    """
    check_box(n, n, height)
    one = q**0
    span = range(1, n + 1)
    # entry (j, k) is (b^(j-1) - q^e (q^(k-1) + beta)^(n-1) b^(j-n)) / (1 - q^(j+k-1))
    # with b = 1 + beta*q^j and e = (j+k-1)(height+n) + (1-k)(n-1) = j(height+n) + (k-1)(height+1)
    rows = {}
    for j in span:
        base = one + beta * q**j
        if base == 0 and j < n:  # as in the weight, 1 + beta*q^n is never inverted
            raise PoleError(f"1 + beta*q^{j} vanishes")
        rows[j] = (base ** (j - 1), q ** (j * (height + n)) * base ** (j - n))
    # 1/(1 - q^m) for every m = j + k - 1 the entries and the prefactor use;
    # a unit, as rational q avoids +-1 and a series 1 - q^m has constant term 1
    inv_den = {m: (one - q**m) ** -1 for m in range(1, 2 * n)}
    cols = {k: q ** ((k - 1) * (height + 1)) * (q ** (k - 1) + beta * one) ** (n - 1) for k in span}
    entries = [[(a - b * cols[k]) * inv_den[j + k - 1] for k in span] for j, (a, b) in rows.items()]
    # over prod_{j<k} (1 - q^(k-j))^2, where m = k - j occurs n - m times
    pref = one
    for m in range(1, n):
        pref = pref * inv_den[m] ** (2 * (n - m))
    return entries, pref


def z_box_det(n: int, height: int, q: Fraction, beta: Fraction) -> Fraction:
    """Closed determinant form of the boxed partition function, rational q."""
    q = Fraction(q)
    beta = Fraction(beta)
    if q == 0 or q == 1 or q == -1:
        raise ParameterError("q must avoid 0 and +-1")
    entries, pref = _z_box_det_parts(n, height, q, beta)
    return q ** _det_shift(n) * pref * Matrix(entries).det()


def z_box_det_series(n: int, height: int, beta: Fraction, order: int) -> TruncatedSeries:
    """The same determinant as a q-series through the requested order.

    The determinant is taken by valuation-pivoted elimination (`qadic_det`),
    and its valuation must be -_det_shift(n), the power of q in front.  Its
    pivots have valuations 0, 1, 4, ..., (n-1)^2, so the working order
    order + (n-1)^2 leaves the unit known through q^order; a unit known
    through less raises `PrecisionError`.
    """
    if order < 0:
        raise ParameterError("order must be nonnegative")
    beta = Fraction(beta)
    work = order + (n - 1) ** 2
    entries, pref = _z_box_det_parts(n, height, TruncatedSeries.indeterminate(work), beta)
    val, unit = qadic_det(entries, work)
    if val != -_det_shift(n):
        raise ArithmeticError("exponent bookkeeping failed")
    if unit.order < order:
        raise PrecisionError(f"the determinant is not known through q^{order}")
    return (pref.truncate(unit.order) * unit).truncate(order)


def z_box_beta0(n_rows: int, n_cols: int, height: int, q) -> object:
    """Undeformed boxed partition function: the classical triple product."""
    check_box(n_rows, n_cols, height)
    one = q**0
    total = one
    for j in range(1, n_rows + 1):
        for k in range(1, n_cols + 1):
            num = one - q ** (height + j + k - 1)
            den = one - q ** (j + k - 1)
            if den == 0:
                raise PoleError("1 - q^m vanishes")
            total = total * (num / den)
    return total


def z_infinite(beta: Fraction, order: int) -> TruncatedSeries:
    """Unboxed partition function as a q-series through the given order:
    prod_n (1 + beta*q^n)^(n-1) / (1 - q^n)^n."""
    beta = Fraction(beta)
    q = TruncatedSeries.indeterminate(order)
    out = TruncatedSeries.one(order)
    for n in range(1, order + 1):
        qn = q**n
        out = out * (1 + beta * qn) ** (n - 1) / (1 - qn) ** n
    return out


# -- entropy numerics ---------------------------------------------------------

_MAX_TERMS = 100000
_LOG_Z_TOL = 1e-16
_ENTROPY_TOL = 1e-14


def _sum_terms(term, tol: float) -> float:
    """term(1) + term(2) + ..., stopped after the first n > 1 with
    |term(n)| < tol; raises when that has not happened by n = _MAX_TERMS."""
    total = 0.0
    for n in range(1, _MAX_TERMS + 1):
        t = term(n)
        total += t
        if abs(t) < tol and n > 1:
            return total
    raise ParameterError(
        f"series not converged after {_MAX_TERMS} terms; q is too close to 1"
    )


def log_z_numeric(beta: float, q: float) -> float:
    """log of the unboxed partition function at numeric q in (0, 1)."""
    if not (math.isfinite(beta) and math.isfinite(q)):
        raise ParameterError("need finite beta and q")
    if not 0.0 < q < 1.0:
        raise ParameterError("need 0 < q < 1")
    if beta < -1.0:
        raise ParameterError("beta < -1 leaves the physical range")

    def term(n: int) -> float:
        qn = q**n
        return (n - 1) * math.log1p(beta * qn) - n * math.log1p(-qn)

    return _sum_terms(term, _LOG_Z_TOL)


def entropy(mu: float, temperature: float, beta: float) -> float:
    """Entropy of the deformed crystal at chemical potential mu and temperature.

    Summed until the terms fall below _ENTROPY_TOL; beta must be >= -1 for the
    logarithms to stay real.
    """
    if not all(map(math.isfinite, (mu, temperature, beta))):
        raise ParameterError("need finite mu, temperature and beta")
    if temperature <= 0 or mu <= 0:
        raise ParameterError("need positive temperature and chemical potential")
    if beta < -1.0:
        raise ParameterError("beta < -1 leaves the physical range")
    q = math.exp(-mu / temperature)

    def term(n: int) -> float:
        qinv = q**-n
        energy_part = (mu * n / temperature) * (
            beta * (n - 1) / (beta + qinv) + n / (qinv - 1.0)
        )
        log_part = (n - 1) * math.log1p(beta * q**n) - n * math.log1p(-(q**n))
        return energy_part + log_part

    return _sum_terms(term, _ENTROPY_TOL)


def internal_energy_fd(mu: float, temperature: float, beta: float) -> float:
    """T^2 d(log Z)/dT by central finite differences in the temperature."""
    h = temperature * 1e-5
    def lz(t: float) -> float:
        return log_z_numeric(beta, math.exp(-mu / t))
    d = (lz(temperature + h) - lz(temperature - h)) / (2 * h)
    return temperature * temperature * d


def entropy_consistency(mu: float, temperature: float, beta: float) -> float:
    """| S - (log Z + E/T) | with E from finite differences."""
    s = entropy(mu, temperature, beta)
    lz = log_z_numeric(beta, math.exp(-mu / temperature))
    e = internal_energy_fd(mu, temperature, beta)
    return abs(s - (lz + e / temperature))
