"""Deformed melting-crystal partition functions over boxed plane partitions.

The weight of a plane partition depends on where consecutive diagonal slices
agree, with one deformation parameter beta on top of the box-count variable q.
Everything here is evaluated two ways: brute-force sums over enumerated
configurations against closed determinant or product formulas, in numeric
(rational q) or series mode.  The brute force fills each box once per
process, grouped by the slice-agreement class the weight depends on, and
sums the classes on integers; `weight_phi` weighs one plane partition's
class by the same rule and sum.  The same code builds the determinant's entries
and prefactor in both modes, dividing by each unit rather than multiplying by
its inverse.  The modes differ in the determinant and in the
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
import operator
from fractions import Fraction

from .errors import OutOfBoxError, ParameterError, PoleError, PrecisionError
from .exactcore import Matrix, TruncatedSeries, qadic_det
from .partitions import PlanePartition, check_box, check_plane_partition, partitions_in_box


# a plane partition's class: the pairs (c_up[j], c_down[j]) for j = 1..n-1,
# read row by row by `_row_digits`
_Class = tuple[tuple[int, int], ...]


def weight_phi(pi: PlanePartition, q: Fraction, beta: Fraction, n_slices: int) -> Fraction:
    """Slice-agreement weight of a plane partition inside an n x n base, at
    rational q != 0 and beta: the one class of its zero-padded entry grid,
    weighed as the brute force weighs it."""
    pi = check_plane_partition(pi)
    n = n_slices
    if len(pi) > n or (pi and len(pi[0]) > n):
        raise OutOfBoxError("plane partition leaves the n x n base")
    grid = [row + (0,) * (n - len(row)) for row in pi] + [(0,) * n] * (n - len(pi))
    key = sum(_row_digits(r, grid[r - 1], grid[r], n) for r in range(1, n))
    return _class_sum(((_class(key, n), (1,)),), q, beta)


@functools.lru_cache(maxsize=32)
def _box_classes(n: int, height: int) -> tuple[tuple[_Class, tuple[int, ...]], ...]:
    """Every plane partition in the n x n x height box, once, grouped by class:
    (class, counts) pairs, counts[s] being the number of size s for
    s = 0..n*n*height, with the classes in the order they first appear in
    `enumerate_boxed`.

    The grid is filled row by row in that order, keeping the class as one
    integer whose base-n digits 2j-2 and 2j-1 are c_up[j] and c_down[j]
    (each count is below n).  Each row below row 0 adds its digits: an entry
    at column - row = d >= 0 equal to the one above it adds to c_up[d+1], an
    entry left of the diagonal that differs from it adds to
    c_down[row - column].
    """
    check_box(n, n, height)
    shapes = [(row, sum(row)) for row in partitions_in_box(height, n)]
    top = n * n * height
    table: dict[int, list[int]] = {}

    @functools.cache
    def below(r: int, upper) -> list:
        """(row, the digits it adds, its size) for each row r under upper."""
        fits = [(row, size) for row, size in shapes if all(map(operator.le, row, upper))]
        return [(row, r and _row_digits(r, upper, row, n), size) for row, size in fits]

    def fill(r: int, upper, key: int, size: int) -> None:
        if r == n:
            if key not in table:
                table[key] = [0] * (top + 1)
            table[key][size] += 1
            return
        for row, digits, s in below(r, upper):
            fill(r + 1, row, key + digits, size + s)

    fill(0, (height,) * n, 0, 0)
    return tuple((_class(key, n), tuple(counts)) for key, counts in table.items())


def _class(key: int, n: int) -> _Class:
    """The class whose base-n digits 2j-2 and 2j-1 are c_up[j] and c_down[j]."""
    return tuple((key // n ** (2 * j) % n, key // n ** (2 * j + 1) % n) for j in range(n - 1))


def _row_digits(r: int, upper, row, n: int) -> int:
    """The class digits that row r (>= 1) adds, under the row above it."""
    out = 0
    for c, (x, y) in enumerate(zip(row, upper)):
        if c >= r and x == y:
            out += n ** (2 * (c - r))
        elif c < r and x != y:
            out += n ** (2 * (r - c) - 1)
    return out


def z_box_bruteforce(n: int, height: int, q: Fraction, beta: Fraction) -> Fraction:
    """Sum of weight * q^size over all plane partitions in the n x n x height
    box, which is enumerated once per process and summed per weight class."""
    return _class_sum(_box_classes(n, height), q, beta)


def _class_sum(classes: tuple[tuple[_Class, tuple[int, ...]], ...], q: Fraction, beta: Fraction) -> Fraction:
    """Sum of weight * q^size over (class, counts) pairs, counts[s] being the
    number of plane partitions of size s = 0..top in the class, on integers.

    With q = a/b and beta = r/s, 1 + beta*q^j = u_j / (s b^j) and
    1 + beta*q^(1-j) = d_j / (s a^(j-1)) for u_j = s b^j + r a^j and
    d_j = s a^(j-1) + r b^(j-1), so each class adds its weight times its size
    sum as one integer over prod_j u_j^(max c_up[j]) (s a^(j-1))^(max c_down[j])
    b^top.  A vanishing 1 + beta*q^j raises at the first class, in the given
    order, that uses it.
    """
    q = Fraction(q)
    beta = Fraction(beta)
    if q == 0:
        raise ParameterError("q must be nonzero")
    top = len(classes[0][1]) - 1
    (a, b), (r, s) = q.as_integer_ratio(), beta.as_integer_ratio()
    # per j: u_j and the class's j-th factor over the common denominator, by
    # c_up[j] and by c_down[j]
    factors = []
    den = b**top
    for j, column in enumerate(zip(*(cls for cls, _ in classes)), 1):
        u, d_num, d_den = s * b**j + r * a**j, s * a ** (j - 1) + r * b ** (j - 1), s * a ** (j - 1)
        top_up = max(c_up for c_up, _ in column)
        top_down = max(c_down for _, c_down in column)
        up = [(s * b**j) ** c * u ** (top_up - c) for c in range(top_up + 1)]
        down = [d_num**c * d_den ** (top_down - c) for c in range(top_down + 1)]
        factors.append((u, up, down))
        den *= u**top_up * d_den**top_down
    mono = [a**k * b ** (top - k) for k in range(top + 1)]  # q^k = a^k b^(top-k) / b^top
    total = 0
    for cls, counts in classes:
        weight = 1
        for j, ((u, up, down), (c_up, c_down)) in enumerate(zip(factors, cls), 1):
            if c_up and not u:
                raise PoleError(f"1 + beta*q^{j} vanishes")
            weight *= up[c_up] * down[c_down]
        total += weight * sum(c * m for c, m in zip(counts, mono) if c)
    return Fraction(total, den)


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
        rows[j] = (base ** (j - 1), q ** (j * (height + n)) / base ** (n - j))
    # 1 - q^m for every m = j + k - 1 the entries and the prefactor divide by;
    # a unit, as rational q avoids +-1 and a series 1 - q^m has constant term 1
    dens = {m: one - q**m for m in range(1, 2 * n)}
    cols = {k: q ** ((k - 1) * (height + 1)) * (q ** (k - 1) + beta * one) ** (n - 1) for k in span}
    entries = [[(a - b * cols[k]) / dens[j + k - 1] for k in span] for j, (a, b) in rows.items()]
    # 1 over prod_{j<k} (1 - q^(k-j))^2, where m = k - j occurs n - m times
    pref = one
    for m in range(1, n):
        pref = pref * dens[m] ** (2 * (n - m))
    return entries, one / pref


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
            total = total * num / den
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
