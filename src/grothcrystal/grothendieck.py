"""Determinant and branching evaluations of the deformed symmetric polynomials.

G_lam(z; beta) is computed three independent ways: a ratio of determinants, a
sum over interlacing chains of single-variable skew factors, and (at beta = 0)
the Jacobi-Trudi determinant.  The module also evaluates the closed determinant
sides of the dual-pairing and weighted-summation identities so callers can
cross-check them against brute-force sums over a box.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .errors import DegeneratePointError, ParameterError, PoleError
from .exactcore import Matrix, _int_det_bareiss
from .partitions import (
    _interlaced,
    check_partition,
    complement,
    interlacing_below,
    partitions_in_box,
)


def _require_distinct(values: Sequence, label: str):
    if len(set(values)) != len(values):
        raise DegeneratePointError(f"{label} must be pairwise distinct")


def _require_width(width: int):
    if width < 0:
        raise ParameterError("box width must be nonnegative")


def groth_det(lam: Sequence[int], zs: Sequence[Fraction], beta: Fraction) -> Fraction:
    """G_lam via the N x N determinant ratio."""
    return groth_dets([lam], zs, beta)[0]


def groth_dets(shapes, zs: Sequence[Fraction], beta: Fraction) -> list[Fraction]:
    """G_lam for each lam in shapes: the `groth_table` ratios."""
    dets, den = groth_table(shapes, zs, beta)
    return [Fraction(d, den) for d in dets]


def _int_vandermonde(zs: Sequence[tuple[int, int]]) -> int:
    """prod_{j<k} (a_j b_k - a_k b_j) for z = a/b given as pairs (a, b): the
    Vandermonde prod_{j<k} (z_j - z_k) times prod b^(N-1)."""
    out = 1
    for j, (a, b) in enumerate(zs):
        for c, d in zs[j + 1 :]:
            out *= a * d - c * b
    return out


def groth_table(shapes, zs: Sequence[Fraction], beta: Fraction) -> tuple[list[int], int]:
    """(dets, den) with G_lam = dets[i] / den for lam = shapes[i]: `_groth_core`
    on the checked shapes."""
    shapes = [check_partition(lam) for lam in shapes]
    zs = [Fraction(z).as_integer_ratio() for z in zs]
    beta = Fraction(beta)
    return _groth_core(shapes, zs, beta.numerator, beta.denominator)


def _groth_core(shapes, zs: Sequence[tuple[int, int]], r: int, s: int) -> tuple[list[int], int]:
    """`groth_table` on partitions, z_i = a_i/b_i as pairs in lowest terms
    with b_i > 0, and beta = r/s likewise, once it has checked one part per
    variable and distinct variables.  G_lam is det(z_i^(lam_k + N-1-k) (1 +
    beta z_i)^k) over the Vandermonde.  With 1 + beta z_i = c_i/d_i, row i
    times b_i^E d_i^(N-1) is a_i^e b_i^(E-e) c_i^k d_i^(N-1-k), E the largest
    exponent, and the Vandermonde times prod b_i^(N-1) is `_int_vandermonde`:
    one integer table for every shape, one denominator for all."""
    if any(len(lam) != len(zs) for lam in shapes):
        raise ParameterError("need exactly one part (possibly zero) per variable")
    _require_distinct(zs, "variables")
    n = len(zs)
    if n == 0:
        return [1] * len(shapes), 1
    top = max((lam[0] for lam in shapes), default=0) + n - 1
    pz, pw, den = [], [], _int_vandermonde(zs)
    for a, b in zs:
        g = math.gcd(s * b + r * a, s * b)
        c, d = (s * b + r * a) // g, s * b // g
        pz.append([a**e * b ** (top - e) for e in range(top + 1)])
        pw.append([c**k * d ** (n - 1 - k) for k in range(n)])
        den *= b ** (top - n + 1) * d ** (n - 1)
    dets = [
        _int_det_bareiss([[pz[i][lam[k] + n - 1 - k] * pw[i][k] for k in range(n)] for i in range(n)])
        for lam in shapes
    ]
    return dets, den


def schur_det(lam: Sequence[int], zs: Sequence[Fraction]) -> Fraction:
    """The Jacobi-Trudi determinant det(h_(lam_i - i + j)); an independent
    beta = 0 reference, defined at repeated variables too."""
    lam = check_partition(lam)
    zs = [Fraction(z) for z in zs]
    n = len(zs)
    if len(lam) != n:
        raise ParameterError("need exactly one part (possibly zero) per variable")
    if n == 0:
        return Fraction(1)
    # complete homogeneous h_k, one variable at a time: h_k += z h_(k-1)
    h = [Fraction(1)] + [Fraction(0)] * (lam[0] + n - 1)
    for z in zs:
        for k in range(1, len(h)):
            h[k] += z * h[k - 1]
    rows = [[h[p] if p >= 0 else 0 for p in range(lam[i] - i, lam[i] - i + n)] for i in range(n)]
    return Matrix(rows).det()


def _skew_exponents(mu, lam) -> tuple[int, int]:
    """(e, k) of the skew factor z^e (1 + beta z)^k of mu over an interlacing
    lam: e = |mu| - |lam|, and k counts the j with mu_(j+1) != lam_j."""
    return sum(mu) - sum(lam), sum(a != b for a, b in zip(mu[1:], lam))


def skew_single(
    mu: Sequence[int], lam: Sequence[int], z: Fraction, beta: Fraction
) -> Fraction:
    """One-variable skew factor; zero unless mu interlaces lam.

    Requires len(mu) = len(lam) + 1; pad lam with zeros to express absent
    parts explicitly.
    """
    mu = check_partition(mu)
    lam = check_partition(lam)
    if len(mu) != len(lam) + 1:
        raise ParameterError("mu must have exactly one part more than lam")
    z = Fraction(z)
    beta = Fraction(beta)
    if not _interlaced(mu, lam):
        return Fraction(0)
    e, k = _skew_exponents(mu, lam)
    return z**e * (1 + beta * z) ** k


def skew_multi(
    lam: Sequence[int],
    nu: Sequence[int],
    zs: Sequence[Fraction],
    beta: Fraction,
) -> Fraction:
    """Multivariable skew polynomial as a chain sum from lam down to nu, taken
    level by level on integers: with z = a/b and 1 + beta z = c/d, a skew factor
    times b^E d^K is a^e b^(E-e) c^k d^(K-k), E = lam_1 >= e, K = len(kappa) >= k."""
    lam = check_partition(lam)
    nu = check_partition(nu)
    zs = [Fraction(z) for z in zs]
    if len(lam) != len(nu) + len(zs):
        raise ParameterError("lengths must satisfy len(lam) = len(nu) + #variables")
    top = lam[0] if lam else 0
    level, den = {lam: 1}, 1
    for size, z in zip(range(len(lam) - 1, -1, -1), zs):
        w = 1 + Fraction(beta) * z
        pz = [z.numerator**e * z.denominator ** (top - e) for e in range(top + 1)]
        pw = [w.numerator**k * w.denominator ** (size - k) for k in range(size + 1)]
        den *= z.denominator**top * w.denominator**size
        below: dict = {}
        for mu, weight in level.items():
            for kappa in interlacing_below(mu):
                e, k = _skew_exponents(mu, kappa)
                below[kappa] = below.get(kappa, 0) + weight * pz[e] * pw[k]
        level = below
    return Fraction(level.get(nu, 0), den)


def groth_chain(lam: Sequence[int], zs: Sequence[Fraction], beta: Fraction) -> Fraction:
    """G_lam as a sum over interlacing chains down to the empty partition: the
    skew polynomial from lam down to (), with the last variable taken first."""
    return skew_multi(lam, (), zs[::-1], beta)


def cauchy_lhs(
    width: int,
    zs: Sequence[Fraction],
    ws: Sequence[Fraction],
    beta: Fraction,
) -> Fraction:
    """Brute-force sum of G_lam(z) G_{lam complement}(w) over the box: the
    products of the two `groth_table` numerators over one denominator."""
    _require_width(width)
    n = len(zs)
    if len(ws) != n:
        raise ParameterError("need as many w variables as z variables")
    shapes = list(partitions_in_box(width, n))
    gz, dz = groth_table(shapes, zs, beta)
    gw, dw = groth_table([complement(lam, width) for lam in shapes], ws, beta)
    return Fraction(sum(map(operator.mul, gz, gw)), dz * dw)


def cauchy_rhs(
    width: int,
    zs: Sequence[Fraction],
    ws: Sequence[Fraction],
    beta: Fraction,
) -> Fraction:
    """Closed determinant side of the dual-pairing identity,
    det((z_i^e (1 + beta w_j)^(N-1) - w_j^e (1 + beta z_i)^(N-1)) / (z_i - w_j))
    over the Vandermondes of z and of w reversed, e = width + N.  With z = a/b,
    w = c/d and beta = r/s, entry (i, j) is the integer N_ij / (a_i d_j - b_i c_j)
    over s^(2(N-1)) b_i^(e+N-2) d_j^(e+N-2), where N_ij =
    a^e (sb)^(N-1) d^e (sd+rc)^(N-1) - c^e (sd)^(N-1) b^e (sb+ra)^(N-1)
    vanishes on ad = bc, so the division is exact."""
    _require_width(width)
    zs = [Fraction(z) for z in zs]
    ws = [Fraction(w) for w in ws]
    beta = Fraction(beta)
    n = len(zs)
    if len(ws) != n:
        raise ParameterError("need as many w variables as z variables")
    _require_distinct(zs, "z variables")
    _require_distinct(ws, "w variables")
    for z in zs:
        if z in ws:
            raise PoleError("z and w variables must avoid each other")
    if n == 0:
        return Fraction(1)
    e = width + n
    r, s = beta.numerator, beta.denominator
    zp = [z.as_integer_ratio() for z in zs]
    wp = [w.as_integer_ratio() for w in ws]
    fz = [(a**e * (s * b) ** (n - 1), b**e * (s * b + r * a) ** (n - 1)) for a, b in zp]
    fw = [(d**e * (s * d + r * c) ** (n - 1), c**e * (s * d) ** (n - 1)) for c, d in wp]
    rows = []
    for (a, b), (az, bz) in zip(zp, fz):
        row = []
        for (c, d), (aw, bw) in zip(wp, fw):
            entry, rest = divmod(az * aw - bw * bz, a * d - b * c)
            if rest:
                raise ArithmeticError("a Cauchy entry is not divisible by a d - b c")
            row.append(entry)
        rows.append(row)
    # the Vandermondes times prod b^(N-1) and prod d^(N-1) are integers
    den = s ** (2 * n * (n - 1)) * _int_vandermonde(zp) * _int_vandermonde(wp[::-1])
    for (_, b), (_, d) in zip(zp, wp):
        den *= (b * d) ** (e - 1)
    return Fraction(_int_det_bareiss(rows), den)


def summation_lhs(width: int, zs: Sequence[Fraction], beta: Fraction) -> Fraction:
    """Brute-force sum of (-beta)^|lam| G_lam(z) over the box: with beta = r/s,
    the `groth_table` numerators weighted by (-r)^|lam| s^(top-|lam|), top the
    largest size, over one denominator."""
    _require_width(width)
    beta = Fraction(beta)
    shapes = list(partitions_in_box(width, len(zs)))
    dets, den = groth_table(shapes, zs, beta)
    r, s = beta.numerator, beta.denominator
    top = width * len(zs)
    weights = [(-r) ** k * s ** (top - k) for k in range(top + 1)]
    return Fraction(sum(weights[sum(lam)] * d for lam, d in zip(shapes, dets)), den * s**top)


def summation_rhs(width: int, zs: Sequence[Fraction], beta: Fraction) -> Fraction:
    """Closed determinant side of the weighted box summation; beta must be
    nonzero.  Row j < N holds (-beta)^(j-N) sum_(m<j) (-1)^m C(e, m)
    w^(m-j+N-1) and the last row -sum_(m>=max(N-1,1)) (-1)^m C(e, m) w^(m-1),
    at w = 1 + beta z, over the Vandermonde of the reversed variables.  With
    z = a/b and beta = r/s, w = W/T for W = sb + ra and T = sb, and each power
    w^k is W^k T^(e-1-k) over the column's T^(e-1): the determinant is taken
    on integers and the row and column factors divided once."""
    _require_width(width)
    zs = [Fraction(z) for z in zs]
    beta = Fraction(beta)
    if beta == 0:
        raise ParameterError(
            "the closed summation needs beta != 0; sum directly in the beta = 0 limit"
        )
    n = len(zs)
    if n == 0:
        return Fraction(1)
    _require_distinct(zs, "variables")
    e = width + n
    top = e - 1
    r, s = beta.numerator, beta.denominator
    cols = []
    for a, b in (z.as_integer_ratio() for z in zs):
        t = s * b
        cols.append([(t + r * a) ** k * t ** (top - k) for k in range(top + 1)])
    signed = [(-1) ** m * math.comb(e, m) for m in range(e + 1)]
    rows = [[sum(signed[m] * p[m - j + n - 1] for m in range(j)) for p in cols] for j in range(1, n)]
    rows.append([-sum(signed[m] * p[m - 1] for m in range(max(n - 1, 1), e + 1)) for p in cols])
    # the rows carry (-s/r)^(n-j), the columns (sb)^-top, and the Vandermonde
    # of the reversed variables is `_int_vandermonde` over prod b^(N-1)
    k = n * (n - 1) // 2
    den = r**k * s ** (n * top - k) * _int_vandermonde([z.as_integer_ratio() for z in zs[::-1]])
    for z in zs:
        den *= z.denominator**width
    return Fraction((-1) ** k * _int_det_bareiss(rows), den)
