"""Determinant and branching evaluations of the deformed symmetric polynomials.

G_lam(z; beta) is computed three independent ways: a ratio of determinants, a
sum over interlacing chains of single-variable skew factors, and (at beta = 0)
the Jacobi-Trudi determinant.  The module also evaluates the closed determinant
sides of the dual-pairing and weighted-summation identities so callers can
cross-check them against brute-force sums over a box.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import DegeneratePointError, ParameterError, PoleError
from .exactcore import Matrix, _int_det_bareiss, vandermonde
from .partitions import (
    _interlaced,
    check_partition,
    complement,
    interlacing_below,
    partitions_in_box,
)


def _require_distinct(values: Sequence[Fraction], label: str):
    if len(set(values)) != len(values):
        raise DegeneratePointError(f"{label} must be pairwise distinct")


def _require_width(width: int):
    if width < 0:
        raise ParameterError("box width must be nonnegative")


def groth_det(lam: Sequence[int], zs: Sequence[Fraction], beta: Fraction) -> Fraction:
    """G_lam via the N x N determinant ratio."""
    return groth_dets([lam], zs, beta)[0]


def groth_dets(shapes, zs: Sequence[Fraction], beta: Fraction) -> list[Fraction]:
    """G_lam for each lam in shapes, as det(z_i^(lam_k + N-1-k) (1 + beta z_i)^k)
    over the Vandermonde.  With z_i = a_i/b_i and 1 + beta z_i = c_i/d_i, row i
    times b_i^E d_i^(N-1) is a_i^e b_i^(E-e) c_i^k d_i^(N-1-k), E the largest
    exponent: one integer table for every shape, one denominator for all."""
    shapes = [check_partition(lam) for lam in shapes]
    zs = [Fraction(z) for z in zs]
    beta = Fraction(beta)
    n = len(zs)
    if any(len(lam) != n for lam in shapes):
        raise ParameterError("need exactly one part (possibly zero) per variable")
    _require_distinct(zs, "variables")
    if n == 0:
        return [Fraction(1)] * len(shapes)
    top = max((lam[0] for lam in shapes), default=0) + n - 1
    ws = [1 + beta * z for z in zs]
    pz = [[z.numerator**e * z.denominator ** (top - e) for e in range(top + 1)] for z in zs]
    pw = [[w.numerator**k * w.denominator ** (n - 1 - k) for k in range(n)] for w in ws]
    den = vandermonde(zs)
    for z, w in zip(zs, ws):
        den *= z.denominator**top * w.denominator ** (n - 1)
    return [
        _int_det_bareiss(
            [[pz[i][lam[k] + n - 1 - k] * pw[i][k] for k in range(n)] for i in range(n)]
        )
        / den
        for lam in shapes
    ]


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
    """Brute-force sum of G_lam(z) G_{lam complement}(w) over the box."""
    _require_width(width)
    n = len(zs)
    if len(ws) != n:
        raise ParameterError("need as many w variables as z variables")
    shapes = list(partitions_in_box(width, n))
    gz = groth_dets(shapes, zs, beta)
    gw = groth_dets([complement(lam, width) for lam in shapes], ws, beta)
    return sum((a * b for a, b in zip(gz, gw)), Fraction(0))


def cauchy_rhs(
    width: int,
    zs: Sequence[Fraction],
    ws: Sequence[Fraction],
    beta: Fraction,
) -> Fraction:
    """Closed determinant side of the dual-pairing identity."""
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
    e = width + n
    rows = []
    for z in zs:
        bz = (1 + beta * z) ** (n - 1)
        row = []
        for w in ws:
            bw = (1 + beta * w) ** (n - 1)
            row.append((z**e * bw - w**e * bz) / (z - w))
        rows.append(row)
    pref = vandermonde(zs) * vandermonde(ws[::-1])
    return Matrix(rows).det() / pref


def summation_lhs(width: int, zs: Sequence[Fraction], beta: Fraction) -> Fraction:
    """Brute-force sum of (-beta)^|lam| G_lam(z) over the box."""
    _require_width(width)
    beta = Fraction(beta)
    shapes = list(partitions_in_box(width, len(zs)))
    gs = groth_dets(shapes, zs, beta)
    return sum(((-beta) ** sum(lam) * g for lam, g in zip(shapes, gs)), Fraction(0))


def summation_rhs(width: int, zs: Sequence[Fraction], beta: Fraction) -> Fraction:
    """Closed determinant side of the weighted box summation; beta must be nonzero."""
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
    rows = []
    for j in range(1, n):
        mb = (-beta) ** (j - n)
        row = []
        for z in zs:
            w = 1 + beta * z
            acc = Fraction(0)
            for m in range(j):
                acc += (-1) ** m * math.comb(e, m) * w ** (m - j + n - 1)
            row.append(mb * acc)
        rows.append(row)
    last = []
    for z in zs:
        w = 1 + beta * z
        acc = Fraction(0)
        for m in range(max(n - 1, 1), e + 1):
            acc += (-1) ** m * math.comb(e, m) * w ** (m - 1)
        last.append(-acc)
    rows.append(last)
    return Matrix(rows).det() / vandermonde(zs[::-1])
