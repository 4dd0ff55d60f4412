"""Five-vertex lattice model on a periodic-free row of M sites.

States of the quantum row are 0/1 occupation tuples: entry j (from 0) is
site j+1 of the chain, 1 when the site is occupied, so a state is a phase
model state with at most one particle per site.  The monodromy matrix
multiplies the site operators with site 1 acting first, and its
auxiliary-space entries are taken with the matrix convention
T = [[A, B], [C, D]] (row = outgoing auxiliary state).  B adds a particle to
the row, C removes one.

Vertex weights on (aux_in, site_in) -> (aux_out, site_out):
  (0,0)->(0,0): u       (0,1)->(1,0): 1      (1,0)->(0,1): 1
  (1,0)->(1,0): -u/beta - 1/u                (1,1)->(1,1): -u/beta
and the (0,1)->(0,1) vertex is absent.  `MODEL` hands the weights, states and
closed form to `lattice`, which computes B, C, the amplitudes and the
transfer matrix; the R matrix is this module's own.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from . import lattice
from .errors import IdentityError, ParameterError, PoleError
from .exactcore import Matrix, TruncatedSeries, embed_pair, rational_sqrt
from .partitions import partition_from_positions


def _check_beta(beta: Fraction) -> Fraction:
    beta = Fraction(beta)
    if beta == 0:
        raise ParameterError("the five-vertex weights need beta != 0")
    return beta


def _check_sites(num_sites: int) -> None:
    if num_sites < 0:
        raise ParameterError("need a nonnegative number of sites")


def l_matrix(u: Fraction, beta: Fraction) -> Matrix:
    """Site operator on (aux, site), basis |00>, |01>, |10>, |11>."""
    return lattice.site_operator(_scalar_weights(Fraction(u), beta), 2)


def r_matrix(u: Fraction, v: Fraction) -> Matrix:
    """Intertwiner on two auxiliary spaces; poles at u^2 = v^2."""
    u = Fraction(u)
    v = Fraction(v)
    den = u * u - v * v
    if den == 0:
        raise PoleError("r_matrix has a pole at u^2 = v^2")
    f = u * u / den
    g = u * v / den
    zero = Fraction(0)
    return Matrix(
        [
            [f, zero, zero, zero],
            [zero, zero, g, zero],
            [zero, g, Fraction(1), zero],
            [zero, zero, zero, f],
        ]
    )


def check_ybe(u: Fraction, v: Fraction, w: Fraction) -> bool:
    """Yang-Baxter relation on three auxiliary spaces (beta-independent)."""
    dims = (2, 2, 2)
    r_ab = embed_pair(r_matrix(u, v), 0, 1, dims)
    r_ac = embed_pair(r_matrix(u, w), 0, 2, dims)
    r_bc = embed_pair(r_matrix(v, w), 1, 2, dims)
    return r_ab @ r_ac @ r_bc == r_bc @ r_ac @ r_ab


def check_rll(u: Fraction, v: Fraction, beta: Fraction) -> bool:
    """Intertwining relation R(L x L) = (L x L)R on aux x aux x site."""
    return lattice.rll_holds(l_matrix(u, beta), l_matrix(v, beta), r_matrix(u, v), 2)


def _scalar_weights(u, beta: Fraction):
    """The six vertex weights at u: a Fraction, float, TruncatedSeries or LaurentPoly.var()."""
    beta = _check_beta(beta)
    if u == 0:
        raise PoleError("u = 0 is a pole of the site weights")
    return (u, 0 * u, -u / beta - 1 / u, -u / beta, u**0, u**0)


def sector_basis(num_sites: int, num_particles: int) -> list[tuple[int, ...]]:
    """The 0/1 occupation tuples with the given total, in lexicographic order."""
    _check_sites(num_sites)
    if num_particles < 0:
        raise ParameterError("need a nonnegative particle number")
    return lattice.occupations(num_sites, num_particles, 1)


def spectral_map(u: Fraction, beta: Fraction) -> Fraction:
    """The variable z = -1/beta - 1/u^2 induced by a spectral parameter."""
    u = Fraction(u)
    beta = _check_beta(beta)
    if u == 0:
        raise PoleError("u = 0 is a pole of the spectral map")
    return -1 / beta - u**-2


def _configuration(num_sites: int, x: Sequence[int], us: Sequence, beta: Fraction) -> tuple:
    """The domain every amplitude route shares: beta != 0, one spectral
    parameter per particle, and distinct increasing 1-based positions on the
    chain.  Returns the row state."""
    _check_beta(beta)
    _check_sites(num_sites)
    if len(x) != len(us):
        raise ParameterError("need exactly one spectral parameter per particle")
    if x and x[-1] > num_sites:
        raise ParameterError("position beyond the last site")
    if any(pos < 1 for pos in x) or len(set(x)) != len(x):
        raise ParameterError(f"bad positions {x}")
    partition_from_positions(x)  # refuses positions out of order
    return tuple(int(site in x) for site in range(1, num_sites + 1))


def _partition(state: tuple) -> tuple[int, ...]:
    """The partition of the occupied sites of a row state."""
    return partition_from_positions(j + 1 for j, n in enumerate(state) if n)


def _prefactor(num_sites: int, us: Sequence[Fraction], beta: Fraction) -> Fraction:
    """(-1/beta)^(N(N-1)/2) prod u^(M-1)."""
    n = len(us)
    pref = (-1 / Fraction(beta)) ** (n * (n - 1) // 2)
    for u in us:
        pref *= Fraction(u) ** (num_sites - 1)
    return pref


MODEL = lattice.Model(
    capacity=1,
    weights=_scalar_weights,
    sector=sector_basis,
    partition=_partition,
    configuration=_configuration,
    prefactor=_prefactor,
    spectral_map=spectral_map,
    dual_width=lambda num_sites, num_particles: num_sites - num_particles,
)


def hamiltonian_direct(num_sites: int, num_particles: int, beta: Fraction) -> Matrix:
    """Nearest-neighbour hop-plus-interaction generator on one sector:

    H = sum_j { -(1/beta) sigma_j^+ sigma_{j+1}^- + (sigma_j^z sigma_{j+1}^z - 1)/4 }
    with periodic wrap, where sigma^+ annihilates and sigma^- creates, so the
    hop moves a particle from site j to site j+1 and the diagonal is -1/2 per
    bond whose two sites differ.  On one site the wrap bond joins site 0 to
    itself and its hop is -(1/beta) times the empty projector.
    """
    beta = _check_beta(beta)
    return lattice.hopping_generator(
        MODEL, num_sites, num_particles, -1 / beta,
        lambda s: Fraction(-sum(a != b for a, b in zip(s, s[1:] + s[:1])), 2),
    )


def hamiltonian(num_sites: int, num_particles: int, beta: Fraction) -> Matrix:
    """Generator on one sector built two ways: directly, and as (u0/2)
    f(u0)^-1 f'(u0), f(u) = u^-M T(u) at u0 = sqrt(-beta), where f(u0) is a
    monomial matrix, checked as (u0/2) f'(u0) = f(u0) H over Q[e]/(e^2).
    Returns the direct form after asserting equality."""
    beta = _check_beta(beta)
    u0 = rational_sqrt(-beta)
    if u0 is None:
        raise ParameterError("-beta must be the square of a rational")
    direct = hamiltonian_direct(num_sites, num_particles, beta)
    f0, f1 = _log_derivative_sides(num_sites, num_particles, beta, u0)
    if f1 != f0 @ direct:
        raise IdentityError(
            f"transfer-matrix extraction disagrees on the {num_particles}-particle sector"
        )
    return direct


def _log_derivative_sides(num_sites: int, num_particles: int, beta: Fraction, u0: Fraction):
    """f(u0) and (u0/2) f'(u0): f is the transfer matrix of the weights over u
    (one a site) at u = u0 + e over Q[e]/(e^2), read as two integer tables."""
    model = MODEL._replace(weights=lambda u, b: tuple(x / u for x in _scalar_weights(u, b)))
    u = u0 + TruncatedSeries.indeterminate(1)
    f = lattice.transfer_matrix(model, num_sites, num_particles, u, beta)
    den = math.lcm(*(x.den for row in f for x in row))
    f0, f1 = ([[x.nums[e] * (den // x.den) for x in row] for row in f] for e in (0, 1))
    u0_f1 = [[x * u0.numerator for x in row] for row in f1]
    return Matrix.from_table(f0, den), Matrix.from_table(u0_f1, 2 * u0.denominator * den)
