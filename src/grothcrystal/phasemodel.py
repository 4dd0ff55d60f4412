"""Bosonic phase model on a periodic chain of M sites numbered 0..M-1.

States are occupation tuples (n_0, ..., n_{M-1}).  The site operator acts on
(aux, Fock) as [[1/v - beta*v*P0, raise], [lower, v]] with P0 the projector on
an empty site, and the monodromy matrix multiplies site 0 first.  Its upper
right auxiliary entry adds one boson to the chain; the lower left removes one.
At beta = r/s, v w s is the weight table (s - r v^2, s, s v^2, s v^2, s v,
s v).  `MODEL` hands the table, the occupation-tuple states and the closed
form to `lattice`, which builds the site operator, B, C, the amplitudes and
the transfer matrix from it: B, C and the amplitudes on its one integer chain
at rational points, the transfer matrix as integer coefficient tables in v
(`transfer_table`) for the generator, and the transfer matrix over floats
from its one ring-generic loop for the Bethe-root numerics.

Each closed form is prod_v (1/v - beta*v)^(M-1) times a Grothendieck one at
z(v) = 1/(1/v^2 - beta): G_lam for the wavefunctions, `cauchy_rhs` for the
scalar product, `summation_rhs` for the weighted sum.  The brute forces of the
last two are sums over the lattice wavefunction tables and reach no closed form.
"""

from __future__ import annotations

from cmath import exp, pi
from fractions import Fraction
from typing import Sequence

from . import lattice
from .errors import IdentityError, ParameterError, PoleError
from .exactcore import Matrix, rat_str
from .fivevertex import r_matrix
from .grothendieck import cauchy_rhs, summation_rhs
from .partitions import partition_from_occupation


def l_matrix_phase(v: Fraction, beta: Fraction, cap: int) -> Matrix:
    """Site operator on (aux, Fock<=cap), dimension 2*(cap+1): the blocks
    [[1/v - beta*v*P0, raise], [lower, v]], row and column aux*(cap+1) + n."""
    return lattice.site_matrix(MODEL, v, beta, cap + 1)


def check_rll_phase(u: Fraction, v: Fraction, beta: Fraction, cap: int) -> bool:
    """Intertwining relation on aux x aux x Fock, compared on inputs whose site
    occupation is below the truncation cap (those columns are exact)."""
    if cap < 1:
        raise ParameterError("need cap >= 1")
    l_u, l_v = l_matrix_phase(u, beta, cap), l_matrix_phase(v, beta, cap)
    return lattice.rll_holds(l_u, l_v, r_matrix(u, v), cap)


def _table(r: int, s: int) -> tuple[tuple, int]:
    """The weight table at beta = r/s: v w s = (s - r v^2, s, s v^2, s v^2,
    s v, s v), each as (c0, c1, c2), over s."""
    return ((s, 0, -r), (s, 0, 0), (0, 0, s), (0, 0, s), (0, s, 0), (0, s, 0)), s


def sector_basis(num_sites: int, num_particles: int) -> list[tuple[int, ...]]:
    """Occupation tuples with the given total, in lexicographic order."""
    if num_sites < 1:
        raise ParameterError("need at least one site")
    if num_particles < 0:
        raise ParameterError("need a nonnegative particle number")
    return lattice.occupations(num_sites, num_particles, None)


def spectral_map_phase(v: Fraction, beta: Fraction) -> Fraction:
    """The variable z = 1/(1/v^2 - beta) induced by a spectral parameter."""
    return MODEL.spectral_map(v, beta)


def _configuration(num_sites: int, occ: Sequence[int], vs: Sequence[Fraction], beta) -> tuple:
    """The domain every amplitude route shares: at least one site, one
    nonnegative occupation per site and one spectral parameter per boson.
    Returns the occupation tuple."""
    if num_sites < 1:
        raise ParameterError("need at least one site")
    occ = tuple(occ)
    if len(occ) != num_sites:
        raise ParameterError("occupation must cover every site")
    if sum(occ) != len(vs):
        raise ParameterError("need exactly one spectral parameter per boson")
    partition_from_occupation(occ)  # refuses a negative occupation
    return occ


def _prefactor_and_zs(num_sites: int, vs: Sequence[Fraction], beta: Fraction) -> tuple:
    """(prod (1/v - beta*v)^(M-1), [z(v)]) for a Fraction beta."""
    if num_sites < 1:
        raise ParameterError("need at least one site")
    zs = [MODEL.spectral_map(v, beta) for v in vs]  # rejects v = 0 first
    return MODEL.prefactor(num_sites, vs, beta), zs


MODEL = lattice.Model(
    capacity=None,
    table=_table,
    variable="v",
    exchange=lambda r, s: (1, 1),
    sector=sector_basis,
    partition=partition_from_occupation,
    configuration=_configuration,
    dual_width=lambda num_sites, num_particles: num_sites - 1,
)


def scalar_product(
    num_sites: int,
    us: Sequence[Fraction],
    vs: Sequence[Fraction],
    beta: Fraction,
) -> Fraction:
    """<off-shell state(u)|off-shell state(v)>: both prefactors times the
    Grothendieck Cauchy closed form at z(v), z(u)."""
    us = [Fraction(u) for u in us]
    vs = [Fraction(v) for v in vs]
    beta = Fraction(beta)
    n = len(us)
    if len(vs) != n:
        raise ParameterError("need equally many parameters on both sides")
    u2 = {u * u for u in us}
    v2 = {v * v for v in vs}
    if len(u2) != n or len(v2) != n:
        raise PoleError("squared parameters must be pairwise distinct")
    if u2 & v2:
        raise PoleError("u and v squares must avoid each other")
    pref_u, zus = _prefactor_and_zs(num_sites, us, beta)
    pref_v, zvs = _prefactor_and_zs(num_sites, vs, beta)
    return pref_u * pref_v * cauchy_rhs(num_sites - 1, zvs, zus, beta)


def scalar_product_bruteforce(
    num_sites: int,
    us: Sequence[Fraction],
    vs: Sequence[Fraction],
    beta: Fraction,
) -> Fraction:
    """The same pairing on the lattice: the dual wavefunction at u times the
    one at v, summed over the sector; finite at beta*u^2 = 1."""
    if len(vs) != len(us):
        raise ParameterError("need equally many parameters on both sides")
    dual = lattice.lattice_amplitudes(MODEL, num_sites, us, beta, dual=True)
    wave = lattice.lattice_amplitudes(MODEL, num_sites, vs, beta)
    return sum((amp * wave.get(occ, 0) for occ, amp in dual.items()), Fraction(0))


def summation_wavefunctions(
    num_sites: int, vs: Sequence[Fraction], beta: Fraction
) -> Fraction:
    """The (-beta)-weighted sum of the wavefunction over a particle-number
    sector: the prefactor times the Grothendieck summation closed form at z(v);
    beta must be nonzero."""
    vs = [Fraction(v) for v in vs]
    beta = Fraction(beta)
    if beta == 0:
        raise ParameterError(
            "the closed summation needs beta != 0; sum directly in the beta = 0 limit"
        )
    v2 = {v * v for v in vs}
    if len(v2) != len(vs):
        raise PoleError("squared parameters must be pairwise distinct")
    if 1 / beta in v2:
        raise PoleError("1 - beta*v^2 vanishes")
    pref, zs = _prefactor_and_zs(num_sites, vs, beta)
    return pref * summation_rhs(num_sites - 1, zs, beta)


def summation_wavefunctions_bruteforce(
    num_sites: int, vs: Sequence[Fraction], beta: Fraction
) -> Fraction:
    """The same sum over the wavefunctions of the sector."""
    beta = Fraction(beta)
    state = lattice.lattice_amplitudes(MODEL, num_sites, vs, beta)
    return sum(
        ((-beta) ** sum(k * n for k, n in enumerate(occ)) * amp for occ, amp in state.items()),
        Fraction(0),
    )


def hamiltonian_phase_direct(num_sites: int, num_particles: int, beta: Fraction) -> Matrix:
    """Hopping-plus-empty-site generator on one particle-number sector.

    H = sum_j { raise_{j+1} lower_j - beta * P0_j } with periodic wrap; the hop
    moves one boson from site j to site j+1, and on one site it is the identity.
    """
    beta = Fraction(beta)
    return lattice.hopping_generator(
        MODEL, num_sites, num_particles, Fraction(1), lambda occ: -beta * occ.count(0)
    )


def hamiltonian_phase(num_sites: int, num_particles: int, beta: Fraction) -> Matrix:
    """Generator built two ways: directly, and as the v^2 coefficient of
    v^M tau(v), which is that of the weight table's transfer table over s^M.
    Returns the direct form after asserting equality."""
    direct = hamiltonian_phase_direct(num_sites, num_particles, beta)
    rows, scale = MODEL.table_at(beta)
    table = lattice.transfer_table(MODEL, num_sites, num_particles, rows, 2)
    if Matrix.from_table([[c[2] for c in row] for row in table], scale**num_sites) != direct:
        raise IdentityError("transfer-matrix extraction disagrees with the direct build")
    return direct


# -- Bethe equations in the one-particle sector -------------------------------


_BETHE_PROBES = (0.9, 1.7, 2.3)


def bethe_verify_n1(num_sites: int, beta: Fraction) -> dict:
    """Construct and check all one-particle Bethe roots v^2 = 1/(beta + omega).

    omega runs over the M-th roots of unity; roots colliding with the
    singularity omega = -beta are reported as skipped.  For each constructed
    root the report holds the eigenvalue-equation residual, the Bethe-equation
    residual, and transfer-matrix eigenvalue residuals at the probe points.
    """
    m = num_sites
    beta = Fraction(beta)
    beta_f = float(beta)
    basis = sector_basis(m, 1)
    h_exact = hamiltonian_phase_direct(m, 1, beta)
    h = [[float(h_exact.entry(r, c)) for c in range(m)] for r in range(m)]
    taus = {u: lattice.transfer_matrix(MODEL, m, 1, u, beta_f) for u in _BETHE_PROBES}

    roots = []
    for k in range(m):
        omega = exp(2j * pi * k / m)
        if abs(omega + beta_f) < 1e-9:
            roots.append(
                {"k": k, "omega": _c(omega), "skipped": True,
                 "reason": "omega = -beta is a singular point of the root map"}
            )
            continue
        w = beta_f + omega  # w = 1/v^2
        v2 = 1.0 / w
        z = 1.0 / omega
        energy = -beta_f * m + w
        psi_vec = [z ** occ.index(1) for occ in basis]
        hpsi = [
            sum(h[r][c] * psi_vec[c] for c in range(m) if h[r][c])
            for r in range(m)
        ]
        h_res = max(abs(a - energy * b) for a, b in zip(hpsi, psi_vec))
        bae_res = abs((w - beta_f) ** m - 1.0)
        tau_res = []
        for u, tau_val in taus.items():
            if abs(u * u - v2) < 1e-6 or abs(w * u * u - 1.0) < 1e-9:
                raise ParameterError("probe point too close to a pole")
            tpsi = [
                sum(tau_val[r][c] * psi_vec[c] for c in range(m))
                for r in range(m)
            ]
            lam = ((1.0 / u - beta_f * u) ** m - w * u ** (m + 2)) / (1.0 - w * u * u)
            tau_res.append(max(abs(a - lam * b) for a, b in zip(tpsi, psi_vec)))
        roots.append(
            {
                "k": k,
                "omega": _c(omega),
                "skipped": False,
                "v_squared": _c(v2),
                "energy": _c(energy),
                "eigen_residual": h_res,
                "bae_residual": bae_res,
                "tau_residuals": tau_res,
            }
        )
    checked = [r for r in roots if not r["skipped"]]
    return {
        "chain_length": m,
        "beta": rat_str(beta),
        "roots": roots,
        "checked": len(checked),
        "skipped": len(roots) - len(checked),
        "max_residual": max(
            (
                max(r["eigen_residual"], r["bae_residual"], *r["tau_residuals"])
                for r in checked
            ),
            default=0.0,
        ),
    }


def _c(z) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]

