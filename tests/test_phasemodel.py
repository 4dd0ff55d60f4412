from fractions import Fraction as F
from functools import partial
from itertools import product
from math import comb

import pytest
import oracles

from grothcrystal import lattice
from grothcrystal.errors import ParameterError, PoleError
from grothcrystal.exactcore import LaurentPoly, Matrix
from grothcrystal.grothendieck import skew_single
from grothcrystal.partitions import partition_from_occupation
from grothcrystal.phasemodel import (
    MODEL,
    bethe_verify_n1,
    check_rll_phase,
    hamiltonian_phase,
    hamiltonian_phase_direct,
    l_matrix_phase,
    scalar_product,
    scalar_product_bruteforce,
    sector_basis,
    spectral_map_phase,
    summation_wavefunctions,
    summation_wavefunctions_bruteforce,
)
from grothcrystal.suites import _BETA_PALETTE

apply_b_phase = partial(lattice.apply_b, MODEL)
apply_c_phase = partial(lattice.apply_c, MODEL)
wavefunction_phase = partial(lattice.amplitude, MODEL)
wavefunction_phase_lattice = partial(lattice.lattice_amplitude, MODEL)
wavefunction_phase_closed = partial(oracles.closed_amplitude, MODEL)
dual_wavefunction_phase = partial(lattice.amplitude, MODEL, dual=True)
dual_wavefunction_phase_lattice = partial(lattice.lattice_amplitude, MODEL, dual=True)


def transfer_matrix_phase(num_sites, num_particles, beta):
    return lattice.transfer_matrix(MODEL, num_sites, num_particles, LaurentPoly.var(), beta)


def fock_index(occ, cap):
    # big-endian digits: site 0 most significant
    idx = 0
    for n in occ:
        idx = idx * (cap + 1) + n
    return idx


def test_monodromy_matches_embedded_product():
    v, beta, cap, m = F(3), F(1, 2), 3, 2
    blocks = oracles.monodromy_blocks(oracles.l_matrix_phase(v, beta, cap), cap + 1, m)
    b_block = blocks[0, 1]
    c_block = blocks[1, 0]
    # stay below the cap so truncation cannot touch the result
    starts = [occ for n in range(3) for occ in sector_basis(m, n)]
    for occ in starts:
        got_b = apply_b_phase(m, v, beta, {occ: F(1)})
        got_c = apply_c_phase(m, v, beta, {occ: F(1)})
        col = fock_index(occ, cap)
        for n_out in range(4):
            for out in sector_basis(m, n_out):
                row = fock_index(out, cap)
                assert got_b.get(out, F(0)) == b_block[row][col]
                assert got_c.get(out, F(0)) == c_block[row][col]


def test_rll_with_truncated_spaces():
    u, v = F(2), F(3)
    for beta in (F(0), F(1), F(-1, 2)):
        for cap in (2, 3):
            assert check_rll_phase(u, v, beta, cap)


def test_l_matrix_phase_entries():
    # rows and columns aux*(cap+1) + n: [[1/v - beta*v*P0, raise], [lower, v]]
    third, d = F(1, 3), F(-7, 6)  # 1/v and 1/v - beta*v at v = 3, beta = 1/2
    assert [list(row) for row in l_matrix_phase(F(3), F(1, 2), 2).data] == [
        [d, 0, 0, 0, 0, 0],
        [0, third, 0, 1, 0, 0],
        [0, 0, third, 0, 1, 0],
        [0, 1, 0, 3, 0, 0],
        [0, 0, 1, 0, 3, 0],
        [0, 0, 0, 0, 0, 3],
    ]


def test_sector_basis_dimensions():
    for m in (2, 3, 4):
        for n in (0, 1, 2, 3):
            basis = sector_basis(m, n)
            assert len(basis) == comb(m + n - 1, n)
            assert all(sum(occ) == n and len(occ) == m for occ in basis)
    assert MODEL.sector(3, 0) == [(0, 0, 0)]
    for m in (0, -2):
        with pytest.raises(ParameterError, match="^need at least one site$"):
            sector_basis(m, 1)
    for build in (
        lambda: sector_basis(1, -1),
        lambda: sector_basis(3, -1),
        lambda: transfer_matrix_phase(1, -1, F(1)),
        lambda: hamiltonian_phase(1, -1, F(1)),
    ):
        with pytest.raises(ParameterError, match="^need a nonnegative particle number$"):
            build()


def test_wavefunction_closed_form():
    beta = F(1, 3)
    vs = (F(2), F(3))
    for m in (2, 3):
        for occ in sector_basis(m, 2):
            lattice = wavefunction_phase_lattice(m, occ, vs, beta)
            closed = wavefunction_phase_closed(m, occ, vs, beta)
            assert lattice == closed
            assert wavefunction_phase(m, occ, vs, beta) == lattice
    assert dual_wavefunction_phase(3, (1, 0, 1), vs, beta) is not None


def test_skew_element_is_single_variable_skew():
    m, beta, v = 4, F(1, 2), F(3)
    z = spectral_map_phase(v, beta)
    norm = 1 / v - beta * v
    for n in (0, 1, 2):
        for lower in sector_basis(m, n):
            image = apply_b_phase(m, v, beta, {lower: F(1)})
            for upper in sector_basis(m, n + 1):
                lam = partition_from_occupation(lower)
                mu = partition_from_occupation(upper)
                # (1/v - beta*v)^(1-M) <upper|B(v)|lower>
                got = norm ** (1 - m) * image.get(upper, F(0))
                assert got == skew_single(mu, lam, z, beta)


def test_b_support_is_admissibility():
    m, beta, v = 4, F(1, 2), F(3)
    for n in (0, 1, 2):
        for lower in sector_basis(m, n):
            image = apply_b_phase(m, v, beta, {lower: F(1)})
            for upper in sector_basis(m, n + 1):
                amp = image.get(upper, F(0))
                assert oracles.admissible(upper, lower) == (amp != 0)


def test_scalar_product_frozen_and_bruteforce():
    # one particle on two sites: u*(1/v - b*v) + v*(1/u - b*u)
    assert scalar_product(2, (F(2),), (F(3),), F(1)) == F(-59, 6)
    for beta in (F(0), F(1), F(-1)):
        for m in (1, 2, 3, 4, 5):
            for n in (0, 1, 2, 3):
                us = (F(2), F(5), F(11, 3))[:n]
                vs = (F(3), F(7), F(13, 2))[:n]
                det = scalar_product(m, us, vs, beta)
                assert det == scalar_product_bruteforce(m, us, vs, beta)
    with pytest.raises(PoleError):
        scalar_product(2, (F(2), F(-2)), (F(3), F(5)), F(1))
    # beta*u^2 = 1 is a pole of z(u), where the closed form raises; the
    # lattice pairing is the formula above at (2, 3, 1/4)
    with pytest.raises(PoleError):
        scalar_product(2, (F(2),), (F(3),), F(1, 4))
    assert scalar_product_bruteforce(2, (F(2),), (F(3),), F(1, 4)) == F(-5, 6)


def test_table_sums_are_the_operator_chains():
    """The pairing over two wavefunction tables equals <empty chain|
    C(u_1)...C(u_N) B(v_1)...B(v_N) |empty chain> run one operator at a time,
    and the weighted sum over one table equals it over the B chain's states,
    also at beta*u^2 = 1 (u = 2 at beta = 1/4)."""
    for m, n, beta in product(range(1, 6), range(4), _BETA_PALETTE + (F(0), F(1, 4))):
        us, vs = (F(2), F(5), F(-11, 3))[:n], (F(3), F(-7, 2), F(13, 2))[:n]
        vacuum = MODEL.sector(m, 0)[0]
        forward = oracles.chain(lattice.apply_b, MODEL, m, vs, beta, {vacuum: F(1)})
        paired = oracles.chain(lattice.apply_c, MODEL, m, us, beta, forward)
        assert scalar_product_bruteforce(m, us, vs, beta) == paired.get(vacuum, 0)
        weighted = sum((-beta) ** sum(k * c for k, c in enumerate(s)) * a for s, a in forward.items())
        assert summation_wavefunctions_bruteforce(m, vs, beta) == weighted


def test_lattice_pairing_is_the_sum_of_amplitude_products():
    """The pairing of the two sector tables equals the sector sum of dual
    times forward one-state lookups, also where beta*u^2 = 1 or beta*v^2 = 1
    (u or v = 2 at beta = 1/4) and the closed form raises."""
    points = [
        ((), ()),
        ((F(2),), (F(3),)),
        ((F(3),), (F(2),)),
        ((F(2), F(5)), (F(3), F(7, 2))),
        ((F(5), F(3)), (F(2), F(7))),
    ]
    for beta in (F(0), F(-1), F(1, 2), F(1, 4)):
        for m in (1, 2, 3, 4):
            for us, vs in points:
                want = sum(
                    dual_wavefunction_phase_lattice(m, occ, us, beta)
                    * wavefunction_phase_lattice(m, occ, vs, beta)
                    for occ in sector_basis(m, len(us))
                )
                assert scalar_product_bruteforce(m, us, vs, beta) == want
    for us, vs in points[1:]:
        with pytest.raises(PoleError):
            scalar_product(2, us, vs, F(1, 4))


def test_bruteforces_keep_their_domain():
    for m in (0, -2):
        with pytest.raises(ParameterError, match="^need at least one site$"):
            scalar_product_bruteforce(m, (F(2),), (F(3),), F(1))
        with pytest.raises(ParameterError, match="^need at least one site$"):
            summation_wavefunctions_bruteforce(m, (F(2),), F(1))
    with pytest.raises(ParameterError, match="^need equally many parameters on both sides$"):
        scalar_product_bruteforce(2, (F(2),), (F(3), F(5)), F(1))


def test_summation_frozen_and_bruteforce():
    assert summation_wavefunctions(2, (F(2),), F(-1)) == F(9, 2)
    for beta in (F(1), F(-1), F(1, 2)):
        for m in (1, 2, 3, 4, 5):
            for n in (0, 1, 2, 3):
                vs = (F(2), F(3), F(7, 2))[:n]
                det = summation_wavefunctions(m, vs, beta)
                assert det == summation_wavefunctions_bruteforce(m, vs, beta)
    with pytest.raises(ParameterError):
        summation_wavefunctions(2, (F(2),), F(0))


def test_closed_forms_need_a_site():
    for m in (0, -2):
        with pytest.raises(ParameterError, match="^need at least one site$"):
            scalar_product(m, (F(2),), (F(3),), F(1))
        with pytest.raises(ParameterError, match="^need at least one site$"):
            summation_wavefunctions(m, (F(2),), F(1))
    with pytest.raises(PoleError, match="^v = 0 is a pole of the spectral map$"):
        summation_wavefunctions(1, (F(0),), F(1))


def test_b_operators_commute():
    m, beta = 3, F(1, 2)
    u, v = F(2), F(3)
    for n in (0, 1, 2):
        for occ in sector_basis(m, n):
            start = {occ: F(1)}
            ab = apply_b_phase(m, u, beta, apply_b_phase(m, v, beta, start))
            ba = apply_b_phase(m, v, beta, apply_b_phase(m, u, beta, start))
            assert ab == ba


def test_transfer_matrices_commute():
    m, beta = 3, F(1, 2)
    for n in (0, 1, 2):
        tau = transfer_matrix_phase(m, n, beta)
        assert len(tau) == len(sector_basis(m, n))
        assert oracles.transfer_commute_pointwise(tau, m)


def test_hamiltonian_extraction_matches_direct():
    for beta in (F(0), F(-1), F(1, 2)):
        for m in (2, 3):
            for n in (1, 2):
                h = hamiltonian_phase(m, n, beta)
                assert h == hamiltonian_phase_direct(m, n, beta)


def test_one_site_hamiltonian_keeps_the_wrap_bond():
    # on one site the wrap bond hops a boson from site 0 back to site 0
    for beta in _BETA_PALETTE + (F(0),):
        for n in range(4):
            assert hamiltonian_phase(1, n, beta) == Matrix([[1 - beta * (n == 0)]])


def test_bethe_one_particle_reports():
    rep = bethe_verify_n1(3, F(-1))
    assert rep["chain_length"] == 3
    assert rep["checked"] == 2 and rep["skipped"] == 1
    assert rep["max_residual"] < 1e-10
    # the skipped root is the singular point of the root map
    skipped = [r for r in rep["roots"] if r["skipped"]]
    assert len(skipped) == 1 and "singular" in skipped[0]["reason"]

    # beta = 1 on two sites: the root at omega = -1 hits the singular point
    rep = bethe_verify_n1(2, F(1))
    assert rep["checked"] == 1 and rep["skipped"] == 1
    assert rep["max_residual"] < 1e-10

    rep = bethe_verify_n1(4, F(0))
    assert rep["checked"] == 4 and rep["skipped"] == 0
    assert rep["max_residual"] < 1e-10
