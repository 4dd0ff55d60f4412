from fractions import Fraction as F
from functools import partial
from itertools import combinations, product

import pytest
import oracles

from grothcrystal import fivevertex as fv
from grothcrystal import lattice
from grothcrystal.errors import IdentityError, ParameterError, PoleError
from grothcrystal.exactcore import LaurentPoly, Matrix, TruncatedSeries, rational_sqrt
from grothcrystal.fivevertex import (
    MODEL,
    check_rll,
    check_ybe,
    hamiltonian,
    hamiltonian_direct,
    l_matrix,
    r_matrix,
    sector_basis,
    spectral_map,
)
from grothcrystal.grothendieck import skew_single
from grothcrystal.partitions import partition_from_positions

apply_b = partial(lattice.apply_b, MODEL)
apply_c = partial(lattice.apply_c, MODEL)
wavefunction = partial(lattice.amplitude, MODEL)
wavefunction_lattice = partial(lattice.lattice_amplitude, MODEL)
wavefunction_closed = partial(oracles.closed_amplitude, MODEL)
dual_wavefunction = partial(lattice.amplitude, MODEL, dual=True)


def transfer_matrix(num_sites, num_particles, beta):
    return lattice.transfer_matrix(MODEL, num_sites, num_particles, LaurentPoly.var(), beta)


def row_state(x, num_sites):
    """The 0/1 occupation tuple with particles at the 1-based positions x."""
    return tuple(int(site in x) for site in range(1, num_sites + 1))


def chain_index(state):
    # the embedding keeps site 1 most significant
    idx = 0
    for bit in state:
        idx = 2 * idx + bit
    return idx


def test_monodromy_matches_embedded_product():
    u, beta = F(3), F(-2)
    for m in (2, 3):
        blocks = oracles.monodromy_blocks(oracles.l_matrix(u, beta), 2, m)
        b_block = blocks[0, 1]  # adds a particle
        c_block = blocks[1, 0]
        for s in product((0, 1), repeat=m):
            got_b = apply_b(m, u, beta, {s: F(1)})
            got_c = apply_c(m, u, beta, {s: F(1)})
            for t in product((0, 1), repeat=m):
                want_b = b_block[chain_index(t)][chain_index(s)]
                want_c = c_block[chain_index(t)][chain_index(s)]
                assert got_b.get(t, F(0)) == want_b
                assert got_c.get(t, F(0)) == want_c


def test_b_and_c_frozen_values():
    u, beta = F(2), F(1)
    out = apply_b(2, u, beta, {(0, 0): F(1)})
    assert out == {(1, 0): u, (0, 1): -u / beta - 1 / u}
    assert apply_c(2, u, beta, {(0, 1): F(1)}) == {(0, 0): u}
    assert apply_c(2, u, beta, {(1, 0): F(1)}) == {(0, 0): F(-5, 2)}


def test_state_helpers():
    def configuration(x, num_sites=3):
        return MODEL.configuration(num_sites, x, [F(2)] * len(x), F(1))

    assert configuration((1, 3)) == (1, 0, 1)
    assert MODEL.partition((1, 0, 1)) == partition_from_positions((1, 3))
    assert sector_basis(3, 2) == [(0, 1, 1), (1, 0, 1), (1, 1, 0)]
    for build in (lambda: sector_basis(3, -1), lambda: transfer_matrix(3, -1, F(1))):
        with pytest.raises(ParameterError, match="^need a nonnegative particle number$"):
            build()
    for x in ((0,), (2, 0), (-3,), (2, 2)):
        with pytest.raises(ParameterError, match=r"^bad positions "):
            configuration(x)
    with pytest.raises(ParameterError, match="^position beyond the last site$"):
        configuration((1, 4))
    with pytest.raises(ParameterError, match="^positions not strictly increasing"):
        configuration((4, 2))


def test_ybe_and_rll():
    u, v, w = F(2), F(3), F(5)
    assert check_ybe(u, v, w)
    for beta in (F(-1), F(2), F(-1, 3)):
        assert check_rll(u, v, beta)
    with pytest.raises(PoleError):
        r_matrix(F(2), F(2))
    with pytest.raises(PoleError):
        r_matrix(F(2), F(-2))  # u^2 = v^2 is enough for the pole
    with pytest.raises(ParameterError):
        l_matrix(F(2), F(0))


def test_wavefunction_closed_form():
    beta = F(-1, 2)
    us = (F(2), F(3))
    for m in (3, 4):
        for x in combinations(range(1, m + 1), 2):
            lattice = wavefunction_lattice(m, x, us, beta)
            closed = wavefunction_closed(m, x, us, beta)
            assert lattice == closed
            assert wavefunction(m, x, us, beta) == lattice
    # empty chain of operators leaves the vacuum
    assert wavefunction(3, (), (), beta) == 1


def test_dual_wavefunction_closed_form():
    beta = F(2)
    us = (F(2), F(5))
    m = 4
    for x in combinations(range(1, m + 1), 2):
        assert dual_wavefunction(m, x, us, beta) is not None


def test_wavefunction_supports_only_its_sector():
    beta = F(1)
    state = apply_b(3, F(2), beta, {(0, 0, 0): F(1)})
    assert set(state) <= set(sector_basis(3, 1))


def test_skew_matrix_element_is_single_variable_skew():
    m, beta, u = 4, F(-1, 3), F(2)
    z = spectral_map(u, beta)
    for n in (0, 1, 2):
        for x in combinations(range(1, m + 1), n):
            lam = partition_from_positions(x)
            image = apply_b(m, u, beta, {row_state(x, m): F(1)})
            for y in combinations(range(1, m + 1), n + 1):
                mu = partition_from_positions(y)
                # (-beta)^N u^(1-M) <y|B(u)|x>
                got = (-beta) ** n * u ** (1 - m) * image.get(row_state(y, m), F(0))
                assert got == skew_single(mu, lam, z, beta)


def test_rotation_symmetry():
    # <y|B|x> equals <x~|C|y~> after rotating the chain half a turn
    m, beta, u = 4, F(1, 2), F(3)
    for x in combinations(range(1, m + 1), 1):
        image = apply_b(m, u, beta, {row_state(x, m): F(1)})
        for y in combinations(range(1, m + 1), 2):
            amp = image.get(row_state(y, m), F(0))
            xr = oracles.reversed_positions(x, m)
            yr = oracles.reversed_positions(y, m)
            rot = apply_c(m, u, beta, {row_state(yr, m): F(1)})
            assert rot.get(row_state(xr, m), F(0)) == amp


def test_b_operators_commute():
    m, beta = 4, F(-2)
    u, v = F(2), F(3)
    for s in product((0, 1), repeat=m):
        start = {s: F(1)}
        ab = apply_b(m, u, beta, apply_b(m, v, beta, start))
        ba = apply_b(m, v, beta, apply_b(m, u, beta, start))
        assert ab == ba


def test_transfer_matrices_commute():
    m, beta = 3, F(-1)
    for n in range(m + 1):
        t_sym = transfer_matrix(m, n, beta)
        assert len(t_sym) == len(sector_basis(m, n))
        assert oracles.transfer_commute_pointwise(t_sym, m)


def test_hamiltonian_extraction_matches_direct():
    for beta in (F(-1), F(-4), F(-1, 4)):
        for n in range(5):
            h = hamiltonian(4, n, beta)
            assert h == hamiltonian_direct(4, n, beta)


def test_integer_extraction_is_the_series_extraction():
    # f(u0) and (u0/2) f'(u0) read off integer tables of the weights over u
    # equal the series route, T(u0 + e) times u^-M entry by entry
    for beta in (F(-1), F(-4), F(-1, 4)):
        u0 = rational_sqrt(-beta)
        for m in range(7):
            for n in range(m + 1):
                want = oracles.hamiltonian_extraction_series(m, n, beta)
                assert fv._log_derivative_sides(m, n, beta, u0) == want, (m, n, beta)


@pytest.mark.parametrize("beta", [F(-1), F(-1, 4)])
def test_extraction_fails_on_a_perturbed_derivative_entry(monkeypatch, beta):
    # e added to any one entry of the transfer matrix moves (u0/2) f'(u0)
    # and not f(u0) H
    real = lattice.transfer_matrix
    m, n = 4, 2
    size = len(sector_basis(m, n))
    for r, c in product(range(size), repeat=2):

        def perturbed(*args):
            rows = real(*args)
            rows[r][c] = rows[r][c] + TruncatedSeries.indeterminate(1)
            return rows

        monkeypatch.setattr(lattice, "transfer_matrix", perturbed)
        with pytest.raises(IdentityError, match="^transfer-matrix extraction disagrees on the 2-p"):
            hamiltonian(m, n, beta)
    monkeypatch.setattr(lattice, "transfer_matrix", real)
    assert hamiltonian(m, n, beta) == hamiltonian_direct(m, n, beta)


def test_one_site_hamiltonian_keeps_the_wrap_bond():
    # on one site the wrap bond joins site 0 to itself: its hop is -(1/beta) P_empty
    for beta in (F(-1), F(-4), F(-1, 4)):
        assert hamiltonian(1, 0, beta) == Matrix([[-1 / beta]])
        assert hamiltonian(1, 1, beta) == Matrix([[F(0)]])
        for m in (0, 2, 3):
            for n in range(m + 1):
                assert hamiltonian(m, n, beta) == hamiltonian_direct(m, n, beta)


@pytest.mark.parametrize(
    "route",
    [
        lambda: wavefunction(-2, (), (), F(1)),
        lambda: wavefunction_lattice(-2, (), (), F(1)),
        lambda: wavefunction_closed(-2, (), (), F(1)),
        lambda: dual_wavefunction(-2, (), (), F(1)),
        lambda: sector_basis(-1, 0),
        lambda: transfer_matrix(-1, 0, F(1)),
        lambda: hamiltonian_direct(-1, 0, F(1)),
        lambda: hamiltonian(-1, 0, F(-1)),
    ],
    ids=["wavefunction", "lattice", "closed", "dual", "sector", "transfer", "direct", "hamiltonian"],
)
def test_routes_refuse_a_negative_site_count(route):
    with pytest.raises(ParameterError, match="^need a nonnegative number of sites$"):
        route()


def test_operators_refuse_a_negative_site_count():
    for apply in (apply_b, apply_c):
        with pytest.raises(ParameterError, match="^the state does not fit the chain$"):
            apply(-1, F(2), F(1), {(): F(1)})


def test_hamiltonian_needs_rational_square_root():
    with pytest.raises(ParameterError):
        hamiltonian(3, 1, F(-2))
    with pytest.raises(ParameterError):
        hamiltonian(3, 1, F(1))


def test_tasep_generator_structure():
    # at beta = -1 the direct form is a continuous-time TASEP generator
    m = 5
    for n in range(m + 1):
        h = hamiltonian_direct(m, n, F(-1))
        dim = h.rows
        for c in range(dim):
            assert sum(h.entry(r, c) for r in range(dim)) == 0
        for r in range(dim):
            for c in range(dim):
                if r != c:
                    assert h.entry(r, c) in (F(0), F(1))


def test_self_checking_wrapper_returns_lattice_value():
    beta, us = F(1), (F(2),)
    val = wavefunction(3, (2,), us, beta)
    assert val == wavefunction_closed(3, (2,), us, beta)
    assert val == wavefunction_lattice(3, (2,), us, beta)
