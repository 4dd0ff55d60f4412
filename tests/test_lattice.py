"""The shared vertex table, state enumerator and row path-sum engine.  The
site operators it builds equal the ones written out by hand in the oracles,
and its path sums equal products of embedded site operators.  Both models'
states are occupation tuples from one enumerator, and the five-vertex and
phase-model sectors carry the same partitions.  On its float ring, which
only the Bethe numerics use, it agrees with the exact Laurent transfer
matrices.  The one weight function per model serves all three rings.  The
sector tables equal the per-state operator chains and the chains that build
their values after every step; a path sum, a transfer matrix and a chain of
path sums over the rationals or over truncated series, run on integers,
equal the ring-generic loop, and a series transfer matrix multiplies no
series per vertex; each one-state lookup, a chain from the state down to
the empty chain, equals its table without building one.  Each five-vertex wavefunction, forward and dual, is a
phase-model one up to a factor, path sum against path sum (the boson-fermion
correspondence).  The lattice, closed and self-checked amplitude routes
of each model, forward and dual, accept and refuse the same inputs, and the
prefactor ratio the skew checks read equals the normalisation written out by
hand."""

import random
from fractions import Fraction as F
from functools import partial
from itertools import product
from math import comb, prod

import pytest
import oracles
from hypothesis import given, settings
from hypothesis import strategies as st

from grothcrystal import fivevertex as fv
from grothcrystal import lattice
from grothcrystal import phasemodel as pm
from grothcrystal import sixvertex as sv
from grothcrystal.errors import ParameterError, PoleError
from grothcrystal.exactcore import LaurentPoly, Matrix, TruncatedSeries, rational_sqrt
from grothcrystal.suites import _BETA_PALETTE, _skew_norm


def assert_close(got, exact, v):
    want = [[oracles.evaluate(p, v) for p in row] for row in exact]
    assert [len(row) for row in got] == [len(row) for row in want]
    for got_row, want_row in zip(got, want):
        for x, y in zip(got_row, want_row):
            assert isinstance(x, float)
            assert abs(x - y) < 1e-12


def test_float_transfer_matrix_matches_exact_one_particle_sector():
    v = F(7, 5)
    for beta in (F(-1, 2), F(1, 3), F(2)):
        for m in (2, 3, 4, 5):
            for model in (fv.MODEL, pm.MODEL):
                exact = lattice.transfer_matrix(model, m, 1, LaurentPoly.var(), beta)
                got = lattice.transfer_matrix(model, m, 1, float(v), float(beta))
                assert len(got) == len(model.sector(m, 1))
                assert_close(got, exact, v)


def test_weight_tuples_at_the_laurent_variable():
    u = LaurentPoly.var()
    for beta in (F(-1, 2), F(1, 3), F(2)):
        # (stay_empty, stay_occupied, pass_empty, pass_occupied, deposit, pickup)
        assert fv._scalar_weights(u, beta) == (
            LaurentPoly.var(),
            LaurentPoly(),
            LaurentPoly({1: -1 / beta, -1: F(-1)}),
            LaurentPoly({1: -1 / beta}),
            LaurentPoly.const(1),
            LaurentPoly.const(1),
        )
        assert pm._scalar_weights_phase(u, beta) == (
            LaurentPoly({-1: F(1), 1: -beta}),
            LaurentPoly({-1: F(1)}),
            LaurentPoly.var(),
            LaurentPoly.var(),
            LaurentPoly.const(1),
            LaurentPoly.const(1),
        )


def test_weight_tuples_keep_the_ring_of_their_argument():
    v, beta = F(7, 5), F(1, 3)
    for build in (fv._scalar_weights, pm._scalar_weights_phase):
        exact = build(v, beta)
        assert all(type(x) is F for x in exact)
        laurent = build(LaurentPoly.var(), beta)
        assert [oracles.evaluate(p, v) for p in laurent] == list(exact)
        floats = build(float(v), float(beta))
        assert all(type(x) is float for x in floats)
        assert all(abs(a - float(b)) < 1e-15 for a, b in zip(floats, exact))


SPECTRAL = (F(2), F(3), F(7, 5), F(-1, 2))


def test_site_operators_equal_the_hand_written_ones():
    for u in SPECTRAL:
        for beta in _BETA_PALETTE:
            assert fv.l_matrix(u, beta) == oracles.l_matrix(u, beta)
        # 1/4 and 4 put beta*v^2 = 1 at v = 2 and v = -1/2
        for beta in _BETA_PALETTE + (F(0), F(1, 4), F(4)):
            for cap in range(5):
                assert pm.l_matrix_phase(u, beta, cap) == oracles.l_matrix_phase(u, beta, cap)
        params = [sv.five_vertex_params(beta) for beta in _BETA_PALETTE]
        params += [sv.intertwiner_params(t) for t in (F(0), F(1, 3), F(1, 2), F(1))]
        params.append(sv.SixVertexParams(1, 1, 2, 1, F(-1, 2), F(-1, 2), F(1, 2)))
        params.append(sv.SixVertexParams(2, 3, 1, 1, -3, -6, F(1, 2)))  # deposit != pickup
        for p in params:
            assert sv.l_six(u, p) == oracles.l_six(u, p)


def test_site_operators_refuse_an_empty_site_space_and_a_zero_parameter():
    with pytest.raises(ParameterError, match="^need levels >= 1$"):
        pm.l_matrix_phase(F(3), F(1, 2), -1)
    with pytest.raises(ParameterError, match="^need levels >= 1$"):
        lattice.site_operator((F(2),) * 6, 0)
    for build in (
        lambda: fv.l_matrix(F(0), F(1)),
        lambda: pm.l_matrix_phase(F(0), F(1), 2),
        lambda: sv.l_six(F(0), sv.intertwiner_params(F(1, 2))),
    ):
        with pytest.raises(PoleError):
            build()


def test_truncated_intertwining_fails_on_the_top_column():
    # a Fock space truncated at cap drops the move that raises state cap, so the
    # phase check compares the columns below cap: on column cap the sides differ
    u, v = F(2), F(3)
    for beta in _BETA_PALETTE + (F(0),):
        for cap in (1, 2, 3):
            l_u, l_v = pm.l_matrix_phase(u, beta, cap), pm.l_matrix_phase(v, beta, cap)
            assert lattice.rll_holds(l_u, l_v, fv.r_matrix(u, v), cap)
            assert not lattice.rll_holds(l_u, l_v, fv.r_matrix(u, v), cap + 1)


@pytest.mark.parametrize("model", ["fv", "pm", "sv6"])
def test_intertwining_fails_when_one_entry_of_r_moves(model):
    """Each model's R passes its RLL check (the phase model at cap 4, its top
    column still left out), and moving any one of R's 16 entries by 1/7 fails
    it: the comparison on the two sides' integer tables sees every entry."""
    u, v, beta, six = F(2), F(3), F(-1, 2), sv.intertwiner_params(F(1, 3))
    l_u, l_v, r, exact = {
        "fv": lambda: (fv.l_matrix(u, beta), fv.l_matrix(v, beta), fv.r_matrix(u, v), 2),
        "pm": lambda: (pm.l_matrix_phase(u, beta, 4), pm.l_matrix_phase(v, beta, 4), fv.r_matrix(u, v), 4),
        "sv6": lambda: (sv.l_six(u, six), sv.l_six(v, six), sv.r_six(u, v, six.t), 2),
    }[model]()
    assert lattice.rll_holds(l_u, l_v, r, exact)
    for i, j in product(range(4), repeat=2):
        rows = [list(row) for row in r.data]
        rows[i][j] += F(1, 7)
        assert not lattice.rll_holds(l_u, l_v, Matrix(rows), exact), (i, j)


def test_intertwining_compares_sides_over_their_own_denominators():
    """Sides that agree on the kept columns and differ elsewhere can reduce to
    different denominators: with R = 1 and site operators 1 x A, 1 x B, the
    sides are 1 x 1 x AB and 1 x 1 x BA, equal on site column 0, and over 2
    and over 1 on column 1."""

    def on_site(m):
        return Matrix([[m[i % 2][j % 2] if i // 2 == j // 2 else 0 for j in range(4)] for i in range(4)])

    l_u, l_v = on_site([[1, 0], [0, 2]]), on_site([[1, F(1, 2)], [0, 1]])
    ident = Matrix([[int(i == j) for j in range(4)] for i in range(4)])
    assert lattice.rll_holds(l_u, l_v, ident, 1)
    assert not lattice.rll_holds(l_u, l_v, ident, 2)


@pytest.mark.parametrize(
    "model, levels, num_sites, states",
    [
        (fv.MODEL, 2, 3, list(product((0, 1), repeat=3))),
        # at most two particles, so a cap of 3 never truncates a path
        (pm.MODEL, 4, 2, [occ for occ in product(range(3), repeat=2) if sum(occ) <= 2]),
    ],
    ids=["fv", "pm"],
)
def test_path_sums_are_products_of_the_site_operator(model, levels, num_sites, states):
    # six distinct weights, none of them 0 or 1, so deposit and pickup cannot
    # stand in for each other or for the ring's one
    rng = random.Random(16)
    w: list = []
    while len(w) < 6:
        x = F(rng.randint(-9, 9), rng.randint(1, 9))
        if x not in (0, 1) and x not in w:
            w.append(x)
    w = tuple(w)
    blocks = oracles.monodromy_blocks(lattice.site_operator(w, levels), levels, num_sites)

    def index(state):
        idx = 0
        for n in state:
            idx = idx * levels + n
        return idx

    all_states = list(product(range(levels), repeat=num_sites))
    at_w = model._replace(weights=lambda p, beta: w)
    for s in states:
        for apply, a_in, a_out in ((lattice.apply_b, 1, 0), (lattice.apply_c, 0, 1)):
            got = apply(at_w, num_sites, 1, 1, {s: F(1)})
            block = blocks[a_out, a_in]
            want = {t: block[index(t)][index(s)] for t in all_states}
            assert got == {t: c for t, c in want.items() if c}
    for n in range(3):
        basis = [s for s in states if sum(s) == n]
        assert at_w.sector(num_sites, n) == basis
        want = [
            [blocks[0, 0][index(r)][index(c)] + blocks[1, 1][index(r)][index(c)] for c in basis]
            for r in basis
        ]
        assert lattice.transfer_matrix(at_w, num_sites, n, None, None) == want


@pytest.mark.parametrize(
    "model, off_chain",
    [
        (fv.MODEL, ((0,), (0, 0, 1), (0, -1), (2, 0))),
        (pm.MODEL, ((0,), (0, 0, 5), (0, -1), (0, -1, 5))),
    ],
    ids=["fv", "pm"],
)
def test_path_sums_refuse_states_off_the_chain(model, off_chain):
    # a state too short, too long, negative or, at capacity 1, holding two
    # particles on one site; its amplitude 0 does not let it through
    w = fv._scalar_weights(F(2), F(1))
    for state in off_chain:
        for amp in (F(1), F(0)):
            for a_in, a_out in product((0, 1), repeat=2):
                with pytest.raises(ParameterError, match="^the state does not fit the chain$"):
                    lattice.integer_chain(model.capacity, 2, {state: amp}, [(a_in, a_out, w)])
            for apply in (lattice.apply_b, lattice.apply_c):
                with pytest.raises(ParameterError, match="^the state does not fit the chain$"):
                    apply(model, 2, F(2), F(1), {(0, 0): F(1), state: amp})
    # a phase model state fits its chain at any occupation
    assert lattice.apply_b(pm.MODEL, 2, F(2), F(1), {(2, 0): F(1)})


def _chain(capacity, num_sites: int, state: dict, steps) -> dict:
    """`lattice.integer_chain` with its values built; one step of it is what
    `lattice.apply_b` and `lattice.apply_c` return."""
    sums, den, build = lattice.integer_chain(capacity, num_sites, state, steps)
    return {s: build(c, den) for s, c in sums.items()}


_ints = st.integers(-9, 9).filter(bool)
_fractions = st.fractions(-9, 9, max_denominator=9).filter(bool)
_weights = st.one_of(st.just(0), _ints, _fractions)
_amplitudes = st.one_of(st.sampled_from([0, F(0)]), _ints, _fractions)


@st.composite
def _rational_path_sums(draw):
    """A capacity, a chain of at most five sites, an aux entry, six weights
    and a weighted set of states on the chain, each weight and amplitude zero,
    an int or a Fraction."""
    capacity = draw(st.sampled_from([1, None]))
    num_sites = draw(st.integers(1, 5))
    a_in, a_out = draw(st.sampled_from(list(product((0, 1), repeat=2))))
    w = tuple(draw(_weights) for _ in range(6))
    top = 1 if capacity == 1 else 2
    sites = st.tuples(*(st.integers(0, top) for _ in range(num_sites)))
    state = draw(st.dictionaries(sites, _amplitudes, min_size=1, max_size=6))
    return capacity, num_sites, state, a_in, a_out, w


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_rational_path_sums())
def test_rational_path_sums_are_the_ring_generic_loop(args):
    # the integer lift equals the loop run on the inputs as given, and every
    # sum it returns is a nonzero Fraction
    capacity, num_sites, state, a_in, a_out, w = args
    got = _chain(capacity, num_sites, state, [(a_in, a_out, w)])
    assert got == lattice._path_sum(*args, {})
    assert all(type(c) is F and c != 0 for c in got.values())


def _series(order: int):
    """Series through q^order whose coefficients are zero, ints or Fractions
    of mixed denominators, the zero series included."""
    coeffs = st.lists(_weights, min_size=order + 1, max_size=order + 1)
    return coeffs.map(TruncatedSeries)


@st.composite
def _series_path_sums(draw):
    """`_rational_path_sums` at a series order 0..3: each weight and amplitude
    zero, rational or a series, and at least one weight a series."""
    capacity, num_sites, state, a_in, a_out, w = draw(_rational_path_sums())
    series = _series(draw(st.integers(0, 3)))
    w = [draw(st.one_of(st.just(x), series)) for x in w]
    w[draw(st.integers(0, 5))] = draw(series)
    state = {s: draw(st.one_of(st.just(c), series)) for s, c in state.items()}
    return capacity, num_sites, state, a_in, a_out, tuple(w)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_series_path_sums())
def test_series_path_sums_are_the_ring_generic_loop(args):
    # the lift to integer coefficient tuples equals the loop run on the
    # TruncatedSeries as given, and every sum it returns is a nonzero series
    capacity, num_sites, state, a_in, a_out, w = args
    got = _chain(capacity, num_sites, state, [(a_in, a_out, w)])
    assert got == lattice._path_sum(*args, {})
    assert all(type(c) is TruncatedSeries and c for c in got.values())


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_series_path_sums())
def test_series_transfer_matrices_are_the_ring_generic_loop(args):
    # A + D summed on integers and built once per entry equals the sum of the
    # two generic path sums per column, for every sector of the chain
    capacity, num_sites, _, _, _, w = args
    model = (fv.MODEL if capacity == 1 else pm.MODEL)._replace(weights=lambda p, beta: w)
    for n in range(3):
        basis = model.sector(num_sites, n)
        columns = [[lattice._path_sum(capacity, num_sites, {s: 1}, a, a, w, {}) for a in (0, 1)] for s in basis]
        want = [[a.get(r, 0) + d.get(r, 0) for a, d in columns] for r in basis]
        assert lattice.transfer_matrix(model, num_sites, n, None, None) == want


@st.composite
def _chains(draw):
    """A start as in `_rational_path_sums` and one to three steps on its
    chain, all rational or, at one series order, each weight and amplitude
    possibly a series."""
    capacity, num_sites, state, *step = draw(_rational_path_sums())
    steps = [tuple(step)]
    for _ in range(draw(st.integers(0, 2))):
        steps.append(draw(_rational_path_sums())[3:])
    if draw(st.booleans()):
        series = _series(draw(st.integers(0, 3)))
        lift = lambda x: draw(st.one_of(st.just(x), series))  # noqa: E731
        state = {s: lift(c) for s, c in state.items()}
        steps = [(a_in, a_out, tuple(map(lift, w))) for a_in, a_out, w in steps]
    return capacity, num_sites, state, steps


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_chains())
def test_integer_chains_are_the_generic_loop_step_by_step(args):
    # one division at the end of the chain gives what the ring-generic loop
    # gives one step at a time on the values as given
    capacity, num_sites, state, steps = args
    assert _chain(capacity, num_sites, state, steps) == oracles.path_sum_chain(capacity, num_sites, state, steps)


@pytest.mark.parametrize(
    "model, config, m_max, betas",
    [
        (fv.MODEL, lambda s: tuple(j + 1 for j, n in enumerate(s) if n), 6, (F(-1, 2), F(2))),
        (pm.MODEL, tuple, 4, (F(0), F(-1, 2), F(2))),
    ],
    ids=["fv", "pm"],
)
def test_chains_divide_once_as_the_step_by_step_chain(model, config, m_max, betas):
    """A sector table, forward and dual, and each one-state lookup equal the
    ring-generic chain that builds its values after every operator."""
    ps = (F(7, 5), F(3), F(-5, 2))
    for m, beta, n, dual in product(range(1, m_max + 1), betas, range(4), (False, True)):
        ws = [model.weights(p, beta) for p in ps[:n]]
        up = [(1, 0, lattice._transposed(w)) for w in ws] if dual else [(1, 0, w) for w in ws[::-1]]
        down = [(0, 1, w) for w in ws[::-1]] if dual else [(0, 1, lattice._transposed(w)) for w in ws]
        empty = model.sector(m, 0)[0]
        want = oracles.path_sum_chain(model.capacity, m, {empty: F(1)}, up)
        assert lattice.lattice_amplitudes(model, m, ps[:n], beta, dual) == want
        for s in model.sector(m, n):
            one = oracles.path_sum_chain(model.capacity, m, {s: F(1)}, down).get(empty, 0)
            got = lattice.lattice_amplitude(model, m, config(s), ps[:n], beta, dual)
            assert got == one == want.get(s, 0)
            assert type(got) is F


@pytest.mark.parametrize("model, calls", [(fv.MODEL, 5), (pm.MODEL, 4)], ids=["fv", "pm"])
def test_series_transfer_matrices_multiply_no_series_per_vertex(monkeypatch, model, calls):
    # the weights and the zero entry take a fixed number of series products;
    # every vertex product runs on integer coefficient tuples, whatever the
    # chain length and sector size
    real, counted = TruncatedSeries.__mul__, []

    def mul(self, other):
        counted.append(1)
        return real(self, other)

    monkeypatch.setattr(TruncatedSeries, "__mul__", mul)
    monkeypatch.setattr(TruncatedSeries, "__rmul__", mul)
    u = F(3, 2) + TruncatedSeries.indeterminate(2)
    for m, n in product(range(1, 7), range(4)):
        counted.clear()
        lattice.transfer_matrix(model, m, n, u, F(-1, 3))
        assert len(counted) == calls, (m, n)


def test_occupations_hand_out_a_fresh_list_each_call():
    # one cached enumeration per sector; a caller's edits do not reach it
    want = lattice.occupations(4, 2, None)
    got = lattice.occupations(4, 2, None)
    assert got == want and got is not want
    got.append((9, 9, 9, 9))
    got[0] = None
    assert lattice.occupations(4, 2, None) == want
    assert fv.sector_basis(3, 1) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.integers(0, 6), st.integers(0, 5), st.sampled_from([1, None]))
def test_occupations_are_the_sorted_capped_tuples(num_sites, num_particles, capacity):
    top = num_particles if capacity is None else capacity
    want = sorted(
        occ
        for occ in product(range(num_particles + 1), repeat=num_sites)
        if sum(occ) == num_particles and max(occ, default=0) <= top
    )
    got = lattice.occupations(num_sites, num_particles, capacity)
    assert got == want
    if num_sites:  # the counts below hold on at least one site
        pool = num_sites if capacity else num_sites + num_particles - 1
        assert len(got) == comb(pool, num_particles)


def test_fermion_and_boson_sectors_carry_the_same_partitions():
    # the five-vertex (M, N) sector and the phase-model (M - N + 1, N) sector
    # both hold the partitions in the N x (M - N) box, one state each
    for m in range(9):
        for n in range(m + 1):
            fermions = sorted(map(fv.MODEL.partition, fv.MODEL.sector(m, n)))
            bosons = sorted(map(pm.MODEL.partition, pm.MODEL.sector(m - n + 1, n)))
            assert fermions == bosons
            assert len(fermions) == len(set(fermions)) == comb(m, n)


def _fermion_z(z, beta):
    """The five-vertex B in z-weights."""
    return (-beta, 0, -beta * z, 1, 1 + beta * z, -beta)


def _boson_z(z, beta):
    """The phase model's B in z-weights."""
    return (1, 1 + beta * z, z, z, 1 + beta * z, z)


def _correspondence(boson_z, dual: bool):
    """(fermion side, boson side) at each five-vertex state x of M <= 7 sites
    and N <= 4 particles, occ the phase-model state of M - N + 1 sites with
    the partition of x, both sides path sums, z_N applied first.  Forward:
    <x|B(z_1)...B(z_N)|0> and (-beta)^(N(M-N) + N(N-1)/2) <occ|B(z_1)...B(z_N)|0>;
    dual: <0|C(z_1)...C(z_N)|x> and (-beta)^(N(M-N) + N(N+1)/2) / prod z_j
    times <0|C(z_1)...C(z_N)|occ>."""

    def chain(capacity, num_sites, state, w, zs, beta):
        a_in, a_out = (0, 1) if dual else (1, 0)
        return _chain(capacity, num_sites, state, [(a_in, a_out, w(z, beta)) for z in reversed(zs)])

    betas = (F(1, 2), F(-2, 3), F(3), F(-1))
    sectors = ((3, 3), (4, 2), (5, 1), (5, 3), (6, 3), (7, 4))
    for beta, (m, n) in product(betas, sectors):
        zs, k = (F(1, 3), F(2, 5), F(-3, 7), F(5, 11))[:n], m - n + 1
        occ = {pm.MODEL.partition(s): s for s in pm.MODEL.sector(k, n)}
        if dual:
            factor = (-beta) ** (n * (m - n) + n * (n + 1) // 2) / prod(zs)
            for x in fv.MODEL.sector(m, n):
                fermion = chain(1, m, {x: F(1)}, _fermion_z, zs, beta).get((0,) * m, 0)
                boson = chain(None, k, {occ[fv.MODEL.partition(x)]: F(1)}, boson_z, zs, beta)
                yield fermion, factor * boson.get((0,) * k, 0)
        else:
            factor = (-beta) ** (n * (m - n) + n * (n - 1) // 2)
            fermions = chain(1, m, {(0,) * m: F(1)}, _fermion_z, zs, beta)
            bosons = chain(None, k, {(0,) * k: F(1)}, boson_z, zs, beta)
            for x in fv.MODEL.sector(m, n):
                yield fermions.get(x, 0), factor * bosons.get(occ[fv.MODEL.partition(x)], 0)


def test_boson_fermion_correspondence_lattice_to_lattice():
    """Each five-vertex wavefunction, forward and dual, is a phase-model one
    up to its factor, state by state, with no closed form on either side."""
    for dual in (False, True):
        sides = list(_correspondence(_boson_z, dual))
        assert len(sides) == 308
        assert all(fermion == boson for fermion, boson in sides)
        assert sum(1 for fermion, _ in sides if fermion) == 304

    def deposit_one(z, beta):
        return _boson_z(z, beta)[:4] + (1, z)

    # a phase-model deposit weight of 1 breaks every forward state
    assert all(fermion != boson for fermion, boson in _correspondence(deposit_one, False))


@pytest.mark.parametrize("var",[F(7, 5), LaurentPoly.var()], ids=["fraction", "laurent"])
def test_transfer_matrices_are_their_per_column_path_sums(var):
    """One move table serves every column of a transfer matrix; the matrix is
    still A + D read off one path sum per column and aux state."""
    for beta in (F(-1, 2), F(2)):
        for model, n_max in ((fv.MODEL, lambda m: m), (pm.MODEL, lambda m: 3)):
            w = model.weights(var, beta)
            one = w[0] ** 0
            zero = one * 0
            for m in range(1, 6):
                for n in range(n_max(m) + 1):
                    basis = model.sector(m, n)
                    columns = [
                        [_chain(model.capacity, m, {s: one}, [(a, a, w)]) for a in (0, 1)]
                        for s in basis
                    ]
                    want = [[a.get(r, zero) + d.get(r, zero) for a, d in columns] for r in basis]
                    assert lattice.transfer_matrix(model, m, n, var, beta) == want


def _six_weights(p, beta):
    """Six distinct nonzero weights at each parameter the test below uses; both
    models deposit and pick up at weight 1, so they cannot tell those apart."""
    return (p, p + F(1, 2), 2 * p + F(1, 3), -p, 1 / p, p * p + beta)


@pytest.mark.parametrize(
    "model, m_max, betas",
    [
        (fv.MODEL, 7, _BETA_PALETTE),
        (pm.MODEL, 5, _BETA_PALETTE + (F(0),)),
        (fv.MODEL._replace(weights=_six_weights), 5, (F(1, 7),)),
        (pm.MODEL._replace(weights=_six_weights), 4, (F(1, 7),)),
    ],
    ids=["fv", "pm", "fv-six-weights", "pm-six-weights"],
)
def test_sector_amplitudes_are_the_per_state_chains(model, m_max, betas):
    """One chain per sector gives what a chain per state gave: the dual, a B
    chain with transposed weights, equals C(p_1)...C(p_N) from each state to
    the empty chain, and the forward one equals B(p_1)...B(p_N) from it."""
    ps = (F(7, 5), F(3), F(-5, 2))
    for m, beta, n in product(range(1, m_max + 1), betas, range(4)):
        empty = model.sector(m, 0)[0]
        dual = {}
        for s in model.sector(m, n):
            c = oracles.chain(lattice.apply_c, model, m, ps[:n], beta, {s: F(1)}).get(empty, 0)
            if c:
                dual[s] = c
        forward = oracles.chain(lattice.apply_b, model, m, ps[:n], beta, {empty: F(1)})
        assert lattice.lattice_amplitudes(model, m, ps[:n], beta, dual=True) == dual
        assert lattice.lattice_amplitudes(model, m, ps[:n], beta) == forward
        assert dual or model.sector(m, n) == []


def _positions(state):
    return tuple(j + 1 for j, n in enumerate(state) if n)


@pytest.mark.parametrize(
    "model, config, m_max, betas",
    [
        (fv.MODEL, _positions, 7, _BETA_PALETTE),
        (pm.MODEL, tuple, 5, _BETA_PALETTE + (F(0),)),
        (fv.MODEL._replace(weights=_six_weights), _positions, 5, (F(1, 7),)),
        (pm.MODEL._replace(weights=_six_weights), tuple, 4, (F(1, 7),)),
    ],
    ids=["fv", "pm", "fv-six-weights", "pm-six-weights"],
)
def test_one_state_lookups_are_the_sector_tables(model, config, m_max, betas):
    """The chain from one state down to the empty chain, C~ = B transposed
    for the forward amplitude and C for the dual, reads what the sector's
    table holds at that state, zero included."""
    ps = (F(7, 5), F(3), F(-5, 2))
    for m, beta, n, dual in product(range(1, m_max + 1), betas, range(4), (False, True)):
        table = lattice.lattice_amplitudes(model, m, ps[:n], beta, dual)
        for s in model.sector(m, n):
            got = lattice.lattice_amplitude(model, m, config(s), ps[:n], beta, dual)
            assert got == table.get(s, 0), (m, beta, s, dual)


def test_one_state_lookups_build_no_sector(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a one-state lookup built the whole sector")

    monkeypatch.setattr(lattice, "lattice_amplitudes", refuse)
    us, beta = (F(2), F(3), F(5)), F(-1)
    for dual in (False, True):
        for route in (lattice.lattice_amplitude, lattice.amplitude):
            assert route(fv.MODEL, 6, (1, 3, 6), us, beta, dual)
            assert route(pm.MODEL, 4, (1, 0, 2, 0), us, beta, dual)


def _outcome(route, *args):
    try:
        return route(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


ROUTES = (lattice.lattice_amplitude, oracles.closed_amplitude, lattice.amplitude)


@pytest.mark.parametrize(
    "model, lengths, entries",
    [
        # positions: one per parameter give or take one, on and off the chain
        (fv.MODEL, lambda m, n: range(max(n - 1, 0), n + 2), lambda m: range(-1, m + 2)),
        # occupations: one per site give or take one, negative ones included
        (pm.MODEL, lambda m, n: range(max(m - 1, 0), m + 2), lambda m: range(-1, 3)),
    ],
    ids=["fv", "pm"],
)
def test_four_amplitude_routes_share_one_domain(model, lengths, entries):
    # at each input either every route, forward and dual, raises the same
    # exception type, or lattice equals closed equals self-checked for the
    # amplitude and for its dual
    routes = [partial(route, model, dual=dual) for dual in (False, True) for route in ROUTES]
    computed = refused = 0
    for m in range(5):
        for beta in (F(0), F(-1), F(1, 2)):
            for n in range(3):
                ps = (F(2), F(3), F(5, 2))[:n]
                for size in lengths(m, n):
                    for config in product(entries(m), repeat=size):
                        got = [_outcome(route, m, config, ps, beta) for route in routes]
                        if any(isinstance(g, type) for g in got):
                            assert len(set(got)) == 1, (m, beta, config, ps, got)
                            refused += 1
                        else:
                            assert got[0] == got[1] == got[2], (m, beta, config, ps, got)
                            assert got[3] == got[4] == got[5], (m, beta, config, ps, got)
                            computed += 1
    assert computed and refused


def test_skew_norm_is_the_prefactor_ratio():
    """The skew checks scale <upper|B(p)|lower> by prefactor(n parameters) over
    prefactor(n + 1); for each model that equals the normalisation written out
    by hand, whatever the other n parameters are."""
    hand = [
        (fv.MODEL, _BETA_PALETTE, lambda m, u, beta, n: (-beta) ** n * u ** (1 - m)),
        (pm.MODEL, _BETA_PALETTE + (F(0),), lambda m, v, beta, n: (1 / v - beta * v) ** (1 - m)),
    ]
    for model, betas, norm in hand:
        pref = model.prefactor
        for m, beta, p, n in product(range(1, 7), betas, (F(7, 5), F(3), F(-5, 2)), range(4)):
            want = norm(m, p, beta, n)
            assert _skew_norm(model, m, p, beta, n) == want
            ps = [F(2), F(11, 3), F(-4)][:n]
            assert pref(m, ps, beta) / pref(m, ps + [p], beta) == want


def test_hopping_generators_are_the_reference_builders():
    # the five-vertex one against the 2^M bitmask build restricted to a sector,
    # the phase-model one against the per-sector build
    for m, beta in product(range(7), _BETA_PALETTE):
        full = oracles.hamiltonian_bitmask(m, beta)
        for n in range(m + 1):
            index = [sum(bit << j for j, bit in enumerate(s)) for s in fv.sector_basis(m, n)]
            want = Matrix([[full.entry(r, c) for c in index] for r in index])
            assert fv.hamiltonian_direct(m, n, beta) == want, (m, n, beta)
    for m, beta, n in product(range(2, 7), _BETA_PALETTE + (F(0),), range(4)):
        want = oracles.hamiltonian_phase_sector(m, n, beta)
        assert pm.hamiltonian_phase_direct(m, n, beta) == want, (m, n, beta)


def test_five_vertex_transfer_matrix_is_monomial_at_the_extraction_point():
    # at u0^2 = -beta the pass-empty weight vanishes: T(u0) has one nonzero
    # entry in each row and column, so fv.hamiltonian needs no inverse
    for beta in (F(-1), F(-4), F(-1, 4), F(-9, 4)):
        u0 = rational_sqrt(-beta)
        for m in range(7):
            for n in range(m + 1):
                t = lattice.transfer_matrix(fv.MODEL, m, n, u0, beta)
                for line in list(t) + list(zip(*t)):
                    assert sum(1 for x in line if x) == 1, (m, n, beta)
