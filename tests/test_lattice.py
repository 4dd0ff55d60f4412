"""The shared row path-sum engine on its float ring, which only the Bethe
numerics use: it must agree with the exact Laurent transfer matrices.  The
one weight function per model serves all three rings.  The four amplitude
routes of each model accept and refuse the same inputs."""

from fractions import Fraction as F
from itertools import product

import pytest

from grothcrystal import fivevertex as fv
from grothcrystal import lattice
from grothcrystal import phasemodel as pm
from grothcrystal.exactcore import LaurentPoly


def assert_close(got, exact, v):
    want = exact.map(lambda p: p.evaluate(v))
    assert got.rows == want.rows and got.cols == want.cols
    for r in range(want.rows):
        for c in range(want.cols):
            assert isinstance(got.entry(r, c), float)
            assert abs(got.entry(r, c) - want.entry(r, c)) < 1e-12


def test_float_transfer_matrix_matches_exact_one_particle_sector():
    v = F(7, 5)
    for beta in (F(-1, 2), F(1, 3), F(2)):
        for m in (2, 3, 4, 5):
            basis, exact = fv.transfer_matrix(m, 1, beta)
            w = tuple(float(x) for x in fv._scalar_weights(v, beta))
            assert_close(lattice.transfer_matrix(fv._MODEL, m, basis, w), exact, v)

            basis, exact = pm.transfer_matrix_phase(m, 1, beta)
            w = pm._scalar_weights_phase(float(v), float(beta))
            assert_close(lattice.transfer_matrix(pm._MODEL, m, basis, w), exact, v)


def test_weight_tuples_at_the_laurent_variable():
    u = LaurentPoly.var()
    for beta in (F(-1, 2), F(1, 3), F(2)):
        # the Laurent weight tuples each model once spelled out by hand
        assert fv._scalar_weights(u, beta) == (
            LaurentPoly.var(),
            LaurentPoly({1: -1 / beta, -1: F(-1)}),
            LaurentPoly({1: -1 / beta}),
            LaurentPoly.const(1),
        )
        assert pm._scalar_weights_phase(u, beta) == (
            LaurentPoly({-1: F(1), 1: -beta}),
            LaurentPoly({-1: F(1)}),
            LaurentPoly.var(),
            LaurentPoly.const(1),
        )


def test_weight_tuples_keep_the_ring_of_their_argument():
    v, beta = F(7, 5), F(1, 3)
    for build in (fv._scalar_weights, pm._scalar_weights_phase):
        exact = build(v, beta)
        assert all(type(x) is F for x in exact)
        laurent = build(LaurentPoly.var(), beta)
        assert [p.evaluate(v) for p in laurent] == list(exact)
        floats = build(float(v), float(beta))
        assert all(type(x) is float for x in floats)
        assert all(abs(a - float(b)) < 1e-15 for a, b in zip(floats, exact))


def _outcome(route, *args):
    try:
        return route(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc)


FV_ROUTES = (
    fv.wavefunction_lattice, fv.wavefunction_closed,
    fv.dual_wavefunction_lattice, fv.dual_wavefunction_closed,
)
PM_ROUTES = (
    pm.wavefunction_phase_lattice, pm.wavefunction_phase_closed,
    pm.dual_wavefunction_phase_lattice, pm.dual_wavefunction_phase_closed,
)


@pytest.mark.parametrize(
    "routes, lengths, entries",
    [
        # positions: one per parameter give or take one, on and off the chain
        (FV_ROUTES, lambda m, n: range(max(n - 1, 0), n + 2), lambda m: range(-1, m + 2)),
        # occupations: one per site give or take one, negative ones included
        (PM_ROUTES, lambda m, n: range(max(m - 1, 0), m + 2), lambda m: range(-1, 3)),
    ],
    ids=["fv", "pm"],
)
def test_four_amplitude_routes_share_one_domain(routes, lengths, entries):
    # at each input either all four routes raise the same exception type, or
    # lattice equals closed for the amplitude and for its dual
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
                            assert got[0] == got[1] and got[2] == got[3], (m, beta, config, ps, got)
                            computed += 1
    assert computed and refused
