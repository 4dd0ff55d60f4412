"""The shared row path-sum engine on its float ring, which only the Bethe
numerics use: it must agree with the exact Laurent transfer matrices.  The
one weight function per model serves all three rings."""

from fractions import Fraction as F

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
