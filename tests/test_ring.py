"""Ring arithmetic written once for LaurentPoly and TruncatedSeries (division
by units, square-and-multiply powers), the subset-expansion determinant oracle
over both rings, and the zero-skipping matrix product against an explicit
triple sum.  A `Matrix` is rational and its product runs on integers cleared
of denominators; it equals the ring-generic product loop over the rows."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import det_ring

from grothcrystal.exactcore import (
    LaurentPoly,
    Matrix,
    TruncatedSeries,
    vandermonde,
)

ORDER = 5
SETTINGS = settings(derandomize=True, max_examples=60, deadline=None)

rats = st.fractions(min_value=-4, max_value=4, max_denominator=5)
nonzero_rats = rats.filter(bool)
laurents = st.dictionaries(st.integers(-3, 3), rats, max_size=4).map(LaurentPoly)
monomials = st.builds(lambda c, e: LaurentPoly({e: c}), nonzero_rats, st.integers(-3, 3))
series = st.lists(rats, min_size=ORDER + 1, max_size=ORDER + 1).map(TruncatedSeries)
unit_series = st.builds(
    lambda c0, s: s + c0, nonzero_rats, series.map(lambda s: s - s.coeff(0))
)
# (element, unit of the same ring); a nonzero scalar counts as a unit
ring_pairs = st.one_of(
    st.tuples(laurents, st.one_of(monomials, nonzero_rats)),
    st.tuples(series, st.one_of(unit_series, nonzero_rats)),
)
units = st.one_of(monomials, unit_series)


def one_like(x):
    return x**0


@SETTINGS
@given(ring_pairs)
def test_division_by_a_unit_undoes_multiplication(pair):
    a, b = pair
    assert (a / b) * b == a
    assert (a * b) / b == a


@SETTINGS
@given(st.one_of(laurents, series), units, st.integers(-4, 9))
def test_power_is_the_repeated_product(a, u, k):
    base = a if k >= 0 else u
    factor = base if k >= 0 else base.inverse()
    want = one_like(base)
    for _ in range(abs(k)):
        want = want * factor
    assert base**k == want


@SETTINGS
@given(units)
def test_reciprocal_is_the_inverse(a):
    assert 1 / a == a.inverse()
    assert a * a.inverse() == 1


@pytest.mark.parametrize(
    "p",
    [LaurentPoly(), LaurentPoly({0: 1, 1: 1}), LaurentPoly({-1: 2, 3: F(1, 2)})],
)
def test_non_monomial_laurent_is_not_a_unit(p):
    u = LaurentPoly.var()
    with pytest.raises(ValueError):
        p.inverse()
    with pytest.raises(ValueError):
        p**-1
    with pytest.raises(ValueError):
        u / p
    with pytest.raises(ValueError):
        1 / p


def test_series_without_constant_term_is_not_a_unit():
    q = TruncatedSeries.indeterminate(ORDER)
    with pytest.raises(ValueError):
        1 / q
    with pytest.raises(ValueError):
        q**-2


def square(entries):
    return st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@SETTINGS
@given(st.one_of(square(laurents), square(series)))
def test_det_ring_commutes_with_ring_maps(rows):
    det = det_ring(rows)
    # a ring map to the rationals, u -> 3/2 or q -> 0, takes it to the Bareiss determinant
    if isinstance(det, LaurentPoly):
        at = Matrix([[oracles.evaluate(p, F(3, 2)) for p in row] for row in rows])
        assert oracles.evaluate(det, F(3, 2)) == at.det()
    else:
        assert det.coeff(0) == Matrix([[s.coeff(0) for s in row] for row in rows]).det()


sparse_rats = st.one_of(st.just(F(0)), st.just(F(0)), rats)


@st.composite
def sparse_pairs(draw):
    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))
    a = [[draw(sparse_rats) for _ in range(k)] for _ in range(r)]
    b = [[draw(sparse_rats) for _ in range(c)] for _ in range(k)]
    if draw(st.booleans()):
        for row in a:
            row[0] = F(0)
    return a, b


def triple_sum(a, b):
    return [
        [sum((a[i][t] * b[t][j] for t in range(len(b))), F(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@SETTINGS
@given(sparse_pairs())
def test_matmul_skipping_zeros_matches_triple_sum(pair):
    a, b = pair
    assert (Matrix(a) @ Matrix(b)).data == Matrix(triple_sum(a, b)).data


def test_matmul_keeps_the_entry_type_when_every_product_vanishes():
    zero_col = Matrix([[F(0), F(2)], [F(0), F(-1)]])
    upper = Matrix([[F(0), F(0)], [F(0), F(3)]])
    got = (zero_col @ upper).data
    assert got == ((0, 6), (0, -3))
    assert all(type(x) is F for row in got for x in row)


ints = st.integers(-9, 9)
wide_rats = st.fractions(min_value=-9, max_value=9, max_denominator=9)
scalars = st.one_of(st.just(0), st.just(F(0)), st.booleans(), ints, wide_rats)


@st.composite
def rational_pairs(draw):
    """Two matrices of shapes r x k and k x c in 1..5, entries zero, bool, int
    or Fraction, now and then with a row of the left or a column of the right
    all zero."""
    r, k, c = (draw(st.integers(1, 5)) for _ in range(3))
    a = [[draw(scalars) for _ in range(k)] for _ in range(r)]
    b = [[draw(scalars) for _ in range(c)] for _ in range(k)]
    if draw(st.booleans()):
        a[draw(st.integers(0, r - 1))] = [0] * k
    if draw(st.booleans()):
        col = draw(st.integers(0, c - 1))
        for row in b:
            row[col] = F(0)
    return Matrix(a), Matrix(b)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rational_pairs())
def test_rational_matmul_is_the_ring_generic_product(pair):
    a, b = pair
    got, want = a @ b, oracles.matmul(a.data, b.data)
    assert (got.rows, got.cols) == (a.rows, b.cols)
    assert [list(row) for row in got.data] == want
    assert all(type(x) is F for row in got.data for x in row)


def _moved(m: Matrix, at: int, delta) -> Matrix:
    """m built from rows, with entry number `at` (row-major, wrapped) moved by delta."""
    rows = [list(row) for row in m.data]
    i, j = divmod(at % (m.rows * m.cols), m.cols)
    rows[i][j] += delta
    return Matrix(rows)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rational_pairs(), rational_pairs(), st.integers(0, 24), wide_rats.filter(bool))
def test_rational_equality_is_entrywise_on_both_routes(p, q, at, delta):
    """`==` between rational matrices made as products (integer tables) or
    built from rows (entries kept as given: bool, int or Fraction) is entrywise
    Fraction equality of the same shape, decided before any entry is read."""
    made = [p[0] @ p[1], q[0] @ q[1], p[0] @ p[1]]
    generic_p, generic_q = (Matrix(oracles.matmul(a.data, b.data)) for a, b in (p, q))
    built = [generic_p, generic_q, p[0], q[1], _moved(generic_p, at, delta), generic_p.scale(F(1, 3))]
    ms = made + built
    verdicts = [[x == y for y in ms] for x in ms]
    for x, row in zip(ms, verdicts):
        for y, verdict in zip(ms, row):
            same = (x.rows, x.cols) == (y.rows, y.cols) and all(
                F(s) == F(t) for rx, ry in zip(x.data, y.data) for s, t in zip(rx, ry)
            )
            assert verdict is same
    # a product equals itself made again and built from rows, not moved
    assert verdicts[0][2] and verdicts[0][3] and not verdicts[0][7]


def test_vandermonde_and_its_reversal():
    xs = [F(2), F(-1, 3), F(5), F(1, 2)]
    want = F(1)
    for j in range(len(xs)):
        for k in range(j + 1, len(xs)):
            want *= xs[j] - xs[k]
    assert vandermonde(xs) == want
    assert vandermonde(xs[::-1]) == want  # six factors change sign
    assert vandermonde(xs[:3][::-1]) == -vandermonde(xs[:3])
    assert vandermonde([]) == 1
