"""The q-adic determinant against the division-free `det_ring` of
tests/oracles.py, which stays the reference: random series matrices with
non-unit entries and mixed valuations, sign flips under row and column swaps,
known valuations from a triangular factorization, exact precision on
hand-built cases, and the error raised when a block vanishes at working
precision; and the numerator updates against the elimination that multiplies
by each pivot's inverse (`oracles.qadic_det`)."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import det_ring, outcome

from grothcrystal.errors import PrecisionError
from grothcrystal import exactcore
from grothcrystal.exactcore import TruncatedSeries, qadic_det
from grothcrystal.meltingcrystal import _z_box_det_parts

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)

rats = st.builds(F, st.integers(-5, 5), st.integers(1, 6))
# small numerators over small and large denominators, for mixed lcms
wide_rats = st.builds(F, st.integers(-5, 5), st.one_of(st.integers(1, 6), st.integers(7, 10**6)))


def series_at(order, coeffs=rats):
    """A series at the given order whose first e coefficients vanish, for a
    drawn e = 0..order+1, mostly small (e = order+1 is the zero series)."""
    vals = st.one_of(st.integers(0, min(2, order)), st.integers(0, order + 1))
    return st.tuples(st.lists(coeffs, min_size=order + 1, max_size=order + 1), vals).map(
        lambda t: TruncatedSeries([F(0)] * t[1] + t[0][t[1] :])
    )


def matrices(max_n=4, max_order=8, coeffs=rats):
    return st.tuples(st.integers(1, max_n), st.integers(0, max_order)).flatmap(
        lambda nw: st.tuples(
            st.lists(st.lists(series_at(nw[1], coeffs), min_size=nw[0], max_size=nw[0]), min_size=nw[0], max_size=nw[0]),
            st.just(nw[1]),
        )
    )


def monomial(e, order):
    return TruncatedSeries.indeterminate(order) ** e if e <= order else TruncatedSeries([], order)


def padded(rows, order):
    """The same entries as exact polynomials, carried to a higher order."""
    return [[TruncatedSeries(x.coeffs, order) for x in row] for row in rows]


def check_against_det_ring(rows, order):
    """det_ring is exact mod q^(order+1); the q-adic answer must agree there
    and, for the polynomial matrix the truncated entries define, through the
    whole relative order it reports."""
    ref = det_ring(rows)
    try:
        v, unit = qadic_det(rows, order)
    except PrecisionError:
        assert not ref
        return False
    assert unit.coeff(0) != 0
    # no pivot valuation exceeds their sum
    assert order - v <= unit.order <= order
    assert all(ref.coeff(k) == 0 for k in range(min(v, order + 1)))
    assert all(ref.coeff(v + k) == unit.coeff(k) for k in range(order - v + 1))
    deep = det_ring(padded(rows, order + v))
    assert all(deep.coeff(k) == 0 for k in range(v))
    assert all(deep.coeff(v + k) == unit.coeff(k) for k in range(unit.order + 1))
    return True


@SETTINGS
@given(matrices())
def test_matches_det_ring_on_random_series_matrices(case):
    rows, order = case
    check_against_det_ring(rows, order)


@SETTINGS
@given(matrices(max_n=4, max_order=6), st.data())
def test_row_and_column_swaps_flip_the_sign(case, data):
    rows, order = case
    n = len(rows)
    try:
        v, unit = qadic_det(rows, order)
    except PrecisionError:
        return
    i, j = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)) if n > 1 else (0, 0)
    if i == j:
        return
    swapped = [list(r) for r in rows]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert qadic_det(swapped, order) == (v, -unit)
    transposed_swap = [[r[j] if c == i else r[i] if c == j else x for c, x in enumerate(r)] for r in rows]
    assert qadic_det(transposed_swap, order) == (v, -unit)


def unitriangular(n, order, lower, fill):
    one, zero = TruncatedSeries.one(order), TruncatedSeries([], order)
    it = iter(fill)
    return [
        [one if r == c else (next(it) if (r > c) == lower else zero) for c in range(n)] for r in range(n)
    ]


def matmul(a, b):
    n = len(a)
    return [[sum((a[r][k] * b[k][c] for k in range(1, n)), a[r][0] * b[0][c]) for c in range(n)] for r in range(n)]


@SETTINGS
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.integers(0, 2), min_size=n, max_size=n),
            st.lists(series_at(8), min_size=n * n, max_size=n * n),
        )
    )
)
def test_valuation_of_a_factored_matrix_is_exact(case):
    # L diag(q^a_i) U with unitriangular L, U has determinant q^(sum a_i)
    n, exps, fill = case
    order = 8
    diag = [[monomial(exps[r], order) if r == c else TruncatedSeries([], order) for c in range(n)] for r in range(n)]
    lower = unitriangular(n, order, True, fill)
    upper = unitriangular(n, order, False, fill[n * (n - 1) // 2 :])
    rows = matmul(matmul(lower, diag), upper)
    v, unit = qadic_det(rows, order)
    assert v == sum(exps)
    assert unit.order >= order - v
    assert unit.truncate(order - v) == TruncatedSeries.one(order - v)
    assert check_against_det_ring(rows, order)


def test_diagonal_monomials_report_exact_valuation_and_precision():
    order = 10
    for a, b in ((0, 0), (2, 5), (5, 2), (3, 3), (0, 10), (7, 4)):
        rows = [[monomial(a, order), TruncatedSeries([], order)], [TruncatedSeries([], order), monomial(b, order)]]
        v, unit = qadic_det(rows, order)
        assert v == a + b
        assert unit == TruncatedSeries.one(order - max(a, b))
        # swapping the rows flips the sign and nothing else
        assert qadic_det(rows[::-1], order) == (a + b, -unit)
        # the reported precision is tight: a change of the larger entry just
        # beyond the working order moves the unit's next coefficient
        big = max(a, b)
        bumped = TruncatedSeries.indeterminate(order + 1) ** big * (1 + TruncatedSeries.indeterminate(order + 1) ** (order + 1 - big))
        deep = [[monomial(a, order + 1), TruncatedSeries([], order + 1)], [TruncatedSeries([], order + 1), monomial(b, order + 1)]]
        deep[0 if a == big else 1][0 if a == big else 1] = bumped
        dv, dunit = qadic_det(deep, order + 1)
        assert dv == v
        assert dunit.truncate(unit.order) == unit
        assert dunit.coeff(unit.order + 1) == 1


def test_pivot_order_does_not_depend_on_position():
    # the least valuation sits in the corner: full pivoting finds it
    order = 6
    q = TruncatedSeries.indeterminate(order)
    rows = [[q**3, q**2, q**4], [q**2 + q**5, q**4, q], [q**5, 1 + q, q**3]]
    assert check_against_det_ring(rows, order)


def test_vanishing_block_raises_instead_of_truncating():
    order = 4
    q = TruncatedSeries.indeterminate(order)
    one = TruncatedSeries.one(order)
    # exactly singular: after the first pivot nothing is left
    with pytest.raises(PrecisionError, match="2x2 block"):
        qadic_det([[one, q, q * q]] * 3, order)
    with pytest.raises(PrecisionError, match="1x1 block"):
        qadic_det([[one, q], [one, q]], order)
    # singular only through q^4: the block's q^5 lies beyond working precision
    with pytest.raises(PrecisionError, match=r"through q\^4"):
        qadic_det([[one, one], [one, one + q**4 * q]], order)
    q5 = TruncatedSeries.indeterminate(5)
    one5 = TruncatedSeries.one(5)
    assert qadic_det([[one5, one5], [one5, one5 + q5**5]], 5) == (5, TruncatedSeries.one(0))
    with pytest.raises(PrecisionError):
        qadic_det([[TruncatedSeries([], order)]], order)


def test_empty_and_malformed_matrices():
    assert qadic_det([], 3) == (0, TruncatedSeries.one(3))
    one = TruncatedSeries.one(3)
    with pytest.raises(ValueError, match="square"):
        qadic_det([[one, one]], 3)
    with pytest.raises(ValueError, match="orders differ"):
        qadic_det([[TruncatedSeries.one(2)]], 3)


def canonical(result):
    """(v, numerators, denominator) of a determinant, or what it raised."""
    if result[0] != "value":
        return result
    v, unit = result[1]
    return v, unit.nums, unit.den


@SETTINGS
@given(matrices(max_n=5, max_order=8, coeffs=wide_rats))
def test_numerator_updates_match_the_padded_product_reference(case):
    # the same valuations, pivots, signs and units as the elimination that
    # multiplies by each pivot's inverse and pads, negates and adds
    rows, order = case
    got = outcome(qadic_det, rows, order)
    assert canonical(got) == canonical(outcome(oracles.qadic_det, rows, order))


def test_numerator_updates_through_pivot_swaps_and_vanishing_blocks():
    order = 6
    q = TruncatedSeries.indeterminate(order)
    one = TruncatedSeries.one(order)
    cases = [
        # the least valuation off the diagonal: a row and a column swap
        [[q**3, q**2, q**4], [q**2 + q**5, q**4, q], [q**5, 1 + q, q**3]],
        [[q, F(1, 3) + q], [F(-2, 5) + q * F(7, 4), q**2 * F(1, 6)]],
        [[q * F(-3, 2), one * F(5, 7), q**2], [one * F(2, 9), q, q * F(1, 4)], [q**3, q * F(-1, 8), one]],
        # vanishing blocks after one and after no pivot
        [[one, q, q * q]] * 3,
        [[q**4 * q**3, q**7], [q**7, q**7]],
    ]
    raised = 0
    for rows in cases:
        rows = [[x if isinstance(x, TruncatedSeries) else one * x for x in row] for row in rows]
        got = outcome(qadic_det, rows, order)
        assert canonical(got) == canonical(outcome(oracles.qadic_det, rows, order))
        raised += got[0] is PrecisionError
    assert raised == 2


def test_box_determinant_at_order_64_matches_the_padded_product_reference(monkeypatch):
    # the 4 x 4 x 4 box's entries at the certificate's order: dense enough
    # that the elimination packs its products, against the reference whose
    # products are plain convolutions
    packs = []
    real = exactcore._pack
    monkeypatch.setattr(exactcore, "_pack", lambda coeffs, slot: packs.append(slot) or real(coeffs, slot))
    for beta in (F(-2, 3), F(2)):
        entries, _ = _z_box_det_parts(4, 4, TruncatedSeries.indeterminate(64), beta)
        got = outcome(qadic_det, entries, 64)
        assert got[0] == "value"
        assert canonical(got) == canonical(outcome(oracles.qadic_det, entries, 64))
    assert packs
