"""Integer-backed truncated series against a schoolbook `Fraction` reference.

The product and the inverse are checked coefficient by coefficient against a
plain convolution and the textbook recurrence, kept only here, and long
division against inverse-then-multiply (tests/oracles.py); the storage is
checked to be canonical (integer numerators over one positive denominator in
lowest terms), so that equal series built by different routes compare equal.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
import oracles
from oracles import outcome, series_divide

from grothcrystal import exactcore
from grothcrystal.exactcore import LaurentPoly, TruncatedSeries, _low_product, _low_products

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)
FEW = settings(derandomize=True, max_examples=40, deadline=None)

BIG = 2**200
small_rats = st.fractions(min_value=-7, max_value=7, max_denominator=12)
big_ints = st.builds(lambda m, neg: -m if neg else m, st.integers(BIG, 2**230), st.booleans())
big_rats = st.builds(F, big_ints, st.one_of(st.integers(1, 9), st.integers(BIG, 2**210)))
coeffs = st.one_of(st.just(F(0)), small_rats, small_rats, big_rats)


def coeff_lists(order):
    return st.lists(coeffs, min_size=order + 1, max_size=order + 1)


orders = st.one_of(st.just(0), st.integers(0, 6), st.integers(7, 24))
same_order_pair = orders.flatmap(lambda d: st.tuples(coeff_lists(d), coeff_lists(d)))
unit_lists = orders.flatmap(coeff_lists).filter(lambda c: c[0] != 0)


def ref_mul(a, b):
    out = [F(0)] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += x * b[j]
    return out


def ref_inverse(a):
    out = [1 / a[0]]
    for n in range(1, len(a)):
        out.append(-sum((a[k] * out[n - k] for k in range(1, n + 1)), F(0)) / a[0])
    return out


def assert_canonical(s):
    assert all(type(x) is int for x in s.nums)
    assert type(s.den) is int and s.den > 0
    assert math.gcd(s.den, *s.nums) == 1
    assert all(type(c) is F for c in s.coeffs)
    assert s.coeffs == tuple(F(x, s.den) for x in s.nums)
    assert TruncatedSeries(s.coeffs) == s
    rebuilt = TruncatedSeries(s.coeffs)
    assert (rebuilt.nums, rebuilt.den) == (s.nums, s.den)


@SETTINGS
@given(same_order_pair)
def test_product_matches_schoolbook(pair):
    a, b = pair
    got = TruncatedSeries(a) * TruncatedSeries(b)
    assert list(got.coeffs) == ref_mul(a, b)
    assert_canonical(got)


@SETTINGS
@given(unit_lists)
def test_inverse_matches_recurrence(a):
    got = TruncatedSeries(a).inverse()
    assert list(got.coeffs) == ref_inverse(a)
    assert_canonical(got)
    assert TruncatedSeries(a) * got == 1


@FEW
@given(same_order_pair, st.one_of(st.just(F(0)), small_rats, big_rats))
def test_sum_negation_and_scalar_product(pair, c):
    a, b = pair
    sa, sb = TruncatedSeries(a), TruncatedSeries(b)
    for got, want in (
        (sa + sb, [x + y for x, y in zip(a, b)]),
        (sa - sb, [x - y for x, y in zip(a, b)]),
        (-sa, [-x for x in a]),
        (sa * c, [x * c for x in a]),
        (c * sa, [x * c for x in a]),
        (sa + c, [a[0] + c] + a[1:]),
    ):
        assert list(got.coeffs) == want
        assert_canonical(got)


@FEW
@given(same_order_pair, st.integers(1, 9), st.integers(1, 9))
def test_equal_series_by_different_routes_compare_equal(pair, p, r):
    a, b = map(TruncatedSeries, pair)
    scalar = F(-p, r)
    assert (a * b) * scalar == a * (b * scalar) == (a * scalar) * b
    assert a + b == b + a
    assert (a + b) - b == a
    assert a * b == b * a
    assert (a * scalar) / scalar == a
    assert a - a == TruncatedSeries([], a.order) == a * 0
    zero = a - a
    assert zero.nums == (0,) * (a.order + 1) and zero.den == 1
    assert not zero


@FEW
@given(orders.flatmap(lambda d: st.tuples(st.integers(0, d), coeff_lists(d), coeff_lists(d))))
def test_leading_zeros_and_shift_down(case):
    k, a, b = case
    a = [F(0)] * k + a[k:]
    sa = TruncatedSeries(a)
    shifted = sa.shift_down(k)
    assert list(shifted.coeffs) == a[k:]
    assert_canonical(shifted)
    got = sa * TruncatedSeries(b)
    assert list(got.coeffs) == ref_mul(a, b)
    assert got.coeffs[:k] == (F(0),) * k
    assert got.shift_down(k) == TruncatedSeries(ref_mul(a, b)[k:])


@pytest.mark.parametrize("c", [F(0), F(3), F(-2, 7), F(BIG + 1, 3)])
def test_order_zero_series(c):
    s = TruncatedSeries([c])
    assert s.order == 0 and s.coeff(0) == c
    assert (s * s).coeffs == (c * c,)
    if c:
        assert s.inverse().coeffs == (1 / c,)
        assert (s**-3).coeffs == (c**-3,)
    else:
        with pytest.raises(ValueError):
            s.inverse()


def test_all_zero_series():
    z = TruncatedSeries([], 5)
    q = TruncatedSeries.indeterminate(5)
    assert z.nums == (0,) * 6 and z.den == 1
    assert (z * q).nums == (0,) * 6 and z * q == z == 0
    assert q * 0 == z and (q * 0).den == 1
    assert z**0 == 1 and z**3 == z
    with pytest.raises(ValueError):
        z.inverse()


def test_accessors_keep_their_values_and_errors():
    s = TruncatedSeries([F(1, 2), F(-1, 3), 0, F(5, 6)])
    assert (s.nums, s.den) == ((3, -2, 0, 5), 6)
    assert s.order == 3
    assert s.coeff(1) == F(-1, 3) and s.coeff(-1) == F(5, 6)
    assert s.to_strings() == ["1/2", "-1/3", "0/1", "5/6"]
    assert s.truncate(1).coeffs == (F(1, 2), F(-1, 3)) and s.truncate(1).den == 6
    assert s.truncate(0).den == 2
    assert TruncatedSeries([1, 2], 4).coeffs == (1, 2, 0, 0, 0)
    with pytest.raises(IndexError):
        s.coeff(4)
    with pytest.raises(ValueError):
        s.truncate(4)
    with pytest.raises(ValueError):
        s.truncate(-1)
    with pytest.raises(ValueError):
        s.shift_down(1)
    with pytest.raises(ValueError):
        s.shift_down(4)
    with pytest.raises(ValueError):
        TruncatedSeries([])
    with pytest.raises(ValueError):
        TruncatedSeries([1], -1)
    with pytest.raises(AttributeError):
        s.coeffs = (F(0),) * 4


@st.composite
def int_poly_pairs(draw):
    # coefficient sizes from one-byte slots to slots of well over a hundred bytes
    n = draw(st.integers(1, 30))
    e = draw(st.sampled_from([0, 3, 7, 15, 31, 63, 120, 500]))
    ints = st.lists(st.integers(-(2**e), 2**e), min_size=n, max_size=n)
    return tuple(draw(ints)), tuple(draw(ints))


@SETTINGS
@given(int_poly_pairs())
def test_low_product_every_slot_width(ab):
    a, b = ab
    want = [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a))]
    assert list(_low_product(a, b)) == want
    assert list(_low_product(a, a)) == [
        sum(a[i] * a[k - i] for i in range(k + 1)) for k in range(len(a))
    ]


@pytest.mark.parametrize("e", [6, 7, 8, 14, 15, 30, 31, 62, 63, 64, 200])
def test_low_product_at_the_slot_bound(e):
    # every product coefficient at its bound n * max|a| * max|b|, both signs,
    # on both sides of the packed kernel's threshold
    for n in (1, 2, 17, exactcore._PACKED_TERMS, 96):
        for m in (2**e - 1, 2**e, -(2**e)):
            a = (m,) * n
            b = (-m,) * n
            assert _low_product(a, a) == tuple(m * m * (k + 1) for k in range(n))
            assert _low_product(a, b) == tuple(-m * m * (k + 1) for k in range(n))


@st.composite
def int_polys(draw, n):
    """An integer polynomial of length n with k nonzero terms, k drawn from
    none, one, a dense count, every count, and around the packed kernel's
    threshold; coefficients up to 2^e in absolute value, the extremes
    included."""
    k = draw(st.one_of(st.sampled_from([0, 1, n]), st.integers(0, n),
                       st.integers(exactcore._PACKED_TERMS - 2, exactcore._PACKED_TERMS + 1)))
    e = draw(st.sampled_from([0, 1, 8, 31, 50, 64, 255, 256]))
    size = st.one_of(st.sampled_from([1, 2**e]), st.integers(1, 2**e))
    out = [0] * n
    for i in draw(st.permutations(range(n)))[: min(k, n)]:
        out[i] = draw(size) * draw(st.sampled_from([1, -1]))
    return tuple(out)


polys_1_to_96 = st.one_of(st.integers(1, 12), st.integers(13, 40), st.integers(41, 96)).flatmap(
    lambda n: st.tuples(int_polys(n), int_polys(n), int_polys(n))
)


@SETTINGS
@given(polys_1_to_96)
def test_low_products_are_the_plain_convolution(abc):
    """Each kernel, and the choice between them, against `oracles.low_product`
    on lengths 1 to 96: all-zero, one-term, sparse and dense operands with
    coefficients up to 2^256, singly and as a batch that packs each operand
    once.  With the threshold at 1 every pair of nonzero operands is packed,
    and with it past the length none is."""
    a, b, c = abc
    want = [[oracles.low_product(x, y) for y in (b, c)] for x in (a, b)]
    for threshold in (exactcore._PACKED_TERMS, 1, len(a) + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(exactcore, "_PACKED_TERMS", threshold)
            assert [[_low_product(x, y) for y in (b, c)] for x in (a, b)] == want
            assert _low_products([a, b], [b, c]) == want
            assert _low_products([], [b]) == [] and _low_products([a], []) == [[]]


# -- long division against the inverse-then-multiply reference ----------------

low_orders = st.integers(0, 6)
mixed = st.one_of(st.just(F(0)), st.just(F(0)), small_rats, big_rats)


def divisor_lists(order):
    """Coefficients with zero terms, mixed denominators and a constant term
    of either sign, zero included."""
    head = st.one_of(st.just(F(0)), small_rats, small_rats.map(lambda c: -abs(c) or F(-1)), big_rats)
    return st.tuples(head, st.lists(mixed, min_size=order, max_size=order)).map(
        lambda t: [t[0]] + t[1]
    )


division_cases = low_orders.flatmap(
    lambda d: st.tuples(st.lists(mixed, min_size=d + 1, max_size=d + 1), divisor_lists(d))
)


def same_outcome(got, want):
    if got[0] == "value":
        assert want[0] == "value"
        assert (got[1].nums, got[1].den) == (want[1].nums, want[1].den)
        assert_canonical(got[1])
    else:
        assert got == want


@SETTINGS
@given(division_cases, st.one_of(small_rats, big_rats, st.integers(-5, 5)))
def test_long_division_matches_inverse_then_multiply(case, c):
    x, d = map(TruncatedSeries, case)
    for num, den in ((x, d), (c, d), (x, c), (1, d), (d, d)):
        same_outcome(outcome(lambda: num / den), outcome(series_divide, num, den))
    same_outcome(outcome(d.inverse), outcome(series_divide, 1, d))
    if d.nums[0]:
        assert (x / d) * d == x


def test_division_refuses_a_zero_constant_term():
    x, d = TruncatedSeries([1, 2, 3]), TruncatedSeries([0, 1, 1])
    for route in (lambda: x / d, lambda: 1 / d, lambda: x / 0, d.inverse, lambda: d**-2):
        with pytest.raises(ValueError, match="^series with zero constant term has no inverse$"):
            route()
    assert outcome(lambda: x / d) == outcome(series_divide, x, d)


def test_division_keeps_the_series_operand_rules():
    s = TruncatedSeries([1, 2], 3)
    with pytest.raises(ValueError, match="^series orders differ$"):
        s / TruncatedSeries([1, 2], 2)
    with pytest.raises(TypeError):
        s / 0.5
    with pytest.raises(TypeError):
        0.5 / s


@pytest.mark.parametrize(
    "build",
    [
        lambda: TruncatedSeries([0.1]),
        lambda: TruncatedSeries([1, F(1, 2), 0.25], 4),
        lambda: TruncatedSeries([1.0]),
        lambda: LaurentPoly({0: 0.1}),
        lambda: LaurentPoly({-1: 1, 2: 2.5}),
        lambda: LaurentPoly.const(0.5),
    ],
)
def test_series_and_laurent_polys_refuse_floats(build):
    # as a Matrix does: a float's binary expansion is never taken as exact
    with pytest.raises(TypeError, match="takes int, bool or Fraction coefficients only$"):
        build()
    assert TruncatedSeries([True, 2, F(1, 3)]).coeffs == (1, 2, F(1, 3))
    assert LaurentPoly({0: True, 1: F(1, 2)}).coeffs == {0: 1, 1: F(1, 2)}


@FEW
@given(
    low_orders.flatmap(lambda d: st.tuples(st.integers(0, d + 1), st.integers(0, d + 3), coeff_lists(d))),
    st.one_of(small_rats, big_rats),
    st.one_of(small_rats, big_rats, st.integers(-3, 3)),
    st.integers(-3, 7),
)
def test_powers_match_repeated_products(case, c, d, n):
    # monomials c q^k, binomials c q^k + d q^j, whose powers take the
    # binomial theorem (a term past the order is cut, so k = order + 1
    # leaves the zero series or a monomial), and whole series
    k, j, a = case
    order = len(a) - 1
    terms = [F(0)] * (order + 4)
    terms[k] += c
    mono = TruncatedSeries(terms, order)
    terms[j] += d
    binomial = TruncatedSeries(terms, order)
    for s in (mono, binomial, TruncatedSeries(a)):
        if n < 0 and not s.nums[0]:
            with pytest.raises(ValueError):
                s**n
            continue
        want = TruncatedSeries.one(order)
        for _ in range(abs(n)):
            want = want * s
        got = s**n
        assert got == (want if n >= 0 else 1 / want)
        assert_canonical(got)


@FEW
@given(same_order_pair, st.one_of(small_rats, big_rats, st.integers(-5, 5)))
def test_differences_with_scalars_on_either_side(pair, c):
    a, b = pair
    sa = TruncatedSeries(a)
    for got, want in ((c - sa, [c - a[0]] + [-x for x in a[1:]]), (sa - c, [a[0] - c] + a[1:])):
        assert list(got.coeffs) == want
        assert_canonical(got)


@SETTINGS
@given(
    orders.flatmap(
        lambda d: st.tuples(coeff_lists(d), st.lists(st.integers(-(2**70), 2**70), min_size=d + 1, max_size=d + 1))
    ),
    st.sampled_from(["drawn", "integers", "cancelling"]),
)
def test_sums_over_one_denominator_match_the_lcm_route(case, kind):
    # two series over one denominator, whose sum and differences map the
    # numerators termwise, against Fraction sums: drawn numerators, both
    # series over 1, and numerators whose sum is a multiple of the
    # denominator, which the map's result must be reduced by
    a, b_nums = case
    sa = TruncatedSeries([int(x) for x in a] if kind == "integers" else a)
    if kind == "cancelling":
        b_nums = [y * sa.den - x for x, y in zip(sa.nums, b_nums)]
    sb = TruncatedSeries([F(x, sa.den) for x in b_nums])
    assume(sb.den == sa.den)
    for got, want in (
        (sa + sb, [x + y for x, y in zip(sa.coeffs, sb.coeffs)]),
        (sa - sb, [x - y for x, y in zip(sa.coeffs, sb.coeffs)]),
        (sb - sa, [y - x for x, y in zip(sa.coeffs, sb.coeffs)]),
    ):
        assert list(got.coeffs) == want
        assert_canonical(got)
