import random
from fractions import Fraction as F
from functools import partial
from itertools import combinations, product

import pytest
import oracles
from oracles import outcome
from hypothesis import given, settings
from hypothesis import strategies as st

from grothcrystal.errors import DegeneratePointError, ParameterError, PoleError
from grothcrystal.grothendieck import (
    cauchy_lhs,
    cauchy_rhs,
    groth_chain,
    groth_det,
    groth_dets,
    groth_table,
    schur_det,
    skew_multi,
    skew_single,
    summation_lhs,
    summation_rhs,
)
from grothcrystal.partitions import complement, interlacing_below, partitions_in_box
from grothcrystal.suites import _BETA_PALETTE, generic_rationals


def ssyt_sum(lam, xs):
    """Schur polynomial by direct tableau enumeration (independent oracle)."""
    shape = [p for p in lam if p > 0]
    n = len(xs)
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    total = F(0)

    def rec(i, filling):
        nonlocal total
        if i == len(cells):
            w = F(1)
            for v in filling.values():
                w *= xs[v - 1]
            total += w
            return
        r, c = cells[i]
        lo = 1
        if c > 0:
            lo = max(lo, filling[(r, c - 1)])
        if r > 0:
            lo = max(lo, filling[(r - 1, c)] + 1)
        for v in range(lo, n + 1):
            filling[(r, c)] = v
            rec(i + 1, filling)
            del filling[(r, c)]

    rec(0, {})
    return total


def set_valued_sum(lam, xs, beta):
    """Deformed Schur polynomial by set-valued tableau enumeration.

    Cells carry nonempty subsets of {1..n}; rows weakly increase and columns
    strictly increase comparing max against min; each extra entry beyond one
    per cell costs a factor beta.
    """
    shape = [p for p in lam if p > 0]
    n = len(xs)
    cells = [(r, c) for r, width in enumerate(shape) for c in range(width)]
    subsets = [
        frozenset(s)
        for size in range(1, n + 1)
        for s in combinations(range(1, n + 1), size)
    ]
    total = F(0)

    def rec(i, filling, weight, extras):
        nonlocal total
        if i == len(cells):
            total += weight * beta ** extras
            return
        r, c = cells[i]
        for s in subsets:
            if c > 0 and max(filling[(r, c - 1)]) > min(s):
                continue
            if r > 0 and max(filling[(r - 1, c)]) >= min(s):
                continue
            w = weight
            for v in s:
                w *= xs[v - 1]
            filling[(r, c)] = s
            rec(i + 1, filling, w, extras + len(s) - 1)
            del filling[(r, c)]

    rec(0, {}, F(1), 0)
    return total


def test_schur_matches_tableau_oracle():
    xs = (F(1), F(2), F(3))
    for lam in partitions_in_box(2, 3):
        assert schur_det(lam, xs) == ssyt_sum(lam, xs)
    assert schur_det((2, 1, 0), xs) == 60


def test_beta_zero_is_schur():
    xs = (F(1, 2), F(1, 3), F(1, 5))
    for lam in partitions_in_box(3, 3):
        assert groth_det(lam, xs, F(0)) == schur_det(lam, xs)


def test_deformed_matches_set_valued_oracle():
    xs2 = (F(1), F(2))
    assert groth_det((1, 0), xs2, F(1)) == set_valued_sum((1,), xs2, F(1)) == 5
    xs3 = (F(1, 2), F(1, 3), F(1, 5))
    for beta in (F(0), F(1), F(-1), F(1, 2)):
        for lam in ((1,), (2,), (1, 1), (2, 1), (2, 2)):
            padded = tuple(lam) + (0,) * (3 - len(lam))
            assert groth_det(padded, xs3, beta) == set_valued_sum(lam, xs3, beta)


def test_symmetry_under_variable_swap():
    zs = (F(2), F(3), F(5))
    beta = F(1, 2)
    for lam in partitions_in_box(2, 3):
        assert groth_det(lam, zs, beta) == groth_det(lam, (zs[1], zs[2], zs[0]), beta)


def test_degenerate_point_rejected():
    with pytest.raises(DegeneratePointError):
        groth_det((1, 0), (F(2), F(2)), F(1))
    # Jacobi-Trudi needs no distinct variables
    assert schur_det((1, 0), (F(2), F(2))) == 4
    xs = (F(1), F(1), F(2))
    for lam in partitions_in_box(2, 3):
        assert schur_det(lam, xs) == ssyt_sum(lam, xs)


def test_skew_single_values():
    z, beta = F(3), F(1, 2)
    assert skew_single((3, 1), (2,), z, beta) == z ** 2 * (1 + beta * z)
    assert skew_single((3, 1), (1,), z, beta) == z ** 3
    assert skew_single((2, 2), (1,), z, beta) == 0  # not interlacing
    assert skew_single((1,), (), z, beta) == z
    with pytest.raises(ParameterError):
        skew_single((2, 1), (1, 0), z, beta)  # lengths must differ by one


def test_chain_equals_determinant():
    zs = (F(2), F(3), F(5))
    beta = F(-1)
    for lam in partitions_in_box(2, 3):
        assert groth_chain(lam, zs, beta) == groth_det(lam, zs, beta)


def _top_difference(values):
    """The (len(values) - 1)-th forward difference of equally spaced values."""
    while len(values) > 1:
        values = [b - a for a, b in zip(values, values[1:])]
    return values[0]


@pytest.mark.parametrize("n", range(5))
def test_chain_equals_determinant_at_every_beta(n):
    """At fixed z, G_lambda(z; beta) is a polynomial in beta of degree at most
    D = n(n-1)/2 (the row factors (1 + beta z)^(i-1) of the numerator), so the
    two routes agreeing at D + 1 distinct beta agree at every beta.  Self-check
    of the bound: the (D + 1)-th difference of groth_det over D + 2 equally
    spaced beta vanishes, and the D-th does not for some shape."""
    zs = generic_rationals(random.Random(f"groth-beta:{n}"), n)
    d = n * (n - 1) // 2
    betas = [F(k, 3) - 1 for k in range(d + 2)]
    top = []
    for lam in partitions_in_box(3, n):
        dets = [groth_det(lam, zs, beta) for beta in betas]
        assert [groth_chain(lam, zs, beta) for beta in betas[: d + 1]] == dets[: d + 1]
        assert _top_difference(dets) == 0
        top.append(_top_difference(dets[: d + 1]))
    assert any(top)


def test_addition_by_one_variable():
    zs = (F(2), F(3), F(5))
    beta = F(1, 3)
    for mu in partitions_in_box(2, 3):
        want = groth_det(mu, zs, beta)
        got = sum(
            skew_single(mu, lam, zs[-1], beta) * groth_det(lam, zs[:-1], beta)
            for lam in interlacing_below(mu)
        )
        assert got == want


def test_multivariable_skew_branching():
    zs = (F(2), F(3))
    ws = (F(5),)
    beta = F(1)
    for lam in partitions_in_box(2, 3):
        want = groth_det(lam, zs + ws, beta)
        got = sum(
            skew_multi(lam, nu, zs, beta) * groth_det(nu, ws, beta)
            for nu in partitions_in_box(2, 1)
        )
        assert got == want
    assert skew_multi((2, 1), (2, 1), (), beta) == 1
    assert skew_multi((2, 1), (1, 1), (), beta) == 0
    assert skew_multi((2, 1), (2, 1), (), "beta is not read without variables") == 1


def test_cauchy_identity_small():
    beta = F(1, 2)
    zs = (F(2), F(3))
    ws = (F(5), F(7))
    for width in (0, 1, 2):
        assert cauchy_lhs(width, zs, ws, beta) == cauchy_rhs(width, zs, ws, beta)


def test_cauchy_pole_rejected():
    with pytest.raises(PoleError):
        cauchy_rhs(1, (F(2),), (F(2),), F(1))


def test_summation_small_and_hand_values():
    beta = F(1, 2)
    # single variable, width 1: 1 - beta*z against the determinant route
    z = F(3)
    assert summation_lhs(1, (z,), beta) == 1 - beta * z
    assert summation_rhs(1, (z,), beta) == 1 - beta * z
    # width 0 leaves only the empty shape
    zs = (F(2), F(3))
    assert summation_lhs(0, zs, beta) == 1
    assert summation_rhs(0, zs, beta) == 1
    for width in (1, 2):
        assert summation_lhs(width, zs, beta) == summation_rhs(width, zs, beta)


@pytest.mark.parametrize("beta", _BETA_PALETTE + (F(0),))
def test_box_sums_equal_the_per_shape_sums(beta):
    """cauchy_lhs and summation_lhs take one `groth_dets` table per side; they
    equal the sums of one Fraction-matrix determinant per shape, also at z = 0
    and where 1 + beta*z vanishes, and still refuse a repeated variable."""
    special = -1 / beta if beta else F(4, 3)
    points = [
        ((F(2), F(-1, 3), F(5, 2)), (F(3), F(1, 2), F(-4))),
        ((F(0), special, F(-7, 5)), (special + 1, F(2, 7), F(9))),
    ]
    det = oracles.groth_det_fraction
    for (zs, ws), n, width in product(points, range(4), range(4)):
        zs, ws = zs[:n], ws[:n]
        shapes = list(partitions_in_box(width, n))
        pairs = sum(det(lam, zs, beta) * det(complement(lam, width), ws, beta) for lam in shapes)
        assert cauchy_lhs(width, zs, ws, beta) == pairs
        weighted = sum((-beta) ** sum(lam) * det(lam, zs, beta) for lam in shapes)
        assert summation_lhs(width, zs, beta) == weighted
    for width in (0, 2):
        for zs, ws in [((F(2), F(2)), (F(3), F(5))), ((F(2), F(3)), (F(5), F(5)))]:
            with pytest.raises(DegeneratePointError):
                cauchy_lhs(width, zs, ws, beta)
        with pytest.raises(DegeneratePointError):
            summation_lhs(width, (F(2), F(3), F(2)), beta)


def test_summation_requires_nonzero_beta():
    with pytest.raises(ParameterError):
        summation_rhs(1, (F(2),), F(0))


@pytest.mark.parametrize("width", [-1, -3])
@pytest.mark.parametrize("n", [0, 1, 2])
def test_box_sides_need_a_nonnegative_width(n, width):
    # a negative width used to give lhs 0 against a finite rhs, agreement at
    # width -1, or a message from math.comb
    zs, ws = (F(2), F(3))[:n], (F(5), F(7))[:n]
    for side, args in [
        (cauchy_lhs, (zs, ws)), (cauchy_rhs, (zs, ws)), (summation_lhs, (zs,)), (summation_rhs, (zs,)),
    ]:
        with pytest.raises(ParameterError, match="^box width must be nonnegative$"):
            side(width, *args, F(1, 2))


@st.composite
def det_points(draw):
    """(shapes, zs, beta): one to four shapes of N parts, trailing zeros
    allowed, at N <= 4 distinct variables of either sign, among them, when
    drawn, z = 0 and the z at which 1 + beta*z vanishes."""
    beta = draw(st.sampled_from(_BETA_PALETTE + (F(0),)))
    n = draw(st.integers(0, 4))
    zs = draw(st.lists(st.fractions(-4, 4, max_denominator=5), min_size=n, max_size=n, unique=True))
    specials = [F(0)] + ([-1 / beta] if beta else [])
    for z in specials:
        if n and z not in zs and draw(st.booleans()):
            zs[draw(st.integers(0, n - 1))] = z
    parts = st.lists(st.integers(0, 4), min_size=n, max_size=n)
    shapes = draw(st.lists(parts.map(lambda p: tuple(sorted(p, reverse=True))), min_size=1, max_size=4))
    return shapes, zs, beta


@settings(derandomize=True, max_examples=300, deadline=None)
@given(det_points())
def test_groth_dets_equal_the_fraction_matrix_route(point):
    shapes, zs, beta = point
    want = [oracles.groth_det_fraction(lam, zs, beta) for lam in shapes]
    assert groth_dets(shapes, zs, beta) == want
    assert [groth_det(lam, zs, beta) for lam in shapes] == want


def test_groth_dets_at_zero_negative_and_vanishing_one_plus_beta_z():
    # z = 2 is where 1 + beta*z = 0; every shape of the 3 x 3 box, most of
    # them with trailing zeros, in one call
    beta = F(-1, 2)
    zs = (F(0), F(2), F(-3, 4))
    shapes = list(partitions_in_box(3, 3))
    want = [oracles.groth_det_fraction(lam, zs, beta) for lam in shapes]
    assert groth_dets(shapes, zs, beta) == want
    assert len(set(want)) > 1
    assert groth_dets([], zs, beta) == []
    assert groth_dets([(), ()], (), beta) == [1, 1]


def _raised(route, *args):
    with pytest.raises(ValueError) as info:
        route(*args)
    return type(info.value), str(info.value)


@pytest.mark.parametrize(
    "lam, zs",
    [
        ((1, 0), (F(2), F(2))),  # a repeated variable
        ((1,), (F(2), F(3))),  # a part short
        ((1, 0, 0), (F(2), F(3))),  # a part too many
        ((1,), (F(2), F(2))),  # the length before the repeated variable
        ((0, 1), (F(2), F(2))),  # not a partition, before anything else
        ((1, -1), (F(2),)),  # a negative part, before the length
    ],
)
def test_groth_dets_raise_what_groth_det_raises(lam, zs):
    want = _raised(oracles.groth_det_fraction, lam, zs, F(1, 2))
    assert _raised(groth_det, lam, zs, F(1, 2)) == want
    assert _raised(groth_dets, [lam], zs, F(1, 2)) == want
    # a good shape in front changes nothing
    assert _raised(groth_dets, [(0,) * len(zs), lam], zs, F(1, 2)) == want


# a small pool, so that repeated variables, z = w, z = 0, negative z and
# 1 + beta*z = 0 all come up
_pool = st.fractions(-3, 3, max_denominator=3)
_betas = st.sampled_from(_BETA_PALETTE + (F(0),)) | st.fractions(-3, 3, max_denominator=4)


@st.composite
def table_points(draw):
    """(shapes, zs, beta): one to three shapes of N <= 4 parts at N variables
    from the pool, repeats allowed."""
    n = draw(st.integers(0, 4))
    zs = draw(st.lists(_pool, min_size=n, max_size=n))
    parts = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    shapes = draw(st.lists(parts.map(lambda p: tuple(sorted(p, reverse=True))), min_size=1, max_size=3))
    return shapes, zs, draw(_betas)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(table_points())
def test_groth_table_is_the_fraction_matrix_route(point):
    shapes, zs, beta = point
    want = outcome(lambda: [oracles.groth_det_fraction(lam, zs, beta) for lam in shapes])
    assert outcome(groth_dets, shapes, zs, beta) == want
    if want[0] == "value":
        dets, den = groth_table(shapes, zs, beta)
        assert all(type(d) is int for d in dets) and type(den) is int
        assert [F(d, den) for d in dets] == want[1]


@st.composite
def box_points(draw):
    """(width, zs, ws, beta): width 0..3 and N <= 3 variables a side from the
    pool, one w too many now and then."""
    n = draw(st.integers(0, 3))
    extra = draw(st.integers(0, 9)) == 0
    zs = draw(st.lists(_pool, min_size=n, max_size=n))
    ws = draw(st.lists(_pool, min_size=n + extra, max_size=n + extra))
    return draw(st.integers(0, 3)), zs, ws, draw(_betas)


BOX_SIDES = [
    (cauchy_lhs, oracles.cauchy_lhs_fraction, True),
    (cauchy_rhs, oracles.cauchy_rhs_fraction, True),
    (summation_lhs, oracles.summation_lhs_fraction, False),
    (summation_rhs, oracles.summation_rhs_fraction, False),
]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(box_points())
def test_box_sides_are_their_fraction_references(point):
    """The integer box sides return what the Fraction routes return, and
    refuse what they refuse with the same exception and message."""
    width, zs, ws, beta = point
    for side, reference, takes_ws in BOX_SIDES:
        args = (width, zs, ws, beta) if takes_ws else (width, zs, beta)
        got = outcome(side, *args)
        assert got == outcome(reference, *args), side.__name__
        assert got[0] != "value" or type(got[1]) is F


def test_box_sides_at_the_edges():
    """n = 0, width 0, a repeated variable, z = w, z = 0 and beta = 0, each
    against the Fraction routes."""
    points = [
        (0, (), (), F(1, 2)),
        (2, (), (), F(0)),
        (0, (F(2), F(-1, 3)), (F(5), F(0)), F(-1)),
        (2, (F(0), F(-2, 3)), (F(1, 2), F(-3)), F(0)),
        (1, (F(2), F(2)), (F(3), F(5)), F(1, 2)),
        (1, (F(2), F(3)), (F(5), F(5)), F(1, 2)),
        (1, (F(2), F(3)), (F(5), F(2)), F(1, 2)),
        (3, (F(1), F(-1), F(2, 3)), (F(-2), F(1, 3), F(3)), F(-1)),
    ]
    refused = set()
    for width, zs, ws, beta in points:
        for side, reference, takes_ws in BOX_SIDES:
            args = (width, zs, ws, beta) if takes_ws else (width, zs, beta)
            got = outcome(side, *args)
            assert got == outcome(reference, *args), (side.__name__, args)
            refused.add(got[0])
    assert {DegeneratePointError, PoleError, ParameterError, "value"} <= refused


@pytest.mark.parametrize(
    "old, new, raised",
    [
        # an exponent off by one in an entry's numerator: the division by
        # a d - b c is no longer exact, and raises rather than floors
        ("a**e * (s * b) ** (n - 1)", "a ** (e + 1) * (s * b) ** (n - 1)", ArithmeticError),
        # an exponent off by one in the denominator: a wrong value
        ("** (e - 1)", "** e", "value"),
    ],
    ids=["entry", "denominator"],
)
def test_a_cauchy_exponent_off_by_one_is_caught(old, new, raised):
    mutant = oracles.mutant(cauchy_rhs, old, new)
    rng = random.Random(5)
    for _ in range(40):
        n, width = rng.randrange(1, 4), rng.randrange(0, 3)
        zs = generic_rationals(rng, n)
        ws = [-w / 3 for w in generic_rationals(rng, n, start=n)]
        beta = rng.choice(_BETA_PALETTE)
        want = outcome(oracles.cauchy_rhs_fraction, width, zs, ws, beta)
        assert want[0] == "value" and outcome(cauchy_rhs, width, zs, ws, beta) == want
        got = outcome(mutant, width, zs, ws, beta)
        assert got[0] == raised and got != want


SKEW_BETAS = (F(0), F(-1), F(1, 2), F(-2, 3), F(3))


def _shapes(length):
    return st.lists(st.integers(0, 3), min_size=length, max_size=length).map(
        lambda parts: tuple(sorted(parts, reverse=True))
    )


@st.composite
def skew_points(draw):
    """(lam, nu, zs, beta): lam of at most 4 parts each at most 3, nu either
    reached from lam by len(zs) interlacing steps or any shape of the right
    length, among the zs, when drawn, z = 0 and the z at which 1 + beta*z
    vanishes."""
    beta = draw(st.sampled_from(SKEW_BETAS))
    length = draw(st.integers(0, 4))
    n = draw(st.integers(0, length))
    lam = draw(_shapes(length))
    if draw(st.booleans()):
        nu = lam
        for _ in range(n):
            nu = draw(st.sampled_from(list(interlacing_below(nu))))
    else:
        nu = draw(_shapes(length - n))
    zs = draw(st.lists(st.fractions(-4, 4, max_denominator=5), min_size=n, max_size=n))
    for z in [F(0)] + ([-1 / beta] if beta else []):
        if n and draw(st.booleans()):
            zs[draw(st.integers(0, n - 1))] = z
    return lam, nu, zs, beta


@settings(derandomize=True, max_examples=400, deadline=None)
@given(skew_points())
def test_skew_multi_equals_the_recursive_chain_sum(point):
    lam, nu, zs, beta = point
    assert skew_multi(lam, nu, zs, beta) == oracles.skew_multi_recursive(lam, nu, zs, beta)


def test_skew_single_equals_the_part_loop():
    zs = (F(0), F(5, 2), F(-4, 3))
    for m in range(1, 5):
        for mu, lam in product(partitions_in_box(3, m), partitions_in_box(3, m - 1)):
            for beta in SKEW_BETAS:
                for z in zs + ((-1 / beta,) if beta else ()):
                    got = skew_single(mu, lam, z, beta)
                    assert got == oracles.skew_single(mu, lam, z, beta)
                    assert type(got) is F


@pytest.mark.parametrize(
    "lam, nu, zs, beta",
    [
        ((0, 1), (0, 1), ["x"], "x"),  # lam is checked first
        ((1, 0), (0, 1), ["x"], "x"),  # then nu
        ((1.5, 0), (0,), [2], F(1)),  # a part that is not an integer
        ((1, 0), (0, 0), ["x"], "x"),  # then the z, before the length
        ((1, 0), (0, 0), [2], "x"),  # then the length, before beta
        ((1, 0), (0,), [2], "x"),  # beta last
        ((1, -1), (), [2, 3], F(1)),  # a negative part
    ],
)
def test_skew_multi_raises_what_the_recursion_raises(lam, nu, zs, beta):
    want = _raised(oracles.skew_multi_recursive, lam, nu, zs, beta)
    assert _raised(skew_multi, lam, nu, zs, beta) == want
    chain = _raised(oracles.skew_multi_recursive, lam, (), zs[::-1], beta)
    assert _raised(groth_chain, lam, zs, beta) == chain


@pytest.mark.parametrize(
    "mu, lam, z, beta",
    [
        ((0, 1), (0, 1, 2), "x", "x"),  # mu is checked first
        ((2, 1, 0), (0, 1), "x", "x"),  # then lam
        ((2, 1), (0.5,), "x", "x"),  # a part that is not an integer
        ((2, 1), (1, 0), "x", "x"),  # then the length
        ((2, 1), (1,), "x", "x"),  # then z
        ((2, 1), (1,), 2, "x"),  # then beta
        ((2, 2), (1,), 2, "x"),  # beta even where mu does not interlace lam
    ],
)
def test_skew_single_raises_what_the_part_loop_raises(mu, lam, z, beta):
    want = _raised(oracles.skew_single, mu, lam, z, beta)
    assert _raised(skew_single, mu, lam, z, beta) == want


def test_parts_must_be_integers():
    # int() used to truncate each part: (1.5, 0) read as G_(1,0), (2.9, 0.2) as G_(2,0)
    zs, beta = (F(2), F(3)), F(1, 2)
    for route in (groth_det, groth_chain):
        for lam in ((1.5, 0), (2.9, 0.2), (F(5, 2), 1)):
            with pytest.raises(ParameterError, match="^parts must be integers"):
                route(lam, zs, beta)
        assert route((2.0, F(1)), zs, beta) == route((2, 1), zs, beta)


@pytest.mark.parametrize("beta", [F(-2, 3), F(3, 2), F(-1)])
@pytest.mark.parametrize("width, n", [(3, 6), (4, 5)])
def test_chain_equals_determinant_on_every_shape_of_a_wide_box(width, n, beta):
    zs = generic_rationals(random.Random(f"groth-box:{width}x{n}"), n)
    shapes = list(partitions_in_box(width, n))
    assert [groth_chain(lam, zs, beta) for lam in shapes] == groth_dets(shapes, zs, beta)


def _addition_sides(n, skew, beta):
    """Both sides of the one-variable addition theorem for every shape of the
    3-wide box of n parts, at seeded z."""
    zs = generic_rationals(random.Random(f"groth-addition:{n}"), n)
    mus = list(partitions_in_box(3, n))
    right = [
        sum(skew(mu, lam, zs[-1], beta) * groth_det(lam, zs[:-1], beta) for lam in interlacing_below(mu))
        for mu in mus
    ]
    return groth_dets(mus, zs, beta), right


def _branching_sides(skew, beta):
    """Both sides of the branching rule in 2 + 1 variables for every shape of
    the 3 x 3 box, at seeded z and w."""
    rng = random.Random("groth-branching")
    zs, ws = generic_rationals(rng, 2), generic_rationals(rng, 1, start=2)
    lams, nus = list(partitions_in_box(3, 3)), list(partitions_in_box(3, 1))
    right = [sum(skew(lam, nu, zs, beta) * groth_det(nu, ws, beta) for nu in nus) for lam in lams]
    return groth_dets(lams, zs + ws, beta), right


def _extra_factor_single(mu, lam, z, beta):
    """A skew factor with (1 + beta z)^(k+1) in place of (1 + beta z)^k."""
    return skew_single(mu, lam, z, beta) * (1 + beta * z)


def _extra_factor_multi(lam, nu, zs, beta):
    """A chain sum whose every skew factor has (1 + beta z)^(k+1)."""
    out = skew_multi(lam, nu, zs, beta)
    for z in zs:
        out *= 1 + beta * z
    return out


IDENTITIES = {
    **{
        f"addition-{n}": (n, partial(_addition_sides, n), skew_single, _extra_factor_single)
        for n in range(1, 5)
    },
    "branching-2+1": (3, _branching_sides, skew_multi, _extra_factor_multi),
}


@pytest.mark.parametrize("name", IDENTITIES)
def test_identities_hold_at_every_beta(name):
    """At fixed z each side is a polynomial in beta of degree at most
    D = n(n-1)/2, n the number of variables, so agreeing at D + 1 distinct beta
    they agree at every beta.  Self-checks: the (D + 1)-th difference of each
    side over D + 2 equally spaced beta vanishes, the D-th of the determinant
    side does not for some shape, and a skew factor with (1 + beta z)^(k+1)
    breaks the agreement."""
    n, sides, skew, mutant = IDENTITIES[name]
    d = n * (n - 1) // 2
    betas = [F(k, 3) - 1 for k in range(d + 2)]
    left, right = zip(*(sides(skew, beta) for beta in betas))
    left, right = list(zip(*left)), list(zip(*right))  # per shape, over beta
    assert [v[: d + 1] for v in left] == [v[: d + 1] for v in right]
    assert all(_top_difference(list(v)) == 0 for v in left + right)
    assert any(_top_difference(list(v[: d + 1])) for v in left)
    broken = [sides(mutant, beta) for beta in betas[: d + 1]]
    assert any(lhs != rhs for lhs, rhs in broken)


def test_schur_det_needs_one_part_per_variable():
    want = (ParameterError, "need exactly one part (possibly zero) per variable")
    assert outcome(schur_det, (1,), [2, 3]) == want
