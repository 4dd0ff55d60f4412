import math
import re
from fractions import Fraction as F

import oracles
import pytest
from oracles import binomial_qn_series, det_ring, outcome

from grothcrystal import meltingcrystal
from grothcrystal.errors import OutOfBoxError, ParameterError, PoleError, PrecisionError
from grothcrystal.exactcore import TruncatedSeries, qadic_det
from grothcrystal.grothendieck import cauchy_rhs
from grothcrystal.meltingcrystal import (
    _box_prefactor,
    _det_shift,
    _z_box_det_parts,
    entropy,
    entropy_consistency,
    internal_energy_fd,
    log_z_numeric,
    weight_phi,
    z_box_beta0,
    z_box_bruteforce,
    z_box_det,
    z_box_det_series,
    z_infinite,
)
from grothcrystal.partitions import (
    check_plane_partition,
    count_boxed,
    diagonal_slice,
    enumerate_boxed,
    part,
    partitions_in_box,
    partitions_of_size,
    plane_partitions_of_size,
    pp_size,
)
from grothcrystal.suites import _BETA_PALETTE, run_suite


def test_weight_phi_frozen_values():
    q, beta = F(1, 2), F(1)
    assert weight_phi((), q, beta, 2) == F(2, 3)
    # a single box against the empty configuration at the same slice count
    assert weight_phi(((1,),), q, beta, 2) == (1 + beta) / (1 + beta * q)
    for n_slices in (2, 3):
        ratio = weight_phi(((1,),), q, beta, n_slices) / weight_phi(
            (), q, beta, n_slices
        )
        assert ratio == 1 + beta


def test_weight_phi_trivial_at_beta_zero():
    for pi in enumerate_boxed(2, 2, 2):
        assert weight_phi(pi, F(1, 2), F(0), 2) == 1


def test_box_sum_equals_determinant():
    for n, height in ((1, 1), (1, 2), (2, 2), (2, 3)):
        for q in (F(1, 2), F(1, 3)):
            for beta in (F(0), F(-1), F(1), F(1, 2)):
                brute = z_box_bruteforce(n, height, q, beta)
                assert brute == z_box_det(n, height, q, beta)


def test_box_determinant_beta0_is_product_formula():
    for n, height in ((1, 1), (2, 2), (3, 2)):
        for q in (F(1, 2), F(2, 5)):
            assert z_box_det(n, height, q, F(0)) == z_box_beta0(n, n, height, q)


def test_smallest_box_value():
    q, beta = F(1, 2), F(1, 3)
    # 1x1x1 box holds nothing or one box: 1 + q
    assert z_box_det(1, 1, q, beta) == 1 + q
    assert z_box_bruteforce(1, 1, q, beta) == 1 + q


def test_series_coefficients_sum_to_box_count():
    s = z_box_det_series(2, 2, F(0), 8)
    assert sum(s.coeffs) == count_boxed(2, 2, 2) == 20


def test_series_beta0_matches_product_series():
    order = 12
    qser = TruncatedSeries.indeterminate(order)
    for n in (1, 2, 3):
        assert z_box_det_series(n, n, F(0), order) == z_box_beta0(n, n, n, qser)


def test_unbounded_series_counts():
    z0 = z_infinite(F(0), 6)
    pp = [sum(1 for _ in plane_partitions_of_size(k)) for k in range(7)]
    assert list(z0.coeffs) == pp == [1, 1, 3, 6, 13, 24, 48]
    ze = z_infinite(F(-1), 7)
    p = [sum(1 for _ in partitions_of_size(k)) for k in range(8)]
    assert list(ze.coeffs) == p == [1, 1, 2, 3, 5, 7, 11, 15]


def test_unbounded_series_matches_the_binomial_expansions():
    # the ring-operator product against each factor written out by its
    # generalized binomial coefficients
    for beta in (F(0), F(-1), F(-2, 3), F(1, 2), F(2)):
        for order in (0, 1, 7, 20):
            want = TruncatedSeries.one(order)
            for n in range(1, order + 1):
                want = want * binomial_qn_series(beta, n, n - 1, order)
                want = want * binomial_qn_series(-1, n, -n, order)
            assert z_infinite(beta, order) == want


def test_unbounded_series_positivity():
    for beta in (F(0), F(1, 2), F(1), F(2)):
        assert all(c >= 0 for c in z_infinite(beta, 12).coeffs)


def test_box_limit_recovers_unbounded_series():
    # a box of side order + 1 holds every plane partition of size <= order
    for beta in (F(0), F(-1), F(1, 2)):
        assert z_box_det_series(5, 5, beta, 4) == z_infinite(beta, 4)


def test_box_series_stabilizes_through_order_n():
    order = 6
    for beta in (F(0), F(-1), F(1, 2)):
        zi = z_infinite(beta, order)
        for n in (1, 2, 3, 4):
            s = z_box_det_series(n, n, beta, order)
            for k in range(n + 1):
                assert s.coeff(k) == zi.coeff(k)


def test_numeric_log_matches_series_evaluation():
    q = 0.3
    for beta in (-1.0, 0.0, 1.0):
        series = z_infinite(F(beta), 40)
        val = sum(float(c) * q ** k for k, c in enumerate(series.coeffs))
        assert abs(math.log(val) - log_z_numeric(beta, q)) < 1e-9


def test_entropy_frozen_values():
    assert abs(entropy(1.0, 1.0, -1.0) - 1.8709296005) < 1e-9
    assert abs(entropy(1.0, 1.0, 0.0) - 3.3577677090) < 1e-9
    assert abs(entropy(1.0, 1.0, 1.0) - 4.7051598991) < 1e-9


def test_entropy_grows_with_deformation():
    s = {b: entropy(1.0, 1.0, b) for b in (-1.0, 0.0, 1.0)}
    assert s[1.0] > s[0.0] > s[-1.0]


def test_entropy_thermodynamic_consistency():
    for beta in (-1.0, 0.0, 1.0):
        assert entropy_consistency(1.0, 1.0, beta) < 1e-6
        # S = log Z + E/T with E from a finite difference of log Z
        t = 1.0
        q = math.exp(-1.0 / t)
        lhs = entropy(1.0, t, beta)
        rhs = log_z_numeric(beta, q) + internal_energy_fd(1.0, t, beta) / t
        assert abs(lhs - rhs) < 1e-5


def test_entropy_vanishes_at_low_temperature():
    for beta in (-1.0, 0.0, 1.0):
        assert abs(entropy(1.0, 0.05, beta)) < 1e-6


def test_entropy_domain_errors():
    with pytest.raises(ParameterError):
        entropy(1.0, 1.0, -1.5)
    with pytest.raises(ParameterError):
        entropy(1.0, 0.0, 0.0)
    with pytest.raises(ParameterError):
        entropy(-1.0, 1.0, 0.0)


def test_entropy_and_log_z_need_finite_arguments():
    for bad in (math.nan, math.inf, -math.inf):
        for args in ((bad, 1.0, 0.0), (1.0, bad, 0.0), (1.0, 1.0, bad)):
            with pytest.raises(ParameterError, match="^need finite mu, temperature and beta$"):
                entropy(*args)
        for args in ((bad, 0.5), (0.0, bad)):
            with pytest.raises(ParameterError, match="^need finite beta and q$"):
                log_z_numeric(*args)


def test_box_series_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        z_box_det(1, 1, F(1), F(0))  # q = 1 is outside the numeric domain


def test_entropy_sums_raise_instead_of_truncating():
    # q = exp(-1e-6): q^n is still about 0.9 at the term cap
    with pytest.raises(ParameterError):
        entropy(1.0, 1e6, 0.0)
    with pytest.raises(ParameterError):
        log_z_numeric(0.0, math.exp(-1e-6))


def test_box_series_n8_meets_the_unboxed_product():
    # the largest box where the determinant and product routes are compared
    beta = F(-2, 3)
    assert z_box_det_series(8, 8, beta, 8) == z_infinite(beta, 8)


def _det_parts_entrywise(n, height, q, beta):
    # the determinant formula term by term: every entry builds its own powers
    # and its own 1/(1 - q^m), row j carries (1 + beta*q^j)^(j-1), and the
    # prefactor divides by the product
    one = q**0
    ent = [
        [
            (
                (one + beta * q**j) ** (j - 1)
                - q ** ((j + k - 1) * (height + n) + (1 - k) * (n - 1))
                * (q ** (k - 1) + beta * one) ** (n - 1)
                * (one + beta * q**j) ** (j - n)
            )
            / (one - q ** (j + k - 1))
            for k in range(1, n + 1)
        ]
        for j in range(1, n + 1)
    ]
    return ent, _prefactor_entrywise(n, q)


def _prefactor_entrywise(n, q):
    # one division by (1 - q^(k-j))^2 for each pair j < k
    one = q**0
    pref = one
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            pref = pref / (one - q ** (k - j)) ** 2
    return pref


def test_det_core_shares_powers_and_inverses_exactly():
    for n, height in ((1, 1), (2, 3), (3, 2), (4, 4)):
        for beta in (F(0), F(-1, 2), F(5, 3)):
            for q in (F(1, 3), F(-2, 5), TruncatedSeries.indeterminate(12)):
                assert (_z_box_det_parts(n, height, q, beta), _box_prefactor(n, q)) == _det_parts_entrywise(
                    n, height, q, beta
                )


def test_prefactor_through_the_requested_order_is_the_working_order_one_cut():
    # z_box_det_series takes the prefactor through its requested order, where
    # the determinant needs order + (n-1)^2
    for n in range(1, 8):
        for order in (0, 1, n, 2 * n + 3):
            work = order + (n - 1) ** 2
            got = _box_prefactor(n, TruncatedSeries.indeterminate(order))
            assert got == _prefactor_entrywise(n, TruncatedSeries.indeterminate(work)).truncate(order)


def test_box_series_n9_n10_meet_the_unboxed_product():
    # beyond the reach of the subset-expansion determinant in tier-1 time
    assert z_box_det_series(9, 9, F(-2, 3), 9) == z_infinite(F(-2, 3), 9)
    assert z_box_det_series(10, 10, F(3, 2), 10) == z_infinite(F(3, 2), 10)


def test_box_series_n12_meets_the_unboxed_product():
    # working order 133, where most of the elimination's products are packed
    assert z_box_det_series(12, 12, F(-1, 2), 12) == z_infinite(F(-1, 2), 12)


def _det_series_by_subset_expansion(n, height, beta, order):
    # the route the q-adic determinant replaced: the whole determinant by
    # det_ring at working order order - _det_shift(n), then divided by q^shift
    shift = -_det_shift(n)
    q = TruncatedSeries.indeterminate(order + shift)
    entries = _z_box_det_parts(n, height, q, beta)
    return (_box_prefactor(n, q) * det_ring(entries)).shift_down(shift).truncate(order)


def test_series_det_matches_the_subset_expansion_route():
    for n in range(1, 6):
        for height in (0, 1, 3, 6):
            for beta in (F(0), F(-1), F(1, 2), F(-2, 3), F(3, 2)):
                for order in (n, 2 * n + 3):
                    assert z_box_det_series(n, height, beta, order) == _det_series_by_subset_expansion(
                        n, height, beta, order
                    )


def test_series_det_never_returns_a_shorter_series():
    for n in range(0, 7):
        for height in (0, 3):
            for beta in (F(-1), F(-2, 3)):
                for order in (0, 1, n, 2 * n + 3):
                    assert z_box_det_series(n, height, beta, order).order == order


def test_box_determinant_has_only_the_weight_poles():
    # 1 + beta*q^n vanishes at these points, a factor the weight never uses
    for n, height, beta in ((2, 2, F(-4)), (3, 1, F(-8))):
        q = F(1, 2)
        assert z_box_det(n, height, q, beta) == z_box_bruteforce(n, height, q, beta)
    assert z_box_det(2, 2, F(1, 2), F(-4)) == F(-35, 256)


def test_bruteforce_takes_q_outside_the_unit_interval():
    # a finite sum needs q invertible only; a vanishing 1 + beta*q^j with
    # j < n is a pole of both routes (q = 2, beta = -1/2)
    for q in (F(2), F(3, 2), F(-1, 2), F(-3)):
        for n in range(1, 4):
            for height in range(4):
                for beta in (F(0), F(-1), F(1, 2), F(-1, 2), F(3, 2)):
                    try:
                        brute = z_box_bruteforce(n, height, q, beta)
                    except PoleError:
                        with pytest.raises(PoleError):
                            z_box_det(n, height, q, beta)
                        continue
                    assert brute == z_box_det(n, height, q, beta)
    with pytest.raises(ParameterError, match="^q must be nonzero$"):
        z_box_bruteforce(1, 1, F(0), F(1))


def test_box_determinant_is_the_cauchy_determinant_at_q_powers():
    # Z_box = q^(h n(n-1)/2) prod_{j<n} (1 + beta*q^j)^(j-n) cauchy_rhs(h, zs, ws)
    # with zs = (q, ..., q^n) and ws = (q^(1-n), ..., 1)
    for q in (F(1, 3), F(3, 2), F(-1, 2)):
        for beta in (F(0), F(-1), F(1, 2), F(-2, 3), F(3, 2), F(2)):
            for n in range(6):
                bases = [1 + beta * q**j for j in range(1, n)]
                for height in range(6):
                    if 0 in bases:
                        with pytest.raises(PoleError):
                            z_box_det(n, height, q, beta)
                        continue
                    want = q ** (height * n * (n - 1) // 2)
                    for j, base in enumerate(bases, 1):
                        want *= base ** (j - n)
                    zs = [q**j for j in range(1, n + 1)]
                    ws = [q ** (1 - k) for k in range(n, 0, -1)]
                    assert z_box_det(n, height, q, beta) == want * cauchy_rhs(height, zs, ws, beta)


def test_heights_below_minus_one_are_rejected():
    for n in range(0, 4):
        for height in (-2, -3, -7):
            with pytest.raises(ParameterError, match="box dimensions must be nonnegative"):
                z_box_det(n, height, F(1, 2), F(-1, 2))
            with pytest.raises(ParameterError, match="box dimensions must be nonnegative"):
                z_box_det_series(n, height, F(-1, 2), 4)


def test_negative_base_sides_are_rejected():
    for n in (-1, -2, -5):
        for height in (-1, 0, 2):
            with pytest.raises(ParameterError, match="box dimensions must be nonnegative"):
                z_box_det(n, height, F(1, 2), F(1, 2))
            with pytest.raises(ParameterError, match="box dimensions must be nonnegative"):
                z_box_det_series(n, height, F(1, 2), 2)


def test_series_det_raises_when_the_pivots_leave_too_little(monkeypatch):
    works = []

    def one_short(rows, order):
        v, unit = qadic_det(rows, order)
        works.append(order)
        # the unit is one coefficient short of the requested order
        return v, unit.truncate(6 - 1)

    monkeypatch.setattr(meltingcrystal, "qadic_det", one_short)
    with pytest.raises(PrecisionError, match=r"not known through q\^6"):
        z_box_det_series(4, 3, F(-2, 3), 6)
    assert works == [6 + 9]


def test_series_det_takes_one_working_order(monkeypatch):
    # order + (n-1)^2 always leaves the unit known through q^order: one
    # q-adic determinant per call and no PrecisionError, over every box with
    # n <= 6 and h <= 5, the beta palette with 0 and -1, and orders 0..2n
    # (0 and 2n only for n >= 5, to keep the sweep to a few seconds)
    works = []

    def counting(rows, order):
        works.append(order)
        return qadic_det(rows, order)

    monkeypatch.setattr(meltingcrystal, "qadic_det", counting)
    for n in range(7):
        orders = range(2 * n + 1) if n < 5 else (0, 2 * n)
        for height in range(6):
            for beta in _BETA_PALETTE + (F(0),):
                for order in orders:
                    works.clear()
                    assert z_box_det_series(n, height, beta, order).order == order
                    assert works == [order + (n - 1) ** 2]


def test_series_det_raises_when_still_short(monkeypatch):
    def always_short(rows, order):
        v, unit = qadic_det(rows, order)
        return v, unit.truncate(0)

    monkeypatch.setattr(meltingcrystal, "qadic_det", always_short)
    with pytest.raises(PrecisionError, match=r"not known through q\^4"):
        z_box_det_series(3, 2, F(1, 2), 4)


def test_series_det_checks_the_pivot_valuations(monkeypatch):
    def off_by_one(rows, order):
        v, unit = qadic_det(rows, order)
        return v + 1, unit

    monkeypatch.setattr(meltingcrystal, "qadic_det", off_by_one)
    with pytest.raises(ArithmeticError, match="^exponent bookkeeping failed$"):
        z_box_det_series(3, 2, F(1, 2), 4)


def _weight_phi_reference(pi, q, beta, n):
    # the weight as first written: every call checks the plane partition and
    # rebuilds its slices and the factors that depend on j only
    pi = check_plane_partition(pi)
    if len(pi) > n or (pi and len(pi[0]) > n):
        raise OutOfBoxError("plane partition leaves the n x n base")
    one = q**0
    val = one
    slices = {m: diagonal_slice(pi, m) for m in range(-n, n + 1)}
    for j in range(1, n + 1):
        up, up_prev, down, down_prev = slices[j], slices[j - 1], slices[-j], slices[1 - j]
        for k in range(1, n - j + 1):
            if part(up, k) == part(up_prev, k + 1):
                denom = one + beta * q**j
                if denom == 0:
                    raise PoleError(f"1 + beta*q^{j} vanishes")
                val = val / denom
            if part(down, k) != part(down_prev, k):
                val = val * (one + beta * q ** (1 - j))
    return val


def _bruteforce_reference(n, height, q, beta):
    total = F(0)
    for pi in enumerate_boxed(n, n, height):
        total += _weight_phi_reference(pi, q, beta, n) * q ** pp_size(pi)
    return total


def test_bruteforce_matches_the_weight_by_weight_sum():
    for n, height in ((1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3)):
        for q in (F(1, 2), F(2, 5)):
            for beta in (F(0), F(-1), F(1, 2), F(3, 2)):
                assert z_box_bruteforce(n, height, q, beta) == _bruteforce_reference(n, height, q, beta)


def test_weight_phi_matches_the_reference_per_configuration():
    # every point of BRUTE_POINTS: q outside (0, 1), q = +-1 with their
    # poles, and the zero weights at beta = -1
    kinds = set()
    for n_slices in (3, 4):
        for pi in enumerate_boxed(3, 3, 2):
            for q, beta in BRUTE_POINTS:
                want = outcome(_weight_phi_reference, pi, q, beta, n_slices)
                assert outcome(weight_phi, pi, q, beta, n_slices) == want, (pi, q, beta, n_slices)
                kinds.add(want[0] if want[0] != "value" else want[1] == 0)
    assert kinds == {True, False, PoleError}


def test_weight_phi_refuses_q_zero_at_every_base():
    for n_slices in range(5):
        for pi in ((), ((1,),))[: 1 + (n_slices > 0)]:
            for q in (0, F(0), 0.0):
                with pytest.raises(ParameterError, match="^q must be nonzero$"):
                    weight_phi(pi, q, F(1), n_slices)
        with pytest.raises(ParameterError, match="^q must be nonzero$"):
            z_box_bruteforce(n_slices, 1, F(0), F(1))


def test_weight_phi_converts_a_float_exactly():
    # 0.1 is 3602879701896397/2^55, not 1/10
    got = weight_phi(((1,),), 0.5, 0.1, 2)
    assert type(got) is F and got == (1 + F(0.1)) / (1 + F(0.1) / 2)


def test_bruteforce_poles_and_box_errors_keep_their_messages():
    # 1 + beta*q vanishes at q = 1/2, beta = -2; 1 + beta*q^2 at beta = -4
    for n, beta, j in ((2, F(-2), 1), (3, F(-2), 1), (3, F(-4), 2)):
        for route in (z_box_bruteforce, _bruteforce_reference):
            with pytest.raises(PoleError, match=rf"^1 \+ beta\*q\^{j} vanishes$"):
                route(n, 1, F(1, 2), beta)
    # a base too narrow to use the vanishing factor has no pole
    for n, beta in ((1, F(-2)), (2, F(-4))):
        assert z_box_bruteforce(n, 2, F(1, 2), beta) == _bruteforce_reference(n, 2, F(1, 2), beta)
    with pytest.raises(OutOfBoxError, match="^plane partition leaves the n x n base$"):
        weight_phi(((1, 1, 1),), F(1, 2), F(1), 2)
    with pytest.raises(ParameterError, match="^row increases"):
        weight_phi(((1, 2),), F(1, 2), F(1), 2)


def test_bruteforce_enumerates_each_box_once(monkeypatch):
    # the fill takes its rows from one partitions_in_box(height, n) call
    dims = []

    def counting(*args):
        dims.append(args)
        return partitions_in_box(*args)

    monkeypatch.setattr(meltingcrystal, "partitions_in_box", counting)
    meltingcrystal._box_classes.cache_clear()
    try:
        # the (q, beta) points of the full mc suite's 3 x 3 x 3 cases
        for q in (F(1, 2), F(1, 3), F(2, 5)):
            for beta in (F(0), F(-1), F(1), F(1, 2)):
                assert z_box_bruteforce(3, 3, q, beta) == z_box_det(3, 3, q, beta)
    finally:
        meltingcrystal._box_classes.cache_clear()
    assert dims == [(3, 3)]


def test_box_class_table_is_the_box():
    # every class's counts by size add up to the box count, and summed over
    # the classes they are the coefficients of the undeformed product
    for n in range(4):
        for height in range(4):
            classes = meltingcrystal._box_classes(n, height)
            assert sum(sum(counts) for _, counts in classes) == count_boxed(n, n, height)
            by_size = [sum(column) for column in zip(*(counts for _, counts in classes))]
            order = n * n * height
            want = z_box_beta0(n, n, height, TruncatedSeries.indeterminate(order))
            assert by_size == list(want.coeffs)


def test_bruteforce_matches_the_weight_by_weight_sum_outside_the_unit_interval():
    # poles included: 1 + beta*q vanishes at q = 3/2, beta = -2/3, and
    # 1 + beta*q^2 at q = -1/2, beta = -4
    for n, height in ((1, 3), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3)):
        for q in (F(3, 2), F(-1, 2), F(-3)):
            for beta in (F(0), F(-1), F(1, 2), F(-2, 3), F(-4)):
                try:
                    want = _bruteforce_reference(n, height, q, beta)
                except PoleError as exc:
                    with pytest.raises(PoleError, match=f"^{re.escape(str(exc))}$"):
                        z_box_bruteforce(n, height, q, beta)
                    continue
                assert z_box_bruteforce(n, height, q, beta) == want


def test_bruteforce_meets_the_determinant_at_4x4_boxes():
    # 1764 and 24696 plane partitions; 1 + beta*q vanishes at q = 3/2, beta = -2/3
    poles = 0
    for height in (2, 3):
        for q in (F(1, 3), F(3, 2), F(-1, 2)):
            for beta in (F(0), F(-1), F(1, 2), F(-2, 3)):
                if any(1 + beta * q**j == 0 for j in range(1, 4)):
                    poles += 1
                    for route in (z_box_bruteforce, z_box_det):
                        with pytest.raises(PoleError, match=r"^1 \+ beta\*q\^1 vanishes$"):
                            route(4, height, q, beta)
                    continue
                assert z_box_bruteforce(4, height, q, beta) == z_box_det(4, height, q, beta)
    assert poles == 2


def test_every_route_refuses_the_same_boxes():
    qser = TruncatedSeries.indeterminate(3)
    for rows in range(-2, 4):
        for cols in range(-2, 4):
            for height in range(-2, 4):
                if min(rows, cols, height) >= 0:
                    continue
                routes = [
                    lambda: list(enumerate_boxed(rows, cols, height)),
                    lambda: count_boxed(rows, cols, height),
                    lambda: z_box_beta0(rows, cols, height, F(1, 2)),
                    lambda: z_box_beta0(rows, cols, height, qser),
                ]
                if rows == cols:
                    routes += [
                        lambda: z_box_bruteforce(rows, height, F(1, 2), F(1, 2)),
                        lambda: z_box_det(rows, height, F(1, 2), F(1, 2)),
                        lambda: z_box_det_series(rows, height, F(1, 2), 3),
                    ]
                for route in routes:
                    with pytest.raises(ParameterError, match="^box dimensions must be nonnegative$"):
                        route()


BOX_DIMS = [(n, h) for n in range(4) for h in range(4)] + [(4, 2)]


@pytest.mark.parametrize("n, height", BOX_DIMS)
def test_box_fill_is_the_agreement_grouping_of_the_enumeration(n, height):
    # the same classes, in the order of first appearance, with the same counts
    assert meltingcrystal._box_classes.__wrapped__(n, height) == oracles.box_classes(n, height)


@pytest.mark.parametrize("n, height", BOX_DIMS)
def test_weight_phi_is_the_oracle_weight_of_the_agreement_class(n, height):
    for q, beta in ((F(2, 5), F(-2, 3)), (F(-3), F(1, 2)), (F(-1), F(1))):
        factors = oracles.phi_factors(n, q, beta)
        for pi in enumerate_boxed(n, n, height):
            want = outcome(oracles.phi, oracles.agreements(pi, n), factors)
            assert outcome(weight_phi, pi, q, beta, n) == want, (pi, q, beta)


BRUTE_POINTS = [
    (q, beta)
    for q in (F(1, 2), F(2, 5), F(-1, 3), F(3, 2), F(-3), F(1), F(-1), F(2))
    for beta in (F(0), F(-1), F(1), F(1, 2), F(-2, 3), F(3), F(-1, 2))
]


def test_integer_bruteforce_matches_the_fraction_class_sum():
    kinds = set()
    for n, height in ((0, 2), (1, 2), (2, 1), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1)):
        for q, beta in BRUTE_POINTS:
            want = outcome(oracles.bruteforce_fraction, n, height, q, beta)
            assert outcome(z_box_bruteforce, n, height, q, beta) == want, (n, height, q, beta)
            kinds.add(want[0] if want[0] != "value" else type(want[1]))
    assert kinds == {F, PoleError}


@pytest.mark.parametrize("q, beta, j", [(F(-1), F(1), 1), (F(2), F(-1, 2), 1), (F(1, 2), F(-4), 2)])
def test_integer_bruteforce_raises_the_fraction_sums_pole(q, beta, j):
    for n in (2, 3):
        want = outcome(oracles.bruteforce_fraction, n, 2, q, beta)
        if j < n:
            assert want == (PoleError, f"1 + beta*q^{j} vanishes")
        else:
            assert want[0] == "value"
        assert outcome(z_box_bruteforce, n, 2, q, beta) == want


def test_integer_bruteforce_raises_at_the_first_class_in_order(monkeypatch):
    # at q = -1, beta = 1 both 1 + beta*q and 1 + beta*q^3 vanish; put first,
    # a class that uses only the second decides which one is raised
    n, height, q, beta = 4, 3, F(-1), F(1)
    classes = meltingcrystal._box_classes(n, height)
    first = next(i for i, (cls, _) in enumerate(classes) if cls[2][0] and not cls[0][0])
    reordered = (classes[first],) + classes[:first] + classes[first + 1 :]
    want = (PoleError, "1 + beta*q^3 vanishes")
    assert outcome(oracles.bruteforce_fraction, n, height, q, beta, reordered) == want
    monkeypatch.setattr(meltingcrystal, "_box_classes", lambda *dims: reordered)
    assert outcome(z_box_bruteforce, n, height, q, beta) == want
    monkeypatch.undo()
    assert outcome(z_box_bruteforce, n, height, q, beta) == (PoleError, "1 + beta*q^1 vanishes")


@pytest.mark.parametrize(
    "old, new",
    [
        ("u ** (top_up - c)", "u ** (top_up - c + 1)"),
        ("d_den ** (top_down - c)", "d_den ** (top_down - c + 1)"),
        ("r * b ** (j - 1)", "r * b**j"),
        ("a**k * b ** (top - k)", "a**k * b ** (top - k + 1)"),
    ],
    ids=["up", "down", "down-factor", "size"],
)
def test_an_exponent_off_by_one_in_the_class_sum_is_caught(monkeypatch, old, new):
    # the mutant replaces the one class sum, so both routes that weigh a class run it
    mutant = oracles.mutant(meltingcrystal._class_sum, old, new)
    cases = []
    for n, height in ((2, 2), (3, 2)):
        for q, beta in ((F(1, 2), F(1, 2)), (F(2, 5), F(-2, 3)), (F(-1, 3), F(2, 5))):
            want = outcome(oracles.bruteforce_fraction, n, height, q, beta)
            weights = [outcome(_weight_phi_reference, pi, q, beta, n) for pi in enumerate_boxed(n, n, height)]
            cases.append((n, height, q, beta, want, weights))
            assert want[0] == "value" and outcome(z_box_bruteforce, n, height, q, beta) == want
            assert [outcome(weight_phi, pi, q, beta, n) for pi in enumerate_boxed(n, n, height)] == weights
    monkeypatch.setattr(meltingcrystal, "_class_sum", mutant)
    for n, height, q, beta, want, weights in cases:
        assert outcome(z_box_bruteforce, n, height, q, beta) != want, (n, height, q, beta)
        got = [outcome(weight_phi, pi, q, beta, n) for pi in enumerate_boxed(n, n, height)]
        assert got != weights, (n, height, q, beta)


def test_the_phi_beta0_case_catches_a_class_sum_fault(monkeypatch):
    # at q = 1/2, beta = 0 only the up exponent shows: s a^(j-1) = 1 there
    assert run_suite("mc", "full", 1, tags="phi-beta0").ok
    old, new = "u ** (top_up - c)", "u ** (top_up - c + 1)"
    monkeypatch.setattr(meltingcrystal, "_class_sum", oracles.mutant(meltingcrystal._class_sum, old, new))
    report = run_suite("mc", "full", 1, tags="phi-beta0")
    assert report.cases == 1 and [f["case"] for f in report.failures] == ["mc.phi-beta0.box3"]


@pytest.mark.parametrize(
    "old, new", [("x == y", "x != y"), ("x != y", "x == y"), ("c >= r", "c > r")], ids=["up", "down", "diagonal"]
)
def test_a_flipped_comparison_in_the_fill_is_caught(monkeypatch, old, new):
    monkeypatch.setattr(meltingcrystal, "_row_digits", oracles.mutant(meltingcrystal._row_digits, old, new))
    for n, height in ((2, 1), (3, 2)):
        assert meltingcrystal._box_classes.__wrapped__(n, height) != oracles.box_classes(n, height)


@pytest.mark.parametrize(
    "route, args, error",
    [
        (z_box_beta0, (2, 2, 2, 1), (PoleError, "1 - q^m vanishes")),
        (log_z_numeric, (0.0, 1.0), (ParameterError, "need 0 < q < 1")),
        (log_z_numeric, (-2.0, 0.5), (ParameterError, "beta < -1 leaves the physical range")),
    ],
)
def test_bad_input_is_refused_with_its_message(route, args, error):
    assert outcome(route, *args) == error
