import math
from fractions import Fraction as F

import pytest

from grothcrystal import meltingcrystal
from grothcrystal.errors import OutOfBoxError, ParameterError, PoleError, PrecisionError
from grothcrystal.exactcore import Matrix, TruncatedSeries, qadic_det
from grothcrystal.meltingcrystal import (
    _det_shift,
    _z_box_det_core,
    entropy,
    entropy_consistency,
    internal_energy_fd,
    log_z_numeric,
    weight_phi,
    z_box_beta0,
    z_box_bruteforce,
    z_box_det,
    z_box_det_series,
    z_box_series_limit,
    z_infinite,
)
from grothcrystal.partitions import (
    check_plane_partition,
    count_boxed,
    diagonal_slice,
    enumerate_boxed,
    part,
    partitions_of_size,
    plane_partitions_of_size,
    pp_size,
)


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


def test_unbounded_series_positivity():
    for beta in (F(0), F(1, 2), F(1), F(2)):
        assert all(c >= 0 for c in z_infinite(beta, 12).coeffs)


def test_box_limit_recovers_unbounded_series():
    for beta in (F(0), F(-1), F(1, 2)):
        assert z_box_series_limit(beta, 4) == z_infinite(beta, 4)


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


def _det_core_entrywise(n, height, q, beta):
    # the determinant formula term by term: every entry builds its own powers
    # and its own 1/(1 - q^m), and the prefactor divides by the product
    one = q**0
    ent = [
        [
            (
                one
                - q ** ((j + k - 1) * (height + n) + (1 - k) * (n - 1))
                * (q ** (k - 1) + beta * one) ** (n - 1)
                / (one + beta * q**j) ** (n - 1)
            )
            / (one - q ** (j + k - 1))
            for k in range(1, n + 1)
        ]
        for j in range(1, n + 1)
    ]
    pref = one
    for j in range(1, n + 1):
        pref = pref * (one + beta * q**j) ** (j - 1)
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            pref = pref / (one - q ** (k - j)) ** 2
    return pref * Matrix(ent).det()


def test_det_core_shares_powers_and_inverses_exactly():
    for n, height in ((1, 1), (2, 3), (3, 2), (4, 4)):
        for beta in (F(0), F(-1, 2), F(5, 3)):
            for q in (F(1, 3), F(-2, 5)):
                assert _z_box_det_core(n, height, q, beta) == _det_core_entrywise(
                    n, height, q, beta
                )
            qs = TruncatedSeries.indeterminate(12)
            assert _z_box_det_core(n, height, qs, beta) == _det_core_entrywise(
                n, height, qs, beta
            )


def test_box_series_n9_n10_meet_the_unboxed_product():
    # beyond the reach of the subset-expansion determinant in tier-1 time
    assert z_box_det_series(9, 9, F(-2, 3), 9) == z_infinite(F(-2, 3), 9)
    assert z_box_det_series(10, 10, F(3, 2), 10) == z_infinite(F(3, 2), 10)


def _det_series_by_subset_expansion(n, height, beta, order):
    # the route the q-adic determinant replaced: the whole determinant by
    # det_ring at working order order - _det_shift(n), then divided by q^shift
    shift = -_det_shift(n)
    q = TruncatedSeries.indeterminate(order + shift)
    return _z_box_det_core(n, height, q, beta).shift_down(shift).truncate(order)


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
        for height in (-1, 0, 3):
            for beta in (F(-1), F(-2, 3)):
                for order in (0, 1, n, 2 * n + 3):
                    assert z_box_det_series(n, height, beta, order).order == order


def test_heights_below_minus_one_are_rejected():
    for n in range(0, 4):
        for height in (-2, -3, -7):
            with pytest.raises(ParameterError, match="box dimensions must be nonnegative"):
                z_box_det(n, height, F(1, 2), F(-1, 2))
            with pytest.raises(ParameterError, match="box dimensions must be nonnegative"):
                z_box_det_series(n, height, F(-1, 2), 4)


def test_series_det_retries_when_the_pivots_leave_too_little(monkeypatch):
    want = z_box_det_series(4, 3, F(-2, 3), 6)
    works = []

    def short_first(rows, order):
        v, unit = qadic_det(rows, order)
        works.append(order)
        # the first attempt reports one coefficient less than it needs
        return v, unit.truncate(unit.order - 1) if len(works) == 1 else unit

    monkeypatch.setattr(meltingcrystal, "qadic_det", short_first)
    assert z_box_det_series(4, 3, F(-2, 3), 6) == want
    assert works == [6 + 9, 6 - _det_shift(4)]


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
    for n_slices in (3, 4):
        for pi in enumerate_boxed(3, 3, 2):
            for beta in (F(-1), F(3, 2)):
                assert weight_phi(pi, F(2, 5), beta, n_slices) == _weight_phi_reference(
                    pi, F(2, 5), beta, n_slices
                )


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
