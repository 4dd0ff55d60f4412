from fractions import Fraction

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grothcrystal.errors import OutOfBoxError, ParameterError
from grothcrystal.meltingcrystal import weight_phi
from grothcrystal.partitions import (
    all_diagonal_slices,
    assemble_from_slices,
    check_partition,
    check_plane_partition,
    complement,
    count_boxed,
    diagonal_slice,
    enumerate_boxed,
    interlaces,
    interlacing_above,
    interlacing_below,
    part,
    partition_from_occupation,
    partition_from_positions,
    partitions_in_box,
    partitions_of_size,
    plane_partitions_of_size,
    pp_entry,
    pp_size,
)


def positions(lam):
    """1-based positions x_j = lam_(N-j+1) + j: the inverse of partition_from_positions."""
    n = len(lam)
    return tuple(lam[n - j] + j for j in range(1, n + 1))


def occupation(lam, num_sites):
    """n_k = multiplicity of k in lam: the inverse of partition_from_occupation."""
    return tuple(lam.count(k) for k in range(num_sites))


def test_check_partition():
    assert check_partition([3, 1, 0]) == (3, 1, 0)
    with pytest.raises(ParameterError):
        check_partition([1, 2])
    with pytest.raises(ParameterError):
        check_partition([2, -1])


def test_parts_and_positions_must_be_integers():
    # int() used to truncate: (2.9, 0.2) read as (2, 0), positions (1, 2.5) as (1, 2)
    for bad in [(1.5, 0), (2.9, 0.2), (3, 2.5), (1, 0.0, 1 / 3)]:
        with pytest.raises(ParameterError, match="^parts must be integers"):
            check_partition(bad)
    with pytest.raises(ParameterError, match="^positions must be integers"):
        partition_from_positions((1, 2.5))
    assert check_partition((2.0, 1, 0.0)) == (2, 1, 0)
    assert check_partition(iter([3, 1])) == (3, 1)
    assert partition_from_positions((1.0, 3)) == (1, 0)
    assert [type(p) for p in partition_from_positions((2.0, 3))] == [int, int]


def test_part_is_one_based_and_padded():
    lam = (4, 2, 1)
    assert part(lam, 1) == 4
    assert part(lam, 3) == 1
    assert part(lam, 4) == 0
    assert part(lam, 99) == 0


def test_positions_roundtrip():
    for m in range(1, 7):
        for n in range(m + 1):
            for lam in partitions_in_box(m - n, n):
                x = positions(lam)
                assert partition_from_positions(x) == lam


def test_reversed_positions_is_complement():
    # rotating the chain by half a turn complements the partition in its box
    m = 7
    for n in range(m + 1):
        for lam in partitions_in_box(m - n, n):
            x = positions(lam)
            rot = partition_from_positions(oracles.reversed_positions(x, m))
            assert rot == complement(lam, m - n)


def test_complement():
    assert complement((4, 3, 1, 1), 4) == (3, 3, 1, 0)
    assert complement((), 3) == ()
    for lam in partitions_in_box(3, 4):
        assert complement(complement(lam, 3), 3) == lam
    with pytest.raises(OutOfBoxError):
        complement((5, 1), 4)


def test_occupation_encoding():
    lam = (6, 5, 5, 5, 2, 2, 0)
    occ = occupation(lam, 8)
    assert occ == (1, 0, 2, 0, 0, 3, 1, 0)
    assert partition_from_occupation(occ) == lam


def test_interlaces_examples():
    assert interlaces((3, 1), (2,))
    assert interlaces((3, 1), (1,))
    assert interlaces((3, 1), (3,))
    assert not interlaces((2, 2), (1,))
    assert interlaces((2,), ())
    assert not interlaces((1, 1), ())


def test_interlaces_equals_the_part_loop_at_any_lengths():
    # every pair of shapes of at most 4 parts each at most 3, trailing zeros
    # included, so lengths differ by anything from -4 to 4
    shapes = [lam for n in range(5) for lam in partitions_in_box(3, n)]
    for mu in shapes:
        for lam in shapes:
            assert interlaces(mu, lam) == oracles.interlaces(mu, lam), (mu, lam)
    assert sum(interlaces(mu, lam) for mu in shapes for lam in shapes) > len(shapes)
    for bad in [((1, 2), ()), ((), (0, 1)), ((1, -1), (0,)), ((1.5,), ())]:
        with pytest.raises(ParameterError):
            interlaces(*bad)


def test_interlacing_below_matches_filter():
    for mu in partitions_in_box(3, 3):
        below = set(interlacing_below(mu))
        brute = {
            lam for lam in partitions_in_box(3, 2) if interlaces(mu, lam)
        }
        assert below == brute


def test_interlacing_above_matches_filter():
    for top in range(4):
        for n in range(3):
            for lam in partitions_in_box(3, n):
                above = list(interlacing_above(lam, top))
                brute = [mu for mu in partitions_in_box(top, n + 1) if interlaces(mu, lam)]
                assert above == sorted(brute), (lam, top)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 5), max_size=4), st.integers(-1, 6))
def test_interlacing_above_inverts_interlacing_below(parts, top):
    lam = tuple(sorted(parts, reverse=True))
    above = set(interlacing_above(lam, top))
    for mu in partitions_in_box(6, len(lam) + 1):  # parts up to 6, past every top
        assert (mu in above) == (lam in set(interlacing_below(mu)) and mu[0] <= top), (lam, mu, top)


def test_interlacing_above_edge_cases():
    assert list(interlacing_above((), 2)) == [(0,), (1,), (2,)]
    assert list(interlacing_above((2, 1), 1)) == []  # top < lam_1
    assert list(interlacing_above((2, 1), 2)) == [(2, 1, 0), (2, 1, 1), (2, 2, 0), (2, 2, 1)]
    for bad in [(1.5,), (1, 2), (1, -1)]:
        with pytest.raises(ParameterError):
            interlacing_above(bad, 3)
    with pytest.raises(ParameterError):
        interlacing_above((1,), 2.5)


def test_interlacing_below_yields_the_reference_sequence():
    # the same partitions in the same order as the part-by-part recursion
    for length in range(1, 5):
        for mu in partitions_in_box(4, length):
            assert list(interlacing_below(mu)) == list(oracles.interlacing_below(mu))
    with pytest.raises(ParameterError, match="empty partition has nothing below"):
        interlacing_below(())


def test_partitions_in_box_inventory():
    box22 = list(partitions_in_box(2, 2))
    assert len(box22) == 6
    assert box22[0] == (0, 0) and box22[-1] == (2, 2)
    assert all(len(lam) == 2 for lam in box22)
    assert len(list(partitions_in_box(3, 3))) == 20


def test_partitions_of_size_counts():
    counts = [sum(1 for _ in partitions_of_size(n)) for n in range(7)]
    assert counts == [1, 1, 2, 3, 5, 7, 11]
    assert list(partitions_of_size(0)) == [()]


def test_plane_partition_slices():
    pi = ((3, 2), (2, 1))
    assert pp_entry(pi, 1, 1) == 3
    assert pp_entry(pi, 2, 2) == 1
    assert pp_entry(pi, 3, 1) == 0
    assert pp_size(pi) == 8
    assert diagonal_slice(pi, 0) == (3, 1)
    assert diagonal_slice(pi, 1) == (2,)
    assert diagonal_slice(pi, -1) == (2,)
    assert all_diagonal_slices(pi) == {-1: (2,), 0: (3, 1), 1: (2,)}


def test_assemble_roundtrip():
    for pi in enumerate_boxed(2, 2, 3):
        slices = all_diagonal_slices(pi)
        if not slices:
            assert pi == ()
            continue
        lo, hi = min(slices), max(slices)
        ordered = [slices.get(m, ()) for m in range(lo, hi + 1)]
        assert assemble_from_slices(ordered, lo) == pi


def test_assemble_rejects_inconsistent_slices():
    with pytest.raises(ParameterError):
        assemble_from_slices([(1,), (2,)], 0)  # row would increase
    with pytest.raises(ParameterError):
        assemble_from_slices([(2,), (1, 2)], -1)  # slice is not a partition


def test_check_plane_partition():
    check_plane_partition(((3, 2), (2, 1)))
    with pytest.raises(ParameterError):
        check_plane_partition(((1, 2),))
    with pytest.raises(ParameterError):
        check_plane_partition(((1,), (2,)))


def test_plane_partition_entries_must_be_integers():
    # int() used to truncate: [[2.7, 1.2]] read as ((2, 1),), in the slices too
    for bad in ([[2.7, 1.2]], [[3, 2], [1.5]], [[2, Fraction(1, 2)]]):
        with pytest.raises(ParameterError, match="^entries must be integers"):
            check_plane_partition(bad)
        with pytest.raises(ParameterError, match="^entries must be integers"):
            all_diagonal_slices(bad)
        with pytest.raises(ParameterError, match="^entries must be integers"):
            weight_phi(bad, Fraction(1, 2), Fraction(1), 2)
    pi = check_plane_partition([[2.0, Fraction(1)], [True, 0]])
    assert pi == ((2, 1), (1,))
    assert [type(v) for row in pi for v in row] == [int, int, int]


def test_boxed_counts():
    assert count_boxed(2, 2, 2) == 20
    assert sum(1 for _ in enumerate_boxed(2, 2, 2)) == 20
    assert count_boxed(3, 3, 3) == 980
    # the count is symmetric in all three box dimensions
    assert count_boxed(2, 3, 4) == count_boxed(4, 3, 2) == count_boxed(3, 2, 4)
    for pi in enumerate_boxed(2, 3, 2):
        check_plane_partition(pi)
        assert len(pi) <= 2 and all(len(row) <= 3 for row in pi)
        assert all(row[0] <= 2 for row in pi)


def test_plane_partitions_of_size_counts():
    counts = [sum(1 for _ in plane_partitions_of_size(n)) for n in range(6)]
    assert counts == [1, 1, 3, 6, 13, 24]


def test_count_boxed_counts_only_boxes_that_exist():
    # a negative dimension is refused by both, with the same message
    for rows in range(-2, 4):
        for cols in range(-2, 4):
            for height in range(-2, 4):
                try:
                    count = count_boxed(rows, cols, height)
                except ParameterError as exc:
                    assert str(exc) == "box dimensions must be nonnegative"
                    with pytest.raises(ParameterError, match=f"^{exc}$"):
                        list(enumerate_boxed(rows, cols, height))
                    continue
                assert count == sum(1 for _ in enumerate_boxed(rows, cols, height))


@pytest.mark.parametrize(
    "route, args, message",
    [
        (partition_from_positions, ((0, 1),), "positions are 1-based"),
        (check_plane_partition, (((-1,),),), "negative entry"),
        (check_plane_partition, (((1,), (1, 1)),), "row lengths increase downward"),
        (pp_entry, (((1,),), 0, 1), "plane partition indices are 1-based"),
        (assemble_from_slices, ([(1,), (2,)], 0), "slices do not interlace: row increases: (1, 2)"),
        (lambda n: list(plane_partitions_of_size(n)), (-1,), "size must be nonnegative"),
    ],
)
def test_bad_input_is_refused_with_its_message(route, args, message):
    assert oracles.outcome(route, *args) == (ParameterError, message)
