"""Partitions, particle/occupation encodings, plane partitions and their slices.

A partition is a tuple of weakly decreasing nonnegative ints whose length is
significant (trailing zeros count as parts).  Particle positions are 1-based
strictly increasing tuples; occupation configurations are tuples indexed by
site 0..M-1.  A plane partition is a tuple of row tuples, normalized so that
no row is empty and no row has trailing zeros; entries decrease weakly along
rows and down columns.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Sequence

from .errors import OutOfBoxError, ParameterError

Partition = tuple[int, ...]
PlanePartition = tuple[tuple[int, ...], ...]


def _integers(values: Sequence[int], what: str) -> tuple[int, ...]:
    """values as a tuple of ints; refuses any value that int() would change."""
    values = tuple(values)
    if (ints := tuple(map(int, values))) != values:
        raise ParameterError(f"{what} must be integers: {values}")
    return ints


def check_partition(lam: Sequence[int]) -> Partition:
    lam = _integers(lam, "parts")
    for a, b in zip(lam, lam[1:]):
        if a < b:
            raise ParameterError(f"not weakly decreasing: {lam}")
    if lam and lam[-1] < 0:
        raise ParameterError(f"negative part: {lam}")
    return lam


def part(lam: Sequence[int], j: int) -> int:
    """The j-th part (1-based), zero beyond the length."""
    return lam[j - 1] if 1 <= j <= len(lam) else 0


def partitions_in_box(max_part: int, length: int) -> Iterator[Partition]:
    """All partitions with at most `length` parts each <= max_part, written as
    exactly `length` parts, in ascending lexicographic order."""
    if length == 0:
        yield ()
        return
    for first in range(max_part + 1):
        for rest in partitions_in_box(first, length - 1):
            yield (first,) + rest


def partitions_of_size(n: int) -> Iterator[Partition]:
    """All partitions of n (no padding), largest part first."""
    def rec(remaining: int, cap: int, acc: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield tuple(acc)
            return
        for p in range(min(cap, remaining), 0, -1):
            acc.append(p)
            yield from rec(remaining - p, p, acc)
            acc.pop()

    yield from rec(n, n, [])


def interlaces(mu: Sequence[int], lam: Sequence[int]) -> bool:
    """Whether mu >= lam >= mu shifted by one, reading both with zero padding.

    With len(mu) = len(lam) + 1 this is the usual interlacing between adjacent
    rows of a triangular array; the padded reading also serves diagonal slices
    of arbitrary lengths.
    """
    mu = check_partition(mu)
    lam = check_partition(lam)
    n = max(len(mu), len(lam) + 1)
    return _interlaced(mu + (0,) * (n - len(mu)), lam + (0,) * (n - 1 - len(lam)))


def _interlaced(mu: Partition, lam: Partition) -> bool:
    """mu_j >= lam_j >= mu_(j+1) for checked partitions with len(mu) = len(lam) + 1."""
    return all(a >= b >= c for a, b, c in zip(mu, lam, mu[1:]))


def interlacing_below(mu: Sequence[int]) -> Iterator[Partition]:
    """All lam with len(lam) = len(mu) - 1 and mu interlacing lam, in ascending
    lexicographic order: part j of lam ranges over [mu_(j+1), mu_j] on its own."""
    mu = check_partition(mu)
    if not mu:
        raise ParameterError("empty partition has nothing below")
    return itertools.product(*(range(low, high + 1) for high, low in zip(mu, mu[1:])))


def interlacing_above(lam: Sequence[int], top: int) -> Iterator[Partition]:
    """All mu with len(mu) = len(lam) + 1, mu_1 <= top and mu interlacing lam,
    in ascending lexicographic order: part j of mu ranges over [lam_j,
    lam_(j-1)] on its own, with lam_0 = top and lam_(n+1) = 0."""
    lam = check_partition(lam)
    (top,) = _integers([top], "top")
    return itertools.product(*(range(low, high + 1) for high, low in zip((top, *lam), (*lam, 0))))


def partition_from_positions(x: Sequence[int]) -> Partition:
    x = _integers(x, "positions")
    for a, b in zip(x, x[1:]):
        if a >= b:
            raise ParameterError(f"positions not strictly increasing: {x}")
    if x and x[0] < 1:
        raise ParameterError("positions are 1-based")
    n = len(x)
    return tuple(x[n - j] - (n - j + 1) for j in range(1, n + 1))


def complement(lam: Sequence[int], width: int) -> Partition:
    """Complement in the width^N box: width - lam_{N+1-j}."""
    lam = check_partition(lam)
    if lam and lam[0] > width:
        raise OutOfBoxError(f"partition does not fit in width {width}")
    return tuple(width - p for p in reversed(lam))


def partition_from_occupation(occ: Sequence[int]) -> Partition:
    out: list[int] = []
    for k in range(len(occ) - 1, -1, -1):
        if occ[k] < 0:
            raise ParameterError("negative occupation")
        out.extend([k] * occ[k])
    return tuple(out)


# -- plane partitions ---------------------------------------------------------


def normalize_plane_partition(rows: Sequence[Sequence[int]]) -> PlanePartition:
    out = []
    for row in rows:
        row = _integers(row, "entries")
        while row and row[-1] == 0:
            row = row[:-1]
        if row:
            out.append(row)
        else:
            break
    return tuple(out)


def check_plane_partition(pi: Sequence[Sequence[int]]) -> PlanePartition:
    pi = normalize_plane_partition(pi)
    for row in pi:
        for a, b in zip(row, row[1:]):
            if a < b:
                raise ParameterError(f"row increases: {row}")
        if row[-1] < 0:
            raise ParameterError("negative entry")
    for upper, lower in zip(pi, pi[1:]):
        if len(lower) > len(upper):
            raise ParameterError("row lengths increase downward")
        for a, b in zip(upper, lower):
            if a < b:
                raise ParameterError("column increases downward")
    return pi


def pp_entry(pi: PlanePartition, i: int, j: int) -> int:
    """Entry at row i, column j (1-based), zero outside the support."""
    if i < 1 or j < 1:
        raise ParameterError("plane partition indices are 1-based")
    if i <= len(pi) and j <= len(pi[i - 1]):
        return pi[i - 1][j - 1]
    return 0


def pp_size(pi: PlanePartition) -> int:
    return sum(sum(row) for row in pi)


def diagonal_slice(pi: PlanePartition, m: int) -> Partition:
    """The partition read along the m-th diagonal (entries pi[j-m, j])."""
    out = []
    k = 1
    while True:
        e = pp_entry(pi, k - min(m, 0), k + max(m, 0))
        if e == 0:
            break
        out.append(e)
        k += 1
    return tuple(out)


def all_diagonal_slices(pi: PlanePartition) -> dict[int, Partition]:
    """Every nonempty diagonal slice, keyed by diagonal index."""
    pi = check_plane_partition(pi)
    out = {}
    rows = len(pi)
    cols = len(pi[0]) if pi else 0
    for m in range(-rows + 1, cols):
        s = diagonal_slice(pi, m)
        if s:
            out[m] = s
    return out


def assemble_from_slices(
    slices: Sequence[Sequence[int]], m_first: int
) -> PlanePartition:
    """Rebuild a plane partition from consecutive diagonal slices.

    slices[i] is the diagonal m_first + i; diagonals outside the given range
    are empty.  Raises if the slices are not the diagonals of any plane
    partition (in particular if they violate the interlacing chain).
    """
    given = {m_first + i: check_partition(s) for i, s in enumerate(slices)}
    nonempty = {m: s for m, s in given.items() if s}
    if not nonempty:
        return ()
    rows = max(len(s) - min(m, 0) for m, s in nonempty.items())
    cols = max(len(s) + max(m, 0) for m, s in nonempty.items())
    grid = []
    for i in range(1, rows + 1):
        row = []
        for j in range(1, cols + 1):
            s = given.get(j - i, ())
            row.append(part(s, min(i, j)))
        grid.append(row)
    try:
        pi = check_plane_partition(grid)
    except ParameterError as exc:
        raise ParameterError(f"slices do not interlace: {exc}") from exc
    for m, s in given.items():
        if diagonal_slice(pi, m) != tuple(s):
            raise ParameterError(
                f"slice {m} is inconsistent with the other diagonals"
            )
    return pi


def check_box(n_rows: int, n_cols: int, height: int) -> None:
    """Raise unless the n_rows x n_cols x height box exists."""
    if min(n_rows, n_cols, height) < 0:
        raise ParameterError("box dimensions must be nonnegative")


def enumerate_boxed(n_rows: int, n_cols: int, height: int) -> Iterator[PlanePartition]:
    """Every plane partition inside the n_rows x n_cols x height box, in
    ascending lexicographic order of the row-major entry grid."""
    check_box(n_rows, n_cols, height)
    grid = [[0] * n_cols for _ in range(n_rows)]
    total = n_rows * n_cols

    def rec(pos: int) -> Iterator[PlanePartition]:
        if pos == total:
            yield normalize_plane_partition(grid)
            return
        i, j = divmod(pos, n_cols)
        cap = height
        if i > 0:
            cap = min(cap, grid[i - 1][j])
        if j > 0:
            cap = min(cap, grid[i][j - 1])
        for v in range(cap + 1):
            grid[i][j] = v
            yield from rec(pos + 1)
        grid[i][j] = 0

    yield from rec(0)


def count_boxed(n_rows: int, n_cols: int, height: int) -> int:
    """Number of plane partitions in the box, via the classical product."""
    from fractions import Fraction

    check_box(n_rows, n_cols, height)
    total = Fraction(1)
    for j in range(1, n_rows + 1):
        for k in range(1, n_cols + 1):
            total *= Fraction(height + j + k - 1, j + k - 1)
    if total.denominator != 1:
        raise ArithmeticError("box-count product failed to be integral")
    return total.numerator


def plane_partitions_of_size(n: int) -> Iterator[PlanePartition]:
    """Every plane partition with exactly n boxes."""
    if n < 0:
        raise ParameterError("size must be nonnegative")
    if n == 0:
        yield ()
        return

    def dominated_rows(upper: Sequence[int], max_sum: int) -> Iterator[Partition]:
        # nonempty partitions bounded entrywise by `upper` with size <= max_sum
        def rec(i: int, prev: int, left: int, acc: list[int]) -> Iterator[Partition]:
            if acc:
                yield tuple(acc)
            if i >= len(upper):
                return
            for v in range(1, min(upper[i], prev, left) + 1):
                acc.append(v)
                yield from rec(i + 1, v, left - v, acc)
                acc.pop()

        yield from rec(0, max_sum, max_sum, [])

    def build(upper: Sequence[int], left: int, acc: list[Partition]) -> Iterator[PlanePartition]:
        if left == 0:
            yield tuple(acc)
            return
        for row in dominated_rows(upper, left):
            acc.append(row)
            yield from build(row, left - sum(row), acc)
            acc.pop()

    yield from build((n,) * n, n, [])
