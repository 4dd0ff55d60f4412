"""The subset-expansion determinant oracle against the Bareiss route and a
hand expansion over Laurent entries, and the tail-sum admissibility oracle
against interlacing of the occupations' partitions."""

import random
from fractions import Fraction as F

import pytest
from oracles import admissible, det_ring

from grothcrystal.errors import ParameterError
from grothcrystal.exactcore import LaurentPoly, Matrix
from grothcrystal.partitions import interlaces, partition_from_occupation
from grothcrystal.phasemodel import sector_basis


def test_det_ring_matches_bareiss_route():
    rng = random.Random(11)
    for n in range(1, 5):
        rows = [
            [F(rng.randrange(-6, 7), rng.randrange(1, 4)) for _ in range(n)]
            for _ in range(n)
        ]
        assert det_ring(rows) == Matrix(rows).det()


def test_det_ring_laurent_entries():
    z = LaurentPoly.var()
    rows = [[z, z ** 2], [1 + z, z ** -1]]
    want = z * z ** -1 - z ** 2 * (1 + z)
    assert det_ring(rows) == want


def test_admissible_is_interlacing_of_the_occupations():
    # tail sums differing by 0 or 1 at every site is interlacing of the
    # encoded partitions, on every phase-model pair of M <= 4 sites
    for m in range(1, 5):
        for n in range(0, 4):
            for up in sector_basis(m, n + 1):
                for lo in sector_basis(m, n):
                    want = interlaces(partition_from_occupation(up), partition_from_occupation(lo))
                    assert admissible(up, lo) == want
    with pytest.raises(ParameterError):
        admissible((1, 0), (1, 0))
    with pytest.raises(ParameterError):
        admissible((1, 0), (1, 0, 0))
