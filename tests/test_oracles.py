"""The subset-expansion determinant oracle against the Bareiss route and a
hand expansion over Laurent entries."""

import random
from fractions import Fraction as F

from oracles import det_ring

from grothcrystal.exactcore import LaurentPoly, Matrix


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
