"""Reference implementations that tests compare the program against."""

import math
from fractions import Fraction
from typing import Sequence

from grothcrystal.exactcore import TruncatedSeries


def det_ring(rows: Sequence[Sequence]) -> object:
    """Division-free determinant for entries in any commutative ring.

    Dynamic programming over column subsets, so usable well beyond the n <= 3
    range where cofactor expansion stays cheap.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    states = {1 << c: rows[0][c] for c in range(n)}
    for i in range(1, n):
        nxt: dict[int, object] = {}
        row = rows[i]
        for mask, val in states.items():
            for c in range(n):
                bit = 1 << c
                if mask & bit:
                    continue
                term = val * row[c]
                if bin(mask >> (c + 1)).count("1") & 1:
                    term = -term
                key = mask | bit
                if key in nxt:
                    nxt[key] = nxt[key] + term
                else:
                    nxt[key] = term
        states = nxt
    return states[(1 << n) - 1]


def gen_binomial(e: int, m: int) -> Fraction:
    """Binomial coefficient C(e, m) for an integer e of either sign."""
    num = 1
    for i in range(m):
        num *= e - i
    return Fraction(num, math.factorial(m))


def binomial_qn_series(c, n: int, e: int, order: int) -> TruncatedSeries:
    """The expansion of (1 + c*q^n)^e, e of either sign, n >= 1, written out
    coefficient by coefficient."""
    if n < 1:
        raise ValueError("n must be positive")
    c = Fraction(c)
    out = [Fraction(0)] * (order + 1)
    m = 0
    while m * n <= order:
        out[m * n] = gen_binomial(e, m) * c**m
        m += 1
    return TruncatedSeries(out)
