"""Reference implementations that tests compare the program against."""

from typing import Sequence


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
