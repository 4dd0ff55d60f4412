"""Row-to-row path sums shared by the five-vertex, phase and six-vertex models.

All three share one vertex layout.  At a site holding n particles the
auxiliary line, empty (0) or carrying one particle (1), either stays empty,
picks a particle up, deposits its particle or passes through carrying it.  A
model is a six-weight tuple w = (stay_empty, stay_occupied, pass_empty,
pass_occupied, deposit, pickup) over a coefficient ring (Fraction,
LaurentPoly or float); a zero weight is an absent vertex.  `vertices` lists
the moves, `site_operator` lays them out as a matrix, and `path_sum` chains
them along a row.  A codec says how a chain state is stored: a bitmask for
the five-vertex model, an occupation tuple for the phase model.  Everything
else here (transfer matrices, operator chains, self-checks and the
intertwining relation) is written once on top of these.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import IdentityError, ParameterError
from .exactcore import Matrix, embed_pair


def _bits(mask: int, num_sites: int) -> list[int]:
    if num_sites < 0 or mask < 0 or mask >> num_sites:
        raise ParameterError("the state does not fit the chain")
    return [(mask >> site) & 1 for site in range(num_sites)]


def _counts(occ: tuple, num_sites: int) -> tuple:
    if len(occ) != num_sites or any(n < 0 for n in occ):
        raise ParameterError("the state does not fit the chain")
    return occ


class Codec(NamedTuple):
    """A chain state is `empty` plus one `piece(site, n)` per site, site 0
    first; `occupations(state, num_sites)` reads the sites back and refuses a
    state that does not fit the chain.  A site holds at most `capacity`
    particles (None: unbounded)."""

    empty: object
    occupations: Callable
    piece: Callable
    capacity: int | None


BITMASK = Codec(0, _bits, lambda site, n: n << site, 1)
TUPLE = Codec((), _counts, lambda site, n: (n,), None)


def vertices(a: int, n: int, w, capacity: int | None) -> list:
    """The moves (aux_out, n_out, weight) at a site holding n particles, for
    incoming auxiliary state a: stay before pickup, deposit before pass."""
    stay_empty, stay_occupied, pass_empty, pass_occupied, deposit, pickup = w
    if a == 0:
        moves = [(0, n, stay_occupied if n else stay_empty)]
        if n:
            moves.append((1, n - 1, pickup))
    else:
        moves = [(0, n + 1, deposit)] if capacity is None or n < capacity else []
        moves.append((1, n, pass_occupied if n else pass_empty))
    return [move for move in moves if move[2]]


def site_operator(w, levels: int) -> Matrix:
    """The vertices as a matrix on (aux, site occupation < levels), row and
    column aux*levels + n; moves past the truncation are dropped."""
    if levels < 1:
        raise ParameterError("need levels >= 1")
    rows = [[w[0] * 0] * (2 * levels) for _ in range(2 * levels)]
    for a in (0, 1):
        for n in range(levels):
            for a2, n2, wt in vertices(a, n, w, levels - 1):
                rows[a2 * levels + n2][a * levels + n] = wt
    return Matrix(rows)


def path_sum(codec: Codec, num_sites: int, state, a_in: int, a_out: int, w) -> dict:
    """Apply one auxiliary-space entry of the monodromy matrix to a weighted
    state: every path of the auxiliary line from a_in to a_out, site 0 first."""
    return _path_sum(codec, num_sites, state, a_in, a_out, w, {})


def _path_sum(codec: Codec, num_sites: int, state, a_in: int, a_out: int, w, table: dict) -> dict:
    """`path_sum`, reading and filling `table`: (site, occupation) -> the
    moves for aux 0 and aux 1, which depend only on the codec and w."""
    empty, occupations, piece, capacity = codec
    out: dict = {}
    for src, amp in state.items():
        if amp == 0:
            continue
        frontier = {(a_in, empty): amp}
        for site, n in enumerate(occupations(src, num_sites)):
            moves = table.get((site, n))
            if moves is None:
                moves = table[site, n] = [
                    [(a2, piece(site, n2), wt) for a2, n2, wt in vertices(a, n, w, capacity)]
                    for a in (0, 1)
                ]
            nxt: dict = {}
            for (a, built), c in frontier.items():
                for a2, bit, wt in moves[a]:
                    key = (a2, built + bit)
                    v = c * wt
                    if key in nxt:
                        nxt[key] = nxt[key] + v
                    else:
                        nxt[key] = v
            frontier = nxt
        for (a, built), c in frontier.items():
            if a != a_out:
                continue
            if built in out:
                out[built] = out[built] + c
            else:
                out[built] = c
    return {s: c for s, c in out.items() if not c == 0}


def transfer_matrix(codec: Codec, num_sites: int, basis: list, w) -> Matrix:
    """A + D on the span of `basis`, over the ring of the weights w."""
    index = {s: i for i, s in enumerate(basis)}
    one = w[0] ** 0
    rows = [[one * 0] * len(basis) for _ in basis]
    table: dict = {}  # one move table for every column
    for col, s in enumerate(basis):
        for a in (0, 1):  # A, then D
            for t, c in _path_sum(codec, num_sites, {s: one}, a, a, w, table).items():
                rows[index[t]][col] += c
    return Matrix(rows)


def chain(apply: Callable, num_sites: int, params, beta: Fraction, start) -> dict:
    """X(p_1)...X(p_N)|start> as a weighted state; X(p_N) acts first.

    `apply(num_sites, p, beta, state)` is one operator of the chain, such as
    a five-vertex B(u) or a phase-model C(v).
    """
    state = {start: Fraction(1)}
    for p in reversed(params):
        state = apply(num_sites, p, beta, state)
    return state


def checked(
    lattice_route: Callable, closed_route: Callable, num_sites: int, config, params, beta
):
    """The lattice amplitude, after asserting that it equals the closed form."""
    value = lattice_route(num_sites, config, params, beta)
    want = closed_route(num_sites, config, params, beta)
    if value != want:
        raise IdentityError(
            f"{lattice_route.__name__} = {value} != {closed_route.__name__} = {want} "
            f"at {tuple(config)}"
        )
    return value


def rll_sides(l_u: Matrix, l_v: Matrix, r: Matrix) -> tuple[Matrix, Matrix]:
    """Both sides R(L_u x L_v) and (L_v x L_u)R of the intertwining relation on
    aux x aux x site, with the two site operators sharing the site."""
    dims = (2, 2, l_u.rows // 2)
    l_a = embed_pair(l_u, 0, 2, dims)
    l_b = embed_pair(l_v, 1, 2, dims)
    r_ab = embed_pair(r, 0, 1, dims)
    return r_ab @ l_a @ l_b, l_b @ l_a @ r_ab
