"""Row-to-row path sums shared by the five-vertex and phase models.

A model is a site transition table plus a codec for chain states.  The table
`transitions(a, n, w)` lists the vertices at one site as (aux_out, n_out,
weight), given the incoming auxiliary state a and site occupation n.  The
weight tuple w fixes the coefficient ring (Fraction, LaurentPoly or float)
and ends with that ring's one.  The codec says how a chain state is stored:
a bitmask for the five-vertex model, an occupation tuple for the phase model.
Everything else here (transfer matrices, operator chains, self-checks and
the intertwining relation) is written once on top of the path sum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import IdentityError
from .exactcore import Matrix, embed_pair


class Codec(NamedTuple):
    """A chain state is `empty` plus one `piece(site, n)` per site, site 0
    first; `occupations(state, num_sites)` reads the sites back."""

    empty: object
    occupations: Callable
    piece: Callable


BITMASK = Codec(
    0,
    lambda mask, num_sites: [(mask >> site) & 1 for site in range(num_sites)],
    lambda site, n: n << site,
)
TUPLE = Codec(
    (),
    lambda occ, num_sites: [occ[site] for site in range(num_sites)],
    lambda site, n: (n,),
)


class Model(NamedTuple):
    """A site transition table and the codec of the states it acts on."""

    transitions: Callable
    codec: Codec


def path_sum(model: Model, num_sites: int, state, a_in: int, a_out: int, w) -> dict:
    """Apply one auxiliary-space entry of the monodromy matrix to a weighted
    state: every path of the auxiliary line from a_in to a_out, site 0 first."""
    transitions, (empty, occupations, piece) = model
    out: dict = {}
    table: dict = {}  # (site, occupation) -> moves for aux 0 and aux 1
    for src, amp in state.items():
        if amp == 0:
            continue
        frontier = {(a_in, empty): amp}
        for site, n in enumerate(occupations(src, num_sites)):
            moves = table.get((site, n))
            if moves is None:
                moves = table[site, n] = [
                    [(a2, piece(site, n2), wt) for a2, n2, wt in transitions(a, n, w)]
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


def transfer_matrix(model: Model, num_sites: int, basis: list, w) -> Matrix:
    """A + D on the span of `basis`, over the ring of the weights w."""
    index = {s: i for i, s in enumerate(basis)}
    one = w[-1]
    rows = [[one * 0] * len(basis) for _ in basis]
    for col, s in enumerate(basis):
        for a in (0, 1):  # A, then D
            for t, c in path_sum(model, num_sites, {s: one}, a, a, w).items():
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
