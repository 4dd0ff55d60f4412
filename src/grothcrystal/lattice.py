"""Row-to-row path sums shared by the five-vertex, phase and six-vertex models.

All three share one vertex layout.  At a site holding n particles the
auxiliary line, empty (0) or carrying one particle (1), either stays empty,
picks a particle up, deposits its particle or passes through carrying it.  The
weights are a six-tuple w = (stay_empty, stay_occupied, pass_empty,
pass_occupied, deposit, pickup) over a coefficient ring (Fraction,
LaurentPoly, TruncatedSeries or float); a zero weight is an absent vertex.
`vertices` lists the moves, `site_operator` lays them out as a matrix, and
`_path_sum` chains them along a row.  `integer_chain` applies path sums one
after another on integers: rational values cleared over the lcm of their
denominators, truncated series over theirs as integer coefficient tuples,
and one division at the end; Laurent polynomials and floats run the same
loop as they are.  A chain state is an occupation tuple,
site 0 first: the five-vertex chain is the phase model's with at most one
particle per site, so the two differ only in a site's capacity, and
`occupations` lists both sectors.

A `Model` bundles what the five-vertex and phase models do not share:
capacity, weights, sectors, the partition of a state, the domain check and
the closed form's prefactor, spectral map and dual box width.  Everything else
(B and C, the lattice, closed and self-checked amplitudes with their duals,
transfer matrices, the hopping generator and the intertwining relation) is
written once here.  The generator reads no vertex weight: each model passes
its hop amplitude and diagonal, so it stays independent of the transfer
matrix it is checked against.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple

from .errors import IdentityError, ParameterError
from .exactcore import Matrix, TruncatedSeries, _low_product, clear_denominators, embed_pair
from .grothendieck import groth_dets
from .partitions import complement


def occupations(num_sites: int, num_particles: int, capacity: int | None) -> list[tuple]:
    """The states of num_particles particles on num_sites sites holding at most
    `capacity` each (None: unbounded), site 0 first, in lexicographic order."""
    return list(_occupations(num_sites, num_particles, capacity))


@cache
def _occupations(num_sites: int, num_particles: int, capacity: int | None) -> tuple[tuple, ...]:
    if num_sites <= 0:
        return ((),) if num_sites == num_particles == 0 else ()
    top = num_particles if capacity is None else min(capacity, num_particles)
    return tuple(
        (first,) + rest
        for first in range(top + 1)
        for rest in _occupations(num_sites - 1, num_particles - first, capacity)
    )


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


class _Coeffs(tuple):
    """Integer series coefficients: * is the truncated product, + termwise."""

    __slots__ = ()

    def __mul__(self, other):
        return _Coeffs(_low_product(self, other))

    def __add__(self, other):
        return _Coeffs(map(operator.add, self, other))

    def __bool__(self) -> bool:
        return any(self)


def _clearing(values) -> tuple[Callable, Callable]:
    """(clear, build), clear(xs) = (forms, den) with xs[i] = build(forms[i],
    den): rationals clear to ints and truncated series (rationals lifted) to
    `_Coeffs`, over the lcm of their denominators; other rings stay, over 1."""
    kinds = {type(x) for x in values}
    if kinds <= {int, bool, Fraction}:
        return clear_denominators, Fraction
    if not kinds <= {int, bool, Fraction, TruncatedSeries}:
        return (lambda xs: (list(xs), 1)), (lambda x, den: x)
    like = next(x for x in values if type(x) is TruncatedSeries)

    def clear(xs):
        xs = [like._lift(x) for x in xs]  # another order raises ValueError
        den = math.lcm(*(x.den for x in xs))
        return [_Coeffs(n * (den // x.den) for n in x.nums) for x in xs], den

    return clear, lambda c, den: TruncatedSeries._raw(tuple(c), den)


def integer_chain(capacity: int | None, num_sites: int, state, steps) -> tuple[dict, int, Callable]:
    """(sums, den, build): `steps`, (a_in, a_out, w) each, applied in turn to
    a weighted state, the amplitude at s being build(sums[s], den).  den is
    the lcm D of the amplitudes' denominators times L^M for each step, L that
    of its weights (one a site): the chain divides only when built."""
    clear, build = _clearing([*state.values(), *(x for *_, w in steps for x in w)])
    amps, den = clear(state.values())
    state = dict(zip(state, amps))
    for a_in, a_out, w in steps:
        w, scale = clear(w)
        state = _path_sum(capacity, num_sites, state, a_in, a_out, w, {})
        den *= scale**num_sites
    return state, den, build


def _path_sum(
    capacity: int | None, num_sites: int, state, a_in: int, a_out: int, w, table: dict
) -> dict:
    """Apply one auxiliary-space entry of the monodromy matrix to a weighted
    state: every path of the auxiliary line from a_in to a_out, site 0 first,
    reading and filling `table`: occupation -> the moves for
    aux 0 and aux 1, which depend only on the capacity and w.  From one source
    state the built prefix fixes the aux state, because particles are
    conserved, so each frontier key is reached by one path only."""
    top = float("inf") if capacity is None else capacity
    if any(len(src) != num_sites or not all(0 <= n <= top for n in src) for src in state):
        raise ParameterError("the state does not fit the chain")
    out: dict = {}
    for src, amp in state.items():
        if not amp:
            continue
        frontier = {(a_in, ()): amp}
        for n in src:
            moves = table.get(n)
            if moves is None:
                moves = table[n] = [
                    [(a2, (n2,), wt) for a2, n2, wt in vertices(a, n, w, capacity)]
                    for a in (0, 1)
                ]
            nxt: dict = {}
            for (a, built), c in frontier.items():
                for a2, piece, wt in moves[a]:
                    nxt[a2, built + piece] = c * wt
            frontier = nxt
        for (a, built), c in frontier.items():
            if a != a_out:
                continue
            if built in out:
                out[built] = out[built] + c
            else:
                out[built] = c
    return {s: c for s, c in out.items() if c}


class Model(NamedTuple):
    """One lattice model.  A site holds at most `capacity` particles (None:
    unbounded); `weights(p, beta)` is its six-weight tuple over the ring of p;
    `sector(M, n)` lists the n-particle states of an M-site chain, so
    `sector(M, 0)[0]` is the empty chain; `configuration(M, config, ps,
    beta)` is the domain every amplitude route shares and returns the state of
    the configuration.  The closed form of the amplitude at a state is
    `prefactor(M, ps, beta)` times G_lam at z = `spectral_map(p, beta)`, with
    lam = `partition(state)`, complemented in a box `dual_width(M, n)` wide for
    the dual amplitude."""

    capacity: int | None
    weights: Callable
    sector: Callable
    partition: Callable
    configuration: Callable
    prefactor: Callable
    spectral_map: Callable
    dual_width: Callable


def apply_b(model: Model, num_sites: int, p, beta, state) -> dict:
    """B(p) acting on a weighted state: adds one particle."""
    return _apply(model, num_sites, p, beta, state, 1, 0)


def apply_c(model: Model, num_sites: int, p, beta, state) -> dict:
    """C(p) acting on a weighted state: removes one particle."""
    return _apply(model, num_sites, p, beta, state, 0, 1)


def _apply(model: Model, num_sites: int, p, beta, state, a_in: int, a_out: int) -> dict:
    """The aux a_in -> a_out entry at p as a one-step `integer_chain`."""
    w = model.weights(Fraction(p), Fraction(beta))
    sums, den, build = integer_chain(model.capacity, num_sites, state, [(a_in, a_out, w)])
    return {s: build(c, den) for s, c in sums.items()}


def _transposed(w) -> tuple:
    """The weights of the vertices transposed on the site, aux label flipped:
    C(p) transposed is B(p) with them, and B(p) transposed is C(p)."""
    return (w[2], w[3], w[0], w[1], w[5], w[4])


def lattice_amplitudes(model: Model, num_sites: int, params, beta, dual=False) -> dict:
    """Every nonzero amplitude of the sector from one chain: state ->
    <state| B(p_1)...B(p_N) |empty chain>, or for the dual state ->
    <empty chain| C(p_1)...C(p_N) |state> = <state| B~(p_N)...B~(p_1) |empty
    chain>, B~ being B with the `_transposed` weights."""
    ws = [model.weights(Fraction(p), Fraction(beta)) for p in (params if dual else reversed(params))]
    steps = [(1, 0, _transposed(w) if dual else w) for w in ws]
    sums, den, build = integer_chain(model.capacity, num_sites, {model.sector(num_sites, 0)[0]: 1}, steps)
    return {s: build(c, den) for s, c in sums.items()}


def lattice_amplitude(model: Model, num_sites: int, config, params, beta, dual=False):
    """One amplitude of `lattice_amplitudes`, from one chain down from the
    config's state to the empty chain: C(p_N) first for the dual, and C~(p_1)
    first for <config| B(p_1)...B(p_N) |empty chain> = <empty chain|
    C~(p_N)...C~(p_1) |config>, C~ being C with the `_transposed` weights."""
    state = {model.configuration(num_sites, config, params, beta): 1}
    ws = [model.weights(Fraction(p), Fraction(beta)) for p in (reversed(params) if dual else params)]
    steps = [(0, 1, w if dual else _transposed(w)) for w in ws]
    sums, den, build = integer_chain(model.capacity, num_sites, state, steps)
    return build(sums.get(model.sector(num_sites, 0)[0], 0), den)


def closed_amplitudes(model: Model, num_sites: int, states, params, beta, dual=False) -> list:
    """The same amplitudes in closed form, one per state: the prefactor times
    the determinant polynomial at z(p), of the partition of the state or, for
    the dual, of its box complement."""
    width = model.dual_width(num_sites, len(params))
    lams = [model.partition(state) for state in states]
    shapes = [complement(lam, width) for lam in lams] if dual else lams
    zs = [model.spectral_map(p, beta) for p in params]
    pref = model.prefactor(num_sites, params, beta)
    return [pref * g for g in groth_dets(shapes, zs, beta)]


def amplitude(model: Model, num_sites: int, config, params, beta, dual=False):
    """The lattice amplitude, after asserting that it equals the closed form."""
    value = lattice_amplitude(model, num_sites, config, params, beta, dual)
    state = model.configuration(num_sites, config, params, beta)
    (want,) = closed_amplitudes(model, num_sites, [state], params, beta, dual)
    if value != want:
        kind = "dual amplitude" if dual else "amplitude"
        raise IdentityError(
            f"lattice {kind} = {value} != closed {kind} = {want} at {tuple(config)}"
        )
    return value


def transfer_matrix(model: Model, num_sites: int, num_particles: int, p, beta) -> list[list]:
    """A(p) + D(p) on the n-particle sector as rows over the ring of p, in
    `model.sector` order: exact at a Fraction, Laurent polynomials at
    LaurentPoly.var(), truncated series at a TruncatedSeries, floats at a
    float.  Each entry is summed on the weights cleared as in `integer_chain`
    and built once."""
    basis = model.sector(num_sites, num_particles)
    index = {s: i for i, s in enumerate(basis)}
    w = model.weights(p, beta)
    zero = w[0] * 0
    rows = [[zero] * len(basis) for _ in basis]
    clear, build = _clearing(w)
    (one,), _ = clear([w[0] ** 0])
    w, scale = clear(w)
    table: dict = {}  # one move table for every column
    for col, s in enumerate(basis):
        entries = _path_sum(model.capacity, num_sites, {s: one}, 0, 0, w, table)  # A
        for t, c in _path_sum(model.capacity, num_sites, {s: one}, 1, 1, w, table).items():  # D
            entries[t] = entries[t] + c if t in entries else c
        for t, c in entries.items():
            rows[index[t]][col] = build(c, scale**num_sites)
    return rows


def hopping_generator(model: Model, num_sites: int, num_particles: int, hop, diagonal) -> Matrix:
    """The nearest-neighbour generator on the n-particle sector: on each bond
    (j, j+1 mod M), `hop` times creating a particle at j+1 if that site has
    room and then annihilating one at j if it is occupied, plus `diagonal(s)`
    on each state s.  On one site the bond joins site 0 to itself."""
    basis = model.sector(num_sites, num_particles)
    index = {s: i for i, s in enumerate(basis)}
    rows = [[Fraction(0)] * len(basis) for _ in basis]
    for col, s in enumerate(basis):
        rows[col][col] += diagonal(s)
        for j in range(num_sites):
            k = (j + 1) % num_sites
            if model.capacity is not None and s[k] >= model.capacity:
                continue
            t = list(s)
            t[k] += 1
            if t[j]:
                t[j] -= 1
                rows[index[tuple(t)]][col] += hop
    return Matrix(rows)


def rll_holds(l_u: Matrix, l_v: Matrix, r: Matrix, exact: int) -> bool:
    """The intertwining relation R(L_u x L_v) = (L_v x L_u)R on aux x aux x
    site, the two site operators sharing the site, compared on the columns
    whose site state is below `exact`: a site space truncated at cap drops the
    move that raises state cap, so its column cap is wrong.  The operators are
    rational; the sides x/dx and y/dy agree where x dy = y dx on their tables."""
    levels = l_u.rows // 2
    dims = (2, 2, levels)
    l_a = embed_pair(l_u, 0, 2, dims)
    l_b = embed_pair(l_v, 1, 2, dims)
    r_ab = embed_pair(r, 0, 1, dims)
    (x, dx), (y, dy) = (r_ab @ l_a @ l_b).table(), (l_b @ l_a @ r_ab).table()
    cols = [c for c in range(4 * levels) if c % levels < exact]
    return all(a[c] * dy == b[c] * dx for a, b in zip(x, y) for c in cols)
