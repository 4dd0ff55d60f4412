"""Row-to-row path sums shared by the five-vertex, phase and six-vertex models.

All three share one vertex layout.  At a site holding n particles the
auxiliary line, empty (0) or carrying one particle (1), either stays empty,
picks a particle up, deposits its particle or passes through carrying it.  The
weights are a six-tuple w = (stay_empty, stay_occupied, pass_empty,
pass_occupied, deposit, pickup); a zero weight is an absent vertex.
`vertices` lists the moves, `site_operator` lays them out as a matrix, and
`_path_sum` chains them along a row.  A chain state is an occupation tuple,
site 0 first: the five-vertex chain is the phase model's with at most one
particle per site, so the two differ only in a site's capacity, and
`occupations` lists both sectors.

A `Model` writes its six weights once, as a weight table of integer
polynomials in the spectral parameter p of degree <= 2 over one denominator.
Every route reads them from it: at a rational p = a/b as integers over one
denominator (`Model.integer_weights`), the closed form's z(p) and prefactor as
integer pairs, and over any ring term by term (`Model.weights`).  Three loops
run on them.  `integer_chain`, the one chain, applies path sums one after
another on integer steps, each step's weights over one denominator, and
divides once, when the values are built: B, C and every amplitude go through
it.  `transfer_matrix` is the one ring-generic loop, A + D on `Model.weights`
over the ring of p; in this package only the float Bethe numerics call it.
`transfer_table` is the transfer matrix as integer coefficient tables, which
the generators and the commuting checks read: each truncated series through
q^D packed into one integer by the `exactcore` codec and kept mod q^(D+1)
(Kronecker substitution, a ring homomorphism of Z[q]/(q^(D+1))), the slot
set by a bound proven before the sums start and the coefficients decoded
once.

Everything else (B and C, the lattice, closed and self-checked amplitudes
with their duals, transfer matrices, the hopping generator and the
intertwining relation) is written once here.  The generator reads no vertex
weight: each model passes its hop amplitude and diagonal, so it stays
independent of the transfer matrix it is checked against.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple

from .errors import IdentityError, ParameterError, PoleError
from .exactcore import Matrix, _mask, _pack, _slot, _unpack, clear_denominators, embed_pair
from .grothendieck import _groth_core
from .partitions import _complement


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


def _site_rows(w, levels: int) -> list[list]:
    """The rows of `site_operator`."""
    if levels < 1:
        raise ParameterError("need levels >= 1")
    rows = [[w[0] * 0] * (2 * levels) for _ in range(2 * levels)]
    for a in (0, 1):
        for n in range(levels):
            for a2, n2, wt in vertices(a, n, w, levels - 1):
                rows[a2 * levels + n2][a * levels + n] = wt
    return rows


def site_operator(w, levels: int) -> Matrix:
    """The vertices as a matrix on (aux, site occupation < levels), row and
    column aux*levels + n; moves past the truncation are dropped."""
    return Matrix(_site_rows(w, levels))


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator > 0) of a rational, in lowest terms."""
    return (x if type(x) in (int, Fraction) else Fraction(x)).as_integer_ratio()


def _hom(rows, a: int, b: int) -> list[int]:
    """b^2 (c0 + c1 p + c2 p^2) at p = a/b for each row (c0, c1, c2)."""
    bb, ab, aa = b * b, a * b, a * a
    return [c0 * bb + c1 * ab + c2 * aa for c0, c1, c2 in rows]


def _reduced(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums / den over one positive denominator, divided by their common
    gcd; den != 0."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    return [x // g for x in nums], den // g


class Model(NamedTuple):
    """One lattice model.  A site holds at most `capacity` particles (None:
    unbounded).  `table(r, s)` is (rows, scale), the model's six weights at
    beta = r/s (s > 0): p * w_i * scale = c0 + c1 p + c2 p^2 for rows[i] =
    (c0, c1, c2), all integers; `variable` names p in pole messages.
    `sector(M, n)` lists the n-particle states of an M-site chain, so
    `sector(M, 0)[0]` is the empty chain; `configuration(M, config, ps,
    beta)` is the domain every amplitude route shares and returns the state of
    the configuration.  The closed form of the amplitude at a state is
    `prefactor(M, ps, beta)` times G_lam at z = `spectral_map(p, beta)`, with
    lam = `partition(state)`, complemented in a box `dual_width(M, n)` wide for
    the dual amplitude.  z(p) is pass_empty / stay_empty, and the prefactor of
    N parameters is e^(N(N-1)/2) times each one's stay_empty weight to the
    power M - 1, e the integer pair `exchange(r, s)`."""

    capacity: int | None
    table: Callable
    variable: str
    exchange: Callable
    sector: Callable
    partition: Callable
    configuration: Callable
    dual_width: Callable

    def _pole(self, what: str) -> PoleError:
        return PoleError(f"{self.variable} = 0 is a pole of the {what}")

    def table_at(self, beta) -> tuple[tuple, int]:
        """`table` at a rational beta."""
        return self.table(*_ratio(beta))

    def integer_weights(self, p, beta) -> tuple[list[int], int]:
        """(ints, den) with the six weights at the rational p ints[i] / den and
        den > 0 the lcm of their reduced denominators: at p = a/b the table
        reads b^2 (c0 + c1 p + c2 p^2) over a b scale, reduced by one gcd."""
        a, b = _ratio(p)
        rows, scale = self.table_at(beta)
        if not a:
            raise self._pole("site weights")
        return _reduced(_hom(rows, a, b), a * b * scale)

    def weights(self, p, beta) -> tuple:
        """The six weights over the ring of p, for `transfer_matrix`: floats,
        rationals (an int p too), Laurent polynomials or truncated series.
        Each is the ring's zero plus its nonzero terms (c0/scale) (1/p),
        c1/scale and (c2 p)/scale, in that order.  A float beta is r/s with s
        a power of 2, so at a float p the weights round as their written-out
        forms 1/v - beta*v and -u/beta - 1/u do."""
        rows, scale = self.table_at(beta)
        if p == 0:
            raise self._pole("site weights")
        inv, zero, out = Fraction(1) / p, p * 0, []
        for c0, c1, c2 in rows:
            w = zero
            if c0:
                w = w + Fraction(c0, scale) * inv
            if c1:
                w = w + Fraction(c1, scale)
            if c2:
                w = w + Fraction(c2) * p / scale
            out.append(w)
        return tuple(out)

    def spectral_pair(self, p, beta) -> tuple[int, int]:
        """z(p) = pass_empty / stay_empty as (num, den > 0) in lowest terms:
        the two polynomials at p = a/b, their common p * scale cancelled."""
        a, b = _ratio(p)
        rows, _ = self.table_at(beta)
        if not a:
            raise self._pole("spectral map")
        den, num = _hom((rows[0], rows[2]), a, b)
        if not den:
            raise PoleError(f"1/{self.variable}^2 = beta is a pole of the spectral map")
        (num,), den = _reduced([num], den)
        return num, den

    def spectral_map(self, p, beta) -> Fraction:
        """The variable z = z(p) of the closed form."""
        return Fraction(*self.spectral_pair(p, beta))

    def prefactor_pair(self, num_sites: int, ps, beta) -> tuple[int, int]:
        """The closed form's prefactor as (num, den), den > 0 unless a
        vanishing stay_empty weight is raised to a negative power."""
        r, s = _ratio(beta)
        rows, scale = self.table(r, s)
        n, e = len(ps), num_sites - 1
        num, den = (x ** (n * (n - 1) // 2) for x in self.exchange(r, s))
        for p in ps:
            a, b = _ratio(p)
            if not a:
                raise self._pole("site weights")
            (wn,), wd = _reduced(_hom(rows[:1], a, b), a * b * scale)
            if e < 0:
                wn, wd = wd, wn
            num, den = num * wn ** abs(e), den * wd ** abs(e)
        return (-num, -den) if den < 0 else (num, den)

    def prefactor(self, num_sites: int, ps, beta) -> Fraction:
        """The closed form's prefactor for the parameters ps."""
        return Fraction(*self.prefactor_pair(num_sites, ps, beta))


def site_matrix(model: Model, p, beta, levels: int) -> Matrix:
    """`site_operator` of the model's weights at the rational p."""
    w, den = model.integer_weights(p, beta)
    return Matrix.from_table(_site_rows(w, levels), den)


def integer_chain(capacity: int | None, num_sites: int, state, steps) -> tuple[dict, int]:
    """(sums, den): the rational amplitudes of `state` cleared over the lcm D
    of their denominators, then `steps`, (a_in, a_out, ints, den) each for the
    weights ints / den (one a site), applied in turn, the amplitude at s being
    sums[s] / den; den is D times each step's den^M, so the chain divides only
    when its values are built.  Only the starting states are checked against
    the chain: a path sum's output fits it by construction."""
    top = float("inf") if capacity is None else capacity
    if any(len(src) != num_sites or not all(0 <= n <= top for n in src) for src in state):
        raise ParameterError("the state does not fit the chain")
    amps, den = clear_denominators(state.values())
    sums = dict(zip(state, amps))
    for a_in, a_out, w, scale in steps:
        sums = _path_sum(capacity, num_sites, sums, a_in, a_out, w)
        den *= scale**num_sites
    return sums, den


def _path_sum(
    capacity: int | None, num_sites: int, state, a_in: int | None, a_out: int | None, w, mask: int | None = None
) -> dict:
    """Apply one auxiliary-space entry of the monodromy matrix to a weighted
    state: every path of the auxiliary line from a_in to a_out, site 0 first,
    reading and filling a move table: occupation -> the moves for aux 0 and
    aux 1, which depend only on the capacity and w.  With a_in = a_out = None
    it applies A + D: the paths start from both aux states and end in the
    one they started from, which is where the end state holds as many
    particles as the source.  From one source state the built prefix fixes
    the aux state, because particles are conserved, so each frontier key is
    reached by one path only.  Packed series pass their `mask`, which each
    output is reduced by.  The states must fit the chain; `integer_chain`
    checks them."""
    out: dict = {}
    table: dict = {}
    for src, amp in state.items():
        if not amp:
            continue
        frontier = {(0, ()): amp, (1, ()): amp} if a_in is None else {(a_in, ()): amp}
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
        particles = sum(src)
        for (a, built), c in frontier.items():
            if not (a == a_out if a_out is not None else sum(built) == particles):
                continue
            if built in out:
                out[built] = out[built] + c
            else:
                out[built] = c
    if mask is not None:
        return {s: r for s, c in out.items() if (r := c & mask)}
    return {s: c for s, c in out.items() if c}


def apply_b(model: Model, num_sites: int, p, beta, state) -> dict:
    """B(p) acting on a weighted state: adds one particle."""
    return _apply(model, num_sites, p, beta, state, 1, 0)


def apply_c(model: Model, num_sites: int, p, beta, state) -> dict:
    """C(p) acting on a weighted state: removes one particle."""
    return _apply(model, num_sites, p, beta, state, 0, 1)


def _apply(model: Model, num_sites: int, p, beta, state, a_in: int, a_out: int) -> dict:
    """The aux a_in -> a_out entry at p as a one-step chain on integers."""
    w, den = model.integer_weights(p, beta)
    sums, den = integer_chain(model.capacity, num_sites, state, [(a_in, a_out, w, den)])
    return {s: Fraction(c, den) for s, c in sums.items()}


def _transposed(w) -> tuple:
    """The weights of the vertices transposed on the site, aux label flipped:
    C(p) transposed is B(p) with them, and B(p) transposed is C(p)."""
    return (w[2], w[3], w[0], w[1], w[5], w[4])


def lattice_table(model: Model, num_sites: int, params, beta, dual=False) -> tuple[dict, int]:
    """The `integer_chain` (sums, den) of the whole sector: state ->
    <state| B(p_1)...B(p_N) |empty chain>, or for the dual state ->
    <empty chain| C(p_1)...C(p_N) |state> = <state| B~(p_N)...B~(p_1) |empty
    chain>, B~ being B with the `_transposed` weights."""
    ws = [model.integer_weights(p, beta) for p in (params if dual else reversed(params))]
    steps = [(1, 0, _transposed(w) if dual else w, den) for w, den in ws]
    start = {model.sector(num_sites, 0)[0]: 1}
    return integer_chain(model.capacity, num_sites, start, steps)


def lattice_amplitudes(model: Model, num_sites: int, params, beta, dual=False) -> dict:
    """Every nonzero amplitude of the sector, built from `lattice_table`."""
    sums, den = lattice_table(model, num_sites, params, beta, dual)
    return {s: Fraction(c, den) for s, c in sums.items()}


def lattice_amplitude(model: Model, num_sites: int, config, params, beta, dual=False):
    """One amplitude of `lattice_amplitudes`, from one chain down from the
    config's state to the empty chain: C(p_N) first for the dual, and C~(p_1)
    first for <config| B(p_1)...B(p_N) |empty chain> = <empty chain|
    C~(p_N)...C~(p_1) |config>, C~ being C with the `_transposed` weights."""
    state = {model.configuration(num_sites, config, params, beta): 1}
    ws = [model.integer_weights(p, beta) for p in (reversed(params) if dual else params)]
    steps = [(0, 1, w if dual else _transposed(w), den) for w, den in ws]
    sums, den = integer_chain(model.capacity, num_sites, state, steps)
    return Fraction(sums.get(model.sector(num_sites, 0)[0], 0), den)


def closed_table(model: Model, num_sites: int, states, params, beta, dual=False) -> tuple[list[int], int, int]:
    """(dets, num, den) with the closed amplitude at states[i] dets[i] * num /
    den: the prefactor's numerator, and its denominator times that of the
    Grothendieck table at z(p) of the states' partitions or, for the dual, of
    their box complements.  z(p) and the prefactor are integer pairs, and the
    states' partitions are partitions by construction, so the integer core of
    `groth_table` runs on them once `complement` has checked the box."""
    width = model.dual_width(num_sites, len(params))
    lams = [model.partition(state) for state in states]
    shapes = [_complement(lam, width) for lam in lams] if dual else lams
    zs = [model.spectral_pair(p, beta) for p in params]
    num, den = model.prefactor_pair(num_sites, params, beta)
    dets, groth_den = _groth_core(shapes, zs, *_ratio(beta))
    return dets, num, den * groth_den


def closed_amplitudes(model: Model, num_sites: int, states, params, beta, dual=False) -> list:
    """The same amplitudes in closed form, one per state, built from
    `closed_table`."""
    dets, num, den = closed_table(model, num_sites, states, params, beta, dual)
    return [Fraction(d * num, den) for d in dets]


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


def _transfer_sums(capacity: int | None, num_sites: int, basis, w, mask=None) -> list[list]:
    """A + D on the basis states as rows, over the ring of the weights: from
    each column's state one path sum through both aux states."""
    index = {s: i for i, s in enumerate(basis)}
    one, zero = w[0] ** 0, w[0] * 0
    rows = [[zero] * len(basis) for _ in basis]
    for col, s in enumerate(basis):
        for t, c in _path_sum(capacity, num_sites, {s: one}, None, None, w, mask).items():
            rows[index[t]][col] = c
    return rows


def transfer_table(model: Model, num_sites: int, num_particles: int, w, order: int) -> list[list[tuple[int, ...]]]:
    """A + D on the n-particle sector, in `model.sector` order, for six
    weights given as integer coefficient tuples in q: entry (t, s) is the
    coefficient tuple of q^0..q^order.  For the weight table's polynomials
    (order 2M keeps all of them) it is (p scale)^M T(p).  Each amplitude is
    one packed integer: from one state at most two moves leave each (aux,
    occupation) pair, so A + D adds at most 2 * 2^M products of M weights,
    and every coefficient is at most 2 (2W)^M, W the largest l1 norm of a
    weight."""
    basis = model.sector(num_sites, num_particles)
    top = max(sum(map(abs, c)) for c in w)
    slot = _slot(2 * (2 * top) ** num_sites)
    mask = _mask(slot, order + 1)
    packed = [_pack(c[: order + 1], slot) for c in w]
    sums = _transfer_sums(model.capacity, num_sites, basis, packed, mask=mask)
    zero = (0,) * (order + 1)
    return [[_unpack(x, slot, order + 1) if x else zero for x in row] for row in sums]


def transfer_matrix(model: Model, num_sites: int, num_particles: int, p, beta) -> list[list]:
    """A(p) + D(p) on the n-particle sector as rows over the ring of p, in
    `model.sector` order: the ring-generic loop on `Model.weights`."""
    basis = model.sector(num_sites, num_particles)
    w = model.weights(p, beta)
    return _transfer_sums(model.capacity, num_sites, basis, w)


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
