"""Reference implementations that tests compare the program against."""

import inspect
import math
import textwrap
from fractions import Fraction
from typing import Iterator, Sequence

from grothcrystal import fivevertex, grothendieck, lattice, suites
from grothcrystal.errors import (
    DegeneratePointError,
    OutOfBoxError,
    ParameterError,
    PoleError,
    PrecisionError,
)
from grothcrystal.exactcore import LaurentPoly, Matrix, TruncatedSeries, rational_sqrt
from grothcrystal.partitions import (
    check_box,
    check_partition,
    complement,
    enumerate_boxed,
    partitions_in_box,
    pp_size,
)


def outcome(route, *args):
    """What a route returns, or the type and message of what it raises."""
    try:
        return "value", route(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


def mutant(route, old: str, new: str):
    """route recompiled from its source with `old` replaced, once, by `new`."""
    source = textwrap.dedent(inspect.getsource(route))
    assert source.count(old) == 1
    namespace = dict(vars(inspect.getmodule(route)))
    exec(compile(source.replace(old, new), inspect.getsourcefile(route), "exec"), namespace)
    return namespace[route.__name__]


def vandermonde(xs: Sequence) -> object:
    """prod_{j<k} (x_j - x_k); the reversed list gives prod_{j<k} (x_k - x_j)."""
    out = Fraction(1)
    for j, x in enumerate(xs):
        for y in xs[j + 1 :]:
            out = out * (x - y)
    return out


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


def groth_det_fraction(lam: Sequence[int], zs: Sequence, beta) -> Fraction:
    """G_lam as the determinant of the Fraction matrix
    z_i^(lam_k + N-1-k) (1 + beta z_i)^k over the Vandermonde, each entry a
    Fraction power, with the same checks in the same order as `groth_det`."""
    lam = check_partition(lam)
    zs = [Fraction(z) for z in zs]
    beta = Fraction(beta)
    n = len(zs)
    if len(lam) != n:
        raise ParameterError("need exactly one part (possibly zero) per variable")
    if len(set(zs)) != n:
        raise DegeneratePointError("variables must be pairwise distinct")
    rows = [[z ** (lam[k] + n - 1 - k) * (1 + beta * z) ** k for k in range(n)] for z in zs]
    return Matrix(rows).det() / vandermonde(zs)


def _require_width(width: int):
    if width < 0:
        raise ParameterError("box width must be nonnegative")


def cauchy_lhs_fraction(width: int, zs: Sequence, ws: Sequence, beta) -> Fraction:
    """The sum of G_lam(z) G_{lam complement}(w) over the box, one
    `groth_det_fraction` per shape and side, with the checks of
    `grothendieck.cauchy_lhs` in the same order."""
    _require_width(width)
    n = len(zs)
    if len(ws) != n:
        raise ParameterError("need as many w variables as z variables")
    shapes = list(partitions_in_box(width, n))
    gz = [groth_det_fraction(lam, zs, beta) for lam in shapes]
    gw = [groth_det_fraction(complement(lam, width), ws, beta) for lam in shapes]
    return sum((a * b for a, b in zip(gz, gw)), Fraction(0))


def summation_lhs_fraction(width: int, zs: Sequence, beta) -> Fraction:
    """The sum of (-beta)^|lam| G_lam(z) over the box, one
    `groth_det_fraction` per shape, with the checks of
    `grothendieck.summation_lhs` in the same order."""
    _require_width(width)
    beta = Fraction(beta)
    shapes = list(partitions_in_box(width, len(zs)))
    return sum(((-beta) ** sum(lam) * groth_det_fraction(lam, zs, beta) for lam in shapes), Fraction(0))


def cauchy_rhs_fraction(width: int, zs: Sequence, ws: Sequence, beta) -> Fraction:
    """The closed side of the dual-pairing identity with a Fraction per
    entry, per power and per Vandermonde factor, which
    `grothendieck.cauchy_rhs` replaces."""
    _require_width(width)
    zs = [Fraction(z) for z in zs]
    ws = [Fraction(w) for w in ws]
    beta = Fraction(beta)
    n = len(zs)
    if len(ws) != n:
        raise ParameterError("need as many w variables as z variables")
    if len(set(zs)) != n:
        raise DegeneratePointError("z variables must be pairwise distinct")
    if len(set(ws)) != n:
        raise DegeneratePointError("w variables must be pairwise distinct")
    for z in zs:
        if z in ws:
            raise PoleError("z and w variables must avoid each other")
    e = width + n
    rows = []
    for z in zs:
        bz = (1 + beta * z) ** (n - 1)
        row = []
        for w in ws:
            bw = (1 + beta * w) ** (n - 1)
            row.append((z**e * bw - w**e * bz) / (z - w))
        rows.append(row)
    pref = vandermonde(zs) * vandermonde(ws[::-1])
    return Matrix(rows).det() / pref


def summation_rhs_fraction(width: int, zs: Sequence, beta) -> Fraction:
    """The closed side of the weighted box summation with a Fraction per
    entry and per power, which `grothendieck.summation_rhs` replaces."""
    _require_width(width)
    zs = [Fraction(z) for z in zs]
    beta = Fraction(beta)
    if beta == 0:
        raise ParameterError(
            "the closed summation needs beta != 0; sum directly in the beta = 0 limit"
        )
    n = len(zs)
    if n == 0:
        return Fraction(1)
    if len(set(zs)) != n:
        raise DegeneratePointError("variables must be pairwise distinct")
    e = width + n
    rows = []
    for j in range(1, n):
        mb = (-beta) ** (j - n)
        row = []
        for z in zs:
            w = 1 + beta * z
            acc = Fraction(0)
            for m in range(j):
                acc += (-1) ** m * math.comb(e, m) * w ** (m - j + n - 1)
            row.append(mb * acc)
        rows.append(row)
    last = []
    for z in zs:
        w = 1 + beta * z
        acc = Fraction(0)
        for m in range(max(n - 1, 1), e + 1):
            acc += (-1) ** m * math.comb(e, m) * w ** (m - 1)
        last.append(-acc)
    rows.append(last)
    return Matrix(rows).det() / vandermonde(zs[::-1])


def sector_agrees_fraction(model, num_sites: int, params, beta, dual: bool) -> bool:
    """The wavefunction sector check with a Fraction per state: the lattice
    amplitudes built one by one against the prefactor times one
    `groth_det_fraction` per state, which the suites' cross-multiplied
    integer tables replace."""
    states = model.sector(num_sites, len(params))
    amps = lattice.lattice_amplitudes(model, num_sites, params, beta, dual)
    width = model.dual_width(num_sites, len(params))
    lams = [model.partition(state) for state in states]
    shapes = [complement(lam, width) for lam in lams] if dual else lams
    zs = [model.spectral_map(p, beta) for p in params]
    pref = model.prefactor(num_sites, params, beta)
    if len(set(zs)) != len(zs):  # refused also where the sector is empty
        raise DegeneratePointError("variables must be pairwise distinct")
    closed = [pref * groth_det_fraction(lam, zs, beta) for lam in shapes]
    return all(amps.get(s, Fraction(0)) == v for s, v in zip(states, closed, strict=True))


def closed_amplitudes_checked(model, num_sites: int, states, params, beta, dual: bool) -> list[Fraction]:
    """`lattice.closed_amplitudes` through the public routes that check every
    shape: `complement` in the box, then `grothendieck.groth_table`."""
    width = model.dual_width(num_sites, len(params))
    lams = [model.partition(state) for state in states]
    shapes = [complement(lam, width) for lam in lams] if dual else lams
    zs = [model.spectral_map(p, beta) for p in params]
    pref = model.prefactor(num_sites, params, beta)
    dets, den = grothendieck.groth_table(shapes, zs, beta)
    return [pref * Fraction(d, den) for d in dets]


def generic_rationals_sum(rng, count: int, start: int = 0) -> list[Fraction]:
    """`suites.generic_rationals` as the sum of a prime and a proper fraction,
    two Fractions a draw, from the same draws of rng."""
    if start + count > len(suites._PRIMES):
        raise ParameterError("prime palette exhausted")
    out = []
    for i in range(count):
        num = rng.randrange(1, 7)
        den = rng.randrange(num + 6, num + 13)
        out.append(Fraction(suites._PRIMES[start + i]) + Fraction(num, den))
    return out


def fv_weights(u, beta):
    """The five-vertex weights written out over the ring of u (a Fraction,
    float, TruncatedSeries or LaurentPoly.var()): the reference for the
    weight table `fivevertex._table`, as `lattice.Model` reads it."""
    beta = Fraction(beta)
    if beta == 0:
        raise ParameterError("the five-vertex weights need beta != 0")
    if u == 0:
        raise PoleError("u = 0 is a pole of the site weights")
    return (u, 0 * u, -u / beta - 1 / u, -u / beta, u**0, u**0)


def pm_weights(v, beta):
    """The phase-model weights written out over the ring of v: the reference
    for `phasemodel._table`."""
    if v == 0:
        raise PoleError("v = 0 is a pole of the site weights")
    return (1 / v - beta * v, 1 / v, v, v, v**0, v**0)


def fraction_weights(model, p, beta):
    """The reference weights of `model` (one of the two models) at p."""
    if model.capacity == 1:
        return fv_weights(p, Fraction(beta))
    return pm_weights(p, Fraction(beta))


def fv_spectral_map(u, beta) -> Fraction:
    """z = -1/beta - 1/u^2, the reference for the five-vertex
    `Model.spectral_pair`."""
    u, beta = Fraction(u), Fraction(beta)
    if beta == 0:
        raise ParameterError("the five-vertex weights need beta != 0")
    if u == 0:
        raise PoleError("u = 0 is a pole of the spectral map")
    return -1 / beta - u**-2


def pm_spectral_map(v, beta) -> Fraction:
    """z = 1/(1/v^2 - beta), the reference for the phase model's
    `Model.spectral_pair`."""
    v = Fraction(v)
    if v == 0:
        raise PoleError("v = 0 is a pole of the spectral map")
    den = v**-2 - Fraction(beta)
    if den == 0:
        raise PoleError("1/v^2 = beta is a pole of the spectral map")
    return 1 / den


def fv_prefactor(num_sites: int, us, beta) -> Fraction:
    """(-1/beta)^(N(N-1)/2) prod u^(M-1), the reference for the five-vertex
    `Model.prefactor_pair`."""
    beta = Fraction(beta)
    if beta == 0:
        raise ParameterError("the five-vertex weights need beta != 0")
    n = len(us)
    pref = (-1 / beta) ** (n * (n - 1) // 2)
    for u in us:
        pref *= Fraction(u) ** (num_sites - 1)
    return pref


def pm_prefactor(num_sites: int, vs, beta) -> Fraction:
    """prod (1/v - beta*v)^(M-1), the reference for the phase model's
    `Model.prefactor_pair`."""
    pref = Fraction(1)
    for v in map(Fraction, vs):
        pref *= (1 / v - Fraction(beta) * v) ** (num_sites - 1)
    return pref


def chain(apply, model, num_sites: int, params, beta, state: dict) -> dict:
    """X(p_1)...X(p_N) acting on a weighted state, X = `lattice.apply_b` or
    `lattice.apply_c`, X(p_N) first: one operator at a time, the per-state
    route that the sector tables and the one-state lookups replace."""
    for p in reversed(params):
        state = apply(model, num_sites, p, beta, state)
    return state


def path_sum_chain(capacity, num_sites: int, state: dict, steps) -> dict:
    """The ring-generic `lattice._path_sum` one (a_in, a_out, weights) step
    at a time, on the values as given, over any ring: the chain that divides
    after every operator.  At rational weights `lattice.integer_chain`, the
    one chain in the package, replaces it on integer steps; over other rings
    (Laurent polynomials, series) it is the tests' chain, the package's one
    ring-generic loop being `lattice.transfer_matrix`."""
    for a_in, a_out, w in steps:
        state = lattice._path_sum(capacity, num_sites, state, a_in, a_out, w)
    return state


def hamiltonian_extraction_series(num_sites: int, num_particles: int, beta) -> tuple:
    """f(u0) and (u0/2) f'(u0) for the five-vertex f(u) = u^-M T(u) at
    u0 = sqrt(-beta): T(u0 + e) over Q[e]/(e^2) times the series u^-M entry by
    entry, each coefficient matrix read one entry at a time."""
    u0 = rational_sqrt(-Fraction(beta))
    u = u0 + TruncatedSeries.indeterminate(1)
    t = lattice.transfer_matrix(fivevertex.MODEL, num_sites, num_particles, u, beta)
    scale = u**-num_sites
    f = [[p * scale for p in row] for row in t]
    f0, f1 = (Matrix([[p.coeff(e) for p in row] for row in f]) for e in (0, 1))
    return f0, f1.scale(u0 / 2)


def closed_amplitude(model, num_sites: int, config, params, beta, dual=False) -> Fraction:
    """`lattice.closed_amplitudes` at the state of one config, after the same
    domain check as the lattice route."""
    state = model.configuration(num_sites, config, params, beta)
    return lattice.closed_amplitudes(model, num_sites, [state], params, beta, dual)[0]


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


def interlacing_below(mu: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """All lam with len(lam) = len(mu) - 1 and mu interlacing lam, chosen part
    by part, each capped by mu_j and by the part chosen before."""
    mu = check_partition(mu)
    if not mu:
        raise ParameterError("empty partition has nothing below")

    def rec(j: int, acc: list[int]) -> Iterator[tuple[int, ...]]:
        if j == len(mu) - 1:
            yield tuple(acc)
            return
        hi = mu[j] if j == 0 else min(mu[j], acc[-1])
        for v in range(mu[j + 1], hi + 1):
            acc.append(v)
            yield from rec(j + 1, acc)
            acc.pop()

    yield from rec(0, [])


def part(lam: Sequence[int], j: int) -> int:
    """The j-th part (1-based), zero beyond the length."""
    return lam[j - 1] if 1 <= j <= len(lam) else 0


def interlaces(mu: Sequence[int], lam: Sequence[int]) -> bool:
    """Whether mu >= lam >= mu shifted by one, read part by part with zero
    padding up to max(len(mu), len(lam) + 1)."""
    mu = check_partition(mu)
    lam = check_partition(lam)
    n = max(len(mu), len(lam) + 1)
    for j in range(1, n + 1):
        if not (part(mu, j) >= part(lam, j) >= part(mu, j + 1)):
            return False
    return True


def skew_single(mu: Sequence[int], lam: Sequence[int], z, beta) -> Fraction:
    """One-variable skew factor z^(|mu| - |lam|) times one 1 + beta*z per j
    with mu_(j+1) != lam_j, multiplied in one at a time, after the same checks
    in the same order as `grothendieck.skew_single`."""
    mu = check_partition(mu)
    lam = check_partition(lam)
    if len(mu) != len(lam) + 1:
        raise ParameterError("mu must have exactly one part more than lam")
    z = Fraction(z)
    beta = Fraction(beta)
    if not interlaces(mu, lam):
        return Fraction(0)
    val = z ** (sum(mu) - sum(lam))
    bz = beta * z
    for j in range(1, len(lam) + 1):
        if part(mu, j + 1) != part(lam, j):
            val *= 1 + bz
    return val


def skew_multi_recursive(lam: Sequence[int], nu: Sequence[int], zs: Sequence, beta) -> Fraction:
    """Multivariable skew polynomial as a chain sum from lam down to nu,
    recursing over every interlacing chain in Fraction arithmetic, after the
    same checks in the same order as `grothendieck.skew_multi`."""
    lam = check_partition(lam)
    nu = check_partition(nu)
    zs = [Fraction(z) for z in zs]
    if len(lam) != len(nu) + len(zs):
        raise ParameterError("lengths must satisfy len(lam) = len(nu) + #variables")
    if not zs:
        return Fraction(1) if lam == nu else Fraction(0)
    total = Fraction(0)
    for kappa in interlacing_below(lam):
        s = skew_single(lam, kappa, zs[0], beta)
        if s:
            total += s * skew_multi_recursive(kappa, nu, zs[1:], beta)
    return total


def admissible(m: Sequence[int], n: Sequence[int]) -> bool:
    """Whether the tail sums of m exceed those of n by 0 or 1 at every site."""
    if len(m) != len(n):
        raise ParameterError("configurations live on different chains")
    if sum(m) != sum(n) + 1:
        raise ParameterError("particle numbers must differ by exactly one")
    tail_m = 0
    tail_n = 0
    for k in range(len(m) - 1, -1, -1):
        tail_m += m[k]
        tail_n += n[k]
        if not 0 <= tail_m - tail_n <= 1:
            return False
    return True


def skew_pairs(model, num_sites: int, n_max: int, p, beta) -> Iterator[tuple]:
    """(n, lower, upper, <upper|B(p)|lower>) over every pair of an n-particle
    lower state and an (n + 1)-particle upper one, n <= n_max, zero
    amplitudes included; one B image per lower."""
    for n in range(n_max + 1):
        uppers = model.sector(num_sites, n + 1)
        for lower in model.sector(num_sites, n):
            image = lattice.apply_b(model, num_sites, p, beta, {lower: Fraction(1)})
            for upper in uppers:
                yield n, lower, upper, image.get(upper, Fraction(0))


def skew_element_pairwise(model, num_sites: int, n_max: int, p, beta) -> bool:
    """norm(n) <upper|B(p)|lower> equals `grothendieck.skew_single` of the two
    states' partitions at z(p), pair by pair, norm(n) the prefactor of n
    parameters over that of n + 1."""
    z = model.spectral_map(p, beta)

    def norm(n):
        return model.prefactor(num_sites, [p] * n, beta) / model.prefactor(num_sites, [p] * (n + 1), beta)

    return all(
        norm(n) * amp == grothendieck.skew_single(model.partition(upper), model.partition(lower), z, beta)
        for n, lower, upper, amp in skew_pairs(model, num_sites, n_max, p, beta)
    )


def skew_support_pairwise(model, num_sites: int, n_max: int, p, beta) -> bool:
    """<upper|B(p)|lower> is nonzero exactly when the two occupations are
    `admissible`, pair by pair (phase-model states)."""
    return all(
        admissible(upper, lower) == (amp != 0)
        for _, lower, upper, amp in skew_pairs(model, num_sites, n_max, p, beta)
    )


def skew_rotation_pairwise(num_sites: int, n_max: int, u, beta) -> bool:
    """<y|B(u)|x> equals <x reversed|C(u)|y reversed> on the five-vertex
    chain, pair by pair."""
    model = fivevertex.MODEL
    return all(
        lattice.apply_c(model, num_sites, u, beta, {y[::-1]: Fraction(1)}).get(x[::-1], Fraction(0)) == amp
        for _, x, y, amp in skew_pairs(model, num_sites, n_max, u, beta)
    )


def reversed_positions(x: Sequence[int], chain_length: int) -> tuple[int, ...]:
    """The 1-based positions after a 180-degree rotation of the chain."""
    x = tuple(x)
    if x and (x[0] < 1 or x[-1] > chain_length):
        raise OutOfBoxError("positions outside the chain")
    return tuple(chain_length - v + 1 for v in reversed(x))


def matmul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """The product of two matrices given as rows over any ring, row by column
    with no denominator cleared: the first product fixes the entry type, zero
    products add nothing."""
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    cols = tuple(zip(*b))
    out = []
    for row in a:
        rest = [(k, x) for k, x in enumerate(row) if k and x]
        new_row = []
        for col in cols:
            acc = row[0] * col[0]
            for k, x in rest:
                y = col[k]
                if y:
                    acc = acc + x * y
            new_row.append(acc)
        out.append(new_row)
    return out


def evaluate(p: LaurentPoly, a) -> Fraction:
    """The Laurent polynomial p at a nonzero rational a (zero allowed when p
    has no negative exponents)."""
    a = Fraction(a)
    return sum((c * a**e for e, c in p.coeffs.items()), Fraction(0))


def transfer_commute_pointwise(t_sym: list[list], m: int) -> bool:
    """T(u), rows of Laurent polynomials, commutes with T(v0) at the 2m+1
    points v0 = 2 + i/(2m+2), by the products over the Laurent polynomials."""
    for i in range(2 * m + 1):
        v0 = Fraction(2) + Fraction(i, 2 * m + 2)
        t_num = [[evaluate(p, v0) for p in row] for row in t_sym]
        if matmul(t_sym, t_num) != matmul(t_num, t_sym):
            return False
    return True


def embed_pair(op: Matrix, pos1: int, pos2: int, dims: Sequence[int]) -> Matrix:
    """Embed an operator on tensor factors pos1 < pos2 into the full product,
    entry by entry over big-endian digit expansions of both indices."""
    if not 0 <= pos1 < pos2 < len(dims):
        raise ValueError("bad positions")
    d1, d2 = dims[pos1], dims[pos2]
    if op.rows != d1 * d2 or op.cols != d1 * d2:
        raise ValueError("operator size does not match the chosen factors")
    total = math.prod(dims)

    def digits(idx: int) -> list[int]:
        out = [0] * len(dims)
        for k in range(len(dims) - 1, -1, -1):
            out[k] = idx % dims[k]
            idx //= dims[k]
        return out

    out_rows = []
    for r in range(total):
        dr = digits(r)
        row = []
        for c in range(total):
            dc = digits(c)
            same = all(dr[k] == dc[k] for k in range(len(dims)) if k not in (pos1, pos2))
            if same:
                row.append(op.entry(dr[pos1] * d2 + dr[pos2], dc[pos1] * d2 + dc[pos2]))
            else:
                row.append(Fraction(0))
        out_rows.append(row)
    return Matrix(out_rows)


def monodromy_blocks(l_op: Matrix, levels: int, num_sites: int) -> dict:
    """The monodromy matrix as a product of site operators, each embedded by
    `embed_pair` above on aux x site 0 x ... x site M-1, site 0 acting first
    and most significant, multiplied by `matmul` so that no integer-lifted
    product checks another: {(a_out, a_in): rows of the aux block}, row and
    column the big-endian index of the chain state."""
    dims = [2] + [levels] * num_sites
    size = math.prod(dims)
    total = [[Fraction(int(r == c)) for c in range(size)] for r in range(size)]
    for j in range(num_sites):
        total = matmul(embed_pair(l_op, 0, j + 1, dims).data, total)
    half = size // 2
    return {
        (a_out, a_in): [
            row[a_in * half : (a_in + 1) * half] for row in total[a_out * half : (a_out + 1) * half]
        ]
        for a_out in (0, 1)
        for a_in in (0, 1)
    }


def l_matrix(u, beta) -> Matrix:
    """Five-vertex site operator on (aux, site), basis |00>, |01>, |10>, |11>,
    written out entry by entry."""
    u = Fraction(u)
    beta = Fraction(beta)
    zero = Fraction(0)
    one = Fraction(1)
    return Matrix(
        [
            [u, zero, zero, zero],
            [zero, zero, one, zero],
            [zero, one, -u / beta - 1 / u, zero],
            [zero, zero, zero, -u / beta],
        ]
    )


def l_matrix_phase(v, beta, cap: int) -> Matrix:
    """Phase-model site operator on (aux, Fock<=cap): the blocks
    [[1/v - beta*v*P0, raise], [lower, v]], row and column aux*(cap+1) + n."""
    v = Fraction(v)
    beta = Fraction(beta)
    dim = cap + 1
    rows = [[Fraction(0)] * (2 * dim) for _ in range(2 * dim)]
    for n in range(dim):
        rows[n][n] = 1 / v - beta * v if n == 0 else 1 / v
        rows[dim + n][dim + n] = v
        if n < cap:
            rows[n + 1][dim + n] = Fraction(1)  # raise: |n> -> |n+1>
            rows[dim + n][n + 1] = Fraction(1)  # lower: |n+1> -> |n>
    return Matrix(rows)


def l_six(u, p) -> Matrix:
    """Six-vertex site operator on (aux, site), basis |00>, |01>, |10>, |11>."""
    u = Fraction(u)
    zero = Fraction(0)
    ui = 1 / u
    one_t = 1 - p.t
    return Matrix(
        [
            [p.a3 * u + p.a4 * ui, zero, zero, zero],
            [zero, p.a3 * p.t * u + p.a4 * ui, one_t * p.a1, zero],
            [zero, one_t * p.a2, p.a5 * u + p.a6 * ui, zero],
            [zero, zero, zero, p.a5 * u + p.a6 * p.t * ui],
        ]
    )


def hamiltonian_bitmask(num_sites: int, beta) -> Matrix:
    """The five-vertex generator on the full 2^M space, whose basis index has
    bit j set when site j (from 0) is occupied:
    H = sum_j { -(1/beta) sigma_j^+ sigma_{j+1}^- + (sigma_j^z sigma_{j+1}^z - 1)/4 }
    with periodic wrap, the hop moving a particle from site j to site j+1.  On
    one site the wrap bond joins site 0 to itself and its hop is -(1/beta)
    times the empty projector."""
    dim = 1 << num_sites
    h = [[Fraction(0)] * dim for _ in range(dim)]
    hop = -1 / Fraction(beta)
    for s in range(dim):
        diag = Fraction(0)
        for j in range(num_sites):
            k = (j + 1) % num_sites
            bj = (s >> j) & 1
            bk = (s >> k) & 1
            if bj != bk:
                diag -= Fraction(1, 2)
            if bk == 0 and (bj == 1 or j == k):
                t = s ^ (1 << j) ^ (1 << k)
                h[t][s] += hop
        h[s][s] += diag
    return Matrix(h)


def hamiltonian_phase_sector(num_sites: int, num_particles: int, beta) -> Matrix:
    """The phase-model generator H = sum_j { raise_{j+1} lower_j - beta * P0_j }
    on one sector of `lattice.occupations` with periodic wrap, each hop moving
    one boson from site j to a different site j+1 (so at least two sites)."""
    beta = Fraction(beta)
    basis = lattice.occupations(num_sites, num_particles, None)
    index = {occ: i for i, occ in enumerate(basis)}
    h = [[Fraction(0)] * len(basis) for _ in basis]
    for col, occ in enumerate(basis):
        h[col][col] -= beta * sum(1 for n in occ if n == 0)
        for j in range(num_sites):
            if occ[j] == 0:
                continue
            target = list(occ)
            target[j] -= 1
            target[(j + 1) % num_sites] += 1
            h[index[tuple(target)]][col] += Fraction(1)
    return Matrix(h)


def series_inverse(s: TruncatedSeries) -> TruncatedSeries:
    """den / N for the numerators N.  c0^(D+1) / N has the integer
    coefficients U_0 = c0^D, U_n = -(sum_k N_k U_(n-k)) / c0, each division
    exact: the dense inverse that series division multiplied by."""
    nums = s.nums
    c0 = nums[0]
    if not c0:
        raise ValueError("series with zero constant term has no inverse")
    terms = [(k, x) for k, x in enumerate(nums) if k and x]
    out = [c0**s.order]
    for n in range(1, len(nums)):
        out.append(-sum(x * out[n - k] for k, x in terms if k <= n) // c0)
    lead = c0 * out[0]  # c0^(D+1)
    scale = s.den if lead > 0 else -s.den
    return TruncatedSeries._raw(tuple(x * scale for x in out), abs(lead))


def series_divide(x, d) -> TruncatedSeries:
    """x / d as x times the dense inverse of d, either one a series or a
    scalar lifted to the other's order."""
    like = x if isinstance(x, TruncatedSeries) else d
    return like._lift(x) * series_inverse(like._lift(d))


def low_product(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The low len(a) coefficients of the product of two integer polynomials
    of that length, by the convolution's definition: every pair of indices,
    no term skipped and nothing packed."""
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(len(a)))


def series_product(x: TruncatedSeries, y: TruncatedSeries) -> TruncatedSeries:
    """x * y through `low_product`."""
    return TruncatedSeries._raw(low_product(x.nums, y.nums), x.den * y.den)


def qadic_det(rows, order: int) -> tuple[int, TruncatedSeries]:
    """`exactcore.qadic_det` with each pivot inverted by `series_inverse`
    and each update a padded product, a negation and a sum, every product
    taken by `series_product`."""
    n = len(rows)
    a = [list(row) for row in rows]
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    if any(x.order != order for row in a for x in row):
        raise ValueError("series orders differ")
    vals = [[x.valuation() for x in row] for row in a]
    sign = 1
    pivots = []
    for k in range(n):
        v, i, j = min((vals[i][j], i, j) for i in range(k, n) for j in range(k, n))
        if v > order:
            raise PrecisionError(f"a {n - k}x{n - k} block of the matrix vanishes through q^{order}")
        if i != k:
            a[i], a[k], vals[i], vals[k], sign = a[k], a[i], vals[k], vals[i], -sign
        if j != k:
            for row in a[k:] + vals[k:]:
                row[j], row[k] = row[k], row[j]
            sign = -sign
        unit = a[k][k].shift_down(v)
        inv = series_inverse(unit)
        tail = [(j, x.shift_down(v)) for j, x in enumerate(a[k][k + 1 :], k + 1) if vals[k][j] <= order]
        pad = (0,) * v
        for i in range(k + 1, n):
            if vals[i][k] > order:
                continue
            factor = series_product(a[i][k].shift_down(v), inv)
            row = a[i]
            for j, x in tail:
                prod = series_product(factor, x)
                row[j] = row[j] - TruncatedSeries._raw(pad + prod.nums, prod.den)
                vals[i][j] = row[j].valuation()
        pivots.append((v, unit))
    top = max((v for v, _ in pivots), default=0)
    out = TruncatedSeries.one(order - top) * sign
    for _, unit in pivots:
        out = series_product(out, unit.truncate(order - top))
    return sum(v for v, _ in pivots), out


def agreements(pi, n: int) -> tuple:
    """The class of a plane partition that fits the n x n base: the pair
    (c_up[j], c_down[j]) for j = 1..n-1, on which its weight depends.  The
    reference for the class that `meltingcrystal._row_digits` reads row by
    row, in `_box_classes` and in `weight_phi`.

    Part k of diagonal slice m is the entry (k - min(m, 0), k + max(m, 0))
    (1-based) of the zero-padded n x n entry grid.  For k = 1..n-j, c_up[j]
    counts where slice j agrees with slice j-1 one part further along, and
    c_down[j] where slice -j differs from slice 1-j at part k; both compare
    a grid entry with the one below it.
    """
    grid = [list(row) + [0] * (n - len(row)) for row in pi] + [[0] * n] * (n - len(pi))
    return tuple(
        (
            sum(grid[k][k + j] == grid[k + 1][k + j] for k in range(n - j)),
            sum(grid[k + j][k] != grid[k + j - 1][k] for k in range(n - j)),
        )
        for j in range(1, n)
    )


def phi_factors(n: int, q, beta):
    """The j-only factors of the weight in an n x n base, as power tables:
    up[j][c] = (1 + beta*q^j)^-c (None where 1 + beta*q^j vanishes) and
    down[j][c] = (1 + beta*q^(1-j))^c, for c = 0..n-j, over any field
    containing q and beta.  With `phi`, the reference for the integer class
    weight of `meltingcrystal._class_sum`."""
    one = q**0
    up, down = {}, {}
    for j in range(1, n):
        den = one + beta * q**j
        up[j] = None if den == 0 else _powers(den**-1, n - j)
        down[j] = _powers(one + beta * q ** (1 - j), n - j)
    return one, up, down


def _powers(x, top: int) -> list:
    out = [x**0]
    for _ in range(top):
        out.append(out[-1] * x)
    return out


def phi(cls: tuple, factors):
    """The weight of a class from `phi_factors`: each c_up[j] divides by
    1 + beta*q^j and each c_down[j] multiplies by 1 + beta*q^(1-j).  The
    reference for the weight `meltingcrystal._class_sum` gives each class,
    on its own in `weight_phi` and the mc.phi-beta0 case."""
    one, up, down = factors
    val = one
    for j, (c_up, c_down) in enumerate(cls, 1):
        if c_up:
            if up[j] is None:
                raise PoleError(f"1 + beta*q^{j} vanishes")
            val = val * up[j][c_up]
        if c_down:
            # a vanishing factor is a zero weight, not a pole
            val = val * down[j][c_down]
    return val


def box_classes(n: int, height: int) -> tuple:
    """`meltingcrystal._box_classes` from `enumerate_boxed`, each plane
    partition padded and classed by `agreements` and sized by `pp_size`."""
    table: dict = {}
    for pi in enumerate_boxed(n, n, height):
        cls = agreements(pi, n)
        if cls not in table:
            table[cls] = [0] * (n * n * height + 1)
        table[cls][pp_size(pi)] += 1
    return tuple((cls, tuple(counts)) for cls, counts in table.items())


def bruteforce_fraction(n: int, height: int, q, beta, classes=None) -> Fraction:
    """`meltingcrystal.z_box_bruteforce` as a `Fraction` sum of each class's
    weight `phi` times its size sum, over `classes` (by default the box's
    own table from `box_classes`), with the same checks in the same order."""
    check_box(n, n, height)
    q = Fraction(q)
    beta = Fraction(beta)
    if q == 0:
        raise ParameterError("q must be nonzero")
    factors = phi_factors(n, q, beta)
    if classes is None:
        classes = box_classes(n, height)
    top = n * n * height
    a, b = q.numerator, q.denominator
    mono = [a**s * b ** (top - s) for s in range(top + 1)]
    total = sum(phi(cls, factors) * sum(c * m for c, m in zip(counts, mono)) for cls, counts in classes)
    return total / b**top
