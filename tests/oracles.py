"""Reference implementations that tests compare the program against."""

import math
from fractions import Fraction
from typing import Iterator, Sequence

from grothcrystal import fivevertex, grothendieck, lattice
from grothcrystal.errors import DegeneratePointError, OutOfBoxError, ParameterError
from grothcrystal.exactcore import LaurentPoly, Matrix, TruncatedSeries, rational_sqrt, vandermonde
from grothcrystal.partitions import check_partition


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


def chain(apply, model, num_sites: int, params, beta, state: dict) -> dict:
    """X(p_1)...X(p_N) acting on a weighted state, X = `lattice.apply_b` or
    `lattice.apply_c`, X(p_N) first: one operator at a time, the per-state
    route that the sector tables and the one-state lookups replace."""
    for p in reversed(params):
        state = apply(model, num_sites, p, beta, state)
    return state


def path_sum_chain(capacity, num_sites: int, state: dict, steps) -> dict:
    """The ring-generic `lattice._path_sum` one (a_in, a_out, weights) step
    at a time, on the values as given: the chain that divides after every
    operator, which `lattice.integer_chain` replaces."""
    for a_in, a_out, w in steps:
        state = lattice._path_sum(capacity, num_sites, state, a_in, a_out, w, {})
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
