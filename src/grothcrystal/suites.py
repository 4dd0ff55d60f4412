"""Seeded verification suites shared by the command line and the test bed.

Each suite runs a battery of exact cross-checks at one of two scales: "small"
keeps every case interactive, "full" runs the scales the acceptance checks
pin down.  Random evaluation points are generic by construction: distinct
primes plus a seeded proper fraction, so distinctness and pole avoidance hold
deterministically for a given seed.

A suite generates `Case` records and makes every random draw as it goes; the
computation waits in each case's `check`, which `run_suites` calls only for
the cases its filter keeps, so the draws never depend on the filter.  The kept
cases are independent, so `run_suites` puts those of every suite it runs in
one `workqueue`, which the calling process and a forked worker per further
usable CPU pull from until it is empty, and splits the results back per
suite in case order.
"""

from __future__ import annotations

import os
import random
from fractions import Fraction
from functools import cache, partial
from itertools import combinations
from types import MappingProxyType
from typing import Callable, Iterator, NamedTuple

from . import (
    fivevertex as fv,
    grothendieck as gr,
    lattice,
    meltingcrystal as mc,
    partitions as pt,
    phasemodel as pm,
    sixvertex as sv,
    workqueue,
)
from .errors import ParameterError
from .exactcore import Matrix, TruncatedSeries, rat_str

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
_BETA_PALETTE = (
    Fraction(-2),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(-1, 3),
    Fraction(1, 3),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
)


def generic_rationals(rng: random.Random, count: int, start: int = 0) -> list[Fraction]:
    """Pairwise distinct rationals > 2: distinct primes plus a proper fraction."""
    if start + count > len(_PRIMES):
        raise ParameterError("prime palette exhausted")
    out = []
    for i in range(count):
        num = rng.randrange(1, 7)
        den = rng.randrange(num + 6, num + 13)
        out.append(Fraction(_PRIMES[start + i] * den + num, den))
    return out


def generic_beta(rng: random.Random, nonzero: bool = False) -> Fraction:
    palette = _BETA_PALETTE if nonzero else _BETA_PALETTE + (Fraction(0),)
    return palette[rng.randrange(len(palette))]


class Case(NamedTuple):
    """One named check.  `check()` takes no arguments and returns a bool, or
    (bool, extra detail) when the detail is itself computed; `detail` holds
    what is known before the check runs (by default an empty read-only
    mapping, which the cases share)."""

    name: str
    check: Callable[[], bool | tuple[bool, dict]]
    detail: dict = MappingProxyType({})


class SuiteReport:
    """One suite's results.  wall_time is the summed time of its checks, over
    every process; processes counts those of the run its cases were queued
    in."""

    __slots__ = ("suite", "scale", "seed", "cases", "failures", "wall_time", "processes")

    def __init__(
        self, suite: str, scale: str, seed: int, cases: int, failures: list[dict],
        wall_time: float = 0.0, processes: int = 1,
    ):
        self.suite, self.scale, self.seed, self.cases = suite, scale, seed, cases
        self.failures, self.wall_time, self.processes = failures, wall_time, processes

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"SuiteReport({fields})"

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        # wall_time stays out so the JSON is byte-identical for a fixed seed
        return {
            "suite": self.suite,
            "scale": self.scale,
            "seed": self.seed,
            "cases": self.cases,
            "failures": self.failures,
        }


def _pick(scale: str, small, full):
    return small if scale == "small" else full


def _agree(lhs: Callable, rhs: Callable, *args) -> bool:
    return lhs(*args) == rhs(*args)


def _rejects(fn: Callable, *args) -> bool:
    try:
        fn(*args)
    except ParameterError:
        return True
    return False


def _builds(fn: Callable, arg_tuples) -> bool:
    """fn returns at every argument tuple; a self-check failing inside raises."""
    for args in arg_tuples:
        fn(*args)
    return True


def _b_commute(model: lattice.Model, sectors, u: Fraction, v: Fraction, beta: Fraction) -> bool:
    """B(u)B(v) = B(v)B(u) on each state of each (num_sites, num_particles)
    sector in `sectors`, on the integer weights.  Both orders divide by
    (L_u L_v)^M, so their integer sums compare directly."""
    b_u, b_v = ((1, 0, *model.integer_weights(p, beta)) for p in (u, v))

    def b_b(m, s, *steps):
        return lattice.integer_chain(model.capacity, m, {s: 1}, steps)[0]

    return all(b_b(m, s, b_v, b_u) == b_b(m, s, b_u, b_v) for m, n in sectors for s in model.sector(m, n))


def _transfer_commute(model: lattice.Model, m: int, sectors, beta: Fraction) -> bool:
    """On each particle-number sector, T(u) = sum_k u^k T_k commutes with T(v)
    for all u and v iff every pair of coefficient matrices T_k does.  The
    transfer table of the weight table's polynomials is (u scale)^M T(u), so
    its coefficient matrices are the T_k, shifted and scaled alike."""
    rows, _ = model.table_at(beta)
    for n in sectors:
        table = lattice.transfer_table(model, m, n, rows, 2 * m)
        exps = sorted({k for row in table for c in row for k, x in enumerate(c) if x})
        t_ks = [Matrix.from_table([[c[k] for c in row] for row in table], 1) for k in exps]
        if any(a @ b != b @ a for a, b in combinations(t_ks, 2)):
            return False
    return True


def _wavefunction_cases(model: lattice.Model, tag, d, m, ps, beta) -> Iterator[Case]:
    """One sector's wavefunction cases: <s|B(p_1)...B(p_N)|empty chain> and its
    dual, each read off one chain for the whole sector and compared with its
    closed form at every state s of the sector: the lattice c_s / D and the
    closed det_s * N / D' agree iff c_s D' = det_s N D, so no value is built."""

    def sector(dual: bool) -> bool:
        states = model.sector(m, len(ps))
        sums, den = lattice.lattice_table(model, m, ps, beta, dual)
        dets, num, den_closed = lattice.closed_table(model, m, states, ps, beta, dual)
        return all(
            sums.get(s, 0) * den_closed == d * num * den for s, d in zip(states, dets, strict=True)
        )

    sector_name = f"M{m}.N{len(ps)}.{d}"
    yield Case(f"{tag}.wavefunction.{sector_name}", partial(sector, False), {"beta": beta})
    yield Case(f"{tag}.wavefunction-dual.{sector_name}", partial(sector, True), {"beta": beta})


def _skew_lowers(model: lattice.Model, m: int, n_max: int, p: Fraction, beta: Fraction):
    """A cached function listing (n, lower, lam, image, uppers) for every lower
    state of n <= n_max particles: lam its partition, image its B(p) image
    {upper: amp}, amp != 0, and uppers {mu: upper} over the (n + 1)-particle
    states whose partitions mu interlace lam.  Only those can be in the image,
    so a check on them decides every (lower, upper) pair."""

    @cache
    def lowers():
        out = []
        for n in range(n_max + 1):
            by_part = {model.partition(s): s for s in model.sector(m, n + 1)}
            top = max(mu[0] for mu in by_part)
            for lower in model.sector(m, n):
                lam = model.partition(lower)
                image = lattice.apply_b(model, m, p, beta, {lower: Fraction(1)})
                uppers = {mu: by_part[mu] for mu in pt.interlacing_above(lam, top)}
                out.append((n, lower, lam, image, uppers))
        return out

    return lowers


def _skew_norm(model: lattice.Model, m: int, p: Fraction, beta: Fraction, n: int) -> Fraction:
    """The factor that turns <upper|B(p)|lower>, lower of n particles, into a
    skew polynomial: the prefactor of n parameters over that of n + 1."""
    return model.prefactor(m, [p] * n, beta) / model.prefactor(m, [p] * (n + 1), beta)


def _skew_element(model: lattice.Model, lowers, m: int, p: Fraction, beta: Fraction) -> bool:
    """norm(n) <upper|B(p)|lower> is the single-variable skew polynomial
    z^e (1 + beta z)^k of the two states' partitions at z(p), (e, k) their
    `_skew_exponents`: each image, scaled, equals the nonzero values over the
    interlacing uppers, and vanishes off them.  norm runs once per n and the
    value once per (e, k)."""
    z, norm = model.spectral_map(p, beta), cache(partial(_skew_norm, model, m, p, beta))
    value = cache(lambda e, k: z**e * (1 + beta * z) ** k)
    return all(
        {upper: norm(n) * amp for upper, amp in image.items()}
        == {upper: v for mu, upper in uppers.items() if (v := value(*gr._skew_exponents(mu, lam)))}
        for n, _, lam, image, uppers in lowers()
    )


# -- symmetric polynomial identities ------------------------------------------


def _same_shapes(shapes, zs, beta: Fraction, other: Callable) -> bool:
    """G_lam(zs; beta), from one `groth_dets` call, equals other(lam) for every
    partition lam in shapes()."""
    lams = list(shapes())
    return all(g == other(lam) for lam, g in zip(lams, gr.groth_dets(lams, zs, beta)))


def _addition(shapes, zs, beta: Fraction):
    """The one-variable addition theorem, each side's G from one `groth_dets`
    call; the witness is the first failing shape."""
    mus = list(shapes())
    lows = [list(pt.interlacing_below(mu)) for mu in mus]
    below = list(dict.fromkeys(lam for lams in lows for lam in lams))
    g_below = dict(zip(below, gr.groth_dets(below, zs[:-1], beta)))
    for mu, g, lams in zip(mus, gr.groth_dets(mus, zs, beta), lows):
        if g != sum(gr.skew_single(mu, lam, zs[-1], beta) * g_below[lam] for lam in lams):
            return False, {"witness": mu}
    return True, {"witness": None}


def _branching(zs, ws, beta: Fraction) -> bool:
    lams, nus = list(pt.partitions_in_box(2, 3)), list(pt.partitions_in_box(2, 1))
    g_nus = gr.groth_dets(nus, ws, beta)
    return all(
        g == sum(gr.skew_multi(lam, nu, zs, beta) * h for nu, h in zip(nus, g_nus))
        for lam, g in zip(lams, gr.groth_dets(lams, zs + ws, beta))
    )


def _suite_groth(scale: str, rng: random.Random) -> Iterator[Case]:
    box, parts = _pick(scale, (2, 2), (3, 3))
    shapes = partial(pt.partitions_in_box, box, parts)

    for d in range(_pick(scale, 2, 3)):
        beta = generic_beta(rng)
        zs = generic_rationals(rng, parts)
        perm = list(range(parts))
        rng.shuffle(perm)
        # the determinant ratio is symmetric by construction (a permutation moves the rows
        # of numerator and Vandermonde alike); the chain sum only by the branching theorem
        permuted = partial(gr.groth_chain, zs=[zs[i] for i in perm], beta=beta)
        check = partial(_same_shapes, shapes, zs, beta, permuted)
        yield Case(f"groth.symmetry.{d}", check, {"beta": beta})
        schur = partial(gr.schur_det, zs=zs)
        yield Case(f"groth.schur-limit.{d}", partial(_same_shapes, shapes, zs, Fraction(0), schur))

    beta = generic_beta(rng)
    many = generic_rationals(rng, parts + 1)
    check = partial(_addition, partial(pt.partitions_in_box, box, parts + 1), many, beta)
    yield Case("groth.addition", check, {"box": [box] * (parts + 1)})

    zs = generic_rationals(rng, parts)
    beta = generic_beta(rng)
    chain = partial(gr.groth_chain, zs=zs, beta=beta)
    yield Case("groth.chain", partial(_same_shapes, shapes, zs, beta, chain))

    beta = generic_beta(rng)
    zs = generic_rationals(rng, 2)
    ws = generic_rationals(rng, 1, start=2)
    yield Case("groth.branching", partial(_branching, zs, ws, beta))

    n_max, l_max, points = _pick(scale, (2, 2, 2), (3, 3, 5))
    for d in range(points):
        beta = generic_beta(rng)
        for n in range(1, n_max + 1):
            for width in range(l_max + 1):
                zs = generic_rationals(rng, n)
                ws = generic_rationals(rng, n, start=n)
                check = partial(_agree, gr.cauchy_lhs, gr.cauchy_rhs, width, zs, ws, beta)
                yield Case(f"groth.cauchy.N{n}.L{width}.{d}", check, {"beta": beta})

    for d in range(points):
        beta = generic_beta(rng, nonzero=True)
        for n in range(1, n_max + 1):
            for width in range(l_max + 1):
                zs = generic_rationals(rng, n)
                check = partial(_agree, gr.summation_lhs, gr.summation_rhs, width, zs, beta)
                yield Case(f"groth.summation.N{n}.L{width}.{d}", check, {"beta": beta})

    check = partial(_rejects, gr.summation_rhs, 1, generic_rationals(rng, 1), Fraction(0))
    yield Case("groth.summation.beta0-rejected", check)


# -- five-vertex model --------------------------------------------------------


def _skew_rotation(lowers, m: int, n_max: int, u: Fraction, beta: Fraction) -> bool:
    """<y|B(u)|x> equals <x reversed|C(u)|y reversed>: the nonzero B images and
    the C images, one per upper state y, as two {(x, y): amp} tables."""
    b_table = {(x, y): amp for _, x, _, image, _ in lowers() for y, amp in image.items()}
    c_table = {
        (x[::-1], y): amp
        for n in range(1, n_max + 2)
        for y in fv.MODEL.sector(m, n)
        for x, amp in lattice.apply_c(fv.MODEL, m, u, beta, {y[::-1]: Fraction(1)}).items()
    }
    return b_table == c_table


def _tasep_structure(m: int) -> bool:
    """At beta = -1, on every sector: zero column sums, off-diagonal entries 0 or 1."""
    hs = [fv.hamiltonian_direct(m, n, Fraction(-1)).data for n in range(m + 1)]
    return all(
        not any(map(sum, zip(*h)))
        and all(x in (0, 1) for r, row in enumerate(h) for c, x in enumerate(row) if r != c)
        for h in hs
    )


def _suite_fv(scale: str, rng: random.Random) -> Iterator[Case]:
    for d in range(_pick(scale, 5, 20)):
        u, v, w = generic_rationals(rng, 3)
        yield Case(f"fv.ybe.{d}", partial(fv.check_ybe, u, v, w))
        beta = generic_beta(rng, nonzero=True)
        yield Case(f"fv.rll.{d}", partial(fv.check_rll, u, v, beta), {"beta": beta})

    m_max, n_max, wf_draws = _pick(scale, (5, 2, 1), (7, 3, 3))
    for d in range(wf_draws):
        beta = generic_beta(rng, nonzero=True)
        for m in range(2, m_max + 1):
            for n in range(0, min(m, n_max) + 1):
                us = generic_rationals(rng, n)
                yield from _wavefunction_cases(fv.MODEL, "fv", d, m, us, beta)

    m = _pick(scale, 5, 6)
    beta = generic_beta(rng, nonzero=True)
    u = generic_rationals(rng, 1)[0]
    lowers = _skew_lowers(fv.MODEL, m, 2, u, beta)
    check = partial(_skew_element, fv.MODEL, lowers, m, u, beta)
    yield Case(f"fv.skew.M{m}", check, {"beta": beta})
    check = partial(_skew_rotation, lowers, m, 2, u, beta)
    yield Case(f"fv.skew-rotation.M{m}", check, {"beta": beta})

    m_max = _pick(scale, 4, 6)
    beta = generic_beta(rng, nonzero=True)
    u, v = generic_rationals(rng, 2)
    sectors = [(m, n) for m in range(2, m_max + 1) for n in range(m + 1)]
    yield Case("fv.b-commute", partial(_b_commute, fv.MODEL, sectors, u, v, beta), {"beta": beta})

    m_tr = _pick(scale, 3, 4)
    beta = generic_beta(rng, nonzero=True)
    check = partial(_transfer_commute, fv.MODEL, m_tr, range(m_tr + 1), beta)
    yield Case("fv.transfer-commute", check, {"beta": beta})

    m_ham = _pick(scale, 4, 6)
    for beta in _pick(scale, (Fraction(-1),), (Fraction(-1), Fraction(-4), Fraction(-1, 4))):
        sectors = [(m, n, beta) for m in range(2, m_ham + 1) for n in range(m + 1)]
        check = partial(_builds, fv.hamiltonian, sectors)
        yield Case(f"fv.hamiltonian.beta={beta}", check)

    yield Case("fv.tasep-structure", partial(_tasep_structure, m_ham))


# -- phase model --------------------------------------------------------------


def _skew_support(lowers) -> bool:
    """<upper|B|lower> is nonzero exactly when the two states' partitions
    interlace: each image's states are the interlacing uppers."""
    return all(image.keys() == set(uppers.values()) for *_, image, uppers in lowers())


def _bethe(m: int, beta: Fraction):
    rep = pm.bethe_verify_n1(m, beta)
    ok = rep["max_residual"] < 1e-10 and rep["checked"] + rep["skipped"] == m
    return ok, {"max_residual": rep["max_residual"], "skipped": rep["skipped"]}


def _suite_pm(scale: str, rng: random.Random) -> Iterator[Case]:
    cap, draws = _pick(scale, (3, 3), (4, 10))
    for d in range(draws):
        u, v = generic_rationals(rng, 2)
        beta = generic_beta(rng)
        check = partial(pm.check_rll_phase, u, v, beta, cap)
        yield Case(f"pm.rll.cap{cap}.{d}", check, {"beta": beta})

    m_max, n_max, wf_draws = _pick(scale, (4, 2, 1), (5, 3, 3))
    for d in range(wf_draws):
        beta = generic_beta(rng)
        for m in range(2, m_max + 1):
            for n in range(0, n_max + 1):
                vs = generic_rationals(rng, n)
                yield from _wavefunction_cases(pm.MODEL, "pm", d, m, vs, beta)

    m_sk, n_sk = _pick(scale, (4, 2), (5, 3))
    beta = generic_beta(rng)
    v = generic_rationals(rng, 1)[0]
    lowers = _skew_lowers(pm.MODEL, m_sk, n_sk, v, beta)
    check = partial(_skew_element, pm.MODEL, lowers, m_sk, v, beta)
    yield Case(f"pm.skew-element.M{m_sk}", check, {"beta": beta})
    yield Case(f"pm.skew-support.M{m_sk}", partial(_skew_support, lowers), {"beta": beta})

    m_sc, points = _pick(scale, (3, 2), (4, 5))
    for d in range(points):
        beta = generic_beta(rng)
        for n in (1, 2):
            us = generic_rationals(rng, n)
            vs = generic_rationals(rng, n, start=n)
            for m in range(2, m_sc + 1):
                routes = (pm.scalar_product, pm.scalar_product_bruteforce)
                check = partial(_agree, *routes, m, us, vs, beta)
                yield Case(f"pm.scalar.M{m}.N{n}.{d}", check, {"beta": beta})

    for d in range(points):
        beta = generic_beta(rng, nonzero=True)
        for n in (1, 2):
            vs = generic_rationals(rng, n)
            for m in range(2, m_sc + 1):
                routes = (pm.summation_wavefunctions, pm.summation_wavefunctions_bruteforce)
                check = partial(_agree, *routes, m, vs, beta)
                yield Case(f"pm.sum.M{m}.N{n}.{d}", check, {"beta": beta})
    check = partial(_rejects, pm.summation_wavefunctions, 2, generic_rationals(rng, 1), Fraction(0))
    yield Case("pm.sum.beta0-rejected", check)

    for beta in (Fraction(0), Fraction(-1), Fraction(1, 2)):
        sectors = [(m, n, beta) for m in (2, 3) for n in (1, 2)]
        yield Case(f"pm.hamiltonian.beta={beta}", partial(_builds, pm.hamiltonian_phase, sectors))

    beta = generic_beta(rng)
    u, v = generic_rationals(rng, 2)
    sectors = [(m, n) for m in (2, 3) for n in (0, 1, 2)]
    check = partial(_b_commute, pm.MODEL, sectors, u, v, beta)
    yield Case("pm.b-commute", check, {"beta": beta})

    m_tr = _pick(scale, 3, 4)
    beta = generic_beta(rng)
    check = partial(_transfer_commute, pm.MODEL, m_tr, range(3), beta)
    yield Case("pm.transfer-commute", check, {"beta": beta})

    for m in _pick(scale, (2, 3), (2, 3, 4)):
        for beta in (Fraction(0), Fraction(-1), Fraction(1, 2)):
            yield Case(f"pm.bethe.M{m}.beta={beta}", partial(_bethe, m, beta))


# -- melting crystal ----------------------------------------------------------


def _zbox(n: int, height: int, q: Fraction, beta: Fraction) -> bool:
    brute = mc.z_box_bruteforce(n, height, q, beta)
    det = mc.z_box_det(n, height, q, beta)
    return brute == det and (beta != 0 or det == mc.z_box_beta0(n, n, height, q))


def _phi_beta0(box: int) -> bool:
    """Every plane partition in the box has weight 1 at beta = 0; the weight
    depends only on the class, so each class is weighed once."""
    classes = mc._box_classes(box, box)
    return all(mc._class_sum(((cls, (1,)),), Fraction(1, 2), Fraction(0)) == 1 for cls, _ in classes)


def _counts() -> bool:
    return (
        pt.count_boxed(2, 2, 2) == 20
        and pt.count_boxed(2, 2, 2) == sum(1 for _ in pt.enumerate_boxed(2, 2, 2))
        and pt.count_boxed(2, 3, 2) == pt.count_boxed(3, 2, 2)
    )


def _series_counts(beta: Fraction, order: int, objects_of_size: Callable):
    counts = [sum(1 for _ in objects_of_size(k)) for k in range(order + 1)]
    same = list(mc.z_infinite(beta, order).coeffs) == [Fraction(c) for c in counts]
    return same, {"counts": counts}


def _series_positive(order: int) -> bool:
    betas = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))
    return all(c >= 0 for beta in betas for c in mc.z_infinite(beta, order).coeffs)


def _box_limit(beta: Fraction, order: int) -> bool:
    """The boxed series at box size order + 1 equals the unboxed one through q^order."""
    return mc.z_box_det_series(order + 1, order + 1, beta, order) == mc.z_infinite(beta, order)


def _stabilization(beta: Fraction, order: int, n_max: int) -> bool:
    """The n x n boxed series matches the unboxed one through q^min(n, order)."""
    zi = mc.z_infinite(beta, order)
    for n in range(1, n_max + 1):
        s = mc.z_box_det_series(n, n, beta, order)
        if any(s.coeff(k) != zi.coeff(k) for k in range(min(n, order) + 1)):
            return False
    return True


def _det_product_series(order: int) -> bool:
    qser = TruncatedSeries.indeterminate(order)
    return all(
        mc.z_box_det_series(n, n, Fraction(0), order) == mc.z_box_beta0(n, n, n, qser)
        for n in (1, 2, 3)
    )


def _slice_roundtrip(picks) -> bool:
    """Each pick reassembles from its diagonal slices, which interlace in turn."""
    boxes = list(pt.enumerate_boxed(3, 3, 3))
    for pi in (boxes[i] for i in picks):
        slices = pt.all_diagonal_slices(pi)
        if not slices:
            if pi != ():
                return False
            continue
        lo, hi = min(slices), max(slices)
        if pt.assemble_from_slices([slices.get(k, ()) for k in range(lo, hi + 1)], lo) != pi:
            return False
        for k in range(lo, hi):
            cur, nxt = slices.get(k, ()), slices.get(k + 1, ())
            if not (pt.interlaces(cur, nxt) if k >= 0 else pt.interlaces(nxt, cur)):
                return False
    return True


def _entropy_cases() -> Iterator[Case]:
    betas = (-1.0, 0.0, 1.0)

    def monotone():
        s_vals = {b: mc.entropy(1.0, 1.0, b) for b in betas}
        ok = s_vals[1.0] > s_vals[0.0] > s_vals[-1.0]
        return ok, {"values": {str(k): v for k, v in s_vals.items()}}

    yield Case("mc.entropy-monotone", monotone)
    yield Case(
        "mc.entropy-consistency",
        lambda: all(mc.entropy_consistency(1.0, 1.0, b) < 1e-6 for b in betas),
    )
    yield Case(
        "mc.entropy-freeze",
        lambda: all(abs(mc.entropy(1.0, 0.05, b)) < 1e-6 for b in betas),
    )
    yield Case("mc.entropy-domain", partial(_rejects, mc.entropy, 1.0, 1.0, -1.5))


def _suite_mc(scale: str, rng: random.Random) -> Iterator[Case]:
    n_max, l_max = _pick(scale, (2, 2), (3, 3))
    qs = _pick(scale, (Fraction(1, 2),), (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)))
    betas = (Fraction(0), Fraction(-1)) + _pick(scale, (), (Fraction(1), Fraction(1, 2)))
    for n in range(1, n_max + 1):
        for height in range(1, l_max + 1):
            for q in qs:
                for beta in betas:
                    check = partial(_zbox, n, height, q, beta)
                    yield Case(f"mc.zbox.N{n}.L{height}.q={q}.beta={beta}", check)

    box = _pick(scale, 2, 3)
    yield Case(f"mc.phi-beta0.box{box}", partial(_phi_beta0, box))
    yield Case("mc.counts", _counts)

    d_free, d_euler = _pick(scale, (4, 5), (5, 7))
    plane, flat = pt.plane_partitions_of_size, pt.partitions_of_size
    yield Case("mc.series-beta0", partial(_series_counts, Fraction(0), d_free, plane))
    yield Case("mc.series-euler", partial(_series_counts, Fraction(-1), d_euler, flat))

    d_pos = _pick(scale, 8, 15)
    yield Case(f"mc.series-positivity.order{d_pos}", partial(_series_positive, d_pos))

    d_lim = _pick(scale, 3, 5)
    for beta in (Fraction(0), Fraction(-1), Fraction(1, 2)):
        yield Case(f"mc.box-limit.beta={beta}", partial(_box_limit, beta, d_lim))

    d_stab, n_stab = _pick(scale, (4, 3), (6, 5))
    for beta in (Fraction(0), Fraction(-1), Fraction(1, 2)):
        yield Case(f"mc.stabilization.beta={beta}", partial(_stabilization, beta, d_stab, n_stab))

    d_red = _pick(scale, 10, 20)
    yield Case(f"mc.det-product-series.order{d_red}", partial(_det_product_series, d_red))

    # the closed-form box count bounds the draws, so drawing enumerates nothing
    num_boxes = pt.count_boxed(3, 3, 3)
    picks = [rng.randrange(num_boxes) for _ in range(_pick(scale, 10, 50))]
    yield Case("mc.slice-roundtrip", partial(_slice_roundtrip, picks))

    yield from _entropy_cases()


# -- six-vertex appendix ------------------------------------------------------


def _random_six_params(rng: random.Random) -> sv.SixVertexParams:
    t = Fraction(rng.randrange(1, 5), rng.randrange(5, 9))  # in [1/8, 4/5]
    a1 = Fraction(rng.randrange(1, 5))
    a2 = Fraction(rng.randrange(1, 5))
    a3 = Fraction(rng.randrange(1, 5))
    a6 = -a1 * a2 / a3
    a4 = Fraction(1)
    a5 = (1 - t) * a1 * a2 + a3 * a6
    return sv.SixVertexParams(a1, a2, a3, a4, a5, a6, t)


def _five_vertex_reduction(beta: Fraction, us) -> bool:
    p = sv.five_vertex_params(beta)
    return all(sv.l_six(u, p) == fv.l_matrix(u, beta) for u in us)


def _l_is_intertwiner(u: Fraction, t: Fraction) -> bool:
    want = sv.r_six(u, Fraction(1), t).scale((u * u - 1) / u)
    return sv.l_six(u, sv.intertwiner_params(t)) == want


def _suite_sv6(scale: str, rng: random.Random) -> Iterator[Case]:
    for beta in (Fraction(-1), Fraction(2), Fraction(-1, 3)):
        check = partial(_five_vertex_reduction, beta, generic_rationals(rng, 2))
        yield Case(f"sv6.five-vertex-reduction.beta={beta}", check)

    u, v = generic_rationals(rng, 2)
    yield Case("sv6.r-at-t0", partial(_agree, partial(sv.r_six, t=Fraction(0)), fv.r_matrix, u, v))
    yield Case("sv6.l-is-intertwiner", partial(_l_is_intertwiner, u, Fraction(1, 2)))

    for d in range(_pick(scale, 3, 10)):
        p = _random_six_params(rng)
        uu, vv = generic_rationals(rng, 2)
        yield Case(f"sv6.rll.{d}", partial(sv.check_rll_six, uu, vv, p))
        five = sv.five_vertex_params(generic_beta(rng, nonzero=True))
        yield Case(f"sv6.rll-five.{d}", partial(sv.check_rll_six, uu, vv, five))

    bad = (1, 1, 2, 1, Fraction(-1, 2), Fraction(-1, 3), Fraction(1, 2))
    yield Case("sv6.constraint-rejected", partial(_rejects, sv.SixVertexParams, *bad))


SUITES: dict[str, Callable[[str, random.Random], Iterator[Case]]] = {
    "groth": _suite_groth,
    "fv": _suite_fv,
    "pm": _suite_pm,
    "mc": _suite_mc,
    "sv6": _suite_sv6,
}


def run_suites(
    names: list[str], scale: str = "small", seed: int = 1, tags: str | None = None
) -> list[SuiteReport]:
    """Run the named suites, one report each, in order; `tags` restricts cases
    by name substring, and only matching cases run their check.  A check that
    raises becomes a failure record whose "error" names the exception; the
    other cases still run.  The matched cases of all the suites wait in one
    queue that as many processes as there are usable CPUs, or cases if fewer,
    pull from; the reports do not depend on that number.  A report's
    wall_time is the summed time of its suite's checks."""
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ParameterError(f"unknown suite {unknown[0]!r}")
    if scale not in ("small", "full"):
        raise ParameterError("scale must be 'small' or 'full'")
    matched = []  # each suite's cases, made with all their draws, that the filter keeps
    for name in names:
        cases = SUITES[name](scale, random.Random(f"{name}:{seed}"))
        matched.append([case for case in cases if tags is None or tags in case.name])
    queue = [case for cases in matched for case in cases]
    procs = max(1, min(_usable_cpus(), len(queue)))
    results = iter(
        workqueue.run(
            len(queue),
            procs,
            lambda i: _record(queue[i]),
            lambda i, why: _failure(queue[i], f"WorkerError: {why}"),
        )
    )
    reports = []
    for name, cases in zip(names, matched):
        mine = [next(results) for _ in cases]
        failures = [record for record, _ in mine if record is not None]
        seconds = sum(secs for _, secs in mine)
        reports.append(SuiteReport(name, scale, seed, len(cases), failures, seconds, procs))
    return reports


def run_suite(
    name: str, scale: str = "small", seed: int = 1, tags: str | None = None
) -> SuiteReport:
    """`run_suites` of one suite."""
    return run_suites([name], scale, seed, tags)[0]


def _record(case: Case) -> dict | None:
    """Run one case: None when it passes, else its failure record."""
    try:
        verdict = case.check()
    except Exception as exc:
        return _failure(case, f"{type(exc).__name__}: {exc}")
    ok, extra = verdict if isinstance(verdict, tuple) else (verdict, {})
    return None if ok else {"case": case.name, **_stringify({**case.detail, **extra})}


def _failure(case: Case, error: str) -> dict:
    return {"case": case.name, "error": error, **_stringify(case.detail)}


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask; 1 where the platform cannot say
    or cannot fork."""
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _stringify(detail: dict) -> dict:
    out = {}
    for k, v in detail.items():
        if isinstance(v, Fraction):
            out[k] = rat_str(v)
        elif isinstance(v, tuple):
            out[k] = list(v)
        else:
            out[k] = v
    return out
