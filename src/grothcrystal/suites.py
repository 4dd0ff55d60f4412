"""Seeded verification suites shared by the command line and the test bed.

Each suite runs a battery of exact cross-checks at one of two scales: "small"
keeps every case interactive, "full" runs the scales the acceptance checks
pin down.  Random evaluation points are generic by construction: distinct
primes plus a seeded proper fraction, so distinctness and pole avoidance hold
deterministically for a given seed.

A suite generates `Case` records and makes every random draw as it goes; the
computation waits in each case's `check`, which `run_suite` calls only for the
cases its filter keeps, so the draws never depend on the filter.  The kept
cases are independent, so `run_suite` shares them out over the usable CPUs in
forked processes and merges the results back in case order.
"""

from __future__ import annotations

import os
import random
import signal
import time
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, partial
from itertools import combinations
from typing import Callable, Iterator

from . import (
    fivevertex as fv,
    grothendieck as gr,
    lattice,
    meltingcrystal as mc,
    partitions as pt,
    phasemodel as pm,
    sixvertex as sv,
)
from .errors import ParameterError
from .exactcore import TruncatedSeries, rat_str

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
        out.append(Fraction(_PRIMES[start + i]) + Fraction(num, den))
    return out


def generic_beta(rng: random.Random, nonzero: bool = False) -> Fraction:
    palette = _BETA_PALETTE if nonzero else _BETA_PALETTE + (Fraction(0),)
    return palette[rng.randrange(len(palette))]


@dataclass(frozen=True)
class Case:
    """One named check.  `check()` takes no arguments and returns a bool, or
    (bool, extra detail) when the detail is itself computed; `detail` holds
    what is known before the check runs."""

    name: str
    check: Callable[[], bool | tuple[bool, dict]]
    detail: dict = field(default_factory=dict)


@dataclass
class SuiteReport:
    suite: str
    scale: str
    seed: int
    cases: int
    failures: list[dict]
    wall_time: float = 0.0
    processes: int = 1  # the most processes one of its suites ran in

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


def _b_commute(apply_b, chains, u: Fraction, v: Fraction, beta: Fraction) -> bool:
    """B(u)B(v) = B(v)B(u) on each (num_sites, basis state) in `chains`."""
    return all(
        apply_b(m, u, beta, apply_b(m, v, beta, {s: Fraction(1)}))
        == apply_b(m, v, beta, apply_b(m, u, beta, {s: Fraction(1)}))
        for m, s in chains
    )


def _transfer_commute(transfer_matrix, m: int, sectors, beta: Fraction) -> bool:
    """The symbolic transfer matrix commutes with its values at 2m+1 rational
    points, on each particle-number sector."""
    for n in sectors:
        _, t_sym = transfer_matrix(m, n, beta)
        for i in range(2 * m + 1):
            v0 = Fraction(2) + Fraction(i, 2 * m + 2)
            t_num = t_sym.map(lambda p: p.evaluate(v0))
            comm = t_sym @ t_num - t_num @ t_sym
            if any(not x == 0 for row in comm.data for x in row):
                return False
    return True


def _wavefunction_cases(
    tag, d, m, ps, beta, configs, key, apply_b, vacuum, closed, dual_lattice, dual_closed
) -> Iterator[Case]:
    """One sector's wavefunction cases: <c|B(p_1)...B(p_N)|vacuum> read off one
    chain at state key(c), and the dual lattice route, each against its closed
    form for every config c in configs()."""

    def forward() -> bool:
        state = lattice.chain(apply_b, m, ps, beta, vacuum)
        return all(state.get(key(c), Fraction(0)) == closed(m, c, ps, beta) for c in configs())

    def dual() -> bool:
        return all(dual_lattice(m, c, ps, beta) == dual_closed(m, c, ps, beta) for c in configs())

    sector = f"M{m}.N{len(ps)}.{d}"
    yield Case(f"{tag}.wavefunction.{sector}", forward, {"beta": beta})
    yield Case(f"{tag}.wavefunction-dual.{sector}", dual, {"beta": beta})


# -- symmetric polynomial identities ------------------------------------------


def _same_shapes(shapes, lhs: Callable, rhs: Callable) -> bool:
    """lhs(lam) == rhs(lam) for every partition lam in shapes()."""
    return all(lhs(lam) == rhs(lam) for lam in shapes())


def _addition(shapes, zs, beta: Fraction):
    """The one-variable addition theorem; the witness is the first failing shape."""
    for mu in shapes():
        rhs = sum(
            gr.skew_single(mu, lam, zs[-1], beta) * gr.groth_det(lam, zs[:-1], beta)
            for lam in pt.interlacing_below(mu)
        )
        if gr.groth_det(mu, zs, beta) != rhs:
            return False, {"witness": mu}
    return True, {"witness": None}


def _branching(zs, ws, beta: Fraction) -> bool:
    return all(
        gr.groth_det(lam, zs + ws, beta)
        == sum(
            gr.skew_multi(lam, nu, zs, beta) * gr.groth_det(nu, ws, beta)
            for nu in pt.partitions_in_box(2, 1)
        )
        for lam in pt.partitions_in_box(2, 3)
    )


def _suite_groth(scale: str, rng: random.Random) -> Iterator[Case]:
    box, parts = _pick(scale, (2, 2), (3, 3))
    shapes = partial(pt.partitions_in_box, box, parts)

    for d in range(_pick(scale, 2, 3)):
        beta = generic_beta(rng)
        zs = generic_rationals(rng, parts)
        perm = list(range(parts))
        rng.shuffle(perm)
        permuted = partial(gr.groth_det, zs=[zs[i] for i in perm], beta=beta)
        check = partial(_same_shapes, shapes, partial(gr.groth_det, zs=zs, beta=beta), permuted)
        yield Case(f"groth.symmetry.{d}", check, {"beta": beta})
        schur = partial(gr.groth_det, zs=zs, beta=Fraction(0)), partial(gr.schur_det, zs=zs)
        yield Case(f"groth.schur-limit.{d}", partial(_same_shapes, shapes, *schur))

    beta = generic_beta(rng)
    many = generic_rationals(rng, parts + 1)
    check = partial(_addition, partial(pt.partitions_in_box, box, parts + 1), many, beta)
    yield Case("groth.addition", check, {"box": [box] * (parts + 1)})

    zs = generic_rationals(rng, parts)
    beta = generic_beta(rng)
    chain = partial(gr.groth_chain, zs=zs, beta=beta), partial(gr.groth_det, zs=zs, beta=beta)
    yield Case("groth.chain", partial(_same_shapes, shapes, *chain))

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


def _fv_skew(m: int, u: Fraction, beta: Fraction) -> bool:
    """(-beta)^N u^(1-M) <y|B(u)|x> is the single-variable skew polynomial."""
    z = fv.spectral_map(u, beta)
    for n in range(0, 3):
        for x in combinations(range(1, m + 1), n):
            lam = pt.partition_from_positions(x)
            for y in combinations(range(1, m + 1), n + 1):
                mu = pt.partition_from_positions(y)
                got = fv.skew_matrix_element(m, y, x, u, beta)
                if len(mu) == len(lam) + 1 and got != gr.skew_single(mu, lam, z, beta):
                    return False
    return True


def _fv_skew_rotation(m: int, u: Fraction, beta: Fraction) -> bool:
    """<y|B(u)|x> equals <x reversed|C(u)|y reversed>."""
    for n in range(0, 3):
        for x in combinations(range(1, m + 1), n):
            image = fv.apply_b(m, u, beta, {fv.mask_from_positions(x): Fraction(1)})
            xr = fv.mask_from_positions(pt.reversed_positions(x, m))
            for y in combinations(range(1, m + 1), n + 1):
                yr = fv.mask_from_positions(pt.reversed_positions(y, m))
                rot = fv.apply_c(m, u, beta, {yr: Fraction(1)})
                if rot.get(xr, Fraction(0)) != image.get(fv.mask_from_positions(y), Fraction(0)):
                    return False
    return True


def _tasep_structure(m: int) -> bool:
    """At beta = -1: zero column sums, off-diagonal entries 0 or 1."""
    h = fv.hamiltonian_direct(m, Fraction(-1))
    dim = range(1 << m)
    return all(sum(h.entry(r, c) for r in dim) == 0 for c in dim) and all(
        h.entry(r, c) in (Fraction(0), Fraction(1)) for r in dim for c in dim if r != c
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
                configs = partial(combinations, range(1, m + 1), n)
                yield from _wavefunction_cases(
                    "fv", d, m, us, beta, configs, fv.mask_from_positions, fv.apply_b, 0,
                    fv.wavefunction_closed, fv.dual_wavefunction_lattice,
                    fv.dual_wavefunction_closed,
                )

    m = _pick(scale, 5, 6)
    beta = generic_beta(rng, nonzero=True)
    u = generic_rationals(rng, 1)[0]
    yield Case(f"fv.skew.M{m}", partial(_fv_skew, m, u, beta), {"beta": beta})
    yield Case(f"fv.skew-rotation.M{m}", partial(_fv_skew_rotation, m, u, beta), {"beta": beta})

    m_max = _pick(scale, 4, 6)
    beta = generic_beta(rng, nonzero=True)
    u, v = generic_rationals(rng, 2)
    chains = [(m, mask) for m in range(2, m_max + 1) for mask in range(1 << m)]
    yield Case("fv.b-commute", partial(_b_commute, fv.apply_b, chains, u, v, beta), {"beta": beta})

    m_tr = _pick(scale, 3, 4)
    beta = generic_beta(rng, nonzero=True)
    check = partial(_transfer_commute, fv.transfer_matrix, m_tr, range(m_tr + 1), beta)
    yield Case("fv.transfer-commute", check, {"beta": beta})

    m_ham = _pick(scale, 4, 6)
    for beta in _pick(scale, (Fraction(-1),), (Fraction(-1), Fraction(-4), Fraction(-1, 4))):
        check = partial(_builds, fv.hamiltonian, [(m, beta) for m in range(2, m_ham + 1)])
        yield Case(f"fv.hamiltonian.beta={beta}", check)

    yield Case("fv.tasep-structure", partial(_tasep_structure, m_ham))


# -- phase model --------------------------------------------------------------


def _pm_skew_cases(m: int, n_max: int, v: Fraction, beta: Fraction) -> Iterator[Case]:
    """<upper|B(v)|lower> against the normalized skew polynomial, and its support
    against the admissibility rule; both read one cached image per lower state."""

    @cache
    def image(lower):
        return pm.apply_b_phase(m, v, beta, {lower: Fraction(1)})

    def pairs():
        for n in range(0, n_max + 1):
            for lower in pm.sector_basis(m, n):
                for upper in pm.sector_basis(m, n + 1):
                    yield lower, upper, image(lower).get(upper, Fraction(0))

    def element() -> bool:
        z = pm.spectral_map_phase(v, beta)
        norm = (1 / v - beta * v) ** (m - 1)
        lam = pt.partition_from_occupation
        return all(
            amp == norm * gr.skew_single(lam(upper), lam(lower), z, beta)
            for lower, upper, amp in pairs()
        )

    def support() -> bool:
        return all(pt.admissible(upper, lower) == (amp != 0) for lower, upper, amp in pairs())

    yield Case(f"pm.skew-element.M{m}", element, {"beta": beta})
    yield Case(f"pm.skew-support.M{m}", support, {"beta": beta})


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
                configs = partial(pm.sector_basis, m, n)
                yield from _wavefunction_cases(
                    "pm", d, m, vs, beta, configs, tuple, pm.apply_b_phase, pm.vacuum_occupation(m),
                    pm.wavefunction_phase_closed, pm.dual_wavefunction_phase_lattice,
                    pm.dual_wavefunction_phase_closed,
                )

    m_sk, n_sk = _pick(scale, (4, 2), (5, 3))
    beta = generic_beta(rng)
    v = generic_rationals(rng, 1)[0]
    yield from _pm_skew_cases(m_sk, n_sk, v, beta)

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
    chains = [(m, occ) for m in (2, 3) for n in (0, 1, 2) for occ in pm.sector_basis(m, n)]
    check = partial(_b_commute, pm.apply_b_phase, chains, u, v, beta)
    yield Case("pm.b-commute", check, {"beta": beta})

    m_tr = _pick(scale, 3, 4)
    beta = generic_beta(rng)
    check = partial(_transfer_commute, pm.transfer_matrix_phase, m_tr, range(3), beta)
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
    boxed = pt.enumerate_boxed(box, box, box)
    return all(mc.weight_phi(pi, Fraction(1, 2), Fraction(0), box) == 1 for pi in boxed)


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
        check = partial(_agree, mc.z_box_series_limit, mc.z_infinite, beta, d_lim)
        yield Case(f"mc.box-limit.beta={beta}", check)

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
    while True:
        t = Fraction(rng.randrange(1, 5), rng.randrange(5, 9))
        a1 = Fraction(rng.randrange(1, 5))
        a2 = Fraction(rng.randrange(1, 5))
        a3 = Fraction(rng.randrange(1, 5))
        if t in (1, -1):
            continue
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


def run_suite(
    name: str, scale: str = "small", seed: int = 1, tags: str | None = None
) -> SuiteReport:
    """Run one suite (or "all"); `tags` restricts cases by name substring, and
    only matching cases run their check.  A check that raises becomes a failure
    record whose "error" names the exception; the rest of the suite still runs.
    Each suite's matched cases run in as many processes as there are usable
    CPUs, or cases if fewer; the report does not depend on that number."""
    if name != "all" and name not in SUITES:
        raise ParameterError(f"unknown suite {name!r}")
    if scale not in ("small", "full"):
        raise ParameterError("scale must be 'small' or 'full'")
    start = time.perf_counter()
    cases = 0
    failures = []
    processes = 1
    for sub in SUITES if name == "all" else (name,):
        rng = random.Random(f"{sub}:{seed}")
        matched = [case for case in SUITES[sub](scale, rng) if tags is None or tags in case.name]
        procs = max(1, min(_usable_cpus(), len(matched)))
        cases += len(matched)
        failures += [rec for rec in _run_cases(matched, procs) if rec is not None]
        processes = max(processes, procs)
    return SuiteReport(name, scale, seed, cases, failures, time.perf_counter() - start, processes)


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


def _run_cases(cases: list[Case], procs: int) -> list[dict | None]:
    """`_record` of every case, in case order.  Case i runs in process i mod
    procs: this process runs share 0 and forks a worker for each other share.
    A worker that dies or sends no readable result fails each of its cases."""
    records: list[dict | None] = [None] * len(cases)
    shares = [cases[k::procs] for k in range(procs)]
    workers = []  # (share, pid, read end of its pipe) of each worker not yet reaped
    try:
        for k in range(1, procs):
            workers.append((k, *_fork(shares[k])))
        records[::procs] = [_record(case) for case in shares[0]]
        while workers:
            k, pid, fd = workers[0]
            got = _collect(pid, fd, len(shares[k]))
            del workers[0]
            if isinstance(got, str):
                got = [_failure(case, f"WorkerError: {got}") for case in shares[k]]
            records[k::procs] = got
    finally:
        for _, pid, fd in workers:  # left only when this process raised
            with suppress(OSError):
                os.kill(pid, signal.SIGKILL)
            with suppress(OSError):
                os.close(fd)
            with suppress(ChildProcessError):
                os.waitpid(pid, 0)
    return records


def _fork(share: list[Case]) -> tuple[int, int]:
    """Fork a worker that pickles `_record` of each case in `share` into a
    pipe; return its pid and the pipe's read end.  The worker never returns
    to the caller and leaves through `os._exit`, so it flushes no stdio
    buffer it inherited."""
    import pickle

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pickle.dump([_record(case) for case in share], pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    return pid, read_fd


def _collect(pid: int, fd: int, count: int) -> list[dict | None] | str:
    """Read a worker's records and reap it; a string says why it gave none."""
    import pickle

    with open(fd, "rb") as pipe:
        data = pipe.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code < 0:
        return f"worker killed by signal {-code}"
    if code:
        return f"worker exited with status {code}"
    try:
        records = pickle.loads(data)
    except Exception as exc:
        return f"undecodable worker result ({type(exc).__name__})"
    if not isinstance(records, list) or len(records) != count:
        return "short worker result"
    return records


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
