"""Seeded verification suites shared by the command line and the test bed.

Each suite runs a battery of exact cross-checks at one of two scales: "small"
keeps every case interactive, "full" runs the scales the acceptance checks
pin down.  Random evaluation points are generic by construction: distinct
primes plus a seeded proper fraction, so distinctness and pole avoidance hold
deterministically for a given seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
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


@dataclass
class CaseResult:
    name: str
    ok: bool
    detail: dict


@dataclass
class SuiteReport:
    suite: str
    scale: str
    seed: int
    cases: int
    failures: list[dict]
    wall_time: float = 0.0

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


def _res(name: str, ok: bool, **detail) -> CaseResult:
    return CaseResult(name, ok, detail)


def _pick(scale: str, small, full):
    return small if scale == "small" else full


def _b_commute(apply_b, chains, u: Fraction, v: Fraction, beta: Fraction) -> bool:
    """B(u)B(v) = B(v)B(u) on each (num_sites, basis state) in `chains`."""
    for m, s in chains:
        start = {s: Fraction(1)}
        ab = apply_b(m, u, beta, apply_b(m, v, beta, start))
        ba = apply_b(m, v, beta, apply_b(m, u, beta, start))
        if ab != ba:
            return False
    return True


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


# -- symmetric polynomial identities ------------------------------------------


def _suite_groth(scale: str, rng: random.Random) -> Iterator[CaseResult]:
    box, parts = _pick(scale, (2, 2), (3, 3))
    draws = _pick(scale, 2, 3)

    for d in range(draws):
        beta = generic_beta(rng)
        zs = generic_rationals(rng, parts)
        perm = list(range(parts))
        rng.shuffle(perm)
        ok = True
        for lam in pt.partitions_in_box(box, parts):
            a = gr.groth_det(lam, zs, beta)
            b = gr.groth_det(lam, [zs[i] for i in perm], beta)
            if a != b:
                ok = False
                break
        yield _res(f"groth.symmetry.{d}", ok, beta=rat_str(beta))

        ok = all(
            gr.groth_det(lam, zs, Fraction(0)) == gr.schur_det(lam, zs)
            for lam in pt.partitions_in_box(box, parts)
        )
        yield _res(f"groth.schur-limit.{d}", ok)

    beta = generic_beta(rng)
    many = generic_rationals(rng, parts + 1)
    ok = True
    witness = None
    for mu in pt.partitions_in_box(box, parts + 1):
        lhs = gr.groth_det(mu, many, beta)
        rhs = sum(
            gr.skew_single(mu, lam, many[-1], beta)
            * gr.groth_det(lam, many[:-1], beta)
            for lam in pt.interlacing_below(mu)
        )
        if lhs != rhs:
            ok = False
            witness = mu
            break
    yield _res("groth.addition", ok, box=list((box,) * (parts + 1)), witness=witness)

    zs = generic_rationals(rng, parts)
    beta = generic_beta(rng)
    ok = all(
        gr.groth_chain(lam, zs, beta) == gr.groth_det(lam, zs, beta)
        for lam in pt.partitions_in_box(box, parts)
    )
    yield _res("groth.chain", ok)

    beta = generic_beta(rng)
    zs = generic_rationals(rng, 2)
    ws = generic_rationals(rng, 1, start=2)
    ok = True
    for lam in pt.partitions_in_box(2, 3):
        lhs = gr.groth_det(lam, zs + ws, beta)
        rhs = sum(
            gr.skew_multi(lam, nu, zs, beta) * gr.groth_det(nu, ws, beta)
            for nu in pt.partitions_in_box(2, 1)
        )
        if lhs != rhs:
            ok = False
            break
    yield _res("groth.branching", ok)

    n_max, l_max = _pick(scale, (2, 2), (3, 3))
    points = _pick(scale, 2, 5)
    for d in range(points):
        beta = generic_beta(rng)
        for n in range(1, n_max + 1):
            for width in range(l_max + 1):
                zs = generic_rationals(rng, n)
                ws = generic_rationals(rng, n, start=n)
                ok = gr.cauchy_lhs(width, zs, ws, beta) == gr.cauchy_rhs(
                    width, zs, ws, beta
                )
                yield _res(
                    f"groth.cauchy.N{n}.L{width}.{d}", ok, beta=rat_str(beta)
                )

    for d in range(points):
        beta = generic_beta(rng, nonzero=True)
        for n in range(1, n_max + 1):
            for width in range(l_max + 1):
                zs = generic_rationals(rng, n)
                ok = gr.summation_lhs(width, zs, beta) == gr.summation_rhs(
                    width, zs, beta
                )
                yield _res(
                    f"groth.summation.N{n}.L{width}.{d}", ok, beta=rat_str(beta)
                )

    try:
        gr.summation_rhs(1, generic_rationals(rng, 1), Fraction(0))
        yield _res("groth.summation.beta0-rejected", False)
    except ParameterError:
        yield _res("groth.summation.beta0-rejected", True)


# -- five-vertex model --------------------------------------------------------


def _suite_fv(scale: str, rng: random.Random) -> Iterator[CaseResult]:
    draws = _pick(scale, 5, 20)
    for d in range(draws):
        u, v, w = generic_rationals(rng, 3)
        yield _res(f"fv.ybe.{d}", fv.check_ybe(u, v, w))
        beta = generic_beta(rng, nonzero=True)
        yield _res(f"fv.rll.{d}", fv.check_rll(u, v, beta), beta=rat_str(beta))

    m_max = _pick(scale, 5, 7)
    n_max = _pick(scale, 2, 3)
    wf_draws = _pick(scale, 1, 3)
    for d in range(wf_draws):
        beta = generic_beta(rng, nonzero=True)
        for m in range(2, m_max + 1):
            for n in range(0, min(m, n_max) + 1):
                us = generic_rationals(rng, n)
                state = lattice.chain(fv.apply_b, m, us, beta, 0)
                ok = True
                dual_ok = True
                for x in combinations(range(1, m + 1), n):
                    amp = state.get(fv.mask_from_positions(x), Fraction(0))
                    if amp != fv.wavefunction_closed(m, x, us, beta):
                        ok = False
                    if fv.dual_wavefunction_lattice(
                        m, x, us, beta
                    ) != fv.dual_wavefunction_closed(m, x, us, beta):
                        dual_ok = False
                yield _res(f"fv.wavefunction.M{m}.N{n}.{d}", ok, beta=rat_str(beta))
                yield _res(f"fv.wavefunction-dual.M{m}.N{n}.{d}", dual_ok, beta=rat_str(beta))

    m = _pick(scale, 5, 6)
    beta = generic_beta(rng, nonzero=True)
    u = generic_rationals(rng, 1)[0]
    ok_skew = True
    ok_rot = True
    for n in range(0, 3):
        for x in combinations(range(1, m + 1), n):
            lam = pt.partition_from_positions(x)
            image = fv.apply_b(m, u, beta, {fv.mask_from_positions(x): Fraction(1)})
            for y in combinations(range(1, m + 1), n + 1):
                mu = pt.partition_from_positions(y)
                got = fv.skew_matrix_element(m, y, x, u, beta)
                z = fv.spectral_map(u, beta)
                want = (
                    gr.skew_single(mu, lam, z, beta)
                    if len(mu) == len(lam) + 1
                    else None
                )
                if want is not None and got != want:
                    ok_skew = False
                amp = image.get(fv.mask_from_positions(y), Fraction(0))
                xr = pt.reversed_positions(x, m)
                yr = pt.reversed_positions(y, m)
                rot = fv.apply_c(m, u, beta, {fv.mask_from_positions(yr): Fraction(1)})
                if rot.get(fv.mask_from_positions(xr), Fraction(0)) != amp:
                    ok_rot = False
    yield _res(f"fv.skew.M{m}", ok_skew, beta=rat_str(beta))
    yield _res(f"fv.skew-rotation.M{m}", ok_rot, beta=rat_str(beta))

    m_max = _pick(scale, 4, 6)
    beta = generic_beta(rng, nonzero=True)
    u, v = generic_rationals(rng, 2)
    chains = [(m, mask) for m in range(2, m_max + 1) for mask in range(1 << m)]
    ok = _b_commute(fv.apply_b, chains, u, v, beta)
    yield _res("fv.b-commute", ok, beta=rat_str(beta))

    m_tr = _pick(scale, 3, 4)
    beta = generic_beta(rng, nonzero=True)
    ok = _transfer_commute(fv.transfer_matrix, m_tr, range(m_tr + 1), beta)
    yield _res("fv.transfer-commute", ok, beta=rat_str(beta))

    betas = _pick(scale, (Fraction(-1),), (Fraction(-1), Fraction(-4), Fraction(-1, 4)))
    m_ham = _pick(scale, 4, 6)
    for beta in betas:
        ok = True
        try:
            for m in range(2, m_ham + 1):
                fv.hamiltonian(m, beta)
        except ArithmeticError:
            ok = False
        yield _res(f"fv.hamiltonian.beta={beta}", ok)

    h = fv.hamiltonian_direct(m_ham, Fraction(-1))
    dim = 1 << m_ham
    col_ok = all(
        sum(h.entry(r, c) for r in range(dim)) == 0 for c in range(dim)
    )
    off_ok = all(
        h.entry(r, c) in (Fraction(0), Fraction(1))
        for r in range(dim)
        for c in range(dim)
        if r != c
    )
    yield _res("fv.tasep-structure", col_ok and off_ok)


# -- phase model --------------------------------------------------------------


def _suite_pm(scale: str, rng: random.Random) -> Iterator[CaseResult]:
    cap = _pick(scale, 3, 4)
    draws = _pick(scale, 3, 10)
    for d in range(draws):
        u, v = generic_rationals(rng, 2)
        beta = generic_beta(rng)
        yield _res(
            f"pm.rll.cap{cap}.{d}",
            pm.check_rll_phase(u, v, beta, cap),
            beta=rat_str(beta),
        )

    m_max = _pick(scale, 4, 5)
    n_max = _pick(scale, 2, 3)
    wf_draws = _pick(scale, 1, 3)
    for d in range(wf_draws):
        beta = generic_beta(rng)
        for m in range(2, m_max + 1):
            for n in range(0, n_max + 1):
                vs = generic_rationals(rng, n)
                state = lattice.chain(pm.apply_b_phase, m, vs, beta, pm.vacuum_occupation(m))
                ok = True
                dual_ok = True
                for occ in pm.sector_basis(m, n):
                    amp = state.get(occ, Fraction(0))
                    if amp != pm.wavefunction_phase_closed(m, occ, vs, beta):
                        ok = False
                    if pm.dual_wavefunction_phase_lattice(
                        m, occ, vs, beta
                    ) != pm.dual_wavefunction_phase_closed(m, occ, vs, beta):
                        dual_ok = False
                yield _res(f"pm.wavefunction.M{m}.N{n}.{d}", ok, beta=rat_str(beta))
                yield _res(f"pm.wavefunction-dual.M{m}.N{n}.{d}", dual_ok, beta=rat_str(beta))

    m_sk = _pick(scale, 4, 5)
    n_sk = _pick(scale, 2, 3)
    beta = generic_beta(rng)
    v = generic_rationals(rng, 1)[0]
    ok_skew = True
    ok_support = True
    for n in range(0, n_sk + 1):
        for lower in pm.sector_basis(m_sk, n):
            image = pm.apply_b_phase(m_sk, v, beta, {lower: Fraction(1)})
            for upper in pm.sector_basis(m_sk, n + 1):
                amp = image.get(upper, Fraction(0))
                if pt.admissible(upper, lower) != (amp != 0):
                    ok_support = False
                lam = pt.partition_from_occupation(lower)
                mu = pt.partition_from_occupation(upper)
                z = pm.spectral_map_phase(v, beta)
                want = gr.skew_single(mu, lam, z, beta)
                norm = (1 / v - beta * v) ** (m_sk - 1)
                if amp != norm * want:
                    ok_skew = False
    yield _res(f"pm.skew-element.M{m_sk}", ok_skew, beta=rat_str(beta))
    yield _res(f"pm.skew-support.M{m_sk}", ok_support, beta=rat_str(beta))

    m_sc = _pick(scale, 3, 4)
    points = _pick(scale, 2, 5)
    for d in range(points):
        beta = generic_beta(rng)
        for n in (1, 2):
            us = generic_rationals(rng, n)
            vs = generic_rationals(rng, n, start=n)
            for m in range(2, m_sc + 1):
                det = pm.scalar_product(m, us, vs, beta)
                brute = pm.scalar_product_bruteforce(m, us, vs, beta)
                yield _res(
                    f"pm.scalar.M{m}.N{n}.{d}", det == brute, beta=rat_str(beta)
                )

    for d in range(points):
        beta = generic_beta(rng, nonzero=True)
        for n in (1, 2):
            vs = generic_rationals(rng, n)
            for m in range(2, m_sc + 1):
                det = pm.summation_wavefunctions(m, vs, beta)
                brute = pm.summation_wavefunctions_bruteforce(m, vs, beta)
                yield _res(
                    f"pm.sum.M{m}.N{n}.{d}", det == brute, beta=rat_str(beta)
                )
    try:
        pm.summation_wavefunctions(2, generic_rationals(rng, 1), Fraction(0))
        yield _res("pm.sum.beta0-rejected", False)
    except ParameterError:
        yield _res("pm.sum.beta0-rejected", True)

    for beta in (Fraction(0), Fraction(-1), Fraction(1, 2)):
        ok = True
        try:
            for m in (2, 3):
                for n in (1, 2):
                    pm.hamiltonian_phase(m, n, beta)
        except ArithmeticError:
            ok = False
        yield _res(f"pm.hamiltonian.beta={beta}", ok)

    beta = generic_beta(rng)
    u, v = generic_rationals(rng, 2)
    chains = [(m, occ) for m in (2, 3) for n in (0, 1, 2) for occ in pm.sector_basis(m, n)]
    ok = _b_commute(pm.apply_b_phase, chains, u, v, beta)
    yield _res("pm.b-commute", ok, beta=rat_str(beta))

    m_tr = _pick(scale, 3, 4)
    beta = generic_beta(rng)
    ok = _transfer_commute(pm.transfer_matrix_phase, m_tr, range(3), beta)
    yield _res("pm.transfer-commute", ok, beta=rat_str(beta))

    ms = _pick(scale, (2, 3), (2, 3, 4))
    for m in ms:
        for beta in (Fraction(0), Fraction(-1), Fraction(1, 2)):
            rep = pm.bethe_verify_n1(m, beta)
            ok = rep["max_residual"] < 1e-10 and rep["checked"] + rep["skipped"] == m
            yield _res(
                f"pm.bethe.M{m}.beta={beta}",
                ok,
                max_residual=rep["max_residual"],
                skipped=rep["skipped"],
            )


# -- melting crystal ----------------------------------------------------------


def _suite_mc(scale: str, rng: random.Random) -> Iterator[CaseResult]:
    n_max, l_max = _pick(scale, (2, 2), (3, 3))
    qs = _pick(scale, (Fraction(1, 2),), (Fraction(1, 2), Fraction(1, 3), Fraction(2, 5)))
    betas = _pick(
        scale,
        (Fraction(0), Fraction(-1)),
        (Fraction(0), Fraction(-1), Fraction(1), Fraction(1, 2)),
    )
    for n in range(1, n_max + 1):
        for height in range(1, l_max + 1):
            for q in qs:
                for beta in betas:
                    brute = mc.z_box_bruteforce(n, height, q, beta)
                    det = mc.z_box_det(n, height, q, beta)
                    ok = brute == det
                    if beta == 0:
                        ok = ok and det == mc.z_box_beta0(n, n, height, q)
                    yield _res(
                        f"mc.zbox.N{n}.L{height}.q={q}.beta={beta}", ok
                    )

    box = _pick(scale, 2, 3)
    ok = all(
        mc.weight_phi(pi, Fraction(1, 2), Fraction(0), box) == 1
        for pi in pt.enumerate_boxed(box, box, box)
    )
    yield _res(f"mc.phi-beta0.box{box}", ok)

    ok = (
        pt.count_boxed(2, 2, 2) == 20
        and pt.count_boxed(2, 2, 2) == sum(1 for _ in pt.enumerate_boxed(2, 2, 2))
        and pt.count_boxed(2, 3, 2) == pt.count_boxed(3, 2, 2)
    )
    yield _res("mc.counts", ok)

    d_free = _pick(scale, 4, 5)
    zi = mc.z_infinite(Fraction(0), d_free)
    counts = [sum(1 for _ in pt.plane_partitions_of_size(k)) for k in range(d_free + 1)]
    yield _res(
        "mc.series-beta0",
        list(zi.coeffs) == [Fraction(c) for c in counts],
        counts=counts,
    )
    d_euler = _pick(scale, 5, 7)
    ze = mc.z_infinite(Fraction(-1), d_euler)
    pcounts = [sum(1 for _ in pt.partitions_of_size(k)) for k in range(d_euler + 1)]
    yield _res(
        "mc.series-euler",
        list(ze.coeffs) == [Fraction(c) for c in pcounts],
        counts=pcounts,
    )

    d_pos = _pick(scale, 8, 15)
    ok = True
    for beta in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)):
        if any(c < 0 for c in mc.z_infinite(beta, d_pos).coeffs):
            ok = False
    yield _res(f"mc.series-positivity.order{d_pos}", ok)

    d_lim = _pick(scale, 3, 5)
    for beta in (Fraction(0), Fraction(-1), Fraction(1, 2)):
        try:
            s = mc.z_box_series_limit(beta, d_lim)
            ok = s == mc.z_infinite(beta, d_lim)
        except ArithmeticError:
            ok = False
        yield _res(f"mc.box-limit.beta={beta}", ok)

    d_stab = _pick(scale, 4, 6)
    n_stab = _pick(scale, 3, 5)
    for beta in (Fraction(0), Fraction(-1), Fraction(1, 2)):
        zi = mc.z_infinite(beta, d_stab)
        ok = True
        for n in range(1, n_stab + 1):
            s = mc.z_box_det_series(n, n, beta, d_stab)
            if any(s.coeff(k) != zi.coeff(k) for k in range(min(n, d_stab) + 1)):
                ok = False
        yield _res(f"mc.stabilization.beta={beta}", ok)

    d_red = _pick(scale, 10, 20)
    qser = TruncatedSeries.indeterminate(d_red)
    ok = all(
        mc.z_box_det_series(n, n, Fraction(0), d_red)
        == mc.z_box_beta0(n, n, n, qser)
        for n in (1, 2, 3)
    )
    yield _res(f"mc.det-product-series.order{d_red}", ok)

    boxes = list(pt.enumerate_boxed(3, 3, 3))
    ok = True
    for _ in range(_pick(scale, 10, 50)):
        pi = boxes[rng.randrange(len(boxes))]
        slices = pt.all_diagonal_slices(pi)
        if slices:
            lo = min(slices)
            hi = max(slices)
            ordered = [slices.get(m_idx, ()) for m_idx in range(lo, hi + 1)]
            if pt.assemble_from_slices(ordered, lo) != pi:
                ok = False
            for m_idx in range(lo, hi):
                cur = slices.get(m_idx, ())
                nxt = slices.get(m_idx + 1, ())
                good = (
                    pt.interlaces(cur, nxt) if m_idx >= 0 else pt.interlaces(nxt, cur)
                )
                if not good:
                    ok = False
        elif pi != ():
            ok = False
    yield _res("mc.slice-roundtrip", ok)

    s_vals = {b: mc.entropy(1.0, 1.0, b) for b in (-1.0, 0.0, 1.0)}
    yield _res(
        "mc.entropy-monotone",
        s_vals[1.0] > s_vals[0.0] > s_vals[-1.0],
        values={str(k): v for k, v in s_vals.items()},
    )
    ok = all(
        mc.entropy_consistency(1.0, 1.0, b) < 1e-6 for b in (-1.0, 0.0, 1.0)
    )
    yield _res("mc.entropy-consistency", ok)
    ok = all(abs(mc.entropy(1.0, 0.05, b)) < 1e-6 for b in (-1.0, 0.0, 1.0))
    yield _res("mc.entropy-freeze", ok)
    try:
        mc.entropy(1.0, 1.0, -1.5)
        yield _res("mc.entropy-domain", False)
    except ParameterError:
        yield _res("mc.entropy-domain", True)


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


def _suite_sv6(scale: str, rng: random.Random) -> Iterator[CaseResult]:
    for beta in (Fraction(-1), Fraction(2), Fraction(-1, 3)):
        p = sv.five_vertex_params(beta)
        ok = all(
            sv.l_six(u, p) == fv.l_matrix(u, beta)
            for u in generic_rationals(rng, 2)
        )
        yield _res(f"sv6.five-vertex-reduction.beta={beta}", ok)

    u, v = generic_rationals(rng, 2)
    yield _res("sv6.r-at-t0", sv.r_six(u, v, Fraction(0)) == fv.r_matrix(u, v))

    t = Fraction(1, 2)
    p = sv.intertwiner_params(t)
    want = sv.r_six(u, Fraction(1), t).scale((u * u - 1) / u)
    yield _res("sv6.l-is-intertwiner", sv.l_six(u, p) == want)

    draws = _pick(scale, 3, 10)
    for d in range(draws):
        p = _random_six_params(rng)
        uu, vv = generic_rationals(rng, 2)
        yield _res(f"sv6.rll.{d}", sv.check_rll_six(uu, vv, p))
        ok = sv.check_rll_six(uu, vv, sv.five_vertex_params(generic_beta(rng, nonzero=True)))
        yield _res(f"sv6.rll-five.{d}", ok)

    try:
        sv.SixVertexParams(1, 1, 2, 1, Fraction(-1, 2), Fraction(-1, 3), Fraction(1, 2))
        yield _res("sv6.constraint-rejected", False)
    except ParameterError:
        yield _res("sv6.constraint-rejected", True)


SUITES: dict[str, Callable[[str, random.Random], Iterator[CaseResult]]] = {
    "groth": _suite_groth,
    "fv": _suite_fv,
    "pm": _suite_pm,
    "mc": _suite_mc,
    "sv6": _suite_sv6,
}


def run_suite(
    name: str, scale: str = "small", seed: int = 1, tags: str | None = None
) -> SuiteReport:
    """Run one suite (or "all"); `tags` restricts cases by name substring."""
    if name != "all" and name not in SUITES:
        raise ParameterError(f"unknown suite {name!r}")
    if scale not in ("small", "full"):
        raise ParameterError("scale must be 'small' or 'full'")
    start = time.perf_counter()
    cases = 0
    failures = []
    for sub in SUITES if name == "all" else (name,):
        rng = random.Random(f"{sub}:{seed}")
        for result in SUITES[sub](scale, rng):
            if tags is not None and tags not in result.name:
                continue
            cases += 1
            if not result.ok:
                failures.append({"case": result.name, **_stringify(result.detail)})
    return SuiteReport(name, scale, seed, cases, failures, time.perf_counter() - start)


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
