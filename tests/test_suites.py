import hashlib
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import oracles
import pytest
from oracles import outcome
from hypothesis import given, settings
from hypothesis import strategies as st

import grothcrystal
from grothcrystal import fivevertex as fv
from grothcrystal import grothendieck, lattice, meltingcrystal, partitions, suites, workqueue
from grothcrystal import phasemodel as pm
from grothcrystal.cli import main
from grothcrystal.errors import ParameterError
from grothcrystal.exactcore import LaurentPoly
from grothcrystal.suites import SUITES, run_suite, run_suites

# (suite, scale) -> (case count, sha256 of the case names one per line, then
# repr(rng.getstate()) once the generator is exhausted), at seed 1
DRAW_STREAM = {
    ("groth", "small"): (32, "b38060b76930cb0d479174c86a65ffd0b48a2e6fe07da1a664c8346a2a6defdc"),
    ("fv", "small"): (40, "d1d6c606fd7025a35204db41bbb05db260ffb229719def0201d01ebd67cc1e1b"),
    ("pm", "small"): (51, "5db580cbada12a8f031db46e480923354c5f5e30d59c3628e2108f90049625b7"),
    ("mc", "small"): (25, "d32618a9d5ec8ea7c42acdc3efd71bcfa0f6ab4b985f240f3494ba67e4d80f1e"),
    ("sv6", "small"): (12, "031dd1229c6b84cb74761affdd58a82b946d5bf36bfff7e59a1298eafdb0bbcc"),
    ("groth", "full"): (130, "1b811c73ce4f778e60dc2c058a324d96fef2056ab5ecb2c0559a38b0f08ab561"),
    ("fv", "full"): (186, "e80b7fcf5cb0a12554e183660583c7e6cf7401434d7ec79b00845b47ce334304"),
    ("pm", "full"): (183, "b95cf945d00ecd22c3e5f4c166bd1d03cfc2c3bfc0c0d2397bc4d522a828c0c5"),
    ("mc", "full"): (125, "60110fc75d1c9235731888d2201cd9809b9ba300efb765866ce21f6e3ff40a5d"),
    ("sv6", "full"): (26, "c3cc3daccecade5a1de7c78b98b07d4562b366e0611ec262b50532d4cd12ee52"),
}

# sha256 of the stdout of `--json --seed 1 verify all --scale small`
VERIFY_SMALL_SEED1 = "65513ba76eb08ce49f20b78933797560939266428d326ed2682251434b1d6111"
# sha256 of the stdout of `--json --seed 7 verify all --scale small`
VERIFY_SMALL_SEED7 = "ba54c9e2dcf204bc1d5c6045fa8ab32a42e4ba45cfd2499142947efdc7b946b9"
# sha256 of the stdout of `--json --seed 1 verify all --scale full`
VERIFY_FULL_SEED1 = "ddc012d12b083f4219c6440102a8b36ec63b97accfa1417f1adf2c99b4f1d3c8"
# sha256 of the stdout of `--json --seed 7 verify all --scale full`
VERIFY_FULL_SEED7 = "25af52eab9f2941a30926fcb6134eef0e6efa4927f4074a324ae44e655874689"


def _raise_zero_division(*args, **kwargs):
    raise ZeroDivisionError("injected")


def test_run_all_aggregates_every_suite():
    # one run of every suite reports each suite as its own run does
    reports = run_suites(list(SUITES), "small", 1)
    per_suite = [run_suite(name, "small", 1) for name in SUITES]
    assert [r.to_json() for r in reports] == [r.to_json() for r in per_suite]
    assert all(r.ok and r.wall_time > 0.0 for r in reports)


# (suite, tag) of each tag-filtered query the acceptance criteria make
ACCEPTANCE_TAGS = [
    ("fv", "fv.wavefunction"),
    ("groth", "groth.cauchy"),
    ("groth", "groth.summation"),
    ("groth", "groth.addition"),
    ("groth", "groth.chain"),
    ("groth", "groth.branching"),
    ("pm", "pm.bethe"),
    ("mc", "mc.entropy"),
]


@pytest.mark.parametrize(
    "name, scale, tags",
    [(name, "small", None) for name in SUITES] + [(name, "full", tag) for name, tag in ACCEPTANCE_TAGS],
)
def test_run_suite_is_run_suites_of_one(name, scale, tags):
    got = run_suite(name, scale, 7, tags)
    (want,) = run_suites([name], scale, 7, tags)
    assert got.to_json() == want.to_json()
    assert got.processes == want.processes


def test_run_suite_has_no_merged_all():
    with pytest.raises(ParameterError, match="^unknown suite 'all'$"):
        run_suite("all", "small", 1)


def test_report_json_is_seed_stable():
    # wall time varies run to run, so it is kept off the JSON payload
    rep = run_suite("sv6", "small", 3)
    payload = rep.to_json()
    assert "wall_time" not in payload
    assert payload == run_suite("sv6", "small", 3).to_json()


def test_tag_filter_restricts_cases():
    filtered = run_suite("fv", "small", 1, tags="fv.ybe")
    assert filtered.ok and filtered.cases > 0
    assert filtered.cases < run_suite("fv", "small", 1).cases


def test_unknown_suite_and_scale_rejected():
    with pytest.raises(ParameterError):
        run_suite("nosuch")
    with pytest.raises(ParameterError):
        run_suite("fv", scale="medium")


@pytest.mark.parametrize("scale", ["small", "full"])
def test_draw_stream_is_pinned(scale):
    # generating the cases makes every draw and runs no check
    for name, suite in SUITES.items():
        rng = random.Random(f"{name}:1")
        names = [case.name for case in suite(scale, rng)]
        text = "\n".join(names) + "\n" + repr(rng.getstate())
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert (len(names), digest) == DRAW_STREAM[name, scale], name


# (suite, scale, case, (lower, upper) pairs the case decides)
SKEW_CASES = [
    ("fv", "small", "fv.skew.M5", 155),
    ("fv", "small", "fv.skew-rotation.M5", 155),
    ("fv", "full", "fv.skew.M6", 396),
    ("fv", "full", "fv.skew-rotation.M6", 396),
    ("pm", "small", "pm.skew-element.M4", 244),
    ("pm", "small", "pm.skew-support.M4", 244),
    ("pm", "full", "pm.skew-element.M5", 3055),
    ("pm", "full", "pm.skew-support.M5", 3055),
]
# (suite, M sites) -> the lower states of 0..n_max particles, n_max = 2 but 3
# at pm M5: 1 + 5 + 10, 1 + 6 + 15, 1 + 4 + 10 and 1 + 5 + 15 + 35
SKEW_LOWERS = {("fv", 5): 16, ("fv", 6): 22, ("pm", 4): 15, ("pm", 5): 56}


@pytest.mark.parametrize("suite, scale, case, count", SKEW_CASES)
def test_skew_cases_visit_every_pair(monkeypatch, suite, scale, case, count):
    """B is applied once per lower state, and each image is checked against
    the whole upper sector: the lowers' pairs with it number `count`."""
    model = fv.MODEL if suite == "fv" else pm.MODEL
    lowers = []
    real = lattice.apply_b

    def counting(model, m, p, beta, state):
        lowers.extend(state)
        return real(model, m, p, beta, state)

    monkeypatch.setattr(lattice, "apply_b", counting)
    rep = run_suite(suite, scale, 1, tags=case)  # one case: it runs in this process
    assert rep.cases == 1 and rep.ok
    m = len(lowers[0])
    assert len(lowers) == len(set(lowers)) == SKEW_LOWERS[suite, m]
    assert sum(len(model.sector(m, sum(s) + 1)) for s in lowers) == count


@pytest.mark.parametrize(
    "scale, case, states", [("small", "fv.skew-rotation.M5", 25), ("full", "fv.skew-rotation.M6", 41)]
)
def test_skew_rotation_applies_c_once_per_upper_state(monkeypatch, scale, case, states):
    # one call per upper state of 1..3 particles: C(5,1) + C(5,2) + C(5,3) = 25
    # and C(6,1) + C(6,2) + C(6,3) = 41, not one per (lower, upper) pair
    calls = []
    real = lattice.apply_c

    def counting(model, m, u, beta, state):
        calls.append(tuple(state))
        return real(model, m, u, beta, state)

    monkeypatch.setattr(lattice, "apply_c", counting)
    rep = run_suite("fv", scale, 1, tags=case)  # one case: it runs in this process
    assert rep.cases == 1 and rep.ok
    assert len(calls) == len(set(calls)) == states


def _double(image, key):
    image[key] *= 2


def _drop(image, key):
    del image[key]


@pytest.mark.parametrize("alter", [_double, _drop])
@pytest.mark.parametrize("suite, scale, case, count", SKEW_CASES[:2] + SKEW_CASES[4:6])
def test_skew_cases_fail_on_a_wrong_amplitude(monkeypatch, alter, suite, scale, case, count):
    """B's image of the empty state loses or doubles its first amplitude; the
    support check reads only whether an amplitude vanishes, so a doubled one
    passes it."""
    real = lattice.apply_b

    def apply_b(model, m, p, beta, state):
        image = real(model, m, p, beta, state)
        if set(state) == {(0,) * m}:
            alter(image, min(image))
        return image

    monkeypatch.setattr(lattice, "apply_b", apply_b)
    rep = run_suite(suite, scale, 1, tags=case)
    blind = case.startswith("pm.skew-support") and alter is _double
    assert rep.cases == 1
    assert [f["case"] for f in rep.failures] == ([] if blind else [case])
    assert not any("error" in f for f in rep.failures)  # a false verdict, not a crash


def _per_lower_checks(model, m, n_max, p, beta):
    """The element and support verdicts of the skew cases, per lower state."""
    lowers = suites._skew_lowers(model, m, n_max, p, beta)
    return suites._skew_element(model, lowers, m, p, beta), suites._skew_support(lowers)


# (model, M sites, n_max) the per-lower checks are compared with the per-pair route on
SKEW_SIZES = [(fv.MODEL, m, min(2, m - 1)) for m in range(1, 7)] + [(pm.MODEL, m, 3) for m in range(1, 6)]


@pytest.mark.parametrize("beta", suites._BETA_PALETTE + (F(0),))
def test_skew_checks_agree_with_the_per_pair_route(beta):
    p = F(13, 5)
    for model, m, n_max in SKEW_SIZES:
        if model is fv.MODEL and not beta:
            continue  # beta = 0 is outside the five-vertex model's domain
        assert _per_lower_checks(model, m, n_max, p, beta) == (True, True), (m, n_max)
        assert oracles.skew_element_pairwise(model, m, n_max, p, beta), (m, n_max)
        if model is pm.MODEL:
            assert oracles.skew_support_pairwise(model, m, n_max, p, beta), (m, n_max)
        else:
            lowers = suites._skew_lowers(model, m, n_max, p, beta)
            assert suites._skew_rotation(lowers, m, n_max, p, beta), (m, n_max)
            assert oracles.skew_rotation_pairwise(m, n_max, p, beta), (m, n_max)


def _doubled_deposit(model):
    def table(r, s):
        rows, scale = model.table(r, s)
        return (*rows[:4], tuple(2 * c for c in rows[4]), rows[5]), scale

    return model._replace(table=table)


@pytest.mark.parametrize("beta", suites._BETA_PALETTE)
@pytest.mark.parametrize("model, m, n_max", [(fv.MODEL, 6, 2), (pm.MODEL, 5, 3)], ids=["fv", "pm"])
def test_skew_checks_fail_on_each_mutant(monkeypatch, model, m, n_max, beta):
    """A doubled deposit weight scales every amplitude by a power of 2 and
    keeps the support; k off by one scales every value by 1 + beta z != 1;
    an upper dropped from the enumeration leaves its amplitude unmatched."""
    p = F(13, 5)
    assert _per_lower_checks(_doubled_deposit(model), m, n_max, p, beta) == (False, True)
    assert not oracles.skew_element_pairwise(_doubled_deposit(model), m, n_max, p, beta)
    with monkeypatch.context() as patch:
        real = grothendieck._skew_exponents
        patch.setattr(grothendieck, "_skew_exponents", lambda mu, lam: (real(mu, lam)[0], real(mu, lam)[1] + 1))
        assert _per_lower_checks(model, m, n_max, p, beta) == (False, True)
    with monkeypatch.context() as patch:
        real_above = suites.pt.interlacing_above
        patch.setattr(suites.pt, "interlacing_above", lambda lam, top: list(real_above(lam, top))[:-1])
        assert _per_lower_checks(model, m, n_max, p, beta) == (False, False)


@pytest.mark.parametrize("beta", [F(-2, 3), F(3, 2)])
@pytest.mark.parametrize("model, m", [(pm.MODEL, 7), (fv.MODEL, 9)], ids=["pm", "fv"])
def test_skew_checks_reach_past_the_suites(model, m, beta):
    """The element and support checks on lower states of up to 4 particles,
    past the suites' pm M5 and fv M6."""
    assert _per_lower_checks(model, m, 4, F(13, 5), beta) == (True, True)


def test_generating_every_case_runs_no_path_sum(monkeypatch):
    """A filtered query pays for generating every case of its suites, so no
    lattice work may move into generation."""
    monkeypatch.setattr(lattice, "_path_sum", _raise_zero_division)
    for name, suite in SUITES.items():
        assert sum(1 for _ in suite("full", random.Random(f"{name}:1"))) == DRAW_STREAM[name, "full"][0]


def _perturb_first(real):
    def closed_table(*args):
        dets, num, den = real(*args)
        return [dets[0] + 1] + dets[1:], num, den

    return closed_table


def _drop_first(real):
    def lattice_table(*args):
        sums, den = real(*args)
        del sums[min(sums)]
        return sums, den

    return lattice_table


def _shorten(real):
    def closed_table(*args):
        dets, num, den = real(*args)
        return dets[:-1], num, den

    return closed_table


@pytest.mark.parametrize(
    "route, alter",
    [
        ("closed_table", _perturb_first),
        ("lattice_table", _drop_first),
        ("closed_table", _shorten),
    ],
    ids=["perturbed-closed", "dropped-state", "short-closed"],
)
@pytest.mark.parametrize(
    "suite, tag, count", [("fv", "fv.wavefunction.", 12), ("pm", "pm.wavefunction-dual.", 9)]
)
def test_wavefunction_cases_fail_on_one_wrong_amplitude(monkeypatch, route, alter, suite, tag, count):
    """Each wavefunction case compares every state of its sector on the
    integer tables: one closed determinant off by one, or one state missing
    from the lattice side, fails every case, and a closed table one short
    fails it with an error, not a skipped comparison."""
    monkeypatch.setattr(lattice, route, alter(getattr(lattice, route)))
    names = [case.name for case in SUITES[suite]("small", random.Random(f"{suite}:1"))]
    rep = run_suite(suite, "small", 1, tags=tag)
    assert rep.cases == count
    assert [f["case"] for f in rep.failures] == [name for name in names if tag in name]
    errors = [f.get("error", "")[:11] for f in rep.failures]
    assert errors == ["ValueError:" if alter is _shorten else ""] * count


def _off_by_one(real):
    def z_box_det_series(*args):
        return real(*args) + 1

    return z_box_det_series


@pytest.mark.parametrize(
    "suite, tag, module, route, fault",
    [
        ("mc", "mc.slice-roundtrip", partitions, "all_diagonal_slices", lambda real: lambda pi: {}),
        ("mc", "mc.slice-roundtrip", partitions, "assemble_from_slices", lambda real: lambda slices, lo: ()),
        ("mc", "mc.slice-roundtrip", partitions, "interlaces", lambda real: lambda mu, lam: False),
        ("mc", "mc.stabilization.beta=-1", meltingcrystal, "z_box_det_series", _off_by_one),
        ("groth", "groth.summation.beta0-rejected", grothendieck, "summation_rhs", lambda real: lambda *args: F(1)),
    ],
    ids=["no-slices", "misassembled", "not-interlaced", "stabilization", "beta0-accepted"],
)
def test_a_faulty_route_fails_exactly_its_case(monkeypatch, suite, tag, module, route, fault):
    """Each check reports a fault in the route it reads as a failed case, not
    as an error: a plane partition with no slices, one that reassembles
    wrong, slices that do not interlace, a boxed series off by one and a
    closed summation that accepts beta = 0."""
    assert run_suite(suite, "full", 1, tags=tag).ok
    monkeypatch.setattr(module, route, fault(getattr(module, route)))
    report = run_suite(suite, "full", 1, tags=tag)
    assert report.cases == 1 and [f["case"] for f in report.failures] == [tag]
    assert "error" not in report.failures[0]


@st.composite
def sector_points(draw):
    """(model, M, params, beta, dual): up to 5 sites and 3 particles, the
    parameters from a small pool, so that a zero, a repeated or a negated
    parameter, beta = 0 and the phase model's beta*v^2 = 1 all come up."""
    model = draw(st.sampled_from([fv.MODEL, pm.MODEL]))
    m = draw(st.integers(1, 5))
    n = draw(st.integers(0, 3))
    params = draw(st.lists(st.fractions(-3, 3, max_denominator=3), min_size=n, max_size=n))
    beta = draw(st.sampled_from(suites._BETA_PALETTE + (F(0),)))
    return model, m, params, beta, draw(st.booleans())


def _sector_check(model, m, params, beta, dual):
    """The check of the suites' forward or dual wavefunction case."""
    cases = list(suites._wavefunction_cases(model, "t", 0, m, params, beta))
    return cases[dual].check


@settings(derandomize=True, max_examples=300, deadline=None)
@given(sector_points())
def test_sector_checks_are_the_per_state_fraction_route(point):
    """The cross-multiplied integer tables give the verdict, or the refusal,
    of the per-state Fraction comparison."""
    got = outcome(_sector_check(*point))
    assert got == outcome(oracles.sector_agrees_fraction, *point)
    assert got[0] != "value" or got[1] is True


@settings(derandomize=True, max_examples=150, deadline=None)
@given(sector_points(), st.integers(0, 10**6), st.sampled_from([1, -1]))
def test_sector_checks_fail_on_one_closed_determinant_off_by_one(point, pick, step):
    check = _sector_check(*point)
    if outcome(check) != ("value", True) or not point[0].sector(point[1], len(point[2])):
        return
    real = lattice.closed_table

    def off(*args):
        dets, num, den = real(*args)
        dets[pick % len(dets)] += step
        return dets, num, den

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lattice, "closed_table", off)
        assert check() is False


def test_generic_rationals_are_the_sum_of_a_prime_and_a_fraction():
    """Each draw is one Fraction now; its value and the draws it takes from
    the generator are those of the two-Fraction sum."""
    for seed in range(250):
        for count, start in [(0, 0), (1, 0), (2, 2), (3, 5), (4, 12), (16, 0), (1, 16)]:
            rng, ref = random.Random(seed), random.Random(seed)
            assert outcome(suites.generic_rationals, rng, count, start) == outcome(
                oracles.generic_rationals_sum, ref, count, start
            )
            assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize(
    "side, tag", [(True, "pm.scalar"), (False, "pm.sum")], ids=["dual-pm.scalar", "forward-pm.sum"]
)
def test_pairing_cases_read_the_lattice(monkeypatch, side, tag):
    """pm.scalar pairs a dual wavefunction table with a forward one and pm.sum
    sums a forward one, so a table of that side with every amplitude doubled
    fails every case that reads one; pm.sum.beta0-rejected reads none."""
    real = lattice.lattice_amplitudes

    def doubled(model, m, ps, beta, dual=False):
        table = real(model, m, ps, beta, dual)
        return {s: 2 * c for s, c in table.items()} if dual == side else table

    monkeypatch.setattr(lattice, "lattice_amplitudes", doubled)
    names = [case.name for case in SUITES["pm"]("small", random.Random("pm:1")) if tag in case.name]
    reading = [name for name in names if name.startswith(f"{tag}.M")]
    rep = run_suite("pm", "small", 1, tags=tag)
    assert rep.cases == len(names) and len(reading) == 8
    assert [f["case"] for f in rep.failures] == reading
    assert not any("error" in f for f in rep.failures)  # a false verdict, not a crash


def test_symmetry_cases_read_the_chain_sum(monkeypatch):
    """groth.symmetry evaluates its permuted side as a chain sum, so a chain
    sum that weights the k-th variable by k + 1 fails every case."""
    real = grothendieck.groth_chain

    def ordered(lam, zs, beta):
        return real(lam, [z * (k + 1) for k, z in enumerate(zs)], beta)

    monkeypatch.setattr(grothendieck, "groth_chain", ordered)
    rep = run_suite("groth", "small", 1, tags="groth.symmetry")
    assert rep.cases == 2
    assert [f["case"] for f in rep.failures] == ["groth.symmetry.0", "groth.symmetry.1"]


def test_shape_cases_take_their_determinants_from_one_batch(monkeypatch):
    """groth.symmetry, groth.schur-limit and groth.chain each take G_lam for
    every shape of the box from one `groth_dets` call, none from `groth_det`."""
    real, calls = grothendieck.groth_dets, []

    def batch(shapes, zs, beta):
        calls.append(len(shapes))
        return real(shapes, zs, beta)

    def one(*args):
        raise AssertionError("a shape case took one determinant at a time")

    monkeypatch.setattr(grothendieck, "groth_dets", batch)
    monkeypatch.setattr(grothendieck, "groth_det", one)
    names = ("groth.symmetry", "groth.schur-limit", "groth.chain")
    for scale, cases, shapes in (("small", 5, 6), ("full", 7, 20)):
        kept = [c for c in SUITES["groth"](scale, random.Random("groth:1")) if c.name.startswith(names)]
        assert len(kept) == cases
        for case in kept:
            calls.clear()
            assert case.check() is True
            assert calls == [shapes], case.name


def _noncommuting_table(r, s):
    """The weight table of (p, p + 1/2, 2p + 1/3, -p, 1/p, p + beta), six
    weights at which B(u) and B(v) do not commute on either chain."""
    return ((0, 0, 6 * s), (0, 3 * s, 6 * s), (0, 2 * s, 12 * s), (0, 0, -6 * s), (6 * s, 0, 0), (0, 6 * r, 6 * s)), 6 * s


@pytest.mark.parametrize("model", [fv.MODEL, pm.MODEL], ids=["fv", "pm"])
def test_b_commute_fails_on_weights_that_do_not_commute(model):
    """The integer route compares B(u)B(v) with B(v)B(u) over their shared
    denominator; sector by sector its verdict is the one of the route that
    builds every amplitude after every B, and it fails the broken weights."""
    u, v, beta = F(7, 5), F(3), F(-1, 2)
    sectors = [(m, n) for m in (2, 3, 4) for n in range(4) if model.capacity is None or n <= m]
    verdicts = {}
    for table in (model.table, _noncommuting_table):
        at = model._replace(table=table)
        for m, n in sectors:

            def b_b(first, second, s):
                return lattice.apply_b(at, m, second, beta, lattice.apply_b(at, m, first, beta, {s: 1}))

            stepwise = all(b_b(u, v, s) == b_b(v, u, s) for s in at.sector(m, n))
            assert suites._b_commute(at, [(m, n)], u, v, beta) == stepwise, (m, n)
        verdicts[table] = suites._b_commute(at, sectors, u, v, beta)
    assert verdicts == {model.table: True, _noncommuting_table: False}


def test_addition_and_branching_cases_read_the_skew_factors(monkeypatch):
    """groth.addition names the first shape whose two sides differ, and
    groth.branching fails when the chain sum does."""
    real_single, real_multi = grothendieck.skew_single, grothendieck.skew_multi

    def single(mu, lam, z, beta):
        return real_single(mu, lam, z, beta) * (2 if sum(mu) >= 3 else 1)

    monkeypatch.setattr(grothendieck, "skew_single", single)
    monkeypatch.setattr(grothendieck, "skew_multi", lambda *args: 2 * real_multi(*args))
    for seed in (1, 7):
        rep = run_suite("groth", "small", seed, tags="groth.addition")
        assert rep.failures == [{"case": "groth.addition", "box": [2, 2, 2], "witness": [1, 1, 1]}]
        rep = run_suite("groth", "full", seed, tags="groth.branching")
        assert rep.failures == [{"case": "groth.branching"}]
    monkeypatch.setattr(grothendieck, "skew_single", real_single)
    monkeypatch.setattr(grothendieck, "skew_multi", real_multi)
    assert run_suite("groth", "full", 1, tags="groth.addition").failures == []


def test_raising_check_is_a_failure_record(monkeypatch, capsys):
    cases = run_suite("mc", "small", 1).cases
    names = [case.name for case in SUITES["mc"]("small", random.Random("mc:1"))]
    zbox = [name for name in names if name.startswith("mc.zbox.")]
    monkeypatch.setattr(meltingcrystal, "z_box_det", _raise_zero_division)
    rep = run_suite("mc", "small", 1)
    assert rep.cases == cases == len(names)
    # every z_box_det case fails with the exception named; the other cases pass
    assert len(zbox) == 8
    assert [f["case"] for f in rep.failures] == zbox
    assert all(f["error"] == "ZeroDivisionError: injected" for f in rep.failures)
    assert main(["verify", "mc"]) == 1
    assert "FAIL mc.zbox.N1.L1" in capsys.readouterr().out


def test_tag_filter_runs_no_other_check(monkeypatch):
    for fn in ("z_box_det", "z_box_bruteforce", "z_box_det_series"):
        monkeypatch.setattr(meltingcrystal, fn, _raise_zero_division)
    rep = run_suite("mc", "full", 1, tags="mc.entropy")
    assert rep.cases == 4
    assert rep.failures == []


def test_verify_all_small_stdout_is_pinned(capsys):
    code = main(["--json", "--seed", "1", "verify", "all", "--scale", "small"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SMALL_SEED1


def test_verify_all_small_seed7_stdout_is_pinned(capsys):
    code = main(["--json", "--seed", "7", "verify", "all", "--scale", "small"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SMALL_SEED7


def test_verify_all_full_stdout_is_pinned(capsys):
    code = main(["--json", "--seed", "1", "verify", "all", "--scale", "full"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FULL_SEED1


def test_verify_all_full_seed7_stdout_is_pinned(capsys):
    code = main(["--json", "--seed", "7", "verify", "all", "--scale", "full"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_FULL_SEED7


def _laurent_rows(table) -> list[list]:
    """A transfer table as rows of Laurent polynomials, coefficient k at u^k."""
    return [[LaurentPoly(dict(enumerate(c))) for c in row] for row in table]


@pytest.mark.parametrize(
    "exponents",
    [lambda exps: [max(exps)], lambda exps: [max(exps) + 1], lambda exps: [min(exps), min(exps) - 1]],
    ids=["present-exponent", "new-exponent", "lowest-exponents"],
)
@pytest.mark.parametrize("suite", ["fv", "pm"])
def test_transfer_commute_fails_on_a_perturbed_matrix(monkeypatch, suite, exponents):
    """u^e added to one off-diagonal entry of each transfer table of two or
    more states, for e its top exponent, one above it, or both its lowest
    and one below, fails the case at both scales; on every sector the
    coefficient-matrix check agrees with the pointwise commutator over the
    Laurent polynomials of the table, perturbed or not, and the table is
    (u scale)^M T(u) of the ring-generic Laurent transfer matrix.  (A table
    holds u^0 up; an exponent below that shifts every entry up alike, which
    keeps what commutes.  On fv's sectors one particle short of full, a
    perturbation at the lowest exponent alone still commutes: the only other
    coefficient there is scalar.  So the lowest input adds u^e one below as
    well.)"""
    name = f"{suite}.transfer-commute"
    real = lattice.transfer_table

    def perturbed(*args):
        table = real(*args)
        if len(table) < 2:
            return table
        add = exponents({k for row in table for c in row for k, x in enumerate(c) if x})
        low = max(0, -min(add))
        top = max(max(add) + 1, len(table[0][0])) + low
        table = [[(0,) * low + c + (0,) * (top - low - len(c)) for c in row] for row in table]
        entry = list(table[0][1])
        for e in add:
            entry[e + low] += 1
        table[0][1] = tuple(entry)
        return table

    for scale in ("small", "full"):
        (case,) = [c for c in SUITES[suite](scale, random.Random(f"{suite}:1")) if c.name == name]
        model, m, sectors, beta = case.check.args
        rows, den = model.table_at(beta)
        for patched in (False, True):
            with monkeypatch.context() as mp:
                if patched:
                    mp.setattr(lattice, "transfer_table", perturbed)
                assert case.check() is not patched
                for n in sectors:
                    table = lattice.transfer_table(model, m, n, rows, 2 * m)
                    t_sym = _laurent_rows(table)
                    verdict = suites._transfer_commute(model, m, [n], beta)
                    assert verdict == oracles.transfer_commute_pointwise(t_sym, m)
                    assert verdict is not (patched and len(t_sym) > 1)
                    if not patched:
                        factor = LaurentPoly({1: den}) ** m
                        generic = lattice.transfer_matrix(model, m, n, LaurentPoly.var(), beta)
                        assert t_sym == [[factor * p for p in row] for row in generic]


# -- cases shared out over forked processes -------------------------------------


def _use_cpus(monkeypatch, count):
    monkeypatch.setattr(suites, "_usable_cpus", lambda: count)


def _reports(monkeypatch, queries):
    """{process count: [to_json() of each query]} for 1, 2 and 3 processes."""
    out = {}
    for procs in (1, 2, 3):
        _use_cpus(monkeypatch, procs)
        out[procs] = [run_suite(*query).to_json() for query in queries]
    return out


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_process_count_does_not_change_the_report(monkeypatch, seed):
    queries = [(name, "small", seed) for name in SUITES] + [("pm", "small", seed, "pm.scalar")]
    reports = _reports(monkeypatch, queries)
    assert reports[1] == reports[2] == reports[3]
    assert reports[1][-1]["cases"] == 8
    # one queue for every suite gives each suite's own report, whole and filtered
    for procs in (1, 2, 3):
        _use_cpus(monkeypatch, procs)
        for tags in (None, "rll"):
            together = [rep.to_json() for rep in run_suites(list(SUITES), "small", seed, tags)]
            assert together == [run_suite(name, "small", seed, tags).to_json() for name in SUITES]
        assert [rep["suite"] for rep in together if rep["cases"]] == ["fv", "pm", "sv6"]
    _assert_no_child_left()


def test_failures_keep_case_order_across_processes(monkeypatch):
    # forked workers inherit the patches: raising and false checks, in every share
    monkeypatch.setattr(meltingcrystal, "z_box_det", _raise_zero_division)
    monkeypatch.setattr(grothendieck, "cauchy_rhs", lambda *args: 0)
    reports = _reports(monkeypatch, [("mc", "small", 1), ("groth", "small", 2)])
    assert reports[1] == reports[2] == reports[3]
    mc_rep, groth_rep = reports[1]
    zbox = [c.name for c in SUITES["mc"]("small", random.Random("mc:1")) if ".zbox." in c.name]
    assert [f["case"] for f in mc_rep["failures"]] == zbox
    cauchy = [f for f in groth_rep["failures"] if f["case"].startswith("groth.cauchy.")]
    assert len(cauchy) == 12 and all("beta" in f and "error" not in f for f in cauchy)


def _exit_3():
    os._exit(3)


def _exit_0_silently():
    os._exit(0)


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _die_in_workers(monkeypatch, tmp_path, deaths, die):
    """z_box_det kills each worker that reaches it, after writing the name of
    the case it was running to a marker file; in the test process it first
    waits (up to 30 s) until `deaths` workers have written one, so each of
    them dies on the first case it takes, whatever the timing.  Returns the
    names of the suite's cases."""
    test_process = os.getpid()
    real = meltingcrystal.z_box_det

    def z_box_det(n, height, q, beta):
        if os.getpid() != test_process:
            marker = tmp_path / f"died-{os.getpid()}"
            marker.write_text(f"mc.zbox.N{n}.L{height}.q={q}.beta={beta}")
            die()
        deadline = time.monotonic() + 30
        while len(list(tmp_path.glob("died-*"))) < deaths and time.monotonic() < deadline:
            time.sleep(0.005)
        return real(n, height, q, beta)

    monkeypatch.setattr(meltingcrystal, "z_box_det", z_box_det)
    _use_cpus(monkeypatch, deaths + 1)
    return [case.name for case in SUITES["mc"]("small", random.Random("mc:1"))]


def _died_on(tmp_path) -> set:
    return {marker.read_text() for marker in tmp_path.glob("died-*")}


@pytest.mark.parametrize(
    "die, error",
    [
        (_exit_3, "WorkerError: worker exited with status 3"),
        (_kill_self, f"WorkerError: worker killed by signal {int(signal.SIGKILL)}"),
        (_exit_0_silently, "WorkerError: undecodable worker result (EOFError)"),
    ],
)
def test_dead_worker_fails_its_share(monkeypatch, tmp_path, die, error):
    """A worker's share of the failures is the one case it was running when it
    died; this process runs every other case."""
    names = _die_in_workers(monkeypatch, tmp_path, 1, die)
    rep = run_suite("mc", "small", 1)
    _assert_no_child_left()
    assert rep.cases == len(names) == 25
    [failure] = rep.failures
    assert ".zbox." in failure["case"] and {failure["case"]} == _died_on(tmp_path)
    assert failure["error"] == error
    assert rep.processes == 2


def test_two_dead_workers_fail_one_case_each(monkeypatch, tmp_path):
    def die():
        """The first worker to get here exits with status 3, the other is killed."""
        try:
            first = os.open(tmp_path / "first", os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            _kill_self()
        os.write(first, (tmp_path / f"died-{os.getpid()}").read_bytes())
        _exit_3()

    names = _die_in_workers(monkeypatch, tmp_path, 2, die)
    rep = run_suite("mc", "small", 1)
    _assert_no_child_left()
    assert rep.cases == len(names) == 25 and rep.processes == 3
    assert len(rep.failures) == 2
    assert all(".zbox." in f["case"] for f in rep.failures)
    assert {f["case"] for f in rep.failures} == _died_on(tmp_path)
    errors = {f["case"]: f["error"] for f in rep.failures}
    exited = (tmp_path / "first").read_text()
    assert errors.pop(exited) == "WorkerError: worker exited with status 3"
    assert list(errors.values()) == [f"WorkerError: worker killed by signal {int(signal.SIGKILL)}"]


def test_worker_dying_before_it_announces_a_case_fails_that_case(monkeypatch, tmp_path):
    test_process = os.getpid()
    real_take = workqueue._take

    def take(fd):
        index = real_take(fd)
        if os.getpid() != test_process and index is not None:
            (tmp_path / f"died-{os.getpid()}").touch()
            _exit_3()
        return index

    monkeypatch.setattr(workqueue, "_take", take)
    names = _die_in_workers(monkeypatch, tmp_path, 1, _exit_3)
    rep = run_suite("mc", "small", 1)
    _assert_no_child_left()
    assert rep.cases == len(names) == 25
    [failure] = rep.failures
    assert failure["error"] == "WorkerError: worker died before announcing its index"


def _count_forks(monkeypatch):
    forks = []
    real = os.fork

    def fork():
        forks.append(None)
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_verify_all_forks_once_per_extra_process(monkeypatch, capsys, cpus):
    forks = _count_forks(monkeypatch)
    _use_cpus(monkeypatch, cpus)
    assert main(["--json", "verify", "all"]) == 0
    assert len(forks) == cpus - 1
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_SMALL_SEED1
    _assert_no_child_left()


def test_unknown_suite_is_refused_before_any_fork(monkeypatch, capsys):
    forks = _count_forks(monkeypatch)
    _use_cpus(monkeypatch, 2)
    assert main(["verify", "nosuch"]) == 2
    assert "unknown suite 'nosuch'" in capsys.readouterr().err
    with pytest.raises(ParameterError):
        run_suites(["fv", "nosuch"])
    assert forks == []


def test_interrupted_run_leaves_no_worker(monkeypatch):
    test_process = os.getpid()

    def z_box_det(*args):
        if os.getpid() == test_process:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(meltingcrystal, "z_box_det", z_box_det)
    _use_cpus(monkeypatch, 3)
    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_suite("mc", "small", 1)
    _assert_no_child_left()
    assert time.perf_counter() - start < 30


def test_stderr_names_the_process_count(monkeypatch, capsys):
    for cpus, want in ((1, "1 process"), (2, "2 processes")):
        _use_cpus(monkeypatch, cpus)
        assert main(["verify", "sv6"]) == 0
        line = capsys.readouterr().err.splitlines()[0]
        assert line.startswith("# suite sv6: ") and line.endswith(f"s, {want}")
    # never more processes than matched cases
    _use_cpus(monkeypatch, 8)
    assert run_suite("groth", "small", 1, tags="groth.addition").processes == 1
    assert run_suite("groth", "small", 1, tags="no such case").processes == 1


def _cli_subprocess(*args):
    # without PYTHONUNBUFFERED, piped stdout is block-buffered, as by default
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(grothcrystal.__file__).parents[1])
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, check=True, timeout=120
    )


def test_piped_stdout_is_not_flushed_by_workers():
    # a worker that flushed the stdout buffer it inherited would print
    # earlier suites' lines twice
    proc = _cli_subprocess(
        "-m", "grothcrystal.cli", "--json", "--seed", "1", "verify", "all", "--scale", "small"
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == VERIFY_SMALL_SEED1


def test_cli_import_loads_neither_multiprocessing_nor_pickle():
    code = "import sys, grothcrystal.cli; print(sorted({'multiprocessing', 'pickle'} & set(sys.modules)))"
    assert _cli_subprocess("-c", code).stdout.decode().strip() == "[]"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the records are NamedTuple and __slots__ classes, so importing the
    # command line under -I (no site, no PYTHONPATH) reaches neither module
    # nor what inspect pulls in
    src = str(Path(grothcrystal.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import grothcrystal.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    assert _cli_subprocess("-I", "-c", code).stdout.decode().strip() == "[]"


def test_case_and_report_records_keep_their_fields_and_equality():
    check = lambda: True  # noqa: E731
    case = suites.Case("a.b", check)
    assert (case.name, case.check, case.detail) == ("a.b", check, {})
    assert case == suites.Case("a.b", check, {}) != suites.Case("a.b", check, {"beta": F(1)})
    assert suites.Case(name="x", check=check, detail={"k": 1}).detail == {"k": 1}
    with pytest.raises(AttributeError):
        case.name = "c"
    with pytest.raises(TypeError):
        case.detail["beta"] = F(1)  # the shared default is read-only
    with pytest.raises(TypeError):
        suites.Case("a.b")
    report = suites.SuiteReport("fv", "small", 1, 3, [])
    assert (report.wall_time, report.processes, report.ok) == (0.0, 1, True)
    assert report == suites.SuiteReport("fv", "small", 1, 3, [], 0.0, 1)
    assert report != suites.SuiteReport("fv", "small", 1, 3, [], 0.5, 1)
    assert report != ("fv", "small", 1, 3, [], 0.0, 1)
    report.wall_time = 0.5
    assert report == suites.SuiteReport("fv", "small", 1, 3, [], wall_time=0.5)
    assert repr(report).startswith("SuiteReport(suite='fv', scale='small', seed=1, cases=3, failures=[]")
    report.failures.append({"case": "fv.x"})
    assert not report.ok and report.to_json()["failures"] == [{"case": "fv.x"}]
    with pytest.raises(TypeError):
        hash(report)
    with pytest.raises(AttributeError):
        report.extra = 1
