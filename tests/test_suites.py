import hashlib
import random

import pytest

from grothcrystal import meltingcrystal
from grothcrystal.cli import main
from grothcrystal.errors import ParameterError
from grothcrystal.suites import SUITES, run_suite

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


def _raise_zero_division(*args, **kwargs):
    raise ZeroDivisionError("injected")


def test_run_all_aggregates_every_suite():
    report = run_suite("all", "small", 1)
    per_suite = [run_suite(name, "small", 1) for name in SUITES]
    assert report.ok
    assert report.suite == "all"
    assert report.cases == sum(r.cases for r in per_suite)
    assert report.wall_time > 0.0


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
