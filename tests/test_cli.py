import json
import os
import tempfile

import pytest

from grothcrystal import lattice, sixvertex
from grothcrystal.cli import main
from grothcrystal.suites import run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_groth_eval(capsys):
    code, out, _ = run_cli(
        capsys, "groth", "eval", "--lam", "2,1", "--z", "1,2,3", "--beta", "0"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == "60/1"
    assert rec["lam"] == [2, 1, 0]


def test_groth_skew(capsys):
    code, out, _ = run_cli(
        capsys, "groth", "skew", "--mu", "3,1", "--lam", "", "--z", "2,3", "--beta", "1"
    )
    assert code == 0
    assert json.loads(out)["value"] == "294/1"


def test_groth_verify_cauchy_and_determinism(capsys):
    args = ("groth", "verify-cauchy", "--n", "2", "--width", "2", "--points", "3")
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    records = [json.loads(line) for line in out1.splitlines()]
    assert len(records) == 3
    assert all(r["agree"] for r in records)
    # identical bytes for the same seed, different draws for another seed
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "--seed", "9", *args)
    assert out1 != out3


def test_groth_verify_sum(capsys):
    code, out, _ = run_cli(
        capsys, "groth", "verify-sum", "--n", "1", "--width", "2", "--points", "2"
    )
    assert code == 0
    assert all(json.loads(line)["agree"] for line in out.splitlines())


def test_fv_wavefunction(capsys):
    base = ("fv", "wavefunction", "--sites", "5", "--x", "1,3", "--u", "2,3",
            "--beta", "-1")
    code, out, _ = run_cli(capsys, *base)
    assert code == 0
    assert json.loads(out)["value"] == "1260/1"
    code, out, _ = run_cli(capsys, *base, "--dual")
    assert code == 0
    assert json.loads(out)["value"] == "560/1"


def test_pm_wavefunction_and_scalar(capsys):
    code, out, _ = run_cli(
        capsys, "pm", "wavefunction", "--sites", "3", "--occ", "1,0,1",
        "--v", "2,3", "--beta", "1"
    )
    assert code == 0
    assert json.loads(out)["value"] == "493/36"
    code, out, _ = run_cli(
        capsys, "pm", "scalar", "--sites", "2", "--u", "2", "--v", "3", "--beta", "1"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["value"] == "-59/6" and rec["agree"] is True


def test_pm_sum_and_bethe(capsys):
    code, out, _ = run_cli(
        capsys, "pm", "sum", "--sites", "2", "--v", "2", "--beta", "-1"
    )
    assert code == 0
    assert json.loads(out)["value"] == "9/2"
    code, out, _ = run_cli(capsys, "pm", "bethe", "--sites", "3", "--beta", "-1")
    assert code == 0
    rec = json.loads(out)
    assert rec["max_residual"] < 1e-10
    assert rec["checked"] == 2 and rec["skipped"] == 1


def test_mc_zbox_modes(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "zbox", "--n", "2", "--height", "2", "--q", "1/2",
        "--beta", "1"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["agree"] is True and rec["value"] == rec["bruteforce"]
    code, out, _ = run_cli(
        capsys, "mc", "zbox", "--n", "1", "--height", "1", "--beta", "0",
        "--series", "4"
    )
    assert code == 0
    assert json.loads(out)["coeffs"] == ["1/1", "1/1", "0/1", "0/1", "0/1"]


def test_mc_macmahon(capsys):
    code, out, _ = run_cli(capsys, "mc", "macmahon", "--beta", "-1", "--order", "7")
    assert code == 0
    assert json.loads(out)["coeffs"] == [
        "1/1", "1/1", "2/1", "3/1", "5/1", "7/1", "11/1", "15/1",
    ]


def test_mc_entropy_csv_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "mc", "entropy", "--mu", "1", "--temps", "0.5,1.0", "--betas", "0"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "T,beta,S"
    assert len(lines) == 3
    code, out, _ = run_cli(
        capsys, "--json", "mc", "entropy", "--mu", "1", "--temps", "1.0",
        "--betas", "0"
    )
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["S"] - 3.3577677090) < 1e-9


def test_sv6_verify_with_params(capsys):
    code, out, _ = run_cli(
        capsys, "sv6", "verify", "--params",
        '{"a1":"1","a2":"1","a3":"2","a4":"1","a5":"-1/2","a6":"-1/2","t":"1/2"}',
    )
    assert code == 0
    assert json.loads(out)["rll"] is True


def test_verify_all_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--scale", "small")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all("0 failures" in line for line in lines)


def test_verify_single_suite_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "sv6")
    assert code == 0
    rec = json.loads(out)
    assert rec["suite"] == "sv6" and rec["failures"] == []


@pytest.mark.parametrize("scale", ["small", "full"])
def test_sv6_verify_is_the_json_suite_run(capsys, scale):
    # without --params, `sv6 verify` is `--json verify sv6` by another name
    code, out, err = run_cli(capsys, "--seed", "5", "sv6", "verify", "--scale", scale)
    other = run_cli(capsys, "--json", "--seed", "5", "verify", "sv6", "--scale", scale)
    assert (code, out) == other[:2]
    assert code == 0 and json.loads(out)["scale"] == scale
    assert err.splitlines()[0].startswith("# suite sv6: ")


def test_failing_sv6_check_exits_1_on_both_paths(capsys, monkeypatch):
    monkeypatch.setattr(sixvertex, "check_rll_six", lambda *args: False)
    runs = [run_cli(capsys, *argv) for argv in (("sv6", "verify"), ("--json", "verify", "sv6"))]
    assert runs[0][:2] == runs[1][:2]
    code, out, _ = runs[0]
    assert code == 1
    failed = [f["case"] for f in json.loads(out)["failures"]]
    assert len(failed) == 6 and all(name.startswith("sv6.rll") for name in failed)


def test_model_verify_with_filter(capsys):
    code, out, _ = run_cli(capsys, "--json", "fv", "verify", "--suite", "ybe")
    assert code == 0
    rec = json.loads(out)
    assert rec["cases"] == 5 and rec["failures"] == []


def test_model_verify_filter_aliases(capsys):
    # alternate filter tokens select the same cases as the descriptive names
    pairs = (
        (("fv",), "thm22", "wavefunction"),
        (("pm",), "thm52", "wavefunction"),
        (("pm",), "lemma53", "skew"),
    )
    for prefix, alias, name in pairs:
        _, out_alias, _ = run_cli(capsys, "--json", *prefix, "verify", "--suite", alias)
        _, out_name, _ = run_cli(capsys, "--json", *prefix, "verify", "--suite", name)
        assert out_alias == out_name
        rec = json.loads(out_alias)
        assert rec["cases"] > 0 and rec["failures"] == []


def test_alternate_flag_spellings(capsys):
    code, out, _ = run_cli(
        capsys, "fv", "wavefunction", "--M", "5", "--x", "1,3",
        "--u-list", "2,3", "--beta", "-1"
    )
    assert code == 0
    assert json.loads(out)["value"] == "1260/1"
    code, out, _ = run_cli(
        capsys, "pm", "wavefunction", "--M", "3", "--occ", "1,0,1",
        "--v-list", "2,3", "--beta", "1"
    )
    assert code == 0
    assert json.loads(out)["value"] == "493/36"
    code, out, _ = run_cli(
        capsys, "mc", "zbox", "--N", "2", "--L", "2", "--q", "1/2", "--beta", "1"
    )
    assert code == 0
    assert json.loads(out)["agree"] is True
    code, out, _ = run_cli(
        capsys, "mc", "entropy", "--mu", "1", "--T", "1.0", "--beta-list", "0"
    )
    assert code == 0
    assert out.splitlines()[0] == "T,beta,S"


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "nosuch")
    assert code == 2
    assert "unknown suite" in err


def test_out_file_copies_stdout(tmp_path, capsys):
    target = tmp_path / "report.jsonl"
    code, out, _ = run_cli(
        capsys, "--out", str(target), "--json", "verify", "sv6"
    )
    assert code == 0
    assert target.read_text() == out


def test_unusable_temp_directory_is_bad_input(tmp_path, capsys, monkeypatch):
    # the work queue is a temp file: a run that cannot make one is bad input,
    # reported on stderr, and leaves no worker behind
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    code, out, err = run_cli(capsys, "verify", "sv6")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "missing" in err.splitlines()[0]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_cli_reports_errors_on_stderr(capsys):
    code, out, err = run_cli(
        capsys, "groth", "eval", "--lam", "1,2", "--z", "1,2", "--beta", "0"
    )
    assert code == 2
    assert out == ""
    assert "error" in err


@pytest.mark.parametrize("mode", [("--q", "1/2"), ("--series", "4")])
def test_zbox_height_below_minus_one_is_bad_input(capsys, mode):
    code, out, err = run_cli(capsys, "mc", "zbox", "--n", "2", "--height", "-2", *mode)
    assert code == 2
    assert out == ""
    assert "error: box dimensions must be nonnegative" in err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["groth"])


def test_failed_self_check_exits_1(capsys, monkeypatch):
    # a lattice/closed-form mismatch is a failed verification, not bad input
    monkeypatch.setattr(lattice, "closed_amplitudes", lambda *args, **kwargs: [0])
    rows = [
        (("fv", "wavefunction", "--sites", "5", "--x", "1,3", "--u", "2,3", "--beta", "-1"),
         "lattice amplitude = 1260 != closed amplitude = 0 at (1, 3)"),
        (("pm", "wavefunction", "--sites", "3", "--occ", "1,0,1", "--v", "2,3", "--beta", "1"),
         "lattice amplitude = 493/36 != closed amplitude = 0 at (1, 0, 1)"),
    ]
    for argv, message in rows:
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("sv6", "verify", "--params", '{"a1":"1"}'), "for 'a2'"),
        (("sv6", "verify", "--params", "[1]"), "must be a JSON object, not list"),
        (("mc", "zbox", "--n", "2", "--height", "1", "--q", "1/2", "--series", "3"), "not both"),
        (("mc", "entropy", "--temps", "0.5", "--betas=-2"), "beta < -1"),
        (("pm", "bethe", "--sites", "0", "--beta", "1"), "need at least one site"),
        (("pm", "scalar", "--sites", "0", "--u", "1", "--v", "2", "--beta", "1"), "need at least one site"),
        (("pm", "sum", "--sites", "-2", "--v", "2", "--beta", "1"), "need at least one site"),
        (("fv", "wavefunction", "--sites", "3", "--x", "0", "--u", "2", "--beta", "1"), "bad positions [0]"),
        (("mc", "zbox", "--n", "-2", "--height", "2", "--series", "2", "--beta", "1/2"), "box dimensions"),
        (("mc", "entropy", "--mu", "nan", "--temps", "1", "--betas", "0"), "need finite"),
        (("mc", "entropy", "--temps", "inf", "--betas", "0"), "need finite"),
        (("mc", "entropy", "--temps", "1", "--betas", "nan"), "need finite"),
        (("pm", "bethe", "--sites", "3", "--beta", "-1", "--tol", "nan"), "--tol must be a positive finite"),
        (("pm", "bethe", "--sites", "3", "--beta", "-1", "--tol", "0"), "--tol must be a positive finite"),
        (("pm", "bethe", "--sites", "3", "--beta", "-1", "--tol=-1"), "--tol must be a positive finite"),
        (("pm", "bethe", "--sites", "3", "--beta", "-1", "--tol", "inf"), "--tol must be a positive finite"),
        (("pm", "wavefunction", "--sites", "2", "--occ", "2", "--v", "2,3", "--beta", "1", "--dual"), "cover every site"),
        (("pm", "wavefunction", "--sites", "2", "--occ", "2,0,0", "--v", "2,3", "--beta", "1", "--dual"), "cover every site"),
        (("fv", "wavefunction", "--sites", "3", "--x", "4", "--u", "2", "--beta", "-1", "--dual"), "beyond the last site"),
        (("groth", "verify-cauchy", "--n", "1", "--width", "-3", "--points", "1"), "box width must be nonnegative"),
        (("groth", "verify-cauchy", "--n", "1", "--width", "-1", "--points", "1"), "box width must be nonnegative"),
        (("groth", "verify-sum", "--n", "2", "--width", "-3"), "box width must be nonnegative"),
        (("groth", "verify-sum", "--n", "-1", "--width", "2"), "--n must be nonnegative"),
        (("groth", "verify-cauchy", "--n", "-1", "--width", "2"), "--n must be nonnegative"),
        (("groth", "verify-cauchy", "--n", "2", "--width", "2", "--points", "-2"), "--points must be nonnegative"),
        (("sv6", "verify", "--params", '{"a1":"1","a2":"1","a3":"2","a4":"1","a5":"-1/2","a6":"-1/2","t":"1/2"}', "--points", "-1"), "--points must be nonnegative"),
    ],
)
def test_bad_input_exits_2_with_empty_stdout(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err.splitlines()[0]


def test_filter_that_keeps_no_case_is_bad_input(capsys):
    code, out, err = run_cli(capsys, "fv", "verify", "--suite", "nonsense")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: no case of suite fv matches 'nonsense'"]
    # the library keeps reporting an empty selection as zero cases
    assert run_suite("fv", "small", 1, tags="nonsense").cases == 0
