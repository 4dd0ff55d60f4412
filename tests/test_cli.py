import json

import pytest

from grothcrystal import fivevertex
from grothcrystal.cli import main


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
    monkeypatch.setattr(fivevertex, "wavefunction_closed", lambda *args: 0)
    code, out, err = run_cli(
        capsys, "fv", "wavefunction", "--sites", "5", "--x", "1,3", "--u", "2,3",
        "--beta", "-1"
    )
    assert code == 1
    assert out == ""
    assert "wavefunction_lattice = 1260" in err
