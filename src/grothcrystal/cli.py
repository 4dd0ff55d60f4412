"""Command line front end.

All results go to stdout as JSON lines (or CSV for the entropy table), with
rationals rendered as "p/q" strings; given the same seed the bytes are
identical run to run.  Timing and progress go to stderr only.  The process
exits 0 exactly when every requested check passed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from . import fivevertex as fv
from . import grothendieck as gr
from . import meltingcrystal as mc
from . import partitions as pt
from . import phasemodel as pm
from . import sixvertex as sv
from .errors import IdentityError
from .exactcore import parse_rat, rat_str
from .suites import SUITES, generic_beta, generic_rationals, run_suite


class Output:
    """Collects stdout lines so --out can write an identical copy."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def emit(self, obj: dict) -> None:
        self.line(json.dumps(obj))

    def line(self, text: str) -> None:
        print(text)
        self.lines.append(text)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("\n".join(self.lines) + ("\n" if self.lines else ""))


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def _rats(text: str) -> list[Fraction]:
    return [parse_rat(tok) for tok in text.split(",") if tok.strip() != ""]


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _rat_strs(values) -> list[str]:
    return [rat_str(v) for v in values]


# -- symmetric polynomial commands --------------------------------------------


def _cmd_groth_eval(args, out: Output, rng: random.Random) -> int:
    lam = _ints(args.lam)
    zs = _rats(args.z)
    beta = parse_rat(args.beta)
    if len(lam) < len(zs):
        lam = lam + [0] * (len(zs) - len(lam))
    value = gr.groth_det(lam, zs, beta)
    out.emit(
        {
            "lam": lam,
            "z": _rat_strs(zs),
            "beta": rat_str(beta),
            "value": rat_str(value),
        }
    )
    return 0


def _cmd_groth_skew(args, out: Output, rng: random.Random) -> int:
    mu = _ints(args.mu)
    lam = _ints(args.lam)
    zs = _rats(args.z)
    beta = parse_rat(args.beta)
    value = gr.skew_multi(mu, lam, zs, beta)
    out.emit(
        {
            "mu": mu,
            "lam": lam,
            "z": _rat_strs(zs),
            "beta": rat_str(beta),
            "value": rat_str(value),
        }
    )
    return 0


def _cmd_groth_cauchy(args, out: Output, rng: random.Random) -> int:
    bad = 0
    for d in range(args.points):
        beta = generic_beta(rng)
        zs = generic_rationals(rng, args.n)
        ws = generic_rationals(rng, args.n, start=args.n)
        lhs = gr.cauchy_lhs(args.width, zs, ws, beta)
        rhs = gr.cauchy_rhs(args.width, zs, ws, beta)
        agree = lhs == rhs
        bad += 0 if agree else 1
        out.emit(
            {
                "point": d,
                "n": args.n,
                "width": args.width,
                "beta": rat_str(beta),
                "z": _rat_strs(zs),
                "w": _rat_strs(ws),
                "lhs": rat_str(lhs),
                "rhs": rat_str(rhs),
                "agree": agree,
            }
        )
    return 0 if bad == 0 else 1


def _cmd_groth_sum(args, out: Output, rng: random.Random) -> int:
    bad = 0
    for d in range(args.points):
        beta = generic_beta(rng, nonzero=True)
        zs = generic_rationals(rng, args.n)
        lhs = gr.summation_lhs(args.width, zs, beta)
        rhs = gr.summation_rhs(args.width, zs, beta)
        agree = lhs == rhs
        bad += 0 if agree else 1
        out.emit(
            {
                "point": d,
                "n": args.n,
                "width": args.width,
                "beta": rat_str(beta),
                "z": _rat_strs(zs),
                "lhs": rat_str(lhs),
                "rhs": rat_str(rhs),
                "agree": agree,
            }
        )
    return 0 if bad == 0 else 1


# -- five-vertex commands -----------------------------------------------------


def _cmd_fv_wavefunction(args, out: Output, rng: random.Random) -> int:
    x = _ints(args.x)
    us = _rats(args.u)
    beta = parse_rat(args.beta)
    fn = fv.dual_wavefunction if args.dual else fv.wavefunction
    value = fn(args.sites, x, us, beta)
    out.emit(
        {
            "sites": args.sites,
            "x": x,
            "u": _rat_strs(us),
            "beta": rat_str(beta),
            "dual": bool(args.dual),
            "value": rat_str(value),
        }
    )
    return 0


# -- phase model commands -----------------------------------------------------


def _cmd_pm_wavefunction(args, out: Output, rng: random.Random) -> int:
    occ = _ints(args.occ)
    vs = _rats(args.v)
    beta = parse_rat(args.beta)
    fn = pm.dual_wavefunction_phase if args.dual else pm.wavefunction_phase
    value = fn(args.sites, occ, vs, beta)
    out.emit(
        {
            "sites": args.sites,
            "occ": occ,
            "v": _rat_strs(vs),
            "beta": rat_str(beta),
            "dual": bool(args.dual),
            "value": rat_str(value),
        }
    )
    return 0


def _cmd_pm_scalar(args, out: Output, rng: random.Random) -> int:
    us = _rats(args.u)
    vs = _rats(args.v)
    beta = parse_rat(args.beta)
    det = pm.scalar_product(args.sites, us, vs, beta)
    brute = pm.scalar_product_bruteforce(args.sites, us, vs, beta)
    agree = det == brute
    out.emit(
        {
            "sites": args.sites,
            "u": _rat_strs(us),
            "v": _rat_strs(vs),
            "beta": rat_str(beta),
            "value": rat_str(det),
            "bruteforce": rat_str(brute),
            "agree": agree,
        }
    )
    return 0 if agree else 1


def _cmd_pm_sum(args, out: Output, rng: random.Random) -> int:
    vs = _rats(args.v)
    beta = parse_rat(args.beta)
    det = pm.summation_wavefunctions(args.sites, vs, beta)
    brute = pm.summation_wavefunctions_bruteforce(args.sites, vs, beta)
    agree = det == brute
    out.emit(
        {
            "sites": args.sites,
            "v": _rat_strs(vs),
            "beta": rat_str(beta),
            "value": rat_str(det),
            "bruteforce": rat_str(brute),
            "agree": agree,
        }
    )
    return 0 if agree else 1


def _cmd_pm_bethe(args, out: Output, rng: random.Random) -> int:
    beta = parse_rat(args.beta)
    report = pm.bethe_verify_n1(args.sites, beta)
    out.emit(report)
    return 0 if report["max_residual"] < args.tol else 1


# -- melting crystal commands -------------------------------------------------


def _cmd_mc_zbox(args, out: Output, rng: random.Random) -> int:
    beta = parse_rat(args.beta)
    if args.series is not None:
        series = mc.z_box_det_series(args.n, args.height, beta, args.series)
        out.emit(
            {
                "n": args.n,
                "height": args.height,
                "beta": rat_str(beta),
                "order": args.series,
                "coeffs": series.to_strings(),
            }
        )
        return 0
    if args.q is None:
        print("error: zbox needs either --q or --series", file=sys.stderr)
        return 2
    q = parse_rat(args.q)
    det = mc.z_box_det(args.n, args.height, q, beta)
    record = {
        "n": args.n,
        "height": args.height,
        "q": rat_str(q),
        "beta": rat_str(beta),
        "value": rat_str(det),
    }
    agree = True
    if pt.count_boxed(args.n, args.n, args.height) <= 200000:
        brute = mc.z_box_bruteforce(args.n, args.height, q, beta)
        agree = det == brute
        record["bruteforce"] = rat_str(brute)
        record["agree"] = agree
    out.emit(record)
    return 0 if agree else 1


def _cmd_mc_macmahon(args, out: Output, rng: random.Random) -> int:
    beta = parse_rat(args.beta)
    series = mc.z_infinite(beta, args.order)
    out.emit(
        {"beta": rat_str(beta), "order": args.order, "coeffs": series.to_strings()}
    )
    return 0


def _cmd_mc_entropy(args, out: Output, rng: random.Random) -> int:
    temps = _floats(args.temps)
    betas = _floats(args.betas)
    if args.json:
        for beta in betas:
            for temp in temps:
                s = mc.entropy(args.mu, temp, beta)
                out.emit({"T": temp, "beta": beta, "S": s})
    else:
        out.line("T,beta,S")
        for beta in betas:
            for temp in temps:
                s = mc.entropy(args.mu, temp, beta)
                out.line(f"{temp:.6g},{beta:.6g},{s:.12g}")
    return 0


# -- six-vertex commands ------------------------------------------------------


def _cmd_sv6_verify(args, out: Output, rng: random.Random) -> int:
    if args.params is None:
        rep = run_suite("sv6", args.scale, args.seed)
        out.emit(rep.to_json())
        return 0 if rep.ok else 1
    raw = json.loads(args.params)
    p = sv.SixVertexParams(
        parse_rat(raw["a1"]),
        parse_rat(raw["a2"]),
        parse_rat(raw["a3"]),
        parse_rat(raw["a4"]),
        parse_rat(raw["a5"]),
        parse_rat(raw["a6"]),
        parse_rat(raw["t"]),
    )
    ok = True
    for _ in range(args.points):
        u, v = generic_rationals(rng, 2)
        if not sv.check_rll_six(u, v, p):
            ok = False
    out.emit(
        {
            "params": {k: rat_str(getattr(p, k)) for k in ("a1", "a2", "a3", "a4", "a5", "a6", "t")},
            "points": args.points,
            "rll": ok,
        }
    )
    return 0 if ok else 1


# -- suite runner -------------------------------------------------------------


def _run_suites(names, scale, seed, tag, as_json, out: Output) -> int:
    bad = 0
    for name in names:
        rep = run_suite(name, scale, seed, tags=tag)
        if as_json:
            out.emit(rep.to_json())
        else:
            out.line(
                f"suite {name} [{scale}]: {rep.cases} cases, "
                f"{len(rep.failures)} failures"
            )
            for f in rep.failures:
                out.line(f"  FAIL {f['case']}")
        print(f"# suite {name}: {rep.wall_time:.2f}s", file=sys.stderr)
        bad += len(rep.failures)
    return 0 if bad == 0 else 1


# accepted filter tokens that do not occur literally in case names
_FILTER_ALIASES = {
    "thm22": "wavefunction",
    "thm52": "wavefunction",
    "lemma53": "skew",
}


def _cmd_model_verify(suite_name):
    def run(args, out: Output, rng: random.Random) -> int:
        tag = None if args.suite in (None, "all") else args.suite
        if tag is not None:
            tag = _FILTER_ALIASES.get(tag, tag)
        return _run_suites([suite_name], args.scale, args.seed, tag, args.json, out)

    return run


def _cmd_verify(args, out: Output, rng: random.Random) -> int:
    names = list(SUITES) if args.name == "all" else [args.name]
    for n in names:
        if n not in SUITES:
            print(f"error: unknown suite {n!r}", file=sys.stderr)
            return 2
    return _run_suites(names, args.scale, args.seed, None, args.json, out)


# -- parser -------------------------------------------------------------------


def _add_scale(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scale", choices=("small", "full"), default="small", help="case volume"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grothcrystal",
        description="Exact checks for Grothendieck polynomials, the five-vertex "
        "and phase lattice models, and melting-crystal partition functions.",
    )
    parser.add_argument("--seed", type=int, default=1, help="seed for drawn points")
    parser.add_argument(
        "--json", action="store_true", help="force JSON lines for suite/entropy output"
    )
    parser.add_argument("--out", metavar="FILE", help="also write stdout to FILE")
    sub = parser.add_subparsers(dest="command", required=True)

    groth = sub.add_parser("groth", help="symmetric polynomial evaluations")
    gsub = groth.add_subparsers(dest="subcommand", required=True)

    p = gsub.add_parser("eval", help="evaluate a polynomial at rational points")
    p.add_argument("--lam", required=True, help="partition, e.g. 2,1")
    p.add_argument("--z", required=True, help="variables, e.g. 1,2,3")
    p.add_argument("--beta", default="0")
    p.set_defaults(fn=_cmd_groth_eval)

    p = gsub.add_parser("skew", help="skew polynomial via interlacing chains")
    p.add_argument("--mu", required=True, help="outer partition")
    p.add_argument("--lam", required=True, help="inner partition (may be empty: '')")
    p.add_argument("--z", required=True)
    p.add_argument("--beta", default="0")
    p.set_defaults(fn=_cmd_groth_skew)

    p = gsub.add_parser("verify-cauchy", help="pairing identity at drawn points")
    p.add_argument("--n", type=int, required=True, help="number of variables")
    p.add_argument("--width", type=int, required=True, help="box width")
    p.add_argument("--points", type=int, default=3)
    p.set_defaults(fn=_cmd_groth_cauchy)

    p = gsub.add_parser("verify-sum", help="box summation identity at drawn points")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--points", type=int, default=3)
    p.set_defaults(fn=_cmd_groth_sum)

    fvp = sub.add_parser("fv", help="five-vertex model")
    fsub = fvp.add_subparsers(dest="subcommand", required=True)

    p = fsub.add_parser("wavefunction", help="lattice amplitude, self-checked")
    p.add_argument("--sites", "--M", type=int, required=True)
    p.add_argument("--x", required=True, help="1-based particle positions, e.g. 1,3")
    p.add_argument("--u", "--u-list", required=True, help="spectral parameters")
    p.add_argument("--beta", required=True)
    p.add_argument("--dual", action="store_true")
    p.set_defaults(fn=_cmd_fv_wavefunction)

    p = fsub.add_parser("verify", help="run five-vertex checks")
    p.add_argument(
        "--suite",
        default="all",
        help="all, or a filter such as ybe, rll, thm22, skew, ham, commute",
    )
    _add_scale(p)
    p.set_defaults(fn=_cmd_model_verify("fv"))

    pmp = sub.add_parser("pm", help="phase model")
    psub = pmp.add_subparsers(dest="subcommand", required=True)

    p = psub.add_parser("wavefunction", help="lattice amplitude, self-checked")
    p.add_argument("--sites", "--M", type=int, required=True)
    p.add_argument("--occ", required=True, help="occupation numbers per site")
    p.add_argument("--v", "--v-list", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--dual", action="store_true")
    p.set_defaults(fn=_cmd_pm_wavefunction)

    p = psub.add_parser("scalar", help="scalar product: determinant vs expansion")
    p.add_argument("--sites", "--M", type=int, required=True)
    p.add_argument("--u", "--u-list", required=True)
    p.add_argument("--v", "--v-list", required=True)
    p.add_argument("--beta", required=True)
    p.set_defaults(fn=_cmd_pm_scalar)

    p = psub.add_parser("sum", help="weighted wavefunction sum: det vs expansion")
    p.add_argument("--sites", "--M", type=int, required=True)
    p.add_argument("--v", "--v-list", required=True)
    p.add_argument("--beta", required=True)
    p.set_defaults(fn=_cmd_pm_sum)

    p = psub.add_parser("bethe", help="one-particle spectrum checks")
    p.add_argument("--sites", "--M", type=int, required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(fn=_cmd_pm_bethe)

    p = psub.add_parser("verify", help="run phase model checks")
    p.add_argument(
        "--suite",
        default="all",
        help="all, or a filter such as rll, thm52, lemma53, scalar, sum, ham, "
        "commute, bethe",
    )
    _add_scale(p)
    p.set_defaults(fn=_cmd_model_verify("pm"))

    mcp = sub.add_parser("mc", help="melting crystal")
    msub = mcp.add_subparsers(dest="subcommand", required=True)

    p = msub.add_parser("zbox", help="boxed partition function")
    p.add_argument("--n", "--N", type=int, required=True, help="square base side")
    p.add_argument("--height", "--L", type=int, required=True)
    p.add_argument("--q", help="rational q (numeric mode)")
    p.add_argument("--beta", default="0")
    p.add_argument(
        "--series", type=int, metavar="ORDER", help="emit q-series to this order"
    )
    p.set_defaults(fn=_cmd_mc_zbox)

    p = msub.add_parser("macmahon", help="unbounded crystal series")
    p.add_argument("--beta", default="0")
    p.add_argument("--order", type=int, default=10)
    p.set_defaults(fn=_cmd_mc_macmahon)

    p = msub.add_parser("entropy", help="entropy table (CSV: T,beta,S)")
    p.add_argument("--mu", type=float, default=1.0, help="chemical potential")
    p.add_argument("--temps", "--T", required=True, help="temperatures, e.g. 0.2,0.6,1.0")
    p.add_argument("--betas", "--beta-list", required=True, help="deformation values, e.g. -1,0,1")
    p.set_defaults(fn=_cmd_mc_entropy)

    svp = sub.add_parser("sv6", help="six-weight generalization")
    ssub = svp.add_subparsers(dest="subcommand", required=True)

    p = ssub.add_parser("verify", help="exchange relation checks")
    p.add_argument(
        "--params",
        help='JSON like {"a1":"1","a2":"1","a3":"2","a4":"1","a5":"-1/2",'
        '"a6":"-1/2","t":"1/2"}; omitted: run the built-in suite',
    )
    p.add_argument("--points", type=int, default=3)
    _add_scale(p)
    p.set_defaults(fn=_cmd_sv6_verify)

    p = sub.add_parser("verify", help="run verification suites")
    p.add_argument(
        "name",
        nargs="?",
        default="all",
        help="all (default) or one of: " + ", ".join(SUITES),
    )
    _add_scale(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = Output()
    rng = random.Random(f"cli:{args.seed}")
    t0 = time.perf_counter()
    try:
        code = args.fn(args, out, rng)
    except IdentityError as exc:
        # a self-check ran and its two routes disagreed: a failed verification
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        out.save(args.out)
    print(f"# elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
