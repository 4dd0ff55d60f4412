"""Command line front end.

All results go to stdout as JSON lines (or CSV for the entropy table), with
rationals rendered as "p/q" strings; given the same seed the bytes are
identical run to run.  Timing and progress go to stderr only.  The process
exits 0 exactly when every requested check passed, 1 when a check failed and
2 on bad input, an unusable --out file or temp directory included; stdout is
written only once the command has finished, and after the --out file, so
bad input leaves it empty.

Every subcommand is one row of `COMMANDS`: its group, name, help, argument
specs and handler.  A handler takes the parsed arguments and a list that
collects the stdout lines, and returns the exit code.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from functools import partial

from . import fivevertex as fv
from . import grothendieck as gr
from . import lattice
from . import meltingcrystal as mc
from . import partitions as pt
from . import phasemodel as pm
from . import sixvertex as sv
from .errors import IdentityError, ParameterError
from .exactcore import parse_rat, rat_str
from .suites import SUITES, generic_beta, generic_rationals, run_suites


def _list_of(conv):
    return lambda text: [conv(tok) for tok in text.split(",") if tok.strip() != ""]


_ints, _rats, _floats = _list_of(int), _list_of(parse_rat), _list_of(float)

# how a handler converts the raw flag value of each input it echoes
_CONVERT = {
    "lam": _ints, "mu": _ints, "x": _ints, "occ": _ints,
    "z": _rats, "u": _rats, "v": _rats, "beta": parse_rat,
}


def _fields(*keys):
    """args -> {key: converted value}, converted in the order given."""
    return lambda args: {k: _CONVERT.get(k, lambda v: v)(getattr(args, k)) for k in keys}


def _show(value):
    if isinstance(value, list):
        return [_show(x) for x in value]
    return rat_str(value) if isinstance(value, Fraction) else value


def _emit(out: list, record: dict) -> None:
    out.append(json.dumps(record))


# -- handlers shared by several commands ---------------------------------------


def _evaluate(inputs, fn, brute=None):
    """Echo the inputs, then fn(*inputs) as "value"; with `brute`, also the
    brute-force value and whether the two agree."""

    def run(args, out):
        vals = inputs(args)
        record = {k: _show(v) for k, v in vals.items()}
        value = fn(*vals.values())
        record["value"] = rat_str(value)
        agree = True
        if brute is not None:
            other = brute(*vals.values())
            agree = value == other
            record.update(bruteforce=rat_str(other), agree=agree)
        _emit(out, record)
        return 0 if agree else 1

    return run


def _require_nonnegative(args, *flags):
    for flag in flags:
        if getattr(args, flag) < 0:
            raise ParameterError(f"--{flag} must be nonnegative")


def _at_points(draw, lhs, rhs):
    """lhs == rhs at --points seeded points (beta, z[, w]), one record each."""

    def run(args, out):
        _require_nonnegative(args, "n", "points")
        rng = random.Random(f"cli:{args.seed}")
        bad = 0
        for point in range(args.points):
            beta, *pts = draw(rng, args.n)
            left, right = lhs(args.width, *pts, beta), rhs(args.width, *pts, beta)
            record = {"point": point, "n": args.n, "width": args.width, "beta": rat_str(beta)}
            record.update(zip(("z", "w"), map(_show, pts)))
            record.update(lhs=rat_str(left), rhs=rat_str(right), agree=left == right)
            bad += left != right
            _emit(out, record)
        return 0 if bad == 0 else 1

    return run


def _suites(names, tag, args, out) -> int:
    """Run whole suites (tag None) or the cases a filter keeps, all in one
    `run_suites` call; a filter that keeps no case is bad input."""
    bad = 0
    for name, rep in zip(names, run_suites(names, args.scale, args.seed, tags=tag)):
        if tag is not None and rep.cases == 0:
            raise ParameterError(f"no case of suite {name} matches {tag!r}")
        if args.json:
            _emit(out, rep.to_json())
        else:
            out.append(f"suite {name} [{args.scale}]: {rep.cases} cases, {len(rep.failures)} failures")
            out.extend(f"  FAIL {f['case']}" for f in rep.failures)
        procs = f"{rep.processes} process" + ("es" if rep.processes > 1 else "")
        print(f"# suite {name}: {rep.wall_time:.2f}s, {procs}", file=sys.stderr)
        bad += len(rep.failures)
    return 0 if bad == 0 else 1


# -- commands of their own shape -----------------------------------------------


def _eval_inputs(args) -> dict:
    """--lam padded with zero parts to one part per variable."""
    vals = _fields("lam", "z", "beta")(args)
    vals["lam"] += [0] * (len(vals["z"]) - len(vals["lam"]))
    return vals


def _bethe(args, out) -> int:
    if not 0 < args.tol < float("inf"):  # also refuses nan
        raise ParameterError("--tol must be a positive finite number")
    report = pm.bethe_verify_n1(args.sites, parse_rat(args.beta))
    _emit(out, report)
    return 0 if report["max_residual"] < args.tol else 1


def _zbox(args, out) -> int:
    beta = parse_rat(args.beta)
    if args.q is None and args.series is None:
        raise ParameterError("zbox needs either --q or --series")
    if args.q is not None and args.series is not None:
        raise ParameterError("zbox takes --q or --series, not both")
    head = {"n": args.n, "height": args.height}
    if args.series is not None:
        series = mc.z_box_det_series(args.n, args.height, beta, args.series)
        _emit(out, {**head, "beta": rat_str(beta), "order": args.series, "coeffs": series.to_strings()})
        return 0
    q = parse_rat(args.q)
    det = mc.z_box_det(args.n, args.height, q, beta)
    record = {**head, "q": rat_str(q), "beta": rat_str(beta), "value": rat_str(det)}
    agree = True
    if pt.count_boxed(args.n, args.n, args.height) <= 200000:
        brute = mc.z_box_bruteforce(args.n, args.height, q, beta)
        agree = det == brute
        record.update(bruteforce=rat_str(brute), agree=agree)
    _emit(out, record)
    return 0 if agree else 1


def _macmahon(args, out) -> int:
    beta = parse_rat(args.beta)
    series = mc.z_infinite(beta, args.order)
    _emit(out, {"beta": rat_str(beta), "order": args.order, "coeffs": series.to_strings()})
    return 0


def _entropy(args, out) -> int:
    temps, betas = _floats(args.temps), _floats(args.betas)
    rows = [(t, b, mc.entropy(args.mu, t, b)) for b in betas for t in temps]
    if args.json:
        for t, b, s in rows:
            _emit(out, {"T": t, "beta": b, "S": s})
    else:
        out.append("T,beta,S")
        out.extend(f"{t:.6g},{b:.6g},{s:.12g}" for t, b, s in rows)
    return 0


_SV6_KEYS = ("a1", "a2", "a3", "a4", "a5", "a6", "t")


def _sv6(args, out) -> int:
    if args.params is None:
        args.json = True  # this command prints its suite report as JSON either way
        return _suites(["sv6"], None, args, out)
    raw = json.loads(args.params, parse_float=Fraction)  # 0.1 reads as 1/10
    if not isinstance(raw, dict):
        raise ParameterError(f"--params must be a JSON object, not {type(raw).__name__}")
    for key in _SV6_KEYS:
        if type(raw.get(key)) not in (str, int, Fraction):  # JSON true is no number
            raise ParameterError(f"--params needs a string or number for {key!r}")
    _require_nonnegative(args, "points")
    p = sv.SixVertexParams(*(parse_rat(raw[k]) for k in _SV6_KEYS))
    rng = random.Random(f"cli:{args.seed}")
    ok = all(sv.check_rll_six(*generic_rationals(rng, 2), p) for _ in range(args.points))
    _emit(out, {"params": {k: rat_str(getattr(p, k)) for k in _SV6_KEYS}, "points": args.points, "rll": ok})
    return 0 if ok else 1


# accepted filter tokens that do not occur literally in case names
_FILTER_ALIASES = {
    "thm22": "wavefunction",
    "thm52": "wavefunction",
    "lemma53": "skew",
}


def _model_verify(name):
    def run(args, out):
        tag = None if args.suite == "all" else _FILTER_ALIASES.get(args.suite, args.suite)
        return _suites([name], tag, args, out)

    return run


def _verify(args, out) -> int:
    return _suites(list(SUITES) if args.name == "all" else [args.name], None, args, out)


# -- the command table ---------------------------------------------------------


def _arg(*flags, **kw):
    return flags, kw


# argument specs shared by several commands; keywords given at a use override
SITES = partial(_arg, "--sites", "--M", type=int, required=True)
BETA = partial(_arg, "--beta")
U = partial(_arg, "--u", "--u-list", required=True)
V = partial(_arg, "--v", "--v-list", required=True)
N = partial(_arg, "--n", type=int, required=True)
WIDTH = partial(_arg, "--width", type=int, required=True)
POINTS = partial(_arg, "--points", type=int, default=3)
SCALE = partial(_arg, "--scale", choices=("small", "full"), default="small", help="case volume")
DUAL = partial(_arg, "--dual", action="store_true")
SUITE = partial(_arg, "--suite", default="all")

GROUPS = {
    "groth": "symmetric polynomial evaluations",
    "fv": "five-vertex model",
    "pm": "phase model",
    "mc": "melting crystal",
    "sv6": "six-weight generalization",
}

# (group or None for a top-level command, name, help, argument specs, handler)
COMMANDS = [
    ("groth", "eval", "evaluate a polynomial at rational points",
     [_arg("--lam", required=True, help="partition, e.g. 2,1"),
      _arg("--z", required=True, help="variables, e.g. 1,2,3"), BETA(default="0")],
     _evaluate(_eval_inputs, gr.groth_det)),
    ("groth", "skew", "skew polynomial via interlacing chains",
     [_arg("--mu", required=True, help="outer partition"),
      _arg("--lam", required=True, help="inner partition (may be empty: '')"),
      _arg("--z", required=True), BETA(default="0")],
     _evaluate(_fields("mu", "lam", "z", "beta"), gr.skew_multi)),
    ("groth", "verify-cauchy", "pairing identity at drawn points",
     [N(help="number of variables"), WIDTH(help="box width"), POINTS()],
     _at_points(lambda rng, n: (generic_beta(rng), generic_rationals(rng, n),
                                generic_rationals(rng, n, start=n)),
                gr.cauchy_lhs, gr.cauchy_rhs)),
    ("groth", "verify-sum", "box summation identity at drawn points",
     [N(), WIDTH(), POINTS()],
     _at_points(lambda rng, n: (generic_beta(rng, nonzero=True), generic_rationals(rng, n)),
                gr.summation_lhs, gr.summation_rhs)),
    ("fv", "wavefunction", "lattice amplitude, self-checked",
     [SITES(), _arg("--x", required=True, help="1-based particle positions, e.g. 1,3"),
      U(help="spectral parameters"), BETA(required=True), DUAL()],
     _evaluate(_fields("sites", "x", "u", "beta", "dual"), partial(lattice.amplitude, fv.MODEL))),
    ("fv", "verify", "run five-vertex checks",
     [SUITE(help="all, or a filter such as ybe, rll, thm22, skew, ham, commute"), SCALE()],
     _model_verify("fv")),
    ("pm", "wavefunction", "lattice amplitude, self-checked",
     [SITES(), _arg("--occ", required=True, help="occupation numbers per site"), V(),
      BETA(required=True), DUAL()],
     _evaluate(_fields("sites", "occ", "v", "beta", "dual"), partial(lattice.amplitude, pm.MODEL))),
    ("pm", "scalar", "scalar product: determinant vs expansion",
     [SITES(), U(), V(), BETA(required=True)],
     _evaluate(_fields("sites", "u", "v", "beta"), pm.scalar_product,
               pm.scalar_product_bruteforce)),
    ("pm", "sum", "weighted wavefunction sum: det vs expansion",
     [SITES(), V(), BETA(required=True)],
     _evaluate(_fields("sites", "v", "beta"), pm.summation_wavefunctions,
               pm.summation_wavefunctions_bruteforce)),
    ("pm", "bethe", "one-particle spectrum checks",
     [SITES(), BETA(required=True), _arg("--tol", type=float, default=1e-10)],
     _bethe),
    ("pm", "verify", "run phase model checks",
     [SUITE(help="all, or a filter such as rll, thm52, lemma53, scalar, sum, ham, "
                 "commute, bethe"), SCALE()],
     _model_verify("pm")),
    ("mc", "zbox", "boxed partition function",
     [_arg("--n", "--N", type=int, required=True, help="square base side"),
      _arg("--height", "--L", type=int, required=True),
      _arg("--q", help="rational q (numeric mode)"), BETA(default="0"),
      _arg("--series", type=int, metavar="ORDER", help="emit q-series to this order")],
     _zbox),
    ("mc", "macmahon", "unbounded crystal series",
     [BETA(default="0"), _arg("--order", type=int, default=10)],
     _macmahon),
    ("mc", "entropy", "entropy table (CSV: T,beta,S)",
     [_arg("--mu", type=float, default=1.0, help="chemical potential"),
      _arg("--temps", "--T", required=True, help="temperatures, e.g. 0.2,0.6,1.0"),
      _arg("--betas", "--beta-list", required=True, help="deformation values, e.g. -1,0,1")],
     _entropy),
    ("sv6", "verify", "exchange relation checks",
     [_arg("--params", help='JSON like {"a1":"1","a2":"1","a3":"2","a4":"1","a5":"-1/2",'
                            '"a6":"-1/2","t":"1/2"}; omitted: run the built-in suite'),
      POINTS(), SCALE()],
     _sv6),
    (None, "verify", "run verification suites",
     [_arg("name", nargs="?", default="all",
           help="all (default) or one of: " + ", ".join(SUITES)), SCALE()],
     _verify),
]


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
    groups = {
        g: sub.add_parser(g, help=text).add_subparsers(dest="subcommand", required=True)
        for g, text in GROUPS.items()
    }
    for group, name, text, specs, run in COMMANDS:
        p = groups.get(group, sub).add_parser(name, help=text)
        for flags, kw in specs:
            p.add_argument(*flags, **kw)
        p.set_defaults(run=run)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out: list[str] = []
    t0 = time.perf_counter()
    try:
        code = args.run(args, out)
        text = "".join(line + "\n" for line in out)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
    except IdentityError as exc:
        # a self-check ran and its two routes disagreed: a failed verification
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    print(f"# elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
