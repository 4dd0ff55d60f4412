"""One benchmark child process: times the package import, or one workload pass.

`run.py` starts one child at a time and reads the JSON object it prints:

    python3 bench/worker.py setup
    python3 bench/worker.py run WORKLOAD SEED [--trace SPANS_FILE] [--tiny]

A child times its work against the reference clock (`refclock.py`), so the
times it reports are rescaled to nominal machine speed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import random
import sys
import time
from pathlib import Path

from refclock import RefClock

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
GOLDEN = BENCH_DIR / "golden.json"

# verify-full and acceptance-tags run the program at seed % GOLDEN_SEEDS, so
# every benchmark seed maps to a program seed with a recorded golden value
GOLDEN_SEEDS = 64

# (criterion, suite, tag) for the acceptance queries the benchmark keeps:
# fv.wavefunction and groth.cauchy/summation match most of their suite's
# work; groth.addition/chain/branching, pm.bethe and mc.entropy match a few
# cases of a suite that still computes every case (4 of 125 for mc.entropy)
ACCEPTANCE_QUERIES = (
    ("01", "fv", "fv.wavefunction"),
    ("02", "groth", "groth.cauchy"),
    ("02", "groth", "groth.summation"),
    ("03", "groth", "groth.addition"),
    ("03", "groth", "groth.chain"),
    ("03", "groth", "groth.branching"),
    ("09", "pm", "pm.bethe"),
    ("10", "mc", "mc.entropy"),
)
# criterion -> cases, as tests/test_acceptance.py asserts them; the number of
# cases a query matches does not depend on the seed
ACCEPTANCE_COUNTS = {"01": 138, "02": 121, "03": 3, "09": 9, "10": 4}

DEEP_NS = (4, 5, 6, 7)
DEEP_BETA0_NS = (4, 5, 6)
TINY_NS = (2, 3)
TINY_BETA0_NS = (2,)


def program_seed(seed: int) -> int:
    return seed % GOLDEN_SEEDS


def load_golden() -> dict:
    with open(GOLDEN) as fh:
        return json.load(fh)


def import_package() -> None:
    """Put the repository's src/ first on the path and import the program."""
    if not (SRC_DIR / "grothcrystal" / "__init__.py").is_file():
        raise SystemExit(f"error: no grothcrystal package under {SRC_DIR}")
    sys.path.insert(0, str(SRC_DIR))
    import grothcrystal  # noqa: F401
    import grothcrystal.cli  # noqa: F401


class Tally:
    """Operations attempted and failed in one pass, with the first failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def add(self, attempted: int, failed: int, note: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.notes) < 10:
            self.notes.append(note)

    def fail_all(self, note: str) -> None:
        """An output check failed: every operation of the pass counts as failed."""
        self.failed = self.attempted = max(self.attempted, 1)
        self.notes.append(note)


# -- workloads ----------------------------------------------------------------
# Each workload is three functions.  inputs(seed, tiny) makes the pass's
# inputs before the clock starts; execute(inputs) is the timed work;
# check(inputs, outputs, tally) records operations and failures and returns
# details for the run record.  `tiny` runs the same code at the smallest size,
# for selfcheck.py.


def _guarded(fn, *args):
    """fn(*args), or the exception it raised: one failed operation never
    stops a pass."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def verify_full_inputs(seed: int, tiny: bool) -> dict:
    pseed = program_seed(seed)
    scale = "small" if tiny else "full"
    return {"pseed": pseed, "tiny": tiny,
            "argv": ["--seed", str(pseed), "--json", "verify", "all", "--scale", scale]}


def verify_full(inputs: dict):
    """The canonical user run: `grothcrystal --json verify all --scale full`."""
    from grothcrystal import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = _guarded(cli.main, inputs["argv"])
    return code, out.getvalue()


def verify_full_check(inputs: dict, outputs, tally: Tally) -> dict:
    code, stdout = outputs
    pseed = inputs["pseed"]
    if isinstance(code, Exception):
        tally.fail_all(f"cli raised {type(code).__name__}: {code}")
        return {"program_seed": pseed}
    failures = 0
    for line in stdout.splitlines():
        rep = json.loads(line)
        failures += len(rep["failures"])
        tally.add(rep["cases"], len(rep["failures"]), f"{rep['suite']}: {rep['failures'][:2]}")
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    golden = None if inputs["tiny"] else load_golden()["verify_full_sha256"].get(str(pseed))
    if code != 0:
        tally.fail_all(f"exit code {code}")
    elif not inputs["tiny"] and digest != golden:
        tally.fail_all(f"stdout sha256 {digest} is not the golden {golden}")
    return {"program_seed": pseed, "exit_code": code, "failures": failures, "stdout_sha256": digest}


def acceptance_inputs(seed: int, tiny: bool) -> dict:
    scale = "small" if tiny else "full"
    queries = [(suite, scale, program_seed(seed), tag) for _, suite, tag in ACCEPTANCE_QUERIES]
    return {"pseed": program_seed(seed), "tiny": tiny, "queries": queries}


def acceptance_tags(inputs: dict) -> list:
    """The tag-filtered `run_suite` queries of the acceptance criteria."""
    from grothcrystal.suites import run_suite

    return [_guarded(run_suite, suite, scale, pseed, tag) for suite, scale, pseed, tag in inputs["queries"]]


def acceptance_check(inputs: dict, outputs: list, tally: Tally) -> dict:
    counts: dict[str, int] = {}
    for (crit, _, tag), rep in zip(ACCEPTANCE_QUERIES, outputs):
        if isinstance(rep, Exception):
            tally.add(1, 1, f"{tag} raised {type(rep).__name__}: {rep}")
            continue
        counts[crit] = counts.get(crit, 0) + rep.cases
        tally.add(rep.cases, len(rep.failures), f"{tag}: {rep.failures[:2]}")
    if not inputs["tiny"] and counts != ACCEPTANCE_COUNTS:
        tally.fail_all(f"case counts {counts} are not {ACCEPTANCE_COUNTS}")
    return {"program_seed": inputs["pseed"], "counts": counts}


def crystal_deep_inputs(seed: int, tiny: bool) -> dict:
    """A nonzero palette beta for each box size n, drawn by the seed; every
    pass of a run computes the same boxes."""
    from fractions import Fraction

    from grothcrystal.suites import generic_beta

    rng = random.Random(f"crystal-deep:{seed}")
    ns, beta0_ns = (TINY_NS, TINY_BETA0_NS) if tiny else (DEEP_NS, DEEP_BETA0_NS)
    return {
        "nonzero": [(n, generic_beta(rng, nonzero=True)) for n in ns],
        "zero": [(n, Fraction(0)) for n in beta0_ns],
    }


def _deep_vs_unboxed(n: int, beta) -> bool:
    from grothcrystal.meltingcrystal import z_box_det_series, z_infinite

    return z_box_det_series(n, n, beta, n) == z_infinite(beta, n)


def _deep_vs_product(n: int, beta) -> bool:
    from grothcrystal.exactcore import TruncatedSeries
    from grothcrystal.meltingcrystal import z_box_beta0, z_box_det_series

    q = TruncatedSeries.indeterminate(n)
    return z_box_det_series(n, n, beta, n) == z_box_beta0(n, n, n, q)


def crystal_deep(inputs: dict) -> list:
    """Deep boxed-crystal series determinants against two independent routes:
    through order n, z_box_det_series(n, n, beta, n) equals the unboxed
    series, and at beta = 0 the classical box product."""
    return [_guarded(_deep_vs_unboxed, n, beta) for n, beta in inputs["nonzero"]] + [
        _guarded(_deep_vs_product, n, beta) for n, beta in inputs["zero"]
    ]


def crystal_deep_check(inputs: dict, outputs: list, tally: Tally) -> dict:
    routes = ["z_infinite"] * len(inputs["nonzero"]) + ["z_box_beta0"] * len(inputs["zero"])
    for (n, beta), route, ok in zip(inputs["nonzero"] + inputs["zero"], routes, outputs):
        tally.add(1, int(ok is not True), f"n={n} beta={beta} against {route}: {ok!r}")
    return {"betas": {str(n): str(beta) for n, beta in inputs["nonzero"]}}


WORKLOADS = {
    "verify-full": (verify_full_inputs, verify_full, verify_full_check),
    "acceptance-tags": (acceptance_inputs, acceptance_tags, acceptance_check),
    "crystal-deep": (crystal_deep_inputs, crystal_deep, crystal_deep_check),
}


# -- child entry points -------------------------------------------------------


def child_setup() -> dict:
    """Time a fresh interpreter's import of the package and its CLI."""
    clock = RefClock(interval=0.005)
    with clock:
        t0 = time.perf_counter()
        import_package()
        wall = time.perf_counter() - t0
    return {"setup_s": clock.normalize(wall), "setup_raw_s": wall}


def child_run(workload: str, seed: int, trace: str | None, tiny: bool) -> dict:
    """One timed pass; with `trace`, traced, writing its spans to that file."""
    import_package()
    make_inputs, execute, check = WORKLOADS[workload]
    inputs = make_inputs(seed, tiny)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    clock = RefClock(interval=0.02)
    try:
        with clock:
            t0 = time.perf_counter()
            outputs = execute(inputs)
            wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    tally = Tally()
    detail = check(inputs, outputs, tally)
    wall_s = clock.normalize(wall)
    result = {
        "wall_s": wall_s,
        "wall_raw_s": wall,
        "ref_samples": clock.samples,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "notes": tally.notes,
        "detail": detail,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(scale=wall_s / wall)
        tracer.write_spans(trace)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    run = sub.add_parser("run")
    run.add_argument("workload", choices=sorted(WORKLOADS))
    run.add_argument("seed", type=int)
    run.add_argument("--trace", metavar="SPANS_FILE")
    run.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        result = child_setup()
    else:
        result = child_run(args.workload, args.seed, args.trace, args.tiny)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
