"""grothcrystal benchmark: end-to-end and per-layer metrics for three workloads.

    python3 bench/run.py --workload verify-full --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl

A run is a closed loop with one client: it starts one child process at a
time (`worker.py`), first a few that time the package import (setup_s), then
passes of the workload until `--seconds` is spent.  With `--trace 1` it makes
TRACE_BASELINE untraced passes and one traced pass instead and reports the
per-layer metrics.
It prints a record line {"bench": ...} and, last, the result line
{"correct", "attempted", "failed", "metrics"}.  Saved stdout of several runs
is a result set for `--compare`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from compare import compare_files, quartiles

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("verify-full", "acceptance-tags", "crystal-deep")
SETUP_CHILDREN = 7
TRACE_BASELINE = 3  # untraced passes whose median wall_s the traced pass is set against
RUN_LIMIT_S = 160.0  # every child is killed by then, so a run ends within 180 s


# -- children -----------------------------------------------------------------


def run_child(args: list[str], timeout: float) -> tuple[dict | None, float, str]:
    """Run worker.py with `args`; return (its JSON or None, peak RSS in MB, error)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *args],
        cwd=ROOT,
        env=env,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
    )
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
    finally:
        killer.cancel()
        proc.stdout.close()
        # reap it ourselves: wait4 gives this child's own resource usage
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    peak_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    if proc.returncode != 0:
        return None, peak_mb, f"child exited with {proc.returncode}"
    try:
        return json.loads(out.decode().strip().splitlines()[-1]), peak_mb, ""
    except (ValueError, IndexError):
        return None, peak_mb, "child printed no result"


def env_record(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "src_lines": sum(
            len(p.read_bytes().splitlines()) for p in sorted(SRC_DIR.rglob("*.py"))
        ),
    }


class Run:
    """One benchmark run: children, their results, and what went wrong."""

    def __init__(self, workload: str, seed: int, tiny: bool = False) -> None:
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.t0 = time.perf_counter()
        self.passes: list[dict] = []
        self.errors: list[str] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.t0)

    def setup(self) -> list[float]:
        """setup_s of SETUP_CHILDREN fresh interpreters, after one to warm
        the file cache and write bytecode."""
        times = []
        for i in range(SETUP_CHILDREN + 1):
            res, _, err = run_child(["setup"], self.remaining())
            if res is None:
                self.errors.append(f"setup: {err}")
            elif i:
                times.append(res["setup_s"])
        return times

    def one_pass(self, trace_file: str | None = None) -> dict | None:
        args = ["run", self.workload, str(self.seed)]
        if trace_file:
            args += ["--trace", trace_file]
        if self.tiny:
            args.append("--tiny")
        res, peak_mb, err = run_child(args, self.remaining())
        if res is None:
            self.errors.append(f"pass {len(self.passes)}: {err}")
            return None
        res["peak_rss_mb"] = peak_mb
        res["traced"] = bool(trace_file)
        self.passes.append(res)
        return res

    def loop(self, seconds: float) -> None:
        """Passes until `seconds` are spent; a pass starts only if it is
        expected to end before the budget plus half a pass."""
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            if self.one_pass() is None:
                return
            last = time.perf_counter() - t
            if time.perf_counter() - start + 0.5 * last > seconds:
                return


def summarize(run: Run, setup_times: list[float], trace: bool, seconds: int) -> tuple[dict, dict]:
    untraced = [p for p in run.passes if not p["traced"]]
    traced = [p for p in run.passes if p["traced"]]
    attempted = sum(p["attempted"] for p in run.passes) + len(run.errors)
    failed = sum(p["failed"] for p in run.passes) + len(run.errors)
    correct = bool(run.passes) and not run.errors and failed == 0
    wall = [p["wall_s"] for p in untraced]
    raw = [p["wall_raw_s"] for p in untraced]
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": env_record(run.seed),
        "wall_s_quartiles": quartiles(wall) if wall else None,
        "wall_raw_s_quartiles": quartiles(raw) if raw else None,
        "setup_s_all": setup_times,
        "failed_frac": failed / attempted if attempted else 1.0,
        "errors": run.errors,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in run.passes],
    }
    metrics = {}
    if not trace:
        if wall and setup_times:
            metrics = {
                "wall_s": {"value": statistics.median(wall), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {
                    "value": statistics.median(p["peak_rss_mb"] for p in untraced),
                    "unit": "MB",
                },
            }
    elif traced and wall:
        from tracer import per_layer

        layers = dict(traced[0]["layers"])
        layers["trace.wall_s"] = traced[0]["wall_s"]
        layers["trace.overhead_s"] = traced[0]["wall_s"] - statistics.median(wall)
        metrics = {k: {"value": layers[k], "unit": unit} for k, unit in per_layer().items()}
    if not metrics:
        correct = False
    result = {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    return record, result


def bench(workload: str, seed: int, seconds: int, trace: bool) -> int:
    if not (SRC_DIR / "grothcrystal" / "__init__.py").is_file():
        print(f"error: no grothcrystal package under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))  # the tracer names a metric for each of the program's suites
    run = Run(workload, seed)
    setup_times = run.setup()
    if trace:
        OUT_DIR.mkdir(exist_ok=True)
        # every pass has the same inputs, so the traced pass less the median
        # untraced one is the tracing overhead
        for _ in range(TRACE_BASELINE):
            run.one_pass()
        run.one_pass(str(OUT_DIR / f"spans-{workload}-seed{seed}.csv.gz"))
    else:
        run.loop(seconds)
    record, result = summarize(run, setup_times, trace, seconds)
    print(json.dumps({"bench": record}))
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = parser.parse_args(argv)
    if args.compare:
        print(compare_files(*args.compare))
        return 0
    if args.workload is None:
        parser.error("--workload or --compare is required")
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
