"""Quick check of the benchmark itself; it is not part of the test suite.

    python3 bench/selfcheck.py

Runs every workload through the same child code at its smallest size,
untraced and traced; confirms that the tracer puts back every function it
wrapped; checks compare-mode verdicts on synthetic result sets; and checks
that BENCHMARK.json names exactly the metrics the harness reports.
"""

from __future__ import annotations

import inspect
import json
import sys
import tempfile

import compare
import run
from tracer import PACKAGE, Tracer, per_layer

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def snapshot() -> dict:
    """Identity of every attribute the tracer may replace."""
    mods = {n: m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")}
    snap = {}
    for name, mod in mods.items():
        for attr, obj in vars(mod).items():
            snap[(name, attr)] = id(obj)
    exactcore = mods[PACKAGE + ".exactcore"]
    for cls in (exactcore.TruncatedSeries, exactcore.Matrix, exactcore.LaurentPoly):
        for attr, obj in vars(cls).items():
            snap[(cls.__name__, attr)] = id(obj)
    for name, gen in mods[PACKAGE + ".suites"].SUITES.items():
        snap[("SUITES", name)] = id(gen)
    return snap


def check_tracer_restores() -> None:
    import grothcrystal.cli  # noqa: F401
    from grothcrystal import exactcore, meltingcrystal, suites

    before = snapshot()
    tracer = Tracer()
    tracer.install()
    wrapped = (
        hasattr(meltingcrystal.z_box_det_series, "__wrapped__")
        and hasattr(suites.run_suite, "__wrapped__")
        and hasattr(exactcore.TruncatedSeries.__mul__, "__wrapped__")
        and inspect.isgeneratorfunction(suites.SUITES["mc"].__wrapped__)
    )
    expect(wrapped, "tracer wraps module functions, imported names, methods and SUITES")
    meltingcrystal.z_box_det_series(2, 2, 0, 3)
    tracer.uninstall()
    expect(len(tracer.start) > 0, "tracer records spans while installed")
    expect(snapshot() == before, "tracer puts back every wrapped function")


def check_verdicts() -> None:
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    cases = [
        ("improved", [v * 0.8 for v in base], "lower", 0.1),
        ("no worse", [v * 1.03 for v in base], "lower", 0.1),
        ("worse", [v * 1.3 for v in base], "lower", 0.1),
        ("improved", [v * 1.3 for v in base], "higher", 0.1),
        ("worse", [v * 0.7 for v in base], "higher", 0.1),
        ("unresolved", [v * 1.01 for v in base], "lower", 0.001),
    ]
    for want, change, better, bound in cases:
        got = compare.verdict(base, change, better, bound)
        expect(got == want, f"compare verdict {want!r} (got {got!r}, better {better}, bound {bound})")
    # too few pairs never claims a gain, even when every change run is better
    for bound in (0.1, 0.001):
        got = compare.verdict(base[:5], [v * 0.5 for v in base[:5]], "lower", bound)
        expect(got == "no worse", f"compare verdict on 5 pairs, bound {bound}, is 'no worse' (got {got!r})")

    def result_set(scale: float, failed: int = 0) -> str:
        lines = []
        for v in base:
            lines.append(json.dumps({"bench": {"workload": "crystal-deep", "trace": 0}}))
            metrics = {
                "wall_s": {"value": v * scale, "unit": "s"},
                "setup_s": {"value": 0.1, "unit": "s"},
                "peak_rss_mb": {"value": 20.0, "unit": "MB"},
            }
            lines.append(
                json.dumps({"correct": not failed, "attempted": 7, "failed": failed, "metrics": metrics})
            )
        return "\n".join(lines) + "\n"

    def compare_sets(parent: str, change: str) -> str:
        """compare.py's line for wall_s on two synthetic result sets."""
        run.OUT_DIR.mkdir(exist_ok=True)
        with tempfile.NamedTemporaryFile("w", dir=run.OUT_DIR) as p, tempfile.NamedTemporaryFile(
            "w", dir=run.OUT_DIR
        ) as c:
            p.write(parent)
            c.write(change)
            p.flush()
            c.flush()
            text = compare.compare_files(p.name, c.name)
        return next((ln for ln in text.splitlines() if "wall_s" in ln), "")

    line = compare_sets(result_set(1.0), result_set(0.8))
    expect("improved" in line and "ratio 0.800" in line, "compare reads result sets")
    # a faster change whose operations fail more often never improves
    line = compare_sets(result_set(1.0), result_set(0.8, failed=1))
    expect("  failed  " in line and "improved" not in line, f"compare verdict 'failed' ({line.strip()})")


def check_spec() -> None:
    spec = json.loads(compare.BENCHMARK.read_text())
    expect(
        [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(per_layer().items()),
        "BENCHMARK.json per_layer lists the tracer's metrics and units",
    )
    expect(
        {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"},
        "BENCHMARK.json end_to_end lists the metrics run.py reports",
    )
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names match")


def check_tiny_passes() -> None:
    layer_names = [k for k in per_layer() if not k.startswith("trace.")]
    run.OUT_DIR.mkdir(exist_ok=True)
    for workload in run.WORKLOADS:
        r = run.Run(workload, seed=1, tiny=True)
        plain = r.one_pass()
        with tempfile.NamedTemporaryFile(suffix=".csv.gz", dir=run.OUT_DIR) as spans:
            traced = r.one_pass(spans.name)
        for label, res in (("untraced", plain), ("traced", traced)):
            expect(
                res is not None and res["attempted"] > 0 and res["failed"] == 0 and not r.errors,
                f"{workload}: tiny {label} pass passes its checks ({r.errors or (res and res['notes'])})",
            )
        expect(
            traced is not None and list(traced["layers"]) == layer_names,
            f"{workload}: traced pass reports every per-layer metric",
        )


def main() -> int:
    sys.path.insert(0, str(run.SRC_DIR))
    check_spec()
    check_verdicts()
    check_tracer_restores()
    check_tiny_passes()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
