"""Compare two result sets of the benchmark, workload by workload.

    python3 bench/run.py --compare PARENT.jsonl CHANGE.jsonl

A result set is the saved stdout of several `--trace 0` runs: each run's
{"bench": ...} record line followed by its result line.  The i-th run of a
workload in one set is paired with the i-th in the other, so make the runs
alternating parent and change, with the same seeds and `--seconds`.

Verdict per workload and end-to-end metric, with the bound and direction
from BENCHMARK.json:
  failed      a larger share of the change's operations failed than of the
              parent's: no time of the change counts;
  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither), with 10 pairs or more, and the medians differ by more
              than the parent's quartile distance;
  unresolved  the parent's own quartile distance, as a share of its median,
              is wider than the bound, and not every change run reads better
              than every parent run;
  worse       the change's median is worse than the parent's by more than
              the bound, as a share of the parent's median;
  no worse    otherwise.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10


def load_runs(path: str) -> dict[str, list[dict]]:
    """workload -> [{"metrics": {name: value}, "failed": n, "attempted": n}]"""
    runs: dict[str, list[dict]] = {}
    record = None
    with open(path) as fh:
        for line in fh:
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if not isinstance(obj, dict):
                continue
            if "bench" in obj:
                record = obj["bench"]
            elif "metrics" in obj and record is not None and not record["trace"]:
                runs.setdefault(record["workload"], []).append(
                    {
                        "metrics": {k: v["value"] for k, v in obj["metrics"].items()},
                        "failed": obj["failed"],
                        "attempted": obj["attempted"],
                    }
                )
                record = None
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict for one metric; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0

    def gain(p: float, c: float) -> float:  # positive when c is better than p
        return sign * (p - c)

    pq1, pmed, pq3 = quartiles(parent)
    cmed = quartiles(change)[1]
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if gain(p, c) > 0)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and gain(pmed, cmed) > pq3 - pq1:
        return "improved"
    if pmed and (pq3 - pq1) / abs(pmed) > bound:
        every_better = all(gain(p, c) > 0 for p in parent for c in change)
        return "no worse" if every_better else "unresolved"
    if -gain(pmed, cmed) > bound * abs(pmed):
        return "worse"
    return "no worse"


def compare_files(parent_path: str, change_path: str) -> str:
    spec = json.loads(BENCHMARK.read_text())
    parent, change = load_runs(parent_path), load_runs(change_path)
    lines = []
    for workload in sorted(set(parent) | set(change)):
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        lines.append(f"{workload}: {len(p_runs)} parent runs, {len(c_runs)} change runs")
        if not p_runs or not c_runs:
            lines.append("  missing on one side, nothing to compare")
            continue
        failed_share = {}
        for label, runs in (("parent", p_runs), ("change", c_runs)):
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            failed_share[label] = failed / attempted
            lines.append(f"  {label} failed {failed} of {attempted} operations")
        more_failed = failed_share["change"] > failed_share["parent"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = [r["metrics"][name] for r in p_runs if name in r["metrics"]]
            cv = [r["metrics"][name] for r in c_runs if name in r["metrics"]]
            if not pv or not cv:
                continue
            pq, cq = quartiles(pv), quartiles(cv)
            ratio = cq[1] / pq[1] if pq[1] else float("nan")
            v = "failed" if more_failed else verdict(pv, cv, metric["better"], metric["bound"])
            lines.append(
                f"  {name:12s} parent {pq[1]:.4g} [{pq[0]:.4g}, {pq[2]:.4g}]"
                f"  change {cq[1]:.4g} [{cq[0]:.4g}, {cq[2]:.4g}] {metric['unit']}"
                f"  ratio {ratio:.3f} (base: parent median)"
                f"  {v}"
                f"  ({min(len(pv), len(cv))} pairs, bound {metric['bound']})"
            )
    return "\n".join(lines)
