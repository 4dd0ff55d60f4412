"""Span tracer that wraps the program's public functions from outside.

`Tracer.install()` replaces every public function of the package's modules,
in every module namespace that holds it, plus the arithmetic methods of
`TruncatedSeries`, `Matrix` and `LaurentPoly`, with a wrapper that records a
span (name, start, end, parent) in memory.  `uninstall()` puts every original
back.  Self time is a span's duration minus the time its child spans cover.
Helpers called more than 100k times per verify-full pass are left unwrapped;
their time counts as their caller's.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array

from worker import DEEP_NS

PACKAGE = "grothcrystal"
MODULES = (
    "exactcore",
    "partitions",
    "grothendieck",
    "fivevertex",
    "phasemodel",
    "meltingcrystal",
    "sixvertex",
    "suites",
    "cli",
)

SKIP = {
    "partitions": {
        "part",
        "pp_entry",
        "pp_size",
        "diagonal_slice",
        "check_partition",
        "check_plane_partition",
        "normalize_plane_partition",
    },
}

METHODS = {
    "TruncatedSeries": ("__mul__", "__rmul__", "__pow__", "inverse"),
    "Matrix": ("__matmul__", "det", "inverse"),
    "LaurentPoly": ("__mul__", "__rmul__", "__pow__"),
}


def suite_names() -> tuple[str, ...]:
    """The program's suites; the package must be importable."""
    from grothcrystal.suites import SUITES

    return tuple(SUITES)


def per_layer() -> dict[str, str]:
    """Per-layer metric name -> unit, in the order BENCHMARK.json lists them."""
    return {
        "exactcore.series_mul.calls": "count",
        "exactcore.series_mul.self_s": "s",
        "exactcore.series_mul.coeff_ops": "count",
        "exactcore.series_inverse.calls": "count",
        "exactcore.series_inverse.self_s": "s",
        "exactcore.series.order_max": "count",
        "exactcore.det_ring.calls": "count",
        "exactcore.det_ring.self_s": "s",
        "exactcore.matrix_det.calls": "count",
        "exactcore.matrix_det.self_s": "s",
        "exactcore.matmul.calls": "count",
        "exactcore.matmul.self_s": "s",
        "exactcore.matmul.scalar_ops": "count",
        "exactcore.embed_pair.calls": "count",
        "exactcore.embed_pair.self_s": "s",
        "exactcore.laurent_mul.calls": "count",
        "exactcore.laurent_mul.self_s": "s",
        "exactcore.self_s": "s",
        **{f"meltingcrystal.z_box_det_series.n{n}.wall_s": "s" for n in DEEP_NS},
        "meltingcrystal.series_order_inflation": "ratio",
        "meltingcrystal.z_box_bruteforce.self_s": "s",
        "meltingcrystal.weight_phi.calls": "count",
        "meltingcrystal.z_infinite.self_s": "s",
        "meltingcrystal.self_s": "s",
        "partitions.enumerate_boxed.items": "count",
        "partitions.self_s": "s",
        "fivevertex.monodromy_element.calls": "count",
        "fivevertex.monodromy_element.self_s": "s",
        "fivevertex.transfer_matrix.self_s": "s",
        "fivevertex.self_s": "s",
        "phasemodel.monodromy_element_phase.calls": "count",
        "phasemodel.monodromy_element_phase.self_s": "s",
        "phasemodel.check_rll_phase.self_s": "s",
        "phasemodel.transfer_matrix_phase.self_s": "s",
        "phasemodel.self_s": "s",
        "grothendieck.self_s": "s",
        "sixvertex.self_s": "s",
        "suites.run_suite.calls": "count",
        "suites.cases_generated": "count",
        "suites.cases_matched": "count",
        "suites.match_share": "ratio",
        **{f"suites.run_suite.{s}.wall_s": "s" for s in suite_names()},
        "suites.self_s": "s",
        "cli.self_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
    }


def _series_order(args, kwargs, result):
    return len(args[0].coeffs) - 1


def _series_mul(args, kwargs, result):
    """(order d, coefficient products): (d+1)(d+2)/2 for series x series,
    d + 1 for series x scalar."""
    d = len(args[0].coeffs) - 1
    if type(args[1]).__name__ == "TruncatedSeries":
        return d, (d + 1) * (d + 2) // 2
    return d, d + 1


def _matmul_ops(args, kwargs, result):
    a, b = args
    return a.rows * a.cols * b.cols


def _det_series_args(args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    order = args[3] if len(args) > 3 else kwargs["order"]
    return n, order


def _run_suite_result(args, kwargs, result):
    name = args[0] if args else kwargs["name"]
    return name, result.cases


# qualified name -> function of (args, kwargs, result) kept with the span
NOTES = {
    "exactcore.TruncatedSeries.__mul__": _series_mul,
    "exactcore.TruncatedSeries.inverse": _series_order,
    "exactcore.Matrix.__matmul__": _matmul_ops,
    "meltingcrystal.z_box_det_series": _det_series_args,
    "suites.run_suite": _run_suite_result,
}


class Tracer:
    """Records spans of calls into the program while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self._stack = [-1]
        self._restore: list[tuple[object, str, object]] = []
        self.generated = 0

    # -- wrapping -------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        note = NOTES.get(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        notes, stack, clock = self.notes, self._stack, time.perf_counter

        def enter() -> int:
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            return sid

        if inspect.isgeneratorfunction(fn):
            # one span per resume; a resume that yields notes an item
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    sid = enter()
                    start[sid] = clock()
                    try:
                        item = next(gen)
                    except StopIteration:
                        notes[sid] = 0
                        return
                    finally:
                        end[sid] = clock()
                        stack.pop()
                    notes[sid] = 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = enter()
            start[sid] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if note is not None:
                notes[sid] = note(args, kwargs, result)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap the public functions and methods; the package must be imported."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # original function -> its wrapper
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in SKIP.get(short, ())
                ):
                    wrappers[obj] = self._wrap(obj, f"{short}.{attr}")
        exactcore = sys.modules[f"{PACKAGE}.exactcore"]
        for cls_name, methods in METHODS.items():
            cls = getattr(exactcore, cls_name)
            for meth in methods:
                # __rmul__ is the same function as __mul__ and shares its name
                fn = vars(cls)[meth]
                self._set(cls, meth, self._wrap(fn, f"exactcore.{cls_name}.{fn.__name__}"))
        for name, mod in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._set(mod, attr, wrappers[obj])
        suites = sys.modules[f"{PACKAGE}.suites"]
        for name, gen in list(suites.SUITES.items()):
            self._restore.append((suites.SUITES, name, gen))
            suites.SUITES[name] = self._counting(gen)

    def _counting(self, gen_fn):
        @functools.wraps(gen_fn)
        def counted(*args, **kwargs):
            for case in gen_fn(*args, **kwargs):
                self.generated += 1
                yield case

        return counted

    def uninstall(self) -> None:
        """Put back every original, in reverse order of replacement."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.start)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        return [self.end[s] - self.start[s] - child[s] for s in range(n)]

    def layer_metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Every per-layer metric but trace.*; times multiplied by `scale`."""
        n = len(self.start)
        self_t = self.self_times()
        by_name: dict[str, list[int]] = {name: [] for name in self.names}
        for sid in range(n):
            by_name[self.names[self.name_of[sid]]].append(sid)

        def calls(name: str) -> int:
            return len(by_name.get(name, ()))

        def self_s(name: str) -> float:
            return scale * sum(self_t[s] for s in by_name.get(name, ()))

        def wall_s(sids) -> float:
            return scale * sum(self.end[s] - self.start[s] for s in sids)

        def notes(name: str) -> list:
            return [self.notes[s] for s in by_name.get(name, ())]

        mul, inv = "exactcore.TruncatedSeries.__mul__", "exactcore.TruncatedSeries.inverse"
        det_series, run_suite = "meltingcrystal.z_box_det_series", "suites.run_suite"

        # highest series order under each span, children before parents
        order = [-1] * n
        for s in by_name.get(mul, ()):
            order[s] = self.notes[s][0]
        for s in by_name.get(inv, ()):
            order[s] = self.notes[s]
        for sid in range(n - 1, -1, -1):
            p = self.parent[sid]
            if p >= 0 and order[sid] > order[p]:
                order[p] = order[sid]

        m: dict[str, float] = {
            "exactcore.series_mul.calls": calls(mul),
            "exactcore.series_mul.self_s": self_s(mul),
            "exactcore.series_mul.coeff_ops": sum(ops for _, ops in notes(mul)),
            "exactcore.series_inverse.calls": calls(inv),
            "exactcore.series_inverse.self_s": self_s(inv),
            "exactcore.series.order_max": max([d for d, _ in notes(mul)] + notes(inv), default=0),
        }
        for key, name in (
            ("det_ring", "exactcore.det_ring"),
            ("matrix_det", "exactcore.Matrix.det"),
            ("matmul", "exactcore.Matrix.__matmul__"),
            ("embed_pair", "exactcore.embed_pair"),
            ("laurent_mul", "exactcore.LaurentPoly.__mul__"),
        ):
            m[f"exactcore.{key}.calls"] = calls(name)
            m[f"exactcore.{key}.self_s"] = self_s(name)
        m["exactcore.matmul.scalar_ops"] = sum(notes("exactcore.Matrix.__matmul__"))
        for deep in DEEP_NS:
            m[f"meltingcrystal.z_box_det_series.n{deep}.wall_s"] = wall_s(
                s for s in by_name.get(det_series, ()) if self.notes[s][0] == deep
            )
        m["meltingcrystal.series_order_inflation"] = max(
            (order[s] / self.notes[s][1] for s in by_name.get(det_series, ()) if self.notes[s][1]),
            default=0.0,
        )
        m["meltingcrystal.z_box_bruteforce.self_s"] = self_s("meltingcrystal.z_box_bruteforce")
        m["meltingcrystal.weight_phi.calls"] = calls("meltingcrystal.weight_phi")
        m["meltingcrystal.z_infinite.self_s"] = self_s("meltingcrystal.z_infinite")
        m["partitions.enumerate_boxed.items"] = sum(notes("partitions.enumerate_boxed"))
        m["fivevertex.monodromy_element.calls"] = calls("fivevertex.monodromy_element")
        m["fivevertex.monodromy_element.self_s"] = self_s("fivevertex.monodromy_element")
        m["fivevertex.transfer_matrix.self_s"] = self_s("fivevertex.transfer_matrix")
        m["phasemodel.monodromy_element_phase.calls"] = calls("phasemodel.monodromy_element_phase")
        m["phasemodel.monodromy_element_phase.self_s"] = self_s("phasemodel.monodromy_element_phase")
        m["phasemodel.check_rll_phase.self_s"] = self_s("phasemodel.check_rll_phase")
        m["phasemodel.transfer_matrix_phase.self_s"] = self_s("phasemodel.transfer_matrix_phase")
        suite_calls = notes(run_suite)
        matched = sum(cases for _, cases in suite_calls)
        m["suites.run_suite.calls"] = len(suite_calls)
        m["suites.cases_generated"] = self.generated
        m["suites.cases_matched"] = matched
        m["suites.match_share"] = matched / self.generated if self.generated else 0.0
        for suite in suite_names():
            m[f"suites.run_suite.{suite}.wall_s"] = wall_s(
                s for s in by_name.get(run_suite, ()) if self.notes[s][0] == suite
            )
        for short in MODULES:
            m[f"{short}.self_s"] = sum(
                self_s(name) for name in by_name if name.startswith(short + ".")
            )
        return {k: m[k] for k in per_layer() if k in m}

    def write_spans(self, path: str) -> None:
        """All spans as gzip'd CSV: id,parent,name,start_s,end_s."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid in range(len(self.start)):
                fh.write(
                    f"{sid},{self.parent[sid]},{self.names[self.name_of[sid]]},"
                    f"{self.start[sid]:.9f},{self.end[sid]:.9f}\n"
                )
