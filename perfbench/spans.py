"""Layer spans recorded by wrapping module attributes of the package.

Nothing in the package knows about tracing: :class:`Tracer` replaces a
function wherever a package module binds it (``necklace_walks.cli`` binds
``full_spectrum`` as well as ``necklace_walks.bloch``) and restores it on
:meth:`Tracer.uninstall`.  A hooked name that no longer exists is listed in
``absent``, and every metric that needs it reads ``None``.

Boundaries crossed a few times per operation are stored as spans (name,
start, end, parent span, operation id).  Boundaries crossed once per
sector or vertex are counted and timed in aggregate on the innermost open
span, so tracing stays cheap.  Spans stay in memory until :meth:`export`
runs at the end of a run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time

SPAN_HOOKS = {
    "bloch.full_spectrum": "necklace_walks.bloch:full_spectrum",
    "bloch.all_sector_eigenvalues": "necklace_walks.bloch:all_sector_eigenvalues",
    "parallel.ordered_map": "necklace_walks.parallel:ordered_map",
    "dynamics.limiting_distribution": "necklace_walks.dynamics:limiting_distribution",
    "dynamics.time_averaged": "necklace_walks.dynamics:time_averaged",
    "dynamics.mixing_time": "necklace_walks.dynamics:mixing_time",
    "dynamics.tv_convergence_bound": "necklace_walks.dynamics:tv_convergence_bound",
    "dynamics.degeneracy_partition": "necklace_walks.dynamics:degeneracy_partition",
    "mixing.gap_scan": "necklace_walks.mixing:gap_scan",
}
COUNTER_HOOKS = {
    "bloch.sector_matrix": "necklace_walks.bloch:sector_matrix",
    "eig.eigh": "necklace_walks.eig:eigh",
    "eig.fix_phases": "necklace_walks.eig:fix_phases",
    "mixing.min_nonzero_gap": "necklace_walks.mixing:min_nonzero_gap",
    "comb_analytics.comb1_limiting": "necklace_walks.comb_analytics:comb1_limiting",
    "numpy.eigh": "numpy.linalg:eigh",
    "numpy.eigvalsh": "numpy.linalg:eigvalsh",
}
# Looked up, never wrapped: the dense pair-sum averager that the computed
# per-T flop and byte counts describe.
MARKERS = {"dynamics.dense_averager": "necklace_walks.dynamics:_PairAverager"}
# Public dynamics calls that each build the pair-averaging machinery.
AVERAGER_CALLS = ("dynamics.limiting_distribution", "dynamics.time_averaged",
                  "dynamics.mixing_time", "dynamics.tv_convergence_bound")
# Counter time inside full_spectrum that is eigensolve or sector build.
SOLVE_COUNTERS = ("eig.eigh", "eig.fix_phases", "bloch.sector_matrix",
                  "numpy.eigh", "numpy.eigvalsh")
PACKAGE = "necklace_walks"


def _resolve(target: str):
    module_name, attr = target.split(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, None
    return module, getattr(module, attr, None)


def _matrix_count(args) -> int:
    """Matrices in a (possibly stacked) eigensolver argument."""
    shape = getattr(args[0], "shape", ()) if args else ()
    count = 1
    for size in shape[:-2]:
        count *= size
    return count


class Tracer:
    """Records spans and counters for one child process's operations."""

    def __init__(self):
        self.spans: list[dict] = []
        self.orphans: dict[str, list] = {}
        self.absent: list[str] = []
        self.op: int | None = None
        self.mixing_calls: list[tuple[dict, tuple, dict]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    def install(self) -> None:
        hooks = [(name, target, self._span_wrapper) for name, target in SPAN_HOOKS.items()]
        hooks += [(name, target, self._counter_wrapper) for name, target in COUNTER_HOOKS.items()]
        for name, target, make in hooks:
            module, fn = _resolve(target)
            if fn is None:
                self.absent.append(name)
                continue
            self.originals[name] = fn
            wrapper = make(name, fn)
            holders = [module] + [m for key, m in list(sys.modules.items())
                                  if key == PACKAGE or key.startswith(PACKAGE + ".")]
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)
        for name, target in MARKERS.items():
            if _resolve(target)[1] is None:
                self.absent.append(name)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **extra) -> dict:
        stack = self._stack()
        rec = {"name": name, "op": self.op, "parent": stack[-1] if stack else None,
               "counters": {}, **extra, "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        stack.append(rec)
        return rec

    def close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self._stack().pop()

    def _span_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            rec = tracer.open(name)
            if name == "bloch.full_spectrum":
                rec["n"] = getattr(args[0] if args else None, "n_vertices", None)
            if name == "parallel.ordered_map" and len(args) >= 2:
                args = tracer._under_span(rec, args)
                rec["cpu0"] = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
                if "cpu0" in rec:
                    rec["cpu1"] = time.process_time()
            if name == "dynamics.mixing_time":
                rec["points"] = len(getattr(result, "grid", ()))
                necklace = getattr(args[0] if args else None, "necklace", None)
                rec["n"] = getattr(necklace, "n_vertices", None)
                tracer.mixing_calls.append((rec, args, kwargs))
            return result

        return wrapped

    def _under_span(self, rec: dict, args: tuple) -> tuple:
        """ordered_map's arguments, with each work item run under ``rec``.

        Worker threads start with an empty span stack, so the parent is
        pushed explicitly.
        """
        fn, items = args[0], list(args[1])
        rec["items"] = len(items)

        def carried(item):
            stack = self._stack()
            stack.append(rec)
            try:
                return fn(item)
            finally:
                stack.pop()

        return (carried, items, *args[2:])

    def _counter_wrapper(self, name: str, fn):
        tracer = self
        stacked = name.startswith("numpy.")

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            local = tracer._local
            depth = getattr(local, "depth", 0)
            local.depth = depth + 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                local.depth = depth
                stack = tracer._stack()
                units = _matrix_count(args) if stacked else 1
                with tracer._lock:
                    counters = stack[-1]["counters"] if stack else tracer.orphans
                    # calls, seconds, seconds outside other counters, units
                    c = counters.setdefault(name, [0, 0.0, 0.0, 0])
                    c[0] += 1
                    c[1] += elapsed
                    c[2] += elapsed if depth == 0 else 0.0
                    c[3] += units

        return wrapped

    def export(self) -> dict:
        """Spans with parents as indices, ready for JSON."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        spans = []
        for rec in self.spans:
            out = {k: v for k, v in rec.items() if k != "parent"}
            out["parent"] = index[id(rec["parent"])] if rec["parent"] is not None else None
            spans.append(out)
        return {"spans": spans, "orphans": self.orphans, "absent": self.absent}


# --- per-layer metrics from exported spans ---------------------------------


def _sum(values) -> float:
    return float(sum(values))


class _Run:
    """Queries over one exported trace."""

    def __init__(self, trace: dict):
        self.spans = trace["spans"]
        self.absent = set(trace["absent"])
        self.counter_sets = [s["counters"] for s in self.spans] + [trace["orphans"]]

    def named(self, *names: str) -> list[dict]:
        return [s for s in self.spans if s["name"] in names]

    def ancestors(self, span: dict):
        parent = span["parent"]
        while parent is not None:
            yield self.spans[parent]
            parent = self.spans[parent]["parent"]

    def outermost(self, *names: str) -> list[dict]:
        return [s for s in self.named(*names)
                if not any(a["name"] in names for a in self.ancestors(s))]

    def busy(self, *names: str) -> float:
        return _sum(s["end"] - s["start"] for s in self.outermost(*names))

    def counter(self, name: str, field: int, spans=None) -> float:
        sets = self.counter_sets if spans is None else [s["counters"] for s in spans]
        return _sum(c[name][field] for c in sets if name in c)

    def subtree(self, root: dict) -> list[dict]:
        return [s for s in self.spans if s is root or any(a is root for a in self.ancestors(s))]


def layer_metrics(trace: dict, ops: list[dict]) -> dict[str, float | None]:
    """Per-layer values of one traced run; None marks a metric whose hook is gone.

    ``ops`` holds the child's per-operation records (bytes written and
    ambiguity warnings).
    """
    run = _Run(trace)
    full = run.named("bloch.full_spectrum")
    mixes = run.named("dynamics.mixing_time")
    ordered = run.outermost("parallel.ordered_map")
    op_spans = run.named("cli.op")

    def full_self(span):
        return (span["end"] - span["start"]) - _sum(
            run.counter(name, 2, run.subtree(span)) for name in SOLVE_COUNTERS)

    def in_bloch(span):
        return span["name"].startswith("bloch.") or any(
            a["name"].startswith("bloch.") for a in run.ancestors(span))

    def cli_self(span):
        children = [s for s in run.spans if s["parent"] is not None
                    and run.spans[s["parent"]] is span]
        return (span["end"] - span["start"]) - _sum(
            s["end"] - s["start"] for s in children) - _sum(
            c[2] for c in span["counters"].values())

    points = _sum(s.get("points", 0) for s in mixes)
    ordered_wall = _sum(s["end"] - s["start"] for s in ordered)
    lifted = [s.get("n") for s in full]

    def per_point(cost, needs):
        """Mean over grid points of a per-T quantity of each mixing_time call."""
        if not points:
            return 0.0
        if any(s.get(needs) is None for s in mixes):
            return None
        return _sum(s["points"] * cost(s) for s in mixes) / points

    values = {
        "bloch.full_spectrum.calls": len(full),
        "bloch.full_spectrum.self_s": _sum(full_self(s) for s in full),
        "bloch.lifted_bytes": None if None in lifted else _sum(16 * n * n for n in lifted),
        "bloch.all_sector_eigenvalues.s": run.busy("bloch.all_sector_eigenvalues"),
        "bloch.sectors_solved": _sum(
            run.counter(name, 3, [s for s in run.spans if in_bloch(s)])
            for name in ("numpy.eigh", "numpy.eigvalsh")),
        "bloch.sector_matrix.calls": run.counter("bloch.sector_matrix", 0),
        "bloch.sector_matrix.s": run.counter("bloch.sector_matrix", 1),
        "eig.eigh.calls": run.counter("eig.eigh", 0),
        "eig.eigh.s": run.counter("eig.eigh", 1),
        "eig.fix_phases.calls": run.counter("eig.fix_phases", 0),
        "eig.fix_phases.s": run.counter("eig.fix_phases", 1),
        "parallel.ordered_map.s": ordered_wall,
        "parallel.items": _sum(s.get("items", 0) for s in run.named("parallel.ordered_map")),
        "parallel.cpu_util": (_sum(s["cpu1"] - s["cpu0"] for s in ordered) / ordered_wall
                              if ordered_wall > 0 else 0.0),
        "dynamics.averager_builds": len(run.outermost(*AVERAGER_CALLS)),
        "dynamics.limiting_distribution.s": run.busy("dynamics.limiting_distribution"),
        "dynamics.mixing_time.s": run.busy("dynamics.mixing_time"),
        "dynamics.tv_convergence_bound.s": run.busy("dynamics.tv_convergence_bound"),
        "dynamics.degeneracy_partition.s": run.busy("dynamics.degeneracy_partition"),
        "dynamics.T_points": points,
        "dynamics.per_T_s": per_point(
            lambda s: (s["end"] - s["start"] - s["setup_s"]) / s["points"], "setup_s"),
        # Computed for the dense pair-sum route, not measured: an N x N
        # complex product per T (8 N^3 flop) and about 105 N^2 bytes of
        # kernel, weight and partial-sum traffic.
        "dynamics.flops_per_T": per_point(lambda s: 8.0 * s["n"] ** 3, "n"),
        "dynamics.bytes_per_T": per_point(lambda s: 105.0 * s["n"] ** 2, "n"),
        "dynamics.ambiguous_warnings": _sum(op["warnings"] for op in ops),
        "mixing.gap_scan.s": run.busy("mixing.gap_scan"),
        "mixing.min_nonzero_gap.calls": run.counter("mixing.min_nonzero_gap", 0),
        "mixing.min_nonzero_gap.s": run.counter("mixing.min_nonzero_gap", 1),
        "comb_analytics.comb1_limiting.calls": run.counter("comb_analytics.comb1_limiting", 0),
        "comb_analytics.comb1_limiting.s": run.counter("comb_analytics.comb1_limiting", 1),
        "cli.self_s": _sum(cli_self(s) for s in op_spans),
        "cli.bytes_out": _sum(op["bytes_out"] for op in ops),
    }
    needs = {
        "bloch.full_spectrum": ["bloch.full_spectrum.", "bloch.lifted_bytes"],
        "bloch.all_sector_eigenvalues": ["bloch.all_sector_eigenvalues."],
        "bloch.sector_matrix": ["bloch.sector_matrix."],
        "eig.eigh": ["eig.eigh."],
        "eig.fix_phases": ["eig.fix_phases."],
        "parallel.ordered_map": ["parallel."],
        "dynamics.limiting_distribution": ["dynamics.limiting_distribution.",
                                           "dynamics.per_T_s"],
        "dynamics.mixing_time": ["dynamics.mixing_time.", "dynamics.T_points",
                                 "dynamics.per_T_s", "dynamics.flops_per_T",
                                 "dynamics.bytes_per_T"],
        "dynamics.tv_convergence_bound": ["dynamics.tv_convergence_bound."],
        "dynamics.degeneracy_partition": ["dynamics.degeneracy_partition."],
        "dynamics.dense_averager": ["dynamics.flops_per_T", "dynamics.bytes_per_T"],
        "mixing.gap_scan": ["mixing.gap_scan."],
        "mixing.min_nonzero_gap": ["mixing.min_nonzero_gap."],
        "comb_analytics.comb1_limiting": ["comb_analytics.comb1_limiting."],
        "numpy.eigh": ["bloch.sectors_solved"],
        "numpy.eigvalsh": ["bloch.sectors_solved"],
    }
    for hook in run.absent:
        for prefix in needs.get(hook, []):
            for metric in values:
                if metric.startswith(prefix):
                    values[metric] = None
    if any(hook in run.absent for hook in AVERAGER_CALLS):
        values["dynamics.averager_builds"] = None
    return values


def median_metrics(samples: list[dict]) -> dict:
    """Median of each metric over traced runs; None if any run lacks it."""
    out = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        out[name] = None if None in values else statistics.median(values)
    return out
