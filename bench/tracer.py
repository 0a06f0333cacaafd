"""Spans and counts recorded around holocurve's layers, from outside.

`install` replaces selected functions with timing wrappers and returns a
callable that puts the originals back.  A name that a module imports with
``from .x import y`` is a binding of its own in the consumer's namespace, so
each such binding is wrapped where it is looked up (``criterion.eval_curve``,
``cli.scan``, ``nehari.solve_ivp``, ...); a wrapper at the definition site
alone would miss those calls.

Each call of a wrapped function appends one span ``[name, start, end,
parent, counts]``; ``parent`` is the index of the enclosing span or -1.  The
process is single-threaded while traced (HOLOCURVE_WORKERS unset), so a
stack gives the parent.  `layer_metrics` reduces the spans to the per-layer
metrics named in BENCHMARK.json.

This module imports nothing from numpy or holocurve at import time, so that
the traced run can time the first import of the package itself.
"""
from __future__ import annotations

import collections
import functools
import importlib
import os
import statistics
import time


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = collections.Counter()   # calls per wrapped binding
        self._stack = []

    def wrap(self, name, fn, count=None, key=None):
        key = key or name

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.calls[key] += 1
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                   None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                rec[4] = count(args, kwargs, result)
            return result
        return traced


# ---------------------------------------------------------------------------
# Counters: each takes (args, kwargs, result) of the wrapped call.
# ---------------------------------------------------------------------------

def _size(x) -> int:
    size = getattr(x, "size", None)
    if size is not None:
        return int(size)
    try:
        return len(x)
    except TypeError:
        return 1


def _eval_points(args, kwargs, result):
    return {"points": _size(args[1] if len(args) > 1 else kwargs["z"])}


def _jet_points(args, kwargs, result):
    return {"points": _size(getattr(args[0], "z", 0))}


def _csv_counts(args, kwargs, result):
    report, path = args[0], args[1]
    counts = {"rows": int(report.n_points)}
    if isinstance(path, (str, os.PathLike)):
        counts["bytes"] = os.path.getsize(path)
    return counts


def _graph_counts(args, kwargs, result):
    graph = args[0]
    return {"nodes": int(graph.shape[0]), "edges": int(graph.nnz)}


def _nfev(args, kwargs, result):
    return {"nfev": int(result.nfev)}


def _result_len(args, kwargs, result):
    return {"points": len(result)}


# (where, span name, counter).  `where` is "module:attribute[.attribute]".
TARGETS = [
    ("holocurve.cli:main", "cli.main", None),
    ("holocurve.jets:HoloCurve.eval", "jets.eval", _eval_points),
    ("holocurve.criterion:eval_curve", "jets.eval_curve", None),
    ("holocurve.oracle:eval_curve", "jets.eval_curve", None),
    ("holocurve.criterion:conformal_data", "schwarzian.conformal_data",
     _jet_points),
    ("holocurve.oracle:conformal_data", "schwarzian.conformal_data",
     _jet_points),
    ("holocurve.ahlfors:conformal_data", "schwarzian.conformal_data",
     _jet_points),
    ("holocurve.cli:scan", "criterion.scan", None),
    ("holocurve.cli:write_scan_csv", "criterion.write_scan_csv",
     _csv_counts),
    ("holocurve.cli:intrinsic_min_distance",
     "criterion.intrinsic_min_distance", None),
    ("holocurve.criterion:dijkstra", "criterion.dijkstra", _graph_counts),
    ("holocurve.cli:boundary_diagnostics", "criterion.boundary_diagnostics",
     None),
    ("holocurve.criterion:minimize", "criterion.minimize", None),
    ("holocurve.cli:boundary_trace", "criterion.boundary_trace", None),
    ("holocurve.cli:validate_nehari", "nehari.validate_nehari", None),
    ("holocurve.cli:extremal_profile", "nehari.extremal_profile", None),
    ("holocurve.nehari:extremal_profile", "nehari.extremal_profile", None),
    ("holocurve.cli:extremality_margin", "nehari.extremality_margin", None),
    ("holocurve.cli:completeness_probe", "nehari.completeness_probe", None),
    ("holocurve.nehari:solve_ivp", "nehari.solve_ivp", _nfev),
    ("holocurve.cli:injectivity_scan", "oracle.injectivity_scan", None),
    ("holocurve.oracle:_admissible_min_brute", "oracle.admissible_min_brute",
     None),
    ("holocurve.cli:identity_suite", "oracle.identity_suite", None),
    ("holocurve.oracle:compose_real", "ahlfors.compose_real", None),
    ("holocurve.oracle:make_speed_curvature", "ahlfors.make_speed_curvature",
     None),
    ("holocurve.oracle:s1_of_composed_curve", "ahlfors.s1_of_composed_curve",
     None),
    ("holocurve.oracle:s1_via_curvature", "ahlfors.s1_via_curvature", None),
    ("holocurve.oracle:s1_from_speed_curvature",
     "ahlfors.s1_from_speed_curvature", None),
    ("holocurve.oracle:s1_mobius_invariance_check",
     "ahlfors.s1_mobius_invariance_check", None),
    ("holocurve.cli:strip_constants_check", "fixtures.strip_constants_check",
     None),
    ("holocurve.criterion:disk_samples", "sampling.disk_samples",
     _result_len),
    ("holocurve.oracle:disk_samples", "sampling.disk_samples", _result_len),
    ("holocurve.fixtures:strip_samples", "sampling.strip_samples",
     _result_len),
]

# The KD-tree is a compiled class: `oracle.cKDTree` is replaced by a factory
# whose trees time their own construction and queries as "oracle.kdtree".
KDTREE_TARGET = "holocurve.oracle:cKDTree"


class _TracedTree:
    def __init__(self, tracer, tree):
        self._tracer = tracer
        self._tree = tree

    def __getattr__(self, attr):
        value = getattr(self._tree, attr)
        if not callable(value):
            return value

        def call(*args, **kwargs):
            args = [a._tree if isinstance(a, _TracedTree) else a
                    for a in args]
            return value(*args, **kwargs)
        return self._tracer.wrap("oracle.kdtree", call)

    def __len__(self):
        return len(self._tree)


def _resolve(where):
    """(object holding the binding, attribute name, current value); the
    value is None when the module, a parent or the binding itself is gone."""
    module_name, _, path = where.partition(":")
    *parents, attr = path.split(".")
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None, attr, None
    for part in parents:
        owner = getattr(owner, part, None)
    return owner, attr, getattr(owner, attr, None)


def install(tracer: Tracer):
    """Wrap every target; return a callable that puts the originals back.

    A target the library no longer has raises LookupError before anything
    is wrapped: its metrics would read 0, which looks like a gain.
    """
    found = {where: _resolve(where)
             for where in [t[0] for t in TARGETS] + [KDTREE_TARGET]}
    missing = [where for where, (_, _, value) in found.items()
               if value is None]
    if missing:
        raise LookupError("wrap targets not found: " + ", ".join(missing))

    saved = []
    for where, name, count in TARGETS:
        owner, attr, original = found[where]
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, count, key=where))

    owner, attr, tree_cls = found[KDTREE_TARGET]
    saved.append((owner, attr, tree_cls))
    build = tracer.wrap("oracle.kdtree", lambda *a, **k: tree_cls(*a, **k),
                        key=KDTREE_TARGET)
    setattr(owner, attr, lambda *a, **k: _TracedTree(tracer, build(*a, **k)))

    def restore():
        for owner_, attr_, original_ in reversed(saved):
            setattr(owner_, attr_, original_)
    return restore


def wrapper_cost_s(batches: int = 7, calls: int = 20000) -> float:
    """Extra time of one call through Tracer.wrap over a direct call of the
    same no-op function: the median over batches of calls."""
    def noop():
        return None

    trace = Tracer()
    wrapped = trace.wrap("calibration", noop)
    costs = []
    for _ in range(batches):
        trace.spans.clear()
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            wrapped()
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


# ---------------------------------------------------------------------------
# Reduction of spans to per-layer metrics
# ---------------------------------------------------------------------------

# metric -> (reduction, span names[, count field])
#   incl: summed duration of the spans not nested in a span of the same set
#   self: summed duration minus the time covered by direct child spans
#   calls: number of spans; sum: summed count field
LAYER_METRICS = {
    "cli.main_s": ("self", ["cli.main"]),
    "jets.eval_s": ("incl", ["jets.eval"]),
    "jets.eval_points": ("sum", ["jets.eval"], "points"),
    "jets.eval_calls": ("calls", ["jets.eval"]),
    "schwarzian.conformal_s": ("incl", ["schwarzian.conformal_data"]),
    "schwarzian.conformal_points": ("sum", ["schwarzian.conformal_data"],
                                    "points"),
    "criterion.scan_s": ("self", ["criterion.scan"]),
    "criterion.csv_s": ("incl", ["criterion.write_scan_csv"]),
    "criterion.csv_rows": ("sum", ["criterion.write_scan_csv"], "rows"),
    "criterion.csv_bytes": ("sum", ["criterion.write_scan_csv"], "bytes"),
    "criterion.covering_s": ("self", ["criterion.intrinsic_min_distance"]),
    "criterion.dijkstra_s": ("incl", ["criterion.dijkstra"]),
    "criterion.graph_nodes": ("sum", ["criterion.dijkstra"], "nodes"),
    "criterion.graph_edges": ("sum", ["criterion.dijkstra"], "edges"),
    "criterion.boundary_s": ("self", ["criterion.boundary_diagnostics"]),
    "criterion.minimize_calls": ("calls", ["criterion.minimize"]),
    "criterion.trace_s": ("incl", ["criterion.boundary_trace"]),
    "nehari.margin_s": ("incl", ["nehari.extremality_margin"]),
    "nehari.profile_s": ("incl", ["nehari.extremal_profile"]),
    "nehari.probe_s": ("incl", ["nehari.completeness_probe"]),
    "nehari.validate_s": ("incl", ["nehari.validate_nehari"]),
    "nehari.ode_solves": ("calls", ["nehari.solve_ivp"]),
    "nehari.rhs_evals": ("sum", ["nehari.solve_ivp"], "nfev"),
    "oracle.injectivity_s": ("self", ["oracle.injectivity_scan"]),
    "oracle.kdtree_s": ("incl", ["oracle.kdtree"]),
    "oracle.brute_calls": ("calls", ["oracle.admissible_min_brute"]),
    "oracle.brute_s": ("incl", ["oracle.admissible_min_brute"]),
    "oracle.identity_s": ("incl", ["oracle.identity_suite"]),
    "ahlfors.s1_s": ("incl", [t[1] for t in TARGETS
                              if t[1].startswith("ahlfors.")]),
    "fixtures.strip_constants_s": ("incl",
                                   ["fixtures.strip_constants_check"]),
    "sampling.disk_samples_s": ("incl", ["sampling.disk_samples"]),
    "sampling.strip_samples_s": ("incl", ["sampling.strip_samples"]),
    "sampling.points": ("sum", ["sampling.disk_samples",
                                "sampling.strip_samples"], "points"),
}


def layer_metrics(spans) -> dict:
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def outermost(i, names):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return False
            parent = spans[parent][3]
        return True

    out = {}
    for metric, (how, names, *field) in LAYER_METRICS.items():
        names = set(names)
        idx = [i for i, s in enumerate(spans) if s[0] in names]
        if how == "calls":
            out[metric] = len(idx)
        elif how == "sum":
            out[metric] = sum((spans[i][4] or {}).get(field[0], 0)
                              for i in idx)
        elif how == "self":
            out[metric] = sum(spans[i][2] - spans[i][1] - child_time[i]
                              for i in idx)
        else:
            out[metric] = sum(spans[i][2] - spans[i][1] for i in idx
                              if outermost(i, names))
    points = out["jets.eval_points"]
    out["jets.ns_per_point"] = (1e9 * out["jets.eval_s"] / points
                                if points else 0.0)
    return out
