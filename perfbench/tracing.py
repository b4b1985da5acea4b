"""In-process tracing of calls into pfclust's public functions.

The tracer wraps public functions of each pfclust module, from outside
the package: every module attribute that is the original function is
swapped for a wrapper while the tracer is installed, so calls the CLI
and the library make to each other are recorded wherever they are made.
Each call becomes a span (name, start, end, parent span, pass id,
thread, info). Spans stay in memory and are written out when the run ends.

Per-layer metrics are computed from the spans of one pass. Two numbers
cannot be spanned from outside and come from probes, one extra call at
the run's final state: the distance kernel, timed through
``validity.rmse`` (u^m * d^2 over the same n, k and d), and its
tracemalloc peak.
"""

from __future__ import annotations

import itertools
import json
import statistics
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from pfclust import validity


def _len_of_first(args, kwargs, result):
    source = args[0] if args else kwargs.get("source")
    return {"bytes": len(source)} if isinstance(source, (str, bytes)) else {}


def _iterations(args, kwargs, result):
    return {"iterations": int(result.iterations)}


def _rough_info(args, kwargs, result):
    return {
        "iterations": int(result.iterations),
        "max_iter": int(kwargs.get("max_iter", args[5] if len(args) > 5 else 300)),
    }


def _grid_info(args, kwargs, result):
    workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
    return {
        "workers": int(workers),
        "rows": [
            (r.algorithm, float(r.runtime), r.iterations, r.converged, r.error)
            for r in result.rows
        ],
    }


# (module, function, span info hook); the span name is "<module>.<function>".
TARGETS = (
    ("io", "parse_matrix", _len_of_first),
    ("io", "write_tsv", None),
    ("normalize", "z_score", None),
    ("harness", "run_grid", _grid_info),
    ("harness", "subset_genes", None),
    ("kmeans", "kmeans", _iterations),
    ("rough", "rough_kmeans", _rough_info),
    ("fuzzy", "fcm", _iterations),
    ("fuzzy", "pfcm", _iterations),
    ("fuzzy", "update_memberships", None),
    ("fuzzy", "compute_centroids", None),
    ("fuzzy", "compute_alpha", None),
    ("fuzzy", "pfcm_objective", None),
    ("validity", "evaluate", None),
    ("validity", "rmse", None),
    ("validity", "mae", None),
    ("validity", "xie_beni", None),
    ("serialize", "write_partition_csv", None),
    ("serialize", "read_partition_csv", None),
    ("serialize", "write_centroids_csv", None),
    ("serialize", "read_centroids_csv", None),
    ("serialize", "write_metadata_json", None),
    ("heatmap", "render_ppm", None),
)

CLUSTERING = ("kmeans.kmeans", "rough.rough_kmeans", "fuzzy.fcm", "fuzzy.pfcm")


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: str
    thread: str
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around calls into pfclust while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = ""
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        # the clustering call with the largest n*k*d, kept for the kernel probe
        self.largest_run = None

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # pool threads have no open span of their own; the caller that
        # dispatched them is the innermost span open on the main thread
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    @contextmanager
    def span(self, name: str, info: dict | None = None):
        stack = self._stack()
        sid = next(self._ids)
        parent = self._parent(stack)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, self.pass_id,
                                   threading.current_thread().name,
                                   {} if info is None else info))

    def _wrap(self, name, func, hook):
        tracer = self

        def traced(*args, **kwargs):
            info: dict = {}
            with tracer.span(name, info):
                result = func(*args, **kwargs)
            if hook is not None:
                info.update(hook(args, kwargs, result))
            if name in CLUSTERING:
                tracer._remember(args[0], result)
            return result

        traced.__wrapped__ = func
        return traced

    def _remember(self, x, part):
        values = getattr(x, "values", x)
        # fuzzy runs win ties so the probe does not depend on which grid
        # thread finished last
        key = (values.shape[0] * values.shape[1] * part.centroids.shape[0],
               hasattr(part, "memberships"))
        if self.largest_run is None or key > self.largest_run[0]:
            self.largest_run = (key, values, part)

    @contextmanager
    def installed(self):
        """Swap every pfclust module reference to a target for its wrapper."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if key == "pfclust" or key.startswith("pfclust.")
        ]
        swapped = []
        for modname, funcname, hook in TARGETS:
            original = getattr(sys.modules[f"pfclust.{modname}"], funcname)
            wrapper = self._wrap(f"{modname}.{funcname}", original, hook)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        swapped.append((mod, attr, original))
        try:
            yield self
        finally:
            for mod, attr, original in swapped:
                setattr(mod, attr, original)

    def write_jsonl(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in sorted(self.spans, key=lambda s: s.start):
                info = {k: v for k, v in s.info.items() if k != "rows"}
                handle.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent, "pass": s.pass_id,
                    "thread": s.thread, "start_s": s.start - origin, "end_s": s.end - origin,
                    "info": info,
                }) + "\n")


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its children's intervals cover."""
    covered, reach = 0.0, span.start
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, reach), min(c.end, span.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return span.duration - covered


# name -> (unit, span names that must appear in a pass for it to be measured)
LAYER_METRICS = {
    "io.parse_s": ("s", ("io.parse_matrix",)),
    "io.parse_mb_s": ("MB/s", ("io.parse_matrix",)),
    "io.write_tsv_s": ("s", ("io.write_tsv",)),
    "normalize.z_score_s": ("s", ("normalize.z_score",)),
    "harness.run_grid_s": ("s", ("harness.run_grid",)),
    "harness.subset_s": ("s", ("harness.subset_genes",)),
    "harness.cell_s.kmeans": ("s", ("harness.run_grid",)),
    "harness.cell_s.rough_kmeans": ("s", ("harness.run_grid",)),
    "harness.cell_s.fcm": ("s", ("harness.run_grid",)),
    "harness.cell_s.pfcm": ("s", ("harness.run_grid",)),
    "harness.parallel_eff": ("ratio", ("harness.run_grid",)),
    "harness.converged_ratio": ("ratio", ("harness.run_grid",)),
    "harness.iterations_total": ("count", ("harness.run_grid",)),
    "kmeans.run_s": ("s", ("kmeans.kmeans",)),
    "kmeans.iterations": ("count", ("kmeans.kmeans",)),
    "kmeans.iter_s": ("s", ("kmeans.kmeans",)),
    "rough.run_s": ("s", ("rough.rough_kmeans",)),
    "rough.iterations": ("count", ("rough.rough_kmeans",)),
    "rough.iter_s": ("s", ("rough.rough_kmeans",)),
    "rough.max_iter_hits": ("count", ("rough.rough_kmeans",)),
    "fuzzy.run_s": ("s", ("fuzzy.fcm", "fuzzy.pfcm")),
    "fuzzy.iterations": ("count", ("fuzzy.fcm", "fuzzy.pfcm")),
    "fuzzy.iter_s": ("s", ("fuzzy.fcm", "fuzzy.pfcm")),
    "fuzzy.update_memberships_s": ("s", ("fuzzy.update_memberships",)),
    "fuzzy.compute_centroids_s": ("s", ("fuzzy.compute_centroids",)),
    "fuzzy.compute_alpha_s": ("s", ("fuzzy.compute_alpha",)),
    "fuzzy.objective_s": ("s", ("fuzzy.pfcm_objective",)),
    "validity.evaluate_s": ("s", ("validity.evaluate",)),
    "validity.mae_s": ("s", ("validity.mae",)),
    "validity.xie_beni_s": ("s", ("validity.xie_beni",)),
    "serialize.write_partition_s": ("s", ("serialize.write_partition_csv",)),
    "serialize.read_partition_s": ("s", ("serialize.read_partition_csv",)),
    "serialize.write_centroids_s": ("s", ("serialize.write_centroids_csv",)),
    "serialize.write_metadata_s": ("s", ("serialize.write_metadata_json",)),
    "heatmap.render_ppm_s": ("s", ("heatmap.render_ppm",)),
    "cli.main_s": ("s", ("cli.main",)),
    "cli.glue_s": ("s", ("cli.main",)),
}

PROBE_METRICS = {
    "kernel.rmse_s": "s",
    "kernel.gflops_computed": "GFLOP/s",
    "kernel.min_bytes_computed": "bytes",
    "kernel.peak_alloc_mb": "MiB",
    "trace.overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass; metrics whose spans are absent are left out."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def total(*names):
        return sum(s.duration for n in names for s in by_name.get(n, ()))

    def info_sum(key, *names):
        return sum(s.info.get(key, 0) for n in names for s in by_name.get(n, ()))

    grids = by_name.get("harness.run_grid", ())
    # a call that raised has no info: its span counts, its rows do not
    rows = [row for s in grids for row in s.info.get("rows", ())]
    # worker-seconds the pools had available while the grids ran
    capacity = sum(s.info.get("workers", 1) * s.duration for s in grids)
    fuzzy = ("fuzzy.fcm", "fuzzy.pfcm")
    values = {
        "io.parse_s": total("io.parse_matrix"),
        "io.parse_mb_s": _ratio(info_sum("bytes", "io.parse_matrix") / 1e6, total("io.parse_matrix")),
        "io.write_tsv_s": total("io.write_tsv"),
        "normalize.z_score_s": total("normalize.z_score"),
        "harness.run_grid_s": total("harness.run_grid"),
        "harness.subset_s": total("harness.subset_genes"),
        "harness.parallel_eff": _ratio(sum(r[1] for r in rows), capacity),
        "harness.converged_ratio": _ratio(sum(1 for r in rows if r[3]), len(rows)),
        "harness.iterations_total": sum(r[2] or 0 for r in rows),
        "kmeans.run_s": total("kmeans.kmeans"),
        "kmeans.iterations": info_sum("iterations", "kmeans.kmeans"),
        "kmeans.iter_s": _ratio(total("kmeans.kmeans"), info_sum("iterations", "kmeans.kmeans")),
        "rough.run_s": total("rough.rough_kmeans"),
        "rough.iterations": info_sum("iterations", "rough.rough_kmeans"),
        "rough.iter_s": _ratio(total("rough.rough_kmeans"), info_sum("iterations", "rough.rough_kmeans")),
        "rough.max_iter_hits": sum(
            1 for s in by_name.get("rough.rough_kmeans", ())
            if "iterations" in s.info and s.info["iterations"] >= s.info["max_iter"]
        ),
        "fuzzy.run_s": total(*fuzzy),
        "fuzzy.iterations": info_sum("iterations", *fuzzy),
        "fuzzy.iter_s": _ratio(total(*fuzzy), info_sum("iterations", *fuzzy)),
        "fuzzy.update_memberships_s": total("fuzzy.update_memberships"),
        "fuzzy.compute_centroids_s": total("fuzzy.compute_centroids"),
        "fuzzy.compute_alpha_s": total("fuzzy.compute_alpha"),
        "fuzzy.objective_s": total("fuzzy.pfcm_objective"),
        "validity.evaluate_s": total("validity.evaluate"),
        "validity.mae_s": total("validity.mae"),
        "validity.xie_beni_s": total("validity.xie_beni"),
        "serialize.write_partition_s": total("serialize.write_partition_csv"),
        "serialize.read_partition_s": total("serialize.read_partition_csv"),
        "serialize.write_centroids_s": total("serialize.write_centroids_csv"),
        "serialize.write_metadata_s": total("serialize.write_metadata_json"),
        "heatmap.render_ppm_s": total("heatmap.render_ppm"),
        "cli.main_s": total("cli.main"),
        "cli.glue_s": sum(self_time(s, children.get(s.sid, [])) for s in by_name.get("cli.main", ())),
    }
    for alg in ("kmeans", "rough_kmeans", "fcm", "pfcm"):
        values[f"harness.cell_s.{alg}"] = sum(r[1] for r in rows if r[0] == alg)
    return {
        name: values[name]
        for name, (_, needs) in LAYER_METRICS.items()
        if any(n in by_name for n in needs)
    }


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    names = {name for p in passes for name in p}
    return {name: statistics.median(p[name] for p in passes if name in p) for name in names}


def kernel_probe(x: np.ndarray, part, repeats: int) -> dict[str, float]:
    """Time validity.rmse at the final (n, k, d) and take its allocation peak.

    The flop and byte counts are computed from the shape, not measured:
    3 flops per (i, j, l) term of u^m * ||x_i - w_j||^2, and the bytes of
    x, w and u read once each.
    """
    u = validity.unified_memberships(part)
    w = part.centroids
    m = 1.0 if getattr(part, "memberships", None) is None else 2.0
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        validity.rmse(x, u, w, m)
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        validity.rmse(x, u, w, m)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    n, d = x.shape
    k = w.shape[0]
    rmse_s = statistics.median(times)
    return {
        "kernel.rmse_s": rmse_s,
        "kernel.gflops_computed": 3.0 * n * k * d / rmse_s / 1e9,
        "kernel.min_bytes_computed": 8.0 * (n * d + k * d + n * k),
        "kernel.peak_alloc_mb": peak / 2**20,
    }
