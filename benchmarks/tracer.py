"""Outside-in tracing of enclosure_kit, one span per call into a layer.

``instrument(tracer)`` replaces public callables of each module (and
``scipy.sparse.linalg.splu``) with wrappers that record a span around the
call and a few counts at the same boundary, and restores them on exit.
Nothing inside the package changes, so traced sweeps must write the same
CSV bytes as untraced ones.

A span is (id, name, start, end, parent, run).  Its parent is the
innermost open span on the same thread; spans opened on the sweep's pool
threads, which have none, are parented to the open ``enclosure.sweep``
span.  A span's self time is its duration minus the union of its
children's intervals.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse.linalg as spla

from enclosure_kit import cli, enclosure, geometry, materials, meshing, solver

# complex128 value plus int32 row index per stored entry of L and U
LU_BYTES_PER_NNZ = 16 + 4
INDEX_BYTES = 4


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counts of one traced iteration, kept in memory."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_root: int | None = None

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counts[name] += value

    def record_max(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts.get(name, value), value)

    @contextlib.contextmanager
    def span(self, name: str, thread_root: bool = False):
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else self._thread_root
        with self._lock:
            sid = next(self._ids)
        stack.append(sid)
        if thread_root:
            self._thread_root = sid
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if thread_root:
                self._thread_root = None
            self.spans.append(Span(sid, name, start, end, parent, self.run))


class _TracedLU:
    """SuperLU proxy timing and counting ``solve`` calls and columns."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, rhs, trans="N"):
        with self._tracer.span("solver.lu_solve"):
            x = self._lu.solve(rhs, trans)
        self._tracer.count("solver.lu_solve_cols", 1 if np.ndim(rhs) == 1 else rhs.shape[1])
        return x

    def __getattr__(self, name):
        return getattr(self._lu, name)


# ---------------------------------------------------------------------------
# counts taken after a call returns, outside its span


def _mesh_counts(tracer, mesh, args):
    tracer.count("meshing.nv", mesh.num_vertices)
    tracer.count("meshing.nt", mesh.num_triangles)


def _engine_counts(tracer, _, args):
    """Vertices of triangles whose centroid lies in an inclusion."""
    mesh = args["mesh"]
    centroids = mesh.centroids()
    inside = np.zeros(mesh.num_triangles, dtype=bool)
    for inc in args["reduced"].inclusions:
        inside |= inc.shape.contains_mask(centroids)
    tracer.count("enclosure.inclusion_dofs", np.unique(mesh.triangles[inside]).size)


def _curve_counts(tracer, curve, args):
    tracer.count("enclosure.underflow_samples", int(np.sum(curve.underflow)))


def _fit_counts(tracer, estimate, args):
    tracer.count("enclosure.fit_ok")


def _sweep_counts(tracer, result, args):
    margin = float(np.max(args["taus"])) * args["mesh"].h_max / enclosure.RESOLUTION_GATE
    tracer.record_max("enclosure.tau_gate_margin", margin)


def _hull_counts(tracer, hull, args):
    tracer.count("geometry.hull_vertices", len(hull.vertices))


def _csv_counts(tracer, _, args):
    tracer.count("cli.csv_bytes", os.path.getsize(args["path"]))


def _factor_counts(tracer, lu, args):
    tracer.count("solver.lu_nnz", lu.nnz)
    tracer.count(
        "solver.lu_bytes_computed", lu.nnz * LU_BYTES_PER_NNZ + (lu.shape[1] + 1) * INDEX_BYTES
    )


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced callable for the duration of the block."""
    originals = []

    def wrap(owner, attr, name, after=None, thread_root=False):
        fn = getattr(owner, attr)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name, thread_root):
                result = fn(*args, **kwargs)
            if after is not None:
                after(tracer, result, signature.bind(*args, **kwargs).arguments)
            return result

        originals.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def traced_splu(*args, **kwargs):
        with tracer.span("solver.splu"):
            lu = splu(*args, **kwargs)
        _factor_counts(tracer, lu, None)
        return _TracedLU(lu, tracer)

    splu = spla.splu
    originals.append((spla, "splu", splu))
    spla.splu = traced_splu
    wrap(meshing, "generate_mesh", "meshing.generate_mesh", _mesh_counts)
    wrap(materials, "reduce_scene", "materials.reduce_scene")
    wrap(materials, "classify_regime", "materials.classify_regime")
    wrap(solver, "assemble", "solver.assemble")
    wrap(enclosure, "assemble", "solver.assemble")  # imported alias of solver.assemble
    wrap(solver.DirichletSystem, "solve_interior", "solver.solve_interior")
    wrap(enclosure.IndicatorEngine, "__init__", "enclosure.IndicatorEngine", _engine_counts)
    wrap(enclosure.IndicatorEngine, "curve", "enclosure.curve", _curve_counts)
    wrap(enclosure.Probe, "evaluate", "enclosure.Probe.evaluate")
    wrap(enclosure, "estimate_support", "enclosure.estimate_support", _fit_counts)
    wrap(enclosure, "sweep", "enclosure.sweep", _sweep_counts, thread_root=True)
    wrap(geometry, "hull_from_support", "geometry.hull_from_support", _hull_counts)
    wrap(cli, "load_config", "cli.load_config")
    for writer in ("_write_indicator_csv", "_write_support_csv", "_write_hull_csv"):
        wrap(cli, writer, "cli.write_csv", _csv_counts)
    try:
        yield tracer
    finally:
        for owner, attr, fn in reversed(originals):
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# per-layer metrics


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        start = max(start, reach)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    return {
        s.id: s.seconds
        - _union_length(
            [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        )
        for s in spans
    }


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    spans, counts = tracer.spans, tracer.counts
    own = self_times(spans)
    total, self_total, calls = Counter(), Counter(), Counter()
    for s in spans:
        total[s.name] += s.seconds
        self_total[s.name] += own[s.id]
        calls[s.name] += 1
    by_id = {s.id: s for s in spans}
    refinement_solves = sum(
        1
        for s in spans
        if s.name == "solver.lu_solve"
        and s.parent is not None
        and by_id[s.parent].name == "solver.solve_interior"
    )
    lu_calls = calls["solver.lu_solve"]
    return {
        "meshing.generate_mesh_s": total["meshing.generate_mesh"],
        "meshing.nv": counts["meshing.nv"],
        "meshing.nt": counts["meshing.nt"],
        "materials.reduce_scene_s": total["materials.reduce_scene"],
        "materials.classify_regime_s": total["materials.classify_regime"],
        "solver.assemble_s": total["solver.assemble"],
        "solver.assemble_calls": calls["solver.assemble"],
        "solver.factor_s": total["solver.splu"],
        "solver.factor_calls": calls["solver.splu"],
        "solver.lu_nnz": counts["solver.lu_nnz"],
        "solver.lu_bytes_computed": counts["solver.lu_bytes_computed"],
        "solver.lu_solve_s": total["solver.lu_solve"],
        "solver.lu_solve_calls": lu_calls,
        "solver.lu_solve_cols": counts["solver.lu_solve_cols"],
        "solver.cols_per_solve": counts["solver.lu_solve_cols"] / lu_calls if lu_calls else 0.0,
        "solver.solve_interior_s": total["solver.solve_interior"],
        "solver.residual_check_s": self_total["solver.solve_interior"],
        "solver.refinements": refinement_solves - calls["solver.solve_interior"],
        "enclosure.engine_init_s": total["enclosure.IndicatorEngine"],
        "enclosure.engine_self_s": self_total["enclosure.IndicatorEngine"],
        "enclosure.probes": calls["enclosure.Probe.evaluate"],
        "enclosure.probe_eval_s": total["enclosure.Probe.evaluate"],
        "enclosure.curve_s": total["enclosure.curve"],
        "enclosure.wait_s": self_total["enclosure.curve"],
        "enclosure.inclusion_dofs": counts["enclosure.inclusion_dofs"],
        "enclosure.tau_gate_margin": counts["enclosure.tau_gate_margin"],
        "enclosure.estimate_support_s": total["enclosure.estimate_support"],
        "enclosure.fit_ok_ratio": counts["enclosure.fit_ok"] / calls["enclosure.estimate_support"]
        if calls["enclosure.estimate_support"]
        else 0.0,
        "enclosure.underflow_samples": counts["enclosure.underflow_samples"],
        "enclosure.sweep_s": total["enclosure.sweep"],
        "enclosure.sweep_self_s": self_total["enclosure.sweep"],
        "geometry.hull_s": total["geometry.hull_from_support"],
        "geometry.hull_vertices": counts["geometry.hull_vertices"],
        "cli.load_config_s": total["cli.load_config"],
        "cli.write_csv_s": total["cli.write_csv"],
        "cli.csv_bytes": counts["cli.csv_bytes"],
        "trace.top_level_s": sum(s.seconds for s in spans if s.parent is None),
        "trace.spans": len(spans),
    }


def unit(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_bytes", "_bytes_computed")):
        return "B"
    if name.endswith(("_frac", "_ratio", "_margin")):
        return "1"
    if name.endswith("_per_solve"):
        return "cols/call"
    return "count"


def median_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}


def span_records(tracers: list[Tracer]) -> list[dict]:
    return [asdict(s) for t in tracers for s in t.spans]
