"""Span tracing of qlag's layers, built only from the benchmark's files.

The tracer replaces public functions where ``qlag.pipeline``, ``qlag.cli``,
``qlag.quotient``, ``qlag.immersion``, ``qlag.projective`` and
``qlag.meshing`` bind them with wrappers that record spans (name, start,
end, id, parent id) or bump counters.  Spans stay in memory until the run
ends.  A span's self time is its duration minus the durations of its
direct children; calls run on one thread, so children never overlap.

Span names are ``<layer>.<what>``.  ``numdiff`` belongs to the immersion
layer and ``cli`` to the pipeline layer.  The torus layer is counted, not
timed: its calls are microseconds each, and their time stays in the
calling layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float


# Counters map a call's (args, result) to the amount a count grows by.
def _one(args, result) -> int:
    return 1


def _rows(args, result) -> int:
    return len(result)


def _nodes(args, result) -> int:
    n = 1
    for s in result.shape:
        n *= s
    return n


def _report_bytes(args, result) -> int:
    return len(result.encode())


def _scan_pairs(args, result) -> int:
    return len(result.pairs)


def _scan_samples(args, result) -> int:
    return int(result.sample_count)


def _file_bytes(args, result) -> int:
    return os.path.getsize(args[0])


# (owner, attribute, span name, {count metric: counter}).  A timed binding
# also counts "<span name>.calls"; a span name of None only counts.
BINDINGS = [
    ("qlag.cli", "_load_config", "cli.config", {}),
    ("qlag.cli", "run_analyze", "pipeline.analyze", {}),
    ("qlag.cli", "serialize_report", "pipeline.serialize", {"pipeline.report_bytes": _report_bytes}),
    ("qlag.pipeline", "sample_immersion", "immersion.sample", {}),
    ("qlag.immersion", "sample_points", "quadric.sample", {"quadric.sample.points": _rows}),
    ("qlag.quotient", "sample_points", "quadric.sample", {"quadric.sample.points": _rows}),
    ("qlag.quotient", "sample_stratum_points", "quadric.stratum", {}),
    ("qlag.immersion", "newton_project", "quadric.newton", {}),
    ("qlag.projective", "newton_project", "quadric.newton", {}),
    ("qlag.pipeline", "frame_at", "immersion.frames", {}),
    ("qlag.pipeline", "lagrangian_defect", "immersion.frames", {}),
    ("qlag.pipeline", "torus_metric", "immersion.torus_metric", {}),
    ("qlag.pipeline", "mean_curvature", "immersion.curvature", {}),
    ("qlag.pipeline", "mean_curvature_fd", "immersion.curvature", {}),
    ("qlag.immersion", "mean_curvature_flat", "numdiff.flat_curvature", {}),
    ("qlag.projective", "mean_curvature_riemannian", "numdiff.riemannian_curvature", {}),
    ("qlag.pipeline", "chart_mesh", "immersion.chart_mesh", {"immersion.mesh_nodes": _nodes}),
    ("qlag.immersion", "chart_mesh", "immersion.chart_mesh", {"immersion.mesh_nodes": _nodes}),
    ("qlag.pipeline", "laplace_beltrami_defect", "immersion.laplace_beltrami", {}),
    ("qlag.pipeline", "hamiltonian_variation", "immersion.variation", {}),
    ("qlag.pipeline", "harmonicity_defect", "immersion.link_harmonicity", {}),
    ("qlag.pipeline", "projective_lagrangian_defect", "projective.lagrangian", {}),
    ("qlag.pipeline", "projective_mean_curvature", "projective.curvature", {}),
    ("qlag.pipeline", "projective_angle_fiber_defect", "projective.fiber", {}),
    ("qlag.pipeline", "orbit_distinctness", "quotient.orbits", {}),
    ("qlag.pipeline", "scan_samples", "quotient.scan_samples", {}),
    ("qlag.pipeline", "scan_self_intersections", "quotient.scan",
     {"quotient.scan.samples": _scan_samples, "quotient.scan.pairs": _scan_pairs}),
    ("qlag.pipeline", "orientation_character", "quotient.orientation", {}),
    ("qlag.pipeline", "classify_quotient", "quotient.classify", {}),
    ("qlag.meshing", "build_surface_mesh", "meshing.surface", {}),
    ("qlag.meshing", "project_vertices", "meshing.project", {}),
    ("qlag.meshing", "write_obj", "meshing.obj_write", {"meshing.bytes_written": _file_bytes}),
    ("qlag.meshing", "write_projective_cloud", "meshing.cloud", {"meshing.bytes_written": _file_bytes}),
    ("qlag.meshing", "build_projective_polyline", "meshing.polyline", {}),
    ("qlag.meshing:SurfaceMesh", "euler_characteristic", "meshing.euler", {}),
    ("qlag.meshing:SurfaceMesh", "is_closed", "meshing.closed", {}),
    ("qlag.quotient", "torus_distance", None, {"torus.distance.calls": _one}),
    ("qlag.quotient", "gamma_signs", None, {"torus.gamma_signs.calls": _one}),
    ("qlag.meshing", "gamma_signs", None, {"torus.gamma_signs.calls": _one}),
    ("qlag.quotient", "orbit", None, {"quotient.orbit_points": _rows}),
]

LAYER_OF_PREFIX = {"numdiff": "immersion", "cli": "pipeline"}


def layer_of(span_name: str) -> str:
    prefix = span_name.split(".", 1)[0]
    return LAYER_OF_PREFIX.get(prefix, prefix)


def _resolve(owner: str):
    """``"pkg.module"`` names a module, ``"pkg.module:Class"`` a class in it."""
    module_name, _, cls = owner.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, cls) if cls else module


class Tracer:
    """Records spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = [0]
        self._next_id = 1

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, parent, name, start, end))

    def _count(self, counters: dict, args, result) -> None:
        for key, fn in counters.items():
            self.counts[key] += fn(args, result)

    def _timed(self, fn, name: str, counters: dict):
        calls_key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.counts[calls_key] += 1
            self._count(counters, args, result)
            return result

        return wrapper

    def _counted(self, fn, counters: dict):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._count(counters, args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced binding; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, counters in BINDINGS:
                target = _resolve(owner)
                original = getattr(target, attr)
                saved.append((target, attr, original))
                wrapper = (self._counted(original, counters) if name is None
                           else self._timed(original, name, counters))
                setattr(target, attr, wrapper)
            yield self
        finally:
            for target, attr, original in reversed(saved):
                setattr(target, attr, original)

    def write(self, fh, iteration: int) -> None:
        """Append the spans to an open file as JSON lines."""
        for s in self.spans:
            fh.write(json.dumps(
                {"iteration": iteration, "id": s.id, "parent": s.parent,
                 "name": s.name, "start": s.start, "end": s.end}
            ) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name: duration minus the direct children's."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        child_time[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += (s.end - s.start) - child_time[s.id]
    return dict(out)


@contextlib.contextmanager
def peak_probe(module, attr: str, sink: list):
    """Record the tracemalloc peak (bytes) of each call to module.attr."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

    setattr(module, attr, wrapper)
    try:
        yield sink
    finally:
        setattr(module, attr, original)
