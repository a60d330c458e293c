"""Analysis pipeline: instance config in, verification report out.

A report is a plain nested dict (str keys, deterministic order) so that
serialization is byte-stable for a fixed (config, seed) pair.  Every
defect entry carries the tolerance it was judged against and a pass flag;
module errors are recorded per property instead of aborting the run.  No
draw reads another: each is at u_floor, or at _capped_draw's floor from P.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

import numpy as np

from . import __version__
from .errors import ConfigInvalid, DimensionUnsupported, QlagError, RankDeficient
from .immersion import (
    chart_mesh,
    frame_at,
    hamiltonian_variation,
    harmonicity_defect,  # noqa: F401  perfbench/tracing.py wraps it here
    lagrangian_defect,  # noqa: F401  perfbench/tracing.py wraps it here
    laplace_beltrami_defect,
    mean_curvature,
    mean_curvature_fd,
    random_trig_polynomial,
    sample_immersion,
    torus_metric,
)
from .lattice import ExponentMatrix, sum_vector
from .projective import (
    projective_angle_fiber_defect,
    projective_lagrangian_defect,
    projective_mean_curvature,
)
from .quadric import QuadricSystem, Tolerances, moment_polytope, once, require_cone
from .quotient import (
    classify_quotient,
    orbit_distinctness,
    orientation_character,
    scan_samples,
    scan_self_intersections,
)
from .torus import action_table, gamma_group, lattice_data

VERIFY_TOLERANCES = {
    "lagrangian": 1e-10,
    "cross_block": 1e-10,
    "metric_block": 1e-12,
    "curvature_match": 1e-4,
    "minimal_curvature": 1e-4,
    "harmonic": 1e-6,
    "variation": 1e-4,
    "orbit": 1e-9,
    "projective_lagrangian": 1e-8,
    "projective_curvature": 1e-3,
    "fiber_angle": 1e-10,
    "link_harmonic": 1e-5,
    "scan": 1e-8,
}

# Tolerances keys that tune the numerics rather than judge a check: each
# takes a finite number >= 0 (> 0 for fd_step, the finite-difference step).
NUMERIC_TOLERANCES = tuple(f.name for f in fields(Tolerances))

# the keys a config may set, at the top level and under "mesh"
CONFIG_KEYS = ("n", "k", "rows", "constants", "samples", "seed", "curvature_samples",
               "sweeps", "tolerances", "mesh")
MESH_KEYS = ("resolution", "target", "projection")

SWEEPS = ("cn", "cpn", "quotient")

# Samples per batched frame pass: bounds the (block, r, r, n) temporaries of
# the Gram pairings, so peak memory stays flat in the sample count.
FRAME_BLOCK = 256


def _is_count(x, low: int) -> bool:
    """An integer (not a bool) of at least ``low``."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= low


def _is_real(x) -> bool:
    """A finite float64 number (not a bool): an int compares with the
    largest float exactly, where np.isfinite would raise on a large one."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


@dataclass(frozen=True)
class InstanceConfig:
    """Validated instance description plus run options."""

    n: int
    k: int
    rows: tuple[tuple[int, ...], ...]
    constants: tuple[float, ...]
    samples: int = 200
    seed: int = 0
    curvature_samples: int = 20
    sweeps: tuple[str, ...] = ("cn", "quotient")
    tolerances: dict = field(default_factory=dict)
    mesh_resolution: tuple[int, int] = (128, 64)
    mesh_projection: tuple | None = None
    mesh_target: str = "cn"

    @classmethod
    def from_dict(cls, raw: dict) -> "InstanceConfig":
        errors = [f"{key}: unknown key" for key in raw if key not in CONFIG_KEYS]
        n = raw.get("n")
        k = raw.get("k")
        rows = raw.get("rows")
        constants = raw.get("constants")
        if not _is_count(n, 1):
            errors.append("n: must be a positive integer")
        if not _is_count(k, 0):
            errors.append("k: must be a nonnegative integer")
        if rows is None:
            errors.append("rows: missing exponent matrix")
        if constants is None:
            errors.append("constants: missing right-hand side")
        if errors:
            raise ConfigInvalid(errors)
        codim = n - k
        if codim < 1:
            errors.append(f"k: n-k must be between 1 and n, got {codim}")
        if not isinstance(rows, (list, tuple)):
            errors.append("rows: must be a list of integer rows")
        elif len(rows) != n:
            errors.append(f"rows: expected {n} rows, got {len(rows)}")
        else:
            for i, row in enumerate(rows):
                if not isinstance(row, (list, tuple)) or len(row) != codim:
                    errors.append(f"rows[{i}]: expected a list of length {codim}, got {row!r}")
                elif not all(_is_real(x) and int(x) == x and abs(x) <= 2 ** 53 for x in row):
                    # E is used as float64, exact to 2**53
                    errors.append(f"rows[{i}]: entries must be integers of magnitude at most 2**53")
        if not isinstance(constants, (list, tuple)) or len(constants) != codim:
            errors.append(f"constants: expected a list of {codim} values, got {constants!r}")
        elif not all(_is_real(c) for c in constants):
            errors.append("constants: entries must be finite numbers")
        for key, low in (("samples", 1), ("seed", 0), ("curvature_samples", 1)):
            if key in raw and not _is_count(raw[key], low):
                errors.append(f"{key}: must be an integer >= {low}")
        tolerances = raw.get("tolerances", {})
        if not isinstance(tolerances, dict):
            errors.append("tolerances: must be an object")
            tolerances = {}
        for key, value in tolerances.items():
            if key not in VERIFY_TOLERANCES and key not in NUMERIC_TOLERANCES:
                errors.append(f"tolerances.{key}: unknown tolerance")
            elif not (_is_real(value) and value >= 0):
                errors.append(f"tolerances.{key}: must be a finite number >= 0")
            elif key == "fd_step" and value == 0:
                errors.append("tolerances.fd_step: must be > 0")
        sweeps = raw.get("sweeps", cls.sweeps)
        if isinstance(sweeps, dict):
            for key, value in sweeps.items():
                if key not in SWEEPS:
                    errors.append(f"sweeps.{key}: unknown sweep")
                elif not isinstance(value, bool):
                    errors.append(f"sweeps.{key}: must be true or false")
            sweeps = [key for key, value in sweeps.items() if value]
        elif isinstance(sweeps, (list, tuple)):
            for i, name in enumerate(sweeps):
                if name not in SWEEPS:
                    errors.append(f"sweeps[{i}]: unknown sweep {name!r}")
        else:
            errors.append("sweeps: must be an object or a list")
            sweeps = ()
        order = [s for s in SWEEPS if s in sweeps]
        mesh = raw.get("mesh", {})
        if not isinstance(mesh, dict):
            errors.append("mesh: must be an object")
            mesh = {}
        errors.extend(f"mesh.{key}: unknown key" for key in mesh if key not in MESH_KEYS)
        resolution = mesh.get("resolution", cls.mesh_resolution)
        if not isinstance(resolution, (list, tuple)) or len(resolution) != 2 or not all(
            _is_count(r, 1) for r in resolution
        ):
            errors.append("mesh.resolution: need two positive integers")
        target = mesh.get("target", cls.mesh_target)
        if target not in ("cn", "cpn"):
            errors.append(f'mesh.target: must be "cn" or "cpn", got {target!r}')
        projection = mesh.get("projection", cls.mesh_projection)
        if projection is not None and not (
            isinstance(projection, list)
            and all(isinstance(r, list) and all(_is_real(x) for x in r) for r in projection)
        ):
            errors.append("mesh.projection: must be a list of rows of numbers")
        if errors:
            raise ConfigInvalid(errors)
        try:
            ExponentMatrix(rows)
        except RankDeficient as exc:
            raise ConfigInvalid([f"rows: {exc}"]) from None
        if projection is not None:
            projection = tuple(tuple(float(x) for x in r) for r in projection)
        return cls(
            n=n,
            k=k,
            rows=tuple(tuple(int(x) for x in r) for r in rows),
            constants=tuple(float(c) for c in constants),
            samples=raw.get("samples", cls.samples),
            seed=raw.get("seed", cls.seed),
            curvature_samples=raw.get("curvature_samples", cls.curvature_samples),
            sweeps=tuple(order),
            tolerances=dict(tolerances),
            mesh_resolution=tuple(resolution),
            mesh_projection=projection,
            mesh_target=target,
        )

    def system(self) -> QuadricSystem:
        overrides = {
            key: float(self.tolerances[key])
            for key in NUMERIC_TOLERANCES
            if key in self.tolerances
        }
        return QuadricSystem(self.rows, self.constants, Tolerances(**overrides))

    def verify_tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, VERIFY_TOLERANCES[name]))


def _entry(values, tolerance: float, count: int | None = None, mean: bool = False) -> dict:
    """The max of values (and, with mean, their mean) judged against
    tolerance; count defaults to the number of values, one per sample.  A
    non-finite max or mean raises, for _guard to record."""
    out = {"max": float(np.max(values))}
    if mean:
        out["mean"] = float(np.mean(values))
    if not np.isfinite(list(out.values())).all():
        raise QlagError("the check gave a non-finite value")
    out["count"] = int(len(values) if count is None else count)
    out["tolerance"] = float(tolerance)
    out["pass"] = bool(out["max"] <= tolerance)
    return out


def _harmonicity(system: QuadricSystem, tolerance: float, on_link: bool = False) -> dict:
    """The Laplace-Beltrami defect of the angle on chart_mesh's mesh at 64,
    counted in its nodes."""
    mesh = chart_mesh(system, 64, on_link=on_link)
    value = laplace_beltrami_defect(mesh, *mesh.angle_terms())
    return _entry(value, tolerance, int(np.prod(mesh.shape)))


def _guard(report: dict, key: str, fn) -> None:
    try:
        report[key] = fn()
    except DimensionUnsupported as exc:  # ChartUnavailable included
        report[key] = {"skipped": str(exc)}
    except QlagError as exc:
        report[key] = {"error": f"{type(exc).__name__}: {exc}", "pass": False}


def _lattice_section(system: QuadricSystem) -> dict:
    basis, dual, group = lattice_data(system.exponents)
    signs, _ = action_table(system.exponents)
    # a nonzero class acts freely iff it flips some coordinate; the first
    # coordinate it flips is its witness
    flips = signs[1:] < 0
    witnesses = [int(np.argmax(row)) if row.any() else None for row in flips]
    return {
        "basis": [[str(x) for x in row] for row in basis.rows],
        "dual_basis": [[str(x) for x in row] for row in dual.rows],
        "group_order": len(group),
        "free_action": None not in witnesses,
        "witnesses": [
            {"gamma": [str(x) for x in gamma], "row": w}
            for gamma, w in zip(group[1:], witnesses)
        ],
    }


def _blockwise(check, system: QuadricSystem, U: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """check(system, u, y) over blocks of FRAME_BLOCK samples, its per-sample
    values joined along the last axis."""
    return np.concatenate([
        check(system, U[start:start + FRAME_BLOCK], Y[start:start + FRAME_BLOCK])
        for start in range(0, len(U), FRAME_BLOCK)
    ], axis=-1)


def _frame_checks(system: QuadricSystem, u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Lagrangian defect, cross block and torus metric block error, (3, N)
    for N samples, read off one batched frame bundle.  The metric error is
    relative to max(1, max |entry|) of the closed form, since its rounding
    grows with the block."""
    fb = frame_at(system, u, y)
    closed = torus_metric(system, u)
    scale = np.maximum(1.0, np.max(np.abs(closed), axis=(-2, -1)))
    metric = np.max(np.abs(fb.metric_y - closed), axis=(-2, -1)) / scale
    return np.stack([fb.symplectic_defect(), fb.cross_defect(), metric])


def _capped_draw(config: InstanceConfig, system: QuadricSystem, seed: int, cap: float,
                 count: int | None = None):
    """sample_immersion of count points (a curvature subsample of
    min(curvature_samples, samples) by default) at u_floor raised to min(cap,
    sqrt(min_i c_i) / 2), c the mean of P's vertices plus the sum of its rays:
    a point of P (0 if P is empty), so that floor is reachable at any scale."""
    vertices, rays = moment_polytope(system)
    c = vertices.sum(axis=0) / max(len(vertices), 1) + rays.sum(axis=0)
    floor = max(system.tolerances.u_floor, min(cap, float(np.sqrt(np.min(c))) / 2))
    count = min(config.curvature_samples, config.samples) if count is None else count
    return sample_immersion(system, count, seed=seed, u_floor=floor)


def _cn_section(config: InstanceConfig, system: QuadricSystem, minimal: bool) -> dict:
    # the samples are drawn by the first entry that reads them, inside its
    # guard, so a failed draw is an error entry and not an aborted run
    section: dict[str, Any] = {}
    checks = once(lambda: _blockwise(_frame_checks, system, *sample_immersion(
        system, config.samples, seed=config.seed)))

    def lagrangian():
        return _entry(checks()[0], config.verify_tolerance("lagrangian"), mean=True)

    def cross_block():
        return _entry(checks()[1], config.verify_tolerance("cross_block"))

    def metric_block():
        return _entry(checks()[2], config.verify_tolerance("metric_block"))

    _guard(section, "lagrangian_defect", lagrangian)
    _guard(section, "frame_cross_block", cross_block)
    _guard(section, "torus_metric_form", metric_block)

    sub = once(lambda: _capped_draw(config, system, config.seed + 1, 0.1))
    h_fd = once(lambda: mean_curvature_fd(system, *sub()))

    def curvature_match():
        h_closed = mean_curvature(system, *sub())
        rel = np.linalg.norm(h_closed - h_fd(), axis=-1) / (
            1.0 + np.linalg.norm(h_closed, axis=-1)
        )
        return _entry(rel, config.verify_tolerance("curvature_match"))

    _guard(section, "curvature_match", curvature_match)

    if minimal:
        def minimal_curvature():
            norms = np.linalg.norm(h_fd(), axis=-1)
            return _entry(norms, config.verify_tolerance("minimal_curvature"))

        _guard(section, "minimal_curvature", minimal_curvature)

    # chart_mesh sizes both chart checks, to at most 64**3 and 32**3 nodes
    _guard(section, "angle_harmonicity",
           lambda: _harmonicity(system, config.verify_tolerance("harmonic")))

    def variation():
        # a cn chart has one axis per coordinate: n torus axes when k = 0,
        # curve plus torus axis on a plane conic; the polynomials are drawn
        # only once the chart exists, so a skipped check draws none
        polys = (random_trig_polynomial(system.n, seed=config.seed + i) for i in range(3))
        worst = hamiltonian_variation(system, polys, resolution=32)
        return _entry(worst, config.verify_tolerance("variation"), 3)

    _guard(section, "hamiltonian_variation", variation)
    return section


def _cpn_section(config: InstanceConfig, system: QuadricSystem, minimal: bool) -> dict:
    section: dict[str, Any] = {}
    try:
        require_cone(system)
    except QlagError as exc:
        return {"skipped": f"projective sweep needs a cone: {exc}"}

    def lagrangian():
        draw = _capped_draw(config, system, config.seed + 2, 0.05, config.samples)
        defects = _blockwise(projective_lagrangian_defect, system, *draw)
        return _entry(defects, config.verify_tolerance("projective_lagrangian"))

    _guard(section, "projective_lagrangian_defect", lagrangian)

    sub = once(lambda: _capped_draw(config, system, config.seed + 3, 0.1))

    if minimal:
        def minimal_curvature():
            norms = projective_mean_curvature(system, *sub())[1]
            return _entry(norms, config.verify_tolerance("projective_curvature"))

        _guard(section, "projective_minimal_curvature", minimal_curvature)

    def fiber_angle():
        defects = projective_angle_fiber_defect(system, sub()[1])
        return _entry(defects, config.verify_tolerance("fiber_angle"))

    _guard(section, "angle_fiber_invariance", fiber_angle)

    _guard(section, "link_angle_harmonicity",
           lambda: _harmonicity(system, config.verify_tolerance("link_harmonic"), True))
    return section


def _quotient_section(config: InstanceConfig, system: QuadricSystem) -> dict:
    section: dict[str, Any] = {}

    def orbits():
        U, Y = sample_immersion(system, min(config.samples, 500), seed=config.seed + 4)
        size = orbit_distinctness(system, (U, Y), tol=config.verify_tolerance("orbit"))
        return {
            "orbit_size": int(size),
            "count": int(len(U)),
            "tolerance": config.verify_tolerance("orbit"),
            "pass": True,
        }

    _guard(section, "orbit_distinctness", orbits)

    def collisions():
        tol = config.verify_tolerance("scan")
        U, Y = scan_samples(system, min(config.samples * 4, 3000), seed=config.seed + 5)
        report = scan_self_intersections(system, U, Y, tol=tol)
        localized = np.all(report.min_abs_u < np.sqrt(tol))
        return {
            "pairs": len(report),
            "sample_count": report.sample_count,
            "tolerance": tol,
            "max_min_abs_u": float(np.max(report.min_abs_u, initial=0.0)),
            "localized": bool(localized),
            "pass": bool(localized),
        }

    _guard(section, "self_intersections", collisions)

    def characters():
        group = gamma_group(system.exponents)
        chars = orientation_character(system) or ("unsupported",) * len(group)
        return [
            {"gamma": [str(x) for x in gamma], "character": char}
            for gamma, char in zip(group, chars)
        ]

    _guard(section, "orientation_characters", characters)

    def topology():
        label = classify_quotient(system)
        return {"kind": label.kind, "dim": label.dim, "detail": label.detail}

    _guard(section, "topology", topology)
    return section


def run_analyze(config: InstanceConfig, system: QuadricSystem | None = None) -> dict:
    """Run the configured sweeps on system (config's own by default) and
    assemble the verification report."""
    system = system or config.system()
    e = sum_vector(system.exponents)
    minimal = all(c == 0 for c in e)  # the paper's minimality criterion, e = 0
    report: dict[str, Any] = {
        "instance": {
            "n": config.n,
            "k": config.k,
            "rows": [list(r) for r in config.rows],
            "constants": list(config.constants),
            "samples": config.samples,
            "seed": config.seed,
            "sweeps": list(config.sweeps),
            "numeric_tolerances": asdict(system.tolerances),
            "verify_tolerances": {
                name: config.verify_tolerance(name) for name in sorted(VERIFY_TOLERANCES)
            },
        },
        "lattice": _lattice_section(system),
        "minimality": {
            "sum_vector": list(e),
            "is_zero": minimal,
            "is_cone": system.is_cone(),
        },
    }
    if "cn" in config.sweeps:
        report["cn"] = _cn_section(config, system, minimal)
    if "cpn" in config.sweeps:
        report["cpn"] = _cpn_section(config, system, minimal)
    if "quotient" in config.sweeps:
        report["quotient"] = _quotient_section(config, system)
    report["meta"] = {"package": "qlag", "version": __version__, "seed": config.seed}
    return report


def report_passed(report: dict) -> bool | None:
    """Whether every pass flag in the report is true; None when the report
    holds no pass flag, that is, checked nothing."""

    def flags(node):
        if isinstance(node, dict):
            if "pass" in node:
                yield node["pass"]
            for value in node.values():
                yield from flags(value)
        elif isinstance(node, (list, tuple)):
            for value in node:
                yield from flags(value)

    verdicts = list(flags(report))
    return all(verdicts) if verdicts else None


# ---------------------------------------------------------------------------
# deterministic serialization: floats at 17 significant digits
# ---------------------------------------------------------------------------


def _format_scalar(value) -> str:
    """One report scalar as JSON text: a str, float, int or bool of exactly
    that type in one check each, a str as json.dumps writes it; then numpy
    scalars, None and Fraction."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is float:
        if not math.isfinite(value):
            raise ValueError("non-finite value in report")
        return "%.17g" % value
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if isinstance(value, bool) or isinstance(value, np.bool_):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not np.isfinite(value):
            raise ValueError("non-finite value in report")
        return "%.17g" % value
    if isinstance(value, Fraction):
        return json.dumps(str(value))
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _render(node, pad: str, put) -> None:
    """Append the JSON text of node, whose first line starts at pad, to put:
    a dict one key per line, a list of scalars on one line, any other list
    one item per line."""
    containers = (dict, list, tuple, np.ndarray)
    inner = pad + "  "
    if isinstance(node, dict):
        if not node:
            put("{}")
            return
        sep = "{\n"
        for key, value in node.items():
            put(sep + inner + encode_basestring_ascii(str(key)) + ": ")
            _render(value, inner, put)
            sep = ",\n"
        put("\n" + pad + "}")
    elif not isinstance(node, containers):
        put(_format_scalar(node))
    elif not len(node):
        put("[]")
    elif any(isinstance(value, containers) for value in node):
        sep = "[\n"
        for value in node:
            put(sep + inner)
            _render(value, inner, put)
            sep = ",\n"
        put("\n" + pad + "]")
    else:
        put("[" + ", ".join(map(_format_scalar, node)) + "]")


def serialize_report(report: dict) -> str:
    """JSON text indented by two spaces, with stable key order and
    17-significant-digit floats, written in one pass into one list of
    pieces."""
    out = []
    _render(report, "", out.append)
    out.append("\n")
    return "".join(out)
