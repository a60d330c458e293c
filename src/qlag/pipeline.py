"""Analysis pipeline: instance config in, verification report out.

A report is a plain nested dict (str keys, deterministic order) so that
serialization is byte-stable for a fixed (config, seed) pair.  Every
defect entry carries the tolerance it was judged against and a pass flag;
module errors are recorded per property instead of aborting the run.
"""

from __future__ import annotations

import functools
import json
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from typing import Any

import numpy as np

from . import __version__
from .errors import ConfigInvalid, DimensionUnsupported, QlagError, RankDeficient
from .immersion import (
    chart_mesh,
    frame_at,
    hamiltonian_variation,
    harmonicity_defect,
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
from .quadric import QuadricSystem, Tolerances, require_cone
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

# Tolerances keys that tune the numerics rather than judge a check, with
# their defaults: an int default takes a positive integer, a float one a
# finite number >= 0 (> 0 for fd_step, the finite-difference step).
NUMERIC_TOLERANCES = {f.name: f.default for f in fields(Tolerances)}

# the keys a config may set, at the top level and under "mesh"
CONFIG_KEYS = ("n", "k", "rows", "constants", "samples", "seed", "curvature_samples",
               "sweeps", "tolerances", "mesh")
MESH_KEYS = ("resolution", "target", "projection")

SWEEPS = ("cn", "cpn", "quotient")

# Samples per batched frame pass: bounds the (block, r, r, n) temporaries of
# the Gram pairings, so peak memory stays flat in the sample count.
FRAME_BLOCK = 256

# Chart-mesh node budgets of the harmonicity and variation checks: charts of
# dimension <= 3 get 64 and 32 nodes per axis, larger ones fewer.
HARMONIC_NODE_BUDGET = 64 ** 3
VARIATION_NODE_BUDGET = 32 ** 3


def _is_count(x, low: int) -> bool:
    """An integer (not a bool) of at least ``low``."""
    return isinstance(x, int) and not isinstance(x, bool) and x >= low


def _is_real(x) -> bool:
    """A finite number (not a bool)."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and bool(np.isfinite(x))


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
                elif not all(_is_real(x) and int(x) == x for x in row):
                    errors.append(f"rows[{i}]: entries must be integers")
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
        defaults = {**VERIFY_TOLERANCES, **NUMERIC_TOLERANCES}
        for key, value in tolerances.items():
            if key not in defaults:
                errors.append(f"tolerances.{key}: unknown tolerance")
            elif isinstance(defaults[key], int) and not _is_count(value, 1):
                errors.append(f"tolerances.{key}: must be a positive integer")
            elif not (_is_real(value) and value >= 0):
                errors.append(f"tolerances.{key}: must be a finite number >= 0")
            elif key == "fd_step" and value == 0:
                errors.append("tolerances.fd_step: must be > 0")
        sweeps = raw.get("sweeps", {"cn": True, "quotient": True})
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
        resolution = mesh.get("resolution", (128, 64))
        if not isinstance(resolution, (list, tuple)) or len(resolution) != 2 or not all(
            _is_count(r, 1) for r in resolution
        ):
            errors.append("mesh.resolution: need two positive integers")
        target = mesh.get("target", "cn")
        if target not in ("cn", "cpn"):
            errors.append(f'mesh.target: must be "cn" or "cpn", got {target!r}')
        projection = mesh.get("projection")
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
            samples=raw.get("samples", 200),
            seed=raw.get("seed", 0),
            curvature_samples=raw.get("curvature_samples", 20),
            sweeps=tuple(order),
            tolerances=dict(tolerances),
            mesh_resolution=tuple(resolution),
            mesh_projection=projection,
            mesh_target=target,
        )

    def system(self) -> QuadricSystem:
        overrides = {
            key: type(default)(self.tolerances[key])
            for key, default in NUMERIC_TOLERANCES.items()
            if key in self.tolerances
        }
        return QuadricSystem(self.rows, self.constants, Tolerances(**overrides))

    def verify_tolerance(self, name: str) -> float:
        return float(self.tolerances.get(name, VERIFY_TOLERANCES[name]))


def _entry(value: float, tolerance: float, count: int, mean: float | None = None) -> dict:
    out = {"max": float(value)}
    if mean is not None:
        out["mean"] = float(mean)
    out["count"] = int(count)
    out["tolerance"] = float(tolerance)
    out["pass"] = bool(value <= tolerance)
    return out


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


def _budget_resolution(cap: int, budget: int, dim: int) -> int:
    """Largest r <= cap with r**dim <= budget, in integers."""
    r = cap
    while r ** dim > budget:
        r -= 1
    return r


def _frame_checks(system: QuadricSystem, U: np.ndarray, Y: np.ndarray) -> tuple:
    """(Lagrangian defect per sample, worst cross block, worst metric block),
    all read off one batched frame bundle per block of FRAME_BLOCK samples."""
    defects, cross, metric = [], 0.0, 0.0
    for start in range(0, len(U), FRAME_BLOCK):
        u, y = U[start:start + FRAME_BLOCK], Y[start:start + FRAME_BLOCK]
        fb = frame_at(system, u, y)
        defects.append(fb.symplectic_defect())
        cross = max(cross, np.max(fb.cross_defect()))
        metric = max(metric, np.max(np.abs(fb.metric_y - torus_metric(system, u))))
    return np.concatenate(defects), cross, metric


def _cn_section(config: InstanceConfig, system: QuadricSystem) -> dict:
    section: dict[str, Any] = {}
    U, Y = sample_immersion(system, config.samples, seed=config.seed)
    checks = functools.cache(functools.partial(_frame_checks, system, U, Y))

    def lagrangian():
        defects = checks()[0]
        return _entry(
            np.max(defects), config.verify_tolerance("lagrangian"), len(defects),
            mean=float(np.mean(defects)),
        )

    def cross_block():
        return _entry(checks()[1], config.verify_tolerance("cross_block"), len(U))

    def metric_block():
        return _entry(checks()[2], config.verify_tolerance("metric_block"), len(U))

    _guard(section, "lagrangian_defect", lagrangian)
    _guard(section, "frame_cross_block", cross_block)
    _guard(section, "torus_metric_form", metric_block)

    e = sum_vector(system.exponents)
    nsub = min(config.curvature_samples, len(U))
    Uc, Yc = sample_immersion(system, nsub, seed=config.seed + 1, u_floor=0.1)

    h_fd = functools.cache(functools.partial(mean_curvature_fd, system, Uc, Yc))

    def curvature_match():
        h_closed = mean_curvature(system, Uc, Yc)
        rel = np.linalg.norm(h_closed - h_fd(), axis=-1) / (
            1.0 + np.linalg.norm(h_closed, axis=-1)
        )
        return _entry(np.max(rel), config.verify_tolerance("curvature_match"), nsub)

    _guard(section, "curvature_match", curvature_match)

    if all(c == 0 for c in e):
        def minimal_curvature():
            worst = np.max(np.linalg.norm(h_fd(), axis=-1))
            return _entry(worst, config.verify_tolerance("minimal_curvature"), nsub)

        _guard(section, "minimal_curvature", minimal_curvature)

    def harmonicity():
        # a cn chart has one axis per coordinate: n torus axes when k = 0,
        # curve plus torus axis on a plane conic
        resolution = _budget_resolution(64, HARMONIC_NODE_BUDGET, system.n)
        if resolution < 8:
            raise DimensionUnsupported(
                f"a {system.n}-dimensional chart mesh gets {resolution} nodes per axis "
                f"from the {HARMONIC_NODE_BUDGET}-node budget, below the 8-node minimum"
            )
        mesh = chart_mesh(system, resolution)
        value = laplace_beltrami_defect(mesh, mesh.angle_values())
        return _entry(
            value, config.verify_tolerance("harmonic"), int(np.prod(mesh.shape))
        )

    _guard(section, "angle_harmonicity", harmonicity)

    def variation():
        mesh = chart_mesh(system, 8)  # probe chart availability cheaply
        dim = mesh.dim
        resolution = _budget_resolution(32, VARIATION_NODE_BUDGET, dim)
        worst = 0.0
        for i in range(3):
            f = random_trig_polynomial(dim, seed=config.seed + i)
            worst = max(worst, hamiltonian_variation(system, f, resolution=resolution))
        return _entry(worst, config.verify_tolerance("variation"), 3)

    _guard(section, "hamiltonian_variation", variation)
    return section


def _cpn_section(config: InstanceConfig, system: QuadricSystem) -> dict:
    section: dict[str, Any] = {}
    try:
        require_cone(system)
    except QlagError as exc:
        return {"skipped": f"projective sweep needs a cone: {exc}"}
    U, Y = sample_immersion(system, config.samples, seed=config.seed + 2, u_floor=0.05)

    def lagrangian():
        worst = 0.0
        for start in range(0, len(U), FRAME_BLOCK):
            block = slice(start, start + FRAME_BLOCK)
            worst = max(worst, projective_lagrangian_defect(system, U[block], Y[block]))
        return _entry(worst, config.verify_tolerance("projective_lagrangian"), len(U))

    _guard(section, "projective_lagrangian_defect", lagrangian)

    e = sum_vector(system.exponents)
    nsub = min(config.curvature_samples, len(U))
    Uc, Yc = sample_immersion(system, nsub, seed=config.seed + 3, u_floor=0.1)

    if all(c == 0 for c in e):
        def minimal_curvature():
            worst = np.max(projective_mean_curvature(system, Uc, Yc)[1])
            return _entry(worst, config.verify_tolerance("projective_curvature"), nsub)

        _guard(section, "projective_minimal_curvature", minimal_curvature)

    def fiber_angle():
        worst = np.max(projective_angle_fiber_defect(system, Yc))
        return _entry(worst, config.verify_tolerance("fiber_angle"), nsub)

    _guard(section, "angle_fiber_invariance", fiber_angle)

    if system.n == 3 and system.codim == 1:
        def link_harmonic():
            value = harmonicity_defect(system, 64, on_link=True)
            return _entry(value, config.verify_tolerance("link_harmonic"), 64 * 64)

        _guard(section, "link_angle_harmonicity", link_harmonic)
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


def run_analyze(config: InstanceConfig) -> dict:
    """Run the configured sweeps and assemble the verification report."""
    system = config.system()
    e = sum_vector(system.exponents)
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
            "is_zero": bool(all(c == 0 for c in e)),
            "is_cone": system.is_cone(),
        },
    }
    if "cn" in config.sweeps:
        report["cn"] = _cn_section(config, system)
    if "cpn" in config.sweeps:
        report["cpn"] = _cpn_section(config, system)
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


def serialize_report(report: dict) -> str:
    """JSON text indented by two spaces, with stable key order and
    17-significant-digit floats."""

    def render(node, level: int) -> str:
        pad = "  " * level
        inner = "  " * (level + 1)
        if isinstance(node, dict):
            if not node:
                return "{}"
            parts = [
                f'{inner}{_format_scalar(str(k))}: {render(v, level + 1)}'
                for k, v in node.items()
            ]
            return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
        if isinstance(node, (list, tuple, np.ndarray)):
            items = list(node)
            if not items:
                return "[]"
            rendered = [render(v, level + 1) for v in items]
            if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in items):
                return "[" + ", ".join(rendered) + "]"
            return (
                "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + pad + "]"
            )
        return _format_scalar(node)

    return render(report, 0) + "\n"
