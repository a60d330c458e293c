"""Analysis pipeline: instance config in, verification report out.

A report is a plain nested dict (str keys, deterministic order) so that
serialization is byte-stable for a fixed (config, seed) pair.  Every
defect entry carries the tolerance it was judged against and a pass flag;
module errors are recorded per property instead of aborting the run.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

import numpy as np

from . import __version__
from .errors import ConfigInvalid, DimensionUnsupported, QlagError, RankDeficient
from .immersion import (
    chart_mesh,
    frame_at,
    frame_symplectic_defect,
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
from .quadric import QuadricSystem, Tolerances
from .quotient import (
    classify_quotient,
    orbit_distinctness,
    orientation_character,
    scan_samples,
    scan_self_intersections,
)
from .torus import gamma_group, lattice_data

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

# Samples per batched frame pass: bounds the (block, r, r, n) temporaries of
# the Gram pairings, so peak memory stays flat in the sample count.
FRAME_BLOCK = 256


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
        errors: list[str] = []
        n = raw.get("n")
        k = raw.get("k")
        rows = raw.get("rows")
        constants = raw.get("constants", raw.get("d"))
        if not isinstance(n, int) or n < 1:
            errors.append("n: must be a positive integer")
        if not isinstance(k, int) or k < 0:
            errors.append("k: must be a nonnegative integer")
        if rows is None:
            errors.append("rows: missing exponent matrix")
        if constants is None:
            errors.append("constants: missing right-hand side")
        if errors:
            raise ConfigInvalid(errors)
        codim = n - k
        if codim < 1 or codim > n:
            errors.append(f"k: n-k must be between 1 and n, got {codim}")
        if len(rows) != n:
            errors.append(f"rows: expected {n} rows, got {len(rows)}")
        else:
            for i, row in enumerate(rows):
                if len(row) != codim:
                    errors.append(f"rows[{i}]: expected length {codim}, got {len(row)}")
                elif any(int(x) != x for x in row):
                    errors.append(f"rows[{i}]: entries must be integers")
        if len(constants) != codim:
            errors.append(
                f"constants: expected {codim} values, got {len(constants)}"
            )
        if errors:
            raise ConfigInvalid(errors)
        try:
            ExponentMatrix(rows)
        except RankDeficient as exc:
            raise ConfigInvalid([f"rows: {exc}"]) from None
        sweeps = raw.get("sweeps", {"cn": True, "quotient": True})
        if isinstance(sweeps, dict):
            order = [s for s in ("cn", "cpn", "quotient") if sweeps.get(s)]
        else:
            order = [s for s in ("cn", "cpn", "quotient") if s in sweeps]
        mesh = raw.get("mesh", {})
        resolution = tuple(mesh.get("resolution", (128, 64)))
        if len(resolution) != 2 or any(
            not isinstance(r, int) or r < 1 for r in resolution
        ):
            raise ConfigInvalid(["mesh.resolution: need two positive integers"])
        projection = mesh.get("projection")
        if projection is not None:
            projection = tuple(tuple(float(x) for x in r) for r in projection)
        return cls(
            n=n,
            k=k,
            rows=tuple(tuple(int(x) for x in r) for r in rows),
            constants=tuple(float(c) for c in constants),
            samples=int(raw.get("samples", 200)),
            seed=int(raw.get("seed", 0)),
            curvature_samples=int(raw.get("curvature_samples", 20)),
            sweeps=tuple(order),
            tolerances=dict(raw.get("tolerances", {})),
            mesh_resolution=resolution,
            mesh_projection=projection,
            mesh_target=mesh.get("target", "cn"),
        )

    def system(self) -> QuadricSystem:
        numeric = Tolerances()
        overrides = {
            key: float(val)
            for key, val in self.tolerances.items()
            if key in ("residual", "rank", "u_floor", "r_max", "fd_step")
        }
        if "max_iter" in self.tolerances:
            overrides["max_iter"] = int(self.tolerances["max_iter"])
        return QuadricSystem(self.rows, self.constants, numeric.updated(**overrides))

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
    except DimensionUnsupported as exc:
        report[key] = {"skipped": str(exc)}
    except QlagError as exc:
        report[key] = {"error": f"{type(exc).__name__}: {exc}", "pass": False}


def _lattice_section(system: QuadricSystem) -> dict:
    basis, dual, group = lattice_data(system.exponents)
    from .lattice import verify_free_action

    result = verify_free_action(system.exponents, group)
    return {
        "basis": [[str(x) for x in row] for row in basis.rows],
        "dual_basis": [[str(x) for x in row] for row in dual.rows],
        "group_order": len(group),
        "free_action": bool(result.free),
        "witnesses": [
            {"gamma": [str(x) for x in gamma], "row": w}
            for gamma, w in result.witnesses
        ],
    }


def _frame_checks(system: QuadricSystem, U: np.ndarray, Y: np.ndarray) -> tuple:
    """(Lagrangian defect per sample, worst cross block, worst metric block),
    all read off one batched frame bundle per block of FRAME_BLOCK samples."""
    defects, cross, metric = [], 0.0, 0.0
    for start in range(0, len(U), FRAME_BLOCK):
        u, y = U[start:start + FRAME_BLOCK], Y[start:start + FRAME_BLOCK]
        fb = frame_at(system, u, y)
        defects.append(frame_symplectic_defect(fb.all_rows()))
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

    def curvature_match():
        worst = 0.0
        for u, y in zip(Uc, Yc):
            h_closed = mean_curvature(system, u, y)
            h_fd = mean_curvature_fd(system, u, y)
            rel = np.linalg.norm(h_closed - h_fd) / (1.0 + np.linalg.norm(h_closed))
            worst = max(worst, float(rel))
        return _entry(worst, config.verify_tolerance("curvature_match"), nsub)

    _guard(section, "curvature_match", curvature_match)

    if all(c == 0 for c in e):
        def minimal_curvature():
            worst = max(
                float(np.linalg.norm(mean_curvature_fd(system, u, y)))
                for u, y in zip(Uc, Yc)
            )
            return _entry(worst, config.verify_tolerance("minimal_curvature"), nsub)

        _guard(section, "minimal_curvature", minimal_curvature)

    def harmonicity():
        mesh = chart_mesh(system, 64)
        value = laplace_beltrami_defect(mesh, mesh.angle_values())
        return _entry(
            value, config.verify_tolerance("harmonic"), int(np.prod(mesh.shape))
        )

    _guard(section, "angle_harmonicity", harmonicity)

    def variation():
        mesh = chart_mesh(system, 8)  # probe chart availability cheaply
        dim = mesh.dim
        worst = 0.0
        for i in range(3):
            f = random_trig_polynomial(dim, seed=config.seed + i)
            worst = max(worst, hamiltonian_variation(system, f, resolution=32))
        return _entry(worst, config.verify_tolerance("variation"), 3)

    _guard(section, "hamiltonian_variation", variation)
    return section


def _cpn_section(config: InstanceConfig, system: QuadricSystem) -> dict:
    from .quadric import require_cone

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
            worst = max(
                projective_mean_curvature(system, u, y)[1] for u, y in zip(Uc, Yc)
            )
            return _entry(worst, config.verify_tolerance("projective_curvature"), nsub)

        _guard(section, "projective_minimal_curvature", minimal_curvature)

    def fiber_angle():
        worst = max(
            projective_angle_fiber_defect(system, u, y) for u, y in zip(Uc, Yc)
        )
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
        size = orbit_distinctness(
            system, zip(U, Y), tol=config.verify_tolerance("orbit")
        )
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
        localized = all(p.min_abs_u < np.sqrt(tol) for p in report.pairs)
        return {
            "pairs": len(report),
            "sample_count": report.sample_count,
            "tolerance": tol,
            "max_min_abs_u": float(
                max((p.min_abs_u for p in report.pairs), default=0.0)
            ),
            "localized": bool(localized),
            "pass": bool(localized),
        }

    _guard(section, "self_intersections", collisions)

    def characters():
        group = gamma_group(system.exponents)
        values = []
        for gamma in group:
            char = orientation_character(system, gamma)
            values.append(
                {"gamma": [str(x) for x in gamma],
                 "character": char if char is not None else "unsupported"}
            )
        return values

    try:
        section["orientation_characters"] = characters()
    except QlagError as exc:
        section["orientation_characters"] = {"error": str(exc)}
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
            "numeric_tolerances": {
                "residual": system.tolerances.residual,
                "rank": system.tolerances.rank,
                "u_floor": system.tolerances.u_floor,
                "max_iter": system.tolerances.max_iter,
                "r_max": system.tolerances.r_max,
                "fd_step": system.tolerances.fd_step,
            },
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
        quotient = _quotient_section(config, system)
        label = classify_quotient(system)
        quotient["topology"] = {
            "kind": label.kind,
            "dim": label.dim,
            "detail": label.detail,
        }
        report["quotient"] = quotient
    report["meta"] = {"package": "qlag", "version": __version__, "seed": config.seed}
    return report


def report_passed(report: dict) -> bool:
    """True when no property entry carries pass=False."""
    ok = True

    def walk(node) -> None:
        nonlocal ok
        if isinstance(node, dict):
            if node.get("pass") is False:
                ok = False
            for v in node.values():
                walk(v)
        elif isinstance(node, (list, tuple)):
            for v in node:
                walk(v)

    walk(report)
    return ok


# ---------------------------------------------------------------------------
# deterministic serialization: floats at 17 significant digits
# ---------------------------------------------------------------------------


def _format_scalar(value) -> str:
    import json

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


def serialize_report(report: dict, indent: int = 2) -> str:
    """JSON text with stable key order and 17-significant-digit floats."""

    def render(node, level: int) -> str:
        pad = " " * (indent * level)
        inner = " " * (indent * (level + 1))
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
