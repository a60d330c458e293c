"""The benchmark's workloads: qlag CLI calls generated from a seed.

Each workload puts most of its time in one layer and keeps the layers the
other workloads load light:

- frames-1k: per-sample frame loops (immersion) and the projective
  Lagrangian check, with no quotient sweep.
- orbits-clifford5: |G| = 16 orbit checks (quotient, torus), plus the
  finite-difference curvature oracles (Newton projections).
- chart-torus3: a 64^3 chart mesh, Laplace-Beltrami and the variation
  quadrature; per-sample work is light and the quotient sweep is off.
- export-mesh: `qlag mesh`, which analyze never runs: a welded OBJ
  surface and a projective CSV cloud, written to disk.

The seed becomes the CLI's --seed (analyze) or draws the orthonormal
projection of the OBJ surface (mesh), so one seed always makes the same
inputs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Call:
    """One CLI invocation and what its output must satisfy."""

    label: str
    command: str
    config: dict
    group_order: int | None = None  # |G| an analyze report must show
    out_suffix: str | None = None  # mesh output file extension
    cloud_rows: int | None = None  # CSV data rows a cloud must hold
    surface: bool = False  # stdout must report a closed chi = 0 surface

    def argv(self, directory: str, seed: int) -> list[str]:
        args = [self.command, self.config_path(directory), "--seed", str(seed)]
        if self.out_suffix:
            args += ["--out", self.out_path(directory)]
        return args

    def config_path(self, directory: str) -> str:
        return os.path.join(directory, f"{self.label}.json")

    def out_path(self, directory: str) -> str:
        return os.path.join(directory, f"{self.label}{self.out_suffix}")


@dataclass(frozen=True)
class Workload:
    name: str
    calls: list[Call]

    def write_configs(self, directory: str) -> None:
        os.makedirs(directory, exist_ok=True)
        for call in self.calls:
            with open(call.config_path(directory), "w") as fh:
                json.dump(call.config, fh, indent=1)


def _system_fields(name: str) -> dict:
    from qlag import catalog

    system = {
        "ellipse": catalog.ellipse,
        "klein_bottle_cone": catalog.klein_bottle_cone,
        "clifford_cone(5)": lambda: catalog.clifford_cone(5),
        "product_torus([1,2,3])": lambda: catalog.product_torus([1, 2, 3]),
    }[name]()
    return {
        "n": system.n,
        "k": system.k,
        "rows": [list(r) for r in system.exponents.rows],
        "constants": [float(c) for c in system.constants],
    }


def _analyze(label, system, samples, sweeps, group_order, **extra) -> Call:
    config = dict(_system_fields(system), samples=samples,
                  sweeps={s: True for s in sweeps}, **extra)
    return Call(label, "analyze", config, group_order)


def _projection(seed: int) -> list[list[float]]:
    """Orthonormal 3x4 projection C^2 = R^4 -> R^3 drawn from the seed."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4)))
    return [[float(x) for x in row] for row in q[:3]]


def build(name: str, seed: int) -> Workload:
    if name == "frames-1k":
        return Workload(name, [
            _analyze("ellipse", "ellipse", 1000, ["cn"], 2),
            _analyze("klein_cone", "klein_bottle_cone", 1000, ["cn", "cpn"], 2),
        ])
    if name == "orbits-clifford5":
        return Workload(name, [
            _analyze("clifford5", "clifford_cone(5)", 96, ["cn", "cpn", "quotient"], 16,
                     curvature_samples=8),
        ])
    if name == "chart-torus3":
        return Workload(name, [
            _analyze("torus3", "product_torus([1,2,3])", 120, ["cn"], 8),
        ])
    if name == "export-mesh":
        surface = dict(_system_fields("ellipse"),
                       mesh={"resolution": [192, 96], "projection": _projection(seed)})
        cloud = dict(_system_fields("klein_bottle_cone"),
                     mesh={"resolution": [64, 64], "target": "cpn"})
        return Workload(name, [
            Call("ellipse_surface", "mesh", surface, out_suffix=".obj", surface=True),
            Call("klein_cloud", "mesh", cloud, out_suffix=".csv", cloud_rows=64 * 64),
        ])
    raise KeyError(name)


NAMES = ("frames-1k", "orbits-clifford5", "chart-torus3", "export-mesh")
