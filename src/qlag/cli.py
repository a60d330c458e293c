"""Command-line entry point.

Commands (options may come before or after them, and -h lists them):
  analyze             full verification report for an instance config
  verify-cn           complex-space property suite only
  verify-cpn          projective property suite only (cones)
  classify            quotient section only: orbits, self-intersection
                      scan, orientation characters, topology label
  mesh                export OBJ / CSV geometry

Exit codes: 0 all checks passed, 1 some check failed, 2 configuration
error, an --out path that cannot be opened and sweeps that check nothing
on the instance included.  Reports go to stdout and, with --out, to a
file (written first, so a path that cannot be opened prints nothing);
identical (config, seed) pairs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import replace

from .errors import ConfigInvalid, DimensionUnsupported, NotACone, QlagError
from .pipeline import (
    NUMERIC_TOLERANCES,
    VERIFY_TOLERANCES,
    InstanceConfig,
    report_passed,
    run_analyze,
    serialize_report,
)
from .quadric import QuadricSystem, moment_polytope

# the tolerance keys a --tol-<key> flag sets, with dashes for underscores
TOL_FLAGS = sorted(VERIFY_TOLERANCES) + list(NUMERIC_TOLERANCES)

# name -> (help, the sweeps it runs); analyze runs the config's own sweeps
# and mesh writes geometry instead of a report
COMMANDS = {
    "analyze": ("run every configured sweep and print the full report", None),
    "verify-cn": ("verify the complex-space properties", ("cn",)),
    "verify-cpn": ("verify the projective properties (cones only)", ("cpn",)),
    "classify": ("print the quotient section: orbits, collision scan, characters and "
                 "topology label", ("quotient",)),
    "mesh": ("export mesh geometry (OBJ surface / polyline, CSV cloud)", None),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlag",
        description="Build and numerically certify Lagrangian immersions "
        "from integer quadric systems.",
    )
    parser.add_argument(
        "command",
        choices=COMMANDS,
        help="; ".join(f"{name}: {help_text}" for name, (help_text, _) in COMMANDS.items()),
    )
    parser.add_argument("config", help="path to the instance config (JSON)")
    parser.add_argument("--seed", type=int, help="override RNG seed")
    parser.add_argument("--samples", type=int, help="override sample count")
    parser.add_argument("--out", help="also write the output to a file")
    for key in TOL_FLAGS:
        parser.add_argument(f"--tol-{key.replace('_', '-')}", type=float, dest=key,
                            help=f"override tolerance {key}")
    return parser


def _load_config(args) -> InstanceConfig:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigInvalid([f"config: cannot read {args.config}: {exc}"]) from None
    except json.JSONDecodeError as exc:
        raise ConfigInvalid([f"config: invalid JSON: {exc}"]) from None
    if not isinstance(raw, dict):
        raise ConfigInvalid(["config: top level must be an object"])
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.samples is not None:
        raw["samples"] = args.samples
    overrides = {key: getattr(args, key) for key in TOL_FLAGS if getattr(args, key) is not None}
    tolerances = raw.get("tolerances", {})
    if isinstance(tolerances, dict):  # from_dict reports any other value
        raw["tolerances"] = {**tolerances, **overrides}
    return InstanceConfig.from_dict(raw)


@contextlib.contextmanager
def _writing(path: str):
    """Turn a failure to open the output file into a configuration error.

    Only an OSError naming the path (a missing directory, a directory in
    its place, no permission) is converted; one raised partway through a
    write, such as a full disk, carries no file name and propagates.
    """
    try:
        yield
    except OSError as exc:
        if exc.filename != path:
            raise
        raise ConfigInvalid([f"--out: cannot write {path}: {exc}"]) from None


def _emit(text: str, out_path: str | None) -> None:
    if out_path:  # the file first: an unwritable --out leaves stdout empty
        with _writing(out_path), open(out_path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _run_report(config: InstanceConfig, system: QuadricSystem, out_path: str | None) -> int:
    report = run_analyze(config, system)
    passed = report_passed(report)
    if passed is None:
        sweeps = ", ".join(config.sweeps) or "none"
        raise ConfigInvalid([f"sweeps: the report checks nothing (sweeps run: {sweeps})"])
    _emit(serialize_report(report), out_path)
    return 0 if passed else 1


def _run_mesh(config: InstanceConfig, system: QuadricSystem, out_path: str | None) -> int:
    from . import meshing

    target = config.mesh_target
    nx, ny = config.mesh_resolution
    out = out_path or "qlag-mesh.obj"
    try:
        if target == "cpn":
            if system.n == 2:
                pts, line = meshing.build_projective_polyline(system, max(nx, ny))
                with _writing(out):
                    meshing.write_obj(out, pts, polyline=line)
            elif system.n == 3:
                if not out.endswith(".csv"):
                    out = os.path.splitext(out)[0] + ".csv"
                with _writing(out):
                    meshing.write_projective_cloud(out, system, nx, ny)
            else:
                raise ConfigInvalid(
                    ["mesh.target: cpn meshes support n=2 (polyline) and n=3 (cloud)"]
                )
        else:
            if config.mesh_projection is not None:  # before the mesh is built
                meshing.validate_projection(config.mesh_projection)
            mesh = meshing.build_surface_mesh(system, nx, ny)
            vertices = meshing.project_vertices(mesh.vertices, config.mesh_projection)
            with _writing(out):
                meshing.write_obj(out, vertices, mesh.faces)
            chi = mesh.euler_characteristic()
            sys.stdout.write(
                "mesh: %d vertices, %d faces, euler_characteristic %d, closed %s\n"
                % (mesh.vertex_count, len(mesh.faces), chi, str(mesh.is_closed()).lower())
            )
    except (DimensionUnsupported, NotACone) as exc:  # ChartUnavailable included
        raise ConfigInvalid([f"mesh.target: {exc}"]) from None
    sys.stdout.write(f"wrote {out}\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
        system = config.system()  # one per call: its memo serves every reader
        if not len(moment_polytope(system)[0]):
            raise ConfigInvalid(["constants: the variety is empty: its moment polytope "
                                 "(for a cone, the link's) has no vertex"])
        if args.command == "mesh":
            return _run_mesh(config, system, args.out)
        sweeps = COMMANDS[args.command][1]
        if sweeps is not None:
            config = replace(config, sweeps=sweeps)
        return _run_report(config, system, args.out)
    except ConfigInvalid as exc:
        for message in exc.messages:
            sys.stderr.write(f"config error: {message}\n")
        return 2
    except QlagError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
