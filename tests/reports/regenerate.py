"""The report corpus: qlag CLI output checked in, so a change to any report
shows up as a diff.

    PYTHONPATH=src python tests/reports/regenerate.py

rewrites every file of the corpus next to this script:

- ``catalog/``: ``analyze`` on 14 catalog instances at seeds 0 and 3, 120
  samples, with the cn, cpn and quotient sweeps;
- ``configs/``: ``analyze`` and ``classify`` on each ``configs/*.json``;
- ``meshes/``: the stdout of ``mesh`` on ``configs/ellipse.json`` and on the
  two configs of the benchmark's export-mesh workload at seed 0;
- ``index.json``: the Python, numpy and platform the corpus was made with,
  then each call's argv, exit code, stderr, stdout file and, for ``mesh``,
  the SHA-256 of each file it wrote.

Every call runs ``qlag.cli.main`` in-process, in a temporary directory, on
relative paths, so no path of the machine enters the corpus.
``tests/test_report_corpus.py`` regenerates the corpus and compares it with
these files.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import platform
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

# file name -> catalog constructor and its arguments
CATALOG = {
    "ellipse": ("ellipse", ()),
    "ellipse_2_3_2": ("ellipse", (2, 3, 2)),
    "ellipsoid_1_1_1": ("ellipsoid", ([1, 1, 1],)),
    "ellipsoid_1_2_3": ("ellipsoid", ([1, 2, 3],)),
    "sphere_cone_3": ("sphere_cone", (3,)),
    "sphere_cone_5": ("sphere_cone", (5,)),
    "ellipsoid_cone": ("ellipsoid_cone", ()),
    "klein_bottle_cone": ("klein_bottle_cone", ()),
    "weighted_cone_1_1_3": ("weighted_cone", ([1, 1, 3],)),
    "weighted_cone_1_1_1_3": ("weighted_cone", ([1, 1, 1, 3],)),
    "clifford_cone_3": ("clifford_cone", (3,)),
    "clifford_cone_5": ("clifford_cone", (5,)),
    "circle": ("circle", ()),
    "product_torus_1_2_3": ("product_torus", ([1, 2, 3],)),
}
SEEDS = (0, 3)
SAMPLES = 120


def environment() -> dict:
    """What a byte-for-byte comparison needs to match."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{platform.system()} {platform.machine()}",
    }


def _write_json(path: str, value) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(value, fh, indent=1)


def _export_mesh_calls():
    """The export-mesh workload's calls at seed 0, read from the benchmark."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(ROOT, "perfbench", "workloads.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up there
    spec.loader.exec_module(module)
    return module.build("export-mesh", 0).calls


def _calls() -> list[tuple[str, list[str], dict | str | None, list[str]]]:
    """(name, argv, config to write or repo file to copy, files written)."""
    from qlag import catalog

    calls = []
    for name, (make, args) in CATALOG.items():
        system = getattr(catalog, make)(*args)
        fields = {
            "n": system.n,
            "k": system.k,
            "rows": [list(r) for r in system.exponents.rows],
            "constants": [float(c) for c in system.constants],
            "samples": SAMPLES,
            "sweeps": {"cn": True, "cpn": True, "quotient": True},
        }
        for seed in SEEDS:
            path = f"catalog/{name}.json"
            calls.append((f"catalog/{name}-seed{seed}", ["analyze", path, "--seed", str(seed)],
                          fields, []))
    for file in sorted(os.listdir(os.path.join(ROOT, "configs"))):
        stem, ext = os.path.splitext(file)
        if ext == ".json":
            for command in ("analyze", "classify"):
                calls.append((f"configs/{stem}-{command}", [command, f"configs/{file}"],
                              f"configs/{file}", []))
    calls.append(("meshes/ellipse", ["mesh", "configs/ellipse.json", "--out", "ellipse.obj"],
                  "configs/ellipse.json", ["ellipse.obj"]))
    for call in _export_mesh_calls():
        out = call.label + call.out_suffix
        calls.append((f"meshes/{call.label}",
                      [call.command, f"export-mesh/{call.label}.json", "--seed", "0", "--out", out],
                      call.config, [out]))
    return calls


def generate() -> dict[str, str]:
    """Every corpus file, by its path relative to this directory."""
    from qlag.cli import main

    files, index = {}, []
    work = tempfile.mkdtemp(prefix="qlag-corpus-")
    cwd = os.getcwd()
    try:
        os.chdir(work)
        for name, argv, config, written in _calls():
            if isinstance(config, str):
                os.makedirs(os.path.dirname(config), exist_ok=True)
                shutil.copyfile(os.path.join(ROOT, config), config)
            else:
                _write_json(argv[1], config)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            entry = {"argv": argv, "exit": code, "stderr": stderr.getvalue(),
                     "stdout": name + (".json" if argv[0] != "mesh" else ".txt")}
            if written:
                entry["sha256"] = {}
                for out in written:
                    with open(out, "rb") as fh:
                        entry["sha256"][out] = hashlib.sha256(fh.read()).hexdigest()
            files[entry["stdout"]] = stdout.getvalue()
            index.append(entry)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    files["index.json"] = json.dumps({"environment": environment(), "calls": index},
                                     indent=1) + "\n"
    return files


def stored() -> dict[str, str]:
    """The checked-in corpus files, by path relative to this directory."""
    files = {}
    for folder, _, names in os.walk(HERE):
        for name in names:
            path = os.path.relpath(os.path.join(folder, name), HERE)
            if name.endswith((".json", ".txt")):
                with open(os.path.join(HERE, path), newline="") as fh:
                    files[path.replace(os.sep, "/")] = fh.read()
    return files


def main() -> None:
    for path in stored():
        os.remove(os.path.join(HERE, path))
    for path, text in generate().items():
        target = os.path.join(HERE, path)
        os.makedirs(os.path.dirname(target), exist_ok=True)
        with open(target, "w", newline="") as fh:
            fh.write(text)


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    main()
