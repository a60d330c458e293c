"""qlag benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the public CLI entry point ``qlag.cli.main`` in-process on configs
generated from the seed, with stdout captured.  Load model: one process,
closed loop, one client; each iteration starts after the previous one
ends.  qlag is imported from ``src/`` of the checkout this file sits in.

--trace 0 reports the end-to-end metrics:
  wall_rel  median over iterations, tracing off, of the iteration's wall
            time divided by that of the reference loop (reference.py)
            timed on both sides of it; one untimed iteration under
            tracemalloc comes first (warm-up and peak pass);
  peak_mb   tracemalloc peak of that untimed iteration, in MB (1e6 B);
  setup_s   median over fresh interpreters (setup_probe.py) of qlag's own
            set-up time, after numpy is imported: import qlag, qlag.cli
            and qlag.meshing, validate the configs and build each
            system's lattice data cold.  Divided by the reference loop's
            time in the same interpreter and converted back to seconds
            at the loop's nominal speed.
The raw median wall time per iteration and of the whole fresh
interpreter are printed on the line before the result.
--trace 1 reports the per-layer metrics of the traced pass (tracing.py).

An iteration fails when a CLI call raises or exits non-zero, when its
output differs from the first iteration's for the same (config, seed),
or when it breaks a workload invariant (group order, closed chi = 0
surface, cloud row count).  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_REPEATS = 7
LATTICE_REPEATS = 5
LOAD_MODEL = "single process, closed loop, one client"

SURFACE_LINE = re.compile(r"euler_characteristic 0, closed true$", re.M)

# per-layer metric -> unit; names ending in ".s" are span self times
PER_LAYER = {
    "lattice.data.s": "s",
    "lattice.group_order": "count",
    "quadric.sample.s": "s",
    "quadric.sample.points": "count",
    "quadric.stratum.s": "s",
    "quadric.newton.calls": "count",
    "quadric.newton.s": "s",
    "torus.distance.calls": "count",
    "torus.gamma_signs.calls": "count",
    "immersion.frames.s": "s",
    "immersion.frames.calls": "count",
    "immersion.curvature.s": "s",
    "immersion.curvature.calls": "count",
    "immersion.chart_mesh.s": "s",
    "immersion.mesh_nodes": "count",
    "immersion.laplace_beltrami.s": "s",
    "immersion.laplace_beltrami.peak_mb": "MB",
    "immersion.variation.s": "s",
    "projective.lagrangian.s": "s",
    "projective.curvature.s": "s",
    "projective.fiber.s": "s",
    "quotient.orbits.s": "s",
    "quotient.orbit_points": "count",
    "quotient.scan_samples.s": "s",
    "quotient.scan.s": "s",
    "quotient.scan.samples": "count",
    "quotient.scan.pairs": "count",
    "meshing.surface.s": "s",
    "meshing.obj_write.s": "s",
    "meshing.euler.s": "s",
    "meshing.closed.s": "s",
    "meshing.cloud.s": "s",
    "meshing.bytes_written": "bytes",
    "pipeline.serialize.s": "s",
    "pipeline.report_bytes": "bytes",
    "cli.config.s": "s",
    "layer.quadric.self_s": "s",
    "layer.immersion.self_s": "s",
    "layer.projective.self_s": "s",
    "layer.quotient.self_s": "s",
    "layer.meshing.self_s": "s",
    "layer.pipeline.self_s": "s",
    "trace.overhead_s": "s",
}


def _cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; call before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        value = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(value)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _import_qlag():
    """Import qlag from this checkout's src/, or exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "qlag", "__init__.py")):
        sys.stderr.write(f"perfbench: no qlag sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import qlag

    if os.path.dirname(os.path.dirname(os.path.abspath(qlag.__file__))) != SRC:
        sys.stderr.write(f"perfbench: imported qlag from {qlag.__file__}, not {SRC}\n")
        sys.exit(2)
    return qlag


def _header(blas_threads: int, args) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "load_model": LOAD_MODEL,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    """Runs a workload's CLI calls once per iteration and checks the outputs."""

    def __init__(self, workload, seed: int, directory: str) -> None:
        from qlag.cli import main

        self._main = main
        self.workload = workload
        self.seed = seed
        self.directory = directory
        self.reference: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, tracer=None) -> tuple[float, list]:
        """Run the calls once: (wall seconds, [(call, exit code, stdout)]).

        A call that raises gets exit code None and the traceback as stdout.
        """
        elapsed = 0.0
        outputs = []
        for call in self.workload.calls:
            buf = io.StringIO()
            root = tracer.span("cli.main") if tracer else nullcontext()
            start = time.perf_counter()
            try:
                with root, redirect_stdout(buf):
                    code = self._main(call.argv(self.directory, self.seed))
            except (Exception, SystemExit):
                code, buf = None, io.StringIO(traceback.format_exc())
            finally:
                elapsed += time.perf_counter() - start
            outputs.append((call, code, buf.getvalue()))
        return elapsed, outputs

    def check(self, outputs) -> bool:
        """Count one attempted iteration, and a failure if any output is wrong."""
        self.attempted += 1
        problems = [p for output in outputs for p in self._check(*output)]
        if problems:
            self.failed += 1
            sys.stderr.write(f"perfbench: iteration {self.attempted} failed: {problems}\n")
        return not problems

    def iteration(self, tracer=None) -> float | None:
        """Wall seconds of one checked iteration, or None if it failed."""
        elapsed, outputs = self.run(tracer)
        return elapsed if self.check(outputs) else None

    def _check(self, call, code, stdout: str) -> list[str]:
        if code is None:
            return [f"{call.label}: raised\n{stdout}"]
        if code != 0:
            return [f"{call.label}: exit code {code}"]
        problems = []
        digest = hashlib.sha256(stdout.encode())
        if call.command == "analyze":
            report = json.loads(stdout)
            order = report["lattice"]["group_order"]
            if order != call.group_order:
                problems.append(f"{call.label}: group order {order} != {call.group_order}")
            orbits = report.get("quotient", {}).get("orbit_distinctness")
            if orbits is not None and orbits.get("orbit_size") != call.group_order:
                problems.append(f"{call.label}: orbit check {orbits}")
        else:
            with open(call.out_path(self.directory), "rb") as fh:
                data = fh.read()
            digest.update(data)
            if call.surface and not SURFACE_LINE.search(stdout):
                problems.append(f"{call.label}: mesh is not a closed chi = 0 surface: {stdout!r}")
            rows = data.count(b"\n") - 1  # minus the CSV header
            if call.cloud_rows is not None and rows != call.cloud_rows:
                problems.append(f"{call.label}: cloud has {rows} rows, not {call.cloud_rows}")
        first = self.reference.setdefault(call.label, digest.hexdigest())
        if first != digest.hexdigest():
            problems.append(f"{call.label}: output differs from the first iteration")
        return problems


def _setup_seconds(workload: str, seed: int, directory: str) -> tuple[float, float]:
    """setup_s and the median raw wall time of the fresh interpreters.

    Each setup_probe.py interpreter times its own set-up and the reference
    loop on both sides of it; setup_s is the median ratio converted to
    seconds at the reference loop's nominal speed.
    """
    from reference import NOMINAL_SECONDS

    probe = os.path.join(HERE, "setup_probe.py")
    ratios, walls = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        # no timeout: Popen.wait(timeout) polls in steps of up to 50 ms,
        # which would quantise the wall time
        out = subprocess.run([sys.executable, probe, workload, str(seed), directory],
                             check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True).stdout
        walls.append(time.perf_counter() - start)
        probed = json.loads(out)
        ratios.append(probed["setup_s"] / probed["reference_s"])
    return statistics.median(ratios) * NOMINAL_SECONDS, statistics.median(walls)


def _systems(workload):
    from qlag.pipeline import InstanceConfig

    return [InstanceConfig.from_dict(call.config).system() for call in workload.calls]


def _timed_loop(runner: Runner, seconds: float) -> tuple[list[float], list[float]]:
    """Iteration wall times, each with the mean reference time around it."""
    from reference import reference_seconds

    times, refs = [], []
    before = reference_seconds()
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        elapsed = runner.iteration()
        after = reference_seconds()
        if elapsed is not None:
            times.append(elapsed)
            refs.append(0.5 * (before + after))
        elif runner.failed >= 3:
            break
        before = after
    return times, refs


def end_to_end(runner: Runner, args) -> dict:
    from qlag.torus import lattice_data

    setup, setup_wall = _setup_seconds(args.workload, args.seed, runner.directory)
    for system in _systems(runner.workload):
        lattice_data(system.exponents)
    tracemalloc.start()
    _, outputs = runner.run()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    runner.check(outputs)
    times, refs = _timed_loop(runner, args.seconds)
    ratios = [t / r for t, r in zip(times, refs)]
    print(json.dumps({
        "wall_s": statistics.median(times) if times else None,
        "reference_s": statistics.median(refs) if refs else None,
        "setup_wall_s": setup_wall,
        "iterations_s": times,
        "references_s": refs,
    }))
    return {
        "wall_rel": {"value": statistics.median(ratios) if ratios else 0.0, "unit": "ratio"},
        "peak_mb": {"value": peak / 1e6, "unit": "MB"},
        "setup_s": {"value": setup, "unit": "s"},
    }


def per_layer(runner: Runner, args) -> dict:
    import qlag.pipeline
    from qlag.torus import lattice_data
    from tracing import Tracer, layer_of, peak_probe, self_times

    systems = _systems(runner.workload)
    cold = []
    for _ in range(LATTICE_REPEATS):
        start = time.perf_counter()
        for system in systems:
            lattice_data.cache_clear()
            lattice_data(system.exponents)
        cold.append(time.perf_counter() - start)
    group_order = sum(len(lattice_data(s.exponents)[2]) for s in systems)

    peaks: list[int] = []
    with peak_probe(qlag.pipeline, "laplace_beltrami_defect", peaks):
        runner.iteration()

    plain, traced, tracers = [], [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        elapsed = runner.iteration()
        if elapsed is not None:
            plain.append(elapsed)
        tracer = Tracer()
        with tracer.installed():
            elapsed = runner.iteration(tracer)
        if elapsed is not None:
            traced.append(elapsed)
            tracers.append(tracer)
        if runner.failed >= 3:
            break
    if not tracers:
        return {}

    counts = tracers[0].counts
    for tracer in tracers[1:]:
        if tracer.counts != counts:
            runner.failed += 1
            sys.stderr.write("perfbench: counts differ between traced iterations\n")

    per_iteration = []
    for tracer in tracers:
        times = self_times(tracer.spans)
        for name, value in list(times.items()):
            key = f"layer.{layer_of(name)}.self_s"
            times[key] = times.get(key, 0.0) + value
        per_iteration.append(times)

    values = {
        "lattice.data.s": statistics.median(cold),
        "lattice.group_order": group_order,
        "immersion.laplace_beltrami.peak_mb": max(peaks, default=0) / 1e6,
        "trace.overhead_s": statistics.median(traced) - statistics.median(plain or traced),
    }
    for name, unit in PER_LAYER.items():
        if name in values:
            continue
        if unit == "s":
            span = name[:-2] if name.endswith(".s") else name
            values[name] = statistics.median(t.get(span, 0.0) for t in per_iteration)
        else:
            values[name] = counts.get(name, 0)

    os.makedirs(runner.directory, exist_ok=True)
    spans_path = os.path.join(runner.directory, f"spans-seed{args.seed}.jsonl")
    with open(spans_path, "w") as fh:
        for i, tracer in enumerate(tracers):
            tracer.write(fh, iteration=i)
    print(json.dumps({"spans": os.path.relpath(spans_path, ROOT),
                      "traced_s": traced, "untraced_s": plain}))
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas_threads = _cap_blas_threads()
    _import_qlag()
    import qlag.meshing  # noqa: F401  (imported lazily by the mesh command)
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}")
    workload = workloads.build(args.workload, args.seed)
    directory = os.path.join(OUT, args.workload)
    workload.write_configs(directory)
    print(json.dumps({"header": _header(blas_threads, args)}))

    runner = Runner(workload, args.seed, directory)
    metrics = per_layer(runner, args) if args.trace else end_to_end(runner, args)
    result = {
        "correct": runner.failed == 0 and bool(metrics),
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
