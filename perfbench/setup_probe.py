"""Set-up probe run by run.py: one fresh interpreter per measurement.

    python3 perfbench/setup_probe.py WORKLOAD SEED CONFIG_DIR

After numpy (qlag's only dependency) is imported, times qlag's own set-up:
import qlag, qlag.cli and qlag.meshing from the checkout's src/, validate
the workload's configs as the CLI reads them, and build each system and
its lattice data cold.  The reference loop runs before and after.  Prints
{"setup_s": ..., "reference_s": ...} as JSON.
"""

import json
import os
import sys
import time

import numpy  # noqa: F401  (imported before timing: not qlag's cost)
from reference import reference_seconds

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    import workloads

    before = reference_seconds()
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import qlag
    import qlag.cli  # noqa: F401
    import qlag.meshing  # noqa: F401
    from qlag.pipeline import InstanceConfig
    from qlag.torus import lattice_data

    for call in workloads.build(workload, seed).calls:
        with open(call.config_path(directory)) as fh:
            config = InstanceConfig.from_dict(json.load(fh))
        lattice_data(config.system().exponents)
    elapsed = time.perf_counter() - start
    after = reference_seconds()
    if not os.path.abspath(qlag.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"setup_probe: imported qlag from {qlag.__file__}\n")
        return 2
    print(json.dumps({"setup_s": elapsed, "reference_s": 0.5 * (before + after)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
