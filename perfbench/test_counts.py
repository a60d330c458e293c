"""Count metrics of the traced pass repeat exactly for a fixed seed.

    PYTHONPATH=src python -m pytest -q perfbench/test_counts.py

Each workload's traced pass runs twice, in fresh interpreters, with the
same seed; every count metric (unit other than seconds or MB) must match.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import NAMES  # noqa: E402


def _traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        check=True, capture_output=True, text=True, timeout=600,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {
        name: metric["value"]
        for name, metric in result["metrics"].items()
        if metric["unit"] not in ("s", "MB")
    }


@pytest.mark.parametrize("workload", NAMES)
def test_count_metrics_repeat(workload):
    first = _traced_counts(workload, seed=3)
    assert first, "no count metrics reported"
    assert _traced_counts(workload, seed=3) == first
