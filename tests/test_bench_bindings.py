"""Every qlag name the benchmark's tracer wraps still resolves.

``perfbench/tracing.py`` replaces the functions listed in ``BINDINGS`` by
name, so a rename or a dropped import breaks ``--trace 1``.  This reads the
list from the benchmark's own file and changes nothing there.
"""

import importlib.util
import os
import sys

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "owner, attr", sorted({(owner, attr) for owner, attr, _, _ in tracing.BINDINGS})
)
def test_binding_resolves(owner, attr):
    target = tracing._resolve(owner)
    assert callable(getattr(target, attr, None)), f"{owner} has no callable {attr}"
