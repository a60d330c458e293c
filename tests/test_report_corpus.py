"""The checked-in report corpus, ``tests/reports``, against a fresh run.

Where the Python, numpy and platform match the corpus's index, every file
must be byte-identical.  Anywhere, each call must keep its exit code and
stderr, and each report its pass flags, counts, error and skip strings,
lattice section, orientation characters and topology label; mesh calls
keep their stdout.  Floats are not compared across environments: the
finite-difference curvature entries move with the last bit of their inputs.

A change that moves a report on purpose rewrites the corpus with
``PYTHONPATH=src python tests/reports/regenerate.py`` and commits the diff.
"""

import importlib.util
import json
import os
import sys

import pytest

REGENERATE = os.path.join(os.path.dirname(__file__), "reports", "regenerate.py")
HINT = "if the change is intended, rewrite it with PYTHONPATH=src python tests/reports/regenerate.py"


def _load_corpus():
    spec = importlib.util.spec_from_file_location("report_corpus", REGENERATE)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


corpus = _load_corpus()


@pytest.fixture(scope="module")
def fresh():
    return corpus.generate()


@pytest.fixture(scope="module")
def stored():
    return corpus.stored()


def _report_structure(node, path=()):
    """The entries of a report that do not depend on float rounding."""
    out = []
    if isinstance(node, dict):
        for key, value in node.items():
            here = path + (key,)
            if here in (("lattice",), ("quotient", "orientation_characters"),
                        ("quotient", "topology")) or key in ("pass", "count", "error", "skipped"):
                out.append((here, value))
            else:
                out.extend(_report_structure(value, here))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            out.extend(_report_structure(value, path + (i,)))
    return out


def _structure(files, call):
    text = files.get(call["stdout"], "")
    if call["stdout"].endswith(".json") and text:
        text = _report_structure(json.loads(text))
    return call["exit"], call["stderr"], text


def test_corpus_has_the_same_files(fresh, stored):
    assert sorted(fresh) == sorted(stored), HINT


def test_corpus_structure(fresh, stored):
    calls = json.loads(fresh["index.json"])["calls"]
    recorded = json.loads(stored["index.json"])["calls"]
    assert [c["argv"] for c in calls] == [c["argv"] for c in recorded], HINT
    moved = [" ".join(c["argv"]) for c, r in zip(calls, recorded)
             if _structure(fresh, c) != _structure(stored, r)]
    assert not moved, f"these calls changed: {moved}; {HINT}"


def test_corpus_bytes(fresh, stored):
    recorded = json.loads(stored["index.json"])["environment"]
    if recorded != corpus.environment():
        pytest.skip(f"the corpus was made with {recorded}; compared by structure only")
    moved = [path for path in sorted(fresh) if fresh[path] != stored.get(path)]
    assert not moved, f"these corpus files changed: {moved}; {HINT}"


def test_every_cone_records_its_link_check(fresh):
    # a cone's projective sweep measures the link angle or says why it cannot
    measured, skipped = set(), set()
    for path, text in fresh.items():
        if not path.startswith("catalog/"):
            continue
        cpn = json.loads(text)["cpn"]
        if "skipped" in cpn:  # not a cone
            continue
        name = path[len("catalog/"):].split("-seed")[0]
        entry = cpn["link_angle_harmonicity"]
        if "skipped" in entry:
            assert entry == {"skipped": "link charts are built for n=3 single-equation cones"}
            skipped.add(name)
        else:
            assert entry["pass"] is True
            measured.add(name)
    assert measured == {"klein_bottle_cone", "weighted_cone_1_1_3"}
    assert skipped == {"clifford_cone_3", "clifford_cone_5", "weighted_cone_1_1_1_3"}
