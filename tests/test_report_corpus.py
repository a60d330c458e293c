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


def _reference_render(report) -> str:
    """The recursive report writer serialize_report replaced, kept as its
    reference: JSON indented by two spaces, floats at 17 significant digits,
    a list of scalars on one line."""
    from fractions import Fraction

    import numpy as np

    def scalar(value) -> str:
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

    def render(node, level: int) -> str:
        pad = "  " * level
        inner = "  " * (level + 1)
        if isinstance(node, dict):
            if not node:
                return "{}"
            parts = [f"{inner}{scalar(str(k))}: {render(v, level + 1)}" for k, v in node.items()]
            return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
        if isinstance(node, (list, tuple, np.ndarray)):
            items = list(node)
            if not items:
                return "[]"
            rendered = [render(v, level + 1) for v in items]
            if all(not isinstance(v, (dict, list, tuple, np.ndarray)) for v in items):
                return "[" + ", ".join(rendered) + "]"
            return "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + pad + "]"
        return scalar(node)

    return render(report, 0) + "\n"


def test_serialize_report_equals_the_reference_on_every_corpus_report(stored):
    from qlag.pipeline import serialize_report

    reports = [path for path in stored if path.endswith(".json") and path != "index.json"]
    assert len(reports) == 32
    for path in reports:
        report = json.loads(stored[path])
        assert serialize_report(report) == _reference_render(report) == stored[path], path


def test_serialize_report_equals_the_reference_on_live_reports():
    # the report objects as run_analyze builds them, before any JSON round trip
    from qlag.pipeline import InstanceConfig, run_analyze, serialize_report

    root = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
    for name in sorted(os.listdir(root)):
        with open(os.path.join(root, name)) as fh:
            report = run_analyze(InstanceConfig.from_dict(json.load(fh)))
        assert serialize_report(report) == _reference_render(report), name


def test_serialize_report_equals_the_reference_on_a_hand_built_report():
    from fractions import Fraction

    import numpy as np

    from qlag.pipeline import serialize_report

    report = {
        "numpy": [np.bool_(True), np.bool_(False), np.int64(-3), np.int32(7), np.float64(0.1),
                  np.float32(1.5), np.uint8(255)],
        "fraction": Fraction(-22, 7),
        "fractions": [Fraction(1, 3), Fraction(4)],
        "empty": {"dict": {}, "list": [], "tuple": (), "array": np.zeros(0),
                  "rows": np.zeros((2, 0))},
        "nested": {"a": [[1, 2], (3.5, "x"), {"b": None}, []], "t": (True, False, None)},
        "matrix": np.arange(6.0).reshape(2, 3),
        "ints": np.array([1, 2, 3]),
        "strings": ["é", "tab\t", 'quote"', "☃", "\\", ""],
        "floats": [1e-300, -0.0, 5e-324, 1.7976931348623157e308, 2.0, -1 / 3],
        "big": 2 ** 70,
        "mixed": [1, [2], {}, (), "s", {"k": [{"deep": (np.float64(2.5),)}]}],
        3: "an int key",
        (1, 2): "a tuple key",
    }
    assert serialize_report(report) == _reference_render(report)
    assert serialize_report({}) == _reference_render({}) == "{}\n"


def test_serialize_report_rejects_non_finite_and_unknown_values():
    from fractions import Fraction

    import numpy as np

    from qlag.pipeline import serialize_report

    def placed(value):
        """value alone, in a list of scalars, in a nested list and as a
        dict value, each behind finite entries."""
        return [{"x": value}, {"x": [1.0, value]}, {"x": [[1.0], [value]]},
                {"a": 1, "x": {"y": value}}]

    for value in (float("nan"), float("inf"), -float("inf"), np.float64("nan"),
                  np.float32("inf"), -np.float64("inf")):
        for report in placed(value):
            with pytest.raises(ValueError, match="non-finite value in report"):
                serialize_report(report)
    for value in (object(), {1, 2}, 1j, b"bytes", Fraction):
        for report in placed(value):
            with pytest.raises(TypeError, match="cannot serialize"):
                serialize_report(report)
