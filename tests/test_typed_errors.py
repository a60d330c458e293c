"""A failed internal cross-check becomes a recorded pass: false entry in the
report instead of an exception that aborts analyze."""

import pytest

import qlag.immersion
import qlag.pipeline
import qlag.quotient
from qlag.catalog import ellipse
from qlag.errors import CrossCheckFailed
from qlag.pipeline import InstanceConfig, report_passed, run_analyze

ELLIPSE = {
    "n": 2,
    "k": 1,
    "rows": [[1], [2]],
    "constants": [1.0],
    "samples": 40,
    "seed": 0,
    "curvature_samples": 4,
}


def test_frame_gram_mismatch_is_recorded(monkeypatch):
    closed_form = qlag.immersion.torus_metric
    monkeypatch.setattr(
        qlag.immersion, "torus_metric", lambda system, u: closed_form(system, u) + 1e-6
    )
    with pytest.raises(CrossCheckFailed):
        qlag.immersion.frame_at(ellipse(), [[1.0, 0.0]], [[0.0]])
    report = run_analyze(InstanceConfig.from_dict(dict(ELLIPSE, sweeps={"cn": True})))
    for key in ("lagrangian_defect", "frame_cross_block", "torus_metric_form"):
        entry = report["cn"][key]
        assert entry["pass"] is False
        assert entry["error"].startswith("CrossCheckFailed")


def test_orbit_leaving_the_image_is_recorded(monkeypatch):
    signs, shifts = qlag.quotient.action_table(ellipse().exponents)
    monkeypatch.setattr(qlag.quotient, "action_table", lambda exponents: (-signs, shifts))
    report = run_analyze(
        InstanceConfig.from_dict(dict(ELLIPSE, sweeps={"quotient": True}))
    )
    entry = report["quotient"]["orbit_distinctness"]
    assert entry["pass"] is False
    assert entry["error"].startswith("CrossCheckFailed")
    assert "topology" in report["quotient"]


def _fail(*args, **kwargs):
    raise CrossCheckFailed("injected")


@pytest.mark.parametrize(
    "patched, key",
    [("orientation_character", "orientation_characters"), ("classify_quotient", "topology")],
)
def test_failing_quotient_entry_is_recorded(monkeypatch, patched, key):
    monkeypatch.setattr(qlag.pipeline, patched, _fail)
    report = run_analyze(
        InstanceConfig.from_dict(dict(ELLIPSE, sweeps={"quotient": True}))
    )
    entry = report["quotient"][key]
    assert entry == {"error": "CrossCheckFailed: injected", "pass": False}
    assert report["quotient"]["self_intersections"]["pass"] is True
    assert not report_passed(report)
