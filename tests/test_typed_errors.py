"""A failed internal cross-check becomes a recorded pass: false entry in the
report instead of an exception that aborts analyze."""

import pytest

import qlag.immersion
import qlag.quotient
from qlag.catalog import ellipse
from qlag.errors import CrossCheckFailed
from qlag.pipeline import InstanceConfig, run_analyze

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
        qlag.immersion.frame_at(ellipse(), [1.0, 0.0], [0.0])
    report = run_analyze(InstanceConfig.from_dict(dict(ELLIPSE, sweeps={"cn": True})))
    for key in ("lagrangian_defect", "frame_cross_block", "torus_metric_form"):
        entry = report["cn"][key]
        assert entry["pass"] is False
        assert entry["error"].startswith("CrossCheckFailed")


def test_orbit_leaving_the_image_is_recorded(monkeypatch):
    exact = qlag.quotient.gamma_signs
    monkeypatch.setattr(
        qlag.quotient, "gamma_signs", lambda exponents, gamma: -exact(exponents, gamma)
    )
    report = run_analyze(
        InstanceConfig.from_dict(dict(ELLIPSE, sweeps={"quotient": True}))
    )
    entry = report["quotient"]["orbit_distinctness"]
    assert entry["pass"] is False
    assert entry["error"].startswith("CrossCheckFailed")
    assert "topology" in report["quotient"]
