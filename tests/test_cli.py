"""End-to-end CLI behavior: reports, determinism, exit codes, meshes."""

import errno
import glob
import json
import os

import numpy as np
import pytest

from qlag.cli import main
from qlag.pipeline import InstanceConfig, run_analyze, serialize_report
from qlag.errors import ConfigInvalid

ELLIPSE = {
    "n": 2,
    "k": 1,
    "rows": [[1], [2]],
    "constants": [1.0],
    "samples": 60,
    "seed": 0,
    "curvature_samples": 6,
}

BALANCED_CONE = {
    "n": 3,
    "k": 2,
    "rows": [[1], [2], [-3]],
    "constants": [0.0],
    "samples": 40,
    "seed": 1,
    "curvature_samples": 4,
    "sweeps": {"cn": True, "cpn": True, "quotient": True},
}


def _write(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_analyze_passes_and_is_deterministic(tmp_path, capsys):
    cfg = _write(tmp_path, ELLIPSE)
    assert main(["analyze", cfg]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", cfg]) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["quotient"]["topology"]["kind"] == "KleinBottle"
    assert report["cn"]["lagrangian_defect"]["pass"] is True
    assert report["minimality"]["is_zero"] is False


CONFIGS = sorted(
    glob.glob(os.path.join(os.path.dirname(__file__), os.pardir, "configs", "*.json"))
)


def test_configs_are_shipped():
    assert CONFIGS


@pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
def test_shipped_config_analyzes_and_reruns_identically(path, capsys):
    assert main(["analyze", path]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", path]) == 0
    assert capsys.readouterr().out == first


def test_tol_fd_step_reaches_projective_oracle(tmp_path, capsys):
    cfg = _write(tmp_path, BALANCED_CONE)
    reports = []
    for extra in ([], ["--tol-fd-step", "1e-3"]):
        main(["verify-cpn", cfg] + extra)
        reports.append(json.loads(capsys.readouterr().out))
    default, coarse = (r["cpn"]["projective_minimal_curvature"]["max"] for r in reports)
    assert reports[1]["instance"]["numeric_tolerances"]["fd_step"] == 1e-3
    assert coarse > 10.0 * default


def test_tiny_fd_step_is_a_recorded_failure_not_a_warning(capsys, recwarn):
    # the step's square underflows to zero: the stencil divides by zero, and
    # the oracle records the degenerate metric without a numpy warning
    path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "ellipse.json")
    assert main(["verify-cn", path, "--tol-fd-step", "1e-200"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and not recwarn.list
    assert json.loads(captured.out)["cn"]["curvature_match"] == {
        "error": "ChartFailure: degenerate induced metric in the curvature oracle",
        "pass": False,
    }


def test_report_floats_have_17_significant_digits(tmp_path, capsys):
    cfg = _write(tmp_path, ELLIPSE)
    main(["analyze", cfg])
    out = capsys.readouterr().out
    assert "9.9999999999999998e-13" in out  # 1e-12 at 17 digits


def test_verify_cpn_on_cone(tmp_path, capsys):
    cfg = _write(tmp_path, BALANCED_CONE)
    assert main(["verify-cpn", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cpn"]["projective_minimal_curvature"]["pass"] is True
    assert "cn" not in report


def test_classify_subcommand(tmp_path, capsys):
    cfg = _write(tmp_path, BALANCED_CONE)
    assert main(["classify", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["quotient"]["topology"]["kind"] == "KleinBottle"


def test_scan_subcommand_reports_collisions(tmp_path, capsys):
    cfg = _write(tmp_path, dict(ELLIPSE, samples=200))
    assert main(["classify", cfg]) == 0
    report = json.loads(capsys.readouterr().out)
    section = report["quotient"]["self_intersections"]
    assert section["pairs"] > 0
    assert section["localized"] is True


def test_out_file_matches_stdout(tmp_path, capsys):
    cfg = _write(tmp_path, ELLIPSE)
    out_path = tmp_path / "report.json"
    assert main(["analyze", cfg, "--out", str(out_path)]) == 0
    stdout = capsys.readouterr().out
    assert out_path.read_text() == stdout


def test_config_error_exit_code(tmp_path, capsys):
    bad = dict(ELLIPSE, rows=[[1], [1]], n=2, k=0)  # wrong row length for k=0
    cfg = _write(tmp_path, bad)
    assert main(["analyze", cfg]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "patch, field",
    [
        ({"rows": 5}, "rows"),
        ({"rows": [["a"], [2]]}, "rows[0]"),
        ({"constants": ["x"]}, "constants"),
        ({"constants": [float("nan")]}, "constants"),
        ({"samples": 0}, "samples"),
        ({"samples": -3}, "samples"),
        ({"seed": -1}, "seed"),
        ({"tolerances": {"lagrangain": 1e-10}}, "tolerances.lagrangain"),
        ({"tolerances": [1e-10]}, "tolerances"),
        ({"mesh": {"target": "xyz"}}, "mesh.target"),
        ({"mesh": {"resolution": 5}}, "mesh.resolution"),
        ({"sweeps": 5}, "sweeps"),
        ({"sweeps": {"qoutient": True}}, "sweeps.qoutient"),
        ({"sweeps": ["cn", "cpm"]}, "sweeps[1]"),
        ({"sweeps": {"cn": "yes"}}, "sweeps.cn"),
        # misspelt keys, and the dropped alias d of constants, are unknown
        ({"sampels": 7}, "sampels"),
        ({"curvature_sample": 3}, "curvature_sample"),
        ({"mesh": {"resolutoin": [8, 4]}}, "mesh.resolutoin"),
        ({"d": [1.0]}, "d"),
        # a zero finite-difference step divides by zero
        ({"tolerances": {"fd_step": 0}}, "tolerances.fd_step"),
        # sweeps that check nothing on the instance: the report has no verdict
        ({"sweeps": {}}, "sweeps"),
        ({"sweeps": []}, "sweeps"),
        ({"sweeps": {"cn": False, "cpn": False, "quotient": False}}, "sweeps"),
        ({"sweeps": ["cpn"]}, "sweeps"),
    ],
    ids=lambda v: json.dumps(v) if isinstance(v, dict) else None,
)
def test_invalid_field_is_config_error(tmp_path, capsys, patch, field):
    cfg = _write(tmp_path, dict(ELLIPSE, **patch))
    assert main(["analyze", cfg]) == 2
    captured = capsys.readouterr()
    assert f"config error: {field}:" in captured.err
    assert captured.out == ""


def test_verify_cpn_on_a_non_cone_is_config_error(capsys):
    ellipse = next(path for path in CONFIGS if os.path.basename(path) == "ellipse.json")
    assert main(["verify-cpn", ellipse]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "config error: sweeps: the report checks nothing (sweeps run: cpn)"
    ]
    assert captured.out == ""


@pytest.mark.parametrize(
    "rows, constants, section, keys, reason",
    [
        ([[1], [-2]], [1.0], "cn", ("angle_harmonicity", "hamiltonian_variation"),
         "surface charts need a compact conic (ellipse)"),
        ([[1], [-2]], [0.0], "cn", ("angle_harmonicity", "hamiltonian_variation"),
         "surface charts need a compact conic (ellipse)"),
        ([[1], [-1], [0]], [0.0], "cpn", ("link_angle_harmonicity",),
         "cone must have signature (+,+,-) up to sign"),
    ],
    ids=["hyperbola", "line-pair cone", "planes cone"],
)
def test_missing_curve_chart_is_skipped(tmp_path, capsys, rows, constants, section, keys, reason):
    payload = dict(ELLIPSE, n=len(rows), k=len(rows) - 1, rows=rows, constants=constants,
                   samples=40, curvature_samples=4, sweeps=["cn", "cpn", "quotient"])
    assert main(["analyze", _write(tmp_path, payload)]) == 0
    report = json.loads(capsys.readouterr().out)
    for key in keys:
        assert report[section][key] == {"skipped": reason}


def test_rank_deficient_rows_named(tmp_path, capsys):
    bad = {"n": 3, "k": 1, "rows": [[1, 1], [2, 2], [3, 3]], "constants": [1.0, 0.0]}
    cfg = _write(tmp_path, bad)
    assert main(["analyze", cfg]) == 2
    assert "rows" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 2


def test_tolerance_override_forces_failure(tmp_path, capsys):
    cfg = _write(tmp_path, ELLIPSE)
    code = main(["analyze", cfg, "--tol-lagrangian", "1e-30"])
    out = capsys.readouterr().out
    assert code == 1
    report = json.loads(out)
    assert report["cn"]["lagrangian_defect"]["pass"] is False
    assert report["instance"]["verify_tolerances"]["lagrangian"] == 1e-30


def test_seed_override_changes_then_reproduces(tmp_path, capsys):
    cfg = _write(tmp_path, ELLIPSE)
    main(["analyze", cfg, "--seed", "5"])
    a = capsys.readouterr().out
    main(["analyze", cfg, "--seed", "5"])
    b = capsys.readouterr().out
    assert a == b
    assert json.loads(a)["instance"]["seed"] == 5


def test_mesh_subcommand_writes_obj(tmp_path, capsys):
    cfg = _write(tmp_path, dict(ELLIPSE, mesh={"resolution": [32, 16]}))
    out_path = tmp_path / "surface.obj"
    assert main(["mesh", cfg, "--out", str(out_path)]) == 0
    stdout = capsys.readouterr().out
    assert "euler_characteristic 0" in stdout
    assert out_path.exists()


def test_mesh_subcommand_projective_polyline(tmp_path, capsys):
    payload = {
        "n": 2, "k": 1, "rows": [[1], [-1]], "constants": [0.0],
        "mesh": {"resolution": [64, 64], "target": "cpn"},
    }
    cfg = _write(tmp_path, payload)
    out_path = tmp_path / "line.obj"
    assert main(["mesh", cfg, "--out", str(out_path)]) == 0
    assert out_path.exists()
    capsys.readouterr()


def test_mesh_subcommand_projective_cloud(tmp_path, capsys):
    payload = dict(BALANCED_CONE, mesh={"resolution": [16, 16], "target": "cpn"})
    cfg = _write(tmp_path, payload)
    out_path = tmp_path / "cloud.csv"
    assert main(["mesh", cfg, "--out", str(out_path)]) == 0
    assert out_path.exists()
    capsys.readouterr()


@pytest.mark.parametrize(
    "out, written",
    [
        ("out.v2/cloud", "out.v2/cloud.csv"),
        ("./cloud", "cloud.csv"),
        ("out.v2/cloud.obj", "out.v2/cloud.csv"),
        ("cloud.csv", "cloud.csv"),
    ],
)
def test_mesh_cloud_takes_csv_suffix_at_the_file_name(out, written, tmp_path, monkeypatch, capsys):
    payload = dict(BALANCED_CONE, mesh={"resolution": [8, 8], "target": "cpn"})
    cfg = _write(tmp_path, payload)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out.v2").mkdir()
    assert main(["mesh", cfg, "--out", out]) == 0
    expected = os.path.join(os.path.dirname(out), os.path.basename(written))
    assert capsys.readouterr().out == f"wrote {expected}\n"
    produced = sorted(
        os.path.relpath(os.path.join(root, name), tmp_path)
        for root, _, names in os.walk(tmp_path)
        for name in names
        if name != "config.json"
    )
    assert produced == [written]


def test_mesh_resolution_validation(tmp_path, capsys):
    payload = dict(ELLIPSE, mesh={"resolution": [0, 16]})
    cfg = _write(tmp_path, payload)
    assert main(["mesh", cfg]) == 2
    capsys.readouterr()


OUT_TARGETS = {
    "analyze": ("analyze", ELLIPSE),
    "surface": ("mesh", dict(ELLIPSE, mesh={"resolution": [16, 8]})),
    "cloud": ("mesh", dict(BALANCED_CONE, mesh={"resolution": [8, 8], "target": "cpn"})),
    "polyline": ("mesh", {"n": 2, "k": 1, "rows": [[1], [-1]], "constants": [0.0],
                          "mesh": {"resolution": [16, 16], "target": "cpn"}}),
}


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("target", OUT_TARGETS)
def test_unwritable_out_is_a_config_error(target, where, tmp_path, capsys):
    command, payload = OUT_TARGETS[target]
    cfg = _write(tmp_path, payload)
    taken = tmp_path / "taken.csv"  # a directory; the cloud keeps a .csv name
    taken.mkdir()
    out = str(tmp_path / "missing" / "x.csv") if where == "missing-directory" else str(taken)
    assert main([command, cfg, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"config error: --out: cannot write {out}: ")
    assert captured.err.count("\n") == 1


def test_failed_write_is_not_a_config_error(tmp_path, monkeypatch, capsys):
    # an OSError partway through a write (here a full disk) names no file,
    # so it is not reported as an unwritable --out
    from qlag import meshing

    def full_disk(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(meshing, "write_obj", full_disk)
    cfg = _write(tmp_path, OUT_TARGETS["surface"][1])
    with pytest.raises(OSError) as info:
        main(["mesh", cfg, "--out", str(tmp_path / "x.obj")])
    assert info.value.errno == errno.ENOSPC
    capsys.readouterr()


def test_run_analyze_errors_recorded_not_fatal():
    # a cpn sweep on a non-cone records a skip and the run still succeeds
    config = InstanceConfig.from_dict(dict(ELLIPSE, sweeps={"cpn": True}))
    report = run_analyze(config)
    assert "skipped" in report["cpn"]
    text = serialize_report(report)
    assert "skipped" in text


def test_instance_config_field_messages():
    with pytest.raises(ConfigInvalid) as err:
        InstanceConfig.from_dict({"n": 2, "k": 1, "rows": [[1]], "constants": [1.0]})
    assert any("rows" in m for m in err.value.messages)


def test_report_values_reproducible_from_module_calls():
    # a logged defect must be recomputable by running the module operation
    # with the parameters echoed in the report
    from qlag import lagrangian_defect, sample_immersion

    config = InstanceConfig.from_dict(ELLIPSE)
    report = run_analyze(config)
    system = config.system()
    U, Y = sample_immersion(system, report["instance"]["samples"],
                            seed=report["instance"]["seed"])
    direct = np.max(lagrangian_defect(system, U, Y))
    assert direct == report["cn"]["lagrangian_defect"]["max"]
