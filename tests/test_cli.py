"""End-to-end CLI behavior: reports, determinism, exit codes, meshes."""

import dataclasses
import errno
import glob
import json
import os

import numpy as np
import pytest

from qlag.cli import COMMANDS, TOL_FLAGS, main
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
# the one line an empty variety, or a cone that is its apex alone, prints
EMPTY_VARIETY = ("constants: the variety is empty: its moment polytope (for a cone, the "
                 "link's) has no vertex")


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


def _shipped(name):
    return next(path for path in CONFIGS if os.path.basename(path) == name)


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
        # beyond 2**53, where float64 E is no longer exact, and beyond int64
        # and float64
        ({"rows": [[10 ** 21], [2]]}, "rows[0]"),
        pytest.param({"rows": [[10 ** 400], [2]]}, "rows[0]", id="rows-10**400"),
        ({"constants": ["x"]}, "constants"),
        ({"constants": [float("nan")]}, "constants"),
        ({"samples": 0}, "samples"),
        ({"samples": -3}, "samples"),
        ({"seed": -1}, "seed"),
        ({"tolerances": {"lagrangain": 1e-10}}, "tolerances.lagrangain"),
        # the samplers' radius bound, gone with the rejection sampler
        ({"tolerances": {"r_max": 1e3}}, "tolerances.r_max"),
        # the SVD rank cut, gone with the SVD, and the Gauss-Newton step cap,
        # now the constant quadric.MAX_ITER
        ({"tolerances": {"rank": 1e-9}}, "tolerances.rank"),
        ({"tolerances": {"max_iter": 100}}, "tolerances.max_iter"),
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
    assert main(["verify-cpn", _shipped("ellipse.json")]) == 2
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


@pytest.mark.parametrize("key", TOL_FLAGS)
def test_every_tol_flag_sets_its_tolerance(key, tmp_path, capsys):
    cfg = _write(tmp_path, dict(ELLIPSE, sweeps=["quotient"]))
    main(["classify", cfg, f"--tol-{key.replace('_', '-')}", "0.375"])
    instance = json.loads(capsys.readouterr().out)["instance"]
    tolerances = {**instance["verify_tolerances"], **instance["numeric_tolerances"]}
    assert tolerances[key] == 0.375


@pytest.mark.parametrize("flag", ["--tol-rank", "--tol-max-iter"])
def test_removed_numeric_knob_flags_exit_2(flag, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", _write(tmp_path, ELLIPSE), flag, "1"])
    assert exc.value.code == 2


def test_options_may_come_before_the_command(tmp_path, capsys):
    cfg = _write(tmp_path, ELLIPSE)
    assert main(["analyze", cfg, "--seed", "5"]) == 0
    after = capsys.readouterr()
    assert main(["--seed", "5", "analyze", cfg]) == 0
    assert capsys.readouterr() == after


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    assert all(name in text for name in COMMANDS)


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


@pytest.mark.parametrize(
    "config, reason",
    [
        ("klein_cone.json", "mesh.target: surface meshes require n=2, k=1"),
        ({"n": 2, "k": 1, "rows": [[1], [-1]], "constants": [0.0]},
         "mesh.target: surface charts need a compact conic (ellipse)"),
        (dict(ELLIPSE, mesh={"target": "cpn"}),
         "mesh.target: constants (1.0,) are not all zero"),
        ({"n": 3, "k": 2, "rows": [[1], [1], [1]], "constants": [1.0],
          "mesh": {"target": "cpn"}}, "mesh.target: constants (1.0,) are not all zero"),
        ({"n": 3, "k": 1, "rows": [[1, 0], [0, 1], [-1, -1]], "constants": [0.0, 0.0],
          "mesh": {"target": "cpn"}},
         "mesh.target: link charts are built for n=3 single-equation cones"),
        # the cone u1^2 + u2^2 = 0 is its apex alone, which is found first
        ({"n": 2, "k": 1, "rows": [[1], [1]], "constants": [0.0],
          "mesh": {"target": "cpn"}}, EMPTY_VARIETY),
    ],
    ids=["klein-cone-cn", "line-pair-cone-cn", "ellipse-cpn", "ellipsoid-cpn",
         "clifford-cone-3-cpn", "point-cone-cpn"],
)
def test_mesh_of_an_unmeshable_instance_is_a_config_error(config, reason, tmp_path, capsys):
    # mesh checks nothing, so an instance it cannot mesh is not a failed check
    cfg = _shipped(config) if isinstance(config, str) else _write(tmp_path, config)
    out = tmp_path / "out"
    out.mkdir()
    assert main(["mesh", cfg, "--out", str(out / "m.obj")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"config error: {reason}"]
    assert not any(out.iterdir())


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


@pytest.mark.parametrize(
    "config, failed",
    [
        # a floor above every point of the ellipse, where min(|u1|, |u2|) is
        # at most 1/sqrt(3): every entry that reads a sample fails, the
        # curvature subsample's at the same floor, which is above its cap
        ({"n": 2, "k": 1, "rows": [[1], [2]], "constants": [1.0], "samples": 2,
          "tolerances": {"u_floor": 0.8}, "sweeps": {"cn": True}},
         dict.fromkeys(["lagrangian_defect", "frame_cross_block", "torus_metric_form",
                        "curvature_match"],
                       "no point of the moment polytope has every v_i > 0.8^2")),
        # floors whose square, times a row sum, is beyond float64: the
        # moment polytope is enumerated exactly all the same
        *[({"n": 2, "k": 1, "rows": [[1], [2]], "constants": [1.0], "samples": 2,
            "tolerances": {"u_floor": floor}, "sweeps": {"cn": True}},
           dict.fromkeys(["lagrangian_defect", "frame_cross_block", "torus_metric_form",
                          "curvature_match"],
                         f"no point of the moment polytope has every v_i > {floor}^2"))
          for floor in (1e154, 1e300)],
        # the hyperbola u1^2 - 2 u2^2 = 1, whose cut moment polytope has a
        # ray and an exact vertex beyond float64 at these floors
        *[({"n": 2, "k": 1, "rows": [[1], [-2]], "constants": [1.0], "samples": 2,
            "tolerances": {"u_floor": floor}, "sweeps": {"cn": True}},
           dict.fromkeys(["lagrangian_defect", "frame_cross_block", "torus_metric_form",
                          "curvature_match"],
                         f"the moment polytope cut at {floor}^2 is beyond float64"))
          for floor in (1e155, 1e300)],
    ],
    ids=["unreachable-floor", "floor-1e154", "floor-1e300", "hyperbola-floor-1e155",
         "hyperbola-floor-1e300"],
)
def test_failed_draw_is_a_recorded_failure(config, failed, tmp_path, capsys, monkeypatch):
    from qlag import pipeline, quadric

    draws, cuts = [], []

    def counted(*args, original=pipeline.sample_immersion, **kwargs):
        draws.append((args[1], kwargs.get("u_floor")))
        return original(*args, **kwargs)

    def tabled(rows, rhs, original=quadric.basis_table):
        cut = original(rows, rhs)

        def counted_cut(floor):
            cuts.append((len(rows), floor))
            return cut(floor)

        return counted_cut

    monkeypatch.setattr(pipeline, "sample_immersion", counted)
    monkeypatch.setattr(quadric, "basis_table", tabled)
    assert main(["analyze", _write(tmp_path, config)]) == 1
    report = json.loads(capsys.readouterr().out)
    for key, entry in report["cn"].items():
        if key in failed:
            assert entry["pass"] is False
            assert entry["error"] == f"SamplingExhausted: {failed[key]}"
        else:
            assert "error" not in entry
    # each draw runs once, however many entries read it: the main draw at
    # the system's floor and the curvature subsample, drawn on its own, at
    # that floor too, which reads the one cut of P's table at that floor
    floor = config["tolerances"]["u_floor"]
    assert draws == [(config["samples"], None), (config["samples"], floor)]
    assert len(cuts) == len(set(cuts))


# [-1.0]: u1^2 + 2 u2^2 = -1 has no point; [0.0]: the cone u1^2 + 2 u2^2 = 0
# is its apex alone
@pytest.mark.parametrize("constants", [[-1.0], [0.0]], ids=["empty-variety", "apex-cone"])
@pytest.mark.parametrize("command", ["analyze", "classify", "mesh"])
def test_empty_variety_is_a_config_error(command, constants, tmp_path, capsys, monkeypatch):
    # decided from the moment polytope before any command runs: nothing is
    # sampled, projected or written
    from qlag import immersion, projective, quadric

    def refuse(*args, **kwargs):
        raise AssertionError("an empty variety is not sampled")

    monkeypatch.setattr(quadric, "_draw", refuse)
    # the names the charts call: patching quadric.newton_project reaches
    # neither
    monkeypatch.setattr(immersion, "newton_project", refuse)
    monkeypatch.setattr(projective, "newton_project", refuse)
    config = {"n": 2, "k": 1, "rows": [[1], [2]], "constants": constants}
    out = tmp_path / "out"
    out.mkdir()
    assert main([command, _write(tmp_path, config), "--out", str(out / "m.obj")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"config error: {EMPTY_VARIETY}"]
    assert not any(out.iterdir())


def test_moment_polytope_beyond_float64_is_an_error_line(tmp_path, capsys):
    # v1 + v3 = d1, v2 - v3 = d2 at d = 1.7e308 has the vertex (0, 3.4e308,
    # 1.7e308): the variety is not empty, but no sampler can draw from it
    config = {"n": 3, "k": 1, "rows": [[1, 0], [0, 1], [1, -1]],
              "constants": [1.7e308, 1.7e308], "samples": 20}
    assert main(["analyze", _write(tmp_path, config)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: SamplingExhausted: the moment polytope cut at 0.0^2 is beyond float64"]


@pytest.mark.parametrize("constant", [1e300, 1e200, 1e-200, 1e-300])
def test_non_finite_check_value_is_a_recorded_error(constant, tmp_path, capsys):
    # the chart metric's determinant overflows or underflows, so the
    # harmonicity defect is NaN: the entry records an error and the report
    # is still written.  Where it overflows every variation quadrature is
    # NaN too, an error and not a pass at 0.0
    config = {"n": 2, "k": 1, "rows": [[1], [2]], "constants": [constant],
              "sweeps": {"cn": True}}
    with pytest.warns(RuntimeWarning, match="encountered in"):
        assert main(["analyze", _write(tmp_path, config)]) == 1
    cn = json.loads(capsys.readouterr().out)["cn"]
    error = {"error": "QlagError: the check gave a non-finite value", "pass": False}
    assert cn["angle_harmonicity"] == error
    assert (cn["hamiltonian_variation"] == error) == (constant > 1.0)


def test_thin_ellipse_curvature_subsample_follows_the_variety(tmp_path, capsys):
    # every point has a coordinate below the semi-axis 1/sqrt(200) < 0.1, so
    # the subsample's floor comes down to sqrt(min_i c_i) / 2 = 0.025, c =
    # (1/2, 1/400) the mean of the moment polytope's two vertices
    config = {"n": 2, "k": 1, "rows": [[1], [200]], "constants": [1.0], "samples": 50}
    assert main(["analyze", _write(tmp_path, config)]) == 0
    entry = json.loads(capsys.readouterr().out)["cn"]["curvature_match"]
    assert entry["pass"] is True and entry["count"] == 20


@pytest.mark.parametrize("w", [200, 400, 1000])
@pytest.mark.parametrize("constants", [[1.0], [0.0]], ids=["ellipse", "cone"])
def test_thin_varieties_are_drawn_by_every_sweep(constants, w, tmp_path, capsys):
    # |u2| is at most 1/sqrt(w) on the ellipse u1^2 + w u2^2 = 1 and
    # 1/sqrt(w + 1) on the link of the cone u1^2 + w u2^2 = u3^2: below the
    # subsamples' cap of 0.1 and, from w = 400, the projective draw's 0.05,
    # so those draws come down to a floor read off the moment polytope.
    # The thinnest may still fail a curvature check
    rows = [[1], [w]] if constants == [1.0] else [[1], [w], [-1]]
    config = {"n": len(rows), "k": len(rows) - 1, "rows": rows, "constants": constants,
              "samples": 120, "sweeps": {"cn": True, "cpn": True, "quotient": True}}
    assert main(["analyze", _write(tmp_path, config)]) in (0, 1)
    report = json.loads(capsys.readouterr().out)
    errors = [entry.get("error", "") for section in ("cn", "cpn", "quotient")
              for entry in report[section].values() if isinstance(entry, dict)]
    assert errors and not any("SamplingExhausted" in e for e in errors)


@pytest.mark.parametrize("flags", [[], ["--tol-lagrangian", "1e-3"]])
def test_tolerances_not_an_object_is_reported_with_the_other_errors(flags, tmp_path, capsys):
    # from_dict is the one validator of the tolerances object; the CLI only
    # merges --tol-* flags into one that is an object
    cfg = _write(tmp_path, dict(ELLIPSE, samples=0, tolerances=[1e-10]))
    assert main(["analyze", cfg, *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "config error: samples: must be an integer >= 1",
        "config error: tolerances: must be an object",
    ]


@pytest.mark.parametrize("entry", [1e308, 1e200])
def test_huge_projection_entry_is_a_config_error(entry, tmp_path, capsys, monkeypatch):
    # the Gram product of such a row overflows; the entry is rejected before
    # it, and before a mesh is built
    from qlag import meshing

    def no_mesh(*args):
        raise AssertionError("a mesh was built for an invalid projection")

    monkeypatch.setattr(meshing, "build_surface_mesh", no_mesh)
    projection = [[entry, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]]
    cfg = _write(tmp_path, dict(ELLIPSE, mesh={"projection": projection}))
    out = tmp_path / "m.obj"
    assert main(["mesh", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["config error: projection rows must be orthonormal"]
    assert not out.exists()


def test_library_defaults_equal_config_defaults():
    parsed = InstanceConfig.from_dict({"n": 2, "k": 1, "rows": [[1], [2]], "constants": [1.0]})
    direct = InstanceConfig(2, 1, ((1,), (2,)), (1.0,))
    for f in dataclasses.fields(InstanceConfig):
        value, default = getattr(parsed, f.name), getattr(direct, f.name)
        assert (type(value), value) == (type(default), default), f.name


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
