"""Projective side: sphere normalization, fiber collapse, horizontality,
submersion identities, and the projective curvature oracle."""

from dataclasses import replace

import numpy as np
import pytest

import qlag.projective as projective
from qlag import (
    ApexPoint,
    NotACone,
    projective_lagrangian_defect,
    projective_mean_curvature,
    submersion_isometry_defect,
)
from qlag.catalog import clifford_cone, ellipse, klein_bottle_cone, weighted_cone
from qlag.immersion import sample_immersion
from qlag.projective import (
    affine_chart_index,
    fiber_phase_shifts,
    link_tangent_frame,
    projective_angle,
    projective_angle_fiber_defect,
    to_affine_chart,
)
from qlag.pipeline import InstanceConfig, report_passed, run_analyze
from qlag.quadric import orthonormalize, sample_points


def _random_sphere_point(rng, n):
    p = rng.normal(size=n) + 1j * rng.normal(size=n)
    return p / np.linalg.norm(p)


def _horizontal(p, rows, cut=0.0):
    """(frame, rank) of rows orthonormalized off the fiber directions p and
    i p at the sphere point p, so every row kept is horizontal."""
    p = np.asarray(p, dtype=complex)
    rows = np.asarray(rows, dtype=complex).reshape(1, -1, len(p))
    frame, kept = orthonormalize(rows, cut=cut, against=np.array([[p, 1j * p]]))
    return frame[0, : kept[0]], kept[0]


def _random_horizontal_frame(rng, p, count):
    n = len(p)
    return _horizontal(p, [rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(count)])[0]


# -- sphere normalization -------------------------------------------------------


def _sphere_point(cone, u, y):
    """The link frame's sphere points: the images of the rows u / |u|."""
    return link_tangent_frame(cone, u, y)[0]


def test_cone_to_sphere_scaling_invariance():
    cone = klein_bottle_cone()
    u = np.array([[1.0, 1.0, 1.0]])
    y = [[0.4]]
    base = _sphere_point(cone, u, y)
    assert np.linalg.norm(base) == pytest.approx(1.0)
    assert np.allclose(_sphere_point(cone, 7.3 * u, y), base)
    assert np.allclose(cone.residual(7.3 * u), 0.0)


def test_cone_to_sphere_unit_input_unchanged():
    cone = klein_bottle_cone()
    u = np.array([[1.0, 1.0, 1.0]]) / np.sqrt(3.0)
    z = _sphere_point(cone, u, [[0.0]])
    assert np.allclose(z, u)


def test_cone_to_sphere_guards():
    with pytest.raises(NotACone):
        _sphere_point(ellipse(), [[1.0, 0.0]], [[0.0]])
    with pytest.raises(ApexPoint):
        _sphere_point(klein_bottle_cone(), [[0.0, 0.0, 0.0]], [[0.0]])


# -- fiber collapse: a fiber is one point of each affine chart ----------------------


def test_hopf_basepoint_normal_form():
    p = np.array([[1.0, 0.0, 0.0]])
    assert affine_chart_index(p).tolist() == [0]
    assert np.array_equal(to_affine_chart(p, 0), [[0.0, 0.0]])


def test_hopf_fiber_invariance_random_phases():
    rng = np.random.default_rng(0)
    p = _random_sphere_point(rng, 3)[None]
    chart = affine_chart_index(p)
    base = to_affine_chart(p, chart)
    fiber = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=(100, 1))) * p
    assert np.max(np.abs(to_affine_chart(fiber, chart[0]) - base)) <= 1e-10


def test_hopf_clifford_equator():
    # |z_1| = |z_2| on the link: the chart point has modulus 1
    cone = clifford_cone(2)
    pts = sample_points(cone, 20, seed=1)
    w = to_affine_chart(_sphere_point(cone, pts, np.full((20, 1), 0.3)), 0)
    assert np.max(np.abs(np.abs(w[:, 0]) - 1.0)) <= 1e-10


# -- horizontality ----------------------------------------------------------------


def test_horizontal_kills_fiber_direction():
    rng = np.random.default_rng(2)
    p = _random_sphere_point(rng, 4)
    assert _horizontal(p, [1j * p], cut=1e-14)[1] == 0


def test_horizontal_projection_idempotent():
    rng = np.random.default_rng(3)
    p = _random_sphere_point(rng, 3)
    xi, _ = _horizontal(p, rng.normal(size=3) + 1j * rng.normal(size=3))
    again, _ = _horizontal(p, xi)
    assert np.max(np.abs(again - xi)) <= 1e-14


def test_horizontal_output_is_horizontal():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = _random_sphere_point(rng, 3)
        xi, _ = _horizontal(p, rng.normal(size=3) + 1j * rng.normal(size=3))
        herm = np.sum(xi * np.conjugate(p))
        assert abs(herm) <= 1e-12  # both real pairings vanish


def test_horizontal_rank_drop_is_two():
    # projection annihilates exactly span{p, ip}
    rng = np.random.default_rng(5)
    p = _random_sphere_point(rng, 3)
    basis = np.eye(6)  # real basis of C^3
    assert _horizontal(p, basis[:, :3] + 1j * basis[:, 3:], cut=1e-10)[1] == 4


# -- submersion identities ---------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_submersion_isometry_random_frames(n):
    rng = np.random.default_rng(6 + n)
    P, frames = [], []
    for _ in range(100):
        P.append(_random_sphere_point(rng, n))
        frames.append(_random_horizontal_frame(rng, P[-1], n - 1))
    defects = submersion_isometry_defect(np.array(P), np.array(frames))
    assert defects.shape == (100,) and np.max(defects) <= 1e-8


def test_submersion_fiber_frame_negative_control():
    rng = np.random.default_rng(9)
    p = _random_sphere_point(rng, 3)
    assert submersion_isometry_defect([p], [[1j * p]]) > 0.1


def test_submersion_zero_frame():
    rng = np.random.default_rng(10)
    p = _random_sphere_point(rng, 3)
    assert submersion_isometry_defect([p], np.zeros((1, 0, 3))).tolist() == [0.0]


# -- projective Lagrangian property -------------------------------------------------


def test_projective_defect_balanced_cone():
    cone = klein_bottle_cone()
    U, Y = sample_immersion(cone, 200, seed=11, u_floor=0.05)
    assert projective_lagrangian_defect(cone, U, Y) <= 1e-8


def test_projective_defect_weighted_cone():
    cone = weighted_cone([1, 1, 2])
    U, Y = sample_immersion(cone, 150, seed=12, u_floor=0.05)
    assert projective_lagrangian_defect(cone, U, Y) <= 1e-8


def test_projective_defect_trivial_in_cp1():
    cone = clifford_cone(2)
    U, Y = sample_immersion(cone, 20, seed=13)
    assert projective_lagrangian_defect(cone, U, Y) <= 1e-12


def test_link_frames_are_horizontal():
    cone = klein_bottle_cone()
    U, Y = sample_immersion(cone, 30, seed=14, u_floor=0.05)
    p, frame = link_tangent_frame(cone, U, Y)
    assert np.max(np.abs(np.sum(frame * np.conjugate(p[:, None, :]), axis=-1))) <= 1e-10


# -- projective angle ----------------------------------------------------------------


def test_projective_angle_constant_for_balanced_cone():
    cone = klein_bottle_cone()
    values = set(projective_angle(cone, [[0.0], [0.3], [1.7]]).tolist())
    assert len(values) == 1


def test_projective_angle_matches_ambient_angle():
    from qlag import lagrangian_angle

    cone = weighted_cone([1, 1, 3])
    _, Y = sample_immersion(cone, 20, seed=15)
    assert np.array_equal(projective_angle(cone, Y), lagrangian_angle(cone, Y))


def test_projective_angle_guard():
    with pytest.raises(NotACone):
        projective_angle(ellipse(), [[0.0]])


def test_fiber_shifts_and_invariance():
    # the two-coordinate equal-modulus cone has an all-odd representative
    cone2 = clifford_cone(2)
    assert len(fiber_phase_shifts(cone2)) == 1
    assert projective_angle_fiber_defect(cone2, [[0.37]]) <= 1e-12
    # balanced cone: no all-odd representative, constant angle anyway
    cone = klein_bottle_cone()
    assert projective_angle_fiber_defect(cone, [[0.37]]) <= 1e-12


def _cpn_analyze(system):
    config = InstanceConfig.from_dict({
        "n": system.n,
        "k": system.k,
        "rows": [list(r) for r in system.exponents.rows],
        "constants": list(system.constants),
        "samples": 60,
        "sweeps": {"cpn": True},
    })
    return run_analyze(config)


def test_fiber_invariance_mod_pi_for_odd_n():
    # z -> -z moves the angle by pi * (e, gamma), odd for odd n: the angle
    # on CP^2 is defined mod pi, so a half turn is no defect
    cone = weighted_cone([1, 1, 3])
    assert len(fiber_phase_shifts(cone)) == 1 and cone.n == 3
    report = _cpn_analyze(cone)
    assert report["cpn"]["angle_fiber_invariance"]["pass"]
    assert report_passed(report)


@pytest.mark.parametrize(
    "weights, turn", [([1, 1, 3], np.pi / 2), ([1, 1, 1, 1], np.pi)], ids=["n3", "n4"]
)
def test_fiber_invariance_catches_half_shifts(weights, turn, monkeypatch):
    # negative control: half of each shift moves the angle by pi*(e, gamma)/2,
    # a quarter turn mod pi for n = 3 and a half turn mod 2*pi for n = 4
    real = projective.fiber_phase_shifts
    monkeypatch.setattr(projective, "fiber_phase_shifts", lambda system: real(system) / 2)
    entry = _cpn_analyze(weighted_cone(weights))["cpn"]["angle_fiber_invariance"]
    assert not entry["pass"]
    assert entry["max"] == pytest.approx(turn, abs=1e-9)


# -- projective curvature oracle ------------------------------------------------------


def test_projective_curvature_small_for_balanced_cone():
    cone = klein_bottle_cone()
    U, Y = sample_immersion(cone, 15, seed=16, u_floor=0.1)
    assert np.max(projective_mean_curvature(cone, U, Y)[1]) <= 1e-3


def test_projective_curvature_small_for_matched_weights():
    cone = weighted_cone([1, 1, 2])
    U, Y = sample_immersion(cone, 15, seed=17, u_floor=0.1)
    assert np.max(projective_mean_curvature(cone, U, Y)[1]) <= 1e-3


def test_fs_metric_matrix_matches_pairwise_hermitian_form():
    from qlag.projective import fs_hermitian, fs_metric_matrix

    def reference(w_real):
        # the per-pair construction: the Hermitian form on real basis vectors
        half = len(w_real) // 2
        w = w_real[:half] + 1j * w_real[half:]
        basis = np.eye(len(w_real))
        g = np.zeros((len(w_real), len(w_real)))
        for a in range(len(w_real)):
            va = basis[a][:half] + 1j * basis[a][half:]
            for b in range(len(w_real)):
                vb = basis[b][:half] + 1j * basis[b][half:]
                g[a, b] = np.real(fs_hermitian(w, va, vb))
        return g

    rng = np.random.default_rng(21)
    for half in (1, 2, 4):
        points = rng.normal(size=(3, 5, 2 * half))
        batch = fs_metric_matrix(points)
        assert batch.shape == (3, 5, 2 * half, 2 * half)
        for idx in np.ndindex(3, 5):
            expected = reference(points[idx])
            assert np.max(np.abs(batch[idx] - expected)) <= 1e-15
            assert np.array_equal(fs_metric_matrix(points[idx]), batch[idx])


def test_projective_oracle_step_is_fd_step_tolerance(monkeypatch):
    import qlag.numdiff
    from qlag.quadric import QuadricSystem

    steps = []
    original = qlag.numdiff.christoffel_symbols

    def recorded(metric, x, step):
        steps.append(step)
        return original(metric, x, step)

    monkeypatch.setattr(qlag.numdiff, "christoffel_symbols", recorded)
    cone = klein_bottle_cone()
    coarse = QuadricSystem(cone.exponents, cone.constants, replace(cone.tolerances, fd_step=1e-3))
    U, Y = sample_immersion(cone, 2, seed=19, u_floor=0.1)
    u, y = U[:1], Y[:1]
    norm = projective_mean_curvature(coarse, u, y)[1]
    # both the chart stencil and the Christoffel symbols take the step
    assert norm > 10.0 * projective_mean_curvature(cone, u, y)[1]
    assert steps == [1e-3, 1e-5]


def test_projective_curvature_nonzero_for_unmatched_weights():
    cone = weighted_cone([1, 1, 3])
    U, Y = sample_immersion(cone, 15, seed=18, u_floor=0.1)
    assert np.min(projective_mean_curvature(cone, U, Y)[1]) > 1e-2


# -- link frame rank cut ---------------------------------------------------------


def test_link_frame_near_apex_keeps_rank():
    # samples 29 and 288 sit at |u| ~ 0.09: normalizing to the sphere scales
    # the Newton residual by 1/|u|^2, and the collapsed frame row keeps ~1e-10
    cone = clifford_cone(3)
    U, Y = sample_immersion(cone, 300, seed=5, u_floor=0.05)
    for i in (29, 288):
        assert np.linalg.norm(U[i]) < 0.1
        p, frame = link_tangent_frame(cone, U[i:i + 1], Y[i:i + 1])
        assert frame.shape == (1, 2, 3)
        assert projective_lagrangian_defect(cone, U[i:i + 1], Y[i:i + 1]) <= 1e-8
    assert projective_lagrangian_defect(cone, U, Y) <= 1e-8


def test_link_frame_truly_rank_deficient_raises(monkeypatch):
    import qlag.projective as projective
    from qlag.errors import ChartFailure

    real_frame_at = projective.frame_at

    def duplicated_torus_rows(system, u, y):
        fb = real_frame_at(system, u, y)
        k = system.k
        torus = np.repeat(fb.rows[..., k:k + 1, :], system.codim, axis=-2)
        return type(fb)(np.concatenate([fb.rows[..., :k, :], torus], axis=-2), fb.metric_y)

    monkeypatch.setattr(projective, "frame_at", duplicated_torus_rows)
    cone = clifford_cone(3)
    U, Y = sample_immersion(cone, 300, seed=5, u_floor=0.05)
    with pytest.raises(ChartFailure, match="rank 1, expected 2 at sample 0"):
        link_tangent_frame(cone, U[29:30], Y[29:30])
    with pytest.raises(ChartFailure, match="rank 1, expected 2 at sample 0"):
        link_tangent_frame(cone, U, Y)
