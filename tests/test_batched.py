"""Batched (N, n) geometry: every batched call equals the single-point
calls on its rows bit for bit, and the masked sampler reproduces the
per-point accept loop."""

import numpy as np
import pytest

from qlag.catalog import (
    clifford_cone,
    ellipse,
    ellipsoid,
    klein_bottle_cone,
    product_torus,
    sphere_cone,
)
from qlag.errors import SamplingExhausted, SingularPoint
from qlag.immersion import frame_at, lagrangian_defect, sample_immersion, torus_metric
from qlag.projective import link_tangent_frame, projective_lagrangian_defect
from qlag.quadric import QuadricSystem, newton_project_batch, sample_points

SYSTEMS = {
    "ellipse": ellipse,
    "ellipsoid([1,2,3])": lambda: ellipsoid([1, 2, 3]),
    "sphere_cone(5)": lambda: sphere_cone(5),
    "klein_bottle_cone": klein_bottle_cone,
    "clifford_cone(5)": lambda: clifford_cone(5),
    "product_torus([1,2,3])": lambda: product_torus([1, 2, 3]),
}

FRAME_FIELDS = ("variety", "torus", "metric_x", "metric_y", "cross")


def _assert_rows_equal(system, U, Y):
    batch = frame_at(system, U, Y)
    assert np.array_equal(
        system.tangent_basis(U), np.array([system.tangent_basis(u) for u in U])
    )
    for i, (u, y) in enumerate(zip(U, Y)):
        single = frame_at(system, u, y)
        for name in FRAME_FIELDS:
            assert np.array_equal(getattr(batch, name)[i], getattr(single, name)), name
        assert batch.cross_defect()[i] == single.cross_defect()
    assert np.array_equal(
        lagrangian_defect(system, U, Y),
        [lagrangian_defect(system, u, y) for u, y in zip(U, Y)],
    )
    assert np.array_equal(torus_metric(system, U), [torus_metric(system, u) for u in U])


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_batched_frames_equal_single_point_calls(name):
    system = SYSTEMS[name]()
    U, Y = sample_immersion(system, 40, seed=21)
    _assert_rows_equal(system, U, Y)
    if system.is_cone():
        U, Y = sample_immersion(system, 40, seed=22, u_floor=0.05)
        per_row = max(projective_lagrangian_defect(system, u[None], y[None])
                      for u, y in zip(U, Y))
        assert projective_lagrangian_defect(system, U, Y) == per_row
        assert projective_lagrangian_defect(system, zip(U, Y)) == per_row
        p, frames = link_tangent_frame(system, U, Y)
        for i, (u, y) in enumerate(zip(U, Y)):
            p1, frame1 = link_tangent_frame(system, u, y)
            assert np.array_equal(p[i], p1) and np.array_equal(frames[i], frame1)


def test_batch_mixing_seed_skip_paths():
    # at [1, 0] the first seed e_1 is the normal direction and is dropped;
    # at a generic point it is kept
    system = ellipse()
    generic = np.array([np.cos(0.7), np.sin(0.7) / np.sqrt(2.0)])
    U = np.array([[1.0, 0.0], generic, [0.0, 1.0 / np.sqrt(2.0)]])
    Y = np.array([[0.3], [1.1], [0.2]])
    basis = system.tangent_basis(U)
    assert np.allclose(basis[0], [[0.0, 1.0]])
    assert np.allclose(basis[2], [[1.0, 0.0]])
    _assert_rows_equal(system, U, Y)


def test_batch_with_singular_sample_names_it():
    cone = klein_bottle_cone()
    U = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, -1.0, 1.0]])
    with pytest.raises(SingularPoint, match="sample 1"):
        cone.tangent_basis(U)
    with pytest.raises(SingularPoint):
        frame_at(cone, U, np.zeros((3, 1)))


def test_batch_rank_and_smoothness_shapes():
    system = ellipse()
    U = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert system.smoothness_rank(U).tolist() == [1, 0]
    assert system.is_smooth_point(U).tolist() == [True, False]
    assert isinstance(system.smoothness_rank(U[0]), int)


# -- the masked sampler against the per-point accept loop ----------------------------


def _reference_sample(system, count, seed=0, u_floor=None):
    """The per-point accept loop over newton_project_batch output."""
    tol = system.tolerances
    floor = tol.u_floor if u_floor is None else u_floor
    rng = np.random.default_rng(seed)
    accepted = []
    attempts = 0
    rejected = {"diverged": 0, "near_axis": 0, "unbounded": 0, "singular": 0}
    cap = max(2000, 400 * count)
    batch = max(64, 2 * count)
    while len(accepted) < count:
        if attempts >= cap:
            raise SamplingExhausted(
                f"accepted {len(accepted)}/{count} after {attempts} draws "
                f"(rejections: {rejected})"
            )
        guesses = rng.normal(0.0, 1.0, size=(batch, system.n))
        attempts += batch
        points, ok = newton_project_batch(system, guesses)
        for p, good in zip(points, ok):
            if not good:
                rejected["diverged"] += 1
                continue
            if np.min(np.abs(p)) <= floor:
                rejected["near_axis"] += 1
                continue
            if np.linalg.norm(p) > tol.r_max:
                rejected["unbounded"] += 1
                continue
            if not system.is_smooth_point(p):
                rejected["singular"] += 1
                continue
            accepted.append(p)
            if len(accepted) == count:
                break
    return np.array(accepted)


@pytest.mark.parametrize(
    "name, count, seed, u_floor",
    [
        ("ellipse", 50, 0, None),
        ("ellipse", 7, 3, 0.5),
        ("klein_bottle_cone", 40, 1, 0.05),
        ("sphere_cone(5)", 30, 2, None),
        ("clifford_cone(5)", 25, 4, 0.1),
        ("ellipsoid([1,2,3])", 33, 5, 1e-6),
    ],
)
def test_sampler_matches_per_point_loop(name, count, seed, u_floor):
    system = SYSTEMS[name]()
    expected = _reference_sample(system, count, seed=seed, u_floor=u_floor)
    assert np.array_equal(sample_points(system, count, seed=seed, u_floor=u_floor), expected)


def test_sampler_exhaustion_reports_same_rejections():
    empty = QuadricSystem([[1], [2]], [-1.0])
    with pytest.raises(SamplingExhausted) as expected:
        _reference_sample(empty, 2, seed=0)
    with pytest.raises(SamplingExhausted) as got:
        sample_points(empty, 2, seed=0)
    assert str(got.value) == str(expected.value)
