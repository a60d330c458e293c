"""Variety-side checks: residuals, normals, tangent frames, projection and
sampling."""

import numpy as np
import pytest

from qlag import (
    NoConvergence,
    NotACone,
    QuadricSystem,
    SamplingExhausted,
    SingularJacobian,
    SingularPoint,
    newton_project,
    sample_points,
    with_unit_sphere,
)
from qlag.catalog import ellipse, ellipsoid, klein_bottle_cone, sphere_cone, weighted_cone
from qlag.quadric import (
    CONVERGED,
    NO_CONVERGENCE,
    SINGULAR,
    gauss_newton,
    require_cone,
    sample_stratum_points,
)


def test_residual_on_solution():
    assert np.allclose(ellipse().residual([1.0, 0.0]), [0.0])


def test_residual_at_origin():
    assert np.allclose(ellipse().residual([0.0, 0.0]), [-1.0])


def test_residual_balanced_cone():
    assert np.allclose(klein_bottle_cone().residual([1.0, 1.0, 1.0]), [0.0])


def test_normals_hand_values():
    sys1 = ellipse()
    assert np.allclose(sys1.normals([1.0, 0.0]), [[1.0, 0.0]])
    assert np.allclose(
        sys1.normals([0.0, 1.0 / np.sqrt(2)]), [[0.0, np.sqrt(2)]]
    )
    assert np.allclose(sys1.normals([0.0, 0.0]), [[0.0, 0.0]])


def test_normals_match_finite_difference_gradient():
    sys3 = sphere_cone(3)
    rng = np.random.default_rng(0)
    u = sample_points(sys3, 1, seed=4)[0]
    h = 1e-6
    for j in range(sys3.codim):
        grad = np.empty(3)
        for i in range(3):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            grad[i] = (sys3.residual(up)[j] - sys3.residual(um)[j]) / (2 * h)
        assert np.allclose(sys3.normals(u)[j], grad / 2.0, atol=1e-6)
    del rng


def test_smoothness_rank():
    sys1 = ellipse()
    assert sys1.smoothness_rank([[1.0, 0.0], [0.0, 0.0]]).tolist() == [1, 0]
    sys3 = sphere_cone(3)
    u = sample_points(sys3, 1, seed=1)
    assert sys3.smoothness_rank(u).tolist() == [2]
    # explicit feasible point (1,0,1)/sqrt(2): both normals independent
    explicit = np.array([[1.0, 0.0, 1.0]]) / np.sqrt(2.0)
    assert np.allclose(sys3.residual(explicit), 0.0)
    assert sys3.smoothness_rank(explicit).tolist() == [2]


def test_tangent_basis_hand_values():
    sys1 = ellipse()
    basis = sys1.tangent_basis([[1.0, 0.0], [0.0, 1.0 / np.sqrt(2)]])
    assert np.allclose(basis, [[[0.0, 1.0]], [[1.0, 0.0]]])


def test_tangent_basis_sphere_north_pole():
    sphere = ellipsoid([1, 1, 1, 1])
    basis = sphere.tangent_basis([[0.0, 0.0, 0.0, 1.0]])[0]
    assert basis.shape == (3, 4)
    assert np.allclose(basis[:, 3], 0.0)
    assert np.allclose(basis @ basis.T, np.eye(3), atol=1e-12)


def test_tangent_basis_orthogonal_to_normals():
    sys3 = sphere_cone(4)
    U = sample_points(sys3, 10, seed=2)
    T = sys3.tangent_basis(U)
    assert np.allclose(T @ np.swapaxes(T, 1, 2), np.eye(sys3.k), atol=1e-12)
    assert np.max(np.abs(T @ np.swapaxes(sys3.normals(U), 1, 2))) < 1e-12


def test_tangent_basis_singular_point():
    with pytest.raises(SingularPoint):
        klein_bottle_cone().tangent_basis([[0.0, 0.0, 0.0]])


def test_newton_exact_point_unchanged():
    u = np.array([[1.0, 0.0]])
    out = newton_project(ellipse(), u)
    assert np.array_equal(out, u)


def test_newton_converges_from_nearby():
    out = newton_project(ellipse(), [[1.1, 0.05]])[0]
    assert abs(out[0] ** 2 + 2 * out[1] ** 2 - 1.0) <= 1e-12


def test_newton_zero_guess_fails():
    with pytest.raises((SingularJacobian, NoConvergence)):
        newton_project(ellipse(), [[0.0, 0.0]])


def test_newton_batch_matches_scalar():
    sys3 = sphere_cone(3)
    rng = np.random.default_rng(3)
    guesses = rng.normal(size=(32, 3))
    pts, status = gauss_newton(sys3, guesses)
    ok = status == CONVERGED
    assert ok.sum() > 20
    assert np.max(np.abs(sys3.residual(pts[ok]))) <= 1e-12


def test_gauss_newton_statuses_and_raising_front_door():
    # on the hyperbola u1^2 - u2^2 = 1: an exact point, the zero guess, a
    # guess on the stratum u1 = 0, where the variety is empty, and a guess
    # whose step is not finite
    hyperbola = QuadricSystem([[1], [-1]], [1.0])
    guesses = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.5], [np.nan, 1.0]])
    points, status = gauss_newton(hyperbola, guesses)
    assert status.tolist() == [CONVERGED, SINGULAR, NO_CONVERGENCE, SINGULAR]
    assert np.array_equal(points[0], guesses[0])
    assert np.array_equal(newton_project(hyperbola, guesses[:1]), guesses[:1])
    with pytest.raises(SingularJacobian):
        newton_project(hyperbola, guesses[1:2])
    with pytest.raises(NoConvergence):
        newton_project(hyperbola, guesses[2:3])
    with pytest.raises(SingularJacobian, match="row 1"):
        newton_project(hyperbola, guesses)


def test_gauss_newton_keeps_zero_coordinate():
    # a zero coordinate has a zero Jacobian column, so least-norm steps
    # never move it, polished or not
    system = sphere_cone(5)  # codim 2
    guesses = np.random.default_rng(1).normal(size=(50, 5))
    guesses[:, 0] = 0.0
    for polish in (False, True):
        points, status = gauss_newton(system, guesses, polish=polish)
        assert np.all(status == CONVERGED)
        assert np.all(points[:, 0] == 0.0) and not np.any(np.signbit(points[:, 0]))
        assert np.max(np.abs(system.residual(points))) <= 1e-12


def _reference_stratum(system, zero_index, count, seed=0):
    """The per-draw loop sample_stratum_points ran before the batched
    Gauss-Newton: Newton on the other coordinates, one draw at a time."""
    rng = np.random.default_rng(seed)
    others = [i for i in range(system.n) if i != zero_index]
    accepted = []
    attempts = 0
    cap = max(500, 100 * count)
    while len(accepted) < count and attempts < cap:
        attempts += 1
        u = np.zeros(system.n)
        u[others] = rng.normal(0.0, 1.0, size=len(others))
        converged = False
        for _ in range(system.tolerances.max_iter):
            r = system.residual(u)
            if np.max(np.abs(r)) <= system.tolerances.residual:
                converged = True
                break
            J = system.jacobian(u)[:, others]
            try:
                step = J.T @ np.linalg.solve(J @ J.T, r)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            u = u.copy()
            u[others] -= step
        if converged and np.linalg.norm(u) <= system.tolerances.r_max:
            accepted.append(u)
    return np.array(accepted).reshape(-1, system.n)


@pytest.mark.parametrize("make", [lambda: sphere_cone(5), lambda: weighted_cone([1, 1, 1, 3])],
                         ids=["sphere_cone(5)", "weighted_cone([1,1,1,3])"])
@pytest.mark.parametrize("seed", [0, 7])
def test_stratum_sampler_matches_per_draw_loop(make, seed):
    system = make()
    for j in range(system.n):
        expected = _reference_stratum(system, j, 8, seed=seed + j)
        got = sample_stratum_points(system, j, 8, seed=seed + j)
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected), initial=0.0) <= 1e-15
        assert np.all(got[:, j] == 0.0)


def test_sampling_deterministic_and_feasible():
    sys1 = ellipse()
    a = sample_points(sys1, 100, seed=9)
    b = sample_points(sys1, 100, seed=9)
    assert np.array_equal(a, b)
    assert a.shape == (100, 2)
    assert np.max(np.abs((a * a) @ sys1.matrix - 1.0)) <= 1e-12
    assert np.min(np.abs(a)) > sys1.tolerances.u_floor


def test_sampling_zero_count():
    assert sample_points(ellipse(), 0).shape == (0, 2)


def test_sampling_two_equation_system():
    sys3 = sphere_cone(3)
    pts = sample_points(sys3, 50, seed=5)
    assert pts.shape == (50, 3)
    assert np.max(np.abs(pts ** 2 @ sys3.matrix - np.array([1.0, 0.0]))) <= 1e-12


def test_sampling_exhausts_on_empty_variety():
    empty = QuadricSystem([[1], [1]], [-1.0])  # u1^2 + u2^2 = -1
    with pytest.raises(SamplingExhausted):
        sample_points(empty, 5, seed=0)


def test_stratum_sampler_hits_stratum():
    pts = sample_stratum_points(ellipse(), 0, 4, seed=0)
    assert len(pts) > 0
    assert np.allclose(pts[:, 0], 0.0)
    assert np.max(np.abs((pts * pts) @ ellipse().matrix - 1.0)) <= 1e-12


def test_stratum_sampler_empty_for_infeasible():
    # u3 = 0 forces u1 = u2 = 0 on the sphere&cone system: not a smooth point
    pts = sample_stratum_points(sphere_cone(3), 2, 4, seed=0)
    assert len(pts) == 0


def test_cone_flags():
    assert klein_bottle_cone().is_cone()
    assert not ellipse().is_cone()
    assert not QuadricSystem([[1, 1], [1, -1]], [0.0, 1.0]).is_cone()
    with pytest.raises(NotACone):
        require_cone(ellipse())


def test_cone_residual_scaling():
    cone = klein_bottle_cone()
    rng = np.random.default_rng(8)
    u = rng.normal(size=3)
    for t in (0.5, 2.0, -3.0):
        assert np.allclose(cone.residual(t * u), t * t * cone.residual(u))


def test_unit_sphere_augmentation():
    link = with_unit_sphere(klein_bottle_cone())
    assert link.codim == 2 and link.k == 1
    u = sample_points(link, 3, seed=1)
    assert np.max(np.abs(np.sum(u * u, axis=1) - 1.0)) <= 1e-12
