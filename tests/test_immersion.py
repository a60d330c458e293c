"""Immersion-side verification: frames, symplectic pullback, Lagrangian
angle, both mean-curvature routes, harmonicity and variation quadratures,
and product assembly."""

from dataclasses import replace

import numpy as np
import pytest

from qlag import (
    frame_at,
    sum_vector,
    lagrangian_angle,
    lagrangian_defect,
    mean_curvature,
    mean_curvature_fd,
    phi,
    product_system,
    sample_immersion,
)
from qlag.catalog import (
    circle,
    ellipse,
    ellipsoid,
    klein_bottle_cone,
    product_torus,
    sphere_cone,
)
from qlag.errors import DimensionUnsupported, MeshTooCoarse
from qlag.immersion import (
    ChartMesh,
    ImmersionChart,
    TrigPolynomial,
    chart_mesh,
    gradient_graph_variation,
    hamiltonian_variation,
    harmonicity_defect,
    laplace_beltrami_defect,
    measured_lagrangian_angle,
    random_trig_polynomial,
    sample_torus_angles,
    torus_metric,
)
from qlag.numdiff import mean_curvature_flat
from qlag.torus import action_table, torus_box


def _ellipse_point(t):
    return np.array([np.cos(t), np.sin(t) / np.sqrt(2.0)])


# -- the map phi --------------------------------------------------------------


def test_phi_real_at_zero_angles():
    sys1 = ellipse()
    u = _ellipse_point(0.37)
    assert np.allclose(phi(sys1, u, [0.0]), u)


def test_phi_half_period_flips_first_coordinate():
    z = phi(ellipse(), [1.0, 0.0], [1.0])
    assert np.allclose(z, [-1.0, 0.0], atol=1e-14)


def test_phi_group_invariance_exact():
    sys3 = sphere_cone(3)
    U, Y = sample_immersion(sys3, 25, seed=0)
    base = phi(sys3, U, Y)
    for sign, shift in zip(*action_table(sys3.exponents)):
        assert np.max(np.abs(phi(sys3, sign * U, Y + shift) - base)) <= 1e-14


# -- frames -------------------------------------------------------------------


def test_frame_hand_values():
    fb = frame_at(ellipse(), [[1.0, 0.0]], [[0.0]])
    assert np.allclose(fb.rows, [[[0.0, 1.0], [np.pi * 1j, 0.0]]])
    assert np.allclose(fb.metric_y, [[[np.pi ** 2]]])
    assert np.allclose(fb.gram, [[[1.0, 0.0], [0.0, np.pi ** 2]]])
    assert fb.cross_defect() <= 1e-14


def test_torus_metric_closed_form_matches_gram():
    sys3 = sphere_cone(4)
    U, Y = sample_immersion(sys3, 50, seed=1)
    fb = frame_at(sys3, U, Y)
    assert np.max(np.abs(fb.metric_y - torus_metric(sys3, U))) <= 1e-12


def test_cross_block_vanishes_at_scale():
    cone = klein_bottle_cone()
    U, Y = sample_immersion(cone, 200, seed=2)
    assert np.max(frame_at(cone, U, Y).cross_defect()) <= 1e-10


def test_lagrangian_defect_sweeps():
    for system, seed in [
        (ellipse(), 3),
        (ellipsoid([1, 2, 3]), 4),
        (sphere_cone(4), 5),
        (klein_bottle_cone(), 6),
    ]:
        U, Y = sample_immersion(system, 100, seed=seed)
        assert np.max(lagrangian_defect(system, U, Y)) <= 1e-10


def test_perturbed_frame_negative_control():
    sys1 = ellipse()
    fb = frame_at(sys1, [_ellipse_point(0.4)], [[0.3]])
    rows = fb.rows.copy()
    rows[0, 1] = rows[0, 1] + 0.1j * rows[0, 0]
    assert replace(fb, rows=rows).symplectic_defect() > 1e-2


# -- Lagrangian angle ----------------------------------------------------------


def test_angle_constant_when_rows_sum_to_zero():
    cone = klein_bottle_cone()
    a0, a1 = lagrangian_angle(cone, [[0.0], [0.73]])
    assert np.all(np.pi * np.array(sum_vector(cone.exponents)) == 0.0)
    assert a0 == pytest.approx(np.pi / 2)  # codim 1
    assert a1 == pytest.approx(a0)


def test_angle_linear_slope_on_ellipse():
    sys1 = ellipse()
    y = 0.21
    angle = lagrangian_angle(sys1, [[y]])
    assert np.pi * np.array(sum_vector(sys1.exponents)) == pytest.approx([3 * np.pi])
    assert angle == pytest.approx([(3 * np.pi * y + np.pi / 2) % (2 * np.pi)])


def test_angle_at_origin_is_quarter_turns():
    assert lagrangian_angle(sphere_cone(3), [[0.0, 0.0]]) == pytest.approx([np.pi])


def test_measured_angle_matches_closed_form_mod_pi():
    sys1 = ellipse()
    U = np.array([_ellipse_point(t) for t in (0.3, 1.2, 2.5)])
    Y = np.array([[0.1], [0.7], [1.4]])
    diff = (measured_lagrangian_angle(sys1, U, Y) - lagrangian_angle(sys1, Y)) % np.pi
    assert np.max(np.minimum(diff, np.pi - diff)) <= 1e-10


def test_measured_angle_independent_of_variety_point():
    sys3 = sphere_cone(3)
    U, Y = sample_immersion(sys3, 8, seed=7)
    Y = np.broadcast_to(Y[0], Y.shape)
    values = set(np.round(measured_lagrangian_angle(sys3, U, Y) % np.pi, 9).tolist())
    assert len(values) == 1


def test_angle_gradient_chart_independent():
    # d(beta)/dy read from the measured angle by finite differences must be
    # pi*e regardless of the variety point or the y base point
    sys1 = ellipse()
    h = 1e-6
    U = np.array([_ellipse_point(t) for t in (0.3, 1.4, 2.2)])
    Y0 = np.array([[0.1], [0.9], [1.6]])
    a_plus = measured_lagrangian_angle(sys1, U, Y0 + h)
    a_minus = measured_lagrangian_angle(sys1, U, Y0 - h)
    slopes = ((a_plus - a_minus + np.pi / 2) % np.pi - np.pi / 2) / (2 * h)
    expected = np.pi * sum_vector(sys1.exponents)[0]
    assert np.max(np.abs(slopes - expected)) <= 1e-3
    assert np.max(np.abs(np.diff(slopes))) <= 1e-3


# -- mean curvature -------------------------------------------------------------


def test_mean_curvature_hand_norm():
    H = mean_curvature(ellipse(), [1.0, 0.0], [0.0])
    assert np.linalg.norm(H) == pytest.approx(3.0)
    assert np.allclose(H, [-3.0, 0.0])


def test_mean_curvature_zero_when_rows_sum_to_zero():
    cone = klein_bottle_cone()
    U, Y = sample_immersion(cone, 10, seed=8)
    assert np.all(np.linalg.norm(mean_curvature(cone, U, Y), axis=-1) == 0.0)


def test_mean_curvature_group_equivariance():
    sys1 = ellipse()
    u, y = _ellipse_point(0.9), np.array([0.35])
    H = mean_curvature(sys1, u, y)
    signs, shifts = action_table(sys1.exponents)
    for sign, shift in zip(signs[1:], shifts[1:]):  # row 0 is the identity
        assert np.max(np.abs(mean_curvature(sys1, sign * u, y + shift) - H)) <= 1e-13


def test_oracle_matches_closed_form():
    for system, seed in [(ellipse(), 1), (sphere_cone(3), 2)]:
        U, Y = sample_immersion(system, 10, seed=seed, u_floor=0.1)
        h_closed = mean_curvature(system, U, Y)
        h_fd = mean_curvature_fd(system, U, Y)
        rel = np.linalg.norm(h_closed - h_fd, axis=-1) / (1.0 + np.linalg.norm(h_closed, axis=-1))
        assert np.max(rel) <= 1e-4


def test_oracle_zero_on_balanced_cone():
    cone = klein_bottle_cone()
    U, Y = sample_immersion(cone, 20, seed=9, u_floor=0.1)
    assert np.max(np.linalg.norm(mean_curvature_fd(cone, U, Y), axis=-1)) <= 1e-4


def test_oracle_vanishes_on_flat_plane():
    # synthetic chart of the totally geodesic R^3 in C^3
    def chart(xi):
        return np.concatenate([xi, np.zeros_like(xi)], axis=-1)

    H = mean_curvature_flat(chart, np.zeros((1, 3)), 1e-5)
    assert np.linalg.norm(H) <= 1e-9


def test_christoffel_symbols_of_polar_metric():
    from qlag.numdiff import christoffel_symbols

    # plane in polar coordinates (r, t): g = diag(1, r^2), whose only
    # symbols are Gamma^r_tt = -r and Gamma^t_rt = Gamma^t_tr = 1/r
    def polar(x):
        g = np.zeros(x.shape + (2,))
        g[..., 0, 0], g[..., 1, 1] = 1.0, x[..., 0] ** 2
        return g

    x = np.array([[0.5, 0.1], [1.3, 2.0], [2.0, -1.0]])
    gamma = christoffel_symbols(polar, x, 1e-5)
    expected = np.zeros((3, 2, 2, 2))
    expected[:, 0, 1, 1] = -x[:, 0]
    expected[:, 1, 0, 1] = expected[:, 1, 1, 0] = 1.0 / x[:, 0]
    assert np.max(np.abs(gamma - expected)) <= 1e-9
    assert np.array_equal(christoffel_symbols(polar, x[1], 1e-5), gamma[1])


def test_immersion_chart_center_consistency():
    sys1 = ellipse()
    u, y = _ellipse_point(1.1)[None], np.array([[0.2]])
    chart = ImmersionChart(sys1, u, y)
    z = chart(np.zeros((1, 1, 2)))[:, 0]
    assert np.allclose(z[:, :2] + 1j * z[:, 2:], phi(sys1, u, y), atol=1e-12)


# -- discrete Laplace-Beltrami ----------------------------------------------------


def test_harmonicity_small_on_surface_grid():
    assert harmonicity_defect(ellipse(), 64, on_link=False) <= 1e-6


def test_harmonicity_exactly_zero_for_constant_angle_metric():
    torus = product_torus([1.0, 0.7])
    assert harmonicity_defect(torus, 32, on_link=False) <= 1e-13


def test_harmonicity_exactly_zero_for_constant_angle():
    # zero row sum makes the angle constant on the link chart: the discrete
    # operator annihilates it with no rounding residue at all
    assert harmonicity_defect(klein_bottle_cone(), 64, on_link=True) == 0.0


def test_harmonicity_refinement_with_floor():
    # second order: doubling the resolution cuts the defect by at least 4x
    # until it reaches the double-precision floor
    coarse = harmonicity_defect(ellipse(), 64, on_link=False)
    fine = harmonicity_defect(ellipse(), 128, on_link=False)
    assert coarse <= 1e-6
    assert fine <= max(coarse / 4.0, 1e-12)


def test_harmonicity_negative_control_raw_square():
    sys1 = ellipse()
    mesh = chart_mesh(sys1, 64)
    # the torus axis is stored scaled into [0, 1); the period box scales it back
    y_raw = np.broadcast_to(torus_box(sys1.exponents)[0, 0] * mesh.node_grids()[1], mesh.shape)
    assert laplace_beltrami_defect(mesh, y_raw ** 2) > 0.1


def _flat_mesh(n: int) -> ChartMesh:
    shape = (n, n)
    metric = np.broadcast_to(np.eye(2), shape + (2, 2)).copy()
    return ChartMesh(shape, (1.0 / n, 1.0 / n), (True, True), metric,
                     np.zeros(2), 1.0 / n ** 2)


def test_operator_second_order_flat_metric():
    # known Laplacian: s = sin(2 pi x) sin(4 pi y), ds = -20 pi^2 s
    errors = []
    for n in (32, 64):
        mesh = _flat_mesh(n)
        x, y = np.meshgrid(np.arange(n) / n, np.arange(n) / n, indexing="ij")
        s = np.sin(2 * np.pi * x) * np.sin(4 * np.pi * y)
        exact = -20.0 * np.pi ** 2 * s
        sqrtg = np.ones(mesh.shape)
        # reuse the public defect entry point by shifting with the exact part:
        # defect(s) measures |L s|; here compare against the known value
        from qlag.immersion import _central_diff

        grads = [_central_diff(s, a, mesh.spacings[a], True) for a in range(2)]
        div = sum(
            _central_diff(grads[a], a, mesh.spacings[a], True) for a in range(2)
        )
        errors.append(np.max(np.abs(div / sqrtg - exact)))
    assert errors[1] <= errors[0] / 3.5


def test_operator_second_order_conformal_metric():
    # G = e^{2 phi} I in 2d has Laplacian e^{-2 phi} (ordinary Laplacian)
    errors = []
    for n in (32, 64):
        x, y = np.meshgrid(np.arange(n) / n, np.arange(n) / n, indexing="ij")
        phi_field = 0.3 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        conformal = np.exp(2.0 * phi_field)
        metric = np.zeros((n, n, 2, 2))
        metric[..., 0, 0] = conformal
        metric[..., 1, 1] = conformal
        mesh = ChartMesh((n, n), (1.0 / n, 1.0 / n), (True, True), metric,
                         np.zeros(2), 1.0 / n ** 2)
        s = np.sin(2 * np.pi * (x + 2 * y))
        exact = np.exp(-2.0 * phi_field) * (-20.0 * np.pi ** 2 * s)
        from qlag.immersion import _central_diff

        sqrtg = np.sqrt(np.linalg.det(metric))
        ginv = np.linalg.inv(metric)
        grads = [_central_diff(s, a, mesh.spacings[a], True) for a in range(2)]
        div = np.zeros(mesh.shape)
        for a in range(2):
            flux = sqrtg * sum(ginv[..., a, b] * grads[b] for b in range(2))
            div += _central_diff(flux, a, mesh.spacings[a], True)
        errors.append(np.max(np.abs(div / sqrtg - exact)))
    assert errors[1] <= errors[0] / 3.5


def test_mesh_too_coarse_raises():
    with pytest.raises(MeshTooCoarse):
        chart_mesh(ellipse(), 4)


# -- Hamiltonian variation ---------------------------------------------------------


def test_variation_small_for_harmonic_angle():
    sys1 = ellipse()
    for seed in range(5):
        f = random_trig_polynomial(2, seed=seed)
        assert hamiltonian_variation(sys1, f, resolution=32) <= 1e-4


def test_variation_exactly_zero_for_constant_f():
    assert hamiltonian_variation(ellipse(), TrigPolynomial(((3.0, (0, 0), 0.0),))) == 0.0


def test_variation_mixed_harmonic_function():
    # cos(2 pi t) sin(2 pi y_raw): y_raw has period 2, so frequency 2 in
    # normalized chart coordinates
    f = TrigPolynomial(((1.0, (1, 2), np.pi / 2),))
    assert hamiltonian_variation(ellipse(), f, resolution=48) <= 1e-4


def test_variation_negative_control_graph():
    f = TrigPolynomial(((1.0, (1, 1), 0.0), (0.7, (1, -1), 0.0)))
    assert gradient_graph_variation(0.05, f, resolution=64) > 1e-2


def test_variation_dimension_guard():
    with pytest.raises(DimensionUnsupported):
        hamiltonian_variation(sphere_cone(4), random_trig_polynomial(3, seed=0))


# -- products -------------------------------------------------------------------


def test_product_block_structure():
    prod = product_system(ellipse(), circle(0.5))
    assert prod.n == 3 and prod.codim == 2
    assert prod.exponents.rows == ((1, 0), (2, 0), (0, 1))
    assert prod.constants == (1.0, 0.25)


def test_product_torus_lagrangian_defect():
    torus = product_torus([1.0, 0.5, 2.0])
    U, Y = sample_immersion(torus, 100, seed=10)
    assert np.max(lagrangian_defect(torus, U, Y)) <= 1e-10


def test_product_angle_additivity():
    a, b = ellipse(), ellipse()
    prod = product_system(a, b)
    ya, yb = [[0.3]], [[0.8]]
    total = lagrangian_angle(prod, np.hstack([ya, yb]))
    split = lagrangian_angle(a, ya) + lagrangian_angle(b, yb)
    wrap = (total - split) % (2 * np.pi)
    assert np.max(np.minimum(wrap, 2 * np.pi - wrap)) <= 1e-12


def test_product_mean_curvature_is_direct_sum():
    a, b = ellipse(), ellipse()
    prod = product_system(a, b)
    ua, ub = _ellipse_point(0.3), _ellipse_point(1.1)
    Ha = mean_curvature(a, ua, [0.2])
    Hb = mean_curvature(b, ub, [0.5])
    Hp = mean_curvature(prod, np.concatenate([ua, ub]), [0.2, 0.5])
    assert np.max(np.abs(Hp - np.concatenate([Ha, Hb]))) <= 1e-10


def test_sample_angles_cover_period_box():
    sys1 = ellipse()
    Y = sample_torus_angles(sys1, 500, seed=11)
    assert Y.shape == (500, 1)
    assert 0.0 <= Y.min() and Y.max() < 2.0
