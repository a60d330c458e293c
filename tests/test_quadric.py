"""Variety-side checks: residuals, normals, tangent frames, projection and
sampling."""

import json
import os
import warnings

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
from qlag.catalog import (
    clifford_cone,
    ellipse,
    ellipsoid,
    ellipsoid_cone,
    klein_bottle_cone,
    product_torus,
    sphere_cone,
    weighted_cone,
)
from qlag.quadric import (
    moment_polytope,
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


def test_is_smooth_point():
    sys1 = ellipse()
    assert sys1.is_smooth_point([[1.0, 0.0], [0.0, 0.0]]).tolist() == [True, False]
    sys3 = sphere_cone(3)
    u = sample_points(sys3, 1, seed=1)
    assert sys3.is_smooth_point(u).tolist() == [True]
    # explicit feasible point (1,0,1)/sqrt(2): both normals independent
    explicit = np.array([[1.0, 0.0, 1.0]]) / np.sqrt(2.0)
    assert np.allclose(sys3.residual(explicit), 0.0)
    assert sys3.is_smooth_point(explicit).tolist() == [True]
    # the planes cone u1^2 = u2^2 on its u3 axis: the one row of E on the
    # support is zero
    planes = QuadricSystem([[1], [-1], [0]], [0.0])
    assert planes.is_smooth_point([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0]]).tolist() == [False, True]
    assert sys1.is_smooth_point(np.zeros((0, 2))).shape == (0,)


def test_smoothness_does_not_depend_on_scale():
    # a normal of norm 1e-12 fell below an SVD's absolute rank cut; the
    # support decides, so the point is smooth and has its tangent
    sys1 = ellipse()
    u = np.array([[1e-12, 0.0]])
    assert sys1.is_smooth_point(u).tolist() == [True]
    assert np.array_equal(sys1.tangent_basis(u), [[[0.0, 1.0]]])


def test_tangent_basis_is_scale_free():
    # at 1e-160 the normals' squares are subnormal and at 1e-170 they round
    # to 0, and at 1e200 they overflow; each reflector column is scaled by a
    # power of two first, so the basis is the tangent space of the point at
    # scale 1, orthonormal and normal to rounding
    bound = 8 * np.finfo(float).eps
    for cone in (klein_bottle_cone(), sphere_cone(5)):
        u = sample_points(cone, 100, seed=0)
        projector = np.swapaxes(cone.tangent_basis(u), 1, 2) @ cone.tangent_basis(u)
        normals = cone.normals(u)
        unit = normals / np.sqrt(np.sum(normals * normals, axis=-1))[..., None]
        for scale in (1e-160, 1e-170, 1e-300, 1e200):
            assert cone.is_smooth_point(u * scale).all()
            T = cone.tangent_basis(u * scale)
            assert np.max(np.abs(T @ np.swapaxes(T, 1, 2) - np.eye(cone.k))) <= bound
            assert np.max(np.abs(T @ np.swapaxes(unit, 1, 2))) <= bound
            assert np.max(np.abs(np.swapaxes(T, 1, 2) @ T - projector)) <= bound


# the systems of the exact rule's agreement test, sampled and on random
# points with coordinates zeroed
SMOOTHNESS = {
    "ellipse": ellipse,
    "ellipsoid([1,2,3])": lambda: ellipsoid([1, 2, 3]),
    "sphere_cone(3)": lambda: sphere_cone(3),
    "sphere_cone(5)": lambda: sphere_cone(5),
    "ellipsoid_cone": ellipsoid_cone,
    "klein_bottle_cone": klein_bottle_cone,
    "weighted_cone([1,1,1,3])": lambda: weighted_cone([1, 1, 1, 3]),
    "clifford_cone(3)": lambda: clifford_cone(3),
    "clifford_cone(5)": lambda: clifford_cone(5),
    "product_torus([1,2,3])": lambda: product_torus([1, 2, 3]),
}


def _svd_is_smooth(system, U, rank=1e-9):
    """The stacked-SVD test the exact rule replaced: the normal frame's
    singular values above rank * max(1, s_1) number codim."""
    s = np.linalg.svd(system.normals(U), compute_uv=False)
    return np.sum(s > rank * np.maximum(1.0, s[..., :1]), axis=-1) == system.codim


def test_exact_smoothness_agrees_with_the_svd_test():
    # 500 samples, the 50-point strata and 2000 random points with 40 % of
    # their coordinates zeroed, on each system: 25,900 points in all
    total = 0
    for make in SMOOTHNESS.values():
        system = make()
        rng = np.random.default_rng(0)
        random = rng.normal(size=(2000, system.n))
        random[rng.random(random.shape) < 0.4] = 0.0
        U = np.vstack([sample_points(system, 500, seed=0),
                       *sample_stratum_points(system, 50, seed=0), random])
        smooth = system.is_smooth_point(U)
        assert np.array_equal(smooth, _svd_is_smooth(system, U))
        assert not smooth.all()
        total += len(U)
    assert total == 25900


def _hnf_is_smooth(system, U):
    """The smoothness rule one row at a time: the rows of E on the row's
    support have rank codim."""
    from qlag.lattice import hermite_normal_form

    rows = system.exponents.rows
    return np.array([len(hermite_normal_form([r for r, x in zip(rows, u) if x != 0]))
                     == system.codim for u in U], dtype=bool)


@pytest.mark.parametrize("make", [
    ellipse, klein_bottle_cone, lambda: clifford_cone(5),
    # n > 8: each support code spans two bytes
    lambda: sphere_cone(9), lambda: clifford_cone(10), lambda: product_torus(range(1, 10)),
], ids=["ellipse", "klein_bottle_cone", "clifford_cone(5)", "sphere_cone(9)",
        "clifford_cone(10)", "product_torus(1..9)"])
def test_packed_smoothness_equals_the_per_row_rule(make, monkeypatch):
    # full supports, the strata, random zeroed coordinates and the zero row,
    # shuffled; then an empty batch; a second pass decides nothing again
    import qlag.quadric as quadric

    system = make()
    rng = np.random.default_rng(1)
    random = rng.normal(size=(300, system.n))
    random[rng.random(random.shape) < 0.4] = 0.0
    U = np.vstack([sample_points(system, 100, seed=0),
                   *sample_stratum_points(system, 10, seed=0), random, np.zeros((1, system.n))])
    U = U[rng.permutation(len(U))]
    expected = _hnf_is_smooth(system, U)
    assert expected.any() and not expected.all()
    assert np.array_equal(system.is_smooth_point(U), expected)
    assert system.is_smooth_point(U[:0]).shape == (0,)
    decided = []
    monkeypatch.setattr(quadric, "hermite_normal_form",
                        lambda rows: decided.append(rows) or (None,) * system.codim)
    assert np.array_equal(system.is_smooth_point(U[::-1]), expected[::-1])
    assert decided == []
    assert np.array_equal(make().is_smooth_point(U), [True] * len(U))  # a fresh memo
    assert decided


def test_tangent_basis_hand_values():
    sys1 = ellipse()
    basis = sys1.tangent_basis([[1.0, 0.0], [0.0, 1.0 / np.sqrt(2)]])
    expected = np.array([[[0.0, 1.0]], [[1.0, 0.0]]])
    sign = np.sign(np.sum(basis * expected, axis=-1))[..., None]  # each vector up to sign
    assert np.allclose(basis * sign, expected)


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
    pts = newton_project(sys3, guesses)
    assert np.max(np.abs(sys3.residual(pts))) <= 1e-12
    # a one-row batch's residual goes through a BLAS matrix-vector product,
    # so its last bits may differ from the batch's
    alone = np.concatenate([newton_project(sys3, g[None]) for g in guesses])
    assert np.allclose(alone, pts, rtol=0.0, atol=1e-12)


def test_newton_project_raises_for_the_first_failed_row():
    # on the hyperbola u1^2 - u2^2 = 1: an exact point, the zero guess, a
    # guess on the stratum u1 = 0, where the variety is empty, and a guess
    # whose step is not finite
    hyperbola = QuadricSystem([[1], [-1]], [1.0])
    guesses = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.5], [np.nan, 1.0]])
    assert np.array_equal(newton_project(hyperbola, guesses[:1]), guesses[:1])
    with pytest.raises(SingularJacobian, match=r"^rank-deficient Jacobian or non-finite "
                       r"step from row 0 \(\[0\. 0\.\]\)$"):
        newton_project(hyperbola, guesses[1:2])
    with pytest.raises(NoConvergence, match=r"^residual 1\.000e\+00 > 1\.000e-12 after 100 "
                       r"iterations from row 0 \(\[0\.  0\.5\]\)$"):
        newton_project(hyperbola, guesses[2:3])
    with pytest.raises(SingularJacobian, match="row 0"):
        newton_project(hyperbola, guesses[3:])
    with pytest.raises(SingularJacobian, match="row 1"):
        newton_project(hyperbola, guesses)
    with pytest.raises(NoConvergence, match="row 1"):
        newton_project(hyperbola, guesses[[0, 2, 3]])


def test_gauss_newton_keeps_zero_coordinate():
    # a zero coordinate has a zero Jacobian column, so least-norm steps
    # never move it
    system = sphere_cone(5)  # codim 2
    guesses = np.random.default_rng(1).normal(size=(50, 5))
    guesses[:, 0] = 0.0
    points = newton_project(system, guesses)
    assert np.all(points[:, 0] == 0.0) and not np.any(np.signbit(points[:, 0]))
    assert np.max(np.abs(system.residual(points))) <= 1e-12


def test_origin_row_ends_singular_alone():
    # at the origin JJ^T = 0: LAPACK finds a zero pivot and the row gets a
    # NaN step with no warning, while every other row converges
    guesses = np.random.default_rng(2).normal(size=(40, 2))
    with_origin = np.insert(guesses, 17, 0.0, axis=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularJacobian, match=r"from row 17 \("):
            newton_project(ellipse(), with_origin)
        newton_project(ellipse(), guesses)


# the samplers' systems: one and two equations, cones (drawn from their
# links), a diagonal torus, and the hyperbola, whose polytope has a ray
SAMPLED = {
    "ellipse": ellipse,
    "ellipsoid([1,2,3])": lambda: ellipsoid([1, 2, 3]),
    "sphere_cone(5)": lambda: sphere_cone(5),
    "ellipsoid_cone": ellipsoid_cone,
    "klein_bottle_cone": klein_bottle_cone,
    "weighted_cone([1,1,1,3])": lambda: weighted_cone([1, 1, 1, 3]),
    "clifford_cone(5)": lambda: clifford_cone(5),
    "product_torus([1,2,3])": lambda: product_torus([1, 2, 3]),
    "hyperbola": lambda: QuadricSystem([[1], [-2]], [1.0]),
}


def _relative_residual(system, U):
    """Per row, the largest |sum_i E[i,j] u_i^2 - d_j| over its rounding
    scale sum_i |E[i,j]| u_i^2 + |d_j|."""
    scale = (U * U) @ np.abs(system.matrix) + np.abs(np.array(system.constants))
    return np.max(np.abs(system.residual(U)) / scale, axis=-1)


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_samples_meet_the_quadrics_to_rounding(name):
    # the Gauss-Newton sampler met them to its 1e-12 residual tolerance
    system = SAMPLED[name]()
    U = sample_points(system, 1000, seed=3, u_floor=0.01)
    assert U.shape == (1000, system.n)
    assert np.max(_relative_residual(system, U)) <= 1e-14
    assert np.min(np.abs(U)) > 0.01
    if system.is_cone():  # the link, scaled by a radius in [1, 2)
        norms = np.linalg.norm(U, axis=1)
        assert np.all((norms > 1.0 - 1e-12) & (norms < 2.0))
    for j, pts in enumerate(sample_stratum_points(system, 50, seed=3)):
        assert pts.shape in {(0, system.n), (50, system.n)}
        assert np.all(pts[:, j] == 0.0)
        assert np.max(_relative_residual(system, pts), initial=0.0) <= 1e-14


@pytest.mark.parametrize("name", ["ellipse", "klein_bottle_cone", "clifford_cone(5)"])
def test_every_sign_pattern_occurs(name):
    system = SAMPLED[name]()
    patterns = np.unique(sample_points(system, 2000, seed=1) > 0, axis=0)
    assert len(patterns) == 2 ** system.n


@pytest.mark.parametrize("name", ["ellipse", "clifford_cone(5)", "hyperbola"])
def test_draws_are_deterministic_per_seed_and_count(name):
    system = SAMPLED[name]()
    U = sample_points(system, 100, seed=9)
    assert np.array_equal(U, sample_points(system, 100, seed=9))
    assert not np.array_equal(U, sample_points(system, 100, seed=10))
    again = sample_stratum_points(system, 8, seed=9)
    for got, want in zip(sample_stratum_points(system, 8, seed=9), again):
        assert np.array_equal(got, want)


def test_samplers_make_no_projection_and_no_rank_test(monkeypatch):
    import qlag.quadric as quadric

    def refuse(*args, **kwargs):
        raise AssertionError("the samplers project nothing and take no SVD")

    monkeypatch.setattr(quadric, "newton_project", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    for make in SAMPLED.values():
        system = make()
        sample_points(system, 50, seed=0, u_floor=0.01)
        sample_stratum_points(system, 8, seed=0)


def _count_generators(monkeypatch):
    seeds = []

    def counted(seed, make=np.random.default_rng):
        seeds.append(seed)
        return make(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    return seeds


def test_empty_face_returns_no_points_without_drawing(monkeypatch):
    # u5 = 0 on sphere_cone(5) asks sum_{i<5} v_i to be 1 and 0 at once;
    # clifford_cone(5) has v = 1/5 at every point of its link, so none of its
    # strata meets it, and the apex is not a stratum point
    seeds = _count_generators(monkeypatch)
    strata = sample_stratum_points(sphere_cone(5), 8, seed=10)
    assert [pts.shape for pts in strata] == [(8, 5)] * 4 + [(0, 5)]
    assert seeds == [10, 11, 12, 13]
    seeds.clear()
    assert [len(pts) for pts in sample_stratum_points(clifford_cone(5), 8, seed=0)] == [0] * 5
    assert seeds == []
    # the planes cone u1^2 = u2^2: its faces v1 = 0 and v2 = 0 are the link's
    # vertex (0, 0, 1), the u3 axis, where the one row of E on the support
    # is zero and M is singular; only u3 = 0 is drawn
    planes = QuadricSystem([[1], [-1], [0]], [0.0])
    assert [len(pts) for pts in sample_stratum_points(planes, 8, seed=0)] == [0, 0, 8]
    assert seeds == [2]


def test_exhaustion_is_exact_at_its_boundary(monkeypatch):
    # v1 + 200 v2 = 1 has a point with v1, v2 > f exactly when f < 1/201,
    # and sqrt(1/201) = 0.070535...
    thin = QuadricSystem([[1], [200]], [1.0])
    U = sample_points(thin, 100, seed=0, u_floor=0.0705)
    assert np.min(np.abs(U)) > 0.0705
    seeds = _count_generators(monkeypatch)
    with pytest.raises(SamplingExhausted, match=r"v_i > 0\.0706\^2"):
        sample_points(thin, 100, seed=0, u_floor=0.0706)
    assert seeds == []  # decided before any draw


def test_exhaustion_needs_every_coordinate_off_zero():
    # v1 + v2 = 1 and v1 + v2 + v3 = 1: P is not empty, but v3 = 0 on all of
    # it, so no floor leaves a point with every |u_i| above it.  Every face
    # lies in v3 = 0, where rows 1 and 2 of E have rank 1: M is singular on
    # all of them, so no stratum is drawn
    flat = QuadricSystem([[1, 1], [1, 1], [0, 1]], [1.0, 1.0])
    with pytest.raises(SamplingExhausted):
        sample_points(flat, 5, seed=0, u_floor=0.0)
    assert [len(pts) for pts in sample_stratum_points(flat, 4, seed=0)] == [0, 0, 0]


def _count_passes(monkeypatch):
    """The samplers' float passes over column bases, each as ("table", m) for
    a lattice.basis_table of m rows (P's, or the ray pass's m + 1), and each
    cut read off them as ("cut", m, floor)."""
    import qlag.lattice as lattice
    import qlag.quadric as quadric

    calls = []

    def counted(rows, rhs, table=lattice.basis_table):
        calls.append(("table", len(rows)))
        cut = table(rows, rhs)

        def counted_cut(floor):
            calls.append(("cut", len(rows), floor))
            return cut(floor)

        return counted_cut

    monkeypatch.setattr(quadric, "basis_table", counted)
    monkeypatch.setattr(lattice, "basis_table", counted)
    return calls


def _config_file(tmp_path, system, sweeps):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps({
        "n": system.n, "k": system.k, "rows": [list(r) for r in system.exponents.rows],
        "constants": list(system.constants), "samples": 120, "sweeps": sweeps}))
    return str(path)


# the enumerations of one analyze, each cut with its own ray pass, were
# 6, 8, 8 and 8 before the system kept them, and 4, 5, 5 and 3 while the
# collision scan drew its generic points at a cut of its own; each cut then
# enumerated P's bases again, where now they share one float pass
@pytest.mark.parametrize("instance, cuts", [
    ("ellipse.json", 3),
    ("klein_cone.json", 4),
    ((lambda: clifford_cone(5), ["cn", "cpn", "quotient"]), 4),
    ((lambda: product_torus([1, 2, 3]), ["cn"]), 3),
], ids=["ellipse.json", "klein_cone.json", "clifford_cone(5)", "product_torus([1,2,3])"])
def test_analyze_enumerates_each_cut_once_and_the_rays_once(instance, cuts, tmp_path,
                                                           monkeypatch, capsys):
    # one float pass over P's bases and one ray pass per analyze, whatever
    # the number of cuts, and each cut (P's own at floor 0 among them) read
    # off P's table once
    from qlag.cli import main

    if isinstance(instance, str):
        path = os.path.join(os.path.dirname(__file__), os.pardir, "configs", instance)
    else:
        path = _config_file(tmp_path, instance[0](), instance[1])
    calls = _count_passes(monkeypatch)
    assert main(["analyze", path]) == 0
    capsys.readouterr()
    m = calls[0][1]
    assert [call for call in calls if call[0] == "table"] == [("table", m), ("table", m + 1)]
    floors = [call[2] for call in calls if call[:2] == ("cut", m)]
    assert len(floors) == len(set(floors)) == cuts
    assert [call for call in calls if call[:2] == ("cut", m + 1)] == [("cut", m + 1, 0.0)]


def test_polytope_arrays_are_read_only_and_kept():
    # the hyperbola u1^2 - 2 u2^2 = 1 has a vertex and a ray at every floor
    hyperbola = QuadricSystem([[1], [-2]], [1.0])
    vertices, rays = moment_polytope(hyperbola, 0.5)
    for array in (vertices, rays):
        assert array.shape == (1, 2)
        with pytest.raises(ValueError):
            array[0, 0] = 0.0
    again = moment_polytope(hyperbola, 0.5)
    assert again[0] is vertices and again[1] is rays
    assert moment_polytope(hyperbola)[1] is rays  # every cut shares P's rays


def test_a_system_with_facts_is_freed_without_the_cycle_collector():
    # each fact lets go of the closure that built it, which refers to the
    # system, and a failed fact keeps its error without the traceback whose
    # frames refer to it, so the memo makes no reference cycle
    import gc
    import traceback
    import weakref

    system = clifford_cone(5)
    U = sample_points(system, 20, seed=0)
    sample_stratum_points(system, 4, seed=0)
    system.tangent_basis(U)
    with_unit_sphere(system).tangent_basis(U / np.linalg.norm(U, axis=1)[:, None])
    # the hyperbola u1^2 - 2 u2^2 = 1 cut at 1e155^2 has a vertex beyond float64
    hyperbola = QuadricSystem([[1], [-2]], [1.0])
    lengths = []
    for _ in range(3):
        try:
            sample_points(hyperbola, 2, seed=0, u_floor=1e155)
        except SamplingExhausted as exc:
            assert exc.__context__ is None
            lengths.append(len(traceback.extract_tb(exc.__traceback__)))
    assert len(lengths) == 3 and len(set(lengths)) == 1  # no read drags the last one's along
    freed = [weakref.ref(system), weakref.ref(hyperbola)]
    gc.disable()
    try:
        del system, hyperbola
        assert [ref() for ref in freed] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("make, floor, message", [
    (ellipse, 0.8, "no point of the moment polytope has every v_i > 0.8^2"),
    (ellipse, 1e300, "no point of the moment polytope has every v_i > 1e+300^2"),
    (lambda: QuadricSystem([[1], [-2]], [1.0]), 1e155,
     "the moment polytope cut at 1e+155^2 is beyond float64"),
], ids=["ellipse-0.8", "ellipse-1e300", "hyperbola-1e155"])
def test_a_failed_cut_fails_alike_at_every_read(make, floor, message, monkeypatch):
    system = make()
    calls = _count_passes(monkeypatch)
    for _ in range(3):
        with pytest.raises(SamplingExhausted) as info:
            sample_points(system, 2, seed=0, u_floor=floor)
        assert str(info.value) == message
    # P's one float pass and its cut, then the ray pass, which a cut
    # beyond float64 does not reach
    m = system.codim
    rays = [] if message.endswith("beyond float64") else [("table", m + 1), ("cut", m + 1, 0.0)]
    assert calls == [("table", m), ("cut", m, floor), *rays]


@pytest.mark.parametrize("make", [lambda: sphere_cone(5), lambda: weighted_cone([1, 1, 1, 3])],
                         ids=["sphere_cone(5)", "weighted_cone([1,1,1,3])"])
@pytest.mark.parametrize("seed", [0, 7])
def test_stratum_sampler_matches_per_draw_loop(make, seed, per_point_draw):
    # each stratum j is drawn from its face v_j = 0 at seed + j.  On both
    # systems v_n = 0 leaves sum_{i<n} v_i = 0 by the cone equation, which
    # misses sum v = 1 (sphere_cone's sphere, the weighted cone's link), so
    # that stratum has no points
    system = make()
    strata = sample_stratum_points(system, 8, seed=seed)
    assert len(strata) == system.n
    for j, got in enumerate(strata):
        expected = per_point_draw(system, 8, seed + j, zero=j)
        assert got.shape == expected.shape == ((0 if j == system.n - 1 else 8), system.n)
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
    pts = sample_stratum_points(ellipse(), 4, seed=0)[0]
    assert len(pts) > 0
    assert np.allclose(pts[:, 0], 0.0)
    assert np.max(np.abs((pts * pts) @ ellipse().matrix - 1.0)) <= 1e-12


def test_stratum_sampler_empty_for_infeasible():
    # u3 = 0 forces u1 = u2 = 0 on the sphere&cone system: not a smooth point
    pts = sample_stratum_points(sphere_cone(3), 4, seed=0)[2]
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


def test_link_system_is_built_once_per_system(monkeypatch):
    # every link frame reads one link system and its memo of smooth supports
    import qlag.quadric as quadric
    from qlag.projective import link_tangent_frame

    cone = clifford_cone(5)
    U, Y = sample_points(cone, 30, seed=2), np.zeros((30, 4))
    assert with_unit_sphere(cone) is with_unit_sphere(cone)
    decided = []
    real = quadric.hermite_normal_form
    monkeypatch.setattr(quadric, "hermite_normal_form",
                        lambda rows: decided.append(rows) or real(rows))
    link_tangent_frame(cone, U, Y)
    assert decided  # the link's support is decided on the first frames ...
    del decided[:]
    link_tangent_frame(cone, U, Y)
    assert decided == []  # ... and read from its memo after
