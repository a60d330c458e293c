"""Group action, orbit structure, collision scanning and topology labels."""

import numpy as np
import pytest

from qlag import (
    NonFreeWitness,
    classify_quotient,
    orbit,
    orientation_character,
    scan_self_intersections,
)
from qlag.catalog import (
    circle,
    clifford_cone,
    ellipse,
    ellipsoid,
    ellipsoid_cone,
    klein_bottle_cone,
    product_torus,
    sphere_cone,
    weighted_cone,
)
from qlag.immersion import phi, sample_immersion
from qlag.quotient import orbit_distinctness, same_orbit, scan_samples
from qlag.torus import action_table, gamma_group, torus_distance


def _apply_row(system, row, u, y):
    """Group element ``row`` of the cached action table applied to (u, y);
    row 0 is the identity, row 1 the first nonzero class."""
    signs, shifts = action_table(system.exponents)
    return signs[row] * np.asarray(u, dtype=float), np.asarray(y, dtype=float) + shifts[row]


# -- the action ----------------------------------------------------------------


def test_apply_gamma_ellipse():
    u2, y2 = _apply_row(ellipse(), 1, [0.8, 0.4], [0.25])
    assert np.allclose(u2, [-0.8, 0.4])
    assert np.allclose(y2, [1.25])


def test_apply_gamma_identity():
    u2, y2 = _apply_row(ellipse(), 0, [0.8, 0.4], [0.25])
    assert np.allclose(u2, [0.8, 0.4]) and np.allclose(y2, [0.25])


def test_apply_gamma_sphere_cone_flips():
    signs, _ = action_table(sphere_cone(4).exponents)
    # some element flips exactly the first n-1 coordinates
    patterns = {tuple(np.sign(row * np.ones(4))) for row in signs}
    assert (-1.0, -1.0, -1.0, 1.0) in patterns
    assert (1.0, 1.0, 1.0, -1.0) in patterns


def test_apply_gamma_involution_up_to_periods():
    sys1 = ellipse()
    u, y = np.array([0.6, 0.5]), np.array([0.3])
    u2, y2 = _apply_row(sys1, 1, *_apply_row(sys1, 1, u, y))
    assert np.allclose(u2, u)
    assert torus_distance(sys1.exponents, [y2 - y]) <= 1e-12


# -- orbits ---------------------------------------------------------------------


def test_orbit_sizes_and_images():
    for system, size in [(ellipse(), 2), (sphere_cone(3), 4)]:
        U, Y = sample_immersion(system, 20, seed=1)
        pts = orbit(system, U, Y)
        assert len(pts) == size
        base = phi(system, U, Y)
        for gu, gy in pts:
            assert np.max(np.abs(phi(system, gu, gy) - base)) <= 1e-13


def test_orbit_distinct_even_on_stratum():
    # u1 = 0 collapses the sign flip, but the torus translation separates
    sys1 = ellipse()
    pts = orbit(sys1, [[0.0, 1.0 / np.sqrt(2)]], [[0.2]])
    assert len(pts) == 2


def test_orbit_nonfree_detection():
    # a synthetic duplicate representative must be caught
    sys1 = ellipse()
    from fractions import Fraction as F
    from unittest import mock

    from qlag.torus import gamma_signs

    fake = ((F(0),), (F(0),))
    table = (
        np.array([gamma_signs(sys1.exponents, g) for g in fake]),
        np.array([[float(x) for x in g] for g in fake]),
    )
    with mock.patch("qlag.quotient.action_table", return_value=table):
        with pytest.raises(NonFreeWitness):
            orbit(sys1, [[0.8, 0.4]], [[0.1]])


def test_orbit_distinctness_sweep():
    sys4 = ellipsoid_cone()
    U, Y = sample_immersion(sys4, 50, seed=2)
    assert orbit_distinctness(sys4, (U, Y)) == 4


def test_in_same_orbit_detects_translates_and_rejects_strangers():
    sys1 = ellipse()
    u, y = np.array([[0.6, np.sqrt((1 - 0.36) / 2)]]), np.array([[0.7]])
    gu, gy = _apply_row(sys1, 1, u, y)
    # one-row batches: one verdict each
    assert same_orbit(sys1, (u, y), (gu, gy)).tolist() == [True]
    assert same_orbit(sys1, (u, y), (u, y + 2.0)).tolist() == [True]  # full period
    assert same_orbit(sys1, (u, y), (u, y + 0.37)).tolist() == [False]


# -- torus distance ---------------------------------------------------------------


def test_torus_distance_one_dim():
    sys1 = ellipse()
    distance = torus_distance(sys1.exponents, [[2.0], [1.0]])
    assert distance[0] <= 1e-12 and distance[1] == pytest.approx(1.0)


def test_torus_distance_two_dim():
    sys3 = sphere_cone(3)
    # (1,1) and (1,-1) are periods of 2L* (twice the dual was spanned by
    # (1,0) and (-1/2,1/2)); check lattice membership through the metric
    distance = torus_distance(sys3.exponents, [[1.0, 1.0], [1.0, -1.0], [0.5, 0.5]])
    assert np.max(distance[:2]) <= 1e-12 and distance[2] > 0.5


# -- collision scanning ------------------------------------------------------------


def test_scan_finds_identified_circles_on_ellipse():
    sys1 = ellipse()
    U, Y = scan_samples(sys1, 1200, seed=3)
    report = scan_self_intersections(sys1, U, Y)
    assert len(report) > 0
    assert np.all(report.min_abs_u < 1e-4)
    # the collisions live on the u1 = 0 circles with opposite u2 signs
    found_opposite = False
    for a, b in report.pairs:
        ua, ub = U[a], U[b]
        if abs(ua[0]) < 1e-9 and abs(ub[0]) < 1e-9 and ua[1] * ub[1] < 0:
            found_opposite = True
    assert found_opposite


def test_scan_empty_for_sphere_cone():
    sys3 = sphere_cone(3)
    U, Y = scan_samples(sys3, 1200, seed=4)
    assert len(scan_self_intersections(sys3, U, Y)) == 0


def test_scan_empty_for_round_sphere():
    sphere = ellipsoid([1, 1, 1])
    U, Y = scan_samples(sphere, 1200, seed=5)
    assert len(scan_self_intersections(sphere, U, Y)) == 0


# -- orientation characters ----------------------------------------------------------


# one character per row of the action table: row 0 is the identity, row 1
# the first nonzero class


def test_character_ellipse_reverses():
    assert orientation_character(ellipse())[1] == -1


def test_character_identity_element():
    assert orientation_character(ellipse())[0] == 1
    assert orientation_character(sphere_cone(4))[0] == 1


def test_character_odd_sphere_preserves():
    sphere = ellipsoid([1, 1, 1, 1])  # S^3, antipodal map
    assert orientation_character(sphere) == (1, 1)


def test_character_even_sphere_reverses():
    sphere = ellipsoid([1, 1, 1])  # S^2
    assert orientation_character(sphere) == (1, -1)


def test_character_homomorphism_property():
    for system in (ellipse(), ellipsoid([1, 2, 3]), sphere_cone(3), product_torus([1.0, 0.5])):
        reps = gamma_group(system.exponents)
        values = orientation_character(system)
        assert len(values) == len(reps)
        chars = dict(zip(reps, values))
        from qlag.lattice import pairing_parity

        for a in reps:
            for b in reps:
                total = tuple(x + y for x, y in zip(a, b))
                # reduce the sum back to a representative by parity matching
                match = None
                for c in reps:
                    diff = tuple(x - y for x, y in zip(total, c))
                    if all(
                        pairing_parity(diff, row) == 0 for row in system.exponents.rows
                    ):
                        match = c
                        break
                assert match is not None
                assert chars[a] * chars[b] == chars[match]


def test_character_unsupported_family():
    assert orientation_character(klein_bottle_cone()) is None


# -- classification -------------------------------------------------------------------


@pytest.mark.parametrize(
    "system,kind,dim",
    [
        (ellipse(), "KleinBottle", 2),
        (ellipsoid([1, 2, 3]), "SphereTimesCircle", 3),
        (ellipsoid([1, 1, 1, 1]), "SphereTimesCircle", 4),
        (ellipsoid([1, 1, 1]), "KleinBottle", 3),
        (sphere_cone(3), "SphereTimesTorus", 3),
        (sphere_cone(5), "SphereTimesTorus", 5),
        (sphere_cone(4), "KleinTimesCircle", 4),
        (ellipsoid_cone(), "KleinTimesCircle", 3),
        (klein_bottle_cone(), "KleinBottle", 2),
        (weighted_cone([1, 1, 2]), "SphereTimesCircle", 2),
        (clifford_cone(3), "Torus", 2),
        (product_torus([1.0, 2.0]), "Torus", 2),
        (circle(1.0), "Torus", 1),
    ],
)
def test_classification_table(system, kind, dim):
    label = classify_quotient(system)
    assert label.kind == kind
    assert label.dim == dim


def test_classification_unknown_outside_families():
    from qlag import QuadricSystem

    odd = QuadricSystem([[1, 1], [1, -1], [2, 1], [1, 3]], [1.0, 2.0])
    assert classify_quotient(odd).kind == "Unknown"
