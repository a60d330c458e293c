"""The batched group action: one cached sign/translation table, orbits and
distinctness over (|G|, N) arrays, and the nearest-period torus distance."""

import itertools
from fractions import Fraction as F
from unittest import mock

import numpy as np
import pytest

import qlag.quotient
from qlag.catalog import (
    clifford_cone,
    ellipse,
    ellipsoid_cone,
    klein_bottle_cone,
    product_torus,
    sphere_cone,
)
from qlag.errors import CrossCheckFailed, NonFreeWitness
from qlag.immersion import phi, sample_immersion
from qlag.quotient import (
    orbit,
    orbit_distinctness,
    same_orbit,
    scan_samples,
    scan_self_intersections,
)
from qlag.torus import (
    action_table,
    gamma_group,
    gamma_signs,
    torus_box,
    torus_distance,
)

ORBIT_SYSTEMS = [ellipse, lambda: sphere_cone(3), lambda: clifford_cone(5)]


# -- nearest-period distance ------------------------------------------------------


def _brute_force_distance(exponents, dy, reach=8):
    box = torus_box(exponents)
    m = box.shape[0]
    ks = np.array(list(itertools.product(range(-reach, reach + 1), repeat=m)), float)
    return np.sqrt((((dy[:, None, :] - ks @ box) ** 2).sum(-1))).min(axis=1)


@pytest.mark.parametrize("system", [sphere_cone(3), ellipsoid_cone()])
def test_torus_distance_matches_brute_force_on_skewed_box(system):
    box = torus_box(system.exponents)
    assert np.count_nonzero(box - np.diag(np.diag(box)))  # skewed
    dy = np.random.default_rng(11).uniform(-3.0, 3.0, size=(2000, 2))
    exact = _brute_force_distance(system.exponents, dy)
    np.testing.assert_allclose(torus_distance(system.exponents, dy), exact, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "system", [ellipse(), sphere_cone(3), clifford_cone(3), klein_bottle_cone()]
)
def test_torus_distance_batches_over_leading_axes(system):
    m = torus_box(system.exponents).shape[0]
    dy = np.random.default_rng(3).uniform(-3.0, 3.0, size=(4, 5, m))
    batched = torus_distance(system.exponents, dy)
    assert batched.shape == (4, 5)
    rows = [torus_distance(system.exponents, row) for row in dy]
    assert np.array_equal(batched, np.array(rows))


def test_torus_distance_on_rectangular_boxes_is_the_rounding_distance():
    for system in (ellipse(), clifford_cone(5), product_torus([1.0, 2.0])):
        box = torus_box(system.exponents)
        dy = np.random.default_rng(5).uniform(-3.0, 3.0, size=(500, box.shape[0]))
        exact = _brute_force_distance(system.exponents, dy, reach=3)
        np.testing.assert_allclose(torus_distance(system.exponents, dy), exact, atol=1e-12)


# -- batched orbits ---------------------------------------------------------------


@pytest.mark.parametrize("make", ORBIT_SYSTEMS)
def test_batched_orbit_rows_equal_single_calls(make, blockwise):
    system = make()
    U, Y = sample_immersion(system, 30, seed=9)
    batch = orbit(system, U, Y)
    assert len(batch) == len(gamma_group(system.exponents))
    assert all(bu.shape == (len(U), system.n) for bu, _ in batch)

    def translates(rows):
        return tuple(np.stack(part, axis=1) for part in zip(*orbit(system, U[rows], Y[rows])))

    blockwise(translates, len(U), seed=9)


def _apply_gamma(system, gamma, u, y):
    """The reference action of one representative, without the cached table:
    exact sign flips on u and the translation on y."""
    signs = gamma_signs(system.exponents, gamma)
    return signs * np.asarray(u, dtype=float), np.asarray(y, dtype=float) + _shift(gamma)


@pytest.mark.parametrize("make", ORBIT_SYSTEMS)
def test_single_orbit_equals_apply_gamma(make):
    system = make()
    U, Y = sample_immersion(system, 3, seed=4)
    for gamma, (gu, gy) in zip(gamma_group(system.exponents), orbit(system, U, Y)):
        au, ay = _apply_gamma(system, gamma, U, Y)
        assert np.array_equal(gu, au) and np.array_equal(gy, ay)


def test_orbit_distinctness_takes_arrays_and_empty_batches():
    system = ellipsoid_cone()
    U, Y = sample_immersion(system, 40, seed=2)
    assert orbit_distinctness(system, (U, Y)) == 4
    assert orbit_distinctness(system, (U[:0], Y[:0])) == 4


def _shift(gamma):
    """The translation of one representative, as floats."""
    return np.array([float(x) for x in gamma])


def _fake_table(system, group, signs=gamma_signs):
    """An action table built from a fake group, a plain tuple of
    representatives, and a sign function."""
    return (
        np.array([signs(system.exponents, g) for g in group]),
        np.array([_shift(g) for g in group]),
    )


def _negated(exponents, gamma):
    return -gamma_signs(exponents, gamma)


def _per_sample_error(system, U, Y, tol=1e-9):
    """The error of the per-sample loop: one orbit call per one-row batch."""
    for s in range(len(U)):
        try:
            orbit(system, U[s:s + 1], Y[s:s + 1], tol=tol)
        except (NonFreeWitness, CrossCheckFailed) as exc:
            return type(exc), str(exc)
    return None


def test_duplicate_representative_names_the_first_sample_and_pair():
    system = ellipse()
    U, Y = sample_immersion(system, 20, seed=1)
    fake = ((F(1),), (F(0),), (F(1),))
    with mock.patch("qlag.quotient.action_table", return_value=_fake_table(system, fake)):
        expected = _per_sample_error(system, U, Y)
        assert expected == (NonFreeWitness, "orbit points 0 and 2 coincide within 1e-09")
        with pytest.raises(NonFreeWitness) as exc:
            orbit_distinctness(system, (U, Y))
    assert str(exc.value) == expected[1]


def test_negated_sign_table_raises_the_per_sample_message():
    system = sphere_cone(3)
    U, Y = sample_immersion(system, 20, seed=1)
    table = _fake_table(system, gamma_group(system.exponents), _negated)
    with mock.patch("qlag.quotient.action_table", return_value=table):
        expected = _per_sample_error(system, U, Y)
        assert expected == (CrossCheckFailed, "orbit point 0 leaves the immersion image")
        with pytest.raises(CrossCheckFailed) as exc:
            orbit_distinctness(system, (U, Y))
    assert str(exc.value) == expected[1]


def test_errors_follow_the_order_of_the_per_sample_loop():
    system = ellipse()
    U, Y = sample_immersion(system, 6, seed=6)
    duplicate = ((F(0),), (F(1),), (F(1),))
    # u = 0 keeps every image, so sample 0 fails only at pair (1, 2), while
    # every later sample fails earlier in its own loop, at image 0
    U0, Y0 = np.vstack([np.zeros((1, 2)), U]), np.vstack([Y[:1], Y])
    table = _fake_table(system, duplicate, _negated)
    with mock.patch("qlag.quotient.action_table", return_value=table):
        for batch, message in [
            ((U0, Y0), "orbit points 1 and 2 coincide within 1e-09"),
            ((U0[1:], Y0[1:]), "orbit point 0 leaves the immersion image"),
        ]:
            expected = _per_sample_error(system, *batch)
            assert expected[1] == message
            with pytest.raises(expected[0]) as exc:
                orbit_distinctness(system, batch)
            assert str(exc.value) == message

    # within one sample, pair (0, 1) comes before image 2
    tail = ((F(0),), (F(0),), (F(1),))

    def flip_last(exponents, gamma):
        signs = gamma_signs(exponents, gamma)
        return -signs if gamma == (F(1),) else signs

    table = _fake_table(system, tail, flip_last)
    with mock.patch("qlag.quotient.action_table", return_value=table):
        message = "orbit points 0 and 1 coincide within 1e-09"
        assert _per_sample_error(system, U, Y) == (NonFreeWitness, message)
        with pytest.raises(NonFreeWitness) as exc:
            orbit_distinctness(system, (U, Y))
        assert str(exc.value) == message


def test_orbit_distinctness_makes_no_per_sample_calls():
    system = clifford_cone(5)
    counts = {}
    for n in (10, 50):
        U, Y = sample_immersion(system, n, seed=3)
        seen = {"action_table": 0, "phi": 0, "torus_distance": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                seen[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        with mock.patch(
            "qlag.quotient.action_table", counted("action_table", qlag.quotient.action_table)
        ), mock.patch("qlag.quotient.phi", counted("phi", qlag.quotient.phi)), mock.patch(
            "qlag.quotient.torus_distance",
            counted("torus_distance", qlag.quotient.torus_distance),
        ):
            assert orbit_distinctness(system, (U, Y)) == 16
        counts[n] = seen
    assert counts[10] == counts[50]
    # one translate-distance table per orbit call, not one call per image
    assert counts[10]["action_table"] == counts[10]["torus_distance"] == 1


# -- collision scan -----------------------------------------------------------------


def _in_same_orbit_loop(system, p, q, tol):
    """The reference for one-row batches p and q: one translate at a time."""
    for gamma in gamma_group(system.exponents):
        gu, gy = _apply_gamma(system, gamma, *p)
        if np.max(np.abs(gu - q[0])) <= tol and torus_distance(system.exponents, gy - q[1]) <= tol:
            return True
    return False


@pytest.mark.parametrize("make", ORBIT_SYSTEMS)
def test_in_same_orbit_matches_the_per_translate_loop(make):
    system = make()
    rng = np.random.default_rng(8)
    U, Y = sample_immersion(system, 12, seed=8)
    decisions = []
    for s, gamma in enumerate(rng.choice(len(gamma_group(system.exponents)), 12)):
        p = U[s:s + 1], Y[s:s + 1]  # one-row batches
        gu, gy = _apply_gamma(system, gamma_group(system.exponents)[gamma], *p)
        period = torus_box(system.exponents)[0]
        for q in [(gu, gy + period), (gu, gy + 0.5 * period), (gu + 3e-6, gy - 2e-6)]:
            got = bool(same_orbit(system, p, q)[0])
            assert got == _in_same_orbit_loop(system, p, q, 1e-5)
            decisions.append(got)
    assert any(decisions) and not all(decisions)


def test_scan_images_equal_the_per_sample_immersion():
    system = ellipse()
    U, Y = scan_samples(system, 300, seed=3)
    images = phi(system, U, Y)
    single = np.array([phi(system, u, y) for u, y in zip(U, Y)])
    assert np.array_equal(images, single)
    report = scan_self_intersections(system, U, Y)
    assert len(report) > 0


@pytest.mark.parametrize("make", ORBIT_SYSTEMS)
def test_action_table_is_cached_and_read_only(make):
    system = make()
    signs, shifts = action_table(system.exponents)
    assert action_table(make().exponents)[0] is signs
    assert not signs.flags.writeable and not shifts.flags.writeable
    group = gamma_group(system.exponents)
    assert np.array_equal(signs, [gamma_signs(system.exponents, g) for g in group])
    assert np.array_equal(shifts, [_shift(g) for g in group])


@pytest.mark.parametrize("make", ORBIT_SYSTEMS)
def test_batched_same_orbit_equals_single_calls(make, blockwise):
    system = make()
    U, Y = sample_immersion(system, 24, seed=5)
    TU, TY = orbit(system, U, Y)[-1]
    odd = (np.arange(24) % 2 == 1)[:, None]  # odd rows: a translate of another sample
    V, Z = np.where(odd, np.roll(TU, 1, axis=0), TU), np.where(odd, np.roll(TY, 1, axis=0), TY)
    batched = same_orbit(system, (U, Y), (V, Z))
    assert batched.dtype == bool and batched.any() and not batched.all()
    blockwise(lambda rows: (same_orbit(system, (U[rows], Y[rows]), (V[rows], Z[rows])),),
              len(U), seed=5)
