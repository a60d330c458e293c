"""The array collision scan and the table-driven sign reads against the
per-pair and per-parity loops they replace, kept here as references, and the
family recognizers and curve charts against frozen copies of the
sign-pattern tests they were built from."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qlag.immersion as immersion
import qlag.quotient as quotient
from qlag import catalog
from qlag.errors import ChartUnavailable, RankDeficient
from qlag.immersion import TWO_PI, chart_mesh, phi
from qlag.lattice import pairing_parity
from qlag.projective import fiber_phase_shifts
from qlag.quadric import QuadricSystem
from qlag.quotient import (
    UNKNOWN,
    TopologyLabel,
    classify_quotient,
    close_pairs,
    orientation_character,
    scan_samples,
    scan_self_intersections,
)
from qlag.torus import gamma_group, gamma_signs, torus_distance

CATALOG = {
    "ellipse": catalog.ellipse,
    "ellipse(1,1)": lambda: catalog.ellipse(1, 1),
    "ellipsoid([1,2,3])": lambda: catalog.ellipsoid([1, 2, 3]),
    "ellipsoid([1,1,1,1])": lambda: catalog.ellipsoid([1, 1, 1, 1]),
    "sphere_cone(3)": lambda: catalog.sphere_cone(3),
    "sphere_cone(4)": lambda: catalog.sphere_cone(4),
    "ellipsoid_cone": catalog.ellipsoid_cone,
    "klein_bottle_cone": catalog.klein_bottle_cone,
    "weighted_cone([1,1,2])": lambda: catalog.weighted_cone([1, 1, 2]),
    "weighted_cone([1,2,3])": lambda: catalog.weighted_cone([1, 2, 3]),
    "clifford_cone(2)": lambda: catalog.clifford_cone(2),
    "clifford_cone(3)": lambda: catalog.clifford_cone(3),
    "clifford_cone(5)": lambda: catalog.clifford_cone(5),
    "circle": catalog.circle,
    "product_torus([1,2])": lambda: catalog.product_torus([1, 2]),
}


# -- references: the loops the table and the array scan replace -------------------


def _reference_same_orbit(exponents, signs, shifts, p, q, tol):
    du = np.max(np.abs(signs * p[0] - q[0]), axis=-1)
    dy = torus_distance(exponents, p[1] + shifts - q[1])
    return bool(np.any((du <= tol) & (dy <= tol)))


def _reference_scan(system, U, Y, tol):
    """Hash cells of side tol, their 3^d neighbours, one pair at a time."""
    orbit_tol = np.sqrt(tol)
    group = gamma_group(system.exponents)
    signs = np.array([gamma_signs(system.exponents, g) for g in group])
    shifts = np.array([[float(x) for x in g] for g in group])
    images = phi(system, U, Y)
    flat = np.column_stack([images.real, images.imag])
    hash_dims = min(3, flat.shape[1])
    cells = {}
    keys = np.floor(flat[:, :hash_dims] / tol).astype(np.int64)
    for i, key in enumerate(map(tuple, keys)):
        cells.setdefault(key, []).append(i)
    offsets = list(itertools.product((-1, 0, 1), repeat=hash_dims))
    pairs, seen = [], set()
    for key, members in cells.items():
        candidates = []
        for off in offsets:
            candidates.extend(cells.get(tuple(k + o for k, o in zip(key, off)), ()))
        for i in members:
            for j in candidates:
                if j <= i or (i, j) in seen:
                    continue
                dist = float(np.max(np.abs(flat[i] - flat[j])))
                if dist >= tol:
                    continue
                seen.add((i, j))
                p, q = (U[i], Y[i]), (U[j], Y[j])
                if _reference_same_orbit(system.exponents, signs, shifts, p, q, orbit_tol):
                    continue
                min_u = float(min(np.min(np.abs(U[i])), np.min(np.abs(U[j]))))
                pairs.append((i, j, dist, min_u))
    pairs.sort(key=lambda p: p[:2])
    index = np.array([p[:2] for p in pairs], dtype=np.int64).reshape(-1, 2)
    dist = np.array([p[2] for p in pairs], dtype=float)
    min_u = np.array([p[3] for p in pairs], dtype=float)
    return index, dist, min_u


def _reference_fiber_shifts(system):
    shifts = []
    for gamma in gamma_group(system.exponents)[1:]:
        parities = [pairing_parity(gamma, row) for row in system.exponents.rows]
        if all(p == 1 for p in parities):
            shifts.append([float(x) for x in gamma])
    if not shifts:
        return np.zeros((0, system.codim))
    return np.array(shifts)


# -- frozen copies of the sign-pattern tests the recognizers and charts used
#    before quadric.definite and quadric.lone_sign read them once


def _single_equation_positive(system):
    if system.codim != 1:
        return False
    col = [r[0] for r in system.exponents.rows]
    d = system.constants[0]
    if d < 0:
        col, d = [-c for c in col], -d
    return d > 0 and all(c > 0 for c in col)


def _cone_signature(system):
    if system.codim != 1 or not system.is_cone():
        return None
    col = np.array([r[0] for r in system.exponents.rows])
    if np.sum(col < 0) == system.n - 1 and np.sum(col > 0) == 1:
        col = -col
    neg = np.nonzero(col < 0)[0]
    pos = np.nonzero(col > 0)[0]
    if len(neg) == 1 and len(pos) == system.n - 1:
        return int(neg[0])
    return None


def _sphere_cone_axis(system):
    if system.codim != 2 or system.n < 3:
        return None
    cols = [system.exponents.column(0), system.exponents.column(1)]
    ds = list(system.constants)
    pos_idx = cone_idx = None
    for idx in (0, 1):
        col, d = list(cols[idx]), ds[idx]
        if d < 0:
            col, d = [-c for c in col], -d
        if d > 0 and all(c > 0 for c in col):
            pos_idx = idx
        elif d == 0:
            cone_idx = idx
    if pos_idx is None or cone_idx is None:
        return None
    col = np.array(cols[cone_idx])
    if np.sum(col < 0) == system.n - 1:
        col = -col
    neg = np.nonzero(col < 0)[0]
    pos = np.nonzero(col > 0)[0]
    if len(neg) == 1 and len(pos) == system.n - 1:
        return int(neg[0])
    return None


def _is_diagonal_torus(system):
    if system.k != 0:
        return False
    E = system.matrix
    if not np.array_equal(E != 0, np.eye(system.n, dtype=bool)):
        return False
    diag = np.diag(E)
    return all(d / e > 0 for d, e in zip(system.constants, diag))


def _conic_parametrization(system):
    (a,), (b,) = system.exponents.rows
    d = system.constants[0]
    if d == 0 or a * d <= 0 or b * d <= 0:
        raise ChartUnavailable("surface charts need a compact conic (ellipse)")
    ra, rb = np.sqrt(d / a), np.sqrt(d / b)

    def point(t):
        ang = TWO_PI * np.asarray(t)
        return np.stack([ra * np.cos(ang), rb * np.sin(ang)], axis=-1)

    def velocity(t):
        ang = TWO_PI * np.asarray(t)
        return np.stack([-TWO_PI * ra * np.sin(ang), TWO_PI * rb * np.cos(ang)], axis=-1)

    return point, velocity


def _link_parametrization(system):
    if system.n != 3 or system.codim != 1 or not system.is_cone():
        raise ChartUnavailable("link charts are built for n=3 single-equation cones")
    coeffs = np.array([r[0] for r in system.exponents.rows], dtype=float)
    neg = np.nonzero(coeffs < 0)[0]
    pos = np.nonzero(coeffs > 0)[0]
    if len(neg) == 2 and len(pos) == 1:
        coeffs, neg, pos = -coeffs, pos, neg
    if len(neg) != 1 or len(pos) != 2:
        raise ChartUnavailable("cone must have signature (+,+,-) up to sign")
    l, (p, q) = neg[0], pos
    a, b, c = coeffs[p], coeffs[q], -coeffs[l]
    sp, sq = 1.0 / np.sqrt(1.0 + a / c), 1.0 / np.sqrt(1.0 + b / c)

    def point(t):
        ang = TWO_PI * np.asarray(t)
        up, uq = sp * np.cos(ang), sq * np.sin(ang)
        ul = np.sqrt((a * up * up + b * uq * uq) / c)
        u = np.zeros(np.shape(ang) + (3,))
        u[..., p], u[..., q], u[..., l] = up, uq, ul
        return u

    def velocity(t):
        ang = TWO_PI * np.asarray(t)
        up, uq = sp * np.cos(ang), sq * np.sin(ang)
        dup, duq = -TWO_PI * sp * np.sin(ang), TWO_PI * sq * np.cos(ang)
        ul = np.sqrt((a * up * up + b * uq * uq) / c)
        dul = (a * up * dup + b * uq * duq) / (c * ul)
        v = np.zeros(np.shape(ang) + (3,))
        v[..., p], v[..., q], v[..., l] = dup, duq, dul
        return v

    return point, velocity


def _parity_degree(system, gamma, indices):
    sign = 1
    for i in indices:
        if pairing_parity(gamma, system.exponents.rows[i]) == 1:
            sign = -sign
    return sign


def _reference_character(system, gamma):
    if _single_equation_positive(system) or _is_diagonal_torus(system):
        return _parity_degree(system, gamma, range(system.n))
    axis = _sphere_cone_axis(system)
    if axis is None:
        return None
    return _parity_degree(system, gamma, [i for i in range(system.n) if i != axis])


def _characters_per_element(system):
    """orientation_character as the per-element list the reference gives:
    one None per group element for an unsupported family."""
    chars = orientation_character(system)
    return [None] * len(gamma_group(system.exponents)) if chars is None else list(chars)


def _reference_classify(system):
    n = system.n
    group = gamma_group(system.exponents)
    if _is_diagonal_torus(system):
        return TopologyLabel("Torus", n, "T^%d" % n)
    if _single_equation_positive(system):
        if _reference_character(system, group[1]) == 1:
            return TopologyLabel("SphereTimesCircle", n, f"S^{n-1} x S^1")
        return TopologyLabel("KleinBottle", n, f"K^{n}")
    if system.is_cone() and system.k == 1:
        return TopologyLabel("Torus", n - 1, f"T^{n-1} (projective)")
    axis = _sphere_cone_axis(system)
    if axis is not None:
        for gamma in group[1:]:
            if pairing_parity(gamma, system.exponents.rows[axis]) == 0:
                if _reference_character(system, gamma) == 1:
                    return TopologyLabel("SphereTimesTorus", n, f"S^{n-2} x S^1 x S^1")
                return TopologyLabel("KleinTimesCircle", n, f"K^{n-1} x S^1")
        return UNKNOWN
    cone_axis = _cone_signature(system)
    if cone_axis is not None:
        signs = gamma_signs(system.exponents, group[1])
        normalized = signs * signs[cone_axis]
        char = 1
        for i in range(n):
            if i != cone_axis and normalized[i] < 0:
                char = -char
        if char == 1:
            return TopologyLabel("SphereTimesCircle", n - 1, f"S^{n-2} x S^1 (projective)")
        return TopologyLabel("KleinBottle", n - 1, f"K^{n-1} (projective)")
    return UNKNOWN


# -- comparisons on the catalog -----------------------------------------------------


# (sample count, seed) per tolerance
SCAN_SETS = {1e-8: [(384, 0), (600, 27)], 1e-6: [(384, 27)]}
# instances whose scans report pairs, so the comparison covers them: the
# ellipse's identified circles.  The cones' strata hold no apex points, so
# they report none
NONEMPTY = {(1e-8, "ellipse"), (1e-6, "ellipse")}


@pytest.mark.parametrize("tol", sorted(SCAN_SETS))
@pytest.mark.parametrize("name", sorted(CATALOG))
def test_scan_equals_the_reference_scan(name, tol):
    system = CATALOG[name]()
    for count, seed in SCAN_SETS[tol]:
        U, Y = scan_samples(system, count, seed=seed)
        report = scan_self_intersections(system, U, Y, tol=tol)
        index, dist, min_u = _reference_scan(system, U, Y, tol)
        assert report.pairs.dtype == np.int64 and report.pairs.shape == index.shape
        assert np.array_equal(report.pairs, index)
        assert np.array_equal(report.image_distance, dist)
        assert np.array_equal(report.min_abs_u, min_u)
        assert (report.sample_count, report.tolerance) == (len(U), tol)
        assert len(report) == len(report.pairs) == len(index)
        assert len(report) > 0 or (tol, name) not in NONEMPTY


@pytest.mark.parametrize("make", [
    catalog.ellipse,
    lambda: catalog.ellipsoid([1, 2, 3]),
    lambda: catalog.sphere_cone(5),
    lambda: catalog.ellipse(2, 3, 2),
], ids=["ellipse", "ellipsoid([1,2,3])", "sphere_cone(5)", "ellipse(2,3,2)"])
def test_scan_samples_meet_the_quadrics_to_rounding(make):
    # stratum points and their mirrors are exact draws, deduplicated as they
    # are, not rounded to a 1e-9 grid
    system = make()
    U, _ = scan_samples(system, 480, seed=5)
    scale = (U * U) @ np.abs(system.matrix) + np.abs(np.array(system.constants))
    assert np.max(np.abs(system.residual(U)) / scale) <= 1e-14
    assert np.any(U == 0.0)


# (system, scan sample count): 160 and 1,920 close pairs, which blocks of 7
# and 409 cut with a ragged last one
BLOCK_SCANS = {"ellipse": (catalog.ellipse, 384),
               "ellipse(2,3)": (lambda: catalog.ellipse(2, 3), 2400)}


@pytest.mark.parametrize("name, tol, block", [("ellipse", 1e-8, 7), ("ellipse(2,3)", 1e-6, 409)])
def test_scan_blocks_do_not_change_the_report(name, tol, block, monkeypatch):
    make, count = BLOCK_SCANS[name]
    system = make()
    U, Y = scan_samples(system, count, seed=27)
    whole = scan_self_intersections(system, U, Y, tol=tol)
    sizes = []
    real_same_orbit = quotient.same_orbit

    def recorded(system, p, q, tol):
        sizes.append(len(p[0]))
        return real_same_orbit(system, p, q, tol)

    monkeypatch.setattr(quotient, "SCAN_BLOCK", block)
    monkeypatch.setattr(quotient, "same_orbit", recorded)
    blocked = scan_self_intersections(system, U, Y, tol=tol)
    assert len(sizes) > 2 and max(sizes) == block
    assert sum(sizes) > len(blocked) > 0  # both translates and strangers seen
    for field in ("pairs", "image_distance", "min_abs_u"):
        assert np.array_equal(getattr(blocked, field), getattr(whole, field))


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_sign_reads_equal_the_parity_loops(name):
    system = CATALOG[name]()
    assert classify_quotient(system) == _reference_classify(system)
    chars = _characters_per_element(system)
    assert chars == [_reference_character(system, g) for g in gamma_group(system.exponents)]
    assert all(char is None or type(char) is int for char in chars)
    if system.is_cone():
        shifts = fiber_phase_shifts(system)
        expected = _reference_fiber_shifts(system)
        assert shifts.shape == expected.shape and np.array_equal(shifts, expected)


# -- the recognizers and curve charts on an exhaustive grid of small systems ----------

CONSTANTS = (-1.0, 0.0, 1.0)


def _grid(block):
    """Single equations with columns over {-2..2}^n for n = 2, 3, 4, or
    (block "pairs") n = 3 pairs of equations with columns over {-1, 0, 1, 2}^3;
    every constant in {-1, 0, 1}.  Rank-deficient exponents are skipped."""
    if block == "pairs":
        columns = list(itertools.product((-1, 0, 1, 2), repeat=3))
        shapes = [(list(zip(a, b)), list(d)) for a in columns for b in columns
                  for d in itertools.product(CONSTANTS, repeat=2)]
    else:
        shapes = [([[c] for c in column], [d])
                  for column in itertools.product(range(-2, 3), repeat=block)
                  for d in CONSTANTS]
    systems = []
    for rows, constants in shapes:
        try:
            systems.append(QuadricSystem(rows, constants))
        except RankDeficient:
            pass
    return systems


def _outcome(fn):
    """fn's result, or its exception type and message."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001  the message is what is compared
        return type(exc).__name__, str(exc)


def _chart_meshes(systems):
    return [(_outcome(lambda: chart_mesh(s, 8)), _outcome(lambda: chart_mesh(s, 8, on_link=True)))
            for s in systems]


def _same_mesh(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    return all(np.array_equal(getattr(a, f), getattr(b, f)) for f in
               ("shape", "spacings", "periodic", "metric", "angle_gradient", "volume"))


@pytest.mark.parametrize("block", [2, 3, 4, "pairs"])
def test_recognizers_equal_the_frozen_sign_tests(block, monkeypatch):
    systems = _grid(block)
    assert len(systems) == {2: 72, 3: 372, 4: 1872, "pairs": 34668}[block]
    for system in systems:
        assert classify_quotient(system) == _reference_classify(system)
        assert _characters_per_element(system) == [
            _reference_character(system, g) for g in gamma_group(system.exponents)
        ]
    meshes = _chart_meshes(systems)
    monkeypatch.setattr(immersion, "_conic_parametrization", _conic_parametrization)
    monkeypatch.setattr(immersion, "_link_parametrization", _link_parametrization)
    for system, got, expected in zip(systems, meshes, _chart_meshes(systems)):
        assert _same_mesh(got[0], expected[0]) and _same_mesh(got[1], expected[1]), system


def test_scan_with_zero_tolerance_reports_nothing():
    system = catalog.ellipse()
    U, Y = scan_samples(system, 200, seed=3)
    assert len(scan_self_intersections(system, U, Y, tol=0.0)) == 0


# -- the candidate search against brute force -----------------------------------------


def _brute_force_pairs(points, tol):
    N = len(points)
    i, j = np.triu_indices(N, 1)
    near = np.max(np.abs(points[i] - points[j]), axis=1) < tol
    return i[near], j[near]


@st.composite
def clustered_clouds(draw):
    dim = draw(st.integers(1, 6))
    tol = draw(st.sampled_from([1e-8, 1e-5, 0.01, 0.37]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centers = rng.uniform(-2.0, 2.0, size=(draw(st.integers(1, 6)), dim))
    spread = draw(st.sampled_from([0.5, 2.0, 6.0])) * tol
    cloud = centers[rng.integers(len(centers), size=draw(st.integers(0, 60)))]
    cloud = cloud + rng.uniform(-spread, spread, size=cloud.shape)
    # pairs at tol * (1 - 2^-k) along one axis, the first point on a cell
    # boundary of either grid or just below it
    straddle = []
    for _ in range(draw(st.integers(0, 8))):
        k = draw(st.integers(1, 40))
        axis = draw(st.integers(0, dim - 1))
        base = rng.uniform(-2.0, 2.0, size=dim)
        cell = np.floor(base[axis] / (3 * tol))
        base[axis] = (cell + draw(st.sampled_from([0.0, 0.5]))) * 3 * tol
        base[axis] -= draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])) * tol
        partner = base.copy()
        partner[axis] += tol * (1 - 2.0**-k)
        straddle += [base, partner]
    points = np.vstack([cloud, np.reshape(straddle, (-1, dim))])
    return rng.permutation(points), tol


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(clustered_clouds())
def test_close_pairs_equal_the_brute_force_search(cloud):
    points, tol = cloud
    i, j, dist = close_pairs(points, tol)
    bi, bj = _brute_force_pairs(points, tol)
    assert np.array_equal(i, bi) and np.array_equal(j, bj)
    assert np.array_equal(dist, np.max(np.abs(points[i] - points[j]), axis=1))
