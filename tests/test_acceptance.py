"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
verdicts.  Tolerances are pinned here and never loosened at runtime.
"""

from dataclasses import replace
from fractions import Fraction as F

import numpy as np

from qlag import (
    LatticeBasis,
    classify_quotient,
    dual_basis,
    frame_at,
    gamma_representatives,
    lattice_basis_from_generators,
    mean_curvature,
    mean_curvature_fd,
    sample_immersion,
)
from qlag.catalog import (
    ellipse,
    ellipsoid,
    ellipsoid_cone,
    klein_bottle_cone,
    product_torus,
    sphere_cone,
    weighted_cone,
)
from qlag.immersion import (
    TrigPolynomial,
    gradient_graph_variation,
    hamiltonian_variation,
    harmonicity_defect,
    random_trig_polynomial,
)
from qlag.meshing import build_surface_mesh
from qlag.projective import projective_mean_curvature, submersion_isometry_defect
from qlag.quadric import orthonormalize
from qlag.pipeline import InstanceConfig, run_analyze
from qlag.quotient import (
    orbit_distinctness,
    scan_samples,
    scan_self_intersections,
)


def _verdict(criterion: str, ok: bool, detail: str = "") -> bool:
    mark = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {mark}{suffix}")
    return ok


# -- 1 ---------------------------------------------------------------------


def test_criterion_1_lattice_exactness():
    checks = []
    # weighted circle: basis, dual and group order all unit/Z_2
    basis = lattice_basis_from_generators(ellipse().exponents)
    dual = dual_basis(basis)
    group = gamma_representatives(dual)
    checks.append(basis.rows == ((F(1),),))
    checks.append(dual.rows == ((F(1),),))
    checks.append(len(group) == 2)

    # sphere&cone: the hand basis {(1,1),(1,-1)} dualizes to the half-sum
    # vectors exactly, and the canonical basis generates the same lattice
    hand = LatticeBasis([[1, 1], [1, -1]])
    hand_dual = dual_basis(hand)
    checks.append(
        hand_dual.rows == ((F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2)))
    )
    canonical = lattice_basis_from_generators(sphere_cone(3).exponents)
    canonical_dual = dual_basis(canonical)
    checks.append(all(canonical_dual.contains(r) for r in hand_dual.rows))
    checks.append(all(hand_dual.contains(r) for r in canonical_dual.rows))
    checks.append(len(gamma_representatives(canonical_dual)) == 4)

    # balanced cone: unit lattice again
    cone_basis = lattice_basis_from_generators(klein_bottle_cone().exponents)
    checks.append(cone_basis.rows == ((F(1),),))
    checks.append(dual_basis(cone_basis).rows == ((F(1),),))
    checks.append(len(gamma_representatives(dual_basis(cone_basis))) == 2)

    assert _verdict("1 lattice exactness", all(checks))


# -- 2 ---------------------------------------------------------------------


FREENESS_FIXTURES = [
    ("weighted circle", ellipse()),
    ("ellipsoid(1,2,3)", ellipsoid([1, 2, 3])),
    ("sphere&cone n=3", sphere_cone(3)),
    ("sphere&cone n=4", sphere_cone(4)),
    ("ellipsoid&cone", ellipsoid_cone()),
    ("balanced cone", klein_bottle_cone()),
]


def test_criterion_2_freeness():
    ok = True
    for name, system in FREENESS_FIXTURES:
        # the report's lattice section: every nonzero class flips a coordinate
        config = InstanceConfig.from_dict({
            "n": system.n, "k": system.k, "rows": [list(r) for r in system.exponents.rows],
            "constants": list(system.constants), "sweeps": {},
        })
        section = run_analyze(config)["lattice"]
        witnesses = section["witnesses"]
        witnesses_ok = section["free_action"] is True and all(
            w["row"] is not None for w in witnesses
        )
        U, Y = sample_immersion(system, 1000, seed=20)
        size = orbit_distinctness(system, (U, Y), tol=1e-9)
        ok &= witnesses_ok and size == section["group_order"] == len(witnesses) + 1
    assert _verdict("2 free action + orbit distinctness (1000 samples/fixture)", ok)


# -- 3 ---------------------------------------------------------------------


LAGRANGIAN_FIXTURES = [
    ("weighted circle", ellipse()),
    ("ellipsoid(1,2,3)", ellipsoid([1, 2, 3])),
    ("sphere&cone n=4", sphere_cone(4)),
    ("balanced cone", klein_bottle_cone()),
]


def test_criterion_3_lagrangian_property():
    worst_defect = 0.0
    worst_cross = 0.0
    for name, system in LAGRANGIAN_FIXTURES:
        U, Y = sample_immersion(system, 1000, seed=21)
        fb = frame_at(system, U, Y)
        worst_defect = max(worst_defect, np.max(fb.symplectic_defect()))
        worst_cross = max(worst_cross, np.max(fb.cross_defect()))
    fb = frame_at(ellipse(), [[np.cos(0.4), np.sin(0.4) / np.sqrt(2)]], [[0.3]])
    rows = fb.rows.copy()
    rows[0, 1] = rows[0, 1] + 0.1j * rows[0, 0]
    control = replace(fb, rows=rows).symplectic_defect()[0]
    ok = worst_defect <= 1e-10 and worst_cross <= 1e-10 and control > 1e-2
    assert _verdict(
        "3 Lagrangian property (4000 samples)",
        ok,
        f"defect {worst_defect:.2e}, cross {worst_cross:.2e}, control {control:.2e}",
    )


# -- 4 ---------------------------------------------------------------------


def test_criterion_4_h_minimality():
    sys1 = ellipse()
    d64 = harmonicity_defect(sys1, 64)
    d128 = harmonicity_defect(sys1, 128)
    refine_ok = d128 <= max(d64 / 4.0, 1e-12)  # 4x drop or double-precision floor

    # the scheme itself is second order: known-Laplacian reference on a
    # conformal metric must drop by >= 3.5x per doubling
    from qlag.immersion import _central_diff

    errors = []
    for n in (32, 64):
        x, y = np.meshgrid(np.arange(n) / n, np.arange(n) / n, indexing="ij")
        phi_field = 0.3 * np.sin(2 * np.pi * x) * np.cos(2 * np.pi * y)
        conformal = np.exp(2.0 * phi_field)
        metric = np.zeros((n, n, 2, 2))
        metric[..., 0, 0] = conformal
        metric[..., 1, 1] = conformal
        s = np.sin(2 * np.pi * (x + 2 * y))
        exact = np.exp(-2.0 * phi_field) * (-20.0 * np.pi ** 2 * s)
        sqrtg = np.sqrt(np.linalg.det(metric))
        ginv = np.linalg.inv(metric)
        grads = [_central_diff(s, a, 1.0 / n, True) for a in range(2)]
        div = np.zeros((n, n))
        for a in range(2):
            flux = sqrtg * sum(ginv[..., a, b] * grads[b] for b in range(2))
            div += _central_diff(flux, a, 1.0 / n, True)
        errors.append(np.max(np.abs(div / sqrtg - exact)))
    order_ok = errors[1] <= errors[0] / 3.5

    variation_worst = 0.0
    for seed in range(5):
        f = random_trig_polynomial(2, seed=100 + seed)
        variation_worst = max(variation_worst, hamiltonian_variation(sys1, f, 48))
    control = gradient_graph_variation(
        0.05, TrigPolynomial(((1.0, (1, 1), 0.0), (0.7, (1, -1), 0.0))), 64
    )
    ok = (
        d64 <= 1e-6
        and refine_ok
        and order_ok
        and variation_worst <= 1e-4
        and control > 1e-2
    )
    assert _verdict(
        "4 H-minimality (harmonic angle + variation)",
        ok,
        f"defect64 {d64:.2e}, defect128 {d128:.2e}, order drop "
        f"{errors[0] / errors[1]:.1f}x, variation {variation_worst:.2e}",
    )


# -- 5 ---------------------------------------------------------------------


def test_criterion_5_minimality_iff_zero_sum():
    cone = klein_bottle_cone()
    Uc, Yc = sample_immersion(cone, 200, seed=22, u_floor=0.1)
    cone_worst = np.max(np.linalg.norm(mean_curvature_fd(cone, Uc, Yc), axis=-1))

    sys1 = ellipse()
    Ue, Ye = sample_immersion(sys1, 200, seed=23, u_floor=0.1)
    h_closed = mean_curvature(sys1, Ue, Ye)
    norm = np.linalg.norm(h_closed, axis=-1)
    match_worst = np.max(
        np.linalg.norm(h_closed - mean_curvature_fd(sys1, Ue, Ye), axis=-1) / (1.0 + norm)
    )
    norm_min = np.min(norm)
    ok = cone_worst <= 1e-4 and match_worst <= 1e-4 and norm_min > 0.1
    assert _verdict(
        "5 minimality iff zero row-sum (200 samples each)",
        ok,
        f"cone |H| {cone_worst:.2e}, route mismatch {match_worst:.2e}, "
        f"min |H| {norm_min:.2f}",
    )


# -- 6 ---------------------------------------------------------------------


def test_criterion_6_hopf_fubini_study_consistency():
    rng = np.random.default_rng(24)
    worst = 0.0
    for n in (2, 3):
        P, R = [], []
        for _ in range(500):
            p = rng.normal(size=n) + 1j * rng.normal(size=n)
            P.append(p / np.linalg.norm(p))
            R.append([rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(n - 1)])
        P = np.array(P)
        # horizontal: orthonormal off the fiber directions p and i p
        frames = orthonormalize(np.array(R), against=np.stack([P, 1j * P], axis=1))[0]
        worst = max(worst, np.max(submersion_isometry_defect(P, frames)))
    assert _verdict(
        "6 Hopf/Fubini-Study submersion identities (500 frames, n=2,3)",
        worst <= 1e-8,
        f"defect {worst:.2e}",
    )


# -- 7 ---------------------------------------------------------------------


def test_criterion_7_projective_minimality():
    matched = weighted_cone([1, 1, 2])
    Um, Ym = sample_immersion(matched, 100, seed=25, u_floor=0.1)
    matched_worst = np.max(projective_mean_curvature(matched, Um, Ym)[1])

    unmatched = weighted_cone([1, 1, 3])
    Uu, Yu = sample_immersion(unmatched, 20, seed=26, u_floor=0.1)
    unmatched_min = np.min(projective_mean_curvature(unmatched, Uu, Yu)[1])
    ok = matched_worst <= 1e-3 and unmatched_min > 1e-2
    assert _verdict(
        "7 projective minimality (matched vs unmatched weights)",
        ok,
        f"matched |H| {matched_worst:.2e}, unmatched min |H| {unmatched_min:.2e}",
    )


# -- 8 ---------------------------------------------------------------------


def test_criterion_8_self_intersection_localization():
    empty_ok = True
    for system in (sphere_cone(3), ellipsoid([1, 1, 1])):
        U, Y = scan_samples(system, 5000, seed=27)
        report = scan_self_intersections(system, U, Y, tol=1e-8)
        empty_ok &= len(report) == 0

    sys1 = ellipse()
    U, Y = scan_samples(sys1, 5000, seed=28)
    report = scan_self_intersections(sys1, U, Y, tol=1e-8)
    localized = len(report) > 0 and bool(np.all(report.min_abs_u < 1e-4))
    circle_pair = any(
        abs(U[a][0]) < 1e-9 and abs(U[b][0]) < 1e-9 and U[a][1] * U[b][1] < 0
        for a, b in report.pairs
    )
    ok = empty_ok and localized and circle_pair
    assert _verdict(
        "8 self-intersection localization (5000-sample scans)",
        ok,
        f"embedded scans empty {empty_ok}, circle pairs {len(report)}",
    )


# -- 9 ---------------------------------------------------------------------


def test_criterion_9_topology_labels_and_euler():
    labels_ok = (
        classify_quotient(ellipse()).kind == "KleinBottle"
        and classify_quotient(ellipsoid([1, 1, 1, 1])).kind == "SphereTimesCircle"
        and classify_quotient(sphere_cone(3)).kind == "SphereTimesTorus"
        and classify_quotient(ellipsoid_cone()).kind == "KleinTimesCircle"
    )
    mesh = build_surface_mesh(ellipse(), 128, 64)
    euler_ok = mesh.euler_characteristic() == 0 and mesh.is_closed()
    assert _verdict(
        "9 topology labels + mesh Euler characteristic",
        labels_ok and euler_ok,
        f"chi {mesh.euler_characteristic()}",
    )


# -- 10 --------------------------------------------------------------------


def test_criterion_10_product_torus():
    torus = product_torus([1.0, 0.5, 1.5])
    U, Y = sample_immersion(torus, 1000, seed=29)
    fb = frame_at(torus, U, Y)
    worst_defect = np.max(fb.symplectic_defect())
    worst_cross = np.max(fb.cross_defect())
    rows = fb.rows[:1].copy()
    rows[0, 1] = rows[0, 1] + 0.1j * rows[0, 0]
    control = replace(fb, rows=rows).symplectic_defect()[0]

    d24 = harmonicity_defect(torus, 24)
    d48 = harmonicity_defect(torus, 48)
    refine_ok = d48 <= max(d24 / 4.0, 1e-12)
    variation_worst = 0.0
    for seed in range(5):
        f = random_trig_polynomial(3, seed=200 + seed)
        variation_worst = max(variation_worst, hamiltonian_variation(torus, f, 24))
    ok = (
        worst_defect <= 1e-10
        and worst_cross <= 1e-10
        and control > 1e-2
        and d24 <= 1e-6
        and refine_ok
        and variation_worst <= 1e-4
    )
    assert _verdict(
        "10 product torus in C^3 (criteria 3 and 4 tolerances)",
        ok,
        f"defect {worst_defect:.2e}, harmonic {d24:.2e}, variation {variation_worst:.2e}",
    )
