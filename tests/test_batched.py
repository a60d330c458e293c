"""Batched (N, n) geometry: every sample-wise routine gives each row the
same bits however the batch is cut into blocks, one-row blocks included
(the finite-difference curvature oracles to rounding noise), Gauss-Newton
does for blocks of two rows or more, and the one Householder QR spans what
the loops it replaced spanned."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlag import immersion, pipeline, quadric
from qlag.catalog import (
    clifford_cone,
    ellipse,
    ellipsoid,
    klein_bottle_cone,
    product_torus,
    sphere_cone,
)
from qlag.errors import NoConvergence, SingularJacobian, SingularPoint
from qlag.immersion import (
    TWO_PI,
    frame_at,
    lagrangian_defect,
    measured_lagrangian_angle,
    phi,
    sample_immersion,
    torus_metric,
)
from qlag.projective import link_tangent_frame, projective_lagrangian_defect
from qlag.quadric import (
    householder,
    newton_project,
    sample_points,
    sample_stratum_points,
)
from qlag.quotient import orbit, same_orbit

SYSTEMS = {
    "ellipse": ellipse,
    "ellipsoid([1,2,3])": lambda: ellipsoid([1, 2, 3]),
    "sphere_cone(5)": lambda: sphere_cone(5),
    "klein_bottle_cone": klein_bottle_cone,
    "clifford_cone(5)": lambda: clifford_cone(5),
    "product_torus([1,2,3])": lambda: product_torus([1, 2, 3]),
}


def _frame_fields(system, U, Y):
    """Everything the frame pass gives per row, as a function of a block."""

    def fields(rows):
        fb = frame_at(system, U[rows], Y[rows])
        return (
            system.tangent_basis(U[rows]), fb.rows, fb.metric_y, fb.gram, fb.cross_defect(),
            fb.symplectic_defect(), lagrangian_defect(system, U[rows], Y[rows]),
            measured_lagrangian_angle(system, U[rows], Y[rows]), torus_metric(system, U[rows]),
        )

    return fields


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_batched_frames_equal_single_point_calls(name, blockwise):
    # one-row blocks are the single-point calls; FRAME_BLOCK and SCAN_BLOCK
    # cut the report's batches at other boundaries
    system = SYSTEMS[name]()
    U, Y = sample_immersion(system, 40, seed=21)
    blockwise(_frame_fields(system, U, Y), len(U), seed=1)

    def orbits(rows):
        translates = orbit(system, U[rows], Y[rows])
        return tuple(np.stack(part, axis=1) for part in zip(*translates))

    blockwise(orbits, len(U), seed=2)
    # odd rows are a translate of another sample, even rows their own
    TU, TY = orbit(system, U, Y)[-1]
    V, Z = TU.copy(), TY.copy()
    V[1::2], Z[1::2] = np.roll(TU, 1, axis=0)[1::2], np.roll(TY, 1, axis=0)[1::2]
    blockwise(lambda rows: (same_orbit(system, (U[rows], Y[rows]), (V[rows], Z[rows])),),
              len(U), seed=3)
    if system.is_cone():
        U, Y = sample_immersion(system, 40, seed=22, u_floor=0.05)
        blockwise(lambda rows: link_tangent_frame(system, U[rows], Y[rows]), len(U), seed=4)
        blockwise(lambda rows: (projective_lagrangian_defect(system, U[rows], Y[rows]),),
                  len(U), seed=5)


def _up_to_sign(basis, expected):
    """basis with each vector's sign flipped to agree with expected's."""
    return basis * np.sign(np.sum(basis * expected, axis=-1))[..., None]


def test_batch_mixing_seed_skip_paths(blockwise):
    # at [1, 0] the normal is e_1, whose reflector leaves e_2 alone; at
    # [0, 1/sqrt 2] it is along e_2 and its leading entry is 0, so the
    # reflector takes the + sign; a generic point takes neither path
    system = ellipse()
    generic = np.array([np.cos(0.7), np.sin(0.7) / np.sqrt(2.0)])
    U = np.array([[1.0, 0.0], generic, [0.0, 1.0 / np.sqrt(2.0)]])
    Y = np.array([[0.3], [1.1], [0.2]])
    basis = system.tangent_basis(U)
    assert np.allclose(_up_to_sign(basis[0], [[0.0, 1.0]]), [[0.0, 1.0]])
    assert np.allclose(_up_to_sign(basis[2], [[1.0, 0.0]]), [[1.0, 0.0]])
    blockwise(_frame_fields(system, U, Y), len(U))


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_tangent_basis_is_orthonormal_and_normal_to_rounding(name):
    # modified Gram-Schmidt over the standard seeds lost orthogonality to
    # cancellation (1.6e-14 on sphere_cone(5)); Householder QR does not
    system = SYSTEMS[name]()
    for seed in range(3):
        U = sample_points(system, 500, seed=seed)
        T = system.tangent_basis(U)
        normals = system.normals(U)
        unit = normals / np.sqrt(np.sum(normals * normals, axis=-1))[..., None]
        gram = np.sum(T[:, :, None, :] * T[:, None, :, :], axis=-1)
        assert np.max(np.abs(gram - np.eye(system.k)), initial=0.0) <= 1e-15
        pairs = np.sum(T[:, :, None, :] * unit[:, None, :, :], axis=-1)
        assert np.max(np.abs(pairs), initial=0.0) <= 1e-15


def test_batch_with_singular_sample_names_it():
    cone = klein_bottle_cone()
    U = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, -1.0, 1.0]])
    with pytest.raises(SingularPoint, match="sample 1"):
        cone.tangent_basis(U)
    with pytest.raises(SingularPoint):
        frame_at(cone, U, np.zeros((3, 1)))


def test_batch_smoothness_shapes():
    system = ellipse()
    U = np.array([[1.0, 0.0], [0.0, 0.0]])
    assert system.is_smooth_point(U).tolist() == [True, False]
    assert system.is_smooth_point(U[:0]).shape == (0,)


def test_torus_metric_error_is_relative_to_the_block():
    # the thin ellipse's metric entries are near 2e3, so rounding alone put
    # the absolute error at 1.1e-12 on this draw, over metric_block = 1e-12
    thin = quadric.QuadricSystem([[1], [200]], [1.0])
    U, Y = sample_immersion(thin, 1000, seed=3)
    closed = torus_metric(thin, U)
    metric = pipeline._frame_checks(thin, U, Y)[2]
    absolute = metric * np.max(np.abs(closed), axis=(-2, -1))
    assert np.max(absolute) > pipeline.VERIFY_TOLERANCES["metric_block"]
    assert np.max(metric) <= 1e-14


# -- the batched polytope draw against a per-point loop ------------------------------


@pytest.mark.parametrize(
    "name, count, seed, u_floor",
    [
        ("ellipse", 50, 0, None),
        ("ellipse", 7, 3, 0.5),
        ("klein_bottle_cone", 40, 1, 0.05),
        ("sphere_cone(5)", 30, 2, None),
        ("clifford_cone(5)", 25, 4, 0.1),
        ("ellipsoid([1,2,3])", 33, 5, 1e-6),
        # the benchmark workloads' sampler calls
        ("ellipse", 1000, 0, None),
        ("ellipse", 1000, 0, 0.05),
        ("klein_bottle_cone", 1000, 0, None),
        ("klein_bottle_cone", 1000, 0, 0.05),
        ("clifford_cone(5)", 96, 0, 1e-6),
        ("clifford_cone(5)", 231, 0, 1e-6),
        ("product_torus([1,2,3])", 120, 0, None),
        # small quotas, a quota of one, and floors up to 0.5 on the
        # ellipse, whose largest is 1/sqrt(3)
        ("ellipse", 20, 0, 0.1),
        ("sphere_cone(5)", 25, 3, 0.1),
        ("sphere_cone(5)", 1, 0, None),
        ("ellipse", 65, 0, 0.3),
    ],
)
def test_sampler_matches_per_point_loop(name, count, seed, u_floor, per_point_draw,
                                        monkeypatch):
    system = SYSTEMS[name]()
    floor = system.tolerances.u_floor if u_floor is None else u_floor
    expected = per_point_draw(system, count, seed, floor)

    def refuse(*args, **kwargs):
        raise AssertionError("the sampler projects nothing")

    monkeypatch.setattr(quadric, "newton_project", refuse)
    got = sample_points(system, count, seed=seed, u_floor=u_floor)
    assert got.shape == expected.shape == (count, system.n)
    # equal to rounding: the batched mix sums its vertices in a matrix
    # product, the loop one term at a time
    assert np.all(np.abs(got - expected) <= 4.0 * np.finfo(float).eps * np.abs(expected))
    assert np.all(np.sign(got) == np.sign(expected))
    assert np.min(np.abs(got)) > floor


def _reference_gauss_newton(system, guesses):
    """The masked loop Gauss-Newton ran before its lean rewrite: the active
    rows rebuilt from five full-batch arrays at every step, and each row's
    step from its own np.linalg.solve.  Returns the best iterate per row and
    per row None (converged) or the error newton_project raises for it."""
    tol, max_iter = system.tolerances.residual, quadric.MAX_ITER
    patience = 3
    u = np.array(guesses, dtype=float)
    best_u = u.copy()
    best = np.full(len(u), np.inf)
    stale = np.zeros(len(u), dtype=int)
    singular = np.zeros(len(u), dtype=bool)
    active = np.ones(len(u), dtype=bool)
    for it in range(max_iter + 1):
        r = system.residual(u)
        rmax = np.max(np.abs(r), axis=1)
        better = rmax < best
        np.copyto(best_u, u, where=better[:, None])
        np.copyto(best, rmax, where=better)
        stale = np.where(better, 0, stale + 1)
        active &= ~singular & ((best > tol) | (stale < patience))
        if it == max_iter or not active.any():
            break
        idx = np.nonzero(active)[0]
        J = 2.0 * system.normals(u[idx])
        JJt = J @ J.transpose(0, 2, 1)
        rhs = r[idx][:, :, None]
        steps = np.zeros_like(rhs)
        for b, i in enumerate(idx):
            try:
                steps[b] = np.linalg.solve(JJt[b], rhs[b])
            except np.linalg.LinAlgError:
                singular[i] = True
        delta = (J.transpose(0, 2, 1) @ steps)[:, :, 0]
        bad = ~np.all(np.isfinite(delta), axis=1)
        singular[idx[bad]] = True
        delta[bad] = 0.0
        u[idx] -= delta
    status = [None if b <= tol else SingularJacobian if s else NoConvergence
              for b, s in zip(best, singular)]
    return best_u, status


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_gauss_newton_matches_masked_solve_loop(name):
    # every value and sign bit of the rows the loop lets converge, at
    # magnitudes from 1e-150 to 1e150 and on rows that start at the origin,
    # on a stratum or at NaN; each other row, alone, raises the error that
    # matches the loop's verdict
    system = SYSTEMS[name]()
    rng = np.random.default_rng(8)
    guesses = rng.normal(size=(60, system.n))
    guesses[::2] *= 10.0 ** rng.uniform(-150.0, 150.0, size=(30, 1))
    guesses[::7, 0] = 0.0
    guesses[::11] = 0.0
    guesses[5, -1] = np.nan
    with np.errstate(all="ignore"):
        expected_points, status = _reference_gauss_newton(system, guesses)
        ok = np.array([s is None for s in status])
        assert 2 <= ok.sum() < len(ok)
        points = newton_project(system, guesses[ok])
        assert np.array_equal(points.view(np.int64), expected_points[ok].view(np.int64))
        for i in np.nonzero(~ok)[0]:
            with pytest.raises(status[i], match=rf"from row 0 \("):
                newton_project(system, guesses[i:i + 1])


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_gauss_newton_rows_independent_of_cuts_of_two_or_more(name):
    # Cuts of one row are the exception: the residual (u * u) @ E of a
    # (1, n) batch goes through a BLAS matrix-vector product, whose last bit
    # differs from the matrix-matrix one on about half the rows of
    # sphere_cone(5) and weighted_cone([1,1,1,3]).  The guesses lie within
    # 10 % of M, one in seven on a coordinate stratum of M where it has one.
    system = SYSTEMS[name]()
    rng = np.random.default_rng(5)
    guesses = sample_points(system, 96, seed=5, u_floor=0.01)
    strata = [pts for pts in sample_stratum_points(system, 14, seed=5) if len(pts)]
    if strata:
        guesses[::7] = strata[0]
    guesses *= rng.uniform(0.9, 1.1, size=guesses.shape)
    whole = newton_project(system, guesses)
    bounds = np.unique(np.r_[0, 96, rng.choice(np.arange(2, 95, 2), 12, replace=False)])
    for cuts in (np.arange(0, 97, 2), np.arange(0, 97, 3), bounds):
        parts = [newton_project(system, guesses[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
        assert np.array_equal(np.concatenate(parts).view(np.int64), whole.view(np.int64))


# -- one Gauss-Newton call per finite-difference stencil ------------------------------


def _count_newton(monkeypatch, *modules):
    """Shapes of the points passed to newton_project as bound in each module,
    in call order."""
    calls = []
    for module in modules:
        def counted(*args, original=module.newton_project, **kwargs):
            calls.append(np.shape(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "newton_project", counted)
    return calls


def test_curvature_oracles_project_each_stencil_in_one_call(monkeypatch):
    import qlag.immersion
    import qlag.projective
    from qlag.immersion import mean_curvature_fd
    from qlag.projective import projective_mean_curvature

    system = sphere_cone(5)  # dim 5 chart: a 1 + 10 + 40 point stencil
    calls = _count_newton(monkeypatch, qlag.immersion)
    U, Y = sample_immersion(system, 1, seed=4, u_floor=0.1)
    mean_curvature_fd(system, U, Y)
    assert calls == [(51, 5)]

    # the centres are projected in qlag.projective, the stencils by the
    # immersion chart the projective chart extends
    cone = klein_bottle_cone()  # dim 2 chart: the centre, then 1 + 4 + 4 points
    calls = _count_newton(monkeypatch, qlag.projective, qlag.immersion)
    U, Y = sample_immersion(cone, 1, seed=4, u_floor=0.1)
    projective_mean_curvature(cone, U, Y)
    assert calls == [(1, 3), (9, 3)]

    # N samples: every stencil of every sample in one call, and one call
    # for the projective centres
    calls = _count_newton(monkeypatch, qlag.immersion)
    U, Y = sample_immersion(system, 3, seed=4, u_floor=0.1)
    mean_curvature_fd(system, U, Y)
    assert calls == [(3 * 51, 5)]

    calls = _count_newton(monkeypatch, qlag.projective, qlag.immersion)
    U, Y = sample_immersion(cone, 4, seed=4, u_floor=0.1)
    projective_mean_curvature(cone, U, Y)
    assert calls == [(4, 3), (4 * 9, 3)]


def test_projective_oracle_makes_no_fs_hermitian_calls(monkeypatch):
    import qlag.projective
    from qlag.projective import projective_mean_curvature

    calls = []
    original = qlag.projective.fs_hermitian

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(qlag.projective, "fs_hermitian", counted)
    cone = clifford_cone(5)
    U, Y = sample_immersion(cone, 5, seed=2, u_floor=0.1)
    projective_mean_curvature(cone, U, Y)
    assert calls == []


# Oracles on differently cut batches can differ only where Gauss-Newton's
# batched arithmetic moves a stencil point in its last bits.  A second
# difference divides such a change by step^2, so ten ulps of a unit-size
# chart value become 10 * eps / step^2 (2.2e-5 at the default step 1e-5).
FD_NOISE = 10 * np.finfo(float).eps / 1e-5 ** 2


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_batched_oracles_equal_single_sample_calls(name, blockwise):
    from qlag.immersion import mean_curvature, mean_curvature_fd
    from qlag.projective import projective_angle_fiber_defect, projective_mean_curvature

    system = SYSTEMS[name]()
    U, Y = sample_immersion(system, 5, seed=6, u_floor=0.1)
    assert mean_curvature_fd(system, U, Y).shape == U.shape
    blockwise(lambda rows: (mean_curvature_fd(system, U[rows], Y[rows]),), len(U),
              noise=FD_NOISE)
    blockwise(lambda rows: (mean_curvature(system, U[rows], Y[rows]),), len(U), noise=1e-14)
    if not system.is_cone():
        return
    assert projective_mean_curvature(system, U, Y)[1].shape == (len(U),)
    blockwise(lambda rows: projective_mean_curvature(system, U[rows], Y[rows]), len(U),
              noise=FD_NOISE)
    # the fiber check is exact arithmetic on y, the same in any block
    blockwise(lambda rows: (projective_angle_fiber_defect(system, Y[rows]),), len(U))


# -- one orthonormalization: Householder against the loops it replaced ----------------


def _reference_normal_frame(rows):
    """Modified Gram-Schmidt over every row of full-rank frames."""
    out = np.zeros_like(rows)
    for a in range(rows.shape[1]):
        v = rows[:, a, :]
        for b in range(a):
            q = out[:, b, :]
            v = v - (q * v).sum(-1)[:, None] * q
        out[:, a, :] = v / np.sqrt((v * v).sum(-1))[:, None]
    return out


def _reference_link_frame(system, U, Y):
    """Radial projection, then every row against every output slot."""
    norm = np.linalg.norm(U, axis=-1)
    un = U / norm[:, None]
    p = phi(system, un, Y)
    rows = frame_at(system, un, Y).rows
    radial = p / np.linalg.norm(p, axis=-1)[:, None]
    N, n = p.shape
    cut = 1e-10 * np.maximum(1.0, 1.0 / (norm * norm))
    out = np.zeros((N, n - 1, n), dtype=complex)
    found = np.zeros(N, dtype=int)
    for r in np.moveaxis(rows, 1, 0):
        v = r - np.real(np.sum(r * np.conjugate(radial), axis=-1))[:, None] * radial
        for q in np.moveaxis(out, 1, 0):
            v = v - np.real(np.sum(v * np.conjugate(q), axis=-1))[:, None] * q
        nv = np.linalg.norm(v, axis=-1)
        keep = nv > cut
        put = np.nonzero(keep & (found < n - 1))[0]
        out[put, found[put]] = v[put] / nv[put, None]
        found += keep
    assert np.all(found == n - 1)
    return p, out


def _reference_measured_angle(rows):
    """One sample's frame rows, one row at a time.  Its 1-d np.linalg.norm
    sums Re^2 and Im^2 in two BLAS dots, where the batched norm sums |v_l|^2
    per entry, so a normalized row can differ in its last bit: the angles
    agree to ANGLE_NOISE, not bit for bit."""
    ortho = []
    for r in rows:
        v = r.copy()
        for q in ortho:
            v = v - np.real(np.sum(v * np.conjugate(q))) * q
        v = v / np.linalg.norm(v)
        ortho.append(v)
    return float(np.angle(np.linalg.det(np.array(ortho))) % TWO_PI)


def _reference_tangent_basis(system, u):
    """Classical Gram-Schmidt over the standard seeds, off the normal frame
    and then off the tangents found so far."""
    U = np.asarray(u, dtype=float)
    singular = np.nonzero(~system.is_smooth_point(U))[0]
    if len(singular):
        raise SingularPoint(
            f"normal frame rank < {system.codim} at sample {singular[0]} ({U[singular[0]]})"
        )
    N, n, k = len(U), system.n, system.k
    tangents = np.zeros((N, k, n))
    filled = np.zeros(N, dtype=int)
    frame = _reference_normal_frame(system.normals(U))
    for seed, e in enumerate(np.eye(n)):
        open_rows = filled < k
        if not open_rows.any():
            break
        v = e - (frame[:, :, seed, None] * frame).sum(1)
        v = v - ((tangents * v[:, None, :]).sum(-1)[:, :, None] * tangents).sum(1)
        norm = np.sqrt((v * v).sum(-1))
        take = np.nonzero(open_rows & (norm > 1e-8))[0]
        tangents[take, filled[take]] = v[take] / norm[take, None]
        filled[take] += 1
    short = np.nonzero(filled < k)[0]
    if len(short):
        raise SingularPoint(f"could not complete tangent basis at sample {short[0]}")
    return tangents


def _singular_point_message(fn, *args):
    with pytest.raises(SingularPoint) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_tangent_basis_equals_the_seed_loop_it_replaces(name):
    # the two routines pick different bases of the same tangent space, so
    # their projectors T^T T are compared; the seed loop loses
    # orthonormality to cancellation where a seed nearly lies in the span of
    # the normals and the tangents before it, so each sample's gap is
    # bounded by the reference's own orthonormality error
    system = SYSTEMS[name]()
    U = sample_points(system, 40, seed=33)
    basis, reference = system.tangent_basis(U), _reference_tangent_basis(system, U)
    assert basis.shape == reference.shape == (40, system.k, system.n)
    normal = _reference_normal_frame(system.normals(U))
    own_error = np.maximum(
        np.max(np.abs(reference @ np.swapaxes(normal, 1, 2)), axis=(1, 2), initial=0.0),
        np.max(np.abs(reference @ np.swapaxes(reference, 1, 2) - np.eye(system.k)),
               axis=(1, 2), initial=0.0),
    )
    projector = np.swapaxes(basis, 1, 2) @ basis
    gap = np.max(np.abs(projector - np.swapaxes(reference, 1, 2) @ reference), axis=(1, 2))
    assert np.all(gap <= 4.0 * (own_error + np.finfo(float).eps))
    if system.codim == 1:  # one normal: both projectors are I - n n^T to rounding
        assert np.max(gap, initial=0.0) <= 8.0 * np.finfo(float).eps


def test_tangent_basis_singular_messages_unchanged(monkeypatch):
    cone = klein_bottle_cone()
    U = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, -1.0, 1.0]])
    for u in (U, U[1:2]):
        assert _singular_point_message(cone.tangent_basis, u) == _singular_point_message(
            _reference_tangent_basis, cone, u
        )
    # normals gone non-finite at the last sample leave its basis short, with
    # the message the seed loop gave for a non-finite normal frame
    real = quadric.QuadricSystem.normals
    U = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    for bad in (np.nan, np.inf):
        def broken_normals(self, u, bad=bad):
            normals = real(self, u)
            normals[-1] = bad
            return normals

        monkeypatch.setattr(quadric.QuadricSystem, "normals", broken_normals)
        for u in (U, U[1:]):
            message = _singular_point_message(cone.tangent_basis, u)
            assert message == f"could not complete tangent basis at sample {len(u) - 1}"


ANGLE_NOISE = 4 * np.spacing(TWO_PI)


ROUNDING = 16 * np.finfo(float).eps


def _projector(frames):
    """Orthogonal projector onto the span of each slice's rows, real or
    complex rows read in R^n or R^(2n)."""
    if np.iscomplexobj(frames):
        frames = np.concatenate([frames.real, frames.imag], axis=-1)
    return np.swapaxes(frames, -2, -1) @ frames


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_orthonormalize_equals_the_loops_it_replaces(name):
    # Householder picks other bases than Gram-Schmidt did, of the same spans
    system = SYSTEMS[name]()
    U, Y = sample_immersion(system, 40, seed=31)
    normals = system.normals(U)
    span = householder(normals, complement=False)
    gap = _projector(span) - _projector(_reference_normal_frame(normals))
    assert np.max(np.abs(gap)) <= ROUNDING

    angles = measured_lagrangian_angle(system, U, Y)
    assert angles.shape == (len(U),)
    reference = [_reference_measured_angle(rows) for rows in frame_at(system, U, Y).rows]
    gap = (angles - reference + np.pi) % TWO_PI - np.pi
    assert np.max(np.abs(gap)) <= ANGLE_NOISE

    if system.is_cone():
        U, Y = sample_immersion(system, 40, seed=32, u_floor=0.05)
        p, frame = link_tangent_frame(system, U, Y)
        p_ref, frame_ref = _reference_link_frame(system, U, Y)
        assert np.array_equal(p, p_ref)
        assert np.max(np.abs(_projector(frame) - _projector(frame_ref))) <= ROUNDING
        flat = np.concatenate([frame.real, frame.imag], axis=-1)
        eye = np.eye(system.n - 1)
        assert np.max(np.abs(flat @ np.swapaxes(flat, 1, 2) - eye)) <= ROUNDING
        for fiber in (p, 1j * p):  # horizontal: Re<row, p> = Re<row, i p> = 0
            pairs = np.real(np.sum(frame * np.conjugate(fiber[:, None, :]), axis=-1))
            assert np.max(np.abs(pairs)) <= ROUNDING / 2


# -- one frame pass: each frame's Gram blocks built once ------------------------------


def test_frame_grams_built_once_per_block(monkeypatch):
    # the report's cn frame checks read every block, the torus block too, off
    # the one Hermitian Gram; a link frame and the measured angle build none
    calls = []
    pairings = immersion._pairings

    def counting_pairings(a, b):
        if np.iscomplexobj(a):  # torus_metric pairs real rows
            calls.append(a.shape[:-2])
        return pairings(a, b)

    monkeypatch.setattr(immersion, "_pairings", counting_pairings)
    monkeypatch.setattr(pipeline, "FRAME_BLOCK", 16)
    cone = clifford_cone(5)
    U, Y = sample_immersion(cone, 40, seed=41, u_floor=0.05)
    defects, cross, metric = pipeline._blockwise(pipeline._frame_checks, cone, U, Y)
    assert len(defects) == len(cross) == len(metric) == 40
    assert np.max(cross) <= 1e-10 and np.max(metric) <= 1e-12
    assert calls == [(16,), (16,), (8,)]  # one per block of 16, 16 and 8 samples
    del calls[:]
    link_tangent_frame(cone, U, Y)
    measured_lagrangian_angle(cone, U, Y)
    assert calls == []


# -- random batches -------------------------------------------------------------------


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 6), st.integers(0, 5),
       st.sampled_from([1e-300, 1e-160, 1.0, 1e200]))
def test_householder_spans_the_rows_and_their_complement(seed, N, n, drop, scale):
    # Q = [span; complement] is orthogonal, and the rows lie in the span to
    # rounding of their own size at any scale
    draw = np.random.default_rng(seed).normal(size=(N, max(n - drop, 1), n))
    rows, c = scale * draw, draw.shape[1]
    span, complement = householder(rows, complement=False), householder(rows, complement=True)
    assert span.shape == (N, c, n) and complement.shape == (N, n - c, n)
    q = np.concatenate([span, complement], axis=1)
    assert np.max(np.abs(q @ np.swapaxes(q, 1, 2) - np.eye(n))) <= ROUNDING
    unit = draw / np.sqrt(np.sum(draw * draw, axis=-1))[..., None]
    assert np.max(np.abs(complement @ np.swapaxes(unit, 1, 2)), initial=0.0) <= ROUNDING


def test_householder_refuses_only_a_zero_or_non_finite_column():
    # a subnormal column is scaled up exactly; the reflector's sign avoids
    # cancellation, so each row comes out as minus its unit vector
    rows = np.array([[[3.0, 4.0, 0.0]], [[1e-320, 0.0, 0.0]]])
    assert np.allclose(householder(rows, complement=False), [[[-0.6, -0.8, 0]], [[-1, 0, 0]]])
    for bad in (0.0, np.inf, np.nan):
        rows[1] = bad
        with pytest.raises(SingularPoint, match="could not complete tangent basis at sample 1"):
            householder(rows, complement=True)
