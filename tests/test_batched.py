"""Batched (N, n) geometry: every sample-wise routine gives each row the
same bits however the batch is cut into blocks, one-row blocks included
(the finite-difference curvature oracles to rounding noise), the masked
sampler reproduces the per-point accept loop, and the one Gram-Schmidt
reproduces the loops it replaced."""

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
from qlag.errors import SamplingExhausted, SingularPoint
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
from qlag.quadric import CONVERGED, QuadricSystem, gauss_newton, orthonormalize, sample_points
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
        per_row = max(projective_lagrangian_defect(system, U[i:i + 1], Y[i:i + 1])
                      for i in range(len(U)))
        assert projective_lagrangian_defect(system, U, Y) == per_row


def test_batch_mixing_seed_skip_paths(blockwise):
    # at [1, 0] the first seed e_1 is the normal direction and is dropped;
    # at a generic point it is kept
    system = ellipse()
    generic = np.array([np.cos(0.7), np.sin(0.7) / np.sqrt(2.0)])
    U = np.array([[1.0, 0.0], generic, [0.0, 1.0 / np.sqrt(2.0)]])
    Y = np.array([[0.3], [1.1], [0.2]])
    basis = system.tangent_basis(U)
    assert np.allclose(basis[0], [[0.0, 1.0]])
    assert np.allclose(basis[2], [[1.0, 0.0]])
    blockwise(_frame_fields(system, U, Y), len(U))


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
    assert system.smoothness_rank(U[:0]).shape == (0,)


# -- the masked sampler against the per-point accept loop ----------------------------


def _reference_sample(system, count, seed=0, u_floor=None):
    """The per-point accept loop over gauss_newton output."""
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
        points, status = gauss_newton(system, guesses)
        for p, good in zip(points, status == CONVERGED):
            if not good:
                rejected["diverged"] += 1
                continue
            if np.min(np.abs(p)) <= floor:
                rejected["near_axis"] += 1
                continue
            if np.linalg.norm(p) > tol.r_max:
                rejected["unbounded"] += 1
                continue
            if not system.is_smooth_point(p[None])[0]:
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


# -- one Gram-Schmidt: orthonormalize against the four loops it replaced -------------


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
    frame = quadric.orthonormalize(system.normals(U))[0]
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
    # the two loops round differently where a seed nearly lies in the span
    # of the normals and the tangents before it; there both lose
    # orthonormality to the cancellation, so each sample's gap is bounded
    # by the reference's own orthonormality error
    system = SYSTEMS[name]()
    U = sample_points(system, 40, seed=33)
    basis, reference = system.tangent_basis(U), _reference_tangent_basis(system, U)
    assert basis.shape == reference.shape == (40, system.k, system.n)
    normal = orthonormalize(system.normals(U))[0]
    own_error = np.maximum(
        np.max(np.abs(reference @ np.swapaxes(normal, 1, 2)), axis=(1, 2), initial=0.0),
        np.max(np.abs(reference @ np.swapaxes(reference, 1, 2) - np.eye(system.k)),
               axis=(1, 2), initial=0.0),
    )
    gap = np.max(np.abs(basis - reference), axis=(1, 2), initial=0.0)
    assert np.all(gap <= 4.0 * (own_error + np.finfo(float).eps))
    if system.codim == 1:  # one normal: the loops part only at the tangents
        assert np.max(gap, initial=0.0) <= 1e-15


def test_tangent_basis_singular_messages_unchanged(monkeypatch):
    cone = klein_bottle_cone()
    U = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, -1.0, 1.0]])
    for u in (U, U[1:2]):
        assert _singular_point_message(cone.tangent_basis, u) == _singular_point_message(
            _reference_tangent_basis, cone, u
        )
    # a normal frame gone non-finite at the last sample leaves its basis short
    real = quadric.orthonormalize

    def nan_normal_frame(rows, *args, **kwargs):
        frame, kept = real(rows, *args, **kwargs)
        if not args and not kwargs:
            frame = frame.copy()
            frame[-1] = np.nan
        return frame, kept

    monkeypatch.setattr(quadric, "orthonormalize", nan_normal_frame)
    U = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    for u in (U, U[1:]):
        message = _singular_point_message(cone.tangent_basis, u)
        assert message.startswith("could not complete tangent basis")
        assert message == _singular_point_message(_reference_tangent_basis, cone, u)


ANGLE_NOISE = 4 * np.spacing(TWO_PI)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_orthonormalize_equals_the_loops_it_replaces(name):
    system = SYSTEMS[name]()
    U, Y = sample_immersion(system, 40, seed=31)
    normals = system.normals(U)
    assert np.array_equal(orthonormalize(normals)[0], _reference_normal_frame(normals))

    angles = measured_lagrangian_angle(system, U, Y)
    assert angles.shape == (len(U),)
    reference = [_reference_measured_angle(rows) for rows in frame_at(system, U, Y).rows]
    gap = (angles - reference + np.pi) % TWO_PI - np.pi
    assert np.max(np.abs(gap)) <= ANGLE_NOISE

    if system.is_cone():
        U, Y = sample_immersion(system, 40, seed=32, u_floor=0.05)
        p, frame = link_tangent_frame(system, U, Y)
        p_ref, frame_ref = _reference_link_frame(system, U, Y)
        assert np.array_equal(p, p_ref) and np.array_equal(frame, frame_ref)


# -- one frame pass: each frame's Gram blocks built once ------------------------------


def test_frame_grams_built_once_per_block(monkeypatch):
    # the report's cn frame checks read the torus block frame_at checks and
    # the full Gram; a link frame, and the measured angle, only the torus block
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
    defects, cross, metric = pipeline._frame_checks(cone, U, Y)
    assert len(defects) == 40 and cross <= 1e-10 and metric <= 1e-12
    assert calls == [(16,)] * 4 + [(8,)] * 2  # two per block of 16, 16 and 8 samples
    del calls[:]
    link_tangent_frame(cone, U, Y)
    measured_lagrangian_angle(cone, U, Y)
    assert calls == [(40,)] * 2


# -- random batches -------------------------------------------------------------------


def _real_rank(rows, tol=1e-8):
    """Rank over R of complex or real rows, as vectors of R^(2n) or R^n."""
    flat = np.concatenate([rows.real, rows.imag], axis=-1) if np.iscomplexobj(rows) else rows
    return np.linalg.matrix_rank(flat, tol=tol) if len(flat) else 0


@st.composite
def batches(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex_rows = draw(st.booleans())
    N, s, n = draw(st.integers(1, 5)), draw(st.integers(1, 7)), draw(st.integers(2, 6))
    a = draw(st.integers(0, n - 1))

    def gauss(*shape):
        x = rng.normal(size=shape)
        return x + 1j * rng.normal(size=shape) if complex_rows else x

    rows = gauss(N, s, n)
    if s > 1 and draw(st.booleans()):
        # a duplicated row in the first slice: its residual is rounding noise
        rows[0, draw(st.integers(1, s - 1))] = rows[0, 0]
    # `against` rows orthonormal in Re<a, b>: QR in the real representation
    q = np.linalg.qr(rng.normal(size=(N, 2 * n if complex_rows else n, a)))[0]
    against = np.swapaxes(q[:, :n] + 1j * q[:, n:] if complex_rows else q, 1, 2)
    count = draw(st.integers(1, s))
    return rows, against, count


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(batches())
def test_orthonormalize_keeps_the_rank_past_the_cut(batch):
    rows, against, count = batch
    N, s, n = rows.shape
    cut = np.full(N, 1e-9)
    frame, kept = orthonormalize(rows, count, cut, against=against)
    assert frame.shape == (N, count, n) and frame.dtype == rows.dtype
    for i in range(N):
        projected = rows[i] - np.real(rows[i] @ against[i].conj().T) @ against[i]
        assert kept[i] == _real_rank(projected)
        used = min(kept[i], count)
        q = frame[i, :used]
        assert np.max(np.abs(np.real(q @ q.conj().T) - np.eye(used)), initial=0.0) <= 1e-12
        assert np.max(np.abs(np.real(q @ against[i].conj().T)), initial=0.0) <= 1e-12
        assert not np.any(frame[i, used:])


def test_orthonormalize_counts_past_count_and_skips_duplicates():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(2, 4, 5))
    rows[0, 2] = rows[0, 1]  # slice 0 has rank 3
    against = np.zeros((2, 1, 5))
    against[:, 0, 0] = 1.0
    frame, kept = orthonormalize(rows, 2, 1e-9, against=against)
    assert kept.tolist() == [3, 4]  # both above count 2
    assert np.max(np.abs(frame[..., 0])) <= 1e-15
    frame, kept = orthonormalize(rows, 4, np.array([1e-9, 1e9]))
    assert kept.tolist() == [3, 0]
    assert not np.any(frame[0, 3]) and not np.any(frame[1])
