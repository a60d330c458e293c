"""The projective side: cones descend through the circle bundle.

A homogeneous system scales into itself, so the immersed cone meets the
unit sphere in a link whose circle-bundle projection is a Lagrangian
immersion into CP^(n-1) carrying the Fubini-Study form.  This module
builds the link frame (the sphere point and its horizontal tangent rows),
reads points and vectors in affine charts, checks the Lagrangian angle
along the fibers, and measures the projective mean curvature with a chart
oracle.  It builds on the C^n side: the link frame is the cone frame
orthonormalized off the radial row, and the oracle's chart is the
immersion chart on the link read in an affine chart.  One pushed
Fubini-Study Gram, chart_gram, serves the Riemannian-submersion check and
the Lagrangian check.

The Fubini-Study metric is normalized to holomorphic sectional curvature 4
(the metric the unit-sphere submersion induces); in the affine chart w the
Hermitian form is  ((1+|w|^2) <a,b> - (a.conj(w))(conj(b).w)) / (1+|w|^2)^2.
"""

from __future__ import annotations

import numpy as np

from .errors import ApexPoint, ChartFailure
from .immersion import TWO_PI, ImmersionChart, _pairings, frame_at, lagrangian_angle, phi
from .numdiff import mean_curvature_riemannian
from .quadric import QuadricSystem, newton_project, orthonormalize, require_cone, with_unit_sphere
from .torus import action_table

PHASE_FLOOR = 1e-8


def fs_hermitian(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Fubini-Study Hermitian product of chart vectors a, b at chart points w.

    Broadcasts over leading axes; vectors run along the last one.
    """
    w2 = 1.0 + np.real(np.sum(w * np.conjugate(w), axis=-1))
    term = w2 * np.sum(a * np.conjugate(b), axis=-1)
    term -= np.sum(a * np.conjugate(w), axis=-1) * np.sum(np.conjugate(b) * w, axis=-1)
    return term / (w2 * w2)


def affine_chart_index(z: np.ndarray) -> np.ndarray:
    """Largest-modulus coordinate of each row of a (N, n) batch: the
    best-conditioned affine chart."""
    return np.argmax(np.abs(np.asarray(z)), axis=-1)


def _in_chart(z: np.ndarray, chart) -> tuple[np.ndarray, np.ndarray]:
    """(z_c, z without coordinate c) for a chart index c per row of z (or
    one index for all rows)."""
    chart = np.broadcast_to(np.asarray(chart)[..., None], z.shape[:-1] + (1,))
    lead = np.take_along_axis(z, chart, axis=-1)
    keep = np.arange(z.shape[-1]) != chart
    return lead, z[keep].reshape(z.shape[:-1] + (z.shape[-1] - 1,))


def to_affine_chart(z: np.ndarray, chart) -> np.ndarray:
    lead, rest = _in_chart(np.asarray(z, dtype=complex), chart)
    if np.any(np.abs(lead) <= PHASE_FLOOR):
        raise ChartFailure(f"coordinate {chart} vanishes; chart unusable")
    return rest / lead


def pushforward_to_chart(p: np.ndarray, xi: np.ndarray, chart) -> np.ndarray:
    """Differential of the chart map z -> (z_i / z_c)_{i != c} applied to xi."""
    lead, p_rest = _in_chart(np.asarray(p, dtype=complex), chart)
    if np.any(np.abs(lead) <= PHASE_FLOOR):
        raise ChartFailure(f"coordinate {chart} vanishes; chart unusable")
    xi_lead, xi_rest = _in_chart(np.asarray(xi, dtype=complex), chart)
    return (xi_rest * lead - p_rest * xi_lead) / (lead * lead)


def chart_gram(p: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Fubini-Study Hermitian Gram of tangent rows pushed from sphere points
    into each point's affine chart: (..., r, r) for (..., n) points and
    (..., r, n) rows."""
    chart = affine_chart_index(p)
    w = to_affine_chart(p, chart)
    pushed = pushforward_to_chart(p[..., None, :], rows, chart[..., None])
    return fs_hermitian(w[..., None, None, :], pushed[..., :, None, :], pushed[..., None, :, :])


def submersion_isometry_defect(p: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """Largest violation of the Riemannian-submersion identities at each of
    (N, n) unit sphere points p, for its (r, n) horizontal rows in the
    (N, r, n) frame: one value per sample.

    For horizontal vectors at a unit sphere point, metric pairings and
    symplectic pairings must transfer unchanged through the projection into
    the Fubini-Study chart.
    """
    p = np.asarray(p, dtype=complex)
    rows = np.asarray(frame, dtype=complex)
    gap = _pairings(rows, np.conjugate(rows)) - chart_gram(p, rows)
    return np.max(np.maximum(np.abs(gap.real), np.abs(gap.imag)), axis=(-2, -1), initial=0.0)


def link_tangent_frame(system: QuadricSystem, u, y) -> tuple[np.ndarray, np.ndarray]:
    """(sphere point, n-1 orthonormal tangent vectors of the link).

    The immersed cone's tangent space contains the radial direction; the
    link tangent space is its orthogonal complement inside the frame span,
    automatically horizontal because the cone is Lagrangian.  For (N, n)
    and (N, m) batches the result is ((N, n), (N, n-1, n)); each sample
    skips the frame row the radial projection collapses.
    """
    require_cone(system)
    u = np.asarray(u, dtype=float)
    norm = np.linalg.norm(u, axis=-1)
    if np.any(norm == 0.0):
        raise ApexPoint("no link frame at the apex")
    un = u / norm[:, None]
    p = phi(system, un, y)
    rows = frame_at(system, un, y).rows
    radial = p / np.linalg.norm(p, axis=-1)[:, None]
    n = p.shape[-1]
    # Newton meets the cone to an absolute residual at u; normalizing to the
    # sphere scales it, and what the collapsed row keeps of it, by 1/|u|^2
    cut = 1e-10 * np.maximum(1.0, 1.0 / (norm * norm))
    frame, kept = orthonormalize(rows, n - 1, cut, against=radial[:, None, :])
    bad = np.nonzero(kept != n - 1)[0]
    if len(bad):
        raise ChartFailure(
            f"link frame has rank {kept[bad[0]]}, expected {n - 1} at sample {bad[0]}"
        )
    return p, frame


def projective_lagrangian_defect(system: QuadricSystem, U, Y) -> float:
    """Largest Fubini-Study symplectic pairing among pushed-forward link
    frames over matched (N, n) and (N, m) sample arrays U, Y."""
    if not len(U):
        return 0.0
    p, frame = link_tangent_frame(system, U, Y)
    # the strict upper triangle: Im of the computed Gram is not exactly
    # antisymmetric, so the lower one could differ in its last bits
    upper = np.triu_indices(p.shape[-1] - 1, 1)
    omega = np.imag(chart_gram(p, frame))[:, upper[0], upper[1]]
    return float(np.max(np.abs(omega), initial=0.0))


def projective_angle(system: QuadricSystem, y):
    """Lagrangian angle of the projected immersion at torus angles y (one
    per row of a (N, m) batch).

    The angle downstairs equals the ambient angle at the spherical lift,
    which depends on y only, so this is the plain angle evaluation guarded
    by the cone requirement.
    """
    require_cone(system)
    return lagrangian_angle(system, y)


def fiber_phase_shifts(system: QuadricSystem) -> np.ndarray:
    """Torus translations that slide an image point along its own fiber.

    A dual-lattice translation advances phase i by pi*(e_i, delta); the
    point moves inside its fiber exactly when all pairings share one
    parity.  All-even is the trivial full period, so the useful shifts are
    the coset representatives with every pairing odd (phase i*pi for each
    coordinate), read off the exact sign table.
    """
    signs, shifts = action_table(system.exponents)
    return shifts[1:][np.all(signs[1:] < 0, axis=1)]


def projective_angle_fiber_defect(system: QuadricSystem, y) -> np.ndarray:
    """Largest change of the projected angle along fiber shifts, modulo the
    angle's period on CP^(n-1); one value per row of a (N, m) batch of
    torus angles.

    A shift with every pairing (e_i, gamma) odd maps z to -z and moves the
    angle by pi*(e, gamma), e the row sum, where (e, gamma) = n (mod 2).  For
    even n that is a full turn.  For odd n the holomorphic volume form
    changes sign, Omega(-z) = -Omega(z), so the angle downstairs is defined
    only mod pi, and the change is reduced mod pi.  Zero up to rounding.
    """
    y = np.asarray(y, dtype=float)
    period = np.pi if system.n % 2 else TWO_PI
    base = projective_angle(system, y)
    shifted = projective_angle(system, y[..., None, :] + fiber_phase_shifts(system))
    diff = (shifted - base[..., None]) % period
    return np.max(np.minimum(diff, period - diff), axis=-1, initial=0.0)


class ProjectiveChart(ImmersionChart):
    """Charts of the projected link around base points, for the oracle.

    The immersion chart on the link (the system plus the unit sphere), read
    in a fixed affine chart per base point.  Parameters are (link
    coordinates, torus angles); base points are Newton-projected onto the
    link in one call.
    """

    def __init__(self, system: QuadricSystem, u0, y0):
        require_cone(system)
        link = with_unit_sphere(system)
        u0 = np.asarray(u0, dtype=float)
        u0 = newton_project(link, u0 / np.linalg.norm(u0, axis=-1, keepdims=True), polish=True)
        super().__init__(system, u0, y0, variety=link)
        self.chart = affine_chart_index(phi(system, self.u0, self.y0))

    def ambient(self, z: np.ndarray) -> np.ndarray:
        return to_affine_chart(z, self.chart[:, None])


def fs_metric_matrix(w_real: np.ndarray) -> np.ndarray:
    """Real Fubini-Study metric matrix in stacked (Re w, Im w) coordinates,
    batched over leading axes.

    fs_hermitian(w, a, b) = a^T K conj(b) with the Hermitian matrix
    K = (w2 I - conj(w) w^T) / w2^2, w2 = 1 + |w|^2; on the real basis
    (e_j, i e_j) its real part is [[Re K, Im K], [-Im K, Re K]].
    """
    w_real = np.asarray(w_real, dtype=float)
    half = w_real.shape[-1] // 2
    w = w_real[..., :half] + 1j * w_real[..., half:]
    w2 = 1.0 + np.real(np.sum(w * np.conjugate(w), axis=-1))[..., None, None]
    K = (w2 * np.eye(half) - np.conjugate(w)[..., :, None] * w[..., None, :]) / (w2 * w2)
    return np.block([[K.real, K.imag], [-K.imag, K.real]])


def projective_mean_curvature(system: QuadricSystem, u, y) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for the projected immersion's mean curvature.

    Trace of the second fundamental form in the affine chart, with the
    ambient Fubini-Study Christoffel symbols obtained by finite differences
    of the chart metric; both use the step system.tolerances.fd_step.
    Returns (H in chart coordinates, FS norm of H): (N, D) and (N,) for
    (N, n) and (N, m) batches.
    """
    step = system.tolerances.fd_step
    chart = ProjectiveChart(system, u, y)
    return mean_curvature_riemannian(
        chart, np.zeros((len(chart.u0), chart.dim)), fs_metric_matrix, step=step
    )
