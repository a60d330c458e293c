"""The projective side: cones descend through the circle bundle.

A homogeneous system scales into itself, so the immersed cone meets the
unit sphere in a link whose circle-bundle projection is a Lagrangian
immersion into CP^(n-1) carrying the Fubini-Study form.  This module
normalizes cone points to the sphere, projects along the fibers, splits
off horizontal components, checks the Riemannian-submersion identities,
and measures the projective mean curvature with a chart oracle.

The Fubini-Study metric is normalized to holomorphic sectional curvature 4
(the metric the unit-sphere submersion induces); in the affine chart w the
Hermitian form is  ((1+|w|^2) <a,b> - (a.conj(w))(conj(b).w)) / (1+|w|^2)^2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ApexPoint, ChartFailure, ChartUnavailable
from .immersion import _pairings, frame_at, lagrangian_angle, phi
from .numdiff import mean_curvature_riemannian
from .quadric import QuadricSystem, newton_project, require_cone, with_unit_sphere

PHASE_FLOOR = 1e-8


def cone_to_sphere(system: QuadricSystem, u, y) -> np.ndarray:
    """Unit-norm representative of a cone point's image.

    Scaling u keeps it on the cone (all constants are zero), so the result
    still lies on the immersed image.
    """
    require_cone(system)
    u = np.asarray(u, dtype=float)
    norm = np.linalg.norm(u)
    if norm == 0.0:
        raise ApexPoint("the apex u = 0 has no spherical representative")
    return phi(system, u / norm, y)


@dataclass(frozen=True)
class ProjectivePoint:
    """Normal-form homogeneous coordinates: unit norm, first coordinate of
    modulus above the floor rotated to zero phase."""

    z: np.ndarray

    def __eq__(self, other) -> bool:  # equality of normal forms
        return isinstance(other, ProjectivePoint) and bool(
            np.max(np.abs(self.z - other.z)) <= 1e-10
        )

    def distance(self, other: "ProjectivePoint") -> float:
        return float(np.max(np.abs(self.z - other.z)))


def hopf_project(p: Sequence[complex]) -> ProjectivePoint:
    """Collapse the circle fiber: e^{i theta} p maps to the same point."""
    z = np.asarray(p, dtype=complex)
    norm = np.linalg.norm(z)
    if norm == 0.0:
        raise ApexPoint("zero vector has no projective class")
    z = z / norm
    lead = next((j for j in range(len(z)) if abs(z[j]) > PHASE_FLOOR), None)
    if lead is None:
        raise ChartUnavailable("all coordinates below the phase floor")
    z = z * np.exp(-1j * np.angle(z[lead]))
    z.setflags(write=False)
    return ProjectivePoint(z)


def horizontal_component(p: Sequence[complex], xi: Sequence[complex]) -> np.ndarray:
    """Remove the span{p, ip} components (real inner products).

    What remains is orthogonal to the fiber circle through p, hence a
    horizontal vector of the bundle.
    """
    p = np.asarray(p, dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    ip = 1j * p

    def rdot(a, b):
        return float(np.real(np.sum(a * np.conjugate(b))))

    return xi - rdot(xi, p) * p - rdot(xi, ip) * ip


def _scalar(value: np.ndarray, kind=float):
    """A Python scalar for a 0-d result, the array itself for a batch."""
    return kind(value) if np.ndim(value) == 0 else value


def fs_hermitian(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> complex:
    """Fubini-Study Hermitian product of chart vectors a, b at chart point w.

    Broadcasts over leading axes; vectors run along the last one.
    """
    w2 = 1.0 + np.real(np.sum(w * np.conjugate(w), axis=-1))
    term = w2 * np.sum(a * np.conjugate(b), axis=-1)
    term -= np.sum(a * np.conjugate(w), axis=-1) * np.sum(np.conjugate(b) * w, axis=-1)
    return _scalar(term / (w2 * w2), complex)


def fs_metric(w, a, b) -> float:
    return _scalar(np.real(fs_hermitian(np.asarray(w), np.asarray(a), np.asarray(b))))


def fs_symplectic(w, a, b) -> float:
    return _scalar(-np.imag(fs_hermitian(np.asarray(w), np.asarray(a), np.asarray(b))))


def affine_chart_index(z: Sequence[complex]) -> int:
    """Largest-modulus coordinate: the best-conditioned affine chart (one
    per row of a batch)."""
    return _scalar(np.argmax(np.abs(np.asarray(z)), axis=-1), int)


def _in_chart(z: np.ndarray, chart) -> tuple[np.ndarray, np.ndarray]:
    """(z_c, z without coordinate c) for a chart index c per row of z (or
    one index for all rows)."""
    chart = np.broadcast_to(np.asarray(chart)[..., None], z.shape[:-1] + (1,))
    lead = np.take_along_axis(z, chart, axis=-1)
    keep = np.arange(z.shape[-1]) != chart
    return lead, z[keep].reshape(z.shape[:-1] + (z.shape[-1] - 1,))


def to_affine_chart(z: Sequence[complex], chart: int) -> np.ndarray:
    lead, rest = _in_chart(np.asarray(z, dtype=complex), chart)
    if np.any(np.abs(lead) <= PHASE_FLOOR):
        raise ChartFailure(f"coordinate {chart} vanishes; chart unusable")
    return rest / lead


def pushforward_to_chart(p: Sequence[complex], xi: Sequence[complex], chart: int) -> np.ndarray:
    """Differential of the chart map z -> (z_i / z_c)_{i != c} applied to xi."""
    lead, p_rest = _in_chart(np.asarray(p, dtype=complex), chart)
    if np.any(np.abs(lead) <= PHASE_FLOOR):
        raise ChartFailure(f"coordinate {chart} vanishes; chart unusable")
    xi_lead, xi_rest = _in_chart(np.asarray(xi, dtype=complex), chart)
    return (xi_rest * lead - p_rest * xi_lead) / (lead * lead)


def submersion_isometry_defect(p: Sequence[complex], frame: Sequence[Sequence[complex]]) -> float:
    """Largest violation of the Riemannian-submersion identities.

    For horizontal vectors at a unit sphere point, metric pairings and
    symplectic pairings must transfer unchanged through the projection into
    the Fubini-Study chart.
    """
    p = np.asarray(p, dtype=complex)
    rows = np.asarray(frame, dtype=complex).reshape(-1, len(p))
    if not len(rows):
        return 0.0
    chart = affine_chart_index(p)
    w = to_affine_chart(p, chart)
    pushed = pushforward_to_chart(p, rows, chart)
    up = _pairings(rows, np.conjugate(rows))
    down = fs_hermitian(w, pushed[:, None, :], pushed[None, :, :])
    return float(max(
        np.max(np.abs(np.real(up) - np.real(down))),
        np.max(np.abs(np.imag(down) - np.imag(up))),
    ))


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
    U, Y = np.atleast_2d(u), np.atleast_2d(np.asarray(y, dtype=float))
    norm = np.linalg.norm(U, axis=-1)
    if np.any(norm == 0.0):
        raise ApexPoint("no link frame at the apex")
    un = U / norm[:, None]
    p = phi(system, un, Y)
    rows = frame_at(system, un, Y).all_rows()
    radial = p / np.linalg.norm(p, axis=-1)[:, None]

    N, n = p.shape
    out = np.zeros((N, n - 1, n), dtype=complex)
    found = np.zeros(N, dtype=int)
    for r in np.moveaxis(rows, 1, 0):
        # Gram-Schmidt in the real inner product Re<a, b>
        v = r - np.real(np.sum(r * np.conjugate(radial), axis=-1))[:, None] * radial
        for q in np.moveaxis(out, 1, 0):
            v = v - np.real(np.sum(v * np.conjugate(q), axis=-1))[:, None] * q
        nv = np.linalg.norm(v, axis=-1)
        keep = nv > 1e-10
        put = np.nonzero(keep & (found < n - 1))[0]
        out[put, found[put]] = v[put] / nv[put, None]
        found += keep
    bad = np.nonzero(found != n - 1)[0]
    if len(bad):
        where = "" if u.ndim == 1 else f" at sample {bad[0]}"
        raise ChartFailure(
            f"link frame has rank {found[bad[0]]}, expected {n - 1}{where}"
        )
    return (p[0], out[0]) if u.ndim == 1 else (p, out)


def projective_lagrangian_defect(system: QuadricSystem, U, Y=None) -> float:
    """Largest Fubini-Study symplectic pairing among pushed-forward link
    frames over matched (N, n) and (N, m) sample arrays U, Y.

    Called without Y, U is an iterable of (u, y) pairs.
    """
    if Y is None:
        pairs = list(U)
        if not pairs:
            return 0.0
        U, Y = map(np.array, zip(*pairs))
    if not len(U):
        return 0.0
    p, frame = link_tangent_frame(system, np.atleast_2d(U), np.atleast_2d(Y))
    chart = affine_chart_index(p)
    w = to_affine_chart(p, chart)
    pushed = pushforward_to_chart(p[:, None, :], frame, chart[:, None])
    omega = fs_symplectic(w[:, None, None, :], pushed[:, :, None, :], pushed[:, None, :, :])
    upper = np.triu_indices(p.shape[-1] - 1, 1)
    return float(np.max(np.abs(omega[:, upper[0], upper[1]]), initial=0.0))


def projective_angle(system: QuadricSystem, u, y) -> float:
    """Lagrangian angle of the projected immersion at the image of (u, y).

    The angle downstairs equals the ambient angle at the spherical lift, so
    this is the plain angle evaluation guarded by the cone requirement; the
    point u only fixes which sheet the value is read on.
    """
    require_cone(system)
    del u
    return lagrangian_angle(system, y).value


def fiber_phase_shifts(system: QuadricSystem) -> np.ndarray:
    """Torus translations that slide an image point along its own fiber.

    A dual-lattice translation advances phase i by pi*(e_i, delta); the
    point moves inside its fiber exactly when all pairings share one
    parity.  All-even is the trivial full period, so the useful shifts are
    the coset representatives with every pairing odd (phase i*pi for each
    coordinate).  Parities are checked exactly.
    """
    from .lattice import pairing_parity
    from .torus import gamma_float, gamma_group

    shifts = []
    for gamma in gamma_group(system.exponents).nonzero():
        parities = [pairing_parity(gamma, row) for row in system.exponents.rows]
        if all(p == 1 for p in parities):
            shifts.append(gamma_float(gamma))
    if not shifts:
        return np.zeros((0, system.codim))
    return np.array(shifts)


def projective_angle_fiber_defect(system: QuadricSystem, u, y) -> float:
    """Largest change of the projected angle along fiber shifts, mod 2*pi.

    Zero whenever the exponent rows sum to zero (constant angle); in
    general the angle is multivalued along fibers and only its gradient is
    well defined.
    """
    y = np.asarray(y, dtype=float)
    base = projective_angle(system, u, y)
    worst = 0.0
    for delta in fiber_phase_shifts(system):
        shifted = projective_angle(system, u, y + delta)
        diff = (shifted - base) % (2.0 * np.pi)
        worst = max(worst, min(diff, 2.0 * np.pi - diff))
    return worst


class ProjectiveChart:
    """Chart of the projected link around a base point, for the oracle.

    Parameters are (link coordinates, torus angles); the map normalizes the
    Newton-projected link point, applies the immersion phases, and lands in
    a fixed affine chart as stacked real coordinates.
    """

    def __init__(self, system: QuadricSystem, u0, y0):
        require_cone(system)
        self.system = system
        self.link = with_unit_sphere(system)
        u0 = np.asarray(u0, dtype=float)
        self.u0 = u0 / np.linalg.norm(u0)
        self.u0 = newton_project(self.link, self.u0, polish=True)
        self.y0 = np.asarray(y0, dtype=float)
        self.tangent = self.link.tangent_basis(self.u0)
        self.chart = affine_chart_index(phi(system, self.u0, self.y0))

    @property
    def dim(self) -> int:
        return self.link.k + self.system.codim

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        kk = self.link.k
        if kk:
            guess = self.u0 + xi[:kk] @ self.tangent
            u = newton_project(self.link, guess, polish=True)
        else:
            u = self.u0
        z = phi(self.system, u, self.y0 + xi[kk:])
        w = to_affine_chart(z, self.chart)
        return np.concatenate([w.real, w.imag])


def fs_metric_matrix(w_real: np.ndarray) -> np.ndarray:
    """Real Fubini-Study metric matrix in stacked (Re w, Im w) coordinates."""
    half = len(w_real) // 2
    w = w_real[:half] + 1j * w_real[half:]
    g = np.zeros((len(w_real), len(w_real)))
    basis = np.eye(len(w_real))
    # hermitian form is sesquilinear: build it on the real basis vectors
    for a in range(len(w_real)):
        va = basis[a][:half] + 1j * basis[a][half:]
        for b in range(a, len(w_real)):
            vb = basis[b][:half] + 1j * basis[b][half:]
            g[a, b] = g[b, a] = float(np.real(fs_hermitian(w, va, vb)))
    return g


def projective_mean_curvature(
    system: QuadricSystem, u, y, step: float = 1e-5
) -> tuple[np.ndarray, float]:
    """Oracle for the projected immersion's mean curvature.

    Trace of the second fundamental form in the affine chart, with the
    ambient Fubini-Study Christoffel symbols obtained by finite differences
    of the chart metric.  Returns (H in chart coordinates, FS norm of H).
    """
    chart = ProjectiveChart(system, u, y)
    return mean_curvature_riemannian(
        chart, np.zeros(chart.dim), fs_metric_matrix, step=step
    )
