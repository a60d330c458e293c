"""The complex-space side of the construction.

A quadric system in R^n plus its twisted torus factor gives the map

    z_i = u_i * exp(i*pi*(e_i, y)),   u in M,  y in R^m  (m = codim),

whose quotient by the coset group immerses into C^n.  This module builds
tangent frames, checks the symplectic pullback, evaluates the Lagrangian
angle and the two independent mean-curvature routes, discretizes the
angle's Laplace-Beltrami operator, runs Hamiltonian variation quadratures,
and assembles product systems.

Conventions, fixed once and used everywhere:
  * Hermitian product <xi, eta> = sum_i xi_i * conj(eta_i);
  * Riemannian metric (xi, eta) = Re<xi, eta>;
  * symplectic form omega(xi, eta) = -Im<xi, eta>;
  * mean curvature H = unnormalized trace of the second fundamental form,
    which for these immersions equals  J psi_*(grad beta)  where beta is
    the Lagrangian angle (the finite-difference oracle pins the sign).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ChartUnavailable,
    CrossCheckFailed,
    DimensionUnsupported,
    MeshTooCoarse,
)
from .lattice import ExponentMatrix, sum_vector
from .numdiff import mean_curvature_flat
from .quadric import QuadricSystem, newton_project, sample_points
from .torus import torus_box

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# the immersion map and its frames
# ---------------------------------------------------------------------------


def torus_phases(system: QuadricSystem, y: Sequence[float]) -> np.ndarray:
    """exp(i*pi*(e_i, y)) for every exponent row; (N, n) for a (N, m) batch."""
    y = np.asarray(y, dtype=float)
    # one matrix-vector product per sample, the same BLAS call a single
    # point makes, so batch rows and single calls agree bit for bit
    angles = np.pi * (system.matrix @ y[..., None])[..., 0]
    return np.exp(1j * angles)


def phi(system: QuadricSystem, u: Sequence[float], y: Sequence[float]) -> np.ndarray:
    """The immersion: componentwise u_i times the torus phase."""
    return np.asarray(u, dtype=float) * torus_phases(system, y)


def torus_tangents(system: QuadricSystem, u, y) -> np.ndarray:
    """Rows Y_j = d/dy_j of the immersion: (pi*i*E[i,j]*u_i*phase_i)_i."""
    phases = torus_phases(system, y)
    u = np.asarray(u, dtype=float)
    return np.pi * 1j * (system.matrix.T * (u * phases)[..., None, :])


def variety_tangents(system: QuadricSystem, u, y) -> np.ndarray:
    """Rows X_s: the orthonormal tangent frame of M twisted by the phases."""
    phases = torus_phases(system, y)
    return system.tangent_basis(u).astype(complex) * phases[..., None, :]


def _pairings(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_l a[..., i, l] * b[..., j, l] for every row pair (i, j).

    Summed along the contiguous last axis, never through BLAS, so a batch
    row gets the same bits as the single-point call on it.
    """
    return (a[..., :, None, :] * b[..., None, :, :]).sum(-1)


def torus_metric(system: QuadricSystem, u) -> np.ndarray:
    """Closed form of the torus metric block: pi^2 * E^T diag(u^2) E."""
    u = np.asarray(u, dtype=float)
    Et = system.matrix.T
    return np.pi * np.pi * _pairings(Et * (u * u)[..., None, :], Et)


@dataclass(frozen=True)
class FrameBundle:
    """Tangent frame at an immersion point with its Gram blocks.

    From a (N, n) batch every field gains a leading sample axis.
    """

    variety: np.ndarray  # (k, n) complex rows X_s
    torus: np.ndarray  # (m, n) complex rows Y_j
    metric_x: np.ndarray  # (k, k) real
    metric_y: np.ndarray  # (m, m) real
    cross: np.ndarray  # (m, k) complex Hermitian products <Y_j, X_s>

    def all_rows(self) -> np.ndarray:
        return np.concatenate([self.variety, self.torus], axis=-2)

    def cross_defect(self):
        """Largest |<Y_j, X_s>|: zero in exact arithmetic for points on M;
        one value per sample for a batched bundle."""
        return np.max(np.abs(self.cross), axis=(-2, -1), initial=0.0)


def frame_at(system: QuadricSystem, u, y) -> FrameBundle:
    """Tangent frame and metric blocks; the numeric torus Gram is checked
    against its closed form on every call.

    u and y may be (N, n) and (N, m) batches; row i of every field equals
    the single-point call on (u[i], y[i]) bit for bit.
    """
    X = variety_tangents(system, u, y)
    Y = torus_tangents(system, u, y)
    gx = np.real(_pairings(X, np.conjugate(X)))
    gy = np.real(_pairings(Y, np.conjugate(Y)))
    agrees = np.isclose(gy, torus_metric(system, u), rtol=1e-10, atol=1e-10)
    off = np.nonzero(~agrees.all(axis=(-2, -1)).reshape(-1))[0]
    if len(off):
        where = "" if gy.ndim == 2 else f" at sample {off[0]}"
        raise CrossCheckFailed(f"torus metric Gram disagrees with closed form{where}")
    return FrameBundle(X, Y, gx, gy, _pairings(Y, np.conjugate(X)))


def frame_symplectic_defect(rows: np.ndarray):
    """max |omega(V_a, V_b)| over all pairs of frame rows; (N,) for a
    (N, r, n) batch of frames."""
    gram = _pairings(rows, np.conjugate(rows))
    return np.max(np.abs(np.imag(gram)), axis=(-2, -1), initial=0.0)


def lagrangian_defect(system: QuadricSystem, u, y):
    """Largest symplectic pairing among tangent frame vectors; one value
    per sample for (N, n) and (N, m) batches."""
    return frame_symplectic_defect(frame_at(system, u, y).all_rows())


# ---------------------------------------------------------------------------
# Lagrangian angle and mean curvature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LagrangianAngle:
    """Angle value (mod 2*pi) and its constant gradient in the y chart."""

    value: float
    gradient: np.ndarray  # d(beta)/dy_j = pi * e_j, e the row-sum vector

    def is_constant(self) -> bool:
        return bool(np.all(self.gradient == 0.0))


def lagrangian_angle(system: QuadricSystem, y) -> LagrangianAngle:
    """beta(y) = pi*(e, y) + codim*pi/2 reduced mod 2*pi.

    The angle is linear in the torus coordinates with slope pi*e; only the
    slope enters the mean curvature, the constant is an orientation choice.
    """
    e = np.array(sum_vector(system.exponents), dtype=float)
    value = float(np.pi * (e @ np.asarray(y, dtype=float)) + system.codim * np.pi / 2.0)
    return LagrangianAngle(value % TWO_PI, np.pi * e)


def measured_lagrangian_angle(system: QuadricSystem, u, y) -> float:
    """Angle read off the immersion itself, with no closed form involved.

    Orthonormalizes the tangent frame over the real inner product and takes
    the argument of the complex determinant of the holomorphic volume form
    on it.  Agrees with lagrangian_angle up to orientation (mod pi).
    """
    rows = frame_at(system, u, y).all_rows()
    ortho: list[np.ndarray] = []
    for r in rows:
        v = r.copy()
        for q in ortho:
            v = v - np.real(np.sum(v * np.conjugate(q))) * q
        v = v / np.linalg.norm(v)
        ortho.append(v)
    det = np.linalg.det(np.array(ortho))
    return float(np.angle(det) % TWO_PI)


def mean_curvature(system: QuadricSystem, u, y) -> np.ndarray:
    """Closed-form mean curvature J psi_*(grad beta).

    grad beta lives purely in the torus block; multiplication by i realizes
    the complex structure.  Vanishes identically when the exponent rows sum
    to zero.
    """
    e = np.array(sum_vector(system.exponents), dtype=float)
    gy = torus_metric(system, u)
    coeff = np.linalg.solve(gy, np.pi * e)
    return 1j * (coeff @ torus_tangents(system, u, y))


class ImmersionChart:
    """Local chart R^k x R^m -> R^{2n} around a point of the immersed image.

    The variety factor is parametrized by Gauss-Newton projection along a
    tangent basis frozen at the center, so the map is smooth in the chart
    variables; output stacks real and imaginary parts for the
    finite-difference machinery.
    """

    def __init__(self, system: QuadricSystem, u0, y0):
        self.system = system
        self.u0 = np.asarray(u0, dtype=float)
        self.y0 = np.asarray(y0, dtype=float)
        self.tangent = system.tangent_basis(self.u0) if system.k else np.zeros((0, system.n))

    @property
    def dim(self) -> int:
        return self.system.k + self.system.codim

    def variety_point(self, x: np.ndarray) -> np.ndarray:
        if not self.system.k:
            return self.u0
        guess = self.u0 + np.asarray(x, dtype=float) @ self.tangent
        return newton_project(self.system, guess, polish=True)

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        k = self.system.k
        u = self.variety_point(xi[:k])
        z = phi(self.system, u, self.y0 + xi[k:])
        return np.concatenate([z.real, z.imag])


def mean_curvature_fd(system: QuadricSystem, u, y, step: float | None = None) -> np.ndarray:
    """Independent mean-curvature oracle: unnormalized trace of the second
    fundamental form, everything by central finite differences in a local
    chart.  Shares no formulas with mean_curvature."""
    step = system.tolerances.fd_step if step is None else step
    chart = ImmersionChart(system, u, y)
    H = mean_curvature_flat(chart, np.zeros(chart.dim), step)
    n = system.n
    return H[:n] + 1j * H[n:]


# ---------------------------------------------------------------------------
# sampling the immersion
# ---------------------------------------------------------------------------


def sample_torus_angles(system: QuadricSystem, count: int, seed: int = 0) -> np.ndarray:
    """Uniform y draws over the fundamental period box, reproducible."""
    rng = np.random.default_rng([seed, 2])
    box = torus_box(system.exponents)
    return rng.random((count, system.codim)) @ box


def sample_immersion(
    system: QuadricSystem,
    count: int,
    seed: int = 0,
    u_floor: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """(U, Y) arrays of matched variety points and torus angles."""
    U = sample_points(system, count, seed=seed, u_floor=u_floor)
    Y = sample_torus_angles(system, count, seed=seed)
    return U, Y


# ---------------------------------------------------------------------------
# products
# ---------------------------------------------------------------------------


def product_system(a: QuadricSystem, b: QuadricSystem) -> QuadricSystem:
    """Block-diagonal assembly of two systems.

    The immersion of the product is the coordinatewise pair of the factor
    immersions; Lagrangian angles add and mean curvatures concatenate.  An
    empty system (n = 0) is the neutral element.
    """
    if a.n == 0:
        return b
    if b.n == 0:
        return a
    ma, mb = a.codim, b.codim
    rows = [tuple(r) + (0,) * mb for r in a.exponents.rows]
    rows += [(0,) * ma + tuple(r) for r in b.exponents.rows]
    return QuadricSystem(ExponentMatrix(rows), a.constants + b.constants, a.tolerances)


def empty_system() -> QuadricSystem:
    return QuadricSystem(ExponentMatrix(()), ())


# ---------------------------------------------------------------------------
# chart meshes for harmonicity and variation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChartMesh:
    """Uniform grid over normalized chart coordinates xi in [0,1)^D.

    metric[node + (a,b)] is the pulled-back immersion metric in xi units;
    angle_gradient is d(beta)/d(xi) (constant; beta is linear); periodic
    marks axes where the chart closes up.
    """

    shape: tuple[int, ...]
    spacings: tuple[float, ...]
    periodic: tuple[bool, ...]
    metric: np.ndarray
    angle_gradient: np.ndarray
    volume: float  # chart-coordinate cell volume

    @property
    def dim(self) -> int:
        return len(self.shape)

    def node_grids(self) -> list[np.ndarray]:
        """Normalized chart coordinates of every node, one array per axis."""
        return np.meshgrid(
            *[np.arange(nn) * h for nn, h in zip(self.shape, self.spacings)],
            indexing="ij",
        )

    def angle_values(self) -> np.ndarray:
        """beta on the nodes, linear in the torus axes (universal cover)."""
        grids = self.node_grids()
        out = np.zeros(self.shape)
        for a in range(self.dim):
            out += self.angle_gradient[a] * grids[a]
        return out

    def raw_torus_grids(self, box: np.ndarray) -> list[np.ndarray]:
        """Unnormalized torus coordinates y on the nodes.

        The mesh stores torus axes scaled into [0,1); multiplying back
        through the period box recovers the y each node represents.
        """
        m = len(box)
        coords = self.node_grids()[self.dim - m:]
        return [
            sum(box[i][j] * coords[i] for i in range(m)) for j in range(m)
        ]


def _conic_parametrization(system: QuadricSystem):
    """Closed unit-speed-in-t parametrization of a compact plane conic
    a*u1^2 + b*u2^2 = d, t in [0,1)."""
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
        return np.stack(
            [-TWO_PI * ra * np.sin(ang), TWO_PI * rb * np.cos(ang)], axis=-1
        )

    return point, velocity


def _link_parametrization(system: QuadricSystem):
    """Unit-sphere link of a single-equation cone in R^3, one branch.

    The cone a*u_p^2 + b*u_q^2 = |c|*u_l^2 (a, b > 0) meets the unit sphere
    in an ellipse over the (p, q) plane with u_l > 0 recovered from the
    equation; each projective class has exactly one such representative.
    """
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


def chart_mesh(
    system: QuadricSystem,
    resolution: int | Sequence[int] = 64,
    on_link: bool = False,
) -> ChartMesh:
    """Uniform mesh over a fundamental chart, with the induced metric.

    Supported charts: pure torus systems (k = 0, any dimension), plane
    conics (n = 2), and unit-sphere links of n = 3 cones (on_link=True).
    All chart axes are normalized to [0, 1); torus axes run over the full
    period box so integrands of periodic functions telescope exactly.
    """
    m = system.codim
    box = torus_box(system.exponents)
    e = np.array(sum_vector(system.exponents), dtype=float)

    if on_link:
        point, velocity = _link_parametrization(system)
        curve_axes = 1
    elif system.k == 0:
        point = velocity = None
        curve_axes = 0
    elif system.n == 2 and system.k == 1:
        point, velocity = _conic_parametrization(system)
        curve_axes = 1
    else:
        raise DimensionUnsupported(
            f"no chart mesh for n={system.n}, k={system.k} (need k=0, n=2, or a link)"
        )

    dim = curve_axes + m
    if isinstance(resolution, int):
        shape = (resolution,) * dim
    else:
        shape = tuple(int(r) for r in resolution)
        if len(shape) != dim:
            raise ValueError(f"resolution needs {dim} axes, got {len(shape)}")
    if any(s < 8 for s in shape):
        raise MeshTooCoarse(f"resolution {shape} is below the 8-node minimum")
    spacings = tuple(1.0 / s for s in shape)

    # metric on nodes: curve block from the parametrization, torus block
    # from the closed form pulled back through the period box
    if curve_axes:
        t = np.arange(shape[0]) * spacings[0]
        u_nodes = point(t)  # (Nt, n)
        v_nodes = velocity(t)
        gx = np.sum(v_nodes * v_nodes, axis=-1)  # (Nt,)
        E = system.matrix
        usq = u_nodes * u_nodes  # (Nt, n)
        gy_nodes = np.pi**2 * np.einsum("ia,ti,ib->tab", E, usq, E)
        gy_nodes = box @ gy_nodes @ box.T  # pull back to unit torus coords
        metric = np.zeros(shape + (dim, dim))
        mx = np.zeros(shape[:1] + (dim, dim))
        mx[:, 0, 0] = gx
        mx[:, 1:, 1:] = gy_nodes
        metric[...] = mx.reshape(shape[:1] + (1,) * (dim - 1) + (dim, dim))
        grad = np.concatenate([[0.0], np.pi * (box @ e)])
    else:
        u0 = newton_project(system, np.ones(system.n))
        gy = torus_metric(system, u0)
        gy = box @ gy @ box.T
        metric = np.broadcast_to(gy, shape + (dim, dim)).copy()
        grad = np.pi * (box @ e)

    periodic = (True,) * curve_axes + (False,) * m
    return ChartMesh(shape, spacings, periodic, metric, grad, float(np.prod(spacings)))


def _central_diff(arr: np.ndarray, axis: int, h: float, periodic: bool) -> np.ndarray:
    if periodic:
        return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * h)
    return np.gradient(arr, h, axis=axis, edge_order=1)


def laplace_beltrami_defect(mesh: ChartMesh, values: np.ndarray) -> float:
    """Max |Laplace-Beltrami of values| over interior nodes.

    Divergence-form discretization (1/sqrt G) d_a(sqrt G G^{ab} d_b s) with
    nested central differences; for non-periodic axes the two boundary
    layers polluted by one-sided differences are excluded from the max.
    """
    sqrtg = np.sqrt(np.linalg.det(mesh.metric))
    ginv = np.linalg.inv(mesh.metric)
    grads = [
        _central_diff(values, a, mesh.spacings[a], mesh.periodic[a])
        for a in range(mesh.dim)
    ]
    div = np.zeros(mesh.shape)
    for a in range(mesh.dim):
        flux = sqrtg * sum(ginv[..., a, b] * grads[b] for b in range(mesh.dim))
        div += _central_diff(flux, a, mesh.spacings[a], mesh.periodic[a])
    defect = np.abs(div / sqrtg)
    interior = tuple(
        slice(None) if per else slice(2, -2)
        for per in mesh.periodic
    )
    region = defect[interior]
    if region.size == 0:
        raise MeshTooCoarse("no interior nodes left after boundary trimming")
    return float(np.max(region))


def harmonicity_defect(
    system: QuadricSystem,
    resolution: int | Sequence[int] = 64,
    on_link: bool = False,
) -> float:
    """Discrete Laplace-Beltrami defect of the Lagrangian angle."""
    mesh = chart_mesh(system, resolution, on_link=on_link)
    return laplace_beltrami_defect(mesh, mesh.angle_values())


def harmonicity_convergence(
    system: QuadricSystem,
    resolution: int = 64,
    on_link: bool = False,
    floor: float = 1e-12,
) -> tuple[float, float]:
    """Defect at the base resolution and at its doubling.

    The scheme is second order, so the defect must drop by at least 4x per
    doubling until it reaches the double-precision floor; raises
    MeshTooCoarse otherwise.
    """
    coarse = harmonicity_defect(system, resolution, on_link=on_link)
    fine = harmonicity_defect(system, 2 * resolution, on_link=on_link)
    if fine > max(coarse / 4.0, floor):
        raise MeshTooCoarse(
            f"defect {coarse:.3e} -> {fine:.3e} under doubling (need 4x drop or floor)"
        )
    return coarse, fine


# ---------------------------------------------------------------------------
# Hamiltonian variation quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrigPolynomial:
    """sum_t amp * cos(2*pi*(freqs . xi) + phase) on the unit torus.

    Values and gradients are analytic; integer frequency vectors keep the
    quadrature sums exact under the trapezoidal rule on uniform grids.
    """

    terms: tuple[tuple[float, tuple[int, ...], float], ...]

    def value(self, *grids) -> np.ndarray:
        out = np.zeros(np.broadcast(*grids).shape if grids else ())
        for amp, freqs, phase in self.terms:
            arg = phase + TWO_PI * sum(f * g for f, g in zip(freqs, grids))
            out = out + amp * np.cos(arg)
        return out

    def gradient(self, axis: int, *grids) -> np.ndarray:
        out = np.zeros(np.broadcast(*grids).shape if grids else ())
        for amp, freqs, phase in self.terms:
            if freqs[axis] == 0:
                continue
            arg = phase + TWO_PI * sum(f * g for f, g in zip(freqs, grids))
            out = out - amp * TWO_PI * freqs[axis] * np.sin(arg)
        return out


def random_trig_polynomial(
    dim: int, seed: int = 0, n_terms: int = 4, max_freq: int = 2
) -> TrigPolynomial:
    rng = np.random.default_rng([seed, 7])
    terms = []
    for _ in range(n_terms):
        freqs = tuple(int(f) for f in rng.integers(-max_freq, max_freq + 1, size=dim))
        if not any(freqs):
            freqs = (1,) + (0,) * (dim - 1)
        amp = float(rng.uniform(-1.0, 1.0))
        phase = float(rng.uniform(0.0, TWO_PI))
        terms.append((amp, freqs, phase))
    return TrigPolynomial(tuple(terms))


def constant_polynomial(value: float, dim: int) -> TrigPolynomial:
    return TrigPolynomial(((value, (0,) * dim, 0.0),))


def hamiltonian_variation(
    system: QuadricSystem,
    f: TrigPolynomial,
    resolution: int = 48,
) -> float:
    """|integral of <H, W_f> dvol| over a fundamental chart.

    For a Lagrangian immersion the integrand reduces to the metric pairing
    of grad(beta) with grad(f), so the quadrature vanishes exactly when the
    angle is harmonic.  Supported on surface charts (n = 2) and pure torus
    systems of dimension at most 4; other dimensions raise
    DimensionUnsupported.
    """
    total_dim = system.n
    if not (total_dim == 2 or (system.k == 0 and total_dim <= 4)):
        raise DimensionUnsupported(
            f"variation quadrature needs n=2 or a torus system (n<=4), got n={total_dim}"
        )
    mesh = chart_mesh(system, resolution)
    grids = mesh.node_grids()
    # periodic trapezoid sum: sample on the half-open grid. Torus axes of
    # the mesh are half-open already; nothing to trim.
    ginv = np.linalg.inv(mesh.metric)
    sqrtg = np.sqrt(np.linalg.det(mesh.metric))
    integrand = np.zeros(mesh.shape)
    for a in range(mesh.dim):
        if mesh.angle_gradient[a] == 0.0:
            continue
        for b in range(mesh.dim):
            integrand += (
                ginv[..., a, b] * mesh.angle_gradient[a] * f.gradient(b, *grids)
            )
    return float(abs(np.sum(integrand * sqrtg) * mesh.volume))


def gradient_graph_variation(
    amplitude: float,
    f: TrigPolynomial,
    resolution: int = 64,
) -> float:
    """Same quadrature on a synthetic non-volume-critical Lagrangian.

    The gradient graph z = x + i grad(phi)(x) over the unit 2-torus with
    phi = amplitude*cos(2*pi*x1)*cos(2*pi*x2) is Lagrangian but its angle
    arg det(I + i Hess phi) is not harmonic, so a correlated f produces a
    visibly nonzero first variation.  Serves as the negative control for
    hamiltonian_variation.
    """
    N = resolution
    h = 1.0 / N
    t = np.arange(N) * h
    x1, x2 = np.meshgrid(t, t, indexing="ij")
    c1, s1 = np.cos(TWO_PI * x1), np.sin(TWO_PI * x1)
    c2, s2 = np.cos(TWO_PI * x2), np.sin(TWO_PI * x2)
    w = TWO_PI * TWO_PI * amplitude
    h11 = -w * c1 * c2
    h22 = -w * c1 * c2
    h12 = w * s1 * s2
    # beta = arg det(I + i Hess), metric G = I + Hess^2
    det = (1.0 + 1j * h11) * (1.0 + 1j * h22) - (1j * h12) ** 2
    beta = np.angle(det)
    g11 = 1.0 + h11 * h11 + h12 * h12
    g22 = 1.0 + h22 * h22 + h12 * h12
    g12 = h12 * (h11 + h22)
    detg = g11 * g22 - g12 * g12
    db1 = (np.roll(beta, -1, axis=0) - np.roll(beta, 1, axis=0)) / (2 * h)
    db2 = (np.roll(beta, -1, axis=1) - np.roll(beta, 1, axis=1)) / (2 * h)
    df1 = f.gradient(0, x1, x2)
    df2 = f.gradient(1, x1, x2)
    integrand = (
        g22 * db1 * df1 - g12 * (db1 * df2 + db2 * df1) + g11 * db2 * df2
    ) / detg
    return float(abs(np.sum(integrand * np.sqrt(detg)) * h * h))
