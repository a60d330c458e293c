"""The complex-space side of the construction.

A quadric system in R^n plus its twisted torus factor gives the map

    z_i = u_i * exp(i*pi*(e_i, y)),   u in M,  y in R^m  (m = codim),

whose quotient by the coset group immerses into C^n.  This module builds
tangent frames, checks the symplectic pullback, evaluates the Lagrangian
angle (closed form, and measured off the frame), and the two independent
mean-curvature routes, discretizes the angle's Laplace-Beltrami operator,
runs Hamiltonian variation quadratures, and assembles product systems.
A frame is one pass: frame_at evaluates the phases once and checks the
torus Gram block, and the one Hermitian Gram of the frame rows, which the
Lagrangian and cross-block checks read, is built on first read.
Its chart, ImmersionChart, takes the variety that stencil points are
projected onto and a map to ambient coordinates, so the projective
oracle reuses it on the link.  Every sample-wise routine takes (N, n)
variety points and (N, m) torus angles and returns one result per row.

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
from functools import cached_property
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
from .quadric import (
    QuadricSystem,
    definite,
    lone_sign,
    newton_project,
    sample_points,
)
from .torus import torus_box

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# the immersion map and its frames
# ---------------------------------------------------------------------------


def torus_phases(system: QuadricSystem, y: Sequence[float]) -> np.ndarray:
    """exp(i*pi*(e_i, y)) for every exponent row; (N, n) for a (N, m) batch."""
    y = np.asarray(y, dtype=float)
    # one matrix-vector product per sample, never one product over the
    # batch, so a sample's bits do not depend on the block it falls in
    angles = np.pi * (system.matrix @ y[..., None])[..., 0]
    return np.exp(1j * angles)


def phi(system: QuadricSystem, u: Sequence[float], y: Sequence[float]) -> np.ndarray:
    """The immersion: componentwise u_i times the torus phase."""
    return np.asarray(u, dtype=float) * torus_phases(system, y)


def torus_tangents(system: QuadricSystem, z) -> np.ndarray:
    """Rows Y_j = d/dy_j of the immersion at z = phi(u, y): (pi*i*E[i,j]*z_i)_i."""
    return np.pi * 1j * (system.matrix.T * np.asarray(z)[..., None, :])


def _pairings(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_l a[..., i, l] * b[..., j, l] for every row pair (i, j).

    Summed along the contiguous last axis, never through BLAS, so a
    sample's bits do not depend on the block it falls in.
    """
    return (a[..., :, None, :] * b[..., None, :, :]).sum(-1)


def torus_metric(system: QuadricSystem, u) -> np.ndarray:
    """Closed form of the torus metric block: pi^2 * E^T diag(u^2) E."""
    u = np.asarray(u, dtype=float)
    Et = system.matrix.T
    return np.pi * np.pi * _pairings(Et * (u * u)[..., None, :], Et)


@dataclass(frozen=True)
class FrameBundle:
    """Tangent frames at N immersion points: their rows, the torus metric
    blocks frame_at checked, and the Hermitian Grams of the rows, built on
    first read."""

    rows: np.ndarray  # (N, k + m, n) complex: the variety rows X_s, then the torus rows Y_j
    metric_y: np.ndarray  # (N, m, m) real Re<Y_i, Y_j>

    @cached_property
    def gram(self) -> np.ndarray:
        """<V_a, V_b> for every pair of rows, (N, k + m, k + m) complex."""
        return _pairings(self.rows, np.conjugate(self.rows))

    def symplectic_defect(self) -> np.ndarray:
        """max |omega(V_a, V_b)| over all pairs of rows, per sample."""
        return np.max(np.abs(np.imag(self.gram)), axis=(-2, -1), initial=0.0)

    def cross_defect(self) -> np.ndarray:
        """Largest |<Y_j, X_s>| per sample: zero in exact arithmetic for
        points on M."""
        k = self.rows.shape[-2] - self.metric_y.shape[-1]
        return np.max(np.abs(self.gram[..., k:, :k]), axis=(-2, -1), initial=0.0)


def frame_at(system: QuadricSystem, u, y) -> FrameBundle:
    """Tangent frame, the variety rows X_s (the orthonormal tangent basis of
    M twisted by the phases) then the torus rows Y_j; their torus Gram is
    checked against its closed form on every call, at the samples of
    (N, n) and (N, m) batches u and y.
    """
    u = np.asarray(u, dtype=float)
    phases = torus_phases(system, y)
    Y = torus_tangents(system, u * phases)
    rows = np.concatenate([system.tangent_basis(u) * phases[..., None, :], Y], axis=-2)
    gy = np.real(_pairings(Y, np.conjugate(Y)))
    agrees = np.isclose(gy, torus_metric(system, u), rtol=1e-10, atol=1e-10)
    off = np.nonzero(~agrees.all(axis=(-2, -1)))[0]
    if len(off):
        raise CrossCheckFailed(f"torus metric Gram disagrees with closed form at sample {off[0]}")
    return FrameBundle(rows, gy)


def lagrangian_defect(system: QuadricSystem, u, y) -> np.ndarray:
    """Largest symplectic pairing among tangent frame vectors, per sample."""
    return frame_at(system, u, y).symplectic_defect()


# ---------------------------------------------------------------------------
# Lagrangian angle and mean curvature
# ---------------------------------------------------------------------------


def lagrangian_angle(system: QuadricSystem, y) -> np.ndarray:
    """beta(y) = pi*(e, y) + codim*pi/2 reduced mod 2*pi, one value per row
    of a (N, m) batch of torus angles.

    The angle is linear in the torus coordinates with slope pi*e; only the
    slope enters the mean curvature, the constant is an orientation choice.
    """
    e = np.array(sum_vector(system.exponents), dtype=float)
    value = np.pi * (np.asarray(y, dtype=float) @ e) + system.codim * np.pi / 2.0
    return value % TWO_PI


def measured_lagrangian_angle(system: QuadricSystem, u, y):
    """Angle read off the immersion itself, with no closed form involved.

    The argument of the holomorphic volume form on the tangent frame rows,
    det of the rows.  Gram-Schmidt over the real inner product would
    multiply the rows by a real triangular matrix with positive diagonal,
    which leaves that argument unchanged, so the rows serve as they are.
    Agrees with lagrangian_angle up to orientation (mod pi).  One value per
    sample of (N, n) and (N, m) batches.
    """
    return np.angle(np.linalg.det(frame_at(system, u, y).rows)) % TWO_PI


def mean_curvature(system: QuadricSystem, u, y) -> np.ndarray:
    """Closed-form mean curvature J psi_*(grad beta), (N, n) for (N, n) and
    (N, m) batches.

    grad beta lives purely in the torus block; multiplication by i realizes
    the complex structure.  Vanishes identically when the exponent rows sum
    to zero.
    """
    e = np.array(sum_vector(system.exponents), dtype=float)
    coeff = np.linalg.solve(torus_metric(system, u), np.pi * e)
    return 1j * (coeff[..., None, :] @ torus_tangents(system, phi(system, u, y)))[..., 0, :]


class ImmersionChart:
    """Local charts R^k x R^m -> R^{2n} around points of the immersed image.

    The variety factor is parametrized by Gauss-Newton projection along a
    tangent basis frozen at the centre, so the map is smooth in the chart
    variables.  Centres are (N, n), (N, m) batches, and the chart takes
    (N, S, dim) points, S per centre; all variety points are projected in
    one call.  Stencil points are projected onto
    ``variety`` (the system itself by default), and ``ambient`` maps the
    immersed points to the chart's target coordinates (C^n itself here).
    Output stacks real and imaginary parts for the finite-difference
    machinery.
    """

    def __init__(self, system: QuadricSystem, u0, y0, variety: QuadricSystem | None = None):
        self.system = system
        self.variety = system if variety is None else variety
        self.u0 = np.asarray(u0, dtype=float)
        self.y0 = np.asarray(y0, dtype=float)
        self.tangent = self.variety.tangent_basis(self.u0) if self.variety.k else None

    @property
    def dim(self) -> int:
        return self.variety.k + self.system.codim

    def ambient(self, z: np.ndarray) -> np.ndarray:
        """Target coordinates of immersed points z."""
        return z

    def __call__(self, xi: np.ndarray) -> np.ndarray:
        xi = np.asarray(xi, dtype=float)
        k, n = self.variety.k, self.system.n
        u = self.u0[:, None]
        if k:
            u = u + xi[..., :k] @ self.tangent
            u = newton_project(self.variety, u.reshape(-1, n), polish=True).reshape(u.shape)
        z = self.ambient(phi(self.system, u, self.y0[:, None] + xi[..., k:]))
        return np.concatenate([z.real, z.imag], axis=-1)


def mean_curvature_fd(system: QuadricSystem, u, y) -> np.ndarray:
    """Independent mean-curvature oracle: unnormalized trace of the second
    fundamental form, everything by central finite differences in local
    charts, with the step system.tolerances.fd_step.  Shares no formulas
    with mean_curvature.  (N, n) and (N, m) batches give (N, n), with every
    stencil in one chart call."""
    step = system.tolerances.fd_step
    chart = ImmersionChart(system, u, y)
    H = mean_curvature_flat(chart, np.zeros((len(chart.u0), chart.dim)), step)
    n = system.n
    return H[..., :n] + 1j * H[..., n:]


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
    immersions; Lagrangian angles add and mean curvatures concatenate.
    """
    ma, mb = a.codim, b.codim
    rows = [tuple(r) + (0,) * mb for r in a.exponents.rows]
    rows += [(0,) * ma + tuple(r) for r in b.exponents.rows]
    return QuadricSystem(ExponentMatrix(rows), a.constants + b.constants, a.tolerances)


# ---------------------------------------------------------------------------
# chart meshes for harmonicity and variation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChartMesh:
    """Uniform grid over normalized chart coordinates xi in [0,1)^D.

    metric[node + (a,b)] is the pulled-back immersion metric in xi units;
    it only needs to broadcast against shape + (D, D), so chart_mesh keeps
    one copy on torus charts and one per curve node on conic and link
    charts.  angle_gradient is d(beta)/d(xi) (constant; beta is linear);
    periodic marks axes where the chart closes up.
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
        """Normalized chart coordinates of the nodes, one sparse array per
        axis (length shape[a] along axis a, 1 elsewhere); they broadcast
        to shape."""
        return np.meshgrid(
            *[np.arange(nn) * h for nn, h in zip(self.shape, self.spacings)],
            indexing="ij",
            sparse=True,
        )

    def angle_values(self) -> np.ndarray:
        """beta on the nodes, linear in the torus axes (universal cover)."""
        grids = self.node_grids()
        out = np.zeros(self.shape)
        for a in range(self.dim):
            out += self.angle_gradient[a] * grids[a]
        return out


def _conic_parametrization(system: QuadricSystem):
    """Closed unit-speed-in-t parametrization of a compact plane conic
    a*u1^2 + b*u2^2 = d, t in [0,1)."""
    (a,), (b,) = system.exponents.rows
    d = system.constants[0]
    if not definite((a, b), d):
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
    column = system.exponents.column(0)
    l = lone_sign(column)
    if l is None:
        raise ChartUnavailable("cone must have signature (+,+,-) up to sign")
    p, q = (i for i in range(3) if i != l)
    a, b, c = np.abs(np.array(column, dtype=float))[[p, q, l]]
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

    # metric stored on the axes it varies on, broadcast over the rest:
    # curve block from the parametrization, torus block from the closed
    # form pulled back through the period box
    if curve_axes:
        t = np.arange(shape[0]) * spacings[0]
        u_nodes = point(t)  # (Nt, n)
        v_nodes = velocity(t)
        gx = np.sum(v_nodes * v_nodes, axis=-1)  # (Nt,)
        E = system.matrix
        usq = u_nodes * u_nodes  # (Nt, n)
        gy_nodes = np.pi**2 * np.einsum("ia,ti,ib->tab", E, usq, E)
        gy_nodes = box @ gy_nodes @ box.T  # pull back to unit torus coords
        mx = np.zeros(shape[:1] + (dim, dim))
        mx[:, 0, 0] = gx
        mx[:, 1:, 1:] = gy_nodes
        metric = mx.reshape(shape[:1] + (1,) * (dim - 1) + (dim, dim))
        grad = np.concatenate([[0.0], np.pi * (box @ e)])
    else:
        u0 = newton_project(system, np.ones((1, system.n)))[0]
        gy = torus_metric(system, u0)
        gy = box @ gy @ box.T
        metric = gy.reshape((1,) * dim + (dim, dim))
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


# ---------------------------------------------------------------------------
# Hamiltonian variation quadrature
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrigPolynomial:
    """sum_t amp * cos(2*pi*(freqs . xi) + phase) on the unit torus.

    Gradients are analytic; integer frequency vectors keep the
    quadrature sums exact under the trapezoidal rule on uniform grids.
    """

    terms: tuple[tuple[float, tuple[int, ...], float], ...]

    def gradient(self, *grids) -> list[np.ndarray]:
        """The partial derivatives along every axis at the grid points, from
        one sine per term."""
        zero = np.zeros(np.broadcast(*grids).shape if grids else ())
        out = [zero] * len(grids)  # entries are rebound, never written in place
        for amp, freqs, phase in self.terms:
            sine = np.sin(phase + TWO_PI * sum(f * g for f, g in zip(freqs, grids)))
            for axis, f in enumerate(freqs):
                if f:
                    out[axis] = out[axis] - amp * TWO_PI * f * sine
        return out


def random_trig_polynomial(dim: int, seed: int = 0) -> TrigPolynomial:
    """Four terms with integer frequencies in [-2, 2], none all zero."""
    rng = np.random.default_rng([seed, 7])
    terms = []
    for _ in range(4):
        freqs = tuple(int(f) for f in rng.integers(-2, 3, size=dim))
        if not any(freqs):
            freqs = (1,) + (0,) * (dim - 1)
        amp = float(rng.uniform(-1.0, 1.0))
        phase = float(rng.uniform(0.0, TWO_PI))
        terms.append((amp, freqs, phase))
    return TrigPolynomial(tuple(terms))


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
    df = f.gradient(*grids)
    integrand = np.zeros(mesh.shape)
    for a in range(mesh.dim):
        if mesh.angle_gradient[a] == 0.0:
            continue
        for b in range(mesh.dim):
            integrand += ginv[..., a, b] * mesh.angle_gradient[a] * df[b]
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
    df1, df2 = f.gradient(x1, x2)
    integrand = (
        g22 * db1 * df1 - g12 * (db1 * df2 + db2 * df1) + g11 * db2 * df2
    ) / detg
    return float(abs(np.sum(integrand * np.sqrt(detg)) * h * h))
