"""The solution variety M = { u in R^n : sum_i E[i,j] u_i^2 = d_j }.

Validation, residuals, normals, the one orthonormalization (householder),
tangent spaces, Gauss-Newton projection onto M and seeded sampling.
Everything is a pure function of immutable inputs; a QuadricSystem keeps the
facts it decides (the cuts of its moment polytope P, smoothness per support,
its link system) for its life.  M is the set of u with u^2 in P, so the
samplers return u = eps sqrt(v) for v drawn from P, with no projection.

One equation's sign pattern is read by definite (a compact ellipsoid) and
lone_sign (a cone's axis) alone.  Tolerances is the one record of the
numeric knobs: its fields name them.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    NoConvergence,
    NotACone,
    QlagError,
    SamplingExhausted,
    SingularJacobian,
    SingularPoint,
)
from .lattice import ExponentMatrix, hermite_normal_form, polyhedron


@dataclass(frozen=True)
class Tolerances:
    """Numerical knobs, defaults sized well below verification tolerances."""

    residual: float = 1e-12
    u_floor: float = 1e-3
    fd_step: float = 1e-5


def once(fn):
    """fn, run at most once: later calls return its value or raise a fresh
    copy of its error, which functools.cache would not keep.  The copy kept
    has no traceback or context, so it holds no frame; fn is let go too."""
    result = []

    def call():
        nonlocal fn
        if not result:
            try:
                result.append((fn(), None))
            except QlagError as exc:
                result.append((None, copy.copy(exc)))
            fn = None
        value, exc = result[0]
        if exc is not None:
            raise copy.copy(exc)
        return value

    return call


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class QuadricSystem:
    """Integer exponent matrix plus real constants, one per equation."""

    exponents: ExponentMatrix
    constants: tuple[float, ...]
    tolerances: Tolerances = field(default_factory=Tolerances)

    def __init__(self, exponents, constants, tolerances: Tolerances | None = None):
        if not isinstance(exponents, ExponentMatrix):
            exponents = ExponentMatrix(exponents)
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "constants", tuple(float(c) for c in constants))
        object.__setattr__(self, "tolerances", tolerances or Tolerances())
        if len(self.constants) != exponents.codim:
            raise ValueError(
                f"{len(self.constants)} constants for {exponents.codim} equations"
            )
        object.__setattr__(self, "_matrix", _frozen(np.array(exponents.rows, dtype=float)))
        object.__setattr__(self, "_constants", _frozen(np.array(self.constants)))
        object.__setattr__(self, "_memo", {})  # not a field: eq, hash and repr skip it

    def _fact(self, key, build):
        """build(), run once per key in the system's life (see once)."""
        return self._memo.setdefault(key, once(build))()

    @property
    def n(self) -> int:
        return self.exponents.n

    @property
    def codim(self) -> int:
        return self.exponents.codim

    @property
    def k(self) -> int:
        return self.exponents.k

    @property
    def matrix(self) -> np.ndarray:
        """E as a read-only (n, codim) float array, built once."""
        return self._matrix

    def is_cone(self) -> bool:
        return all(c == 0.0 for c in self.constants)

    def residual(self, u: Sequence[float]) -> np.ndarray:
        """Component j is sum_i E[i,j] u_i^2 - d_j."""
        u = np.asarray(u, dtype=float)
        return (u * u) @ self.matrix - self._constants

    def normals(self, u: Sequence[float]) -> np.ndarray:
        """The codim half-gradient rows n_j = (E[1,j] u_1, ..., E[n,j] u_n).

        A (N, n) batch of points gives (N, codim, n).
        """
        u = np.asarray(u, dtype=float)
        return self.matrix.T * u[..., None, :]

    def is_smooth_point(self, u: np.ndarray) -> np.ndarray:
        """Whether M is smooth at each point of a (N, n) batch: the rows of E
        on the point's support (its nonzero coordinates) have rank codim,
        decided exactly, once per support in the system's life.  The batch
        is grouped by its supports packed into byte codes."""
        support = np.asarray(u, dtype=float) != 0
        packed = np.packbits(support, axis=-1)
        codes, first, inverse = np.unique(packed.view(f"V{packed.shape[-1]}").ravel(),
                                          return_index=True, return_inverse=True)
        rows = self.exponents.rows
        smooth = [self._fact(("support", code.tobytes()), lambda on=support[i]: len(
            hermite_normal_form([r for r, bit in zip(rows, on) if bit])) == self.codim)
            for code, i in zip(codes, first)]
        return np.array(smooth, dtype=bool)[inverse]

    def tangent_basis(self, u: np.ndarray) -> np.ndarray:
        """k orthonormal vectors orthogonal to every normal at each point of a
        (N, n) batch, (N, k, n), deterministic: the complement rows of one
        householder QR of the normals, so the result depends only on u.  A
        point where M is not smooth raises SingularPoint, as does (from
        householder) a normal column that is zero or not finite.
        """
        u = np.asarray(u, dtype=float)
        singular = np.nonzero(~self.is_smooth_point(u))[0]
        if len(singular):
            i = singular[0]
            raise SingularPoint(f"normal frame rank < {self.codim} at sample {i} ({u[i]})")
        return householder(self.normals(u), complement=True)


def householder(rows: np.ndarray, complement: bool) -> np.ndarray:
    """Orthonormal rows spanning the c rows of each slice of a real (N, c, n)
    batch, c <= n, as (N, c, n); or, with complement, spanning their
    orthogonal complement, as (N, n - c, n).

    One Householder QR of the (n, c) transposed rows per slice: reflector j
    maps column j, below its first j entries, onto a coordinate axis, with
    the sign that avoids cancellation, and the reflectors applied in reverse
    order to the first c or the last n - c columns of I give those columns
    of Q.  Each column is first scaled by the exact power of two that brings
    its largest entry into [1/2, 1), so no square under- or overflows and
    the reflector is the unscaled one.  The rows are orthonormal to rounding,
    and span the given rows (or their complement) to rounding.  Every product
    is summed along an axis, never through BLAS, so no slice's bits depend on
    its block.  A column that is zero or not finite raises SingularPoint.
    """
    a = np.array(rows, dtype=float)  # row j is column j of the matrix to factor
    N, c, n = a.shape
    reflectors = []
    for j in range(c):
        top = np.max(np.abs(a[:, j, j:]), axis=-1)
        bad = np.nonzero(~((top > 0) & (top < np.inf)))[0]
        if len(bad):
            raise SingularPoint(f"could not complete tangent basis at sample {bad[0]}")
        v = np.ldexp(a[:, j, j:], -np.frexp(top)[1][:, None])
        v[:, 0] += np.copysign(np.sqrt((v * v).sum(-1)), v[:, 0])
        v /= np.sqrt((v * v).sum(-1))[:, None]
        a[:, j + 1:, j:] -= 2 * (a[:, j + 1:, j:] * v[:, None]).sum(-1)[..., None] * v[:, None]
        reflectors.append(v)
    basis = np.tile(np.eye(n)[c:] if complement else np.eye(n)[:c], (N, 1, 1))
    for j, v in reversed(list(enumerate(reflectors))):
        basis[..., j:] -= 2 * (basis[..., j:] * v[:, None]).sum(-1)[..., None] * v[:, None]
    return basis


# Gauss-Newton's step cap, and the evaluations a row that has met the
# residual tolerance may go without lowering its residual
MAX_ITER = 100
PATIENCE = 3


def newton_project(system: QuadricSystem, guesses: np.ndarray) -> np.ndarray:
    """Gauss-Newton least-norm projection of a (N, n) batch onto the variety,
    raising on the first failed row.

    Each step is the least-norm solution of J du = r, so a coordinate at
    exactly 0 stays 0 (its Jacobian column is zero).  For the finite
    differences that read it, a row that has met the residual tolerance goes
    on until PATIENCE steps in a row fail to lower its residual, and ends at
    its best iterate.  A row whose best residual stays above the tolerance
    fails: SingularJacobian if its Jacobian lost rank or its step was not
    finite, NoConvergence otherwise.  The residual is evaluated over the
    whole batch, so no row's bits depend on how many others are stepping.
    """
    tol = system.tolerances.residual
    guesses = np.asarray(guesses, dtype=float)
    u = guesses.copy()
    best_u = u.copy()
    best = np.full(len(u), np.inf)
    singular = np.zeros(len(u), dtype=bool)
    # the stepping rows, their best residuals so far (written back to best
    # as they leave) and evaluations since their best
    idx = np.arange(len(u))
    low = best.copy()
    stale = np.zeros(len(u), dtype=int)
    for it in range(MAX_ITER + 1):
        r = system.residual(u)[idx]
        rmax = np.abs(r).max(axis=1)
        better = rmax < low
        low = np.where(better, rmax, low)
        rows = idx[better]
        best_u[rows] = u[rows]
        stale = np.where(better, 0, stale + 1)
        going = (low > tol) | (stale < PATIENCE)
        if not going.all():
            best[idx] = low
            idx, r, low, stale = idx[going], r[going], low[going], stale[going]
        if it == MAX_ITER or not len(idx):
            break
        v = u[idx]
        J = 2.0 * system.normals(v)
        Jt = J.transpose(0, 2, 1)
        delta = (Jt @ _solve(J @ Jt, r[:, :, None]))[:, :, 0]
        if not np.isfinite(delta).all():
            ok = np.isfinite(delta).all(axis=1)
            singular[idx[~ok]] = True
            best[idx] = low
            idx, low, stale, v, delta = idx[ok], low[ok], stale[ok], v[ok], delta[ok]
        u[idx] = v - delta
    best[idx] = low
    failed = np.nonzero(best > tol)[0]
    if len(failed):
        i = failed[0]
        where = f"row {i} ({guesses[i]})"
        if singular[i]:
            raise SingularJacobian(f"rank-deficient Jacobian or non-finite step from {where}")
        raise NoConvergence(
            f"residual {np.max(np.abs(system.residual(best_u[i]))):.3e} > "
            f"{tol:.3e} after {MAX_ITER} "
            f"iterations from {where}"
        )
    return best_u


def _solve(JJt: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The stacked solve of JJt x = rhs; where LAPACK finds a zero pivot,
    row by row, with a NaN step for each singular row."""
    try:
        return np.linalg.solve(JJt, rhs)
    except np.linalg.LinAlgError:
        steps = np.full_like(rhs, np.nan)
        for b in range(len(JJt)):
            try:
                steps[b] = np.linalg.solve(JJt[b], rhs[b])
            except np.linalg.LinAlgError:
                pass
        return steps


def moment_polytope(system: QuadricSystem, floor=0.0) -> list[np.ndarray]:
    """Read-only float (V, n) vertices, less floor^2, and (R, n) rays of the
    exact lattice.polyhedron of P = {v >= 0 : E^T v = d} (a cone's link
    P ∩ {sum v = 1}) cut to v >= floor^2, from the system's facts, each
    enumerated once: P with its rays, which every cut shares, and each other
    cut's vertices.  A cut beyond float64 raises SamplingExhausted."""
    rows, rhs = [*zip(*system.exponents.rows)], [Fraction(c) for c in system.constants]
    if system.is_cone():
        rows, rhs = [*rows, (1,) * system.n], [*rhs, Fraction(1)]
    exact = system._fact("P", lambda: polyhedron(rows, rhs))
    cut = [b - Fraction(floor) ** 2 * sum(row) for row, b in zip(rows, rhs)]

    def floats(part):
        try:  # an exact vertex may be beyond float64
            return _frozen(np.array(part, dtype=float).reshape(-1, system.n))
        except OverflowError:
            raise SamplingExhausted(f"the moment polytope cut at {floor}^2 is beyond float64") from None

    return [system._fact(("cut", floor), lambda: floats(
        exact[0] if cut == rhs else polyhedron(rows, cut, False)[0])),
        system._fact("rays", lambda: floats(exact[1]))]


def _draw(
    system: QuadricSystem, count: int, seed: int, vertices, rays, floor=0.0
) -> np.ndarray:
    """``count`` points u = eps sqrt(v), v = floor^2 + a uniform simplex mix
    of the (V, n) ``vertices`` + unit exponential weights on the (R, n)
    ``rays``, a cone's u scaled by a radius in [1, 2)."""
    rng = np.random.default_rng(seed)
    weights = rng.exponential(size=(count, len(vertices)))
    v = floor * floor + (weights / weights.sum(axis=1, keepdims=True)) @ vertices
    v += rng.exponential(size=(count, len(rays))) @ rays
    u = np.sqrt(v) * rng.choice([-1.0, 1.0], size=v.shape)
    if system.is_cone():
        u *= rng.uniform(1.0, 2.0, size=(count, 1))
    return u


def sample_points(
    system: QuadricSystem,
    count: int,
    seed: int = 0,
    u_floor: float | None = None,
) -> np.ndarray:
    """``count`` points of M with every |u_i| > u_floor (tolerances.u_floor
    by default), deterministic per (seed, count): _draw over the vertices
    and rays of P cut to v >= u_floor^2.  A cut P beyond float64, or on which
    some v_i never exceeds u_floor^2, raises SamplingExhausted before any draw."""
    floor = system.tolerances.u_floor if u_floor is None else u_floor
    vertices, rays = moment_polytope(system, floor)
    if not np.all(np.any(np.vstack([vertices, rays]) > 0, axis=0)):
        raise SamplingExhausted(f"no point of the moment polytope has every v_i > {floor}^2")
    return _draw(system, count, seed, vertices, rays, floor)


def sample_stratum_points(
    system: QuadricSystem,
    count: int,
    seed: int = 0,
) -> list[np.ndarray]:
    """Points of M on each coordinate stratum u_j = 0 exactly: for each j,
    ``count`` points drawn at seed + j from the face v_j = 0 of P, whose
    vertices and rays are P's with v_j = 0.  A face gives none, undrawn,
    when it has no vertex or when M is singular on it: is_smooth_point
    fails at its support, the coordinates that some vertex or ray makes
    nonzero."""
    vertices, rays = moment_polytope(system)
    strata = []
    for j in range(system.n):
        face = vertices[vertices[:, j] == 0], rays[rays[:, j] == 0]
        support = np.any(np.vstack(face) > 0, axis=0)
        smooth = len(face[0]) and system.is_smooth_point(support[None])[0]
        strata.append(_draw(system, count, seed + j, *face) if smooth else np.zeros((0, system.n)))
    return strata


def definite(column: Sequence[int], d: float) -> bool:
    """Whether sum_i column[i] u_i^2 = d cuts out a compact ellipsoid: d and
    every coefficient nonzero and of one sign."""
    if d < 0:
        column, d = [-c for c in column], -d
    return d > 0 and all(c > 0 for c in column)


def lone_sign(column: Sequence[int]) -> int | None:
    """Index of the one coefficient whose sign differs from all the others,
    none zero: the axis of a (+,...,+,-) signature up to a global sign, or
    None.  Of two coefficients of opposite sign it returns the positive one."""
    col = np.asarray(column)
    if np.sum(col < 0) == len(col) - 1 and np.sum(col > 0) == 1:
        col = -col
    neg = np.flatnonzero(col < 0)
    if len(neg) == 1 and np.sum(col > 0) == len(col) - 1:
        return int(neg[0])
    return None


def require_cone(system: QuadricSystem) -> None:
    if not system.is_cone():
        raise NotACone(f"constants {system.constants} are not all zero")


def with_unit_sphere(system: QuadricSystem) -> QuadricSystem:
    """The system with the unit-sphere equation sum u_i^2 = 1 added, built
    once per system, so its own memo of smooth supports lasts as long.

    For cones this cuts out the link, reusing all variety machinery
    (residuals, Newton projection, tangent bases) unchanged.
    """
    return system._fact("link", lambda: QuadricSystem(ExponentMatrix(
        [(*r, 1) for r in system.exponents.rows]), (*system.constants, 1.0), system.tolerances))
