"""The solution variety M = { u in R^n : sum_i E[i,j] u_i^2 = d_j }.

Validation, residuals, normal frames, tangent spaces, Gauss-Newton
projection onto M and seeded rejection sampling.  Everything is a pure
function of immutable inputs; samplers are deterministic per (seed, count).

One equation's sign pattern is read by definite (a compact ellipsoid) and
lone_sign (a cone's axis) alone.  Tolerances is the one record of the
numeric knobs: its fields name them, their defaults give their types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    NoConvergence,
    NotACone,
    SamplingExhausted,
    SingularJacobian,
    SingularPoint,
)
from .lattice import ExponentMatrix


@dataclass(frozen=True)
class Tolerances:
    """Numerical knobs, defaults sized well below verification tolerances."""

    residual: float = 1e-12
    rank: float = 1e-9
    u_floor: float = 1e-3
    max_iter: int = 100
    r_max: float = 1e3
    fd_step: float = 1e-5


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
        matrix = np.array(exponents.rows, dtype=float)
        matrix.setflags(write=False)
        object.__setattr__(self, "_matrix", matrix)

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
        return (u * u) @ self.matrix - np.asarray(self.constants)

    def normals(self, u: Sequence[float]) -> np.ndarray:
        """The codim half-gradient rows n_j = (E[1,j] u_1, ..., E[n,j] u_n).

        A (N, n) batch of points gives (N, codim, n).
        """
        u = np.asarray(u, dtype=float)
        return self.matrix.T * u[..., None, :]

    def jacobian(self, u: Sequence[float]) -> np.ndarray:
        """Jacobian of the residual: twice the normal frame."""
        return 2.0 * self.normals(u)

    def smoothness_rank(self, u: np.ndarray) -> np.ndarray:
        """Numerical rank of the normal frame at each point of a (N, n) batch,
        from one stacked SVD; a point is smooth iff its rank equals codim."""
        nf = self.normals(u)
        if not nf.size:
            return np.zeros(nf.shape[:-2], dtype=int)
        s = np.linalg.svd(nf, compute_uv=False)
        return np.sum(s > self.tolerances.rank * np.maximum(1.0, s[..., :1]), axis=-1)

    def is_smooth_point(self, u: np.ndarray) -> np.ndarray:
        return self.smoothness_rank(u) == self.codim

    def tangent_basis(self, u: np.ndarray) -> np.ndarray:
        """k orthonormal vectors orthogonal to every normal at each point of a
        (N, n) batch, (N, k, n), deterministic.

        orthonormalize runs the standard basis seeds e_1, e_2, ... in order
        against the orthonormal normal frame, so the result depends only on
        u (no randomness, no SVD sign ambiguity).  Each point drops the
        seeds whose residual norm is at most 1e-8.
        """
        u = np.asarray(u, dtype=float)
        singular = np.nonzero(~self.is_smooth_point(u))[0]
        if len(singular):
            i = singular[0]
            raise SingularPoint(f"normal frame rank < {self.codim} at sample {i} ({u[i]})")
        seeds = np.broadcast_to(np.eye(self.n), (len(u), self.n, self.n))
        normal = orthonormalize(self.normals(u))[0]
        tangents, kept = orthonormalize(seeds, self.k, 1e-8, against=normal)
        short = np.nonzero(kept < self.k)[0]
        if len(short):
            raise SingularPoint(f"could not complete tangent basis at sample {short[0]}")
        return tangents


def orthonormalize(
    rows: np.ndarray, count: int | None = None, cut=0.0, against: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Modified Gram-Schmidt in Re<a, b> over the rows of each (s, n) slice
    of a (N, s, n) batch, real or complex.

    Each row is projected off the orthonormal rows of ``against`` (N, a, n),
    then off the rows kept so far, and skipped when its residual norm is at
    most ``cut`` (a scalar or one value per slice).  Every row is examined.
    Returns (frame, kept): the first ``count`` kept rows of each slice
    (default s), normalized and zero-padded to (N, count, n), and the number
    of rows each slice kept (its rank past the cut), which may exceed count.
    """
    N, s, n = rows.shape
    frame = np.zeros((N, s, n), dtype=rows.dtype)
    kept = np.zeros(N, dtype=int)
    fixed = () if against is None else np.moveaxis(against, 1, 0)
    for r in range(s):
        v = rows[:, r, :]
        # slots a slice has not filled are zero rows and subtract exact zeros
        for q in [*fixed, *np.moveaxis(frame[:, :kept.max(initial=0)], 1, 0)]:
            v = v - np.real(np.sum(v * np.conjugate(q), axis=-1))[:, None] * q
        norm = np.linalg.norm(v, axis=-1)
        keep = np.nonzero(norm > cut)[0]
        frame[keep, kept[keep]] = v[keep] / norm[keep, None]
        kept[keep] += 1
    return frame[:, :count], kept


# gauss_newton row status
CONVERGED, NO_CONVERGENCE, SINGULAR = 0, 1, 2


def gauss_newton(
    system: QuadricSystem, guesses: np.ndarray, polish: bool = False
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton least-norm projection of a (N, n) batch onto the variety.

    Each step is the least-norm solution of J du = r, so a coordinate at
    exactly 0 stays 0 (its Jacobian column is zero).  A row stops once it
    meets the residual tolerance, unchanged if it starts there.  A
    ``polish`` row that has met it goes on until 3 steps in a row fail to
    lower its residual, for callers that feed the result into finite
    differences.  Returns (best iterate per row, status per row): CONVERGED,
    NO_CONVERGENCE, or SINGULAR (rank-deficient Jacobian, non-finite step).
    """
    tol, max_iter = system.tolerances.residual, system.tolerances.max_iter
    patience = 3 if polish else 0
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
        J = system.jacobian(u[idx])
        JJt = J @ J.transpose(0, 2, 1)
        rhs = r[idx][:, :, None]
        try:
            steps = np.linalg.solve(JJt, rhs)
        except np.linalg.LinAlgError:
            # fall back row by row, zero-stepping (and flagging) singular rows
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
    status = np.where(singular, SINGULAR, NO_CONVERGENCE)
    status[best <= tol] = CONVERGED
    return best_u, status


def newton_project(
    system: QuadricSystem, guesses: np.ndarray, polish: bool = False
) -> np.ndarray:
    """gauss_newton on a (N, n) batch, raising on the first failed row:
    SingularJacobian or NoConvergence."""
    guesses = np.asarray(guesses, dtype=float)
    points, status = gauss_newton(system, guesses, polish)
    failed = np.nonzero(status != CONVERGED)[0]
    if len(failed):
        i = failed[0]
        where = f"row {i} ({guesses[i]})"
        if status[i] == SINGULAR:
            raise SingularJacobian(f"rank-deficient Jacobian or non-finite step from {where}")
        raise NoConvergence(
            f"residual {np.max(np.abs(system.residual(points[i]))):.3e} > "
            f"{system.tolerances.residual:.3e} after {system.tolerances.max_iter} "
            f"iterations from {where}"
        )
    return points


def sample_points(
    system: QuadricSystem,
    count: int,
    seed: int = 0,
    u_floor: float | None = None,
) -> np.ndarray:
    """Deterministic rejection sampler: Gaussian ambient draws projected
    onto M, keeping smooth points off the coordinate strata.

    Points with min_i |u_i| <= u_floor or norm > r_max are rejected, so the
    returned samples are safe for chart-based verification.  Raises
    SamplingExhausted when the acceptance rate is too low (e.g. an empty or
    unbounded variety at unit scale).
    """
    tol = system.tolerances
    floor = tol.u_floor if u_floor is None else u_floor
    if count == 0:
        return np.zeros((0, system.n))
    rng = np.random.default_rng(seed)
    accepted: list[np.ndarray] = []
    have = attempts = 0
    rejected = {"diverged": 0, "near_axis": 0, "unbounded": 0, "singular": 0}
    cap = max(2000, 400 * count)
    batch = max(64, 2 * count)
    while have < count:
        if attempts >= cap:
            # a dominant "unbounded" count suggests M escapes the radius cap
            raise SamplingExhausted(
                f"accepted {have}/{count} after {attempts} draws "
                f"(rejections: {rejected})"
            )
        guesses = rng.normal(0.0, 1.0, size=(batch, system.n))
        attempts += batch
        points, status = gauss_newton(system, guesses)
        ok = status == CONVERGED
        # verdict per draw: the index in `rejected` of its first failed test,
        # -1 when accepted; diverged draws may be non-finite, so the later
        # tests see converged draws only, and the rank test only the draws
        # that passed the others
        good = points[ok]
        code = np.where(np.min(np.abs(good), axis=1) <= floor, 1, -1)
        code[(code < 0) & (np.linalg.norm(good, axis=1) > tol.r_max)] = 2
        rest = np.nonzero(code < 0)[0]
        if len(rest):
            code[rest[~system.is_smooth_point(good[rest])]] = 3
        verdict = np.zeros(len(points), dtype=int)
        verdict[ok] = code
        take = np.nonzero(verdict < 0)[0][: count - have]
        # draws after the one that fills the quota are never examined
        seen = take[-1] + 1 if have + len(take) == count else len(points)
        for index, reason in enumerate(rejected):
            rejected[reason] += int(np.count_nonzero(verdict[:seen] == index))
        accepted.append(points[take])
        have += len(take)
    return np.concatenate(accepted)


def sample_stratum_points(
    system: QuadricSystem,
    zero_index: int,
    count: int,
    seed: int = 0,
) -> np.ndarray:
    """Points of M with u[zero_index] = 0 exactly (may be empty).

    Used by the self-intersection scanner, which must probe the strata
    where identifications can occur.  Guesses start on the stratum, which
    Gauss-Newton never leaves.  Returns up to ``count`` points; an
    infeasible stratum yields an empty array instead of raising.
    """
    rng = np.random.default_rng(seed)
    others = np.arange(system.n) != zero_index
    accepted = [np.zeros((0, system.n))]
    have = attempts = 0
    cap = max(500, 100 * count)
    while have < count and attempts < cap:
        size = min(max(64, 2 * count), cap - attempts)
        guesses = np.zeros((size, system.n))
        guesses[:, others] = rng.normal(0.0, 1.0, size=(size, system.n - 1))
        attempts += size
        points, status = gauss_newton(system, guesses)
        good = points[status == CONVERGED]
        take = good[np.linalg.norm(good, axis=1) <= system.tolerances.r_max][: count - have]
        accepted.append(take)
        have += len(take)
    return np.concatenate(accepted)


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
    """Augment the system with the unit-sphere equation sum u_i^2 = 1.

    For cones this cuts out the link, reusing all variety machinery
    (residuals, Newton projection, tangent bases) unchanged.
    """
    rows = [tuple(r) + (1,) for r in system.exponents.rows]
    constants = tuple(system.constants) + (1.0,)
    return QuadricSystem(ExponentMatrix(rows), constants, system.tolerances)
