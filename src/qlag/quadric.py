"""The solution variety M = { u in R^n : sum_i E[i,j] u_i^2 = d_j }.

Validation, residuals, normal frames, tangent spaces, Gauss-Newton
projection onto M and seeded rejection sampling.  Everything is a pure
function of immutable inputs; samplers are deterministic per (seed, count).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
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

    def updated(self, **kwargs) -> "Tolerances":
        return replace(self, **kwargs)


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
        matrix = np.array(exponents.rows, dtype=float).reshape(self.n, self.codim)
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

    def smoothness_rank(self, u: Sequence[float]):
        """Numerical rank of the normal frame; smooth iff it equals codim.

        An int for one point, an int array for a (N, n) batch (one stacked
        SVD).
        """
        nf = self.normals(u)
        if not nf.size:
            rank = np.zeros(nf.shape[:-2], dtype=int)
        else:
            s = np.linalg.svd(nf, compute_uv=False)
            rank = np.sum(s > self.tolerances.rank * np.maximum(1.0, s[..., :1]), axis=-1)
        return int(rank) if rank.ndim == 0 else rank

    def is_smooth_point(self, u: Sequence[float]):
        return self.smoothness_rank(u) == self.codim

    def tangent_basis(self, u: Sequence[float]) -> np.ndarray:
        """k orthonormal vectors orthogonal to every normal, deterministic.

        Gram-Schmidt over the standard basis seeds e_1, e_2, ... in order,
        so the result depends only on u (no randomness, no SVD sign
        ambiguity).  Each point drops the seeds whose residual norm is at
        most 1e-8.  A (N, n) batch gives (N, k, n); row i equals the
        single-point call on u[i] bit for bit.
        """
        u = np.asarray(u, dtype=float)
        U = np.atleast_2d(u)
        singular = np.nonzero(~self.is_smooth_point(U))[0]
        if len(singular):
            where = u if u.ndim == 1 else f"sample {singular[0]} ({U[singular[0]]})"
            raise SingularPoint(f"normal frame rank < {self.codim} at {where}")
        N, n, k = len(U), self.n, self.k
        tangents = np.zeros((N, k, n))
        filled = np.zeros(N, dtype=int)
        frame = _orthonormalize(self.normals(U))
        for seed, e in enumerate(np.eye(n)):
            open_rows = filled < k
            if not open_rows.any():
                break
            # project the seed off the normal frame, then off the tangents
            # found so far (unfilled slots are zero rows and add exact zeros)
            v = e - (frame[:, :, seed, None] * frame).sum(1)
            v = v - ((tangents * v[:, None, :]).sum(-1)[:, :, None] * tangents).sum(1)
            norm = np.sqrt((v * v).sum(-1))
            take = np.nonzero(open_rows & (norm > 1e-8))[0]
            tangents[take, filled[take]] = v[take] / norm[take, None]
            filled[take] += 1
        short = np.nonzero(filled < k)[0]
        if len(short):
            where = "" if u.ndim == 1 else f" at sample {short[0]}"
            raise SingularPoint(f"could not complete tangent basis{where}")
        return tangents[0] if u.ndim == 1 else tangents


def _orthonormalize(rows: np.ndarray) -> np.ndarray:
    """Modified Gram-Schmidt over the rows of each (r, n) slice of a batch.

    Callers pass frames of full numerical rank, whose residual norms stay
    above the smallest singular value, so no row degenerates.
    """
    out = np.zeros_like(rows)
    for a in range(rows.shape[1]):
        v = rows[:, a, :]
        for b in range(a):
            q = out[:, b, :]
            v = v - (q * v).sum(-1)[:, None] * q
        out[:, a, :] = v / np.sqrt((v * v).sum(-1))[:, None]
    return out


def newton_project(
    system: QuadricSystem,
    guess: Sequence[float],
    tol: float | None = None,
    max_iter: int | None = None,
    polish: bool = False,
) -> np.ndarray:
    """Gauss-Newton least-norm projection of ``guess`` onto the variety.

    Exact points are returned unchanged.  ``polish`` keeps iterating to
    stagnation after meeting the tolerance, for callers that feed the
    result into finite differences.
    """
    tol = system.tolerances.residual if tol is None else tol
    max_iter = system.tolerances.max_iter if max_iter is None else max_iter
    u = np.asarray(guess, dtype=float).copy()
    r = system.residual(u)
    if np.max(np.abs(r)) <= tol and not polish:
        return u
    best_u, best_r = u.copy(), np.max(np.abs(r))
    stale = 0
    for _ in range(max_iter):
        J = system.jacobian(u)
        JJt = J @ J.T
        try:
            step = J.T @ np.linalg.solve(JJt, r)
        except np.linalg.LinAlgError:
            raise SingularJacobian(f"rank-deficient Jacobian near {u}") from None
        if not np.all(np.isfinite(step)):
            raise SingularJacobian(f"non-finite Newton step near {u}")
        u = u - step
        r = system.residual(u)
        rmax = np.max(np.abs(r))
        if rmax < best_r:
            best_u, best_r, stale = u.copy(), rmax, 0
        else:
            stale += 1
            if stale >= 3:
                break  # stagnated at numerical floor
        if rmax <= tol and not polish:
            return u
    if best_r <= tol:
        return best_u
    raise NoConvergence(
        f"residual {best_r:.3e} > {tol:.3e} after {max_iter} iterations"
    )


def newton_project_batch(
    system: QuadricSystem, guesses: np.ndarray, tol: float | None = None,
    max_iter: int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Gauss-Newton over a (N, n) batch of guesses.

    Returns (points, converged_mask); non-converged or singular rows are
    flagged rather than raised, so rejection samplers can discard them.
    """
    tol = system.tolerances.residual if tol is None else tol
    max_iter = system.tolerances.max_iter if max_iter is None else max_iter
    E = system.matrix
    d = np.asarray(system.constants)
    u = np.array(guesses, dtype=float)
    active = np.ones(len(u), dtype=bool)
    for _ in range(max_iter):
        r = (u * u) @ E - d
        done = np.max(np.abs(r), axis=1) <= tol
        active &= ~done
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        J = 2.0 * (E[None, :, :] * u[idx, :, None]).transpose(0, 2, 1)
        JJt = J @ J.transpose(0, 2, 1)
        rhs = r[idx][:, :, None]
        try:
            steps = np.linalg.solve(JJt, rhs)
        except np.linalg.LinAlgError:
            # fall back row by row, zero-stepping (and deactivating) singular rows
            steps = np.zeros_like(rhs)
            for b, i in enumerate(idx):
                try:
                    steps[b] = np.linalg.solve(JJt[b], rhs[b])
                except np.linalg.LinAlgError:
                    active[i] = False
        delta = (J.transpose(0, 2, 1) @ steps)[:, :, 0]
        bad = ~np.all(np.isfinite(delta), axis=1)
        if bad.any():
            active[idx[bad]] = False
            delta[bad] = 0.0
        u[idx] -= delta
    r = (u * u) @ E - d
    converged = np.max(np.abs(r), axis=1) <= tol
    return u, converged


def sample_points(
    system: QuadricSystem,
    count: int,
    seed: int = 0,
    u_floor: float | None = None,
    scale: float = 1.0,
) -> np.ndarray:
    """Deterministic rejection sampler: Gaussian ambient draws projected
    onto M, keeping smooth points off the coordinate strata.

    Points with min_i |u_i| <= u_floor or norm > r_max are rejected, so the
    returned samples are safe for chart-based verification.  Raises
    SamplingExhausted when the acceptance rate is too low (e.g. an empty or
    unbounded variety at this scale).
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
        guesses = rng.normal(0.0, scale, size=(batch, system.n))
        attempts += batch
        points, ok = newton_project_batch(system, guesses)
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
    where identifications can occur.  Returns up to ``count`` points; an
    infeasible stratum yields an empty array instead of raising.
    """
    rng = np.random.default_rng(seed)
    others = [i for i in range(system.n) if i != zero_index]
    accepted: list[np.ndarray] = []
    attempts = 0
    cap = max(500, 100 * count)
    while len(accepted) < count and attempts < cap:
        attempts += 1
        guess = np.zeros(system.n)
        guess[others] = rng.normal(0.0, 1.0, size=len(others))
        u = guess
        converged = False
        for _ in range(system.tolerances.max_iter):
            r = system.residual(u)
            if np.max(np.abs(r)) <= system.tolerances.residual:
                converged = True
                break
            J = system.jacobian(u)[:, others]
            try:
                step = J.T @ np.linalg.solve(J @ J.T, r)
            except np.linalg.LinAlgError:
                break
            if not np.all(np.isfinite(step)):
                break
            u = u.copy()
            u[others] -= step
        if converged and np.linalg.norm(u) <= system.tolerances.r_max:
            u[zero_index] = 0.0
            accepted.append(u)
    return np.array(accepted) if accepted else np.zeros((0, system.n))


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
