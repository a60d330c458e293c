"""The coset group action on M x T^m: orbits, freeness at sample scale,
self-intersection scanning, orientation characters, and pattern-matched
classification of the quotient for the recognized instance families.
Orbits, the collision scan, the orientation characters and the labels read
the action from the cached sign/translation table torus.action_table, over
batches of points and all group elements at once.  One family reader,
_family, names the family and axis that the characters and the labels branch
on, reading each equation's sign pattern through quadric.definite and lone_sign.

Topology here is honest about its scope: labels are only emitted for
instance shapes whose quotient is understood case by case; everything else
is Unknown.  Collision scanning is sample-scale evidence, not a proof of
embeddedness.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckFailed, NonFreeWitness
from .immersion import phi, sample_torus_angles
from .quadric import QuadricSystem, definite, lone_sign, sample_points, sample_stratum_points
from .torus import action_table, gamma_group, torus_box, torus_distance
from .torus import gamma_signs  # noqa: F401  perfbench/tracing.py wraps it here


def orbit(system: QuadricSystem, u, y, tol: float = 1e-9) -> list[tuple[np.ndarray, np.ndarray]]:
    """All |G| translates of the samples of (N, n) and (N, m) batches u, y,
    verified pairwise distinct: |G| pairs of (N, n) and (N, m) arrays, row
    s of each being the translate of sample s.

    Distinctness uses the torus metric on the y part, so points that only
    differ by a full period are correctly treated as equal.  Raises
    NonFreeWitness if two translates coincide (a bug or an invalid group),
    and CrossCheckFailed if a translate leaves the immersion image.  The
    error names what a loop over the samples would meet first: its
    earliest failing sample and, within it, image i before the pairs
    (i, j > i), which come before image i + 1.
    """
    U, Y = np.asarray(u, dtype=float), np.asarray(y, dtype=float)
    signs, shifts = action_table(system.exponents)
    size = len(signs)
    TU = signs[:, None] * U  # (|G|, N, n)
    TY = Y + shifts[:, None]  # (|G|, N, m)
    images = phi(system, np.concatenate([U[None], TU]), np.concatenate([Y[None], TY]))
    base, images = images[0], images[1:]
    leaves = np.max(np.abs(images - base), axis=-1) > 1e-12 * (
        1.0 + np.max(np.abs(base), axis=-1)
    )
    # events of the per-sample loop in its order: image i is i * stride,
    # pair (i, j) is i * stride + j + 1
    stride = size + 1
    never = size * stride
    first = np.where(leaves, np.arange(size)[:, None] * stride, never).min(axis=0)
    # translates i and j of any sample differ on the torus by shifts[i] -
    # shifts[j], so only pairs within tol there are compared on u
    dy = torus_distance(system.exponents, shifts[:, None] - shifts)
    for i, j in zip(*np.nonzero(np.triu(dy <= tol, 1))):
        du = np.max(np.abs(TU[i] - TU[j]), axis=-1)
        first = np.minimum(first, np.where(du <= tol, i * stride + j + 1, never))
    failed = np.flatnonzero(first < never)
    if len(failed):
        i, j = divmod(int(first[failed[0]]), stride)
        if j == 0:
            raise CrossCheckFailed(f"orbit point {i} leaves the immersion image")
        raise NonFreeWitness(f"orbit points {i} and {j - 1} coincide within {tol}")
    return list(zip(TU, TY))


def orbit_distinctness(system: QuadricSystem, samples, tol: float = 1e-9) -> int:
    """Run the orbit check over samples, a (U, Y) tuple of (N, n) and (N, m)
    arrays, in one batched orbit call; returns the orbit size |G|, which is
    the length of every orbit the check lets pass."""
    U, Y = samples
    if len(U):
        orbit(system, U, Y, tol=tol)
    return len(gamma_group(system.exponents))


def same_orbit(system: QuadricSystem, p, q, tol: float = 1e-5) -> np.ndarray:
    """Whether each q = (u, y) lies within tol of some translate of the
    matching p; p and q are (P, n) and (P, m) batches, one bool per row.

    One group element at a time, so the temporaries stay (P, n) and (P, m).
    """
    Up, Yp = (np.asarray(a, dtype=float) for a in p)
    Uq, Yq = (np.asarray(a, dtype=float) for a in q)
    signs, shifts = action_table(system.exponents)
    hit = np.zeros(len(Up), dtype=bool)
    for sign, shift in zip(signs, shifts):
        du = np.max(np.abs(sign * Up - Uq), axis=-1)
        hit |= (du <= tol) & (torus_distance(system.exponents, Yp + shift - Yq) <= tol)
    return hit


# ---------------------------------------------------------------------------
# self-intersection scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CollisionReport:
    """Colliding sample pairs (i, j), i < j, in lexicographic order, with
    the Chebyshev distance of their images and the smaller min_l |u_l|."""

    pairs: np.ndarray  # (P, 2) int64
    image_distance: np.ndarray  # (P,)
    min_abs_u: np.ndarray  # (P,)
    sample_count: int
    tolerance: float

    def __len__(self) -> int:
        return len(self.pairs)


def scan_samples(
    system: QuadricSystem,
    count: int,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample set for collision scanning: generic points at the system's
    u_floor plus 40% placed exactly on the coordinate strata u_j = 0, where
    identifications can hide.

    Stratum points come with their sign mirrors and carry torus angles on a
    uniform grid whose size is a multiple of 4, so half-period phase
    oppositions produce exact image coincidences rather than near misses.
    """
    n_strata = max(0, int(count * 0.4))
    n_generic = count - n_strata
    U_parts = [sample_points(system, n_generic, seed=seed)]
    Y_parts = [sample_torus_angles(system, n_generic, seed=seed)]
    if n_strata and system.k >= 1:
        per_axis = max(8, n_strata // system.n)
        box = torus_box(system.exponents)
        for pts in sample_stratum_points(system, 8, seed=seed):
            if not len(pts):
                continue
            pts = np.vstack([pts, -pts])
            pts = np.unique(pts, axis=0)
            grid = max(4, per_axis // len(pts))
            grid += (-grid) % 4
            ts = np.arange(grid)[:, None] / grid
            angles = ts @ box[:1]  # sweep along the first period direction
            Y_parts.append(np.tile(angles, (len(pts), 1)))
            U_parts.append(np.repeat(pts, grid, axis=0))
    U = np.vstack(U_parts)
    Y = np.vstack(Y_parts)
    return U, Y


def close_pairs(points: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """Index pairs i < j of rows of a (N, d) array at Chebyshev distance
    below tol, in lexicographic order, with their distances.

    Candidates share a cell of side 3 tol on the leading k = min(d, 3)
    coordinates in one of 2^k grids, each shifted by 0 or 1.5 tol per axis.
    On one axis the two grids' boundaries alternate 1.5 tol apart, so an
    interval shorter than 1.5 tol crosses at most one of them: every pair
    within tol shares a cell in some grid, with tol / 2 to spare for
    rounding.
    """
    N = len(points)
    if N < 2 or not tol > 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0)
    lead = points[:, :3] / (3.0 * tol)
    keys = []
    for shift in itertools.product((0.0, 0.5), repeat=lead.shape[1]):
        _, cell = np.unique(np.floor(lead - shift), axis=0, return_inverse=True)
        cell = cell.ravel()  # its shape has changed between numpy releases
        order = np.argsort(cell, kind="stable")
        sizes = np.bincount(cell)
        # sorted position p pairs with every later position of its cell
        later = np.cumsum(sizes)[cell[order]] - np.arange(N) - 1
        first = np.repeat(np.arange(N), later)
        second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(later) - later, later)
        keys.append(order[first] * N + order[second])
    i, j = np.divmod(np.unique(np.concatenate(keys)), N)
    dist = np.zeros(len(i))
    for column in points.T:  # (C,) temporaries, not (C, d)
        np.maximum(dist, np.abs(column[i] - column[j]), out=dist)
    near = dist < tol
    return i[near], j[near], dist[near]


SCAN_BLOCK = 16384  # close pairs per same_orbit call


def scan_self_intersections(
    system: QuadricSystem,
    U: np.ndarray,
    Y: np.ndarray,
    tol: float = 1e-8,
) -> CollisionReport:
    """All sample pairs with nearly equal images that are not group
    translates of each other, in lexicographic index order.

    Candidate pairs come from close_pairs on the real and imaginary image
    coordinates and are tested against the group in blocks of SCAN_BLOCK,
    so memory beyond close_pairs' own does not grow with the pair count;
    a pair is a translate when within sqrt(tol) of one.
    Every reported pair is a genuine self-intersection witness and must sit
    near a coordinate stratum (some |u_j| < sqrt(tol)).
    """
    orbit_tol = np.sqrt(tol)
    images = phi(system, U, Y)
    i, j, dist = close_pairs(np.column_stack([images.real, images.imag]), tol)
    strangers = np.empty(len(i), dtype=bool)
    for lo in range(0, len(i), SCAN_BLOCK):  # bounds the gathered (P, n) copies
        b = slice(lo, lo + SCAN_BLOCK)
        strangers[b] = ~same_orbit(system, (U[i[b]], Y[i[b]]), (U[j[b]], Y[j[b]]), orbit_tol)
    i, j, dist = i[strangers], j[strangers], dist[strangers]
    abs_u = np.abs(U)
    min_u = np.minimum(abs_u[i].min(axis=1), abs_u[j].min(axis=1))
    return CollisionReport(np.column_stack([i, j]), dist, min_u, len(U), tol)


# ---------------------------------------------------------------------------
# orientation characters and classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopologyLabel:
    kind: str  # KleinBottle | SphereTimesCircle | KleinTimesCircle |
    #            SphereTimesTorus | Torus | Unknown
    dim: int | None = None
    detail: str = ""


UNKNOWN = TopologyLabel("Unknown")


def _family(system: QuadricSystem) -> tuple[str | None, int | None]:
    """The family of classify_quotient's list the instance is in, "torus",
    "sphere", "sphere_cone" or "cone", with the cone's lone-sign coordinate
    as the axis of the last two (the gluing axis of "sphere_cone"); else (None, None)."""
    E, d = system.exponents, system.constants
    if system.k == 0 and np.array_equal(system.matrix != 0, np.eye(system.n, dtype=bool)):
        if all(definite((e,), c) for e, c in zip(np.diag(system.matrix), d)):
            return "torus", None
    family = cone = None
    if system.codim == 1:
        if definite(E.column(0), d[0]):
            return "sphere", None
        if system.is_cone():
            family, cone = "cone", 0
    elif system.codim == 2 and system.n >= 3 and 0 in d:
        cone = d.index(0)  # the other equation must be compact
        if definite(E.column(1 - cone), d[1 - cone]):
            family = "sphere_cone"
    axis = None if family is None else lone_sign(E.column(cone))
    return (None, None) if axis is None else (family, axis)


def orientation_character(system: QuadricSystem) -> tuple[int, ...] | None:
    """Degree (+1/-1) of each group element's sign map on the sphere factor
    of M, one per row of the action table (the identity first).

    For a single compact equation M is an ellipsoid and the character is
    the determinant of the diagonal sign matrix, i.e. the product of all
    signs.  For the sphere-and-cone family the sphere factor lives in the
    coordinates away from the gluing axis.  Diagonal torus systems multiply
    the characters of their 0-sphere factors, which is again the full
    product.  Returns None (unsupported) outside these families.
    """
    family, axis = _family(system)
    if family not in ("torus", "sphere", "sphere_cone"):
        return None
    signs, _ = action_table(system.exponents)
    if family == "sphere_cone":
        signs = np.delete(signs, axis, axis=1)
    return tuple(int(c) for c in np.prod(signs, axis=1))


def classify_quotient(system: QuadricSystem) -> TopologyLabel:
    """Pattern-match the instance against the understood families.

    Families and their quotients of M x T^m by the coset group:
      * single compact equation (M a sphere): mapping torus of the sign
        involution, a sphere times circle or a generalized Klein bottle by
        the orientation character;
      * compact equation + cone (M two spheres): one group element glues
        the two components, the residual involution twists the remaining
        sphere-times-torus;
      * diagonal k = 0 systems: a plain torus;
      * single-equation cones (for the projective quotient): same mapping
        torus logic one dimension down, after scaling normalization.
    Everything else is Unknown.
    """
    n = system.n
    family, axis = _family(system)

    if family == "torus":
        return TopologyLabel("Torus", n, "T^%d" % n)

    if family == "sphere":
        # the orientation character of the nonzero class
        if orientation_character(system)[1] > 0:
            return TopologyLabel("SphereTimesCircle", n, f"S^{n-1} x S^1")
        return TopologyLabel("KleinBottle", n, f"K^{n}")

    if system.is_cone() and system.k == 1:
        return TopologyLabel("Torus", n - 1, f"T^{n-1} (projective)")

    signs, _ = action_table(system.exponents)  # row 0 is the identity
    if family == "sphere_cone":
        # the residual involution acts within a component: the first nonzero
        # class that keeps the sign of the gluing axis
        residual = 1 + np.flatnonzero(signs[1:, axis] > 0)
        if not len(residual):
            return UNKNOWN
        if orientation_character(system)[residual[0]] > 0:
            return TopologyLabel("SphereTimesTorus", n, f"S^{n-2} x S^1 x S^1")
        return TopologyLabel("KleinTimesCircle", n, f"K^{n-1} x S^1")

    if family == "cone":
        # projective quotient of the link sphere: normalize the sign map to
        # fix the cone axis, then take the degree on the link sphere
        normalized = signs[1] * signs[1, axis]
        if np.prod(np.delete(normalized, axis)) > 0:
            return TopologyLabel(
                "SphereTimesCircle", n - 1, f"S^{n-2} x S^1 (projective)"
            )
        return TopologyLabel("KleinBottle", n - 1, f"K^{n-1} (projective)")

    return UNKNOWN
