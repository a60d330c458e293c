"""The coset group action on M x T^m: orbits, freeness at sample scale,
self-intersection scanning, orientation characters, and pattern-matched
classification of the quotient for the recognized instance families.

Topology here is honest about its scope: labels are only emitted for
instance shapes whose quotient is understood case by case; everything else
is Unknown.  Collision scanning is sample-scale evidence, not a proof of
embeddedness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckFailed, NonFreeWitness
from .immersion import phi, sample_torus_angles
from .lattice import pairing_parity
from .quadric import QuadricSystem, sample_points, sample_stratum_points
from .torus import gamma_float, gamma_group, gamma_signs, torus_distance


def apply_gamma(system: QuadricSystem, gamma, u, y) -> tuple[np.ndarray, np.ndarray]:
    """Sign flips on u (exact parities) and translation on y.

    Applying a representative twice lands on a point identified with the
    original under the torus periods.
    """
    signs = gamma_signs(system.exponents, gamma)
    return signs * np.asarray(u, dtype=float), np.asarray(y, dtype=float) + gamma_float(gamma)


def orbit(system: QuadricSystem, u, y, tol: float = 1e-9) -> list[tuple[np.ndarray, np.ndarray]]:
    """All |G| translates of (u, y), verified pairwise distinct.

    Distinctness uses the torus metric on the y part, so points that only
    differ by a full period are correctly treated as equal.  Raises
    NonFreeWitness if two translates coincide (a bug or an invalid group),
    and checks that the whole orbit has one immersion image.
    """
    pts = [apply_gamma(system, g, u, y) for g in gamma_group(system.exponents)]
    base_image = phi(system, u, y)
    for i in range(len(pts)):
        zi = phi(system, *pts[i])
        if np.max(np.abs(zi - base_image)) > 1e-12 * (1.0 + np.max(np.abs(base_image))):
            raise CrossCheckFailed(f"orbit point {i} leaves the immersion image")
        for j in range(i + 1, len(pts)):
            du = np.max(np.abs(pts[i][0] - pts[j][0]))
            dy = torus_distance(system.exponents, pts[i][1] - pts[j][1])
            if max(du, dy) <= tol:
                raise NonFreeWitness(
                    f"orbit points {i} and {j} coincide within {tol}"
                )
    return pts


def orbit_distinctness(system: QuadricSystem, samples, tol: float = 1e-9) -> int:
    """Run the orbit check over (u, y) samples; returns the orbit size."""
    size = len(gamma_group(system.exponents))
    for u, y in samples:
        pts = orbit(system, u, y, tol=tol)
        if len(pts) != size:
            raise NonFreeWitness(f"orbit size {len(pts)} != {size}")
    return size


def in_same_orbit(system: QuadricSystem, p, q, tol: float = 1e-5) -> bool:
    """Whether parameter points p = (u, y) and q are group translates."""
    up, yp = np.asarray(p[0], float), np.asarray(p[1], float)
    uq, yq = np.asarray(q[0], float), np.asarray(q[1], float)
    for gamma in gamma_group(system.exponents):
        gu, gy = apply_gamma(system, gamma, up, yp)
        if np.max(np.abs(gu - uq)) <= tol and torus_distance(
            system.exponents, gy - yq
        ) <= tol:
            return True
    return False


# ---------------------------------------------------------------------------
# self-intersection scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CollisionPair:
    index_a: int
    index_b: int
    image_distance: float
    min_abs_u: float


@dataclass(frozen=True)
class CollisionReport:
    pairs: tuple[CollisionPair, ...]
    sample_count: int
    tolerance: float

    def __len__(self) -> int:
        return len(self.pairs)


def scan_samples(
    system: QuadricSystem,
    count: int,
    seed: int = 0,
    stratum_fraction: float = 0.4,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample set for collision scanning: generic points plus points placed
    exactly on each coordinate stratum u_j = 0, where identifications can
    hide.

    Stratum points come with their sign mirrors and carry torus angles on a
    uniform grid whose size is a multiple of 4, so half-period phase
    oppositions produce exact image coincidences rather than near misses.
    """
    n_strata = max(0, int(count * stratum_fraction))
    n_generic = count - n_strata
    U_parts = [sample_points(system, n_generic, seed=seed, u_floor=1e-6)]
    Y_parts = [sample_torus_angles(system, n_generic, seed=seed)]
    if n_strata and system.k >= 1:
        per_axis = max(8, n_strata // system.n)
        from .torus import torus_box

        box = torus_box(system.exponents)
        for j in range(system.n):
            pts = sample_stratum_points(system, j, 8, seed=seed + j)
            if not len(pts):
                continue
            pts = np.vstack([pts, -pts])
            pts = np.unique(np.round(pts / 1e-9) * 1e-9, axis=0)
            grid = max(4, per_axis // len(pts))
            grid += (-grid) % 4
            ts = np.arange(grid)[:, None] / grid
            angles = ts @ box[:1]  # sweep along the first period direction
            for u in pts:
                Y_parts.append(angles)
                U_parts.append(np.repeat(u[None, :], grid, axis=0))
    U = np.vstack(U_parts)
    Y = np.vstack(Y_parts)
    return U, Y


def scan_self_intersections(
    system: QuadricSystem,
    U: np.ndarray,
    Y: np.ndarray,
    tol: float = 1e-8,
    orbit_tol: float | None = None,
) -> CollisionReport:
    """All sample pairs with nearly equal images that are not group
    translates of each other, in lexicographic index order.

    Candidate pairs come from a spatial hash on the leading image
    coordinates with cell size tol; every reported pair is a genuine
    self-intersection witness and must sit near a coordinate stratum
    (some |u_j| < sqrt(tol)).
    """
    orbit_tol = np.sqrt(tol) if orbit_tol is None else orbit_tol
    images = np.array([phi(system, u, y) for u, y in zip(U, Y)])
    flat = np.column_stack([images.real, images.imag])
    hash_dims = min(3, flat.shape[1])
    cells: dict[tuple[int, ...], list[int]] = {}
    keys = np.floor(flat[:, :hash_dims] / tol).astype(np.int64)
    for i, key in enumerate(map(tuple, keys)):
        cells.setdefault(key, []).append(i)

    import itertools

    offsets = list(itertools.product((-1, 0, 1), repeat=hash_dims))
    pairs: list[CollisionPair] = []
    seen: set[tuple[int, int]] = set()
    for key, members in cells.items():
        candidates: list[int] = []
        for off in offsets:
            candidates.extend(cells.get(tuple(k + o for k, o in zip(key, off)), ()))
        for i in members:
            for j in candidates:
                if j <= i or (i, j) in seen:
                    continue
                dist = float(np.max(np.abs(flat[i] - flat[j])))
                if dist >= tol:
                    continue
                seen.add((i, j))
                if in_same_orbit(system, (U[i], Y[i]), (U[j], Y[j]), tol=orbit_tol):
                    continue
                min_u = float(min(np.min(np.abs(U[i])), np.min(np.abs(U[j]))))
                pairs.append(CollisionPair(i, j, dist, min_u))
    pairs.sort(key=lambda p: (p.index_a, p.index_b))
    return CollisionReport(tuple(pairs), len(U), tol)


# ---------------------------------------------------------------------------
# orientation characters and classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopologyLabel:
    kind: str  # KleinBottle | SphereTimesCircle | KleinTimesCircle |
    #            SphereTimesTorus | Torus | Unknown
    dim: int | None = None
    detail: str = ""

    def __str__(self) -> str:
        return f"{self.kind}({self.dim})" if self.dim is not None else self.kind


UNKNOWN = TopologyLabel("Unknown")


def _single_equation_positive(system: QuadricSystem) -> bool:
    """One equation cutting out a compact ellipsoid (after sign flip)."""
    if system.codim != 1:
        return False
    col = [r[0] for r in system.exponents.rows]
    d = system.constants[0]
    if d < 0:
        col, d = [-c for c in col], -d
    return d > 0 and all(c > 0 for c in col)


def _cone_signature(system: QuadricSystem) -> int | None:
    """Index of the single negative coefficient of a (+,...,+,-) cone."""
    if system.codim != 1 or not system.is_cone():
        return None
    col = np.array([r[0] for r in system.exponents.rows])
    if np.sum(col < 0) == system.n - 1 and np.sum(col > 0) == 1:
        col = -col
    neg = np.nonzero(col < 0)[0]
    pos = np.nonzero(col > 0)[0]
    if len(neg) == 1 and len(pos) == system.n - 1:
        return int(neg[0])
    return None


def _sphere_cone_axis(system: QuadricSystem) -> int | None:
    """Recognize the two-equation family: a compact positive equation plus
    a cone whose single negative coordinate is the gluing axis."""
    if system.codim != 2 or system.n < 3:
        return None
    cols = [system.exponents.column(0), system.exponents.column(1)]
    ds = list(system.constants)
    pos_idx = cone_idx = None
    for idx in (0, 1):
        col, d = list(cols[idx]), ds[idx]
        if d < 0:
            col, d = [-c for c in col], -d
        if d > 0 and all(c > 0 for c in col):
            pos_idx = idx
        elif d == 0:
            cone_idx = idx
    if pos_idx is None or cone_idx is None:
        return None
    col = np.array(cols[cone_idx])
    if np.sum(col < 0) == system.n - 1:
        col = -col
    neg = np.nonzero(col < 0)[0]
    pos = np.nonzero(col > 0)[0]
    if len(neg) == 1 and len(pos) == system.n - 1:
        return int(neg[0])
    return None


def _is_diagonal_torus(system: QuadricSystem) -> bool:
    """k = 0 with a diagonal exponent matrix and feasible constants: the
    quotient is a plain torus."""
    if system.k != 0:
        return False
    E = system.matrix
    if not np.array_equal(E != 0, np.eye(system.n, dtype=bool)):
        return False
    diag = np.diag(E)
    return all(d / e > 0 for d, e in zip(system.constants, diag))


def orientation_character(system: QuadricSystem, gamma) -> int | None:
    """Degree (+1/-1) of the sign map on the sphere factor of M.

    For a single compact equation M is an ellipsoid and the character is
    the determinant of the diagonal sign matrix, i.e. the product of all
    parities.  For the sphere-and-cone family the sphere factor lives in
    the coordinates away from the gluing axis.  Diagonal torus systems
    multiply the characters of their 0-sphere factors, which is again the
    full product.  Returns None (unsupported) outside these families.
    """
    rows = system.exponents.rows
    if _single_equation_positive(system) or _is_diagonal_torus(system):
        indices = range(system.n)
    else:
        axis = _sphere_cone_axis(system)
        if axis is None:
            return None
        indices = [i for i in range(system.n) if i != axis]
    sign = 1
    for i in indices:
        if pairing_parity(gamma, rows[i]) == 1:
            sign = -sign
    return sign


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
    group = gamma_group(system.exponents)

    if _is_diagonal_torus(system):
        return TopologyLabel("Torus", n, "T^%d" % n)

    if _single_equation_positive(system):
        gamma = group.nonzero()[0]
        char = orientation_character(system, gamma)
        if char == 1:
            return TopologyLabel("SphereTimesCircle", n, f"S^{n-1} x S^1")
        return TopologyLabel("KleinBottle", n, f"K^{n}")

    if system.is_cone() and system.k == 1:
        return TopologyLabel("Torus", n - 1, f"T^{n-1} (projective)")

    axis = _sphere_cone_axis(system)
    if axis is not None:
        # the residual involution acts within a component: any nonzero
        # class whose parity on the gluing axis row is even
        residual = None
        for gamma in group.nonzero():
            if pairing_parity(gamma, system.exponents.rows[axis]) == 0:
                residual = gamma
                break
        if residual is not None:
            char = orientation_character(system, residual)
            if char == 1:
                return TopologyLabel(
                    "SphereTimesTorus", n, f"S^{n-2} x S^1 x S^1"
                )
            return TopologyLabel("KleinTimesCircle", n, f"K^{n-1} x S^1")
        return UNKNOWN

    cone_axis = _cone_signature(system)
    if cone_axis is not None:
        # projective quotient of the link sphere: normalize the sign map to
        # fix the cone axis, then take the degree on the link sphere
        gamma = group.nonzero()[0]
        signs = gamma_signs(system.exponents, gamma)
        normalized = signs * signs[cone_axis]
        char = 1
        for i in range(n):
            if i != cone_axis and normalized[i] < 0:
                char = -char
        if char == 1:
            return TopologyLabel(
                "SphereTimesCircle", n - 1, f"S^{n-2} x S^1 (projective)"
            )
        return TopologyLabel("KleinBottle", n - 1, f"K^{n-1} (projective)")

    return UNKNOWN
