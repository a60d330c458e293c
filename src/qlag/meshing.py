"""Mesh export of the immersed quotients.

Surfaces in C^2 (n = 2 systems) are meshed over a fundamental domain of
the group action with the seam welded through the sign map, triangulated
consistently, projected to R^3 by a configurable orthonormal 3x4 matrix
and written as OBJ.  One-dimensional projective images (n = 2 cones) are
written as closed OBJ polylines on the unit sphere; two-dimensional
projective images (n = 3 cones) go out as CSV point clouds in projector
coordinates.

Each mesh is built as arrays.  A SurfaceMesh holds read-only views of its
vertices and faces and computes its edge table once, on first use; the
Euler characteristic and the closedness test both read it.  The writers
format BLOCK rows per % operation, with the same %.17g / %d conversion per
value as a per-line writer, so the files are byte for byte the same while
the string built per block stays bounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigInvalid, DimensionUnsupported
from .immersion import _conic_parametrization, _link_parametrization, phi
from .quadric import QuadricSystem, require_cone
from .torus import action_table, torus_box
from .torus import gamma_signs  # noqa: F401  perfbench/tracing.py wraps it here

# drops Im z2: rows are orthonormal in (Re z1, Im z1, Re z2, Im z2)
DEFAULT_PROJECTION = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)

BLOCK = 4096  # rows formatted per % operation by the writers


@dataclass(frozen=True)
class SurfaceMesh:
    vertices: np.ndarray  # (V, 4) real coordinates of C^2 points
    faces: np.ndarray  # (F, 3) int vertex indices

    def __post_init__(self) -> None:
        # the edge table is cached, so the mesh holds read-only views:
        # changing mesh.faces in place would leave the table stale
        for name in ("vertices", "faces"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @cached_property
    def _edge_table(self) -> tuple[np.ndarray, np.ndarray]:
        # one table serves every reader; read-only, since callers share it
        pairs = np.sort(self.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
        keys, counts = np.unique(pairs[:, 0] * self.vertex_count + pairs[:, 1],
                                 return_counts=True)
        keys.flags.writeable = counts.flags.writeable = False
        return keys, counts

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Distinct undirected edges as sorted keys i*V + j (i < j, V the
        vertex count), with the number of triangles on each (read-only)."""
        return self._edge_table

    def euler_characteristic(self) -> int:
        keys, _ = self.edges()
        used = np.count_nonzero(np.bincount(self.faces.ravel(), minlength=self.vertex_count))
        return used - len(keys) + len(self.faces)

    def is_closed(self) -> bool:
        """Every edge shared by exactly two triangles."""
        _, counts = self.edges()
        return bool(np.all(counts == 2))


def _sign_index_map(signs: Sequence[float], nx: int) -> np.ndarray:
    """Index action of a coordinate sign pair on the conic angle grid.

    cos/sin pick up the signs (s1, s2) through theta -> {theta, 1/2-theta,
    -theta, 1/2+theta}; all four maps preserve a uniform grid of even size.
    """
    s1, s2 = signs
    i = np.arange(nx)
    if s1 > 0 and s2 > 0:
        return i
    if s1 < 0 and s2 > 0:
        return (nx // 2 - i) % nx
    if s1 > 0 and s2 < 0:
        return (-i) % nx
    return (nx // 2 + i) % nx


def build_surface_mesh(system: QuadricSystem, nx: int = 128, ny: int = 64) -> SurfaceMesh:
    """Closed mesh of the quotient surface for a compact n = 2 system.

    The chart is (conic angle) x (torus coordinate over one fundamental
    slice); the top seam is glued to the bottom row through the nonzero
    group element, which is what closes a Klein bottle up.
    """
    if system.n != 2 or system.k != 1:
        raise DimensionUnsupported("surface meshes require n=2, k=1")
    if nx < 8 or ny < 4:
        raise ConfigInvalid(f"mesh resolution ({nx}, {ny}) is too small")
    if nx % 2:
        raise ConfigInvalid("nx must be even to keep the seam weld on-grid")
    point, _ = _conic_parametrization(system)
    box = torus_box(system.exponents)
    period = box[0][0]
    signs = action_table(system.exponents)[0][1]  # the nonzero group element's row

    thetas = np.arange(nx) / nx
    ys = np.arange(ny) * (period / 2.0) / ny
    z = phi(system, point(thetas), ys[:, None, None])  # (ny, nx, 2)
    vertices = np.stack([z.real, z.imag], axis=-1).reshape(nx * ny, 4)  # Re z1, Im z1, ...

    # quad (i, j) has corners a = (i, j), b = (i+1, j), c = (i+1, j+1),
    # d = (i, j+1); the row above the last one is the bottom row, welded
    ids = np.arange(nx * ny).reshape(ny, nx)
    upper = np.vstack([ids[1:], ids[0, _sign_index_map(signs, nx)]])
    a, b = ids, np.roll(ids, -1, axis=1)
    c, d = np.roll(upper, -1, axis=1), upper
    faces = np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)
    return SurfaceMesh(vertices, faces)


def validate_projection(matrix) -> np.ndarray:
    proj = np.asarray(matrix, dtype=float)
    if proj.shape != (3, 4):
        raise ConfigInvalid(f"projection must be 3x4, got {proj.shape}")
    gram = proj @ proj.T
    if not np.allclose(gram, np.eye(3), atol=1e-8):
        raise ConfigInvalid("projection rows must be orthonormal")
    return proj


def project_vertices(vertices: np.ndarray, projection=None) -> np.ndarray:
    proj = DEFAULT_PROJECTION if projection is None else validate_projection(projection)
    return vertices @ proj.T


def _write_rows(fh, fmt: str, table: np.ndarray) -> None:
    """Write each row of a 2-D table through fmt, BLOCK rows per % operation."""
    for lo in range(0, len(table), BLOCK):
        block = table[lo:lo + BLOCK]
        fh.write((fmt * len(block)) % tuple(block.ravel().tolist()))


def write_obj(path, vertices3: np.ndarray, faces: np.ndarray | None = None,
              polyline: Sequence[int] | None = None) -> None:
    """Minimal OBJ writer: v records plus f (triangles) or l (polyline)."""
    with open(path, "w") as fh:
        _write_rows(fh, "v %.17g %.17g %.17g\n", np.asarray(vertices3))
        if faces is not None:
            _write_rows(fh, "f %d %d %d\n", np.asarray(faces) + 1)
        if polyline is not None:
            chain = " ".join(str(i + 1) for i in polyline)
            fh.write(f"l {chain}\n")


def riemann_sphere(z: np.ndarray) -> np.ndarray:
    """CP^1 point (z1 : z2) on the unit 2-sphere (fiber-invariant)."""
    z1, z2 = z[..., 0], z[..., 1]
    norm = np.abs(z1) ** 2 + np.abs(z2) ** 2
    w = np.conjugate(z1) * z2
    return np.stack(
        [
            (np.abs(z1) ** 2 - np.abs(z2) ** 2) / norm,
            2.0 * w.real / norm,
            2.0 * w.imag / norm,
        ],
        axis=-1,
    )


def build_projective_polyline(system: QuadricSystem, resolution: int = 256):
    """Image of an n = 2 cone in CP^1 as a closed polyline on the unit
    sphere (momentum coordinates; the equal-modulus cone lands on the
    equator)."""
    require_cone(system)
    if system.n != 2:
        raise DimensionUnsupported("projective polylines require n=2 cones")
    if resolution < 2:
        raise ConfigInvalid("resolution must be at least 2")
    # one ray of the cone: pick u with u1 = 1 and solve the single equation
    (a,), (b,) = system.exponents.rows
    if a * b >= 0:
        raise DimensionUnsupported("n=2 cone needs opposite signs")
    u = np.array([1.0, np.sqrt(-a / b)])
    u = u / np.linalg.norm(u)
    box = torus_box(system.exponents)
    ys = np.arange(resolution)[:, None] / resolution @ box[:1]
    pts = riemann_sphere(phi(system, u, ys))
    return pts, list(range(resolution)) + [0]


def projector_coordinates(z: np.ndarray) -> np.ndarray:
    """Chart-free CP^2 embedding: entries of the rank-one projector.

    A (..., 3) batch gives (..., 9) rows: the real diagonal, then the real
    and imaginary parts of P12, P13 and P23.
    """
    re, im = z.real[..., None, :], z.imag[..., None, :]
    # sqrt(re.re + im.im) from BLAS dot products, bit for bit the
    # np.linalg.norm of each vector on its own
    sq = (re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0]
    z = z / np.sqrt(sq)
    # the broadcast outer product of np.outer: a contiguous product of
    # gathered columns takes another complex-multiply loop and other bits
    P = z[..., :, None] * np.conjugate(z)[..., None, :]
    parts = np.stack([P.real, P.imag], axis=-1)  # (..., 3, 3, re/im)
    return parts[..., [0, 1, 2, 0, 0, 0, 0, 1, 1], [0, 1, 2, 1, 1, 2, 2, 2, 2],
                 [0, 0, 0, 0, 1, 0, 1, 0, 1]]


def write_projective_cloud(path, system: QuadricSystem, nt: int = 96, ny: int = 96) -> None:
    """CSV point cloud of an n = 3 cone's projective image.

    Columns are the chart parameters plus the nine real projector entries,
    a chart-free representation of CP^2 points.  Lines end in CRLF.
    """
    require_cone(system)
    if system.n != 3:
        raise DimensionUnsupported("projective clouds are built for n=3 cones")
    if nt < 2 or ny < 2:
        raise ConfigInvalid("resolution must be at least 2")
    point, _ = _link_parametrization(system)
    box = torus_box(system.exponents)
    header = ["t", "y"] + [
        "p11", "p22", "p33", "re_p12", "im_p12", "re_p13", "im_p13", "re_p23", "im_p23"
    ]
    ts = np.arange(nt) / nt
    ys = (np.arange(ny) / ny)[:, None] * box[0]  # (ny, m)
    coords = projector_coordinates(phi(system, point(ts)[:, None, :], ys))  # (nt, ny, 9)
    table = np.column_stack([np.repeat(ts, ny), np.tile(ys[:, 0], nt), coords.reshape(-1, 9)])
    row = ",".join(["%.17g"] * 11) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        _write_rows(fh, row, table)
