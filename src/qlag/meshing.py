"""Mesh export of the immersed quotients.

Surfaces in C^2 (n = 2 systems) are meshed over a fundamental domain of
the group action with the seam welded through the sign map, triangulated
consistently, projected to R^3 by a configurable orthonormal 3x4 matrix
and written as OBJ.  One-dimensional projective images (n = 2 cones) are
written as closed OBJ polylines on the unit sphere; two-dimensional
projective images (n = 3 cones) go out as CSV point clouds in projector
coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigInvalid, DimensionUnsupported
from .immersion import _conic_parametrization, _link_parametrization, phi
from .quadric import QuadricSystem, require_cone
from .torus import gamma_group, gamma_signs, torus_box

# drops Im z2: rows are orthonormal in (Re z1, Im z1, Re z2, Im z2)
DEFAULT_PROJECTION = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)


@dataclass(frozen=True)
class SurfaceMesh:
    vertices: np.ndarray  # (V, 4) real coordinates of C^2 points
    faces: np.ndarray  # (F, 3) int vertex indices

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    def edges(self) -> set[tuple[int, int]]:
        out: set[tuple[int, int]] = set()
        for tri in self.faces:
            for a, b in ((0, 1), (1, 2), (2, 0)):
                i, j = int(tri[a]), int(tri[b])
                out.add((min(i, j), max(i, j)))
        return out

    def euler_characteristic(self) -> int:
        used = {int(i) for tri in self.faces for i in tri}
        return len(used) - len(self.edges()) + len(self.faces)

    def is_closed(self) -> bool:
        """Every edge shared by exactly two triangles."""
        count: dict[tuple[int, int], int] = {}
        for tri in self.faces:
            for a, b in ((0, 1), (1, 2), (2, 0)):
                i, j = int(tri[a]), int(tri[b])
                key = (min(i, j), max(i, j))
                count[key] = count.get(key, 0) + 1
        return all(c == 2 for c in count.values())


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
    group = gamma_group(system.exponents)
    gamma = group.nonzero()[0]
    signs = gamma_signs(system.exponents, gamma)

    thetas = np.arange(nx) / nx
    ys = np.arange(ny) * (period / 2.0) / ny
    us = point(thetas)  # (nx, 2)

    def vid(i: int, j: int) -> int:
        return j * nx + i

    vertices = np.empty((nx * ny, 4))
    for j, y in enumerate(ys):
        # phases per coordinate: exp(i pi e_i y)
        phases = np.exp(1j * np.pi * (system.matrix[:, 0] * y))
        z = us * phases[None, :]
        vertices[j * nx : (j + 1) * nx, 0] = z[:, 0].real
        vertices[j * nx : (j + 1) * nx, 1] = z[:, 0].imag
        vertices[j * nx : (j + 1) * nx, 2] = z[:, 1].real
        vertices[j * nx : (j + 1) * nx, 3] = z[:, 1].imag

    weld = _sign_index_map(signs, nx)
    faces = []
    for j in range(ny):
        for i in range(nx):
            i2 = (i + 1) % nx
            if j + 1 < ny:
                a, b, c, d = vid(i, j), vid(i2, j), vid(i2, j + 1), vid(i, j + 1)
            else:
                a, b = vid(i, j), vid(i2, j)
                c, d = vid(int(weld[i2]), 0), vid(int(weld[i]), 0)
            faces.append((a, b, c))
            faces.append((a, c, d))
    return SurfaceMesh(vertices, np.array(faces, dtype=int))


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


def write_obj(path, vertices3: np.ndarray, faces: np.ndarray | None = None,
              polyline: Sequence[int] | None = None) -> None:
    """Minimal OBJ writer: v records plus f (triangles) or l (polyline)."""
    with open(path, "w") as fh:
        for v in vertices3:
            fh.write("v %.17g %.17g %.17g\n" % (v[0], v[1], v[2]))
        if faces is not None:
            for tri in faces:
                fh.write("f %d %d %d\n" % (tri[0] + 1, tri[1] + 1, tri[2] + 1))
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
    pts = np.array([riemann_sphere(phi(system, u, y)) for y in ys])
    return pts, list(range(resolution)) + [0]


def projector_coordinates(z: np.ndarray) -> np.ndarray:
    """Chart-free CP^2 embedding: entries of the rank-one projector."""
    z = z / np.linalg.norm(z)
    P = np.outer(z, np.conjugate(z))
    return np.array(
        [
            P[0, 0].real,
            P[1, 1].real,
            P[2, 2].real,
            P[0, 1].real,
            P[0, 1].imag,
            P[0, 2].real,
            P[0, 2].imag,
            P[1, 2].real,
            P[1, 2].imag,
        ]
    )


def write_projective_cloud(path, system: QuadricSystem, nt: int = 96, ny: int = 96) -> None:
    """CSV point cloud of an n = 3 cone's projective image.

    Columns are the chart parameters plus the nine real projector entries,
    a chart-free representation of CP^2 points.
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
    import csv  # only the CSV writer needs it; analyze and OBJ export skip the import

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(nt):
            t = i / nt
            u = point(t)
            for j in range(ny):
                y = (j / ny) * box[0]
                row = projector_coordinates(phi(system, u, y))
                writer.writerow(
                    ["%.17g" % t, "%.17g" % y[0]]
                    + ["%.17g" % x for x in row]
                )
