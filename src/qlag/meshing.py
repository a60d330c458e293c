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
lay out BLOCK values at a time, in whole rows, as one byte matrix: ints as
%d (face indices gathered from labels laid out once), and floats with
1e-99 < |x| < 1e17 as %.17g, from their 17 digits where these are certain;
other floats go through % one at a time.  The files are those of a per-line
% writer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigInvalid, DimensionUnsupported
from .immersion import _conic_parametrization, _link_parametrization, phi
from .quadric import QuadricSystem, lone_sign, require_cone
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

BLOCK = 11264  # values formatted at a time by the writers, bounding their memory


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
        # one table serves every reader; read-only, since callers share it.
        # Keys are built in place: two face-sized arrays at most.
        ends = self.faces[:, [1, 2, 0]]
        first = np.minimum(self.faces, ends)
        first *= self.vertex_count
        first += np.maximum(self.faces, ends, out=ends)
        del ends
        keys, counts = np.unique(first.ravel(), return_counts=True)
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
    """Index action of the sign pair (s1, s2) on the conic angle grid: cos and
    sin pick up the signs through theta -> 1/2 - theta if s1 < 0, then theta
    -> -theta if s2 < 0, two reflections that keep a uniform grid of even size."""
    s1, s2 = signs
    i = np.arange(nx)
    if s1 < 0:
        i = nx // 2 - i
    if s2 < 0:
        i = -i
    return i % nx


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
    # an entry over 1 + 1e-5 fails alone; testing it first keeps huge ones from overflowing
    if np.max(np.abs(proj)) > 1 + 1e-5 or not np.allclose(proj @ proj.T, np.eye(3), atol=1e-8):
        raise ConfigInvalid("projection rows must be orthonormal")
    return proj


def project_vertices(vertices: np.ndarray, projection=None) -> np.ndarray:
    proj = DEFAULT_PROJECTION if projection is None else validate_projection(projection)
    return vertices @ proj.T


WORD = np.dtype("<u4")  # text is built four bytes at a time, first byte lowest


@cache
def _tables() -> tuple:
    """Built on first use: 4-digit groups as ASCII WORDs, and their trailing
    zeros; the doubles nearest 10**E, E = -99..16; 10**k, k = 0..115, as a
    double-double hi + lo from exact ints (lo = 0 up to k = 22);
    "e-99".."e+16"; and by code 36 (E + 6) + 2 digits + negative, E >= -6,
    the bytes %.17g keeps of "\\0\\0-0", ".000", 20 integer digits, "\\0\\0."
    and the first digit, 16 digits, "e+XX" (E < -6 lays out as E = -6)."""
    d = np.arange(10000)
    quads = (np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], -1) + 48).astype(np.uint8)
    trailing = (sum(d % 10**k == 0 for k in (1, 2, 3)) + (d == 0)).astype(np.uint8)
    # a >= floors[E + 99] is 10**E <= a for a double a in (1e-99, 1e17), but
    # where the double nearest 10**E lies below it, as 1e-6 and 1e-7 do
    floors = np.array([float(f"1e{E}") for E in range(-99, 17)])
    hi = [float(10**k) for k in range(116)]
    scales = np.array([hi, [float(10**k - int(h)) for k, h in enumerate(hi)]])
    E, nd, neg = np.indices((23, 18, 2)).reshape(3, -1, 1) - np.reshape([6, 0, 0], (3, 1, 1))
    fixed = E >= -4  # the %g rule at precision 17, as E < 17
    point = np.where(fixed, np.maximum(E + 1, 0), 1)  # digits before the "."
    q, pad = np.arange(20), np.zeros((len(E), 2), dtype=bool)
    keep = np.uint8(255) * np.hstack([
        pad, neg == 1, q[:5] < np.where(fixed & (E < 0), 1 - E, 0), q < point, pad,
        (nd > point) & (point > 0), (q[:17] >= point) & (q[:17] < nd), np.repeat(~fixed, 4, 1)])
    exponents = np.frombuffer(b"".join(b"e%+03d" % E for E in range(-99, 17)), WORD)
    return quads.view(WORD)[:, 0], trailing, floors, scales, exponents, keep


def _digit_groups(n: np.ndarray, count: int) -> list[np.ndarray]:
    """Base-10**4 digits of a non-negative int array, most significant first."""
    groups = []
    for _ in range(count - 1):
        q = n // 10000
        groups, n = [n - q * 10000, *groups], q
    return [n, *groups]


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(E, N, slow): for 1e-99 < |x| < 1e17, 10**E <= |x| < 10**(E + 1) and
    N = |x| 10**(16 - E) rounded half-even, its 17 digits.  Dekker's product
    with hi gives |x| hi = p + e exactly; beyond 10**22, where 10**(16 - E) =
    hi + lo is not a double, e takes |x| lo.  ±0 gives E = 0 and N = 0, and
    slow marks the values whose digits are not certain, to go through %."""
    floors, scales = _tables()[2:4]
    ax = np.where(np.isfinite(x), np.abs(x), 0.0)  # no nan is compared
    fast = (ax > 1e-99) & (ax < 1e17)
    a = np.where(fast, ax, 1.0)
    E = np.searchsorted(floors, a, side="right") - 100
    b = scales[0].take(16 - E)
    p = a * b
    (ah, al), (bh, bl) = [(h, v - h) for v in (a, b)  # Veltkamp's halves
                          for h in [134217729.0 * v - (134217729.0 * v - v)]]
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # a b - p, exactly
    tiny = np.nonzero(a <= 1e-6)
    e[tiny] += a[tiny] * scales[1].take(16 - E[tiny])
    # p is even, so this is half-even.  No double rounds up to 10**(E + 1):
    # the largest below 10**k keeps 17 digits below it or takes E = k.  Above
    # 1e-6 none lies below 10**E
    N = (p.astype(np.int64) + np.rint(e).astype(np.int64)) * (x != 0)
    slow = ~fast & (x != 0)
    # one at most 1e-6 goes through % where it lies below 10**E, as 1e-7
    # does, or where e is within 2**-40 of a tie: lo's truncation and the
    # roundings of a lo and e + a lo total below 2**-47
    et = e[tiny]
    slow[tiny] = ((p[tiny] - 1e16) + et < 0) | (np.abs(et - np.rint(et)) > 0.5 - 2.0**-40)
    return E, N, slow


def _float_text(x: np.ndarray) -> np.ndarray:
    """The %.17g of each value in a row of bytes, zero where unused, laid
    out from _digits (its locals die before the layout's); ±0 is laid out as
    1 with the digit 0, giving 0 and -0.  Values it marks slow go through %."""
    quads, trailing, _, _, exponents, keep = _tables()
    E, N, slow = _digits(x)
    groups = _digit_groups(N, 5)
    zeros, whole = 0, True
    for g in groups[:0:-1]:  # from the last group on; the leading digit shows, 0 or not
        zeros, whole = zeros + whole * trailing.take(g), whole & (g == 0)
    n = (int(E.max(initial=0)) + 4) // 4  # WORDs for the most integer digits
    # the 17 digits, from byte 3 of Q[0] on
    Q = [((groups[0] + 48) << 24).astype(WORD), *map(quads.take, groups[1:]), 0]
    text = np.stack(np.broadcast_arrays(
        *np.frombuffer(b"\0\0-0.000", WORD), *((Q[j] >> 24) | (Q[j + 1] << 8) for j in range(n)),
        Q[0] | (ord(".") << 16), *Q[1:5], exponents.take(E + 99)), -1).astype(WORD, copy=False)
    keep = np.delete(keep, np.s_[8 + 4 * n:28], axis=1).view(WORD)  # n WORDs of integer digits
    text &= keep.take(36 * (np.maximum(E, -6) + 6) + 2 * (17 - zeros) + np.signbit(x), axis=0)
    text = text.view(np.uint8)
    rest = np.nonzero(slow)
    spelled = np.array(["%.17g" % v for v in x[rest].tolist()], dtype=f"S{text.shape[-1]}")
    text[rest] = spelled.view(np.uint8).reshape(-1, text.shape[-1])
    return text


def _int_text(x: np.ndarray) -> np.ndarray:
    """The %d of each value, right-aligned in a row of bytes with the first
    left for the sign, zero where unused."""
    width = 4 * (len(str(max(int(x.max(initial=0)), -int(x.min(initial=0))))) // 4 + 1)
    mag = np.abs(x).astype(np.uint64)  # -2**63 wraps to itself, then 2**63
    text = np.stack([_tables()[0].take(g) for g in _digit_groups(mag, width // 4)], -1)
    start = width - 1 - sum(mag >= np.uint64(10**k) for k in range(1, width - 1))
    text &= (np.uint8(255) * ~np.tri(width, k=-1, dtype=bool)).view(WORD).take(start, axis=0)
    text = text.view(np.uint8)
    neg = np.nonzero(x < 0)
    text[neg + (start[neg] - 1,)] = ord("-")
    return text


def _write_rows(fh, table: np.ndarray, head: str, sep: str, end: str, text=None) -> None:
    """Write each row of a 2-D table as head, its values joined by sep, and
    end, BLOCK // columns rows at a time, each value as text lays it out (by
    default each float as %.17g and each int as %d would write it).  A block
    is laid out as one byte matrix, row by row, and the zero bytes its values
    leave unused are dropped."""
    text = text or (_int_text if table.dtype.kind in "iu" else _float_text)
    step = max(BLOCK // max(table.shape[1], 1), 1)
    for lo in range(0, len(table), step):
        block = text(table[lo:lo + step])
        rows, cols, width = block.shape
        line = np.frombuffer((head + (sep + "\0" * width) * cols + end).encode(), np.uint8)
        chars = np.empty((rows, len(line)), dtype=np.uint8)
        chars[:] = line
        fields = chars[:, len(head):len(line) - len(end)].reshape(rows, cols, len(sep) + width)
        fields[..., len(sep):] = block
        fields[:, :1, :len(sep)] = 0  # no sep before the first value
        fh.write(chars.tobytes().translate(None, b"\0").decode())


def write_obj(path, vertices3: np.ndarray, faces: np.ndarray | None = None,
              polyline: Sequence[int] | None = None) -> None:
    """Minimal OBJ writer: v records plus f (triangles) or l (polyline).
    Face labels 1..V are laid out once, and each face row gathers its own."""
    vertices3 = np.asarray(vertices3)
    if faces is not None:
        faces = np.asarray(faces)
        # a gather would wrap -1 to the last label
        if faces.size and not 0 <= faces.min() <= faces.max() < len(vertices3):
            raise ValueError(f"face indices must lie in [0, {len(vertices3)})")
    with open(path, "w") as fh:
        _write_rows(fh, vertices3, "v ", " ", "\n")
        if faces is not None:
            labels = _int_text(np.arange(1, len(vertices3) + 1))
            _write_rows(fh, faces, "f ", " ", "\n", lambda block: labels.take(block, axis=0))
        if polyline is not None:
            _write_rows(fh, np.asarray(polyline, dtype=np.int64)[None] + 1, "l ", " ", "\n")


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
    if lone_sign((a, b)) is None:
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
    point, _ = _link_parametrization(system)
    if nt < 2 or ny < 2:
        raise ConfigInvalid("resolution must be at least 2")
    box = torus_box(system.exponents)
    header = ["t", "y"] + [
        "p11", "p22", "p33", "re_p12", "im_p12", "re_p13", "im_p13", "re_p23", "im_p23"
    ]
    ts = np.arange(nt) / nt
    ys = (np.arange(ny) / ny)[:, None] * box[0]  # (ny, m)
    coords = projector_coordinates(phi(system, point(ts)[:, None, :], ys))  # (nt, ny, 9)
    table = np.column_stack([np.repeat(ts, ny), np.tile(ys[:, 0], nt), coords.reshape(-1, 9)])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        _write_rows(fh, table, "", ",", "\r\n")
