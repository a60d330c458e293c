"""Mesh assembly, seam welding, Euler characteristics and file export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlag import meshing
from qlag.catalog import clifford_cone, ellipse, ellipsoid, klein_bottle_cone, weighted_cone
from qlag.errors import ConfigInvalid, DimensionUnsupported
from qlag.meshing import (
    SurfaceMesh,
    build_projective_polyline,
    build_surface_mesh,
    project_vertices,
    projector_coordinates,
    riemann_sphere,
    validate_projection,
    write_obj,
    write_projective_cloud,
)


def test_surface_mesh_is_closed_klein_bottle():
    mesh = build_surface_mesh(ellipse(), 64, 32)
    assert mesh.vertex_count == 64 * 32
    assert len(mesh.faces) == 2 * 64 * 32
    assert mesh.is_closed()
    assert mesh.euler_characteristic() == 0


def test_surface_mesh_other_weights_still_closed():
    mesh = build_surface_mesh(ellipse(2, 3, 5.0), 32, 16)
    assert mesh.is_closed()
    assert mesh.euler_characteristic() == 0


def test_surface_mesh_vertices_lie_on_image():
    system = ellipse()
    mesh = build_surface_mesh(system, 16, 8)
    z = mesh.vertices[:, 0] + 1j * mesh.vertices[:, 1]
    w = mesh.vertices[:, 2] + 1j * mesh.vertices[:, 3]
    # |z|^2 + 2|w|^2 = 1 on the image of the weighted circle
    assert np.max(np.abs(np.abs(z) ** 2 + 2 * np.abs(w) ** 2 - 1.0)) <= 1e-12


def test_surface_mesh_guards():
    with pytest.raises(DimensionUnsupported):
        build_surface_mesh(klein_bottle_cone(), 16, 8)
    with pytest.raises(ConfigInvalid):
        build_surface_mesh(ellipse(), 15, 8)  # odd nx breaks the weld
    with pytest.raises(ConfigInvalid):
        build_surface_mesh(ellipse(), 4, 2)


def test_projection_validation():
    with pytest.raises(ConfigInvalid):
        validate_projection(np.ones((3, 4)))
    proj = validate_projection(np.eye(4)[:3])
    assert proj.shape == (3, 4)
    mesh = build_surface_mesh(ellipse(), 16, 8)
    v3 = project_vertices(mesh.vertices)
    assert v3.shape == (mesh.vertex_count, 3)


def test_obj_writer(tmp_path):
    mesh = build_surface_mesh(ellipse(), 16, 8)
    path = tmp_path / "surface.obj"
    write_obj(path, project_vertices(mesh.vertices), mesh.faces)
    text = path.read_text().splitlines()
    nv = sum(1 for line in text if line.startswith("v "))
    nf = sum(1 for line in text if line.startswith("f "))
    assert nv == mesh.vertex_count and nf == len(mesh.faces)
    # indices are 1-based and in range
    for line in text:
        if line.startswith("f "):
            idx = [int(tok) for tok in line.split()[1:]]
            assert all(1 <= i <= nv for i in idx)


def test_projective_polyline_on_equator(tmp_path):
    pts, line = build_projective_polyline(clifford_cone(2), 128)
    assert pts.shape == (128, 3)
    assert np.max(np.abs(pts[:, 0])) <= 1e-12  # Clifford equator
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1.0)) <= 1e-12
    assert line[0] == line[-1] == 0  # closed
    write_obj(tmp_path / "line.obj", pts, polyline=line)
    assert (tmp_path / "line.obj").read_text().count("\nl ") == 1


def test_riemann_sphere_unit_norm():
    rng = np.random.default_rng(1)
    z = rng.normal(size=2) + 1j * rng.normal(size=2)
    assert np.linalg.norm(riemann_sphere(z)) == pytest.approx(1.0)


def test_projective_cloud_csv(tmp_path):
    path = tmp_path / "cloud.csv"
    write_projective_cloud(path, klein_bottle_cone(), 12, 10)
    rows = path.read_text().splitlines()
    assert rows[0].startswith("t,y,p11")
    assert len(rows) == 1 + 12 * 10
    first = [float(x) for x in rows[1].split(",")]
    # projector trace is one
    assert first[2] + first[3] + first[4] == pytest.approx(1.0)


def test_projective_cloud_guard(tmp_path):
    from qlag.errors import NotACone

    with pytest.raises(DimensionUnsupported):
        write_projective_cloud(tmp_path / "c.csv", weighted_cone([1, 1, 1, 3]), 8, 8)
    with pytest.raises(NotACone):
        write_projective_cloud(tmp_path / "c.csv", ellipsoid([1, 1, 1]), 8, 8)


# -- array code against the per-element loops it replaced ------------------
#
# The references below are the loops meshing used to run: per-row vertices,
# per-quad faces, per-triangle edge walks and a per-node csv writer.  The
# array code must reproduce them bit for bit, down to the file bytes.


def _reference_surface(system, nx, ny):
    from qlag.immersion import _conic_parametrization
    from qlag.meshing import _sign_index_map
    from qlag.torus import gamma_group, gamma_signs, torus_box

    point, _ = _conic_parametrization(system)
    period = torus_box(system.exponents)[0][0]
    signs = gamma_signs(system.exponents, gamma_group(system.exponents)[1])
    us = point(np.arange(nx) / nx)
    vertices = np.empty((nx * ny, 4))
    for j, y in enumerate(np.arange(ny) * (period / 2.0) / ny):
        z = us * np.exp(1j * np.pi * (system.matrix[:, 0] * y))[None, :]
        rows = slice(j * nx, (j + 1) * nx)
        vertices[rows, 0], vertices[rows, 1] = z[:, 0].real, z[:, 0].imag
        vertices[rows, 2], vertices[rows, 3] = z[:, 1].real, z[:, 1].imag
    weld = _sign_index_map(signs, nx)
    faces = []
    for j in range(ny):
        for i in range(nx):
            i2 = (i + 1) % nx
            a, b = j * nx + i, j * nx + i2
            if j + 1 < ny:
                c, d = (j + 1) * nx + i2, (j + 1) * nx + i
            else:
                c, d = int(weld[i2]), int(weld[i])
            faces += [(a, b, c), (a, c, d)]
    return vertices, np.array(faces, dtype=int)


def _reference_topology(faces):
    """(euler characteristic, closed) from a per-triangle edge walk."""
    count = {}
    for tri in faces:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            i, j = int(tri[a]), int(tri[b])
            key = (min(i, j), max(i, j))
            count[key] = count.get(key, 0) + 1
    used = {int(i) for tri in faces for i in tri}
    return len(used) - len(count) + len(faces), all(c == 2 for c in count.values())


def _reference_obj(path, vertices3, faces=(), polyline=None):
    with open(path, "w") as fh:
        for v in vertices3:
            fh.write("v %.17g %.17g %.17g\n" % (v[0], v[1], v[2]))
        for tri in faces:
            fh.write("f %d %d %d\n" % (tri[0] + 1, tri[1] + 1, tri[2] + 1))
        if polyline is not None:
            fh.write("l " + " ".join(str(i + 1) for i in polyline) + "\n")


def _reference_cloud(path, system, nt, ny):
    import csv

    from qlag.immersion import _link_parametrization, phi
    from qlag.torus import torus_box

    point, _ = _link_parametrization(system)
    box = torus_box(system.exponents)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y", "p11", "p22", "p33", "re_p12", "im_p12",
                         "re_p13", "im_p13", "re_p23", "im_p23"])
        for i in range(nt):
            t = i / nt
            u = point(t)
            for j in range(ny):
                y = (j / ny) * box[0]
                z = phi(system, u, y)
                z = z / np.linalg.norm(z)
                P = np.outer(z, np.conjugate(z))
                row = [P[0, 0].real, P[1, 1].real, P[2, 2].real,
                       P[0, 1].real, P[0, 1].imag, P[0, 2].real, P[0, 2].imag,
                       P[1, 2].real, P[1, 2].imag]
                writer.writerow(["%.17g" % t, "%.17g" % y[0]] + ["%.17g" % x for x in row])


SURFACES = [
    (ellipse, (), 192, 96),
    (ellipse, (), 8, 4),
    (ellipse, (), 64, 33),
    (ellipse, (2, 3, 5.0), 32, 16),
]


@pytest.mark.parametrize("make, args, nx, ny", SURFACES,
                         ids=lambda p: getattr(p, "__name__", str(p)))
def test_surface_mesh_matches_loop_reference(make, args, nx, ny, tmp_path, monkeypatch):
    system = make(*args)
    mesh = build_surface_mesh(system, nx, ny)
    vertices, faces = _reference_surface(system, nx, ny)
    assert np.array_equal(mesh.vertices, vertices)
    assert mesh.faces.dtype == faces.dtype and np.array_equal(mesh.faces, faces)
    assert (mesh.euler_characteristic(), mesh.is_closed()) == _reference_topology(faces)
    proj = np.linalg.qr(np.random.default_rng(nx).normal(size=(4, 3)))[0].T
    v3 = project_vertices(mesh.vertices, proj)
    _reference_obj(tmp_path / "old.obj", v3, faces)
    # V vertex rows and 2V face rows against blocks one short of, at and
    # one past V rows
    V = len(v3)
    for block in (meshing.BLOCK, V - 1, V, V + 1):
        monkeypatch.setattr(meshing, "BLOCK", block)
        write_obj(tmp_path / "new.obj", v3, mesh.faces)
        assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "old.obj").read_bytes()


@pytest.mark.parametrize("nt, ny", [(64, 64), (12, 10), (7, 5)])
@pytest.mark.parametrize("weights", [(1, 2, 3), (1, 1, 3), (2, 3, 1)], ids=str)
def test_projective_cloud_matches_loop_reference(weights, nt, ny, tmp_path, monkeypatch):
    system = weighted_cone(weights)  # (1, 2, 3) is klein_bottle_cone
    _reference_cloud(tmp_path / "old.csv", system, nt, ny)
    # nt * ny rows against blocks one short of, at and one past them, and
    # against at least two full blocks and a partial one
    rows = nt * ny
    for block in (meshing.BLOCK, rows - 1, rows, rows + 1, (rows - 1) // 2):
        monkeypatch.setattr(meshing, "BLOCK", block)
        write_projective_cloud(tmp_path / "new.csv", system, nt, ny)
        data = (tmp_path / "new.csv").read_bytes()
        assert data == (tmp_path / "old.csv").read_bytes()
        assert data.count(b"\r\n") == 1 + rows


# -- block writers: patched block sizes against the per-line loops --------
#
# With BLOCK = 4, the row counts 0, 1, 3, 4, 5 and 9 are 0, 1, BLOCK - 1,
# BLOCK, BLOCK + 1 and 2 * BLOCK + 1.


ROW_COUNTS = [0, 1, 3, 4, 5, 9]


def _awkward_vertices(rows):
    """(rows, 3) floats whose first and last entries are -0.0, a subnormal
    and values near the ends of the double range."""
    v = np.random.default_rng(rows).normal(size=(rows, 3)).reshape(-1)
    special = np.array([-0.0, 1e-320, 1e300, -1e300, 5e-324])
    k = min(len(special), len(v))
    v[:k], v[len(v) - k:] = special[:k], special[::-1][:k]
    return v.reshape(rows, 3)


@pytest.mark.parametrize("rows", ROW_COUNTS)
def test_obj_blocks_match_loop_reference(rows, tmp_path, monkeypatch):
    monkeypatch.setattr(meshing, "BLOCK", 4)
    v = _awkward_vertices(rows)
    faces = np.random.default_rng(rows).integers(0, max(rows, 1), size=(rows, 3))
    line = list(range(rows)) + [0]
    for name, kwargs in [("faces", {"faces": faces}), ("line", {"polyline": line})]:
        write_obj(tmp_path / f"new-{name}.obj", v, **kwargs)
        _reference_obj(tmp_path / f"old-{name}.obj", v, **kwargs)
        data = (tmp_path / f"new-{name}.obj").read_bytes()
        assert data == (tmp_path / f"old-{name}.obj").read_bytes()
    assert sum(line.startswith(b"v ") for line in data.splitlines()) == rows
    if rows >= 3:  # the specials at the end overlap the first row below that
        assert data.startswith(b"v -0 9.9998886718268301e-321 1.0000000000000001e+300\n")


def test_projector_coordinates_batch_matches_single_vectors():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(5, 7, 3)) + 1j * rng.normal(size=(5, 7, 3))
    batch = projector_coordinates(z)
    assert batch.shape == (5, 7, 9)
    for idx in np.ndindex(5, 7):
        assert np.array_equal(batch[idx], projector_coordinates(z[idx]))
    # Hermitian rank-one projector: trace 1
    assert np.max(np.abs(batch[..., :3].sum(-1) - 1.0)) <= 1e-15


def test_projective_polyline_matches_single_point_calls():
    from qlag.immersion import phi
    from qlag.torus import torus_box

    system = clifford_cone(2)
    pts, _ = build_projective_polyline(system, 64)
    (a,), (b,) = system.exponents.rows
    u = np.array([1.0, np.sqrt(-a / b)])
    u = u / np.linalg.norm(u)
    ys = np.arange(64)[:, None] / 64 @ torus_box(system.exponents)[:1]
    assert np.array_equal(pts, np.array([riemann_sphere(phi(system, u, y)) for y in ys]))


# -- edge table and closedness ---------------------------------------------


def test_edge_table_keys_and_counts():
    mesh = SurfaceMesh(np.zeros((4, 4)), np.array([[0, 1, 2], [2, 1, 3]]))
    keys, counts = mesh.edges()
    # edges (0,1) (0,2) (1,2) (1,3) (2,3) as i*V + j with V = 4
    assert keys.tolist() == [1, 2, 6, 7, 11]
    assert counts.tolist() == [1, 1, 2, 1, 1]


def test_one_edge_table_per_mesh(monkeypatch):
    mesh = build_surface_mesh(ellipse(), 32, 16)
    holed = SurfaceMesh(mesh.vertices, mesh.faces[1:])
    calls = []
    unique = np.unique

    def counting_unique(*args, **kwargs):
        calls.append(len(args[0]))
        return unique(*args, **kwargs)

    monkeypatch.setattr(meshing.np, "unique", counting_unique)
    assert mesh.euler_characteristic() == 0
    assert mesh.is_closed()
    keys, counts = mesh.edges()
    assert mesh.euler_characteristic() == 0 and mesh.is_closed()
    assert calls == [3 * len(mesh.faces)]
    assert not keys.flags.writeable and not counts.flags.writeable
    # the table cannot go stale: the mesh's own arrays are read-only too
    with pytest.raises(ValueError):
        mesh.faces[0, 0] = 1
    assert not mesh.vertices.flags.writeable
    # a mesh of other faces builds its own table
    assert holed.euler_characteristic() == -1
    assert not holed.is_closed()
    assert calls == [3 * len(mesh.faces), 3 * len(holed.faces)]


def test_mesh_with_a_face_removed_is_open():
    mesh = build_surface_mesh(ellipse(), 32, 16)
    holed = SurfaceMesh(mesh.vertices, mesh.faces[1:])
    assert not holed.is_closed()
    assert holed.euler_characteristic() == -1
    assert (holed.euler_characteristic(), holed.is_closed()) == _reference_topology(holed.faces)


def test_lone_triangle_is_open():
    # two vertices no face uses: the Euler characteristic counts used ones
    mesh = SurfaceMesh(np.zeros((5, 4)), np.array([[0, 1, 2]]))
    assert not mesh.is_closed()
    assert mesh.euler_characteristic() == 1


@settings(derandomize=True, database=None, deadline=None)
@given(
    half_nx=st.integers(4, 32),
    ny=st.integers(4, 32),
    a=st.integers(1, 5),
    b=st.integers(1, 5),
)
def test_surface_mesh_closed_with_zero_euler_characteristic(half_nx, ny, a, b):
    mesh = build_surface_mesh(ellipse(a, b), 2 * half_nx, ny)
    assert mesh.is_closed()
    assert mesh.euler_characteristic() == 0
