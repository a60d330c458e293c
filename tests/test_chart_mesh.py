"""Chart meshes store per-axis data and broadcast it: the metric lives on the
axes it varies on and the node grids are sparse.  Every value computed on
such a mesh equals the one computed on fully materialized per-node arrays,
bit for bit."""

import tracemalloc
from dataclasses import dataclass, replace

import numpy as np
import pytest

import qlag.immersion as immersion
from qlag import QuadricSystem
from qlag.catalog import circle, ellipse, klein_bottle_cone, product_torus, weighted_cone
from qlag.errors import ChartFailure, DimensionUnsupported, MeshTooCoarse
from qlag.immersion import (
    ChartMesh,
    TrigPolynomial,
    chart_mesh,
    hamiltonian_variation,
    laplace_beltrami_defect,
    random_trig_polynomial,
    torus_metric,
)
from qlag.torus import torus_box
from qlag.pipeline import InstanceConfig, report_passed, run_analyze


@dataclass(frozen=True)
class _DenseGridMesh(ChartMesh):
    """A mesh whose node grids are full shape arrays."""

    def node_grids(self):
        return [np.broadcast_to(g, self.shape).copy() for g in super().node_grids()]


def _dense(mesh: ChartMesh) -> ChartMesh:
    """Copy of mesh with one metric per node and full-shape node grids."""
    dim = mesh.dim
    metric = np.broadcast_to(mesh.metric, mesh.shape + (dim, dim)).copy()
    return _DenseGridMesh(mesh.shape, mesh.spacings, mesh.periodic, metric,
                          mesh.angle_gradient, mesh.volume)


def _angle(mesh: ChartMesh) -> np.ndarray:
    """The angle on every node: 0.0 plus the per-axis terms, in axis order."""
    return sum(mesh.angle_terms(), np.zeros(mesh.shape))


CHARTS = {
    "ellipse": (ellipse, False),
    "product_torus([1,2,3])": (lambda: product_torus([1, 2, 3]), False),
    "klein_bottle_cone link": (klein_bottle_cone, True),
}


@pytest.mark.parametrize("name", list(CHARTS))
def test_laplace_beltrami_equals_dense_mesh(name):
    make, on_link = CHARTS[name]
    system = make()
    resolution = 32 if system.n == 3 and not on_link else 64
    mesh = chart_mesh(system, resolution, on_link=on_link)
    dense = _dense(mesh)
    values = _angle(mesh)
    assert values.shape == mesh.shape
    assert np.array_equal(values, _angle(dense))
    defect = laplace_beltrami_defect(mesh, *mesh.angle_terms())
    assert defect == laplace_beltrami_defect(dense, *dense.angle_terms())
    assert defect == laplace_beltrami_defect(dense, values)
    # a non-harmonic field exercises every metric entry, not only the angle
    s = sum(np.cos(2 * np.pi * (a + 1) * g) for a, g in enumerate(mesh.node_grids()))
    assert laplace_beltrami_defect(mesh, s) == laplace_beltrami_defect(dense, s)


@pytest.mark.parametrize("name", ["ellipse", "product_torus([1,2,3])"])
def test_variation_equals_dense_mesh(name, monkeypatch):
    system = CHARTS[name][0]()
    polys = [random_trig_polynomial(system.n, seed=s) for s in range(3)]
    broadcast = [hamiltonian_variation(system, [f], resolution=16) for f in polys]

    real_chart_mesh = immersion.chart_mesh

    def dense_chart_mesh(*args, **kwargs):
        return _dense(real_chart_mesh(*args, **kwargs))

    monkeypatch.setattr(immersion, "chart_mesh", dense_chart_mesh)
    dense = [hamiltonian_variation(system, [f], resolution=16) for f in polys]
    assert broadcast == dense


def test_variation_of_several_polynomials_builds_one_mesh(monkeypatch):
    system = product_torus([1, 2, 3])
    polys = [random_trig_polynomial(system.n, seed=s) for s in range(3)]
    alone = [hamiltonian_variation(system, [f], resolution=16) for f in polys]
    built = []
    real_chart_mesh = immersion.chart_mesh

    def counted(*args, **kwargs):
        built.append(args)
        return real_chart_mesh(*args, **kwargs)

    monkeypatch.setattr(immersion, "chart_mesh", counted)
    assert hamiltonian_variation(system, iter(polys), resolution=16) == max(alone)
    assert len(built) == 1


def test_node_grids_are_sparse():
    mesh = chart_mesh(product_torus([1, 2, 3]), 16)
    shapes = [g.shape for g in mesh.node_grids()]
    assert shapes == [(16, 1, 1), (1, 16, 1), (1, 1, 16)]


# -- regression guards: no dense per-node tensors, no full-grid transcendental ----


def test_torus_chart_is_based_at_the_polytope_vertex(monkeypatch):
    # a k = 0 variety is one torus orbit, through the square root of the
    # moment polytope's one vertex, so no point is projected
    def refuse(*args, **kwargs):
        raise AssertionError("the torus chart projects nothing")

    monkeypatch.setattr(immersion, "newton_project", refuse)
    system = product_torus([1, 2, 3])
    box = torus_box(system.exponents)
    expected = box @ torus_metric(system, np.array([1.0, 2.0, 3.0])) @ box.T
    assert np.array_equal(chart_mesh(system, 8).metric.reshape(3, 3), expected)
    # u1^2 = 1, -u2^2 = 1 has no point: an error, recorded as one, not a skip
    empty = QuadricSystem([[1, 0], [0, -1]], [1.0, 1.0])
    with pytest.raises(ChartFailure, match="no vertex") as err:
        chart_mesh(empty, 8)
    assert not isinstance(err.value, DimensionUnsupported)
    config = InstanceConfig.from_dict({"n": 2, "k": 0, "rows": [[1, 0], [0, -1]],
                                       "constants": [1.0, 1.0], "sweeps": {"cn": True}})
    entry = run_analyze(config)["cn"]["angle_harmonicity"]
    assert entry == {"error": "ChartFailure: no torus chart: the moment polytope has no vertex",
                     "pass": False}


def test_torus_metric_is_one_matrix():
    mesh = chart_mesh(product_torus([1, 2, 3]), 64)
    assert mesh.metric.size <= mesh.dim ** 2


@pytest.mark.parametrize(
    "system,on_link",
    [(ellipse(), False), (klein_bottle_cone(), True)],
    ids=["conic", "link"],
)
def test_curve_chart_metric_is_per_curve_node(system, on_link):
    mesh = chart_mesh(system, 64, on_link=on_link)
    assert mesh.metric.size <= mesh.shape[0] * mesh.dim ** 2


def test_variation_transcendentals_see_one_axis_of_nodes(monkeypatch):
    # each term's sine is a product of per-axis exponentials: no sin, cos or
    # exp call sees more nodes than one axis has
    sizes = []

    def counted(real):
        def call(x, *args, **kwargs):
            sizes.append(np.size(x))
            return real(x, *args, **kwargs)
        return call

    for name in ("sin", "cos", "exp"):
        monkeypatch.setattr(np, name, counted(getattr(np, name)))
    for system, resolution in ((product_torus([1, 2, 3]), 16), (ellipse(), 32)):
        sizes.clear()
        hamiltonian_variation(system, [random_trig_polynomial(system.n, seed=0)], resolution)
        shape = chart_mesh(system, resolution).shape
        assert sizes and max(sizes) <= max(shape)


def _per_axis_gradient(f, axis, *grids):
    """The per-axis loop gradient replaced, one sine per term and axis."""
    out = np.zeros(np.broadcast(*grids).shape if grids else ())
    for amp, freqs, phase in f.terms:
        if freqs[axis] == 0:
            continue
        arg = phase + immersion.TWO_PI * sum(q * g for q, g in zip(freqs, grids))
        out = out - amp * immersion.TWO_PI * freqs[axis] * np.sin(arg)
    return out


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gradient_equals_the_per_axis_loop(dim):
    grids = ChartMesh((16, 12, 8)[:dim], (1 / 16, 1 / 12, 1 / 8)[:dim], (False,) * dim,
                      np.eye(dim), np.zeros(dim), 1.0).node_grids()
    f = TrigPolynomial(random_trig_polynomial(dim, seed=dim).terms + ((0.5, (0,) * dim, 1.0),))
    got = f.gradient(*grids)
    assert len(got) == dim
    for axis in range(dim):
        assert np.array_equal(got[axis], _per_axis_gradient(f, axis, *grids))


def _per_node_variation(system, f, resolution):
    """The per-node variation formula the weighted sines replaced, and the
    integral of its absolute value, the scale its rounding is judged on."""
    mesh = immersion.chart_mesh(system, resolution)
    ginv = np.linalg.inv(mesh.metric)
    sqrtg = np.sqrt(np.linalg.det(mesh.metric))
    df = f.gradient(*mesh.node_grids())
    integrand = np.zeros(mesh.shape)
    for a in range(mesh.dim):
        if mesh.angle_gradient[a] == 0.0:
            continue
        for b in range(mesh.dim):
            integrand += ginv[..., a, b] * mesh.angle_gradient[a] * df[b]
    integrand *= sqrtg
    return abs(np.sum(integrand) * mesh.volume), np.sum(np.abs(integrand)) * mesh.volume


@pytest.mark.parametrize("system", [circle(), ellipse(), ellipse(2, 3, 2.0), product_torus([1, 2, 3])],
                         ids=["circle", "ellipse", "ellipse(2,3,2)", "product_torus([1,2,3])"])
def test_variation_equals_the_per_node_formula(system):
    for seed in range(3):
        f = random_trig_polynomial(system.n, seed=seed)
        old, scale = _per_node_variation(system, f, 32)
        assert abs(hamiltonian_variation(system, [f], 32) - old) <= 1e-12 * scale


def test_variation_equals_the_per_node_formula_off_zero(monkeypatch):
    # an angle gradient along the curve axis, and a metric that varies along
    # it with an off-diagonal entry (on an ellipse sqrt(G) G^{00} is
    # constant): the integral is far from zero and the formulas agree
    real_chart_mesh = immersion.chart_mesh

    def tilted(*args, **kwargs):
        mesh = real_chart_mesh(*args, **kwargs)
        t = mesh.node_grids()[0]
        metric = mesh.metric.copy()
        metric[..., 0, 0] *= 1.5 + np.cos(2 * np.pi * t)
        metric[..., 0, 1] = metric[..., 1, 0] = 0.3 * np.sqrt(metric[..., 0, 0] * metric[..., 1, 1])
        return replace(mesh, metric=metric, angle_gradient=mesh.angle_gradient + np.array([0.7, 0.0]))

    monkeypatch.setattr(immersion, "chart_mesh", tilted)
    f = TrigPolynomial(((1.0, (2, 0), 0.3), (0.5, (1, 1), 1.0), (-0.8, (2, -1), 2.0)))
    old, _ = _per_node_variation(ellipse(), f, 32)
    assert old > 1e-3
    assert abs(hamiltonian_variation(ellipse(), [f], 32) - old) <= 1e-12 * old


# -- blocks of axis-0 rows in laplace_beltrami_defect ---------------------------------


def _whole_mesh_defect(mesh, values):
    """The whole-mesh Laplace-Beltrami formula the blocks replaced."""
    def diff(arr, axis):
        h = mesh.spacings[axis]
        if mesh.periodic[axis]:
            return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * h)
        return np.gradient(arr, h, axis=axis, edge_order=1)

    sqrtg = np.sqrt(np.linalg.det(mesh.metric))
    ginv = np.linalg.inv(mesh.metric)
    grads = [diff(values, a) for a in range(mesh.dim)]
    div = np.zeros(mesh.shape)
    for a in range(mesh.dim):
        div += diff(sqrtg * sum(ginv[..., a, b] * grads[b] for b in range(mesh.dim)), a)
    interior = tuple(slice(None) if per else slice(2, -2) for per in mesh.periodic)
    return float(np.max(np.abs(div / sqrtg)[interior]))


def _hand_built_mesh(periodic, shape):
    """A mesh whose metric is one (D, D) matrix, off-diagonal, with the
    periodic flags given, axes past 0 included."""
    dim = len(shape)
    metric = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]])[:dim, :dim]
    spacings = tuple(1 / n for n in shape)
    return ChartMesh(shape, spacings, periodic, metric, np.arange(1.0, dim + 1), float(np.prod(spacings)))


BLOCK_MESHES = {
    "circle": lambda: chart_mesh(circle(), 64),
    "ellipse": lambda: chart_mesh(ellipse(), 64),
    "klein_bottle_cone link": lambda: chart_mesh(klein_bottle_cone(), 64, on_link=True),
    "product_torus([1,2,3])": lambda: chart_mesh(product_torus([1, 2, 3]), 64),
    "product_torus([1,2,3,4])": lambda: chart_mesh(product_torus([1, 2, 3, 4]), 64),
    "off-diagonal torus": lambda: chart_mesh(QuadricSystem([[1, 0], [1, 1]], [2.0, 1.0]), 64),
    "dense ellipse": lambda: _dense(chart_mesh(ellipse(), 64)),
    "dense product_torus([1,2,3])": lambda: _dense(chart_mesh(product_torus([1, 2, 3]), 16)),
    "(D, D) metric": lambda: _hand_built_mesh((False, False), (24, 20)),
    "(D, D) metric, periodic axis 1": lambda: _hand_built_mesh((False, True), (24, 20)),
    "(D, D) metric, periodic axes 0, 1": lambda: _hand_built_mesh((True, True), (24, 20)),
    "(D, D) metric, periodic axes 0, 2": lambda: _hand_built_mesh((True, False, True), (24, 20, 16)),
}


@pytest.mark.parametrize("name", list(BLOCK_MESHES))
def test_laplace_beltrami_does_not_depend_on_the_block_size(name, monkeypatch):
    # one row per block, the default and one block give the whole-mesh
    # formula's bits, from the angle's per-axis terms and from one full
    # array, and a NaN in a later block reaches the result
    mesh = BLOCK_MESHES[name]()
    wave = sum(np.cos(2 * np.pi * (a + 1) * g) for a, g in enumerate(mesh.node_grids()))
    fields = [mesh.angle_terms(), [np.broadcast_to(wave, mesh.shape).copy()]]
    planted = fields[1][0].copy()
    planted[(mesh.shape[0] * 3 // 4,) + tuple(n // 2 for n in mesh.shape[1:])] = np.nan
    got = {}
    for block in (1, immersion.LB_BLOCK, 10 ** 9):
        monkeypatch.setattr(immersion, "LB_BLOCK", block)
        got[block] = [laplace_beltrami_defect(mesh, *terms) for terms in fields]
        # with one row per block the NaN is in a block that is not the first
        assert np.isnan(laplace_beltrami_defect(mesh, planted))
    assert got[1] == got[immersion.LB_BLOCK] == got[10 ** 9]
    assert got[1] == [_whole_mesh_defect(mesh, sum(terms, np.zeros(mesh.shape))) for terms in fields]
    assert all(np.isfinite(got[1]))


def test_laplace_beltrami_memory_on_the_torus_chart():
    # the harmonicity path on the 64^3 torus chart: chart_mesh, the angle's
    # sparse per-axis terms, and blocks of LB_BLOCK nodes, whose field,
    # gradient, axis-0 flux and output buffers hold the block's rows and
    # four more, and two more buffers its rows alone: about 2.96 MB.  Halo
    # rows recomputed in 2**16-node blocks and a full angle array took
    # 6.23 MB, and the whole-mesh formula 14.75 MB
    system = product_torus([1, 2, 3])
    tracemalloc.start()
    try:
        mesh = chart_mesh(system, 64)
        laplace_beltrami_defect(mesh, *mesh.angle_terms())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6


# -- node budget of an int resolution r: r**3 nodes at most --------------------------


def test_budget_resolution():
    tori = [product_torus(list(range(1, d + 1))) for d in (1, 2, 3, 4)]
    assert [chart_mesh(t, 64).shape for t in tori] == [(64,) * 1, (64,) * 2, (64,) * 3, (22,) * 4]
    assert [chart_mesh(t, 32).shape for t in tori] == [(32,) * 1, (32,) * 2, (32,) * 3, (13,) * 4]
    # six axes get 5 nodes each from 32**3 nodes: the chart is too big for
    # the budget, while a resolution below 8 is too coarse in any dimension
    with pytest.raises(DimensionUnsupported, match="a 6-dimensional chart mesh gets 5 nodes "
                       "per axis from the 32768-node budget, below the 8-node minimum"):
        chart_mesh(product_torus([1, 2, 3, 4, 5, 6]), 32)
    with pytest.raises(MeshTooCoarse):
        chart_mesh(tori[0], 7)


@pytest.mark.parametrize("weights, nodes", [([1, 2, 3, 4], 22 ** 4), ([1, 2, 3, 4, 5], 12 ** 5)],
                         ids=["4", "5"])
def test_product_torus_reports_harmonicity_and_variation(weights, nodes):
    system = product_torus(weights)
    config = InstanceConfig.from_dict({
        "n": system.n,
        "k": system.k,
        "rows": [list(r) for r in system.exponents.rows],
        "constants": list(system.constants),
        "samples": 40,
        "curvature_samples": 4,
        "sweeps": {"cn": True},
    })
    cn = run_analyze(config)["cn"]
    assert cn["angle_harmonicity"]["pass"] is True
    assert cn["angle_harmonicity"]["count"] == nodes
    assert cn["hamiltonian_variation"]["pass"] is True
    assert cn["hamiltonian_variation"]["count"] == 3


def test_seven_torus_skips_harmonicity_the_budget_cannot_mesh():
    # 64^3 nodes leave 5 per axis in 7 dimensions, below the 8-node minimum:
    # the entry is skipped like the variation, not failed
    config = InstanceConfig.from_dict({
        "n": 7,
        "k": 0,
        "rows": np.eye(7, dtype=int).tolist(),
        "constants": [float(i * i) for i in range(1, 8)],
        "samples": 20,
        "curvature_samples": 4,
        "sweeps": {"cn": True},
    })
    report = run_analyze(config)
    entry = report["cn"]["angle_harmonicity"]
    assert set(entry) == {"skipped"}
    assert "7-dimensional" in entry["skipped"] and str(64 ** 3) in entry["skipped"]
    assert "skipped" in report["cn"]["hamiltonian_variation"]
    assert report_passed(report)


def test_seven_coordinate_cone_names_its_missing_chart():
    # the chart is chosen before the budget is read, so a skip names what is missing
    system = weighted_cone([1, 1, 1, 1, 1, 1, 6])
    config = InstanceConfig.from_dict({
        "n": system.n,
        "k": system.k,
        "rows": [list(r) for r in system.exponents.rows],
        "constants": list(system.constants),
        "samples": 20,
        "curvature_samples": 4,
        "sweeps": {"cn": True},
    })
    cn = run_analyze(config)["cn"]
    skip = {"skipped": "no chart mesh for n=7, k=6 (need k=0, n=2, or a link)"}
    assert cn["angle_harmonicity"] == cn["hamiltonian_variation"] == skip
