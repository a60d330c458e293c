"""Chart meshes store per-axis data and broadcast it: the metric lives on the
axes it varies on and the node grids are sparse.  Every value computed on
such a mesh equals the one computed on fully materialized per-node arrays,
bit for bit."""

from dataclasses import dataclass

import numpy as np
import pytest

import qlag.immersion as immersion
from qlag import QuadricSystem
from qlag.catalog import ellipse, klein_bottle_cone, product_torus
from qlag.errors import ChartFailure, DimensionUnsupported
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
from qlag.pipeline import InstanceConfig, _budget_resolution, report_passed, run_analyze


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
    values = mesh.angle_values()
    assert values.shape == mesh.shape
    assert np.array_equal(values, dense.angle_values())
    assert laplace_beltrami_defect(mesh, values) == laplace_beltrami_defect(dense, values)
    # a non-harmonic field exercises every metric entry, not only the angle
    s = sum(np.cos(2 * np.pi * (a + 1) * g) for a, g in enumerate(mesh.node_grids()))
    assert laplace_beltrami_defect(mesh, s) == laplace_beltrami_defect(dense, s)


@pytest.mark.parametrize("name", ["ellipse", "product_torus([1,2,3])"])
def test_variation_equals_dense_mesh(name, monkeypatch):
    system = CHARTS[name][0]()
    polys = [random_trig_polynomial(system.n, seed=s) for s in range(3)]
    broadcast = [hamiltonian_variation(system, f, resolution=16) for f in polys]

    real_chart_mesh = immersion.chart_mesh

    def dense_chart_mesh(*args, **kwargs):
        return _dense(real_chart_mesh(*args, **kwargs))

    monkeypatch.setattr(immersion, "chart_mesh", dense_chart_mesh)
    dense = [hamiltonian_variation(system, f, resolution=16) for f in polys]
    assert broadcast == dense


def test_node_grids_are_sparse():
    mesh = chart_mesh(product_torus([1, 2, 3]), 16)
    shapes = [g.shape for g in mesh.node_grids()]
    assert shapes == [(16, 1, 1), (1, 16, 1), (1, 1, 16)]


# -- regression guards: no dense per-node tensors, one gradient per axis ----------


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


def test_variation_takes_one_gradient_per_axis(monkeypatch):
    # one sine per term serves the derivatives along every axis
    calls = []
    real_sin = np.sin

    def counted(x, *args, **kwargs):
        calls.append(np.shape(x))
        return real_sin(x, *args, **kwargs)

    f = random_trig_polynomial(3, seed=0)
    monkeypatch.setattr(np, "sin", counted)
    hamiltonian_variation(product_torus([1, 2, 3]), f, 16)
    assert len(calls) == len(f.terms) == 4


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


# -- node budget of the pipeline's chart checks -------------------------------------


def test_budget_resolution():
    assert [_budget_resolution(64, 64 ** 3, d) for d in (1, 2, 3, 4)] == [64, 64, 64, 22]
    assert [_budget_resolution(32, 32 ** 3, d) for d in (1, 2, 3, 4)] == [32, 32, 32, 13]


def test_product_torus_4_reports_harmonicity_and_variation():
    system = product_torus([1, 2, 3, 4])
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
    assert cn["angle_harmonicity"]["count"] == 22 ** 4
    assert cn["hamiltonian_variation"]["pass"] is True


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
