"""Session-wide test settings and the shared block-split check."""

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis.configuration import set_hypothesis_home_dir

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    """Give Hypothesis a throwaway home for the run.  Its pytest plugin
    caches source constants there while collecting, so a run leaves no
    .hypothesis/ in the checkout.  The property tests also pass
    database=None, so no example is saved or replayed."""
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


@pytest.fixture
def blockwise():
    """Check that a batched routine gives every row the same result however
    the batch is cut into blocks, as the report's FRAME_BLOCK and the
    collision scan's SCAN_BLOCK cut it.

    ``check(fn, count, seed, noise)`` calls ``fn(rows)`` with a slice of the
    ``count`` batch rows; fn returns a tuple of arrays with a leading row
    axis.  The whole batch is compared with two cuts of it: ``count``
    one-row blocks, and blocks at arbitrary boundaries drawn from ``seed``
    behind a one-row block.  Rows must agree bit for bit, or within
    ``noise`` when it is nonzero.
    """

    def check(fn, count, seed=0, noise=0.0):
        whole = fn(slice(None))
        bounds = np.unique(np.r_[0, 1, count, np.random.default_rng(seed).integers(1, count, 4)])
        for blocks in (
            [slice(i, i + 1) for i in range(count)],
            [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])],
        ):
            parts = [fn(block) for block in blocks]
            for k, expected in enumerate(whole):
                got = np.concatenate([part[k] for part in parts])
                assert got.shape == np.shape(expected)
                if noise:
                    assert np.max(np.abs(got - expected), initial=0.0) <= noise
                else:
                    assert np.array_equal(got, expected)

    return check


@pytest.fixture
def per_point_draw():
    """The samplers' polytope draw built one point at a time, a reference
    for their batched arithmetic.

    ``draw(system, count, seed, floor, zero)`` takes the vertices and rays
    of quadric.moment_polytope, those with v_zero = 0 when ``zero`` is
    given, and the generator's streams in the samplers' order (simplex
    weights, ray weights, signs, a cone's radius), then builds each point
    alone, term by term:
    v_i = floor^2 + sum_k (w_k / sum w) V_ki + sum_r s_r R_ri and
    u_i = eps_i r sqrt(v_i).  A face with no vertex gives no points.
    """
    from qlag.quadric import moment_polytope

    def draw(system, count, seed, floor=0.0, zero=None):
        vertices, rays = moment_polytope(system, floor)
        if zero is not None:
            vertices, rays = vertices[vertices[:, zero] == 0], rays[rays[:, zero] == 0]
        if not len(vertices):
            return np.zeros((0, system.n))
        rng = np.random.default_rng(seed)
        weights = rng.exponential(size=(count, len(vertices)))
        ray_weights = rng.exponential(size=(count, len(rays)))
        signs = rng.choice([-1.0, 1.0], size=(count, system.n))
        radii = rng.uniform(1.0, 2.0, size=(count, 1)) if system.is_cone() else np.ones((count, 1))
        points = np.zeros((count, system.n))
        for p in range(count):
            total = weights[p].sum()
            for i in range(system.n):
                v = floor * floor + sum(w / total * vertex[i]
                                        for w, vertex in zip(weights[p], vertices))
                v += sum(s * ray[i] for s, ray in zip(ray_weights[p], rays))
                points[p, i] = np.sqrt(v) * signs[p, i] * radii[p, 0]
        return points

    return draw
