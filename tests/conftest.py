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
