"""Session-wide test settings."""

import shutil
import tempfile

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
