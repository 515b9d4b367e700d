import tempfile

import pytest

from arrcover import catalog


@pytest.fixture(scope="session")
def selberg():
    return catalog.get("selberg").arrangement


@pytest.fixture(scope="session")
def maclane_decone():
    return catalog.get("maclane-decone").arrangement


@pytest.fixture(scope="session")
def hessian_decone():
    return catalog.get("hessian-decone").arrangement


@pytest.fixture(scope="session")
def ceva3():
    return catalog.get("ceva3").arrangement


@pytest.fixture(scope="session")
def catalog_arrangements(selberg, maclane_decone, hessian_decone, ceva3):
    return {
        "selberg": selberg,
        "maclane-decone": maclane_decone,
        "hessian-decone": hessian_decone,
        "ceva3": ceva3,
    }


try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # hypothesis is a test-only extra; its tests skip without it
    set_hypothesis_home_dir = None
else:
    # deterministic runs that keep no example database
    settings.register_profile("arrcover", derandomize=True, database=None, deadline=None)
    settings.load_profile("arrcover")


def pytest_configure(config):
    """Hypothesis caches the constants it finds in local modules on disk, at
    collection and even without a database; keep that cache in a temporary
    directory removed after the run, not in .hypothesis/ of the tree."""
    if set_hypothesis_home_dir is not None:
        storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
        config.add_cleanup(storage.cleanup)
        set_hypothesis_home_dir(storage.name)
