import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def pytest_configure(config):
    """Build the C kernel extension in place before any test imports
    eccspec, so the suite runs (and parity-tests) the compiled backend.
    setuptools skips the compile when the module is newer than its source.
    ECCSPEC_PURE=1 or ECCSPEC_KERNELS=py skip the build."""
    if os.environ.get("ECCSPEC_PURE") == "1" or \
            os.environ.get("ECCSPEC_KERNELS") == "py":
        return
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise pytest.UsageError(
            "building the C kernel extension failed:\n" + proc.stdout)


@pytest.fixture(scope="session")
def census_cache():
    """Census records shared by the whole run, keyed by order, so that each
    order is classified at most once; a suite takes it as ``census_cache``."""
    return {}


@pytest.fixture(scope="session")
def census_records(census_cache):
    """The records of order n from the session census, classified on first
    use."""
    from eccspec import census

    def get(n):
        if n not in census_cache:
            census_cache[n] = census.classify(n)
        return census_cache[n]

    return get
