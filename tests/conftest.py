import os
import subprocess
import sys
import sysconfig

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "eccspec")
SOURCE = os.path.join(PKG, "_kernels.c")
MODULE = os.path.join(PKG, "_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))

#: connected graphs per order, typed from OEIS A001349: the oracle for
#: ``census.connected_count`` and for the count of every enumerated level
A001349 = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117,
           9: 261080, 10: 11716571, 11: 1006700565, 12: 164059830476}


def count_off_at_five(n):
    """A001349 with 22 for order 5, where 21 is right: patched over
    ``census.connected_count``, it fails the order-5 level check."""
    return 22 if n == 5 else A001349[n]


def _mtime_ns(path):
    try:
        return os.stat(path).st_mtime_ns
    except FileNotFoundError:
        return None


def pytest_configure(config):
    """Build the C kernel extension in place before any test imports
    eccspec, and refuse to run unless the module is not older than
    ``_kernels.c``, so the suite runs (and parity-tests) the extension built
    from the source in the tree.

    ECCSPEC_KERNELS=py is the one switch: it builds nothing, the library runs
    the pure-Python kernels and ``tests/test_kernels.py`` skips.  setuptools
    compiles only when the source's whole-second mtime is later than the
    built module's, so a missing module or a same-second tie is built with
    ``--force``; an up-to-date tree compiles nothing.  The extension is
    optional, so a failed compile still exits 0: the module check below
    catches it and shows the build's output."""
    if os.environ.get("ECCSPEC_KERNELS") == "py":
        return
    cmd = [sys.executable, "setup.py", "-q", "build_ext", "--inplace"]
    module_ns = _mtime_ns(MODULE)
    if module_ns is None or module_ns // 10**9 <= _mtime_ns(SOURCE) // 10**9:
        cmd.append("--force")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        raise pytest.UsageError(
            "building the C kernel extension failed:\n" + proc.stdout)
    # the in-place copy keeps only the whole seconds of the build's mtime,
    # so this reads a build ending in the edit's own second as older; the
    # next run forces a build that ends later
    module_ns = _mtime_ns(MODULE)
    if module_ns is None or module_ns < _mtime_ns(SOURCE):
        raise pytest.UsageError(
            f"after the in-place build the kernel module {MODULE} is missing "
            f"or older than {SOURCE}; set ECCSPEC_KERNELS=py for a "
            f"pure-Python run; the build printed:\n{proc.stdout}")


def shifted(m, q, p):
    """q*M - p*I for an ``IntMatrix`` M: the integer matrix whose nullity is
    the multiplicity of the eigenvalue p/q, the rank oracle's input."""
    from eccspec.exactalg import IntMatrix
    return IntMatrix([[q * x - (p if i == j else 0) for j, x in enumerate(row)]
                      for i, row in enumerate(m.rows)])


class SessionCensus(dict):
    """Census records keyed by order, each order classified on its first
    lookup."""

    def __missing__(self, n):
        from eccspec import census
        self[n] = records = census.classify(n)
        return records


@pytest.fixture(scope="session")
def census_cache():
    """Census records shared by the whole run, keyed by order, so that each
    order is classified at most once; a suite takes it as ``census_cache``
    and reads any order from it."""
    return SessionCensus()


@pytest.fixture(scope="session")
def census_records(census_cache):
    """The records of order n from the session census, classified on first
    use."""
    return census_cache.__getitem__
