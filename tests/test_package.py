"""The package's public surface and its kernel backend."""

import ast
import glob
import os
import subprocess
import sys

import pytest

import eccspec
from eccspec import kernels


def test_public_names_pinned():
    # adding or dropping an export is a deliberate edit of this list
    assert sorted(eccspec.__all__) == [
        "BlockSpec", "Graph", "Inertia", "IntMatrix", "IntPolynomial",
        "Metrics", "QuotientResult", "acharpoly", "bareiss_rank",
        "berkowitz_charpoly", "bfs_metrics", "bull", "charpoly", "complete",
        "complete_multipartite", "cycle", "disjoint_union",
        "ecc_matrix", "empty_graph", "graph6_decode",
        "graph6_encode", "hl_index", "is_connected", "is_irreducible",
        "join", "join_clique_with", "median_eigenvalue_is",
        "mixed_extension_star", "multiplicity", "path", "poly_divide_exact",
        "quotient", "realize", "root_multiplicity",
        "twin_eigenvalue_predictions", "verify_spectrum_identity",
    ]


def test_backend_selection():
    if os.environ.get("ECCSPEC_KERNELS") == "py":
        assert kernels.BACKEND == "pure-python"
    else:
        assert kernels.BACKEND == "compiled"


def test_build_without_compiler_succeeds_with_no_module(tmp_path):
    # the extension is optional: where no C compiler works the build warns,
    # writes no module and exits 0, so the pure-Python fallback installs
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(tmp_path / "lib"),
         "--build-temp", str(tmp_path / "temp")],
        cwd=root, env=dict(os.environ, CC="false"), stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True)
    assert proc.returncode == 0, proc.stdout
    assert "eccspec._kernels" in proc.stdout and "failed" in proc.stdout
    assert glob.glob(str(tmp_path / "**" / "_kernels*"), recursive=True) == []


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert eccspec.__version__ == project["version"]


def _unused_imports(path):
    """Names a module imports and never reads, bar those in its
    ``__all__``."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    imported = set()
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


def test_no_unused_imports():
    """The package's modules and the test modules import nothing they do
    not read."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(glob.glob(os.path.join(root, "src", "eccspec", "*.py"))
                   + glob.glob(os.path.join(root, "tests", "*.py")))
    assert paths
    unused = {os.path.relpath(p, root): _unused_imports(p) for p in paths}
    assert {k: v for k, v in unused.items() if v} == {}


def test_every_kernel_has_a_package_caller():
    """Every function ``eccspec.kernels`` binds is called, as
    ``kernels.<name>(...)``, by some package module other than the
    selector and the two backends, so a kernel that only converts between
    forms for another kernel cannot come back unnoticed."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    bound = {name for name, value in vars(kernels).items()
             if not name.startswith("_") and callable(value)}
    called = set()
    for path in glob.glob(os.path.join(root, "src", "eccspec", "*.py")):
        if os.path.basename(path) in ("kernels.py", "_kernels_py.py"):
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        called.update(
            node.func.attr for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "kernels")
    assert bound
    assert sorted(bound - called) == []


def test_benchmark_entry_points_exist():
    """Every ``census.X``, ``graphs.X``, ``suites.X`` and ``eccentricity.X``
    that ``perfbench/workloads.py`` reads is an attribute of that eccspec
    module, so a rename or move that would break the benchmark's jobs or
    its traced probe fails here first."""
    from eccspec import census, eccentricity, graphs, suites

    modules = {"census": census, "graphs": graphs, "suites": suites,
               "eccentricity": eccentricity}
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "perfbench", "workloads.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    read = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    assert {("census", "bits_to_graph6"), ("census", "canonical_bits"),
            ("census", "classify"), ("suites", "run_suite")} <= read
    assert sorted(f"{mod}.{attr}" for mod, attr in read
                  if not hasattr(modules[mod], attr)) == []
