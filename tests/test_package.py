"""The package's public surface and its kernel backend."""

import os

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


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert eccspec.__version__ == project["version"]
