"""Exact-arithmetic toolkit for eccentricity-matrix spectra of graphs.

Builds the largest-distance (eccentricity) matrix of a connected graph,
computes eigenvalue multiplicities and characteristic polynomials over the
integers without floating-point error, and mechanically checks the
large-multiplicity characterization of the eigenvalue -1 by structured family
checks and isomorph-free enumeration at small orders.
"""

__version__ = "0.1.0"

from .graphs import (
    Graph,
    Metrics,
    bfs_metrics,
    bull,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    empty_graph,
    graph6_decode,
    graph6_encode,
    is_connected,
    join,
    join_clique_with,
    mixed_extension_star,
    path,
)
from .exactalg import (
    Inertia,
    IntMatrix,
    IntPolynomial,
    bareiss_rank,
    berkowitz_charpoly,
    charpoly,
    poly_divide_exact,
    root_multiplicity,
)
from .eccentricity import (
    acharpoly,
    ecc_matrix,
    hl_index,
    is_irreducible,
    median_eigenvalue_is,
    multiplicity,
    twin_eigenvalue_predictions,
)
from .quotient import (
    BlockSpec,
    QuotientResult,
    quotient,
    realize,
    verify_spectrum_identity,
)

# written out, so that the submodules bound by the imports above, and any
# helper imported here later, are not exported
__all__ = [
    # graphs
    "Graph", "Metrics", "bfs_metrics", "bull", "complete",
    "complete_multipartite", "cycle", "disjoint_union", "empty_graph",
    "graph6_decode", "graph6_encode", "is_connected", "join",
    "join_clique_with", "mixed_extension_star", "path",
    # exactalg
    "Inertia", "IntMatrix", "IntPolynomial", "bareiss_rank",
    "berkowitz_charpoly", "charpoly", "poly_divide_exact",
    "root_multiplicity",
    # eccentricity
    "acharpoly", "ecc_matrix", "hl_index", "is_irreducible",
    "median_eigenvalue_is", "multiplicity", "twin_eigenvalue_predictions",
    # quotient
    "BlockSpec", "QuotientResult", "quotient", "realize",
    "verify_spectrum_identity",
]
