"""Kernel backend selection: compiled extension if importable, else pure Python.

Set ECCSPEC_KERNELS=py to force the pure-Python fallback; it is also the one
switch the test suite reads (it then builds no extension).  Both backends
export the same functions, the names in ``_kernels_py.__all__``, and this
module binds each one.  Every graph kernel but ``all_pairs_dist`` (at most 64
vertices) takes only census orders: ``canon_bits`` labels a graph on at most
10 vertices, ``children_canon`` and ``census_records`` take the packed lower
triangle of one and ``census_structure`` its graph6 string, so every
canonical or packed form is one 64-bit word.  ``children_canon``
takes a connected parent on at most 9 and gives the sorted distinct forms of
the children whose canonical parent it is, by the canonical deletion rule of
the ``census`` docstring.  ``charpoly_mod`` gives characteristic
polynomials of int64 matrices modulo word-size primes only;
``exactalg.charpoly`` chooses the primes, reduces larger entries and lifts
the residues, whichever backend is active.  ``census_records`` builds a
chunk of census records in one call: for each bit form, a record of the
caller's tuple type with its graph6 canon, invariants, multiplicities read
off its charpoly, and no family tags; ``census`` tags its family graphs
itself.
``census_structure`` takes a record's graph6 canon and charpoly and gives
what the census-wide lemma checks compare the record with: from the graph,
twin predictions and mixed-star shape; from the charpoly, its inertia
triples at -1 and 0.  Both read a charpoly's inertia by a Taylor shift in
Python ints or, compiled, in ``__int128`` for coefficients below 2^63 in
absolute value, and run on one BFS helper in each backend.  Likewise
``canon_bits``, ``children_canon`` and ``census_structure`` read a graph's
twins from one helper in each backend, ``_kernels_py._twin_masks`` and the
compiled ``twin_masks``; the pure one's docstring argues that each twin
class is all adjacent or all non-adjacent.  ``format_store`` and
``parse_store`` are the census store codec; the pure pair is
``CensusRecord.to_line`` and ``from_line``, which the compiled pair falls
back on for every tagged record and every line outside its strict form,
which has an empty tag field.
"""

import os

if os.environ.get("ECCSPEC_KERNELS") == "py":
    from . import _kernels_py as _impl
else:
    try:
        from . import _kernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        from . import _kernels_py as _impl

BACKEND = _impl.BACKEND
UNREACHABLE = _impl.UNREACHABLE

all_pairs_dist = _impl.all_pairs_dist
canon_bits = _impl.canon_bits
children_canon = _impl.children_canon
census_records = _impl.census_records
census_structure = _impl.census_structure
charpoly_mod = _impl.charpoly_mod
format_store = _impl.format_store
parse_store = _impl.parse_store
