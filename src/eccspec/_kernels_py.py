"""Pure-Python kernels: BFS distances, canonical labeling, census records
and structure, characteristic polynomials, the census store codec, and the
graph6 codec.

This module is the reference implementation of the BFS and canonical-labeling
kernels.  The compiled extension ``eccspec._kernels`` implements the same
functions with the same semantics; ``eccspec.kernels`` picks whichever is
importable, and ``__all__`` names the functions and constants both export.
``census_records`` here builds each record from the Berkowitz characteristic
polynomial from ``exactalg``, reads each multiplicity off it with
``root_multiplicity``, and takes the largest-distance matrix from
``ecc_rows``, the one Python definition of that rule (``ecc_matrix`` uses it
too; its docstring proves it equal to the min-eccentricity form of the
compiled ``min_rule_entry``, and the test suite checks ``ecc_matrix``
against that form on distances from an independent all-pairs algorithm);
``charpoly_mod`` is ``exactalg.berkowitz_charpoly`` reduced modulo each
modulus, for entries within int64.  The compiled charpolys come from a
different algorithm, a reduction to Hessenberg form modulo each prime, so
the parity tests check two algorithms against each other, not two copies.
``census_structure`` gives what the census-wide lemma checks derive
independently of a record's multiplicities, from its graph6 canon and
charpoly: from the graph, the twin-class predictions and the mixed-star
shape; from the charpoly, its inertia at -1 and 0 by
``exactalg.charpoly_inertia``, the one Python definition, which the
compiled kernel reimplements in ``__int128``.  It shares
``_census_metrics``, the BFS and eccentricities, with ``census_records``,
as the compiled pair shares ``census_metrics``.  ``bits_to_graph6`` and
``graph6_bits`` are the one Python graph6 codec, which ``graphs``
re-exports and which the compiled kernels reimplement at the census orders
with the same checks and messages; ``lower_triangle_rows`` is the one
unpacker of the packed lower-triangle bit order, which
``graphs.graph6_decode`` shares; ``_twin_masks`` is the one twin test,
which canonical labeling, ``children_canon`` and ``twin_predictions`` read
and whose docstring argues that twin classes are of one kind;
``twin_predictions`` and ``mixed_star_shape`` are the one definition of
those, and ``eccentricity`` shares ``twin_predictions``.  The store codec,
``format_store`` and ``parse_store``, is ``CensusRecord.to_line`` and
``from_line`` themselves: the writer joins each record's ``to_line()`` and
the parser hands every line back, so that ``census`` parses it with
``from_line``; the compiled codec does the same for tagged records and for
lines outside its strict form, tagged lines included, and formats and
parses the untagged rest in C.  Every graph kernel checks its order range,
and its rows, bit form or graph6 string, with the compiled one's limits
and messages, and works on adjacency *bitsets*: a
graph on n vertices is a sequence ``adj`` of n ints where bit j of
``adj[i]`` is set iff ij is an edge.  The census kernels take the packed
lower triangle or the graph6 string instead, which no asymmetric graph
has.  Every graph kernel but ``all_pairs_dist`` (at most 64 vertices) takes
only census orders, at most 10 vertices (9 for a ``children_canon``
parent), so every canonical or packed form is one 64-bit word.

``children_canon`` follows the canonical deletion rule that the ``census``
docstring states and argues, with the same keys, cut-vertex tests and
tie-break as the compiled kernel, so both return the same list.

Canonical labeling is iterated neighborhood partition refinement followed by
backtracking over the remaining cell orderings, minimizing the packed
lower-triangle adjacency bit string.  Two sound prunings keep symmetric inputs
tractable: twin candidates (``_twin_masks``) collapse to a single branch,
and frontier states that agree on the remaining vertices and their
placed-adjacency histories are merged.
"""

import io
from operator import index

from .exactalg import (
    IntMatrix,
    IntPolynomial,
    berkowitz_charpoly,
    charpoly_inertia,
    root_multiplicity,
)

__all__ = [
    "BACKEND", "UNREACHABLE", "all_pairs_dist", "canon_bits", "census_records",
    "census_structure", "charpoly_mod", "children_canon", "format_store",
    "parse_store",
]

BACKEND = "pure-python"

_STATE_CAP = 500_000
_MAXN_CENSUS = 10
_MAXN_DIST = 64
_MODULUS_TOP = 1 << 56  # the compiled recurrence's Montgomery word bound
_WORD_TOP = 1 << 63  # int64: charpoly_mod entries, Taylor shift coefficients
_ROW_BITS = 64  # placed-adjacency rows are kept left-aligned in a 64-bit word

UNREACHABLE = -1


def _check_order(what, n, maxn):
    if not 1 <= n <= maxn:
        raise ValueError(f"{what} supports 1 <= n <= {maxn}")


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _dist_row(n, adj, src):
    """Distances from src; UNREACHABLE for vertices in other components."""
    dist = [UNREACHABLE] * n
    dist[src] = 0
    seen = 1 << src
    frontier = seen
    d = 0
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= adj[v]
        nxt &= ~seen
        d += 1
        for v in _bits(nxt):
            dist[v] = d
        seen |= nxt
        frontier = nxt
    return dist


def _check_rows(n, adj):
    """ValueError, as the compiled kernels raise it, unless adj[0..n-1] are
    bitsets over 0..n-1: a negative row names vertices >= n too."""
    for i in range(n):
        if adj[i] < 0 or adj[i] >> n:
            raise ValueError(f"adjacency row {i} references vertices >= {n}")


def all_pairs_dist(n, adj):
    """n x n hop-distance matrix as a list of rows (UNREACHABLE sentinel)."""
    _check_order("all_pairs_dist", n, _MAXN_DIST)
    _check_rows(n, adj)
    return [_dist_row(n, adj, v) for v in range(n)]


def _wl_colors(n, adj):
    """Canonically ranked neighborhood-refinement color classes.

    Signatures are (own color, neighbor-color count vector); ranks are dense
    and stable under isomorphism.  Each signature is packed into one int key,
    4 bits per field with the own color on top, as in the compiled kernel:
    every field is below 16 for n <= 10, so numeric order of the keys is the
    lexicographic order of the signatures and the ranks, hence the canonical
    forms, are backend-independent.
    """
    colors = [0] * n
    ncol = 1
    while ncol < n:
        weight = [1 << (4 * (ncol - 1 - c)) for c in colors]
        keys = []
        for v in range(n):
            key = colors[v] << (4 * ncol)
            for u in _bits(adj[v]):
                key += weight[u]
            keys.append(key)
        rank = {k: i for i, k in enumerate(sorted(set(keys)))}
        new = [rank[k] for k in keys]
        if new == colors:
            break
        colors = new
        ncol = len(rank)
    return colors


def _twin_masks(n, adj):
    """The twins of each vertex, as bitsets: entry v is the set of u != v
    with equal neighborhoods apart from each other, N(u) - v = N(v) - u.
    Adjacent twins have equal closed neighborhoods (co-duplicates),
    non-adjacent ones equal open neighborhoods (duplicates); either way the
    transposition (u v) is an automorphism fixing every other vertex.

    Twinhood is an equivalence relation, and each class is of one kind.
    For distinct u ~ v ~ w with uv a non-edge and vw an edge, w is in
    N(v) = N(u), so u is in N[w] = N[v], a contradiction; so both pairs are
    of one kind, and equality of open, or of closed, neighborhoods is
    transitive.  Hence a class of k vertices gives each of them a mask of
    k - 1 bits, and it is closed iff ``adj[v] & mask[v]`` at any member v.
    """
    masks = [0] * n
    for v in range(1, n):
        for u in range(v):
            if (adj[u] & ~(1 << v)) == (adj[v] & ~(1 << u)):
                masks[u] |= 1 << v
                masks[v] |= 1 << u
    return masks


def canon_bits(n, adj):
    """Canonical form of the graph, packed as an int of n(n-1)/2 bits.

    The bit string is the lower triangle row by row (equivalently the graph6
    data bit order), minimized over all vertex orderings consistent with the
    refined color classes.  Equal results iff the graphs are isomorphic.
    The graph is one the census holds, 1 <= n <= 10, so the form is one
    64-bit word of at most 45 bits.
    """
    _check_order("canonical labeling", n, _MAXN_CENSUS)
    _check_rows(n, adj)
    if n == 1:
        return 0
    colors = _wl_colors(n, adj)
    twin = _twin_masks(n, adj)
    block = sorted(colors)  # color of each position
    full = (1 << n) - 1
    # state: (remaining-vertex mask, per-vertex placed-adjacency rows)
    states = [(full, (0,) * n)]
    out = 0
    for k in range(n):
        col = block[k]
        shift = _ROW_BITS - 1 - k
        best = None
        chosen = []
        for si, (rem, rows) in enumerate(states):
            kept = 0
            for v in _bits(rem):
                if colors[v] != col or twin[v] & kept:
                    continue
                kept |= 1 << v
                r = rows[v]
                if best is None or r < best:
                    best = r
                    chosen = [(si, v)]
                elif r == best:
                    chosen.append((si, v))
        if k:
            out = (out << k) | (best >> (_ROW_BITS - k))
        merged = {}
        for si, v in chosen:
            rem, rows = states[si]
            rem2 = rem & ~(1 << v)
            av = adj[v]
            rows2 = tuple(
                (rows[u] | (((av >> u) & 1) << shift)) if (rem2 >> u) & 1 else 0
                for u in range(n)
            )
            merged[(rem2, rows2)] = None
        states = list(merged)
        if len(states) > _STATE_CAP:
            raise RuntimeError("canonical labeling state explosion")
    return out


def children_canon(n, bits):
    """The sorted distinct canonical forms of those one-vertex extensions of
    the connected graph on 1 <= n <= 9 vertices whose packed lower triangle
    is ``bits`` that have it as their canonical parent: the new vertex n
    attached to a nonempty subset S of 0..n-1.  ValueError on a
    disconnected graph.

    Only subsets closed downward in each twin class of the parent
    (``_twin_masks``) are tried: v in S implies u in S for twins u < v.
    Any permutation of a twin class is a parent automorphism fixing the
    new vertex, which carries every other subset onto a tried one, so
    every skipped child is isomorphic to a tried one with its new vertex
    in the same place.  A tried child is kept by the canonical deletion
    rule of the ``census`` docstring: rejected unlabeled if a non-cut
    vertex has a smaller ``_deletion_keys`` key than the new vertex; kept
    if the new vertex is the only deletion candidate; otherwise kept iff
    its canonical form less the candidate labeled highest is isomorphic to
    the parent.
    """
    adj = _bits_to_adj("children_canon", n, bits, _MAXN_CENSUS - 1)
    if UNREACHABLE in _dist_row(n, adj, 0):
        raise ValueError("children_canon requires a connected graph")
    lower = [m & ((1 << v) - 1) for v, m in enumerate(_twin_masks(n, adj))]
    parent = canon_bits(n, adj)
    forms = set()
    for sub in range(1, 1 << n):
        need = 0
        for v in _bits(sub):
            need |= lower[v]
        if need & ~sub:
            continue
        cadj = [adj[v] | (((sub >> v) & 1) << n) for v in range(n)]
        cadj.append(sub)
        key = _deletion_keys(n + 1, cadj)
        kv = key[n]
        ties = _deletion_ties(n + 1, cadj, key, kv)
        if not ties:
            continue
        form = canon_bits(n + 1, cadj)
        if ties != 1 << n:
            rows = lower_triangle_rows(n + 1, form)
            key = _deletion_keys(n + 1, rows)
            w = _deletion_ties(n + 1, rows, key, kv).bit_length() - 1
            if canon_bits(n, _delete_vertex(rows, w)) != parent:
                continue
        forms.add(form)
    return sorted(forms)


def _deletion_keys(n, adj):
    """The canonical deletion key of each vertex u of a graph on at most 10
    vertices: deg(u) 2^40 plus 16^deg(w) for each neighbour w.  A degree is
    at most 9 < 16, so the sum is below 9 * 16^9 < 2^40: keys order the
    vertices by degree, then by the multiset of their neighbours'
    degrees."""
    deg = [adj[u].bit_count() for u in range(n)]
    return [(deg[u] << 40) + sum(1 << 4 * deg[w] for w in _bits(adj[u]))
            for u in range(n)]


def _is_cut_vertex(n, adj, u):
    """Whether removing u disconnects the connected graph on n >= 2
    vertices."""
    rest = ((1 << n) - 1) & ~(1 << u)
    seen = frontier = rest & -rest
    while frontier:
        nxt = 0
        for x in _bits(frontier):
            nxt |= adj[x]
        frontier = nxt & rest & ~seen
        seen |= frontier
    return seen != rest


def _deletion_ties(n, adj, key, kmin):
    """The mask of the non-cut vertices keyed ``kmin`` in the connected graph
    on n >= 2 vertices whose keys are ``key``, or 0 if a non-cut vertex is
    keyed below ``kmin``.  When some non-cut vertex is keyed ``kmin``, a
    nonzero mask is the deletion candidates: the non-cut vertices of least
    key.  Only vertices keyed at most ``kmin`` are tested for cuts."""
    ties = 0
    for u in range(n):
        if key[u] <= kmin and not _is_cut_vertex(n, adj, u):
            if key[u] < kmin:
                return 0
            ties |= 1 << u
    return ties


def _delete_vertex(adj, w):
    """Adjacency rows without vertex w, the vertices above w moved down by
    one."""
    low = (1 << w) - 1
    return [(row & low) | ((row >> 1) & ~low)
            for u, row in enumerate(adj) if u != w]


def _bits_to_adj(what, n, bits, maxn):
    """Adjacency rows of the graph on 1 <= n <= maxn vertices whose packed
    lower triangle is ``bits``; TypeError unless ``bits`` is an int."""
    _check_order(what, n, maxn)
    if not isinstance(bits, int):
        raise TypeError(f"{what} needs an int bit form")
    if bits < 0 or bits >> (n * (n - 1) // 2):
        raise ValueError(f"bit form out of range for n={n}")
    return lower_triangle_rows(n, bits)


def lower_triangle_rows(n, bits):
    """Adjacency rows from a packed lower triangle, for any order: column by
    column, row 0 first, the first pair in the most significant bit.  The
    caller checks that ``bits`` has at most n(n-1)/2 bits."""
    idx = n * (n - 1) // 2
    rows = [0] * n
    for col in range(1, n):
        for row in range(col):
            idx -= 1
            if (bits >> idx) & 1:
                rows[row] |= 1 << col
                rows[col] |= 1 << row
    return rows


# ---------------------------------------------------------------------------
# graph6 codec (n <= 62, single-byte size header)

def bits_to_graph6(n, bits) -> str:
    """graph6 string of a packed lower-triangle bit form (the canonical bit
    order and the graph6 data bit order coincide)."""
    nbits = n * (n - 1) // 2
    pad = (-nbits) % 6
    val = bits << pad
    groups = (nbits + 5) // 6
    chars = [chr(n + 63)]
    for i in range(groups - 1, -1, -1):
        chars.append(chr(((val >> (6 * i)) & 63) + 63))
    return "".join(chars)


_GRAPH6_BYTES = bytes(range(63, 127))


def graph6_bits(data):
    """(n, packed lower-triangle bits) of a graph6 string, the inverse of
    ``bits_to_graph6``.  Accepts str or bytes, an optional ``>>graph6<<``
    header and trailing newlines; raises TypeError on any other type and
    ValueError on a bad byte (a non-ASCII character included), size header,
    length or nonzero padding."""
    if isinstance(data, str):
        if not data.isascii():
            raise ValueError("graph6 byte outside 63..126")
        data = data.encode("ascii")
    elif not isinstance(data, bytes):
        raise TypeError("graph6 data must be str or bytes")
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    data = data.rstrip(b"\n")
    if not data:
        raise ValueError("empty graph6 string")
    if data.translate(None, _GRAPH6_BYTES):
        raise ValueError("graph6 byte outside 63..126")
    n = data[0] - 63
    if n > 62:
        raise ValueError("graph6 multi-byte headers (n > 62) not supported")
    if n < 1:
        raise ValueError("graph6 order must be >= 1")
    nbits = n * (n - 1) // 2
    expected = 1 + (nbits + 5) // 6
    if len(data) != expected:
        raise ValueError(f"graph6 length {len(data)} != expected {expected} for n={n}")
    val = 0
    for byte in data[1:]:
        val = (val << 6) | (byte - 63)
    pad = (-nbits) % 6
    if val & ((1 << pad) - 1):
        raise ValueError("nonzero padding bits in graph6 data")
    return n, val >> pad


def ecc_rows(dist, ecc):
    """Rows of the largest-distance matrix of a connected graph, from its
    distance rows and eccentricities: entry d(u,v) iff d(u,v) equals
    min(ecc(u), ecc(v)), else 0.  As d(u,v) never exceeds either
    eccentricity, that is d(u,v) equal to ecc(u) or to ecc(v)."""
    return tuple([tuple([d if d == eu or d == ev else 0
                         for d, ev in zip(row, ecc)])
                  for row, eu in zip(dist, ecc)])


def _census_metrics(what, n, bits):
    """Adjacency rows, distances and eccentricities of the connected graph
    with bit form ``bits``, 1 <= n <= 10, the BFS ``census_records`` and
    ``census_structure`` share; ValueError naming ``what`` if disconnected."""
    adj = _bits_to_adj(what, n, bits, _MAXN_CENSUS)
    dist = [_dist_row(n, adj, v) for v in range(n)]
    if any(UNREACHABLE in row for row in dist):
        raise ValueError(f"{what} requires a connected graph")
    return adj, dist, [max(row) for row in dist]


def census_records(n, forms, record_type):
    """One ``record_type`` instance per bit form of a connected graph on n
    vertices, in order: (graph6 canon, n, diam, |V1|, m(-1), m(-2), m(0),
    charpoly coeffs ascending, ()); no record has family tags, which
    ``census`` adds to its family graphs itself.

    The charpoly cp of the largest-distance matrix E is Berkowitz's, over Z
    (the compiled kernel reduces E to Hessenberg form modulo one prime
    instead), and m(c) is ``root_multiplicity(cp, c)``, the nullity of the
    symmetric E - cI.  Each record is built as ``tuple.__new__`` builds it,
    so a ``record_type`` whose own constructor differs gets the same record
    as from the compiled kernel.  Raises TypeError unless ``record_type`` is
    a tuple subclass, ValueError on an order outside 1..10, and what
    ``_census_metrics`` raises on a form.
    """
    if not (isinstance(record_type, type) and issubclass(record_type, tuple)):
        raise TypeError("census_records needs a tuple subclass as record type")
    _check_order("census_records", n, _MAXN_CENSUS)
    out = []
    for bits in forms:
        _, dist, ecc = _census_metrics("census_records", n, bits)
        cp = berkowitz_charpoly(IntMatrix._trusted(ecc_rows(dist, ecc)))
        out.append(tuple.__new__(record_type, (
            bits_to_graph6(n, bits), n, max(ecc), ecc.count(1),
            *(root_multiplicity(cp, c) for c in (-1, -2, 0)), cp.coeffs,
            ())))
    return out


def census_structure(g6, coeffs):
    """(twin predictions, star shape, inertia at -1, at 0) of the connected
    graph with graph6 string ``g6``, a record's canon, and its monic
    ascending charpoly ``coeffs``: the facts the census-wide lemma checks
    compare with a record.

    The twin predictions are ``twin_predictions`` and the star shape
    ``mixed_star_shape``.  Each inertia is the (n_plus, n_zero, n_minus)
    tuple of ``charpoly_inertia``.  Raises what ``graph6_bits`` raises on
    ``g6``; ValueError on an order above 10 or a disconnected graph, as
    ``census_records`` does, or on a count other than n + 1 or a non-monic
    ``coeffs``; and OverflowError on a coefficient of 2^63 or more in
    absolute value, the compiled kernel's bound.
    """
    n, bits = graph6_bits(g6)
    adj, _, ecc = _census_metrics("census_structure", n, bits)
    coeffs = [index(a) for a in coeffs]
    if len(coeffs) != n + 1:
        raise ValueError("census_structure needs n + 1 charpoly coefficients")
    if not all(-_WORD_TOP < a < _WORD_TOP for a in coeffs):
        raise OverflowError("census_structure needs charpoly coefficients "
                            "below 2^63 in absolute value")
    if coeffs[n] != 1:
        raise ValueError("census_structure needs a monic charpoly")
    cp = IntPolynomial(coeffs)
    return (twin_predictions(adj, ecc), mixed_star_shape(n, adj),
            *(tuple(charpoly_inertia(cp, c)) for c in (-1, 0)))


def twin_predictions(adj, ecc):
    """(xi, lower) int pairs, one per class of k >= 2 twins
    (``_twin_masks``), in order of least vertex: the class forces
    multiplicity >= k-1 at the eigenvalue xi, which its kind and common
    eccentricity determine: -2 for duplicates (equal open neighborhoods)
    of eccentricity 2, -1 for co-duplicates (equal closed neighborhoods)
    of eccentricity 1, else 0."""
    out = []
    for v, twins in enumerate(_twin_masks(len(adj), adj)):
        if twins and not twins & ((1 << v) - 1):
            if adj[v] & twins:
                xi = -1 if ecc[v] == 1 else 0
            else:
                xi = -2 if ecc[v] == 2 else 0
            out.append((xi, twins.bit_count()))
    return out


def mixed_star_shape(n, adj):
    """Whether the graph is a star mixed extension: a nonempty clique of
    universal vertices joined onto pairwise non-adjacent cells that are
    cliques or independent vertices.  Equivalently, it has a universal
    vertex, n >= 2, and every component of the non-universal remainder is a
    clique: each remainder vertex shares its closed neighborhood within the
    remainder with every remainder neighbor."""
    full = (1 << n) - 1
    rest = 0
    for v, row in enumerate(adj):
        if row | (1 << v) != full:
            rest |= 1 << v
    if rest == full or n == 1:
        return False
    for v in range(n):
        if rest >> v & 1:
            cell = (adj[v] | 1 << v) & rest
            for u in range(n):
                if cell >> u & 1 and (adj[u] | 1 << u) & rest != cell:
                    return False
    return True


def charpoly_mod(rows, moduli):
    """Ascending coefficients of det(xI - M) modulo each prime
    3 <= p < 2^56, as residues in 0..p-1, one tuple per modulus, for the
    square integer matrix M with these rows (any order, symmetric or not;
    OverflowError on an entry outside int64).  Berkowitz is division-free,
    so this is exact at a composite odd modulus too, where the compiled
    kernel may raise ValueError instead."""
    moduli = tuple(moduli)
    if not all(isinstance(p, int) and 3 <= p < _MODULUS_TOP and p & 1
               for p in moduli):
        raise ValueError("charpoly_mod needs odd int moduli 3 <= p < 2^56")
    m = IntMatrix(rows)
    if not all(-_WORD_TOP <= x < _WORD_TOP for row in m.rows for x in row):
        raise OverflowError("charpoly_mod needs entries within int64")
    coeffs = berkowitz_charpoly(m).coeffs
    return tuple(tuple(c % p for c in coeffs) for p in moduli)


def format_store(records, record_type):
    """Census store text of the records, each line ended by a newline, as
    ASCII bytes: every record's own ``to_line()``.  ``record_type`` is the
    type the compiled writer formats itself."""
    return "".join([rec.to_line() + "\n" for rec in records]).encode("ascii")


def parse_store(data, record_type):
    """(items, handed_back) for a block of census store bytes: one item per
    line split at b"\\n" (the last line may lack it), each the line's raw
    bytes, and the indices of all of them: every line goes to
    ``CensusRecord.from_line``.  The compiled parser turns the lines in its
    strict form into ``record_type`` instances itself."""
    if not (isinstance(record_type, type) and issubclass(record_type, tuple)):
        raise TypeError("parse_store needs a tuple subclass as record type")
    lines = io.BytesIO(data).readlines()
    return lines, list(range(len(lines)))
