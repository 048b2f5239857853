"""Isomorph-free enumeration of connected graphs and bulk classification by
eccentricity-spectral invariants.

Enumeration is level-wise augmentation: every connected graph on n vertices
arises from a connected graph on n-1 vertices by attaching one new vertex to
a nonempty subset of the old ones (every connected graph has a non-cut
vertex).  Canonical forms are exact -- partition refinement plus
backtracking, never hash-probabilistic -- because the verification counts
are exact claims.  Each level is held as canonical bit forms (packed lower
triangles), which the kernels take as is.  Records are built a chunk at a
time: one ``kernels.census_records`` call turns a chunk of the sorted level
into its ``CensusRecord`` instances, graph6 canon, invariants and charpoly
included, on either backend, with no per-graph Python step.  The kernels
build every record untagged; ``_classify_chunk`` finds the family graphs of
``family_tag_map``, at most 14 per order, in the sorted chunk by bisection
and gives their records their family tags.

Isomorph rejection is canonical deletion (B. D. McKay, "Isomorph-free
exhaustive generation", J. Algorithms 26, 1998): ``kernels.children_canon``
returns, on both backends, only the children whose *canonical parent* is
the given parent, so each graph is produced once and a level is its
parents' lists concatenated and sorted, with no set of seen forms.  For a
vertex u of a graph of order at most 10, ``key(u) = deg(u) 2^40 + sum over
the neighbours w of u of 16^deg(w)``; every degree is at most 9 < 16, so
the sum stays below 2^40 and the key is exact.  The *deletion candidates*
of a connected graph are its non-cut vertices of least key; the canonical
deletion vertex w is the candidate labeled highest in the graph's
canonical form C, and C - w is its canonical parent.  A child G' of a
parent P, the new vertex v attached to S, is kept as follows.  v is never
a cut vertex, since G' - v is P.

- Rejected, with no labeling, if some non-cut u has key(u) < key(v).
- Otherwise G' is labeled, giving C.  If v is the only candidate, kept:
  w is then v's image, and C - w is isomorphic to P.
- Otherwise kept iff canon(C - w) == canon(P).

Each parent's kept forms are sorted and deduplicated: two subsets may give
one graph.  The rule is complete and duplicate-free.  Take a connected G'
of order n; it has a non-cut vertex, so it has candidates, and C - w is
connected.  Whether "C - w is isomorphic to P" holds depends only on the
isomorphism class of G', so of the level's parents, which are pairwise
non-isomorphic, at most one passes it, and only that one can keep G'.  That
one does: an isomorphism from P onto C - w, with v sent to w, makes G'
the child of P on the preimage of w's neighbours, whose new vertex has
w's key, the least, and passes either test.

``children_canon`` need not try all 2^m - 1 subsets of a parent on m
vertices.  Twins of the parent (u, v with N(u) - v = N(v) - u) form
equivalence classes, each all adjacent or all non-adjacent, as argued at
``_kernels_py._twin_masks``, which gives each vertex its twins
(``twin_masks`` in the compiled kernel); any permutation of a class is an
automorphism of the parent; it fixes the new vertex and maps the child
built on a subset S onto the child built on the permuted S, with the new
vertex in the same place.  So only the subsets that take each twin class
as a prefix (v in S implies u in S for twins u < v) are tried -- one
subset per orbit of these permutations -- and, as the tests above depend
only on the isomorphism class of the child with its new vertex marked, the
kept forms are unchanged.  This is isomorph rejection by parent
automorphisms, restricted to twin transpositions (O(m^2)).

The count of each level is checked at run time against
``connected_count(n)``, the number of connected graphs of order n (OEIS
A001349), computed from the cycle index of the symmetric group, not typed
in.

The persisted store is newline-delimited and greppable: one graph per line,
canonical graph6, TAB, CSV of invariants, TAB, the exact ascending
characteristic-polynomial coefficients.  ``CensusRecord.to_line`` and
``from_line`` define a line; ``write_store`` and ``read_store`` move records
in bounded batches through ``kernels.format_store`` and
``kernels.parse_store``.  The compiled pair formats untagged records and
parses untagged lines of the strict form ``to_line`` writes; it hands every
other record to ``to_line`` and every other line, a family graph's
included, to ``from_line``.  Records stream from enumeration into the
store, and a store is replaced only by a complete one: a partial store
would read back as a valid but smaller census.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from contextlib import suppress
from errno import EACCES
from itertools import islice
from math import factorial, gcd, prod
from secrets import token_hex
from stat import S_IMODE, S_ISREG
from typing import NamedTuple

from . import kernels
from .graphs import Graph, bits_to_graph6, theorem1_families

ENUMERATION_LIMIT = 10  # n=10 is best-effort (hours in pure-python mode)

#: records per ``write_store`` batch and bytes per ``read_store`` block,
#: about 0.3-1 MB each: a store is never held as one string
STORE_BATCH = 4096
STORE_BLOCK = 1 << 20


def canonical_form(g: Graph) -> str:
    """Canonical graph6 string: equal strings iff isomorphic graphs.
    Deterministic canonical labeling by iterated neighborhood refinement
    and backtracking over the remaining cell orderings, minimizing the
    adjacency bit string.  It labels census orders, 1 <= n <=
    ``ENUMERATION_LIMIT``; a larger graph raises ValueError."""
    return bits_to_graph6(g.n, canonical_bits(g))


def canonical_bits(g: Graph) -> int:
    return kernels.canon_bits(g.n, g.adj)


# ---------------------------------------------------------------------------
# enumeration

def connected_count(n):
    """The number of connected graphs of order n >= 1 (OEIS A001349).

    The graphs of order m, connected or not, are counted by Polya's theorem
    over the cycle types lambda of S_m: g(m) = sum of 2^c(lambda) / z_lambda,
    where c(lambda) = sum floor(lambda_i / 2) + sum over i < j of
    gcd(lambda_i, lambda_j) counts the orbits of a permutation of that type
    on vertex pairs and z_lambda = prod k^(m_k) m_k! is the centralizer
    order (F. Harary, E. M. Palmer, *Graphical Enumeration*, 1973).  A graph
    is a multiset of connected ones, so 1 + sum g(m) x^m = prod over k of
    (1 - x^k)^-c(k); the inverse Euler transform reads the connected counts
    c(k) off it."""
    if n < 1:
        raise ValueError("connected_count needs n >= 1")
    graphs = [1] + [_graph_count(m) for m in range(1, n + 1)]
    # the logarithmic derivative: m g(m) = sum over k of d(k) g(m - k), where
    # d(k) = sum of j c(j) over the divisors j of k
    d = [0] * (n + 1)
    conn = [0] * (n + 1)
    for m in range(1, n + 1):
        d[m] = m * graphs[m] - sum(d[k] * graphs[m - k] for k in range(1, m))
        conn[m] = (d[m] - sum(j * conn[j] for j in range(1, m)
                              if m % j == 0)) // m
    return conn[n]


def _graph_count(m):
    """The number of graphs of order m, connected or not: m! g(m) is the sum
    over the cycle types of S_m of the class size m! / z times 2^c."""
    total = 0
    for parts in _partitions(m, m):
        pairs = sum(p // 2 for p in parts) + sum(
            gcd(a, b) for i, a in enumerate(parts) for b in parts[i + 1:])
        z = prod(k ** parts.count(k) * factorial(parts.count(k))
                 for k in set(parts))
        total += (factorial(m) // z) << pairs
    return total // factorial(m)


def _partitions(m, top):
    """The partitions of m into parts of at most top, as tuples in
    non-increasing order."""
    if m == 0:
        yield ()
        return
    for first in range(min(m, top), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def _chunk_results(func, args, items, jobs):
    """func(args + (chunk,)) for contiguous chunks of items, in order, at most
    ``STORE_BATCH`` items and about four chunks per worker: mapped over a
    Pool of ``jobs`` workers, never more than ``os.cpu_count()``, or serially
    when that leaves one worker or there are fewer items than workers."""
    jobs = min(jobs, os.cpu_count() or 1)
    step = max(1, min(STORE_BATCH, -(-len(items) // (jobs * 4))))
    chunks = (args + (items[i:i + step],) for i in range(0, len(items), step))
    if jobs > 1 and len(items) >= jobs:
        # only a pooled run pays for importing multiprocessing
        from multiprocessing import Pool
        with Pool(jobs) as pool:
            yield from pool.imap(func, chunks)
    else:
        yield from map(func, chunks)


def _enum_chunk(args):
    """The forms ``children_canon`` gives for a chunk of parents, each
    parent's sorted list in turn."""
    n_parent, parents = args
    out = []
    for bits in parents:
        out += kernels.children_canon(n_parent, bits)
    return out


def _level_bits(n, jobs=1):
    """Sorted canonical bit forms of all connected graphs of order n, built
    level by level from K1; only the parent level is held.  Each graph comes
    from its one canonical parent, so a level is its parents' lists
    concatenated, then sorted."""
    if not 1 <= n <= ENUMERATION_LIMIT:
        raise ValueError(f"enumeration supports 1 <= n <= {ENUMERATION_LIMIT}")
    level = [0]
    for n_parent in range(1, n):
        children = []
        for part in _chunk_results(_enum_chunk, (n_parent,), level, jobs):
            children += part
        children.sort()
        level = children
    return level


# ---------------------------------------------------------------------------
# classification

class CensusRecord(NamedTuple):
    """Canonical key plus the exact spectral invariants of one graph.  A
    census builds one per graph, and a named tuple is several times cheaper
    to build than a frozen dataclass."""

    canon: str
    n: int
    diam: int
    v1_size: int
    mult_minus1: int
    mult_minus2: int
    mult_zero: int
    charpoly: tuple  # ascending integer coefficients, length n+1
    family_tags: tuple

    def to_line(self) -> str:
        inv = ",".join([
            str(self.n), str(self.diam), str(self.v1_size),
            str(self.mult_minus1), str(self.mult_minus2), str(self.mult_zero),
            ";".join(self.family_tags),
        ])
        poly = ",".join(map(str, self.charpoly))
        return f"{self.canon}\t{inv}\t{poly}"

    @classmethod
    def from_line(cls, line: str):
        """Parse one store line.  Raises ValueError unless the line has three
        tab-separated fields, seven invariant fields, a monic charpoly of
        length n+1 and a canon whose graph6 size byte and length fit n; these
        checks are O(1), the canon is not decoded."""
        parts = line.rstrip("\n").split("\t")
        try:
            canon, inv, poly = parts
        except ValueError:
            raise ValueError(f"{len(parts)} tab-separated fields, "
                             f"expected 3") from None
        fields = inv.split(",")
        if len(fields) != 7:
            raise ValueError(f"{len(fields)} invariant fields, expected 7")
        n = int(fields[0])
        coeffs = tuple(map(int, poly.split(",")))
        if len(coeffs) != n + 1 or coeffs[-1] != 1:
            raise ValueError(f"charpoly is not monic of degree n={n}")
        if canon[:1] != chr(n + 63) or \
                len(canon) != 1 + (n * (n - 1) // 2 + 5) // 6:
            raise ValueError(f"canon {canon!r} is not a graph6 string of "
                             f"order n={n}")
        return cls(canon, n, int(fields[1]), int(fields[2]), int(fields[3]),
                   int(fields[4]), int(fields[5]), coeffs,
                   tuple(filter(None, fields[6].split(";"))))


def _classify_chunk(args):
    """The records of a chunk of sorted bit forms, each family graph's with
    its tags from the tag map: the kernels build every record untagged."""
    n, tag_map, bits_list = args
    records = kernels.census_records(n, bits_list, CensusRecord)
    for bits, tags in tag_map.items():
        i = bisect_left(bits_list, bits)
        if i < len(bits_list) and bits_list[i] == bits:
            records[i] = records[i]._replace(family_tags=tags)
    return records


def family_tag_map(n):
    """canonical bits -> sorted tag names of the multiplicity-family graphs
    of order n."""
    tags = {}
    for name, g in theorem1_families(n):
        bits = kernels.canon_bits(g.n, g.adj)
        tags.setdefault(bits, set()).add(name)
    return {bits: tuple(sorted(names)) for bits, names in tags.items()}


def iter_records(n, jobs=1):
    """``classify(n)``'s records, built and yielded ``STORE_BATCH`` at a time.
    An enumeration whose graph count is not ``connected_count(n)`` raises
    RuntimeError before any record is built."""
    level = _level_bits(n, jobs)
    expected = connected_count(n)
    if len(level) != expected:
        raise RuntimeError(f"census n={n} enumerated {len(level)} connected "
                           f"graphs, expected {expected} (A001349)")
    # bits order is canon order: fixed-n graph6 reads the bits big-endian,
    # so the contiguous chunks of the sorted level come back sorted
    for part in _chunk_results(_classify_chunk, (n, family_tag_map(n)),
                               level, jobs):
        yield from part


def classify(n, store_path=None, jobs=1):
    """One CensusRecord per connected graph of order n, sorted by canonical
    form (``iter_records`` as a list); optionally persisted (idempotent:
    re-runs write identical bytes).  Every call enumerates and classifies
    from scratch.  With a store path the records stream into
    ``write_store``, kept as they pass, so an unwritable path fails before
    any work and a failed run leaves an existing store as it was."""
    if store_path is None:
        return list(iter_records(n, jobs))
    records = []
    write_store(_kept(iter_records(n, jobs), records), store_path)
    return records


def _kept(records, kept):
    """The records, each appended to ``kept`` as it passes."""
    for rec in records:
        kept.append(rec)
        yield rec


def _unwritable(path, exc):
    return OSError(f"cannot write census store {path}: "
                   f"{exc.strerror or exc}")


def write_store(records, path):
    """Write the records as a census store, one ``to_line()`` each.  Batches
    of ``STORE_BATCH`` records are formatted by ``kernels.format_store``:
    the compiled writer formats an untagged census record itself and hands
    any other record, a family graph's included, to its ``to_line``.

    The store is complete or untouched.  Before the first record is drawn,
    a path that exists but is not a regular file, or is not writable, is
    refused, and a temporary file is created in the directory of the file
    the path resolves to (symlinks are followed, so a link stays a link).
    Only after the last batch does that file replace the store; on any
    exception, ``KeyboardInterrupt`` included, it is removed and a
    generator of records is closed, so a pooled ``iter_records`` stops its
    workers.  A new store gets the mode ``open(path, "wb")`` would give it,
    a replaced one keeps its mode.  Nothing is fsynced: the replacement is
    atomic against a crash of the process, not of the machine."""
    target = os.path.realpath(path)
    head, tail = os.path.split(target)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.{token_hex(4)}.tmp")
    try:
        mode = _replaced_mode(target)
        fh = open(tmp, "xb")
    except OSError as exc:
        raise _unwritable(path, exc) from exc
    batches = iter(records)
    try:
        with fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
            while batch := list(islice(batches, STORE_BATCH)):
                fh.write(kernels.format_store(batch, CensusRecord))
        os.replace(tmp, target)
    except BaseException as exc:
        with suppress(OSError):
            os.unlink(tmp)
        if hasattr(batches, "close"):
            batches.close()
        if isinstance(exc, OSError):
            raise _unwritable(path, exc) from exc
        raise


def _replaced_mode(target):
    """The permission bits of an existing store, None when there is none.
    Raises OSError when target is not a regular file or not writable."""
    try:
        st = os.stat(target)
    except FileNotFoundError:
        return None
    if not S_ISREG(st.st_mode):
        raise OSError("not a regular file")
    if not os.access(target, os.W_OK):
        raise PermissionError(EACCES, os.strerror(EACCES))
    return S_IMODE(st.st_mode)


def read_store(path):
    """Records of a census store; a malformed line raises ValueError naming
    the path and its 1-based line number.  Blocks of about ``STORE_BLOCK``
    bytes, cut after a newline, go to ``kernels.parse_store``.  The compiled
    parser accepts only the strict form ``to_line`` writes for an untagged
    record: ASCII, ``\\n`` line ends, canonical decimal ints, census orders
    n <= 10, an empty tag field, and ``from_line``'s O(1) checks.  It hands
    every other line back, a family graph's included, and
    ``from_line`` parses it; blank lines are skipped.  So records and errors
    are ``from_line``'s on either backend."""
    records = []
    lineno = 0
    try:
        with open(path, "rb") as fh:
            tail = b""
            while True:
                chunk = fh.read(STORE_BLOCK)
                block = tail + chunk
                # the last block is what follows the last newline
                cut = block.rfind(b"\n") + 1 if chunk else len(block)
                block, tail = block[:cut], block[cut:]
                items, handed = kernels.parse_store(block, CensusRecord)
                for i in handed:
                    items[i] = _parse_line(path, lineno + i + 1, items[i])
                records.extend(filter(None, items) if handed else items)
                lineno += len(items)
                if not chunk:
                    return records
    except OSError as exc:
        raise OSError(f"cannot read census store {path}: {exc}") from exc


def _parse_line(path, lineno, raw):
    """The record of a raw store line, None for a blank one."""
    try:
        line = raw.decode("ascii")
        return CensusRecord.from_line(line) if line.strip() else None
    except (ValueError, IndexError) as exc:
        raise ValueError(f"malformed census store {path}, line "
                         f"{lineno}: {exc}") from exc


# ---------------------------------------------------------------------------
# queries

def cospectral_mates(records, target: CensusRecord):
    """Records sharing the target's exact characteristic polynomial but not
    its canonical form (witnesses against spectral determination)."""
    return [r for r in records
            if r.charpoly == target.charpoly and r.canon != target.canon]
