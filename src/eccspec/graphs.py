"""Immutable simple graphs with bitset adjacency, metric data, and builders.

Vertices are dense indices 0..n-1 with n <= 64 so each neighborhood fits one
machine word.  Graphs are immutable after construction; every builder returns
a fresh Graph, which makes them safe to share across census workers.

Named constructions follow a fixed vertex order (clique block first, then the
joined part in the documented order of its builder) so golden matrices in
tests are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernels
from ._kernels_py import bits_to_graph6, graph6_bits, lower_triangle_rows

MAX_VERTICES = 64

UNREACHABLE = kernels.UNREACHABLE


class Graph:
    """Simple undirected graph; ``adj[v]`` is the neighbor bitset of v."""

    __slots__ = ("n", "adj")

    def __init__(self, n, edges=()):
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", tuple(rows))

    @classmethod
    def from_adj(cls, rows):
        g = cls.__new__(cls)
        n = len(rows)
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        for v, row in enumerate(rows):
            if (row >> v) & 1:
                raise ValueError(f"self-loop at vertex {v}")
            if row >> n:
                raise ValueError(f"adjacency row {v} references vertices >= {n}")
        for u in range(n):
            for v in range(u + 1, n):
                if ((rows[u] >> v) & 1) != ((rows[v] >> u) & 1):
                    raise ValueError(f"asymmetric adjacency at ({u},{v})")
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", tuple(rows))
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def has_edge(self, u, v):
        return (self.adj[u] >> v) & 1 == 1

    def degree(self, v):
        return bin(self.adj[v]).count("1")

    def edges(self):
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n)
                if self.has_edge(u, v)]

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self):
        return hash(self.adj)

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"


@dataclass(frozen=True)
class Metrics:
    """All-pairs distances, eccentricities and diameter.

    On disconnected graphs every unreachable distance, each affected
    eccentricity, and the diameter carry the UNREACHABLE sentinel (-1);
    metric consumers must check connectivity first.
    """

    dist: tuple
    ecc: tuple
    diam: int


def is_connected(g: Graph) -> bool:
    return UNREACHABLE not in kernels.all_pairs_dist(g.n, g.adj)[0]


def bfs_metrics(g: Graph) -> Metrics:
    """Breadth-first metric data; tolerates disconnected input via sentinels."""
    dist = kernels.all_pairs_dist(g.n, g.adj)
    if any(UNREACHABLE in row for row in dist):
        ecc = tuple(UNREACHABLE for _ in range(g.n))
        return Metrics(tuple(map(tuple, dist)), ecc, UNREACHABLE)
    ecc = tuple(max(row) for row in dist)
    return Metrics(tuple(map(tuple, dist)), ecc, max(ecc))


# ---------------------------------------------------------------------------
# builders

def empty_graph(n):
    return Graph(n)


# The builders hand Graph generators of edges: it rejects an order above
# MAX_VERTICES before it draws any, so an oversize request fails at once.

def complete(n):
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def path(n):
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n):
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def disjoint_union(g: Graph, h: Graph) -> Graph:
    rows = list(g.adj) + [row << g.n for row in h.adj]
    return Graph.from_adj(rows)


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two vertex sets."""
    n = g.n + h.n
    g_mask = (1 << g.n) - 1
    h_mask = ((1 << n) - 1) ^ g_mask
    rows = [row | h_mask for row in g.adj]
    rows += [(hrow << g.n) | g_mask for hrow in h.adj]
    return Graph.from_adj(rows)


def complete_multipartite(parts):
    """Complete multipartite graph; vertices grouped part by part in order."""
    parts = list(parts)
    if len(parts) < 2:
        raise ValueError("need at least 2 parts")
    if any(p < 1 for p in parts):
        raise ValueError("part sizes must be positive")
    n = sum(parts)
    bounds = []
    start = 0
    for p in parts:
        bounds.append((start, start + p))
        start += p
    return Graph(n, ((u, v) for i, (a0, a1) in enumerate(bounds)
                     for b0, b1 in bounds[i + 1:]
                     for u in range(a0, a1) for v in range(b0, b1)))


def mixed_extension_star(t0, p, ts):
    """Star with its center blown up to a clique K_t0 joined to every other
    cell, one independent cell of size p, and clique cells of the given sizes;
    non-center cells are pairwise non-adjacent.

    Vertex order: center clique, then the independent cell, then the clique
    cells in the given order.
    """
    ts = list(ts)
    if t0 < 1:
        raise ValueError("center clique size must be >= 1")
    if p < 0:
        raise ValueError("independent cell size must be >= 0")
    if any(t < 2 for t in ts):
        raise ValueError("clique cell sizes must be >= 2")
    center = complete(t0)
    tail_cells = []
    if p > 0:
        tail_cells.append(empty_graph(p))
    tail_cells.extend(complete(t) for t in ts)
    if not tail_cells:
        return center
    tail = tail_cells[0]
    for cell in tail_cells[1:]:
        tail = disjoint_union(tail, cell)
    return join(center, tail)


def bull():
    """Triangle 0,1,2 with pendant vertices 3 at 1 and 4 at 2."""
    return Graph(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)])


# Small graphs that appear joined to a clique in the multiplicity families.
# Each builder fixes the vertex order used by the canonical family graphs.
H_DESCRIPTORS = {
    "2K1": lambda: empty_graph(2),
    "3K1": lambda: empty_graph(3),
    "4K1": lambda: empty_graph(4),
    "5K1": lambda: empty_graph(5),
    "K2uK1": lambda: disjoint_union(complete(2), empty_graph(1)),
    "2K1uK2": lambda: disjoint_union(empty_graph(2), complete(2)),
    "P3uK1": lambda: disjoint_union(path(3), empty_graph(1)),
    "2K2": lambda: disjoint_union(complete(2), complete(2)),
    "P4": lambda: path(4),
    "K3uK1": lambda: disjoint_union(complete(3), empty_graph(1)),
    "C4": lambda: cycle(4),
    "C5": lambda: cycle(5),
    "K1uP4": lambda: disjoint_union(empty_graph(1), path(4)),
    "H1": bull,
}

# The clique joins K_{n-k} v H of the m(-1) = n-i characterization, as
# i -> its (k, H) pairs in catalog order; H names an H_DESCRIPTORS entry on k
# vertices.  No connected graph has m(-1) = n-2, and the classes for i = 1
# and i = 3 also hold K_n and P4, which are not joins.
CLIQUE_JOINS = {
    3: ((2, "2K1"),),
    4: ((3, "K2uK1"), (3, "3K1")),
    5: ((4, "4K1"), (4, "2K1uK2"), (4, "P3uK1"), (4, "2K2"), (4, "P4"),
        (4, "K3uK1"), (4, "C4"), (5, "C5"), (5, "K1uP4"), (5, "H1")),
}


def join_clique_with(r, descriptor):
    """K_r joined with the named small graph (clique vertices first)."""
    if descriptor not in H_DESCRIPTORS:
        raise ValueError(f"unknown descriptor {descriptor!r}")
    if r < 1:
        raise ValueError("clique part must be nonempty")
    return join(complete(r), H_DESCRIPTORS[descriptor]())


def clique_joins(i, n):
    """The joins K_{n-k} v H of the m(-1) = n-i class that exist at order n
    (n > k), as (name, Graph) pairs in catalog order."""
    return [(f"K{n-k}v{h}", join_clique_with(n - k, h))
            for k, h in CLIQUE_JOINS.get(i, ()) if n > k]


def theorem1_families(n):
    """Every family graph named by the m(-1) = n-i (i <= 5) characterization
    that exists at order n, as (name, Graph) pairs."""
    fams = [(f"K{n}", complete(n))]
    if n == 4:
        fams.append(("P4", path(4)))
    for i in sorted(CLIQUE_JOINS):
        fams += clique_joins(i, n)
    return fams


# ---------------------------------------------------------------------------
# graph6 codec (n <= 62, single-byte size header): ``bits_to_graph6`` and
# ``graph6_bits`` (which holds every graph6 validation) are _kernels_py's,
# and this module re-exports them

def graph6_encode(g: Graph) -> bytes:
    """Standard graph6: size byte n+63, then the upper-triangle bits in
    column order packed big-endian into 6-bit groups, each group +63."""
    n = g.n
    if n > 62:
        raise ValueError("graph6 single-byte header supports n <= 62")
    bits = 0
    for col in range(1, n):
        for row in range(col):
            bits = (bits << 1) | g.has_edge(row, col)
    return bits_to_graph6(n, bits).encode("ascii")


def graph6_decode(data) -> Graph:
    return Graph.from_adj(lower_triangle_rows(*graph6_bits(data)))


# ---------------------------------------------------------------------------
# edge-list text fixtures ("n=K" header, one "u v" edge per line, 0-indexed)

def parse_edge_list(text) -> Graph:
    """Graph of an edge-list text; a malformed line raises ValueError
    naming its 1-based number."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if n is None:
                if not line.startswith("n="):
                    raise ValueError("expected 'n=<count>' header")
                n = int(line[2:])
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError("expected 'u v'")
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if n is None:
        raise ValueError("missing 'n=<count>' header")
    return Graph(n, edges)
