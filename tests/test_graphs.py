"""Graph core: metrics, builders, twin classes, graph6, edge lists."""

import itertools
import os
import random
import re
import tracemalloc

import networkx as nx
import pytest

from eccspec import _kernels_py, kernels
from eccspec._kernels_py import _twin_masks, mixed_star_shape
from eccspec.cli import _indexed_join
from eccspec.graphs import (
    CLIQUE_JOINS,
    H_DESCRIPTORS,
    Graph,
    bfs_metrics,
    bull,
    clique_joins,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    bits_to_graph6,
    empty_graph,
    graph6_bits,
    graph6_decode,
    graph6_encode,
    is_connected,
    join,
    join_clique_with,
    mixed_extension_star,
    parse_edge_list,
    path,
    theorem1_families,
)


def floyd_warshall(g):
    """Independent all-pairs oracle for the BFS distances."""
    inf = float("inf")
    n = g.n
    d = [[0 if i == j else (1 if g.has_edge(i, j) else inf)
          for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


class TestMetrics:
    def test_path4_eccentricities(self):
        met = bfs_metrics(path(4))
        assert met.ecc == (3, 2, 2, 3)
        assert met.diam == 3

    def test_complete_graph_levels(self):
        met = bfs_metrics(complete(5))
        assert met.ecc == (1,) * 5
        assert met.diam == 1

    def test_diamond_levels(self):
        g = join(complete(2), empty_graph(2))
        met = bfs_metrics(g)
        assert met.ecc == (1, 1, 2, 2)
        oracle = floyd_warshall(g)
        assert all(met.dist[i][j] == oracle[i][j]
                   for i in range(4) for j in range(4))

    def test_disconnected_sentinels(self):
        g = disjoint_union(complete(2), complete(3))
        met = bfs_metrics(g)
        assert met.diam == -1
        assert met.ecc == (-1,) * 5
        assert met.dist[0][2] == -1

    def test_bfs_matches_floyd_warshall_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(1000):
            n = rng.randint(2, 10)
            p = rng.uniform(0.1, 0.9)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            met = bfs_metrics(g)
            oracle = floyd_warshall(g)
            for i in range(n):
                for j in range(n):
                    want = oracle[i][j]
                    assert met.dist[i][j] == (-1 if want == float("inf")
                                              else want)

    def test_min_eccentricity_at_least_half_diameter(self):
        rng = random.Random(5)
        tried = 0
        while tried < 200:
            n = rng.randint(2, 10)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.45])
            if not is_connected(g):
                continue
            tried += 1
            met = bfs_metrics(g)
            assert min(met.ecc) >= (met.diam + 1) // 2


class TestConnectivity:
    @pytest.mark.parametrize("g,expect", [
        (complete(1), True),
        (empty_graph(2), False),
        (path(4), True),
        (disjoint_union(path(3), complete(1)), False),
    ])
    def test_is_connected(self, g, expect):
        assert is_connected(g) is expect


class TestBuilders:
    def test_join_of_singletons_is_an_edge(self):
        assert join(complete(1), complete(1)) == complete(2)

    def test_join_k4_with_independent_pair(self):
        g = join(complete(4), empty_graph(2))
        assert g.n == 6
        assert len(g.edges()) == 6 + 8
        assert not g.has_edge(4, 5)

    def test_star_as_join(self):
        assert join(complete(1), empty_graph(4)) == \
            Graph(5, [(0, i) for i in range(1, 5)])

    def test_disjoint_union_counts(self):
        g = disjoint_union(complete(2), complete(1))
        assert (g.n, len(g.edges())) == (3, 1)
        h = disjoint_union(path(3), empty_graph(1))
        assert (h.n, len(h.edges())) == (4, 2)

    def test_complete_multipartite(self):
        c4 = complete_multipartite((2, 2))
        assert sorted(c4.degree(v) for v in range(4)) == [2, 2, 2, 2]
        assert is_connected(c4) and len(c4.edges()) == 4
        assert complete_multipartite([1] * 5) == complete(5)
        g = complete_multipartite([1] * 4 + [2])
        met = bfs_metrics(g)
        assert met.ecc == (1, 1, 1, 1, 2, 2)

    def test_mixed_extension_star_shapes(self):
        assert mixed_extension_star(1, 3, []) == \
            Graph(4, [(0, 1), (0, 2), (0, 3)])
        g = mixed_extension_star(3, 2, [2])
        assert g.n == 7
        # center triangle joined to everything, leaf cells non-adjacent
        assert all(g.has_edge(u, v) for u in range(3) for v in range(3, 7))
        assert not g.has_edge(3, 4) and g.has_edge(5, 6)
        assert not g.has_edge(3, 5)
        # boundary: an independent singleton cell completes the clique
        assert mixed_extension_star(5, 1, []) == complete(6)

    @pytest.mark.parametrize("t0,p,ts", [(0, 2, []), (1, -1, []), (2, 0, [1])])
    def test_mixed_extension_star_rejects(self, t0, p, ts):
        with pytest.raises(ValueError):
            mixed_extension_star(t0, p, ts)

    def test_vertex_cap(self):
        with pytest.raises(ValueError):
            Graph(65)
        with pytest.raises(ValueError):
            Graph(0)

    @pytest.mark.parametrize("build,arg", [
        (complete, 2000), (path, 10 ** 6), (cycle, 10 ** 6),
        (complete_multipartite, [1000, 1000]),
    ], ids=["K2000", "P1000000", "C1000000", "K(1000,1000)"])
    def test_oversize_builders_fail_before_listing_edges(self, build, arg):
        """An order above 64 is rejected before any edge is drawn: the
        builders allocate well under 1 MB on the way to the error, where a
        list of the edges of K2000 alone takes over 100 MB."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="vertex count must be in"):
                build(arg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_graph_validation(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError):
            Graph.from_adj([0b010, 0b000, 0b000])

    @pytest.mark.parametrize("rows,message", [
        ([], "vertex count must be in 1..64, got 0"),
        ([0] * 65, "vertex count must be in 1..64, got 65"),
        ([0b000, 0b010, 0b000], "self-loop at vertex 1"),
        ([0b1000, 0b000, 0b000], "adjacency row 0 references vertices >= 3"),
    ])
    def test_from_adj_rejects(self, rows, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Graph.from_adj(rows)

    def test_graph_is_immutable(self):
        g = path(3)
        with pytest.raises(AttributeError):
            g.n = 5


class TestFamilies:
    def test_g1_member(self):
        assert _indexed_join("g1", 0, 9) == join_clique_with(5, "4K1")
        assert clique_joins(5, 9)[0] == ("K5v4K1", join_clique_with(5, "4K1"))

    def test_part_v_members(self):
        assert _indexed_join("thm5", 7, 16) == join_clique_with(11, "C5")
        assert _indexed_join("thm5", 9, 16) == join_clique_with(11, "H1")
        fams = clique_joins(5, 16)
        assert fams[7] == ("K11vC5", join_clique_with(11, "C5"))
        assert fams[9] == ("K11vH1", join_clique_with(11, "H1"))

    def test_family_graphs_are_connected(self):
        for n in (6, 9, 16, 20):
            for name, g in theorem1_families(n):
                assert g.n == n, name
                assert is_connected(g), name

    def test_ten_n_minus_5_clique_joins(self):
        fams = clique_joins(5, 16)
        assert len(fams) == 10
        assert len({name for name, _ in fams}) == 10

    def test_clique_join_table_names_graphs_of_order_k(self):
        for i, joins in CLIQUE_JOINS.items():
            for k, h in joins:
                assert H_DESCRIPTORS[h]().n == k, (i, h)

    def test_theorem1_families_catalog_order(self):
        assert [name for name, _ in theorem1_families(4)] == [
            "K4", "P4", "K2v2K1", "K1vK2uK1", "K1v3K1"]
        # the seven K1 v H joins exist at n=5, the order-5 H do not
        assert [name for name, _ in theorem1_families(5)] == [
            "K5", "K3v2K1", "K2vK2uK1", "K2v3K1", "K1v4K1", "K1v2K1uK2",
            "K1vP3uK1", "K1v2K2", "K1vP4", "K1vK3uK1", "K1vC4"]

    def test_bull_shape(self):
        b = bull()
        assert b.n == 5 and len(b.edges()) == 5
        assert sorted(b.degree(v) for v in range(5)) == [1, 1, 2, 3, 3]

    def test_mixed_star_shape_recognizer(self):
        def star(g):
            return mixed_star_shape(g.n, g.adj)

        assert star(complete(7))
        assert star(mixed_extension_star(2, 3, [2, 2]))
        assert not star(path(4))
        assert not star(cycle(5))
        assert not star(join_clique_with(3, "P4"))
        assert not star(disjoint_union(complete(2), complete(3)))

    def test_mixed_star_shape_matches_networkx_on_census(self, census_records):
        """The docstring's equivalent statement, evaluated by networkx on
        every connected graph up to order 7; the active backend's
        ``census_structure`` gives the same shape."""
        for n in range(1, 8):
            for rec in census_records(n):
                g = graph6_decode(rec.canon)
                h = nx.Graph(g.edges())
                h.add_nodes_from(range(g.n))
                ecc = nx.eccentricity(h)
                centre = {v for v, e in ecc.items() if e == 1}
                rest = h.subgraph(set(h) - centre)
                want = (nx.diameter(h) <= 2 and bool(centre) and all(
                    rest.subgraph(c).number_of_edges()
                    == len(c) * (len(c) - 1) // 2
                    for c in nx.connected_components(rest)))
                assert mixed_star_shape(g.n, g.adj) == want, rec.canon
                assert kernels.census_structure(
                    rec.canon, rec.charpoly)[1] == want, rec.canon


def test_bull_identification_oracle():
    """The order-5 graphs H with max degree <= 3 whose join K_11 v H has
    m(-1) = 11 at order 16 are exactly C5, K1 u P4, and the bull; this pins
    the fifth family member."""
    from eccspec.census import canonical_bits
    from eccspec.eccentricity import multiplicity

    winners = set()
    for mask in range(1 << 10):
        edges = [e for i, e in enumerate(itertools.combinations(range(5), 2))
                 if (mask >> i) & 1]
        h = Graph(5, edges)
        if max(map(h.degree, range(h.n))) > 3:
            continue
        if multiplicity(join(complete(11), h), -1) == 11:
            winners.add(canonical_bits(h))
    expected = {
        canonical_bits(cycle(5)),
        canonical_bits(disjoint_union(empty_graph(1), path(4))),
        canonical_bits(bull()),
    }
    assert winners == expected


def twin_classes_oracle(n, adj):
    """The twin classes of >= 2 vertices as (vertices, closed) pairs in
    order of least vertex, grouped directly: vertices with equal open
    neighborhoods (closed False) or equal closed ones (closed True)."""
    groups = {}
    for v in range(n):
        groups.setdefault((adj[v], False), []).append(v)
        groups.setdefault((adj[v] | 1 << v, True), []).append(v)
    return sorted(((frozenset(vs), closed)
                   for (_, closed), vs in groups.items() if len(vs) >= 2),
                  key=lambda cl: min(cl[0]))


def twin_classes_of_masks(n, adj):
    """The classes ``_twin_masks`` gives, in the oracle's form: each at its
    least vertex v, closed iff ``adj[v]`` meets v's mask."""
    return [(frozenset([v, *(u for u in range(n) if m >> u & 1)]),
             bool(adj[v] & m))
            for v, m in enumerate(_twin_masks(n, adj))
            if m and not m & ((1 << v) - 1)]


def twin_rich_graph(rng):
    """A random graph on at most 10 vertices, often disconnected, whose
    vertices mostly come in twin groups: a random base graph with each
    vertex blown up into a clique or an independent set, then relabeled."""
    k = rng.randint(1, 6)
    base = random_graph(rng, k, rng.uniform(0.1, 0.9))
    groups, n = [], 0
    for _ in range(k):
        size = rng.randint(1, max(1, min(3, 10 - n - (k - len(groups) - 1))))
        groups.append((range(n, n + size), rng.random() < 0.5))
        n += size
    edges = set()
    for i, (vs, clique) in enumerate(groups):
        if clique:
            edges.update(itertools.combinations(vs, 2))
        for j in range(i):
            if base.has_edge(i, j):
                edges.update(itertools.product(groups[j][0], vs))
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[v]) for u, v in edges])


def random_graph(rng, n, p):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def kernel_backends():
    """Every kernel module the run has: only the pure one under
    ECCSPEC_KERNELS=py, which builds no extension."""
    if os.environ.get("ECCSPEC_KERNELS") == "py":
        return [_kernels_py]
    from eccspec import _kernels
    return [_kernels, _kernels_py]


class TestTwinMasks:
    def test_complete_graph_one_closed_class(self):
        g = complete(4)
        assert _twin_masks(g.n, g.adj) == [0b1110, 0b1101, 0b1011, 0b0111]
        assert twin_classes_of_masks(g.n, g.adj) == \
            [(frozenset({0, 1, 2, 3}), True)]

    def test_star_leaves_are_duplicates(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert twin_classes_of_masks(g.n, g.adj) == \
            [(frozenset({1, 2, 3}), False)]

    def test_path4_has_no_classes(self):
        g = path(4)
        assert _twin_masks(g.n, g.adj) == [0, 0, 0, 0]
        assert twin_classes_of_masks(g.n, g.adj) == []

    def test_classes_verify_their_neighborhoods(self):
        rng = random.Random(3)
        for _ in range(100):
            g = random_graph(rng, rng.randint(2, 9), 0.5)
            for vs, closed in twin_classes_of_masks(g.n, g.adj):
                for u, v in itertools.combinations(sorted(vs), 2):
                    if closed:
                        assert g.adj[u] | (1 << u) == g.adj[v] | (1 << v)
                        assert g.has_edge(u, v)
                    else:
                        assert g.adj[u] == g.adj[v]
                        assert not g.has_edge(u, v)

    def test_masks_match_open_closed_partition(self):
        """200 seeded graphs on 1..10 vertices, half of them blow-ups rich
        in twins of both kinds, disconnected ones included: the masks are
        exactly the open-group/closed-group partition, whose classes are
        disjoint, and every class is all adjacent or all non-adjacent."""
        rng = random.Random(44)
        disconnected = kinds = 0
        for i in range(200):
            g = (twin_rich_graph(rng) if i % 2 else
                 random_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.9)))
            classes = twin_classes_oracle(g.n, g.adj)
            members = [v for vs, _ in classes for v in vs]
            assert len(members) == len(set(members)), g.adj
            want = [0] * g.n
            for vs, _ in classes:
                for v in vs:
                    want[v] = sum(1 << u for u in vs if u != v)
            assert _twin_masks(g.n, g.adj) == want, g.adj
            assert twin_classes_of_masks(g.n, g.adj) == classes, g.adj
            for vs, closed in classes:
                assert {g.has_edge(u, v) for u, v in
                        itertools.combinations(vs, 2)} == {closed}, g.adj
            disconnected += not is_connected(g)
            kinds |= 1 << any(closed for _, closed in classes)
        assert disconnected >= 20 and kinds == 0b11

    def test_census_structure_twins_match_oracle(self, census_records):
        """Every connected graph up to order 7, on each backend the run
        has: one (xi, k - 1) pair per oracle class of k twins, in order of
        least vertex, with xi from its kind and its eccentricity by
        networkx."""
        for n in range(1, 8):
            for rec in census_records(n):
                g = graph6_decode(rec.canon)
                h = nx.Graph(g.edges())
                h.add_nodes_from(range(g.n))
                ecc = nx.eccentricity(h)
                want = []
                for vs, closed in twin_classes_oracle(g.n, g.adj):
                    e = ecc[min(vs)]
                    xi = (-1 if e == 1 else 0) if closed else \
                        (-2 if e == 2 else 0)
                    want.append((xi, len(vs) - 1))
                for mod in kernel_backends():
                    assert mod.census_structure(
                        rec.canon, rec.charpoly)[0] == want, rec.canon


class TestGraph6:
    def test_k1(self):
        assert graph6_encode(complete(1)) == b"@"

    def test_p4_golden(self):
        # cross-checked against the networkx reference encoder below
        assert graph6_encode(path(4)) == b"Ch"

    def test_matches_networkx_reference(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 12)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.5])
            nxg = nx.Graph()
            nxg.add_nodes_from(range(n))
            nxg.add_edges_from(g.edges())
            ref = nx.to_graph6_bytes(nxg, header=False).strip()
            assert graph6_encode(g) == ref

    def test_round_trip_random(self):
        rng = random.Random(23)
        for _ in range(300):
            n = rng.randint(1, 20)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.3])
            assert graph6_decode(graph6_encode(g)) == g

    def test_bits_round_trip_over_census(self):
        """graph6_bits inverts bits_to_graph6, and graph6_decode unpacks
        each canonical form to a graph of that canonical form, on every
        connected graph up to order 7."""
        from eccspec import census
        for n in range(1, 8):
            for bits in census._level_bits(n):
                text = bits_to_graph6(n, bits)
                assert graph6_bits(text) == (n, bits)
                assert kernels.canon_bits(n, graph6_decode(text).adj) == bits

    def test_round_trip_at_largest_order(self):
        rng = random.Random(29)
        g = Graph(62, [(u, v) for u in range(62) for v in range(u + 1, 62)
                       if rng.random() < 0.5])
        assert graph6_decode(graph6_encode(g)) == g
        assert graph6_decode(graph6_encode(complete(62))) == complete(62)

    def test_decode_accepts_header_and_str(self):
        assert graph6_decode(">>graph6<<Ch\n") == path(4)
        assert graph6_decode("Ch") == path(4)

    @pytest.mark.parametrize("bad", [b"", b"C", b"Ch!", b"C\x1f", b"Chh"])
    def test_decode_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            graph6_decode(bad)
        with pytest.raises(ValueError):
            graph6_bits(bad)

    @pytest.mark.parametrize("bad,message", [
        ("~?", "graph6 multi-byte headers (n > 62) not supported"),
        ("?", "graph6 order must be >= 1"),
        ("A@", "nonzero padding bits in graph6 data"),
        ("C\xe9", "graph6 byte outside 63..126"),
    ])
    def test_bits_reject_header_and_padding(self, bad, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            graph6_bits(bad)

    @pytest.mark.parametrize("bad", [63, None, bytearray(b"Ch")])
    def test_bits_reject_other_types(self, bad):
        with pytest.raises(TypeError, match="^graph6 data must be str or "
                                            "bytes$"):
            graph6_bits(bad)

    def test_encode_rejects_oversize(self):
        with pytest.raises(ValueError):
            graph6_encode(empty_graph(63))


class TestEdgeList:
    def test_round_trip(self):
        g = join_clique_with(3, "P4")
        text = "".join(f"{u} {v}\n" for u, v in g.edges())
        assert parse_edge_list(f"n={g.n}\n" + text) == g

    def test_parse_with_comments(self):
        g = parse_edge_list("# fixture\nn=3\n0 1\n\n1 2\n")
        assert g == path(3)

    @pytest.mark.parametrize("text", ["0 1\n", "n=3\n0\n", "n=3\n0 1 2\n"])
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_edge_list(text)
