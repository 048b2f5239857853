"""Eccentricity matrices and their spectra."""

import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import shifted

from eccspec.eccentricity import (
    acharpoly,
    ecc_matrix,
    hl_index,
    is_irreducible,
    median_brackets,
    median_eigenvalue_is,
    median_positions,
    multiplicity,
    spectrum_summary,
    twin_eigenvalue_predictions,
)
from eccspec.exactalg import (
    DEFAULT_BRACKET_WIDTH,
    IntMatrix,
    IntPolynomial,
    SymmetricSpectrum,
    bareiss_rank,
)
from eccspec.graphs import (
    Graph,
    complete,
    cycle,
    disjoint_union,
    empty_graph,
    graph6_decode,
    is_connected,
    join,
    join_clique_with,
    path,
    theorem1_families,
)


def poly(*ascending):
    return IntPolynomial(ascending)


def min_rule_matrices(n, graphs):
    """The eccentricity matrices of connected graphs of order n, stacked,
    by the definition on distances from Floyd-Warshall run on all of them
    at once: entry d(u,v) iff d(u,v) = min(ecc(u), ecc(v)), else 0."""
    dist = np.full((len(graphs), n, n), n, dtype=np.int64)
    dist[:, range(n), range(n)] = 0
    for i, g in enumerate(graphs):
        for u, v in g.edges():
            dist[i, u, v] = dist[i, v, u] = 1
    for k in range(n):
        dist = np.minimum(dist, dist[:, :, k:k + 1] + dist[:, k:k + 1, :])
    ecc = dist.max(axis=2)
    keep = np.minimum(ecc[:, :, None], ecc[:, None, :])
    return np.where(dist == keep, dist, 0)


class TestEccMatrix:
    def test_p4_rows(self):
        e = ecc_matrix(path(4))
        assert e.rows == ((0, 0, 2, 3), (0, 0, 0, 2),
                          (2, 0, 0, 0), (3, 2, 0, 0))

    def test_complete_graph_is_all_ones_off_diagonal(self):
        e = ecc_matrix(complete(6))
        assert e.rows == tuple(tuple(int(i != j) for j in range(6))
                               for i in range(6))

    def test_split_graph_block_form(self):
        r, m = 4, 3
        e = ecc_matrix(join(complete(r), empty_graph(m)))
        for i in range(r + m):
            for j in range(r + m):
                if i == j:
                    want = 0
                elif i < r or j < r:
                    want = 1
                else:
                    want = 2
                assert e[i, j] == want

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            ecc_matrix(disjoint_union(complete(2), complete(2)))

    def test_matches_min_rule_on_independent_distances(self, census_records):
        """The paper's matrix by its literal rule, entry d(u,v) iff
        d(u,v) = min(ecc(u), ecc(v)), on Floyd-Warshall distances, which
        share nothing with the kernels' BFS: every connected graph of order
        <= 8, and seeded random connected graphs (a random tree plus random
        chords) of orders 9..64."""
        by_order = {n: [graph6_decode(rec.canon) for rec in census_records(n)]
                    for n in range(1, 9)}
        assert sum(map(len, by_order.values())) == 12_113
        rng = random.Random(89)
        for _ in range(120):
            n = rng.randint(9, 64)
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            for _ in range(rng.randint(0, 2 * n)):
                edges.add(tuple(sorted(rng.sample(range(n), 2))))
            by_order.setdefault(n, []).append(Graph(n, sorted(edges)))
        for n, graphs in by_order.items():
            want = min_rule_matrices(n, graphs)
            got = np.array([ecc_matrix(g).rows for g in graphs])
            bad = np.flatnonzero((got != want).any(axis=(1, 2)))
            assert not bad.size, [graphs[i].edges() for i in bad[:3]]

    def test_every_row_has_a_nonzero_entry(self):
        rng = random.Random(31)
        count = 0
        while count < 120:
            n = rng.randint(2, 9)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.4])
            if not is_connected(g):
                continue
            count += 1
            e = ecc_matrix(g)
            for u in range(n):
                assert any(e[u, v] for v in range(n))


class TestMultiplicity:
    @pytest.mark.parametrize("g,xi,want", [
        (complete(5), -1, 4),
        (cycle(4), -1, 0),
        (join_clique_with(6, "3K1"), -1, 5),
        (path(4), -1, 1),
        (complete(5), Fraction(1, 2), 0),
        (cycle(4), -2, 2),
        (cycle(6), 3, 3),
        (cycle(6), -3, 3),
    ])
    def test_golden(self, g, xi, want):
        assert multiplicity(g, xi) == want

    def test_mixed_star_center_multiplicity(self):
        from eccspec.graphs import mixed_extension_star
        g = mixed_extension_star(3, 2, [2])
        assert g.n == 7 and multiplicity(g, -1) == 2

    def test_non_integer_rationals_are_never_roots(self):
        rng = random.Random(37)
        for _ in range(25):
            n = rng.randint(2, 8)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.6])
            if not is_connected(g):
                continue
            assert multiplicity(g, Fraction(3, 2)) == 0
            assert multiplicity(g, Fraction(-5, 3)) == 0


class TestAcharpoly:
    def test_p4(self):
        assert acharpoly(path(4)) == poly(16, 0, -17, 0, 1)

    def test_k1(self):
        assert acharpoly(complete(1)) == poly(0, 1)

    def test_k5_join_4k1_at_order_9(self):
        want = (poly(1, 1) ** 4) * (poly(2, 1) ** 3) * poly(4, -10, 1)
        assert acharpoly(join_clique_with(5, "4K1")) == want

    def test_k12_join_4k1_factor_extraction(self):
        from eccspec.exactalg import poly_divide_exact
        p = acharpoly(join_clique_with(12, "4K1"))  # n = 16
        factors = (poly(1, 1) ** 11) * (poly(2, 1) ** 3)
        assert poly_divide_exact(p, factors) == poly(18, -17, 1)


class TestIrreducibility:
    def test_complete(self):
        assert is_irreducible(ecc_matrix(complete(7)))

    def test_large_join_families(self):
        assert is_irreducible(ecc_matrix(join_clique_with(12, "C5")))
        assert is_irreducible(ecc_matrix(join_clique_with(11, "H1")))

    def test_trees_have_irreducible_matrices(self, census_records):
        for rec in census_records(7):
            from eccspec.graphs import graph6_decode
            g = graph6_decode(rec.canon)
            if len(g.edges()) == g.n - 1:
                assert is_irreducible(ecc_matrix(g)), rec.canon

    def test_reducible_example(self):
        # C4 keeps only antipodal distances: support splits into two pairs
        assert not is_irreducible(ecc_matrix(cycle(4)))

    def test_non_symmetric_rejected(self):
        """Support connectivity is irreducibility only for a symmetric
        matrix: the triangular [[0, 1], [0, 0]] is reducible, yet its
        directed support reaches every vertex from vertex 0."""
        with pytest.raises(ValueError, match="symmetric matrix required"):
            is_irreducible(IntMatrix([[0, 1], [0, 0]]))

    def test_matches_networkx_support_connectivity(self, census_records):
        import networkx as nx
        from eccspec.graphs import graph6_decode
        for n in range(1, 8):
            for rec in census_records(n):
                e = ecc_matrix(graph6_decode(rec.canon))
                support = nx.Graph()
                support.add_nodes_from(range(n))
                support.add_edges_from((u, v) for u in range(n)
                                       for v in range(u + 1, n) if e[u, v])
                assert is_irreducible(e) == nx.is_connected(support), rec.canon


class TestMedian:
    def test_positions(self):
        assert median_positions(6) == (3, 4)
        assert median_positions(7) == (4, 4)

    def test_diamond_join(self):
        g = join(complete(4), empty_graph(2))
        assert median_eigenvalue_is(g, -1) == (True, True)

    def test_complete(self):
        assert median_eigenvalue_is(complete(9), -1) == (True, True)

    def test_c4_has_no_minus_one(self):
        assert median_eigenvalue_is(cycle(4), -1) == (False, False)

    @pytest.mark.parametrize("g", [
        join_clique_with(15, "4K1"),  # n = 19
        complete(3),
        path(4),
    ])
    def test_hl_index_exactly_one(self, g):
        iv = hl_index(g)
        assert iv.is_point() and iv.lo == 1

    def test_hl_index_c4(self):
        iv = hl_index(cycle(4))
        assert iv.is_point() and iv.lo == 2

    @pytest.mark.parametrize("n, indices", [(7, [4]), (8, [4, 5])])
    def test_median_brackets_once_per_position(self, monkeypatch, n,
                                               indices):
        # at odd n the positions H and L coincide: one bracket serves both
        m = ecc_matrix(path(n))
        want = tuple(SymmetricSpectrum(m).bracket(i)
                     for i in median_positions(n))
        calls = []
        real = SymmetricSpectrum.bracket

        def counting(self, i, width=DEFAULT_BRACKET_WIDTH):
            calls.append(i)
            return real(self, i, width)

        monkeypatch.setattr(SymmetricSpectrum, "bracket", counting)
        assert median_brackets(SymmetricSpectrum(m))[:2] == want
        assert calls == indices


class TestTwinPredictions:
    def test_complete(self):
        assert twin_eigenvalue_predictions(complete(6)) == [(Fraction(-1), 5)]

    def test_star_leaves(self):
        g = join(complete(1), empty_graph(3))
        assert twin_eigenvalue_predictions(g) == [(Fraction(-2), 2)]

    def test_no_classes(self):
        assert twin_eigenvalue_predictions(cycle(6)) == []

    def test_rejects_disconnected(self):
        """K2 u K3 has no eccentricity matrix, so no predictions either."""
        g = disjoint_union(complete(2), complete(3))
        for f in (twin_eigenvalue_predictions, ecc_matrix):
            with pytest.raises(ValueError, match="eccentricity matrix "
                               "requires a connected graph"):
                f(g)

    def test_predicted_eigenvalues_are_record_fields(self, census_records):
        """Every prediction is at -2, -1 or 0, the three multiplicities a
        census record stores, which the census-wide lemma check reads."""
        from eccspec.graphs import graph6_decode
        for n in range(2, 8):
            for rec in census_records(n):
                for xi, _ in twin_eigenvalue_predictions(
                        graph6_decode(rec.canon)):
                    assert xi in (-2, -1, 0), rec.canon

    def test_predictions_hold_on_random_graphs(self):
        rng = random.Random(41)
        count = 0
        while count < 80:
            n = rng.randint(2, 9)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.5])
            if not is_connected(g):
                continue
            count += 1
            preds = twin_eigenvalue_predictions(g)
            ranks = rank_multiplicities(g, [xi for xi, _ in preds])
            for xi, lower in preds:
                assert ranks[xi] >= lower


def test_one_positive_eigenvalue_counterexample_pin():
    """K4 v 4K1 is a star mixed extension with TWO positive eigenvalues;
    this pins the falsified membership direction of the published
    one-positive-eigenvalue equivalence (see the lemmas suite note)."""
    for r, m, n_plus in [(4, 4, 2), (3, 5, 2), (5, 3, 2), (2, 8, 1),
                         (5, 2, 1), (3, 4, 1)]:
        g = join(complete(r), empty_graph(m))
        e = ecc_matrix(g)
        assert SymmetricSpectrum(e).count_gt(0) == n_plus, (r, m)
        assert rank_multiplicities(g, [-1])[-1] == r - 1, (r, m)


class TestSummary:
    def test_summary_round_trips_to_dict(self):
        s = spectrum_summary(path(4))
        d = s.to_dict()
        assert d["charpoly_ascending"] == [16, 0, -17, 0, 1]
        assert d["multiplicities"] == {"-2": 0, "-1": 1, "0": 0}
        assert d["hl_index"] == {"lo": "1", "hi": "1", "exact": True}

    def test_mult_table_sums_to_n_for_integral_spectra(self):
        g = complete(5)
        assert sum(multiplicity(g, xi) for xi in (-1, 4)) == 5


def pinned_query_graphs():
    """Four random connected graphs per order 8..24 (edge probability
    0.15-0.6, as in a query stream) and one characterized-family graph per
    even order 16..40."""
    rng = random.Random(2024)
    out = []
    for n in range(8, 25):
        drawn = 0
        while drawn < 4:
            p = rng.uniform(0.15, 0.6)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            if is_connected(g):
                out.append(g)
                drawn += 1
    for n in range(16, 41, 2):
        out.append(rng.choice(theorem1_families(n))[1])
    return out


#: sha256 of the JSON list of ``spectrum_summary(g).to_dict()`` over
#: ``pinned_query_graphs()``, computed with brackets bisected by inertia
#: counts alone; the charpoly-sign steps leave every summary byte-identical
SUMMARY_SHA256 = \
    "b0eda4969727f4819b068e078fcdcf4c88eeeedf86bc677c2e2eb853a6b8ca39"


def test_query_summaries_pinned():
    dicts = [spectrum_summary(g).to_dict() for g in pinned_query_graphs()]
    bisected = sum(not d[k]["exact"] for d in dicts
                   for k in ("median_upper", "median_lower"))
    assert bisected >= 40  # the pin covers the rational phase
    text = json.dumps(dicts, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SUMMARY_SHA256


def rank_multiplicities(g, xis):
    """m(p/q) = n - rank(qE - pI) for each xi, by fraction-free elimination:
    the oracle for the root multiplicities ``multiplicity`` and
    ``spectrum_summary`` read off the characteristic polynomial."""
    m = ecc_matrix(g)
    out = {}
    for xi in map(Fraction, xis):
        out[xi] = m.n - bareiss_rank(shifted(m, xi.denominator, xi.numerator))
    return out


@pytest.mark.parametrize("n", [16, 20, 33])
def test_family_multiplicities_match_ranks(n):
    """The thm1 suites' membership claims above the census orders rest on
    ``multiplicity``, a charpoly root multiplicity; elimination checks it
    on every family graph."""
    xis = (-2, -1, 0, Fraction(3, 2))
    for name, g in theorem1_families(n):
        assert {xi: multiplicity(g, xi) for xi in xis} == \
            rank_multiplicities(g, xis), name


class TestSummaryMultiplicities:
    WIDE_XIS = (-2, -1, 0, 1, 2, Fraction(1, 2), Fraction(-3, 2),
                Fraction(7, 3))

    def test_every_connected_graph_to_order_7(self, census_records):
        count = 0
        for n in range(1, 8):
            for rec in census_records(n):
                g = graph6_decode(rec.canon)
                assert spectrum_summary(g).mult_table == \
                    rank_multiplicities(g, (-2, -1, 0)), rec.canon
                count += 1
        assert count == 1 + 1 + 2 + 6 + 21 + 112 + 853

    def test_random_graphs_of_orders_8_to_24(self):
        rng = random.Random(79)
        count = 0
        while count < 200:
            n = rng.randint(8, 24)
            p = rng.uniform(0.15, 0.9)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])
            if not is_connected(g):
                continue
            count += 1
            assert spectrum_summary(g).mult_table == \
                rank_multiplicities(g, (-2, -1, 0)), (n, g.edges())

    def test_non_integer_rational_points(self):
        rng = random.Random(83)
        graphs = [path(5), cycle(6), complete(4),
                  join_clique_with(6, "2K2"), join(complete(3), cycle(5))]
        while len(graphs) < 40:
            n = rng.randint(3, 12)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.5])
            if is_connected(g):
                graphs.append(g)
        for g in graphs:
            table = {xi: multiplicity(g, xi) for xi in self.WIDE_XIS}
            assert table == rank_multiplicities(g, self.WIDE_XIS)
            assert all(table[xi] == 0 for xi in self.WIDE_XIS
                       if xi.denominator != 1)
