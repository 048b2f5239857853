"""Backend parity: the compiled kernels must agree with the pure-Python
reference, and both must agree with the arbitrary-precision library path.

The compiled module is imported directly; conftest builds it in place and
stops the run unless it is not older than ``_kernels.c``, so these tests
compare the extension built from the source in the tree.  Under
ECCSPEC_KERNELS=py conftest builds nothing, and the module skips rather than
compare against whatever extension is on disk.
"""

import functools
import gc
import inspect
import os
import random
import shlex
import subprocess
import sysconfig
from math import comb, prod

import networkx as nx
import pytest
from conftest import A001349, shifted
from hypothesis import given, settings
from hypothesis import strategies as st

if os.environ.get("ECCSPEC_KERNELS") == "py":
    pytest.skip("ECCSPEC_KERNELS=py: no compiled extension was built",
                allow_module_level=True)

import eccspec._kernels as compiled  # noqa: E402
import eccspec._kernels_py as pure
from eccspec import kernels
from eccspec.census import ENUMERATION_LIMIT, CensusRecord, read_store
from eccspec.eccentricity import ecc_matrix, is_irreducible
from eccspec import exactalg
from eccspec.exactalg import (
    IntMatrix,
    IntPolynomial,
    bareiss_rank,
    berkowitz_charpoly,
    charpoly_inertia,
    root_multiplicity,
)
from eccspec.graphs import (
    CLIQUE_JOINS,
    Graph,
    bfs_metrics,
    bits_to_graph6,
    clique_joins,
    complete,
    complete_multipartite,
    cycle,
    graph6_bits,
    graph6_encode,
    is_connected,
    path,
    theorem1_families,
)
from eccspec.quotient import BlockSpec, quotient


def random_graph(rng, n, p=0.5):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


#: the kernels that take a graph as its packed lower triangle, with the
#: largest order each takes: the census's orders, so every bit form is one
#: 64-bit word
BIT_FORM_KERNELS = {"children_canon": ENUMERATION_LIMIT - 1,
                    "census_records": ENUMERATION_LIMIT}


def packed(g):
    """The packed lower triangle of g, the bit form the census kernels
    take."""
    return graph6_bits(graph6_encode(g))[1]


def bit_form_call(mod, name, n, form):
    """The bit-form kernel ``name`` of ``mod`` on one form: census_records
    on a one-form chunk."""
    if name == "census_records":
        return mod.census_records(n, [form], CensusRecord)
    return getattr(mod, name)(n, form)


def stats(mod, g):
    """(diam, |V1|, m(-1), m(-2), m(0), charpoly) of g's census record."""
    return mod.census_records(g.n, [packed(g)], CensusRecord)[0][2:8]


def census_sample(max_n=6):
    from eccspec import census
    out = []
    for n in range(1, max_n + 1):
        for bits in census._level_bits(n):
            out.append(Graph.from_adj(pure.lower_triangle_rows(n, bits)))
    return out


def test_source_compiles_without_warnings():
    """``_kernels.c`` compiles under -Wall -Werror.  The setuptools build
    only warns, so a deletion that leaves a static helper or a variable
    unused would otherwise go unnoticed."""
    source = os.path.join(os.path.dirname(pure.__file__), "_kernels.c")
    cmd = shlex.split(sysconfig.get_config_var("CC")) + [
        "-Wall", "-Werror", "-O0", "-c", "-o", os.devnull,
        "-I", sysconfig.get_paths()["include"], source]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    assert proc.returncode == 0, proc.stdout


class TestBackendParity:
    def test_canon_bits_agree_on_census(self):
        for g in census_sample(6):
            assert compiled.canon_bits(g.n, g.adj) == \
                pure.canon_bits(g.n, g.adj)

    def test_census_records_agree_on_census(self):
        """Every connected graph to order 7, one call per order: the same
        records, each with its graph6 canon and no tags."""
        from eccspec import census
        for n in range(1, 8):
            forms = census._level_bits(n)
            got = compiled.census_records(n, forms, CensusRecord)
            assert got == pure.census_records(n, forms, CensusRecord)
            assert [type(r) for r in got] == [CensusRecord] * len(forms)
            assert [r.canon for r in got] == \
                [bits_to_graph6(n, bits) for bits in forms]
            assert [r.family_tags for r in got] == [()] * len(forms)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_census_records_agree_on_random_connected(self, n):
        """A seeded sample of connected graphs, not in canonical form."""
        rng = random.Random(89 + n)
        forms = []
        while len(forms) < 150:
            g = random_graph(rng, n, rng.uniform(0.15, 0.9))
            if is_connected(g):
                forms.append(packed(g))
        got = compiled.census_records(n, forms, CensusRecord)
        assert got == pure.census_records(n, forms, CensusRecord)
        assert [r.family_tags for r in got[:8]] == [()] * 8

    @pytest.mark.parametrize("record_type", [
        list, dict, "CensusRecord", None, CensusRecord(*range(9))],
        ids=["list", "dict", "str", "None", "instance"])
    def test_census_records_reject_a_record_type_alike(self, record_type):
        for mod in (compiled, pure):
            with pytest.raises(TypeError) as exc:
                mod.census_records(4, [63], record_type)
            assert str(exc.value) == \
                "census_records needs a tuple subclass as record type"

    def test_census_records_take_any_tuple_subclass(self):
        """A record type is built as tuple.__new__ builds it: no
        constructor of its own runs, on either backend, and an iterable of
        forms is read once."""
        from eccspec import census

        class Plain(tuple):
            def __new__(cls, *args):
                raise AssertionError("constructor called")

        forms = census._level_bits(3)
        for mod in (compiled, pure):
            got = mod.census_records(3, iter(forms), Plain)
            assert [type(r) for r in got] == [Plain] * len(forms)
            assert list(map(tuple, got)) == list(map(tuple, (
                mod.census_records(3, forms, CensusRecord))))

    def test_compiled_records_are_untracked(self):
        """A compiled record of a type without a __dict__, and its charpoly,
        are untracked by the collector; a type with a __dict__ keeps its
        records tracked."""
        from eccspec import census
        forms = census._level_bits(5)
        for rec in compiled.census_records(5, forms, CensusRecord):
            assert not gc.is_tracked(rec)
            assert not gc.is_tracked(rec.charpoly)

        class WithDict(tuple):
            pass

        rec, = compiled.census_records(3, [census._level_bits(3)[0]],
                                       WithDict)
        assert gc.is_tracked(rec)

    def test_children_canon_agree(self):
        rng = random.Random(43)
        count = 0
        while count < 25:
            g = random_graph(rng, rng.randint(1, 7))
            if not is_connected(g):
                continue
            count += 1
            assert compiled.children_canon(g.n, packed(g)) == \
                pure.children_canon(g.n, packed(g))

    def test_distances_agree_including_disconnected(self):
        rng = random.Random(47)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 12), 0.3)
            assert compiled.all_pairs_dist(g.n, g.adj) == \
                pure.all_pairs_dist(g.n, g.adj)

    @pytest.mark.parametrize("n", [0, 65])
    def test_is_connected_rejects_out_of_range_orders(self, n, monkeypatch):
        """The connectivity check that reads row 0 of all_pairs_dist, here
        through is_irreducible, raises rather than answers for an n x n
        matrix outside 1..64, on either backend."""
        m = IntMatrix([[0] * n for _ in range(n)])
        for mod in (compiled, pure):
            monkeypatch.setattr(kernels, "all_pairs_dist", mod.all_pairs_dist)
            with pytest.raises(ValueError, match="1 <= n <= 64"):
                is_irreducible(m)

    @pytest.mark.parametrize("name,n", [
        ("all_pairs_dist", 0), ("all_pairs_dist", 65),
        ("canon_bits", 0), ("canon_bits", ENUMERATION_LIMIT + 1),
        ("children_canon", 0), ("children_canon", ENUMERATION_LIMIT),
        ("census_records", 0), ("census_records", ENUMERATION_LIMIT + 1),
        ("census_structure", ENUMERATION_LIMIT + 1),
    ])
    def test_out_of_range_orders_rejected_alike(self, name, n):
        """census_structure reads its order off a graph6 string, which has
        none below 1 (a graph6 error, in its malformed-string test)."""
        messages = []
        for mod in (compiled, pure):
            with pytest.raises(ValueError) as exc:
                if name == "census_structure":
                    mod.census_structure(bits_to_graph6(n, 0),
                                         (0,) * n + (1,))
                elif name in BIT_FORM_KERNELS:
                    bit_form_call(mod, name, n, 0)
                else:
                    getattr(mod, name)(n, [0] * n)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert "supports 1 <= n <= " in messages[0]

    @pytest.mark.parametrize("name", ["all_pairs_dist", "canon_bits"])
    @pytest.mark.parametrize("bad", [-1, 0b1000, 1 << 64, -(1 << 70)],
                             ids=["negative", "vertex-n", "one-word-past",
                                  "wide-negative"])
    def test_malformed_rows_rejected_alike(self, name, bad):
        """A row that is negative or names a vertex >= n raises one
        ValueError, naming the row, on both backends."""
        for i in range(3):
            rows = [0b110, 0b101, 0b011]
            rows[i] = bad
            for mod in (compiled, pure):
                with pytest.raises(ValueError) as exc:
                    getattr(mod, name)(3, rows)
                assert str(exc.value) == \
                    f"adjacency row {i} references vertices >= 3"

    @pytest.mark.parametrize("name",
                             sorted(BIT_FORM_KERNELS) + ["census_structure"])
    def test_disconnected_rejected_alike(self, name):
        g = Graph(4, [(0, 1), (2, 3)])
        messages = []
        for mod in (compiled, pure):
            with pytest.raises(ValueError) as exc:
                if name == "census_structure":
                    mod.census_structure(bits_to_graph6(g.n, packed(g)),
                                         (0, 0, 0, 0, 1))
                else:
                    bit_form_call(mod, name, g.n, packed(g))
            messages.append(str(exc.value))
        assert messages == [f"{name} requires a connected graph"] * 2

    def test_census_records_stop_at_the_first_bad_form_alike(self):
        """A chunk fails as a whole, with the error of its first bad
        form."""
        good = packed(path(4))
        bad = packed(Graph(4, [(0, 1), (2, 3)]))
        for forms, exc, message in (
                ([good, bad, 1.5], ValueError,
                 "census_records requires a connected graph"),
                ([good, 1.5, bad], TypeError,
                 "census_records needs an int bit form"),
                ([good, 1 << 6], ValueError, "bit form out of range for n=4")):
            for mod in (compiled, pure):
                with pytest.raises(exc) as info:
                    mod.census_records(4, forms, CensusRecord)
                assert str(info.value) == message

    def test_census_structure_agrees_on_census(self, census_records):
        """Every connected graph of order 1..8 with its record's charpoly:
        1 + 12 112 records.  The inertia n_zero is the charpoly's root
        multiplicity, a second algorithm."""
        count = 0
        for n in range(1, 9):
            for rec in census_records(n):
                got = compiled.census_structure(rec.canon, rec.charpoly)
                assert got == pure.census_structure(rec.canon, rec.charpoly), \
                    rec.canon
                cp = IntPolynomial(rec.charpoly)
                assert [ine[1] for ine in got[2:]] == \
                    [root_multiplicity(cp, c) for c in (-1, 0)], rec.canon
                count += 1
        assert count == 12_113

    @pytest.mark.parametrize("n", [9, 10])
    def test_census_structure_agrees_on_random_connected(self, n):
        rng = random.Random(83 + n)
        count = 0
        while count < 300:
            g = random_graph(rng, n, rng.uniform(0.15, 0.9))
            if not is_connected(g):
                continue
            count += 1
            g6 = bits_to_graph6(n, packed(g))
            coeffs = stats(compiled, g)[5]
            assert compiled.census_structure(g6, coeffs) == \
                pure.census_structure(g6, coeffs), g.adj

    @pytest.mark.parametrize("mod", [compiled, pure], ids=["compiled", "pure"])
    def test_census_structure_pinned(self, mod):
        # K1: charpoly x
        assert mod.census_structure("@", (0, 1)) == \
            ([], False, (1, 0, 0), (0, 1, 0))
        # K1,3, center 0: eccentricity spectrum -2, -2, 2 +- sqrt(7); the
        # graph6 string as graph6_bits reads it, as str or bytes, with a
        # header and a trailing newline
        star = complete_multipartite((1, 3))
        g6 = bits_to_graph6(star.n, packed(star))
        for data in (g6, g6.encode(), f">>graph6<<{g6}\n".encode(),
                     f"{g6}\n\n"):
            assert mod.census_structure(data, (-12, -28, -15, 0, 1)) \
                == ([(-2, 2)], True, (2, 0, 2), (1, 0, 3))

    @pytest.mark.parametrize("bad", [
        "", "\n", ">>graph6<<", b"", "C", b"C", "Ch!", "C\x1f", "Chh",
        b"Chh", "C\xe9", "\xe9", "~?", "?", "A@", " C~", "C~ ",
        "J" + "?" * 9 + "@", bits_to_graph6(11, 0), bits_to_graph6(62, 1)])
    def test_census_structure_rejects_malformed_alike(self, bad):
        """A malformed graph6 string raises graph6_bits's ValueError on
        both backends, before the coefficients are read; a well-formed one
        of order above 10 the order's."""
        try:
            n = graph6_bits(bad)[0]
        except ValueError as exc:
            want = str(exc)
        else:
            assert n > ENUMERATION_LIMIT
            want = f"census_structure supports 1 <= n <= {ENUMERATION_LIMIT}"
        for mod in (compiled, pure):
            with pytest.raises(ValueError) as info:
                mod.census_structure(bad, ())
            assert type(info.value) is ValueError
            assert str(info.value) == want

    @pytest.mark.parametrize("bad", [63, None, ["C~"], bytearray(b"C~")],
                             ids=["int", "None", "list", "bytearray"])
    def test_census_structure_rejects_non_strings_alike(self, bad):
        for mod in (compiled, pure):
            with pytest.raises(TypeError) as info:
                mod.census_structure(bad, (-3, -8, -6, 0, 1))
            assert str(info.value) == "graph6 data must be str or bytes"

    def test_kernel_names_match_across_backends(self):
        """Both backends export the same kernels with the same signatures
        (the compiled ones read off their method docs), and ``kernels``
        binds each, so a compiled function without a reference, or the
        reverse, or a parameter list that drifts, fails."""
        names = sorted(pure.__all__)
        assert names == sorted(n for n in dir(compiled)
                               if not n.startswith("_"))
        assert {"format_store", "parse_store"} <= set(names)
        callables = 0
        for name in names:
            assert hasattr(pure, name)
            assert getattr(kernels, name) is getattr(kernels._impl, name)
            if callable(getattr(pure, name)):
                callables += 1
                assert inspect.signature(getattr(compiled, name)) == \
                    inspect.signature(getattr(pure, name)), name
        assert callables == 8

    def test_canon_of_unpacked_canonical_form_is_itself(self):
        """A canonical form, unpacked to rows, has itself as canonical form
        on both backends, at every order the labeling takes."""
        rng = random.Random(59)
        for n in range(1, ENUMERATION_LIMIT + 1):
            nbits = n * (n - 1) // 2
            for _ in range(20):
                rows = pure.lower_triangle_rows(n, rng.getrandbits(nbits))
                canon = compiled.canon_bits(n, rows)
                unpacked = pure.lower_triangle_rows(n, canon)
                assert compiled.canon_bits(n, unpacked) == canon
                assert pure.canon_bits(n, unpacked) == canon

    @pytest.mark.parametrize("name", sorted(BIT_FORM_KERNELS))
    def test_out_of_range_bit_forms_rejected_alike(self, name):
        """-1, 2^(n(n-1)/2), just past the largest bit form, and ints of
        one and of several words past the one-word bound, 2^64 and 2^200,
        raise the same ValueError on both backends at every order the
        kernel takes."""
        for n in range(1, BIT_FORM_KERNELS[name] + 1):
            for bad in (-1, 1 << (n * (n - 1) // 2), 1 << 64, 1 << 200):
                for mod in (compiled, pure):
                    with pytest.raises(ValueError) as exc:
                        bit_form_call(mod, name, n, bad)
                    assert str(exc.value) == f"bit form out of range for n={n}"

    @pytest.mark.parametrize("name", sorted(BIT_FORM_KERNELS))
    def test_row_lists_rejected_alike(self, name):
        """Adjacency rows are not a bit form: the directed 3-cycle, which
        no packed lower triangle can express, raises the same TypeError on
        both backends, as a float does."""
        messages = []
        for bad in ([0b010, 0b100, 0b001], 7.0):
            for mod in (compiled, pure):
                with pytest.raises(TypeError) as exc:
                    bit_form_call(mod, name, 3, bad)
                messages.append(str(exc.value))
        assert messages == [f"{name} needs an int bit form"] * 4

    def test_children_canon_agrees_at_the_largest_parent_order(self):
        """Parents on 9 vertices, the largest order children_canon takes,
        with children of up to 45 bits: both backends give the same sorted
        list, and it holds exactly the extensions whose canonical parent
        the parent is."""
        for g in (complete(9), complete_multipartite((4, 5)),
                  complete_multipartite((1, 2, 6)), cycle(9)):
            check_children_canon(g)

    def test_canon_agrees_on_symmetric_graphs(self):
        for g in (complete(9), cycle(9), cycle(10),
                  complete_multipartite((3, 3, 3)),
                  complete_multipartite((2, 2, 2, 2))):
            assert compiled.canon_bits(g.n, g.adj) == \
                pure.canon_bits(g.n, g.adj)


def children_oracle(g):
    """Brute force: the sorted distinct canonical forms of all 2^n - 1
    one-vertex extensions, with no pruning."""
    n = g.n
    forms = set()
    for sub in range(1, 1 << n):
        cadj = [g.adj[v] | (((sub >> v) & 1) << n) for v in range(n)] + [sub]
        forms.add(compiled.canon_bits(n + 1, cadj))
    return sorted(forms)


def deletion_key(h, u):
    """The canonical deletion key of vertex u of the networkx graph h:
    deg(u) 2^40 plus 16^deg(w) for each neighbour w."""
    return h.degree(u) * 2 ** 40 + sum(16 ** h.degree(w) for w in h[u])


def canonical_parent(n, form):
    """The canonical form of the canonical parent of the connected graph of
    order n whose canonical form is ``form``, by the deletion rule written
    out on networkx: of the vertices that are not articulation points, those
    of least key are the candidates, and the one labeled highest in the
    canonical form is deleted."""
    rows = pure.lower_triangle_rows(n, form)
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from((u, v) for u in range(n) for v in range(u)
                     if rows[u] >> v & 1)
    noncut = set(h) - set(nx.articulation_points(h))
    least = min(deletion_key(h, u) for u in noncut)
    h.remove_node(max(u for u in noncut if deletion_key(h, u) == least))
    h = nx.convert_node_labels_to_integers(h)
    adj = [sum(1 << v for v in h[u]) for u in range(n - 1)]
    return compiled.canon_bits(n - 1, adj)


def check_children_canon(g):
    """children_canon on the connected graph g: the same list on both
    backends, sorted and with no repeats, of forms of one-vertex
    extensions; of those extensions, it holds exactly the ones whose
    canonical parent, by the test's own rule, is g."""
    got = compiled.children_canon(g.n, packed(g))
    assert got == pure.children_canon(g.n, packed(g)), g.adj
    assert got == sorted(set(got)), g.adj
    oracle = children_oracle(g)
    assert set(got) <= set(oracle), g.adj
    parent = compiled.canon_bits(g.n, g.adj)
    assert got == [form for form in oracle
                   if canonical_parent(g.n + 1, form) == parent], g.adj


def twin_heavy_graphs():
    """Graphs whose vertices fall into few twin classes, where the twin
    pruning of children_canon skips the most subsets."""
    out = [complete(n) for n in range(1, 9)]
    out += [complete_multipartite((1, n)) for n in range(1, 8)]  # stars
    out += [complete_multipartite(p) for p in
            ((2, 2), (2, 3), (3, 3), (1, 2, 3), (2, 2, 2), (1, 1, 2, 4))]
    out += [g for i in CLIQUE_JOINS for n in (6, 7, 8)
            for _, g in clique_joins(i, n)]
    return out


class TestChildrenCanonOracle:
    """children_canon returns, for a connected parent, the sorted distinct
    forms of the one-vertex extensions whose canonical parent it is, the
    same list on both backends; a test-side deletion rule on networkx
    decides, for every extension, whether it belongs."""

    def test_twin_heavy_parents(self):
        for g in twin_heavy_graphs():
            check_children_canon(g)

    def test_cut_vertices_keyed_like_the_least(self):
        """A triangle with a path of four edges hanging from it.  One child
        is two triangles joined by a path of three edges: the two inner
        vertices of the path are cut vertices keyed like the degree-2
        triangle vertices, and only the non-cut test keeps them from the
        candidates.  No parent below order 7 tells the rule from one
        without that test."""
        check_children_canon(Graph(7, [(0, 1), (1, 2), (2, 0), (2, 3),
                                       (3, 4), (4, 5), (5, 6)]))

    def test_random_connected_parents(self):
        rng = random.Random(53)
        count = 0
        while count < 30:
            g = random_graph(rng, rng.randint(1, 8), rng.uniform(0.2, 0.8))
            if not is_connected(g):
                continue
            count += 1
            check_children_canon(g)

    @pytest.mark.parametrize("mod,top", [(compiled, 9), (pure, 8)],
                             ids=["compiled", "pure"])
    def test_each_graph_comes_from_one_parent(self, mod, top):
        """Over a whole level, the parents' lists together hold every
        connected graph of the next order exactly once: A001349 forms, none
        twice.  The levels are built from K1 by the backend under test
        alone, so a fault in the other backend cannot fail this one."""
        level = [0]
        for n in range(2, top + 1):
            forms = [form for bits in level
                     for form in mod.children_canon(n - 1, bits)]
            assert len(set(forms)) == len(forms), n
            assert len(forms) == A001349[n], n
            level = forms


def signature_colors(n, adj):
    """Refinement colors ranked by (own color, neighbor-color count tuple)
    signatures, the unpacked definition, with the class count of each
    round."""
    colors, ncol, counts = [0] * n, 1, [1]
    while True:
        sigs = []
        for v in range(n):
            hist = [0] * ncol
            for u in range(n):
                if (adj[v] >> u) & 1:
                    hist[colors[u]] += 1
            sigs.append((colors[v], tuple(hist)))
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [rank[sig] for sig in sigs]
        if new == colors:
            return colors, counts
        colors, ncol = new, len(rank)
        counts.append(ncol)


class TestRefinementKeyBound:
    """Refinement packs each signature into 4-bit fields.  The labeling
    takes n <= 10, where a count reaches 9 (a vertex of degree 9) and a
    round takes at most 44 bits of the key.  The packed ranking itself
    holds up to n = 16, where a round at 15 classes fills all 64 bits; the
    round after the partition reaches 16 classes would need 68 bits and is
    skipped, as a discrete partition is stable."""

    @staticmethod
    def universal_vertex_graph(n):
        """A random graph on n - 1 vertices plus a vertex joined to all of
        them, whose refinement passes through n - 1 classes to n."""
        top = n - 1
        for seed in range(100):
            rng = random.Random(seed)
            g = random_graph(rng, top)
            adj = [row | (1 << top) for row in g.adj] + [(1 << top) - 1]
            _, counts = signature_colors(n, adj)
            if top in counts and counts[-1] == n:
                return Graph.from_adj(adj)
        raise AssertionError(f"no graph reaching {n} classes via {top}")

    def test_packed_keys_rank_like_signatures(self):
        g = self.universal_vertex_graph(16)
        assert pure._wl_colors(16, g.adj) == signature_colors(16, g.adj)[0]
        rng = random.Random(61)
        for _ in range(40):
            h = random_graph(rng, rng.randint(1, 16), rng.uniform(0.1, 0.9))
            assert pure._wl_colors(h.n, h.adj) == \
                signature_colors(h.n, h.adj)[0]

    def test_backends_agree_at_the_bound(self):
        """At the largest order the labeling takes."""
        n = ENUMERATION_LIMIT
        g = self.universal_vertex_graph(n)
        assert max(bin(r).count("1") for r in g.adj) == n - 1
        form = compiled.canon_bits(n, g.adj)
        assert pure.canon_bits(n, g.adj) == form
        rng = random.Random(67)
        for _ in range(5):
            h = relabeled(g, rng)
            assert compiled.canon_bits(n, h.adj) == form
            assert pure.canon_bits(n, h.adj) == form


class TestCensusInertia:
    """The inertia triples ``census_structure`` reads off a charpoly at -1
    and 0: the compiled Taylor shift in __int128 against the reference,
    ``exactalg.charpoly_inertia``, at the stated bound and beyond it."""

    TOP = 2 ** 63 - 1  # the largest coefficient magnitude the kernel takes

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_agree_on_charpolys_with_repeated_eigenvalues(self, data):
        """Repeating indices of a random symmetric base and adding s to the
        diagonal makes s an eigenvalue of multiplicity at least the number
        of repeats.  The graph is any connected one of the same order: the
        inertia reads only the coefficients."""
        k = data.draw(st.integers(1, 5))
        base = [[0] * k for _ in range(k)]
        for r in range(k):
            for c in range(r, k):
                base[r][c] = base[c][r] = data.draw(st.integers(-3, 3))
        idx = data.draw(st.lists(st.integers(0, k - 1), min_size=1,
                                 max_size=10))
        s = data.draw(st.sampled_from((-1, 0)))
        cp = berkowitz_charpoly(IntMatrix(
            [[base[a][b] + (s if i == j else 0) for j, b in enumerate(idx)]
             for i, a in enumerate(idx)]))
        n = len(idx)
        g6 = bits_to_graph6(n, packed(path(n)))
        got = compiled.census_structure(g6, cp.coeffs)
        assert got == pure.census_structure(g6, cp.coeffs)
        for c, ine in zip((-1, 0), got[2:]):
            assert ine == tuple(charpoly_inertia(cp, c))
            assert ine[1] == root_multiplicity(cp, c)

    def test_backends_agree_at_the_coefficient_bound(self):
        """Degree-10 monic polynomials whose other coefficients are
        +-(2^63 - 1) or 0: the shift's values reach about 2^80, so a 64-bit
        shift would wrap."""
        g6 = bits_to_graph6(10, packed(path(10)))
        rng = random.Random(73)
        patterns = [[1] * 10, [-1] * 10, [(-1) ** k for k in range(10)],
                    [0] * 9 + [-1]]
        patterns += [[rng.choice((-1, 0, 1)) for _ in range(10)]
                     for _ in range(60)]
        for signs in patterns:
            coeffs = tuple(sg * self.TOP for sg in signs) + (1,)
            got = compiled.census_structure(g6, coeffs)
            assert got == pure.census_structure(g6, coeffs), signs
            cp = IntPolynomial(coeffs)
            assert got[2:] == tuple(tuple(charpoly_inertia(cp, c))
                                    for c in (-1, 0))

    @pytest.mark.parametrize("coeffs,exc", [
        ((2 ** 63,) + (0,) * 9 + (1,), OverflowError),
        ((0,) * 5 + (-2 ** 63,) + (0,) * 4 + (1,), OverflowError),
        ((0,) * 10 + (2 ** 63,), OverflowError),
        ((0,) * 10 + (2,), ValueError),
        ((0,) * 10 + (-1,), ValueError),
        ((0,) * 10, ValueError),
        ((0,) * 11 + (1,), ValueError),
    ], ids=["2^63", "-2^63", "leading-2^63", "leading-2", "leading-minus-1",
            "short", "long"])
    def test_rejected_alike(self, coeffs, exc):
        messages = []
        for mod in (compiled, pure):
            with pytest.raises(exc) as info:
                mod.census_structure(bits_to_graph6(10, packed(path(10))),
                                     coeffs)
            assert type(info.value) is exc
            messages.append(str(info.value))
        assert messages[0] == messages[1]


#: the store line of K4 without its family tag, in the strict form, and its
#: record
K4_LINE = "C~\t4,1,4,3,0,0,\t-3,-8,-6,0,1"
K4 = CensusRecord("C~", 4, 1, 4, 3, 0, 0, (-3, -8, -6, 0, 1), ())
#: K4's line with its family tag, which the compiled parser hands back
TAGGED_LINE = K4_LINE.replace(",\t", ",K4\t")
#: characters that random edits of a store line insert or substitute
EDIT_CHARS = "0123456789-+,;\t \r\n?@C~K\x7f\xe9"


class Shouted(CensusRecord):
    """A record type of its own line format, which only its to_line knows."""

    __slots__ = ()

    def to_line(self):
        return super().to_line().lower()


@functools.cache
def store_lines():
    """Store lines of every connected graph of order <= 5 and of K1 at
    order 0, as samples to mutate; a family graph's line comes also without
    its tags, in the strict form, as most lines of a census are."""
    from eccspec import census
    lines = ["?\t0,0,0,0,0,0,\t1"]
    for n in range(1, 6):
        for rec in census.classify(n):
            lines.append(rec.to_line())
            if rec.family_tags:
                lines.append(rec._replace(family_tags=()).to_line())
    return lines


def store_bytes(records):
    """The store text of the records by ``to_line``, the reference."""
    return "".join(rec.to_line() + "\n" for rec in records).encode("ascii")


class TestStoreCodec:
    """The census store codec: the compiled writer gives the bytes of
    ``to_line``, and the compiled parser gives ``from_line``'s record for
    each line it accepts and hands every other line back as it came.  The
    strict form has an empty tag field: a family graph's line is handed
    back, and its record goes to its to_line."""

    def test_census_orders_up_to_8(self, census_records):
        records = [rec for n in range(1, 9) for rec in census_records(n)]
        data = store_bytes(records)
        for mod in (compiled, pure):
            assert mod.format_store(records, CensusRecord) == data
        items, handed = compiled.parse_store(data, CensusRecord)
        tagged = [i for i, rec in enumerate(records) if rec.family_tags]
        assert tagged and handed == tagged
        assert items == [rec.to_line().encode() + b"\n"
                         if rec.family_tags else rec for rec in records]
        assert all(type(items[i]) is CensusRecord
                   for i in range(len(items)) if i not in tagged)
        # they hold no reference cycle, and the collector skips them
        assert not any(map(gc.is_tracked, items))
        lines, handed = pure.parse_store(data, CensusRecord)
        assert b"".join(lines) == data
        assert handed == list(range(len(records)))

    @pytest.mark.parametrize("rec", [
        K4._replace(charpoly=(2 ** 63 - 1, -2 ** 63, 0, 0, 1)),
        K4._replace(charpoly=(2 ** 63, -2 ** 63 - 1, 0, 0, 1)),
        K4._replace(n=True),
        K4._replace(charpoly=[-3, -8, -6, 0, 1]),
        K4._replace(family_tags=["K4"]),
        K4._replace(family_tags=()),
        K4._replace(family_tags=("K4",)),
        K4._replace(family_tags=("A", "B")),
        K4._replace(canon=""),
        Shouted(*K4),
        ("not", "a", "record"),
    ], ids=["int64-bounds", "beyond-int64", "bool", "list-charpoly",
            "list-tags", "no-tags", "tag", "two-tags", "empty-canon",
            "subclass", "plain-tuple"])
    def test_writer_matches_to_line_or_its_error(self, rec):
        """A record the compiled writer does not format itself goes to its
        own to_line, and an object without one fails alike."""
        records = [K4, rec, K4]
        try:
            expected = store_bytes(records)
        except AttributeError:
            for mod in (compiled, pure):
                with pytest.raises(AttributeError):
                    mod.format_store(records, CensusRecord)
            return
        for mod in (compiled, pure):
            assert mod.format_store(records, CensusRecord) == expected

    def test_writer_rejects_non_ascii_alike(self):
        for rec in (K4._replace(canon="C\xe9"),
                    K4._replace(family_tags=("K₄",))):
            for mod in (compiled, pure):
                with pytest.raises(UnicodeEncodeError):
                    mod.format_store([K4, rec], CensusRecord)

    @pytest.mark.parametrize("line", [
        "", "   ", "\r", "\t",
        K4_LINE + "\r",
        K4_LINE.replace("\t4,", "\t+4,"),
        K4_LINE.replace(",1,4,", ", 1 ,4,"),
        K4_LINE.replace("-8", "-08"),
        K4_LINE.replace(",0,1", ",-0,1"),
        K4_LINE.replace("-3,", f"{-10 ** 18},"),
        TAGGED_LINE.replace("K4", ";K4"),
        TAGGED_LINE.replace("K4", "K 4"),
        K4_LINE.replace("C~", "C\x7f"),
        K4_LINE + "\t",
        K4_LINE + ",",
        TAGGED_LINE.replace("K4", "K\xe9"),
        "I" + "?" * 9 + "\t10,1,0,0,0,0,\t" + "0," * 10 + "1",
        TAGGED_LINE,
        TAGGED_LINE.replace("K4", "A;B"),
    ], ids=["empty", "spaces", "cr", "tab", "crlf", "plus", "spaced-int",
            "leading-zero", "minus-zero", "19-digits", "empty-tag",
            "spaced-tag", "canon-del", "trailing-tab", "trailing-comma",
            "non-ascii", "canon-length", "tagged", "two-tags"])
    def test_parser_hands_back_lines_outside_the_strict_form(self, line):
        raw = (line + "\n").encode("latin-1")
        data = (K4_LINE + "\n").encode() + raw + K4_LINE.encode()
        assert compiled.parse_store(data, CensusRecord) == \
            ([K4, raw, K4], [1])
        assert pure.parse_store(data, CensusRecord) == \
            ([(K4_LINE + "\n").encode(), raw, K4_LINE.encode()], [0, 1, 2])

    @staticmethod
    def empty_graph_line(n):
        """The store line of the empty graph on n vertices, in the strict
        form: the right canon length and a monic charpoly of degree n."""
        nbytes = 1 + (n * (n - 1) // 2 + 5) // 6
        return (chr(n + 63) + "?" * (nbytes - 1) + f"\t{n},1,0,0,0,0,\t"
                + "0," * n + "1")

    def test_parser_takes_the_largest_order_it_accepts(self, tmp_path):
        """n = 10, the census bound, is the last order the strict form
        takes; a line of order 11 is handed back, and ``read_store`` parses
        it to from_line's record."""
        line = self.empty_graph_line(ENUMERATION_LIMIT)
        assert compiled.parse_store(line.encode(), CensusRecord) == \
            ([CensusRecord.from_line(line)], [])
        line = self.empty_graph_line(ENUMERATION_LIMIT + 1)
        assert compiled.parse_store(line.encode(), CensusRecord) == \
            ([line.encode()], [0])
        path = tmp_path / "store.tsv"
        path.write_text(line + "\n", encoding="ascii")
        assert read_store(str(path)) == [CensusRecord.from_line(line)]

    def test_parser_needs_a_tuple_type(self):
        for mod in (compiled, pure):
            with pytest.raises(TypeError, match="tuple subclass"):
                mod.parse_store(b"", dict)
            assert mod.parse_store(b"", CensusRecord) == ([], [])

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_random_lines(self, data):
        """Store lines with random edits: each line the compiled parser
        accepts is a line from_line parses, to an equal record, and every
        other line comes back as the pure parser splits it."""
        chars = list(data.draw(st.sampled_from(store_lines())))
        for _ in range(data.draw(st.integers(0, 3))):
            pos = data.draw(st.integers(0, len(chars)))
            edit = data.draw(st.sampled_from(("insert", "delete", "replace")))
            char = data.draw(st.sampled_from(EDIT_CHARS))
            if edit == "insert":
                chars.insert(pos, char)
            elif pos < len(chars):
                chars[pos:pos + 1] = [char] if edit == "replace" else []
        raw = "".join(chars).encode("latin-1")
        items, handed = compiled.parse_store(raw, CensusRecord)
        lines = pure.parse_store(raw, CensusRecord)[0]
        assert len(items) == len(lines)
        for i, (item, line) in enumerate(zip(items, lines)):
            if i in handed:
                assert item == line
            else:
                assert item == CensusRecord.from_line(line.decode("ascii"))


def relabeled(g, rng):
    """g under a uniformly random vertex permutation."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u in range(g.n)
                       for v in range(u + 1, g.n) if (g.adj[u] >> v) & 1])


def degree_preserving_switch(g, rng):
    """g with edges ab, cd replaced by ad, cb where both are non-edges: the
    same degree sequence, often not isomorphic; g itself if no switch is
    found."""
    edges = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
             if (g.adj[u] >> v) & 1]
    for _ in range(50):
        if len(edges) < 2:
            break
        (a, b), (c, d) = rng.sample(edges, 2)
        if rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4 or (g.adj[a] >> d) & 1 or (g.adj[c] >> b) & 1:
            continue
        kept = [e for e in edges if e not in ((a, b), (b, a), (c, d), (d, c))]
        return Graph(g.n, kept + [(a, d), (c, b)])
    return g


def to_networkx(g):
    import networkx as nx
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                     if (g.adj[u] >> v) & 1)
    return h


def rook_graph(k):
    """The k x k rook's graph: cells adjacent iff in one row or column."""
    return Graph(k * k, [(u, v) for u in range(k * k)
                         for v in range(u + 1, k * k)
                         if u // k == v // k or u % k == v % k])


def generalized_petersen(k, j):
    """GP(k, j): outer k-cycle, spokes, inner star polygon {k/j}."""
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    edges += [(k + i, k + (i + j) % k) for i in range(k)]
    return Graph(2 * k, edges)


def complement(g):
    return Graph(g.n, [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                       if not (g.adj[u] >> v) & 1])


def hypercube(d):
    n = 1 << d
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                     if bin(u ^ v).count("1") == 1])


#: hard inputs for canonical labeling at the orders it takes: strongly
#: regular, vertex-transitive and sparse symmetric graphs, where colour
#: refinement splits nothing (Paley(9) is the 3 x 3 rook's graph)
CANON_HARD = {
    "Petersen": generalized_petersen(5, 2),
    "Petersen-complement": complement(generalized_petersen(5, 2)),
    "Paley(9)": rook_graph(3),
    "Q3": hypercube(3),
    "C10": cycle(10),
    "K5,5": complete_multipartite((5, 5)),
}


class TestCanonIsomorphismOracle:
    """canon_bits forms are equal exactly when networkx finds the graphs
    isomorphic."""

    def check_pairs(self, mod, max_n, trials, seed):
        import networkx as nx
        rng = random.Random(seed)
        seen = {True: 0, False: 0}
        for _ in range(trials):
            n = rng.randint(1, max_n)
            g = random_graph(rng, n, rng.uniform(0.1, 0.6))
            h = g if rng.random() < 0.4 else degree_preserving_switch(g, rng)
            h = relabeled(h, rng)
            iso = nx.is_isomorphic(to_networkx(g), to_networkx(h))
            same = mod.canon_bits(g.n, g.adj) == mod.canon_bits(h.n, h.adj)
            assert same == iso, (n, g.adj, h.adj)
            seen[iso] += 1
        assert seen[True] and seen[False]

    def test_compiled_up_to_order_10(self):
        self.check_pairs(compiled, ENUMERATION_LIMIT, 300, 71)

    def test_pure_up_to_order_9(self):
        self.check_pairs(pure, 9, 150, 72)

    def test_petersen_and_pentagonal_prism_differ(self):
        # both cubic on 10 vertices, so colour refinement splits neither
        import networkx as nx
        a, b = generalized_petersen(5, 2), generalized_petersen(5, 1)
        assert [bin(r).count("1") for r in a.adj + b.adj] == [3] * 20
        assert not nx.is_isomorphic(to_networkx(a), to_networkx(b))
        for mod in (compiled, pure):
            assert mod.canon_bits(10, a.adj) != mod.canon_bits(10, b.adj)

    @pytest.mark.parametrize("name", sorted(CANON_HARD))
    def test_form_survives_relabeling(self, name):
        g = CANON_HARD[name]
        form = compiled.canon_bits(g.n, g.adj)
        rng = random.Random(73)
        for _ in range(3):
            h = relabeled(g, rng)
            assert compiled.canon_bits(h.n, h.adj) == form


@st.composite
def relabeled_pairs(draw, max_n=10):
    """(n, adjacency rows of a graph on n <= max_n vertices, the same graph
    under a vertex permutation)."""
    n = draw(st.integers(1, max_n))
    g = Graph.from_adj(pure.lower_triangle_rows(
        n, draw(st.integers(0, 2 ** (n * (n - 1) // 2) - 1))))
    perm = draw(st.permutations(range(n)))
    h = Graph(n, [(perm[u], perm[v]) for u, v in g.edges()])
    return n, g.adj, h.adj


@settings(max_examples=200, deadline=None)
@given(relabeled_pairs())
def test_canon_bits_invariant_under_relabeling(case):
    """Both backends give a relabeled graph the form of the original, and
    they give the same form."""
    n, g_adj, h_adj = case
    form = compiled.canon_bits(n, g_adj)
    assert compiled.canon_bits(n, h_adj) == form
    assert pure.canon_bits(n, g_adj) == form
    assert pure.canon_bits(n, h_adj) == form


def spider(legs):
    """A center with one pendant path of each given length."""
    edges, nxt = [], 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return Graph(nxt, edges)


def lollipop(clique, tail):
    """K_clique with a path of `tail` further vertices hung from vertex 0."""
    n = clique + tail
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    edges += [(0 if i == clique else i - 1, i) for i in range(clique, n)]
    return Graph(n, edges)


def barbell(clique, bridge):
    """Two copies of K_clique joined by a path through `bridge` vertices."""
    n = 2 * clique + bridge
    edges = [(u, v) for base in (0, clique + bridge)
             for u in range(base, base + clique)
             for v in range(u + 1, base + clique)]
    chain = [clique - 1] + list(range(clique, clique + bridge)) + \
        [clique + bridge]
    edges += list(zip(chain, chain[1:]))
    return Graph(n, edges)


#: n=10 inputs at the extremes of the modular bound of census_invariants in
#: _kernels.c, which reads its charpoly off E modulo the one prime 2^56 - 5
#: and its multiplicities, by a Taylor shift at -1, -2 and 0, off that
#: charpoly: the largest diameter (P10), the cycle, the densest graph,
#: the star, and long spiders, a lollipop and barbells whose eccentricity
#: matrices carry large entries in many rows
EXTREME_N10 = {
    "P10": path(10),
    "C10": cycle(10),
    "K10": complete(10),
    "K1,9": complete_multipartite((1, 9)),
    "S(3,3,3)": spider((3, 3, 3)),
    "S(2,2,2,2,1)": spider((2, 2, 2, 2, 1)),
    "lollipop(4,6)": lollipop(4, 6),
    "barbell(4,2)": barbell(4, 2),
    "barbell(3,4)": barbell(3, 4),
}


@pytest.mark.parametrize("name", sorted(EXTREME_N10))
def test_modular_bound_inputs_match_bigint_route(name):
    g = EXTREME_N10[name]
    assert g.n == 10 and is_connected(g)
    got = stats(compiled, g)
    assert got == stats(pure, g)
    diam, v1, m1, m2, m0, coeffs = got
    e = ecc_matrix(g)
    assert diam == bfs_metrics(g).diam
    for xi, m in ((-1, m1), (-2, m2), (0, m0)):
        assert m == e.n - bareiss_rank(shifted(e, 1, xi))
    assert list(coeffs) == berkowitz_charpoly(e).ascending_list()


class TestKernelVsLibrary:
    """census_records (charpoly modulo the census prime, multiplicities
    read off it) must match the bigint library route."""

    def test_stats_match_library_on_random_connected(self):
        rng = random.Random(53)
        count = 0
        while count < 120:
            g = random_graph(rng, rng.randint(2, 10), rng.uniform(0.2, 0.9))
            if not is_connected(g):
                continue
            count += 1
            diam, v1, m1, m2, m0, coeffs = stats(kernels, g)
            met = bfs_metrics(g)
            e = ecc_matrix(g)
            assert diam == met.diam
            assert v1 == met.ecc.count(1)
            for xi, m in ((-1, m1), (-2, m2), (0, m0)):
                assert m == e.n - bareiss_rank(shifted(e, 1, xi))
            assert list(coeffs) == berkowitz_charpoly(e).ascending_list()

    def test_stats_match_pure_on_random_connected_n10(self):
        rng = random.Random(79)
        count = 0
        while count < 1000:
            g = random_graph(rng, 10, rng.uniform(0.15, 0.9))
            if not is_connected(g):
                continue
            count += 1
            assert stats(compiled, g) == stats(pure, g), g.adj

    def test_stats_reject_disconnected(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            stats(kernels, g)

    def test_stats_reject_oversize(self):
        with pytest.raises(ValueError):
            compiled.census_records(11, [0], CensusRecord)

    def test_canon_rejects_oversize(self):
        with pytest.raises(ValueError):
            compiled.canon_bits(17, [0] * 17)


def sympy_charpoly(rows):
    """Ascending coefficients of det(xI - M) by sympy, the independent
    oracle."""
    import sympy
    if not rows:
        return (1,)
    return tuple(int(a) for a in reversed(
        sympy.Matrix(rows).charpoly().all_coeffs()))


def random_rows(rng, n, lo, hi, symmetric):
    rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    if symmetric:
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
    return rows


def lifted(rows):
    """Ascending coefficients from exactalg.charpoly, the multimodular driver
    over the active backend's charpoly_mod."""
    return exactalg.charpoly(IntMatrix(rows)).coeffs


INT64_TOP = 2 ** 63


def check_charpoly(rows, oracle=True):
    """For rows within int64, charpoly_mod agrees residue by residue on both
    backends (compiled Hessenberg reduction, pure Berkowitz), over the
    primes exactalg.charpoly takes and the small primes 3, 5 and 7, at which
    zero pivots, row and column swaps and zero subdiagonal entries are
    common; both raise OverflowError on any other rows, which
    exactalg.charpoly reduces modulo each prime itself.  Its lift is the
    pure Berkowitz recurrence (and sympy)."""
    want = berkowitz_charpoly(IntMatrix(rows)).coeffs
    n = len(want) - 1
    primes = exactalg._charpoly_primes(n, max(
        (sum(map(abs, row)) for row in rows), default=0))
    moduli = primes + (3, 5, 7)
    if all(-INT64_TOP <= x < INT64_TOP for row in rows for x in row):
        residues = compiled.charpoly_mod(rows, moduli)
        assert residues == pure.charpoly_mod(rows, moduli)
        assert residues == tuple(tuple(c % p for c in want) for p in moduli)
    else:
        for mod in (compiled, pure):
            with pytest.raises(OverflowError):
                mod.charpoly_mod(rows, moduli)
    got = lifted(rows)
    assert got == want
    if oracle:
        assert got == sympy_charpoly(rows)
    return got


class TestCharpoly:
    """The modular charpoly kernels against each other, and the multimodular
    driver over them against the pure Berkowitz recurrence and sympy."""

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_random_matrices_up_to_order_40(self, symmetric):
        rng = random.Random(61 + symmetric)
        for n in list(range(1, 13)) + [16, 20, 27, 33, 40]:
            check_charpoly(random_rows(rng, n, -9, 9, symmetric))

    @pytest.mark.parametrize("n", [16, 20, 33, 40])
    def test_family_eccentricity_matrices(self, n):
        for name, g in theorem1_families(n):
            check_charpoly(ecc_matrix(g).rows, oracle=n <= 20)

    def test_quotient_matrices(self):
        rng = random.Random(67)
        asymmetric = 0
        for _ in range(60):
            l = rng.randint(1, 6)
            sizes = tuple(rng.randint(1, 9) for _ in range(l))
            s = [[0] * l for _ in range(l)]
            for i in range(l):
                s[i][i] = rng.randint(0, 3)
                for j in range(i + 1, l):
                    s[i][j] = s[j][i] = rng.randint(0, 3)
            p = tuple(rng.randint(-3, 3) for _ in range(l))
            q = quotient(BlockSpec(sizes, tuple(map(tuple, s)), p)).q
            asymmetric += not q.is_symmetric()
            check_charpoly(q.rows)
        assert asymmetric > 0

    def test_orders_0_and_1(self):
        assert check_charpoly([]) == (1,)
        assert check_charpoly(()) == (1,)
        for a in (0, 5, -7, 2 ** 70, -(2 ** 70)):
            assert check_charpoly([[a]]) == (-a, 1)

    def test_order_65(self):
        rng = random.Random(71)
        check_charpoly(random_rows(rng, 65, -3, 3, False), oracle=False)
        check_charpoly(random_rows(rng, 65, 0, 4, True), oracle=False)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_entries_of_2_to_the_70(self, symmetric):
        rng = random.Random(73 + symmetric)
        big = 2 ** 70
        for n in (2, 3, 6, 10):
            rows = random_rows(rng, n, -3, 3, symmetric)
            for i in range(n):
                for j in range(n):
                    if rng.random() < 0.5:
                        rows[i][j] = rng.choice((big, -big))
                        if symmetric:
                            rows[j][i] = rows[i][j]
            check_charpoly(rows)
        check_charpoly([[big] * 8 for _ in range(8)])
        check_charpoly([[-big, 2 ** 63, -(2 ** 63)], [2 ** 64, 1, 0],
                        [big, big, big]])

    def test_word_bound(self):
        """Entries at the int64 limits and past them (2^63 and 2^70, which
        exactalg.charpoly reduces modulo each prime before the kernel), at
        the first primes exactalg.charpoly takes, the largest of which,
        2^56 - 5, is the census prime."""
        assert exactalg._charpoly_primes(1, 1)[0] == (1 << 56) - 5
        top = 2 ** 63 - 1
        check_charpoly([[top, -top], [-top, top]])
        check_charpoly([[top, -top, 2 ** 63], [-(2 ** 63), 2 ** 70, top],
                        [-(2 ** 70), -top, -(2 ** 63)]])
        rng = random.Random(83)
        for n in (4, 9, 16):
            check_charpoly([[rng.choice((top, -top, 2 ** 63, -(2 ** 70), 0, 1))
                             for _ in range(n)] for _ in range(n)])

    def test_block_diagonal(self):
        """A reducible matrix: its Hessenberg form has a zero subdiagonal
        entry between the blocks, where the recurrence stops summing."""
        rng = random.Random(89)
        for sizes in ((3, 4), (1, 5, 2, 6), (7, 7, 7)):
            n = sum(sizes)
            rows = [[0] * n for _ in range(n)]
            start = 0
            for size in sizes:
                for i in range(start, start + size):
                    for j in range(start, start + size):
                        rows[i][j] = rng.randint(-9, 9)
                start += size
            check_charpoly(rows)

    @pytest.mark.parametrize("n", [3, 8, 17, 30])
    def test_swap_at_every_column(self, n):
        """A dense upper Hessenberg H with a nonzero subdiagonal, conjugated
        by the transpositions (c+1, r_c), r_c > c+1, for c = n-3 down to 0.
        Column c of the matrix the reduction reaches at step c then has one
        nonzero entry below the diagonal, in row r_c (checked by replaying
        the swaps), so the reduction swaps at every column and eliminates
        nothing, and the charpoly is that of H."""
        rng = random.Random(97 + n)
        h = [[rng.randint(-9, 9) if i <= j else 0 for j in range(n)]
             for i in range(n)]
        for c in range(n - 1):
            h[c + 1][c] = rng.choice((-1, 1)) * rng.randint(1, 9)

        def conjugate(rows, i, j):
            rows[i], rows[j] = rows[j], rows[i]
            for row in rows:
                row[i], row[j] = row[j], row[i]

        rows = [row[:] for row in h]
        for c in range(n - 3, -1, -1):
            conjugate(rows, c + 1, rng.randint(c + 2, n - 1))
        replay = [row[:] for row in rows]
        for c in range(n - 2):
            below = [r for r in range(c + 1, n) if replay[r][c]]
            assert len(below) == 1 and below[0] > c + 1
            conjugate(replay, c + 1, below[0])
        assert replay == h
        assert check_charpoly(rows, oracle=n <= 17) == \
            berkowitz_charpoly(IntMatrix(h)).coeffs

    @pytest.mark.parametrize("modulus,pivot", [(9, 3), (15, 5), (15, 3)])
    def test_composite_modulus_with_non_unit_pivot_raises(self, modulus,
                                                          pivot):
        """The compiled reduction divides by its pivots, so a pivot that is
        not a unit modulo a composite modulus raises rather than give a
        wrong residue; the pure Berkowitz kernel is division-free and
        exact there."""
        rows = [[1, 2, 4], [pivot, 0, 1], [7, 1, 3]]
        with pytest.raises(ValueError,
                           match=f"not a unit modulo {modulus};"):
            compiled.charpoly_mod(rows, (7, modulus))
        want = berkowitz_charpoly(IntMatrix(rows)).coeffs
        assert pure.charpoly_mod(rows, (modulus,)) == \
            (tuple(c % modulus for c in want),)

    def test_composite_modulus_with_unit_pivots_is_exact(self):
        rows = [[1, 2, 4], [2, 0, 1], [7, 1, 3]]
        want = berkowitz_charpoly(IntMatrix(rows)).coeffs
        moduli = (9, 15, (1 << 56) - 1)
        assert compiled.charpoly_mod(rows, moduli) == \
            tuple(tuple(c % p for c in want) for p in moduli)

    def test_entries_within_int64_only(self):
        """Both backends take entries at the int64 limits and raise
        OverflowError one past them."""
        for mod in (compiled, pure):
            for a in (INT64_TOP - 1, -INT64_TOP):
                assert mod.charpoly_mod([[a]], (7, 11)) == \
                    ((-a % 7, 1), (-a % 11, 1))
            for a in (INT64_TOP, -INT64_TOP - 1):
                with pytest.raises(OverflowError, match="within int64"):
                    mod.charpoly_mod([[1, a], [0, 1]], (7,))

    def test_rejects_non_square_alike(self):
        for mod in (compiled, pure):
            with pytest.raises(ValueError, match="matrix must be square"):
                mod.charpoly_mod([[1, 2], [3]], (7,))
            with pytest.raises(ValueError, match="matrix must be square"):
                mod.charpoly_mod([[1, 2]], (7,))

    @pytest.mark.parametrize("bad", [4, 2, 1, 0, 1 << 56, (1 << 56) + 1,
                                     1 << 70, -7, 7.0, "7", None])
    def test_rejects_bad_moduli_alike(self, bad):
        for mod in (compiled, pure):
            with pytest.raises(ValueError) as err:
                mod.charpoly_mod([[1, 2], [3, 4]], (7, bad))
            assert str(err.value) == \
                "charpoly_mod needs odd int moduli 3 <= p < 2^56"


def iroot(x, n):
    """Largest r with r**n <= x."""
    r = int(round(x ** (1.0 / n)))
    while r ** n > x:
        r -= 1
    while (r + 1) ** n <= x:
        r += 1
    return r


def first_primes(k):
    """The first k primes of the fixed sequence exactalg.charpoly draws
    from (any n = 1 matrix with R >= 2^(56 k) takes more than k)."""
    primes = exactalg._charpoly_primes(1, 1 << (56 * k))
    assert len(primes) > k
    return primes[:k]


class TestCharpolyCrtBound:
    """exactalg.charpoly lifts residues modulo the fewest primes whose
    product exceeds 2 (1+R)^n, R the largest absolute row sum, which bounds
    twice every coefficient; diag(R, ..., R) has the coefficients
    C(n,k) (-R)^(n-k), the largest the bound allows up to the factor
    (1+1/R)^n."""

    def test_primes_are_distinct_primes_below_2_to_the_56(self):
        import sympy
        primes = first_primes(8)
        assert len(set(primes)) == 8
        assert all(p < 1 << 56 and sympy.isprime(p) for p in primes)

    @pytest.mark.parametrize("n,r", [(0, 0), (1, 0), (1, 7), (2, 3),
                                     (10, 9), (40, 42), (65, 2 ** 70)])
    def test_prime_count_follows_the_rule(self, n, r):
        primes = exactalg._charpoly_primes(n, r)
        assert primes == first_primes(len(primes))
        assert prod(primes) > 2 * (1 + r) ** n >= prod(primes[:-1])

    @pytest.mark.parametrize("n,r", [(1, 5), (3, 1000), (12, 2 ** 70),
                                     (40, 42), (40, 2 ** 20)])
    def test_diagonal_matrix(self, n, r):
        rows = [[r * (i == j) for j in range(n)] for i in range(n)]
        assert lifted(rows) == tuple(
            comb(n, k) * (-r) ** (n - k) for k in range(n + 1))

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("n", [1, 2, 5, 40])
    def test_one_prime_fewer_would_be_wrong(self, n, k):
        """diag(R) whose constant term R^n exceeds half the product of the
        first k-1 primes: the rule takes exactly k primes, and with k-1 the
        symmetric residue of R^n would be wrong."""
        head = prod(first_primes(k - 1))
        r = iroot(head // 2, n) + 1
        assert 2 * r ** n > head
        assert len(exactalg._charpoly_primes(n, r)) == k
        rows = [[r * (i == j) for j in range(n)] for i in range(n)]
        assert lifted(rows) == tuple(
            comb(n, j) * (-r) ** (n - j) for j in range(n + 1))
