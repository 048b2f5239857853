"""Equitable quotient machinery for J/I block matrices."""

import random

import pytest

from eccspec.eccentricity import ecc_matrix
from eccspec.exactalg import IntMatrix, berkowitz_charpoly
from eccspec.graphs import (
    Graph,
    complete,
    cycle,
    empty_graph,
    join,
    join_clique_with,
    path,
)
from eccspec.quotient import (
    BlockSpec,
    detect_join_blockspec,
    quotient,
    realize,
    spec_charpoly,
    verify_spectrum_identity,
)


class TestRealize:
    def test_single_block_is_complete_graph_matrix(self):
        spec = BlockSpec((4,), ((1,),), (-1,))
        assert realize(spec) == ecc_matrix(complete(4)).m

    def test_split_graph_block_form(self):
        spec = BlockSpec((4, 2), ((1, 1), (1, 2)), (-1, -2))
        assert realize(spec) == ecc_matrix(join(complete(4),
                                                empty_graph(2))).m

    def test_pure_off_diagonal(self):
        spec = BlockSpec((1, 1), ((0, 3), (3, 0)), (0, 0))
        assert realize(spec) == IntMatrix([[0, 3], [3, 0]])

    def test_rejects_asymmetric_s(self):
        with pytest.raises(ValueError):
            BlockSpec((1, 1), ((0, 1), (2, 0)), (0, 0))

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            BlockSpec((0, 2), ((0, 0), (0, 0)), (0, 0))


class TestQuotient:
    def test_split_graph_quotient(self):
        spec = BlockSpec((4, 2), ((1, 1), (1, 2)), (-1, -2))
        res = quotient(spec)
        assert res.q.rows == ((3, 2), (4, 2))
        assert res.leftover == ((-1, 3), (-2, 1))

    def test_single_block(self):
        res = quotient(BlockSpec((5,), ((2,),), (3,)))
        assert res.q.rows == ((13,),)
        assert res.leftover == ((3, 4),)

    def test_k5_join_4k1(self):
        spec = detect_join_blockspec(join_clique_with(5, "4K1"))
        res = quotient(spec)
        assert res.q.rows == ((4, 4), (5, 6))
        assert res.leftover == ((-1, 4), (-2, 3))

    def test_leftover_size(self):
        rng = random.Random(2)
        for _ in range(50):
            l = rng.randint(1, 4)
            sizes = tuple(rng.randint(1, 5) for _ in range(l))
            s = [[rng.randint(0, 3)] * l for _ in range(l)]
            for i in range(l):
                for j in range(l):
                    s[j][i] = s[i][j]
            spec = BlockSpec(sizes, tuple(map(tuple, s)),
                             tuple(rng.randint(-3, 3) for _ in range(l)))
            res = quotient(spec)
            assert sum(m for _, m in res.leftover) == sum(sizes) - l


class TestSpectrumIdentity:
    def test_trivial_single_block(self):
        assert verify_spectrum_identity(BlockSpec((1,), ((7,),), (0,)))

    def test_table_specs_at_several_orders(self):
        for n in range(16, 21):
            for desc in ("4K1", "2K1uK2", "2K2", "C4"):
                spec = detect_join_blockspec(join_clique_with(n - 4, desc))
                assert verify_spectrum_identity(spec), (n, desc)
            spec = detect_join_blockspec(join_clique_with(n - 5, "C5"))
            assert verify_spectrum_identity(spec), n

    def test_random_specs(self):
        rng = random.Random(3)
        for _ in range(200):
            l = rng.randint(1, 4)
            sizes = tuple(rng.randint(1, 5) for _ in range(l))
            s = [[0] * l for _ in range(l)]
            for i in range(l):
                s[i][i] = rng.randint(0, 3)
                for j in range(i + 1, l):
                    s[i][j] = s[j][i] = rng.randint(0, 3)
            p = tuple(rng.randint(-3, 3) for _ in range(l))
            spec = BlockSpec(sizes, tuple(map(tuple, s)), p)
            assert verify_spectrum_identity(spec), spec.to_text()


class TestDetect:
    def test_complete_graph(self):
        spec = detect_join_blockspec(complete(6))
        assert spec.sizes == (6,) and spec.p == (-1,)

    def test_path_not_applicable(self):
        assert detect_join_blockspec(path(5)) is None

    def test_no_universal_vertex_not_applicable(self):
        assert detect_join_blockspec(cycle(4)) is None

    def test_c5_tail_refines_to_singletons(self):
        spec = detect_join_blockspec(join_clique_with(11, "C5"))
        assert spec.sizes == (11, 1, 1, 1, 1, 1)
        assert realize(spec) == ecc_matrix(join_clique_with(11, "C5")).m

    def test_clique_and_isolated_cells(self):
        g = join_clique_with(5, "2K1uK2")
        spec = detect_join_blockspec(g)
        assert spec.sizes == (5, 2, 2)
        assert spec.p == (-1, -2, 0)
        assert realize(spec) == ecc_matrix(g).m

    def test_detected_spec_charpoly_matches_direct(self):
        for desc in ("4K1", "3K1", "2K2", "K3uK1", "C4", "C5", "H1"):
            r = 5 if desc not in ("C5", "H1") else 6
            g = join_clique_with(r, desc)
            spec = detect_join_blockspec(g)
            assert spec is not None
            assert spec_charpoly(spec) == berkowitz_charpoly(ecc_matrix(g).m)

    def test_family_builders_realize_entrywise(self):
        # clique-first builders lay vertices out cell-contiguously, so the
        # detected spec realizes the eccentricity matrix literally
        for desc in ("4K1", "2K1uK2", "P3uK1", "2K2", "K3uK1", "C4", "C5",
                     "H1", "3K1", "K2uK1"):
            g = join_clique_with(6, desc)
            spec = detect_join_blockspec(g)
            assert realize(spec) == ecc_matrix(g).m, desc

    def test_detect_on_scrambled_vertex_order(self):
        import random
        rng = random.Random(7)
        g = join_clique_with(5, "K3uK1")
        perm = list(range(g.n))
        rng.shuffle(perm)
        spec = detect_join_blockspec(
            Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()]))
        assert spec is not None
        assert spec_charpoly(spec) == berkowitz_charpoly(ecc_matrix(g).m)


def spec_from_text(text):
    """The BlockSpec whose BlockSpec.to_text form is text,
    'l; n1 .. nl; s row-major; p1 .. pl'."""
    chunks = [c.strip() for c in text.split(";")]
    if len(chunks) != 4:
        raise ValueError("expected 'l; sizes; s matrix; p vector'")
    l = int(chunks[0])
    sizes = tuple(int(x) for x in chunks[1].split())
    flat = [int(x) for x in chunks[2].split()]
    p = tuple(int(x) for x in chunks[3].split())
    if len(sizes) != l or len(flat) != l * l or len(p) != l:
        raise ValueError("inconsistent block counts in spec text")
    s = tuple(tuple(flat[i * l + j] for j in range(l)) for i in range(l))
    return BlockSpec(sizes, s, p)


class TestTextForm:
    def test_round_trip(self):
        spec = BlockSpec((4, 2), ((1, 1), (1, 2)), (-1, -2))
        assert spec_from_text(spec.to_text()) == spec

    def test_fixture_text(self):
        spec = spec_from_text("2; 4 2; 1 1 1 2; -1 -2")
        assert spec.sizes == (4, 2)
        assert spec.to_text() == "2; 4 2; 1 1 1 2; -1 -2"

    @pytest.mark.parametrize("bad", [
        "2; 4 2; 1 1 1 2",            # missing p
        "3; 4 2; 1 1 1 2; -1 -2",     # l mismatch
        "2; 4 2; 1 1 1; -1 -2",       # short s
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            spec_from_text(bad)
