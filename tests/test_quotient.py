"""Equitable quotient machinery for J/I block matrices."""

import random

import pytest

from eccspec.eccentricity import ecc_matrix
from eccspec.exactalg import IntMatrix, berkowitz_charpoly
from eccspec.graphs import (
    CLIQUE_JOINS,
    H_DESCRIPTORS,
    clique_joins,
    complete,
    empty_graph,
    join,
    join_clique_with,
)
from eccspec.quotient import (
    BlockSpec,
    quotient,
    realize,
    spec_charpoly,
    verify_spectrum_identity,
)


def clique_join_spec(r, desc):
    """BlockSpec of E(K_r v H), H the named descriptor: the clique as one
    cell (s = 1, p = -1), then every H vertex as a singleton cell whose
    entries are read off ``ecc_matrix``.  It realizes E entrywise because
    ``join_clique_with`` puts the clique first and H in its own order."""
    e = ecc_matrix(join_clique_with(r, desc))
    hv = range(r, e.n)
    s = [[1] * (1 + len(hv))] + [[1] + [e[u, v] for v in hv] for u in hv]
    return BlockSpec((r,) + (1,) * len(hv), tuple(map(tuple, s)),
                     (-1,) + (0,) * len(hv))


class TestRealize:
    def test_single_block_is_complete_graph_matrix(self):
        spec = BlockSpec((4,), ((1,),), (-1,))
        assert realize(spec) == ecc_matrix(complete(4))

    def test_split_graph_block_form(self):
        spec = BlockSpec((4, 2), ((1, 1), (1, 2)), (-1, -2))
        assert realize(spec) == ecc_matrix(join(complete(4),
                                                empty_graph(2)))

    def test_pure_off_diagonal(self):
        spec = BlockSpec((1, 1), ((0, 3), (3, 0)), (0, 0))
        assert realize(spec) == IntMatrix([[0, 3], [3, 0]])

    def test_rejects_asymmetric_s(self):
        with pytest.raises(ValueError):
            BlockSpec((1, 1), ((0, 1), (2, 0)), (0, 0))

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            BlockSpec((0, 2), ((0, 0), (0, 0)), (0, 0))

    def test_rejects_s_not_l_by_l(self):
        with pytest.raises(ValueError, match="s must be l x l"):
            BlockSpec((1, 1), ((0, 1),), (0, 0))
        with pytest.raises(ValueError, match="s must be l x l"):
            BlockSpec((1, 1), ((0, 1), (1,)), (0, 0))

    def test_rejects_p_of_wrong_length(self):
        with pytest.raises(ValueError, match="one entry per block"):
            BlockSpec((1, 1), ((0, 1), (1, 0)), (0,))


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
        spec = BlockSpec((5, 4), ((1, 1), (1, 2)), (-1, -2))
        assert realize(spec) == ecc_matrix(join_clique_with(5, "4K1"))
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
                spec = clique_join_spec(n - 4, desc)
                assert verify_spectrum_identity(spec), (n, desc)
            spec = clique_join_spec(n - 5, "C5")
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
    """Block specs of the clique joins K_r v H, built from H directly.  E of
    K_r v H depends on r only through the clique cell: clique vertices have
    eccentricity 1, an H vertex has eccentricity 1 if it is universal in H
    and 2 otherwise, and H distances are 1 or 2."""

    @pytest.mark.parametrize("r", range(1, 7))
    @pytest.mark.parametrize("desc", sorted(H_DESCRIPTORS))
    def test_clique_join_spec_matches_ecc_matrix(self, desc, r):
        spec = clique_join_spec(r, desc)
        e = ecc_matrix(join_clique_with(r, desc))
        assert realize(spec) == e
        assert spec_charpoly(spec) == berkowitz_charpoly(e)

    def test_complete_graph(self):
        spec = BlockSpec((6,), ((1,),), (-1,))
        assert realize(spec) == ecc_matrix(complete(6))
        assert spec_charpoly(spec) == berkowitz_charpoly(ecc_matrix(
            complete(6)))

    def test_c5_tail_refines_to_singletons(self):
        spec = clique_join_spec(11, "C5")
        assert spec.sizes == (11, 1, 1, 1, 1, 1)
        assert realize(spec) == ecc_matrix(join_clique_with(11, "C5"))

    def test_clique_and_isolated_cells(self):
        # 2K1uK2: the two isolated H vertices sit at distance 2 (entry 2),
        # the K2 edge is shorter than both eccentricities (entry 0)
        spec = clique_join_spec(5, "2K1uK2")
        assert spec.sizes == (5, 1, 1, 1, 1)
        assert spec.p == (-1, 0, 0, 0, 0)
        assert spec.s[1:] == ((1, 0, 2, 2, 2), (1, 2, 0, 2, 2),
                              (1, 2, 2, 0, 0), (1, 2, 2, 0, 0))

    def test_detected_spec_charpoly_matches_direct(self):
        # the premise at clique sizes well past the parametrized range
        for desc in sorted(H_DESCRIPTORS):
            for r in (11, 16):
                e = ecc_matrix(join_clique_with(r, desc))
                spec = clique_join_spec(r, desc)
                assert realize(spec) == e, (desc, r)
                assert spec_charpoly(spec) == berkowitz_charpoly(e), (desc, r)

    def test_family_builders_realize_entrywise(self):
        # the catalog's family graphs lay vertices out as the spec does
        n = 16
        for i, joins in CLIQUE_JOINS.items():
            fams = clique_joins(i, n)
            for (k, desc), (_, g) in zip(joins, fams):
                assert realize(clique_join_spec(n - k, desc)) == \
                    ecc_matrix(g), desc


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
