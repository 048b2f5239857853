"""Census: canonical forms, isomorph-free enumeration, classification."""

import hashlib
import itertools
import os
import random
import stat

import numpy as np
import pytest
from conftest import A001349, count_off_at_five, shifted

from eccspec import _kernels_py, census
from eccspec.census import CensusRecord
from eccspec.eccentricity import ecc_matrix
from eccspec.exactalg import IntPolynomial, bareiss_rank, root_multiplicity
from eccspec.graphs import (
    Graph,
    complete,
    cycle,
    graph6_bits,
    graph6_decode,
    is_connected,
    join_clique_with,
    path,
)

#: sha256 of the order-8 census store
N8_STORE_SHA256 = (
    "97cbee773cdb0bc898975a00d8fcded8637e1f006abeb3523607bc7e3897eb6a")

#: the store line of K4 (canon, invariants with its family tag, charpoly)
K4_LINE = "C~\t4,1,4,3,0,0,K4\t-3,-8,-6,0,1"

#: lines that from_line rejects though each field has the right form
INCONSISTENT_LINES = [
    "C~\t4,1,4,3,0,0,K4,extra\t-3,-8,-6,0,1",  # an 8th invariant field
    "C~\t4,1,4,3,0,0\t-3,-8,-6,0,1",           # six invariant fields
    "C~\t4,1,4,3,0,0,K4\t-3,-8,-6,0",          # charpoly one short
    "C~\t4,1,4,3,0,0,K4\t0,-3,-8,-6,0,1",      # charpoly one too long
    "C~\t4,1,4,3,0,0,K4\t-3,-8,-6,0,2",        # not monic
    "E~~o\t4,1,4,3,0,0,K4\t-3,-8,-6,0,1",      # an order-6 canon
    "C~?\t4,1,4,3,0,0,K4\t-3,-8,-6,0,1",       # canon one byte long
    "!!!!\t4,1,4,3,0,0,K4\t-3,-8,-6,0,1",
    "C~\t5,1,4,3,0,0,K4\t0,-3,-8,-6,0,1",      # n disagrees with canon
]
INCONSISTENT_IDS = ["8-fields", "6-fields", "short-poly", "long-poly",
                    "non-monic", "canon-order", "canon-length", "canon-bangs",
                    "n-vs-canon"]

#: every line that a store read must reject with from_line's message
MALFORMED_LINES = INCONSISTENT_LINES + [
    "C~\t4,1", "C~\t4,x,0,0,0,0,\t1", "C~\t4,1,0,0,0,0\t1",
    "C\xe9\t4,1,0,0,0,0,\t1", "C~\t4,1,4,3,0,0,K4",
    "C~\t4,1,4,3,0,0,K\xe9\t-3,-8,-6,0,1", K4_LINE + "\xe9", K4_LINE + ",",
    K4_LINE + "\t",
    f"C~\t{10 ** 19},1,4,3,0,0,K4\t-3,-8,-6,0,1",
]


@pytest.fixture(params=["compiled", "pure"])
def codec(request, monkeypatch):
    """census running on one kernel backend, its store codec included."""
    if request.param == "pure":
        mod = _kernels_py
    elif os.environ.get("ECCSPEC_KERNELS") == "py":
        pytest.skip("ECCSPEC_KERNELS=py: no compiled extension was built")
    else:
        from eccspec import _kernels as mod
    monkeypatch.setattr(census, "kernels", mod)
    return mod


def level_graphs(n):
    """The connected graphs of order n, one per class, in canonical order."""
    return [Graph.from_adj(_kernels_py.lower_triangle_rows(n, bits))
            for bits in census._level_bits(n)]


def brute_force_connected_count(n):
    """Independent oracle: iterate all labeled graphs, deduplicate by
    marking each isomorphism orbit explicitly, and count the orbits of the
    connected ones."""
    pairs = list(itertools.combinations(range(n), 2))
    nbits = len(pairs)
    pair_index = {p: i for i, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    # perm_maps[p][e] = image bit of edge bit e under permutation p
    perm_maps = np.array(
        [[pair_index[tuple(sorted((perm[u], perm[v])))] for (u, v) in pairs]
         for perm in perms], dtype=np.int64)
    seen = set()
    count = 0
    for mask in range(1 << nbits):
        if mask in seen:
            continue
        adj = [0] * n
        for e, (u, v) in enumerate(pairs):
            if (mask >> e) & 1:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        count += is_connected(Graph.from_adj(adj))
        orbit = np.zeros(len(perms), dtype=np.int64)
        for e in range(nbits):
            if (mask >> e) & 1:
                orbit |= np.int64(1) << perm_maps[:, e]
        seen.update(orbit.tolist())
    return count


def relabel(g, perm):
    """g with vertex v renamed perm[v]."""
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


class TestCanonicalForm:
    def test_p4_invariant_under_relabeling(self):
        forms = set()
        for perm in itertools.permutations(range(4)):
            forms.add(census.canonical_form(relabel(path(4), perm)))
        assert len(forms) == 1

    def test_c4_equals_its_other_presentation(self):
        g = Graph(4, [(0, 2), (2, 1), (1, 3), (3, 0)])
        assert census.canonical_form(g) == census.canonical_form(cycle(4))

    def test_class_function_on_census(self, census_records):
        rng = random.Random(19)
        for n in range(2, 8):
            recs = census_records(n)
            for rec in rng.sample(recs, min(25, len(recs))):
                g = graph6_decode(rec.canon)
                for _ in range(4):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    assert census.canonical_form(relabel(g, perm)) == rec.canon

    def test_distinct_on_non_isomorphic(self, census_records):
        for n in (6, 7, 8):
            forms = {rec.canon for rec in census_records(n)}
            assert len(forms) == A001349[n]

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            census.canonical_form(Graph(17))

    def test_vertex_transitive_graphs_do_not_explode(self):
        # the twin and frontier prunings must keep these linear-ish, at the
        # largest order the labeling takes
        petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                         + [(i, i + 5) for i in range(5)]
                         + [(i + 5, (i + 2) % 5 + 5) for i in range(5)])
        for g in (complete(10), cycle(10), petersen):
            census.canonical_form(g)

    def test_canon_is_lexicographic_minimum_at_small_order(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(2, 5)
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < 0.5])
            best = min(census.canonical_bits(relabel(g, p))
                       for p in itertools.permutations(range(n)))
            # canonical bits are reachable by an actual relabeling...
            forms = {census.bits_to_graph6(n, census.canonical_bits(
                relabel(g, p))) for p in itertools.permutations(range(n))}
            assert len(forms) == 1
            # ...and minimal among all orderings consistent with refinement
            assert census.canonical_bits(g) <= best or \
                census.canonical_bits(g) == best


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_connected_count_matches_a001349(self, n):
        """The count from the cycle index of S_n, not typed in, against
        the typed sequence, past the census orders to n = 12."""
        assert census.connected_count(n) == A001349[n]

    def test_connected_count_rejects_order_zero(self):
        with pytest.raises(ValueError, match="n >= 1"):
            census.connected_count(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_counts_match_known_sequence(self, n):
        assert len(census._level_bits(n)) == A001349[n]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_counts_match_brute_force_oracle(self, n):
        assert len(census._level_bits(n)) == brute_force_connected_count(n)

    def test_oracle_at_order_six(self):
        assert brute_force_connected_count(6) == A001349[6]

    def test_oracle_at_order_seven(self):
        # full labeled sweep of 2^21 graphs with orbit-marked deduplication
        assert brute_force_connected_count(7) == A001349[7]

    def test_all_yielded_graphs_connected_and_canonical(self):
        """Every yielded bit form is its graph's canonical form, by the
        active backend and by the pure-Python reference."""
        for bits in census._level_bits(6):
            g = Graph.from_adj(_kernels_py.lower_triangle_rows(6, bits))
            assert is_connected(g)
            assert census.canonical_bits(g) == bits
            assert _kernels_py.canon_bits(g.n, g.adj) == bits

    def test_deterministic_order(self):
        first = [census.canonical_form(g) for g in level_graphs(6)]
        second = [census.canonical_form(g) for g in level_graphs(6)]
        assert first == second == sorted(first)

    def test_oversize_rejected(self):
        with pytest.raises(ValueError):
            census._level_bits(11)


class TestClassify:
    def test_records_for_n4(self, census_records):
        recs = census_records(4)
        assert len(recs) == 6
        with_m1 = sorted(r.canon for r in recs if r.mult_minus1 == 1)
        p4 = census.canonical_form(path(4))
        diamond = census.canonical_form(join_clique_with(2, "2K1"))
        assert with_m1 == sorted([p4, diamond])
        assert sum(1 for r in recs if r.mult_minus1 == 3) == 1
        assert sum(1 for r in recs if r.mult_minus1 == 2) == 0

    def test_family_tags_at_n9(self, census_records):
        by_tag = {}
        for rec in census_records(9):
            for tag in rec.family_tags:
                by_tag[tag] = rec
        assert by_tag["K9"].mult_minus1 == 8
        assert by_tag["K6v3K1"].mult_minus1 == 5
        assert by_tag["K6vK2uK1"].mult_minus1 == 5

    def test_family_tags_exactly_at_the_family_graphs(self, codec):
        """On each backend the kernels build every record untagged and
        ``classify`` tags the family graphs: at orders 1..8, and 9 on the
        compiled backend, the records with tags are those of the bit forms
        in ``family_tag_map(n)``, each with the map's tags."""
        top = 9 if codec.BACKEND == "compiled" else 8
        for n in range(1, top + 1):
            tagged = {graph6_bits(rec.canon)[1]: rec.family_tags
                      for rec in census.classify(n) if rec.family_tags != ()}
            assert tagged == census.family_tag_map(n), n

    def test_enumeration_count_is_checked_against_a001349(self,
                                                         monkeypatch):
        monkeypatch.setattr(census, "connected_count", count_off_at_five)
        with pytest.raises(RuntimeError) as exc:
            census.classify(5)
        assert str(exc.value) == ("census n=5 enumerated 21 connected "
                                  "graphs, expected 22 (A001349)")

    def test_store_round_trip_and_determinism(self, census_records, tmp_path):
        path1 = tmp_path / "store1.tsv"
        path2 = tmp_path / "store2.tsv"
        recs1 = census.classify(5, store_path=path1)
        recs2 = census.classify(5, store_path=path2)
        assert path1.read_bytes() == path2.read_bytes()
        assert census.read_store(path1) == recs1 == recs2

    def test_n8_store_bytes_pinned(self, census_records, tmp_path):
        """classify(8) writes its records with write_store; any change to
        enumeration, canonical order, invariants or line format shows here."""
        path = tmp_path / "census8.tsv"
        census.write_store(census_records(8), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == N8_STORE_SHA256

    def test_pure_backend_store_matches(self, tmp_path):
        """The pure-Python census glue and kernels, driven through the
        backend selector, write the same bytes as the backend this test
        process runs."""
        import os
        import subprocess
        import sys

        import eccspec
        pure = tmp_path / "pure.tsv"
        env = dict(os.environ, ECCSPEC_KERNELS="py",
                   PYTHONPATH=os.path.dirname(os.path.dirname(eccspec.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "eccspec.cli", "census", "7",
             "--store", str(pure)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        assert proc.returncode == 0, proc.stdout
        assert "853 connected graphs" in proc.stdout
        census.classify(7, store_path=tmp_path / "session.tsv")
        assert pure.read_bytes() == (tmp_path / "session.tsv").read_bytes()

    def test_record_line_round_trip(self, census_records):
        for rec in census_records(6)[:40]:
            assert census.CensusRecord.from_line(rec.to_line()) == rec

    def test_multiplicities_consistent_with_charpoly(self, census_records):
        from eccspec.exactalg import IntPolynomial, root_multiplicity
        for rec in census_records(6):
            cp = IntPolynomial(rec.charpoly)
            assert rec.mult_minus1 == root_multiplicity(cp, -1)
            assert rec.mult_minus2 == root_multiplicity(cp, -2)
            assert rec.mult_zero == root_multiplicity(cp, 0)
            assert cp.is_monic() and cp.degree == rec.n

    def test_multiplicities_match_integer_rank(self, census_records):
        """The rank oracle: every stored m(xi) of order 1..8 (1 + 12 112
        records) is the nullity n - rank(E - xi I) of the largest-distance
        matrix, by fraction-free elimination over Z, for xi = -1, -2, 0."""
        count = 0
        for n in range(1, 9):
            for rec in census_records(n):
                e = ecc_matrix(graph6_decode(rec.canon))
                assert (rec.mult_minus1, rec.mult_minus2, rec.mult_zero) == \
                    tuple(n - bareiss_rank(shifted(e, 1, xi))
                          for xi in (-1, -2, 0)), rec.canon
                count += 1
        assert count == 12_113

    def test_missing_store_errors_with_path(self, tmp_path):
        with pytest.raises(OSError, match="no/such"):
            census.read_store(tmp_path / "no" / "such.tsv")

    def test_malformed_store_line_names_path_and_line(self, tmp_path):
        good = census.classify(4)[0].to_line()
        for bad in ("C~\t4,1", "C~\t4,x,0,0,0,0,\t1,0", "C~\t4,1,0,0,0,0\t1",
                    "C\xe9\t4,1,0,0,0,0,\t1"):
            path = tmp_path / "bad.tsv"
            path.write_bytes(f"{good}\n\n{bad}\n".encode("latin-1"))
            with pytest.raises(ValueError, match=r"bad\.tsv, line 3"):
                census.read_store(path)

    def test_k4_line_parses(self):
        rec = census.CensusRecord.from_line(K4_LINE)
        assert rec.canon == census.canonical_form(complete(4))
        assert rec.to_line() == K4_LINE

    @pytest.mark.parametrize("line", INCONSISTENT_LINES, ids=INCONSISTENT_IDS)
    def test_from_line_rejects_inconsistent_line(self, line, tmp_path):
        with pytest.raises(ValueError):
            census.CensusRecord.from_line(line)
        path = tmp_path / "bad.tsv"
        path.write_text(f"{K4_LINE}\n{line}\n", encoding="ascii")
        with pytest.raises(ValueError, match=r"bad\.tsv, line 2"):
            census.read_store(path)

    def test_two_field_line_names_line_and_field_count(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(f"{K4_LINE}\n\nC~\t4,1,4,3,0,0,K4\n",
                        encoding="ascii")
        with pytest.raises(ValueError, match=r"bad\.tsv, line 3: 2 "
                           r"tab-separated fields, expected 3$"):
            census.read_store(path)

    def test_parallel_matches_serial(self, tmp_path):
        """The pooled enumeration and classification give the serial
        results, in the serial order, also on levels smaller than the chunk
        count."""
        assert census._level_bits(7, jobs=2) == census._level_bits(7, jobs=1)
        for jobs in (1, 2):
            census.classify(7, store_path=tmp_path / f"jobs{jobs}.tsv",
                            jobs=jobs)
        assert (tmp_path / "jobs2.tsv").read_bytes() == \
            (tmp_path / "jobs1.tsv").read_bytes()
        for n, jobs in ((3, 4), (4, 2)):
            assert census.classify(n, jobs=jobs) == census.classify(n), n

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        """jobs above the CPU count starts os.cpu_count() workers, not jobs:
        a fake Pool records its size and maps in this process, and the
        records keep the serial order."""
        import multiprocessing

        sizes = []

        class SerialPool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, chunks):
                return map(func, chunks)

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        cpus = os.cpu_count() or 1
        assert census.classify(6, jobs=cpus + 2) == census.classify(6)
        assert set(sizes) == ({cpus} if cpus > 1 else set())


class TestStoreReplacement:
    """write_store replaces a store only with a complete one: the records go
    to a temporary file beside the store, which takes the store's name after
    the last batch and is removed on any exception."""

    def test_interrupted_classify_keeps_the_store(self, tmp_path,
                                                  monkeypatch):
        store = tmp_path / "c6.tsv"
        census.classify(4, store_path=store)
        old = store.read_bytes()
        records = census.kernels.census_records
        calls = []

        def interrupted(n, forms, record_type):
            calls.append(len(forms))
            if len(calls) == 3:
                raise KeyboardInterrupt
            return records(n, forms, record_type)

        monkeypatch.setattr(census, "STORE_BATCH", 20)
        monkeypatch.setattr(census.kernels, "census_records", interrupted)
        with pytest.raises(KeyboardInterrupt):
            census.classify(6, store_path=store)
        assert calls == [20, 20, 20]
        assert store.read_bytes() == old
        assert os.listdir(tmp_path) == ["c6.tsv"]

    def test_failing_records_are_closed_and_leave_no_file(self, tmp_path):
        """A record source that raises, and one the writer stops early:
        nothing is left under the store's name or beside it, and the
        stopped generator is closed."""
        store = tmp_path / "c4.tsv"
        records = census.classify(4)
        closed = []

        def failing():
            try:
                yield from records
                raise ValueError("record source failed")
            finally:
                closed.append(True)

        with pytest.raises(ValueError, match="record source failed"):
            census.write_store(failing(), store)
        assert os.listdir(tmp_path) == []

        def endless():
            try:
                while True:
                    yield from records
            finally:
                closed.append(True)

        def broken(batch, record_type):
            raise KeyboardInterrupt

        gen = endless()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(census.kernels, "format_store", broken)
            with pytest.raises(KeyboardInterrupt):
                census.write_store(gen, store)
        assert closed == [True, True] and gen.gi_frame is None
        assert os.listdir(tmp_path) == []

    def test_store_mode_is_that_of_open(self, tmp_path):
        """A new store gets the mode open(path, "wb") gives, and a replaced
        store keeps its own mode."""
        with open(tmp_path / "plain", "wb"):
            pass
        want = stat.S_IMODE(os.stat(tmp_path / "plain").st_mode)
        store = tmp_path / "c3.tsv"
        census.write_store(census.classify(3), store)
        assert stat.S_IMODE(os.stat(store).st_mode) == want
        os.chmod(store, 0o640)
        census.write_store(census.classify(4), store)
        assert stat.S_IMODE(os.stat(store).st_mode) == 0o640
        assert len(census.read_store(store)) == 6

    def test_read_only_store_is_refused_and_kept(self, tmp_path,
                                                 monkeypatch):
        """A store that could not be opened for writing is not replaced
        (os.access is faked: a test run as root may write any file)."""
        store = tmp_path / "c3.tsv"
        census.write_store(census.classify(3), store)
        old = store.read_bytes()
        records = census.classify(4)
        monkeypatch.setattr(os, "access", lambda path, mode: False)
        with pytest.raises(OSError) as exc:
            census.write_store(records, store)
        assert str(exc.value) == (f"cannot write census store {store}: "
                                  f"Permission denied")
        assert store.read_bytes() == old
        assert os.listdir(tmp_path) == ["c3.tsv"]

    def test_non_regular_store_is_refused_before_any_record(self, tmp_path):
        """A FIFO is neither written nor replaced, and no record is drawn.
        A reader holds it open, so a writer that opened it would fail here
        instead of blocking."""
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)

        def never():
            raise AssertionError("a record was drawn")
            yield

        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            with pytest.raises(OSError) as exc:
                census.write_store(never(), fifo)
        finally:
            os.close(reader)
        assert str(exc.value) == (f"cannot write census store {fifo}: not a "
                                  f"regular file")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert os.listdir(tmp_path) == ["fifo"]


class TestStoreCodec:
    """write_store and read_store on each kernel backend: the bytes of
    ``to_line``, the records and the errors of ``from_line``."""

    def test_every_order_up_to_8_round_trips(self, codec, census_records,
                                             tmp_path):
        path = tmp_path / "store.tsv"
        for n in range(1, 9):
            records = census_records(n)
            census.write_store(records, path)
            data = path.read_bytes()
            assert data == "".join(rec.to_line() + "\n"
                                   for rec in records).encode("ascii")
            assert census.read_store(path) == records
        assert hashlib.sha256(data).hexdigest() == N8_STORE_SHA256

    def test_small_batches_and_blocks(self, codec, census_records, tmp_path,
                                      monkeypatch):
        """Batches of 7 records and blocks of 100 bytes, so lines straddle
        blocks, and an error past the first block keeps its line number."""
        monkeypatch.setattr(census, "STORE_BATCH", 7)
        monkeypatch.setattr(census, "STORE_BLOCK", 100)
        records = census_records(6)
        path = tmp_path / "bad.tsv"
        census.write_store(iter(records), path)
        assert path.read_bytes() == "".join(
            rec.to_line() + "\n" for rec in records).encode("ascii")
        assert census.read_store(path) == records
        with open(path, "a", encoding="ascii") as fh:
            fh.write("\n" + "x" * 250 + "\n")
        with pytest.raises(ValueError, match=r"bad\.tsv, line 114: 1 tab"):
            census.read_store(path)

    def test_lax_lines_read_back_alike(self, codec, tmp_path):
        """Lines from_line accepts beyond the strict form: CRLF endings, a
        plus sign, spaces around an int, whitespace-only lines and a last
        line without a newline."""
        path = tmp_path / "lax.tsv"
        path.write_bytes("".join([
            K4_LINE + "\r\n",
            K4_LINE.replace("\t4,", "\t+4,") + "\n",
            K4_LINE.replace(",1,4,", ", 1 ,4,") + "\r\n",
            " \t \r\n", "\n", "  \n",
            K4_LINE.replace(",0,1", ",0, 1 "),
        ]).encode("ascii"))
        assert census.read_store(path) == \
            [CensusRecord.from_line(K4_LINE)] * 4

    def test_tagged_records_round_trip(self, codec, census_records,
                                       tmp_path):
        """Records with one family tag or several, among untagged ones:
        the writer gives the bytes of ``to_line`` and ``read_store`` the
        records written, on each backend."""
        records = [rec._replace(family_tags=("A", "B", "C")[:i % 3 + 1])
                   if i % 5 == 0 else rec
                   for i, rec in enumerate(census_records(6))]
        assert any(rec.family_tags == ("K6",) for rec in records)
        path = tmp_path / "tagged.tsv"
        census.write_store(records, path)
        assert path.read_bytes() == "".join(
            rec.to_line() + "\n" for rec in records).encode("ascii")
        assert census.read_store(path) == records

    @pytest.mark.parametrize("line", MALFORMED_LINES)
    def test_malformed_line_fails_with_from_lines_error(self, codec, line,
                                                        tmp_path):
        """The error names the path and line, and its reason is what
        decoding the line as ASCII and from_line give."""
        raw = f"{line}\n".encode("latin-1")
        with pytest.raises(ValueError) as reason:
            CensusRecord.from_line(raw.decode("ascii"))
        path = tmp_path / "bad.tsv"
        path.write_bytes(f"{K4_LINE}\n\n".encode() + raw + K4_LINE.encode())
        with pytest.raises(ValueError) as info:
            census.read_store(path)
        assert str(info.value) == \
            f"malformed census store {path}, line 3: {reason.value}"


class TestQueries:
    def test_cospectral_mates_exist_somewhere(self, census_records):
        # cospectral pairs for this matrix exist at order 6 and the mate
        # relation must be symmetric and canonical-form-disjoint
        recs = census_records(6)
        mates = [(r, census.cospectral_mates(recs, r)) for r in recs]
        paired = [(r, ms) for r, ms in mates if ms]
        assert paired, "expected at least one cospectral pair at order 6"
        for r, ms in paired:
            for m in ms:
                assert m.charpoly == r.charpoly and m.canon != r.canon

    def test_multiplicity_of_any_rational(self, census_records):
        from fractions import Fraction
        rec = next(r for r in census_records(5)
                   if "K5" in r.family_tags)
        cp = IntPolynomial(rec.charpoly)
        assert root_multiplicity(cp, -1) == 4
        assert root_multiplicity(cp, 4) == 1
        assert root_multiplicity(cp, Fraction(1, 2)) == 0

    def test_family_records_match_direct_multiplicity(self, census_records):
        from eccspec.eccentricity import multiplicity
        from eccspec.graphs import theorem1_families
        for n in range(4, 9):
            by_canon = {r.canon: r for r in census_records(n)}
            for name, g in theorem1_families(n):
                rec = by_canon[census.canonical_form(g)]
                assert rec.mult_minus1 == multiplicity(g, -1), (n, name)
                assert name in rec.family_tags

    def test_graph6_round_trip_over_full_census(self, census_records):
        from eccspec.graphs import graph6_encode
        for n in range(1, 9):
            for rec in census_records(n):
                g = graph6_decode(rec.canon)
                assert graph6_encode(g).decode("ascii") == rec.canon
