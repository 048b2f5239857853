"""Command-line interface: subcommands, formats, exit codes."""

import json
import operator
import os

import pytest
from conftest import count_off_at_five

from eccspec.census import read_store
from eccspec.cli import cli_main
from eccspec.graphs import complete, graph6_encode, join_clique_with, path


def run(capsys, *argv):
    code = cli_main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


P4 = graph6_encode(path(4)).decode()
K5 = graph6_encode(complete(5)).decode()


class TestGraphCommands:
    def test_mult_k5(self, capsys):
        code, out, _ = run(capsys, "mult", K5, "-1")
        assert code == 0 and out.strip() == "4"

    def test_charpoly_p4_descending(self, capsys):
        code, out, _ = run(capsys, "charpoly", P4)
        assert code == 0 and out.strip() == "1,0,-17,0,16"

    def test_ecc_p4(self, capsys):
        code, out, _ = run(capsys, "ecc", P4)
        assert code == 0
        assert out.splitlines() == ["0 0 2 3", "0 0 0 2", "2 0 0 0",
                                    "3 2 0 0"]

    def test_hl_p4(self, capsys):
        code, out, _ = run(capsys, "hl", P4)
        assert code == 0 and out.strip() == "1"

    def test_hl_json(self, capsys):
        code, out, _ = run(capsys, "hl", "--format", "json", P4)
        assert code == 0
        payload = json.loads(out)
        assert payload["hl_index"]["exact"] is True

    def test_edge_list_file_input(self, capsys, tmp_path):
        f = tmp_path / "g.edges"
        f.write_text("n=4\n0 1\n1 2\n2 3\n")
        code, out, _ = run(capsys, "charpoly", str(f))
        assert code == 0 and out.strip() == "1,0,-17,0,16"

    def test_json_outputs_pinned(self, capsys):
        assert run(capsys, "ecc", P4, "--format", "json") == (
            0, '{"n": 4, "matrix": [[0, 0, 2, 3], [0, 0, 0, 2], '
               '[2, 0, 0, 0], [3, 2, 0, 0]]}\n', "")
        assert run(capsys, "charpoly", P4, "--format", "json") == (
            0, '{"n": 4, "charpoly_descending": "1,0,-17,0,16"}\n', "")
        assert run(capsys, "mult", K5, "-1", "--format", "json") == (
            0, '{"xi": "-1", "multiplicity": 4}\n', "")

    def test_edge_list_file_with_bad_line_is_usage_error(self, capsys,
                                                          tmp_path):
        f = tmp_path / "bad.edges"
        f.write_text("n=3\n0 1\n1 x\n")
        code, out, err = run(capsys, "ecc", str(f))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read edge-list file {str(f)!r}")

    @pytest.mark.parametrize("text,lineno", [
        ("n=abc\n0 1\n", 1), ("n=3\n0 1\n0 x\n", 3),
    ], ids=["header", "vertex"])
    def test_edge_list_non_integer_names_its_line(self, capsys, tmp_path,
                                                  text, lineno):
        f = tmp_path / "bad.edges"
        f.write_text(text)
        code, out, err = run(capsys, "ecc", str(f))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot read edge-list file {str(f)!r}: "
                              f"line {lineno}: ")

    def test_mult_rational_xi(self, capsys):
        code, out, _ = run(capsys, "mult", K5, "3/2")
        assert code == 0 and out.strip() == "0"

    @pytest.mark.parametrize("xi,mult", [("-1/3", "0"), ("-3/2", "0"),
                                         ("-1", "4")])
    def test_mult_negative_xi(self, capsys, xi, mult):
        """A leading minus reads as a number, p/q included, not as an
        option."""
        assert run(capsys, "mult", K5, xi) == (0, mult + "\n", "")

    def test_mult_unknown_option_is_usage_error(self, capsys):
        code, out, err = run(capsys, "mult", K5, "-1", "--frobnicate")
        assert code == 2 and out == ""
        assert err.endswith("error: unrecognized arguments: --frobnicate\n")

    def test_bad_graph_is_usage_error(self, capsys):
        code, _, err = run(capsys, "mult", "!!notag6!!", "-1")
        assert code == 2 and "graph6" in err

    def test_disconnected_is_usage_error(self, capsys):
        code, _, err = run(capsys, "ecc", "A?")
        assert code == 2 and "connected" in err

    # Fraction would expand an exponent digit by digit (1e1000000000 would
    # not return), so mult refuses every exponent
    @pytest.mark.parametrize("xi", ["pi", "1e5", "2E-3", "1e1000000000"])
    def test_bad_xi_is_usage_error(self, capsys, xi):
        assert run(capsys, "mult", K5, xi) == (
            2, "", f"error: xi {xi!r} must be a rational number written as "
                   "an integer, p/q or a decimal, e.g. -1, 3/2 or 0.25, "
                   "without an exponent\n")

    def test_library_value_error_is_not_usage_error(self, monkeypatch):
        from eccspec import kernels

        def broken(rows, moduli):
            raise ValueError("internal fault")

        monkeypatch.setattr(kernels, "charpoly_mod", broken)
        with pytest.raises(ValueError, match="internal fault"):
            cli_main(["charpoly", P4])


#: ``eccspec family`` output, byte for byte: graph6 for valid ids, the usage
#: error for invalid ones (exit 2)
FAMILY_GRAPH6 = {
    "K5": "D~{", "P4": "Ch", "C7": "FhCKG", "K(2,2,3)": "F]~v_",
    "K4v2K1": "E~~o", "S(3,-2,2)": "F~zfG", "g1:0@9": "H~~~vrw",
    "g1:6@9": "H~~~~v|", "thm5:0@16": "O~~~~~~~~~~~~~~~^~f~w",
    "thm5:9@16": "O~~~~~~~~~~~~~~~~~V~q", "thm5:7@6": "E|fG",
    "g1:0@5": "Ds_", "K1v2K1": "Bo",
}
FAMILY_ERRORS = {
    "g1:0@4": "cannot build family 'g1:0@4': clique part must be nonempty",
    "g1:9@9": "cannot build family 'g1:9@9': g1 index 9 out of range 0..6",
    "g1:-1@9": "cannot build family 'g1:-1@9': g1 index -1 out of range 0..6",
    "thm5:10@16": "cannot build family 'thm5:10@16': thm5 index 10 out of "
                  "range 0..9",
    "K4vBOGUS": "cannot build family 'K4vBOGUS': unknown descriptor 'BOGUS'",
    "Q7": "cannot parse family id 'Q7'",
    "S(3,2)": "cannot parse family id 'S(3,2)': mixed star needs "
              "S(t0,-p,...)",
    "K63": "cannot build family 'K63': graph6 single-byte header supports "
           "n <= 62",
    "C2": "cannot build family 'C2': cycle needs at least 3 vertices",
    "K(3)": "cannot build family 'K(3)': need at least 2 parts",
    "K(2,0)": "cannot build family 'K(2,0)': part sizes must be positive",
}


class TestFamilyCommand:
    def test_family_grammar_pinned(self, capsys):
        for fam, text in FAMILY_GRAPH6.items():
            assert run(capsys, "family", fam) == (0, text + "\n", ""), fam
        for fam, message in FAMILY_ERRORS.items():
            assert run(capsys, "family", fam) == (2, "", f"error: {message}\n")
        # g1 indexes the seven K_{n-4} joins, thm5 all ten in catalog order
        for fam, r, h in (("g1:0@9", 5, "4K1"), ("thm5:7@6", 1, "C5"),
                          ("thm5:9@16", 11, "H1")):
            assert FAMILY_GRAPH6[fam] == graph6_encode(
                join_clique_with(r, h)).decode()
        assert FAMILY_GRAPH6["K5"] == K5

    @pytest.mark.parametrize("fam,n", [
        ("K100000", 100000), ("C100000000", 100000000),
        ("g1:0@100000", 99996), ("S(100000,-1)", 100000),
    ])
    def test_oversize_family_is_a_usage_error(self, capsys, fam, n):
        """An order far above 64 fails at once with the order check's
        message, before any edge list is built."""
        assert run(capsys, "family", fam) == (
            2, "", f"error: cannot build family {fam!r}: vertex count must "
                   f"be in 1..64, got {n}\n")


@pytest.fixture(scope="module")
def store5(tmp_path_factory):
    store = tmp_path_factory.mktemp("c5") / "c5.tsv"
    assert cli_main(["census", "5", "--store", str(store)]) == 0
    return store


class TestCensusAndQuery:
    @pytest.mark.parametrize("pred,field,test,value", [
        ("diam<3", "diam", operator.lt, 3),
        ("v1_size<=1", "v1_size", operator.le, 1),
        ("diam>2", "diam", operator.gt, 2),
        ("mult_minus1>=1", "mult_minus1", operator.ge, 1),
        ("mult_zero!=0", "mult_zero", operator.ne, 0),
        ("family!=K1v4K1", "family_tags",
         lambda tags, name: name not in tags, "K1v4K1"),
    ])
    def test_query_comparisons_match_store_filter(self, capsys, store5, pred,
                                                  field, test, value):
        records = read_store(store5)
        want = [r.canon for r in records if test(getattr(r, field), value)]
        assert 0 < len(want) < len(records)
        code, out, _ = run(capsys, "query", str(store5), pred,
                           "--format", "json")
        assert code == 0
        assert [m["canon"] for m in json.loads(out)["matches"]] == want

    def test_census_and_query_round_trip(self, capsys, tmp_path):
        store = tmp_path / "c6.tsv"
        code, out, _ = run(capsys, "census", "6", "--store", str(store))
        assert code == 0 and "112 connected graphs" in out
        code, out, _ = run(capsys, "query", str(store), "diam=1")
        assert code == 0
        assert out.strip().endswith("[K6]")

    def test_query_diameter_one_is_complete_only(self, capsys, tmp_path):
        store = tmp_path / "c7.tsv"
        run(capsys, "census", "7", "--store", str(store))
        code, out, _ = run(capsys, "query", str(store), "diam=1",
                           "--format", "json")
        assert code == 0
        assert [m["family_tags"] for m in json.loads(out)["matches"]] == \
            [["K7"]]

    def test_query_store_line_with_8_fields_is_usage_error(self, capsys,
                                                           tmp_path):
        store = tmp_path / "c4.tsv"
        run(capsys, "census", "4", "--store", str(store))
        with open(store, "a", encoding="ascii") as fh:
            fh.write("C~\t4,1,4,3,0,0,K4,extra\t-3,-8,-6,0,1\n")
        code, out, err = run(capsys, "query", str(store), "n=4")
        assert code == 2 and out == "" and "c4.tsv, line 7" in err

    def test_census_store_env_default(self, capsys, tmp_path, monkeypatch):
        store = tmp_path / "env.tsv"
        monkeypatch.setenv("ECCSPEC_STORE", str(store))
        code, out, _ = run(capsys, "census", "4")
        assert code == 0 and store.exists()

    def test_query_needs_store_argument_despite_env(self, capsys, tmp_path,
                                                    monkeypatch):
        store = tmp_path / "env.tsv"
        run(capsys, "census", "4", "--store", str(store))
        monkeypatch.setenv("ECCSPEC_STORE", str(store))
        code, _, err = run(capsys, "query")
        assert code == 2 and "store" in err

    def test_query_mates_and_json(self, capsys, tmp_path):
        store = tmp_path / "c6.tsv"
        run(capsys, "census", "6", "--store", str(store))
        code, out, _ = run(capsys, "query", str(store), "n=6", "--mates",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["matches"]) == 112
        assert any(m["cospectral_mates"] for m in payload["matches"])

    def test_census_json_pinned(self, capsys, tmp_path):
        store = tmp_path / "c5.tsv"
        code, out, err = run(capsys, "census", "5", "--store", str(store),
                             "--format", "json")
        assert code == 0 and err == ""
        assert json.loads(out) == {
            "n": 5, "graphs": 21, "store": str(store),
            "mult_minus1_histogram": {"0": 17, "1": 2, "2": 1, "4": 1}}

    def test_census_n10_needs_big_before_any_work(self, capsys, monkeypatch):
        from eccspec import census

        def never(*args, **kwargs):
            raise AssertionError("the census ran without --big")

        monkeypatch.setattr(census, "iter_records", never)
        code, out, err = run(capsys, "census", "10")
        assert code == 2 and out == ""
        assert err == ("error: the n=10 census is best-effort (11.7M graphs); "
                       "pass --big to run it\n")

    def test_census_count_mismatch_exits_one(self, capsys, monkeypatch):
        from eccspec import census

        monkeypatch.setattr(census, "connected_count", count_off_at_five)
        monkeypatch.delenv("ECCSPEC_STORE", raising=False)
        code, out, err = run(capsys, "census", "5")
        assert code == 1 and out == ""
        assert err == ("error: census n=5 enumerated 21 connected graphs, "
                       "expected 22 (A001349)\n")

    def test_census_unwritable_store_exits_one(self, capsys, tmp_path):
        store = tmp_path / "no-such-dir" / "c4.tsv"
        code, out, err = run(capsys, "census", "4", "--store", str(store))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write census store {store}: ")

    def test_census_unwritable_store_fails_before_enumerating(
            self, capsys, monkeypatch, tmp_path):
        from eccspec import census

        def never(*args, **kwargs):
            raise AssertionError("the census enumerated before opening "
                                 "its store")

        monkeypatch.setattr(census, "_level_bits", never)
        store = tmp_path / "no-such-dir" / "c8.tsv"
        code, out, err = run(capsys, "census", "8", "--store", str(store))
        assert code == 1 and out == ""
        assert err.startswith(f"error: cannot write census store {store}: ")

    def test_census_streams_without_classify(self, capsys, monkeypatch,
                                             tmp_path):
        """The command folds its count and histogram over the records as
        the store takes them; it never builds classify's list."""
        from eccspec import census

        want = tmp_path / "classify.tsv"
        census.classify(6, store_path=want)

        def never(*args, **kwargs):
            raise AssertionError("the census command called classify")

        monkeypatch.setattr(census, "classify", never)
        store = tmp_path / "c6.tsv"
        code, out, err = run(capsys, "census", "6", "--store", str(store))
        assert code == 0 and err == ""
        assert out.startswith(f"n=6: 112 connected graphs -> {store}\n")
        assert store.read_bytes() == want.read_bytes()

    def test_census_jobs_write_the_same_store(self, capsys, tmp_path):
        from eccspec import census

        census.classify(7, store_path=tmp_path / "classify.tsv")
        for jobs in ("1", "2"):
            code, _, _ = run(capsys, "census", "7", "--jobs", jobs,
                             "--store", str(tmp_path / f"jobs{jobs}.tsv"))
            assert code == 0
        want = (tmp_path / "classify.tsv").read_bytes()
        assert (tmp_path / "jobs1.tsv").read_bytes() == want
        assert (tmp_path / "jobs2.tsv").read_bytes() == want

    def test_failed_census_keeps_the_store(self, capsys, monkeypatch,
                                           tmp_path):
        """A count mismatch found after the temporary file exists leaves
        the old store byte for byte and no other file beside it."""
        from eccspec import census

        store = tmp_path / "c5.tsv"
        assert run(capsys, "census", "4", "--store", str(store))[0] == 0
        old = store.read_bytes()
        monkeypatch.setattr(census, "connected_count", count_off_at_five)
        code, out, err = run(capsys, "census", "5", "--store", str(store))
        assert (code, out) == (1, "")
        assert err == ("error: census n=5 enumerated 21 connected graphs, "
                       "expected 22 (A001349)\n")
        assert store.read_bytes() == old
        assert os.listdir(tmp_path) == ["c5.tsv"]

    def test_interrupted_census_keeps_the_store(self, capsys, monkeypatch,
                                                tmp_path):
        """Ctrl-C part-way through classification, after earlier batches
        reached the temporary file, leaves the old store as it was."""
        from eccspec import census, kernels

        store = tmp_path / "c7.tsv"
        assert run(capsys, "census", "4", "--store", str(store))[0] == 0
        old = store.read_bytes()
        records = kernels.census_records
        calls = []

        def interrupted(n, forms, record_type):
            calls.append(len(forms))
            if len(calls) == 5:
                raise KeyboardInterrupt
            return records(n, forms, record_type)

        monkeypatch.setattr(census, "STORE_BATCH", 100)
        monkeypatch.setattr(kernels, "census_records", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli_main(["census", "7", "--store", str(store)])
        assert calls == [100] * 5
        assert store.read_bytes() == old
        assert os.listdir(tmp_path) == ["c7.tsv"]

    def test_pooled_failure_keeps_the_store_and_stops_workers(
            self, capsys, monkeypatch, tmp_path):
        """With --jobs 2 an interrupt in the writer, while the workers are
        still classifying, leaves the old store, no temporary file and no
        worker process."""
        import multiprocessing

        from eccspec import census

        store = tmp_path / "c7.tsv"
        assert run(capsys, "census", "4", "--store", str(store))[0] == 0
        old = store.read_bytes()
        fmt = census.kernels.format_store
        calls = []

        def interrupted(batch, record_type):
            calls.append(len(batch))
            if len(calls) == 3:
                raise KeyboardInterrupt
            return fmt(batch, record_type)

        monkeypatch.setattr(census, "STORE_BATCH", 100)
        monkeypatch.setattr(census.kernels, "format_store", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli_main(["census", "7", "--jobs", "2", "--store", str(store)])
        assert calls == [100, 100, 100]
        assert store.read_bytes() == old
        assert os.listdir(tmp_path) == ["c7.tsv"]
        assert multiprocessing.active_children() == []

    def test_census_writes_through_a_symlink(self, capsys, tmp_path):
        real = tmp_path / "real.tsv"
        link = tmp_path / "link.tsv"
        link.symlink_to(real)
        code, out, _ = run(capsys, "census", "5", "--store", str(link))
        assert code == 0 and out.startswith(f"n=5: 21 connected graphs -> "
                                            f"{link}\n")
        assert link.is_symlink() and os.readlink(link) == str(real)
        assert len(read_store(real)) == 21
        assert sorted(os.listdir(tmp_path)) == ["link.tsv", "real.tsv"]

    def test_directory_store_fails_before_enumerating(
            self, capsys, monkeypatch, tmp_path):
        from eccspec import census

        def never(*args, **kwargs):
            raise AssertionError("the census enumerated before checking "
                                 "its store")

        monkeypatch.setattr(census, "_level_bits", never)
        code, out, err = run(capsys, "census", "8", "--store", str(tmp_path))
        assert (code, out) == (1, "")
        assert err == (f"error: cannot write census store {tmp_path}: not a "
                       f"regular file\n")
        assert os.listdir(tmp_path) == []

    def test_query_mates_text_pinned(self, capsys, store5):
        code, out, _ = run(capsys, "query", str(store5), "diam=3", "--mates")
        assert code == 0
        assert out.splitlines() == [
            "D@s  n=5 diam=3 v1=0 m(-1)=0 m(-2)=0 m(0)=1  mates=['DK[']",
            "DBk  n=5 diam=3 v1=0 m(-1)=0 m(-2)=0 m(0)=1  mates=[]",
            "DBw  n=5 diam=3 v1=0 m(-1)=0 m(-2)=1 m(0)=0  mates=[]",
            "DJk  n=5 diam=3 v1=0 m(-1)=0 m(-2)=0 m(0)=1  mates=[]",
            "DK[  n=5 diam=3 v1=0 m(-1)=0 m(-2)=0 m(0)=1  mates=['D@s']",
        ]

    def test_query_json_pinned(self, capsys, store5):
        code, out, _ = run(capsys, "query", str(store5), "diam>=3",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert sorted(payload) == ["matches"]
        assert payload["matches"][0] == {
            "canon": "D@s", "n": 5, "diam": 3, "v1_size": 0,
            "mult_minus1": 0, "mult_minus2": 0, "mult_zero": 1,
            "family_tags": []}
        assert [m["canon"] for m in payload["matches"]] == \
            ["D@s", "DBg", "DBk", "DBw", "DJk", "DK["]

    def test_query_high_mult_is_gone(self, capsys, store5):
        code, out, err = run(capsys, "query", str(store5), "--high-mult", "3")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --high-mult 3" in err

    @pytest.mark.parametrize("pred,message", [
        ("n=abc", "error: predicate 'n=abc': 'abc' is not an integer\n"),
        ("family<x", "error: family supports only = and !=\n"),
    ])
    def test_query_bad_value_or_family_operator(self, capsys, store5, pred,
                                                message):
        assert run(capsys, "query", str(store5), pred) == (2, "", message)

    def test_query_missing_store(self, capsys, tmp_path):
        code, _, err = run(capsys, "query", str(tmp_path / "no.tsv"), "n=6")
        assert code == 2 and "does not exist" in err

    def test_query_bad_predicate(self, capsys, tmp_path):
        store = tmp_path / "c4.tsv"
        run(capsys, "census", "4", "--store", str(store))
        code, _, err = run(capsys, "query", str(store), "bogus=1")
        assert code == 2 and "bogus" in err
        code, _, err = run(capsys, "query", str(store), "n~5")
        assert code == 2

    def test_query_malformed_store_names_line(self, capsys, tmp_path):
        store = tmp_path / "c4.tsv"
        run(capsys, "census", "4", "--store", str(store))
        with open(store, "a", encoding="ascii") as fh:
            fh.write("C~\tnot,a,record\n")
        code, _, err = run(capsys, "query", str(store), "n=4")
        assert code == 2 and "c4.tsv, line 7" in err

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_census_rejects_nonpositive_jobs(self, capsys, jobs):
        code, _, err = run(capsys, "census", "4", "--jobs", jobs)
        assert code == 2 and "--jobs" in err and "at least 1" in err

    def test_census_oversize_is_usage_error(self, capsys):
        code, _, err = run(capsys, "census", "11")
        assert code == 2

    @pytest.mark.parametrize("n", ["0", "-2", "12"])
    def test_census_order_out_of_range_is_usage_error(self, capsys, n):
        code, out, err = run(capsys, "census", n)
        assert code == 2 and out == ""
        assert "1 <= n <= 10" in err and n in err

    def test_census_library_value_error_is_not_usage_error(self,
                                                           monkeypatch):
        from eccspec import kernels

        def broken(n, forms, record_type):
            raise ValueError("internal fault")

        monkeypatch.setattr(kernels, "census_records", broken)
        with pytest.raises(ValueError, match="internal fault"):
            cli_main(["census", "4"])

    def test_canonical_state_cap_is_clean_error(self, capsys, monkeypatch):
        from eccspec import kernels

        def explode(n, adj):
            raise RuntimeError("canonical labeling state explosion")

        monkeypatch.setattr(kernels, "canon_bits", explode)
        code, out, err = run(capsys, "census", "4")
        assert code == 1 and out == ""
        assert err.strip() == "error: canonical labeling state explosion"


class TestVerifyCommand:
    def test_verify_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "thm1-iii", "--n", "6")
        assert code == 0 and "3/3 checks passed" in out

    def test_verify_fail_exit_one(self, capsys):
        # the tables suite carries the known-erroneous printed row
        code, out, _ = run(capsys, "verify", "tables")
        assert code == 1 and "FAIL" in out

    def test_verify_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "thm1-i", "--n", "4",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["suite"] == "thm1-i"
        assert payload[0]["counts"]["failed"] == 0

    def test_verify_unknown_suite_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "nope")
        assert code == 2 and "unknown suite" in err

    def test_verify_out_of_range_usage_error(self, capsys):
        code, _, err = run(capsys, "verify", "thm1-ii", "--n", "12")
        assert code == 2

    @pytest.mark.parametrize("argv", [("median", "--n", "70"),
                                      ("tables", "--n", "16", "17", "70"),
                                      ("thm1-i", "--n", "0")])
    def test_verify_family_order_out_of_range_is_usage_error(self, capsys,
                                                             argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {argv[0]}: family checks support 1 <= n <= 40\n"

    def test_verify_all_checks_every_suite_before_running(self, capsys,
                                                          monkeypatch):
        from eccspec import suites

        def never(*args, **kwargs):
            raise AssertionError("a suite ran before the arguments were "
                                 "checked")

        monkeypatch.setattr(suites, "run_suites", never)
        code, out, err = run(capsys, "verify", "all", "--n", "5")
        assert code == 2 and out == ""
        assert "tables" in err and "3 sample orders" in err

    def test_verify_library_value_error_is_not_usage_error(self,
                                                           monkeypatch):
        from eccspec import suites

        def broken(g, xi):
            raise ValueError("internal fault")

        monkeypatch.setattr(suites, "multiplicity", broken)
        with pytest.raises(ValueError, match="internal fault"):
            cli_main(["verify", "thm1-i", "--n", "4"])

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_verify_rejects_nonpositive_jobs(self, capsys, jobs):
        code, _, err = run(capsys, "verify", "thm1-i", "--n", "4",
                           "--jobs", jobs)
        assert code == 2 and "--jobs" in err and "at least 1" in err

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_verify_rejects_nonpositive_trials(self, capsys, trials):
        code, out, err = run(capsys, "verify", "lemmas", "--trials", trials)
        assert code == 2 and out == ""
        assert "--trials" in err and "at least 1" in err

    def test_verify_rejects_non_integer_trials(self, capsys):
        code, out, err = run(capsys, "verify", "lemmas", "--trials", "x")
        assert code == 2 and out == ""
        assert err.endswith("error: argument --trials: 'x' is not an "
                            "integer\n")

    def test_no_command_usage_error(self, capsys):
        code, _, _ = run(capsys, "")
        assert code == 2
