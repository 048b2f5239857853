"""Verification suites and their reports."""

import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from eccspec import _kernels_py, census, kernels, suites
from eccspec.exactalg import IntMatrix, SymmetricSpectrum


def kernel_backend(name):
    """The kernel module named "compiled" or "pure"; the compiled one is
    skipped under ECCSPEC_KERNELS=py, which builds no extension."""
    if name == "pure":
        return _kernels_py
    if os.environ.get("ECCSPEC_KERNELS") == "py":
        pytest.skip("ECCSPEC_KERNELS=py: no compiled extension was built")
    from eccspec import _kernels
    return _kernels


def report_sha256(rep):
    """sha256 of a report's JSON, wall_time_s dropped."""
    d = rep.to_dict()
    del d["wall_time_s"]
    text = json.dumps(d, indent=2, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def kernel_backends():
    """Every kernel module the run has: only the pure one under
    ECCSPEC_KERNELS=py."""
    if os.environ.get("ECCSPEC_KERNELS") == "py":
        return [_kernels_py]
    return [kernel_backend("compiled"), _kernels_py]


needs_order_9 = pytest.mark.skipif(
    os.environ.get("ECCSPEC_KERNELS") == "py",
    reason="ECCSPEC_KERNELS=py: the order-9 census takes over 10 minutes on "
           "the pure-Python kernels")


class TestReports:
    def test_json_round_trip_is_identity(self):
        """The JSON form `verify --format json` prints holds every field."""
        rep = suites.suite_tables((16, 17, 18))
        text = json.dumps(rep.to_dict(), indent=2, sort_keys=True)
        d = json.loads(text)
        again = suites.VerificationReport(
            d["suite"], d["params"],
            [suites.CheckEntry(e["claim"], e["instance"], e["expected"],
                               e["actual"], e["pass"]) for e in d["entries"]],
            d["notes"], d["wall_time_s"])
        assert again == rep
        assert json.dumps(again.to_dict(), indent=2, sort_keys=True) == text

    def test_entries_deterministic_given_seed(self, census_cache):
        a = suites.run_suite("lemmas", seed=7, trials=5,
                             census_cache=census_cache)
        b = suites.run_suite("lemmas", seed=7, trials=5,
                             census_cache=census_cache)
        assert a.entries == b.entries
        assert a.notes == b.notes

    @pytest.mark.parametrize("trials", [0, -3])
    def test_lemmas_reject_nonpositive_trials(self, trials):
        with pytest.raises(ValueError, match="at least 1"):
            suites.run_suite("lemmas", trials=trials)

    def test_text_summary_mentions_failures(self):
        rep = suites.VerificationReport("demo", {})
        rep.check("claim", "instance", 1, 2)
        assert not rep.passed
        assert "FAIL" in rep.text_summary()
        assert rep.counts == {"total": 1, "passed": 0, "failed": 1}


class TestTheorem1Suite:
    def test_part_i_small(self, census_cache):
        rep = suites.run_suite("thm1-i", [2, 3, 4], census_cache=census_cache)
        assert rep.passed
        assert rep.params == {"part": "i", "n": [2, 3, 4]}

    def test_part_iii_census_window(self, census_cache):
        rep = suites.run_suite("thm1-iii", [4, 5, 6],
                               census_cache=census_cache)
        assert rep.passed
        census_entries = [e for e in rep.entries if "census" in e.instance]
        assert len(census_entries) == 3

    def test_part_iii_beyond_census_range_runs_family_only(self, census_cache):
        rep = suites.run_suite("thm1-iii", [12], census_cache=census_cache)
        assert rep.passed
        assert all("census" not in e.instance for e in rep.entries)

    def test_part_ii_rejects_beyond_census_range(self):
        with pytest.raises(ValueError):
            suites.run_suite("thm1-ii", [12])

    def test_rejects_oversize(self):
        with pytest.raises(ValueError):
            suites.run_suite("thm1-i", [41])

    def test_unknown_part(self):
        with pytest.raises(ValueError):
            suites.run_suite("thm1-vi")

    def test_part_iii_at_4_checks_the_join_then_p4(self, census_cache):
        rep = suites.run_suite("thm1-iii", [4], census_cache=census_cache)
        assert [e.instance for e in rep.entries[:2]] == ["n=4 K2v2K1",
                                                        "n=4 P4"]

    def test_part_v_claimed_only_when_all_ten_joins_exist(self, census_cache):
        rep = suites.run_suite("thm1-v", [5, 6], census_cache=census_cache)
        assert rep.notes[0] == "n=5 below the family's minimum order; skipped"
        assert len([e for e in rep.entries if e.instance.startswith("n=6 ")]) \
            == 10

    def test_part_v_reports_small_orders_without_asserting(self, census_cache):
        rep = suites.run_suite("thm1-v", [7, 16], census_cache=census_cache)
        assert rep.passed
        assert any("informational" in note for note in rep.notes)


MATES_CLAIM = ("the family member is determined by its eccentricity "
               "spectrum (no cospectral mates)")


class TestCospectralMates:
    """The no-cospectral-mates entries of parts iii and iv, on a copied
    census whose records are tampered with."""

    CASES = [("iii", 8), pytest.param("iv", 9, marks=needs_order_9)]

    @staticmethod
    def tampered(census_records, part, n):
        """A copy of the order-n records, one member of the part's class
        (a record) and a run of the part at n on the copy."""
        recs = list(census_records(n))
        (_, g), *_ = suites._expected_class(part, n)[1]
        canon = census.canonical_form(g)
        member = next(r for r in recs if r.canon == canon)

        def run():
            return suites.run_suite(f"thm1-{part}", [n],
                                    census_cache={n: recs})
        return recs, member, run

    @pytest.mark.parametrize("part,n", CASES)
    def test_foreign_record_with_a_members_charpoly_is_a_mate(
            self, census_records, part, n):
        recs, member, run = self.tampered(census_records, part, n)
        i = next(i for i, r in enumerate(recs) if not r.family_tags)
        recs[i] = recs[i]._replace(charpoly=member.charpoly,
                                   mult_minus1=member.mult_minus1)
        entry, = [e for e in run().entries if e.claim == MATES_CLAIM
                  and e.instance.endswith(member.family_tags[0])]
        assert not entry.passed
        assert entry.actual == str([recs[i].canon])

    @pytest.mark.parametrize("part,n", CASES)
    def test_member_outside_its_class_fails_without_raising(
            self, census_records, part, n):
        recs, member, run = self.tampered(census_records, part, n)
        i = recs.index(member)
        recs[i] = member._replace(mult_minus1=n - 6)
        failed = {(e.claim, e.instance) for e in run().entries
                  if not e.passed}
        instances = {instance for _, instance in failed}
        assert (MATES_CLAIM, f"n={n} {member.family_tags[0]}") in failed
        assert f"n={n} census scan" in instances


class TestTablesSuite:
    def test_known_erratum_is_the_only_failure(self):
        rep = suites.suite_tables((16, 17, 18, 19, 20))
        failing = [e for e in rep.entries if not e.passed]
        assert len(failing) == 1
        assert "2K2" in failing[0].claim or "2K2" in failing[0].actual
        informational = [e for e in rep.entries if "derived" in e.claim]
        assert len(informational) == 1 and informational[0].passed
        assert any("erroneous" in note for note in rep.notes)

    def test_requires_three_samples(self):
        with pytest.raises(ValueError):
            suites.run_suite("tables", (16, 17))

    def test_requires_validity_threshold(self):
        with pytest.raises(ValueError):
            suites.run_suite("tables", (15, 16, 17))


class TestMedianSuite:
    def test_rejects_small_orders(self):
        with pytest.raises(ValueError):
            suites.run_suite("median", [9])

    def test_n16(self):
        rep = suites.suite_median([16])
        assert rep.passed


MINIMUM_CLAIM = "-1 is the smallest eigenvalue exactly for the complete graph"
TWINS_CLAIM = "twin classes force their predicted eigenvalue multiplicities"
# sha256 of the seed-0, 5-trial lemmas report as JSON, wall_time_s dropped;
# re-pinned when the diameter-bound entry's instance text came to say
# "by charpoly root multiplicity" for "by direct rank", when the matrix-rule
# entry left the report for the test suite, and when the entry comparing
# rank-based multiplicities with charpoly root multiplicities left it for
# the rank oracle in test_census: the earlier report with only those edits
# made (counts recomputed) hashes to this digest
LEMMAS_REPORT_SHA256 = \
    "06abfb28368fa34ccdc0aaecaf5f1b7330b9b909d94655e65044dd557f844ccc"


class TestCensusPropertyChecks:
    """Each mutation of a census record fails exactly the census-wide checks
    that read what it changed, on each kernel backend."""

    @staticmethod
    def failed(cache):
        rep = suites.run_suite("lemmas", seed=0, trials=1, census_cache=cache)
        return {e.claim: e.actual for e in rep.entries if not e.passed}

    @classmethod
    def failed_on_each_backend(cls, cache, monkeypatch):
        """The failed claims, the same on every backend the run has."""
        seen = []
        for mod in kernel_backends():
            monkeypatch.setattr(suites, "kernels", mod)
            seen.append(cls.failed(cache))
        assert all(f == seen[0] for f in seen)
        return seen[0]

    @staticmethod
    def copied(census_records):
        return {n: list(census_records(n)) for n in range(2, 9)}

    def test_tampered_m_minus1_fails_the_twin_check(
            self, census_records, monkeypatch):
        """The census-wide checks read the record's multiplicities, so K5
        with m(-1) = 3, below the bound its co-duplicate class of five
        forces, must be caught."""
        cache = self.copied(census_records)
        recs = cache[5]
        i = next(i for i, r in enumerate(recs) if r.diam == 1)
        recs[i] = recs[i]._replace(mult_minus1=recs[i].mult_minus1 - 1)
        failed = self.failed_on_each_backend(cache, monkeypatch)
        assert sorted(failed) == [TWINS_CLAIM]
        assert recs[i].canon in failed[TWINS_CLAIM]

    def test_foreign_charpoly_on_k5_fails_the_minimum_check(
            self, census_records, monkeypatch):
        """K5 given another order-5 graph's charpoly: -1 is no longer its
        smallest eigenvalue."""
        cache = self.copied(census_records)
        recs = cache[5]
        i = next(i for i, r in enumerate(recs) if r.diam == 1)
        other = next(r for r in recs if r.diam != 1)
        recs[i] = recs[i]._replace(charpoly=other.charpoly)
        failed = self.failed_on_each_backend(cache, monkeypatch)
        assert sorted(failed) == [MINIMUM_CLAIM]
        assert recs[i].canon in failed[MINIMUM_CLAIM]

    @pytest.mark.parametrize("backend", ["compiled", "pure"])
    def test_lemmas_report_bytes_pinned(self, census_cache, monkeypatch,
                                        backend):
        """The report, apart from its wall time, is byte-for-byte the one
        pinned here, on either kernel backend; a change that should leave
        its entries alone must keep this digest."""
        monkeypatch.setattr(suites, "kernels", kernel_backend(backend))
        rep = suites.run_suite("lemmas", seed=0, trials=5,
                               census_cache=census_cache)
        assert report_sha256(rep) == LEMMAS_REPORT_SHA256


#: sha256 of reports whose entries are eigenvalue multiplicities, as JSON
#: with wall_time_s dropped, computed when every multiplicity was still a
#: rank by fraction-free elimination (lemmas: with the diameter-bound
#: instance text then reworded, and the matrix-rule and rank-versus-charpoly
#: entries then removed, as for LEMMAS_REPORT_SHA256)
MULTIPLICITY_REPORTS = {
    "thm1-iv": (
        lambda cache: suites.run_suite("thm1-iv", (16, 20)),
        "1ac55df3af3fc8b97b6e90da465b6648e1fc2261ad77646c2952a5f38caec139"),
    "thm1-v": (
        lambda cache: suites.run_suite("thm1-v", (16, 20, 33)),
        "2cf317967b30888e1b1b62c957d91a771b23c26d5f2a21a5250957d41bcbffda"),
    "lemmas": (
        lambda cache: suites.run_suite("lemmas", seed=0, trials=50,
                                       census_cache=cache),
        "cee5b81fa72828d10f6bfd5c21fc6e7841dab44880fb146f3b4de13c5e03dd18"),
}


@pytest.mark.parametrize("report", sorted(MULTIPLICITY_REPORTS))
@pytest.mark.parametrize("backend", ["compiled", "pure"])
def test_multiplicity_reports_pinned(census_cache, monkeypatch, backend,
                                     report):
    """Every kernel call, the charpolys the multiplicities are read off
    included, runs on one backend, and the report keeps its pinned bytes."""
    mod = kernel_backend(backend)
    for name in _kernels_py.__all__:
        monkeypatch.setattr(kernels, name, getattr(mod, name))
    monkeypatch.setattr(suites, "kernels", mod)
    run, digest = MULTIPLICITY_REPORTS[report]
    assert report_sha256(run(census_cache)) == digest


#: sha256 of the census-scan reports at their default orders, as JSON with
#: wall_time_s dropped, computed when every suite still read full record
#: lists from a per-run memo; every one of them reads order 9
CENSUS_SCAN_REPORTS = {
    "thm1-i":
        "2b9c91bcbef56f326b6b3a7d2be54e5d5079ffe4cab982e0334fe2c180b7a3c0",
    "thm1-ii":
        "65d73001dd88bf0715eaa696191e7970ad5d5ca2de9d96ae700d1c21e849189d",
    "thm1-iii":
        "7583cc8fdbe4bc4320928b62913972fd85286c1786990005e130bebe94cdc17c",
    "thm1-iv":
        "d80f96afd2d16052ccfeaa04725f4da15ffbdb4238b683bd1062df4431b2c21c",
}


@needs_order_9
@pytest.mark.parametrize("name", sorted(CENSUS_SCAN_REPORTS))
def test_census_scan_reports_pinned(census_cache, name):
    rep = suites.run_suite(name, census_cache=census_cache)
    assert rep.passed
    assert report_sha256(rep) == CENSUS_SCAN_REPORTS[name]


def two_width_bracket_ge(spec_a, i_a, spec_b, i_b):
    """Reference: the interlacing decision from brackets at 2^-20, then at
    2^-40 only when those overlap; an overlap at 2^-40 is a tie."""
    for width in (Fraction(1, 2 ** 20), Fraction(1, 2 ** 40)):
        ba = spec_a.bracket(i_a, width)
        bb = spec_b.bracket(i_b, width)
        if ba.is_point():
            return spec_b.count_gt(ba.lo) < i_b
        if bb.is_point():
            return spec_a.count_ge(bb.lo) >= i_a
        if ba.lo >= bb.hi:
            return True
        if ba.hi < bb.lo:
            return False
    return True


class TestBracketGe:
    GOLDEN = IntMatrix([[1, 1], [1, 0]])  # eigenvalues (1 +- sqrt 5)/2

    @staticmethod
    def count_brackets(monkeypatch):
        """The widths SymmetricSpectrum.bracket is called with from now on."""
        widths = []
        real = SymmetricSpectrum.bracket

        def counting(self, i, width=suites.DEFAULT_BRACKET_WIDTH):
            widths.append(Fraction(width))
            return real(self, i, width)

        monkeypatch.setattr(SymmetricSpectrum, "bracket", counting)
        return widths

    def test_matches_two_width_rule_on_principal_submatrices(self):
        rng = random.Random(2024)
        decided = set()
        for _ in range(60):
            m = suites._random_symmetric(rng)
            n = m.n
            k = rng.randint(1, n)
            sub = m.principal_submatrix(sorted(rng.sample(range(n), k)))
            for i in range(1, k + 1):
                for j in (i, n - k + i):
                    for a, i_a, b, i_b in ((m, j, sub, i), (sub, i, m, j)):
                        got = suites._bracket_ge(
                            SymmetricSpectrum(a), i_a, SymmetricSpectrum(b),
                            i_b)
                        want = two_width_bracket_ge(
                            SymmetricSpectrum(a), i_a, SymmetricSpectrum(b),
                            i_b)
                        assert got == want, (a, i_a, b, i_b)
                        decided.add(got)
        assert decided == {True, False}

    def test_equal_spectrum_needs_no_bracket(self, monkeypatch):
        m = suites._random_symmetric(random.Random(5))
        perm = list(range(m.n))[::-1]
        flipped = IntMatrix([[m[p, q] for q in perm] for p in perm])
        spec_m, spec_f = SymmetricSpectrum(m), SymmetricSpectrum(flipped)
        widths = self.count_brackets(monkeypatch)
        for i in range(1, m.n + 1):
            assert suites._bracket_ge(spec_m, i, spec_f, i)
            assert suites._bracket_ge(spec_f, i, spec_m, i)
            assert suites._bracket_ge(spec_m, i, spec_m, i)
        assert widths == []

    def test_shared_irrational_eigenvalue_of_a_direct_sum_is_a_tie(
            self, monkeypatch):
        # GOLDEN + [5] has the eigenvalues 5, (1 + sqrt 5)/2, (1 - sqrt 5)/2
        plus = IntMatrix([[1, 1, 0], [1, 0, 0], [0, 0, 5]])
        spec_a = SymmetricSpectrum(self.GOLDEN)
        spec_p = SymmetricSpectrum(plus)
        assert spec_a.charpoly != spec_p.charpoly
        widths = self.count_brackets(monkeypatch)
        assert suites._bracket_ge(spec_p, 2, spec_a, 1)
        assert suites._bracket_ge(spec_a, 1, spec_p, 2)
        assert suites._bracket_ge(spec_a, 2, spec_p, 3)
        # every width overlaps, so only the 2^-40 tie says True
        assert sorted(set(widths)) == [Fraction(1, 2 ** 40),
                                       Fraction(1, 2 ** 20), 1]

    def test_integer_eigenvalue_decides_by_its_point_bracket(
            self, monkeypatch):
        spec_2 = SymmetricSpectrum(IntMatrix([[2]]))
        spec_g = SymmetricSpectrum(self.GOLDEN)
        widths = self.count_brackets(monkeypatch)
        assert suites._bracket_ge(spec_2, 1, spec_g, 1)  # 2 >= 1.618...
        assert not suites._bracket_ge(spec_g, 1, spec_2, 1)
        assert widths == [1] * 4
        assert spec_2.bracket(1, 1) == (2, 2)


class TestCheckArgs:
    def test_defaults_and_normalisation(self):
        assert suites.check_args("thm1-iv") == (9, 16, 20)
        assert suites.check_args("thm1-i", []) == ()
        assert suites.check_args("tables", None) == (16, 17, 18, 19, 20)
        assert suites.check_args("median", [20, 11, 20]) == (11, 20)
        assert suites.check_args("lemmas", [3]) == ()

    @pytest.mark.parametrize("name,n_values,message", [
        ("thm1-vi", None, "unknown part"),
        ("thm1-i", [41], "n <= 40"),
        ("thm1-ii", [10], "n <= 9"),
        ("tables", [16, 17], "3 sample orders"),
        ("tables", [15, 16, 17], "n >= 16"),
        ("median", [10], "n >= 11"),
        ("bogus", None, "unknown suite"),
        ("thm1-i", [-3, 0, 1], "1 <= n <= 40"),
        ("thm1-iv", [0], "1 <= n <= 40"),
        ("tables", [16, 17, 70], "1 <= n <= 40"),
        ("median", [70], "1 <= n <= 40"),
    ])
    def test_rejects(self, name, n_values, message):
        with pytest.raises(ValueError, match=message):
            suites.check_args(name, n_values)
        with pytest.raises(ValueError, match=message):
            suites.run_suite(name, n_values)


class TestRunner:
    def test_run_suite_dispatch(self, census_cache):
        rep = suites.run_suite("thm1-i", n_values=[3],
                               census_cache=census_cache)
        assert rep.suite == "thm1-i" and rep.passed

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            suites.run_suite("bogus")

    def test_each_census_order_is_classified_once(self, monkeypatch):
        """Suites that read the same orders share one pass per order, and
        without a cache each pass classifies its order afresh."""
        calls = []
        level_bits = census._level_bits

        def counting(n, jobs=1):
            calls.append(n)
            return level_bits(n, jobs)

        monkeypatch.setattr(census, "_level_bits", counting)
        reports = suites.run_suites(["thm1-i", "thm1-iii", "lemmas"],
                                    n_values=range(2, 8))
        assert all(rep.passed for rep in reports)
        assert sorted(calls) == list(range(2, 9))
