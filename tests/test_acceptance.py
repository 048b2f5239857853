"""Acceptance criteria.

One test per criterion, each at its stated exact tolerance and time budget;
the node names are the per-criterion pass/fail lines.  The census-scale
criteria need the compiled kernels to meet their time budgets and are
skipped (loudly) under the pure-Python kernels (ECCSPEC_KERNELS=py), where
order 9 alone takes over 10 minutes.

Criterion 6 is expected RED on exactly one parametrized case: the published
2K2 table row is mathematically erroneous (its (x+2) factor never divides the
exact characteristic polynomial; the true identity, verified as the
informational 'derived' row, carries (x+4)(x^2-(n-1)x-4) instead).  The row
is asserted as printed rather than silently corrected.
"""

import time

import pytest

from eccspec import census, kernels, suites
from eccspec.eccentricity import acharpoly, ecc_matrix, is_irreducible, multiplicity
from eccspec.exactalg import IntPolynomial
from eccspec.graphs import clique_joins, join_clique_with, path

RUN_SLOW = kernels.BACKEND == "compiled"

needs_fast_kernels = pytest.mark.skipif(
    not RUN_SLOW,
    reason="census-scale acceptance criteria cannot meet their stated time "
           "budgets on the pure-Python kernels; run without "
           "ECCSPEC_KERNELS=py to build and test the extension")


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def timed_census(census_cache):
    """Cold full census builds: orders 2..8 together, then 9, both timed.
    Every classify call builds from scratch; the records then serve the
    session census."""
    by_n = {}
    t0 = time.perf_counter()
    for n in range(2, 9):
        by_n[n] = census.classify(n)
    t_upto8 = time.perf_counter() - t0
    t0 = time.perf_counter()
    by_n[9] = census.classify(9)
    t9 = time.perf_counter() - t0
    census_cache.update(by_n)
    return by_n, t_upto8, t9


def _mult_class(records, target):
    return sorted((r for r in records if r.mult_minus1 == target),
                  key=lambda r: r.canon)


@needs_fast_kernels
def test_criterion_01_complete_graph_class_and_census_times(timed_census):
    by_n, t_upto8, t9 = timed_census
    for n in range(2, 10):
        hits = _mult_class(by_n[n], n - 1)
        assert len(hits) == 1 and "K" + str(n) in hits[0].family_tags, n
    _report(1, t_upto8 < 30 and t_upto8 + t9 < 600,
            f"m(-1)=n-1 is K_n alone for n=2..9; census n<=8 in "
            f"{t_upto8:.1f}s (<30s), n=9 in {t_upto8 + t9:.1f}s (<600s)")


@needs_fast_kernels
def test_criterion_02_no_graph_attains_n_minus_2(timed_census):
    by_n, _, _ = timed_census
    counts = {n: len(_mult_class(by_n[n], n - 2)) for n in range(4, 10)}
    _report(2, all(c == 0 for c in counts.values()),
            f"zero graphs with m(-1)=n-2 for n=4..9 (counts {counts})")


@needs_fast_kernels
def test_criterion_03_n_minus_3_class_exact_and_spectrally_determined(
        timed_census):
    by_n, _, _ = timed_census
    ok = True
    for n in range(4, 10):
        hits = _mult_class(by_n[n], n - 3)
        want = {census.canonical_form(join_clique_with(n - 2, "2K1"))}
        if n == 4:
            want.add(census.canonical_form(path(4)))
        ok &= {r.canon for r in hits} == want
        for rec in hits:
            ok &= census.cospectral_mates(by_n[n], rec) == []
    _report(3, ok, "m(-1)=n-3 class is {P4, K2v2K1} at n=4 and "
                   "{K(n-2)v2K1} at n=5..9, all with no cospectral mates")


@needs_fast_kernels
def test_criterion_04_n_minus_4_class_at_order_9(timed_census):
    by_n, _, _ = timed_census
    hits = _mult_class(by_n[9], 5)
    want = {census.canonical_form(join_clique_with(6, "K2uK1")),
            census.canonical_form(join_clique_with(6, "3K1"))}
    ok = {r.canon for r in hits} == want
    for rec in hits:
        ok &= census.cospectral_mates(by_n[9], rec) == []
    _report(4, ok, "m(-1)=5 at n=9 is exactly {K6vK2uK1, K6v3K1}, "
                   "both spectrally determined")


def test_criterion_05_all_ten_families_attain_n_minus_5():
    t0 = time.perf_counter()
    bad = []
    for n in (16, 20, 33):
        for name, g in clique_joins(5, n):
            if multiplicity(g, -1) != n - 5:
                bad.append((n, name))
    elapsed = time.perf_counter() - t0
    _report(5, not bad and elapsed < 60,
            f"all 10 family graphs have m(-1)=n-5 at n in {{16,20,33}} "
            f"in {elapsed:.1f}s (<60s); failures={bad}")


@pytest.fixture(scope="module")
def tables_report():
    t0 = time.perf_counter()
    rep = suites.suite_tables((16, 17, 18, 19, 20))
    return rep, time.perf_counter() - t0


_PRINTED_ROWS = [suites._row_claim(row) for row in suites.TABLE_ROWS
                 if not row.informational]


@pytest.mark.parametrize("claim", _PRINTED_ROWS,
                         ids=[r.label + ("*" if r.informational else "")
                              for r in suites.TABLE_ROWS if not r.informational])
def test_criterion_06_table_rows_as_printed(tables_report, claim):
    rep, _ = tables_report
    entry = next(e for e in rep.entries if e.claim == claim)
    assert entry.passed, (
        f"printed table row fails as printed: {entry.actual}. This row is "
        "mathematically erroneous in its source; the derived identity "
        "(x+1)^(n-5) x^2 (x+4) (x^2-(n-1)x-4) is verified by the "
        "informational entry and the suite notes.")


def test_criterion_06_table_suite_time_and_derived_row(tables_report):
    rep, elapsed = tables_report
    derived = [e for e in rep.entries if "derived" in e.claim]
    _report(6, elapsed < 60 and derived and all(e.passed for e in derived),
            f"table-identity suite ran in {elapsed:.1f}s (<60s); the derived "
            "2K2 identity holds exactly (see the parametrized cases for the "
            "printed rows; the printed 2K2 row is honestly red)")


@pytest.fixture(scope="module")
def lemmas_report(census_cache):
    return suites.run_suite("lemmas", seed=0, census_cache=census_cache)


def _entry(rep, fragment):
    matches = [e for e in rep.entries if fragment in e.claim]
    assert matches, f"no suite entry matching {fragment!r}"
    return matches[0]


def test_criterion_07_quotient_identity_200_specs(lemmas_report):
    e = _entry(lemmas_report, "P(M) = P(Q)")
    assert "200" in e.instance
    _report(7, e.passed, "exact spectrum identity on 200 seeded block specs")


def test_criterion_08_unit_diagonal_rank_500_matrices(lemmas_report):
    e = _entry(lemmas_report, "full rank")
    assert "500" in e.instance
    _report(8, e.passed, "500 seeded unit-diagonal {0,a} matrices all have "
                         "full rank")


def test_criterion_09_interlacing_and_multiplicity_bound(lemmas_report):
    e1 = _entry(lemmas_report, "interlace")
    e2 = _entry(lemmas_report, "m_M(xi) <= n - k + m_M*(xi)")
    assert "200" in e1.instance and "200" in e2.instance
    _report(9, e1.passed and e2.passed,
            "interlacing and the principal-submatrix multiplicity bound on "
            "200 seeded matrices, ties decided by exact inertia")


def test_criterion_10_structured_family_multiplicities(lemmas_report):
    fragments = ("twin classes force", "star mixed extensions",
                 "complete multipartite joins", "K_r joined to an independent")
    entries = [_entry(lemmas_report, f) for f in fragments]
    _report(10, all(e.passed for e in entries),
            "twin-class bounds over the n<=8 census plus 100-sample mixed-"
            "star and multipartite multiplicity formulas, all exact")


def test_criterion_11_median_eigenvalues_at_20():
    t0 = time.perf_counter()
    rep = suites.suite_median([20])
    elapsed = time.perf_counter() - t0
    k20 = [e for e in rep.entries if "K20" in e.instance]
    _report(11, rep.passed and len(k20) == 2 and elapsed < 30,
            f"every family graph at n=20 (incl. K20) has both medians -1 "
            f"and HL index exactly 1, in {elapsed:.1f}s (<30s)")


def test_criterion_12_golden_polynomials_and_irreducibility():
    ok = acharpoly(path(4)) == IntPolynomial((16, 0, -17, 0, 1))
    from eccspec.graphs import cycle
    ok &= acharpoly(cycle(4)) == IntPolynomial((16, 0, -8, 0, 1))
    want = (IntPolynomial((1, 1)) ** 5) * (IntPolynomial((2, 1)) ** 2) \
        * IntPolynomial((2, -9, 1))
    ok &= acharpoly(join_clique_with(6, "3K1")) == want
    for n in (16, 20):
        for name, g in clique_joins(5, n):
            ok &= is_irreducible(ecc_matrix(g))
    _report(12, ok, "golden charpolys (P4, C4, K6v3K1) and irreducibility of "
                    "all ten families at n in {16,20}")
