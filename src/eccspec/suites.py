"""Verification suites: structured family checks, census scans, table
identities, and randomized property checks, all emitting machine-readable
reports.

Every check is exact; random corpora come from one seeded generator whose
seed is recorded in the report, so failures are reproducible.  A suite passes
iff all of its entries pass.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from . import census as census_mod
from . import kernels
from .eccentricity import (
    acharpoly,
    ecc_matrix,
    median_brackets,
    multiplicity,
    spectrum_median_is,
)
from .exactalg import (
    DEFAULT_BRACKET_WIDTH,
    IntMatrix,
    IntPolynomial,
    SymmetricSpectrum,
    bareiss_rank,
    poly_divide_exact,
    root_multiplicity,
)
from .graphs import (
    CLIQUE_JOINS,
    Graph,
    bfs_metrics,
    clique_joins,
    complete,
    complete_multipartite,
    cycle,
    join,
    join_clique_with,
    mixed_extension_star,
    path,
    theorem1_families,
)
from .quotient import BlockSpec, verify_spectrum_identity

REPORT_FORMAT_VERSION = 1

MAX_FAMILY_ORDER = 40
CENSUS_MAX = 9
TABLES_DEFAULT_N = (16, 17, 18, 19, 20)
MEDIAN_DEFAULT_N = (20,)


@dataclass(frozen=True)
class CheckEntry:
    claim: str
    instance: str
    expected: str
    actual: str
    passed: bool

    def to_dict(self):
        return {"claim": self.claim, "instance": self.instance,
                "expected": self.expected, "actual": self.actual,
                "pass": self.passed}


@dataclass
class VerificationReport:
    suite: str
    params: dict
    entries: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    wall_time_s: float = 0.0

    def check(self, claim, instance, expected, actual):
        entry = CheckEntry(claim, instance, str(expected), str(actual),
                           str(expected) == str(actual))
        self.entries.append(entry)
        return entry.passed

    def check_bool(self, claim, instance, ok, detail=""):
        entry = CheckEntry(claim, instance, "pass", detail if detail else
                           ("pass" if ok else "fail"), bool(ok))
        self.entries.append(entry)
        return entry.passed

    @property
    def passed(self):
        return all(e.passed for e in self.entries)

    @property
    def counts(self):
        passed = sum(1 for e in self.entries if e.passed)
        return {"total": len(self.entries), "passed": passed,
                "failed": len(self.entries) - passed}

    def to_dict(self):
        return {
            "version": REPORT_FORMAT_VERSION,
            "suite": self.suite,
            "params": self.params,
            "entries": [e.to_dict() for e in self.entries],
            "counts": self.counts,
            "notes": list(self.notes),
            "wall_time_s": self.wall_time_s,
        }

    def text_summary(self):
        lines = [f"suite {self.suite}: "
                 f"{self.counts['passed']}/{self.counts['total']} checks passed"
                 f" in {self.wall_time_s:.2f}s"]
        for e in self.entries:
            mark = "ok  " if e.passed else "FAIL"
            lines.append(f"  {mark} {e.claim} [{e.instance}] "
                         f"expected={e.expected} actual={e.actual}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# multiplicity characterization suite (parts i..v)

THM1_DEFAULT_N = {  # the parts in order, i = 1..5
    "i": tuple(range(2, 10)),
    "ii": tuple(range(4, 10)),
    "iii": tuple(range(4, 10)),
    "iv": (9, 16, 20),
    "v": (16, 20, 33),
}

#: each part's lowest census order; its census claim runs up to CENSUS_MAX
THM1_CENSUS_FROM = {"i": 1, "ii": 1, "iii": 4, "iv": CENSUS_MAX, "v": 1}


def _expected_class(part, n):
    """The family graphs that should attain the part's multiplicity at order
    n, as (name, Graph) pairs, plus the multiplicity value.  A class is
    claimed only when every one of its joins exists at order n; below that
    the list is empty."""
    i = list(THM1_DEFAULT_N).index(part) + 1
    if i == 1:
        return n - 1, [(f"K{n}", complete(n))]
    fams = clique_joins(i, n)
    if len(fams) < len(CLIQUE_JOINS.get(i, ())):
        fams = []
    if i == 3 and n == 4:
        fams.append(("P4", path(4)))
    return n - i, fams


def suite_theorem1(part, n_values, scan):
    """Characterization of connected graphs with m(-1) = n-i for one i.

    The membership direction (every named family graph attains the claimed
    multiplicity) runs at any order up to 40; the exhaustiveness direction
    (no other graph attains it) reads ``scan(n)``, the census pass of order
    n (see ``run_suites``), at the orders ``THM1_CENSUS_FROM`` gives.
    """
    rep = VerificationReport(f"thm1-{part}", {"part": part, "n": list(n_values)})
    for n in n_values:
        target, fams = _expected_class(part, n)
        if target < 0 or (part != "ii" and not fams):
            rep.notes.append(f"n={n} below the family's minimum order; skipped")
            continue
        for name, g in fams:
            rep.check(f"m(-1) = n-{n - target} for every member of the "
                      "characterized family",
                      f"n={n} {name}", target, multiplicity(g, -1))
        if not THM1_CENSUS_FROM[part] <= n <= CENSUS_MAX:
            continue
        klass = [r for r in scan(n)[0] if r.mult_minus1 == target]
        if part == "v":
            rep.notes.append(
                f"n={n} is below the n>=16 validity threshold; census reports "
                f"{len(klass)} graphs with m(-1)=n-5 (informational only): "
                f"{[(r.canon, r.family_tags) for r in klass]}")
            continue
        canons = [census_mod.canonical_form(g) for _, g in fams]
        rep.check("no connected graph outside the characterized family "
                  f"attains m(-1) = n-{n - target}",
                  f"n={n} census scan", sorted(canons),
                  sorted(r.canon for r in klass))
        if part in ("iii", "iv"):
            for (name, _), canon in zip(fams, canons):
                # a mate has the member's charpoly, so its m(-1) and class
                member = next((r for r in klass if r.canon == canon), None)
                mates = "not in the census class" if member is None else [
                    m.canon for m in census_mod.cospectral_mates(klass, member)]
                rep.check("the family member is determined by its "
                          "eccentricity spectrum (no cospectral mates)",
                          f"n={n} {name}", [], mates)
    return rep


# ---------------------------------------------------------------------------
# characteristic-polynomial table suite

_X = IntPolynomial((0, 1))
_XP1 = IntPolynomial((1, 1))
_XP2 = IntPolynomial((2, 1))
_QUAD = IntPolynomial((-4, 2, 1))  # x^2 + 2x - 4


@dataclass(frozen=True)
class TableRow:
    clique: int  # the row is K_{n-clique} v descriptor
    descriptor: str
    fixed: tuple  # additional fixed factors as (IntPolynomial, exponent)
    quotient_affine: tuple  # ascending coeffs as (a, b) meaning a*n + b
    informational: str = ""

    @property
    def label(self):
        return f"K{{n-{self.clique}}}v{self.descriptor}"

    @property
    def one_exp(self):
        """i of the row's m(-1) = n-i class: (x+1) has exponent n - i."""
        return next(i for i, joins in CLIQUE_JOINS.items()
                    if (self.clique, self.descriptor) in joins)


TABLE_ROWS = (
    TableRow(4, "4K1", ((_XP2, 3),), ((2, -14), (-1, -1), (0, 1))),
    TableRow(4, "2K1uK2", ((_XP2, 1), (_X, 1)),
             ((4, -32), (-2, -10), (-1, 3), (0, 1))),
    TableRow(4, "P3uK1", ((_XP2, 1),),
             ((0, 8), (4, -20), (-2, -6), (-1, 3), (0, 1))),
    TableRow(4, "2K2", ((_X, 2), (_XP2, 1)), ((-2, 6), (-1, 3), (0, 1))),
    TableRow(4, "P4", (),
             ((0, 16), (8, -16), (0, -12), (-4, 4), (-1, 5), (0, 1))),
    TableRow(4, "K3uK1", ((_X, 2),), ((0, -12), (-4, 4), (-1, 5), (0, 1))),
    TableRow(4, "C4", ((_XP2, 2),), ((4, -12), (0, 0), (-1, 1), (0, 1))),
    TableRow(5, "C5", ((_QUAD, 2),), ((-1, 1), (0, 1))),
    TableRow(5, "K1uP4", ((_QUAD, 1),),
             ((4, -36), (-2, -10), (-1, 3), (0, 1))),
    TableRow(5, "H1", ((_QUAD, 1),), ((4, -20), (-2, -2), (-1, 3), (0, 1))),
    TableRow(3, "K2uK1", ((_X, 1),), ((0, -8), (-3, 1), (-1, 4), (0, 1))),
    TableRow(3, "3K1", ((_XP2, 2),), ((1, -7), (-1, 0), (0, 1))),
    # The published 2K2 row fails its (x+2) division; this derived row is the
    # identity the matrix actually satisfies and is reported separately.
    TableRow(4, "2K2", ((_X, 2),), ((0, -16), (-4, 0), (-1, 5), (0, 1)),
             informational="derived replacement for the failing printed row"),
)


def _row_factors(row: TableRow, n: int) -> IntPolynomial:
    out = _XP1 ** (n - row.one_exp)
    for poly, k in row.fixed:
        out = out * (poly ** k)
    return out


def _row_claim(row: TableRow) -> str:
    fixed = f"(x+1)^(n-{row.one_exp})"
    for poly, k in row.fixed:
        part = "x" if poly == _X else ("(x+2)" if poly == _XP2 else "(x^2+2x-4)")
        fixed += f" * {part}" + (f"^{k}" if k > 1 else "")
    quot = ", ".join(f"{a}n+{b}" if a else str(b)
                     for a, b in row.quotient_affine)
    claim = (f"charpoly factors as {fixed} times a quotient with ascending "
             f"coefficients [{quot}]")
    if row.informational:
        claim = f"[{row.informational}] {claim}"
    return claim


def suite_tables(n_samples=TABLES_DEFAULT_N):
    """Exact verification of the published characteristic-polynomial table
    rows as polynomial identities in the order n.

    For each row: compute the exact charpoly at every sample order, divide
    out the stated fixed factors, and match each quotient coefficient with
    its printed affine form a*n+b at every sample order (two orders fix an
    affine form, so three or more also confirm it).
    """
    rep = VerificationReport("tables", {"n": list(n_samples)})
    rep.notes.append(
        "the order-5 join rows (C5, K1uP4, H1) are published with a K_{n-4} "
        "clique label; the polynomial degrees require K_{n-5}, which is what "
        "this suite builds and verifies")
    for row in TABLE_ROWS:
        claim = _row_claim(row)
        quotients = {}
        failure = None
        for n in n_samples:
            g = join_clique_with(n - row.clique, row.descriptor)
            q = poly_divide_exact(acharpoly(g), _row_factors(row, n))
            if q is None:
                failure = (f"fixed factor does not divide charpoly at n={n} "
                           f"(row {row.label})")
                break
            if q.degree != len(row.quotient_affine) - 1:
                failure = (f"quotient degree {q.degree} != "
                           f"{len(row.quotient_affine) - 1} at n={n}")
                break
            quotients[n] = q
        if failure is not None:
            rep.check_bool(claim, f"rows at n={list(n_samples)}", False, failure)
            if row.label == "K{n-4}v2K2" and not row.informational:
                rep.notes.append(
                    "the printed 2K2 row is erroneous: its (x+2) factor never "
                    "divides; the derived identity with (x^2-(n-1)x-4)(x+4) "
                    "-- reported as a separate informational row -- is what "
                    "the matrix satisfies")
            continue
        ok = True
        detail = "matches printed affine forms at all samples"
        for n, q in quotients.items():
            for j, (a, b) in enumerate(row.quotient_affine):
                got = q.coeffs[j] if j <= q.degree else 0
                if ok and a * n + b != got:
                    ok = False
                    detail = (f"coefficient {j} is {got} at n={n}, printed "
                              f"form says {a}n+{b}")
        rep.check_bool(claim, f"n in {list(n_samples)}", ok, detail)
    return rep


# ---------------------------------------------------------------------------
# randomized / census property suite

LEMMA_TRIALS = {
    "unit_diag_rank": 500,
    "block_identity": 200,
    "interlacing": 200,
    "mixed_stars": 100,
    "multipartite": 100,
}

LEMMA_CENSUS_ORDERS = range(2, 9)

#: the census-wide structure checks, in report order
CENSUS_STRUCTURE_CLAIMS = (
    "a vertex of eccentricity 1 forces diameter <= 2",
    "diameter 1 exactly for the complete graph",
    "|V1| is n-k or n-k+1 when V1 is nonempty, k = n - m(-1)",
    "empty V1 with n >= k(d-1)+1 forces m(-1) <= n-k-1",
    "diameter >= 4 forces m(-1) <= n-5, and m(-1) = n-5 forces 2 <= d <= 4",
    "twin classes force their predicted eigenvalue multiplicities",
    "-1 is the smallest eigenvalue exactly for the complete graph",
    "exactly one positive eigenvalue implies the star-mixed-extension join "
    "shape",
)


def _random_symmetric(rng):
    n = rng.randint(2, 8)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-5, 5)
    return IntMatrix(rows)


def _bracket_ge(spec_a, i_a, spec_b, i_b):
    """Exact-where-possible decision of xi_{i_a}(A) >= xi_{i_b}(B).

    Equal indices into equal characteristic polynomials name the same
    eigenvalue, so that case is True without a bracket.  Otherwise the
    brackets are compared at width 1 (the integer phase alone), then at the
    default width, then at 2^-40, stopping at the first width that decides:
    disjoint brackets decide at once, and a rational-certified side is
    decided by an inertia count on the other.  An integer eigenvalue is a
    point bracket at every width, and an irrational one has dyadic brackets
    (L/2^S, (L+1)/2^S) that are nested as S grows, so a width that decides
    gives the decision of every finer width.  Only a 2^-40 overlap between
    different characteristic polynomials is treated as a tie (the compared
    values agree to 2^-40).
    """
    if i_a == i_b and spec_a.charpoly == spec_b.charpoly:
        return True
    for width in (1, DEFAULT_BRACKET_WIDTH, Fraction(1, 2 ** 40)):
        ba = spec_a.bracket(i_a, width)
        bb = spec_b.bracket(i_b, width)
        if ba.is_point():
            return spec_b.count_gt(ba.lo) < i_b  # xi_b <= ba
        if bb.is_point():
            return spec_a.count_ge(bb.lo) >= i_a  # xi_a >= bb
        if ba.lo >= bb.hi:
            return True
        if ba.hi < bb.lo:
            return False
    return True  # overlap at width 2^-40: tie


def suite_lemmas(seed, trials, scan):
    """Randomized and census-wide property checks backing the supporting
    results: full rank of unit-diagonal {0,a} matrices, the equitable
    quotient spectrum identity, eigenvalue interlacing and the principal-
    submatrix multiplicity bound, twin-class eigenvalue predictions, the
    mixed-star and complete-multipartite multiplicity formulas, the
    eccentricity-level structure facts (from ``scan(n)``, see
    ``run_suites``, at ``LEMMA_CENSUS_ORDERS``), and the diameter bounds."""
    counts = dict(LEMMA_TRIALS)
    if trials is not None:
        if trials < 1:
            raise ValueError(f"trials must be at least 1, got {trials}")
        counts = {k: int(trials) for k in counts}
    rng = random.Random(seed)
    rep = VerificationReport("lemmas", {"seed": seed, "trials": counts})

    # full rank of symmetric unit-diagonal matrices with off-diagonals in {0,a}
    bad = []
    for t in range(counts["unit_diag_rank"]):
        n = rng.randint(1, 12)
        a = rng.choice((2, 3, 5))
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = 1
            for j in range(i + 1, n):
                rows[i][j] = rows[j][i] = a * rng.randint(0, 1)
        if bareiss_rank(IntMatrix(rows)) != n:
            bad.append(t)
    rep.check("symmetric unit-diagonal matrices with off-diagonal entries in "
              "{0,a}, a>=2, have full rank",
              f"{counts['unit_diag_rank']} seeded trials, n<=12", [], bad)

    # equitable quotient spectrum identity on random block specs
    bad = []
    for t in range(counts["block_identity"]):
        l = rng.randint(1, 4)
        sizes = tuple(rng.randint(1, 5) for _ in range(l))
        s = [[0] * l for _ in range(l)]
        for i in range(l):
            s[i][i] = rng.randint(0, 3)
            for j in range(i + 1, l):
                s[i][j] = s[j][i] = rng.randint(0, 3)
        p = tuple(rng.randint(-3, 3) for _ in range(l))
        spec = BlockSpec(sizes, tuple(map(tuple, s)), p)
        if not verify_spectrum_identity(spec):
            bad.append(spec.to_text())
    rep.check("P(M) = P(Q) * prod (x - p_i)^(n_i - 1) for J/I block matrices",
              f"{counts['block_identity']} seeded random specs", [], bad)

    # interlacing and the principal-submatrix multiplicity bound
    bad_inter = []
    bad_bound = []
    for t in range(counts["interlacing"]):
        m = _random_symmetric(rng)
        n = m.n
        k = rng.randint(1, n)
        idx = sorted(rng.sample(range(n), k))
        sub = m.principal_submatrix(idx)
        spec_m = SymmetricSpectrum(m)
        spec_s = SymmetricSpectrum(sub)
        for i in range(1, k + 1):
            if not _bracket_ge(spec_m, i, spec_s, i):
                bad_inter.append((t, i, "upper"))
            if not _bracket_ge(spec_s, i, spec_m, n - k + i):
                bad_inter.append((t, i, "lower"))
        for xi in (-2, -1, 0, 1):
            ms = root_multiplicity(spec_s.charpoly, xi)
            if root_multiplicity(spec_m.charpoly, xi) > n - k + ms:
                bad_bound.append((t, xi))
    rep.check("principal submatrices interlace: xi_i(M) >= xi_i(M*) >= "
              "xi_{n-k+i}(M)",
              f"{counts['interlacing']} seeded random symmetric matrices",
              [], bad_inter)
    rep.check("m_M(xi) <= n - k + m_M*(xi) for principal submatrices, "
              "xi in {-2,-1,0,1}",
              f"{counts['interlacing']} seeded random symmetric matrices",
              [], bad_bound)

    # mixed extensions of a star: m(-1) = t0 - 1.  The published "exactly one
    # positive eigenvalue" iff is true only in the only-if direction (checked
    # census-wide below); K4 v 4K1 = S(4,-4) already has two positive
    # eigenvalues, so the sampled direction asserts the multiplicity only.
    bad = []
    for t in range(counts["mixed_stars"]):
        t0 = rng.randint(1, 5)
        while True:
            p = rng.randint(0, 5)
            q = rng.randint(0, 3)
            if p + 2 * q + t0 > 14:
                continue
            # skip parameterizations that collapse to a complete graph
            if (q == 0 and p <= 1) or (q == 1 and p == 0):
                continue
            break
        ts = [rng.randint(2, 4) for _ in range(q)]
        g = mixed_extension_star(t0, p, ts)
        if g.n > 14:
            continue
        if multiplicity(g, -1) != t0 - 1:
            bad.append((t0, p, tuple(ts)))
    rep.check("star mixed extensions have m(-1) = t0 - 1",
              f"{counts['mixed_stars']} seeded samples", [], bad)
    rep.notes.append(
        "the published characterization of one positive eigenvalue is an "
        "equivalence; its membership direction fails already at n=8 "
        "(K3v5K1, K4v4K1, K5v3K1 are star mixed extensions with two "
        "positive eigenvalues) while the direction the multiplicity proofs "
        "use -- one positive eigenvalue implies the star join shape -- "
        "holds census-wide and is checked below")

    # complete multipartite joins: m(-1), m(-2), equal-part eigenvalues
    bad = []
    for t in range(counts["multipartite"]):
        r = rng.randint(0, 4)
        k = rng.randint(1 if r >= 1 else 2, 5)
        parts = sorted((rng.randint(2, 5) for _ in range(k)), reverse=True)
        if r + sum(parts) > 16:
            continue
        core = complete_multipartite(parts) if k >= 2 else \
            Graph(parts[0])  # single part: independent set
        g = join(complete(r), core) if r >= 1 else core
        cp = acharpoly(g)
        n = g.n
        if r >= 1 and k >= 2:
            if root_multiplicity(cp, -1) != r - 1:
                bad.append(("m(-1)", r, tuple(parts)))
        if r >= 1:
            m2 = root_multiplicity(cp, -2)
            if ((r, k) not in ((1, 4), (2, 3))) != (m2 == n - r - k):
                bad.append(("m(-2)", r, tuple(parts)))
            sizes = sorted(set(parts))
            for v in sizes:
                cnt = parts.count(v)
                if root_multiplicity(cp, 2 * v - 2) != cnt - 1:
                    bad.append(("equal-part", r, tuple(parts), v))
        else:
            expected = IntPolynomial((2, 1)) ** (n - k)
            for v in parts:
                expected = expected * IntPolynomial.x_minus(2 * v - 2)
            if cp != expected:
                bad.append(("spectrum", r, tuple(parts)))
    rep.check("complete multipartite joins match the published multiplicity "
              "formulas for -1, -2, and equal-part eigenvalues",
              f"{counts['multipartite']} seeded samples", [], bad)

    # split graphs K_r v (n-r)K_1: m(-1) = r - 1
    bad = []
    for r in range(1, 9):
        for extra in range(2, 7):
            g = join(complete(r), Graph(extra))
            if multiplicity(g, -1) != r - 1:
                bad.append((r, extra))
    rep.check("K_r joined to an independent set has m(-1) = r - 1",
              "r in 1..8, independent part 2..6", [], bad)

    per_order = [scan(n)[1] for n in LEMMA_CENSUS_ORDERS]
    for claim, *found in zip(CENSUS_STRUCTURE_CLAIMS, *per_order):
        rep.check(claim, "census n<=8", [], [x for f in found for x in f])
    _diameter_bound_checks(rep)
    return rep


def _scan_order(n, records, structure):
    """One pass over the census records of order n: those with m(-1) >= n-5
    (every class parts i-v read) and, if ``structure`` is set, the failures
    of each ``CENSUS_STRUCTURE_CLAIMS`` check, else None.

    One ``kernels.census_structure`` call per record, on its graph6 canon,
    which the kernel decodes, gives the graph side (twin-class predictions,
    mixed-star shape) and the charpoly's inertia at -1 and 0
    (``exactalg.charpoly_inertia``); the multiplicities at -2, -1 and 0 are the record's, read off its
    charpoly when the census was classified.  No exact algebra runs here.
    """
    if not structure:
        return [r for r in records if r.mult_minus1 >= n - 5], None
    kept = []
    failures = tuple([] for _ in CENSUS_STRUCTURE_CLAIMS)
    (bad_levels, bad_complete, bad_v1card, bad_empty_v1, bad_diam_bound,
     bad_twins, bad_minimum, bad_onepos) = failures
    kn_canon = census_mod.canonical_form(complete(n))
    for rec in records:
        canon, _, diam, v1, m1, m2, m0, coeffs, _ = rec
        if m1 >= n - 5:
            kept.append(rec)
        twins, star, (_, zero_m1, neg_m1), (pos_0, _, _) = \
            kernels.census_structure(canon, coeffs)
        is_kn = canon == kn_canon
        k = n - m1
        if v1 and diam > 2:
            bad_levels.append(canon)
        if (diam == 1) != is_kn:
            bad_complete.append(canon)
        if v1 and not is_kn and v1 not in (n - k, n - k + 1):
            bad_v1card.append(canon)
        if v1 == 0 and diam >= 2:
            kmax = (n - 1) // (diam - 1)
            if kmax >= 1 and m1 > n - kmax - 1:
                bad_empty_v1.append(canon)
        if diam >= 4 and m1 > n - 5:
            bad_diam_bound.append(canon)
        if m1 == n - 5 and not 2 <= diam <= 4:
            bad_diam_bound.append(canon)
        mults = {-2: m2, -1: m1, 0: m0}
        for xi, lower in twins:
            if mults[xi] < lower:
                bad_twins.append((canon, str(xi)))
        if (neg_m1 == 0 and zero_m1 >= 1) != is_kn:
            bad_minimum.append(canon)
        if pos_0 == 1 and not star:
            bad_onepos.append(canon)
    return kept, failures


def _diameter_bound_checks(rep):
    """m(-1) <= n-5 for diameter >= 4 on structured graphs up to n=14."""
    bad = []
    cases = []
    for n in range(5, 15):
        cases.append((f"P{n}", path(n)))
    for n in range(8, 15):
        cases.append((f"C{n}", cycle(n)))
    for rows_, cols in ((2, 5), (2, 6), (2, 7), (3, 5)):
        n = rows_ * cols
        edges = []
        for i in range(rows_):
            for j in range(cols):
                v = i * cols + j
                if j + 1 < cols:
                    edges.append((v, v + 1))
                if i + 1 < rows_:
                    edges.append((v, v + cols))
        cases.append((f"grid{rows_}x{cols}", Graph(n, edges)))
    # spider trees (three legs from a center)
    for legs in ((2, 2, 2), (3, 3, 3), (4, 4, 4), (2, 3, 4)):
        edges = []
        nxt = 1
        for leg in legs:
            prev = 0
            for _ in range(leg):
                edges.append((prev, nxt))
                prev = nxt
                nxt += 1
        cases.append((f"spider{legs}", Graph(nxt, edges)))
    for name, g in cases:
        met = bfs_metrics(g)
        if met.diam >= 4 and multiplicity(g, -1) > g.n - 5:
            bad.append(name)
    rep.check("diameter >= 4 forces m(-1) <= n-5",
              "paths, cycles, grids, spiders up to n=14 by charpoly root "
              "multiplicity",
              [], bad)


# ---------------------------------------------------------------------------
# median eigenvalue / HL-index suite

def suite_median(n_values=MEDIAN_DEFAULT_N):
    """Median eigenvalues of the characterized families: for every family
    graph at each order, both median positions carry -1 and the HL index is
    exactly 1."""
    rep = VerificationReport("median", {"n": list(n_values)})
    for n in n_values:
        for name, g in theorem1_families(n):
            spec = SymmetricSpectrum(ecc_matrix(g))
            at_h, at_l = spectrum_median_is(spec, -1)
            rep.check("both median eigenvalues equal -1",
                      f"n={n} {name}", (True, True), (at_h, at_l))
            iv = median_brackets(spec)[2]
            rep.check("the HL index is exactly 1",
                      f"n={n} {name}", "[1, 1]", f"[{iv.lo}, {iv.hi}]")
    return rep


# ---------------------------------------------------------------------------
# registry

def check_args(name, n_values=None):
    """The sorted orders the named suite runs at, given the requested ones
    (None or empty for the suite's defaults; ``thm1-*`` runs none when given
    an empty list).  Raises ValueError for an unknown suite or part and for
    orders the suite does not support; every family suite needs
    1 <= n <= MAX_FAMILY_ORDER."""
    def orders(values):
        out = tuple(sorted(set(int(n) for n in values)))
        if out and (out[0] < 1 or out[-1] > MAX_FAMILY_ORDER):
            raise ValueError("family checks support "
                             f"1 <= n <= {MAX_FAMILY_ORDER}")
        return out

    if name == "lemmas":
        return ()
    if name.startswith("thm1-"):
        part = name[len("thm1-"):]
        if part not in THM1_DEFAULT_N:
            raise ValueError(f"unknown part {part!r}; expected one of i..v")
        n_values = orders(THM1_DEFAULT_N[part] if n_values is None
                          else n_values)
        if part == "ii" and any(n > CENSUS_MAX for n in n_values):
            raise ValueError("the nonexistence part is a pure census scan; "
                             f"it needs n <= {CENSUS_MAX}")
    elif name == "tables":
        n_values = orders(n_values or TABLES_DEFAULT_N)
        if len(n_values) < 3:
            raise ValueError("need at least 3 sample orders")
        if min(n_values) < 16:
            raise ValueError("table identities are stated for n >= 16")
    elif name == "median":
        n_values = orders(n_values or MEDIAN_DEFAULT_N)
        if any(n < 11 for n in n_values):
            raise ValueError("median checks need n >= 11 so that m(-1) "
                             "reaches the median positions")
    else:
        raise ValueError(f"unknown suite {name!r}")
    return n_values


def run_suites(names, n_values=None, seed=0, trials=None, census_cache=None,
               jobs=1):
    """The named suites' reports, in order; all orders pass ``check_args``
    first.  Suites read order n of the census through ``scan(n)``: one
    ``_scan_order`` pass per order and call, over ``census_cache[n]`` if a
    cache is given (read, never written), else ``census.iter_records(n,
    jobs)``.  It counts toward the first reader's ``wall_time_s``."""
    orders = [check_args(name, n_values) for name in names]

    @cache
    def scan(n):
        records = (census_cache[n] if census_cache is not None
                   else census_mod.iter_records(n, jobs))
        return _scan_order(n, records,
                           "lemmas" in names and n in LEMMA_CENSUS_ORDERS)

    reports = []
    for name, n_vals in zip(names, orders):
        t0 = time.perf_counter()
        if name.startswith("thm1-"):
            rep = suite_theorem1(name[len("thm1-"):], n_vals, scan)
        elif name == "tables":
            rep = suite_tables(n_vals)
        elif name == "lemmas":
            rep = suite_lemmas(seed, trials, scan)
        else:
            rep = suite_median(n_vals)
        rep.wall_time_s = time.perf_counter() - t0
        reports.append(rep)
    return reports


def run_suite(name, n_values=None, seed=0, trials=None, census_cache=None,
              jobs=1):
    """The report of one suite, as ``run_suites([name], ...)`` gives it."""
    return run_suites([name], n_values, seed, trials, census_cache, jobs)[0]


ALL_SUITES = ("thm1-i", "thm1-ii", "thm1-iii", "thm1-iv", "thm1-v",
              "tables", "lemmas", "median")
