"""Exact linear algebra: rank, charpoly, inertia, brackets, polynomials."""

import random
from fractions import Fraction

import pytest
import sympy
from conftest import shifted
from hypothesis import given, settings
from hypothesis import strategies as st

from eccspec import exactalg, suites
from eccspec.eccentricity import ecc_matrix
from eccspec.exactalg import (
    Inertia,
    IntMatrix,
    IntPolynomial,
    SymmetricSpectrum,
    bareiss_rank,
    berkowitz_charpoly,
    charpoly,
    charpoly_inertia,
    poly_divide_exact,
    root_multiplicity,
)
from eccspec.graphs import Graph, is_connected, theorem1_families

A_P4 = IntMatrix([[0, 0, 2, 3], [0, 0, 0, 2], [2, 0, 0, 0], [3, 2, 0, 0]])
A_K5 = IntMatrix([[int(i != j) for j in range(5)] for i in range(5)])
ADJ_P4 = IntMatrix([[0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1], [0, 0, 1, 0]])


def spectrum_inertia(m, c):
    """Inertia of the symmetric m at c, from its charpoly."""
    return SymmetricSpectrum(m).inertia(c)


def random_symmetric(rng, n, bound=5):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-bound, bound)
    return IntMatrix(rows)


class TestRank:
    def test_all_ones(self):
        assert bareiss_rank(IntMatrix([[1] * 3] * 3)) == 1

    def test_shifted_path_matrix(self):
        shifted = IntMatrix([[A_P4[i, j] + (i == j) for j in range(4)]
                             for i in range(4)])
        assert bareiss_rank(shifted) == 3

    def test_unit_diagonal_zero_or_a_matrices_have_full_rank(self):
        rng = random.Random(1)
        for _ in range(200):
            n = rng.randint(1, 10)
            a = rng.choice((2, 3, 5))
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = 1
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = a * rng.randint(0, 1)
            assert bareiss_rank(IntMatrix(rows)) == n

    def test_rank_matches_sympy(self):
        rng = random.Random(2)
        for _ in range(60):
            m = random_symmetric(rng, rng.randint(1, 7))
            assert bareiss_rank(m) == sympy.Matrix(
                [list(r) for r in m.rows]).rank()

    def test_input_not_mutated(self):
        m = IntMatrix([[2, 1], [1, 2]])
        before = m.rows
        bareiss_rank(m)
        assert m.rows == before


class TestCharpoly:
    def test_k3(self):
        m = IntMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        assert berkowitz_charpoly(m).ascending_list() == [-2, -3, 0, 1]

    def test_p4(self):
        assert berkowitz_charpoly(A_P4).ascending_list() == [16, 0, -17, 0, 1]

    def test_c4_matrix(self):
        m = IntMatrix([[0, 0, 2, 0], [0, 0, 0, 2], [2, 0, 0, 0], [0, 2, 0, 0]])
        assert berkowitz_charpoly(m).ascending_list() == [16, 0, -8, 0, 1]

    def test_matches_sympy(self):
        rng = random.Random(3)
        x = sympy.Symbol("x")
        for _ in range(40):
            n = rng.randint(1, 6)
            rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            m = IntMatrix(rows)
            got = berkowitz_charpoly(m)
            want = sympy.Matrix(rows).charpoly(x).all_coeffs()
            assert list(reversed(got.ascending_list())) == [int(c) for c in want]

    def test_trace_and_det_coefficients(self):
        """Both charpoly routes against sympy's trace and determinant."""
        rng = random.Random(4)
        for _ in range(500):
            m = random_symmetric(rng, rng.randint(1, 8))
            s = sympy.Matrix([list(r) for r in m.rows])
            trace, det = int(s.trace()), int(s.det())
            for cp in (berkowitz_charpoly(m), charpoly(m)):
                assert cp.coeffs[m.n - 1] == -trace
                assert cp.coeffs[0] == (-1) ** m.n * det

    def test_rank_equals_n_minus_zero_root_multiplicity(self):
        rng = random.Random(5)
        for _ in range(500):
            m = random_symmetric(rng, rng.randint(1, 8))
            rank = bareiss_rank(m)
            for cp in (berkowitz_charpoly(m), charpoly(m)):
                assert rank == m.n - root_multiplicity(cp, 0)

    def test_large_entries_take_their_own_bound(self):
        """A matrix with entries near 10^6: ``charpoly`` takes its bound
        from the matrix, with no keyword for a caller's, and agrees with
        Berkowitz and with ``SymmetricSpectrum``, which passes its own."""
        m = IntMatrix([[10 ** 6, 3, 0], [3, -10 ** 6, 7],
                       [0, 7, 10 ** 6 + 1]])
        want = [1_000_001_000_058_000_009, -1_000_000_000_058, -1_000_001, 1]
        assert berkowitz_charpoly(m).ascending_list() == want
        assert charpoly(m).ascending_list() == want
        assert SymmetricSpectrum(m).charpoly.ascending_list() == want
        with pytest.raises(TypeError):
            charpoly(m, radius=0)


class TestInertia:
    def test_p4_at_zero(self):
        assert spectrum_inertia(A_P4, 0) == Inertia(2, 0, 2)

    def test_k5_at_minus_one(self):
        assert spectrum_inertia(A_K5, -1) == Inertia(1, 4, 0)

    def test_below_gershgorin_all_plus(self):
        rng = random.Random(6)
        for _ in range(30):
            m = random_symmetric(rng, rng.randint(1, 6))
            bound = max(sum(abs(x) for x in row) for row in m.rows)
            assert spectrum_inertia(m, -bound - 1) == Inertia(m.n, 0, 0)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            spectrum_inertia(IntMatrix([[0, 1], [2, 0]]), 0)

    def test_is_symmetric(self):
        rng = random.Random(10)
        for _ in range(50):
            m = random_symmetric(rng, rng.randint(0, 7))
            assert m.is_symmetric()
            if m.n >= 2:
                i, j = rng.sample(range(m.n), 2)
                rows = [list(r) for r in m.rows]
                rows[i][j] += 1
                assert not IntMatrix(rows).is_symmetric()
        assert A_P4.is_symmetric() and IntMatrix([]).is_symmetric()

    def test_counts_sum_to_n_and_match_rank(self):
        rng = random.Random(7)
        for _ in range(120):
            m = random_symmetric(rng, rng.randint(1, 7))
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            ine = spectrum_inertia(m, c)
            assert ine.n_plus + ine.n_zero + ine.n_minus == m.n
            assert ine.n_zero == m.n - bareiss_rank(
                shifted(m, c.denominator, c.numerator))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_n_zero_is_root_multiplicity(self, data):
        """n_zero counts the vanishing low coefficients of cp(y + c), which
        is the multiplicity of c in cp; the census lemma checks read m(-1)
        and m(0) off it.  Repeating indices of a random symmetric base and
        adding s to the diagonal makes s an eigenvalue of multiplicity at
        least the number of repeats, so multiplicities above 1 occur."""
        k = data.draw(st.integers(1, 5))
        base = [[0] * k for _ in range(k)]
        for r in range(k):
            for c in range(r, k):
                base[r][c] = base[c][r] = data.draw(st.integers(-2, 2))
        idx = data.draw(st.lists(st.integers(0, k - 1), min_size=1,
                                 max_size=8))
        s = data.draw(st.sampled_from((-2, -1, 0)))
        cp = berkowitz_charpoly(IntMatrix(
            [[base[a][b] + (s if i == j else 0) for j, b in enumerate(idx)]
             for i, a in enumerate(idx)]))
        for c in (-2, -1, 0, Fraction(1, 2)):
            assert charpoly_inertia(cp, c).n_zero == root_multiplicity(cp, c)

    def test_n_zero_needs_no_real_roots(self):
        cp = IntPolynomial((1, 0, 1)) * IntPolynomial((1, 1)) ** 2
        for c, mult in ((-1, 2), (0, 0), (1, 0)):
            assert charpoly_inertia(cp, c).n_zero == mult
            assert root_multiplicity(cp, c) == mult

    def test_monotone_in_shift(self):
        rng = random.Random(8)
        for _ in range(60):
            m = random_symmetric(rng, rng.randint(2, 7))
            cs = sorted(rng.randint(-12, 12) for _ in range(4))
            plus = [spectrum_inertia(m, c).n_plus for c in cs]
            assert all(a >= b for a, b in zip(plus, plus[1:]))


def sympy_inertia(m, c):
    """Inertia from sympy's own charpoly and Sturm-sequence real-root counts;
    count_roots counts distinct roots, so multiplicities come from a
    square-free factorization."""
    x = sympy.Symbol("x")
    c = sympy.Rational(c.numerator, c.denominator)
    _, factors = sympy.Matrix([list(r) for r in m.rows]).charpoly(x).sqf_list()
    plus = zero = 0
    for f, k in factors:
        at = f.count_roots(c, c)
        zero += k * at
        plus += k * (f.count_roots(c, None) - at)
    return Inertia(plus, zero, m.n - plus - zero)


class TestInertiaOracle:
    def test_matches_sturm_counts_at_integer_shifts(self):
        rng = random.Random(21)
        for _ in range(100):
            m = random_symmetric(rng, rng.randint(1, 12), rng.choice((1, 3, 5)))
            for c in {rng.randint(-6, 6), rng.choice(m.rows[0]), 0, -1}:
                c = Fraction(c)
                assert spectrum_inertia(m, c) == sympy_inertia(m, c), (m, c)

    def test_matches_sturm_counts_at_rational_shifts(self):
        rng = random.Random(22)
        for _ in range(100):
            m = random_symmetric(rng, rng.randint(1, 12))
            for _ in range(3):
                q = rng.randint(2, 2 ** 20)
                c = Fraction(rng.randint(-8 * q, 8 * q), q)
                assert spectrum_inertia(m, c) == sympy_inertia(m, c), (m, c)

    def test_repeated_eigenvalue_at_shift(self):
        for n in range(1, 9):
            kn = IntMatrix([[int(i != j) for j in range(n)] for i in range(n)])
            assert spectrum_inertia(kn, -1) == Inertia(1, n - 1, 0)

    def test_zero_diagonal_adjacency(self):
        # zero diagonal at the shift: symmetric elimination needs 2x2 pivots
        assert spectrum_inertia(ADJ_P4, 0) == Inertia(2, 0, 2)
        assert spectrum_inertia(ADJ_P4, 0) == sympy_inertia(ADJ_P4, Fraction(0))

    def test_empty_and_single(self):
        assert spectrum_inertia(IntMatrix([]), 0) == Inertia(0, 0, 0)
        assert spectrum_inertia(IntMatrix([]), Fraction(-7, 3)) == Inertia(0, 0, 0)
        one = IntMatrix([[3]])
        assert spectrum_inertia(one, 3) == Inertia(0, 1, 0)
        assert spectrum_inertia(one, Fraction(5, 2)) == Inertia(1, 0, 0)
        assert spectrum_inertia(one, 4) == Inertia(0, 0, 1)

    def test_charpoly_inertia_needs_monic(self):
        with pytest.raises(ValueError):
            charpoly_inertia(IntPolynomial([1, 2]), 0)

    def test_spectrum_runs_berkowitz_once(self, monkeypatch):
        from eccspec import kernels

        calls = []
        real = kernels.charpoly_mod

        def counting(rows, moduli):
            calls.append(rows)
            return real(rows, moduli)

        monkeypatch.setattr(kernels, "charpoly_mod", counting)
        rng = random.Random(23)
        m = random_symmetric(rng, 9)
        spec = SymmetricSpectrum(m)
        for i in range(1, m.n + 1):
            spec.bracket(i)
        spec.count_gt(Fraction(1, 3))
        assert len(calls) == 1


def diamond_join():
    """The K4 v 2K1 eccentricity matrix; its second eigenvalue is
    (5 - sqrt(33))/2."""
    rows = [[1] * 6 for _ in range(6)]
    for i in range(6):
        rows[i][i] = 0
    rows[4][5] = rows[5][4] = 2
    return IntMatrix(rows)


def inertia_bisection(m, i, width):
    """The i-th largest eigenvalue bracketed by inertia counts alone, every
    step an independent Descartes count on the Berkowitz charpoly: the
    oracle for ``SymmetricSpectrum.bracket``, whose rational phase reads a
    charpoly sign instead wherever the bracket holds one eigenvalue."""
    cp = berkowitz_charpoly(m)
    upper = max((sum(map(abs, row)) for row in m.rows), default=0)
    lo = Fraction(-upper - 1)
    hi = Fraction(upper)
    while hi - lo >= 2:
        mid = Fraction((int(lo) + int(hi)) // 2)
        ine = charpoly_inertia(cp, mid)
        if ine.n_plus >= i:
            lo = mid
        elif ine.n_plus + ine.n_zero >= i:
            return mid, mid
        else:
            hi = mid
    ine = charpoly_inertia(cp, hi)
    if ine.n_plus + ine.n_zero >= i:
        return hi, hi
    while hi - lo > width:
        mid = (lo + hi) / 2
        ine = charpoly_inertia(cp, mid)
        if ine.n_plus >= i:
            lo = mid
        elif ine.n_plus + ine.n_zero >= i:
            return mid, mid
        else:
            hi = mid
    return lo, hi


def random_ecc_matrix(rng, n):
    while True:
        p = rng.uniform(0.15, 0.6)
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < p])
        if is_connected(g):
            return ecc_matrix(g)


def cycle_adjacency(n):
    return IntMatrix([[int((i - j) % n in (1, n - 1)) for j in range(n)]
                      for i in range(n)])


def wilkinson_plus(n):
    """Wilkinson's W_n^+: tridiagonal, diagonal |m - i| for n = 2m + 1,
    off-diagonal 1.  Its eigenvalues come in pairs that agree to many
    digits (the top pair of W21+ to about 1e-13)."""
    m = n // 2
    return IntMatrix([[abs(m - i) if i == j else int(abs(i - j) == 1)
                       for j in range(n)] for i in range(n)])


class TestBracketOracle:
    """``bracket`` equals the inertia-only bisection at every index."""

    WIDTHS = (Fraction(1, 2 ** 20), Fraction(1, 2 ** 40),
              Fraction(1, 3 * 2 ** 20), Fraction(1, 2 ** 60), Fraction(3, 2))

    def check(self, m, indices=None):
        spec = SymmetricSpectrum(m)
        for width in self.WIDTHS:
            for i in indices or range(1, m.n + 1):
                assert tuple(spec.bracket(i, width)) == \
                    inertia_bisection(m, i, width), (m, i, width)
        # every inertia in the memo is the Descartes count
        cp = berkowitz_charpoly(m)
        for c, ine in spec._inertia.items():
            assert ine == charpoly_inertia(cp, c), (m, c)

    def test_random_symmetric(self):
        rng = random.Random(31)
        for _ in range(30):
            self.check(random_symmetric(rng, rng.randint(1, 12)))

    def test_random_eccentricity_matrices(self):
        rng = random.Random(32)
        for n in range(8, 25, 2):
            self.check(random_ecc_matrix(rng, n))

    @pytest.mark.parametrize("n", [8, 10])
    def test_repeated_irrational_eigenvalues(self, n):
        # C8: +-sqrt(2) double; C10: the golden-ratio values double, so
        # some brackets never isolate one eigenvalue
        self.check(cycle_adjacency(n))

    def test_diamond_join(self):
        self.check(diamond_join())

    def test_wilkinson(self):
        # W21+: the top pair agrees to about 2^-43, so it does not separate
        # at 2^-40; the lower pairs isolate next to a close neighbour, the
        # Newton safeguard's hard case
        self.check(wilkinson_plus(21))

    @pytest.mark.parametrize("g", [g for _, g in theorem1_families(40)],
                             ids=[name for name, _ in theorem1_families(40)])
    def test_family_extremes_at_order_40(self, g):
        # the extreme eigenvalues: the integer phase gallops out to +-R
        m = ecc_matrix(g)
        self.check(m, (1, m.n))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_small_matrices(self, data):
        n = data.draw(st.integers(1, 7))
        entries = st.integers(-6, 6)
        rows = [[0] * n for _ in range(n)]
        for r in range(n):
            for c in range(r, n):
                rows[r][c] = rows[c][r] = data.draw(entries)
        m = IntMatrix(rows)
        i = data.draw(st.integers(1, n))
        width = Fraction(1, 2 ** data.draw(st.integers(0, 48)))
        spec = SymmetricSpectrum(m)
        assert tuple(spec.bracket(i, width)) == inertia_bisection(m, i, width)
        cp = berkowitz_charpoly(m)
        for c, ine in spec._inertia.items():
            assert ine == charpoly_inertia(cp, c), (m, c)


def count_charpoly_inertia(monkeypatch):
    """The list of shifts charpoly_inertia is called with from now on."""
    calls = []
    real = exactalg.charpoly_inertia

    def counting(cp, c):
        calls.append(c)
        return real(cp, c)

    monkeypatch.setattr(exactalg, "charpoly_inertia", counting)
    return calls


def count_sign_probes(monkeypatch):
    """The dyadic numerators M of the charpoly sign probes from now on."""
    probes = []
    real = exactalg._dyadic_horner

    def counting(desc, m, s):
        probes.append(m)
        return real(desc, m, s)

    monkeypatch.setattr(exactalg, "_dyadic_horner", counting)
    return probes


class TestBracketCost:
    def test_isolated_eigenvalue_needs_integer_phase_only(self, monkeypatch):
        calls = count_charpoly_inertia(monkeypatch)
        signs = count_sign_probes(monkeypatch)
        spec = SymmetricSpectrum(diamond_join())
        iv = spec.bracket(2, Fraction(1, 2 ** 40))
        # xi_2 = (5 - sqrt(33))/2 ~ -0.37: the integer phase probes 0, where
        # it gallops from, and -1; the rational phase reads charpoly signs
        assert calls == [0, -1]
        # 14 Newton sign probes, where bisection by sign takes 40
        assert len(signs) == 14
        assert iv.hi - iv.lo == Fraction(1, 2 ** 40)
        assert spec.count_gt(iv.hi) == 1 and spec.count_ge(iv.lo) == 2
        assert spec.count_gt(iv.lo) == 2 and spec.count_ge(iv.hi) == 1

    def test_newton_safeguard_bounds_the_probes(self, monkeypatch):
        # no isolated bracket of W21+ takes more than about two probes a
        # bit: new memo entries (integer and inertia-count probes) plus
        # sign probes, checked at every sign probe too, so that a bracket
        # that crawls fails at once instead of running on
        signs = count_sign_probes(monkeypatch)
        spec = SymmetricSpectrum(wilkinson_plus(21))
        probes = lambda: len(spec._inertia) + len(signs) - before
        counting = exactalg._dyadic_horner

        def bounded(desc, m, s):
            got = counting(desc, m, s)
            assert probes() <= 2 * 60 + 8, i
            return got

        monkeypatch.setattr(exactalg, "_dyadic_horner", bounded)
        for i in range(1, 22):
            before = len(spec._inertia) + len(signs)
            spec.bracket(i, Fraction(1, 2 ** 60))
            assert probes() <= 2 * 60 + 8, i
        assert signs

    def test_repeated_eigenvalue_keeps_inertia_steps(self, monkeypatch):
        calls = count_charpoly_inertia(monkeypatch)
        spec = SymmetricSpectrum(cycle_adjacency(8))
        iv = spec.bracket(2, Fraction(1, 2 ** 20))  # sqrt(2), double
        assert iv.lo * iv.lo < 2 < iv.hi * iv.hi
        assert len(calls) > 20

    def test_width_one_separation_makes_no_rational_probe(self, monkeypatch):
        calls = count_charpoly_inertia(monkeypatch)
        m = random_symmetric(random.Random(0), 6)
        spec_m = SymmetricSpectrum(m)
        spec_s = SymmetricSpectrum(m.principal_submatrix([0, 1, 2, 3]))
        assert suites._bracket_ge(spec_m, 1, spec_s, 1)
        assert not suites._bracket_ge(spec_s, 1, spec_m, 1)
        # xi_1(M) in (10, 11] and xi_1(M*) in (5, 6]: the integer phase
        # decides, so every probe is an integer, and the memo keys are ints
        assert calls and all(type(c) is int for c in calls)
        for spec in (spec_m, spec_s):
            assert all(type(c) is int for c in spec._inertia)
        assert spec_m.bracket(1, 1) == (10, 11)
        assert spec_s.bracket(1, 1) == (5, 6)


class TestInertiaMemo:
    def test_int_and_equal_fraction_share_one_entry(self, monkeypatch):
        calls = count_charpoly_inertia(monkeypatch)
        spec = SymmetricSpectrum(A_K5)
        assert spec.inertia(2) == Inertia(1, 0, 4)
        assert spec.inertia(Fraction(2)) == Inertia(1, 0, 4)
        assert calls == [2] and type(calls[0]) is int
        assert [type(c) for c in spec._inertia] == [int]

    def test_integer_phase_keys_are_ints(self, monkeypatch):
        signs = count_sign_probes(monkeypatch)
        spec = SymmetricSpectrum(diamond_join())
        spec.bracket(2, Fraction(1, 2 ** 40))
        ints = [c for c in spec._inertia if type(c) is int]
        assert sorted(ints) == [-1, 0]
        # the rational phase probes dyadic non-integers only: its counts
        # (none here) and its sign probes M / 2^40
        assert all(c.denominator > 1 for c in spec._inertia if c not in ints)
        assert signs and all(m % (1 << 40) for m in signs)


class TestBrackets:
    def test_k5_third_eigenvalue_is_exactly_minus_one(self):
        iv = SymmetricSpectrum(A_K5).bracket(3)
        assert iv.is_point() and iv.lo == -1

    def test_p4_top_eigenvalue_certified_four(self):
        iv = SymmetricSpectrum(A_P4).bracket(1)
        assert iv.is_point() and iv.lo == 4

    def test_diamond_join_irrational_eigenvalue(self):
        # second eigenvalue of the K4 v 2K1 matrix is (5 - sqrt(33))/2
        iv = SymmetricSpectrum(diamond_join()).bracket(2)
        assert iv.hi - iv.lo <= Fraction(1, 2 ** 20)
        assert -1 < iv.lo <= iv.hi < 0
        # exact sign test of x^2 - 5x - 2 at the endpoints
        f = lambda x: x * x - 5 * x - 2
        assert f(iv.lo) * f(iv.hi) <= 0

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            SymmetricSpectrum(A_P4).bracket(5)

    @pytest.mark.parametrize("width", [0, -1, Fraction(-1, 2 ** 20)])
    def test_rejects_non_positive_width(self, width):
        with pytest.raises(ValueError, match="width must be positive"):
            SymmetricSpectrum(diamond_join()).bracket(2, width)

    def test_all_brackets_ordered_and_certified(self):
        rng = random.Random(9)
        for _ in range(40):
            m = random_symmetric(rng, rng.randint(2, 6))
            spec = SymmetricSpectrum(m)
            brackets = [spec.bracket(i) for i in range(1, m.n + 1)]
            for a, b in zip(brackets, brackets[1:]):
                assert a.hi >= b.hi and a.lo >= b.lo
            for i, iv in enumerate(brackets, start=1):
                assert spec.count_ge(iv.lo) >= i
                assert spec.count_gt(iv.hi) < i


class TestPolynomials:
    def test_divide_exact_golden(self):
        num = IntPolynomial([16, 0, -17, 0, 1])
        got = poly_divide_exact(num, IntPolynomial([1, 1]))
        assert got.ascending_list() == [16, -16, -1, 1]

    def test_not_divisible(self):
        assert poly_divide_exact(IntPolynomial([1, 0, 1]),
                                 IntPolynomial([1, 1])) is None

    def test_rejects_zero_and_non_monic(self):
        with pytest.raises(ValueError):
            poly_divide_exact(IntPolynomial([1]), IntPolynomial.zero())
        with pytest.raises(ValueError):
            poly_divide_exact(IntPolynomial([1]), IntPolynomial([1, 2]))

    @given(st.lists(st.integers(-9, 9), max_size=5),
           st.lists(st.integers(-9, 9), max_size=5))
    def test_divide_round_trip(self, a_tail, b_tail):
        a = IntPolynomial(a_tail + [1])
        b = IntPolynomial(b_tail + [1])
        assert poly_divide_exact(a * b, b) == a

    @given(st.integers(-6, 6), st.integers(0, 4),
           st.lists(st.integers(-5, 5), max_size=3))
    def test_root_multiplicity_of_constructed_power(self, r, k, tail):
        q = IntPolynomial(tail + [1])
        if q(r) == 0:
            return
        p = (IntPolynomial.x_minus(r) ** k) * q
        assert root_multiplicity(p, r) == k

    def test_root_multiplicity_golden(self):
        assert root_multiplicity(IntPolynomial([-2, -3, 0, 1]), -1) == 2
        assert root_multiplicity(IntPolynomial([16, 0, -17, 0, 1]), -1) == 1
        assert root_multiplicity(IntPolynomial([16, 0, -17, 0, 1]), 7) == 0
        assert root_multiplicity(IntPolynomial([-1, 2]), Fraction(1, 2)) == 1

    def test_root_multiplicity_stays_in_integers(self):
        # (x+1)^2 (x-2) at -1, given as an int and as an integral Fraction
        p = IntPolynomial([-2, -3, 0, 1])
        for r in (-1, Fraction(-1)):
            mult = root_multiplicity(p, r)
            assert mult == 2 and type(mult) is int

    def test_root_multiplicity_of_non_monic_polynomial(self):
        # (2x - 3)^2 (x + 1): a rational root that is not an integer
        p = IntPolynomial([-3, 2]) ** 2 * IntPolynomial([1, 1])
        for r, mult in ((Fraction(3, 2), 2), (-1, 1), (Fraction(1, 2), 0)):
            assert root_multiplicity(p, r) == mult

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(-4, 4), st.integers(1, 3)),
                    max_size=5),
           st.lists(st.integers(-5, 5), min_size=1, max_size=4).filter(any),
           st.tuples(st.integers(-4, 4), st.integers(1, 3)))
    def test_root_multiplicity_matches_sympy(self, planted, tail, probe):
        """Integer polynomials, monic or not, with planted integer and
        non-integer rational roots, some repeated: the multiplicity of each
        planted root and of one more rational is the exponent of its linear
        factor in sympy's factorization over Q."""
        p = IntPolynomial(tail)
        for num, den in planted:
            p = p * IntPolynomial([-num, den])
        x = sympy.Symbol("x")
        _, factors = sympy.Poly(p.coeffs[::-1], x).factor_list()
        for num, den in planted + [probe]:
            r = Fraction(num, den)
            want = sum(k for f, k in factors if f.degree() == 1
                       and f.eval(sympy.Rational(num, den)) == 0)
            assert root_multiplicity(p, r) == want, (p, r)

    def test_root_multiplicity_rejects_zero(self):
        with pytest.raises(ValueError):
            root_multiplicity(IntPolynomial.zero(), 1)

    def test_zero_polynomial_normalization(self):
        assert IntPolynomial([0, 0]).is_zero()
        assert IntPolynomial([1, 2, 0]).coeffs == (1, 2)
        assert IntPolynomial([1, 2]).degree == 1
        assert IntPolynomial.zero().degree == -1

    def test_power_and_eval(self):
        p = IntPolynomial([1, 1]) ** 3
        assert p.ascending_list() == [1, 3, 3, 1]
        assert p(2) == 27
        assert p(Fraction(-1, 2)) == Fraction(1, 8)

    def test_descending_csv(self):
        assert IntPolynomial([16, 0, -17, 0, 1]).descending_csv() == \
            "1,0,-17,0,16"
