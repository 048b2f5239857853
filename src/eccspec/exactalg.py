"""Arbitrary-precision integer matrices and polynomials: rank, characteristic
polynomials, inertia at rational shift points, and eigenvalue bracketing.

Every multiplicity question is answered through exact integer or rational
arithmetic -- fraction-free elimination for rank, the division-free
Samuelson-Berkowitz recurrence for characteristic polynomials, and Descartes'
rule of signs on the shifted characteristic polynomial for inertia (exact
because a symmetric matrix has only real eigenvalues).  There is no floating
point anywhere.  ``berkowitz_charpoly`` is the reference recurrence;
``charpoly`` is the one entry point the package uses, and it is
multimodular: it chooses the primes, reduces entries outside int64 modulo
them, asks the kernel backend for the residues (``kernels.charpoly_mod``:
the compiled reduction to Hessenberg form modulo each prime, or
``berkowitz_charpoly`` reduced) and lifts them by CRT in Python ints.  One
Taylor shift, ``_taylor_coeffs``, gives inertia and root multiplicities.

Eigenvalue brackets are searched on that one polynomial by exact sign
probes.  Integer probes gallop out from 0 and then bisect, counting inertia.
Rational probes run in one loop at the final dyadic scale.  They count
inertia while a bracket may hold several eigenvalues; once it holds exactly
one, each reads the sign of the charpoly instead, and leaves no memo entry:
for monic cp and c not a root, sign cp(c) = (-1)^(#eigenvalues > c), and
the next probe is a safeguarded Newton step.  Every rational probe is a
dyadic non-integer, and a monic integer polynomial has only integer
rational roots, so no sign is ever 0, and every bracket is the one that
inertia bisection alone would give.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, compress, count, repeat
from operator import mul, ne
from typing import NamedTuple, Optional

DEFAULT_BRACKET_WIDTH = Fraction(1, 2 ** 20)


class IntMatrix:
    """Dense square matrix of Python ints; immutable."""

    __slots__ = ("n", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _trusted(cls, rows):
        """Wrap a square tuple of int tuples as is: no conversion, no checks.
        Only for rows the caller built itself from ints."""
        m = cls.__new__(cls)
        object.__setattr__(m, "n", len(rows))
        object.__setattr__(m, "rows", rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    def __getitem__(self, idx):
        i, j = idx
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def is_symmetric(self):
        return self.rows == tuple(zip(*self.rows))

    def principal_submatrix(self, indices):
        idx = list(indices)
        return IntMatrix([[self.rows[i][j] for j in idx] for i in idx])

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.rows]})"


class IntPolynomial:
    """Univariate polynomial with int coefficients, ascending degree order.

    Normalized: no trailing zero coefficients; the zero polynomial has an
    empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [int(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def x_minus(cls, r):
        return cls((-r, 1))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(other * c for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return IntPolynomial.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power")
        out = IntPolynomial((1,))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def ascending_list(self):
        """Canonical printed form: ascending coefficient list."""
        return list(self.coeffs) if self.coeffs else [0]

    def descending_csv(self):
        """CLI rendering: comma-separated coefficients, highest degree first."""
        return ",".join(str(c) for c in reversed(self.ascending_list()))

    def __repr__(self):
        return f"IntPolynomial({self.ascending_list()})"


class Inertia(NamedTuple):
    """Counts of eigenvalues above / at / below a rational shift point."""

    n_plus: int
    n_zero: int
    n_minus: int


class RationalInterval(NamedTuple):
    """Exact rational enclosure; lo == hi means the value is certified."""

    lo: Fraction
    hi: Fraction

    def is_point(self):
        return self.lo == self.hi


# ---------------------------------------------------------------------------
# rank (fraction-free elimination, full pivoting)

def bareiss_rank(m: IntMatrix) -> int:
    """Exact rank over the rationals; the input matrix is not mutated.

    Pivots are chosen as the first row-major nonzero of the remaining
    submatrix, so the elimination is deterministic.
    """
    n = m.n
    a = [list(row) for row in m.rows]
    prev = 1
    rank = 0
    for k in range(n):
        pr = pc = -1
        for i in range(k, n):
            for j in range(k, n):
                if a[i][j]:
                    pr, pc = i, j
                    break
            if pr >= 0:
                break
        if pr < 0:
            break
        if pr != k:
            a[k], a[pr] = a[pr], a[k]
        if pc != k:
            for row in a:
                row[k], row[pc] = row[pc], row[k]
        piv = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * piv - aik * a[k][j]) // prev
            a[i][k] = 0
        prev = piv
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# characteristic polynomial (division-free)

def berkowitz_charpoly(m: IntMatrix) -> IntPolynomial:
    """det(xI - M), monic of degree n, by the Samuelson-Berkowitz recurrence.

    Division-free, so coefficients stay in Z with no intermediate fractions.
    """
    n = m.n
    rows = m.rows
    if n == 0:
        return IntPolynomial((1,))
    c = [1, -rows[0][0]]  # descending-degree coefficients of the 1x1 leading block
    for r in range(1, n):
        top = rows[r][:r]
        block = [row[:r] for row in rows[:r]]
        v = [row[r] for row in rows[:r]]
        t = [1, -rows[r][r], -sum(map(mul, top, v))]
        for _ in range(r - 1):
            v = [sum(map(mul, row, v)) for row in block]
            t.append(-sum(map(mul, top, v)))
        new = []
        for i in range(r + 2):
            s = 0
            for j in range(max(0, i - r - 1), min(i, r) + 1):
                s += t[i - j] * c[j]
            new.append(s)
        c = new
    return IntPolynomial(c[::-1])


def _max_row_sum(m: IntMatrix) -> int:
    """Largest absolute row sum of m: a bound on |l| for every eigenvalue l,
    symmetric or not (for an eigenvector x and i with |x_i| maximal,
    |l| |x_i| = |sum_j m_ij x_j| <= R |x_i|)."""
    return max((sum(map(abs, row)) for row in m.rows), default=0)


_PRIME_TOP = 1 << 56  # the kernels' Montgomery word bound
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_primes = []  # the primes below 2^56 in decreasing order, found on demand
_products = [1]  # _products[k]: the product of the first k primes
_crt_bases = {}  # k -> e_j = 1 mod p_j and 0 mod the other first k primes


def _is_prime(m):
    """Miller-Rabin with the first twelve prime bases: deterministic below
    3.3e24, so exact for every odd m > 37 below 2^64."""
    d, s = m - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _charpoly_primes(n, R):
    """The primes ``charpoly`` takes for an n x n matrix whose largest
    absolute row sum is R: the fewest of the primes below 2^56, in decreasing
    order, whose product exceeds 2 (1+R)^n."""
    if n < 0 or R < 0:
        raise ValueError("need n >= 0 and R >= 0")
    bound = 2 * (1 + R) ** n
    k = 0
    while _products[k] <= bound:
        k += 1
        if k == len(_products):
            m = _primes[-1] - 2 if _primes else _PRIME_TOP - 1
            while not _is_prime(m):
                m -= 2
            _primes.append(m)
            _products.append(_products[-1] * m)
    return tuple(_primes[:k])


def charpoly(m: IntMatrix) -> IntPolynomial:
    """det(xI - M), monic of degree n, exact for any square integer matrix,
    symmetric or not, from its residues modulo several primes.

    R = ``_max_row_sum(m)`` is computed once per call (``_charpoly`` takes
    it from a caller that holds it already).  R fixes the prime count
    and whether the rows are reduced first: R < 2^63 keeps every entry in
    int64, the kernel's words; otherwise the rows are reduced modulo each
    prime in Python ints, one kernel call per prime.  The kernel backend's
    ``charpoly_mod`` gives the residues modulo primes below 2^56.  The
    compiled backend reduces M mod p to Hessenberg form, a similarity over
    GF(p), so its charpoly is the integer charpoly reduced mod p (the pure
    backend reduces the Berkowitz charpoly).  Bound: every eigenvalue
    has |l| <= R, and the coefficient of x^(n-k) is
    (-1)^k e_k(l_1, ..., l_n), so its absolute value is at most
    C(n,k) R^k <= (1+R)^n.  ``_charpoly_primes`` takes primes until their
    product P exceeds 2 (1+R)^n; every coefficient then lies strictly inside
    (-P/2, P/2), where a residue class mod P has exactly one member, so the
    symmetric CRT lift of its residues is the coefficient.
    """
    return _charpoly(m, _max_row_sum(m))


def _charpoly(m, radius):
    """``charpoly(m)`` for radius = ``_max_row_sum(m)``, which the caller
    vouches for: a smaller one can take too few primes and lift a wrong
    polynomial."""
    from . import kernels  # at call time: the pure backend imports this module
    primes = _charpoly_primes(m.n, radius)
    if radius >> 63:
        residues = [kernels.charpoly_mod(
            [[x % p for x in row] for row in m.rows], (p,))[0] for p in primes]
    else:
        residues = kernels.charpoly_mod(m.rows, primes)
    k = len(primes)
    prod = _products[k]
    if k == 1:
        lifted = residues[0]
    else:
        basis = _crt_bases.get(k)
        if basis is None:
            basis = _crt_bases[k] = tuple((prod // p) * pow(prod // p, -1, p)
                                          for p in primes)
        lifted = [sum(map(mul, col, basis)) % prod for col in zip(*residues)]
    half = prod >> 1
    return IntPolynomial([x - prod if x > half else x for x in lifted])


# ---------------------------------------------------------------------------
# inertia and root multiplicities from one Taylor shift

def _taylor_coeffs(coeffs, c):
    """The ascending coefficients of R(y) = q^n f((y + p)/q), lazily, in Z,
    for the integer polynomial f of degree n with ascending ``coeffs`` and
    the rational c = p/q (an int, or anything ``Fraction`` takes).  R's y^k
    coefficient is q^(n-k) times f's k-th Taylor coefficient at c, so its
    leading zeros count the root multiplicity of c.  The a_k are scaled to
    a_k q^(n-k) and shifted in place by p; pass i, one Horner sweep from the
    top, fixes coefficient i."""
    if not isinstance(c, (int, Fraction)):
        c = Fraction(c)
    p, q = c.numerator, c.denominator
    a = list(coeffs)
    n = len(a) - 1
    if q != 1:  # q^0, q^1, ... times a_n, a_(n-1), ...
        powers = accumulate(repeat(q, n), mul, initial=1)
        a = list(map(mul, a[::-1], powers))[::-1]
    passes = n if p else 0  # a shift by 0 is the identity
    for i in range(passes):
        acc = a[n]
        for k in range(n - 1, i - 1, -1):
            acc = a[k] = a[k] + p * acc
        yield acc
    yield from a[passes:]


def charpoly_inertia(cp: IntPolynomial, c) -> Inertia:
    """Eigenvalue counts relative to the rational c = p/q, read off the monic
    characteristic polynomial cp of a symmetric matrix.

    The integer polynomial R(y) = q^n cp((y + p)/q) of ``_taylor_coeffs``
    has the roots q*xi - p, one per eigenvalue xi, with the signs of
    xi - c.  Zero roots are the leading zero coefficients of R; the positive
    roots of the rest number exactly its coefficient sign changes.
    Descartes' rule only bounds that count in general, but here every root
    is real: if R(0) != 0, the sign changes V(R(y)) and V(R(-y)) bound the
    positive and negative roots from above and add up to at most deg R,
    which is exactly the number of roots, so both bounds are attained.  The
    caller guarantees real-rootedness (cp must come from a symmetric
    matrix); nothing here can check it.
    """
    if not cp.is_monic():
        raise ValueError("charpoly_inertia requires a monic polynomial")
    a = list(_taylor_coeffs(cp.coeffs, c))
    n_zero = next(compress(count(), a))
    signs = [x > 0 for x in a if x]
    n_plus = sum(map(ne, signs, signs[1:]))
    return Inertia(n_plus, n_zero, len(a) - 1 - n_plus - n_zero)


def root_multiplicity(p: IntPolynomial, r) -> int:
    """Largest k such that (x - r)^k divides p, for rational r and any
    nonzero integer polynomial p, monic or not: the number of leading zero
    coefficients of ``_taylor_coeffs``, all in Z.  The shift stops at the
    first nonzero one, so a multiplicity k costs k + 1 passes."""
    if p.is_zero():
        raise ValueError("zero polynomial has no root multiplicities")
    return next(compress(count(), _taylor_coeffs(p.coeffs, r)))


def _dyadic_horner(desc, m, s):
    """g(m) = 2^(sn) cp(m/2^s), with the sign of cp, and g'(m) by one Horner
    sweep, for monic cp of degree n with ``desc`` = a_(n-1), ..., a_0."""
    g, dg, shift = 1, 0, 0
    for coeff in desc:
        shift += s
        dg = dg * m + g
        g = g * m + (coeff << shift)
    return g, dg


class SymmetricSpectrum:
    """Memoized inertia queries and eigenvalue bracketing for one matrix.

    Eigenvalues are indexed from the top: index 1 is the largest.  Every
    query is answered from one characteristic polynomial cp, computed on
    first use.  Brackets are half-open rational enclosures (lo, hi] of the
    i-th eigenvalue xi_i inside the integer Gershgorin bounds, found by
    exact probes in two phases:

    - the integer phase probes 0 first (its inertia needs no Taylor shift),
      then +-1, +-2, +-4, ... towards xi_i while the far end of the bracket
      is still the Gershgorin bound, then bisects at integers down to
      hi - lo = 1 and probes hi.  An integer eigenvalue is certified exactly
      when a probe lands on it, and the bracket collapses to that point.
      Medians lie near 0, so this takes O(log |xi_i|) probes, not O(log R).
    - the rational phase shrinks the unit interval to ``width`` in one
      loop at the final scale S, the least S with 2^-S <= width, searching
      for the integer L with L/2^S < xi_i < (L+1)/2^S.  While (lo, hi)
      holds more than one eigenvalue (a repeated irrational one, or
      neighbours not yet separated), an inertia count at the midpoint
      halves it.  Once xi_i is alone, each probe M costs one O(n) Horner
      evaluation, ``_dyadic_horner``, of g(M) = 2^(Sn) cp(M/2^S) and g'(M);
      for c = M/2^S not a root, sign cp(c) = (-1)^(#eigenvalues > c), and
      the eigenvalues above c are those above hi plus xi_i when xi_i > c.
      The next probe is the Newton estimate (M g' - g)/g', rounded up after
      a probe left of xi_i and down after one right of it, so that it lands
      on the far side, and clamped into the open bracket.  It is the
      midpoint instead whenever the last two probes did not together halve
      the bracket, so any three probes in a row halve it, up to rounding.
      J. Abbott's quadratic interval refinement (2006) safeguards Newton
      the same way.  Integer floor division only chooses where to probe;
      every bracket end comes from an exact sign.

    The bracket depends only on xi_i, not on the probes that found it.  The
    integer phase ends at the point xi_i if xi_i is an integer, and at
    (ceil(xi_i) - 1, ceil(xi_i)] otherwise.  A rational probe is a dyadic
    non-integer, never a root of the monic integer cp; a non-integer xi_i
    is irrational, so exactly one L fits, and (L/2^S, (L+1)/2^S) is the
    bracket that bisection by inertia alone would give.  The memo holds
    the Descartes count at each integer and inertia-count probe; sign
    probes leave none.  Integer probes are keyed by int and the others by
    Fraction; an int and an equal Fraction hash and compare alike, so
    either form of a point finds its one entry.
    """

    def __init__(self, m: IntMatrix):
        if not m.is_symmetric():
            raise ValueError("symmetric matrix required")
        self.m = m
        self.n = m.n
        self._inertia = {}
        self._charpoly = None
        self.upper = _max_row_sum(m)
        self.lower = -self.upper - 1

    @property
    def charpoly(self) -> IntPolynomial:
        if self._charpoly is None:
            self._charpoly = _charpoly(self.m, self.upper)
        return self._charpoly

    def inertia(self, c) -> Inertia:
        if not isinstance(c, int):
            c = Fraction(c)
        got = self._inertia.get(c)
        if got is None:
            got = charpoly_inertia(self.charpoly, c)
            self._inertia[c] = got
        return got

    def count_gt(self, c):
        return self.inertia(c).n_plus

    def count_ge(self, c):
        ine = self.inertia(c)
        return ine.n_plus + ine.n_zero

    def bracket(self, i, width=DEFAULT_BRACKET_WIDTH) -> RationalInterval:
        """Enclosure of the i-th largest eigenvalue (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"eigenvalue index {i} out of range 1..{self.n}")
        width = Fraction(width)
        if width <= 0:
            raise ValueError("bracket width must be positive")
        # integer phase, invariant lo < xi_i <= hi; above_lo eigenvalues lie
        # above lo.  Probe 0, then double away from it while the far end is
        # still the Gershgorin bound and the double lies short of it; any
        # other probe (the last one is now lo or hi) is the midpoint.
        lo, hi, above_lo = self.lower, self.upper, self.n
        mid = 0
        while hi - lo >= 2:
            ine = self.inertia(mid)
            if ine.n_plus >= i:
                lo, above_lo = mid, ine.n_plus
            elif ine.n_plus + ine.n_zero >= i:
                return RationalInterval(Fraction(mid), Fraction(mid))
            else:
                hi = mid
            if lo >= 0 and hi == self.upper:
                mid = 2 * lo or 1
            elif hi <= 0 and lo == self.lower:
                mid = 2 * hi or -1
            if not lo < mid < hi:
                mid = (lo + hi) // 2
        ine = self.inertia(hi)
        above_hi = ine.n_plus + ine.n_zero  # eigenvalues at or above hi
        if above_hi >= i:
            return RationalInterval(Fraction(hi), Fraction(hi))
        # rational phase at the final scale S, the least S with 2^-S <= width:
        # lo = A/2^S < xi_i < hi = B/2^S, and (lo, hi) holds above_lo -
        # above_hi eigenvalues.  While that is more than one, an inertia
        # count at the midpoint halves (A, B); B - A stays a power of two, so
        # each midpoint is the one inertia bisection takes.  Once xi_i is
        # alone, safeguarded Newton steps read only the sign of g.
        S = 0
        while width.denominator > width.numerator << S:
            S += 1
        A, B = lo << S, hi << S
        desc = self.charpoly.coeffs[-2::-1]  # a_(n-1), ..., a_0 of monic cp
        mid = (A + B) >> 1
        before_last = last = B - A  # (A, B) widths before the last two probes
        while B - A > 1:
            if above_lo - above_hi > 1:
                n_plus = self.inertia(Fraction(mid, 1 << S)).n_plus
                if n_plus >= i:
                    A, above_lo = mid, n_plus
                else:
                    B, above_hi = mid, n_plus
                mid = (A + B) >> 1
                before_last = last = B - A
                continue
            g, dg = _dyadic_horner(desc, mid, S)
            left = (g < 0) ^ (above_hi & 1)  # xi_i > mid / 2^S
            A, B = (mid, B) if left else (A, mid)
            if dg and 2 * (B - A) <= before_last:
                # Newton's estimate (mid g' - g)/g', rounded to the far side
                num = mid * dg - g
                mid = -(-num // dg) if left else num // dg
                mid = min(max(mid, A + 1), B - 1)
            else:
                mid = (A + B) >> 1
            before_last, last = last, B - A
        return RationalInterval(Fraction(A, 1 << S), Fraction(B, 1 << S))


# ---------------------------------------------------------------------------
# polynomial division

def poly_divide_exact(num: IntPolynomial,
                      den: IntPolynomial) -> Optional[IntPolynomial]:
    """Quotient num/den when den divides num exactly, else None.

    The divisor must be nonzero and monic, which keeps the whole division
    inside Z.
    """
    if den.is_zero():
        raise ValueError("division by zero polynomial")
    if not den.is_monic():
        raise ValueError("divisor must be monic")
    if num.is_zero():
        return IntPolynomial.zero()
    if num.degree < den.degree:
        return None
    rem = list(num.coeffs)
    dc = den.coeffs
    dd = den.degree
    qd = num.degree - dd
    quot = [0] * (qd + 1)
    for k in range(qd, -1, -1):
        coef = rem[k + dd]
        quot[k] = coef
        if coef:
            for j, d in enumerate(dc):
                rem[k + j] -= coef * d
    if any(rem[:dd]):
        return None
    return IntPolynomial(quot)
