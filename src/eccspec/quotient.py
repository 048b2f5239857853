"""Equitable quotient machinery for block matrices with J/I cell structure.

A BlockSpec describes a symmetric matrix whose off-diagonal blocks are
constant (s_ij * J) and whose diagonal blocks are s_ii * J + p_i * I.  For
such matrices the quotient matrix q_ij = s_ij * n_j (i != j),
q_ii = s_ii * n_i + p_i carries the remaining spectrum exactly:

    P(M, x) = P(Q, x) * prod_i (x - p_i)^(n_i - 1)

verify_spectrum_identity checks that identity as exact polynomials, with the
full n x n characteristic polynomial as the brute-force side.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactalg import IntMatrix, IntPolynomial, charpoly


@dataclass(frozen=True)
class BlockSpec:
    """Sizes n_i, symmetric off-diagonal constants s_ij, and (s_ii, p_i)
    diagonal cell parameters of a block-structured symmetric matrix."""

    sizes: tuple
    s: tuple  # l x l symmetric integer matrix, s[i][j] for i != j and s_ii
    p: tuple  # diagonal identity coefficients p_i

    def __post_init__(self):
        l = len(self.sizes)
        object.__setattr__(self, "sizes", tuple(int(x) for x in self.sizes))
        object.__setattr__(self, "s", tuple(tuple(int(x) for x in row)
                                            for row in self.s))
        object.__setattr__(self, "p", tuple(int(x) for x in self.p))
        if any(sz < 1 for sz in self.sizes):
            raise ValueError("block sizes must be >= 1")
        if len(self.s) != l or any(len(row) != l for row in self.s):
            raise ValueError("s must be l x l")
        if len(self.p) != l:
            raise ValueError("p must have one entry per block")
        for i in range(l):
            for j in range(i + 1, l):
                if self.s[i][j] != self.s[j][i]:
                    raise ValueError(f"s[{i}][{j}] != s[{j}][{i}]")

    @property
    def block_count(self):
        return len(self.sizes)

    @property
    def order(self):
        return sum(self.sizes)

    def to_text(self):
        """Compact fixture form: 'l; n1 .. nl; s row-major; p1 .. pl'."""
        l = self.block_count
        return "; ".join([
            str(l),
            " ".join(map(str, self.sizes)),
            " ".join(str(self.s[i][j]) for i in range(l) for j in range(l)),
            " ".join(map(str, self.p)),
        ])


@dataclass(frozen=True)
class QuotientResult:
    """Quotient matrix plus the leftover eigenvalues {p_i : n_i - 1}."""

    q: IntMatrix
    leftover: tuple  # pairs (p_i, n_i - 1)


def realize(spec: BlockSpec) -> IntMatrix:
    """The explicit order-n symmetric matrix described by the block spec."""
    n = spec.order
    rows = [[0] * n for _ in range(n)]
    bounds = []
    start = 0
    for sz in spec.sizes:
        bounds.append((start, start + sz))
        start += sz
    for bi, (a0, a1) in enumerate(bounds):
        for bj, (b0, b1) in enumerate(bounds):
            sij = spec.s[bi][bj]
            for u in range(a0, a1):
                for v in range(b0, b1):
                    rows[u][v] = sij
            if bi == bj:
                for u in range(a0, a1):
                    rows[u][u] = sij + spec.p[bi]
    return IntMatrix(rows)


def quotient(spec: BlockSpec) -> QuotientResult:
    l = spec.block_count
    q = [[spec.s[i][j] * spec.sizes[j] + (spec.p[i] if i == j else 0)
          for j in range(l)] for i in range(l)]
    leftover = tuple((spec.p[i], spec.sizes[i] - 1) for i in range(l)
                     if spec.sizes[i] > 1)
    return QuotientResult(IntMatrix(q), leftover)


def spec_charpoly(spec: BlockSpec) -> IntPolynomial:
    """P(Q, x) * prod (x - p_i)^(n_i - 1): the spectrum the quotient predicts."""
    res = quotient(spec)
    poly = charpoly(res.q)
    for value, mult in res.leftover:
        poly = poly * (IntPolynomial.x_minus(value) ** mult)
    return poly


def verify_spectrum_identity(spec: BlockSpec) -> bool:
    """Exact polynomial identity between the full matrix charpoly and the
    quotient-plus-leftover factorization."""
    return charpoly(realize(spec)) == spec_charpoly(spec)
