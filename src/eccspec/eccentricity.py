"""The central objects: largest-distance (eccentricity) matrices and their
spectra -- eigenvalue multiplicities, characteristic polynomials,
irreducibility, median eigenvalues and the HL-index.

The matrix keeps the entry d(u,v) exactly when it equals the smaller of the
two eccentricities and zeroes it otherwise, so every row retains at least one
largest distance.  Multiplicities are exact, never from floating
eigensolvers: m(xi) is the root multiplicity of xi in the one exact
characteristic polynomial, which for a symmetric matrix is the nullity of
E - xi*I.  A monic integer characteristic polynomial has only integer
rational roots, so every non-integer rational has multiplicity 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from ._kernels_py import ecc_rows, twin_predictions
from .exactalg import (
    IntMatrix,
    IntPolynomial,
    RationalInterval,
    SymmetricSpectrum,
    charpoly,
    root_multiplicity,
)
from .graphs import Graph, bfs_metrics


def _connected_metrics(g: Graph):
    """``bfs_metrics`` of a connected graph; ValueError on a disconnected
    one, which has no eccentricity matrix."""
    met = bfs_metrics(g)
    if met.diam < 0:
        raise ValueError("eccentricity matrix requires a connected graph")
    return met


def ecc_matrix(g: Graph) -> IntMatrix:
    """Largest-distance matrix: entry d(u,v) iff d(u,v) = min(ecc(u), ecc(v))."""
    met = _connected_metrics(g)
    return IntMatrix._trusted(ecc_rows(met.dist, met.ecc))


def multiplicity(g: Graph, xi) -> int:
    """m(xi): eigenvalue multiplicity of the rational xi in the eccentricity
    spectrum, as a root multiplicity of the characteristic polynomial."""
    return root_multiplicity(acharpoly(g), xi)


def acharpoly(g: Graph) -> IntPolynomial:
    """Characteristic polynomial of the eccentricity matrix, exact and monic."""
    return charpoly(ecc_matrix(g))


def is_irreducible(e: IntMatrix) -> bool:
    """True iff the nonzero-support graph of the symmetric matrix is
    connected, which is exactly irreducibility; ValueError if not symmetric."""
    if not e.is_symmetric():
        raise ValueError("symmetric matrix required")
    support = [sum(1 << v for v, x in enumerate(row) if x and v != u)
               for u, row in enumerate(e.rows)]
    return kernels.UNREACHABLE not in kernels.all_pairs_dist(e.n, support)[0]


def median_positions(n):
    """The two median positions H = floor((n+1)/2), L = ceil((n+1)/2)."""
    return (n + 1) // 2, (n + 2) // 2


def median_eigenvalue_is(g: Graph, xi):
    """Whether xi occupies the median positions H and L of the eccentricity
    spectrum (eigenvalues ordered decreasingly); returns (at_H, at_L)."""
    return spectrum_median_is(SymmetricSpectrum(ecc_matrix(g)), xi)


def spectrum_median_is(spec: SymmetricSpectrum, xi):
    """``median_eigenvalue_is`` on an already built spectrum."""
    ine = spec.inertia(xi)
    h, l = median_positions(spec.n)
    at = lambda pos: ine.n_plus < pos <= ine.n_plus + ine.n_zero
    return at(h), at(l)


def hl_index(g: Graph) -> RationalInterval:
    """Enclosure of max(|xi_H|, |xi_L|); a point when both medians are
    certified rational by inertia."""
    return median_brackets(SymmetricSpectrum(ecc_matrix(g)))[2]


def median_brackets(spec: SymmetricSpectrum):
    """(bracket of xi_H, bracket of xi_L, HL-index enclosure) of a spectrum;
    at odd n, H = L and one bracket serves both."""
    h, l = median_positions(spec.n)
    bh = spec.bracket(h)
    bl = bh if l == h else spec.bracket(l)
    ah = _abs_interval(bh)
    al = _abs_interval(bl)
    return bh, bl, RationalInterval(max(ah.lo, al.lo), max(ah.hi, al.hi))


def _abs_interval(iv: RationalInterval) -> RationalInterval:
    if iv.lo >= 0:
        return iv
    if iv.hi <= 0:
        return RationalInterval(-iv.hi, -iv.lo)
    return RationalInterval(Fraction(0), max(-iv.lo, iv.hi))


def twin_eigenvalue_predictions(g: Graph):
    """Guaranteed eigenvalue lower bounds from duplicate / co-duplicate
    classes: each class of size k forces multiplicity >= k-1 at the
    eigenvalue determined by the class kind and its common eccentricity, as
    (xi, lower) int pairs (``_kernels_py.twin_predictions``).  Raises
    ValueError on a disconnected graph, as ``ecc_matrix`` does."""
    return twin_predictions(g.adj, _connected_metrics(g).ecc)


@dataclass(frozen=True)
class SpectrumSummary:
    """Bundle of exact spectral facts about one graph's eccentricity matrix."""

    n: int
    charpoly: IntPolynomial
    mult_table: dict
    median_h: RationalInterval
    median_l: RationalInterval
    hl: RationalInterval

    def to_dict(self):
        def iv(b):
            return {"lo": str(b.lo), "hi": str(b.hi), "exact": b.is_point()}

        return {
            "n": self.n,
            "charpoly_ascending": self.charpoly.ascending_list(),
            "multiplicities": {str(k): v for k, v in self.mult_table.items()},
            "median_upper": iv(self.median_h),
            "median_lower": iv(self.median_l),
            "hl_index": iv(self.hl),
        }


def spectrum_summary(g: Graph):
    spec = SymmetricSpectrum(ecc_matrix(g))
    bh, bl, hl = median_brackets(spec)
    cp = spec.charpoly
    table = {Fraction(x): root_multiplicity(cp, x) for x in (-2, -1, 0)}
    return SpectrumSummary(g.n, cp, table, bh, bl, hl)


__all__ = [
    "SpectrumSummary",
    "acharpoly",
    "ecc_matrix",
    "hl_index",
    "is_irreducible",
    "median_brackets",
    "median_eigenvalue_is",
    "median_positions",
    "multiplicity",
    "spectrum_median_is",
    "spectrum_summary",
    "twin_eigenvalue_predictions",
]
