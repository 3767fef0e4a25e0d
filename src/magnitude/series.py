"""Magnitude as a truncated power series, two ways.

The alternating sum sum_k (-1)^k rank MH^k_l(X) per grade l categorifies the
magnitude.  It telescopes to the alternating count of chains: with
rho_k = rank of the coboundary out of MC^k_l, rank MH^k_l = |MC_{k,l}| -
rho_k - rho_{k-1}, and rho_{-1} = rho_K = 0 at the degree bound K, so each
rho enters the sum twice with opposite signs.  The Euler series therefore
counts simplices and never builds a boundary or a Smith form.  The
independent oracle inverts the similarity matrix
Z_ab = q^{d(a,b)} grade-by-grade (Z = I + N with N strictly positive, so the
Neumann series sum (-1)^j N^j converges in each truncated grade).  The
oracle runs on its own integer grade scale, derived from the public distance
matrix d alone: it shares no code or state with the engine's integer form.
Both series come out over exact rational grades, so the comparison is exact
equality, no tolerance.  N has no grade-0 term, because a space's distinct
points are at positive distance; a negative lmax is refused.

What the comparison checks is the engine's chain bases (enumeration and
grading) against the distance matrix.  Ranks and torsion are checked
elsewhere: MagnitudeHomology.uct_check, the diagonal-family oracles (among
them test_diagonal_graphs_alternate), the Gu basis of odd cycles and the
recorded Petersen groups of perfbench/reference.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, lcm

from . import complexes
from .homology import MagnitudeHomology
from .rationals import format_grade
from .spaces import QuasiMetricSpace


@dataclass(frozen=True)
class GradedSeries:
    """Finitely many integer coefficients keyed by exact rational grades."""

    lmax: Fraction
    coefficients: tuple  # sorted ((grade, coefficient), ...) with nonzero coefficients

    @staticmethod
    def from_dict(lmax, coeffs: dict) -> "GradedSeries":
        items = tuple(sorted((l, c) for l, c in coeffs.items() if c))
        return GradedSeries(Fraction(lmax), items)

    def coefficient(self, l) -> int:
        for grade, c in self.coefficients:
            if grade == l:
                return c
        return 0

    def as_pairs(self) -> list:
        return [(format_grade(l), c) for l, c in self.coefficients]

    def __str__(self):
        if not self.coefficients:
            return "0"
        parts = []
        for l, c in self.coefficients:
            if l == 0:
                parts.append(str(c))
            else:
                parts.append(f"{'+' if c >= 0 else '-'} {abs(c)}*q^{format_grade(l)}")
        return " ".join(parts)


def euler_series(space: QuasiMetricSpace, lmax) -> GradedSeries:
    """Coefficient at l is sum_k (-1)^k rank MH^k_l; the k-sum is finite
    because k <= l / (minimum positive distance).

    By Euler-Poincare that sum equals sum_k (-1)^k |MC_{k,l}|: the coboundary
    ranks cancel in pairs (see the module docstring), so each term is the
    size of a chain basis, counted one block at a time without building
    the simplices."""
    engine = MagnitudeHomology(space)
    coeffs = {}
    for l in complexes.realizable_grades(space, lmax):
        total = 0
        for k in range(engine.degree_bound(l) + 1):
            total += (-1) ** k * complexes.count_simplices(space, k, l)
        if total:
            coeffs[l] = total
    return GradedSeries.from_dict(lmax, coeffs)


def inversion_series(space: QuasiMetricSpace, lmax) -> GradedSeries:
    """Sum of the entries of Z^{-1} for Z_ab = q^{d(a,b)} (0 when unreachable),
    truncated at lmax via the Neumann series around Z = I + N: the sum over
    m of (-1)^m 1^T N^m 1, propagating the row vector 1^T N^m.

    Grades are integers in units of 1/scale, scale being the lcm of the
    finite denominators of the public matrix d, and the truncation is the
    floor of lmax * scale; the oracle reads only space.n and space.d."""
    lmax = Fraction(lmax)
    if lmax < 0:
        raise ValueError(f"negative truncation lmax = {lmax}")
    n = space.n
    finite = [
        [(j, x) for j, x in enumerate(space.d[i]) if j != i and x is not None]
        for i in range(n)
    ]
    scale = lcm(*(v.denominator for row in finite for _, v in row))
    top = floor(lmax * scale)
    # the entries of N within the truncation, row by row, in units of 1/scale
    steps = [
        [(j, u) for j, v in row if (u := v.numerator * (scale // v.denominator)) <= top]
        for row in finite
    ]
    row = {j: {0: 1} for j in range(n)}  # 1^T N^0
    total = {}
    sign = 1
    while row:
        for s in row.values():
            for l, c in s.items():
                total[l] = total.get(l, 0) + sign * c
        sign = -sign
        nxt = {}
        for i, s in row.items():
            for j, d in steps[i]:
                cell = nxt.setdefault(j, {})
                for l, c in s.items():
                    if l + d <= top:
                        cell[l + d] = cell.get(l + d, 0) + c
        # entries are nonnegative, so a row empties only when N^m does
        row = {j: s for j, s in nxt.items() if s}
    return GradedSeries.from_dict(lmax, {Fraction(l, scale): c for l, c in total.items()})
