"""Magnitude chain blocks: simplex enumeration and boundary matrices.

A k-simplex is a tuple (x0,...,xk) of points with consecutive entries
distinct; its length is the sum of consecutive distances and must be finite
(tuples through unreachable pairs fall outside every grading block).  The
differential only ever drops interior points, and drops x_i exactly when
d(x_{i-1},x_{i+1}) = d(x_{i-1},x_i) + d(x_i,x_{i+1}); in that case the face
keeps the same length, which is why the length grading is preserved.
Distinct points are at positive distance (the space's constructor refuses a
zero), so a k-simplex is at least k least steps long, and x_{i-1} = x_{i+1}
never passes the face test: d(a,a) = 0 < d(a,b) + d(b,a).

Bases are enumerated in lexicographic order by depth-first extension with
remaining-length pruning, so every downstream matrix is reproducible
bit-for-bit.  The walk drops a point's steps longer than l - (k-1) * least,
which leave no room for the others, the first time it extends from that
point (so a degree-1 block filters nothing), keeping them in index order, and
takes each last step from the space's spheres (the points at exactly the
remaining length) instead of scanning every step; count_simplices runs the
same walk and adds up those last steps without building a tuple.  Distances
are read in the space's integer form; a graph metric enters it directly as
BFS levels.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor

from .snf import SparseMatrix
from .spaces import QuasiMetricSpace


def enumerate_simplices(space: QuasiMetricSpace, k: int, l: Fraction) -> list:
    """All simplices of degree k and length exactly l, lexicographic."""
    out = []

    def leaf(prefix: list, ends):
        for y in ends:
            prefix[k] = y
            out.append(tuple(prefix))

    _walk(space, k, l, leaf)
    return out


def count_simplices(space: QuasiMetricSpace, k: int, l: Fraction) -> int:
    """len(enumerate_simplices(space, k, l)), by the same walk but without
    building the simplices."""
    total = 0

    def leaf(prefix: list, ends):
        nonlocal total
        total += len(ends)

    _walk(space, k, l, leaf)
    return total


def _walk(space: QuasiMetricSpace, k: int, l: Fraction, leaf) -> None:
    """Call leaf(prefix, ends) for every (x0, ..., x_{k-1}) in lexicographic
    order that some points y, the ends in index order, complete to a simplex
    of degree k and length l; prefix is a list of k + 1 entries, the last
    one free for the caller."""
    if l < 0 or k < 0:
        return
    if k == 0:
        if l == 0:
            leaf([0], range(space.n))
        return
    budget = space.grade_units(l)
    least = space.min_step  # every step costs at least this, for budget pruning
    if budget is None or least is None or budget < k * least:
        return
    cap = budget - (k - 1) * least  # a longer step leaves no room for the others
    space_steps, spheres = space.steps, space.spheres
    steps = [None] * space.n  # x's steps up to the cap, once the walk extends from x
    prefix = [0] * (k + 1)

    def extend(pos: int, remaining: int):
        x = prefix[pos - 1]
        if pos == k:
            ends = spheres[x].get(remaining)
            if ends:
                leaf(prefix, ends)
            return
        out = steps[x]
        if out is None:
            out = steps[x] = [(y, d) for y, d in space_steps[x] if d <= cap]
        reserve = (k - pos) * least
        for y, d in out:
            if remaining - d >= reserve:
                prefix[pos] = y
                extend(pos + 1, remaining - d)

    for x0 in range(space.n):
        prefix[0] = x0
        extend(1, budget)


def boundary_matrix(
    space: QuasiMetricSpace,
    k: int,
    l: Fraction,
    domain: list,
    codomain_index: dict,
) -> SparseMatrix:
    """Matrix of the differential MC_{k,l} -> MC_{k-1,l} in the given bases.

    Column j is the boundary of the simplex domain[j]: the sum over interior
    indices i = 1..k-1 only of (-1)^i times the face dropping x_i, kept when
    d(x_{i-1},x_{i+1}) = d(x_{i-1},x_i) + d(x_i,x_{i+1}).  The faces of one
    simplex are distinct tuples, so every entry is a single sign.
    """
    units = space.units
    rows = {}
    for col, simplex in enumerate(domain):
        for i in range(1, k):
            a, b, c = simplex[i - 1], simplex[i], simplex[i + 1]
            if units[a][c] == units[a][b] + units[b][c]:
                face = simplex[:i] + simplex[i + 1 :]
                rows.setdefault(codomain_index[face], {})[col] = -1 if i & 1 else 1
    return SparseMatrix(len(codomain_index), len(domain), rows)


def realizable_grades(space: QuasiMetricSpace, lmax) -> list:
    """All finite sums of distance values up to lmax (the additive closure of
    the finite distances between distinct points, plus 0), sorted and
    duplicate-free.
    A negative lmax is a ValueError: no grade lies below it."""
    lmax = Fraction(lmax)
    if lmax < 0:
        raise ValueError(f"negative truncation lmax = {lmax}")
    if space.n == 0:
        return []
    top = floor(lmax * space.den)
    values = sorted({u for row in space.steps for _, u in row})
    grades = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for g in frontier:
            for v in values:
                s = g + v
                if s <= top and s not in grades:
                    grades.add(s)
                    nxt.append(s)
        frontier = nxt
    return [Fraction(g, space.den) for g in sorted(grades)]
