"""Finite quasi-metric spaces and graphs with exact rational distances.

A space is a point count n together with an n x n matrix of distances, each
a nonnegative Fraction or None for an unreachable pair ('inf'), satisfying
d(x,x) = 0, d(x,y) != 0 for x != y, and the triangle inequality; symmetry is
NOT required.  The constructor checks all three, so every other module may
rely on distinct points being at positive distance.

Public distances and grades stay exact rationals.  Each space also keeps,
computed once, one integer form for the engine: every distance as an integer
over the common denominator of the finite distances, with None for an
unreachable pair.  A grade, being a sum of distances, is then an integer in
the same units.  A graph metric enters in that form directly: its BFS levels
are integer units with den = 1, checked as any matrix is.
"""

from __future__ import annotations

import os
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from typing import Iterable, Sequence

from .rationals import format_rational, parse_rational


class InputError(ValueError):
    """Malformed input: a flag, a space, graph, poset or presentation file, or
    a presentation that no space has.  The command line reports exactly these
    (and OSError) as exit 2; any other ValueError is a fault of the engine."""


class ZeroDistance(InputError):
    """Two distinct points at distance zero, which no space allows."""

    def __init__(self, x: int, y: int):
        super().__init__(f"distinct points {x}, {y} are at distance 0")


class InvalidSpace(InputError):
    pass


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertices 0..n-1; edges are ordered pairs if directed.
    ``adjacency[u]`` is the sorted tuple of the v with an edge (u, v)."""

    n: int
    edges: frozenset
    directed: bool = False
    adjacency: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 0:
            raise InvalidSpace(f"negative vertex count {self.n}")
        succ = [[] for _ in range(self.n)]
        for (u, v) in self.edges:
            if u == v:
                raise InvalidSpace(f"loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise InvalidSpace(f"edge ({u},{v}) out of range")
            succ[u].append(v)
        object.__setattr__(self, "adjacency", tuple(tuple(sorted(vs)) for vs in succ))

    @staticmethod
    def undirected(n: int, pairs: Iterable[tuple]) -> "Graph":
        edges = set()
        for (u, v) in pairs:
            edges.add((u, v))
            edges.add((v, u))
        return Graph(n, frozenset(edges), directed=False)

    @staticmethod
    def directed_graph(n: int, pairs: Iterable[tuple]) -> "Graph":
        return Graph(n, frozenset((u, v) for (u, v) in pairs), directed=True)


class QuasiMetricSpace:
    """Immutable finite space with an exact extended quasi-metric.

    The public matrix ``d`` holds a Fraction per pair, or None where the
    pair is unreachable.  Besides it, a space keeps the one distance form the
    engine reads: ``units[x][y]``, the distance in units of ``1/den`` (``den``
    is the lcm of the finite denominators) or None; ``steps[x]``, the
    pairs (y, units) of the finite out-steps of x in index order;
    ``spheres[x]``, the same steps as a dict, by increasing units, from
    units to the tuple of the points y at that distance, in index order; and
    ``min_step``, the least of all step units, which is positive (None when
    there is none).  ``grade_units`` is the one place where a grade becomes
    units, and two spaces compare and hash on (den, units), which fixes
    ``d``.  The constructor converts ``d`` to units; ``space_from_graph``
    hands its integer BFS levels to the same checks without that step.

    The triangle check tests a pair (i, j) against every k only when none of
    i's nearest points lies between i and j, so a graph metric costs about
    (edges x n) rather than n^3; a failure is reported as the first failing
    triple in index order, as by the exhaustive scan.
    """

    __slots__ = ("n", "d", "den", "units", "steps", "spheres", "min_step")

    def __init__(self, d: Sequence[Sequence]):
        # An entry that already is a Fraction is kept, so that spaces built
        # from shared distance objects share them here too.
        matrix = tuple(
            tuple(_distance(i, j, x) for j, x in enumerate(row)) for i, row in enumerate(d)
        )
        n = len(matrix)
        for row in matrix:
            if len(row) != n:
                raise InvalidSpace("distance matrix must be square")
        den = lcm(*(v.denominator for row in matrix for v in row if v is not None))
        units = tuple(
            tuple(None if v is None else v.numerator * (den // v.denominator) for v in row)
            for row in matrix
        )
        self._settle(matrix, den, units)

    def _settle(self, d: tuple, den: int, units: tuple) -> None:
        """Check the integer form `units` of the square matrix `d` and keep
        both: every space, from a matrix or from a graph, is checked here."""
        n = len(units)
        for i in range(n):
            if units[i][i] != 0:
                raise InvalidSpace(f"d({i},{i}) must be 0")
        # One pass per row finds its steps, its spheres and any zero step
        # (the diagonal is 0, so `if u` keeps exactly the finite steps).
        steps, spheres = [], []
        for i, row in enumerate(units):
            out = [(j, u) for j, u in enumerate(row) if u]
            if row.count(0) > 1:
                raise ZeroDistance(i, next(j for j, u in enumerate(row) if u == 0 and j != i))
            sphere = {}
            for j, u in out:
                sphere.setdefault(u, []).append(j)
            steps.append(tuple(out))
            spheres.append({u: tuple(sphere[u]) for u in sorted(sphere)})
        # Triangle inequality over finite pairs: a pair through an
        # unreachable step bounds nothing, and an unreachable d(i,k) fails
        # any finite bound.  A pair (i, j) with a point m between them,
        # d(i,m) + d(m,j) <= d(i,j), needs no k-loop: of the failing
        # (i, j, k), one with d(i,j) least has no such m, for (m, j, k) and
        # (i, m, k) have shorter first legs and hold, so that
        # d(i,k) <= d(i,m) + d(m,k) <= d(i,m) + d(m,j) + d(j,k) <= d(i,j) + d(j,k)
        # (and k = m fails nothing).  Only i's nearest points are tried as m,
        # at equality, which finds one for every non-edge pair of a graph
        # metric; a failure is reported by the exhaustive index-order scan.
        for i, row in enumerate(units):
            nearest = list(spheres[i].items())[:1]
            for j, dij in _unsplit(units, steps[i], nearest):
                for k, djk in steps[j]:
                    dik = row[k]
                    if dik is None or dik > dij + djk:
                        _first_triangle_failure(units, steps)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "units", units)
        object.__setattr__(self, "steps", tuple(steps))
        object.__setattr__(self, "spheres", tuple(spheres))
        object.__setattr__(self, "min_step", min((next(iter(s)) for s in spheres if s), default=None))

    def __setattr__(self, *args):
        raise AttributeError("QuasiMetricSpace is immutable")

    def __eq__(self, other):
        return isinstance(other, QuasiMetricSpace) and (self.den, self.units) == (
            other.den, other.units
        )

    def __hash__(self):
        return hash((self.den, self.units))

    def __repr__(self):
        return f"QuasiMetricSpace(n={self.n})"

    def grade_units(self, l):
        """The grade l in units of 1/den; None when l is not a multiple of
        1/den, so that no simplex has length l."""
        units = Fraction(l) * self.den
        return units.numerator if units.denominator == 1 else None

    def max_finite_distance(self) -> Fraction:
        return Fraction(max((u for row in self.steps for _, u in row), default=0), self.den)


def _unsplit(units: tuple, steps: tuple, rings) -> list:
    """The steps (y, d(x,y)) of a point x that no point a of the rings splits,
    d(x,a) + d(a,y) = d(x,y); the rings are pairs (d(x,a), points a) of x by
    increasing distance."""
    out = []
    for y, dxy in steps:
        for dxa, ring in rings:
            if dxa >= dxy:
                out.append((y, dxy))  # no ring is left nearer than y
                break
            gap = dxy - dxa
            for a in ring:
                if units[a][y] == gap:
                    break
            else:
                continue  # no point of this ring splits (x, y)
            break  # a point of this ring splits (x, y)
        else:
            out.append((y, dxy))
    return out


def _first_triangle_failure(units: tuple, steps: tuple):
    """Raise for the first failing triple (i, j, k) in index order."""
    for i, row in enumerate(units):
        for j, dij in steps[i]:
            for k, djk in steps[j]:
                dik = row[k]
                if dik is None or dik > dij + djk:
                    raise InvalidSpace(
                        f"triangle inequality fails: d({i},{k}) > d({i},{j}) + d({j},{k})"
                    )


def _distance(i: int, j: int, x) -> Fraction | None:
    """Entry d(i,j) as a Fraction (kept as is if it is one), or None."""
    if x is None:
        return None
    if type(x) is not Fraction:
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise InvalidSpace(f"d({i},{j}) = {x!r} is not an int, a Fraction or None")
        x = Fraction(x)
    if x.numerator < 0:
        raise InvalidSpace(f"d({i},{j}) = {x} is negative")
    return x


@dataclass(frozen=True)
class AdjacentPair:
    """Ordered pair (x, y) of distinct points with d(x, y) finite and not
    refinable: no third point a has d(x,y) = d(x,a) + d(a,y)."""

    x: int
    y: int
    length: Fraction


def space_from_graph(g: Graph) -> QuasiMetricSpace:
    """Shortest-path metric of a graph; unreachable pairs get None.  The BFS
    levels are already the integer form, with den = 1, and go through the
    same checks as any matrix; ``d`` holds one Fraction per level, shared by
    every pair at that level."""
    n, adjacency = g.n, g.adjacency
    units = []
    depth = 0  # one more than the largest level
    for s in range(n):
        row = [None] * n
        row[s] = 0
        frontier = [s]
        level = 0
        while frontier:
            level += 1
            nxt = []
            for u in frontier:
                for v in adjacency[u]:
                    if row[v] is None:
                        row[v] = level
                        nxt.append(v)
            frontier = nxt
        units.append(tuple(row))
        depth = max(depth, level)
    levels = {None: None}
    levels.update((level, Fraction(level)) for level in range(depth))
    space = object.__new__(QuasiMetricSpace)
    space._settle(tuple(tuple(map(levels.__getitem__, row)) for row in units), 1, tuple(units))
    return space


def adjacent_pairs(space: QuasiMetricSpace) -> list:
    """All ordered adjacent pairs of the space, sorted by (x, y)."""
    return [
        AdjacentPair(x, y, space.d[x][y])
        for x in range(space.n)
        for y, _ in _unsplit(space.units, space.steps[x], space.spheres[x].items())
    ]


def _signature(space: QuasiMetricSpace, x: int):
    """The sorted distance units out of and into x, each with the
    unreachable ones counted after the finite ones."""
    row = sorted(u for _, u in space.steps[x])
    col = sorted(r[x] for j, r in enumerate(space.units) if j != x and r[x] is not None)
    return tuple(row), space.n - 1 - len(row), tuple(col), space.n - 1 - len(col)


def is_isometric(a: QuasiMetricSpace, b: QuasiMetricSpace) -> bool:
    """Exhaustive bijection search with distance-multiset pruning, on the
    integer form: isometric spaces have the same multiset of distances, so
    the same den, and a different size or den is False, not an error.

    A point is only matched to points with the same sorted row and column
    of distances, and a partial bijection is dropped at its first pair whose
    distances differ.  No size limit applies: the cost is the number of
    partial bijections that survive, n! in the worst case.  On vertex-
    transitive graphs against a relabelled copy it stays small: about 0.1 ms
    for the Petersen graph (n = 10), 0.2 ms for the icosahedron (n = 12) and
    6 ms for the 6-cube (n = 64), best of five with Python 3.11 on a 2-core
    x86-64 host.
    """
    if a.n != b.n or a.den != b.den:
        return False
    n = a.n
    sig_a = [_signature(a, x) for x in range(n)]
    sig_b = [_signature(b, x) for x in range(n)]
    if sorted(sig_a) != sorted(sig_b):
        return False
    candidates = [[y for y in range(n) if sig_b[y] == sig_a[x]] for x in range(n)]
    ua, ub = a.units, b.units
    image = [-1] * n
    used = [False] * n

    def extend(x: int) -> bool:
        if x == n:
            return True
        for y in candidates[x]:
            if used[y]:
                continue
            ok = True
            for z in range(x):
                if ua[x][z] != ub[y][image[z]] or ua[z][x] != ub[image[z]][y]:
                    ok = False
                    break
            if ok:
                image[x] = y
                used[y] = True
                if extend(x + 1):
                    return True
                used[y] = False
        return False

    return extend(0)


# ---------------------------------------------------------------------------
# Built-in graphs and file formats
# ---------------------------------------------------------------------------

def path_graph(n: int) -> Graph:
    return Graph.undirected(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidSpace("cycle needs at least 3 vertices")
    return Graph.undirected(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.undirected(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def complete_bipartite_graph(p: int, q: int) -> Graph:
    return Graph.undirected(p + q, [(i, p + j) for i in range(p) for j in range(q)])


def petersen_graph() -> Graph:
    """Kneser graph K(5,2): 2-subsets of {0..4}, edges between disjoint sets."""
    pairs = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    index = {p: k for k, p in enumerate(pairs)}
    edges = []
    for p in pairs:
        for q in pairs:
            if p < q and not (set(p) & set(q)):
                edges.append((index[p], index[q]))
    return Graph.undirected(10, edges)


def icosahedral_graph() -> Graph:
    """1-skeleton of the icosahedron (12 vertices, 30 edges)."""
    top, bottom = 0, 11
    upper = [1, 2, 3, 4, 5]
    lower = [6, 7, 8, 9, 10]
    edges = []
    for i in range(5):
        edges.append((top, upper[i]))
        edges.append((bottom, lower[i]))
        edges.append((upper[i], upper[(i + 1) % 5]))
        edges.append((lower[i], lower[(i + 1) % 5]))
        edges.append((upper[i], lower[i]))
        edges.append((upper[i], lower[(i + 1) % 5]))
    return Graph.undirected(12, edges)


def moore_covers(p: int):
    """(n, covers) of the face poset of a triangulated Moore space M(Z/p, 1),
    p >= 2: a 3-cycle a0 a1 a2 (points 0..2), a 3p-cycle b0..b_{3p-1}
    (points 3..3p+2) and a cone point c, with the triangles {b_i, b_{i+1},
    a_{i mod 3}}, {b_{i+1}, a_{i mod 3}, a_{i+1 mod 3}} and {c, b_i, b_{i+1}}
    for every i, so that the disk bounded by the b-cycle wraps p times round
    the a-cycle.  The faces are listed by dimension as 1..F, with a bottom 0
    and a top F+1 added; a face is covered by the faces one point larger.
    This gives 57, 81 and 105 points for p = 2, 3 and 4."""
    if p < 2:
        raise InputError(f"Moore space M(Z/p, 1) needs p >= 2, got {p}")
    m = 3 * p
    c = 3 + m
    triangles = []
    for i in range(m):
        bi, bj, ai, aj = 3 + i, 3 + (i + 1) % m, i % 3, (i + 1) % 3
        triangles += [(bi, bj, ai), (bj, ai, aj), (c, bi, bj)]
    faces = {f for t in triangles for r in (1, 2, 3) for f in combinations(sorted(t), r)}
    cells = sorted(faces, key=lambda f: (len(f), f))
    index = {f: i + 1 for i, f in enumerate(cells)}
    top = len(cells) + 1
    covers = {(0, index[f]) for f in cells if len(f) == 1}
    covers |= {(index[f], top) for f in cells if len(f) == 3}
    covers |= {(index[f], index[g]) for g in cells for f in combinations(g, len(g) - 1) if f}
    return top + 1, sorted(covers)


def builtin_graph(name: str) -> Graph:
    """Named graphs: kN complete, pN path, cN cycle, kPQ complete bipartite
    (two nonzero digits, e.g. k22, k23), petersen, icosahedron, and mooreP
    (p >= 2), the directed Hasse diagram of moore_covers(p)."""
    name = name.strip().lower()
    if name == "petersen":
        return petersen_graph()
    if name == "icosahedron":
        return icosahedral_graph()
    if name.startswith("moore") and name[5:].isdecimal():
        return Graph.directed_graph(*moore_covers(int(name[5:])))
    if len(name) >= 2 and name[0] in "kpc" and name[1:].isdecimal():
        digits = name[1:]
        if name[0] == "k":
            if len(digits) == 2 and "0" not in digits:
                return complete_bipartite_graph(int(digits[0]), int(digits[1]))
            return complete_graph(int(digits))
        if name[0] == "p":
            return path_graph(int(digits))
        return cycle_graph(int(digits))
    raise InvalidSpace(f"unknown builtin graph {name!r}")


def file_lines(text: str):
    """The numbered (from 1), stripped lines of a graph, poset or metric file,
    without blank lines and comments (a '#' after any indentation)."""
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield number, line


def line_ints(number: int, fields: list, form: str) -> list:
    """The integers of line `number`, whose fields match the words of its
    form: a plain word stands for an integer and a symbol for itself, as in
    'a < b'; a [bracketed] word is left to the caller.  Else an InputError."""
    words = [w for w in form.split() if not w.startswith("[")]
    if len(fields) == len(words) and all(f == w for f, w in zip(fields, words) if not w.isalpha()):
        with suppress(ValueError):
            return [int(f) for f, w in zip(fields, words) if w.isalpha()]
    raise InputError(f"line {number}: expected '{form}'")


def parse_graph_file(text: str) -> Graph:
    """Edge-list format: first line 'n [directed|undirected]', then 'u v'
    lines; blank lines and '#' comments are skipped."""
    lines = list(file_lines(text))
    if not lines:
        raise InvalidSpace("empty graph file")
    number, head = lines[0]
    count, *kind = head.split()
    valid = kind in ([], ["directed"], ["undirected"])
    (n,) = line_ints(number, [count] if valid else [], "n [directed|undirected]")
    pairs = [line_ints(number, line.split(), "u v") for number, line in lines[1:]]
    if kind == ["directed"]:
        return Graph.directed_graph(n, pairs)
    return Graph.undirected(n, pairs)


def metric_row(number: int, line: str, n: int) -> list:
    """The n distances of line `number` of a metric file, else an InputError
    that names the line and either the cell count or the bad cell's fault."""
    cells = line.split(",")
    if len(cells) != n:
        raise InputError(f"line {number}: expected {n} comma-separated entries (p/q, integer or inf)")
    try:
        return [parse_rational(cell) for cell in cells]
    except ValueError as exc:
        raise InputError(f"line {number}: {exc}") from None


def parse_metric_file(text: str) -> QuasiMetricSpace:
    """CSV of n rows x n columns with entries 'p/q', integers, or 'inf'."""
    lines = list(file_lines(text))
    return QuasiMetricSpace([metric_row(number, line, len(lines)) for number, line in lines])


def format_metric_csv(space: QuasiMetricSpace) -> str:
    lines = []
    for i in range(space.n):
        lines.append(",".join(format_rational(space.d[i][j]) for j in range(space.n)))
    return "\n".join(lines) + "\n"


def load_graph(source: str) -> Graph:
    """Resolve a --graph argument: an edge-list file if the path exists,
    otherwise a builtin name."""
    if os.path.exists(source):
        with open(source) as fh:
            return parse_graph_file(fh.read())
    return builtin_graph(source)

