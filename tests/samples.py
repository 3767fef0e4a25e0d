"""Seeded generators for random test spaces, graphs, and posets."""

from fractions import Fraction

from magnitude.posets import FinitePoset
from magnitude.spaces import Graph, QuasiMetricSpace, is_isometric, moore_covers, space_from_graph

BUILTIN_NAMES = [
    "k3", "k4", "p2", "p3", "p4", "p5", "c4", "c5", "c7", "k22", "k23", "petersen",
]


def random_connected_graph(rng, nmax=7) -> Graph:
    n = rng.randrange(2, nmax + 1)
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        edges.add((order[i], order[rng.randrange(i)]))
    extra = rng.randrange(0, n)
    for _ in range(extra):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph.undirected(n, edges)


def random_strongly_connected_digraph(rng, nmax=6) -> Graph:
    n = rng.randrange(2, nmax + 1)
    order = list(range(n))
    rng.shuffle(order)
    arcs = set()
    for i in range(n):
        arcs.add((order[i], order[(i + 1) % n]))
    for _ in range(rng.randrange(0, 2 * n)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            arcs.add((u, v))
    return Graph.directed_graph(n, arcs)


def random_digraph(rng, nmax=6) -> Graph:
    """Random arcs, each ordered pair with probability 1/4: often not
    strongly connected, so the metric has unreachable pairs."""
    n = rng.randrange(2, nmax + 1)
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.25]
    return Graph.directed_graph(n, arcs)


def random_rational_space(rng, nmax=5) -> QuasiMetricSpace:
    """Random quasi-metric with rational distances in [1, 4]: Floyd-Warshall
    closure of random entries keeps the minimum at least 1, so degree bounds
    stay small while grades are genuinely fractional."""
    n = rng.randrange(2, nmax + 1)
    d = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i][j] = Fraction(rng.randrange(3, 13), rng.choice((1, 2, 3)))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = d[i][k] + d[k][j]
                if via < d[i][j]:
                    d[i][j] = via
    return QuasiMetricSpace(d)


def random_poset(rng, nmax=7) -> FinitePoset:
    """Random poset whose order is deliberately uncorrelated with the
    element indices (covers follow a shuffled linear extension)."""
    n = rng.randrange(1, nmax + 1)
    order = list(range(n))
    rng.shuffle(order)
    covers = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.3:
                covers.append((order[i], order[j]))
    return FinitePoset.from_cover_relations(n, covers)


def hemicube_covers():
    """(n, covers) of the face poset of the hemi-cube, a regular CW structure
    on RP^2: the proper faces of the cube [-1, 1]^3 modulo x -> -x (4
    vertices, 6 edges, 3 squares, listed by dimension as 1..13) with a
    bottom 0 and a top 14 added, so 15 points and 31 covers.  A face is its
    sign vector, 0 marking a free coordinate; freeing one fixed coordinate
    of a face gives the faces that cover it."""
    from itertools import product

    def cell(v):
        return max(v, tuple(-x for x in v))

    faces = [v for v in product((-1, 0, 1), repeat=3) if v.count(0) < 3]
    cells = sorted({cell(v) for v in faces}, key=lambda v: (v.count(0), v))
    index = {v: i + 1 for i, v in enumerate(cells)}
    top = len(cells) + 1
    covers = {(0, index[v]) for v in cells if v.count(0) == 0}
    covers |= {(index[v], top) for v in cells if v.count(0) == 2}
    for v in faces:
        for t in range(3):
            w = v[:t] + (0,) + v[t + 1 :]
            if v[t] and w.count(0) < 3:
                covers.add((index[cell(v)], index[cell(w)]))
    return top + 1, sorted(covers)


def hemicube_prism() -> Graph:
    """The directed hemi-cube (its face poset's cover arcs, as in
    hemicube_covers) box P2: 30 points, a copy of each arc on both levels
    and the P2 edge both ways; MH_{5,6} is (Z/2)^2."""
    n, covers = hemicube_covers()
    arcs = [(2 * a + i, 2 * b + i) for a, b in covers for i in (0, 1)]
    arcs += [(2 * v + i, 2 * v + 1 - i) for v in range(n) for i in (0, 1)]
    return Graph.directed_graph(2 * n, arcs)


def moore_graph(*ps) -> Graph:
    """The disjoint union of the directed Hasse diagrams of moore_covers(p)
    for each p given, in order."""
    n, arcs = 0, []
    for p in ps:
        size, covers = moore_covers(p)
        arcs += [(n + a, n + b) for a, b in covers]
        n += size
    return Graph.directed_graph(n, arcs)


def all_trees(n: int):
    """All trees on n vertices up to isomorphism, via Pruefer sequences."""
    import bisect
    from itertools import product

    if n == 1:
        return [Graph.undirected(1, [])]
    if n == 2:
        return [Graph.undirected(2, [(0, 1)])]
    seen = []
    spaces = []
    for seq in product(range(n), repeat=n - 2):
        degree = [1] * n
        for x in seq:
            degree[x] += 1
        edges = []
        leaves = sorted(i for i in range(n) if degree[i] == 1)
        for x in seq:
            leaf = leaves.pop(0)
            edges.append((leaf, x))
            degree[x] -= 1
            if degree[x] == 1:
                bisect.insort(leaves, x)
        edges.append((leaves[0], leaves[1]))
        tree = Graph.undirected(n, edges)
        space = space_from_graph(tree)
        if not any(is_isometric(space, s) for s in spaces):
            seen.append(tree)
            spaces.append(space)
    return seen
