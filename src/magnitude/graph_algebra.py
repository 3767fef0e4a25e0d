"""Diagonal-part machinery: path algebras of doubled-edge quivers.

For a finite graph the diagonal groups MH^k_k are the quotient of the path
algebra (basis: edge paths, product: concatenation or zero) by one relation
sum_{y: x<y<z} (...y...) = 0 for every distance-2 pair (x, z), placed in
every path context.  Diagonal graphs (trees, complete graphs, complete
multipartite graphs) have their whole ring concentrated there, torsion-free,
so closed-form oracles are available to cross-check the engine.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .homology import LatticeQuotient, MagnitudeHomology
from .ring import class_of, class_product, indicator_cochain
from .snf import SparseMatrix
from .spaces import Graph, space_from_graph

DIAGONAL_SAMPLES = 40  # concatenation spot-checks per verify_diagonal_theorem
DIAGONAL_SEED = 0  # which pairs of paths those spot-checks draw


def edge_paths(g: Graph, k: int) -> list:
    """Edge paths of length k (walks; backtracking allowed), lexicographic."""
    out = []

    def extend(prefix):
        if len(prefix) == k + 1:
            out.append(tuple(prefix))
            return
        for y in g.adjacency[prefix[-1]]:
            prefix.append(y)
            extend(prefix)
            prefix.pop()

    for x in range(g.n):
        extend([x])
    return out


def path_count(g: Graph, k: int) -> int:
    return len(edge_paths(g, k))


def diagonal_quotient(g: Graph, k: int) -> LatticeQuotient:
    """The degree-k piece of the path algebra modulo the midpoint relations,
    in the coordinates of `edge_paths(g, k)`."""
    paths = edge_paths(g, k)
    index = {p: i for i, p in enumerate(paths)}
    succ = g.adjacency
    # gaps[x][z]: the midpoints y, x -> y -> z, of a pair at distance 2
    gaps = [{} for _ in range(g.n)]
    for x in range(g.n):
        for y in succ[x]:
            for z in succ[y]:
                if z != x and z not in succ[x]:
                    gaps[x].setdefault(z, []).append(y)
    rows = []
    # One relation per context: an edge path broken by a single distance-2
    # gap at position i, summed over all midpoints of the gap.  Distinct
    # midpoints give distinct paths, so each relation row is a sum of 1s.
    for i in range(1, k):
        suffixes = {}
        for suffix in edge_paths(g, k - 1 - i):
            suffixes.setdefault(suffix[0], []).append(suffix)
        for prefix in edge_paths(g, i - 1):
            for z, mids in sorted(gaps[prefix[-1]].items()):
                for suffix in suffixes.get(z, ()):
                    rows.append({index[prefix + (y, z) + suffix[1:]]: 1 for y in mids})
    relations = SparseMatrix(len(rows), len(paths), dict(enumerate(rows)))
    return LatticeQuotient(SparseMatrix(0, len(paths)), relations.transpose(), len(paths))


def verify_diagonal_theorem(g: Graph, kmax: int):
    """Compare the path-algebra quotient with MH^k_k for k <= kmax, and
    spot-check on DIAGONAL_SAMPLES pairs that concatenation matches the cup
    product.

    Returns (ok, failures); failures hold human-readable counterexamples.
    """
    space = space_from_graph(g)
    engine = MagnitudeHomology(space)
    failures = []
    for k in range(kmax + 1):
        group = diagonal_quotient(g, k).group
        got = engine.cohomology(k, k)
        if got != group:
            failures.append(f"k={k}: quotient {group} != cohomology {got}")
    # multiplicativity: [p]* . [q]* = [pq]* (or 0 when endpoints differ)
    rng = random.Random(DIAGONAL_SEED)
    paths = [edge_paths(g, k) for k in range(kmax + 1)]
    pairs = []
    for ka in range(kmax + 1):
        for kb in range(kmax + 1 - ka):
            for pa in paths[ka]:
                for pb in paths[kb]:
                    pairs.append((ka, kb, pa, pb))
    rng.shuffle(pairs)
    for ka, kb, pa, pb in pairs[:DIAGONAL_SAMPLES]:
        alpha = class_of(engine, indicator_cochain(engine, pa, ka))
        beta = class_of(engine, indicator_cochain(engine, pb, kb))
        prod = class_product(engine, alpha, beta)
        if pa[-1] == pb[0]:
            concat = pa + pb[1:]
            expect = class_of(
                engine, indicator_cochain(engine, concat, ka + kb)
            ).coords
        else:
            expect = tuple([0] * len(prod.coords))
        if prod.coords != tuple(expect):
            failures.append(f"concatenation mismatch on {pa} . {pb}")
    return not failures, failures


def is_diagonal(g: Graph, lmax: int):
    """Truncated diagonality certificate: every off-diagonal MH_{k,l} with
    k, l <= lmax vanishes (rank and torsion).  Returns (verdict, witness);
    witness names the first nonzero off-diagonal block, if any."""
    space = space_from_graph(g)
    engine = MagnitudeHomology(space)
    for l in range(lmax + 1):
        for k in range(lmax + 1):
            if k == l:
                continue
            group = engine.homology(k, l)
            if not group.is_trivial:
                return False, f"MH_{{{k},{l}}} = {group}"
    return True, None


def oracle_rank(family: str, params, k: int) -> int:
    """Closed-form diagonal ranks, independent of the chain-complex engine.

    tree(n): n for k=0, else 2(n-1) (the alternating abab... basis, one for
    each oriented edge); complete(n): n(n-1)^k; complete_bipartite(p,q): rank
    of the alternating-sequence span modulo the two midpoint-sum relation
    families, by a dedicated rational elimination.
    """
    if family == "tree":
        n = int(params)
        return n if k == 0 else 2 * (n - 1)
    if family == "complete":
        n = int(params)
        return n * (n - 1) ** k
    if family == "complete_bipartite":
        p, q = params
        return _bipartite_rank(int(p), int(q), k)
    raise ValueError(f"unknown family {family!r}")


def _bipartite_rank(p: int, q: int, k: int) -> int:
    """Alternating X/Y sequences modulo sum_{y in Y} xyx' and its mirror."""
    if k == 0:
        return p + q
    side_of = lambda v: 0 if v < p else 1
    members = ([list(range(p)), list(range(p, p + q))])
    paths = []

    def extend(prefix):
        if len(prefix) == k + 1:
            paths.append(tuple(prefix))
            return
        for y in members[1 - side_of(prefix[-1])]:
            prefix.append(y)
            extend(prefix)
            prefix.pop()

    for v in range(p + q):
        extend([v])
    index = {path: i for i, path in enumerate(paths)}
    rows = []
    for i in range(1, k):
        for path in paths:
            a, b = path[i - 1], path[i + 1]
            if a == b:
                continue
            mid_side = side_of(path[i])
            if sorted(members[mid_side])[0] != path[i]:
                continue  # one relation row per context, not per midpoint
            row = [0] * len(paths)
            for y in members[mid_side]:
                row[index[path[: i] + (y,) + path[i + 1 :]]] += 1
            rows.append(row)
    return len(paths) - _rational_rank(rows)


def _rational_rank(rows: list) -> int:
    """Gaussian elimination over Q, kept separate from the SNF engine."""
    mat = [[Fraction(v) for v in row] for row in rows if any(row)]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    col = 0
    while mat and col < ncols:
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                factor = mat[i][col] / pv
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank
