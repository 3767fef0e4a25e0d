"""Finite posets: order-complex (co)chains and the front/back cup product.

The normalized chains of a poset are spanned by strict chains x0 < ... < xk
with the usual simplicial boundary (alternating deletions of every entry,
endpoints included, in contrast with metric magnitude chains whose outer
faces are absent).  The cochain product splits front/back like the metric
one; because the enrichment here is cartesian, the induced ring is graded
commutative at class level, which check_graded_commutativity confirms.
"""

from __future__ import annotations

import os

from .homology import BlockComplex
from .snf import SparseMatrix
from .spaces import InputError, file_lines, line_ints, moore_covers


class InvalidPoset(InputError):
    pass


class FinitePoset:
    """Immutable partial order on 0..n-1 given by its full leq matrix."""

    __slots__ = ("n", "leq")

    def __init__(self, leq):
        matrix = tuple(tuple(bool(v) for v in row) for row in leq)
        n = len(matrix)
        for row in matrix:
            if len(row) != n:
                raise InvalidPoset("relation matrix must be square")
        for i in range(n):
            if not matrix[i][i]:
                raise InvalidPoset(f"not reflexive at {i}")
        for i in range(n):
            for j in range(n):
                if i != j and matrix[i][j] and matrix[j][i]:
                    raise InvalidPoset(f"antisymmetry fails on {i}, {j}")
                if matrix[i][j]:
                    for k in range(n):
                        if matrix[j][k] and not matrix[i][k]:
                            raise InvalidPoset(f"transitivity fails on {i},{j},{k}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "leq", matrix)

    def __setattr__(self, *args):
        raise AttributeError("FinitePoset is immutable")

    def less(self, a: int, b: int) -> bool:
        return a != b and self.leq[a][b]

    @staticmethod
    def from_cover_relations(n: int, covers) -> "FinitePoset":
        if n < 0:
            raise InvalidPoset(f"negative element count {n}")
        leq = [[i == j for j in range(n)] for i in range(n)]
        for a, b in covers:
            if not (0 <= a < n and 0 <= b < n):
                raise InvalidPoset(f"cover {a} < {b} names an element outside 0..{n - 1}")
            leq[a][b] = True
        # Warshall: after step j, i <= k whenever a chain of covers from i
        # to k has all its inner elements among 0..j
        for j in range(n):
            for i in range(n):
                if leq[i][j]:
                    leq[i] = [a or b for a, b in zip(leq[i], leq[j])]
        return FinitePoset(leq)


def parse_poset_file(text: str) -> FinitePoset:
    """Format: first line n, then cover lines 'a < b'; blank lines and '#'
    comments are skipped."""
    lines = list(file_lines(text))
    if not lines:
        raise InvalidPoset("empty poset file")
    number, head = lines[0]
    (n,) = line_ints(number, head.split(), "n")
    covers = [line_ints(number, line.split(), "a < b") for number, line in lines[1:]]
    return FinitePoset.from_cover_relations(n, covers)


def chain_poset(n: int) -> FinitePoset:
    return FinitePoset([[i <= j for j in range(n)] for i in range(n)])


def antichain_poset(n: int) -> FinitePoset:
    return FinitePoset([[i == j for j in range(n)] for i in range(n)])


def moore_poset(p: int) -> FinitePoset:
    """The face poset of M(Z/p, 1), p >= 2, with a bottom and a top added
    (spaces.moore_covers)."""
    return FinitePoset.from_cover_relations(*moore_covers(p))


def circle_poset() -> FinitePoset:
    """Face poset of the boundary of a triangle: 3 vertices under 3 edges;
    its order complex is a hexagonal circle."""
    covers = [(0, 3), (1, 3), (1, 4), (2, 4), (2, 5), (0, 5)]
    return FinitePoset.from_cover_relations(6, covers)


def load_poset(source: str) -> FinitePoset:
    """Resolve a --poset argument: a poset file if the path exists, otherwise
    a builtin name (circle, chainN, antichainN, mooreP)."""
    if os.path.exists(source):
        with open(source) as fh:
            return parse_poset_file(fh.read())
    name = source.strip().lower()
    if name == "circle":
        return circle_poset()
    builders = (("chain", chain_poset), ("antichain", antichain_poset), ("moore", moore_poset))
    for prefix, build in builders:
        if name.startswith(prefix) and name[len(prefix) :].isdecimal():
            return build(int(name[len(prefix) :]))
    raise InvalidPoset(f"unknown poset {source!r}")


class OrderComplex(BlockComplex):
    """Simplicial chains on the strict chains of a poset."""

    def __init__(self, poset: FinitePoset):
        super().__init__()
        self.poset = poset

    def _simplices(self, k: int) -> list:
        # a strict chain is listed in poset order, which may disagree with
        # the index order, so candidates range over all elements
        out = []
        chain = []

        def extend():
            if len(chain) == k + 1:
                out.append(tuple(chain))
                return
            for x in range(self.poset.n):
                if not chain or self.poset.less(chain[-1], x):
                    chain.append(x)
                    extend()
                    chain.pop()

        extend()
        return out

    def _boundary_matrix(self, k: int) -> SparseMatrix:
        # the faces of a strict chain are distinct, so each entry is one sign
        index = self.index(k - 1)
        rows = {}
        for col, chain in enumerate(self.simplices(k)):
            for i in range(k + 1):
                face = chain[:i] + chain[i + 1 :]
                rows.setdefault(index[face], {})[col] = -1 if i & 1 else 1
        return SparseMatrix(len(index), len(self.simplices(k)), rows)


def unit_cochain(complex_: OrderComplex) -> tuple:
    return (1,) * len(complex_.simplices(0))


def poset_cup(complex_: OrderComplex, j: int, xi, k: int, eta) -> tuple:
    """(xi . eta)(x0<...<x_{j+k}) = xi(x0<...<x_j) eta(x_j<...<x_{j+k})."""
    front_index = complex_.index(j)
    back_index = complex_.index(k)
    out = []
    for chain in complex_.simplices(j + k):
        out.append(xi[front_index[chain[: j + 1]]] * eta[back_index[chain[j:]]])
    return tuple(out)


def check_graded_commutativity(poset: FinitePoset, kmax: int):
    """alpha.beta = (-1)^{jk} beta.alpha at class level for all basis classes
    with j + k <= kmax; (ok, failures)."""
    complex_ = OrderComplex(poset)
    failures = []
    for j in range(kmax + 1):
        qj = complex_.cohomology_quotient(j)
        for k in range(kmax + 1 - j):
            qk = complex_.cohomology_quotient(k)
            qt = complex_.cohomology_quotient(j + k)
            sign = (-1) ** (j * k)
            orders = qt.orders
            for a in range(qj.dim):
                xi = qj.representative(a)
                for b in range(qk.dim):
                    eta = qk.representative(b)
                    ab = qt.reduce(list(poset_cup(complex_, j, xi, k, eta)))
                    ba = qt.reduce(list(poset_cup(complex_, k, eta, j, xi)))
                    ba_signed = tuple(
                        (sign * v) % d if d else sign * v for v, d in zip(ba, orders)
                    )
                    if ab != ba_signed:
                        failures.append(
                            f"degrees ({j},{k}) classes ({a},{b}): {ab} vs {ba_signed}"
                        )
    return not failures, failures
