"""Sparse exact integer linear algebra: Smith normal form with transforms.

All arithmetic is arbitrary-precision (Python int); intermediate entries in
integer elimination can blow up even on modest matrices, so fixed-width types
are never used.  Pivots come from a heap, with minimal absolute value (ties
broken towards sparse rows/columns) to limit entry growth; without transforms,
+-1 singletons are split off first by reading the input, and only the core
left behind is copied (the two policies: `smith_normal_form`).  The input is
never modified.
Row operations clear a pivot's column; the row sweep then reduces the pivot
row in place, as a column operation against the lone pivot moves one entry.
A finished pivot's row and column leave the eliminator; the invariant-factor
repair then works on the pivot list and records only the transforms.

Matrices are dict-of-rows {r: {c: v}} with nonzero v only.  The decomposition
satisfies U * M * V = D exactly, with U, V unimodular and D diagonal with a
divisibility chain d1 | d2 | ... .
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


def xgcd(a: int, b: int):
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b) >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


class SparseMatrix:
    """Immutable-by-convention sparse integer matrix."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows if rows is not None else {}

    @staticmethod
    def from_dense(dense):
        nrows = len(dense)
        ncols = len(dense[0]) if nrows else 0
        rows = {}
        for r, row in enumerate(dense):
            d = {c: v for c, v in enumerate(row) if v}
            if d:
                rows[r] = d
        return SparseMatrix(nrows, ncols, rows)

    @staticmethod
    def identity(n):
        return SparseMatrix(n, n, {i: {i: 1} for i in range(n)})

    def entry(self, r, c) -> int:
        return self.rows.get(r, {}).get(c, 0)

    def nnz(self) -> int:
        return sum(len(d) for d in self.rows.values())

    def is_zero(self) -> bool:
        return not self.rows

    def transpose(self) -> "SparseMatrix":
        rows = {}
        for r, d in self.rows.items():
            for c, v in d.items():
                rows.setdefault(c, {})[r] = v
        return SparseMatrix(self.ncols, self.nrows, rows)

    def matvec(self, vec) -> list:
        """Dense vector (length ncols) -> dense vector (length nrows)."""
        out = [0] * self.nrows
        for r, d in self.rows.items():
            s = 0
            for c, v in d.items():
                x = vec[c]
                if x:
                    s += v * x
            out[r] = s
        return out

    def matmul(self, other: "SparseMatrix") -> "SparseMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        rows = {}
        for r, d in self.rows.items():
            acc = {}
            for k, v in d.items():
                for c, w in other.rows.get(k, {}).items():
                    acc[c] = acc.get(c, 0) + v * w
            acc = {c: v for c, v in acc.items() if v}
            if acc:
                rows[r] = acc
        return SparseMatrix(self.nrows, other.ncols, rows)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


@dataclass
class SmithDecomposition:
    """U * M * V = D with U, V unimodular, D = diag(diag) padded with zeros."""

    nrows: int
    ncols: int
    diag: list
    U: SparseMatrix = None
    UinvT: SparseMatrix = None
    VT: SparseMatrix = None
    Vinv: SparseMatrix = None

    @property
    def rank(self) -> int:
        return len(self.diag)

    def d_matrix(self) -> SparseMatrix:
        rows = {i: {i: v} for i, v in enumerate(self.diag)}
        return SparseMatrix(self.nrows, self.ncols, rows)


def _mirror(fwd, invT, dst, src, t):
    """Line dst += t * line src on a transform kept by its lines (U by rows,
    V as VT), and the inverse's update on its lines (UinvT, Vinv): line src
    -= t * line dst.  An untracked table is None."""
    for table, a, b, s in ((fwd, dst, src, t), (invT, src, dst, -t)):
        if table is not None:
            target = table.setdefault(a, {})
            for c, v in table.get(b, {}).items():
                nv = target.get(c, 0) + s * v
                if nv:
                    target[c] = nv
                else:
                    target.pop(c, None)


def _combine(a: dict, b: dict, s: int, t: int) -> dict:
    out = {c: s * v for c, v in a.items()}
    for c, v in b.items():
        nv = out.get(c, 0) + t * v
        if nv:
            out[c] = nv
        else:
            out.pop(c, None)
    return {c: v for c, v in out.items() if v}


class _Eliminator:
    """Mutable elimination state over synchronized row/column indexes."""

    def __init__(self, matrix: SparseMatrix, need):
        self.colrows = {}
        for r, d in matrix.rows.items():
            for c in d:
                self.colrows.setdefault(c, set()).add(r)
        self.nrows = matrix.nrows
        self.ncols = matrix.ncols
        self.need = frozenset(need)
        if self.need:
            self.peeled, self.rows = 0, {r: dict(d) for r, d in matrix.rows.items()}
        else:
            self.peeled, self.rows = self._peel(matrix.rows)
        self.U = {r: {r: 1} for r in range(self.nrows)} if "U" in self.need else None
        self.UinvT = {r: {r: 1} for r in range(self.nrows)} if "Uinv" in self.need else None
        self.VT = {c: {c: 1} for c in range(self.ncols)} if "V" in self.need else None
        self.Vinv = {c: {c: 1} for c in range(self.ncols)} if "Vinv" in self.need else None
        self.heap = []
        for r, d in self.rows.items():
            for c, v in d.items():
                self._push(r, c, v)

    def _peel(self, rows) -> tuple:
        """Drop each +-1 alone in its row or column with its row and column, a
        unimodular split without fill-in; return the count and a copy of the
        rows left (the core).  The caller's rows are only read: a live-entry
        count per row and the dropped columns stand for the shortened rows.
        Dropping a column shortens only rows and dropping a row only columns:
        one pass each."""
        colrows = self.colrows
        live = {r: len(d) for r, d in rows.items()}
        dropped = set()

        def entries(r):
            return [(c, v) for c, v in rows[r].items() if c not in dropped]

        peeled = 0
        todo = [r for r, n in live.items() if n == 1]
        while todo:
            r = todo.pop()
            if r in live:  # rows only shrink here, so it is still a singleton
                ((c, v),) = entries(r)
                if v in (1, -1):
                    peeled += 1
                    dropped.add(c)
                    for r2 in colrows.pop(c):
                        live[r2] -= 1
                        if live[r2] == 1:
                            todo.append(r2)
                        elif not live[r2]:
                            del live[r2]
        todo = [c for c, rs in colrows.items() if len(rs) == 1]
        while todo:
            c = todo.pop()
            if c in colrows:
                (r,) = colrows[c]
                if rows[r][c] in (1, -1):
                    peeled += 1
                    del live[r]
                    for c2, _ in entries(r):
                        rs = colrows[c2]
                        rs.discard(r)
                        if len(rs) == 1:
                            todo.append(c2)
                        elif not rs:
                            del colrows[c2]
        return peeled, {r: dict(entries(r)) for r in live}

    # -- heap of pivot candidates, keyed for minimal entry growth ----------

    def _key(self, r, c, v):
        return (abs(v), len(self.rows.get(r, ())) + len(self.colrows.get(c, ())), r, c)

    def _push(self, r, c, v):
        heapq.heappush(self.heap, self._key(r, c, v))

    def _pop_pivot(self):
        while self.heap:
            key = heapq.heappop(self.heap)
            _, _, r, c = key
            v = self.rows.get(r, {}).get(c)
            if v is None:
                continue
            fresh = self._key(r, c, v)
            if fresh != key:
                heapq.heappush(self.heap, fresh)
                continue
            return r, c
        return None

    # -- elementary operations, mirrored on the transforms -----------------

    def row_op(self, r2, r1, t):
        """row r2 += t * row r1"""
        row1 = self.rows.get(r1)
        if not row1 or not t:
            return
        row2 = self.rows.setdefault(r2, {})
        for c, v in row1.items():
            nv = row2.get(c, 0) + t * v
            if nv:
                if c not in row2:
                    self.colrows.setdefault(c, set()).add(r2)
                row2[c] = nv
                self._push(r2, c, nv)
            else:
                if c in row2:
                    del row2[c]
                    self.colrows[c].discard(r2)
        if not row2:
            del self.rows[r2]
        _mirror(self.U, self.UinvT, r2, r1, t)

    def negate_row(self, r):
        for table in (self.rows, self.U, self.UinvT):
            if table is not None:
                row = table.get(r, {})
                for c in row:
                    row[c] = -row[c]

    def two_row_op(self, r1, r2, x, y, u, v):
        """rows (r1, r2) of U <- (x*r1 + y*r2, u*r1 + v*r2), x*v - y*u = 1,
        mirrored on U^-1; the matrix itself is not touched."""
        if self.U is not None:
            u1 = self.U.get(r1, {})
            u2 = self.U.get(r2, {})
            self.U[r1] = _combine(u1, u2, x, y)
            self.U[r2] = _combine(u1, u2, u, v)
        if self.UinvT is not None:
            # Uinv <- Uinv * R^-1 with R^-1 = [[v, -y], [-u, x]]
            t1 = self.UinvT.get(r1, {})
            t2 = self.UinvT.get(r2, {})
            self.UinvT[r1] = _combine(t1, t2, v, -u)
            self.UinvT[r2] = _combine(t1, t2, -y, x)

    # -- pivot elimination --------------------------------------------------

    def eliminate(self, r, c):
        """Clear row r and column c, gcd-reducing until the pivot divides
        everything it meets; return the final (r, c, pivot>0), whose row and
        column, holding only the pivot, leave the eliminator.  Once the pivot
        is alone in its column, the row sweep reduces each entry of row r in
        place to its remainder mod the pivot, mirrored on the V transforms."""
        while True:
            if self.rows[r][c] < 0:
                self.negate_row(r)
            p = self.rows[r][c]
            # sweep the column with floor quotients; remainders land in [0, p)
            for r2 in list(self.colrows.get(c, ())):
                if r2 == r:
                    continue
                q = self.rows[r2][c] // p
                self.row_op(r2, r, -q)
            leftovers = [r2 for r2 in self.colrows.get(c, ()) if r2 != r]
            if leftovers:
                r = min(leftovers, key=lambda rr: (self.rows[rr][c], rr))
                continue
            row = self.rows[r]
            for c2 in list(row):
                if c2 == c:
                    continue
                q, v = divmod(row[c2], p)
                if not q:
                    continue
                if v:
                    row[c2] = v
                    self._push(r, c2, v)
                else:
                    del row[c2]
                    self.colrows[c2].discard(r)
                _mirror(self.VT, self.Vinv, c2, c, -q)
            rem = [c2 for c2 in row if c2 != c]
            if rem:
                c = min(rem, key=lambda cc: (row[cc], cc))
                continue
            del self.rows[r], self.colrows[c]
            return r, c, p


def smith_normal_form(
    matrix: SparseMatrix,
    need=("U", "Uinv", "V", "Vinv"),
    divisibility: bool = True,
) -> SmithDecomposition:
    """Full Smith normal form; `need` selects which transforms to track and
    `divisibility=False` skips the invariant-factor chain (rank-only uses).

    With `need` empty the pivot order is unobservable: +-1 entries alone in
    their row or column are split off first (`_Eliminator._peel`, which
    reads `matrix` and copies only the unpeeled core), `diag` starts with
    their 1s, only the core reaches the heap, and no transform is built.
    With transforms every row is copied and the heap takes every pivot, as
    U and V fix the class bases and export.  `matrix` is never modified.
    """
    elim = _Eliminator(matrix, need)
    pivots = []
    while True:
        cell = elim._pop_pivot()
        if cell is None:
            break
        r, c, p = elim.eliminate(*cell)
        pivots.append((r, c, p))
        if (r, c) != cell:
            # the popped cell's heap entry was consumed but the pivot
            # migrated during gcd-chasing; restore its candidacy
            r0, c0 = cell
            v = elim.rows.get(r0, {}).get(c0)
            if v is not None:
                elim._push(r0, c0, v)

    if divisibility:
        _fix_divisibility(elim, pivots)
    diag = [1] * elim.peeled + [p for _, _, p in pivots]
    if not elim.need:
        return SmithDecomposition(matrix.nrows, matrix.ncols, diag)

    row_order = [r for r, _, _ in pivots]
    row_order += sorted(set(range(elim.nrows)) - set(row_order))
    col_order = [c for _, c, _ in pivots]
    col_order += sorted(set(range(elim.ncols)) - set(col_order))

    def permuted(table, order, n, m):
        if table is None:
            return None
        rows = {}
        for i, j in enumerate(order):
            d = table.get(j)
            if d:
                rows[i] = dict(d)
        return SparseMatrix(n, m, rows)

    return SmithDecomposition(
        nrows=matrix.nrows,
        ncols=matrix.ncols,
        diag=diag,
        U=permuted(elim.U, row_order, elim.nrows, elim.nrows),
        UinvT=permuted(elim.UinvT, row_order, elim.nrows, elim.nrows),
        VT=permuted(elim.VT, col_order, elim.ncols, elim.ncols),
        Vinv=permuted(elim.Vinv, col_order, elim.ncols, elim.ncols),
    )


def _fix_divisibility(elim: _Eliminator, pivots: list):
    """Pairwise gcd/lcm repair so that pivots form a divisibility chain.

    A finished pivot's row and column held only the pivot, so a step on pivots
    a at (ri, ci) and b at (rj, cj) is fixed by (a, b) and is recorded on the
    transforms alone: col ci += col cj, rows (x*ri + y*rj, (a*rj - b*ri)/g)
    give diag(g, lcm(a, b)) and a stray y*b at (ri, cj), and col cj -=
    (y*b/g) * col ci clears it."""
    changed = True
    while changed:
        changed = False
        for i in range(len(pivots)):
            ri, ci, a = pivots[i]
            if a == 1:
                continue  # a unit divides every later pivot
            for j in range(i + 1, len(pivots)):
                rj, cj, b = pivots[j]
                if b % a == 0:
                    continue
                changed = True
                x, y, g = xgcd(a, b)
                _mirror(elim.VT, elim.Vinv, ci, cj, 1)
                elim.two_row_op(ri, rj, x, y, -(b // g), a // g)
                _mirror(elim.VT, elim.Vinv, cj, ci, -(y * b // g))
                pivots[i] = (ri, ci, g)
                pivots[j] = (rj, cj, a // g * b)
                a = g


def rank(matrix: SparseMatrix) -> int:
    return smith_normal_form(matrix, need=(), divisibility=False).rank


def invariant_factors(matrix: SparseMatrix) -> list:
    return smith_normal_form(matrix, need=(), divisibility=True).diag
