"""Exact integer (co)homology of magnitude chain blocks via Smith normal form.

Each grade l gives an independent chain complex of free abelian groups.  A
BlockComplex addresses its blocks by (k, *g), g being the grading that the
differential keeps (l for magnitude chains, nothing for an order complex).
A degree-k group needs only the invariant factors of the boundaries at k
and k+1, so one cache keeps bases, indices, factors and quotients, and a
boundary matrix is assembled where it is reduced and dropped once its
factors or quotient exist.  Homology groups are reported
as rank plus invariant-factor torsion; cohomology additionally carries an
explicit coordinate system so that ring operations can work with classes.
Each LatticeQuotient composes its two Smith forms once into two sparse maps,
class coordinates of a kernel vector and the representative of each class,
plus a kernel test from the outgoing map; no Smith form outlives the
constructor.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import complexes
from .snf import SparseMatrix, smith_normal_form
from .spaces import QuasiMetricSpace


class MissingBlock(LookupError):
    """A bidegree outside the engine's configured truncation."""


@dataclass(frozen=True)
class AbelianGroup:
    """rank + torsion coefficients (each >= 2, each dividing the next)."""

    rank: int
    torsion: tuple = ()

    def __post_init__(self):
        for t in self.torsion:
            if t < 2:
                raise ValueError(f"torsion coefficient {t} < 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"torsion {self.torsion} violates divisibility")

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def __str__(self):
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"


def _torsion_of(diag) -> tuple:
    return tuple(d for d in diag if d >= 2)


class LatticeQuotient:
    """Canonical coordinates on ker(A)/im(B) inside Z^n.

    A is the outgoing map on Z^n (a zero map, of any row count, makes the
    kernel all of Z^n) and B the incoming map whose image is divided out.
    Coordinates list the free classes first, then the torsion classes;
    torsion coordinates are reduced modulo their orders.

    The two Smith forms are composed once into two sparse dim x n maps and
    then dropped: `coordinates` (row i reads class coordinate i off a kernel
    vector) and `lift` (row i is the representative of class i).  The rows of
    V^-1 below the rank of A are the kernel test, applied to B's columns here
    and to every vector given to reduce.
    """

    def __init__(self, A: SparseMatrix, B: SparseMatrix, n: int):
        self.n = n
        if A.is_zero():
            ra = 0
            self._kernel_test = SparseMatrix(0, n)
            to_kernel = from_kernel = SparseMatrix.identity(n)
        else:
            snf_a = smith_normal_form(A, need=("V", "Vinv"), divisibility=False)
            ra = snf_a.rank
            self._kernel_test = _row_block(snf_a.Vinv, range(ra))
            to_kernel = _row_block(snf_a.Vinv, range(ra, n))
            from_kernel = _row_block(snf_a.VT, range(ra, n))
        if not self._kernel_test.matmul(B).is_zero():
            raise ValueError("vector is not in the kernel")
        snf_b = smith_normal_form(to_kernel.matmul(B), need=("U", "Uinv"), divisibility=True)
        rb, diag = snf_b.rank, snf_b.diag
        torsion = [p for p in range(rb) if diag[p] >= 2]
        positions = list(range(rb, n - ra)) + torsion
        self.orders = [0] * (n - ra - rb) + [diag[p] for p in torsion]
        self.group = AbelianGroup(n - ra - rb, _torsion_of(diag))
        self.coordinates = _row_block(snf_b.U, positions).matmul(to_kernel)
        self.lift = _row_block(snf_b.UinvT, positions).matmul(from_kernel)

    @property
    def dim(self) -> int:
        """Number of coordinates (free + torsion)."""
        return len(self.orders)

    def require_kernel(self, vec) -> None:
        """ValueError unless the vector is in the kernel of the outgoing map."""
        if any(self._kernel_test.matvec(vec)):
            raise ValueError("vector is not in the kernel")

    def reduce(self, vec: list) -> tuple:
        """Class coordinates of a kernel vector (free part, then torsion)."""
        self.require_kernel(vec)
        coords = self.coordinates.matvec(vec)
        return tuple(c % d if d else c for c, d in zip(coords, self.orders))

    def representative(self, i: int) -> list:
        """An ambient vector representing the i-th coordinate class."""
        return self.vector_of([1 if t == i else 0 for t in range(self.dim)])

    def vector_of(self, coords) -> list:
        """Ambient representative of a class given by coordinates: the
        combination of the lift rows."""
        vec = [0] * self.n
        for i, c in enumerate(coords):
            if c:
                for q, v in self.lift.rows.get(i, {}).items():
                    vec[q] += c * v
        return vec


def _row_block(matrix: SparseMatrix, rows) -> SparseMatrix:
    """The listed rows of a matrix, renumbered from 0."""
    picked = {i: matrix.rows[r] for i, r in enumerate(rows) if r in matrix.rows}
    return SparseMatrix(len(rows), matrix.ncols, picked)


class BlockComplex:
    """A chain complex of finitely generated free abelian groups, built
    lazily block by block from a basis rule and a boundary rule.

    A block is addressed by its degree k and the grading g that the
    differential keeps: none for an order complex, the length l for
    magnitude chains.  Every method takes (k, *g), and one cache holds each
    block's basis, index, invariant factors and quotients under the key
    (kind, k, *g), each filled through _cached; boundary matrices are built
    on each call, never kept."""

    def __init__(self):
        self._cache = {}

    # subclasses provide these two
    def _simplices(self, k: int, *g) -> list:
        raise NotImplementedError

    def _boundary_matrix(self, k: int, *g) -> SparseMatrix:
        raise NotImplementedError

    def _cached(self, key, build):
        """The value under key, built once by build()."""
        found = self._cache.get(key)
        if found is None:
            found = self._cache[key] = build()
        return found

    def simplices(self, k: int, *g) -> list:
        return self._cached(
            ("simplices", k, *g), lambda: self._simplices(k, *g) if k >= 0 else []
        )

    def index(self, k: int, *g) -> dict:
        return self._cached(
            ("index", k, *g), lambda: {s: i for i, s in enumerate(self.simplices(k, *g))}
        )

    def boundary(self, k: int, *g) -> SparseMatrix:
        """The differential C_k -> C_{k-1}, zero for k <= 0, assembled anew on
        each call."""
        if k > 0:
            return self._boundary_matrix(k, *g)
        return SparseMatrix(0, len(self.simplices(k, *g)))

    def coboundary(self, k: int, *g) -> SparseMatrix:
        """The dual differential on cochains in degree k, i.e. boundary(k+1)
        transposed."""
        return self.boundary(k + 1, *g).transpose()

    def _invariant_factors(self, kind: str, k: int, *g) -> tuple:
        """Invariant factors of boundary(k) ("d") or coboundary(k) ("dt"),
        reduced once per key; a rank is their count."""
        matrix = self.boundary if kind == "d" else self.coboundary
        return self._cached((kind, k, *g), lambda: tuple(
            smith_normal_form(matrix(k, *g), need=(), divisibility=True).diag
        ))

    def homology(self, k: int, *g) -> AbelianGroup:
        nk = len(self.simplices(k, *g))
        r_out = len(self._invariant_factors("d", k, *g))
        factors_in = self._invariant_factors("d", k + 1, *g)
        return AbelianGroup(nk - r_out - len(factors_in), _torsion_of(factors_in))

    def cohomology(self, k: int, *g) -> AbelianGroup:
        """Computed from the coboundary side (transposed matrices), so the
        universal-coefficient comparison against homology() is a real check."""
        nk = len(self.simplices(k, *g))
        r_out = len(self._invariant_factors("dt", k, *g))
        factors_in = self._invariant_factors("dt", k - 1, *g)
        return AbelianGroup(nk - r_out - len(factors_in), _torsion_of(factors_in))

    def homology_quotient(self, k: int, *g) -> LatticeQuotient:
        return self._cached(("hq", k, *g), lambda: LatticeQuotient(
            self.boundary(k, *g), self.boundary(k + 1, *g), len(self.simplices(k, *g))
        ))

    def cohomology_quotient(self, k: int, *g) -> LatticeQuotient:
        return self._cached(("cq", k, *g), lambda: LatticeQuotient(
            self.coboundary(k, *g), self.coboundary(k - 1, *g), len(self.simplices(k, *g))
        ))

    def uct_check(self, k: int, *g) -> bool:
        """rank MH^k = rank MH_k and torsion MH^k = torsion MH_{k-1}."""
        hk = self.homology(k, *g)
        ck = self.cohomology(k, *g)
        lower_torsion = self.homology(k - 1, *g).torsion if k >= 1 else ()
        return ck.rank == hk.rank and ck.torsion == lower_torsion


class MagnitudeHomology(BlockComplex):
    """The magnitude chain complex of one space, a block per degree k and
    grade l, with optional hard truncation.  A grade is taken as given, an
    int or a Fraction: numerically equal grades (2, Fraction(4, 2)) hash
    alike and so name one block, and the space's grade_units is the one
    place where a grade becomes units."""

    def __init__(self, space: QuasiMetricSpace, kmax=None, lmax=None):
        super().__init__()
        self.space = space
        self.kmax = kmax
        self.lmax = lmax

    def check_bidegree(self, k: int, l) -> None:
        if (self.kmax is not None and k > self.kmax) or (
            self.lmax is not None and l > self.lmax
        ):
            raise MissingBlock(f"bidegree ({k}, {l}) outside truncation")

    def _simplices(self, k: int, l) -> list:
        return complexes.enumerate_simplices(self.space, k, l)

    def _boundary_matrix(self, k: int, l) -> SparseMatrix:
        return complexes.boundary_matrix(
            self.space, k, l, self.simplices(k, l), self.index(k - 1, l)
        )

    def degree_bound(self, l) -> int:
        """Largest degree that can carry simplices in grade l: k <= l / the
        least distance between distinct points (0 when no pair is finite)."""
        space = self.space
        if space.min_step is None:
            return 0
        return int(l * space.den // space.min_step)


def homology(space: QuasiMetricSpace, k: int, l) -> AbelianGroup:
    return MagnitudeHomology(space).homology(k, l)


def cohomology(space: QuasiMetricSpace, k: int, l):
    """Group together with its explicit cocycle coordinate system."""
    engine = MagnitudeHomology(space)
    quotient = engine.cohomology_quotient(k, l)
    return quotient.group, quotient


def uct_check(space: QuasiMetricSpace, k: int, l) -> bool:
    return MagnitudeHomology(space).uct_check(k, l)
