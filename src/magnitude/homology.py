"""Exact integer (co)homology of magnitude chain blocks via Smith normal form.

Each grade l gives an independent chain complex of free abelian groups; the
engine computes blocks lazily per (k, l) and never needs more than the
boundaries at k and k+1 for a degree-k group.  Homology groups are reported
as rank plus invariant-factor torsion; cohomology additionally carries an
explicit coordinate system (cocycle representatives and a reduction map) so
that ring operations can work with classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import complexes
from .snf import SparseMatrix, dot, smith_normal_form
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

    A is the outgoing map on Z^n (None meaning zero, so the kernel is all of
    Z^n) and B the incoming map whose image is divided out.  Coordinates list
    the free classes first, then the torsion classes; torsion coordinates are
    reduced modulo their orders.
    """

    def __init__(self, A, B: SparseMatrix, n: int):
        self.n = n
        if A is None or A.is_zero():
            self._snf_a = None
            self._rank_a = 0
            bk = B
        else:
            self._snf_a = smith_normal_form(A, need=("V", "Vinv"), divisibility=False)
            self._rank_a = ra = self._snf_a.rank
            # kernel coordinates of every column of B at once
            w = self._snf_a.Vinv.matmul(B)
            if any(r < ra for r in w.rows):
                raise ValueError("vector is not in the kernel")
            bk = SparseMatrix(n - ra, B.ncols, {r - ra: d for r, d in w.rows.items()})
        self._snf_b = smith_normal_form(bk, need=("U", "Uinv"), divisibility=True)
        rb = self._snf_b.rank
        diag = self._snf_b.diag
        self._free_positions = list(range(rb, n - self._rank_a))
        self._torsion_positions = [p for p in range(rb) if diag[p] >= 2]
        self.orders = [0] * len(self._free_positions) + [
            diag[p] for p in self._torsion_positions
        ]
        self.group = AbelianGroup(len(self._free_positions), _torsion_of(diag))

    @property
    def dim(self) -> int:
        """Number of coordinates (free + torsion)."""
        return len(self.orders)

    def _kernel_coords(self, vec: list) -> list:
        if self._snf_a is None:
            return list(vec)
        w = self._snf_a.Vinv.matvec(vec)
        for i in range(self._rank_a):
            if w[i] != 0:
                raise ValueError("vector is not in the kernel")
        return w[self._rank_a :]

    def reduce(self, vec: list) -> tuple:
        """Class coordinates of a kernel vector (free part, then torsion)."""
        w = self._kernel_coords(vec)
        u = self._snf_b.U
        out = []
        for p in self._free_positions:
            out.append(dot(u.rows.get(p, {}), w))
        diag = self._snf_b.diag
        for p in self._torsion_positions:
            out.append(dot(u.rows.get(p, {}), w) % diag[p])
        return tuple(out)

    def representative(self, i: int) -> list:
        """An ambient vector representing the i-th coordinate class."""
        positions = self._free_positions + self._torsion_positions
        p = positions[i]
        u = self._snf_b.UinvT.rows.get(p, {})
        vec = [0] * self.n
        if self._snf_a is None:
            for q, v in u.items():
                vec[q] = v
            return vec
        vt = self._snf_a.VT
        for q, v in u.items():
            for r, w in vt.rows.get(self._rank_a + q, {}).items():
                vec[r] += v * w
        return vec

    def vector_of(self, coords) -> list:
        """Ambient representative of a class given by coordinates."""
        vec = [0] * self.n
        for i, c in enumerate(coords):
            if c:
                rep = self.representative(i)
                for r in range(self.n):
                    vec[r] += c * rep[r]
        return vec

    def is_zero_class(self, vec: list) -> bool:
        return all(c == 0 for c in self.reduce(vec))


class BlockComplex:
    """A chain complex of finitely generated free abelian groups, lazily
    built per degree from a basis rule and a boundary rule."""

    def __init__(self):
        self._bases = {}
        self._indexes = {}
        self._boundaries = {}
        self._factors = {}
        self._quotients = {}

    # subclasses provide these two
    def _simplices(self, k: int) -> list:
        raise NotImplementedError

    def _boundary_matrix(self, k: int) -> SparseMatrix:
        raise NotImplementedError

    def basis(self, k: int) -> list:
        if k not in self._bases:
            self._bases[k] = self._simplices(k) if k >= 0 else []
        return self._bases[k]

    def index(self, k: int) -> dict:
        if k not in self._indexes:
            self._indexes[k] = {s: i for i, s in enumerate(self.basis(k))}
        return self._indexes[k]

    def boundary(self, k: int) -> SparseMatrix:
        """The differential C_k -> C_{k-1}; zero map for k <= 0."""
        if k not in self._boundaries:
            if k <= 0:
                self._boundaries[k] = SparseMatrix(0, len(self.basis(k)))
            else:
                self._boundaries[k] = self._boundary_matrix(k)
        return self._boundaries[k]

    def coboundary(self, k: int) -> SparseMatrix:
        """The dual differential on cochains in degree k, i.e. boundary(k+1)
        transposed."""
        return self.boundary(k + 1).transpose()

    def _invariant_factors(self, key, matrix_fn) -> tuple:
        """Invariant factors of one matrix, reduced once per key; a rank is
        their count."""
        if key not in self._factors:
            self._factors[key] = tuple(
                smith_normal_form(matrix_fn(), need=(), divisibility=True).diag
            )
        return self._factors[key]

    def homology(self, k: int) -> AbelianGroup:
        nk = len(self.basis(k))
        r_out = len(self._invariant_factors(("d", k), lambda: self.boundary(k)))
        factors_in = self._invariant_factors(("d", k + 1), lambda: self.boundary(k + 1))
        return AbelianGroup(nk - r_out - len(factors_in), _torsion_of(factors_in))

    def cohomology(self, k: int) -> AbelianGroup:
        """Computed from the coboundary side (transposed matrices), so the
        universal-coefficient comparison against homology() is a real check."""
        nk = len(self.basis(k))
        r_out = len(self._invariant_factors(("dt", k), lambda: self.coboundary(k)))
        factors_in = self._invariant_factors(("dt", k - 1), lambda: self.coboundary(k - 1))
        return AbelianGroup(nk - r_out - len(factors_in), _torsion_of(factors_in))

    def homology_quotient(self, k: int) -> LatticeQuotient:
        key = ("hq", k)
        if key not in self._quotients:
            self._quotients[key] = LatticeQuotient(
                self.boundary(k), self.boundary(k + 1), len(self.basis(k))
            )
        return self._quotients[key]

    def cohomology_quotient(self, k: int) -> LatticeQuotient:
        key = ("cq", k)
        if key not in self._quotients:
            self._quotients[key] = LatticeQuotient(
                self.coboundary(k), self.coboundary(k - 1), len(self.basis(k))
            )
        return self._quotients[key]

    def uct_check(self, k: int) -> bool:
        """rank MH^k = rank MH_k and torsion MH^k = torsion MH_{k-1}."""
        hk = self.homology(k)
        ck = self.cohomology(k)
        lower_torsion = self.homology(k - 1).torsion if k >= 1 else ()
        return ck.rank == hk.rank and ck.torsion == lower_torsion


class MagnitudeSlice(BlockComplex):
    """The magnitude chain complex of one grade l."""

    def __init__(self, space: QuasiMetricSpace, l: Fraction):
        super().__init__()
        self.space = space
        self.l = Fraction(l)

    def _simplices(self, k: int) -> list:
        return complexes.enumerate_simplices(self.space, k, self.l)

    def _boundary_matrix(self, k: int) -> SparseMatrix:
        return complexes.boundary_matrix(
            self.space, k, self.l, self.basis(k), self.index(k - 1)
        )


class MagnitudeHomology:
    """Lazy per-grade engine for one space, with optional hard truncation."""

    def __init__(self, space: QuasiMetricSpace, kmax=None, lmax=None):
        self.space = space
        self.kmax = kmax
        self.lmax = Fraction(lmax) if lmax is not None else None
        self._slices = {}

    def check_bidegree(self, k: int, l) -> None:
        l = Fraction(l)
        if (self.kmax is not None and k > self.kmax) or (
            self.lmax is not None and l > self.lmax
        ):
            raise MissingBlock(f"bidegree ({k}, {l}) outside truncation")

    def slice(self, l) -> MagnitudeSlice:
        l = Fraction(l)
        if l not in self._slices:
            self._slices[l] = MagnitudeSlice(self.space, l)
        return self._slices[l]

    def simplices(self, k: int, l) -> list:
        return self.slice(l).basis(k)

    def index(self, k: int, l) -> dict:
        return self.slice(l).index(k)

    def boundary(self, k: int, l) -> SparseMatrix:
        return self.slice(l).boundary(k)

    def coboundary(self, k: int, l) -> SparseMatrix:
        return self.slice(l).coboundary(k)

    def homology(self, k: int, l) -> AbelianGroup:
        return self.slice(l).homology(k)

    def cohomology(self, k: int, l) -> AbelianGroup:
        return self.slice(l).cohomology(k)

    def homology_quotient(self, k: int, l) -> LatticeQuotient:
        return self.slice(l).homology_quotient(k)

    def cohomology_quotient(self, k: int, l) -> LatticeQuotient:
        return self.slice(l).cohomology_quotient(k)

    def uct_check(self, k: int, l) -> bool:
        return self.slice(l).uct_check(k)

    def degree_bound(self, l) -> int:
        """Largest degree that can carry simplices in grade l (positive-min
        spaces only; k <= l / min positive distance)."""
        l = Fraction(l)
        space = self.space
        if space.n <= 1 or l == 0:
            return 0
        space.require_positive()
        if space.min_step is None:
            return 0
        return int(l * space.den / space.min_step)


def homology(space: QuasiMetricSpace, k: int, l) -> AbelianGroup:
    return MagnitudeHomology(space).homology(k, l)


def cohomology(space: QuasiMetricSpace, k: int, l):
    """Group together with its explicit cocycle coordinate system."""
    engine = MagnitudeHomology(space)
    quotient = engine.cohomology_quotient(k, l)
    return quotient.group, quotient


def uct_check(space: QuasiMetricSpace, k: int, l) -> bool:
    return MagnitudeHomology(space).uct_check(k, l)
