"""The magnitude cohomology ring: cochain products, classes, presentations.

The product of cochains splits a simplex front/back at the degree of the
first factor: (phi . psi)(x_0..x_{j+k}) = phi(x_0..x_j) psi(x_j..x_{j+k}),
where each factor contributes only when its sub-tuple has the matching
sub-length (the grading kills mismatched splits).  The unit is the all-ones
0-cochain in grade 0.  This product is strictly associative and unital and
satisfies the Leibniz rule, hence descends to cohomology classes.

A RingPresentation is the opaque export consumed by recovery: per-bidegree
basis sizes and torsion orders, sparse structure constants, and the unit
coordinates.  An optional random unimodular change of basis per bidegree
removes every trace of the simplex bases, which keeps the recovery test
honest.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .complexes import realizable_grades
from .homology import AbelianGroup, MagnitudeHomology
from .rationals import format_grade, parse_grade
from .snf import SparseMatrix, smith_normal_form
from .spaces import QuasiMetricSpace


class BidegreeMismatch(ValueError):
    pass


class InvalidPresentation(ValueError):
    """A presentation document that is not a well-formed export."""


@dataclass(frozen=True)
class Cochain:
    k: int
    l: Fraction
    coords: tuple

    def __add__(self, other: "Cochain") -> "Cochain":
        if (self.k, self.l) != (other.k, other.l):
            raise BidegreeMismatch("cochain bidegrees differ")
        return Cochain(self.k, self.l, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def scale(self, c: int) -> "Cochain":
        return Cochain(self.k, self.l, tuple(c * v for v in self.coords))


@dataclass(frozen=True)
class RingClass:
    """A cohomology class in the coordinates of its bidegree's basis."""

    k: int
    l: Fraction
    coords: tuple


@dataclass(frozen=True)
class HomologyClass:
    k: int
    l: Fraction
    coords: tuple


def unit_cochain(engine: MagnitudeHomology) -> Cochain:
    n = len(engine.simplices(0, 0))
    return Cochain(0, Fraction(0), (1,) * n)


def indicator_cochain(engine: MagnitudeHomology, simplex: tuple, l) -> Cochain:
    """The dual-basis cochain of one simplex."""
    k = len(simplex) - 1
    l = Fraction(l)
    idx = engine.index(k, l)[simplex]
    n = len(engine.simplices(k, l))
    coords = [0] * n
    coords[idx] = 1
    return Cochain(k, l, tuple(coords))


def cup_cochain(engine: MagnitudeHomology, phi: Cochain, psi: Cochain) -> Cochain:
    """Front/back product landing in bidegree (k1+k2, l1+l2)."""
    k = phi.k + psi.k
    l = phi.l + psi.l
    front_index = engine.index(phi.k, phi.l)
    back_index = engine.index(psi.k, psi.l)
    space = engine.space
    out = []
    for s in engine.simplices(k, l):
        front = s[: phi.k + 1]
        lf = Fraction(0)
        for a, b in zip(front, front[1:]):
            lf += space.d[a][b].value
        if lf != phi.l:
            out.append(0)
            continue
        back = s[phi.k :]
        out.append(phi.coords[front_index[front]] * psi.coords[back_index[back]])
    return Cochain(k, l, tuple(out))


def coboundary_of(engine: MagnitudeHomology, phi: Cochain) -> Cochain:
    delta = engine.coboundary(phi.k, phi.l)
    return Cochain(phi.k + 1, phi.l, tuple(delta.matvec(list(phi.coords))))


def is_cocycle(engine: MagnitudeHomology, phi: Cochain) -> bool:
    return all(v == 0 for v in coboundary_of(engine, phi).coords)


def class_of(engine: MagnitudeHomology, phi: Cochain) -> RingClass:
    quotient = engine.cohomology_quotient(phi.k, phi.l)
    return RingClass(phi.k, phi.l, quotient.reduce(list(phi.coords)))


def representative(engine: MagnitudeHomology, alpha: RingClass) -> Cochain:
    quotient = engine.cohomology_quotient(alpha.k, alpha.l)
    return Cochain(alpha.k, alpha.l, tuple(quotient.vector_of(alpha.coords)))


def unit_class(engine: MagnitudeHomology) -> RingClass:
    return class_of(engine, unit_cochain(engine))


def class_product(engine: MagnitudeHomology, alpha: RingClass, beta: RingClass) -> RingClass:
    """Lift to cocycles, cup, reduce; the result is closed by the Leibniz rule."""
    engine.check_bidegree(alpha.k + beta.k, alpha.l + beta.l)
    phi = representative(engine, alpha)
    psi = representative(engine, beta)
    return class_of(engine, cup_cochain(engine, phi, psi))


def cycle_class_of(engine: MagnitudeHomology, chain: list, k: int, l) -> HomologyClass:
    quotient = engine.homology_quotient(k, Fraction(l))
    return HomologyClass(k, Fraction(l), quotient.reduce(list(chain)))


def kronecker(engine: MagnitudeHomology, alpha: RingClass, z: HomologyClass) -> int:
    """Evaluation of a representative cocycle on a representative cycle;
    independent of both choices."""
    if (alpha.k, alpha.l) != (z.k, z.l):
        raise BidegreeMismatch(
            f"cohomology bidegree ({alpha.k},{alpha.l}) vs homology ({z.k},{z.l})"
        )
    phi = representative(engine, alpha).coords
    cycle = engine.homology_quotient(z.k, z.l).vector_of(z.coords)
    return sum(a * b for a, b in zip(phi, cycle))


def dual_classes(engine: MagnitudeHomology, cycles: list) -> list:
    """Classes dual (under the Kronecker pairing) to a homology basis.

    `cycles` are HomologyClass values of one torsion-free bidegree whose
    classes form a basis; returns RingClass values with <dual_i, z_j> = d_ij.
    """
    if not cycles:
        return []
    k, l = cycles[0].k, cycles[0].l
    quotient = engine.cohomology_quotient(k, l)
    if quotient.group.torsion:
        raise ValueError("dual basis requires a torsion-free block")
    u = quotient.dim
    if u != len(cycles):
        raise ValueError("cycle count differs from cohomology rank")
    pairing = [
        [
            kronecker(engine, RingClass(k, l, tuple(1 if t == i else 0 for t in range(u))), z)
            for z in cycles
        ]
        for i in range(u)
    ]
    sm = smith_normal_form(SparseMatrix.from_dense(pairing), need=("U", "V"))
    if sm.diag != [1] * u:
        raise ValueError("pairing matrix is not unimodular")
    # P^-1 = V U when U P V = I; dual_j has coordinates row j of P^-1
    pinv = sm.VT.transpose().matmul(sm.U)
    return [
        RingClass(k, l, tuple(pinv.entry(j, i) for i in range(u)))
        for j in range(u)
    ]


# ---------------------------------------------------------------------------
# Ring presentations
# ---------------------------------------------------------------------------

FORMAT_TAG = "magnitude-ring/1"


class RingPresentation:
    """Structure constants of the cohomology ring over opaque bases."""

    def __init__(self, bidegrees, ranks, torsions, unit, table):
        self.bidegrees = list(bidegrees)  # sorted (k, Fraction) pairs
        self.ranks = dict(ranks)  # bidegree -> free rank
        self.torsions = dict(torsions)  # bidegree -> tuple of orders
        self.unit = tuple(unit)  # coordinates in bidegree (0, 0)
        self.table = dict(table)  # (bidegA, bidegB) -> {(i, j): coords tuple}

    def dim(self, bideg) -> int:
        return self.ranks[bideg] + len(self.torsions[bideg])

    def orders(self, bideg) -> list:
        return [0] * self.ranks[bideg] + list(self.torsions[bideg])

    def grades_in_degree(self, k: int) -> list:
        return sorted(l for (kk, l) in self.bidegrees if kk == k)

    def _normalize(self, bideg, vec) -> tuple:
        orders = self.orders(bideg)
        return tuple(v % d if d else v for v, d in zip(vec, orders))

    def mult(self, bideg_a, vec_a, bideg_b, vec_b):
        """Bilinear product; returns (target_bidegree, coords) with None
        coordinates when the target block is trivial or not recorded."""
        target = (bideg_a[0] + bideg_b[0], bideg_a[1] + bideg_b[1])
        pairs = self.table.get((bideg_a, bideg_b))
        if target not in self.ranks:
            return target, None
        acc = [0] * self.dim(target)
        if pairs:
            for (i, j), coords in pairs.items():
                c = vec_a[i] * vec_b[j]
                if c:
                    for t, v in enumerate(coords):
                        acc[t] += c * v
        return target, list(self._normalize(target, acc))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        bidegrees = [
            {
                "k": k,
                "l": format_grade(l),
                "rank": self.ranks[(k, l)],
                "torsion": list(self.torsions[(k, l)]),
            }
            for (k, l) in self.bidegrees
        ]
        products = []
        for (ba, bb) in sorted(self.table):
            for (i, j) in sorted(self.table[(ba, bb)]):
                coords = self.table[(ba, bb)][(i, j)]
                if any(coords):
                    products.append(
                        [
                            [ba[0], format_grade(ba[1]), i],
                            [bb[0], format_grade(bb[1]), j],
                            [ba[0] + bb[0], format_grade(ba[1] + bb[1])],
                            list(coords),
                        ]
                    )
        doc = {
            "format": FORMAT_TAG,
            "bidegrees": bidegrees,
            "unit": list(self.unit),
            "products": products,
        }
        return json.dumps(doc, indent=1, sort_keys=True) + "\n"

    @staticmethod
    def from_json(text: str) -> "RingPresentation":
        """Parse and validate a document in one pass over it; anything that is
        not a well-formed export raises InvalidPresentation.  Products name
        bidegrees by the same (k, l) values the bidegree entries declare."""
        doc = json.loads(text)
        tag = doc.get("format") if isinstance(doc, dict) else None
        _require(tag == FORMAT_TAG, "presentation", f"unrecognized format {tag!r}")
        for field in ("bidegrees", "unit", "products"):
            _require(isinstance(doc.get(field), list), f"field {field!r}", "missing or not a list")
        ranks, torsions, dims, declared = {}, {}, {}, {}
        for n, item in enumerate(doc["bidegrees"]):
            where = f"bidegree entry {n}"
            _require(isinstance(item, dict), where, "not an object")
            k, l, rank, torsion = (item.get(key) for key in ("k", "l", "rank", "torsion"))
            _require(
                _is_count(k) and isinstance(l, str) and _is_count(rank) and _is_int_list(torsion),
                where, "needs integers k and rank, a grade string l and a torsion list",
            )
            try:
                bideg = (k, parse_grade(l))
                AbelianGroup(rank, tuple(torsion))
            except ValueError as exc:
                raise InvalidPresentation(f"{where}: {exc}") from None
            _require(bideg not in dims, where, "duplicates an earlier bidegree")
            declared[k, l] = bideg
            ranks[bideg], torsions[bideg], dims[bideg] = rank, tuple(torsion), rank + len(torsion)
        unit = doc["unit"]
        _require(
            _is_int_list(unit) and len(unit) == dims.get((0, Fraction(0)), 0),
            "unit", "not an integer list as long as dim(0, 0)",
        )
        table = {}
        for n, product in enumerate(doc["products"]):
            where = f"product {n}"
            try:
                (ka, la, i), (kb, lb, j), (kt, lt), coords = product
                ba, bb, bt = declared[ka, la], declared[kb, lb], declared[kt, lt]
            except (KeyError, TypeError, ValueError):
                raise InvalidPresentation(f"{where}: malformed or undeclared bidegree") from None
            _require(
                _is_count(i) and i < dims[ba] and _is_count(j) and j < dims[bb],
                where, "index out of range",
            )
            _require(bt == (ba[0] + bb[0], ba[1] + bb[1]), where, "target is not the sum")
            _require(
                _is_int_list(coords) and len(coords) == dims[bt],
                where, "coordinates do not match the target's dimension",
            )
            table.setdefault((ba, bb), {})[(i, j)] = tuple(coords)
        return RingPresentation(sorted(ranks), ranks, torsions, unit, table)


def _require(ok: bool, where: str, problem: str) -> None:
    if not ok:
        raise InvalidPresentation(f"{where}: {problem}")


def _is_count(x) -> bool:
    return type(x) is int and x >= 0


def _is_int_list(x) -> bool:
    return type(x) is list and all(type(v) is int for v in x)


def random_unimodular(n: int, rng: random.Random):
    """A unimodular matrix and its inverse, built from ~3n random integer
    elementary row operations with coefficients in {-2,...,2}."""
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    tinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n < 2:
        return t, tinv
    for _ in range(3 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for col in range(n):
            t[i][col] += c * t[j][col]
        # (R T)^-1 = T^-1 R^-1: column op on the inverse
        for row in range(n):
            tinv[row][j] -= c * tinv[row][i]
    return t, tinv


def _transform_coords(bideg, coords, tinv, rank):
    """Move engine coordinates into the scrambled basis: the free block is
    multiplied by T^-1, torsion coordinates pass through."""
    free = [sum(tinv[i][j] * coords[j] for j in range(rank)) for i in range(rank)]
    return tuple(free) + tuple(coords[rank:])


def export_presentation(
    space: QuasiMetricSpace,
    kmax: int,
    lmax,
    scramble_seed=None,
) -> RingPresentation:
    """Structure constants of MH over all bidegrees k <= kmax, l <= lmax.

    With a scramble seed, each bidegree's free generators undergo an
    independent random unimodular change of basis so the export carries no
    residue of the simplex bases.  Pseudo spaces are refused (ZeroDistance).
    """
    lmax = Fraction(lmax)
    if space.n == 0:
        return RingPresentation([], {}, {}, (), {})
    grades = realizable_grades(space, lmax)
    engine = MagnitudeHomology(space, kmax=kmax, lmax=lmax)
    quotients = {}
    for l in grades:
        top = min(kmax, engine.degree_bound(l)) if space.n else -1
        for k in range(0, top + 1):
            q = engine.cohomology_quotient(k, l)
            if q.dim > 0:
                quotients[(k, l)] = q
    bidegrees = sorted(quotients)
    rng = random.Random(scramble_seed) if scramble_seed is not None else None
    transforms = {}
    for bideg in bidegrees:
        r = quotients[bideg].group.rank
        if rng is None:
            t = tinv = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        else:
            t, tinv = random_unimodular(r, rng)
        transforms[bideg] = (t, tinv)

    ranks = {b: quotients[b].group.rank for b in bidegrees}
    torsions = {b: quotients[b].group.torsion for b in bidegrees}

    def scrambled_engine_coords(bideg, i):
        """Engine coordinates of the i-th scrambled basis element."""
        q = quotients[bideg]
        r = q.group.rank
        t = transforms[bideg][0]
        if i < r:
            return [t[s][i] for s in range(r)] + [0] * len(q.group.torsion)
        return [0] * r + [1 if r + s == i else 0 for s in range(len(q.group.torsion))]

    unit_coords = quotients[(0, Fraction(0))].reduce(
        list(unit_cochain(engine).coords)
    )
    unit = _transform_coords(
        (0, Fraction(0)), unit_coords, transforms[(0, Fraction(0))][1],
        ranks[(0, Fraction(0))],
    )

    table = {}
    for ba in bidegrees:
        for bb in bidegrees:
            target = (ba[0] + bb[0], ba[1] + bb[1])
            if target[0] > kmax or target[1] > lmax:
                continue
            if target not in quotients:
                continue  # trivial target: all products are zero
            qa, qb, qt = quotients[ba], quotients[bb], quotients[target]
            pairs = {}
            for i in range(qa.dim):
                phi = Cochain(ba[0], ba[1], tuple(qa.vector_of(scrambled_engine_coords(ba, i))))
                for j in range(qb.dim):
                    psi = Cochain(bb[0], bb[1], tuple(qb.vector_of(scrambled_engine_coords(bb, j))))
                    prod = qt.reduce(list(cup_cochain(engine, phi, psi).coords))
                    coords = _transform_coords(
                        target, prod, transforms[target][1], ranks[target]
                    )
                    if any(coords):
                        pairs[(i, j)] = coords
            if pairs:
                table[(ba, bb)] = pairs

    return RingPresentation(bidegrees, ranks, torsions, unit, table)
