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
from .spaces import InputError, QuasiMetricSpace


class BidegreeMismatch(ValueError):
    pass


class InvalidPresentation(InputError):
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
    return Cochain(0, 0, (1,) * n)


def indicator_cochain(engine: MagnitudeHomology, simplex: tuple, l) -> Cochain:
    """The dual-basis cochain of one simplex."""
    k = len(simplex) - 1
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
            lf += space.d[a][b]
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


def class_product(engine: MagnitudeHomology, alpha: RingClass, beta: RingClass) -> RingClass:
    """Lift to cocycles, cup, reduce; the result is closed by the Leibniz rule."""
    engine.check_bidegree(alpha.k + beta.k, alpha.l + beta.l)
    phi = representative(engine, alpha)
    psi = representative(engine, beta)
    return class_of(engine, cup_cochain(engine, phi, psi))


def cycle_class_of(engine: MagnitudeHomology, chain: list, k: int, l) -> HomologyClass:
    quotient = engine.homology_quotient(k, l)
    return HomologyClass(k, l, quotient.reduce(list(chain)))


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
        self._pairs = {}  # (bidegA, bidegB) -> (target, its orders or None, table)

    def dim(self, bideg) -> int:
        return self.ranks[bideg] + len(self.torsions[bideg])

    def orders(self, bideg) -> list:
        return [0] * self.ranks[bideg] + list(self.torsions[bideg])

    def grades_in_degree(self, k: int) -> list:
        return sorted(l for (kk, l) in self.bidegrees if kk == k)

    def mult(self, bideg_a, vec_a, bideg_b, vec_b):
        """Bilinear product, summed over the supports of the two factors;
        returns (target_bidegree, coords) with None coordinates when the
        target block is trivial or not recorded.  The target, its orders and
        the pair's table are looked up once per pair of bidegrees."""
        key = (bideg_a, bideg_b)
        pair = self._pairs.get(key)
        if pair is None:
            target = (bideg_a[0] + bideg_b[0], bideg_a[1] + bideg_b[1])
            orders = self.orders(target) if target in self.ranks else None
            pair = self._pairs[key] = (target, orders, self.table.get(key))
        target, orders, pairs = pair
        if orders is None:
            return target, None
        acc = [0] * len(orders)
        if pairs:
            support_b = [(j, b) for j, b in enumerate(vec_b) if b]
            for i, a in enumerate(vec_a):
                if not a:
                    continue
                for j, b in support_b:
                    coords = pairs.get((i, j))
                    if coords:
                        c = a * b
                        for t, v in enumerate(coords):
                            acc[t] += c * v
        return target, [v % d if d else v for v, d in zip(acc, orders)]

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        """The bytes of json.dumps(doc, indent=1, sort_keys=True) + "\n" for
        the export document, rendered one product at a time: every product
        of a pair of bidegrees fills the same template with i, j and its
        coordinates, so no general encoder walks the products."""
        bidegrees = (
            f'{{\n   "k": {k},\n   "l": "{format_grade(l)}",\n   "rank": {self.ranks[k, l]},\n'
            f'   "torsion": {_layout(map(str, self.torsions[k, l]), 3)}\n  }}'
            for (k, l) in self.bidegrees
        )
        return (
            f'{{\n "bidegrees": {_layout(bidegrees, 1)},\n "format": "{FORMAT_TAG}",\n'
            f' "products": {_layout(self._rendered_products(), 1)},\n'
            f' "unit": {_layout(map(str, self.unit), 1)}\n}}\n'
        )

    def _rendered_products(self):
        """The nonzero products in sorted order, each rendered at depth 2."""
        for (ba, bb) in sorted(self.table):
            la, lb, lt = format_grade(ba[1]), format_grade(bb[1]), format_grade(ba[1] + bb[1])
            template = _layout(
                [
                    _layout([str(ba[0]), f'"{la}"', "{i}"], 3),
                    _layout([str(bb[0]), f'"{lb}"', "{j}"], 3),
                    _layout([str(ba[0] + bb[0]), f'"{lt}"'], 3),
                    "{coords}",
                ],
                2,
            )
            pairs = self.table[ba, bb]
            for (i, j) in sorted(pairs):
                coords = pairs[i, j]
                if any(coords):
                    yield template.format(i=i, j=j, coords=_layout(map(str, coords), 3))

    @staticmethod
    def from_json(text: str) -> "RingPresentation":
        """Parse and validate a document in one pass over it; anything that is
        not a well-formed export raises InvalidPresentation.  Products name
        bidegrees by the same (k, l) values the bidegree entries declare, with
        every k an int; the lookups, dimensions and target of each distinct
        product key are checked once, and a product that repeats an earlier
        (i, j) of the same pair of bidegrees is refused."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise InvalidPresentation(exc) from None
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
            _is_int_list(unit) and len(unit) == dims.get((0, 0), 0),
            "unit", "not an integer list as long as dim(0, 0)",
        )
        table, keys = {}, {}
        for n, product in enumerate(doc["products"]):
            where = f"product {n}"
            try:
                (ka, la, i), (kb, lb, j), (kt, lt), coords = product
                if not type(ka) is type(kb) is type(kt) is int:  # 1.0 and True hash as 1
                    raise TypeError
                key = (ka, la, kb, lb, kt, lt)
                block = keys.get(key)
                if block is None:
                    ba, bb, bt = declared[ka, la], declared[kb, lb], declared[kt, lt]
                    block = keys[key] = (
                        dims[ba], dims[bb], dims[bt],
                        bt == (ba[0] + bb[0], ba[1] + bb[1]),
                        table.setdefault((ba, bb), {}),
                    )
            except (KeyError, TypeError, ValueError):
                raise InvalidPresentation(f"{where}: malformed or undeclared bidegree") from None
            da, db, dt, is_sum, pairs = block
            _require(
                _is_count(i) and i < da and _is_count(j) and j < db, where, "index out of range"
            )
            _require(is_sum, where, "target is not the sum")
            _require(
                _is_int_list(coords) and len(coords) == dt,
                where, "coordinates do not match the target's dimension",
            )
            _require((i, j) not in pairs, where, "repeats an earlier product")
            pairs[i, j] = tuple(coords)
        return RingPresentation(sorted(ranks), ranks, torsions, unit, table)


def _layout(items, depth: int) -> str:
    """Rendered items as one JSON array, laid out as json.dumps(indent=1)
    lays it out when its opening bracket sits at this nesting depth."""
    pad = "\n" + " " * (depth + 1)
    body = ("," + pad).join(items)
    return f"[{pad}{body}\n{' ' * depth}]" if body else "[]"


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


def export_presentation(
    space: QuasiMetricSpace,
    kmax: int,
    lmax,
    scramble_seed=None,
) -> RingPresentation:
    """Structure constants of MH over all bidegrees k <= kmax, l <= lmax.

    With a scramble seed, each bidegree's free generators undergo an
    independent random unimodular change of basis so the export carries no
    residue of the simplex bases.  Each scrambled basis class is lifted
    once (representative).  Each bidegree is resolved once, to its quotient
    and one sparse map composing the quotient's class coordinates with
    T^-1; the unit and every product are read through that map, so a product
    is the cup, the kernel test, one matvec and the torsion reduction.
    """
    if space.n == 0:
        return RingPresentation([], {}, {}, (), {})
    engine = MagnitudeHomology(space, kmax=kmax, lmax=lmax)
    groups = {}
    for l in realizable_grades(space, lmax):
        for k in range(min(kmax, engine.degree_bound(l)) + 1):
            group = engine.cohomology_quotient(k, l).group
            if not group.is_trivial:
                groups[(k, l)] = group
    bidegrees = sorted(groups)
    rng = random.Random(scramble_seed) if scramble_seed is not None else None

    basis, targets = {}, {}
    for (k, l) in bidegrees:  # sorted order fixes which draws each scramble takes
        r, nt = groups[k, l].rank, len(groups[k, l].torsion)
        if rng is None:
            t = tinv = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
        else:
            t, tinv = random_unimodular(r, rng)
        # scrambled generator i: column i of T, then the torsion generators
        gens = [[t[s][i] for s in range(r)] + [0] * nt for i in range(r)]
        gens += [[0] * r + [1 if s == i else 0 for s in range(nt)] for i in range(nt)]
        basis[k, l] = [representative(engine, RingClass(k, l, tuple(g))) for g in gens]
        # class coordinates in the scrambled basis: the quotient's coordinate
        # map followed by T^-1 on the free coordinates, the identity on the
        # torsion ones
        scramble = SparseMatrix.from_dense([row + [0] * nt for row in tinv] + gens[r:])
        quotient = engine.cohomology_quotient(k, l)
        targets[k, l] = (quotient, scramble.matmul(quotient.coordinates), quotient.orders)

    unit = targets[0, 0][1].matvec(unit_cochain(engine).coords)
    table = {}
    for ba in bidegrees:
        for bb in bidegrees:
            target = targets.get((ba[0] + bb[0], ba[1] + bb[1]))
            if target is None:
                continue  # trivial or truncated target: all products are zero
            quotient, to_coords, orders = target
            pairs = {}
            for i, phi in enumerate(basis[ba]):
                for j, psi in enumerate(basis[bb]):
                    cochain = cup_cochain(engine, phi, psi).coords
                    quotient.require_kernel(cochain)
                    coords = tuple(
                        c % d if d else c for c, d in zip(to_coords.matvec(cochain), orders)
                    )
                    if any(coords):
                        pairs[(i, j)] = coords
            if pairs:
                table[(ba, bb)] = pairs

    ranks = {b: groups[b].rank for b in bidegrees}
    torsions = {b: groups[b].torsion for b in bidegrees}
    return RingPresentation(bidegrees, ranks, torsions, unit, table)
