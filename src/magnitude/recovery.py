"""Reconstruction of a space, up to isometry, from its cohomology ring.

The degree-(0,0) component of a positive-minimum space is the split ring
Z^n whose primitive idempotents are the point indicators; for primitive
idempotents e, f there is at most one grade l with e . MH^1_l . f != 0, and
that grade is the distance between adjacent points.  Each grade is read
once, from the left images e . g_j of its basis for every e and the rows
g_t . f for every f, each read in one pass over the (0,0) x (1,l) or the
(1,l) x (0,0) entries of the product table, not through
RingPresentation.mult: e . MH^1_l . f != 0 exactly when some left image x has
sum_t x_t (g_t . f) nonzero modulo the orders of MH^1_l.  On a free
coordinate that sum is bilinear over Q, so it is tested only on a rational
basis of e's left images against a rational basis of f's free columns; on a
torsion coordinate every left image is tested, since images dependent over
Q need not be dependent modulo the order.  The other distances
are the shortest-path closure over chains of adjacent pairs (they exist
because any non-adjacent finite pair can be refined through a strict
intermediate point, and the positive minimum bounds the refinement depth).

Everything here consumes only an opaque RingPresentation, so it works on
scrambled bases: idempotents are found algebraically (refining the unit
mod 2 against each basis vector of (0,0), then Hensel-lifting 2-adically and
verifying exactly over Z), never by matching against a known basis.  The
exact verification alone proves the component is Z^n: n nonzero orthogonal
idempotents summing to the unit of a free rank-n ring split it into n
rank-one corners, each a copy of Z.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from operator import mul

from .rationals import format_grade
from .ring import RingPresentation, export_presentation
from .spaces import InputError, QuasiMetricSpace, is_isometric

_B00 = (0, 0)
_HENSEL_CAP = 4096  # bits; far beyond any coordinate produced by scrambling


class NotSplit(InputError):
    """The (0,0) component does not decompose as Z^n."""


class NonUniqueGrade(InputError):
    """Two grades carry e . MH^1_l . f != 0: corrupt presentation."""


def _mult0(pres: RingPresentation, a, b, modulus=None):
    _, out = pres.mult(_B00, list(a), _B00, list(b))
    if modulus is not None:
        out = [v % modulus for v in out]
    return out


def primitive_idempotents(pres: RingPresentation) -> list:
    """Exactly the n primitive idempotents of the (0,0) ring, as sorted
    coordinate tuples, verified exactly (integral, idempotent, orthogonal,
    summing to the unit); NotSplit when the component is not Z^n."""
    if not pres.bidegrees:
        return []  # the empty space
    if _B00 not in pres.ranks:
        raise NotSplit("no (0,0) component")
    if pres.torsions[_B00]:
        raise NotSplit("torsion in the (0,0) component")
    n = pres.ranks[_B00]
    if n == 0:
        return []
    unit = list(pres.unit)

    # Z^n mod 2 is Boolean and spanned by the basis, so refining the unit
    # against each basis vector splits it into the n atoms, never more on the
    # way (a corrupt ring could double them at every step); any other ring
    # fails one of the exact checks below.
    atoms = [[v % 2 for v in unit]]
    for i in range(n):
        if len(atoms) > n:
            break
        b = [int(t == i) for t in range(n)]
        refined = []
        for e in atoms:
            eb = _mult0(pres, e, b, 2)
            rest = [(x + y) % 2 for x, y in zip(e, eb)]
            for part in (eb, rest):
                if any(part):
                    refined.append(part)
        atoms = refined
    if len(atoms) != n:
        raise NotSplit(f"found {len(atoms)} atoms mod 2, expected {n}")

    idempotents = []
    for atom in atoms:
        e = list(atom)
        bits = 1
        while True:
            # verify the centered candidate exactly over Z
            half = 1 << (bits - 1)
            cand = [((v + half) % (1 << bits)) - half for v in e]
            if _mult0(pres, cand, cand) == cand:
                idempotents.append(cand)
                break
            bits *= 2
            if bits > _HENSEL_CAP:
                raise NotSplit("idempotent lifting did not converge")
            modulus = 1 << bits
            sq = _mult0(pres, e, e, modulus)
            cube = _mult0(pres, sq, e, modulus)
            e = [(3 * s - 2 * c) % modulus for s, c in zip(sq, cube)]

    for i, e in enumerate(idempotents):
        if not any(e):
            raise NotSplit("zero idempotent")
        for f in idempotents[i + 1 :]:
            if any(_mult0(pres, e, f)) or any(_mult0(pres, f, e)):
                raise NotSplit("idempotents are not orthogonal")
    total = [sum(e[t] for e in idempotents) for t in range(n)]
    if total != unit:
        raise NotSplit("idempotents do not sum to the unit")
    return [tuple(e) for e in sorted(idempotents)]


def _actions(pairs, points, side: int, orders: list) -> list:
    """Every idempotent's images of the basis g_j of a degree-one grade, read
    in one pass over a pair's table and reduced modulo the grade's orders as
    mult reduces them: [a][j] is e_a . g_j from the (0,0) x (1,l) entries
    (side 0) or g_j . e_a from the (1,l) x (0,0) entries (side 1)."""
    users = [[(a, e[i]) for a, e in enumerate(points) if e[i]] for i in range(len(points))]
    images = [[[0] * len(orders) for _ in orders] for _ in points]
    for key, coords in pairs.items():
        support = [(t, v) for t, v in enumerate(coords) if v]  # read once for every idempotent
        for a, c in users[key[side]]:
            row = images[a][key[1 - side]]
            for t, v in support:
                row[t] += c * v
    return [[[v % m if m else v for v, m in zip(row, orders)] for row in rows] for rows in images]


def _independent(vectors) -> list:
    """The vectors that are not in the rational span of the ones before them:
    a basis over Q of their span, found by fraction-free elimination."""
    echelon, picked = [], []  # echelon rows are (pivot, row), row[pivot] != 0
    for v in vectors:
        r = v
        for p, row in echelon:
            if r[p]:
                a, c = row[p], r[p]
                r = [a * x - c * y for x, y in zip(r, row)]
        pivot = next((t for t, x in enumerate(r) if x), None)
        if pivot is not None:
            g = gcd(*r)
            echelon.append((pivot, [x // g for x in r]))
            picked.append(v)
    return picked


def adjacency_weights(pres: RingPresentation, points: list) -> list:
    """Weights of all ordered pairs of points, diagonal included: [a][b] is
    the unique grade l with e_a . MH^1_l . e_b != 0, None if none."""
    weights = [[None] * len(points) for _ in points]
    for l in pres.grades_in_degree(1):
        bideg = (1, l)
        orders = pres.orders(bideg)
        lefts, rights = [], []
        left_images = _actions(pres.table.get((_B00, bideg), {}), points, 0, orders)
        right_images = _actions(pres.table.get((bideg, _B00), {}), points, 1, orders)
        for images, right in zip(left_images, right_images):
            left = [x for x in images if any(x)]
            cols = list(zip(*right))
            free = [col for col, m in zip(cols, orders) if not m]
            lefts.append((left, _independent(left)))
            rights.append((_independent(free), [(col, m) for col, m in zip(cols, orders) if m]))
        for (a, (left, left_basis)), (b, (free, torsion)) in product(
            enumerate(lefts), enumerate(rights)
        ):
            # x . g_t . e_b: over Q on the free coordinates, so bases suffice
            # there; every left image on the torsion ones
            if any(sum(map(mul, x, col)) for x in left_basis for col in free) or any(
                sum(map(mul, x, col)) % m for x in left for col, m in torsion
            ):
                if weights[a][b] is not None:
                    grades = f"{format_grade(weights[a][b])} and {format_grade(l)}"
                    raise NonUniqueGrade(f"points {a} and {b} pair nontrivially in grades {grades}")
                weights[a][b] = l
    return weights


def recover_space(pres: RingPresentation) -> QuasiMetricSpace:
    """Idempotents, adjacency weights, then all-pairs shortest paths."""
    points = primitive_idempotents(pres)
    n = len(points)
    dist = adjacency_weights(pres, points)
    for i in range(n):
        dist[i][i] = 0
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            if dik is None:
                continue
            for j, dkj in enumerate(dist[k]):
                if dkj is not None and (dist[i][j] is None or dik + dkj < dist[i][j]):
                    dist[i][j] = dik + dkj
    return QuasiMetricSpace(dist)


def recovery_roundtrip(space: QuasiMetricSpace, scramble_seed=None) -> bool:
    """Export (scrambled) degrees k <= 1 up to the largest finite distance,
    serialize, recover, compare up to isometry."""
    pres = export_presentation(space, 1, space.max_finite_distance(), scramble_seed=scramble_seed)
    return is_isometric(space, recover_space(RingPresentation.from_json(pres.to_json())))
