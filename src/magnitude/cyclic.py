"""Odd cyclic graphs C_n, n = 2m+1 >= 5: codes, admissible simplices, and
the generator/relation presentation of the cohomology ring.

A simplex on C_n is encoded by its sequence of signed circular steps
normalized into {-m,...,-1,1,...,m} ("clockwise" means increasing vertex
index mod n).  A code is admissible when each maximal constant-sign run
follows the alternating pattern (1, m, 1, m, ...) or its negative.  The
admissible simplices are cycles and their classes form a homology basis,
which makes the dual monomials p_x a basis of the cohomology ring.
The ring itself is generated by e_x (bidegree (0,0)), a_xy over oriented
edges ((1,1)), and b_xz over ordered pairs at distance m ((2, m+1)).
`_generators` is the one table of these tokens; each one's class is the
Kronecker dual of its one-token normal form, and `verify_presentation`
checks the relations, the products of composable pairs, against `reduce_word`.

Normal form of a word: it is zero unless each token starts where the last
ended; then the e's drop out.  Inside a maximal run of one direction, a.b =
b.a carries every a to the run's end, where two a's vanish.  So a run with
two or more a's is zero, and otherwise its code is (d, dm) per b, then (d)
for its a: the admissible run sign * (1, m, 1, m, ...) again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import groupby, product

from .homology import MagnitudeHomology
from .ring import (
    HomologyClass,
    RingClass,
    class_product,
    cycle_class_of,
    dual_classes,
    representative,
)
from .snf import SparseMatrix, smith_normal_form
from .spaces import InvalidSpace, cycle_graph, space_from_graph


def half(n: int) -> int:
    if n < 5 or n % 2 == 0:
        raise InvalidSpace(f"need an odd cycle C_n with n >= 5, got n={n}")
    return (n - 1) // 2


def cycle_space(n: int):
    return space_from_graph(cycle_graph(n))


def step(x: int, i: int, n: int) -> int:
    return (x + i) % n


def code_of(simplex: tuple, n: int) -> tuple:
    """Signed circular steps of a simplex, normalized into {-m..m} \\ {0}."""
    m = half(n)
    out = []
    for a, b in zip(simplex, simplex[1:]):
        v = (b - a) % n
        if v > m:
            v -= n
        if v == 0:
            raise ValueError("consecutive entries equal")
        out.append(v)
    return tuple(out)


def simplex_of(x0: int, code: tuple, n: int) -> tuple:
    points = [x0]
    for i in code:
        points.append(step(points[-1], i, n))
    return tuple(points)


def _alternating(sign: int, length: int, m: int) -> list:
    """The one admissible run of this sign and length: sign * (1, m, 1, m, ...)."""
    return [sign * (m if t % 2 else 1) for t in range(length)]


def _sign_runs(code: tuple):
    """(sign, run) for each maximal constant-sign run of a code."""
    for positive, run in groupby(code, key=lambda v: v > 0):
        yield (1 if positive else -1), list(run)


def is_admissible(code: tuple, m: int) -> bool:
    """Maximal constant-sign runs must look like (1, m, 1, m, ...) up to sign."""
    return all(run == _alternating(sign, len(run), m) for sign, run in _sign_runs(code))


def admissible_codes(m: int, k: int, l: int) -> list:
    """All admissible codes of degree k and total length l, in list order."""
    out = []
    code = []

    def extend(length_left: int, sign: int, runpos: int):
        pos = len(code)
        if pos == k:
            if length_left == 0:
                out.append(tuple(code))
            return
        steps_left = k - pos
        options = []
        if sign == 0:
            options = [(1, 1, 1), (-1, -1, 1)]
        else:
            cont = sign * (1 if runpos % 2 == 0 else m)
            options = [(cont, sign, runpos + 1), (-sign, -sign, 1)]
        for value, nsign, nrunpos in options:
            rest = length_left - abs(value)
            if rest < 0 or rest < (steps_left - 1) or rest > (steps_left - 1) * m:
                continue
            code.append(value)
            extend(rest, nsign, nrunpos)
            code.pop()

    extend(l, 0, 0)
    return out


@dataclass(frozen=True)
class AdmissibleSimplex:
    simplex: tuple
    code: tuple

    @property
    def k(self) -> int:
        return len(self.code)

    @property
    def l(self) -> int:
        return sum(abs(i) for i in self.code)


def admissible_simplices(n: int, k: int, l: int) -> list:
    m = half(n)
    if k == 0:
        return [AdmissibleSimplex((x,), ()) for x in range(n)] if l == 0 else []
    out = [
        AdmissibleSimplex(simplex_of(x0, code, n), code)
        for code in admissible_codes(m, k, l)
        for x0 in range(n)
    ]
    return sorted(out, key=lambda a: a.simplex)


def pieces(code: tuple) -> list:
    """Decompose an admissible code into pieces (1), (-1), (1,m), (-1,-m):
    each sign run splits into pairs from its start, so the split is forced."""
    return [
        tuple(run[i : i + 2]) for _, run in _sign_runs(code) for i in range(0, len(run), 2)
    ]


def monomial_of(adm: AdmissibleSimplex, n: int) -> list:
    """Generator word for an admissible simplex of positive degree:
    tokens ('a', x, y) for pieces (+-1) and ('b', x, z) for (+-1, +-m)."""
    if adm.k == 0:
        raise ValueError("monomials are defined for k > 0")
    word = []
    x = adm.simplex[0]
    for piece in pieces(adm.code):
        y = x
        for i in piece:
            y = step(y, i, n)
        word.append(("a" if len(piece) == 1 else "b", x, y))
        x = y
    return word


# ---------------------------------------------------------------------------
# the admissible homology basis and the ring presentation, verified
# against the engine
# ---------------------------------------------------------------------------

def _grades_for_degree(m: int, k: int):
    return [0] if k == 0 else list(range(k, k * m + 1))


def verify_gu_basis(n: int, kmax: int):
    """Check that admissible simplices are cycles whose classes form a basis
    of MH_{k,l}(C_n) in every block with k <= kmax; (ok, failures)."""
    space = cycle_space(n)
    m = half(n)
    engine = MagnitudeHomology(space)
    failures = []
    for k in range(kmax + 1):
        for l in _grades_for_degree(m, k):
            adms = admissible_simplices(n, k, l)
            group = engine.homology(k, l)
            if group.torsion or group.rank != len(adms):
                failures.append(
                    f"({k},{l}): {len(adms)} admissible simplices vs MH = {group}"
                )
                continue
            if not adms:
                continue
            index = engine.index(k, l)
            quotient = engine.homology_quotient(k, l)
            coord_rows = []
            for adm in adms:
                chain = [0] * len(index)
                chain[index[adm.simplex]] = 1
                try:  # reduce refuses a vector outside the kernel of the boundary
                    coord_rows.append(quotient.reduce(chain))
                except ValueError:
                    failures.append(f"({k},{l}): {adm.simplex} is not a cycle")
            sm = smith_normal_form(
                SparseMatrix.from_dense(coord_rows), need=(), divisibility=True
            )
            if sm.rank != len(adms):
                failures.append(f"({k},{l}): classes are dependent")
            elif sm.diag != [1] * len(adms):
                failures.append(f"({k},{l}): classes span a proper sublattice")
    return not failures, failures


def _generators(n: int) -> dict:
    """The generator table of C_n: every token with its direction, 0 for
    e_x, else 1 (clockwise) or -1 for a_xy and b_xz."""
    m = half(n)
    out = {}
    for x in range(n):
        out[("e", x)] = 0
        for d in (1, -1):
            out[("a", x, step(x, d, n))] = d
            out[("b", x, step(x, d * (m + 1), n))] = d
    return out


def _lookup(table: dict, token):
    """table[token] for a generator token; ValueError for anything else."""
    try:
        return table[token]
    except (KeyError, TypeError):  # TypeError: an unhashable token, such as a list
        raise ValueError(f"not a generator: {token}") from None


def reduce_word(word, n: int):
    """Symbolic reduction of a generator word by the presentation relations:
    returns None for zero, or the admissible simplex with p_x = word.  A
    token that is not a generator of C_n raises, even in a zero word."""
    m = half(n)
    if not word:
        raise ValueError("empty word")
    known = _generators(n)
    for token in word:  # raises on a token outside the table
        _lookup(known, token)
    # composable: each token starts where the last ended, e_x being the point x
    if any(s[-1] != t[1] for s, t in zip(word, word[1:])):
        return None
    code = []
    for d, run in groupby((t for t in word if t[0] != "e"), key=known.get):
        kinds = [token[0] for token in run]
        if kinds.count("a") > 1:  # a.b = b.a brings two a's together: a.a = 0
            return None
        code += _alternating(d, 2 * len(kinds) - kinds.count("a"), m)
    code = tuple(code)
    return AdmissibleSimplex(simplex_of(word[0][1], code, n), code)


def _normal_word(adm: AdmissibleSimplex, n: int) -> list:
    """The generator word of an admissible simplex: e_x at a point, else its
    monomial."""
    return monomial_of(adm, n) if adm.k else [("e", adm.simplex[0])]


class CyclicRing:
    """Generator classes of MH(C_n) instantiated inside the engine.

    `classes` maps each token of `_generators(n)` to the Kronecker dual of
    the cycle of its one-token normal form, among the tokens of the same
    bidegree."""

    def __init__(self, n: int):
        self.engine = MagnitudeHomology(cycle_space(n))
        groups = {}
        for token in _generators(n):
            adm = reduce_word([token], n)
            groups.setdefault((adm.k, adm.l), []).append((token, adm.simplex))
        self.classes = {}
        for (_, l), members in groups.items():
            cycles = [self._cycle_class(simplex, l) for _, simplex in members]
            for (token, _), cls in zip(members, dual_classes(self.engine, cycles)):
                self.classes[token] = cls

    def _cycle_class(self, simplex: tuple, l) -> HomologyClass:
        k = len(simplex) - 1
        chain = [0] * len(self.engine.simplices(k, l))
        chain[self.engine.index(k, l)[simplex]] = 1
        return cycle_class_of(self.engine, chain, k, l)

    def generator(self, token) -> RingClass:
        return _lookup(self.classes, token)

    def word_class(self, word) -> RingClass:
        if not word:
            raise ValueError("empty word")
        classes = [self.generator(token) for token in word]
        return reduce(lambda x, y: class_product(self.engine, x, y), classes)

    def pair_with_simplex(self, alpha: RingClass, simplex: tuple) -> int:
        """Kronecker pairing against the (cycle) indicator chain."""
        phi = representative(self.engine, alpha).coords
        idx = self.engine.index(alpha.k, alpha.l)[simplex]
        return phi[idx]


def verify_presentation(n: int, kmax: int):
    """Check every relation of the cyclic presentation against `reduce_word`,
    the Kronecker duality <p_x, [y]> = delta, and the per-bidegree monomial
    counts; (ok, failures)."""
    ring = CyclicRing(n)
    m = half(n)
    engine = ring.engine
    failures = []

    # one relation per pair of generators that compose or are both idempotents:
    # a zero word must multiply to zero, a rewritten word to its normal form
    for g, h in product(_generators(n), repeat=2):
        if g[-1] != h[1] and not g[0] == h[0] == "e":
            continue
        reduced = reduce_word([g, h], n)
        word = None if reduced is None else _normal_word(reduced, n)
        if word == [g, h]:  # already a normal form, such as b.b or a_xy a_yx
            continue
        got = class_product(engine, ring.generator(g), ring.generator(h))
        if word is None:
            if any(got.coords):
                failures.append(f"{g} {h} = 0: nonzero {got.coords}")
            continue
        want = ring.word_class(word)
        if got != want:
            failures.append(f"{g} {h} = {word}: {got} != {want}")

    # Kronecker duality of monomials against the Gu basis, plus span counts
    for k in range(kmax + 1):
        for l in _grades_for_degree(m, k):
            adms = admissible_simplices(n, k, l)
            group = engine.cohomology(k, l)
            if group.torsion or group.rank != len(adms):
                failures.append(f"({k},{l}): monomial count vs rank {group}")
            for adm in adms:
                p = ring.word_class(_normal_word(adm, n))
                if (p.k, p.l) != (k, l):
                    failures.append(f"p_{adm.simplex} lands in ({p.k},{p.l})")
                    continue
                for other in adms:
                    got = ring.pair_with_simplex(p, other.simplex)
                    want = 1 if other == adm else 0
                    if got != want:
                        failures.append(
                            f"<p_{adm.simplex}, [{other.simplex}]> = {got}, want {want}"
                        )
    return not failures, failures
