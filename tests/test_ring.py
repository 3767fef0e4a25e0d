import hashlib
import importlib
import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from magnitude.homology import AbelianGroup, LatticeQuotient, MagnitudeHomology, MissingBlock
from magnitude.posets import FinitePoset, OrderComplex
from magnitude.ring import (
    BidegreeMismatch,
    Cochain,
    InvalidPresentation,
    RingClass,
    RingPresentation,
    class_of,
    class_product,
    coboundary_of,
    cup_cochain,
    cycle_class_of,
    export_presentation,
    indicator_cochain,
    is_cocycle,
    kronecker,
    random_unimodular,
    representative,
    unit_cochain,
)
from magnitude.spaces import (
    Graph,
    QuasiMetricSpace,
    adjacent_pairs,
    builtin_graph,
    space_from_graph,
)

from samples import BUILTIN_NAMES, hemicube_covers, random_rational_space
from test_recovery import _torsion_presentation


def random_cochain(rng, engine, k, l):
    n = len(engine.simplices(k, l))
    return Cochain(k, Fraction(l), tuple(rng.randrange(-3, 4) for _ in range(n)))


def test_unit_cochain_examples():
    one = QuasiMetricSpace([[0]])
    assert unit_cochain(MagnitudeHomology(one)).coords == (1,)
    k3 = space_from_graph(builtin_graph("k3"))
    assert unit_cochain(MagnitudeHomology(k3)).coords == (1, 1, 1)
    empty = QuasiMetricSpace(())
    assert unit_cochain(MagnitudeHomology(empty)).coords == ()


def test_dual_basis_concatenation_rule():
    c5 = space_from_graph(builtin_graph("c5"))
    engine = MagnitudeHomology(c5)
    rng = random.Random(0)
    simplices_a = engine.simplices(1, 1)
    simplices_b = engine.simplices(2, 3)
    for _ in range(20):
        sa = rng.choice(simplices_a)
        sb = rng.choice(simplices_b)
        prod = cup_cochain(
            engine, indicator_cochain(engine, sa, 1), indicator_cochain(engine, sb, 3)
        )
        if sa[-1] == sb[0]:
            assert prod == indicator_cochain(engine, sa + sb[1:], 4)
        else:
            assert not any(prod.coords)


def test_unit_is_two_sided_identity_on_cochains():
    rng = random.Random(1)
    c4 = space_from_graph(builtin_graph("c4"))
    engine = MagnitudeHomology(c4)
    u = unit_cochain(engine)
    for (k, l) in ((1, 1), (2, 2), (2, 3)):
        phi = random_cochain(rng, engine, k, l)
        assert cup_cochain(engine, u, phi) == phi
        assert cup_cochain(engine, phi, u) == phi


def test_leibniz_rule_on_random_cochains():
    rng = random.Random(2)
    for name in ("p4", "c5"):
        space = space_from_graph(builtin_graph(name))
        engine = MagnitudeHomology(space)
        for (k1, l1, k2, l2) in ((1, 1, 1, 1), (1, 1, 1, 2), (1, 2, 2, 2)):
            phi = random_cochain(rng, engine, k1, l1)
            psi = random_cochain(rng, engine, k2, l2)
            lhs = coboundary_of(engine, cup_cochain(engine, phi, psi))
            rhs = cup_cochain(engine, coboundary_of(engine, phi), psi) + cup_cochain(
                engine, phi, coboundary_of(engine, psi)
            ).scale((-1) ** k1)
            assert lhs == rhs


def test_associativity_on_random_triples():
    rng = random.Random(3)
    c5 = space_from_graph(builtin_graph("c5"))
    engine = MagnitudeHomology(c5)
    for _ in range(5):
        phi = random_cochain(rng, engine, 1, 1)
        psi = random_cochain(rng, engine, 1, 1)
        chi = random_cochain(rng, engine, 1, 2)
        left = cup_cochain(engine, cup_cochain(engine, phi, psi), chi)
        right = cup_cochain(engine, phi, cup_cochain(engine, psi, chi))
        assert left == right


def test_class_product_well_defined():
    rng = random.Random(4)
    c5 = space_from_graph(builtin_graph("c5"))
    engine = MagnitudeHomology(c5)
    phi = indicator_cochain(engine, (0, 1), 1)
    psi = indicator_cochain(engine, (1, 0), 1)
    base = class_of(engine, cup_cochain(engine, phi, psi))
    delta = engine.coboundary(0, 1)
    for _ in range(5):
        shift = delta.matvec([rng.randrange(-2, 3) for _ in range(delta.ncols)])
        phi2 = Cochain(1, Fraction(1), tuple(a + b for a, b in zip(phi.coords, shift)))
        assert is_cocycle(engine, phi2)
        again = class_of(engine, cup_cochain(engine, phi2, psi))
        assert again == base


def test_bigrading_of_products():
    c5 = space_from_graph(builtin_graph("c5"))
    engine = MagnitudeHomology(c5)
    a = class_of(engine, indicator_cochain(engine, (0, 1), 1))
    b = class_of(engine, indicator_cochain(engine, (1, 2), 1))
    prod = class_product(engine, a, b)
    assert (prod.k, prod.l) == (2, Fraction(2))


def test_degree_one_cocycles_and_rank():
    rng = random.Random(5)
    for _ in range(5):
        space = random_rational_space(rng, nmax=4)
        engine = MagnitudeHomology(space)
        by_grade = {}
        for pair in adjacent_pairs(space):
            by_grade.setdefault(pair.length, []).append(pair)
        for l, pairs in by_grade.items():
            assert engine.cohomology(1, l).rank == len(pairs)
            for pair in pairs:
                phi = indicator_cochain(engine, (pair.x, pair.y), l)
                assert is_cocycle(engine, phi)


def test_dual_edge_classes_form_a_basis():
    from magnitude.snf import SparseMatrix, smith_normal_form

    rng = random.Random(19)
    spaces = [space_from_graph(builtin_graph("c5"))]
    spaces += [random_rational_space(rng, nmax=4) for _ in range(3)]
    for space in spaces:
        engine = MagnitudeHomology(space)
        by_grade = {}
        for pair in adjacent_pairs(space):
            by_grade.setdefault(pair.length, []).append(pair)
        for l, pairs in by_grade.items():
            quotient = engine.cohomology_quotient(1, l)
            rows = [
                quotient.reduce(list(indicator_cochain(engine, (p.x, p.y), l).coords))
                for p in pairs
            ]
            sm = smith_normal_form(SparseMatrix.from_dense(rows), need=())
            assert sm.diag == [1] * len(pairs)  # unimodular: a genuine basis


def test_noncommutativity_pairings():
    for name in ("p2", "c5", "k4"):
        space = space_from_graph(builtin_graph(name))
        engine = MagnitudeHomology(space)
        x, y = sorted((p.x, p.y) for p in adjacent_pairs(space))[0]
        l = space.d[x][y] + space.d[y][x]
        a_xy = class_of(engine, indicator_cochain(engine, (x, y), space.d[x][y]))
        a_yx = class_of(engine, indicator_cochain(engine, (y, x), space.d[y][x]))
        chain = [0] * len(engine.simplices(2, l))
        chain[engine.index(2, l)[(x, y, x)]] = 1
        z = cycle_class_of(engine, chain, 2, l)
        assert kronecker(engine, class_product(engine, a_xy, a_yx), z) == 1
        assert kronecker(engine, class_product(engine, a_yx, a_xy), z) == 0


def test_kronecker_independent_of_representatives():
    from magnitude.ring import RingClass

    c5 = space_from_graph(builtin_graph("c5"))
    engine = MagnitudeHomology(c5)
    dim = engine.cohomology_quotient(2, 3).dim
    alpha = RingClass(2, Fraction(3), tuple(1 if i == 0 else 0 for i in range(dim)))
    rng = random.Random(6)
    chain = _unit_chain(engine, (0, 1, 3), 2, 3)  # a cycle: no face survives
    z = cycle_class_of(engine, chain, 2, 3)
    base = kronecker(engine, alpha, z)
    boundary = engine.boundary(3, 3)
    for _ in range(5):
        shift = boundary.matvec([rng.randrange(-2, 3) for _ in range(boundary.ncols)])
        z2 = cycle_class_of(engine, [a + b for a, b in zip(chain, shift)], 2, 3)
        assert z2 == z
        assert kronecker(engine, alpha, z2) == base


def _unit_chain(engine, simplex, k, l):
    chain = [0] * len(engine.simplices(k, l))
    chain[engine.index(k, l)[simplex]] = 1
    return chain


def test_kronecker_unit_on_point_class():
    k3 = space_from_graph(builtin_graph("k3"))
    engine = MagnitudeHomology(k3)
    z = cycle_class_of(engine, _unit_chain(engine, (1,), 0, 0), 0, 0)
    assert kronecker(engine, class_of(engine, unit_cochain(engine)), z) == 1


def test_bidegree_mismatch():
    c4 = space_from_graph(builtin_graph("c4"))
    engine = MagnitudeHomology(c4)
    alpha = class_of(engine, unit_cochain(engine))
    z = cycle_class_of(engine, _unit_chain(engine, (0, 1), 1, 1), 1, 1)
    with pytest.raises(BidegreeMismatch):
        kronecker(engine, alpha, z)


def test_missing_block_truncation():
    c4 = space_from_graph(builtin_graph("c4"))
    engine = MagnitudeHomology(c4, kmax=1, lmax=1)
    a = class_of(engine, indicator_cochain(engine, (0, 1), 1))
    with pytest.raises(MissingBlock):
        class_product(engine, a, a)


def test_bimodule_rule_via_idempotents():
    space = space_from_graph(builtin_graph("p3"))
    engine = MagnitudeHomology(space)
    e = {
        x: class_of(engine, Cochain(0, Fraction(0), tuple(1 if t == x else 0 for t in range(3))))
        for x in range(3)
    }
    a01 = class_of(engine, indicator_cochain(engine, (0, 1), 1))
    assert class_product(engine, e[0], a01) == a01
    assert class_product(engine, a01, e[1]) == a01
    assert not any(class_product(engine, e[1], a01).coords)
    assert not any(class_product(engine, a01, e[0]).coords)


def test_export_scrambling_determinism_and_unit():
    p3 = space_from_graph(builtin_graph("p3"))
    a = export_presentation(p3, 1, 2, scramble_seed=11).to_json()
    b = export_presentation(p3, 1, 2, scramble_seed=11).to_json()
    assert a == b
    c = export_presentation(p3, 1, 2, scramble_seed=12).to_json()
    assert c != a
    pres = RingPresentation.from_json(a)
    b00 = (0, Fraction(0))
    for i in range(pres.dim(b00)):
        gi = [1 if t == i else 0 for t in range(pres.dim(b00))]
        _, left = pres.mult(b00, list(pres.unit), b00, gi)
        assert left == gi


def test_export_lifts_each_basis_class_once(monkeypatch):
    calls = []
    vector_of = LatticeQuotient.vector_of

    def counted(self, coords):
        calls.append(coords)
        return vector_of(self, coords)

    monkeypatch.setattr(LatticeQuotient, "vector_of", counted)
    c5 = space_from_graph(builtin_graph("c5"))
    pres = export_presentation(c5, 2, 3, scramble_seed=4)
    assert len(calls) == sum(pres.dim(b) for b in pres.bidegrees) == 35


def _repeat_product_9(doc):
    """Append a second product 9, every coordinate plus 1."""
    first, second, target, coords = doc["products"][9]
    doc["products"].append([first, second, target, [v + 1 for v in coords]])


@lru_cache(maxsize=None)
def _hemicube_export():
    """The hemi-cube space and its scrambled export at k <= 4, l <= 4."""
    n, covers = hemicube_covers()
    space = space_from_graph(Graph.directed_graph(n, covers))
    return space, export_presentation(space, 4, 4, scramble_seed=1)


def test_hemicube_torsion_survives_the_scrambled_export():
    # the hemi-cube's face poset with bottom and top (ranks 0 and 4): only
    # that pair is at distance 4, so MH_{k,4} is the reduced homology of the
    # order complex of the open interval, RP^2, in degree k - 2
    # (Kaneta-Yoshinaga), and MH^4_4 = Ext(Z/2, Z) is pure torsion
    n, covers = hemicube_covers()
    assert (n, len(covers)) == (15, 31)
    interval = OrderComplex(
        FinitePoset.from_cover_relations(n - 2, [(a - 1, b - 1) for a, b in covers if a and b < n - 1])
    )
    assert interval.homology(1) == AbelianGroup(0, (2,))
    space = space_from_graph(Graph.directed_graph(n, covers))
    engine = MagnitudeHomology(space)
    assert engine.homology(3, 4) == AbelianGroup(0, (2,))
    assert all(engine.homology(k, 4).is_trivial for k in (1, 2, 4, 5))
    pres = _hemicube_export()[1]
    b00, b44 = (0, Fraction(0)), (4, Fraction(4))
    assert (pres.ranks[b44], pres.torsions[b44]) == (0, (2,))
    t = [1]
    assert pres.mult(b00, list(pres.unit), b44, t) == (b44, t)
    assert pres.mult(b44, t, b00, list(pres.unit)) == (b44, t)


def test_hemicube_scrambled_export_bytes_are_pinned():
    # the one pinned export with a torsion block, so its class bases come
    # from transforms through non-unit pivots
    digest = hashlib.sha256(_hemicube_export()[1].to_json().encode()).hexdigest()
    assert digest == "0ca32de69c6584189d3d15b37bb8ba8b475baf7beabe06b8e45d43ff464944c0"


def _scrambled_products(space, pres, kmax, lmax, seed):
    """Every product of the export recomputed as class_product of two
    scrambled generators, moved into the target's scrambled basis by T^-1:
    the scrambles are drawn again, in sorted bidegree order."""
    rng = random.Random(seed)
    gens, tinvs = {}, {}
    for b in pres.bidegrees:
        r, nt = pres.ranks[b], len(pres.torsions[b])
        t, tinvs[b] = random_unimodular(r, rng)
        gens[b] = [tuple(t[s][i] for s in range(r)) + (0,) * nt for i in range(r)]
        gens[b] += [(0,) * r + tuple(int(s == i) for s in range(nt)) for i in range(nt)]
    engine = MagnitudeHomology(space, kmax=kmax, lmax=lmax)
    table = {}
    for ba in pres.bidegrees:
        for bb in pres.bidegrees:
            bt = (ba[0] + bb[0], ba[1] + bb[1])
            if bt not in pres.ranks:
                continue
            r, tinv = pres.ranks[bt], tinvs[bt]
            for i, ga in enumerate(gens[ba]):
                for j, gb in enumerate(gens[bb]):
                    c = class_product(engine, RingClass(*ba, ga), RingClass(*bb, gb)).coords
                    free = [sum(tinv[s][u] * c[u] for u in range(r)) for s in range(r)]
                    if any(c):
                        table.setdefault((ba, bb), {})[i, j] = tuple(free) + c[r:]
    return table


def test_export_products_are_scrambled_class_products():
    c5 = space_from_graph(builtin_graph("c5"))
    hemicube, torsion_pres = _hemicube_export()
    b44 = (4, Fraction(4))
    assert torsion_pres.torsions[b44] == (2,) and any(bb == b44 for _, bb in torsion_pres.table)
    cases = [(c5, export_presentation(c5, 2, 3, scramble_seed=4), 2, 3, 4)]
    cases.append((hemicube, torsion_pres, 4, 4, 1))
    for space, pres, kmax, lmax, seed in cases:
        assert pres.table == _scrambled_products(space, pres, kmax, lmax, seed)


def test_export_refuses_a_product_outside_the_kernel(monkeypatch):
    # the indicator of (0, 2, 3) is not a cocycle of c5: (0, 1, 2, 3) has it
    # as a face; add it to every product landing in (2, 3)
    ring = importlib.import_module("magnitude.ring")
    cup = ring.cup_cochain
    engine = MagnitudeHomology(space_from_graph(builtin_graph("c5")))
    assert not is_cocycle(engine, indicator_cochain(engine, (0, 2, 3), 3))

    def corrupt(engine, phi, psi):
        out = cup(engine, phi, psi)
        if (out.k, out.l) == (2, 3):
            out = out + indicator_cochain(engine, (0, 2, 3), 3)
        return out

    monkeypatch.setattr(ring, "cup_cochain", corrupt)
    with pytest.raises(ValueError, match="not in the kernel"):
        export_presentation(engine.space, 2, 3, scramble_seed=4)


def test_to_json_renders_the_json_dumps_bytes():
    presentations = [
        RingPresentation([], {}, {}, (), {}),
        export_presentation(QuasiMetricSpace([[0]]), 1, 1),
        _torsion_presentation(),
    ]
    for name in BUILTIN_NAMES:
        space = space_from_graph(builtin_graph(name))
        for seed in (None, 3):
            presentations.append(
                export_presentation(space, 1, space.max_finite_distance(), scramble_seed=seed)
            )
    assert '"torsion": [\n    3\n   ]' in presentations[2].to_json()
    for pres in presentations:
        text = pres.to_json()
        assert text == json.dumps(json.loads(text), indent=1, sort_keys=True) + "\n"


def test_from_json_rejects_malformed_documents():
    export = export_presentation(space_from_graph(builtin_graph("p3")), 1, 2).to_json()
    assert RingPresentation.from_json(export).to_json() == export

    def corrupted(edit):
        doc = json.loads(export)
        edit(doc)
        return json.dumps(doc)

    edits = [
        lambda d: d["bidegrees"][1].update(k="1"),
        lambda d: d["bidegrees"][1].pop("l"),
        lambda d: d["bidegrees"][1].update(l="1/0"),
        lambda d: d["bidegrees"][1].update(torsion=[2, 3]),
        lambda d: d["bidegrees"][1].update(torsion=[1]),
        lambda d: d["bidegrees"].append(dict(d["bidegrees"][0])),
        lambda d: d["unit"].append(0),
        lambda d: d["products"][0][0].__setitem__(1, "1/2"),
        lambda d: d["products"][0][0].__setitem__(0, 2),
        lambda d: d["products"][0].__setitem__(2, [1, "1"]),
        lambda d: d["products"][0].pop(),
        lambda d: d["products"][0][1].__setitem__(2, -1),
        lambda d: d["products"][0][3].__setitem__(0, "1"),
    ]
    for edit in edits:
        with pytest.raises(InvalidPresentation):
            RingPresentation.from_json(corrupted(edit))
    with pytest.raises(InvalidPresentation, match="repeats an earlier product"):
        RingPresentation.from_json(corrupted(_repeat_product_9))


def test_edge_presentation_is_pointwise_ring():
    # unscrambled edge: the (0,0) basis multiplies like Z^2 pointwise
    edge = space_from_graph(builtin_graph("p2"))
    pres = export_presentation(edge, 1, 1)
    b00 = (0, Fraction(0))
    assert pres.ranks[b00] == 2 and pres.torsions[b00] == ()
    e0, e1 = [1, 0], [0, 1]
    assert pres.mult(b00, e0, b00, e1)[1] == [0, 0]
    assert pres.mult(b00, e1, b00, e0)[1] == [0, 0]
    assert pres.mult(b00, e0, b00, e0)[1] in (e0, e1)
    assert pres.mult(b00, list(pres.unit), b00, e0)[1] == e0


def test_one_point_presentation():
    one = QuasiMetricSpace([[0]])
    pres = export_presentation(one, 2, 2)
    b00 = (0, Fraction(0))
    assert pres.bidegrees == [b00]
    assert pres.unit == (1,)
    assert pres.mult(b00, [1], b00, [1])[1] == [1]
