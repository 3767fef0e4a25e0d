import json
import random
from fractions import Fraction

import pytest

from magnitude.homology import MagnitudeHomology, MissingBlock
from magnitude.ring import (
    BidegreeMismatch,
    Cochain,
    InvalidPresentation,
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
    representative,
    unit_class,
    unit_cochain,
)
from magnitude.spaces import (
    QuasiMetricSpace,
    ZeroDistance,
    adjacent_pairs,
    builtin_graph,
    space_from_graph,
)

from samples import random_rational_space


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
            by_grade.setdefault(pair.length.value, []).append(pair)
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
            by_grade.setdefault(pair.length.value, []).append(pair)
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
        l = space.d[x][y].value + space.d[y][x].value
        a_xy = class_of(engine, indicator_cochain(engine, (x, y), space.d[x][y].value))
        a_yx = class_of(engine, indicator_cochain(engine, (y, x), space.d[y][x].value))
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
    assert kronecker(engine, unit_class(engine), z) == 1


def test_bidegree_mismatch():
    c4 = space_from_graph(builtin_graph("c4"))
    engine = MagnitudeHomology(c4)
    alpha = unit_class(engine)
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


def test_export_refuses_pseudo_spaces():
    pseudo = QuasiMetricSpace([[0, 0], [0, 0]], allow_pseudo=True)
    with pytest.raises(ZeroDistance):
        export_presentation(pseudo, 1, 1)


def test_one_point_presentation():
    one = QuasiMetricSpace([[0]])
    pres = export_presentation(one, 2, 2)
    b00 = (0, Fraction(0))
    assert pres.bidegrees == [b00]
    assert pres.unit == (1,)
    assert pres.mult(b00, [1], b00, [1])[1] == [1]
