import importlib
import random
import tracemalloc
from fractions import Fraction

import pytest

from magnitude.complexes import realizable_grades
from magnitude.homology import (
    AbelianGroup,
    LatticeQuotient,
    MagnitudeHomology,
    MissingBlock,
    cohomology,
    homology,
    uct_check,
)
from magnitude.posets import OrderComplex, circle_poset
from magnitude.ring import random_unimodular
from magnitude.snf import SmithDecomposition, SparseMatrix
from magnitude.spaces import QuasiMetricSpace, builtin_graph, space_from_graph

from samples import moore_graph, random_rational_space, random_strongly_connected_digraph


def test_abelian_group_formatting():
    assert str(AbelianGroup(0)) == "0"
    assert str(AbelianGroup(2)) == "Z^2"
    assert str(AbelianGroup(1, (2, 6))) == "Z + Z/2 + Z/6"


def test_edge_degree_one():
    edge = space_from_graph(builtin_graph("p2"))
    assert homology(edge, 1, 1) == AbelianGroup(2)


def test_path_vanishing_block():
    p3 = space_from_graph(builtin_graph("p3"))
    assert homology(p3, 1, 2).is_trivial


def test_c5_degree_two_blocks():
    c5 = space_from_graph(builtin_graph("c5"))
    assert homology(c5, 2, 2) == AbelianGroup(10)
    assert homology(c5, 2, 3) == AbelianGroup(10)
    group, _basis = cohomology(c5, 2, 3)
    assert group == AbelianGroup(10)


def test_degree_zero_structure():
    for name in ("p4", "c5", "k4"):
        space = space_from_graph(builtin_graph(name))
        engine = MagnitudeHomology(space)
        assert engine.cohomology(0, 0) == AbelianGroup(space.n)
        for l in (1, 2, Fraction(3, 2)):
            assert engine.cohomology(0, l).is_trivial


def test_uct_on_random_spaces():
    rng = random.Random(21)
    spaces = [random_rational_space(rng, nmax=4) for _ in range(4)]
    spaces += [space_from_graph(random_strongly_connected_digraph(rng, nmax=4)) for _ in range(4)]
    for space in spaces:
        engine = MagnitudeHomology(space)
        for l in realizable_grades(space, 4):
            for k in range(min(engine.degree_bound(l), 4) + 1):
                assert engine.uct_check(k, l)
                # rank duality, computed once from each side
                assert engine.cohomology(k, l).rank == engine.homology(k, l).rank


def test_uct_via_module_function():
    assert uct_check(space_from_graph(builtin_graph("c4")), 2, 2)


def test_lattice_quotient_torsion():
    # Z^2 / im diag(2, 3) = Z/2 + Z/3 = Z/6
    quotient = LatticeQuotient(SparseMatrix(0, 2), SparseMatrix.from_dense([[2, 0], [0, 3]]), 2)
    assert quotient.group == AbelianGroup(0, (6,))
    assert quotient.orders == [6]
    rep = quotient.representative(0)
    assert quotient.reduce(rep) == (1,)
    # six times anything is a relation
    assert quotient.reduce([6 * rep[0], 6 * rep[1]]) == (0,)


def test_lattice_quotient_rejects_incoming_map_outside_kernel():
    A = SparseMatrix.from_dense([[1, 0]])
    assert LatticeQuotient(A, SparseMatrix.from_dense([[0], [1]]), 2).group.is_trivial
    with pytest.raises(ValueError, match="not in the kernel"):
        LatticeQuotient(A, SparseMatrix.from_dense([[0, 1], [1, 0]]), 2)


def test_reduce_rejects_a_vector_outside_the_kernel():
    # the indicator of (0, 2) is not a cocycle: (0, 1, 2) has (0, 2) as a face
    engine = MagnitudeHomology(space_from_graph(builtin_graph("c5")))
    quotient = engine.cohomology_quotient(1, 2)
    vec = [0] * len(engine.simplices(1, 2))
    vec[engine.index(1, 2)[(0, 2)]] = 1
    with pytest.raises(ValueError, match="not in the kernel"):
        quotient.reduce(vec)


def test_built_quotient_keeps_no_smith_decomposition():
    engine = MagnitudeHomology(space_from_graph(builtin_graph("c5")))
    for quotient in (engine.cohomology_quotient(2, 3), engine.homology_quotient(2, 3)):
        assert quotient.dim > 0
        assert not any(isinstance(v, SmithDecomposition) for v in vars(quotient).values())


def test_homology_table_reduces_each_boundary_once(monkeypatch):
    module = importlib.import_module("magnitude.homology")  # the package re-exports homology()
    calls = []
    snf = module.smith_normal_form

    def counted(matrix, *args, **kwargs):
        calls.append(matrix)
        return snf(matrix, *args, **kwargs)

    monkeypatch.setattr(module, "smith_normal_form", counted)
    engine = MagnitudeHomology(space_from_graph(builtin_graph("c5")))
    grades = realizable_grades(engine.space, 3)
    assert [l.denominator for l in grades] == [1] * len(grades)
    keys = set()
    for l in grades:
        for k in range(min(3, engine.degree_bound(l)) + 1):
            engine.homology(k, int(l))
            keys |= {(l, k), (l, k + 1)}  # H_k reads the boundaries at k and k+1
    assert len(calls) == len(keys)
    # the same table named by Fraction grades reads the same blocks
    for l in grades:
        for k in range(min(3, engine.degree_bound(l)) + 1):
            engine.homology(k, l)
    assert len(calls) == len(keys)
    # an order complex, which has no grading, reduces boundaries 0..4 once each
    complex_ = OrderComplex(circle_poset())
    calls.clear()
    for _ in range(2):
        for k in range(4):
            complex_.homology(k)
    assert len(calls) == 5


def test_homology_table_keeps_no_boundary_matrix(monkeypatch):
    # the Petersen table of the groups benchmark: each boundary is built
    # where it is reduced and dropped with it, so none stays in the cache,
    # and the table's traced peak stays under 6 MB (8.2 MB if every boundary
    # stays cached and the Smith form copies its whole input)
    module = importlib.import_module("magnitude.homology")
    calls = [0]
    snf = module.smith_normal_form

    def counted(*args, **kwargs):
        calls[0] += 1
        return snf(*args, **kwargs)

    monkeypatch.setattr(module, "smith_normal_form", counted)
    space = space_from_graph(builtin_graph("petersen"))
    tracemalloc.start()
    try:
        engine = MagnitudeHomology(space)
        keys = set()
        for l in realizable_grades(space, 5):
            for k in range(min(4, engine.degree_bound(l)) + 1):
                engine.homology(k, l)
                keys |= {("d", k, l), ("d", k + 1, l)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(isinstance(v, SparseMatrix) for v in engine._cache.values())
    assert {key for key in engine._cache if key[0] == "d"} == keys
    assert calls[0] == len(keys)
    assert peak < 6_000_000, peak


def test_lattice_quotient_reduce_representative_roundtrip():
    c5 = space_from_graph(builtin_graph("c5"))
    engine = MagnitudeHomology(c5)
    for (k, l) in ((1, 1), (2, 2), (2, 3), (3, 3)):
        quotient = engine.cohomology_quotient(k, l)
        for i in range(quotient.dim):
            coords = quotient.reduce(quotient.representative(i))
            assert coords == tuple(1 if j == i else 0 for j in range(quotient.dim))


def test_vector_of_lifts_every_class_of_a_torsion_quotient():
    """reduce(vector_of(c)) == c, torsion coordinates taken mod their orders,
    on Z^2 + Z/2 + Z/6 in a seeded random basis, with and without an
    outgoing map."""
    rng = random.Random(8)
    relations = [[2, 0], [0, 6], [0, 0], [0, 0], [0, 0]]  # the outgoing map reads row 4
    m, minv = (SparseMatrix.from_dense(x) for x in random_unimodular(5, rng))
    outgoing = SparseMatrix.from_dense([[0, 0, 0, 0, 1]]).matmul(minv)
    incoming = m.matmul(SparseMatrix.from_dense(relations))
    with_a = LatticeQuotient(outgoing, incoming, 5)
    m4 = SparseMatrix.from_dense(random_unimodular(4, rng)[0])
    incoming4 = m4.matmul(SparseMatrix.from_dense(relations[:4]))
    without_a = LatticeQuotient(SparseMatrix(0, 4), incoming4, 4)
    for quotient, b in ((with_a, incoming), (without_a, incoming4)):
        assert quotient.group == AbelianGroup(2, (2, 6))
        for c in range(b.ncols):  # every relation is the zero class
            assert quotient.reduce([b.entry(r, c) for r in range(b.nrows)]) == (0,) * quotient.dim
        for _ in range(25):
            coords = [rng.randrange(-9, 10) for _ in range(quotient.dim)]
            want = tuple(c % d if d else c for c, d in zip(coords, quotient.orders))
            assert quotient.reduce(quotient.vector_of(coords)) == want


def test_moore_spaces_carry_torsion_beyond_two():
    for p, points in ((2, 57), (3, 81), (4, 105)):
        engine = MagnitudeHomology(space_from_graph(moore_graph(p)))
        assert engine.space.n == points
        for k in (2, 4, 5):
            assert engine.homology(k, 4).is_trivial, (p, k)
        assert engine.homology(3, 4) == AbelianGroup(0, (p,))
        assert engine.cohomology(4, 4) == AbelianGroup(0, (p,))
        assert engine.uct_check(3, 4) and engine.uct_check(4, 4)
        quotient = engine.cohomology_quotient(4, 4)
        assert quotient.orders == [p]
        rep = quotient.representative(0)
        assert quotient.reduce(rep) == (1,)
        assert quotient.reduce([p * v for v in rep]) == (0,)
    # the Smith form meets the pivots 2 and 3, which the repair makes 1 and 6
    union = MagnitudeHomology(space_from_graph(moore_graph(2, 3)))
    assert union.space.n == 138
    assert union.homology(3, 4) == AbelianGroup(0, (6,))


def test_class_reduction_kills_coboundaries():
    rng = random.Random(2)
    c5 = space_from_graph(builtin_graph("c5"))
    engine = MagnitudeHomology(c5)
    quotient = engine.cohomology_quotient(2, 3)
    delta = engine.coboundary(1, 3)
    for _ in range(5):
        phi = [rng.randrange(-3, 4) for _ in range(delta.ncols)]
        cob = delta.matvec(phi)
        assert not any(quotient.reduce(cob))
        # adding a coboundary moves nothing at class level
        rep = quotient.representative(0)
        shifted = [a + b for a, b in zip(rep, cob)]
        assert quotient.reduce(shifted) == quotient.reduce(rep)


def test_diagonal_graphs_are_torsion_free():
    for name in ("p4", "k4", "k22"):
        space = space_from_graph(builtin_graph(name))
        engine = MagnitudeHomology(space)
        for l in range(5):
            for k in range(engine.degree_bound(l) + 1):
                assert engine.homology(k, l).torsion == ()
                assert engine.cohomology(k, l).torsion == ()


def test_equal_grades_name_one_block():
    engine = MagnitudeHomology(space_from_graph(builtin_graph("c5")), kmax=2, lmax=2)
    assert engine.simplices(1, 2) is engine.simplices(1, Fraction(4, 2))
    assert engine.index(2, Fraction(2)) is engine.index(2, 2)
    # a rational grade, named by Fractions in and out of lowest terms
    space = QuasiMetricSpace([[0, Fraction(3, 2)], [Fraction(3, 2), 0]])
    engine = MagnitudeHomology(space, kmax=1, lmax=Fraction(3, 2))
    half = engine.cohomology_quotient(1, Fraction(3, 2))
    assert engine.cohomology_quotient(1, Fraction(6, 4)) is half
    assert engine.simplices(1, Fraction(6, 4)) == [(0, 1), (1, 0)]
    assert engine.homology(1, 1.5) == AbelianGroup(2)
    # the truncation is checked on its own; a block lookup never checks it
    engine.check_bidegree(1, Fraction(3, 2))
    for k, l in ((2, 1), (1, 2), (1, Fraction(7, 4))):
        with pytest.raises(MissingBlock):
            engine.check_bidegree(k, l)
    assert engine.simplices(2, 3) == [(0, 1, 0), (1, 0, 1)]
