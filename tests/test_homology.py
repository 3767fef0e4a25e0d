import importlib
import random
from fractions import Fraction

import pytest

from magnitude.complexes import realizable_grades
from magnitude.homology import (
    AbelianGroup,
    LatticeQuotient,
    MagnitudeHomology,
    cohomology,
    homology,
    uct_check,
)
from magnitude.snf import SparseMatrix
from magnitude.spaces import builtin_graph, space_from_graph

from samples import random_rational_space, random_strongly_connected_digraph


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
    quotient = LatticeQuotient(None, SparseMatrix.from_dense([[2, 0], [0, 3]]), 2)
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


def test_homology_table_reduces_each_boundary_once(monkeypatch):
    module = importlib.import_module("magnitude.homology")  # the package re-exports homology()
    calls = []
    snf = module.smith_normal_form

    def counted(matrix, *args, **kwargs):
        calls.append(matrix)
        return snf(matrix, *args, **kwargs)

    monkeypatch.setattr(module, "smith_normal_form", counted)
    engine = MagnitudeHomology(space_from_graph(builtin_graph("c5")))
    keys = set()
    for _ in range(2):
        for l in realizable_grades(engine.space, 3):
            top = min(3, engine.degree_bound(l))
            for k in range(top + 1):
                engine.homology(k, l)
                keys |= {(l, k), (l, k + 1)}  # H_k reads the boundaries at k and k+1
    assert len(calls) == len(keys)


def test_lattice_quotient_reduce_representative_roundtrip():
    c5 = space_from_graph(builtin_graph("c5"))
    engine = MagnitudeHomology(c5)
    for (k, l) in ((1, 1), (2, 2), (2, 3), (3, 3)):
        quotient = engine.cohomology_quotient(k, l)
        for i in range(quotient.dim):
            coords = quotient.reduce(quotient.representative(i))
            assert coords == tuple(1 if j == i else 0 for j in range(quotient.dim))


def test_class_reduction_kills_coboundaries():
    rng = random.Random(2)
    c5 = space_from_graph(builtin_graph("c5"))
    engine = MagnitudeHomology(c5)
    quotient = engine.cohomology_quotient(2, 3)
    delta = engine.coboundary(1, 3)
    for _ in range(5):
        phi = [rng.randrange(-3, 4) for _ in range(delta.ncols)]
        cob = delta.matvec(phi)
        assert quotient.is_zero_class(cob)
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
