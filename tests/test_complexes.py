import itertools
import random
from fractions import Fraction

import pytest

from magnitude.complexes import (
    boundary_matrix,
    count_simplices,
    enumerate_simplices,
    realizable_grades,
)
from magnitude.homology import MagnitudeHomology
from magnitude.spaces import (
    Graph,
    QuasiMetricSpace,
    builtin_graph,
    space_from_graph,
)

from samples import random_connected_graph, random_rational_space


def simplex_length(space, simplex):
    """Oracle: the sum of consecutive public distances, None when one of
    them is unreachable."""
    steps = [space.d[a][b] for a, b in zip(simplex, simplex[1:])]
    return None if None in steps else sum(steps, Fraction(0))


def brute_force_simplices(space, k, l):
    """Oracle: filter the full (k+1)-fold product."""
    out = []
    for tup in itertools.product(range(space.n), repeat=k + 1):
        if any(a == b for a, b in zip(tup, tup[1:])):
            continue
        if simplex_length(space, tup) == l:
            out.append(tup)
    return out


def test_enumerate_examples():
    edge = space_from_graph(builtin_graph("p2"))
    assert enumerate_simplices(edge, 2, 2) == [(0, 1, 0), (1, 0, 1)]
    k3 = space_from_graph(builtin_graph("k3"))
    assert len(enumerate_simplices(k3, 1, 1)) == 6
    c5 = space_from_graph(builtin_graph("c5"))
    got = enumerate_simplices(c5, 2, 3)
    assert len(got) == 40
    assert got == brute_force_simplices(c5, 2, 3)


def test_enumeration_matches_brute_force_on_random_spaces():
    rng = random.Random(4)
    for _ in range(6):
        space = random_rational_space(rng, nmax=4)
        for k in range(4):
            for l in realizable_grades(space, 6)[:6]:
                assert enumerate_simplices(space, k, l) == brute_force_simplices(space, k, l)
    # unreachable pairs: a digraph that is not strongly connected
    digraph = space_from_graph(Graph.directed_graph(4, [(0, 1), (1, 2), (2, 1), (3, 2)]))
    assert any(x is None for row in digraph.d for x in row)
    for k in range(4):
        for l in range(5):
            assert enumerate_simplices(digraph, k, l) == brute_force_simplices(digraph, k, l)
    # a grade that is not a multiple of 1/6 on a space with denominators 2 and 3
    third, sixth = Fraction(1, 3), Fraction(5, 6)
    mixed = QuasiMetricSpace([[0, Fraction(1, 2), sixth], [Fraction(1, 2), 0, third], [sixth, third, 0]])
    assert mixed.den == 6
    for k in range(4):
        for l in (Fraction(5, 4), Fraction(7, 12), Fraction(4, 3)):
            assert enumerate_simplices(mixed, k, l) == brute_force_simplices(mixed, k, l)
    assert enumerate_simplices(mixed, 2, Fraction(4, 3)) != []
    assert enumerate_simplices(mixed, 2, Fraction(5, 4)) == []


def long_steps(space, k, l):
    """The distances longer than l - (k-1) * least, which leave no room for
    the other k - 1 steps of a k-simplex of length l."""
    least = min(x for row in space.d for x in row if x)
    return [x for row in space.d for x in row if x and x > l - (k - 1) * least]


def test_enumeration_where_long_steps_leave_no_room():
    cases = []
    # mixed fractional weights: least 1/2, steps up to 11/6
    half, third = Fraction(1, 2), Fraction(1, 3)
    mixed = QuasiMetricSpace([
        [0, half, Fraction(5, 6), Fraction(4, 3)],
        [half, 0, third, Fraction(5, 6)],
        [Fraction(5, 6), third, 0, half],
        [Fraction(11, 6), Fraction(4, 3), 1, 0],
    ])
    cases += [(mixed, k, l) for k in (2, 3) for l in realizable_grades(mixed, 2)]
    # a digraph with unreachable pairs and a long way round
    digraph = space_from_graph(Graph.directed_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (2, 5)]))
    assert any(x is None for row in digraph.d for x in row)
    cases += [(digraph, k, l) for k in (2, 3, 4) for l in range(1, 6)]
    # k at the degree bound, where only least steps remain
    c7 = space_from_graph(builtin_graph("c7"))
    for space, lmax in ((mixed, Fraction(5, 3)), (c7, 4)):
        cases += [(space, MagnitudeHomology(space).degree_bound(l), l) for l in realizable_grades(space, lmax)[1:]]
    for space, k, l in cases:
        expected = brute_force_simplices(space, k, l)
        assert enumerate_simplices(space, k, l) == expected, (k, l)
        assert count_simplices(space, k, l) == len(expected)
    assert all(long_steps(space, k, l) for space, k, l in cases)
    assert sum(1 for space, k, l in cases if brute_force_simplices(space, k, l)) > 20


def test_count_equals_the_enumerated_block():
    rng = random.Random(12)
    spaces = [space_from_graph(builtin_graph(name)) for name in ("c5", "petersen")]
    spaces.append(space_from_graph(Graph.directed_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])))
    spaces.append(random_rational_space(rng, nmax=5))
    assert any(x.denominator > 1 for x in spaces[-1].d[0] + spaces[-1].d[1])
    for space in spaces:
        engine = MagnitudeHomology(space)
        for l in realizable_grades(space, 4):
            for k in range(engine.degree_bound(l) + 2):
                assert count_simplices(space, k, l) == len(enumerate_simplices(space, k, l)), (k, l)


def test_enumeration_is_lexicographic_and_deterministic():
    c5 = space_from_graph(builtin_graph("c5"))
    a = enumerate_simplices(c5, 3, 4)
    assert a == sorted(a)
    assert a == enumerate_simplices(c5, 3, 4)


def test_degree_bound_empty_blocks():
    c4 = space_from_graph(builtin_graph("c4"))
    assert enumerate_simplices(c4, 3, 2) == []
    assert enumerate_simplices(c4, 5, 3) == []


def test_boundary_examples():
    p3 = space_from_graph(builtin_graph("p3"))
    engine = MagnitudeHomology(p3)
    # k = 1: the interior sum is empty
    assert engine.boundary(1, 1).is_zero()
    # edge (a,b,a): dropping b fails the length test
    edge = space_from_graph(builtin_graph("p2"))
    assert boundary_matrix(edge, 2, 2, [(0, 1, 0)], {}).is_zero()
    # P3 (a,b,c): d(a,c) = 2 = 1 + 1, so the only face is -(a,c)
    faces = engine.index(1, 2)
    assert boundary_matrix(p3, 2, 2, [(0, 1, 2)], faces).rows == {faces[(0, 2)]: {0: -1}}
    m = boundary_matrix(p3, 2, 2, engine.simplices(2, 2), engine.index(1, 2))
    col = engine.index(2, 2)[(0, 1, 2)]
    assert m.entry(engine.index(1, 2)[(0, 2)], col) == -1


def test_boundary_squared_zero_exhaustive():
    rng = random.Random(9)
    spaces = [space_from_graph(builtin_graph(n)) for n in ("p4", "c5", "k4", "c7", "p7")]
    spaces += [space_from_graph(random_connected_graph(rng, nmax=7)) for _ in range(5)]
    spaces += [random_rational_space(rng, nmax=4) for _ in range(4)]
    for space in spaces:
        engine = MagnitudeHomology(space)
        for l in realizable_grades(space, 6):
            kmax = min(engine.degree_bound(l), 7)
            for k in range(2, kmax + 1):
                assert engine.boundary(k - 1, l).matmul(engine.boundary(k, l)).is_zero()


def test_coboundary_squared_zero():
    c5 = space_from_graph(builtin_graph("c5"))
    engine = MagnitudeHomology(c5)
    for l in range(5):
        for k in range(engine.degree_bound(l)):
            assert engine.coboundary(k + 1, l).matmul(engine.coboundary(k, l)).is_zero()


def test_realizable_grades():
    c4 = space_from_graph(builtin_graph("c4"))
    assert realizable_grades(c4, 3) == [0, 1, 2, 3]
    half = Fraction(3, 2)
    space = QuasiMetricSpace([[0, 1, half], [1, 0, 1], [half, 1, 0]])
    assert realizable_grades(space, 3) == [0, 1, half, 2, Fraction(5, 2), 3]
    one = QuasiMetricSpace([[0]])
    assert realizable_grades(one, 4) == [0]
    with pytest.raises(ValueError, match="negative"):
        realizable_grades(c4, -1)
