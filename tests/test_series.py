import importlib
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from magnitude import complexes
from magnitude.homology import MagnitudeHomology
from magnitude.ring import export_presentation
from magnitude.series import (
    GradedSeries,
    euler_series,
    inversion_series,
)
from magnitude.spaces import (
    Graph,
    QuasiMetricSpace,
    builtin_graph,
    space_from_graph,
)

from samples import random_rational_space, random_strongly_connected_digraph


def test_one_point_space():
    one = QuasiMetricSpace([[0]])
    series = euler_series(one, 5)
    assert series.coefficient(0) == 1 and len(series.coefficients) == 1
    assert inversion_series(one, 5) == series


def test_single_edge_geometric_series():
    # 2/(1+q) = 2 - 2q + 2q^2 - ...
    edge = space_from_graph(builtin_graph("p2"))
    series = euler_series(edge, 5)
    assert [series.coefficient(l) for l in range(6)] == [2, -2, 2, -2, 2, -2]
    assert euler_series(edge, 5) == inversion_series(edge, 5)


def test_complete_graph_closed_form():
    # n/(1+(n-1)q) = n * sum_j (-(n-1))^j q^j
    for n in (2, 3, 4):
        space = space_from_graph(builtin_graph(f"k{n}"))
        series = inversion_series(space, 4)
        for j in range(5):
            assert series.coefficient(j) == n * (-(n - 1)) ** j
        assert euler_series(space, 4) == series


def rank_sum_series(space, lmax) -> GradedSeries:
    """The Euler series summed over cohomology ranks, on euler_series' grades
    and degree range; the degree past the range must carry no simplex, which
    is what lets the coboundary ranks telescope away."""
    engine = MagnitudeHomology(space)
    coeffs = {}
    for l in complexes.realizable_grades(space, lmax):
        top = engine.degree_bound(l)
        assert not complexes.enumerate_simplices(space, top + 1, l), (l, top)
        coeffs[l] = sum((-1) ** k * engine.cohomology(k, l).rank for k in range(top + 1))
    return GradedSeries.from_dict(lmax, coeffs)


def seeded_spaces():
    """Random quasi-metric spaces and digraphs, the same draws on every call."""
    rng = random.Random(14)
    spaces = [random_rational_space(rng, nmax=4) for _ in range(3)]
    spaces += [space_from_graph(random_strongly_connected_digraph(rng, nmax=4)) for _ in range(2)]
    return spaces


def test_categorification_on_builtins():
    cases = [(name, 4) for name in ("p3", "p4", "c4", "c5", "k22")]
    # sizes beyond every table the engine's groups are checked on
    cases += [("petersen", 7), ("k33", 8)]
    for name, lmax in cases:
        space = space_from_graph(builtin_graph(name))
        assert euler_series(space, lmax) == inversion_series(space, lmax), name


def test_chain_counts_equal_the_rank_sum():
    cases = [(space_from_graph(builtin_graph(name)), 4) for name in ("p3", "p4", "c4", "c5", "k22")]
    cases.append((space_from_graph(builtin_graph("petersen")), 3))
    cases.append((space_from_graph(Graph.directed_graph(3, [(0, 1), (1, 2), (2, 0)])), 5))
    cases.append((space_from_graph(Graph.undirected(4, [(0, 1), (2, 3)])), 3))
    cases += [(space, lmax) for space in seeded_spaces() for lmax in (4, Fraction(5, 2), Fraction(7, 3))]
    for space, lmax in cases:
        assert euler_series(space, lmax) == rank_sum_series(space, lmax), (space.n, lmax)


def test_euler_series_builds_no_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Euler series built a matrix")

    monkeypatch.setattr(complexes, "boundary_matrix", refuse)
    # the package re-exports a function named homology over the module
    monkeypatch.setattr(importlib.import_module("magnitude.homology"), "smith_normal_form", refuse)
    c5 = space_from_graph(builtin_graph("c5"))
    assert euler_series(c5, 4) == inversion_series(c5, 4)


def test_negative_lmax_refused():
    p3 = space_from_graph(builtin_graph("p3"))
    for call in (
        lambda: euler_series(p3, -1),
        lambda: inversion_series(p3, -1),
        lambda: export_presentation(p3, 1, -1),
        lambda: inversion_series(p3, Fraction(-1, 2)),
    ):
        with pytest.raises(ValueError, match="negative"):
            call()


def test_directed_three_cycle():
    space = space_from_graph(Graph.directed_graph(3, [(0, 1), (1, 2), (2, 0)]))
    assert euler_series(space, 5) == inversion_series(space, 5)


def test_random_quasi_metric_spaces():
    # integer and fractional truncations
    for space in seeded_spaces():
        for lmax in (4, Fraction(5, 2), Fraction(7, 3)):
            assert euler_series(space, lmax) == inversion_series(space, lmax), lmax


def test_inversion_reads_only_the_public_matrix():
    """The oracle must not read the engine's integer form: with that form
    blanked, or with nothing but n and d, the series is unchanged."""
    rng = random.Random(3)
    for space in (space_from_graph(builtin_graph("c5")), random_rational_space(rng, nmax=4)):
        for lmax in (4, Fraction(7, 3)):
            want = inversion_series(space, lmax)
            blank = QuasiMetricSpace(space.d)
            for name in ("units", "den", "steps", "min_step"):
                object.__setattr__(blank, name, None)
            assert inversion_series(blank, lmax) == want
            assert inversion_series(SimpleNamespace(n=space.n, d=space.d), lmax) == want


def test_fractional_grades_appear():
    half = Fraction(1, 2)
    space = QuasiMetricSpace([[0, half], [half, 0]])
    series = inversion_series(space, 2)
    assert series.coefficient(half) == -2
    assert series.coefficient(1) == 2
    assert euler_series(space, 2) == series
    # 7/4 is no multiple of any distance's denominator: the truncation keeps
    # exactly the grades up to 3/2
    series = inversion_series(space, Fraction(7, 4))
    assert series.coefficients == ((0, 2), (half, -2), (1, 2), (3 * half, -2))
    assert euler_series(space, Fraction(7, 4)) == series


def test_diagonal_graphs_alternate():
    for name in ("p4", "k3", "k22"):
        space = space_from_graph(builtin_graph(name))
        engine = MagnitudeHomology(space)
        series = euler_series(space, 4)
        for l in range(5):
            assert series.coefficient(l) == (-1) ** l * engine.homology(l, l).rank


def test_infinite_distances_contribute_nothing():
    space = space_from_graph(Graph.undirected(4, [(0, 1), (2, 3)]))
    series = inversion_series(space, 3)
    # two disjoint edges: magnitude is additive, 2 * (2/(1+q))
    for l in range(4):
        assert series.coefficient(l) == 2 * 2 * (-1) ** l
    assert euler_series(space, 3) == inversion_series(space, 3)


def test_series_serialization():
    edge = space_from_graph(builtin_graph("p2"))
    series = euler_series(edge, 2)
    assert series.as_pairs() == [("0", 2), ("1", -2), ("2", 2)]
    assert GradedSeries.from_dict(2, {Fraction(0): 2, Fraction(1): -2, Fraction(2): 2}) == series
