import pytest

from magnitude.graph_algebra import (
    diagonal_quotient,
    edge_paths,
    is_diagonal,
    oracle_rank,
    path_count,
    verify_diagonal_theorem,
)
from magnitude.homology import AbelianGroup, MagnitudeHomology
from magnitude.spaces import Graph, builtin_graph, icosahedral_graph, space_from_graph

from samples import all_trees


def test_path_counts():
    assert path_count(builtin_graph("k3"), 2) == 12
    # brute force: endpoints of the path have a single continuation
    assert edge_paths(builtin_graph("p3"), 2) == [
        (0, 1, 0), (0, 1, 2), (1, 0, 1), (1, 2, 1), (2, 1, 0), (2, 1, 2),
    ]
    assert path_count(builtin_graph("p3"), 2) == 6
    for name in ("p4", "c5", "k22"):
        assert path_count(builtin_graph(name), 0) == builtin_graph(name).n


def test_walk_count_formula_on_complete_graphs():
    for n in (2, 3, 4):
        for k in range(4):
            assert path_count(builtin_graph(f"k{n}"), k) == n * (n - 1) ** k


def test_diagonal_quotient_examples():
    assert diagonal_quotient(builtin_graph("p3"), 2).group == AbelianGroup(4)
    assert diagonal_quotient(builtin_graph("k3"), 3).group == AbelianGroup(24)
    assert diagonal_quotient(builtin_graph("c4"), 2).group == AbelianGroup(12)


def test_diagonal_quotient_on_digraphs():
    # a midpoint y of a distance-2 pair (x, z) needs the edges x -> y -> z
    graphs = (
        Graph.directed_graph(3, [(0, 1), (1, 2)]),
        Graph.directed_graph(3, [(0, 1), (1, 2), (2, 0)]),
        Graph.directed_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    )
    for g in graphs:
        engine = MagnitudeHomology(space_from_graph(g))
        for k in range(4):
            assert diagonal_quotient(g, k).group == engine.cohomology(k, k), (g.edges, k)


def test_surviving_paths_of_small_tree():
    quotient = diagonal_quotient(builtin_graph("p3"), 2)
    paths = edge_paths(builtin_graph("p3"), 2)
    survivors = [
        p for p in paths
        if any(quotient.reduce([1 if q == p else 0 for q in paths]))
    ]
    assert survivors == [(0, 1, 0), (1, 0, 1), (1, 2, 1), (2, 1, 2)]


def test_verify_diagonal_theorem_small():
    for name in ("p3", "p4", "c4", "c5", "k4", "k22"):
        ok, failures = verify_diagonal_theorem(builtin_graph(name), 3)
        assert ok, (name, failures)


def test_diagonal_theorem_on_all_small_trees():
    for tree in all_trees(5):
        ok, failures = verify_diagonal_theorem(tree, 4)
        assert ok, failures


def test_is_diagonal():
    assert is_diagonal(builtin_graph("k4"), 3) == (True, None)
    assert is_diagonal(builtin_graph("p5"), 4) == (True, None)
    verdict, witness = is_diagonal(builtin_graph("c5"), 3)
    assert not verdict and witness == "MH_{2,3} = Z^10"
    verdict, witness = is_diagonal(builtin_graph("c7"), 4)
    assert not verdict


def test_oracle_ranks():
    assert oracle_rank("tree", 4, 0) == 4
    assert oracle_rank("tree", 4, 3) == 6
    assert oracle_rank("complete", 3, 4) == 48
    assert oracle_rank("complete_bipartite", (2, 2), 2) == 12
    assert oracle_rank("complete_bipartite", (2, 2), 2) == diagonal_quotient(
        builtin_graph("c4"), 2
    ).group.rank
    with pytest.raises(ValueError):
        oracle_rank("wheel", 5, 1)


def test_three_way_agreement_on_families():
    cases = [
        ("tree", 5, "p5"),
        ("complete", 4, "k4"),
        ("complete_bipartite", (2, 3), "k23"),
    ]
    for family, params, name in cases:
        graph = builtin_graph(name)
        engine = MagnitudeHomology(space_from_graph(graph))
        for k in range(4):
            expected = oracle_rank(family, params, k)
            assert diagonal_quotient(graph, k).group == AbelianGroup(expected)
            assert engine.cohomology(k, k) == AbelianGroup(expected)


def test_icosahedron_quotient_structure():
    # the quotient theorem only; diagonality of the icosahedron stays unverified
    graph = icosahedral_graph()
    ok, failures = verify_diagonal_theorem(graph, 2)
    assert ok, failures
