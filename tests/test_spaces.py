import random
from fractions import Fraction

import pytest

from magnitude.spaces import (
    AdjacentPair,
    Graph,
    InputError,
    InvalidSpace,
    QuasiMetricSpace,
    ZeroDistance,
    adjacent_pairs,
    builtin_graph,
    format_metric_csv,
    is_isometric,
    parse_graph_file,
    parse_metric_file,
    space_from_graph,
)

from samples import (
    BUILTIN_NAMES,
    random_connected_graph,
    random_digraph,
    random_rational_space,
    random_strongly_connected_digraph,
)


def floyd_warshall(n, weight):
    """Independent oracle for shortest paths."""
    d = [[None] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = Fraction(0)
    for (u, v), w in weight.items():
        if d[u][v] is None or w < d[u][v]:
            d[u][v] = Fraction(w)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] is None or d[k][j] is None:
                    continue
                via = d[i][k] + d[k][j]
                if d[i][j] is None or via < d[i][j]:
                    d[i][j] = via
    return d


def test_space_from_path_graph():
    s = space_from_graph(builtin_graph("p3"))
    assert s.d[0][2] == 2
    assert s.d[0][1] == 1


def test_disconnected_components_get_inf():
    s = space_from_graph(Graph.undirected(4, [(0, 1), (2, 3)]))
    assert s.d[0][2] is None
    assert s.d[3][1] is None


def test_directed_three_cycle_against_floyd_warshall():
    g = Graph.directed_graph(3, [(0, 1), (1, 2), (2, 0)])
    s = space_from_graph(g)
    oracle = floyd_warshall(3, {(0, 1): 1, (1, 2): 1, (2, 0): 1})
    assert [list(row) for row in s.d] == oracle
    assert s.d[0][1] == 1
    assert s.d[1][0] == 2


def test_shortest_path_metric_satisfies_triangle_inequality():
    rng = random.Random(11)
    for _ in range(25):
        g = random_connected_graph(rng, nmax=8)
        s = space_from_graph(g)  # the constructor checks exhaustively
        for i in range(s.n):
            for j in range(s.n):
                for k in range(s.n):
                    assert not s.d[i][k] > s.d[i][j] + s.d[j][k]


def test_adjacent_pairs_single_edge():
    s = space_from_graph(builtin_graph("p2"))
    pairs = adjacent_pairs(s)
    assert pairs == [
        AdjacentPair(0, 1, Fraction(1)),
        AdjacentPair(1, 0, Fraction(1)),
    ]


def test_adjacent_pairs_path_midpoint_witness():
    s = space_from_graph(builtin_graph("p3"))
    pairs = adjacent_pairs(s)
    assert len(pairs) == 4
    assert all(p.length == 1 for p in pairs)
    assert not any((p.x, p.y) == (0, 2) for p in pairs)


def brute_force_adjacent(space):
    out = []
    for x in range(space.n):
        for y in range(space.n):
            if x == y:
                continue
            d = space.d[x][y]
            if d is None or d == 0:
                continue
            witness = False
            for a in range(space.n):
                via = (space.d[x][a], space.d[a][y])
                if a != x and a != y and None not in via and sum(via) == d:
                    witness = True
            if not witness:
                out.append((x, y, d))
    return out


def test_adjacent_pairs_c5_brute_force():
    s = space_from_graph(builtin_graph("c5"))
    pairs = adjacent_pairs(s)
    oracle = brute_force_adjacent(s)
    assert [(p.x, p.y, p.length) for p in pairs] == oracle
    # every distance-2 pair has a geodesic midpoint, so only edges survive
    assert len(pairs) == 10
    assert all(p.length == 1 for p in pairs)


def test_adjacency_is_edge_recognition_on_graphs():
    rng = random.Random(3)
    for _ in range(20):
        g = random_connected_graph(rng)
        s = space_from_graph(g)
        got = {(p.x, p.y) for p in adjacent_pairs(s) if p.length == 1}
        assert got == set(g.edges)
        assert all(p.length == 1 for p in adjacent_pairs(s))


def test_adjacency_on_quasi_metrics_matches_brute_force():
    rng = random.Random(8)
    spaces = [random_rational_space(rng) for _ in range(10)]
    spaces += [random_rational_space(rng, nmax=7) for _ in range(150)]
    spaces += [space_from_graph(random_strongly_connected_digraph(rng)) for _ in range(50)]
    spaces += [QuasiMetricSpace(d) for d in (random_matrix(rng) for _ in range(400)) if refusal(d) is None]
    for s in spaces:
        assert [(p.x, p.y, p.length) for p in adjacent_pairs(s)] == brute_force_adjacent(s)


def test_is_isometric_basics():
    p3 = space_from_graph(builtin_graph("p3"))
    k3 = space_from_graph(builtin_graph("k3"))
    assert is_isometric(p3, p3)
    assert not is_isometric(p3, k3)
    c5 = space_from_graph(builtin_graph("c5"))
    relabeled = space_from_graph(Graph.undirected(5, [(1, 3), (3, 0), (0, 4), (4, 2), (2, 1)]))
    assert is_isometric(c5, relabeled)
    assert not is_isometric(p3, space_from_graph(builtin_graph("p4")))
    # unreachable pairs: a directed path, relabelled, and a directed star
    path = space_from_graph(Graph.directed_graph(3, [(0, 1), (1, 2)]))
    assert is_isometric(path, space_from_graph(Graph.directed_graph(3, [(2, 0), (0, 1)])))
    assert not is_isometric(path, space_from_graph(Graph.directed_graph(3, [(0, 1), (0, 2)])))


def test_is_isometric_is_an_equivalence():
    rng = random.Random(17)
    spaces = [space_from_graph(random_connected_graph(rng, nmax=5)) for _ in range(8)]
    spaces += [random_rational_space(rng, nmax=4) for _ in range(4)]
    for a in spaces:
        assert is_isometric(a, a)
        for b in spaces:
            assert is_isometric(a, b) == is_isometric(b, a)
    for a in spaces:
        for b in spaces:
            for c in spaces:
                if is_isometric(a, b) and is_isometric(b, c):
                    assert is_isometric(a, c)


def test_zero_distance_refused():
    with pytest.raises(ZeroDistance):
        QuasiMetricSpace([[0, 0], [0, 0]])
    # one zero direction suffices, and the first zero pair in row order is named
    for d, pair in (([[0, 1], [0, 0]], "1, 0"), ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], "0, 2")):
        with pytest.raises(ZeroDistance, match=f"^distinct points {pair} are at distance 0$"):
            QuasiMetricSpace(d)
    with pytest.raises(ZeroDistance):
        parse_metric_file("0,1\n0,0\n")


def test_invalid_matrices_rejected():
    with pytest.raises(InvalidSpace):
        QuasiMetricSpace([[1]])  # nonzero diagonal
    with pytest.raises(InvalidSpace):
        QuasiMetricSpace([[0, 1], [1, 0], [1, 1]])  # not square
    with pytest.raises(InvalidSpace):
        QuasiMetricSpace([[0, 1, 3], [1, 0, 1], [3, 1, 0]])  # triangle fails
    with pytest.raises(InvalidSpace, match=r"d\(0,2\) > d\(0,1\) \+ d\(1,2\)"):
        QuasiMetricSpace([[0, 1, None], [1, 0, 1], [1, 1, 0]])  # unreachable above a finite path
    half, third = Fraction(1, 2), Fraction(1, 3)
    with pytest.raises(InvalidSpace, match=r"d\(0,2\) > d\(0,1\) \+ d\(1,2\)"):
        QuasiMetricSpace([[0, half, 1], [half, 0, third], [1, third, 0]])  # 1 > 1/2 + 1/3


def test_directed_graph_asymmetry_allowed():
    g = Graph.directed_graph(2, [(0, 1)])
    s = space_from_graph(g)
    assert s.d[0][1] == 1
    assert s.d[1][0] is None


def test_graph_file_roundtrip(tmp_path):
    text = "4 undirected\n0 1\n1 2\n2 3\n"
    g = parse_graph_file(text)
    assert g.n == 4 and not g.directed
    assert (0, 1) in g.edges and (1, 0) in g.edges
    d = parse_graph_file("3 directed\n0 1\n1 2\n")
    assert d.directed and (0, 1) in d.edges and (1, 0) not in d.edges


def test_metric_csv_roundtrip():
    s = random_rational_space(random.Random(2))
    text = format_metric_csv(s)
    assert parse_metric_file(text) == s
    inf_text = "0,inf\ninf,0\n"
    t = parse_metric_file(inf_text)
    assert t.d[0][1] is None
    assert format_metric_csv(t) == inf_text


def test_builtin_names():
    assert builtin_graph("k3").n == 3 and len(builtin_graph("k3").edges) == 6
    assert builtin_graph("k22").n == 4  # complete bipartite, two digits
    assert builtin_graph("k23").n == 5
    assert builtin_graph("k10").n == 10  # digit 0 means complete on 10
    assert builtin_graph("petersen").n == 10
    assert builtin_graph("p5").n == 5
    with pytest.raises(InvalidSpace):
        builtin_graph("zzz")


def test_strongly_connected_digraphs_are_finite_everywhere():
    rng = random.Random(7)
    for _ in range(10):
        s = space_from_graph(random_strongly_connected_digraph(rng))
        assert all(s.d[i][j] is not None for i in range(s.n) for j in range(s.n))


def test_float_and_bool_entries_rejected():
    for entry in (0.1, 1.0, True):
        with pytest.raises(InvalidSpace, match=r"d\(0,1\) = "):
            QuasiMetricSpace([[0, entry], [1, 0]])
    # metric files are text, and the text 0.1 is exactly 1/10
    s = parse_metric_file("0,0.1\n0.1,0\n")
    assert s.d[0][1] == Fraction(1, 10) and s.den == 10


def test_negative_entry_is_input_error():
    for entry in (-1, Fraction(-1, 3)):
        with pytest.raises(InvalidSpace, match=r"d\(0,1\) = -1(/3)? is negative"):
            QuasiMetricSpace([[0, entry], [1, 0]])
    assert issubclass(InvalidSpace, InputError)
    with pytest.raises(InputError, match="^line 1: distances must be nonnegative, got -1$"):
        parse_metric_file("0,-1\n1,0\n")


def test_space_equality_does_not_depend_on_entry_type():
    for ints, text in (
        ([[0, 1, 2], [1, 0, 1], [2, 1, 0]], "0,1,2\n1,0,1\n2,1,0\n"),
        ([[0, 1, None], [None, 0, None], [None, 2, 0]], "0,1,inf\ninf,0,inf\ninf,2,0\n"),
    ):
        fractions = [[x if x is None else Fraction(x) for x in row] for row in ints]
        spaces = [QuasiMetricSpace(ints), QuasiMetricSpace(fractions), parse_metric_file(text)]
        for s in spaces:
            assert s == spaces[0] and hash(s) == hash(spaces[0])
            assert all(x is None or type(x) is Fraction for row in s.d for x in row)


def test_fraction_entries_are_kept_as_they_are():
    s = space_from_graph(builtin_graph("c5"))
    assert len({id(x) for row in s.d for x in row}) == 3  # one object per BFS level
    t = QuasiMetricSpace(s.d)
    assert all(x is y for a, b in zip(s.d, t.d) for x, y in zip(a, b))


def reference_refusal(d):
    """Oracle: the exhaustive validation over Fractions, in index order,
    written without any spaces.py helper; the refusal text, or None."""
    n = len(d)
    for i in range(n):
        for j in range(n):
            if d[i][j] is not None and d[i][j] < 0:
                return f"d({i},{j}) = {d[i][j]} is negative"
    for i in range(n):
        if d[i][i] != 0:
            return f"d({i},{i}) must be 0"
    for i in range(n):
        for j in range(n):
            if i != j and d[i][j] == 0:
                return f"distinct points {i}, {j} are at distance 0"
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if j == i or k == j or d[i][j] is None or d[j][k] is None:
                    continue
                if d[i][k] is None or d[i][k] > d[i][j] + d[j][k]:
                    return f"triangle inequality fails: d({i},{k}) > d({i},{j}) + d({j},{k})"
    return None


def refusal(d):
    try:
        QuasiMetricSpace(d)
    except InputError as exc:
        return str(exc)
    return None


def random_matrix(rng, ints=False):
    """A shortest-path closure of random rational (sometimes unreachable)
    entries, then up to two entries raised, lowered, made unreachable or
    zeroed, mostly keeping the space valid or failing one triangle.  With
    ints, every entry is an int and a raise or a lowering is by 1."""

    def draw():
        return rng.randrange(1, 9) if ints else Fraction(rng.randrange(1, 9), rng.choice((1, 2, 3)))

    n = rng.randrange(1, 8)
    d = [[None if rng.random() < 0.2 else draw() for _ in range(n)] for _ in range(n)]
    for i in range(n):
        d[i][i] = 0 if ints else Fraction(0)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] is not None and d[k][j] is not None:
                    via = d[i][k] + d[k][j]
                    if d[i][j] is None or via < d[i][j]:
                        d[i][j] = via
    for _ in range(rng.randrange(3)):
        i, j = rng.randrange(n), rng.randrange(n)
        if d[i][j] is None or (i == j and rng.random() < 0.8):
            continue
        d[i][j] = rng.choice((
            d[i][j] + (1 if ints else Fraction(1, rng.choice((1, 2, 6)))),
            d[i][j] - (1 if ints else Fraction(1, 6)),
            None,
            0,
            d[i][j] * 2,
        ))
        if ints:
            continue
        if rng.random() < 0.3 and d[i][j] is not None and d[i][j].denominator == 1:
            d[i][j] = int(d[i][j])  # ints and Fractions mix
    return d


def test_validation_matches_exhaustive_reference():
    # rational entries (some of them ints), then ints throughout, the form
    # in which a graph metric is built
    for seed, ints in ((20, False), (21, True)):
        rng = random.Random(seed)
        seen = dict.fromkeys(("accepted", "negative", "must be 0", "distance 0", "triangle"), 0)
        for _ in range(2500):
            d = random_matrix(rng, ints)
            assert not ints or all(x is None or type(x) is int for row in d for x in row)
            expected = reference_refusal(d)
            assert refusal(d) == expected, d
            seen[next((k for k in seen if k in (expected or "")), "accepted")] += 1
        other = 2500 - seen["accepted"] - seen["triangle"]
        assert min(seen["accepted"], seen["triangle"], other) > 100, (ints, seen)
        assert min(seen.values()) > 20, (ints, seen)  # every refusal is met


def test_graph_metric_equals_the_space_of_its_fraction_matrix():
    rng = random.Random(22)
    graphs = [builtin_graph(name) for name in BUILTIN_NAMES + ["k0", "k1", "icosahedron", "moore2"]]
    graphs += [random_connected_graph(rng) for _ in range(40)]
    graphs += [random_strongly_connected_digraph(rng) for _ in range(40)]
    digraphs = [random_digraph(rng) for _ in range(60)]
    graphs += digraphs
    unreachable = 0
    for g in graphs:
        s = space_from_graph(g)
        t = QuasiMetricSpace(floyd_warshall(g.n, {e: 1 for e in g.edges}))
        assert s.den == t.den == 1
        assert (s.n, s.units, s.steps, s.min_step) == (t.n, t.units, t.steps, t.min_step)
        assert [list(m.items()) for m in s.spheres] == [list(m.items()) for m in t.spheres]
        assert s.d == t.d and s == t and hash(s) == hash(t)
        unreachable += any(x is None for row in s.d for x in row)
    assert unreachable > 30 and any(g.n == 0 for g in graphs) and any(g.n == 1 for g in graphs)


def test_adjacency_lists_match_a_scan_of_the_edges():
    rng = random.Random(23)
    graphs = [builtin_graph(name) for name in BUILTIN_NAMES + ["k1", "icosahedron", "moore2"]]
    graphs += [random_strongly_connected_digraph(rng) for _ in range(30)]
    graphs += [random_digraph(rng) for _ in range(30)]
    for g in graphs:
        scan = tuple(tuple(sorted(v for (u, v) in g.edges if u == x)) for x in range(g.n))
        assert g.adjacency == scan


def test_first_failing_triple_behind_an_intermediate_point():
    # In index order (0, 2, 3) fails first, but 1 lies between 0 and 2, so
    # the triangle check skips the pair (0, 2) and first meets the failure
    # (1, 2, 3); the refusal still names the first triple in index order.
    d = [[0, 1, 2, 4], [1, 0, 1, 3], [2, 1, 0, 1], [4, 3, 1, 0]]
    assert reference_refusal(d) == "triangle inequality fails: d(0,3) > d(0,2) + d(2,3)"
    with pytest.raises(InvalidSpace, match=r"^triangle inequality fails: d\(0,3\) > d\(0,2\) \+ d\(2,3\)$"):
        QuasiMetricSpace(d)


def grid_graph(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols)]
    return Graph.undirected(rows * cols, edges)


def test_grid_metric_accepted_and_one_raised_entry_refused():
    rows, cols = 15, 20
    s = space_from_graph(grid_graph(rows, cols))
    for a in range(s.n):
        for b in range(s.n):
            assert s.d[a][b] == abs(a // cols - b // cols) + abs(a % cols - b % cols)
    assert QuasiMetricSpace(s.d) == s
    raised = [list(row) for row in s.d]
    raised[0][s.n - 1] += 1
    expected = reference_refusal(raised)
    assert expected == f"triangle inequality fails: d(0,{s.n - 1}) > d(0,1) + d(1,{s.n - 1})"
    assert refusal(raised) == expected

