"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Everything is exact integer/rational arithmetic, so every comparison below is
exact equality; there are no tolerances anywhere.
"""

import random
import time
from fractions import Fraction

import pytest

from magnitude.cli import main as cli_main
from magnitude.complexes import realizable_grades
from magnitude.cyclic import verify_gu_basis, verify_presentation
from magnitude.graph_algebra import diagonal_quotient, oracle_rank
from magnitude.homology import AbelianGroup, MagnitudeHomology
from magnitude.posets import (
    OrderComplex,
    antichain_poset,
    chain_poset,
    check_graded_commutativity,
    circle_poset,
)
from magnitude.recovery import recovery_roundtrip
from magnitude.ring import class_of, class_product, cycle_class_of, indicator_cochain, kronecker
from magnitude.series import euler_series, inversion_series
from magnitude.spaces import adjacent_pairs, builtin_graph, space_from_graph

from samples import (
    BUILTIN_NAMES,
    all_trees,
    random_connected_graph,
    random_rational_space,
    random_strongly_connected_digraph,
)


def report(number: int, ok: bool, text: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok


def builtin_spaces():
    return [(name, space_from_graph(builtin_graph(name))) for name in BUILTIN_NAMES]


def test_criterion_01_chain_axioms():
    start = time.time()
    checked = 0
    for name, space in builtin_spaces():
        engine = MagnitudeHomology(space)
        for l in realizable_grades(space, 5):
            top = engine.degree_bound(l)
            for k in range(1, top + 1):
                assert engine.boundary(k - 1, l).matmul(engine.boundary(k, l)).is_zero(), (name, k, l)
                assert engine.coboundary(k, l).matmul(engine.coboundary(k - 1, l)).is_zero(), (name, k, l)
                checked += 1
    elapsed = time.time() - start
    report(
        1,
        elapsed < 60,
        f"boundary and coboundary square to zero on {checked} blocks "
        f"of {len(BUILTIN_NAMES)} builtin graphs, l <= 5 ({elapsed:.1f}s < 60s)",
    )


def test_criterion_02_degree_zero_one_structure():
    rng = random.Random(202)
    spaces = builtin_spaces()
    spaces += [(f"random{i}", random_rational_space(rng, nmax=5)) for i in range(20)]
    for name, space in spaces:
        engine = MagnitudeHomology(space)
        assert engine.cohomology(0, 0) == AbelianGroup(space.n), name
        by_grade = {}
        for pair in adjacent_pairs(space):
            by_grade.setdefault(pair.length, []).append(pair)
        lmax = min(space.max_finite_distance(), Fraction(5))
        for l in realizable_grades(space, lmax):
            if l > 0:
                group = engine.cohomology(0, l)
                assert group.is_trivial, (name, l)
            degree_one = engine.cohomology(1, l)
            assert degree_one.rank == len(by_grade.get(l, [])), (name, l)
            assert degree_one.torsion == (), (name, l)
    report(2, True, f"MH^0/MH^1 structure on {len(spaces)} spaces (builtins + 20 random)")


def test_criterion_03_diagonal_families():
    cases = []
    for n in range(1, 7):
        for tree in all_trees(n):
            cases.append((f"tree{n}", tree, "tree", n))
    for n in range(1, 5):
        cases.append((f"k{n}", builtin_graph(f"k{n}"), "complete", n))
    cases.append(("k22", builtin_graph("k22"), "complete_bipartite", (2, 2)))
    cases.append(("k23", builtin_graph("k23"), "complete_bipartite", (2, 3)))
    for name, graph, family, params in cases:
        space = space_from_graph(graph)
        engine = MagnitudeHomology(space)
        for l in range(6):
            top = engine.degree_bound(l)
            for k in range(top + 1):
                if k != l:
                    assert engine.homology(k, l).is_trivial, (name, k, l)
        for k in range(6):
            expected = AbelianGroup(oracle_rank(family, params, k))
            assert diagonal_quotient(graph, k).group == expected, (name, k)
            assert engine.cohomology(k, k) == expected, (name, k)
    report(
        3,
        True,
        f"{len(cases)} diagonal graphs: off-diagonal blocks vanish (l <= 5) and "
        "oracle, path-algebra quotient and engine agree exactly (k <= 5)",
    )


def test_criterion_04_odd_cycles():
    start = time.time()
    ok5, fails5 = verify_gu_basis(5, 4)
    assert ok5, fails5[:5]
    ok7, fails7 = verify_gu_basis(7, 3)
    assert ok7, fails7[:5]
    engine = MagnitudeHomology(space_from_graph(builtin_graph("c5")))
    assert engine.homology(2, 2) == AbelianGroup(10)
    assert engine.homology(2, 3) == AbelianGroup(10)
    pok5, pfails5 = verify_presentation(5, 4)
    assert pok5, pfails5[:5]
    pok7, pfails7 = verify_presentation(7, 3)
    assert pok7, pfails7[:5]
    elapsed = time.time() - start
    report(
        4,
        elapsed < 300,
        "Gu basis, torsion-freeness, degree-2 blocks Z^10, all presentation "
        f"relations and <p_x,[y]> duality on C5 (k<=4) and C7 (k<=3) ({elapsed:.1f}s < 300s)",
    )


def test_criterion_05_noncommutativity_witness():
    for name, space in builtin_spaces():
        engine = MagnitudeHomology(space)
        x, y = sorted((p.x, p.y) for p in adjacent_pairs(space))[0]
        l = space.d[x][y] + space.d[y][x]
        a_xy = class_of(engine, indicator_cochain(engine, (x, y), space.d[x][y]))
        a_yx = class_of(engine, indicator_cochain(engine, (y, x), space.d[y][x]))
        chain = [0] * len(engine.simplices(2, l))
        chain[engine.index(2, l)[(x, y, x)]] = 1
        z = cycle_class_of(engine, chain, 2, l)
        assert kronecker(engine, class_product(engine, a_xy, a_yx), z) == 1, name
        assert kronecker(engine, class_product(engine, a_yx, a_xy), z) == 0, name
    report(
        5,
        True,
        "pairings <a_xy.a_yx,[(x,y,x)]> = 1 and <a_yx.a_xy,[(x,y,x)]> = 0 "
        f"witness noncommutativity on all {len(BUILTIN_NAMES)} builtins",
    )


@pytest.fixture(scope="module")
def roundtrip_spaces():
    rng = random.Random(606)
    spaces = []
    for i in range(50):
        spaces.append(("graph", space_from_graph(random_connected_graph(rng, nmax=7))))
    for i in range(20):
        spaces.append(("digraph", space_from_graph(random_strongly_connected_digraph(rng, nmax=6))))
    for i in range(20):
        spaces.append(("rational", random_rational_space(rng, nmax=5)))
    return spaces


def test_criterion_06_recovery_roundtrips(roundtrip_spaces):
    start = time.time()
    rng = random.Random(607)
    for i, (kind, space) in enumerate(roundtrip_spaces):
        seed = rng.randrange(1 << 30)
        assert recovery_roundtrip(space, scramble_seed=seed), (kind, i, seed)
    elapsed = time.time() - start
    report(
        6,
        True,
        "100% of 50 random connected graphs (n<=7), 20 strongly-connected "
        "digraphs (n<=6) and 20 rational quasi-metric spaces (n<=5) recovered "
        f"isometric from scrambled ring presentations ({elapsed:.1f}s)",
    )


def test_criterion_07_categorification(roundtrip_spaces):
    start = time.time()
    count = 0
    for name, space in builtin_spaces():
        assert euler_series(space, 5) == inversion_series(space, 5), name
        count += 1
    for kind, space in roundtrip_spaces:
        lmax = min(space.max_finite_distance(), Fraction(5))
        assert euler_series(space, lmax) == inversion_series(space, lmax), kind
        count += 1
    elapsed = time.time() - start
    report(
        7,
        True,
        f"euler series = inversion series exactly (lmax = 5) on {count} spaces "
        f"({elapsed:.1f}s)",
    )


def test_criterion_08_universal_coefficients(roundtrip_spaces):
    checked = 0
    for name, space in builtin_spaces():
        engine = MagnitudeHomology(space)
        for l in realizable_grades(space, 5):
            for k in range(engine.degree_bound(l) + 1):
                assert engine.uct_check(k, l), (name, k, l)
                checked += 1
    for kind, space in roundtrip_spaces:
        if kind != "digraph":
            continue
        engine = MagnitudeHomology(space)
        for l in realizable_grades(space, 3):
            for k in range(min(engine.degree_bound(l), 4) + 1):
                assert engine.uct_check(k, l), (kind, k, l)
                checked += 1
    report(8, True, f"universal-coefficient rank/torsion relations on {checked} blocks")


def test_criterion_09_poset_commutativity():
    posets = [("circle", circle_poset())]
    for n in range(1, 7):
        posets.append((f"chain{n}", chain_poset(n)))
        posets.append((f"antichain{n}", antichain_poset(n)))
    rng = random.Random(909)
    from samples import random_poset

    posets += [(f"random{i}", random_poset(rng, nmax=7)) for i in range(20)]
    for name, poset in posets:
        ok, failures = check_graded_commutativity(poset, 3)
        assert ok, (name, failures[:3])
    circle = OrderComplex(circle_poset())
    assert circle.cohomology(0) == AbelianGroup(1)
    assert circle.cohomology(1) == AbelianGroup(1)
    report(
        9,
        True,
        f"graded commutativity at class level on {len(posets)} posets (kmax = 3); "
        "circle poset cohomology is H^0 = Z, H^1 = Z",
    )


def test_criterion_10_cli_determinism(capsys, tmp_path):
    commands = [
        ["homology", "--graph", "c5", "--kmax", "3", "--lmax", "3", "--format", "tsv"],
        ["cohomology", "--graph", "k23", "--kmax", "3", "--lmax", "3"],
        ["ring", "--graph", "p3", "--kmax", "1", "--lmax", "2", "--seed", "9"],
        ["recover", "--graph", "c4", "--seed", "4"],
        ["verify", "cyclic", "--n", "5", "--kmax", "2"],
        ["verify", "series", "--graph", "k3", "--lmax", "4"],
        ["verify", "diagonal", "--graph", "p4", "--lmax", "3"],
        ["verify", "poset", "--poset", "circle", "--kmax", "2"],
        ["verify", "diagonal", "--graph", "k4", "--lmax", "3"],
        ["verify", "poset", "--poset", "circle"],
    ]
    for argv in commands:
        runs = []
        for _ in range(2):
            code = cli_main(list(argv))
            out = capsys.readouterr().out
            runs.append((code, out))
        assert runs[0] == runs[1], argv
    report(10, True, f"{len(commands)} CLI commands are byte-identical across repeated runs")
