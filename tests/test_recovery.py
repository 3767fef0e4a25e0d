import random
from fractions import Fraction

import pytest

from magnitude.homology import MagnitudeHomology
from magnitude.recovery import (
    NonUniqueGrade,
    NotSplit,
    adjacency_weights,
    primitive_idempotents,
    recover_space,
    recovery_roundtrip,
)
from magnitude.ring import Cochain, RingPresentation, class_of, export_presentation
from magnitude.spaces import (
    Graph,
    QuasiMetricSpace,
    adjacent_pairs,
    builtin_graph,
    is_isometric,
    space_from_graph,
)

from samples import (
    random_connected_graph,
    random_rational_space,
    random_strongly_connected_digraph,
)

B00 = (0, Fraction(0))


def test_idempotents_of_discrete_space():
    # three isolated points: the (0,0) ring is plainly diagonal Z^3
    discrete = space_from_graph(Graph.undirected(3, []))
    pres = export_presentation(discrete, 1, 1)
    idem = primitive_idempotents(pres)
    assert sorted(idem) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_idempotents_of_single_class():
    one = QuasiMetricSpace([[0]])
    pres = export_presentation(one, 1, 1)
    assert primitive_idempotents(pres) == [(1,)]


def test_idempotents_on_scrambled_basis():
    c5 = space_from_graph(builtin_graph("c5"))
    for seed in (1, 42):
        pres = export_presentation(c5, 1, 2, scramble_seed=seed)
        idem = primitive_idempotents(pres)
        assert len(idem) == 5
        for e in idem:
            _, sq = pres.mult(B00, list(e), B00, list(e))
            assert sq == list(e)


def test_empty_presentation_recovers_empty_space():
    pres = RingPresentation([], {}, {}, (), {})
    recovered = recover_space(pres)
    assert recovered.n == 0


# left images (2, 0, 0), (0, 2, 0), (1, 1, 0) of MH^1_1 = Z^2 + Z/2: the
# third is in the rational span of the first two but not in their integer span
DEPENDENT_LEFT = {(0, 0): (2, 0, 0), (0, 1): (0, 2, 0), (0, 2): (1, 1, 0)}


def _torsion_presentation():
    # synthetic bidegree with a torsion generator of order 3: products wrap
    bideg = (2, Fraction(2))
    # and one point pairing with itself in grade 1 only through its third
    # left image: g_0 . e = g_2 of order 2 reads column (1, 0, 0), and only
    # (1, 1, 0) . (1, 0, 0) = 1 is odd
    l1 = (1, Fraction(1))
    table = {
        (B00, B00): {(0, 0): (1,)},
        (B00, l1): DEPENDENT_LEFT,
        (l1, B00): {(0, 0): (0, 0, 1)},
        (B00, bideg): {(0, 0): (5,)},  # unit * t = 5t = 2t mod 3
    }
    return RingPresentation(
        [B00, l1, bideg],
        {B00: 1, l1: 2, bideg: 0},
        {B00: (), l1: (2,), bideg: (3,)},
        (1,),
        table,
    )


def test_presentation_mult_reduces_torsion_coordinates():
    _, out = _torsion_presentation().mult(B00, [1], (2, Fraction(2)), [1])
    assert out == [2]


def _full_walk_mult(pres, bideg_a, vec_a, bideg_b, vec_b):
    """Reference product: every entry of the pair's table, then reduction."""
    target = (bideg_a[0] + bideg_b[0], bideg_a[1] + bideg_b[1])
    if target not in pres.ranks:
        return target, None
    acc = [0] * pres.dim(target)
    for (i, j), coords in pres.table.get((bideg_a, bideg_b), {}).items():
        for t, v in enumerate(coords):
            acc[t] += vec_a[i] * vec_b[j] * v
    return target, [v % d if d else v for v, d in zip(acc, pres.orders(target))]


def test_mult_matches_a_full_walk_of_the_table():
    rng = random.Random(11)
    presentations = [_torsion_presentation()] + [
        export_presentation(space_from_graph(builtin_graph(name)), 2, 3, scramble_seed=seed)
        for name, seed in (("c5", 4), ("k23", 1))
    ]
    for pres in presentations:
        for ba in pres.bidegrees:
            for bb in pres.bidegrees:
                da, db = pres.dim(ba), pres.dim(bb)
                vectors = [([int(i == 0) for i in range(da)], [int(j == db - 1) for j in range(db)])]
                for _ in range(3):  # a sparse left factor, a dense right one
                    a = [rng.randrange(-3, 4) * (rng.random() < 0.3) for _ in range(da)]
                    vectors.append((a, [rng.randrange(-3, 4) for _ in range(db)]))
                for a, b in vectors:
                    assert pres.mult(ba, a, bb, b) == _full_walk_mult(pres, ba, a, bb, b)


def test_idempotents_of_z2_in_funny_basis():
    # Z^2 presented in basis g1 = da + db, g2 = db: the primitive
    # idempotents are da = (1, -1) and db = (0, 1)
    table = {
        (B00, B00): {
            (0, 0): (1, 0),  # g1*g1 = g1
            (0, 1): (0, 1),  # g1*g2 = g2
            (1, 0): (0, 1),
            (1, 1): (0, 1),
        }
    }
    pres = RingPresentation([B00], {B00: 2}, {B00: ()}, (1, 0), table)
    idem = primitive_idempotents(pres)
    assert sorted(idem) == [(0, 1), (1, -1)]


def test_c5_distance_two_pairs_are_inf_at_weight_stage():
    # no graph pair at distance >= 2 is adjacent (a geodesic midpoint always
    # witnesses d(x,z) = d(x,y) + d(y,z)), so the weight stage yields None
    # and the distance 2 only appears after the shortest-path closure
    c5 = space_from_graph(builtin_graph("c5"))
    pres = export_presentation(c5, 1, 2)
    idem = primitive_idempotents(pres)
    matrix = adjacency_weights(pres, idem)
    weights = [matrix[a][b] for a in range(5) for b in range(5) if a != b]
    assert sum(1 for w in weights if w == 1) == 10
    assert sum(1 for w in weights if w is None) == 10
    # a 1-simplex has two distinct endpoints, so no point pairs with itself
    assert all(matrix[a][a] is None for a in range(5))
    recovered = recover_space(pres)
    dists = sorted(
        recovered.d[i][j] for i in range(5) for j in range(5) if i != j
    )
    assert dists == [1] * 10 + [2] * 10


# rank-n rings on (0,0) that are not Z^n split by their unit: the products
# of basis pairs, zero when absent, and the declared unit
NON_SPLIT_RINGS = {
    "g^2 = 2g": ({(0, 0): (2,)}, (1,)),  # the generator is not idempotent
    "x^2 = x + 1": ({(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (1, 1)}, (1, 0)),
    "x^2 = 0": ({(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1)}, (1, 0)),
    "Z[C2]": ({(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (1, 0)}, (1, 0)),
    "Z[i]": ({(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (-1, 0)}, (1, 0)),
    # upper-triangular 2x2 integer matrices in the basis e11, e12, e22
    "T2(Z)": ({(0, 0): (1, 0, 0), (0, 1): (0, 1, 0), (1, 2): (0, 1, 0), (2, 2): (0, 0, 1)}, (1, 0, 1)),
    "Z x Z, unit (1, 0)": ({(0, 0): (1, 0), (1, 1): (0, 1)}, (1, 0)),
}


def test_not_split_on_corrupt_input():
    # the mod-2 refinement accepts any ring; the exact checks over Z must
    # refuse each of these
    for name, (pairs, unit) in NON_SPLIT_RINGS.items():
        pres = RingPresentation([B00], {B00: len(unit)}, {B00: ()}, unit, {(B00, B00): pairs})
        with pytest.raises(NotSplit):
            primitive_idempotents(pres)
            pytest.fail(name)


def test_not_split_refinement_stays_within_n_atoms(monkeypatch):
    # random 0/1 structure constants on Z^30: refined against the basis mod
    # 2, the atoms could double at each of the 30 steps; past n of them the
    # ring cannot be Z^n, so it is refused after at most n^2 products
    rng = random.Random(5)
    n = 30
    pairs = {(i, j): tuple(rng.randrange(2) for _ in range(n)) for i in range(n) for j in range(n)}
    unit = tuple(rng.randrange(2) for _ in range(n))
    pres = RingPresentation([B00], {B00: n}, {B00: ()}, unit, {(B00, B00): pairs})
    calls = []
    mult = pres.mult
    monkeypatch.setattr(pres, "mult", lambda *args: calls.append(args) or mult(*args))
    with pytest.raises(NotSplit, match="atoms mod 2"):
        primitive_idempotents(pres)
    assert len(calls) <= n * n


def test_adjacency_weights_edge_and_path():
    edge = space_from_graph(builtin_graph("p2"))
    pres = export_presentation(edge, 1, 1)
    assert adjacency_weights(pres, primitive_idempotents(pres))[0][1] == 1

    p3 = space_from_graph(builtin_graph("p3"))
    pres = export_presentation(p3, 1, 2)
    matrix = adjacency_weights(pres, primitive_idempotents(pres))
    weights = [matrix[a][b] for a in range(3) for b in range(3) if a != b]
    # 4 oriented edges at weight 1; the endpoints pair is None at this stage
    assert sorted(w for w in weights if w is not None) == [1] * 4
    assert weights.count(None) == 2


def test_non_unique_grade_rejected():
    # hand-built corrupt presentation: Z^1 idempotent ring with a degree-1
    # class pairing nontrivially in two different grades
    l1, l2 = Fraction(1), Fraction(2)
    bidegs = [B00, (1, l1), (1, l2)]
    ranks = {B00: 1, (1, l1): 1, (1, l2): 1}
    torsions = {b: () for b in bidegs}
    table = {
        (B00, B00): {(0, 0): (1,)},
        (B00, (1, l1)): {(0, 0): (1,)},
        ((1, l1), B00): {(0, 0): (1,)},
        (B00, (1, l2)): {(0, 0): (1,)},
        ((1, l2), B00): {(0, 0): (1,)},
    }
    pres = RingPresentation(bidegs, ranks, torsions, (1,), table)
    idem = primitive_idempotents(pres)
    with pytest.raises(NonUniqueGrade):
        adjacency_weights(pres, idem)
    # a point pairing with itself is corrupt even when the space has one point
    with pytest.raises(NonUniqueGrade, match="points 0 and 0 pair nontrivially in grades 1 and 2"):
        recover_space(pres)


def _pairwise_grades(pres, e, f):
    """Reference: the grades l with e . MH^1_l . f != 0, tested one basis
    element g_j of MH^1_l at a time as (e . g_j) . f."""
    found = []
    for l in pres.grades_in_degree(1):
        bideg = (1, l)
        d = pres.dim(bideg)
        for j in range(d):
            _, left = pres.mult(B00, list(e), bideg, [int(t == j) for t in range(d)])
            _, full = pres.mult(bideg, left, B00, list(f))
            if any(full):
                found.append(l)
                break
    return found


def _assert_matches_pairwise(pres):
    idem = primitive_idempotents(pres)
    matrix = adjacency_weights(pres, idem)
    for a, e in enumerate(idem):
        for b, f in enumerate(idem):
            found = _pairwise_grades(pres, e, f)
            assert len(found) <= 1
            assert matrix[a][b] == (found[0] if found else None)


def test_weight_matrix_matches_pairwise_reference():
    rng = random.Random(61)
    spaces = [space_from_graph(random_connected_graph(rng, nmax=6)) for _ in range(4)]
    spaces += [space_from_graph(random_strongly_connected_digraph(rng, nmax=5)) for _ in range(3)]
    spaces += [random_rational_space(rng, nmax=4) for _ in range(3)]
    # MH^1_1 of rank 30 and 60, read through scrambles that mix every basis
    spaces += [space_from_graph(builtin_graph(name)) for name in ("petersen", "icosahedron")]
    for seed, space in enumerate(spaces):
        _assert_matches_pairwise(
            export_presentation(space, 1, space.max_finite_distance(), scramble_seed=seed)
        )


def test_weight_matrix_reduces_torsion():
    # two points joined by a free class a = e0 . a . e1 and a class b of
    # order 3 with b = e1 . b . e0, in the basis g = a + b, t = b of
    # MH^1_1 = Z + Z/3; e0 . g = g + 2t, so e0 . g . e0 = t + 2t is zero
    # only after reducing mod 3
    l1 = (1, Fraction(1))
    table = {
        (B00, B00): {(0, 0): (1, 0), (1, 1): (0, 1)},
        (B00, l1): {(0, 0): (1, 2), (1, 0): (0, 1), (1, 1): (0, 1)},
        (l1, B00): {(0, 0): (0, 1), (0, 1): (1, 2), (1, 0): (0, 1)},
    }
    pres = RingPresentation([B00, l1], {B00: 2, l1: 1}, {B00: (), l1: (3,)}, (1, 1), table)
    _assert_matches_pairwise(pres)
    idem = primitive_idempotents(pres)
    e0, e1 = (next(a for a, e in enumerate(idem) if e == c) for c in ((1, 0), (0, 1)))
    matrix = adjacency_weights(pres, idem)
    assert matrix[e0][e1] == matrix[e1][e0] == 1
    assert matrix[e0][e0] is None and matrix[e1][e1] is None


@pytest.mark.parametrize(
    "right, adjacent",
    [
        ({(0, 1): (0, 0, 1)}, True),  # g_0 . e_1 = g_2: odd only against (1, 1, 0)
        ({(0, 1): (0, 0, 2)}, False),  # 2 g_2 = 0
        ({(0, 1): (1, 0, 0), (1, 1): (-1, 0, 0)}, True),  # a free column (1, -1, 0)
        ({(0, 1): (1, 0, 0), (1, 1): (1, 0, 0)}, True),  # every image hits the column (1, 1, 0)
    ],
)
def test_pair_test_on_rationally_dependent_left_images(right, adjacent):
    # two points; e_0's left images on MH^1_1 = Z^2 + Z/2 are dependent over
    # Q but not over Z, so the free coordinates may be tested on a rational
    # basis of them and the torsion coordinate on every one
    l1 = (1, Fraction(1))
    table = {
        (B00, B00): {(0, 0): (1, 0), (1, 1): (0, 1)},
        (B00, l1): DEPENDENT_LEFT,
        (l1, B00): right,
    }
    pres = RingPresentation([B00, l1], {B00: 2, l1: 2}, {B00: (), l1: (2,)}, (1, 1), table)
    _assert_matches_pairwise(pres)
    matrix = adjacency_weights(pres, [(1, 0), (0, 1)])
    assert matrix[0][1] == (1 if adjacent else None)
    assert [matrix[0][0], matrix[1][0], matrix[1][1]] == [None] * 3


def test_pair_test_keeps_the_only_torsion_witness():
    # the point pairs with itself through (1, 1, 0) alone: a rational basis
    # of its left images, (2, 0, 0) and (0, 2, 0), is even on the column
    pres = _torsion_presentation()
    _assert_matches_pairwise(pres)
    assert adjacency_weights(pres, [(1,)]) == [[1]]


def test_weight_matrix_mult_calls(monkeypatch):
    # the left images and right-action rows are read from the product tables
    c5 = space_from_graph(builtin_graph("c5"))
    pres = export_presentation(c5, 1, 2, scramble_seed=4)
    idem = primitive_idempotents(pres)
    calls = []
    mult = pres.mult
    monkeypatch.setattr(pres, "mult", lambda *args: calls.append(args) or mult(*args))
    adjacency_weights(pres, idem)
    assert calls == []


def test_recover_p3_two_hop_distance():
    p3 = space_from_graph(builtin_graph("p3"))
    pres = export_presentation(p3, 1, 2)
    recovered = recover_space(pres)
    assert is_isometric(p3, recovered)
    dists = sorted(
        recovered.d[i][j]
        for i in range(3)
        for j in range(3)
        if i != j
    )
    assert dists == [1, 1, 1, 1, 2, 2]


def test_recover_disconnected():
    space = space_from_graph(Graph.undirected(4, [(0, 1), (2, 3)]))
    recovered = recover_space(export_presentation(space, 1, 1))
    assert is_isometric(space, recovered)
    inf_count = sum(
        1
        for i in range(4)
        for j in range(4)
        if i != j and recovered.d[i][j] is None
    )
    assert inf_count == 8


def test_recover_directed_cycle_exactly():
    space = space_from_graph(Graph.directed_graph(3, [(0, 1), (1, 2), (2, 0)]))
    assert recovery_roundtrip(space, scramble_seed=9)


def test_scramble_invariance():
    c4 = space_from_graph(builtin_graph("c4"))
    rec = []
    for seed in (5, 6):
        pres = export_presentation(c4, 1, 2, scramble_seed=seed)
        rec.append(recover_space(pres))
    assert is_isometric(rec[0], rec[1])
    assert is_isometric(rec[0], c4)


def test_recovered_weights_match_after_matching_idempotents():
    space = random_rational_space(random.Random(33), nmax=4)
    pres = export_presentation(space, 1, space.max_finite_distance())
    engine = MagnitudeHomology(space)
    idem = primitive_idempotents(pres)
    matrix = adjacency_weights(pres, idem)
    # unscrambled export: e_x is the class of the x-indicator 0-cochain
    match = {}
    for x in range(space.n):
        coords = class_of(
            engine, Cochain(0, Fraction(0), tuple(1 if t == x else 0 for t in range(space.n)))
        ).coords
        match[x] = next(i for i, e in enumerate(idem) if e == coords)
    for pair in adjacent_pairs(space):
        got = matrix[match[pair.x]][match[pair.y]]
        assert got == pair.length


def test_roundtrip_sample():
    rng = random.Random(100)
    for i in range(6):
        graph = random_connected_graph(rng, nmax=6)
        assert recovery_roundtrip(space_from_graph(graph), scramble_seed=i)
    for i in range(3):
        digraph = random_strongly_connected_digraph(rng, nmax=5)
        assert recovery_roundtrip(space_from_graph(digraph), scramble_seed=i)
    for i in range(3):
        assert recovery_roundtrip(random_rational_space(rng, nmax=4), scramble_seed=i)


def test_roundtrip_icosahedron_scrambled():
    assert recovery_roundtrip(space_from_graph(builtin_graph("icosahedron")), scramble_seed=3)


def test_idempotent_count_equals_rank():
    rng = random.Random(55)
    for _ in range(3):
        space = random_rational_space(rng, nmax=5)
        pres = export_presentation(space, 1, 2, scramble_seed=7)
        assert len(primitive_idempotents(pres)) == space.n
