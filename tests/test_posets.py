import itertools
import random

import pytest

from magnitude.homology import AbelianGroup
from magnitude.posets import (
    FinitePoset,
    InvalidPoset,
    OrderComplex,
    antichain_poset,
    chain_poset,
    check_graded_commutativity,
    circle_poset,
    load_poset,
    moore_poset,
    parse_poset_file,
    poset_cup,
    unit_cochain,
)
from magnitude.snf import SparseMatrix, smith_normal_form

from samples import random_poset


def simplicial_cohomology(facets, k):
    """Independent generic oracle: cohomology of an abstract simplicial
    complex given by facets, built by subset closure and vertex deletion."""
    simplices = set()
    for facet in facets:
        for r in range(1, len(facet) + 1):
            for sub in itertools.combinations(sorted(facet), r):
                simplices.add(sub)
    by_dim = {}
    for s in sorted(simplices):
        by_dim.setdefault(len(s) - 1, []).append(s)
    for dim in by_dim:
        by_dim[dim].sort()

    def boundary(dim):
        rows = by_dim.get(dim - 1, [])
        cols = by_dim.get(dim, [])
        index = {s: i for i, s in enumerate(rows)}
        entries = {}
        for c, s in enumerate(cols):
            for i in range(len(s)):
                face = s[:i] + s[i + 1 :]
                if face:
                    entries.setdefault(index[face], {})[c] = (-1) ** i
        return SparseMatrix(len(rows), len(cols), entries)

    nk = len(by_dim.get(k, []))
    delta_k = boundary(k + 1).transpose()
    delta_km1 = boundary(k).transpose()
    rank_out = smith_normal_form(delta_k, need=(), divisibility=False).rank
    factors = smith_normal_form(delta_km1, need=(), divisibility=True).diag
    return AbelianGroup(nk - rank_out - len(factors), tuple(d for d in factors if d >= 2))


def test_poset_axioms_validated():
    with pytest.raises(InvalidPoset):
        FinitePoset([[True, True], [True, True]])  # antisymmetry
    with pytest.raises(InvalidPoset):
        FinitePoset([[False]])  # reflexivity
    with pytest.raises(InvalidPoset):
        FinitePoset([[True, True, False], [False, True, True], [False, False, True]])


def test_cover_relation_closure():
    poset = FinitePoset.from_cover_relations(3, [(0, 1), (1, 2)])
    assert poset.less(0, 2)
    assert not poset.less(2, 0)


def test_poset_file():
    poset = parse_poset_file("3\n0 < 1\n1 < 2\n")
    assert poset.less(0, 2)
    with pytest.raises(InvalidPoset):
        parse_poset_file("")
    with pytest.raises(ValueError):
        parse_poset_file("2\n0 > 1\n")


def test_load_poset_resolves_files_and_names(tmp_path):
    path = tmp_path / "chain.poset"
    path.write_text("3\n0 < 1\n1 < 2\n")
    assert load_poset(str(path)).leq == chain_poset(3).leq
    assert load_poset(" Circle ").leq == circle_poset().leq
    assert load_poset("chain4").leq == chain_poset(4).leq
    assert load_poset("antichain3").leq == antichain_poset(3).leq
    assert load_poset("moore2").leq == moore_poset(2).leq
    for name in ("chain", "antichainx", "torus"):
        with pytest.raises(InvalidPoset, match=f"unknown poset '{name}'"):
            load_poset(name)


def test_index_reversed_poset():
    # 2 < 1 < 0: the poset order disagrees with the vertex indices
    poset = FinitePoset.from_cover_relations(3, [(2, 1), (1, 0)])
    complex_ = OrderComplex(poset)
    assert complex_.simplices(2) == [(2, 1, 0)]
    assert complex_.homology(0) == AbelianGroup(1)
    assert complex_.homology(1).is_trivial
    ok, failures = check_graded_commutativity(poset, 2)
    assert ok, failures


def test_chain_poset_is_contractible():
    complex_ = OrderComplex(chain_poset(3))
    assert complex_.homology(0) == AbelianGroup(1)
    assert complex_.homology(1).is_trivial
    assert complex_.homology(2).is_trivial


def test_antichain_components():
    complex_ = OrderComplex(antichain_poset(4))
    assert complex_.homology(0) == AbelianGroup(4)
    assert complex_.homology(1).is_trivial


def test_circle_poset_is_a_circle():
    complex_ = OrderComplex(circle_poset())
    assert complex_.cohomology(0) == AbelianGroup(1)
    assert complex_.cohomology(1) == AbelianGroup(1)
    assert complex_.cohomology(2).is_trivial


def test_boundary_squares_to_zero():
    rng = random.Random(31)
    for _ in range(10):
        complex_ = OrderComplex(random_poset(rng))
        for k in range(2, 5):
            assert complex_.boundary(k - 1).matmul(complex_.boundary(k)).is_zero()


def test_against_generic_simplicial_oracle():
    rng = random.Random(13)
    posets = [circle_poset(), chain_poset(4), antichain_poset(3)]
    posets += [random_poset(rng, nmax=6) for _ in range(8)]
    for poset in posets:
        complex_ = OrderComplex(poset)
        maximal = [c for c in _all_chains(poset) if _is_maximal(poset, c)]
        if not maximal:
            continue
        for k in range(3):
            assert complex_.cohomology(k) == simplicial_cohomology(maximal, k)


def _all_chains(poset):
    out = []

    def extend(chain):
        if chain:
            out.append(tuple(chain))
        for x in range(poset.n):
            if not chain or poset.less(chain[-1], x):
                chain.append(x)
                extend(chain)
                chain.pop()

    extend([])
    return out


def _is_maximal(poset, chain):
    others = set(range(poset.n)) - set(chain)
    for x in others:
        augmented = set(chain) | {x}
        # elements of a chain are totally ordered; sort by the poset order
        ordered = sorted(augmented, key=lambda v: sum(poset.less(u, v) for u in augmented))
        if all(poset.less(a, b) for a, b in zip(ordered, ordered[1:])):
            return False
    return True


def test_unit_acts_as_identity():
    complex_ = OrderComplex(circle_poset())
    u = unit_cochain(complex_)
    xi = tuple(range(1, len(complex_.simplices(1)) + 1))
    assert poset_cup(complex_, 0, u, 1, xi) == xi
    assert poset_cup(complex_, 1, xi, 0, u) == xi


def test_degree_zero_products_are_pointwise():
    complex_ = OrderComplex(circle_poset())
    f = tuple(i % 2 for i in range(6))
    g = tuple(1 - (i % 2) for i in range(6))
    assert poset_cup(complex_, 0, f, 0, g) == tuple(a * b for a, b in zip(f, g))


def test_h1_generators_multiply_to_zero():
    # the circle poset has height 1: no strict 2-chains exist at all
    complex_ = OrderComplex(circle_poset())
    assert complex_.simplices(2) == []
    q1 = complex_.cohomology_quotient(1)
    xi = q1.representative(0)
    assert poset_cup(complex_, 1, xi, 1, xi) == ()


def test_graded_commutativity():
    ok, failures = check_graded_commutativity(circle_poset(), 2)
    assert ok, failures
    ok, failures = check_graded_commutativity(chain_poset(4), 3)
    assert ok, failures
    rng = random.Random(77)
    for _ in range(8):
        poset = random_poset(rng)
        ok, failures = check_graded_commutativity(poset, 3)
        assert ok, failures
