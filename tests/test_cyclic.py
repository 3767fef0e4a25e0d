import itertools
import re

import pytest

from magnitude.cyclic import (
    AdmissibleSimplex,
    CyclicRing,
    _generators,
    admissible_codes,
    admissible_simplices,
    code_of,
    half,
    is_admissible,
    monomial_of,
    pieces,
    reduce_word,
    simplex_of,
    verify_gu_basis,
    verify_presentation,
)
from magnitude.homology import MagnitudeHomology
from magnitude.spaces import space_from_graph, cycle_graph


def test_codes():
    assert code_of((0,), 5) == ()
    assert code_of((0, 1, 3), 5) == (1, 2)
    assert code_of((0, 4), 5) == (-1,)
    assert code_of((0, 3), 7) == (3,)
    assert simplex_of(0, (1, 2), 5) == (0, 1, 3)
    with pytest.raises(ValueError):
        half(4)
    with pytest.raises(ValueError):
        half(3)


def test_admissibility_examples():
    for m in (2, 3):
        assert is_admissible((1, m, 1, -1, 1, m), m)
        assert is_admissible((1, -1, 1, -1), m)
        assert not is_admissible((m, 1), m)
        assert not is_admissible((-1, -m, 1, 1, m), m)
        assert is_admissible((), m)


def test_admissible_code_enumeration_matches_filter():
    for m in (2, 3):
        for k in range(5):
            for l in range(k, k * m + 1):
                by_filter = sorted(
                    code
                    for code in itertools.product(
                        [i for i in range(-m, m + 1) if i], repeat=k
                    )
                    if sum(abs(i) for i in code) == l and is_admissible(code, m)
                )
                assert sorted(admissible_codes(m, k, l)) == by_filter


def test_low_degree_admissible_counts_on_c5():
    assert len(admissible_simplices(5, 0, 0)) == 5
    assert len(admissible_simplices(5, 1, 1)) == 10
    twos = admissible_simplices(5, 2, 2)
    assert len(twos) == 10 and all(a.simplex[0] == a.simplex[2] for a in twos)
    threes = admissible_simplices(5, 2, 3)
    assert len(threes) == 10


def test_piece_decomposition_and_monomial():
    code = (1, 2, 1, -1, 1, 2)
    assert pieces(code) == [(1, 2), (1,), (-1,), (1, 2)]
    adm = AdmissibleSimplex(simplex_of(0, code, 5), code)
    word = monomial_of(adm, 5)
    assert [t[0] for t in word] == ["b", "a", "a", "b"]
    assert word[0] == ("b", 0, 3)
    with pytest.raises(ValueError):
        monomial_of(AdmissibleSimplex((2,), ()), 5)
    assert monomial_of(AdmissibleSimplex((0, 1), (1,)), 5) == [("a", 0, 1)]
    assert monomial_of(AdmissibleSimplex((0, 1, 3), (1, 2)), 5) == [("b", 0, 3)]


def test_gu_basis_small():
    ok, failures = verify_gu_basis(5, 3)
    assert ok, failures


def test_gu_basis_names_a_simplex_that_is_no_cycle(monkeypatch):
    # (0, 1, 2, 3) has boundary (0, 1, 3) - (0, 2, 3) in C5; put in place of
    # an admissible simplex of its block, only the quotient's kernel test
    # can catch it
    import magnitude.cyclic as cyclic

    admissible = cyclic.admissible_simplices

    def with_a_non_cycle(n, k, l):
        out = admissible(n, k, l)
        if (k, l) == (3, 3):
            out[0] = AdmissibleSimplex((0, 1, 2, 3), (1, 1, 1))
        return out

    monkeypatch.setattr(cyclic, "admissible_simplices", with_a_non_cycle)
    ok, failures = verify_gu_basis(5, 3)
    assert not ok
    assert "(3,3): (0, 1, 2, 3) is not a cycle" in failures


def test_gu_rank_table_c5_degree2():
    engine = MagnitudeHomology(space_from_graph(cycle_graph(5)))
    for l in range(2, 5):
        expected = len(admissible_simplices(5, 2, l))
        assert engine.homology(2, l).rank == expected
    assert engine.homology(2, 2).rank == 10
    assert engine.homology(2, 3).rank == 10
    assert engine.homology(2, 4).rank == 0


def test_degenerate_pair_boundary_identity():
    # d(x,y',y,z) has boundary -(x,y,z) + (x,y',z) whenever (x,y,z) has code
    # (m,1) and y' is the (1,m) intermediate
    for n in (5, 7):
        m = half(n)
        space = space_from_graph(cycle_graph(n))
        engine = MagnitudeHomology(space)
        l = m + 1
        index2 = engine.index(2, l)
        for x in range(n):
            for s in (1, -1):
                y = (x + s * m) % n
                z = (y + s) % n
                yp = (x + s) % n
                chain = [0] * len(engine.simplices(3, l))
                chain[engine.index(3, l)[(x, yp, y, z)]] = 1
                got = engine.boundary(3, l).matvec(chain)
                want = [0] * len(index2)
                want[index2[(x, y, z)]] = -1
                want[index2[(x, yp, z)]] = 1
                assert got == want


def test_reduce_word_examples():
    assert reduce_word([("a", 0, 1), ("a", 1, 2)], 5) is None
    assert reduce_word([("a", 0, 1), ("a", 1, 0)], 5) == AdmissibleSimplex(
        (0, 1, 0), (1, -1)
    )
    assert reduce_word([("e", 0), ("a", 0, 1)], 5) == AdmissibleSimplex((0, 1), (1,))
    assert reduce_word([("e", 1), ("a", 0, 1)], 5) is None
    assert reduce_word([("e", 2), ("e", 2)], 5) == AdmissibleSimplex((2,), ())
    assert reduce_word([("a", 0, 1), ("e", 1)], 5) == AdmissibleSimplex((0, 1), (1,))
    assert reduce_word([("a", 0, 1), ("e", 0)], 5) is None
    # a then b of the same direction bubbles into b then a
    got = reduce_word([("a", 0, 1), ("b", 1, 4)], 5)
    assert got == AdmissibleSimplex((0, 1, 3, 4), (1, 2, 1))
    # a bad token raises even where the word is zero
    with pytest.raises(ValueError, match="empty word"):
        reduce_word([], 5)
    for bad in [("e", 7)], [("a", 5, 6)], [("a", 0, 2)], [("a", 0, 1), ("e", 3), ("b", 1, -2)]:
        with pytest.raises(ValueError, match=re.escape(str(bad[-1]))):
            reduce_word(bad, 5)


def _ab_generators(n):
    m = half(n)
    out = []
    for x in range(n):
        out.append(("a", x, (x + 1) % n))
        out.append(("a", x, (x - 1) % n))
        out.append(("b", x, (x + m + 1) % n))  # offset m+1: clockwise
        out.append(("b", x, (x + m) % n))  # offset m: anticlockwise
    return out


def _composable_words(n, max_length, start=None):
    generators = _ab_generators(n)
    for length in range(1, max_length + 1):
        for word in itertools.product(generators, repeat=length):
            if (start is None or word[0][1] == start) and all(
                a[2] == b[1] for a, b in zip(word, word[1:])
            ):
                yield list(word)


@pytest.mark.parametrize("n, max_length", [(5, 4), (7, 3), (9, 3)])
def test_every_word_reduces_to_zero_or_monomial(n, max_length):
    m = half(n)
    count = 0
    for word in _composable_words(n, max_length):
        count += 1
        reduced = reduce_word(word, n)
        if reduced is not None:
            assert is_admissible(reduced.code, m)
            # the monomial joins the word's ends in the word's bidegree
            assert (reduced.simplex[0], reduced.simplex[-1]) == (word[0][1], word[-1][2])
            kinds = [token[0] for token in word]
            assert reduced.k == len(word) + kinds.count("b")
            assert reduced.l == len(word) + m * kinds.count("b")
    # four generators leave each vertex
    assert count == n * sum(4**length for length in range(1, max_length + 1))


@pytest.mark.parametrize("n, max_length", [(5, 3), (7, 2)])
def test_word_reduction_agrees_with_engine_products(n, max_length):
    ring = CyclicRing(n)
    hand = [
        [("a", 0, 1), ("a", 1, 0)],
        [("a", 0, 1), ("a", 1, 2)],
        [("a", 0, 1), ("b", 1, 4)],
        [("b", 0, 3), ("a", 3, 4)],
        [("b", 0, 3), ("b", 3, 1)],
        [("a", 0, 1), ("a", 1, 0), ("a", 0, 1)],
        [("a", 0, 4), ("b", 4, 2)],
    ]
    every = list(_composable_words(n, max_length, start=0))
    assert len(every) == sum(4**length for length in range(1, max_length + 1))
    for word in (hand if n == 5 else []) + every:
        product = ring.word_class(word)
        reduced = reduce_word(word, n)
        if reduced is None:
            assert not any(product.coords), word
        else:
            # the product must pair as delta against the Gu basis at its bidegree
            assert (product.k, product.l) == (reduced.k, reduced.l), word
            adms = admissible_simplices(n, reduced.k, reduced.l)
            pairings = [ring.pair_with_simplex(product, a.simplex) for a in adms]
            assert pairings == [1 if a == reduced else 0 for a in adms], word


def test_presentation_small():
    ok, failures = verify_presentation(5, 2)
    assert ok, failures


def test_generator_table_refuses_other_tokens():
    ring = CyclicRing(5)
    for bad in ("x", 0, 3), ("e", 7), ("a", 5, 6), ("a", 0, 2), ["a", 0, 1]:
        message = re.escape(f"not a generator: {bad}")
        with pytest.raises(ValueError, match=message):
            ring.generator(bad)
        with pytest.raises(ValueError, match=message):
            ring.word_class([bad])
    with pytest.raises(ValueError, match="empty word"):
        ring.word_class([])
    with pytest.raises(ValueError, match=re.escape("not a generator: ['a', 0, 1]")):
        reduce_word([["a", 0, 1]], 5)


@pytest.mark.parametrize("n", [5, 7])
def test_each_generator_is_dual_to_its_normal_form(n):
    ring = CyclicRing(n)
    for token in _generators(n):
        own = reduce_word([token], n)
        cls = ring.generator(token)
        assert (cls.k, cls.l) == (own.k, own.l), token
        adms = admissible_simplices(n, own.k, own.l)
        pairings = [ring.pair_with_simplex(cls, a.simplex) for a in adms]
        assert pairings == [1 if a == own else 0 for a in adms], token


def test_presentation_catches_a_reversed_product(monkeypatch):
    import magnitude.cyclic as cyclic

    product = cyclic.class_product
    monkeypatch.setattr(cyclic, "class_product", lambda engine, x, y: product(engine, y, x))
    ok, failures = verify_presentation(5, 2)
    assert not ok and failures
