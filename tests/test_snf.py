import copy
import random

from magnitude.complexes import realizable_grades
from magnitude.homology import MagnitudeHomology
from magnitude.snf import SparseMatrix, _Eliminator, invariant_factors, rank, smith_normal_form
from magnitude.spaces import builtin_graph, space_from_graph

from samples import hemicube_prism


def verify_decomposition(matrix):
    sm = smith_normal_form(matrix)
    v = sm.VT.transpose()
    assert sm.U.matmul(matrix).matmul(v) == sm.d_matrix()
    assert sm.U.matmul(sm.UinvT.transpose()) == SparseMatrix.identity(matrix.nrows)
    assert v.matmul(sm.Vinv) == SparseMatrix.identity(matrix.ncols)
    for a, b in zip(sm.diag, sm.diag[1:]):
        assert b % a == 0
    assert all(d > 0 for d in sm.diag)
    # a tracked transform does not depend on which others are tracked; each
    # need set the engine uses leaves one side of a transform pair untracked
    for need in (("V", "Vinv"), ("U", "Uinv"), ("U", "V")):
        part = smith_normal_form(matrix, need)
        assert part.diag == sm.diag
        for name, attr in (("U", "U"), ("Uinv", "UinvT"), ("V", "VT"), ("Vinv", "Vinv")):
            assert getattr(part, attr) == (getattr(sm, attr) if name in need else None), (need, name)
    return sm


def _peeled_core(matrix):
    """(number peeled, remaining rows) of the factors-only eliminator."""
    elim = _Eliminator(matrix, ())
    return elim.peeled, elim.rows


def test_spec_examples():
    assert verify_decomposition(SparseMatrix.from_dense([[2, 0], [0, 3]])).diag == [1, 6]
    assert verify_decomposition(SparseMatrix.from_dense([[0, 0], [0, 0]])).diag == []
    assert verify_decomposition(SparseMatrix.from_dense([[1, 0], [0, 1]])).diag == [1, 1]


def test_empty_shapes():
    for matrix in (SparseMatrix(0, 4), SparseMatrix(4, 0), SparseMatrix(0, 0), SparseMatrix(3, 3)):
        assert verify_decomposition(matrix).diag == []
        assert _peeled_core(matrix) == (0, {})
        assert invariant_factors(matrix) == []
        assert rank(matrix) == 0


def test_known_invariant_factors():
    assert invariant_factors(SparseMatrix.from_dense([[4, 0], [0, 6]])) == [2, 12]
    assert invariant_factors(SparseMatrix.from_dense([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])) == [2, 2, 156]


def test_random_matrices_reconstruct():
    rng = random.Random(0)
    for _ in range(150):
        m = rng.randrange(0, 7)
        n = rng.randrange(0, 7)
        dense = [
            [rng.randrange(-9, 10) if rng.random() < 0.6 else 0 for _ in range(n)]
            for _ in range(m)
        ]
        verify_decomposition(SparseMatrix.from_dense(dense))


def test_rank_matches_rational_rank():
    from fractions import Fraction

    rng = random.Random(1)
    for _ in range(40):
        m = rng.randrange(1, 6)
        n = rng.randrange(1, 6)
        dense = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        # plain rational elimination as oracle
        mat = [[Fraction(v) for v in row] for row in dense]
        r = 0
        for c in range(n):
            piv = next((i for i in range(r, m) if mat[i][c]), None)
            if piv is None:
                continue
            mat[r], mat[piv] = mat[piv], mat[r]
            for i in range(m):
                if i != r and mat[i][c]:
                    f = mat[i][c] / mat[r][c]
                    mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
            r += 1
        assert rank(SparseMatrix.from_dense(dense)) == r


def test_determinism():
    rng = random.Random(5)
    dense = [[rng.randrange(-6, 7) for _ in range(5)] for _ in range(6)]
    a = smith_normal_form(SparseMatrix.from_dense(dense))
    b = smith_normal_form(SparseMatrix.from_dense(dense))
    assert a.diag == b.diag
    assert a.U == b.U and a.VT == b.VT and a.Vinv == b.Vinv and a.UinvT == b.UinvT


# -- the unit-singleton peel, taken when no transform is tracked ------------


def test_peel_matches_transforms_path_on_random_sparse_matrices():
    # the transforms path never peels, so it is an independent reference
    rng = random.Random(7)
    for _ in range(300):
        m = rng.randrange(0, 9)
        n = rng.randrange(0, 9)
        density = rng.choice((0.15, 0.3, 0.5))
        dense = [
            [rng.choice((1, -1, 2, -2, 3)) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)
        ]
        matrix = SparseMatrix.from_dense(dense)
        diag = verify_decomposition(matrix).diag
        assert invariant_factors(matrix) == diag
        assert rank(matrix) == len(diag)
        core = _peeled_core(matrix)[1]
        # the peel is exhaustive: no unit is left alone in a row or column
        cols = {}
        for r, d in core.items():
            assert not (len(d) == 1 and abs(next(iter(d.values()))) == 1)
            for c, v in d.items():
                cols.setdefault(c, []).append(v)
        assert not any(len(vs) == 1 and abs(vs[0]) == 1 for vs in cols.values())


def test_peel_follows_a_chain_of_exposed_singletons():
    # rows i: e_i + e_{i+1}; only the last row starts as a singleton, and each
    # removal exposes the row above it
    n = 12
    dense = [[1 if c in (r, r + 1) else 0 for c in range(n)] for r in range(n)]
    matrix = SparseMatrix.from_dense(dense)
    assert _peeled_core(matrix) == (n, {})
    assert invariant_factors(matrix) == [1] * n
    # the same chain down the columns, with a column of 2s so that no row
    # starts as a singleton: only the column pass can take it
    dense = [[1 if r in (c, c + 1) else 0 for c in range(n)] + [2] for r in range(n)]
    matrix = SparseMatrix.from_dense(dense)
    assert not any(len(d) == 1 for d in matrix.rows.values())
    assert _peeled_core(matrix) == (n, {})
    assert invariant_factors(matrix) == verify_decomposition(matrix).diag == [1] * n
    assert rank(matrix) == n
    # column 0 is a unit singleton; dropping it with row 0 leaves a torsion core
    matrix = SparseMatrix.from_dense([[1, 1, 0], [0, 2, 0], [0, 0, 2]])
    assert _peeled_core(matrix) == (1, {1: {1: 2}, 2: {2: 2}})
    assert invariant_factors(matrix) == verify_decomposition(matrix).diag == [1, 2, 2]


def test_non_unit_singletons_are_not_peeled():
    matrix = SparseMatrix.from_dense([[2, 0], [0, 3]])
    assert _peeled_core(matrix) == (0, {0: {0: 2}, 1: {1: 3}})
    assert invariant_factors(matrix) == [1, 6]
    assert rank(matrix) == 2
    matrix = SparseMatrix.from_dense([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert _peeled_core(matrix)[0] == 1
    assert invariant_factors(matrix) == [1, 1, 6]


def test_peel_leaves_the_input_unmodified():
    rng = random.Random(11)
    for _ in range(50):
        dense = [[rng.choice((0, 0, 1, -1, 2)) for _ in range(6)] for _ in range(5)]
        matrix = SparseMatrix.from_dense(dense)
        before = copy.deepcopy(matrix.rows)
        invariant_factors(matrix)
        rank(matrix)
        assert matrix.rows == before and (matrix.nrows, matrix.ncols) == (5, 6)


def test_peel_on_the_engines_boundary_blocks():
    # every nonzero boundary block of Petersen to l = 4, C5 to l = 5 and the
    # directed hemi-cube box P2 to l = 6, whose d_{6,6} gives MH_{5,6} its
    # (Z/2)^2; the peel reads each block without changing it
    torsion = {}
    for graph, lmax in ((builtin_graph("petersen"), 4), (builtin_graph("c5"), 5), (hemicube_prism(), 6)):
        engine = MagnitudeHomology(space_from_graph(graph))
        for l in realizable_grades(engine.space, lmax):
            for k in range(1, engine.degree_bound(l) + 1):
                matrix = engine.boundary(k, l)
                if matrix.is_zero():
                    continue
                before = copy.deepcopy(matrix.rows)
                diag = verify_decomposition(matrix).diag
                assert invariant_factors(matrix) == diag
                peeled, core = _peeled_core(matrix)
                assert invariant_factors(SparseMatrix(matrix.nrows, matrix.ncols, core)) == diag[peeled:]
                assert matrix.rows == before
                torsion[(graph.n, k, l)] = [d for d in diag if d > 1]
    assert torsion[(30, 6, 6)] == [2, 2]


# -- the divisibility repair, recorded on the transforms alone ---------------


def test_repair_step_transforms_are_pinned():
    # each matrix runs exactly one repair step, on [2, 3], [4, 6] and
    # [2, 4, 78]; other but still valid transforms would move the class bases
    # and so the export bytes, which is why the exact transforms are pinned
    cases = (
        (
            [[2, 0], [0, 3]],
            [1, 6],
            {0: {0: -1, 1: 1}, 1: {0: -3, 1: 2}},
            {0: {0: 2, 1: 3}, 1: {0: -1, 1: -1}},
            {0: {0: 1, 1: 1}, 1: {1: -2, 0: -3}},
            {0: {0: -2, 1: 3}, 1: {1: 1, 0: -1}},
        ),
        (
            [[4, 0], [0, 6]],
            [2, 12],
            {0: {0: -1, 1: 1}, 1: {0: -3, 1: 2}},
            {0: {0: 2, 1: 3}, 1: {0: -1, 1: -1}},
            {0: {0: 1, 1: 1}, 1: {1: -2, 0: -3}},
            {0: {0: -2, 1: 3}, 1: {1: 1, 0: -1}},
        ),
        (
            [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
            [2, 2, 156],
            {0: {0: 1}, 1: {2: 13, 0: -68, 1: -1}, 2: {2: 27, 0: -141, 1: -2}},
            {0: {0: 1, 1: -3, 2: 5}, 1: {2: -2, 1: -27}, 2: {2: 1, 1: 13}},
            {0: {0: 1}, 1: {2: -3, 0: 4, 1: 1}, 2: {1: -38, 0: -150, 2: 113}},
            {0: {0: 1, 1: 2, 2: 2}, 1: {2: -38, 1: -113}, 2: {1: -3, 2: -1}},
        ),
    )
    for dense, diag, u, uinvt, vt, vinv in cases:
        sm = verify_decomposition(SparseMatrix.from_dense(dense))
        assert sm.diag == diag
        assert (sm.U.rows, sm.UinvT.rows, sm.VT.rows, sm.Vinv.rows) == (u, uinvt, vt, vinv)
        unrepaired = smith_normal_form(SparseMatrix.from_dense(dense), divisibility=False).diag
        assert unrepaired != diag



def test_migrated_pivot_transforms_are_pinned():
    # the second pivot popped here, 8 at (0, 0), migrates to 2 at (2, 2)
    # during the gcd chase, and the popped cell, still nonzero, is pushed back
    # as a candidate; without the push the decomposition is still valid, but
    # VT and Vinv differ
    dense = [
        [8, 24, 0, -10, -24, 24],
        [0, 12, 0, 0, -12, 12],
        [-36, 0, 10, 0, 20, 0],
        [0, -12, 0, 5, 12, -12],
    ]
    sm = verify_decomposition(SparseMatrix.from_dense(dense))
    assert sm.diag == [1, 2, 20, 120]
    assert sm.U.rows == {
        0: {3: 1},
        1: {0: 5, 2: 1, 3: 30},
        2: {0: -41, 1: -1, 2: -8, 3: -218},
        3: {0: -123, 1: -2, 2: -24, 3: -678},
    }
    assert sm.UinvT.rows == {
        0: {0: -2, 1: 24, 2: -20, 3: 1},
        1: {0: -8, 2: 41},
        2: {0: 2, 1: -3, 2: -10},
        3: {0: -1, 1: 1, 2: 5},
    }
    assert sm.VT.rows == {
        0: {1: 1, 3: 5, 4: -1},
        1: {0: -2, 2: 1},
        2: {0: 5, 1: -2, 2: -8, 3: -12, 4: 3},
        3: {0: -15, 1: 4, 2: 18, 3: 24, 4: -6},
        4: {1: -1, 2: 2, 4: -1},
        5: {1: -1, 5: 1},
    }
    assert sm.Vinv.rows == {
        0: {1: -12, 3: 5, 4: 12, 5: -12},
        1: {0: 2, 1: -120, 2: 5, 3: 50, 4: 130, 5: -120},
        2: {0: -2, 1: 81, 2: -4, 3: -34, 4: -89, 5: 81},
        3: {0: -1, 1: 43, 2: -2, 3: -18, 4: -47, 5: 43},
        4: {1: -3, 3: 1, 4: 2, 5: -3},
        5: {5: 1},
    }
