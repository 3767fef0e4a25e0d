import random

from magnitude.snf import SparseMatrix, invariant_factors, rank, smith_normal_form


def verify_decomposition(matrix):
    sm = smith_normal_form(matrix)
    v = sm.VT.transpose()
    assert sm.U.matmul(matrix).matmul(v) == sm.d_matrix()
    assert sm.U.matmul(sm.UinvT.transpose()) == SparseMatrix.identity(matrix.nrows)
    assert v.matmul(sm.Vinv) == SparseMatrix.identity(matrix.ncols)
    for a, b in zip(sm.diag, sm.diag[1:]):
        assert b % a == 0
    assert all(d > 0 for d in sm.diag)
    return sm


def test_spec_examples():
    assert verify_decomposition(SparseMatrix.from_dense([[2, 0], [0, 3]])).diag == [1, 6]
    assert verify_decomposition(SparseMatrix.from_dense([[0, 0], [0, 0]])).diag == []
    assert verify_decomposition(SparseMatrix.from_dense([[1, 0], [0, 1]])).diag == [1, 1]


def test_empty_shapes():
    assert verify_decomposition(SparseMatrix(0, 4)).diag == []
    assert verify_decomposition(SparseMatrix(4, 0)).diag == []
    assert verify_decomposition(SparseMatrix(0, 0)).diag == []


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
