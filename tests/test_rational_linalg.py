from fractions import Fraction

import pytest

from quantaequiv import rational_linalg as rl


def test_vector_coercion_exact():
    v = rl.vector([1, Fraction(1, 3), "-2/5"])
    assert v == (Fraction(1), Fraction(1, 3), Fraction(-2, 5))


def test_vector_rejects_floats():
    with pytest.raises(TypeError):
        rl.vector([0.5])


def test_matrix_vector_product():
    m = rl.matrix([[1, 2], [3, 4]])
    assert rl.mat_vec(m, rl.vector([1, 1])) == (Fraction(3), Fraction(7))


def test_matmul_against_hand_expansion():
    a = rl.matrix([[1, 2], [3, 4]])
    b = rl.matrix([["1/2", 0], [1, "1/3"]])
    # hand expansion: [[1/2 + 2, 2/3], [3/2 + 4, 4/3]]
    assert rl.mat_mul(a, b) == rl.matrix([["5/2", "2/3"], ["11/2", "4/3"]])


def test_det_and_inverse_roundtrip():
    m = rl.matrix([[2, 1, 0], [1, "1/2", 1], [0, 3, -1]])
    d = rl.det(m)
    assert d != 0
    inv = rl.inverse(m)
    assert rl.mat_mul(m, inv) == rl.identity(3)
    assert rl.mat_mul(inv, m) == rl.identity(3)


def test_det_singular():
    assert rl.det(rl.matrix([[1, 2], [2, 4]])) == 0
    with pytest.raises(ValueError):
        rl.inverse(rl.matrix([[1, 2], [2, 4]]))


def test_rank():
    assert rl.rank(rl.matrix([[1, 2], [2, 4]])) == 1
    assert rl.rank(rl.matrix([[1, 0], [0, 1]])) == 2
    assert rl.rank([(Fraction(0), Fraction(0))]) == 0


def test_row_space_basis_and_coordinates():
    vecs = [rl.vector([1, 2, 0]), rl.vector([2, 4, 0]), rl.vector([0, 0, 3])]
    basis = rl.row_space_basis(vecs)
    assert len(basis) == 2
    # each vector lies in the span: adding it to the basis keeps the rank
    for v in vecs:
        assert rl.rank(basis + [v]) == len(basis)
    assert rl.rank(basis + [rl.vector([0, 1, 0])]) == len(basis) + 1


def test_solve():
    m = rl.matrix([[1, 1], [1, -1]])
    x = rl.solve(m, rl.vector([3, 1]))
    assert x == (Fraction(2), Fraction(1))
