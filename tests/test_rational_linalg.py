from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantaequiv import rational_linalg as rl


# --- slow reference: one Fraction + and * per term ----------------------------


def reference_dot(u, v):
    if len(u) != len(v):
        raise ValueError("vector length mismatch")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def reference_mat_vec(m, v):
    return tuple(reference_dot(row, v) for row in m)


def reference_mat_mul(a, b):
    if not b:
        return ()
    bt = rl.transpose(b)
    return tuple(tuple(reference_dot(row, col) for col in bt) for row in a)


# ints and Fractions with zeros, negatives and denominators up to about 1e10
entries = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**10),
    st.sampled_from([0, Fraction(0), -1, Fraction(-1, 9999999967)]),
)
lengths = st.integers(min_value=0, max_value=6)


def vectors(n):
    return st.lists(entries, min_size=n, max_size=n).map(tuple)


def matrices(rows, cols):
    return st.lists(vectors(cols), min_size=rows, max_size=rows).map(tuple)


@settings(max_examples=200, deadline=None)
@given(lengths.flatmap(lambda n: st.tuples(vectors(n), vectors(n))))
def test_dot_matches_fraction_sum(uv):
    u, v = uv
    got = rl.dot(u, v)
    assert got == reference_dot(u, v)
    assert type(got) is Fraction


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(lengths, lengths).flatmap(
        lambda rc: st.tuples(matrices(*rc), vectors(rc[1]))
    )
)
def test_mat_vec_matches_row_dots(mv):
    m, v = mv
    got = rl.mat_vec(m, v)
    assert got == reference_mat_vec(m, v)
    assert all(type(e) is Fraction for e in got)


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(lengths, lengths).flatmap(
        lambda rc: st.tuples(matrices(*rc), vectors(rc[1]))
    )
)
def test_integer_scaling_is_exact_over_the_lcm(mv):
    m, v = mv
    rows, dm = rl.integer_matrix(m)
    nums, dv = rl.integer_vector(v)
    assert [[Fraction(x, dm) for x in row] for row in rows] == [list(row) for row in m]
    assert [Fraction(x, dv) for x in nums] == list(v)
    assert all(type(x) is int for x in nums) and all(type(x) is int for r in rows for x in r)
    assert dm == lcm(*[Fraction(e).denominator for row in m for e in row])
    assert dv == lcm(*[Fraction(e).denominator for e in v])


@settings(max_examples=50, deadline=None)
@given(
    st.tuples(lengths, lengths, lengths).flatmap(
        lambda rkc: st.tuples(matrices(rkc[0], rkc[1]), matrices(rkc[1], rkc[2]))
    )
)
def test_mat_mul_matches_row_column_dots(ab):
    a, b = ab
    got = rl.mat_mul(a, b)
    assert got == reference_mat_mul(a, b)
    assert all(type(e) is Fraction for row in got for e in row)


def reference_integer_product(a, b):
    # the per-row list comprehension integer_product replaced
    (ra, da), (rb, db) = a, b
    cols = list(zip(*rb))
    rows = [[sum([x * y for x, y in zip(row, col)]) for col in cols] for row in ra]
    d = da * db
    g = gcd(d, *[x for row in rows for x in row])
    return tuple(tuple(x // g for x in row) for row in rows), d // g


def int_forms(rows, cols):
    # (entries, d): ints with zeros, negatives and past 64 bits, d >= 1
    ints = st.one_of(st.integers(-9, 9), st.integers(-(2**80), 2**80))
    entries = st.lists(st.lists(ints, min_size=cols, max_size=cols).map(tuple),
                       min_size=rows, max_size=rows).map(tuple)
    return st.tuples(entries, st.integers(1, 10**6))


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(lengths, lengths, lengths).flatmap(
        lambda rkc: st.tuples(int_forms(rkc[0], rkc[1]), int_forms(rkc[1], rkc[2]))
    )
)
def test_integer_product_matches_the_row_comprehension(ab):
    got = rl.integer_product(*ab)
    assert got == reference_integer_product(*ab)
    rows, d = got
    assert type(d) is int and all(type(x) is int for row in rows for x in row)


def test_products_refuse_length_mismatch():
    with pytest.raises(ValueError):
        rl.dot(rl.vector([1, 2]), rl.vector([1]))
    with pytest.raises(ValueError):
        rl.mat_vec(rl.matrix([[1, 2], [3, 4]]), rl.vector([1, 2, 3]))
    with pytest.raises(ValueError):
        rl.mat_vec(((Fraction(1), Fraction(2)), (Fraction(3),)), rl.vector([1, 2]))
    b = rl.matrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        rl.mat_mul(rl.matrix([[1, 2, 3]]), b)
    with pytest.raises(ValueError):
        rl.mat_mul(((Fraction(1), Fraction(2)), (Fraction(1),)), b)


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


def test_full_rank_inverse_roundtrip():
    m = rl.matrix([[2, 1, 0], [1, "1/2", 1], [0, 3, -1]])
    assert len(rl.row_space_basis(m)) == 3
    inv = rl.inverse(m)
    assert rl.mat_mul(m, inv) == rl.identity(3)
    assert rl.mat_mul(inv, m) == rl.identity(3)


def test_singular_rank_and_inverse_refusal():
    assert len(rl.row_space_basis(rl.matrix([[1, 2], [2, 4]]))) == 1
    with pytest.raises(ValueError):
        rl.inverse(rl.matrix([[1, 2], [2, 4]]))


def reference_rank(rows):
    """Rank by plain Gaussian elimination over the rationals (test-local)."""
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][c] / rows[rank][c]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rank():
    # the rank is the size of a row-space basis
    for rows, rank in (
        (rl.matrix([[1, 2], [2, 4]]), 1),
        (rl.matrix([[1, 0], [0, 1]]), 2),
        ([(Fraction(0), Fraction(0))], 0),
    ):
        assert reference_rank(rows) == rank
        assert len(rl.row_space_basis(rows)) == rank


def test_row_space_basis_and_coordinates():
    vecs = [rl.vector([1, 2, 0]), rl.vector([2, 4, 0]), rl.vector([0, 0, 3])]
    basis = rl.row_space_basis(vecs)
    assert len(basis) == 2
    # each vector lies in the span: adding it to the basis keeps the rank
    for v in vecs:
        assert reference_rank(basis + [v]) == len(basis)
    assert reference_rank(basis + [rl.vector([0, 1, 0])]) == len(basis) + 1


def test_solve():
    m = rl.matrix([[1, 1], [1, -1]])
    rhs = rl.vector([3, 1])
    x = rl.mat_vec(rl.inverse(m), rhs)
    assert x == (Fraction(2), Fraction(1))
    assert rl.mat_vec(m, x) == rhs
