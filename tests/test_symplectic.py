from fractions import Fraction

import pytest

from quantaequiv import rational_linalg as rl
from quantaequiv.symplectic import (
    CharacterSpec,
    LinearMapSpec,
    SpaceError,
    SymplecticSpace,
    compose_characters,
    darboux_basis,
    is_symplectic_map,
    standard_space,
    symplectic_form,
)


def test_standard_space_form_layout():
    sp = standard_space(2)
    assert sp.dim == 4
    assert sp.form[0][2] == 1 and sp.form[2][0] == -1
    assert sp.form[1][3] == 1 and sp.form[3][1] == -1
    assert sp.form[0][1] == 0


def test_standard_form_hand_value():
    # for n = 1: form((1,2), (3,4)) = 1*4 - 2*3 = -2
    sp = standard_space(1)
    assert symplectic_form(sp, [1, 2], [3, 4]) == Fraction(-2)


def test_form_antisymmetry_and_bilinearity():
    sp = standard_space(2)
    f = sp.vector([1, "1/2", 0, -2])
    g = sp.vector([0, 3, "2/3", 1])
    h = sp.vector([1, 1, 1, 1])
    assert symplectic_form(sp, f, g) == -symplectic_form(sp, g, f)
    assert symplectic_form(sp, f, f) == 0
    lhs = symplectic_form(sp, f, rl.vec_add(g, h))
    assert lhs == symplectic_form(sp, f, g) + symplectic_form(sp, f, h)


def test_space_validation():
    with pytest.raises(SpaceError):
        SymplecticSpace(3, rl.identity(3))
    with pytest.raises(SpaceError):
        SymplecticSpace(2, rl.matrix([[0, 1], [1, 0]]))  # symmetric
    with pytest.raises(SpaceError):
        SymplecticSpace(2, rl.matrix([[0, 0], [0, 0]]))  # degenerate


def test_diag_2_half_is_symplectic_diag_2_2_is_not():
    sp = standard_space(1)
    good = LinearMapSpec(rl.matrix([[2, 0], [0, "1/2"]]))
    bad = LinearMapSpec(rl.matrix([[2, 0], [0, 2]]))
    assert is_symplectic_map(good, sp, sp)
    assert not is_symplectic_map(bad, sp, sp)


def test_rotation_like_rational_symplectic_map():
    # [[3/5, -4/5], [4/5, 3/5]] has determinant 1, hence symplectic for n=1
    sp = standard_space(1)
    t = LinearMapSpec(rl.matrix([["3/5", "-4/5"], ["4/5", "3/5"]]))
    assert is_symplectic_map(t, sp, sp)


def test_compose_characters_matches_pointwise():
    t1 = LinearMapSpec(rl.matrix([[1, 1], [0, 1]]))
    chi1 = CharacterSpec((Fraction(1, 2), Fraction(0)))
    chi2 = CharacterSpec((Fraction(0), Fraction(1, 3)))
    chi = compose_characters(chi2, t1, chi1)
    for f in [(1, 0), (0, 1), (Fraction(1, 2), Fraction(3))]:
        f = rl.vector(f)
        # chi(f) = e^{i pi <theta, f>}: the composite phase is the sum of both
        expected = rl.dot(chi1.theta, f) + rl.dot(chi2.theta, t1.apply(f))
        assert rl.dot(chi.theta, f) == expected


def test_darboux_basis_standardizes_random_forms():
    import random

    rng = random.Random(7)
    for dim in (2, 4, 6):
        for _ in range(5):
            while True:
                entries = [[Fraction(0)] * dim for _ in range(dim)]
                for i in range(dim):
                    for j in range(i + 1, dim):
                        v = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                        entries[i][j] = v
                        entries[j][i] = -v
                m = tuple(tuple(r) for r in entries)
                if rl.det(m) != 0:
                    break
            space = SymplecticSpace(dim, m)
            b = darboux_basis(space)
            std = standard_space(dim // 2)
            pulled = rl.mat_mul(
                rl.transpose(b.matrix), rl.mat_mul(space.form, b.matrix)
            )
            assert pulled == std.form
            assert is_symplectic_map(b, std, space)


# --- the integer form identity against Fraction matrix products -------------


def reference_is_symplectic_map(t, dom, cod):
    # T^t . form_cod . T == form_dom by two Fraction mat_mul
    if t.dim_in != dom.dim or t.dim_out != cod.dim:
        return False
    m = t.matrix
    return rl.mat_mul(rl.transpose(m), rl.mat_mul(cod.form, m)) == dom.form


def _nudged(t, k):
    # the same map with one entry, picked by k, moved by 1/7
    rows = [list(r) for r in t.matrix]
    i, j = k % len(rows), (k // len(rows)) % len(rows[0])
    rows[i][j] += Fraction(1, 7)
    return LinearMapSpec(rl.matrix(rows))


def _agree(t, dom, cod):
    got = is_symplectic_map(t, dom, cod)
    assert got == reference_is_symplectic_map(t, dom, cod)
    return got


def test_form_identity_matches_reference_on_sampled_arrows():
    from quantaequiv.weyl_equivalence import sample_classical_arrows

    arrows = [a.payload for a in sample_classical_arrows(20260816, 100)]
    assert all(_agree(m.linear, m.dom.space, m.cod.space) for m in arrows)
    nudged = [_agree(_nudged(m.linear, k), m.dom.space, m.cod.space) for k, m in enumerate(arrows)]
    # a nudge on an entry whose cofactors vanish can keep the identity
    assert nudged.count(False) > 90


def test_form_identity_matches_reference_on_hand_cases():
    sp1, sp2 = standard_space(1), standard_space(2)
    # the doubling map scales the form by 4
    assert not _agree(LinearMapSpec(rl.matrix([[2, 0], [0, 2]])), sp1, sp1)
    # Q^2 -> Q^4, (x, y) -> (3/5 x, 0, 5/3 y, 0): not square, and symplectic
    embed = LinearMapSpec(rl.matrix([["3/5", 0], [0, 0], [0, "5/3"], [0, 0]]))
    assert _agree(embed, sp1, sp2)
    # nudges in the rows that pair with a zero row keep the identity
    assert {_agree(_nudged(embed, k), sp1, sp2) for k in range(8)} == {False, True}
    # shapes that do not fit the spaces
    assert not _agree(embed, sp2, sp1)
    assert not _agree(LinearMapSpec(rl.identity(2)), sp2, sp2)
    # forms with non-unit denominators: for 2x2 maps T^t J T = det(T) J
    dom = SymplecticSpace(2, rl.matrix([[0, "2/3"], ["-2/3", 0]]))
    cod = SymplecticSpace(2, rl.matrix([[0, "5/7"], ["-5/7", 0]]))
    assert _agree(LinearMapSpec(rl.matrix([["1/3", 0], [0, 2]])), dom, sp1)
    assert _agree(LinearMapSpec(rl.matrix([["7/4", 0], [0, "4/5"]])), sp1, cod)
    assert _agree(LinearMapSpec(rl.matrix([["14/15", "1/9"], [0, 1]])), dom, cod)
    assert not _agree(LinearMapSpec(rl.matrix([["14/15", "1/9"], [0, "9/10"]])), dom, cod)


# --- integer composition against Fraction matrix products --------------------


def _pool_payloads():
    from quantaequiv.weyl_equivalence import sample_classical_arrows

    return [a.payload for a in sample_classical_arrows(20260816, 100)]


def _composable_pairs(payloads, limit=400):
    pairs = [(m2, m1) for m2 in payloads for m1 in payloads if m1.cod == m2.dom]
    return pairs[:limit]


def test_compose_matches_mat_mul_reference_on_sampled_arrows():
    pairs = _composable_pairs(_pool_payloads())
    assert len(pairs) == 400
    for m2, m1 in pairs:
        got = m2.linear.compose(m1.linear)
        want = LinearMapSpec(rl.mat_mul(m2.linear.matrix, m1.linear.matrix))
        assert got == want and hash(got) == hash(want)
        assert all(type(e) is Fraction for row in got.matrix for e in row)
        # the stored integer form is the canonical one the constructor builds
        assert got.matrix_ints == want.matrix_ints == rl.integer_matrix(want.matrix)


def test_compose_characters_matches_mat_vec_reference_on_sampled_arrows():
    for m2, m1 in _composable_pairs(_pool_payloads()):
        got = compose_characters(m2.chi, m1.linear, m1.chi)
        pulled = rl.mat_vec(rl.transpose(m1.linear.matrix), m2.chi.theta)
        want = CharacterSpec(rl.vec_add(m1.chi.theta, pulled))
        assert got == want and hash(got) == hash(want)
        assert all(type(e) is Fraction for e in got.theta)


def test_compose_characters_refuses_mismatched_lengths():
    t = LinearMapSpec(rl.matrix([["3/5", 0], [0, 0], [0, "5/3"], [0, 0]]))
    chi2, chi4 = CharacterSpec((1, 2)), CharacterSpec((1, 2, 3, 4))
    assert compose_characters(chi4, t, chi2).theta == rl.vector(["8/5", 7])
    with pytest.raises(SpaceError):
        compose_characters(chi2, t, chi2)
    with pytest.raises(SpaceError):
        compose_characters(chi4, t, chi4)


def test_integer_forms_are_not_fields():
    sp = SymplecticSpace(2, rl.matrix([[0, "2/3"], ["-2/3", 0]]))
    assert sp.form_ints == (((0, 2), (-2, 0)), 3)
    assert sp == SymplecticSpace(2, ((0, Fraction(2, 3)), (Fraction(-2, 3), 0)))
    assert "form_ints" not in repr(sp)
    t = LinearMapSpec(rl.matrix([["1/2", 1], [0, 2]]))
    assert t.matrix_ints == (((1, 2), (0, 4)), 2)
    assert "matrix_ints" not in repr(t)
