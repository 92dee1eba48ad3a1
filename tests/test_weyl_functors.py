import math
from fractions import Fraction

import pytest

from quantaequiv import rational_linalg as rl
from quantaequiv import harness, sampling, weyl_algebra, weyl_equivalence, weyl_functors
from quantaequiv.category import ArrowRecord
from quantaequiv.sampling import darboux_frame, make_rng, random_element
from quantaequiv.symplectic import (
    CharacterSpec,
    LinearMapSpec,
    SpaceError,
    darboux_basis,
    standard_space,
)
from quantaequiv.weyl_algebra import (
    AlgebraError,
    CoeffExpr,
    evaluate_at,
    involution,
    multiply,
    poisson_bracket,
    weyl_generator,
    weyl_unit,
)
from quantaequiv.weyl_equivalence import quantize_arrow_pool, sample_classical_arrows
from quantaequiv.weyl_functors import (
    ClassicalWeylObject,
    FunctorError,
    QuantWeylObject,
    WeylMorphismSpec,
    apply_morphism,
    classical_limit_morphism,
    classical_limit_object,
    compose_morphisms,
    dirac_defect,
    identity_morphism,
    k0_membership,
    poisson_morphism_check,
    quantize_morphism,
    quantize_object,
    rescale,
    rieffel_condition_check,
    scaling_check,
    smooth_check,
    von_neumann_defect,
)

SP1 = standard_space(1)
C1 = ClassicalWeylObject(SP1)
Q1 = QuantWeylObject(SP1)


def rotation_morphism(dom, cod, theta=(0, 0)):
    # quarter turn is symplectic for the standard form
    t = LinearMapSpec(rl.matrix([[0, -1], [1, 0]]))
    return WeylMorphismSpec(
        chi=CharacterSpec(tuple(Fraction(x) for x in theta)), linear=t, dom=dom, cod=cod
    )


def doubling_morphism(dom, cod):
    # scales the form by 4: the canonical bracket violator
    t = LinearMapSpec(rl.matrix([[2, 0], [0, 2]]))
    return WeylMorphismSpec(
        chi=CharacterSpec((Fraction(0), Fraction(0))), linear=t, dom=dom, cod=cod
    )


# --- objects and element-level action ----------------------------------------


def test_object_round_trips():
    assert quantize_object(C1) == Q1
    assert classical_limit_object(Q1) == C1
    assert classical_limit_object(quantize_object(C1)) == C1


def test_quantize_element_is_a_retag():
    # quantization is the rescaling out of the classical fiber
    a = evaluate_at(weyl_generator(SP1, [1, 0]), 0)
    q = rescale(a, 0, Fraction(1, 2))
    assert q.hbar == Fraction(1, 2)
    assert q.terms == a.terms
    assert rescale(a, 0, 0) == a
    # every zero names the one classical fiber object that evaluate_at pins to
    for zero in (0, 0.0, Fraction(0), Fraction(0, 7)):
        assert rescale(a, zero, zero).hbar is a.hbar


def test_apply_character_sign_flip():
    m = WeylMorphismSpec(
        chi=CharacterSpec((Fraction(1), Fraction(0))),
        linear=LinearMapSpec(rl.identity(2)),
        dom=C1,
        cod=C1,
    )
    a = evaluate_at(weyl_generator(SP1, [1, 0]), 0)
    image = apply_morphism(m, a)
    assert image.terms[SP1.vector([1, 0])] == CoeffExpr.gaussian(-1)


def test_apply_identity_fixes_everything():
    m = identity_morphism(C1)
    s = weyl_generator(SP1, [1, 2]) + weyl_generator(SP1, ["1/2", -1])
    assert apply_morphism(m, s) == s


def test_apply_morphism_is_multiplicative_at_one():
    m = rotation_morphism(Q1, Q1, theta=("1/3", "-1/2"))
    f = rescale(evaluate_at(weyl_generator(SP1, [1, 0]), 0), 0, 1)
    g = rescale(evaluate_at(weyl_generator(SP1, [0, 1]), 0), 0, 1)
    assert apply_morphism(m, multiply(f, g)) == multiply(
        apply_morphism(m, f), apply_morphism(m, g)
    )


def test_apply_morphism_space_mismatch():
    m = identity_morphism(C1)
    sp2 = standard_space(2)
    with pytest.raises(AlgebraError):
        apply_morphism(m, evaluate_at(weyl_generator(sp2, [1, 0, 0, 0]), 0))


# --- rescaling ----------------------------------------------------------------


def test_rescale_identity_and_inverse():
    a = rescale(evaluate_at(weyl_generator(SP1, [1, 0]), 0), 0, 1)
    assert rescale(a, 1, 1) == a
    assert rescale(rescale(a, 1, Fraction(1, 2)), Fraction(1, 2), 1) == a


def test_rescale_moves_scaled_generator():
    c = CoeffExpr.gaussian(2, -1)
    a = weyl_generator(SP1, [1, 0], hbar=1).scale_coeff(c)
    b = rescale(a, 1, Fraction(1, 2))
    assert b.hbar == Fraction(1, 2)
    assert b.terms[SP1.vector([1, 0])] == c


def test_rescale_rejects_untagged_and_mismatched():
    sym = weyl_generator(SP1, [1, 0])
    with pytest.raises(FunctorError):
        rescale(sym, 1, Fraction(1, 2))
    pinned = evaluate_at(sym, Fraction(1, 4))
    with pytest.raises(FunctorError):
        rescale(pinned, Fraction(1, 2), 1)


def test_rescale_does_not_commute_with_multiplication():
    # quantization is not multiplicative: the twist lives at its own fiber
    f0 = evaluate_at(weyl_generator(SP1, [1, 0]), 0)
    g0 = evaluate_at(weyl_generator(SP1, [0, 1]), 0)
    lhs = multiply(rescale(f0, 0, 1), rescale(g0, 0, 1))
    rhs = rescale(multiply(f0, g0), 0, 1)
    assert lhs != rhs


# --- checks -------------------------------------------------------------------


def test_smooth_check_accepts_morphisms_and_flags_corruption():
    assert smooth_check(rotation_morphism(Q1, Q1))
    assert smooth_check(identity_morphism(Q1))
    # shapes are validated in __post_init__, so corrupt a spec past it
    wide = identity_morphism(Q1)
    object.__setattr__(wide, "linear", LinearMapSpec(rl.matrix([[1, 0, 0], [0, 1, 0]])))
    assert not smooth_check(wide)
    tall = identity_morphism(Q1)
    object.__setattr__(tall, "linear", LinearMapSpec(rl.matrix([[1, 0], [0, 1], [0, 0]])))
    assert not smooth_check(tall)


def test_scaling_check_symplectic_passes():
    assert scaling_check(rotation_morphism(Q1, Q1, theta=("1/5", 1)), 1, Fraction(1, 2))
    assert scaling_check(identity_morphism(Q1), Fraction(1, 4), Fraction(3, 4))


def test_scaling_check_form_violator_fails():
    assert not scaling_check(doubling_morphism(Q1, Q1), 1, Fraction(1, 2))


def test_poisson_check():
    assert poisson_morphism_check(rotation_morphism(C1, C1, theta=(1, "1/2")))
    assert poisson_morphism_check(identity_morphism(C1))
    assert not poisson_morphism_check(doubling_morphism(C1, C1))


# --- element-level reference for the form identity ---------------------------


def _basis(space):
    return list(rl.identity(space.dim))


def _element_level_poisson(m):
    """Bracket preservation on basis generator pairs, by element arithmetic."""
    gens = [evaluate_at(weyl_generator(m.dom.space, f), 0) for f in _basis(m.dom.space)]
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            lhs = apply_morphism(m, poisson_bracket(a, b))
            if lhs != poisson_bracket(apply_morphism(m, a), apply_morphism(m, b)):
                return False
    return True


def _element_level_scaling(m, hbar, hbar2):
    """The scaling condition on basis generators, by element arithmetic.

    At fiber hbar2 the images must survive conjugation by the rescaling to
    hbar, commute with the involution, and preserve every product of two
    generators.
    """
    space = m.dom.space
    gens = [rescale(evaluate_at(weyl_generator(space, f), 0), 0, hbar2) for f in _basis(space)]
    for a in gens:
        image = apply_morphism(m, a)
        if rescale(apply_morphism(m, rescale(a, hbar2, hbar)), hbar, hbar2) != image:
            return False
        if involution(image) != apply_morphism(m, involution(a)):
            return False
    for i, a in enumerate(gens):
        for b in gens[i:]:
            if apply_morphism(m, multiply(a, b)) != multiply(
                apply_morphism(m, a), apply_morphism(m, b)
            ):
                return False
    return True


def _perturbed(m):
    # Nudging T[0][j] by e moves row j of T^t . form_cod . T by e * r off the
    # diagonal, r being row 0 of form_cod . T; j is picked next to a nonzero
    # entry of r, so the nudged map never preserves the forms.
    r = rl.mat_mul(m.cod.space.form, m.linear.matrix)[0]
    j = (next(k for k, e in enumerate(r) if e != 0) + 1) % len(r)
    rows = [list(row) for row in m.linear.matrix]
    rows[0][j] += Fraction(1, 7)
    return WeylMorphismSpec(chi=m.chi, linear=LinearMapSpec(rows), dom=m.dom, cod=m.cod)


@pytest.fixture(scope="module")
def sampled_pools():
    arrows = sample_classical_arrows(20260816, 100)
    return arrows, quantize_arrow_pool(arrows)


def test_identity_path_agrees_with_element_level_checks(sampled_pools):
    arrows, quantized = sampled_pools
    for record in arrows:
        m = record.payload
        assert poisson_morphism_check(m) is True
        assert _element_level_poisson(m) is True
        bad = _perturbed(m)
        assert poisson_morphism_check(bad) is _element_level_poisson(bad) is False
    for record in quantized:
        q = record.payload
        assert scaling_check(q, 1, "1/2") is True
        assert _element_level_scaling(q, 1, "1/2") is True
        bad = _perturbed(q)
        assert scaling_check(bad, 1, "1/2") is _element_level_scaling(bad, 1, "1/2") is False


@pytest.mark.parametrize("hbars", [(1, Fraction(1, 2)), (Fraction(1, 4), Fraction(3, 4))])
def test_identity_path_agrees_on_form_violators(hbars):
    for m in (
        doubling_morphism(Q1, Q1),
        _perturbed(rotation_morphism(Q1, Q1, theta=("1/3", "-1/2"))),
    ):
        assert poisson_morphism_check(m) is _element_level_poisson(m) is False
        assert scaling_check(m, *hbars) is _element_level_scaling(m, *hbars) is False
    m = rotation_morphism(Q1, Q1, theta=("1/3", "-1/2"))
    assert poisson_morphism_check(m) is _element_level_poisson(m) is True
    assert scaling_check(m, *hbars) is _element_level_scaling(m, *hbars) is True


def test_scaling_check_identity_path_still_rejects_zero_fiber():
    for zero in (0, 0.0, Fraction(0)):
        with pytest.raises(FunctorError):
            scaling_check(identity_morphism(Q1), zero, Fraction(1, 2))
        with pytest.raises(FunctorError):
            scaling_check(identity_morphism(Q1), 1, zero)


# --- the sampled arrow pool against a per-arrow reference ---------------------


def reference_standard_symplectic(rng, n):
    # random_standard_symplectic's draws, multiplied by Fraction mat_mul
    eye = rl.identity(n)
    zero = rl.matrix([[0] * n for _ in range(n)])
    total = rl.identity(2 * n)
    for _ in range(3):
        kind = rng.randrange(3)
        if kind == 0:
            block = sampling._block(eye, sampling._random_symmetric(rng, n), zero, eye)
        elif kind == 1:
            block = sampling._block(eye, zero, sampling._random_symmetric(rng, n), eye)
        else:
            a, _ = sampling._random_invertible(rng, n)
            block = sampling._block(a, zero, zero, rl.transpose(rl.inverse(a)))
        total = rl.mat_mul(block.matrix, total)
    return total


def reference_classical_arrows(seed, count):
    # darboux_basis and its inverse recomputed for every arrow
    rng = make_rng(seed, "classical-arrows")
    objects = [ClassicalWeylObject(s) for s in sampling.random_space_pool(rng, 10)]
    arrows = []
    for k in range(count):
        dom = rng.choice(objects)
        cod = rng.choice([o for o in objects if o.space.dim == dom.space.dim])
        chi = sampling.random_character(rng, dom.space.dim)
        middle = reference_standard_symplectic(rng, dom.space.dim // 2)
        basis_dom = darboux_basis(dom.space).matrix
        basis_cod = darboux_basis(cod.space).matrix
        t = rl.mat_mul(basis_cod, rl.mat_mul(middle, rl.inverse(basis_dom)))
        payload = WeylMorphismSpec(chi=chi, linear=LinearMapSpec(t), dom=dom, cod=cod)
        arrows.append(ArrowRecord("m%d" % k, dom, cod, payload))
    for j, obj in enumerate(objects[:3]):
        arrows.append(ArrowRecord("id%d" % j, obj, obj, identity_morphism(obj)))
    return arrows


@pytest.mark.parametrize("seed", [20260816, 7])
def test_arrow_pool_matches_per_arrow_frames(seed):
    got = sample_classical_arrows(seed, 60)
    want = reference_classical_arrows(seed, 60)
    assert got == want
    assert [hash(a.payload) for a in got] == [hash(a.payload) for a in want]
    # the pool connects distinct spaces, so frames of different spaces are used
    assert any(a.dom != a.cod for a in got)


def test_random_symplectic_map_refuses_a_corrupted_frame(monkeypatch):
    def doubled_basis(space):
        # the basis doubled but not its inverse: B_cod S B_dom^-1 scales the forms by 4
        basis, inverse = darboux_frame(space)
        return LinearMapSpec(rl.vec_scale(2, row) for row in basis.matrix), inverse

    monkeypatch.setattr(weyl_equivalence, "darboux_frame", doubled_basis)
    with pytest.raises(SpaceError, match="frames"):
        sample_classical_arrows(20260816, 1)


# --- functors on arrows ---------------------------------------------------


def test_quantize_morphism_keeps_data_and_retargets_objects():
    m = rotation_morphism(C1, C1, theta=("2/7", 0))
    qm = quantize_morphism(m)
    assert qm.chi == m.chi and qm.linear == m.linear
    assert qm.dom == Q1 and qm.cod == Q1


def test_quantize_morphism_rejects_bracket_violator():
    with pytest.raises(FunctorError):
        quantize_morphism(doubling_morphism(C1, C1))


def test_quantize_preserves_identity_and_composition():
    m1 = rotation_morphism(C1, C1, theta=("1/3", 0))
    m2 = rotation_morphism(C1, C1, theta=(0, "1/2"))
    assert quantize_morphism(identity_morphism(C1)) == identity_morphism(Q1)
    assert quantize_morphism(compose_morphisms(m2, m1)) == compose_morphisms(
        quantize_morphism(m2), quantize_morphism(m1)
    )


def test_classical_limit_round_trip_on_arrows():
    m = rotation_morphism(C1, C1, theta=("1/3", "-2/5"))
    assert classical_limit_morphism(quantize_morphism(m)) == m
    qm = rotation_morphism(Q1, Q1, theta=("1/3", "-2/5"))
    assert quantize_morphism(classical_limit_morphism(qm)) == qm


def test_classical_limit_rejects_scaling_violator(sampled_pools):
    with pytest.raises(FunctorError):
        classical_limit_morphism(doubling_morphism(Q1, Q1))
    for record in sampled_pools[1]:
        with pytest.raises(FunctorError):
            classical_limit_morphism(_perturbed(record.payload))


def test_limit_of_identity_is_identity():
    assert classical_limit_morphism(identity_morphism(Q1)) == identity_morphism(C1)


def test_intertwining_on_sections_explicitly(sampled_pools):
    # mapping a section then evaluating at 0 equals evaluating then mapping
    # with the limit arrow: on generators, their products and random sections
    cases = [
        (
            rotation_morphism(Q1, Q1, theta=("1/4", "1/6")),
            [
                multiply(weyl_generator(SP1, [1, 0]), weyl_generator(SP1, [0, 1]))
            ],
        )
    ]
    rng = make_rng(20260816, "intertwining")
    for record in sampled_pools[1]:
        q = record.payload
        gens = [weyl_generator(q.dom.space, f) for f in _basis(q.dom.space)]
        randoms = [random_element(rng, q.dom.space) for _ in range(5)]
        cases.append((q, gens + [multiply(gens[0], gens[1])] + randoms))
    for m, sections in cases:
        limit = classical_limit_morphism(m)
        for s in sections:
            assert evaluate_at(apply_morphism(m, s), 0) == apply_morphism(
                limit, evaluate_at(s, 0)
            )


# --- sections and the vanishing ideal -----------------------------------------


def test_section_product_carries_symbolic_twist():
    s = multiply(weyl_generator(SP1, [1, 0]), weyl_generator(SP1, [0, 1]))
    assert s.terms[SP1.vector([1, 1])] == CoeffExpr.phase(0, Fraction(-1, 2))
    # inverse pair collapses to the unit section
    t = multiply(weyl_generator(SP1, [2, 1]), weyl_generator(SP1, [-2, -1]))
    assert t == weyl_unit(SP1)


def test_k0_membership_cases():
    s = weyl_generator(SP1, [1, 0])
    assert not k0_membership(s)
    vanishing = s.scale_coeff(CoeffExpr.phase(0, Fraction(1)) - CoeffExpr.one())
    assert k0_membership(vanishing)
    assert k0_membership(s - s)
    # cyclotomic cancellation that is invisible to formal equality
    c = CoeffExpr.phase(Fraction(0)) + CoeffExpr.phase(Fraction(2, 3)) + CoeffExpr.phase(
        Fraction(4, 3)
    )
    assert k0_membership(s.scale_coeff(c))


def test_k0_membership_needs_sections():
    with pytest.raises(AlgebraError):
        k0_membership(evaluate_at(weyl_generator(SP1, [1, 0]), 0))


def test_quotient_of_section_product_loses_the_twist():
    s = multiply(weyl_generator(SP1, [1, 0]), weyl_generator(SP1, [0, 1]))
    assert evaluate_at(s, 0) == evaluate_at(weyl_generator(SP1, [1, 1]), 0)


# --- defect scalars -----------------------------------------------------------


@pytest.mark.parametrize("hbar", [math.inf, math.nan], ids=["inf", "nan"])
def test_rescale_refuses_a_non_finite_fiber(hbar):
    a = evaluate_at(weyl_generator(SP1, [1, 0]), 0)
    message = r"fiber parameter must lie in \[0, 1\], got %s$" % hbar
    with pytest.raises(FunctorError, match=message):
        rescale(a, 0, hbar)


@pytest.mark.parametrize("hbar", [math.inf, math.nan], ids=["inf", "nan"])
def test_von_neumann_defect_refuses_a_non_finite_fiber(hbar):
    message = r"fiber parameter must lie in \[0, 1\], got %s$" % hbar
    with pytest.raises(FunctorError, match=message):
        von_neumann_defect(SP1, [1, 0], [0, 1], hbar)


def test_von_neumann_defect_frozen_value():
    # sigma((1,0),(0,1)) = 1: defect at hbar=1 is 2 sin(1/4)
    d = von_neumann_defect(SP1, [1, 0], [0, 1], 1)
    assert d == pytest.approx(2.0 * math.sin(0.25), abs=1e-15)
    assert d == pytest.approx(0.4948079185090459, abs=1e-12)


def test_von_neumann_defect_commuting_pair():
    assert von_neumann_defect(SP1, [1, 0], [2, 0], 1) == 0.0
    assert von_neumann_defect(SP1, [1, 0], [2, 0], Fraction(1, 8)) == 0.0


def test_von_neumann_defect_first_order():
    sigma = 1.0
    for h in (Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)):
        d = von_neumann_defect(SP1, [1, 0], [0, 1], h)
        assert d / float(h) == pytest.approx(sigma / 2, abs=float(h) ** 2)


def test_dirac_defect_frozen_value():
    d = dirac_defect(SP1, [1, 0], [0, 1], 1)
    assert d == pytest.approx(abs(2.0 * math.sin(0.5) - 1.0), abs=1e-15)
    assert d == pytest.approx(0.041148922791594, abs=1e-12)


def test_dirac_defect_second_order():
    sigma = 1.0
    for h in (Fraction(1, 8), Fraction(1, 16), Fraction(1, 32)):
        d = dirac_defect(SP1, [1, 0], [0, 1], h)
        assert d / float(h) ** 2 == pytest.approx(sigma**3 / 24, rel=0.01)


def test_dirac_defect_rejects_zero_fiber():
    for zero in (0, 0.0, Fraction(0)):
        with pytest.raises(FunctorError):
            dirac_defect(SP1, [1, 0], [0, 1], zero)


@pytest.fixture
def fiber_calls(monkeypatch):
    """The hbar arguments of every _fiber_value call, in both modules."""
    calls = []
    decide = weyl_algebra._fiber_value

    def counted(hbar, *args):
        calls.append(hbar)
        return decide(hbar, *args)

    monkeypatch.setattr(weyl_algebra, "_fiber_value", counted)
    monkeypatch.setattr(weyl_functors, "_fiber_value", counted)
    return calls


@pytest.mark.parametrize("defect", [von_neumann_defect, dirac_defect])
def test_each_defect_decides_its_fiber_once(defect, fiber_calls):
    # the classical generators and their retags to hbar need no second rule
    h = Fraction(1, 8)
    value = defect(SP1, [1, 0], [0, 1], h)
    assert fiber_calls == [h]
    assert value == defect(SP1, [1, 0], [0, 1], 0.125)


def test_default_weyl_sdq_run_decides_1250_fibers(fiber_calls):
    # one decision per defect call (800; nine each made 7,650 in all), two
    # per rescale of rieffel_condition_check (50 elements x 4 entries) and
    # one per evaluate_at of those 50 elements
    report = harness.run_suite(harness.default_config("weyl-sdq"))
    assert report["summary"]["failed"] == 0
    assert len(fiber_calls) == 1250


def test_rieffel_condition():
    schedule = [Fraction(1, 2**k) for k in range(6)]
    gen = evaluate_at(weyl_generator(SP1, [1, 0]), 0)
    assert rieffel_condition_check(gen, schedule)
    zero = gen - gen
    assert rieffel_condition_check(zero, schedule)
    scaled = gen.scale_coeff(CoeffExpr.gaussian(3, -4))
    assert rieffel_condition_check(scaled, schedule)
