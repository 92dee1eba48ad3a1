import hashlib
import itertools
import json
import math
import random
from cmath import exp as cexp
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quantaequiv import rational_linalg as rl
from quantaequiv.cyclotomic import phase_sum_is_zero
from quantaequiv.harness import _laws_tuples, _normalized_generator_pairs
from quantaequiv.sampling import (
    _randint,
    make_rng,
    random_coeff,
    random_element,
    random_fraction,
    random_label,
    random_space_pool,
)
from quantaequiv.symplectic import symplectic_form, standard_space
from quantaequiv.weyl_algebra import (
    AlgebraError,
    CoeffExpr,
    WeylElement,
    _coeff_from_payload,
    _pair_sum,
    _coeff_to_payload,
    evaluate_at,
    involution,
    merge_terms,
    multiply,
    norm_bounds,
    poisson_bracket,
    weyl_from_json,
    weyl_generator,
    weyl_to_json,
    weyl_unit,
)

SP1 = standard_space(1)
SP2 = standard_space(2)


# --- coefficient table basics ------------------------------------------------


def test_coeff_canonical_folding():
    # e^{i pi * 3/2} = -i, so p = 3/2 folds to p = 1/2 with a sign flip
    c = CoeffExpr.phase(Fraction(3, 2))
    assert c == CoeffExpr.gaussian(0, -1)
    assert c.value_at(0.0) == pytest.approx(-1j)


def test_coeff_product_adds_phases():
    a = CoeffExpr.phase(Fraction(1, 3), Fraction(1, 2))
    b = CoeffExpr.phase(Fraction(2, 3), Fraction(-1, 2))
    assert a * b == CoeffExpr.gaussian(-1)


def test_coeff_conjugate():
    c = CoeffExpr.gaussian(1, 2) * CoeffExpr.phase(0, Fraction(3))
    v = c.value_at(0.7)
    assert c.conjugate().value_at(0.7) == pytest.approx(v.conjugate())


def test_coeff_substitute_freezes_parameter():
    c = CoeffExpr.phase(0, Fraction(-1, 2))  # e^{-i t / 2}
    frozen = c.substitute(1, 2)
    assert frozen == CoeffExpr.phase(0, Fraction(-1, 4))
    assert frozen.value_at(1.0) == pytest.approx(c.value_at(0.5))


def test_coeff_vanishes_at_zero_cyclotomic():
    # 1 + e^{2 pi i/3} + e^{4 pi i/3} = 0: no formal cancellation happens
    c = (
        CoeffExpr.phase(Fraction(0))
        + CoeffExpr.phase(Fraction(2, 3))
        + CoeffExpr.phase(Fraction(4, 3))
    )
    assert c  # formally nonzero
    assert c.vanishes_at_zero()
    assert not (c + CoeffExpr.one()).vanishes_at_zero()
    # 1 - e^{i q t} vanishes at t = 0 for every q
    d = CoeffExpr.one() - CoeffExpr.phase(0, Fraction(5, 3))
    assert d.vanishes_at_zero()


# --- generator product law ----------------------------------------------------


def test_product_twist_hand_value():
    # sigma((1,0),(0,1)) = 1, so W(f) W(g) = e^{-i t/2} W(f+g)
    f = weyl_generator(SP1, [1, 0])
    g = weyl_generator(SP1, [0, 1])
    prod = multiply(f, g)
    assert sorted(prod.terms) == [SP1.vector([1, 1])]
    assert prod.terms[SP1.vector([1, 1])] == CoeffExpr.phase(0, Fraction(-1, 2))


def test_product_reversed_order_twist():
    f = weyl_generator(SP1, [1, 0])
    g = weyl_generator(SP1, [0, 1])
    ab = multiply(f, g)
    ba = multiply(g, f)
    # they differ by the full phase e^{-i t sigma}
    assert ab.terms[SP1.vector([1, 1])] == ba.terms[SP1.vector([1, 1])].shift(0, Fraction(-1))


def test_unit_is_neutral():
    one = weyl_unit(SP1)
    a = weyl_generator(SP1, [1, 2]) + weyl_generator(SP1, ["1/2", -1])
    assert multiply(one, a) == a
    assert multiply(a, one) == a


def test_unitarity_of_generators():
    f = weyl_generator(SP1, [2, "1/3"])
    assert multiply(f, involution(f)) == weyl_unit(SP1)
    assert multiply(involution(f), f) == weyl_unit(SP1)


def test_involution_is_antimultiplicative_hand_case():
    f = weyl_generator(SP1, [1, 0])
    g = weyl_generator(SP1, [0, 1])
    assert involution(multiply(f, g)) == multiply(involution(g), involution(f))


def test_involution_squares_to_identity():
    a = weyl_generator(SP1, [1, 2]).scale_coeff(CoeffExpr.gaussian(1, 3))
    a = a + weyl_generator(SP1, [-1, "3/4"]).scale_coeff(CoeffExpr.phase(Fraction(1, 5)))
    assert involution(involution(a)) == a


def test_space_mismatch_rejected():
    with pytest.raises(AlgebraError):
        multiply(weyl_generator(SP1, [1, 0]), weyl_generator(SP2, [1, 0, 0, 0]))


# --- randomized exact laws ----------------------------------------------------


small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def coeff_strategy():
    return st.lists(
        st.tuples(small_fraction, small_fraction, small_fraction), min_size=1, max_size=2
    ).map(lambda items: CoeffExpr({(p, q): a for a, p, q in items}))


def element_strategy(space):
    label = st.tuples(*([small_fraction] * space.dim))
    return st.lists(st.tuples(label, coeff_strategy()), min_size=0, max_size=3).map(
        lambda pairs: WeylElement(space, {space.vector(l): c for l, c in pairs})
    )


@settings(max_examples=60, deadline=None)
@given(element_strategy(SP1), element_strategy(SP1), element_strategy(SP1))
def test_multiplication_associative(a, b, c):
    assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


@settings(max_examples=60, deadline=None)
@given(element_strategy(SP1), element_strategy(SP1))
def test_involution_antimultiplicative(a, b):
    assert involution(multiply(a, b)) == multiply(involution(b), involution(a))


@settings(max_examples=60, deadline=None)
@given(element_strategy(SP1), element_strategy(SP1), element_strategy(SP1))
def test_distributivity(a, b, c):
    assert multiply(a, b + c) == multiply(a, b) + multiply(a, c)


@settings(max_examples=40, deadline=None)
@given(element_strategy(SP1), element_strategy(SP1))
def test_evaluation_is_star_homomorphism_exact(a, b):
    h = Fraction(1, 3)
    assert evaluate_at(multiply(a, b), h) == multiply(evaluate_at(a, h), evaluate_at(b, h))
    assert evaluate_at(involution(a), h) == involution(evaluate_at(a, h))


@settings(max_examples=40, deadline=None)
@given(element_strategy(SP1), element_strategy(SP1))
def test_commutativity_at_zero(a, b):
    assert evaluate_at(multiply(a, b), 0) == evaluate_at(multiply(b, a), 0)


# --- poisson bracket ------------------------------------------------------


def test_bracket_hand_value():
    f = weyl_generator(SP1, [1, 0])
    g = weyl_generator(SP1, [0, 1])
    br = poisson_bracket(f, g)
    assert sorted(br.terms) == [SP1.vector([1, 1])]
    assert br.terms[SP1.vector([1, 1])] == CoeffExpr.one()  # sigma = 1


def test_bracket_antisymmetry_and_rejections():
    f = weyl_generator(SP1, [1, "1/2"])
    g = weyl_generator(SP1, ["-1/3", 1])
    assert poisson_bracket(f, g) == -poisson_bracket(g, f)
    hdep = f.scale_coeff(CoeffExpr.phase(0, Fraction(1)))
    with pytest.raises(AlgebraError):
        poisson_bracket(hdep, g)


def classical_elements():
    label = st.tuples(small_fraction, small_fraction)
    const_coeff = st.tuples(small_fraction, small_fraction).map(
        lambda ri: CoeffExpr.gaussian(*ri)
    )
    return st.lists(st.tuples(label, const_coeff), min_size=0, max_size=3).map(
        lambda pairs: WeylElement(SP1, {SP1.vector(l): c for l, c in pairs})
    )


@settings(max_examples=50, deadline=None)
@given(classical_elements(), classical_elements(), classical_elements())
def test_jacobi_identity(a, b, c):
    total = (
        poisson_bracket(a, poisson_bracket(b, c))
        + poisson_bracket(b, poisson_bracket(c, a))
        + poisson_bracket(c, poisson_bracket(a, b))
    )
    assert not total


@settings(max_examples=50, deadline=None)
@given(classical_elements(), classical_elements(), classical_elements())
def test_leibniz_rule_in_the_zero_fiber(a, b, c):
    a0, b0, c0 = (evaluate_at(x, 0) for x in (a, b, c))
    lhs = poisson_bracket(a0, multiply(b0, c0))
    rhs = multiply(poisson_bracket(a0, b0), c0) + multiply(b0, poisson_bracket(a0, c0))
    assert lhs == rhs


# --- evaluation and norms ---------------------------------------------------


def test_evaluate_at_reads_floats_as_exact_rationals():
    a = multiply(weyl_generator(SP1, [1, 0]), weyl_generator(SP1, [0, 1]))
    assert evaluate_at(a, 0.5) == evaluate_at(a, Fraction(1, 2))
    with pytest.raises(AlgebraError):
        evaluate_at(a, math.pi)


@pytest.mark.parametrize("hbar", [math.inf, math.nan], ids=["inf", "nan"])
def test_evaluate_at_refuses_a_non_finite_fiber(hbar):
    message = r"fiber parameter must lie in \[0, 1\], got %s$" % hbar
    with pytest.raises(AlgebraError, match=message):
        evaluate_at(weyl_generator(SP1, [1, 0]), hbar)


@pytest.mark.parametrize("hbar", [math.inf, math.nan], ids=["inf", "nan"])
def test_weyl_element_refuses_a_non_finite_fiber(hbar):
    message = r"fiber parameter must lie in \[0, 1\], got %s$" % hbar
    with pytest.raises(AlgebraError, match=message):
        WeylElement(SP1, {}, hbar=hbar)


def test_norm_bounds_single_term_exact():
    a = weyl_generator(SP1, [1, 0]).scale_coeff(CoeffExpr.gaussian(3, 4))
    lo, hi = norm_bounds(evaluate_at(a, Fraction(1, 2)))
    assert lo == pytest.approx(5.0)
    assert hi == pytest.approx(5.0)
    with pytest.raises(AlgebraError):
        norm_bounds(a)


def test_norm_bounds_two_terms():
    a = weyl_generator(SP1, [1, 0]) + weyl_generator(SP1, [0, 1])
    lo, hi = norm_bounds(evaluate_at(a, 0))
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(2.0)
    assert norm_bounds(weyl_unit(SP1, 0) - weyl_unit(SP1, 0)) == (0.0, 0.0)


# --- serialization -----------------------------------------------------------


def test_json_roundtrip_bit_exact():
    a = weyl_generator(SP1, ["1/3", "-2/5"]).scale_coeff(CoeffExpr.gaussian("3/4", "-1/2"))
    a = a + weyl_generator(SP1, [1, 0]).scale_coeff(CoeffExpr.phase(Fraction(1, 3), Fraction(-5, 2)))
    text = weyl_to_json(a)
    back = weyl_from_json(text)
    assert back == a
    assert weyl_to_json(back) == text


def test_json_labels_sorted_canonically():
    a = weyl_generator(SP1, [1, 0]) + weyl_generator(SP1, [-1, 0]) + weyl_generator(SP1, [0, 1])
    text = weyl_to_json(a)
    back = weyl_to_json(weyl_from_json(text))
    assert text == back
    idx_minus = text.find('"label":["-1","0"]')
    idx_plus = text.find('"label":["1","0"]')
    assert -1 < idx_minus < idx_plus


def test_json_fiber_tag_preserved():
    a = evaluate_at(multiply(weyl_generator(SP1, [1, 0]), weyl_generator(SP1, [0, 1])), Fraction(1, 2))
    back = weyl_from_json(weyl_to_json(a))
    assert back == a
    assert back.hbar == Fraction(1, 2)


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"schema_version": 1, "hbar": None, "terms": []},
        {"schema_version": 1, "space": {"dim": 2}, "hbar": None, "terms": []},
        {"schema_version": 1, "space": {"dim": 2, "form": [["0", "1"], ["-1", "0"]]}, "terms": []},
        {
            "schema_version": 1,
            "space": {"dim": 2, "form": [["0", "1"], ["-1", "0"]]},
            "hbar": None,
            "terms": [{"label": ["1", "0"], "coeff": [{"amp": ["1"], "p": "0", "q": "0"}]}],
        },
        {
            "schema_version": 1,
            "space": {"dim": 2, "form": [["0", "1"], ["-1", "0"]]},
            "hbar": None,
            "terms": [{"label": ["1", "0"], "coeff": [{"amp": ["1", "0", "2"], "p": "0", "q": "0"}]}],
        },
        {
            "schema_version": 1,
            "space": {"dim": 2, "form": [["0", "1"], ["-1", "0"]]},
            "hbar": None,
            "terms": [{"label": ["1", "0"]}],
        },
        {
            "schema_version": 1,
            "space": ["dim", "form"],
            "hbar": None,
            "terms": [],
        },
        {
            "schema_version": 1,
            "space": {"dim": 2, "form": [["0", "1"], ["-1", "0"]]},
            "hbar": None,
            "terms": [{"label": ["1", "0"], "coeff": [{"amp": ["x", "0"], "p": "0", "q": "0"}]}],
        },
        {
            "schema_version": 1,
            "space": {"dim": 2, "form": [["0", "1"], ["1", "0"]]},
            "hbar": None,
            "terms": [],
        },
    ],
    ids=[
        "list", "no-space", "no-form", "no-hbar", "one-entry-amp", "three-entry-amp",
        "no-coeff", "space-as-list", "bad-number", "symmetric-form",
    ],
)
def test_json_refuses_malformed_documents(doc):
    with pytest.raises(AlgebraError):
        weyl_from_json(json.dumps(doc))


def test_json_refuses_a_repeated_label():
    a = weyl_generator(SP1, [1, 0]) + weyl_generator(SP1, [0, 1]).scale_coeff(
        CoeffExpr.gaussian(2, 1)
    )
    doc = json.loads(weyl_to_json(a))
    doc["terms"][1]["label"] = doc["terms"][0]["label"]
    with pytest.raises(AlgebraError, match="appears twice"):
        weyl_from_json(json.dumps(doc))
    # the equivalent spelling "2/2" of a label is the same label
    doc["terms"][1]["label"] = ["0", "2/2"]
    doc["terms"][0]["label"] = ["0", "1"]
    with pytest.raises(AlgebraError, match="appears twice"):
        weyl_from_json(json.dumps(doc))


# --- per-pair reference for multiply and poisson_bracket ---------------------


def reference_coeff_product(c1, c2):
    # one term per pair of terms, normalized by the constructor
    return CoeffExpr(
        ((p1 + p2, q1 + q2), a1 * a2)
        for (p1, q1), a1 in c1.terms.items()
        for (p2, q2), a2 in c2.terms.items()
    )


def _reference_loop(a, b, piece_of):
    # omega.g once per pair (f, g); pieces merged in the kernels' order
    form = a.space.form
    out = {}
    for f, cf in a.terms.items():
        for g, cg in b.terms.items():
            piece = piece_of(cf, cg, rl.dot(f, rl.mat_vec(form, g)))
            if piece is None:
                continue
            label = rl.vec_add(f, g)
            acc = out.get(label)
            total = piece if acc is None else acc + piece
            if total:
                out[label] = total
            else:
                out.pop(label, None)
    return WeylElement(a.space, out, hbar=a.hbar)


def reference_multiply(a, b):
    scale = Fraction(1) if a.hbar is None else a.hbar

    def twisted(cf, cg, sigma):
        return reference_coeff_product(cf, cg).shift(0, -sigma * scale / 2)

    return _reference_loop(a, b, twisted)


def reference_poisson_bracket(a, b):
    def bracketed(cf, cg, sigma):
        return reference_coeff_product(cf, cg).scale(sigma) if sigma else None

    return _reference_loop(a, b, bracketed)


def assert_same_element(got, want):
    # equal, and built in the same label and term order
    assert got == want
    assert list(got.terms) == list(want.terms)
    for label, coeff in got.terms.items():
        assert list(coeff.terms.items()) == list(want.terms[label].terms.items())


def _cancelling_pair(space, rng, classical):
    # a = W(f1) + W(f2), b = W(g1) + d W(g2) with f1 + g2 = f2 + g1 and d chosen
    # so that the two products landing on that label cancel; returns the label too
    while True:
        f1, f2, g1 = (random_label(rng, space) for _ in range(3))
        g2 = rl.vec_sub(rl.vec_add(f2, g1), f1)
        s12 = symplectic_form(space, f1, g2)
        s21 = symplectic_form(space, f2, g1)
        if len({f1, f2}) == 2 and len({g1, g2}) == 2 and s12 != 0 and s21 != 0:
            break
    if classical:
        d = CoeffExpr.gaussian(-s21 / s12)
    else:
        d = -CoeffExpr.phase(0, (s12 - s21) / 2)
    a = weyl_generator(space, f1) + weyl_generator(space, f2)
    b = weyl_generator(space, g1) + weyl_generator(space, g2).scale_coeff(d)
    return a, b, rl.vec_add(f1, g2)


def _pool():
    rng = make_rng(20260816, "tests", "multiply-reference")
    spaces = random_space_pool(rng, 6)
    assert {sp.dim for sp in spaces} == {2, 4, 6}
    return rng, spaces


def test_multiply_matches_per_pair_reference():
    rng, spaces = _pool()
    for space in spaces:
        pairs = [
            (random_element(rng, space), random_element(rng, space)) for _ in range(12)
        ]
        a, b, cancelled = _cancelling_pair(space, rng, classical=False)
        pairs.append((a, b))
        for a, b in pairs:
            assert_same_element(multiply(a, b), reference_multiply(a, b))
            for h in (Fraction(0), Fraction(1, 3), Fraction(1)):
                ah, bh = evaluate_at(a, h), evaluate_at(b, h)
                assert_same_element(multiply(ah, bh), reference_multiply(ah, bh))
        assert cancelled not in multiply(a, b).terms
        assert len(multiply(a, b).terms) == 2


def test_poisson_bracket_matches_per_pair_reference():
    rng, spaces = _pool()

    def constant_element(space):
        terms = {}
        for _ in range(rng.randint(0, 3)):
            terms[random_label(rng, space)] = random_coeff(rng, with_parameter=False)
        return WeylElement(space, terms)

    for space in spaces:
        pairs = [(constant_element(space), constant_element(space)) for _ in range(12)]
        for _ in range(6):
            a, b = random_element(rng, space), random_element(rng, space)
            pairs.append((evaluate_at(a, 0), evaluate_at(b, 0)))
        a, b, cancelled = _cancelling_pair(space, rng, classical=True)
        pairs.append((a, b))
        for a, b in pairs:
            assert_same_element(poisson_bracket(a, b), reference_poisson_bracket(a, b))
        assert cancelled not in poisson_bracket(a, b).terms


def reference_pair_sum(a, b, piece_of):
    # labels summed by rl.vec_add and keyed by the Fraction tuples, sigma by rl.dot
    return _reference_loop(
        a, b, lambda cf, cg, sigma: piece_of(cf, cg, sigma.numerator, sigma.denominator)
    )


def test_pair_sum_matches_fraction_keyed_reference():
    rng, spaces = _pool()

    def weighted(cf, cg, num, den):
        # depends on sigma's value, and skips the pairs with sigma = 0
        return (cf * cg).scale(Fraction(num, den) + 1) if num else None

    for space in spaces:
        empty = WeylElement(space)
        pairs = [(random_element(rng, space), random_element(rng, space)) for _ in range(12)]
        pairs += [(empty, random_element(rng, space)), (random_element(rng, space), empty)]
        pairs.append(_cancelling_pair(space, rng, classical=False)[:2])
        for a, b in pairs:
            got = _pair_sum(a, b, weighted)
            assert_same_element(got, reference_pair_sum(a, b, weighted))
            assert all(type(e) is Fraction for label in got.terms for e in label)


# --- Fraction-keyed reference for CoeffExpr ------------------------------------


def _reference_norm_items(items):
    # canonical term dict: p reduced into [0, 1) with the sign folded into amp
    out = {}
    for (p, q), amp in items:
        if amp == 0:
            continue
        p = p % 2
        if p >= 1:
            p -= 1
            amp = -amp
        key = (p, q)
        acc = out.get(key, Fraction(0)) + amp
        if acc == 0:
            out.pop(key, None)
        else:
            out[key] = acc
    return out


class ReferenceCoeff:
    """CoeffExpr with its terms keyed by Fraction pairs (p, q)."""

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            terms = terms.items()
        self._terms = _reference_norm_items(
            ((Fraction(p), Fraction(q)), Fraction(a)) for (p, q), a in terms
        )

    @classmethod
    def _raw(cls, normalized):
        obj = cls.__new__(cls)
        obj._terms = normalized
        return obj

    @property
    def terms(self):
        return dict(self._terms)

    def __repr__(self):
        if not self._terms:
            return "CoeffExpr(0)"
        bits = []
        for (p, q), amp in sorted(self._terms.items()):
            bits.append("%s*e^(i pi %s + i %s t)" % (amp, p, q))
        return "CoeffExpr(%s)" % " + ".join(bits)

    def __add__(self, other):
        merged = dict(self._terms)
        for key, amp in other._terms.items():
            acc = merged.get(key, Fraction(0)) + amp
            if acc == 0:
                merged.pop(key, None)
            else:
                merged[key] = acc
        return ReferenceCoeff._raw(merged)

    def __neg__(self):
        return ReferenceCoeff._raw({k: -a for k, a in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self._times_phase(other, 0)

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return ReferenceCoeff._raw({})
        return ReferenceCoeff._raw({k: a * c for k, a in self._terms.items()})

    def _times_phase(self, other, dq):
        shifted = [((p2, q2 + dq), a2) for (p2, q2), a2 in other._terms.items()]
        return ReferenceCoeff._raw(
            _reference_norm_items(
                ((p1 + p2, q1 + q2), a1 * a2)
                for (p1, q1), a1 in self._terms.items()
                for (p2, q2), a2 in shifted
            )
        )

    def shift(self, dp, dq):
        dp = Fraction(dp)
        dq = Fraction(dq)
        return ReferenceCoeff._raw(
            _reference_norm_items(
                ((p + dp, q + dq), a) for (p, q), a in self._terms.items()
            )
        )

    def conjugate(self):
        return ReferenceCoeff._raw(
            _reference_norm_items(((-p, -q), a) for (p, q), a in self._terms.items())
        )

    def substitute(self, h):
        h = Fraction(h)
        return ReferenceCoeff._raw(
            _reference_norm_items(((p, q * h), a) for (p, q), a in self._terms.items())
        )

    @property
    def is_constant(self):
        return all(q == 0 for (_, q) in self._terms)

    def value_at(self, t):
        t = float(t)
        total = 0j
        for (p, q), amp in sorted(self._terms.items()):
            total += float(amp) * cexp(1j * (math.pi * float(p) + float(q) * t))
        return total

    def at_zero_exponents(self):
        out = {}
        for (p, _), amp in self._terms.items():
            out[p] = out.get(p, Fraction(0)) + amp
        return out


# exponents outside [0, 2), negative, with denominators up to 1e6; a small
# pool of shared values and unit amplitudes makes terms merge and cancel
exponent = st.one_of(
    st.fractions(min_value=-7, max_value=7, max_denominator=10**6),
    st.sampled_from([Fraction(v) for v in (0, 1, -1, "1/2", "3/2", 2, "-5/2", "7/3")]),
)
amplitude = st.one_of(
    st.fractions(min_value=-5, max_value=5, max_denominator=10**6),
    st.sampled_from([Fraction(1), Fraction(-1), Fraction(0)]),
)
term_list = st.lists(st.tuples(exponent, exponent, amplitude), max_size=5).map(
    # e^{i pi (p + 1)} = -e^{i pi p}: the appended copy of the first term cancels it
    lambda ts: [((p, q), a) for p, q, a in ts]
    + [((p + 1, q), a) for p, q, a in ts[:1] if len(ts) % 2]
)


def assert_same_coeff(got, ref):
    # equal Fraction keys and amplitudes, in the same order
    assert isinstance(got, CoeffExpr)
    assert list(got.terms.items()) == list(ref.terms.items())
    assert bool(got) == bool(ref.terms)
    assert repr(got) == repr(ref)


def _same_float_bits(z, w):
    return (z.real.hex(), z.imag.hex()) == (w.real.hex(), w.imag.hex())


@settings(max_examples=60, deadline=None)
@given(term_list, term_list, exponent, exponent, amplitude, st.floats(-4, 4))
def test_coeff_matches_fraction_keyed_reference(t1, t2, dp, dq, c, t):
    a, b = CoeffExpr(t1), CoeffExpr(t2)
    ra, rb = ReferenceCoeff(t1), ReferenceCoeff(t2)
    assert_same_coeff(a, ra)
    assert_same_coeff(CoeffExpr(dict(t1)), ReferenceCoeff(dict(t1)))
    assert_same_coeff(a + b, ra + rb)
    assert_same_coeff(a - b, ra - rb)
    assert_same_coeff(a - a, ra - ra)
    assert_same_coeff(a * b, ra * rb)
    assert_same_coeff(a * c, ra * c)
    assert_same_coeff(a.scale(c), ra.scale(c))
    assert_same_coeff(a._times_phase(b, dq.numerator, dq.denominator), ra._times_phase(rb, dq))
    assert_same_coeff(a.shift(dp, dq), ra.shift(dp, dq))
    assert_same_coeff(a.conjugate(), ra.conjugate())
    assert_same_coeff(a.substitute(dq.numerator, dq.denominator), ra.substitute(dq))
    assert a.is_constant == ra.is_constant
    assert _same_float_bits(a.value_at(t), ra.value_at(t))
    assert list(a.at_zero_exponents().items()) == list(ra.at_zero_exponents().items())
    # the cyclotomic test builds a polynomial of degree 2 lcm(denominators of p)
    small = [((p.limit_denominator(6), q), x) for (p, q), x in t1 + t2]
    assert CoeffExpr(small).vanishes_at_zero() == phase_sum_is_zero(
        ReferenceCoeff(small).at_zero_exponents()
    )
    payload = _coeff_to_payload(a)
    assert payload == _coeff_to_payload(ra)
    assert _coeff_from_payload(payload) == a


def assert_canonical(coeff):
    # int numerators over one positive denominator that shares no factor with them all
    nums = list(coeff._terms.values())
    assert all(type(x) is int and x for x in nums)
    assert type(coeff._den) is int and coeff._den > 0
    assert math.gcd(coeff._den, *nums) == 1
    if not nums:
        assert coeff._den == 1


def assert_same_table(x, y):
    # equal values reached by different routes: equal, hashing alike, one form
    assert x == y and hash(x) == hash(y)
    assert x._den == y._den and x.terms == y.terms


@settings(max_examples=60, deadline=None)
@given(term_list, term_list, exponent, exponent, amplitude)
def test_coeff_tables_stay_canonical(t1, t2, dp, dq, c):
    a, b = CoeffExpr(t1), CoeffExpr(t2)
    unit = CoeffExpr.phase(dp, dq)
    # a third of a plus the unit phase: taking the third away leaves one term
    third = a.scale(Fraction(1, 3))
    mixed = third + unit
    results = [
        a, b, unit, mixed, a + b, a - b, a - a, -a, a * b, a * c,
        a.scale(c), a.scale(0), a.scale(Fraction(3, 7)),
        a._times_phase(b, dq.numerator, dq.denominator), a.shift(dp, dq),
        a.conjugate(), a.substitute(dq.numerator, dq.denominator), a.substitute(0, 1),
        (a + unit) - a, mixed - third,
        CoeffExpr.zero(), CoeffExpr.one(), CoeffExpr.gaussian(Fraction(2, 3), Fraction(-3, 4)),
    ]
    for r in results:
        assert_canonical(r)
    assert_same_table((a + b) - b, a)
    assert_same_table(a - a, CoeffExpr.zero())
    assert_same_table(a.scale(0), CoeffExpr.zero())
    assert_same_table((a + unit) - a, unit)
    assert_same_table(mixed - third, unit)
    assert_same_table(a * b, b * a)
    assert_same_table(a.conjugate().conjugate(), a)
    assert_same_table(a.scale(Fraction(3, 7)).scale(Fraction(7, 3)), a)
    assert_same_table(a + b, CoeffExpr(list((a + b).terms.items())))
    if c:
        assert_same_table(a.scale(c).scale(1 / c), a)


def test_coeff_denominator_follows_cancellation():
    half = CoeffExpr.gaussian(Fraction(1, 2))
    third = CoeffExpr.phase(Fraction(1, 3)).scale(Fraction(1, 3))
    both = half + third
    assert both._den == 6 and list(both._terms.values()) == [3, 2]
    assert (both - third)._den == 2 and both - third == half
    assert (both - both)._den == 1 and not (both - both)
    assert half.scale(2)._den == 1 and half.scale(2) == CoeffExpr.one()
    assert {half.scale(2): "one"}[CoeffExpr.one()] == "one"


@pytest.mark.parametrize("seed", [1, 7, 20260816])
def test_drawn_coefficients_are_canonical(seed):
    rng = make_rng(seed, "tests", "canonical-draws")
    for _ in range(300):
        assert_canonical(random_coeff(rng))
        assert_canonical(random_coeff(rng, with_parameter=False))


# the md5 of weyl_to_json(el) + "\n" over the elements of the weyl-laws pools below
LAWS_POOL_MD5 = {
    1: "660495e37eef6115b95773e73f2208e1",
    7: "e2aa1b5403ea0313c7a04892664f74d8",
    20260816: "58cb09dcfdf589ac6d051d571828eafd",
}


@pytest.mark.parametrize("seed", sorted(LAWS_POOL_MD5))
def test_laws_pools_keep_their_draws(seed):
    # any change to a label, phase or amplitude draw, or to the RNG stream, moves the digest
    digest = hashlib.md5()
    pools = itertools.chain(
        _laws_tuples(seed, "assoc", 50, 3, max_terms=4),
        _laws_tuples(seed, "poisson", 50, 3, max_terms=2),
    )
    for element in itertools.chain.from_iterable(pools):
        digest.update((weyl_to_json(element) + "\n").encode())
    assert digest.hexdigest() == LAWS_POOL_MD5[seed]


# widths 1, powers of two and their neighbours, negative bounds, and past 64 bits
RANDINT_RANGES = [(0, 0), (5, 5), (-2, 2), (-3, 3), (1, 2), (1, 3), (1, 4), (0, 2), (0, 7),
                  (0, 8), (-9, 9), (0, 2**31), (-(2**70), 2**70), (10**20, 10**20 + 12)]


@pytest.mark.parametrize("seed", [1, 7, 20260816, 2**64 + 3])
def test_randint_draws_what_rng_randint_draws(seed):
    # the same values and the same stream after them, ranges interleaved as the pools draw them
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(200):
        for a, b in RANDINT_RANGES:
            assert _randint(ours, a, b) == theirs.randint(a, b)
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("a, b", [(1, 0), (0, -5)])
def test_randint_refuses_an_empty_range(a, b):
    # getrandbits would never draw below a width of zero or less
    with pytest.raises(ValueError, match="empty range"):
        _randint(random.Random(1), a, b)
    with pytest.raises(ValueError):
        random_element(make_rng(1, "tests"), standard_space(1), max_terms=-1)


# --- merge_terms against the loop that CoeffExpr.__add__ wrote out ----------------


def reference_merge(items, merged):
    # the accumulate-and-cancel loop of CoeffExpr.__add__, for values that are never zero
    for key, amp in items:
        acc = merged.get(key)
        if acc is None:
            merged[key] = amp
        else:
            acc += amp
            if acc:
                merged[key] = acc
            else:
                del merged[key]
    return merged


# few keys, and values that cancel in pairs: sums vanish and keys come back
merge_key = st.sampled_from(["a", "b", (0, 1), (1, 2)])
fraction_value = st.sampled_from([Fraction(v) for v in (1, -1, "1/2", "-1/2", 2, 0)])
coeff_value = st.sampled_from(
    [CoeffExpr.phase(p) for p in (0, 1, "1/2", "3/2")]
    + [CoeffExpr.gaussian(1, 1), CoeffExpr.zero()]
)


def merge_inputs(value):
    pairs = st.lists(st.tuples(merge_key, value), max_size=12)
    return st.tuples(pairs, pairs)


@settings(max_examples=200, deadline=None)
@given(st.one_of(merge_inputs(fraction_value), merge_inputs(coeff_value)))
@example(([], [("a", Fraction(1)), ("a", Fraction(-1)), ("b", Fraction(1)), ("a", Fraction(2))]))
def test_merge_terms_matches_the_hand_written_loop(inputs):
    start, items = inputs
    nonzero = [(k, v) for k, v in items if v]
    base = reference_merge([(k, v) for k, v in start if v], {})
    out = dict(base)
    got = merge_terms(items, out)
    want = reference_merge(nonzero, dict(base))
    assert got is out
    assert list(got.items()) == list(want.items())
    assert all(got.values())
    assert list(merge_terms(items).items()) == list(reference_merge(nonzero, {}).items())


def test_merge_terms_puts_a_key_that_comes_back_at_the_end():
    items = [("a", Fraction(1)), ("a", Fraction(-1)), ("b", Fraction(1)), ("a", Fraction(2))]
    assert list(merge_terms(items).items()) == [("b", Fraction(1)), ("a", Fraction(2))]


# --- Fraction-labelled reference for WeylElement and the sampler ---------------


class ReferenceElement:
    """WeylElement with its terms keyed by Fraction label tuples."""

    def __init__(self, space, terms=(), hbar=None):
        if isinstance(terms, dict):
            terms = terms.items()
        clean = {}
        for label, coeff in terms:
            label = space.vector(label)
            if coeff:
                acc = clean.get(label)
                clean[label] = coeff if acc is None else acc + coeff
                if not clean[label]:
                    del clean[label]
        self.space = space
        self.hbar = None if hbar is None else Fraction(hbar)
        self._terms = clean

    def _rebuild(self, term_dict):
        obj = ReferenceElement.__new__(ReferenceElement)
        obj.space = self.space
        obj.hbar = self.hbar
        obj._terms = term_dict
        return obj

    def __add__(self, other):
        merged = dict(self._terms)
        for label, coeff in other._terms.items():
            acc = merged.get(label)
            total = coeff if acc is None else acc + coeff
            if total:
                merged[label] = total
            else:
                merged.pop(label, None)
        return self._rebuild(merged)

    def __neg__(self):
        return self._rebuild({f: -c for f, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale_coeff(self, coeff):
        out = {}
        for label, c in self._terms.items():
            total = c * coeff
            if total:
                out[label] = total
        return self._rebuild(out)


def reference_fraction_pair_sum(a, b, piece_of):
    # labels scaled to ints over the lcm of all their denominators; the sums
    # keyed by the int tuples, one Fraction label built per output label
    w, dw = a.space.form_ints
    d = math.lcm(*[x.denominator for f in (*a._terms, *b._terms) for x in f])
    den = d * d * dw
    right = []
    for g, cg in b._terms.items():
        gi = [x.numerator * (d // x.denominator) for x in g]
        right.append((gi, cg, [sum(x * y for x, y in zip(row, gi)) for row in w]))
    out = {}
    for f, cf in a._terms.items():
        fi = [x.numerator * (d // x.denominator) for x in f]
        for gi, cg, wg in right:
            piece = piece_of(cf, cg, sum(x * y for x, y in zip(fi, wg)), den)
            if piece is None:
                continue
            key = tuple(x + y for x, y in zip(fi, gi))
            acc = out.get(key)
            total = piece if acc is None else acc + piece
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return a._rebuild({tuple(Fraction(x, d) for x in key): c for key, c in out.items()})


def reference_element_multiply(a, b):
    hn, hd = (1, 1) if a.hbar is None else (a.hbar.numerator, a.hbar.denominator)

    def twisted(cf, cg, num, den):
        n, d = -num * hn, 2 * den * hd
        k = math.gcd(n, d)
        return cf._times_phase(cg, n // k, d // k)

    return reference_fraction_pair_sum(a, b, twisted)


def reference_element_bracket(a, b):
    def bracketed(cf, cg, num, den):
        return (cf * cg).scale(Fraction(num, den)) if num else None

    return reference_fraction_pair_sum(a, b, bracketed)


def reference_element_involution(a):
    return a._rebuild({tuple(-x for x in f): c.conjugate() for f, c in a._terms.items()})


def reference_element_evaluate_at(a, h):
    hn, hd = Fraction(h).as_integer_ratio()
    return ReferenceElement(
        a.space, {f: c.substitute(hn, hd) for f, c in a._terms.items()}, hbar=h
    )


def reference_element_to_json(a):
    doc = {
        "schema_version": 1,
        "space": {"dim": a.space.dim, "form": [[str(e) for e in row] for row in a.space.form]},
        "hbar": None if a.hbar is None else str(a.hbar),
        "terms": [
            {"label": [str(e) for e in f], "coeff": _coeff_to_payload(a._terms[f])}
            for f in sorted(a._terms)
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def as_reference(a):
    return ReferenceElement(a.space, a.terms, hbar=a.hbar)


def assert_matches_reference(got, ref):
    # the same Fraction labels in the same order, the same coefficient terms in
    # the same order, the same JSON, and the canonical denominator
    assert isinstance(got, WeylElement)
    assert (got.space, got.hbar) == (ref.space, ref.hbar)
    assert list(got.terms) == list(ref._terms)
    assert all(type(x) is Fraction for label in got.terms for x in label)
    for (label, coeff), want in zip(got.terms.items(), ref._terms.values()):
        assert list(coeff.terms.items()) == list(want.terms.items()), label
    assert weyl_to_json(got) == reference_element_to_json(ref)
    assert got._den == math.lcm(*[x.denominator for f in ref._terms for x in f])
    assert got == WeylElement(ref.space, ref._terms, hbar=ref.hbar)


def check_against_reference(a, b):
    """Every element operation on a and b against the Fraction-labelled reference."""
    ra, rb = as_reference(a), as_reference(b)
    assert_matches_reference(a, ra)
    assert_matches_reference(a + b, ra + rb)
    assert_matches_reference(a - b, ra - rb)
    assert_matches_reference(a - a, ra - ra)
    assert_matches_reference(-a, -ra)
    assert_matches_reference(multiply(a, b), reference_element_multiply(ra, rb))
    assert_matches_reference(involution(a), reference_element_involution(ra))
    for c in (CoeffExpr.gaussian(Fraction(1, 3), -2), CoeffExpr.phase(Fraction(2, 3), 1) - CoeffExpr.one(),
              CoeffExpr.zero()):
        assert_matches_reference(a.scale_coeff(c), ra.scale_coeff(c))
    if a.hbar is None:
        for h in (Fraction(0), Fraction(1, 3), Fraction(1)):
            assert_matches_reference(evaluate_at(a, h), reference_element_evaluate_at(ra, h))
    if a.hbar in (None, 0) and all(c.is_constant for c in (*a.terms.values(), *b.terms.values())):
        assert_matches_reference(poisson_bracket(a, b), reference_element_bracket(ra, rb))


@pytest.mark.parametrize("seed", [1, 7])
def test_element_operations_match_fraction_labelled_reference_on_law_pools(seed):
    for a, b, c in _laws_tuples(seed, "assoc", 40, 3):
        check_against_reference(a, b)
        check_against_reference(multiply(a, b), c)
        check_against_reference(evaluate_at(a, Fraction(1, 2)), evaluate_at(b, Fraction(1, 2)))
    for raw in _laws_tuples(seed, "poisson", 40, 3, max_terms=2):
        a, b, c = (evaluate_at(el, 0) for el in raw)
        check_against_reference(a, b)
        check_against_reference(poisson_bracket(a, b), c)
        check_against_reference(multiply(a, b), poisson_bracket(b, c))


def test_element_operations_match_reference_on_dyadic_scaled_labels():
    # the weyl-sdq pairs: f scaled by powers of 2 until |sigma(f, g)| is in [1/2, 2]
    for space, f, g, _ in _normalized_generator_pairs(20260816, 40):
        for h in (None, Fraction(0), Fraction(1, 16)):
            a, b = weyl_generator(space, f, h), weyl_generator(space, g, h)
            check_against_reference(a, b)
            check_against_reference(a + b, multiply(b, a))


def test_element_operations_match_reference_on_large_denominators():
    rng = make_rng(20260816, "tests", "label-denominators")
    dens = (5, 7, 2**20, 5 * 7 * 2**20)
    for space in (SP1, SP2):
        def element():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                label = [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(space.dim)]
                terms[space.vector(label)] = random_coeff(rng)
            return WeylElement(space, terms)

        for _ in range(8):
            a, b = element(), element()
            assert a._den > 1
            check_against_reference(a, b)
            check_against_reference(multiply(a, b), a - b)
            a0, b0 = evaluate_at(a, 0), evaluate_at(b, 0)
            check_against_reference(a0, b0)
            check_against_reference(a0.scale_coeff(CoeffExpr.gaussian(3)), b0)


def test_cancelled_label_leaves_the_canonical_denominator():
    half, third = weyl_generator(SP1, ["1/2", 0]), weyl_generator(SP1, ["1/3", 0])
    both = half + third
    assert both._den == 6
    back = both - third
    assert back == half and back._den == half._den == 2
    assert list(back.terms) == [SP1.vector(["1/2", 0])]
    assert (third - third)._den == 1 and not (third - third)
    # evaluation at 0 cancels e^{i t} - 1 on one label and lowers the denominator
    vanishing = CoeffExpr.phase(0, 1) - CoeffExpr.one()
    mixed = half + third.scale_coeff(vanishing)
    assert mixed._den == 6 and evaluate_at(mixed, 0) == evaluate_at(half, 0)
    assert evaluate_at(mixed, 0)._den == 2


def reference_random_fraction(rng, max_abs, max_den, allow_zero=True):
    # the sampler's draw written out on its own randint calls
    while True:
        value = Fraction(rng.randint(-max_abs, max_abs), rng.randint(1, max_den))
        if allow_zero or value != 0:
            return value


def reference_random_coeff(rng, max_terms=2, with_parameter=True):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        p = reference_random_fraction(rng, 2, 3)
        q = reference_random_fraction(rng, 2, 3) if with_parameter else Fraction(0)
        amp = reference_random_fraction(rng, 3, 3, allow_zero=False)
        terms[(p, q)] = terms.get((p, q), Fraction(0)) + amp
    return CoeffExpr(terms)


def reference_random_element(rng, space, max_terms=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        label = space.vector([reference_random_fraction(rng, 2, 3) for _ in range(space.dim)])
        coeff = reference_random_coeff(rng)
        terms[label] = terms.get(label, CoeffExpr.zero()) + coeff
    return WeylElement(space, terms)


@pytest.mark.parametrize("seed", [1, 7, 20260816])
def test_sampler_matches_fraction_reference_draw_for_draw(seed):
    rng, ref = make_rng(seed, "tests", "sampler"), make_rng(seed, "tests", "sampler")
    spaces = random_space_pool(rng, 6)
    assert spaces == random_space_pool(ref, 6)
    for i in range(300):
        space = spaces[i % len(spaces)]
        got = random_element(rng, space, max_terms=1 + i % 4)
        want = reference_random_element(ref, space, max_terms=1 + i % 4)
        assert_same_element(got, want)
        assert got._den == want._den and weyl_to_json(got) == weyl_to_json(want)
        flat = random_coeff(rng, with_parameter=False)
        assert_same_coeff(flat, reference_random_coeff(ref, 2, with_parameter=False))
        assert random_label(rng, space) == space.vector(
            [reference_random_fraction(ref, 2, 3) for _ in range(space.dim)]
        )
        assert random_fraction(rng, 1, 4, allow_zero=False) == reference_random_fraction(ref, 1, 4, False)
        assert rng.getstate() == ref.getstate()
