import json
import math
from cmath import exp as cexp
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantaequiv import rational_linalg as rl
from quantaequiv.cyclotomic import phase_sum_is_zero
from quantaequiv.sampling import (
    make_rng,
    random_coeff,
    random_element,
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
    assert a * b == CoeffExpr.rational(-1)


def test_coeff_conjugate():
    c = CoeffExpr.gaussian(1, 2) * CoeffExpr.phase(0, Fraction(3))
    v = c.value_at(0.7)
    assert c.conjugate().value_at(0.7) == pytest.approx(v.conjugate())


def test_coeff_substitute_freezes_parameter():
    c = CoeffExpr.phase(0, Fraction(-1, 2))  # e^{-i t / 2}
    frozen = c.substitute(Fraction(1, 2))
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
    assert prod.labels == [SP1.vector([1, 1])]
    assert prod.coefficient([1, 1]) == CoeffExpr.phase(0, Fraction(-1, 2))


def test_product_reversed_order_twist():
    f = weyl_generator(SP1, [1, 0])
    g = weyl_generator(SP1, [0, 1])
    ab = multiply(f, g)
    ba = multiply(g, f)
    # they differ by the full phase e^{-i t sigma}
    assert ab.coefficient([1, 1]) == ba.coefficient([1, 1]).shift(0, Fraction(-1))


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
    assert br.labels == [SP1.vector([1, 1])]
    assert br.coefficient([1, 1]) == CoeffExpr.one()  # sigma = 1


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
        d = CoeffExpr.rational(-s21 / s12)
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
    assert_same_coeff(a.substitute(dq), ra.substitute(dq))
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
