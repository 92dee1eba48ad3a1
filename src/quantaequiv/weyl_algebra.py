"""Finite Weyl combinations with exact phase coefficients.

Elements are finite sums  sum_f  c_f(hbar) W(f)  over generator labels f in a
rational symplectic space.  Every coefficient is a finite phase table

    c(t) = sum_j  amp_j * e^{i pi p_j} * e^{i q_j t}

with rational amp, p, q, so products, involutions and Poisson brackets close
exactly over the rationals.  The slot t is the formal deformation parameter
for symbolic elements; elements evaluated at a fixed rational parameter reuse
the same table with q read as a plain angle (t = 1).

Generator products twist by the symplectic form:
W(f) W(g) carries the extra phase e^{-i t sigma(f,g) / 2} on W(f+g), the
involution sends (f, c) to (-f, conj c), and the classical bracket of
generators is {W(f), W(g)} = sigma(f,g) W(f+g).

The exact work runs on Python ints.  A coefficient table is keyed by the
lowest-terms int pairs (pn, pd, qn, qd) of its exponents, with p folded into
[0, 1), and holds its amplitudes as int numerators over one denominator,
reduced by one gcd after every operation, so merging terms hashes and adds
ints and equal tables are equal sums; ``CoeffExpr.terms`` reads the keys
and amplitudes back as Fractions in the same order.  An element keys its
terms by int label tuples over one denominator, the lcm of the labels'
denominators, reduced again whenever labels cancel; equality compares the
keys, and ``WeylElement.terms`` and the JSON format read them back as
Fraction labels in the same order.
``multiply`` and ``poisson_bracket`` bring both operands to one
denominator and read the space's integer form, so sigma(f, g) is one int
sum per pair of labels and f + g is summed and keyed as ints.

Every sum by key, of amplitudes in a table or of coefficients in an
element (and in the samplers and arrows built on them), goes through
``merge_terms``: a zero is never stored, a key whose sum cancels is
deleted, and a key that comes back after cancelling goes to the end.
Only ``CoeffExpr.at_zero_exponents`` keeps a sum that cancels, as a zero.
"""

import json
from cmath import exp as cexp
from fractions import Fraction
from math import gcd, lcm, pi

from . import rational_linalg as rl
from .cyclotomic import phase_sum_is_zero


# the classical fiber: _fiber_value reads every zero as this one object, so
# comparing two classical fibers is an identity test
_CLASSICAL = Fraction(0)


class AlgebraError(ValueError):
    """Operands that do not live in a common algebra."""


def _add(an, ad, bn, bd):
    # an/ad + bn/bd in lowest terms, denominators positive
    n = an * bd + bn * ad
    d = ad * bd
    g = gcd(n, d)
    return n // g, d // g


def merge_terms(items, out=None):
    """Sum the (key, value) pairs into out, a new dict by default, by the
    merge policy above; a value of None is skipped like a zero."""
    if out is None:
        out = {}
    for key, value in items:
        if not value:
            continue
        acc = out.get(key)
        if acc is not None:
            value = acc + value
            if not value:
                del out[key]
                continue
        out[key] = value
    return out


def _folded(items):
    # p = pn/pd reduced into [0, 1) with the sign folded into amp
    for (pn, pd, qn, qd), amp in items:
        pn %= 2 * pd
        if pn >= pd:
            yield (pn - pd, pd, qn, qd), -amp
        else:
            yield (pn, pd, qn, qd), amp


def _norm_items(items):
    # canonical term dict keyed by (pn, pd, qn, qd), q = qn/qd in lowest terms
    return merge_terms(_folded(items))


def _key(p, q):
    p = Fraction(p)
    q = Fraction(q)
    return (p.numerator, p.denominator, q.numerator, q.denominator)


def _over_lcm(pairs):
    # (key, (n, d)) pairs -> (the folded and merged table of the numerators
    # over the lcm of the d, that lcm)
    pairs = list(pairs)
    den = lcm(*[d for _, (_, d) in pairs])
    return _norm_items([(k, n * (den // d)) for k, (n, d) in pairs]), den


def _canonical(terms, den):
    # (terms, den) divided by gcd(den, *numerators); den is 1 for an empty table
    g = gcd(den, *terms.values())
    if g == 1:
        return terms, den
    return {k: a // g for k, a in terms.items()}, den // g


class CoeffExpr:
    """Finite sum of exact phases  amp * e^{i pi p} * e^{i q t}.

    The rational exponents p and q are kept as pairs of ints in lowest
    terms, and the amplitudes as int numerators over one positive
    denominator ``_den`` with gcd(_den, *numerators) == 1 (1 for the empty
    table), so equal sums have equal tables and merging terms hashes and
    adds ints; ``terms`` reads them back as Fractions.
    """

    __slots__ = ("_den", "_terms")

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            terms = terms.items()
        self._terms, self._den = _canonical(
            *_over_lcm((_key(p, q), Fraction(a).as_integer_ratio()) for (p, q), a in terms)
        )

    @classmethod
    def _raw(cls, terms, den):
        # the table terms over den, brought to the canonical form
        obj = cls.__new__(cls)
        obj._terms, obj._den = _canonical(terms, den)
        return obj

    @classmethod
    def from_int_pairs(cls, terms):
        """The sum of the ((pn, pd, qn, qd), (an, ad)) pairs: p = pn/pd,
        q = qn/qd and amp = an/ad as ints with positive denominators (not
        checked), p and q in lowest terms, p not yet folded into [0, 1)."""
        return cls._raw(*_over_lcm(terms))

    @classmethod
    def zero(cls):
        return cls._raw({}, 1)

    @classmethod
    def one(cls):
        return cls._raw({(0, 1, 0, 1): 1}, 1)

    @classmethod
    def gaussian(cls, re, im=0):
        """The constant re + i im with exact rational parts."""
        return cls(
            {
                (Fraction(0), Fraction(0)): Fraction(re),
                (Fraction(1, 2), Fraction(0)): Fraction(im),
            }
        )

    @classmethod
    def phase(cls, p, q=0):
        """The unit phase e^{i pi p} e^{i q t}."""
        return cls({(Fraction(p), Fraction(q)): Fraction(1)})

    @property
    def terms(self):
        d = self._den
        return {
            (Fraction(pn, pd), Fraction(qn, qd)): Fraction(a, d)
            for (pn, pd, qn, qd), a in self._terms.items()
        }

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        # the form is canonical: equal sums have equal tables
        return (
            isinstance(other, CoeffExpr)
            and self._den == other._den
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self._den, frozenset(self._terms.items())))

    def __repr__(self):
        if not self._terms:
            return "CoeffExpr(0)"
        bits = []
        for (p, q), amp in sorted(self.terms.items()):
            bits.append("%s*e^(i pi %s + i %s t)" % (amp, p, q))
        return "CoeffExpr(%s)" % " + ".join(bits)

    def _over(self, d):
        # the numerators over the multiple d of _den
        s = d // self._den
        if s == 1:
            return self._terms
        return {k: a * s for k, a in self._terms.items()}

    def __add__(self, other):
        d = lcm(self._den, other._den)
        return CoeffExpr._raw(merge_terms(other._over(d).items(), dict(self._over(d))), d)

    def __neg__(self):
        return CoeffExpr._raw({k: -a for k, a in self._terms.items()}, self._den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self._times_phase(other, 0, 1)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        return self._scaled(c.numerator, c.denominator)

    def _scaled(self, n, d):
        # self * n/d for ints n and d > 0
        if not n:
            return CoeffExpr.zero()
        return CoeffExpr._raw({k: a * n for k, a in self._terms.items()}, self._den * d)

    def _times_phase(self, other, dqn, dqd):
        # self * other * e^{i (dqn/dqd) t}, normalized once; shifting the keys
        # of other is a bijection, so the merged terms and their order match
        # (self * other).shift(0, dqn/dqd)
        shifted = [
            (p2n, p2d) + _add(q2n, q2d, dqn, dqd) + (a2,)
            for (p2n, p2d, q2n, q2d), a2 in other._terms.items()
        ]
        return CoeffExpr._raw(
            _norm_items(
                [
                    (_add(p1n, p1d, p2n, p2d) + _add(q1n, q1d, q2n, q2d), a1 * a2)
                    for (p1n, p1d, q1n, q1d), a1 in self._terms.items()
                    for p2n, p2d, q2n, q2d, a2 in shifted
                ]
            ),
            self._den * other._den,
        )

    def shift(self, dp, dq):
        """Multiply by the unit phase e^{i pi dp} e^{i dq t}."""
        dq = Fraction(dq)
        return self._times_phase(CoeffExpr.phase(dp), dq.numerator, dq.denominator)

    def conjugate(self):
        return CoeffExpr._raw(
            _norm_items(
                [((-pn, pd, -qn, qd), a) for (pn, pd, qn, qd), a in self._terms.items()]
            ),
            self._den,
        )

    def substitute(self, hn, hd):
        """Freeze the parameter at hn/hd, for ints hn and hd > 0: q picks up
        the factor and becomes an angle."""
        out = []
        for (pn, pd, qn, qd), a in self._terms.items():
            qn *= hn
            qd *= hd
            g = gcd(qn, qd)
            out.append(((pn, pd, qn // g, qd // g), a))
        return CoeffExpr._raw(_norm_items(out), self._den)

    @property
    def is_constant(self):
        return all(qn == 0 for (_, _, qn, _) in self._terms)

    def value_at(self, t):
        """Numeric complex value with the parameter slot set to the float t."""
        t = float(t)
        d = self._den
        # the terms in the order of their Fraction exponents (p, q), which fixes
        # the float sum: over the lcm of their denominators they compare as ints
        lp = lcm(*[k[1] for k in self._terms])
        lq = lcm(*[k[3] for k in self._terms])

        def order(item):
            pn, pd, qn, qd = item[0]
            return pn * (lp // pd), qn * (lq // qd)

        total = 0j
        for (pn, pd, qn, qd), a in sorted(self._terms.items(), key=order):
            # int true division rounds once, as float() of the Fraction does
            total += a / d * cexp(1j * (pi * (pn / pd) + qn / qd * t))
        return total

    def at_zero_exponents(self):
        # value at t = 0 as a root-of-unity sum: exponent p -> rational amp.
        # Not merge_terms: a sum that cancels stays, as a zero amplitude
        out = {}
        for (pn, pd, _, _), amp in self._terms.items():
            acc = out.get((pn, pd))
            out[(pn, pd)] = amp if acc is None else acc + amp
        d = self._den
        return {Fraction(pn, pd): Fraction(amp, d) for (pn, pd), amp in out.items()}

    def vanishes_at_zero(self):
        """Exact (cyclotomic) zero test of the value at parameter 0."""
        return phase_sum_is_zero(self.at_zero_exponents())


def _checked_coeff(coeff):
    if not isinstance(coeff, CoeffExpr):
        raise AlgebraError("coefficients must be CoeffExpr instances")
    return coeff


def _fiber_value(hbar, error=AlgebraError):
    # hbar as an exact Fraction in [0, 1], every zero as _CLASSICAL, or `error`;
    # Fraction raises OverflowError on an infinity and ValueError on a nan
    try:
        h = hbar if isinstance(hbar, Fraction) else Fraction(hbar)
    except (OverflowError, ValueError):
        h = None
    if h is None or not 0 <= h.numerator <= h.denominator:
        raise error("fiber parameter must lie in [0, 1], got %s" % (hbar,))
    return h if h.numerator else _CLASSICAL


class WeylElement:
    """A finite combination  sum_f c_f W(f)  over one symplectic space.

    ``hbar`` is None for symbolic elements (coefficients are functions of the
    deformation parameter) and an exact Fraction for elements pinned to one
    fiber; in a pinned element the q slots of the coefficients are angles.

    The labels are kept as int tuples over one denominator ``_den``, the lcm
    of their reduced denominators, so f = key / _den; ``terms`` reads them
    back as Fraction tuples in the same order.
    """

    __slots__ = ("space", "hbar", "_den", "_terms")

    def __init__(self, space, terms=(), hbar=None):
        if isinstance(terms, dict):
            terms = terms.items()
        # each label is checked (SpaceError) before its coefficient (AlgebraError)
        clean = merge_terms((space.vector(f), _checked_coeff(c)) for f, c in terms)
        self.space = space
        self.hbar = None if hbar is None else _fiber_value(hbar)
        d = lcm(*[x.denominator for f in clean for x in f])
        self._den = d
        self._terms = {
            tuple([x.numerator * (d // x.denominator) for x in f]): c for f, c in clean.items()
        }

    @classmethod
    def _from_ints(cls, space, terms, den, hbar=None):
        # the element sum_k terms[k] W(k / den), its coefficients nonzero; den
        # is reduced to the lcm of the label denominators, which makes it canonical
        g = gcd(den, *[x for key in terms for x in key])
        if g != 1:
            terms = {tuple([x // g for x in key]): c for key, c in terms.items()}
            den //= g
        obj = cls.__new__(cls)
        obj.space = space
        obj.hbar = hbar
        obj._den = den
        obj._terms = terms
        return obj

    @classmethod
    def from_int_pairs(cls, space, terms):
        """The symbolic sum_k terms[k] W(f_k), each label f_k given as one flat
        tuple (n1, d1, n2, d2, ...) of its entries n_i/d_i in lowest terms
        with positive denominators (not checked), and no zero coefficient: the
        terms come from merge_terms, which never stores one."""
        d = lcm(*[m for k in terms for m in k[1::2]])
        return cls._from_ints(
            space,
            {tuple([n * (d // m) for n, m in zip(k[::2], k[1::2])]): c for k, c in terms.items()},
            d,
        )

    def _at_fiber(self, hbar):
        # the same labels and coefficients tagged with the fiber hbar
        return WeylElement._from_ints(self.space, self._terms, self._den, hbar)

    @property
    def terms(self):
        d = self._den
        return {tuple([Fraction(x, d) for x in key]): c for key, c in self._terms.items()}

    def coeffs(self):
        """The coefficients, in term order."""
        return self._terms.values()

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and (self.space is other.space or self.space == other.space)
            and (self.hbar is other.hbar or self.hbar == other.hbar)
            and self._den == other._den
            and self._terms == other._terms
        )

    def __repr__(self):
        tag = "symbolic" if self.hbar is None else "hbar=%s" % self.hbar
        return "WeylElement(%s, %d terms)" % (tag, len(self._terms))

    def _require_compatible(self, other):
        # equal spaces and fibers are mostly one object: operands share their
        # space, results carry their left operand's fiber, and every
        # classical element carries _CLASSICAL
        if self.space is not other.space and self.space != other.space:
            raise AlgebraError("elements live on different spaces")
        if self.hbar is not other.hbar and self.hbar != other.hbar:
            raise AlgebraError("elements live at different parameter values")

    def _over(self, d):
        # the int-keyed terms over the multiple d of _den
        s = d // self._den
        if s == 1:
            return self._terms
        return {tuple([x * s for x in key]): c for key, c in self._terms.items()}

    def __add__(self, other):
        self._require_compatible(other)
        d = lcm(self._den, other._den)
        return self._rebuild(merge_terms(other._over(d).items(), dict(self._over(d))), d)

    def __neg__(self):
        return self._rebuild({f: -c for f, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def _rebuild(self, term_dict, den=None):
        return WeylElement._from_ints(
            self.space, term_dict, self._den if den is None else den, self.hbar
        )

    def scale_coeff(self, coeff):
        """Multiply every coefficient by a fixed CoeffExpr."""
        return self._rebuild(merge_terms((f, c * coeff) for f, c in self._terms.items()))


def weyl_generator(space, f, hbar=None):
    """The single generator W(f) with unit coefficient."""
    return WeylElement(space, {space.vector(f): CoeffExpr.one()}, hbar=hbar)


def weyl_unit(space, hbar=None):
    return weyl_generator(space, rl.zeros(space.dim), hbar=hbar)


def _pair_sum(a, b, piece_of):
    # sum over label pairs of piece_of(cf, cg, num, den) W(f+g), where
    # sigma(f, g) = num / den; merge_terms skips a piece of None.  The labels of a
    # and b are int tuples over d, the lcm of their denominators, so f + g
    # is an int tuple over d and keys the sums.  With the form w / dw, sigma
    # is f . (w g) / (d^2 dw): w g once per label of b, one int sum per pair
    w, dw = a.space.form_ints
    d = lcm(a._den, b._den)
    den = d * d * dw
    right = []
    for gi, cg in b._over(d).items():
        right.append((gi, cg, [sum([x * y for x, y in zip(row, gi)]) for row in w]))
    pieces = (
        (
            tuple([x + y for x, y in zip(fi, gi)]),
            piece_of(cf, cg, sum([x * y for x, y in zip(fi, wg)]), den),
        )
        for fi, cf in a._over(d).items()
        for gi, cg, wg in right
    )
    return a._rebuild(merge_terms(pieces), d)


def multiply(a, b):
    """Product with the exact symplectic twist on each generator pair."""
    a._require_compatible(b)
    # the twist multiplies the parameter slot by the fiber value when pinned
    hn, hd = (1, 1) if a.hbar is None else (a.hbar.numerator, a.hbar.denominator)

    def twisted(cf, cg, num, den):
        # cf cg e^{-i sigma h t / 2}
        n = -num * hn
        d = 2 * den * hd
        k = gcd(n, d)
        return cf._times_phase(cg, n // k, d // k)

    return _pair_sum(a, b, twisted)


def involution(a):
    """The star operation: (f, c) -> (-f, conj c); antilinear, involutive."""
    return a._rebuild({tuple([-x for x in f]): c.conjugate() for f, c in a._terms.items()})


def poisson_bracket(a, b):
    """Classical bracket, defined only for parameter-free elements.

    {W(f), W(g)} = sigma(f, g) W(f+g), extended bilinearly.
    """
    a._require_compatible(b)
    for elt in (a, b):
        if elt.hbar:  # None or the fiber 0
            raise AlgebraError("poisson_bracket needs classical elements")
        if any(not c.is_constant for c in elt._terms.values()):
            raise AlgebraError("poisson_bracket needs parameter-free coefficients")

    def bracketed(cf, cg, num, den):
        return (cf * cg)._scaled(num, den) if num else None

    return _pair_sum(a, b, bracketed)


def evaluate_at(a, hbar):
    """Specialize a symbolic element to one parameter value.

    The value is read as an exact rational, Fraction(hbar), so a float
    stands for its exact binary value and the coefficients stay exact.
    """
    if a.hbar is not None:
        raise AlgebraError("element is already pinned to a parameter value")
    h = _fiber_value(hbar)
    hn, hd = h.numerator, h.denominator
    # substitution can merge and cancel phases: a label may vanish
    out = merge_terms((f, c.substitute(hn, hd)) for f, c in a._terms.items())
    return WeylElement._from_ints(a.space, out, a._den, h)


def norm_bounds(a):
    """(max_f |c_f|, sum_f |c_f|): lower and upper bounds for the norm.

    Both collapse to the exact norm for single-generator elements.  The
    element must be pinned to one fiber: a symbolic element has no norm
    until evaluate_at fixes the parameter.
    """
    if a.hbar is None:
        raise AlgebraError("norm of a symbolic element needs a parameter value")
    mags = [abs(c.value_at(1.0)) for c in a._terms.values()]
    return (max(mags), sum(mags)) if mags else (0.0, 0.0)


# ---------------------------------------------------------------------------
# canonical JSON serialization
# ---------------------------------------------------------------------------


def _coeff_to_payload(coeff):
    # p is canonical in [0, 1): e^{i pi p} is e^{i pi base} or i e^{i pi base},
    # so each (base, q) holds at most one real and one imaginary amplitude
    grouped = {}
    for (p, q), amp in coeff.terms.items():
        base = p % Fraction(1, 2)
        re_im = grouped.setdefault((base, q), [Fraction(0), Fraction(0)])
        re_im[int((p - base) * 2)] = amp
    payload = []
    for (p, q) in sorted(grouped):
        re, im = grouped[(p, q)]
        payload.append({"amp": [str(re), str(im)], "p": str(p), "q": str(q)})
    return payload


def _coeff_from_payload(payload):
    terms = []
    for entry in payload:
        p = Fraction(entry["p"])
        q = Fraction(entry["q"])
        if len(entry["amp"]) != 2:
            raise AlgebraError("amp must be [re, im], got %r" % (entry["amp"],))
        re, im = (Fraction(x) for x in entry["amp"])
        terms += [((p, q), re), ((p + Fraction(1, 2), q), im)]
    return CoeffExpr(terms)


def weyl_to_json(a):
    """Canonical JSON text: sorted labels, sorted exact terms."""
    doc = {
        "schema_version": 1,
        "space": {
            "dim": a.space.dim,
            "form": [[str(e) for e in row] for row in a.space.form],
        },
        "hbar": None if a.hbar is None else str(a.hbar),
        # the int keys share one positive denominator: they sort as the labels
        "terms": [
            {
                "label": [str(Fraction(x, a._den)) for x in key],
                "coeff": _coeff_to_payload(a._terms[key]),
            }
            for key in sorted(a._terms)
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def weyl_from_json(text):
    """Parse weyl_to_json's format; a document of another shape raises AlgebraError."""
    from .symplectic import SymplecticSpace

    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("schema_version") != 1:
        raise AlgebraError("unsupported serialization schema")
    try:
        space = SymplecticSpace(
            doc["space"]["dim"],
            tuple(tuple(Fraction(e) for e in row) for row in doc["space"]["form"]),
        )
        hbar = None if doc["hbar"] is None else Fraction(doc["hbar"])
        terms = {}
        for entry in doc["terms"]:
            label = space.vector(Fraction(e) for e in entry["label"])
            if label in terms:
                raise AlgebraError("label %s appears twice" % (list(map(str, label)),))
            terms[label] = _coeff_from_payload(entry["coeff"])
    except AlgebraError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise AlgebraError("malformed serialization: %s: %s" % (type(exc).__name__, exc)) from exc
    return WeylElement(space, terms, hbar=hbar)
