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
[0, 1), so merging terms hashes and adds ints; only the amplitudes are
Fractions, and ``CoeffExpr.terms`` reads the keys back as Fractions in the
same order.  ``multiply`` and ``poisson_bracket`` read the space's integer
form and scale the labels to ints over one common denominator once, so
sigma(f, g) is one int sum per pair of labels and f + g is summed and keyed
as ints.
"""

import json
from cmath import exp as cexp
from fractions import Fraction
from math import gcd, lcm, pi

from . import rational_linalg as rl
from .cyclotomic import phase_sum_is_zero


class AlgebraError(ValueError):
    """Operands that do not live in a common algebra."""


def _add(an, ad, bn, bd):
    # an/ad + bn/bd in lowest terms, denominators positive
    n = an * bd + bn * ad
    d = ad * bd
    g = gcd(n, d)
    return n // g, d // g


def _norm_items(items):
    # canonical term dict keyed by (pn, pd, qn, qd): p = pn/pd reduced into
    # [0, 1) with the sign folded into amp, q = qn/qd in lowest terms
    out = {}
    for (pn, pd, qn, qd), amp in items:
        if not amp:
            continue
        pn %= 2 * pd
        if pn >= pd:
            pn -= pd
            amp = -amp
        key = (pn, pd, qn, qd)
        acc = out.get(key)
        if acc is None:
            out[key] = amp
        else:
            acc += amp
            if acc:
                out[key] = acc
            else:
                del out[key]
    return out


def _key(p, q):
    p = Fraction(p)
    q = Fraction(q)
    return (p.numerator, p.denominator, q.numerator, q.denominator)


class CoeffExpr:
    """Finite sum of exact phases  amp * e^{i pi p} * e^{i q t}.

    The rational exponents p and q are kept as pairs of ints in lowest
    terms, so merging terms hashes and adds ints; ``terms`` reads them back
    as Fractions.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            terms = terms.items()
        self._terms = _norm_items([(_key(p, q), Fraction(a)) for (p, q), a in terms])

    @classmethod
    def _raw(cls, normalized):
        obj = cls.__new__(cls)
        obj._terms = normalized
        return obj

    @classmethod
    def zero(cls):
        return cls._raw({})

    @classmethod
    def one(cls):
        return cls._raw({(0, 1, 0, 1): Fraction(1)})

    @classmethod
    def rational(cls, c):
        return cls({(Fraction(0), Fraction(0)): Fraction(c)})

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
        return {
            (Fraction(pn, pd), Fraction(qn, qd)): amp
            for (pn, pd, qn, qd), amp in self._terms.items()
        }

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return isinstance(other, CoeffExpr) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "CoeffExpr(0)"
        bits = []
        for (p, q), amp in sorted(self.terms.items()):
            bits.append("%s*e^(i pi %s + i %s t)" % (amp, p, q))
        return "CoeffExpr(%s)" % " + ".join(bits)

    def __add__(self, other):
        merged = dict(self._terms)
        for key, amp in other._terms.items():
            acc = merged.get(key)
            if acc is None:
                merged[key] = amp
            else:
                acc += amp
                if acc:
                    merged[key] = acc
                else:
                    del merged[key]
        return CoeffExpr._raw(merged)

    def __neg__(self):
        return CoeffExpr._raw({k: -a for k, a in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self._times_phase(other, 0, 1)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return CoeffExpr.zero()
        return CoeffExpr._raw({k: a * c for k, a in self._terms.items()})

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
            )
        )

    def shift(self, dp, dq):
        """Multiply by the unit phase e^{i pi dp} e^{i dq t}."""
        dpn, dpd, dqn, dqd = _key(dp, dq)
        return CoeffExpr._raw(
            _norm_items(
                [
                    (_add(pn, pd, dpn, dpd) + _add(qn, qd, dqn, dqd), a)
                    for (pn, pd, qn, qd), a in self._terms.items()
                ]
            )
        )

    def conjugate(self):
        return CoeffExpr._raw(
            _norm_items(
                [((-pn, pd, -qn, qd), a) for (pn, pd, qn, qd), a in self._terms.items()]
            )
        )

    def substitute(self, h):
        """Freeze the parameter: q picks up the factor h and becomes an angle."""
        h = Fraction(h)
        hn, hd = h.numerator, h.denominator
        out = []
        for (pn, pd, qn, qd), a in self._terms.items():
            qn *= hn
            qd *= hd
            g = gcd(qn, qd)
            out.append(((pn, pd, qn // g, qd // g), a))
        return CoeffExpr._raw(_norm_items(out))

    @property
    def is_constant(self):
        return all(qn == 0 for (_, _, qn, _) in self._terms)

    def value_at(self, t):
        """Numeric complex value with the parameter slot set to the float t."""
        t = float(t)
        total = 0j
        for (p, q), amp in sorted(self.terms.items()):
            total += float(amp) * cexp(1j * (pi * float(p) + float(q) * t))
        return total

    def at_zero_exponents(self):
        # value at t = 0 as a root-of-unity sum: exponent p -> rational amp
        out = {}
        for (pn, pd, _, _), amp in self._terms.items():
            acc = out.get((pn, pd))
            out[(pn, pd)] = amp if acc is None else acc + amp
        return {Fraction(pn, pd): amp for (pn, pd), amp in out.items()}

    def vanishes_at_zero(self):
        """Exact (cyclotomic) zero test of the value at parameter 0."""
        return phase_sum_is_zero(self.at_zero_exponents())


class WeylElement:
    """A finite combination  sum_f c_f W(f)  over one symplectic space.

    ``hbar`` is None for symbolic elements (coefficients are functions of the
    deformation parameter) and an exact Fraction for elements pinned to one
    fiber; in a pinned element the q slots of the coefficients are angles.
    """

    __slots__ = ("space", "hbar", "_terms")

    def __init__(self, space, terms=(), hbar=None):
        if isinstance(terms, dict):
            terms = terms.items()
        clean = {}
        for label, coeff in terms:
            label = space.vector(label)
            if not isinstance(coeff, CoeffExpr):
                raise AlgebraError("coefficients must be CoeffExpr instances")
            if coeff:
                acc = clean.get(label)
                clean[label] = coeff if acc is None else acc + coeff
                if not clean[label]:
                    del clean[label]
        self.space = space
        self.hbar = None if hbar is None else Fraction(hbar)
        if self.hbar is not None and not (0 <= self.hbar <= 1):
            raise AlgebraError("fiber parameter must lie in [0, 1]")
        self._terms = clean

    @property
    def terms(self):
        return dict(self._terms)

    @property
    def labels(self):
        return sorted(self._terms)

    def coefficient(self, label):
        return self._terms.get(self.space.vector(label), CoeffExpr.zero())

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.space == other.space
            and self.hbar == other.hbar
            and self._terms == other._terms
        )

    def __repr__(self):
        tag = "symbolic" if self.hbar is None else "hbar=%s" % self.hbar
        return "WeylElement(%s, %d terms)" % (tag, len(self._terms))

    def _require_compatible(self, other):
        if self.space != other.space:
            raise AlgebraError("elements live on different spaces")
        if self.hbar != other.hbar:
            raise AlgebraError("elements live at different parameter values")

    def __add__(self, other):
        self._require_compatible(other)
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

    def __mul__(self, other):
        if isinstance(other, WeylElement):
            return multiply(self, other)
        return NotImplemented

    def _rebuild(self, term_dict):
        obj = WeylElement.__new__(WeylElement)
        obj.space = self.space
        obj.hbar = self.hbar
        obj._terms = term_dict
        return obj

    def scale_coeff(self, coeff):
        """Multiply every coefficient by a fixed CoeffExpr."""
        if not isinstance(coeff, CoeffExpr):
            coeff = CoeffExpr.rational(coeff)
        out = {}
        for label, c in self._terms.items():
            total = c * coeff
            if total:
                out[label] = total
        return self._rebuild(out)


def weyl_generator(space, f, hbar=None):
    """The single generator W(f) with unit coefficient."""
    return WeylElement(space, {space.vector(f): CoeffExpr.one()}, hbar=hbar)


def weyl_unit(space, hbar=None):
    return weyl_generator(space, rl.zeros(space.dim), hbar=hbar)


def _pair_sum(a, b, piece_of):
    # sum over label pairs of piece_of(cf, cg, num, den) W(f+g), where
    # sigma(f, g) = num / den; a piece of None is skipped.  Every label of a
    # and b is scaled to ints over one common denominator d, so f + g is an
    # int tuple over d: the sums are keyed by it, which maps one to one onto
    # the labels (same dict order), and one Fraction label is built per
    # output label.  With the form w / dw, sigma is f . (w g) / (d^2 dw):
    # w g once per label of b, one int sum per pair
    w, dw = a.space.form_ints
    d = lcm(*[x.denominator for f in (*a._terms, *b._terms) for x in f])
    den = d * d * dw
    right = []
    for g, cg in b._terms.items():
        gi = [x.numerator * (d // x.denominator) for x in g]
        right.append((gi, cg, [sum([x * y for x, y in zip(row, gi)]) for row in w]))
    out = {}
    for f, cf in a._terms.items():
        fi = [x.numerator * (d // x.denominator) for x in f]
        for gi, cg, wg in right:
            piece = piece_of(cf, cg, sum([x * y for x, y in zip(fi, wg)]), den)
            if piece is None:
                continue
            key = tuple([x + y for x, y in zip(fi, gi)])
            acc = out.get(key)
            total = piece if acc is None else acc + piece
            if total:
                out[key] = total
            else:
                out.pop(key, None)
    return a._rebuild({tuple([Fraction(x, d) for x in key]): c for key, c in out.items()})


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
    out = {}
    for f, c in a._terms.items():
        out[rl.vec_neg(f)] = c.conjugate()
    return a._rebuild(out)


def poisson_bracket(a, b):
    """Classical bracket, defined only for parameter-free elements.

    {W(f), W(g)} = sigma(f, g) W(f+g), extended bilinearly.
    """
    a._require_compatible(b)
    for elt in (a, b):
        if elt.hbar not in (None, Fraction(0)):
            raise AlgebraError("poisson_bracket needs classical elements")
        if any(not c.is_constant for c in elt._terms.values()):
            raise AlgebraError("poisson_bracket needs parameter-free coefficients")

    def bracketed(cf, cg, num, den):
        return (cf * cg).scale(Fraction(num, den)) if num else None

    return _pair_sum(a, b, bracketed)


def evaluate_at(a, hbar):
    """Specialize a symbolic element to one parameter value.

    The value is read as an exact rational, Fraction(hbar), so a float
    stands for its exact binary value and the coefficients stay exact.
    """
    if a.hbar is not None:
        raise AlgebraError("element is already pinned to a parameter value")
    h = Fraction(hbar)
    if not (0 <= h <= 1):
        raise AlgebraError("exact parameter values must lie in [0, 1]")
    return WeylElement(
        a.space, {f: c.substitute(h) for f, c in a._terms.items()}, hbar=h
    )


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
    grouped = {}
    for (p, q), amp in coeff.terms.items():
        base = p % Fraction(1, 2)
        quadrant = int((p - base) * 2)  # 0 or 1 since p is canonical in [0, 1)
        key = (base, q)
        re, im = grouped.get(key, (Fraction(0), Fraction(0)))
        if quadrant == 0:
            re += amp
        else:
            im += amp
        grouped[key] = (re, im)
    payload = []
    for (p, q) in sorted(grouped):
        re, im = grouped[(p, q)]
        payload.append({"amp": [str(re), str(im)], "p": str(p), "q": str(q)})
    return payload


def _coeff_from_payload(payload):
    terms = {}
    for entry in payload:
        p = Fraction(entry["p"])
        q = Fraction(entry["q"])
        if len(entry["amp"]) != 2:
            raise AlgebraError("amp must be [re, im], got %r" % (entry["amp"],))
        re, im = (Fraction(x) for x in entry["amp"])
        if re:
            terms[(p, q)] = terms.get((p, q), Fraction(0)) + re
        if im:
            key = (p + Fraction(1, 2), q)
            terms[key] = terms.get(key, Fraction(0)) + im
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
        "terms": [
            {"label": [str(e) for e in f], "coeff": _coeff_to_payload(a._terms[f])}
            for f in sorted(a._terms)
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
