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
"""

import json
from cmath import exp as cexp
from fractions import Fraction
from math import pi

from . import rational_linalg as rl
from .cyclotomic import phase_sum_is_zero


class AlgebraError(ValueError):
    """Operands that do not live in a common algebra."""


def _norm_items(items):
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


class CoeffExpr:
    """Finite sum of exact phases  amp * e^{i pi p} * e^{i q t}."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            terms = terms.items()
        self._terms = _norm_items(
            ((Fraction(p), Fraction(q)), Fraction(a)) for (p, q), a in terms
        )

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
        return cls._raw({(Fraction(0), Fraction(0)): Fraction(1)})

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
        return dict(self._terms)

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
        return CoeffExpr._raw(merged)

    def __neg__(self):
        return CoeffExpr._raw({k: -a for k, a in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return self._times_phase(other, 0)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return CoeffExpr.zero()
        return CoeffExpr._raw({k: a * c for k, a in self._terms.items()})

    def _times_phase(self, other, dq):
        # self * other * e^{i dq t}, normalized once; shifting the keys of
        # other is a bijection, so the merged terms and their order match
        # (self * other).shift(0, dq)
        shifted = [((p2, q2 + dq), a2) for (p2, q2), a2 in other._terms.items()]
        return CoeffExpr._raw(
            _norm_items(
                ((p1 + p2, q1 + q2), a1 * a2)
                for (p1, q1), a1 in self._terms.items()
                for (p2, q2), a2 in shifted
            )
        )

    def shift(self, dp, dq):
        """Multiply by the unit phase e^{i pi dp} e^{i dq t}."""
        dp = Fraction(dp)
        dq = Fraction(dq)
        return CoeffExpr._raw(
            _norm_items((((p + dp, q + dq), a) for (p, q), a in self._terms.items()))
        )

    def conjugate(self):
        return CoeffExpr._raw(
            _norm_items((((-p, -q), a) for (p, q), a in self._terms.items()))
        )

    def substitute(self, h):
        """Freeze the parameter: q picks up the factor h and becomes an angle."""
        h = Fraction(h)
        return CoeffExpr._raw(
            _norm_items((((p, q * h), a) for (p, q), a in self._terms.items()))
        )

    @property
    def is_constant(self):
        return all(q == 0 for (_, q) in self._terms)

    def value_at(self, t):
        """Numeric complex value with the parameter slot set to the float t."""
        t = float(t)
        total = 0j
        for (p, q), amp in sorted(self._terms.items()):
            total += float(amp) * cexp(1j * (pi * float(p) + float(q) * t))
        return total

    def at_zero_exponents(self):
        # value at t = 0 as a root-of-unity sum: exponent p -> rational amp
        out = {}
        for (p, _), amp in self._terms.items():
            out[p] = out.get(p, Fraction(0)) + amp
        return out

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


def multiply(a, b):
    """Product with the exact symplectic twist on each generator pair."""
    a._require_compatible(b)
    form = a.space.form
    # the twist multiplies the parameter slot by the fiber value when pinned
    scale = Fraction(1) if a.hbar is None else a.hbar
    # omega.g once per label of b, not once per pair
    right = [(g, cg, rl.mat_vec(form, g)) for g, cg in b._terms.items()]
    out = {}
    for f, cf in a._terms.items():
        for g, cg, wg in right:
            sigma = rl.dot(f, wg)
            piece = cf._times_phase(cg, -sigma * scale / 2)
            label = rl.vec_add(f, g)
            acc = out.get(label)
            total = piece if acc is None else acc + piece
            if total:
                out[label] = total
            else:
                out.pop(label, None)
    return a._rebuild(out)


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
    form = a.space.form
    right = [(g, cg, rl.mat_vec(form, g)) for g, cg in b._terms.items()]
    out = {}
    for f, cf in a._terms.items():
        for g, cg, wg in right:
            sigma = rl.dot(f, wg)
            if sigma == 0:
                continue
            piece = (cf * cg).scale(sigma)
            label = rl.vec_add(f, g)
            acc = out.get(label)
            total = piece if acc is None else acc + piece
            if total:
                out[label] = total
            else:
                out.pop(label, None)
    return a._rebuild(out)


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
    for (p, q), amp in coeff._terms.items():
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
        re = Fraction(entry["amp"][0])
        im = Fraction(entry["amp"][1])
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
    from .symplectic import SymplecticSpace

    doc = json.loads(text)
    if doc.get("schema_version") != 1:
        raise AlgebraError("unsupported serialization schema")
    space = SymplecticSpace(
        doc["space"]["dim"],
        tuple(tuple(Fraction(e) for e in row) for row in doc["space"]["form"]),
    )
    hbar = None if doc["hbar"] is None else Fraction(doc["hbar"])
    terms = {}
    for entry in doc["terms"]:
        label = space.vector(Fraction(e) for e in entry["label"])
        terms[label] = _coeff_from_payload(entry["coeff"])
    return WeylElement(space, terms, hbar=hbar)
