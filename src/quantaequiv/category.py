"""Small category kernel: law checks over sampled diagrams.

Categories are data: an identity rule, a composition rule on arrow
payloads, and an arrow validator, all three required.  Arrow equality is
payload equality, so instances are expected to keep payloads in canonical
form.
Checks return their violations: one entry {law, sample_id, witness} per
law that fails, in scan order, so an empty list is a pass and a passing
law builds nothing.  Each check reads an arrow argument once.  All scans
are deterministic: arrows are taken in the order given, objects in sorted
repr order.  Composable pairs (a2, a1), a1.cod ==
a2.dom, come from one scan with a2 in the outer loop and a1 in the inner
loop; the laws take the first max_pairs of them, and associativity the
first max_pairs triples (a3, a2, a1) that extend those pairs, a1 again in
the inner loop.  The inner loop runs over the arrows grouped once by
codomain, in the order given, so objects must be hashable: one dict
lookup per outer arrow replaces a comparison per pair.
"""

from dataclasses import dataclass
from itertools import islice
from operator import itemgetter


class CategoryError(ValueError):
    """Raised for structurally unusable inputs, not for law violations."""


@dataclass(frozen=True)
class ArrowRecord:
    arrow_id: str
    dom: object
    cod: object
    payload: object


class CategorySpec:
    def __init__(self, name, identity, compose, validate_arrow):
        self.name = name
        self._identity = identity
        self._compose = compose
        self._validate_arrow = validate_arrow

    def identity_arrow(self, obj):
        return ArrowRecord("id", obj, obj, self._identity(obj))

    def compose(self, a2, a1):
        if a1.cod != a2.dom:
            raise CategoryError(
                "arrows %s and %s are not composable" % (a2.arrow_id, a1.arrow_id)
            )
        try:
            payload = self._compose(a2.payload, a1.payload)
        except Exception as exc:
            raise CategoryError("composition rule failed: %s" % exc) from exc
        return ArrowRecord(
            "%s*%s" % (a2.arrow_id, a1.arrow_id), a1.dom, a2.cod, payload
        )

    def arrow_is_valid(self, record):
        return self._validate_arrow(record)


class FunctorSpec:
    def __init__(self, name, source, target, object_map, arrow_map):
        self.name = name
        self.source = source
        self.target = target
        self.object_map = object_map
        self.arrow_map = arrow_map

    def apply(self, record):
        return ArrowRecord(
            "%s(%s)" % (self.name, record.arrow_id),
            self.object_map(record.dom),
            self.object_map(record.cod),
            self.arrow_map(record.payload),
        )


class NatTransSpec:
    """One component arrow per object, with its two-sided inverse.

    ``component(obj)`` must return the payload of the arrow at obj from
    ``source_of(obj)`` to ``target_of(obj)``; returning None means the
    component is missing, which the checks treat as a hard error.
    """

    def __init__(self, name, component, inverse, source_of, target_of):
        self.name = name
        self.component = component
        self.inverse = inverse
        self.source_of = source_of
        self.target_of = target_of

    def component_record(self, obj):
        payload = self.component(obj)
        if payload is None:
            raise CategoryError("%s has no component at %r" % (self.name, obj))
        return ArrowRecord(
            "%s[%r]" % (self.name, obj), self.source_of(obj), self.target_of(obj), payload
        )

    def inverse_record(self, obj):
        payload = self.inverse(obj)
        if payload is None:
            raise CategoryError("%s has no inverse component at %r" % (self.name, obj))
        return ArrowRecord(
            "%s^-1[%r]" % (self.name, obj),
            self.target_of(obj),
            self.source_of(obj),
            payload,
        )


def _entry(law, sample_id, witness):
    return {"law": law, "sample_id": sample_id, "witness": witness}


def _sample_objects(arrows):
    seen = {}
    for a in arrows:
        for obj in (a.dom, a.cod):
            seen.setdefault(repr(obj), obj)
    return [seen[k] for k in sorted(seen)]


def _by_codomain(items, arrow=lambda x: x):
    """The items grouped by arrow(x).cod, each group in the order given."""
    groups = {}
    for x in items:
        groups.setdefault(arrow(x).cod, []).append(x)
    return groups


def _composable(outer, groups, arrow=lambda x: x):
    """The pairs (x2, x1), x2 in outer and x1 in groups[arrow(x2).dom], in order."""
    for x2 in outer:
        for x1 in groups.get(arrow(x2).dom, ()):
            yield x2, x1


def check_category_laws(cat, arrows, max_pairs):
    """Identity and associativity over the sampled arrow pool.

    At most max_pairs composable pairs are taken, and at most max_pairs
    composable triples are checked for associativity.
    """
    arrows = tuple(arrows)
    report = []
    for a in arrows:
        left = cat.compose(cat.identity_arrow(a.cod), a)
        right = cat.compose(a, cat.identity_arrow(a.dom))
        if left.payload != a.payload or right.payload != a.payload:
            report.append(_entry("identity", a.arrow_id, "identity composite changed the arrow"))
        if not cat.arrow_is_valid(a):
            report.append(_entry("arrow-validity", a.arrow_id,
                                 "arrow record fails the category validator"))
    by_cod = _by_codomain(arrows)
    pairs = islice(_composable(arrows, by_cod), max_pairs)
    triples = ((a3, a2, a1) for a3, a2 in pairs for a1 in by_cod.get(a2.dom, ()))
    for a3, a2, a1 in islice(triples, max_pairs):
        lhs = cat.compose(cat.compose(a3, a2), a1)
        rhs = cat.compose(a3, cat.compose(a2, a1))
        if lhs.payload != rhs.payload:
            report.append(_entry("associativity",
                                 "%s*%s*%s" % (a3.arrow_id, a2.arrow_id, a1.arrow_id),
                                 "associativity mismatch"))
    return report


def check_functor_laws(functor, arrows, max_pairs):
    """F(id) = id, F(g . f) = F(g) . F(f), and dom/cod preservation."""
    src, dst = functor.source, functor.target
    arrows = tuple(arrows)
    report = []
    for obj in _sample_objects(arrows):
        mapped = functor.apply(src.identity_arrow(obj))
        expected = dst.identity_arrow(functor.object_map(obj))
        if mapped.payload != expected.payload:
            report.append(_entry("functor-identity", repr(obj), "F(id) differs from id"))
    mapped = [(a, functor.apply(a)) for a in arrows]
    for a, image in mapped:
        if not (image.dom == functor.object_map(a.dom)
                and image.cod == functor.object_map(a.cod)
                and dst.arrow_is_valid(image)):
            report.append(_entry("functor-endpoints", a.arrow_id,
                                 "image endpoints disagree with the object map"))
    pairs = _composable(mapped, _by_codomain(mapped, itemgetter(0)), itemgetter(0))
    for (a2, image2), (a1, image1) in islice(pairs, max_pairs):
        lhs = functor.apply(src.compose(a2, a1))
        rhs = dst.compose(image2, image1)
        if lhs.payload != rhs.payload:
            report.append(_entry("functor-composition", "%s*%s" % (a2.arrow_id, a1.arrow_id),
                                 "F(g.f) differs from F(g).F(f)"))
    return report


def check_equivalence(functor, inverse_functor, eta, phi, source_arrows, target_arrows):
    """Two-sided natural isomorphisms for a functor pair.

    eta compares the source identity functor with inverse_functor . functor;
    phi compares the target identity functor with functor . inverse_functor.
    Components must be invertible and the squares must commute exactly.
    """
    report = []
    cases = (
        (eta, functor.source, source_arrows, lambda a: inverse_functor.apply(functor.apply(a))),
        (phi, functor.target, target_arrows, lambda a: functor.apply(inverse_functor.apply(a))),
    )
    for trans, cat, arrows, round_trip in cases:
        arrows = tuple(arrows)
        for obj in _sample_objects(arrows):
            comp = trans.component_record(obj)
            inv = trans.inverse_record(obj)
            back = cat.compose(inv, comp)
            forth = cat.compose(comp, inv)
            if (back.payload != cat.identity_arrow(comp.dom).payload
                    or forth.payload != cat.identity_arrow(comp.cod).payload):
                report.append(_entry("%s-invertibility" % trans.name, repr(obj),
                                     "component is not a two-sided isomorphism"))
        for a in arrows:
            image = round_trip(a)
            lhs = cat.compose(trans.component_record(a.cod), a)
            rhs = cat.compose(image, trans.component_record(a.dom))
            if lhs.payload != rhs.payload:
                report.append(_entry("%s-naturality" % trans.name, a.arrow_id,
                                     "naturality square does not commute"))
    return report
