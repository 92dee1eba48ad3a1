"""Concrete category instances for the quantization equivalence.

The classical category has symplectic spaces as objects and bracket
preserving (character, linear map) arrows; the quantum category has the
same underlying data acting fiberwise.  Quantization and the classical
limit act as identity-on-data functors between them, and the comparison
transformations have identity components, so the equivalence checks reduce
to exact data equalities that the category kernel verifies square by
square.

An arrow belongs to either category exactly when its linear part
preserves the forms: bracket preservation and the scaling condition are the
same identity T^t . form_cod . T = form_dom on the same (character, linear
map) data, so both categories validate arrows with one predicate.
"""

from .category import ArrowRecord, CategorySpec, FunctorSpec, NatTransSpec
from .sampling import (
    darboux_frame,
    make_rng,
    random_character,
    random_space_pool,
    random_symplectic_map,
)
from .symplectic import is_symplectic_map
from .weyl_functors import (
    ClassicalWeylObject,
    WeylMorphismSpec,
    classical_limit_morphism,
    classical_limit_object,
    compose_morphisms,
    identity_morphism,
    quantize_morphism,
    quantize_object,
)


def _arrow_is_valid(record):
    m = record.payload
    return (
        m.dom == record.dom
        and m.cod == record.cod
        and is_symplectic_map(m.linear, m.dom.space, m.cod.space)
    )


def classical_category():
    return CategorySpec(
        "classical-weyl", identity_morphism, compose_morphisms, _arrow_is_valid
    )


def quantum_category():
    return CategorySpec("quantum-weyl", identity_morphism, compose_morphisms, _arrow_is_valid)


def quantization_functor():
    return FunctorSpec(
        "quantize",
        classical_category(),
        quantum_category(),
        quantize_object,
        quantize_morphism,
    )


def limit_functor():
    return FunctorSpec(
        "limit",
        quantum_category(),
        classical_category(),
        classical_limit_object,
        classical_limit_morphism,
    )


def unit_transformation():
    """Compares the classical identity functor with limit-after-quantize."""
    return NatTransSpec(
        "unit",
        component=identity_morphism,
        inverse=identity_morphism,
        source_of=lambda obj: obj,
        target_of=lambda obj: classical_limit_object(quantize_object(obj)),
    )


def counit_transformation():
    """Compares the quantum identity functor with quantize-after-limit."""
    return NatTransSpec(
        "counit",
        component=identity_morphism,
        inverse=identity_morphism,
        source_of=lambda obj: obj,
        target_of=lambda obj: quantize_object(classical_limit_object(obj)),
    )


def sample_classical_arrows(seed, count):
    """A deterministic pool of valid classical arrows, identities included.

    The arrows run between ten random spaces of dimension 2, 4 or 6, and
    connect spaces of equal dimension, so the pool contains genuine
    cross-space isomorphisms whenever the space pool has dimension twins.
    Each space's Darboux frame is built once, when the spaces are drawn.
    """
    rng = make_rng(seed, "classical-arrows")
    spaces = random_space_pool(rng, 10)
    objects = [ClassicalWeylObject(s) for s in spaces]
    framed = [(obj, darboux_frame(obj.space)) for obj in objects]
    arrows = []
    for k in range(count):
        dom, dom_frame = rng.choice(framed)
        cods = [entry for entry in framed if entry[0].space.dim == dom.space.dim]
        cod, cod_frame = rng.choice(cods)
        payload = WeylMorphismSpec(
            chi=random_character(rng, dom.space.dim),
            linear=random_symplectic_map(rng, dom.space, cod.space, dom_frame, cod_frame),
            dom=dom,
            cod=cod,
        )
        arrows.append(ArrowRecord("m%d" % k, dom, cod, payload))
    for j, obj in enumerate(objects[:3]):
        arrows.append(ArrowRecord("id%d" % j, obj, obj, identity_morphism(obj)))
    return arrows


def quantize_arrow_pool(arrows):
    return [
        ArrowRecord(
            "q-" + a.arrow_id,
            quantize_object(a.dom),
            quantize_object(a.cod),
            quantize_morphism(a.payload),
        )
        for a in arrows
    ]
