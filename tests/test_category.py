import pytest

from quantaequiv.category import (
    ArrowRecord,
    CategoryError,
    CategorySpec,
    FunctorSpec,
    NatTransSpec,
    check_category_laws,
    check_equivalence,
    check_functor_laws,
)
from quantaequiv.category import _by_codomain, _composable
from quantaequiv.symplectic import CharacterSpec, LinearMapSpec, standard_space
from quantaequiv import rational_linalg as rl
from quantaequiv.weyl_equivalence import (
    classical_category,
    counit_transformation,
    limit_functor,
    quantization_functor,
    quantize_arrow_pool,
    quantum_category,
    sample_classical_arrows,
    unit_transformation,
)
from quantaequiv.weyl_functors import (
    ClassicalWeylObject,
    WeylMorphismSpec,
    identity_morphism,
)
from fractions import Fraction


# --- kernel on a toy category --------------------------------------------


def int_add_category():
    # one object, arrows are integers, composition is addition
    return CategorySpec(
        "toy",
        identity=lambda obj: 0,
        compose=lambda a, b: a + b,
        validate_arrow=lambda record: True,
    )


def toy_arrows(values):
    return [ArrowRecord("t%d" % i, "pt", "pt", v) for i, v in enumerate(values)]


def test_toy_category_passes():
    assert check_category_laws(int_add_category(), toy_arrows([1, 2, 5]), max_pairs=400) == []


def test_broken_composition_reports_violations():
    broken = CategorySpec(
        "bad",
        identity=lambda obj: 0,
        compose=lambda a, b: a + b + 1,
        validate_arrow=lambda record: True,
    )
    report = check_category_laws(broken, toy_arrows([1, 2]), max_pairs=400)
    assert report
    assert all(set(e) == {"law", "sample_id", "witness"} and e["witness"] for e in report)


def test_non_composable_pair_raises():
    cat = int_add_category()
    a = ArrowRecord("a", "x", "y", 1)
    b = ArrowRecord("b", "z", "w", 2)
    with pytest.raises(CategoryError):
        cat.compose(b, a)


def test_missing_component_raises():
    trans = NatTransSpec(
        "broken",
        component=lambda obj: None,
        inverse=lambda obj: None,
        source_of=lambda obj: obj,
        target_of=lambda obj: obj,
    )
    with pytest.raises(CategoryError):
        trans.component_record("pt")


def test_functor_laws_map_each_sampled_arrow_once():
    calls = []

    def doubled(value):
        calls.append(value)
        return 2 * value

    cat = int_add_category()
    functor = FunctorSpec("double", cat, cat, lambda obj: obj, doubled)
    assert check_functor_laws(functor, toy_arrows([1, 2, 5]), max_pairs=400) == []
    # one identity, three sampled arrows, nine composites (one image each)
    assert len(calls) == 1 + 3 + 9
    assert sorted(calls[1:4]) == [1, 2, 5]


# --- the composable scan, against the nested loops it replaced ---------------


def reference_associativity_ids(arrows, max_pairs):
    # the first max_pairs composable pairs, then the first max_pairs triples
    pairs = []
    for a2 in arrows:
        for a1 in arrows:
            if a1.cod == a2.dom:
                pairs.append((a2, a1))
                if len(pairs) >= max_pairs:
                    break
        if len(pairs) >= max_pairs:
            break
    ids = []
    for a3, a2 in pairs:
        if len(ids) >= max_pairs:
            break
        for a1 in arrows:
            if a1.cod != a2.dom:
                continue
            ids.append("%s*%s*%s" % (a3.arrow_id, a2.arrow_id, a1.arrow_id))
            if len(ids) >= max_pairs:
                break
    return ids


def reference_composition_ids(arrows, max_pairs):
    ids = []
    for a2 in arrows:
        if len(ids) >= max_pairs:
            break
        for a1 in arrows:
            if a1.cod != a2.dom:
                continue
            ids.append("%s*%s" % (a2.arrow_id, a1.arrow_id))
            if len(ids) >= max_pairs:
                break
    return ids


def free_category(name="free"):
    """Every law fails: composition is the formal pair, and no arrow is valid."""
    return CategorySpec(
        name,
        identity=lambda obj: ("id", obj),
        compose=lambda a, b: (a, b),
        validate_arrow=lambda record: False,
    )


def free_functor(name, source, target, object_map=lambda obj: obj):
    return FunctorSpec(name, source, target, object_map, lambda payload: (name, payload))


def law_scan(arrows, max_pairs):
    # every check of the two law scans, in scan order, as (law, sample_id)
    objects = sorted({repr(o): o for a in arrows for o in (a.dom, a.cod)}.items())
    laws = [(law, a.arrow_id) for a in arrows for law in ("identity", "arrow-validity")]
    laws += [("associativity", i) for i in reference_associativity_ids(arrows, max_pairs)]
    mapped = [("functor-identity", key) for key, _ in objects]
    mapped += [("functor-endpoints", a.arrow_id) for a in arrows]
    mapped += [("functor-composition", i) for i in reference_composition_ids(arrows, max_pairs)]
    return laws, mapped


def _checks(report):
    return [(e["law"], e["sample_id"]) for e in report]


def _scan_cuts(arrows):
    # max_pairs of 1; a cut after the first pair of the first row of two or
    # more composable pairs that has pairs before it; more than the pool holds
    rows = [sum(a1.cod == a2.dom for a1 in arrows) for a2 in arrows]
    row = next(i for i, n in enumerate(rows) if n >= 2 and sum(rows[:i]))
    return [1, sum(rows[:row]) + 1, sum(rows) + 5]


def _toy_pool():
    ends = ["x", "y", "z"]
    return [
        ArrowRecord("t%d" % i, ends[i % 3], ends[(i * i + 1) % 3], i) for i in range(9)
    ]


@pytest.mark.parametrize("pool", ["toy", "sampled"])
def test_scan_takes_the_pairs_and_triples_of_the_nested_loops(pool, arrow_pool):
    if pool == "toy":
        cat, arrows = int_add_category(), _toy_pool()
        functor = FunctorSpec("double", cat, cat, lambda obj: obj, lambda v: 2 * v)
    else:
        cat, arrows, functor = classical_category(), arrow_pool, quantization_functor()
    free = free_category()
    failing = free_functor("F", free, free)
    for max_pairs in _scan_cuts(arrows):
        # every law fails, so the violations list every check in scan order
        laws = check_category_laws(free, arrows, max_pairs)
        mapped = check_functor_laws(failing, arrows, max_pairs)
        assert (_checks(laws), _checks(mapped)) == law_scan(arrows, max_pairs)
        assert check_category_laws(cat, arrows, max_pairs) == []
        assert check_functor_laws(functor, arrows, max_pairs) == []
    # the cut inside a row really lands between two pairs of one a2
    cut = _scan_cuts(arrows)[1]
    last, after = reference_composition_ids(arrows, cut + 1)[-2:]
    assert last.split("*")[0] == after.split("*")[0]


class CountedEnd:
    """An arrow end equal to every end of its label; counts its comparisons."""

    compared = 0

    def __init__(self, label):
        self.label = label

    def __eq__(self, other):
        CountedEnd.compared += 1
        return isinstance(other, CountedEnd) and self.label == other.label

    def __hash__(self):
        return hash(self.label)


def test_scan_looks_up_each_domain_once():
    # every end is a fresh object, so no comparison is skipped by identity
    labels = "xyz"
    arrows = [
        ArrowRecord("c%d" % i, CountedEnd(labels[i % 3]), CountedEnd(labels[i * i % 3]), i)
        for i in range(30)
    ]
    want = [(a2, a1) for a2 in arrows for a1 in arrows if a1.cod == a2.dom]
    groups = _by_codomain(arrows)
    CountedEnd.compared = 0
    assert list(_composable(arrows, groups)) == want
    assert CountedEnd.compared <= len(arrows)


# --- Weyl instances ---------------------------------------------------------


@pytest.fixture(scope="module")
def arrow_pool():
    return sample_classical_arrows(20260816, count=50)


def test_classical_category_laws(arrow_pool):
    assert check_category_laws(classical_category(), arrow_pool, max_pairs=400) == []


def test_quantum_category_laws(arrow_pool):
    report = check_category_laws(
        quantum_category(), quantize_arrow_pool(arrow_pool), max_pairs=60
    )
    assert report == []


def test_quantization_functor_laws(arrow_pool):
    assert check_functor_laws(quantization_functor(), arrow_pool, max_pairs=60) == []


def test_limit_functor_laws(arrow_pool):
    report = check_functor_laws(
        limit_functor(), quantize_arrow_pool(arrow_pool), max_pairs=40
    )
    assert report == []


def test_equivalence_passes(arrow_pool):
    report = check_equivalence(
        quantization_functor(),
        limit_functor(),
        unit_transformation(),
        counit_transformation(),
        arrow_pool[:20],
        quantize_arrow_pool(arrow_pool[:20]),
    )
    assert report == []


def failing_equivalence():
    """The Weyl functor pair over free categories: every check of check_equivalence fails."""
    quantize, limit = quantization_functor(), limit_functor()
    classical, quantum = free_category("classical"), free_category("quantum")
    return (
        free_functor(quantize.name, classical, quantum, quantize.object_map),
        free_functor(limit.name, quantum, classical, limit.object_map),
        unit_transformation(),
        counit_transformation(),
    )


def test_checks_read_their_arrows_once():
    # one-shot iterators give the reports of the lists
    pool = sample_classical_arrows(1, count=20)
    quantized = quantize_arrow_pool(pool)
    free = free_category()
    failing = free_functor("F", free, free)
    for cat, functor in ((classical_category(), quantization_functor()), (free, failing)):
        laws = check_category_laws(cat, pool, max_pairs=60)
        assert check_category_laws(cat, iter(pool), max_pairs=60) == laws
        mapped = check_functor_laws(functor, pool, max_pairs=60)
        assert check_functor_laws(functor, iter(pool), max_pairs=60) == mapped
    assert (_checks(laws), _checks(mapped)) == law_scan(pool, 60)
    functors = (quantization_functor(), limit_functor(), unit_transformation(),
                counit_transformation())
    assert check_equivalence(*functors, pool, quantized) == []
    assert check_equivalence(*functors, iter(pool), iter(quantized)) == []
    # every check fails here, so the violations count the checks
    report = check_equivalence(*failing_equivalence(), pool, quantized)
    assert check_equivalence(*failing_equivalence(), iter(pool), iter(quantized)) == report
    assert len(report) == 64


@pytest.mark.parametrize("quantized", [False, True])
def test_validators_flag_form_violators_and_inconsistent_records(arrow_pool, quantized):
    cat, pool = classical_category(), arrow_pool
    if quantized:
        cat, pool = quantum_category(), quantize_arrow_pool(arrow_pool)
    a = next(r for r in pool if r.dom != r.cod)
    m = a.payload
    doubled = LinearMapSpec(tuple(tuple(2 * e for e in row) for row in m.linear.matrix))
    bad_form = WeylMorphismSpec(chi=m.chi, linear=doubled, dom=m.dom, cod=m.cod)
    assert cat.arrow_is_valid(a)
    assert not cat.arrow_is_valid(ArrowRecord("form", a.dom, a.cod, bad_form))
    assert not cat.arrow_is_valid(ArrowRecord("endpoints", a.cod, a.dom, m))


def test_corrupted_component_fails():
    # a constant character component is invertible but not natural
    sp = standard_space(1)
    obj = ClassicalWeylObject(sp)
    flip = WeylMorphismSpec(
        chi=CharacterSpec((Fraction(1), Fraction(0))),
        linear=LinearMapSpec(rl.identity(2)),
        dom=obj,
        cod=obj,
    )
    flip_inv = WeylMorphismSpec(
        chi=CharacterSpec((Fraction(-1), Fraction(0))),
        linear=LinearMapSpec(rl.identity(2)),
        dom=obj,
        cod=obj,
    )
    corrupted = NatTransSpec(
        "unit",
        component=lambda o: flip if o == obj else identity_morphism(o),
        inverse=lambda o: flip_inv if o == obj else identity_morphism(o),
        source_of=lambda o: o,
        target_of=lambda o: o,
    )
    rotation = WeylMorphismSpec(
        chi=CharacterSpec((Fraction(0), Fraction(0))),
        linear=LinearMapSpec(rl.matrix([[0, -1], [1, 0]])),
        dom=obj,
        cod=obj,
    )
    pool = [ArrowRecord("rot", obj, obj, rotation)]
    report = check_equivalence(
        quantization_functor(),
        limit_functor(),
        corrupted,
        counit_transformation(),
        pool,
        quantize_arrow_pool(pool),
    )
    assert report and any(e["law"] == "unit-naturality" for e in report)
