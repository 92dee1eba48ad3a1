"""What the benchmark runs and what it reports: workloads, traced layers, metric names.

Shared by the orchestrator (``run.py``), the per-round worker (``worker.py``)
and the benchmark's tests, so the metric names printed, the names in
``BENCHMARK.json`` and the functions the traced run wraps come from one list.
"""

WORKLOADS = {
    # exact Fraction and cyclotomic work; the seed changes weyl-laws and weyl-sdq
    "exact": ("weyl-laws", "weyl-sdq", "equivalence-weyl"),
    # moyal_product on (f, g) pairs repeated across the hbar schedule.
    # rieffel-morphisms is left out: with its 25-29 s a round of the three
    # workloads takes about 130 s, and the benchmark's runs must fit in a fixed
    # time budget (see README.md).
    "grid-product": ("rieffel-sdq",),
    # weyl_transform at truncations 32, 64, 128; moyal_product on fresh operands
    "oscillator": ("weyl-transform",),
}

# Suites that always run with their default seed.  equivalence-weyl's seed
# draws the dimensions (2, 4 or 6) of its ten spaces, and its cost follows
# them: 4.5 to 15.4 s over seeds 1 to 7.  Seeded, it spreads the exact
# workload's times by about a third from run to run.
DEFAULT_SEED_ONLY = ("equivalence-weyl",)

# The check ids each suite's report must list, in report order.
EXPECTED_CHECKS = {
    "weyl-laws": (
        "law-01-associativity",
        "law-02-unit",
        "law-03-involution",
        "law-04-zero-fiber-commutative",
        "law-05-poisson-axioms",
        "law-06-serialization",
    ),
    "weyl-sdq": (
        "sdq-01-von-neumann-closed-form",
        "sdq-02-dirac-closed-form",
        "sdq-03-von-neumann-order",
        "sdq-04-dirac-order",
        "sdq-05-k0-brute-force",
        "sdq-06-rieffel-constancy",
    ),
    "equivalence-weyl": (
        "eq-01-classical-category",
        "eq-02-quantum-category",
        "eq-03-quantization-functor",
        "eq-04-limit-functor",
        "eq-05-naturality-invertibility",
        "eq-06-arrow-round-trips",
    ),
    "rieffel-sdq": (
        "rsdq-01-closed-form",
        "rsdq-02-quadrature-oracle",
        "rsdq-03-von-neumann-slope-pair1",
        "rsdq-03-von-neumann-slope-pair2",
        "rsdq-03-von-neumann-slope-pair3",
        "rsdq-04-dirac-slope-pair1",
        "rsdq-04-dirac-slope-pair2",
        "rsdq-04-dirac-slope-pair3",
    ),
    "weyl-transform": (
        "wt-01-window-identity",
        "wt-02-windowed-position",
        "wt-03-intertwining-pair1",
        "wt-03-intertwining-pair2",
    ),
}

# Functions the traced run wraps, as "<module>.<qualname>" inside the package.
TRACED = (
    "category.check_category_laws",
    "category.check_functor_laws",
    "category.check_equivalence",
    "category.FunctorSpec.apply",
    "category.CategorySpec.compose",
    "category.CategorySpec.arrow_is_valid",
    "weyl_equivalence.sample_classical_arrows",
    "weyl_equivalence.quantize_arrow_pool",
    "weyl_functors.classical_limit_morphism",
    "weyl_functors.quantize_morphism",
    "weyl_functors.poisson_morphism_check",
    "weyl_functors.scaling_check",
    "weyl_functors.smooth_check",
    "weyl_functors.apply_morphism",
    "weyl_functors.von_neumann_defect",
    "weyl_functors.dirac_defect",
    "symplectic.is_symplectic_map",
    "symplectic.darboux_basis",
    "rational_linalg.mat_mul",
    "rational_linalg.dot",
    "cyclotomic.phase_sum_is_zero",
    "weyl_algebra.multiply",
    "weyl_algebra.poisson_bracket",
    "weyl_algebra.involution",
    "weyl_algebra.evaluate_at",
    "weyl_algebra.CoeffExpr.__mul__",
    "sampling.random_element",
    "sampling.random_symplectic_map",
    "rieffel.moyal_product",
    "rieffel.weyl_transform",
    "rieffel.moyal_quadrature_oracle",
    "rieffel.poisson_bracket_grid",
    "rieffel.convergence_study",
    "rieffel.weyl_homomorphism_residual",
)

# Composites whose self time (inclusive time minus traced children) is reported.
SELF_TIMED = (
    "category.check_category_laws",
    "category.check_functor_laws",
    "category.check_equivalence",
    "weyl_functors.classical_limit_morphism",
    "weyl_functors.scaling_check",
    "rieffel.convergence_study",
)

# Called about 3e5 times in one exact round: counted and timed in aggregate,
# with no span per call.
AGGREGATE_ONLY = ("rational_linalg.dot",)

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def all_suites():
    return tuple(s for suites in WORKLOADS.values() for s in suites)


def per_layer_metrics():
    """(name, unit) of every metric a traced run prints, in print order."""
    out = []
    for target in TRACED:
        out.append((target + ".calls", "count"))
        out.append((target + ".s", "s"))
        if target in SELF_TIMED:
            out.append((target + ".self_s", "s"))
    for suite in all_suites():
        out.append(("harness.%s.s" % suite, "s"))
    out.append(("trace.wall_s", "s"))
    out.append(("trace.overhead_s", "s"))
    return out
