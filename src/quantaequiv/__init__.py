"""Exact deformation toolkit: character algebras, functors, and grid products.

Two halves share one vocabulary.  The exact half builds Weyl character
algebras over rational symplectic spaces, their fiberwise products, the
quantization and classical-limit functors, and the categorical equivalence
checks, all in exact arithmetic.  The numeric half realizes the deformed
product on periodic phase-space grids, measures its defect scalings, and
represents grid functions as truncated oscillator matrices.
"""

# The grid half's names.  They resolve on each read (PEP 562), so that
# `import quantaequiv` and a run of the exact suites load no numpy; each is
# the object rieffel binds at that moment.  Bound before the submodules
# load: harness resolves them too, and Python probes its attributes
# (__path__) while it is imported.
_GRID_NAMES = (
    "AffineSymplecticMap",
    "AliasError",
    "Grid2n",
    "GridFunction",
    "SupportError",
    "TruncationError",
    "equivariance_defect",
    "gaussian_star_closed_form",
    "morphism_star_defect",
    "moyal_product",
    "moyal_quadrature_oracle",
    "oscillator_position",
    "poisson_bracket_grid",
    "pullback",
    "star_defects",
    "translate",
    "weyl_homomorphism_residual",
    "weyl_transform",
    "weyl_transforms",
)

from .symplectic import (
    CharacterSpec,
    LinearMapSpec,
    SpaceError,
    SymplecticSpace,
    compose_characters,
    darboux_basis,
    is_symplectic_map,
    standard_space,
    symplectic_form,
)
from .cyclotomic import cyclotomic_polynomial, phase_sum_is_zero
from .weyl_algebra import (
    AlgebraError,
    CoeffExpr,
    WeylElement,
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
from .weyl_functors import (
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
from .category import (
    ArrowRecord,
    CategoryError,
    CategorySpec,
    FunctorSpec,
    NatTransSpec,
    check_category_laws,
    check_equivalence,
    check_functor_laws,
)
from .weyl_equivalence import (
    classical_category,
    counit_transformation,
    limit_functor,
    quantization_functor,
    quantize_arrow_pool,
    quantum_category,
    sample_classical_arrows,
    unit_transformation,
)
from .convergence import GridError, convergence_study
from .sampling import child_seed, make_rng
from .harness import (
    SCHEMA_VERSION,
    SUITE_NAMES,
    ConfigError,
    default_config,
    emit_tables,
    load_config,
    report_to_json,
    run_suite,
    validate_config,
)

__version__ = "1.0.0"

__all__ = [name for name in globals() if not name.startswith("_")] + list(_GRID_NAMES)


def __getattr__(name):
    if name in _GRID_NAMES:
        from . import rieffel

        return getattr(rieffel, name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_GRID_NAMES))
