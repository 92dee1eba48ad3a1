"""Quantization and classical-limit functors on Weyl data.

Objects are symplectic spaces wearing either a classical or a quantum hat;
arrows are (character, linear map) pairs acting on generators by

    W(f)  ->  chi(f) W(Tf)

at every value of the deformation parameter.  Because arrows are finite
data and elements have exact phase coefficients, every functor law, round
trip and naturality square is decided by exact equality, and the strict
deformation defects come out as closed-form trig expressions.

The quantization map itself is a relabeling: a classical combination and
its quantized counterpart share labels and coefficient tables and differ
only in the fiber tag.  Rescaling maps between fibers are therefore retags
as well, which is what makes them exactly invertible here.

Each functor is well defined on an arrow exactly when its linear part
preserves the forms, so the exact half decides an arrow by one matrix
identity, T^t . form_cod . T = form_dom, once per functor application and
once per category validation.  Bracket preservation for classical arrows and the scaling
condition for quantum ones both collapse to it on generators: the
character is multiplicative and nonzero, so it cancels from both sides,
and rescaling and the involution are retags, so they commute with every
arrow by construction.  For the same reason the limit arrow intertwines
evaluation at 0 with no further check, and well-shaped data is smooth.
The element-level computations of both conditions live in the tests, as
the reference this identity is compared against.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

from . import rational_linalg as rl
from .symplectic import (
    CharacterSpec,
    LinearMapSpec,
    SpaceError,
    compose_characters,
    is_symplectic_map,
)
from .weyl_algebra import (
    _CLASSICAL,
    AlgebraError,
    CoeffExpr,
    WeylElement,
    _evaluated,
    _fiber_value,
    merge_terms,
    multiply,
    norm_bounds,
    poisson_bracket,
    weyl_generator,
)


class FunctorError(ValueError):
    """Functor preconditions that fail: non-Poisson arrows, bad fibers."""


@dataclass(frozen=True)
class ClassicalWeylObject:
    space: object


@dataclass(frozen=True)
class QuantWeylObject:
    space: object


@dataclass(frozen=True)
class WeylMorphismSpec:
    """Arrow data: W(f) -> chi(f) W(Tf), domain and codomain objects.

    Only shapes are validated here, and valid shapes are all smoothness
    asks for: every generator lands on one generator of the codomain.
    Whether the linear part preserves the forms is decided by the functors
    and the category validators, so that violating specs can exist as
    negative controls.  Both functor preconditions come down to the exact
    identity T^t . form_cod . T = form_dom on the linear part; the
    character never affects them.
    """

    chi: CharacterSpec
    linear: LinearMapSpec
    dom: object
    cod: object

    def __post_init__(self):
        if len(self.chi.theta_ints[0]) != self.dom.space.dim:
            raise SpaceError("character length must match the domain dimension")
        if self.linear.dim_in != self.dom.space.dim:
            raise SpaceError("linear part must accept domain vectors")
        if self.linear.dim_out != self.cod.space.dim:
            raise SpaceError("linear part must produce codomain vectors")


def identity_morphism(obj):
    n = obj.space.dim
    return WeylMorphismSpec(
        chi=CharacterSpec._from_ints(((0,) * n, 1)),
        # the canonical integer form of the identity: no Fraction matrix is built
        linear=LinearMapSpec._from_ints(
            (tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)
        ),
        dom=obj,
        cod=obj,
    )


def compose_morphisms(m2, m1):
    """The composite arrow m2 after m1 (exact data composition)."""
    if m1.cod != m2.dom:
        raise FunctorError("arrows are not composable")
    return WeylMorphismSpec(
        chi=compose_characters(m2.chi, m1.linear, m1.chi),
        linear=m2.linear.compose(m1.linear),
        dom=m1.dom,
        cod=m2.cod,
    )


def apply_morphism(m, a):
    """Extend W(f) -> chi(f) W(Tf) linearly over the coefficients.

    The element is mapped as it stands, symbolic or pinned: the arrow
    ignores the fiber tag.
    """
    if a.space != m.dom.space:
        raise AlgebraError("element does not live on the arrow's domain")
    images = merge_terms(
        (m.cod.space.vector(m.linear.apply(f)), coeff.shift(rl.dot(m.chi.theta, f), 0))
        for f, coeff in a.terms.items()
    )
    return WeylElement(m.cod.space, images, hbar=a.hbar)


# --- functor actions on objects --------------------------------------------


def quantize_object(c):
    return QuantWeylObject(c.space)


def classical_limit_object(q):
    return ClassicalWeylObject(q.space)


# --- rescaling between fibers ------------------------------------------------


def rescale(a, src, dst):
    """Transport a pinned element from fiber src to fiber dst.

    Quantization keeps labels and coefficient values, so the transport is a
    retag; src and dst may be 0, which makes quantization itself the
    transport from the classical fiber.
    """
    src = _fiber_value(src, FunctorError)
    dst = _fiber_value(dst, FunctorError)
    if a.hbar is None or (a.hbar is not src and a.hbar != src):
        raise FunctorError("element is not in the quantized image at the source fiber")
    return a._at_fiber(dst)


# --- morphism checks ---------------------------------------------------------


def smooth_check(m):
    """True iff W(f) -> chi(f) W(Tf) lands on codomain generators: the shapes
    checked at construction, False for a spec corrupted past it."""
    return m.linear.dim_in == m.dom.space.dim and m.linear.dim_out == m.cod.space.dim


def scaling_check(m, hbar, hbar2):
    """Conjugating by rescaling maps must reproduce the arrow at the new fiber.

    The conditions are: the conjugated generator images equal the direct
    formula at hbar2, products of generator pairs are preserved, and the
    involution is preserved.  Both fibers must be nonzero.

    The property is decided by poisson_morphism_check's identity
    T^t . form_cod . T = form_dom, which is exact: rescaling is a retag
    and the arrow ignores the fiber tag, so conjugation reproduces the
    direct images by construction; the involution sends chi(f) W(Tf) to
    chi(-f) W(T(-f)) for every character; and the image of W(f) W(g)
    carries the twist of sigma_dom(f, g) where the product of the images
    carries that of sigma_cod(Tf, Tg), the character factors agreeing by
    multiplicativity.
    """
    h1 = _fiber_value(hbar, FunctorError)
    h2 = _fiber_value(hbar2, FunctorError)
    if h1 is _CLASSICAL or h2 is _CLASSICAL:
        raise FunctorError("scaling compares fibers away from the classical one")
    return poisson_morphism_check(m)


def poisson_morphism_check(m):
    """Exact bracket preservation, decided for the whole space at once.

    The test is T^t . form_cod . T = form_dom, which is exact: the image of {W(f), W(g)} is sigma_dom(f, g) chi(f+g) W(T(f+g))
    and the bracket of the images is sigma_cod(Tf, Tg) chi(f) chi(g)
    W(T(f+g)); the character is multiplicative and nonzero, so the two agree
    on every pair of basis vectors exactly when the pulled-back form equals
    the domain form, and by bilinearity that decides all pairs.
    """
    return is_symplectic_map(m.linear, m.dom.space, m.cod.space)


# --- functor actions on arrows ----------------------------------------------


def quantize_morphism(m):
    """Reinterpret a bracket-preserving classical arrow on quantum objects."""
    if not poisson_morphism_check(m):
        raise FunctorError("arrow does not preserve the bracket")
    return replace(m, dom=quantize_object(m.dom), cod=quantize_object(m.cod))


def classical_limit_morphism(m):
    """Reinterpret a scaling quantum arrow on classical objects.

    The scaling condition is decided once, by the form identity.  Nothing
    else needs checking: smoothness holds for every well-shaped spec, the
    limit arrow preserves the bracket by the same identity, and mapping a
    section then evaluating at 0 equals evaluating then mapping with the
    limit arrow, since the arrow ignores the fiber tag and its character
    phase is constant in the parameter.
    """
    if not scaling_check(m, 1, Fraction(1, 2)):
        raise FunctorError("arrow fails the scaling condition")
    return replace(m, dom=classical_limit_object(m.dom), cod=classical_limit_object(m.cod))


# --- the vanishing ideal -----------------------------------------------------


def k0_membership(s):
    """True iff every coefficient is an exact zero at parameter 0.

    Membership in the vanishing ideal is a coefficient statement because
    max_f |c_f(0)| and sum_f |c_f(0)| pinch the limiting norm.  Sections
    are symbolic elements: their coefficients are functions of the parameter.
    """
    if s.hbar is not None:
        raise AlgebraError("sections must stay symbolic in the parameter")
    return all(c.vanishes_at_zero() for c in s.coeffs())


# --- strict deformation defect scalars ---------------------------------------


def _classical_generator(space, f):
    # W(f) on the classical fiber.  The defects decide their fiber h once:
    # rescale(., 0, h) of this element, and of a product or bracket of two
    # such, is the retag _at_fiber(h), with nothing left to check.
    return _evaluated(weyl_generator(space, f), _CLASSICAL)


def von_neumann_defect(space, f, g, hbar):
    """Norm distance between quantize-then-multiply and multiply-then-quantize.

    For generator pairs the defect element has one label, so the bound pair
    collapses and the value equals 2|sin(hbar sigma(f,g)/4)|.
    """
    h = _fiber_value(hbar, FunctorError)
    a0, b0 = _classical_generator(space, f), _classical_generator(space, g)
    defect = multiply(a0._at_fiber(h), b0._at_fiber(h)) - multiply(a0, b0)._at_fiber(h)
    return norm_bounds(defect)[1]


def dirac_defect(space, f, g, hbar):
    """Norm distance of the scaled commutator from the quantized bracket.

    For generator pairs this equals |(2/hbar) sin(hbar sigma(f,g)/2) - sigma(f,g)|.
    Finite sums with several labels return the coefficient-sum upper bound.
    """
    h = _fiber_value(hbar, FunctorError)
    if h is _CLASSICAL:
        raise FunctorError("the commutator scale 1/hbar needs a positive fiber")
    a0, b0 = _classical_generator(space, f), _classical_generator(space, g)
    qa, qb = a0._at_fiber(h), b0._at_fiber(h)
    commutator = multiply(qa, qb) - multiply(qb, qa)
    scaled = commutator.scale_coeff(CoeffExpr.gaussian(0, Fraction(1, 1) / h))
    defect = scaled - poisson_bracket(a0, b0)._at_fiber(h)
    return norm_bounds(defect)[1]


_NORM_SPREAD_TOLERANCE = 1e-12  # largest spread of norms across a schedule


def rieffel_condition_check(a, schedule):
    """True iff the quantized norm of a classical element is schedule-constant.

    Exact norms are available for at most one label (the generators are
    unitary), which covers the continuity condition for the generating set.
    """
    if a.hbar != 0:
        raise AlgebraError("expects a classical (fiber 0) element")
    if len(a.coeffs()) > 1:
        raise AlgebraError("exact norms need single-generator elements")
    norms = [norm_bounds(rescale(a, 0, h))[1] for h in schedule]
    return not norms or max(norms) - min(norms) <= _NORM_SPREAD_TOLERANCE
