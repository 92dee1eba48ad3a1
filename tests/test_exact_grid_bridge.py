"""The exact half as a reference for the grid half.

A trigonometric polynomial sum_f c_f e^{i f.z} is both a Weyl element
sum_f c_f W(f) over standard_space(1) and a grid function.  On a grid
whose labels are whole multiples of mode_step each plane wave samples
exactly, so the grid kernels can be checked against the exact algebra,
which shares no float code with them:
- moyal_product against multiply, both twisting W(f) W(g) by
  e^{-i hbar sigma(f, g)/2} with sigma(f, g) = f_q g_p - f_p g_q;
- poisson_bracket_grid against poisson_bracket, which take opposite signs:
  the grid bracket d_q f d_p g - d_p f d_q g of two plane waves is
  -sigma(f, g) e^{i (f+g).z}, while {W(f), W(g)} = sigma(f, g) W(f+g);
- pullback under z -> A z + b against the quantized arrow
  W(f) -> chi(f) W(T f) with T = A^T and chi(f) = e^{i pi theta.f},
  theta = b / pi: e^{i f.(A z + b)} = e^{i f.b} e^{i (A^T f).z}.
A pinned element's coefficients are read at t = 1 (value_at(1.0)): their
q slots are angles.  Plane waves fill the box, so every support guard is
waived.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from quantaequiv.rieffel import (
    AffineSymplecticMap,
    Grid2n,
    GridFunction,
    moyal_product,
    poisson_bracket_grid,
    pullback,
)
from quantaequiv.symplectic import CharacterSpec, LinearMapSpec, standard_space
from quantaequiv.weyl_algebra import (
    CoeffExpr,
    WeylElement,
    evaluate_at,
    multiply,
    poisson_bracket,
)
from quantaequiv.weyl_functors import (
    ClassicalWeylObject,
    WeylMorphismSpec,
    apply_morphism,
    quantize_morphism,
    rescale,
)

SPACE = standard_space(1)
NO_GUARD = float("inf")
HBARS = (Fraction(1, 10), Fraction(1, 4), Fraction(3, 4))
TOLERANCE = 1e-12  # relative sup gap of a grid kernel from its exact reference
# least relative sup gap that a wrong convention leaves: 0.32 for the
# swapped product at extent 4 pi and hbar 1/10, 1.3 to 2.0 elsewhere
APART = 0.25

# z -> A z + b with A integer and symplectic (det 1) and A != A^T, and an
# offset b = pi theta, so each wrong convention moves the image
MAP_LINEAR = ((2, 1), (3, 2))
MAP_THETA = (Fraction(1, 2), Fraction(-1, 3))

# (extent, step): labels are whole multiples of the grid's mode_step
# 2 pi / extent; 4 pi makes the step 1/2, so it enters every label and the
# twist, sigma scaling by step^2
GRIDS = [
    pytest.param((2 * math.pi, Fraction(1)), id="extent-2pi"),
    pytest.param((4 * math.pi, Fraction(1, 2)), id="extent-4pi"),
]


def random_element(rng, step, count=12, reach=4):
    """A symbolic element of `count` labels step * k, k an integer pair with
    |k_i| <= reach, and constant rational complex coefficients."""
    keys = set()
    while len(keys) < count:
        keys.add(tuple(int(v) for v in rng.integers(-reach, reach + 1, size=2)))
    return WeylElement(SPACE, {
        (step * k1, step * k2): CoeffExpr.gaussian(
            Fraction(int(rng.integers(-9, 10)), 7), Fraction(int(rng.integers(-9, 10)), 5))
        for k1, k2 in sorted(keys)
    })


def sample(grid, element):
    """The samples of sum_f c_f e^{i f.z}, each c_f read at t = 1."""
    x = grid.axis_coordinates()
    samples = np.zeros(grid.shape, dtype=np.complex128)
    for (fq, fp), coeff in element.terms.items():
        wave = np.exp(1j * float(fq) * x)[:, None] * np.exp(1j * float(fp) * x)[None, :]
        samples += coeff.value_at(1.0) * wave
    return GridFunction(grid, samples)


def gap(got, ref, scale=None):
    """sup |got - ref| relative to sup |ref|, or to `scale` when given."""
    return float(np.abs(got - ref).max() / (np.abs(ref).max() if scale is None else scale))


@pytest.fixture(params=GRIDS)
def setting(request):
    """(grid, the pair of symbolic elements on its label lattice)."""
    extent, step = request.param
    grid = Grid2n(1, 64, extent)
    assert grid.mode_step == float(step)
    rng = np.random.default_rng(20240115)
    return grid, (random_element(rng, step), random_element(rng, step))


@pytest.mark.parametrize("hbar", HBARS, ids=str)
def test_moyal_product_is_the_exact_product(setting, hbar):
    grid, pair = setting
    a, b = (evaluate_at(e, hbar) for e in pair)
    ab, ba = sample(grid, multiply(a, b)).samples, sample(grid, multiply(b, a)).samples
    for f, g, same, swapped in ((a, b, ab, ba), (b, a, ba, ab)):
        got = moyal_product(sample(grid, f), sample(grid, g), float(hbar), NO_GUARD).samples
        assert gap(got, same) <= TOLERANCE
        # the twist's sign and the operand order are seen
        assert gap(got, swapped) >= APART


def test_grid_bracket_is_minus_the_exact_bracket(setting):
    grid, pair = setting
    a, b = (evaluate_at(e, 0) for e in pair)
    exact = sample(grid, poisson_bracket(a, b)).samples
    got = poisson_bracket_grid(sample(grid, a), sample(grid, b)).samples
    assert gap(got, -exact) <= TOLERANCE
    assert gap(got, exact) >= APART


@pytest.mark.parametrize("hbar", HBARS, ids=str)
def test_grid_dirac_side_is_minus_the_exact_one(setting, hbar):
    # exact: (ab - ba) i/hbar - {a, b}, as dirac_defect takes it; grid:
    # (a*b - b*a)/(i hbar) - {a, b}_grid, as star_defects takes it.  Both
    # the scale and the bracket flip sign, so the two sides are opposite.
    # The defect cancels most of the scaled commutator (1.8 of 242 at extent
    # 4 pi and hbar 1/10), so its gap is taken relative to the commutator
    grid, pair = setting
    a0, b0 = (evaluate_at(e, 0) for e in pair)
    a, b = (rescale(e, 0, hbar) for e in (a0, b0))
    commutator = multiply(a, b) - multiply(b, a)
    exact = commutator.scale_coeff(CoeffExpr.gaussian(0, 1 / hbar)) - rescale(
        poisson_bracket(a0, b0), 0, hbar)
    f, g = sample(grid, a), sample(grid, b)
    h = float(hbar)
    star = moyal_product(f, g, h, NO_GUARD).samples - moyal_product(g, f, h, NO_GUARD).samples
    scaled = star / (1j * h)
    got = scaled - poisson_bracket_grid(f, g).samples
    exact = sample(grid, exact).samples
    assert gap(got, -exact, np.abs(scaled).max()) <= TOLERANCE
    assert gap(got, exact) >= APART


def arrow(linear, theta):
    classical = ClassicalWeylObject(SPACE)
    return WeylMorphismSpec(CharacterSpec(theta), LinearMapSpec(linear), classical, classical)


def test_pullback_is_the_quantized_arrow(setting):
    grid, pair = setting
    a = evaluate_at(pair[0], HBARS[0])
    phi = AffineSymplecticMap(MAP_LINEAR, [math.pi * float(t) for t in MAP_THETA])
    got = pullback(sample(grid, a), phi, NO_GUARD).samples
    transposed = tuple(zip(*MAP_LINEAR))
    minus = tuple(-t for t in MAP_THETA)
    images = {
        (linear, theta): sample(grid, apply_morphism(quantize_morphism(arrow(linear, theta)), a))
        for linear in (transposed, MAP_LINEAR) for theta in (MAP_THETA, minus)
    }
    # T = A^T and theta = b / pi; T = A, the character's other sign, and both
    # wrong at once each leave the image far away
    assert gap(got, images[transposed, MAP_THETA].samples) <= TOLERANCE
    for key, image in images.items():
        if key != (transposed, MAP_THETA):
            assert gap(got, image.samples) >= APART, key
