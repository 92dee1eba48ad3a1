"""Grid-side deformation tests: torus discretization, deformed product, defects."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from quantaequiv import rieffel
from quantaequiv.harness import GAUSSIAN_PAIRS
from quantaequiv.rieffel import (
    _ALIAS_TOLERANCE,
    _BOUNDARY_THRESHOLD,
    AffineSymplecticMap,
    AliasError,
    Grid2n,
    GridError,
    GridFunction,
    SupportError,
    _from_modes,
    _int_freqs,
    _modes,
    _require_interior_support,
    _significant,
    convergence_study,
    equivariance_defect,
    gaussian_star_closed_form,
    morphism_star_defect,
    moyal_product,
    moyal_quadrature_oracle,
    poisson_bracket_grid,
    pullback,
    star_defects,
    translate,
)

HBAR = 0.1
SCHEDULE = (0.4, 0.2, 0.1, 0.05)

# mode pairs per block of the reference pair sum (about 32 MiB of temporaries)
_PAIR_BLOCK = 2**18
_SYMPLECTIC_TOLERANCE = 1e-12  # entrywise slack of A^T J A = J


# the form J of sigma(k, l) = k.J l = k_q l_p - k_p l_q on the plane
STANDARD_FORM = np.array([[0.0, 1.0], [-1.0, 0.0]])


def is_symplectic(phi):
    defect = phi.linear.T @ STANDARD_FORM @ phi.linear - STANDARD_FORM
    return float(np.abs(defect).max()) <= _SYMPLECTIC_TOLERANCE


def inverse(phi):
    inv = np.linalg.inv(phi.linear)
    return AffineSymplecticMap(inv, -inv @ phi.offset)


def compose(phi, first):
    """phi after first."""
    return AffineSymplecticMap(phi.linear @ first.linear, phi.linear @ first.offset + phi.offset)


def reference_moyal_product(f, g, hbars, boundary_threshold=_BOUNDARY_THRESHOLD):
    """The twisted double sum moyal_product replaced, kept as its reference.

    One complex exponential per pair of significant modes, accumulated with
    np.add.at in row-major pair order, blocks of about _PAIR_BLOCK pairs,
    and the aliased mass summed per block.  The pair structure is shared
    across the values of hbar; returns one product per value.
    """
    _require_interior_support(f, boundary_threshold)
    _require_interior_support(g, boundary_threshold)
    grid = f.grid
    p = grid.points_per_axis
    half = p // 2
    fvec, fval = _significant(_modes(f))
    gvec, gval = _significant(_modes(g))
    f_j = fvec.astype(float) @ STANDARD_FORM
    outs = [np.zeros(p**2, dtype=np.complex128) for _ in hbars]
    alias_mass = [0.0] * len(hbars)
    total_mass = [0.0] * len(hbars)
    chunk = max(1, _PAIR_BLOCK // len(gval))
    for start in range(0, len(fval), chunk):
        stop = min(start + chunk, len(fval))
        sigma = f_j[start:stop] @ gvec.T.astype(float)
        weights = fval[start:stop, None] * gval[None, :]
        combined = fvec[start:stop, None, :] + gvec[None, :, :]
        in_range = np.all((combined >= -half) & (combined < half), axis=2)
        kept = combined[in_range] % p
        flat = np.ravel_multi_index(tuple(kept.T), grid.shape)
        for i, hbar in enumerate(hbars):
            contrib = weights * np.exp(-1j * (0.5 * hbar * grid.mode_step**2) * sigma)
            mags = np.abs(contrib)
            total_mass[i] += float(mags.sum())
            alias_mass[i] += float(mags[~in_range].sum())
            np.add.at(outs[i], flat, contrib[in_range])
    products = []
    for out, aliased, total in zip(outs, alias_mass, total_mass):
        if total > 0.0 and aliased / total > _ALIAS_TOLERANCE:
            raise AliasError(
                "aliased mass ratio %.3e exceeds %.1e" % (aliased / total, _ALIAS_TOLERANCE)
            )
        products.append(GridFunction(grid, _from_modes(grid, out.reshape(grid.shape))))
    return products


def von_neumann_defect_grid(f, g, hbar):
    """Sup norm of f*g minus the pointwise product (reference of star_defects)."""
    star = moyal_product(f, g, hbar)
    return (star - f * g).sup_norm()


def dirac_defect_grid(f, g, hbar):
    """Sup norm of (f*g - g*f)/(i hbar) minus the Poisson bracket, from two products.

    The reference of star_defects, which reads g*f as conj(f*g) for real operands.
    """
    forward = moyal_product(f, g, hbar)
    backward = moyal_product(g, f, hbar)
    commutator_scaled = (forward - backward) * (1.0 / (1j * hbar))
    return (commutator_scaled - poisson_bracket_grid(f, g)).sup_norm()


def lie_derivative(f, direction):
    """Directional derivative along the translation flow, spectrally."""
    dq, dp = (float(c) for c in direction)
    freqs = _int_freqs(f.grid.points_per_axis).astype(float)
    factor = dq * freqs[:, None] + dp * freqs[None, :]
    return GridFunction(
        f.grid, _from_modes(f.grid, _modes(f) * (1j * f.grid.mode_step * factor))
    )


def reference_poisson_bracket(f, g):
    """The bracket from one lie_derivative per operand and axis, kept as the reference."""
    q, p = (1.0, 0.0), (0.0, 1.0)
    total = lie_derivative(f, q).samples * lie_derivative(g, p).samples
    total -= lie_derivative(f, p).samples * lie_derivative(g, q).samples
    return GridFunction(f.grid, total)


def gaussian_factors(center, decay):
    """The per-axis factors of exp(-decay |z - center|^2), as the oracle takes them."""
    return (
        lambda x: np.exp(-decay * (x - center[0]) ** 2),
        lambda p: np.exp(-decay * (p - center[1]) ** 2),
    )


def _relative_gap(got, ref):
    return float(np.abs(got.samples - ref.samples).max() / np.abs(ref.samples).max())


@pytest.fixture(scope="module")
def grid():
    return Grid2n(1, 256, 20.0)


@pytest.fixture(scope="module")
def offset_pair(grid):
    f = GridFunction.gaussian(grid, (0.8, 0.0), 0.5)
    g = GridFunction.gaussian(grid, (-0.5, 0.4), 1.0 / 3.0)
    return f, g


@pytest.fixture(scope="module")
def offset_product(offset_pair):
    f, g = offset_pair
    return moyal_product(f, g, HBAR)


class TestGrid:
    def test_spacing_and_mode_step(self, grid):
        assert grid.shape == (256, 256)
        assert grid.spacing == 20.0 / 256
        assert grid.mode_step == pytest.approx(2 * np.pi / 20.0, rel=1e-15)

    def test_axis_coordinates_start_at_half_extent(self, grid):
        ax = grid.axis_coordinates()
        assert ax[0] == -10.0
        assert ax[1] - ax[0] == pytest.approx(grid.spacing)

    def test_rejects_bad_parameters(self):
        with pytest.raises(GridError):
            Grid2n(3, 64, 10.0)
        with pytest.raises(GridError):
            Grid2n(1, 48, 10.0)  # not a power of two
        with pytest.raises(GridError):
            Grid2n(1, 16, 10.0)  # too coarse
        with pytest.raises(GridError):
            Grid2n(1, 64, 0.0)

    def test_only_the_phase_plane_is_built(self):
        with pytest.raises(GridError, match="phase plane"):
            Grid2n(2, 32, 10.0)

    def test_form_matrix_orientation(self):
        assert STANDARD_FORM[0, 1] == 1.0 and STANDARD_FORM[1, 0] == -1.0


class TestGridFunction:
    def test_gaussian_matches_callable(self, grid):
        f = GridFunction.gaussian(grid, (0.3, -0.2), 0.7)
        ref = GridFunction.from_callable(
            grid, lambda x, p: np.exp(-0.7 * ((x - 0.3) ** 2 + (p + 0.2) ** 2))
        )
        assert (f - ref).sup_norm() == 0.0

    def test_samples_are_immutable(self, grid):
        f = GridFunction.gaussian(grid, (0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            f.samples[0, 0] = 5.0

    def test_arithmetic(self, grid):
        f = GridFunction.gaussian(grid, (0.0, 0.0), 1.0)
        g = GridFunction.gaussian(grid, (1.0, 0.0), 2.0)
        combo = GridFunction(grid, (f * complex(2.0)).samples + g.samples) - f
        ref = f.samples * 2.0 + g.samples - f.samples
        assert np.array_equal(combo.samples, ref)

    def test_conjugate(self, grid):
        f = GridFunction.from_callable(grid, lambda x, p: np.exp(1j * x))
        assert np.array_equal(f.conjugate().samples, np.conj(f.samples))

    def test_sup_norm(self, grid):
        f = GridFunction.gaussian(grid, (0.0, 0.0), 1.0, amplitude=3.0)
        assert f.sup_norm() == pytest.approx(3.0, abs=1e-12)

    def test_boundary_ratio_grows_with_offset(self, grid):
        centered = GridFunction.gaussian(grid, (0.0, 0.0), 0.5)
        shifted = GridFunction.gaussian(grid, (6.0, 0.0), 0.5)
        assert shifted.boundary_ratio() > centered.boundary_ratio()

    def test_grid_mismatch_rejected(self, grid):
        other = Grid2n(1, 128, 20.0)
        f = GridFunction.gaussian(grid, (0.0, 0.0), 1.0)
        g = GridFunction.gaussian(other, (0.0, 0.0), 1.0)
        with pytest.raises(GridError):
            f - g


class TestTranslationAndDerivatives:
    def test_translate_matches_recentered_gaussian(self, grid):
        f = GridFunction.gaussian(grid, (0.5, -0.3), 1.0)
        moved = translate(f, (0.4, 0.2))
        ref = GridFunction.gaussian(grid, (0.1, -0.5), 1.0)
        assert (moved - ref).sup_norm() <= 1e-12

    def test_translate_group_law(self, grid):
        f = GridFunction.gaussian(grid, (0.5, -0.3), 1.0)
        twice = translate(translate(f, (0.3, -0.1)), (0.2, 0.4))
        once = translate(f, (0.5, 0.3))
        assert (twice - once).sup_norm() <= 1e-12

    def test_lie_derivative_is_directional_gradient(self, grid):
        f = GridFunction.gaussian(grid, (0.2, 0.1), 0.8)

        def dfdx(x, p):
            return -1.6 * (x - 0.2) * np.exp(-0.8 * ((x - 0.2) ** 2 + (p - 0.1) ** 2))

        got = lie_derivative(f, (1.0, 0.0))
        assert (got - GridFunction.from_callable(grid, dfdx)).sup_norm() <= 1e-12

    def test_lie_derivative_generates_translation(self, grid):
        # d/dt f(z + tX) at t=0 equals the directional derivative
        f = GridFunction.gaussian(grid, (0.0, 0.0), 1.0)
        x = (0.7, -0.4)
        eps = 1e-6
        fd = (translate(f, (eps * x[0], eps * x[1])) - f) * complex(1.0 / eps)
        assert (fd - lie_derivative(f, x)).sup_norm() <= 1e-5


class TestPoissonBracket:
    @pytest.mark.parametrize("pair", range(len(GAUSSIAN_PAIRS)))
    def test_matches_the_lie_derivative_bracket_bit_for_bit(self, grid, pair):
        (c1, a), (c2, b) = GAUSSIAN_PAIRS[pair]
        f = GridFunction.gaussian(grid, c1, a)
        g = GridFunction.gaussian(grid, c2, b)
        got = poisson_bracket_grid(f, g).samples
        assert np.array_equal(got, reference_poisson_bracket(f, g).samples)

    def test_matches_analytic_gaussian_bracket(self, grid, offset_pair):
        f, g = offset_pair
        a, b = 0.5, 1.0 / 3.0
        c1, c2 = (0.8, 0.0), (-0.5, 0.4)

        def brk(x, p):
            fa = np.exp(-a * ((x - c1[0]) ** 2 + (p - c1[1]) ** 2))
            gb = np.exp(-b * ((x - c2[0]) ** 2 + (p - c2[1]) ** 2))
            cross = (x - c1[0]) * (p - c2[1]) - (p - c1[1]) * (x - c2[0])
            return 4 * a * b * cross * fa * gb

        ref = GridFunction.from_callable(grid, brk)
        got = poisson_bracket_grid(f, g)
        assert (got - ref).sup_norm() / ref.sup_norm() <= 1e-12

    def test_antisymmetry(self, grid, offset_pair):
        f, g = offset_pair
        total = poisson_bracket_grid(f, g).samples + poisson_bracket_grid(g, f).samples
        assert np.abs(total).max() <= 1e-13

    def test_jacobi_identity(self, grid, offset_pair):
        f, g = offset_pair
        h = GridFunction.gaussian(grid, (0.2, -0.6), 0.4)
        cyc = (
            poisson_bracket_grid(f, poisson_bracket_grid(g, h)).samples
            + poisson_bracket_grid(g, poisson_bracket_grid(h, f)).samples
            + poisson_bracket_grid(h, poisson_bracket_grid(f, g)).samples
        )
        scale = poisson_bracket_grid(f, poisson_bracket_grid(g, h)).sup_norm()
        assert np.abs(cyc).max() / scale <= 1e-10

    def test_leibniz_rule(self, grid, offset_pair):
        f, g = offset_pair
        h = GridFunction.gaussian(grid, (0.2, -0.6), 0.4)
        lhs = poisson_bracket_grid(f, g * h).samples
        rhs = (poisson_bracket_grid(f, g) * h).samples + (g * poisson_bracket_grid(f, h)).samples
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() <= 1e-10


class TestMoyalProduct:
    def test_centered_gaussians_match_closed_form(self, grid):
        a, b = 0.5, 1.0 / 3.0
        f = GridFunction.gaussian(grid, (0.0, 0.0), a)
        g = GridFunction.gaussian(grid, (0.0, 0.0), b)
        got = moyal_product(f, g, HBAR)
        amp, decay = gaussian_star_closed_form(a, b, HBAR)
        ref = GridFunction.gaussian(grid, (0.0, 0.0), decay, amplitude=amp)
        assert (got - ref).sup_norm() <= 1e-12

    def test_plane_wave_twist(self, grid):
        dk = grid.mode_step
        m, l = (3, 1), (1, 2)

        def wave(mv):
            return GridFunction.from_callable(
                grid, lambda x, p: np.exp(1j * dk * (mv[0] * x + mv[1] * p))
            )

        got = moyal_product(wave(m), wave(l), HBAR, boundary_threshold=float("inf"))
        sigma = dk * dk * (m[0] * l[1] - m[1] * l[0])
        ref = wave((4, 3)) * complex(np.exp(-0.5j * HBAR * sigma))
        assert (got - ref).sup_norm() <= 1e-12

    def test_constant_is_a_unit(self, grid):
        one = GridFunction.from_callable(grid, lambda x, p: np.ones_like(x))
        f = GridFunction.gaussian(grid, (0.5, -0.2), 0.8)
        left = moyal_product(one, f, HBAR, boundary_threshold=float("inf"))
        right = moyal_product(f, one, HBAR, boundary_threshold=float("inf"))
        assert (left - f).sup_norm() <= 1e-13
        assert (right - f).sup_norm() <= 1e-13

    def test_zero_parameter_gives_pointwise_product(self, grid, offset_pair):
        f, g = offset_pair
        got = moyal_product(f, g, 0.0)
        assert (got - f * g).sup_norm() <= 1e-12

    def test_matches_quadrature_oracle_at_grid_points(self, grid, offset_product):
        a, b = 0.5, 1.0 / 3.0
        c1, c2 = (0.8, 0.0), (-0.5, 0.4)
        ax = grid.axis_coordinates()
        idx = [(128, 128), (134, 124), (115, 138)]
        pts = [(float(ax[i]), float(ax[j])) for i, j in idx]
        oracle = moyal_quadrature_oracle(
            gaussian_factors(c1, a), gaussian_factors(c2, b), HBAR, pts
        )
        for value, (i, j) in zip(oracle, idx):
            assert abs(value - offset_product.samples[i, j]) <= 1e-12

    def test_oracle_matches_the_conjugate_kernel_form(self):
        # the oracle conjugates its operands instead of copying the kernel;
        # sign flips are exact, so it equals x @ kernel.conj() @ y bit for bit
        (c1, a), (c2, b) = GAUSSIAN_PAIRS[0]
        (f_q, f_p), (g_q, g_p) = gaussian_factors(c1, a), gaussian_factors(c2, b)
        z = (0.3, -0.2)
        (got,) = moyal_quadrature_oracle((f_q, f_p), (g_q, g_p), HBAR, [z])
        nodes, radius = rieffel._ORACLE_NODES, rieffel._ORACLE_RADIUS
        step = 2.0 * radius / nodes
        u = -radius + step * (np.arange(nodes) + 0.5)
        wu = np.full(nodes, step)
        kernel = np.exp((2j / HBAR) * np.outer(u, u))
        fa, fb, ga, gb = f_q(z[0] + u), f_p(z[1] + u), g_q(z[0] + u), g_p(z[1] + u)
        ia = (wu * fa) @ kernel @ (wu * gb)
        ib = (wu * fb) @ kernel.conj() @ (wu * ga)
        assert got == ia * ib / (np.pi * HBAR) ** 2

    def test_oracle_samples_each_factor_once_per_point_on_the_nodes(self):
        (c1, a), (c2, b) = GAUSSIAN_PAIRS[0]
        calls = []

        def recording(name, factor):
            def sampled(x):
                calls.append((name, np.ndim(x), np.shape(x)))
                return factor(x)

            return sampled

        (f_q, f_p), (g_q, g_p) = gaussian_factors(c1, a), gaussian_factors(c2, b)
        points = [(0.3, -0.2), (-0.1, 0.4)]
        got = moyal_quadrature_oracle(
            (recording("f_q", f_q), recording("f_p", f_p)),
            (recording("g_q", g_q), recording("g_p", g_p)),
            HBAR,
            points,
        )
        nodes = rieffel._ORACLE_NODES
        assert calls == [(name, 1, (nodes,)) for name in ("f_q", "f_p", "g_q", "g_p")] * 2
        assert np.array_equal(
            got, moyal_quadrature_oracle((f_q, f_p), (g_q, g_p), HBAR, points)
        )

    @pytest.mark.parametrize(
        "bad",
        [
            lambda x: np.where(x > 8.0, np.nan, np.exp(-(x**2))),
            lambda x: np.full_like(x, np.inf),
            lambda x: np.exp(-(x**2))[:-1],
            lambda x: np.stack([x, x]),
            lambda x: 1.0,
        ],
        ids=["nan", "inf", "short", "matrix", "scalar"],
    )
    def test_oracle_refuses_bad_factor_samples(self, bad):
        good = gaussian_factors(*GAUSSIAN_PAIRS[0][1])
        with pytest.raises(GridError, match="finite samples, one per node"):
            moyal_quadrature_oracle((good[0], bad), good, HBAR, [(0.0, 0.0)])

    def test_associativity(self, grid, offset_pair, offset_product):
        f, g = offset_pair
        h = GridFunction.gaussian(grid, (0.2, -0.6), 0.4)
        left = moyal_product(offset_product, h, HBAR)
        right = moyal_product(f, moyal_product(g, h, HBAR), HBAR)
        assert (left - right).sup_norm() / right.sup_norm() <= 1e-12

    def test_conjugation_reverses_factors(self, grid, offset_pair, offset_product):
        f, g = offset_pair
        rev = moyal_product(g.conjugate(), f.conjugate(), HBAR)
        defect = (offset_product.conjugate() - rev).sup_norm()
        assert defect / offset_product.sup_norm() <= 1e-13

    def test_noncommutative_at_positive_parameter(self, grid, offset_pair, offset_product):
        f, g = offset_pair
        reverse = moyal_product(g, f, HBAR)
        assert (offset_product - reverse).sup_norm() > 1e-3

    def test_alias_detector_fires_for_carrier_near_nyquist(self, grid):
        carrier = GridFunction.from_callable(grid, lambda x, p: np.cos(32.0 * x))
        fast = GridFunction.gaussian(grid, (0.0, 0.0), 1.0) * carrier
        assert fast.boundary_ratio() <= 1e-12
        with pytest.raises(AliasError):
            moyal_product(fast, fast, HBAR)
        with pytest.raises(AliasError):
            reference_moyal_product(fast, fast, (HBAR,))

    def test_boundary_detector_fires_for_edge_support(self, grid):
        wide = GridFunction.gaussian(grid, (8.0, 0.0), 0.5)
        g = GridFunction.gaussian(grid, (0.0, 0.0), 1.0)
        with pytest.raises(SupportError):
            moyal_product(wide, g, HBAR)


class TestAgainstReference:
    @pytest.mark.parametrize("index", range(len(GAUSSIAN_PAIRS)))
    @pytest.mark.parametrize("order", ["fg", "gf"])
    def test_gaussian_pairs_over_the_schedule(self, grid, index, order):
        (c1, a), (c2, b) = GAUSSIAN_PAIRS[index]
        f = GridFunction.gaussian(grid, c1, a)
        g = GridFunction.gaussian(grid, c2, b)
        if order == "gf":
            f, g = g, f
        refs = reference_moyal_product(f, g, SCHEDULE)
        for hbar, ref in zip(SCHEDULE, refs):
            assert _relative_gap(moyal_product(f, g, hbar), ref) <= 1e-13

    def test_closed_form_pair(self, grid):
        f = GridFunction.gaussian(grid, (0.0, 0.0), 0.5)
        g = GridFunction.gaussian(grid, (0.0, 0.0), 1.0 / 3.0)
        (ref,) = reference_moyal_product(f, g, (HBAR,))
        assert _relative_gap(moyal_product(f, g, HBAR), ref) <= 1e-13

    def test_complex_input(self, grid):
        (c1, a), (c2, b) = GAUSSIAN_PAIRS[0]
        wave = GridFunction.from_callable(grid, lambda x, p: np.exp(1j * x))
        f = GridFunction.gaussian(grid, c1, a) * wave
        g = GridFunction.gaussian(grid, c2, b)
        for left, right in ((f, g), (g, f)):
            (ref,) = reference_moyal_product(left, right, (HBAR,))
            assert _relative_gap(moyal_product(left, right, HBAR), ref) <= 1e-13

    def test_sparse_trigonometric_polynomials(self, grid):
        # random complex polynomials of 20 modes, |k_i| <= 4: mode boxes
        # that are mostly empty, unlike the Gaussians' filled ones
        rng = np.random.default_rng(20260816)

        def polynomial():
            modes = np.zeros(grid.shape, dtype=np.complex128)
            for k in rng.integers(-4, 5, size=(20, 2)):
                modes[tuple(k % grid.points_per_axis)] = rng.normal() + 1j * rng.normal()
            return GridFunction(grid, _from_modes(grid, modes))

        f, g = polynomial(), polynomial()
        inf = float("inf")
        for left, right in ((f, g), (g, f)):
            (ref,) = reference_moyal_product(left, right, (HBAR,), inf)
            assert _relative_gap(moyal_product(left, right, HBAR, inf), ref) <= 1e-13


class TestBlocksAndLimits:
    def test_block_size_never_changes_the_product(self, grid, monkeypatch):
        (c1, a), (c2, b) = GAUSSIAN_PAIRS[0]
        f = GridFunction.gaussian(grid, c1, a)
        g = GridFunction.gaussian(grid, c2, b)
        default = moyal_product(f, g, HBAR)
        monkeypatch.setattr(rieffel, "_MOMENTUM_BLOCK", 1)  # one k_p row per block
        assert np.array_equal(moyal_product(f, g, HBAR).samples, default.samples)

    def test_block_size_moves_the_pullback_only_at_round_off(self, grid, monkeypatch):
        (c1, a), _ = GAUSSIAN_PAIRS[1]
        f = GridFunction.gaussian(grid, c1, a)
        phi = AffineSymplecticMap.shear(0.3)
        default = pullback(f, phi)
        monkeypatch.setattr(rieffel, "_SYNTHESIS_BLOCK", 2**12)
        small = pullback(f, phi)
        assert (small - default).sup_norm() <= 1e-13 * default.sup_norm()

    @pytest.mark.parametrize(
        "operands, limit_mib",
        [
            (GAUSSIAN_PAIRS[1], 33),  # 4117 x 4117 modes; the pair sum peaked at 33 MiB
            ((((-5.0, 0.0), 4.0), ((5.0, 0.0), 4.0)), 64),  # the disjoint pair below
        ],
        ids=["pair2", "disjoint"],
    )
    def test_product_temporaries_stay_bounded(self, grid, operands, limit_mib):
        (c1, a), (c2, b) = operands
        f = GridFunction.gaussian(grid, c1, a)
        g = GridFunction.gaussian(grid, c2, b)
        tracemalloc.start()
        try:
            moyal_product(f, g, HBAR)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit_mib * 2**20

    def test_oversize_product_is_refused_before_pair_work(self, monkeypatch):
        # narrow bumps on a fine grid: significant modes fill every axis, so
        # 1024 x 1024 momentum pairs times 2048 q-FFT entries, and both pass
        # the boundary guard
        fine = Grid2n(1, 1024, 10.0)
        f = GridFunction.gaussian(fine, (0.0, 0.0), 1000.0)
        g = GridFunction.gaussian(fine, (0.1, -0.1), 1000.0)
        for h in (f, g):
            assert h.boundary_ratio() <= 1e-12
            vecs, _ = rieffel._significant(rieffel._modes(h))
            assert list(vecs.max(axis=0) - vecs.min(axis=0) + 1) == [1024] * 2
        work = 1024 * 1024 * 2048
        assert work > rieffel._MAX_WORK

        transforms = []
        modes = rieffel._modes

        def counted_modes(h):
            transforms.append(h)
            return modes(h)

        def no_box(*args):
            raise AssertionError("box work started")

        monkeypatch.setattr(rieffel, "_modes", counted_modes)
        monkeypatch.setattr(rieffel, "_mode_box", no_box)
        with pytest.raises(GridError) as info:
            moyal_product(f, g, HBAR)
        assert type(info.value) is GridError
        assert str(work) in str(info.value)
        assert str(rieffel._MAX_WORK) in str(info.value)
        assert transforms == [f, g]  # the operand spectra, nothing more


class TestDefectsAndConvergence:
    def test_frozen_defect_anchors(self, offset_pair):
        f, g = offset_pair
        von_neumann, dirac = star_defects(f, g, 0.4)
        assert von_neumann == pytest.approx(0.05704109168640791, rel=1e-6)
        assert dirac == pytest.approx(0.010145434930611485, rel=1e-6)

    @pytest.mark.parametrize("index", range(len(GAUSSIAN_PAIRS)))
    def test_one_product_matches_the_two_product_references(self, grid, index, monkeypatch):
        (c1, a), (c2, b) = GAUSSIAN_PAIRS[index]
        f = GridFunction.gaussian(grid, c1, a)
        g = GridFunction.gaussian(grid, c2, b)
        products = []
        product = rieffel.moyal_product

        def counted_product(*args):
            products.append(args[2])
            return product(*args)

        # the defect is a difference of terms of the size of {f, g}: the two
        # routes agree to round-off on that scale (up to 1.7e-12 of the defect
        # itself, pair 1 at hbar = 0.05)
        scale = poisson_bracket_grid(f, g).sup_norm()
        for hbar in SCHEDULE:
            ref_dirac = dirac_defect_grid(f, g, hbar)
            ref_von_neumann = von_neumann_defect_grid(f, g, hbar)
            with monkeypatch.context() as patch:
                patch.setattr(rieffel, "moyal_product", counted_product)
                von_neumann, dirac = star_defects(f, g, hbar)
            assert von_neumann == ref_von_neumann
            assert abs(dirac - ref_dirac) <= 1e-12 * scale
        assert products == list(SCHEDULE)  # real operands: g*f = conj(f*g)

    def test_complex_operand_takes_two_products(self, grid, monkeypatch):
        (c1, a), (c2, b) = GAUSSIAN_PAIRS[0]
        wave = GridFunction.from_callable(grid, lambda x, p: np.exp(1j * x))
        f = GridFunction.gaussian(grid, c1, a) * wave
        g = GridFunction.gaussian(grid, c2, b)
        products = []
        product = rieffel.moyal_product

        def counted_product(*args):
            products.append(args[:2])
            return product(*args)

        for left, right in ((f, g), (g, f)):
            ref = (von_neumann_defect_grid(left, right, HBAR), dirac_defect_grid(left, right, HBAR))
            with monkeypatch.context() as patch:
                patch.setattr(rieffel, "moyal_product", counted_product)
                got = star_defects(left, right, HBAR)
            assert got == ref
        assert products == [(f, g), (g, f), (g, f), (f, g)]

    def test_von_neumann_study_slope_near_one(self, offset_pair):
        f, g = offset_pair
        study, _ = convergence_study(star_defects, f, g, (0.4, 0.2, 0.1, 0.05))
        assert not study["saturated"]
        assert study["slope"] == pytest.approx(0.9871245860330254, abs=0.02)
        assert [h for h, _ in study["rows"]] == [0.4, 0.2, 0.1, 0.05]

    def test_dirac_study_slope_near_two(self, offset_pair):
        f, g = offset_pair
        _, study = convergence_study(star_defects, f, g, (0.4, 0.2, 0.1, 0.05))
        assert not study["saturated"]
        assert study["slope"] == pytest.approx(1.9878870931493478, abs=0.02)
        assert study["residual"] <= 0.05

    def test_one_pass_fits_each_defect_on_its_own(self, offset_pair):
        f, g = offset_pair
        both = convergence_study(star_defects, f, g, SCHEDULE)
        for k, defect_fn in enumerate((von_neumann_defect_grid, dirac_defect_grid)):
            (alone,) = convergence_study(lambda *a: (defect_fn(*a),), f, g, SCHEDULE)
            assert [h for h, _ in both[k]["rows"]] == list(SCHEDULE)
            assert both[k]["slope"] == pytest.approx(alone["slope"], rel=1e-10)

    def test_equal_pair_commutator_saturates(self, offset_pair):
        f, _ = offset_pair
        _, study = convergence_study(star_defects, f, f, (0.4, 0.2, 0.1, 0.05))
        assert study["saturated"]
        assert study["rows"][0][1] <= 1e-12

    def test_disjoint_pair_saturates(self, grid):
        far1 = GridFunction.gaussian(grid, (-5.0, 0.0), 4.0)
        far2 = GridFunction.gaussian(grid, (5.0, 0.0), 4.0)
        study, _ = convergence_study(star_defects, far1, far2, (0.4, 0.2, 0.1, 0.05))
        assert study["saturated"]

    def test_schedule_validation(self, offset_pair):
        f, g = offset_pair
        with pytest.raises(GridError):
            convergence_study(star_defects, f, g, (0.4, 0.2, 0.1))
        with pytest.raises(GridError):
            convergence_study(star_defects, f, g, (0.1, 0.2, 0.3, 0.4))

    def test_schedule_entries_reach_the_defect_unchanged(self):
        # an exact Fraction fiber stays one; the table rows hold floats
        schedule = (Fraction(1, 2), 0.25, Fraction(1, 8), Fraction(1, 16))
        seen = []

        def defects(f, g, h):
            seen.append(h)
            return (h, h * h)

        first, second = convergence_study(defects, None, None, schedule)
        assert [type(h) for h in seen] == [Fraction, float, Fraction, Fraction]
        assert seen == list(schedule)
        for study, slope in ((first, 1.0), (second, 2.0)):
            assert study["rows"] == [(h, h**slope) for h in (0.5, 0.25, 0.125, 0.0625)]
            assert all(type(h) is float and type(d) is float for h, d in study["rows"])
            assert study["slope"] == pytest.approx(slope, abs=1e-12)

    def test_dirac_defect_rejects_zero_parameter(self, offset_pair):
        f, g = offset_pair
        with pytest.raises(GridError):
            star_defects(f, g, 0.0)

    def test_guards_stay_loud_on_both_paths(self, grid):
        wide = GridFunction.gaussian(grid, (8.0, 0.0), 0.5)
        g = GridFunction.gaussian(grid, (0.0, 0.0), 1.0)
        carrier = GridFunction.from_callable(grid, lambda x, p: np.cos(32.0 * x))
        fast = GridFunction.gaussian(grid, (0.0, 0.0), 1.0) * carrier
        twisted = fast * GridFunction.from_callable(grid, lambda x, p: np.exp(1j * p))
        for left, right in ((wide, g), (g, wide), (wide, g * (1 + 1j))):
            with pytest.raises(SupportError):
                star_defects(left, right, HBAR)
        for left, right in ((fast, fast), (twisted, fast)):
            with pytest.raises(AliasError):
                star_defects(left, right, HBAR)


class TestAffineSymplecticMap:
    def test_rotation_is_symplectic_and_invertible(self):
        phi = AffineSymplecticMap.rotation(np.pi / 6)
        assert is_symplectic(phi)
        comp = compose(phi, inverse(phi))
        assert np.abs(comp.linear - np.eye(2)).max() <= 1e-14
        assert np.abs(comp.offset).max() <= 1e-14

    def test_uniform_scaling_is_not_symplectic(self):
        assert not is_symplectic(AffineSymplecticMap(np.diag([2.0, 2.0])))

    def test_shear_and_translation(self):
        assert is_symplectic(AffineSymplecticMap.shear(0.3))
        assert is_symplectic(AffineSymplecticMap.shear(-0.2, upper=False))
        tr = AffineSymplecticMap(np.eye(2), (0.7, -0.2))
        assert is_symplectic(tr)
        assert np.array_equal(tr.linear, np.eye(2))

    def test_singular_linear_part_rejected(self):
        with pytest.raises(GridError):
            AffineSymplecticMap(np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_only_plane_maps_are_built(self):
        with pytest.raises(GridError, match="2 x 2"):
            AffineSymplecticMap(np.eye(4))
        with pytest.raises(GridError, match="offset"):
            AffineSymplecticMap(np.eye(2), (0.1, 0.2, 0.3, 0.4))


class TestPullback:
    def test_identity_map(self, grid, offset_pair):
        f, _ = offset_pair
        got = pullback(f, AffineSymplecticMap(np.eye(2)))
        assert (got - f).sup_norm() <= 1e-12

    def test_translation_matches_translate(self, grid, offset_pair):
        f, _ = offset_pair
        x = (0.6, -0.3)
        via_map = pullback(f, AffineSymplecticMap(np.eye(2), x))
        assert (via_map - translate(f, x)).sup_norm() <= 1e-12

    def test_rotation_fixes_radial_functions(self, grid):
        f = GridFunction.gaussian(grid, (0.0, 0.0), 0.7)
        got = pullback(f, AffineSymplecticMap.rotation(1.1))
        assert (got - f).sup_norm() <= 1e-12

    def test_rotation_moves_center_against_the_map(self, grid):
        # f(phi(z)) recenters the bump at phi^{-1}(c)
        f = GridFunction.gaussian(grid, (1.0, 0.0), 1.0)
        phi = AffineSymplecticMap.rotation(np.pi / 2)
        got = pullback(f, phi)
        inv = inverse(phi)
        inv_center = inv.linear @ np.array([1.0, 0.0]) + inv.offset
        ref = GridFunction.gaussian(grid, tuple(inv_center), 1.0)
        assert (got - ref).sup_norm() <= 1e-12

    def test_plane_wave_under_sheared_map_with_offset(self, grid):
        # f(Az + b) of e^{i k.z} is e^{i k.b} e^{i (A^T k).z}, off the grid
        # frequencies, so synthesis is checked against the closed form
        linear = AffineSymplecticMap.rotation(0.7).linear @ AffineSymplecticMap.shear(0.4).linear
        phi = AffineSymplecticMap(linear, offset=(0.2, -0.1))
        assert is_symplectic(phi)
        dk = grid.mode_step
        kv = dk * np.array((2.0, -1.0))
        wave = GridFunction.from_callable(grid, lambda x, p: np.exp(1j * (kv[0] * x + kv[1] * p)))
        got = pullback(wave, phi, boundary_threshold=float("inf"))
        alpha, shift = kv @ linear, float(kv @ phi.offset)
        ref = GridFunction.from_callable(
            grid, lambda x, p: np.exp(1j * (alpha[0] * x + alpha[1] * p + shift))
        )
        assert (got - ref).sup_norm() <= 1e-12

    def test_wraparound_leak_is_detected_then_waivable(self, grid):
        # rotating an off-center bump drags periodic copies onto the faces;
        # the detector reports it and an explicit threshold accepts it
        f = GridFunction.gaussian(grid, (0.8, 0.0), 0.5)
        phi = AffineSymplecticMap.rotation(np.pi / 6)
        with pytest.raises(SupportError):
            pullback(f, phi)
        out = pullback(f, phi, boundary_threshold=1e-6)
        assert out.sup_norm() == pytest.approx(1.0, abs=1e-3)


@pytest.fixture(scope="module")
def tight_pair(grid):
    f = GridFunction.gaussian(grid, (0.5, 0.0), 1.0)
    g = GridFunction.gaussian(grid, (-0.4, 0.3), 1.0)
    return f, g


class TestMorphismDefects:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: AffineSymplecticMap.rotation(np.pi / 6),
            lambda: AffineSymplecticMap.rotation(np.pi / 2),
            lambda: AffineSymplecticMap.shear(0.3),
            lambda: AffineSymplecticMap(np.eye(2), (0.7, -0.2)),
        ],
        ids=["rot30", "rot90", "shear", "translation"],
    )
    def test_symplectic_maps_preserve_the_product(self, tight_pair, factory):
        f, g = tight_pair
        defect = morphism_star_defect(factory(), f, g, HBAR, boundary_threshold=1e-9)
        assert defect <= 1e-12

    def test_uniform_scaling_breaks_the_product(self, tight_pair):
        f, g = tight_pair
        phi = AffineSymplecticMap(np.diag([2.0, 2.0]))
        defect = morphism_star_defect(phi, f, g, HBAR, boundary_threshold=float("inf"))
        assert defect >= 1e-1

    def test_equivariance_of_translations(self, tight_pair):
        f, _ = tight_pair
        phi = AffineSymplecticMap.rotation(np.pi / 6)
        defect = equivariance_defect(phi, f, (0.6, -0.4), boundary_threshold=1e-9)
        assert defect <= 1e-8

    def test_equivariance_identity_map(self, tight_pair):
        f, _ = tight_pair
        defect = equivariance_defect(AffineSymplecticMap(np.eye(2)), f, (1.0, 0.0))
        assert defect <= 1e-12
