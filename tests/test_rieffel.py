"""Grid-side deformation tests: torus discretization, deformed product, defects."""

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    oscillator_position,
    poisson_bracket_grid,
    pullback,
    star_defects,
    translate,
    weyl_transform,
    weyl_transforms,
)

HBAR = 0.1
SCHEDULE = (0.4, 0.2, 0.1, 0.05)
# pair 1 of the weyl-transform suite's wt-03 checks, for the peak-memory tests
TRANSFORM_PAIR = (((0.5, 0.0), 1.0), ((-0.4, 0.3), 2.0 / 3.0))

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
    np.add.at in row-major pair order, blocks of about _PAIR_BLOCK pairs.
    A pair's mass |F_k G_l e^{i theta}| is |F_k| |G_l| whatever hbar is, so
    one pass over the same blocks sums the aliased mass first and raises
    AliasError before any exponential is taken.  The pair structure is
    shared across the values of hbar; returns one product per value.
    """
    _require_interior_support(f, boundary_threshold)
    _require_interior_support(g, boundary_threshold)
    grid = f.grid
    p = grid.points_per_axis
    half = p // 2
    fvec, fval = _significant(_modes(f))
    gvec, gval = _significant(_modes(g))
    chunk = max(1, _PAIR_BLOCK // len(gval))
    blocks = [slice(start, start + chunk) for start in range(0, len(fval), chunk)]

    def summed(rows):
        # the pair sums k + l of the block, per axis, and which lie in the box
        q, k = (fvec[rows, None, i] + gvec[None, :, i] for i in (0, 1))
        return (q, k), (q >= -half) & (q < half) & (k >= -half) & (k < half)

    aliased = total = 0.0
    for rows in blocks:
        mags = np.abs(fval[rows, None] * gval[None, :])
        total += float(mags.sum())
        aliased += float(mags[~summed(rows)[1]].sum())
    if total > 0.0 and aliased / total > _ALIAS_TOLERANCE:
        raise AliasError(
            "aliased mass ratio %.3e exceeds %.1e" % (aliased / total, _ALIAS_TOLERANCE)
        )
    f_j = fvec.astype(float) @ STANDARD_FORM
    outs = [np.zeros(p**2, dtype=np.complex128) for _ in hbars]
    for rows in blocks:
        sigma = f_j[rows] @ gvec.T.astype(float)
        weights = fval[rows, None] * gval[None, :]
        combined, in_range = summed(rows)
        flat = np.ravel_multi_index(tuple(c[in_range] % p for c in combined), grid.shape)
        for out, hbar in zip(outs, hbars):
            contrib = weights * np.exp(-1j * (0.5 * hbar * grid.mode_step**2) * sigma)
            np.add.at(out, flat, contrib[in_range])
    return [GridFunction(grid, _from_modes(out.reshape(grid.shape))) for out in outs]


def parity_table(points):
    """(-1)^(i + j) over the mode indices: the origin factor as a p x p table."""
    sign = (-1.0) ** (_int_freqs(points) & 1)
    return np.multiply.outer(sign, sign)


def reference_modes(f):
    """The spectrum by the parity-table formula _modes replaced, kept as its reference."""
    p = f.grid.points_per_axis
    return np.fft.fftn(f.samples) * parity_table(p) / p**2


def reference_from_modes(grid, modes):
    """The samples by the parity-table formula _from_modes replaced; modes is left as it is."""
    p = grid.points_per_axis
    return np.fft.ifftn(modes * parity_table(p)) * p**2


def sup_gap(f, g):
    """sup |f - g| over the grid, read from the samples."""
    return float(np.abs(f.samples - g.samples).max())


def times(f, g):
    """The pointwise product fg."""
    return GridFunction(f.grid, f.samples * g.samples)


def conjugate(f):
    return GridFunction(f.grid, np.conj(f.samples))


def von_neumann_defect_grid(f, g, hbar):
    """Sup norm of f*g minus the pointwise product (reference of star_defects)."""
    return sup_gap(moyal_product(f, g, hbar), times(f, g))


def dirac_defect_grid(f, g, hbar):
    """Sup norm of (f*g - g*f)/(i hbar) minus the Poisson bracket, from two products.

    The reference of star_defects, which reads g*f as conj(f*g) for real operands.
    """
    forward = moyal_product(f, g, hbar)
    backward = moyal_product(g, f, hbar)
    commutator_scaled = (forward.samples - backward.samples) * (1.0 / (1j * hbar))
    return sup_gap(GridFunction(f.grid, commutator_scaled), poisson_bracket_grid(f, g))


def count_stages(patch):
    """Record the significant modes each pair stage reads and the hbar of each twist stage."""
    pairs, twists = [], []
    pair_stage, twist_stage = rieffel._pair_stage, rieffel._twist_stage

    def counted_pair(grid, significant_f, significant_g):
        pairs.append((significant_f, significant_g))
        return pair_stage(grid, significant_f, significant_g)

    def counted_twist(pair, hbar):
        twists.append(hbar)
        return twist_stage(pair, hbar)

    patch.setattr(rieffel, "_pair_stage", counted_pair)
    patch.setattr(rieffel, "_twist_stage", counted_twist)
    return pairs, twists


def no_twist(*args):
    raise AssertionError("a twisted FFT ran")


def modes_are(pair, f, g):
    """Whether a recorded pair stage read the significant modes of f and g, in that order."""
    return all(
        np.array_equal(got, want)
        for significant, h in zip(pair, (f, g))
        for got, want in zip(significant, _significant(_modes(h)))
    )


def lie_derivative(f, direction):
    """Directional derivative along the translation flow, spectrally."""
    dq, dp = (float(c) for c in direction)
    freqs = _int_freqs(f.grid.points_per_axis).astype(float)
    factor = dq * freqs[:, None] + dp * freqs[None, :]
    return GridFunction(
        f.grid, _from_modes(_modes(f) * (1j * f.grid.mode_step * factor))
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


def plane_wave_gaussian_factors(center, decay, wave):
    """The per-axis factors of exp(i wave.z - decay |z - center|^2)."""
    return (
        lambda x: np.exp(1j * wave[0] * x - decay * (x - center[0]) ** 2),
        lambda p: np.exp(1j * wave[1] * p - decay * (p - center[1]) ** 2),
    )


def sparse_polynomial(grid, rng):
    """A random complex polynomial of 20 modes, |k_i| <= 4: a mostly empty mode box."""
    modes = np.zeros(grid.shape, dtype=np.complex128)
    for k in rng.integers(-4, 5, size=(20, 2)):
        modes[tuple(k % grid.points_per_axis)] = rng.normal() + 1j * rng.normal()
    return GridFunction(grid, _from_modes(modes))


def whole_box_twist(pair, hbar):
    """The twist stage with every (k_p, l_p) pair in one q-FFT, kept as its reference.

    The k_p rows of the whole box then enter the m_p sums in row order.
    """
    grid = pair.grid
    (fmomenta, fq), (gmomenta, gq) = pair.frows.shape, pair.grows.shape
    scale = 0.5 * hbar * grid.mode_step**2
    ftwist = rieffel._twist(pair.glo[1] + np.arange(gmomenta), pair.flo[0], fq, -scale)
    gtwist = rieffel._twist(pair.flo[1] + np.arange(fmomenta), pair.glo[0], gq, scale)
    terms = np.fft.fft(pair.frows[:, None] * ftwist, pair.q_entries)
    terms *= np.fft.fft(pair.grows * gtwist[:, None], pair.q_entries)
    acc = np.zeros((fmomenta + gmomenta - 1, pair.q_entries), dtype=np.complex128)
    for k, row in enumerate(terms):
        acc[k : k + gmomenta] += row
    out = np.zeros(grid.shape, dtype=np.complex128)
    out[pair.index] = np.fft.ifft(acc)[:, : fq + gq - 1].T[pair.keep]
    return _from_modes(out)


# the family of the product's property test: a Gaussian's centre and decay,
# and the wave number w of an optional factor e^{i w q}
COARSE_GRID = Grid2n(1, 128, 20.0)
WAVE_GAUSSIANS = st.tuples(
    st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5)),
    st.floats(0.3, 0.6),
    st.none() | st.floats(-16.0, 16.0),
)


def wave_gaussian(grid, center, decay, wave):
    """exp(i wave q - decay |z - center|^2) on the grid, and its per-axis factors."""
    f = GridFunction.gaussian(grid, center, decay)
    if wave is None:
        return f, gaussian_factors(center, decay)
    carrier = GridFunction.from_callable(grid, lambda q, p: np.exp(1j * wave * q))
    return times(f, carrier), plane_wave_gaussian_factors(center, decay, (wave, 0.0))


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
        with pytest.raises(GridError, match="extent must be positive and finite, got inf"):
            Grid2n(1, 256, float("inf"))

    def test_only_the_phase_plane_is_built(self):
        with pytest.raises(GridError, match="phase plane"):
            Grid2n(2, 32, 10.0)

    def test_form_matrix_orientation(self):
        assert STANDARD_FORM[0, 1] == 1.0 and STANDARD_FORM[1, 0] == -1.0

    @pytest.mark.parametrize("points", [32, 256, 2048])
    def test_spectra_are_the_parity_table_formula(self, points):
        # the origin sign as in-place flips of odd rows and columns, value for value
        grid = Grid2n(1, points, 20.0)
        rng = np.random.default_rng(points)
        f = GridFunction(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
        modes = _modes(f)
        assert np.array_equal(modes, reference_modes(f))
        samples = reference_from_modes(grid, modes)
        assert np.array_equal(_from_modes(modes), samples)
        # the round trip returns the samples, up to round-off
        assert np.abs(samples - f.samples).max() <= 1e-13 * np.abs(f.samples).max()


# elementwise callables of q alone, of p alone and of both, real and complex
AXIS_CALLABLES = (
    lambda q, p: np.cos(1.3 * q),
    lambda q, p: np.exp(-0.4 * p * p),
    lambda q, p: np.exp(1j * 0.9 * q),
    lambda q, p: (p - 0.2) * np.exp(-1j * p),
    lambda q, p: np.exp(-((q * q + p * p) / 2.8**2) ** 12),
    lambda q, p: q * np.exp(-0.3 * (q * q + p * p)),
    lambda q, p: np.exp(1j * (1.5 * q - 0.7 * p)),
    lambda q, p: np.ones_like(q),
)


def _unsampled(x):
    raise AssertionError("an oracle factor was sampled")


# each entry point's hbar argument, and the Gaussian's decay, which takes the
# same rule: (the name its refusal gives, call(hbar, f, g))
_HBAR_ENTRIES = {
    "oscillator_position": ("hbar", lambda h, f, g: oscillator_position(4, h)),
    "GridFunction.gaussian": ("decay", lambda h, f, g: GridFunction.gaussian(f.grid, (0, 0), h)),
    "moyal_product": ("nonzero hbar", lambda h, f, g: moyal_product(f, g, h)),
    "star_defects": ("schedule entry", lambda h, f, g: star_defects(f, g, (0.4, 0.2, 0.1, h))),
    "weyl_transform": ("hbar", lambda h, f, g: weyl_transform(f, h, 16)),
    "weyl_transforms": ("hbar", lambda h, f, g: weyl_transforms([f, g], h, [16, 32])),
    "moyal_quadrature_oracle": ("hbar", lambda h, f, g: moyal_quadrature_oracle(
        (_unsampled, _unsampled), (_unsampled, _unsampled), h, [(0.0, 0.0)])),
}
# each entry point's phase-space vector: (the name its refusal gives, call(x, f))
_VECTOR_ENTRIES = {
    "translate": ("shift x", lambda x, f: translate(f, x)),
    "GridFunction.gaussian": ("center", lambda x, f: GridFunction.gaussian(f.grid, x, 1.0)),
    "AffineSymplecticMap": ("offset", lambda x, f: AffineSymplecticMap(np.eye(2), x)),
    "equivariance_defect": (
        "direction", lambda x, f: equivariance_defect(AffineSymplecticMap.rotation(0.3), f, x)
    ),
}


class TestInputRules:
    """hbar is positive and finite, a phase-space vector a finite 2-vector:
    every entry point refuses anything else with a GridError that names the
    argument and its value, before any spectrum or sample is made and with
    no RuntimeWarning on the way."""

    @pytest.fixture
    def refused(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("a spectrum or samples were made")

        monkeypatch.setattr(rieffel, "_modes", no_work)
        monkeypatch.setattr(GridFunction, "from_callable", classmethod(no_work))

        def check(call, message):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(GridError) as info:
                    call()
            assert type(info.value) is GridError
            assert str(info.value) == message

        return check

    # hbar = 0 is refused wherever it was; moyal_product takes it as the pointwise product
    @pytest.mark.parametrize(
        "entry, hbar",
        [(e, h) for e in _HBAR_ENTRIES for h in (np.inf, -np.inf, np.nan, 0.0, -0.5)
         if (e, h) != ("moyal_product", 0.0)],
    )
    def test_hbar_not_positive_and_finite_is_refused(self, offset_pair, refused, entry, hbar):
        name, call = _HBAR_ENTRIES[entry]
        message = "%s must be positive and finite, got %s" % (name, hbar)
        refused(lambda: call(hbar, *offset_pair), message)

    @pytest.mark.parametrize("entry", sorted(_VECTOR_ENTRIES))
    @pytest.mark.parametrize(
        "x", [(np.inf, 0.0), (0.0, -np.inf), (np.nan, 0.0), (0.1, 0.2, 0.3)],
        ids=["inf", "minus-inf", "nan", "three-coordinates"],
    )
    def test_vector_not_a_finite_2_vector_is_refused(self, offset_pair, refused, entry, x):
        name, call = _VECTOR_ENTRIES[entry]
        message = "%s must be a finite phase-space vector, got %s" % (name, x)
        refused(lambda: call(x, offset_pair[0]), message)

    @pytest.mark.parametrize("amplitude", [np.inf, -np.inf, np.nan, complex(0.0, np.nan)])
    def test_gaussian_amplitude_not_finite_is_refused(self, grid, refused, amplitude):
        message = "amplitude must be a finite number, got %s" % (amplitude,)
        refused(lambda: GridFunction.gaussian(grid, (0.0, 0.0), 1.0, amplitude), message)

    @pytest.mark.parametrize("n_trunc", [0, -3, True, False, 4.0])
    def test_truncation_not_an_int_of_at_least_1_is_refused(self, refused, n_trunc):
        message = "n_trunc must be an int of at least 1, got %s" % (n_trunc,)
        refused(lambda: oscillator_position(n_trunc, HBAR), message)

    # theta = |x| mode_step points / 2: (1e308, 0) overflows it, and the
    # limit x_max = _MAX_PHASE / (mode_step points / 2) is about 2.2e5 here
    @pytest.mark.parametrize("x", [(1e308, 0.0), (0.0, -1e308), "past"])
    def test_shift_past_the_phase_limit_is_refused(self, grid, offset_pair, refused, x):
        half = grid.points_per_axis / 2
        if x == "past":
            x = (0.0, -np.nextafter(rieffel._MAX_PHASE / (grid.mode_step * half), np.inf))
        theta = max(abs(c) for c in x) * grid.mode_step * half
        assert theta > rieffel._MAX_PHASE
        message = "shift x = %s makes a phase of %s rad, above the limit of %s rad" % (
            x, theta, rieffel._MAX_PHASE)
        refused(lambda: translate(offset_pair[0], x), message)

    def test_shift_just_inside_the_phase_limit_passes(self, grid, offset_pair):
        half = grid.points_per_axis / 2
        x = (rieffel._MAX_PHASE / (grid.mode_step * half), 0.0)
        assert x[0] * grid.mode_step * half <= rieffel._MAX_PHASE
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            moved = translate(offset_pair[0], x)
        assert np.all(np.isfinite(moved.samples))
        # a shift is unitary on the trigonometric interpolant
        norms = [np.linalg.norm(h.samples) for h in (moved, offset_pair[0])]
        assert abs(norms[0] - norms[1]) <= 1e-12 * norms[1]


# every (center, decay, amplitude) that a suite hands GridFunction.gaussian at
# the default config: GAUSSIAN_PAIRS (rieffel-sdq; pair 2 is also
# rieffel-morphisms' pair, pair 1 also wt-03 pair 2), rsdq-01's operands and
# closed form, and the one other operand of wt-03 pair 1
_CLOSED_FORM_AMP, _CLOSED_FORM_DECAY = gaussian_star_closed_form(0.5, 1.0 / 3.0, 0.1)
SUITE_GAUSSIANS = tuple(
    [(c, a, 1.0) for pair in GAUSSIAN_PAIRS for c, a in pair]
    + [((0.0, 0.0), 0.5, 1.0), ((0.0, 0.0), 1.0 / 3.0, 1.0),
       ((0.0, 0.0), _CLOSED_FORM_DECAY, _CLOSED_FORM_AMP), ((-0.4, 0.3), 2.0 / 3.0, 1.0)]
)


def mesh_gaussian(grid, center, decay, amplitude=1.0):
    """The samples GridFunction.gaussian made from one r^2 array, kept as its reference."""
    x = grid.axis_coordinates()
    r2 = (x[:, None] - center[0]) ** 2 + (x[None, :] - center[1]) ** 2
    return np.array(amplitude * np.exp(-float(decay) * r2), dtype=np.complex128)


class TestGridFunction:
    @settings(max_examples=40, deadline=None)
    @given(
        points=st.sampled_from([32, 64, 128, 256, 512]),
        extent=st.floats(4.0, 40.0),
        fn=st.sampled_from(AXIS_CALLABLES),
    )
    def test_axis_sampling_is_the_mesh_sampling(self, points, extent, fn):
        # two broadcast axes give the samples of the coordinate meshes, bit for bit
        grid = Grid2n(1, points, extent)
        x = grid.axis_coordinates()
        got = GridFunction.from_callable(grid, fn).samples
        want = np.asarray(fn(*np.meshgrid(x, x, indexing="ij")), dtype=np.complex128)
        assert got.shape == grid.shape
        assert np.array_equal(got, want)
        assert got.flags.c_contiguous and not got.flags.writeable

    @pytest.mark.parametrize("center, decay, amplitude", SUITE_GAUSSIANS)
    def test_gaussian_is_the_one_array_formula(self, grid, center, decay, amplitude):
        f = GridFunction.gaussian(grid, center, decay, amplitude=amplitude)
        assert np.array_equal(f.samples, mesh_gaussian(grid, center, decay, amplitude))

    def test_gaussian_matches_callable(self, grid):
        f = GridFunction.gaussian(grid, (0.3, -0.2), 0.7)
        ref = GridFunction.from_callable(
            grid, lambda x, p: np.exp(-0.7 * ((x - 0.3) ** 2 + (p + 0.2) ** 2))
        )
        assert sup_gap(f, ref) == 0.0

    def test_samples_are_immutable(self, grid):
        f = GridFunction.gaussian(grid, (0.0, 0.0), 1.0)
        with pytest.raises(ValueError):
            f.samples[0, 0] = 5.0

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
        for binary in (poisson_bracket_grid, lambda a, b: moyal_product(a, b, HBAR)):
            with pytest.raises(GridError, match="different grids"):
                binary(f, g)


class TestOwnership:
    def test_the_constructor_copies(self, grid):
        samples = np.ones(grid.shape, dtype=np.complex128)
        f = GridFunction(grid, samples)
        samples[0, 0] = 5.0
        assert f.samples[0, 0] == 1.0
        assert not np.shares_memory(f.samples, samples)

    def test_kernel_results_own_their_samples(self, grid, offset_pair):
        # handed over without a copy, read-only, sharing nothing with an operand
        f, g = offset_pair
        results = [
            moyal_product(f, g, HBAR),
            poisson_bracket_grid(f, g),
            translate(f, (0.3, -0.2)),
            pullback(f, AffineSymplecticMap(np.eye(2), (0.2, -0.1))),
        ]
        for h in results:
            assert h.grid == grid
            assert h.samples.dtype == np.complex128 and h.samples.flags.c_contiguous
            assert not h.samples.flags.writeable
            for operand in (f, g):
                assert not np.shares_memory(h.samples, operand.samples)

    @pytest.mark.parametrize(
        "result, message",
        [
            (lambda grid: np.full(grid.shape, np.nan, dtype=np.complex128), "samples must be finite"),
            (lambda grid: np.zeros((4, 4), dtype=np.complex128), "sample shape does not match the grid"),
        ],
        ids=["nan", "shape"],
    )
    def test_a_handed_over_result_is_checked(self, grid, offset_pair, result, message, monkeypatch):
        # the constructor's checks and messages, on the path that makes no copy
        f, g = offset_pair
        monkeypatch.setattr(rieffel, "_twist_stage", lambda pair, hbar: result(grid))
        with pytest.raises(GridError) as info:
            moyal_product(f, g, HBAR)
        assert type(info.value) is GridError
        assert str(info.value) == message


class TestTranslationAndDerivatives:
    def test_translate_matches_recentered_gaussian(self, grid):
        f = GridFunction.gaussian(grid, (0.5, -0.3), 1.0)
        moved = translate(f, (0.4, 0.2))
        ref = GridFunction.gaussian(grid, (0.1, -0.5), 1.0)
        assert sup_gap(moved, ref) <= 1e-12

    def test_translate_group_law(self, grid):
        f = GridFunction.gaussian(grid, (0.5, -0.3), 1.0)
        twice = translate(translate(f, (0.3, -0.1)), (0.2, 0.4))
        once = translate(f, (0.5, 0.3))
        assert sup_gap(twice, once) <= 1e-12

    def test_lie_derivative_is_directional_gradient(self, grid):
        f = GridFunction.gaussian(grid, (0.2, 0.1), 0.8)

        def dfdx(x, p):
            return -1.6 * (x - 0.2) * np.exp(-0.8 * ((x - 0.2) ** 2 + (p - 0.1) ** 2))

        got = lie_derivative(f, (1.0, 0.0))
        assert sup_gap(got, GridFunction.from_callable(grid, dfdx)) <= 1e-12

    def test_lie_derivative_generates_translation(self, grid):
        # d/dt f(z + tX) at t=0 equals the directional derivative
        f = GridFunction.gaussian(grid, (0.0, 0.0), 1.0)
        x = (0.7, -0.4)
        eps = 1e-6
        moved = translate(f, (eps * x[0], eps * x[1]))
        fd = GridFunction(grid, (moved.samples - f.samples) * (1.0 / eps))
        assert sup_gap(fd, lie_derivative(f, x)) <= 1e-5


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
        assert sup_gap(got, ref) / ref.sup_norm() <= 1e-12

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
        lhs = poisson_bracket_grid(f, times(g, h)).samples
        rhs = poisson_bracket_grid(f, g).samples * h.samples
        rhs += g.samples * poisson_bracket_grid(f, h).samples
        assert np.abs(lhs - rhs).max() / np.abs(rhs).max() <= 1e-10

    def test_one_pair_of_derivative_fields_at_a_time(self, traced_mib):
        # at 512 points a p x p complex array is 4 MiB: the two spectra, the
        # result, one pair of derivative fields and an inverse FFT's output
        # stay under 7 arrays; the four fields held at once came to 32.6 MiB
        (c1, a), (c2, b) = GAUSSIAN_PAIRS[1]
        fine = Grid2n(1, 512, 20.0)
        f, g = GridFunction.gaussian(fine, c1, a), GridFunction.gaussian(fine, c2, b)
        peak, _ = traced_mib(lambda: poisson_bracket_grid(f, g))
        assert peak <= 28


class TestMoyalProduct:
    def test_centered_gaussians_match_closed_form(self, grid):
        a, b = 0.5, 1.0 / 3.0
        f = GridFunction.gaussian(grid, (0.0, 0.0), a)
        g = GridFunction.gaussian(grid, (0.0, 0.0), b)
        got = moyal_product(f, g, HBAR)
        amp, decay = gaussian_star_closed_form(a, b, HBAR)
        ref = GridFunction.gaussian(grid, (0.0, 0.0), decay, amplitude=amp)
        assert sup_gap(got, ref) <= 1e-12

    def test_plane_wave_twist(self, grid):
        dk = grid.mode_step
        m, l = (3, 1), (1, 2)

        def wave(mv):
            return GridFunction.from_callable(
                grid, lambda x, p: np.exp(1j * dk * (mv[0] * x + mv[1] * p))
            )

        got = moyal_product(wave(m), wave(l), HBAR, boundary_threshold=float("inf"))
        sigma = dk * dk * (m[0] * l[1] - m[1] * l[0])
        ref = GridFunction(grid, wave((4, 3)).samples * np.exp(-0.5j * HBAR * sigma))
        assert sup_gap(got, ref) <= 1e-12

    def test_constant_is_a_unit(self, grid):
        one = GridFunction.from_callable(grid, lambda x, p: np.ones_like(x))
        f = GridFunction.gaussian(grid, (0.5, -0.2), 0.8)
        left = moyal_product(one, f, HBAR, boundary_threshold=float("inf"))
        right = moyal_product(f, one, HBAR, boundary_threshold=float("inf"))
        assert sup_gap(left, f) <= 1e-13
        assert sup_gap(right, f) <= 1e-13

    def test_zero_parameter_gives_pointwise_product(self, grid, offset_pair):
        f, g = offset_pair
        got = moyal_product(f, g, 0.0)
        assert sup_gap(got, times(f, g)) <= 1e-12

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

    @pytest.mark.parametrize("hbar", [0.02, 0.05, 0.1, 0.4])
    @pytest.mark.parametrize("factors", ["real", "complex"])
    def test_oracle_matches_the_conjugate_kernel_form(self, hbar, factors):
        # the oracle sums each bilinear form as one Hankel correlation of
        # chirped operands, and conjugates its operands instead of the kernel:
        # the whole-kernel x @ kernel @ y and x @ kernel.conj() @ y are its
        # reference, equal up to round-off
        (c1, a), (c2, b) = GAUSSIAN_PAIRS[0]
        if factors == "real":
            f, g = gaussian_factors(c1, a), gaussian_factors(c2, b)
        else:
            f = plane_wave_gaussian_factors(c1, a, (1.5, -0.7))
            g = plane_wave_gaussian_factors(c2, b, (-0.9, 2.0))
        points = [(0.3, -0.2), (-1.1, 0.7), (0.9, 1.2)]
        got = moyal_quadrature_oracle(f, g, hbar, points)
        nodes, radius = rieffel._oracle_nodes(hbar), rieffel._ORACLE_RADIUS
        step = 2.0 * radius / nodes
        u = -radius + step * (np.arange(nodes) + 0.5)
        # one row per point, each node weighted by the step
        fa, fb, ga, gb = (
            step * np.array([factor(z[axis] + u) for z in points])
            for factor, axis in ((f[0], 0), (f[1], 1), (g[0], 0), (g[1], 1))
        )
        # the kernel in blocks of 256 rows (32 MiB at 8192 nodes, hbar = 0.02)
        ia = ib = 0.0
        for start in range(0, nodes, 256):
            rows = slice(start, start + 256)
            kernel = np.exp((2j / hbar) * np.outer(u[rows], u))
            ia = ia + ((fa[:, rows] @ kernel) * gb).sum(axis=1)
            ib = ib + ((fb[:, rows] @ kernel.conj()) * ga).sum(axis=1)
        for value, ref in zip(got, ia * ib / (np.pi * hbar) ** 2):
            assert abs(value - ref) <= 1e-13 * abs(ref)

    def test_oracle_temporaries_stay_bounded(self, traced_mib):
        # a call the size of rsdq-02's: five points.  An N x N kernel block
        # would be 8 MiB; the oracle holds a few length-2N spectra at a time
        (c1, a), (c2, b) = GAUSSIAN_PAIRS[0]
        points = [(0.1 * k, -0.05 * k) for k in range(5)]
        factors = gaussian_factors(c1, a), gaussian_factors(c2, b)
        peak, _ = traced_mib(lambda: moyal_quadrature_oracle(*factors, HBAR, points))
        assert peak <= 2

    @pytest.mark.parametrize("hbar, nodes", [(0.4, 2048), (0.1, 2048), (0.05, 4096), (0.02, 8192)])
    def test_oracle_nodes_resolve_the_chirp(self, hbar, nodes):
        # the least power of two >= max(2048, 4 R^2 / (pi hbar)): the step
        # s meets the Nyquist bound s (2R / hbar) <= pi of e^{-i u^2 / hbar}
        assert rieffel._oracle_nodes(hbar) == nodes
        step = 2.0 * rieffel._ORACLE_RADIUS / nodes
        assert step * 2.0 * rieffel._ORACLE_RADIUS / hbar <= np.pi
        assert nodes == 2048 or step * 4.0 * rieffel._ORACLE_RADIUS / hbar > np.pi

    @pytest.mark.parametrize("hbar", [0.02, 0.01, 0.002])
    def test_oracle_matches_the_closed_form_at_small_hbar(self, hbar):
        # centred Gaussians: at hbar = 0.02, 2048 nodes left the oracle
        # 1.1e-6 off the closed form
        a, b = 0.5, 0.3125
        points = np.array([(0.0, 0.0), (0.4, -0.3), (-0.7, 0.2)])
        got = moyal_quadrature_oracle(
            gaussian_factors((0.0, 0.0), a), gaussian_factors((0.0, 0.0), b), hbar, points
        )
        amp, decay = gaussian_star_closed_form(a, b, hbar)
        ref = amp * np.exp(-decay * (points**2).sum(axis=1))
        assert np.abs(got - ref).max() <= 1e-14

    def test_oracle_refuses_an_hbar_past_the_node_cap_before_sampling(self):
        calls = []

        def recording(x):
            calls.append(x)
            return np.exp(-(x**2))

        radius, cap = rieffel._ORACLE_RADIUS, rieffel._ORACLE_MAX_NODES
        smallest = 4.0 * radius**2 / (np.pi * cap)  # the least hbar the cap resolves
        assert rieffel._oracle_nodes(smallest * (1 + 1e-12)) == cap
        for hbar in (smallest * (1 - 1e-12), 1e-300):
            with pytest.raises(GridError, match="nodes per axis"):
                moyal_quadrature_oracle(
                    (recording, recording), (recording, recording), hbar, [(0.0, 0.0)]
                )
        assert calls == []

    @pytest.mark.parametrize(
        "points",
        [[], [0.1], [(0.0, 0.0, 5.0)], [(0.0, 0.0), (np.nan, 0.1)], [(np.inf, 0.0)], [("a", 0.0)]],
        ids=["empty", "flat", "three-coordinates", "nan", "inf", "not-a-number"],
    )
    def test_oracle_refuses_bad_points_before_sampling(self, points):
        calls = []

        def recording(x):
            calls.append(x)
            return np.exp(-(x**2))

        with pytest.raises(GridError, match="oracle points"):
            moyal_quadrature_oracle((recording, recording), (recording, recording), HBAR, points)
        assert calls == []

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
        nodes = rieffel._oracle_nodes(HBAR)
        assert nodes == 2048
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
        assert sup_gap(left, right) / right.sup_norm() <= 1e-12

    def test_conjugation_reverses_factors(self, grid, offset_pair, offset_product):
        f, g = offset_pair
        rev = moyal_product(conjugate(g), conjugate(f), HBAR)
        defect = sup_gap(conjugate(offset_product), rev)
        assert defect / offset_product.sup_norm() <= 1e-13

    def test_noncommutative_at_positive_parameter(self, grid, offset_pair, offset_product):
        f, g = offset_pair
        reverse = moyal_product(g, f, HBAR)
        assert sup_gap(offset_product, reverse) > 1e-3

    def test_alias_detector_fires_for_carrier_near_nyquist(self, grid):
        carrier = GridFunction.from_callable(grid, lambda x, p: np.cos(32.0 * x))
        fast = times(GridFunction.gaussian(grid, (0.0, 0.0), 1.0), carrier)
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
        f = times(GridFunction.gaussian(grid, c1, a), wave)
        g = GridFunction.gaussian(grid, c2, b)
        for left, right in ((f, g), (g, f)):
            (ref,) = reference_moyal_product(left, right, (HBAR,))
            assert _relative_gap(moyal_product(left, right, HBAR), ref) <= 1e-13

    def test_sparse_trigonometric_polynomials(self, grid):
        # random complex polynomials of 20 modes, |k_i| <= 4: mode boxes
        # that are mostly empty, unlike the Gaussians' filled ones
        rng = np.random.default_rng(20260816)
        f, g = sparse_polynomial(grid, rng), sparse_polynomial(grid, rng)
        inf = float("inf")
        for left, right in ((f, g), (g, f)):
            (ref,) = reference_moyal_product(left, right, (HBAR,), inf)
            assert _relative_gap(moyal_product(left, right, HBAR, inf), ref) <= 1e-13

    @settings(max_examples=5, deadline=None)
    @given(f=WAVE_GAUSSIANS, g=WAVE_GAUSSIANS, hbar=st.floats(0.02, 0.4))
    @example(f=((0.0, 0.0), 0.6, 16.0), g=((0.0, 0.0), 0.6, 16.0), hbar=0.1)  # aliased
    @example(f=((0.8, 0.0), 0.5, None), g=((-1.0, 0.4), 0.4, -3.0), hbar=0.2)
    @example(f=((0.0, 0.0), 0.5, None), g=((0.0, 0.0), 0.3125, None), hbar=0.02)
    def test_gaussians_refuse_or_match_both_references(self, f, g, hbar):
        """moyal_product either raises its guard or agrees with the pair sum
        and, at three interior points, with the quadrature oracle."""
        f_grid, f_factors = wave_gaussian(COARSE_GRID, *f)
        g_grid, g_factors = wave_gaussian(COARSE_GRID, *g)
        try:
            product = moyal_product(f_grid, g_grid, hbar)
        except GridError:  # SupportError and AliasError included
            return
        (ref,) = reference_moyal_product(f_grid, g_grid, (hbar,))
        assert _relative_gap(product, ref) <= 1e-12
        i, j = np.unravel_index(np.abs(product.samples).argmax(), COARSE_GRID.shape)
        index = [(i, j), (i + 3, j - 2), (i - 2, j + 3)]
        x = COARSE_GRID.axis_coordinates()
        points = [(x[a], x[b]) for a, b in index]
        oracle = moyal_quadrature_oracle(f_factors, g_factors, hbar, points)
        values = np.array([product.samples[a, b] for a, b in index])
        assert np.abs(oracle - values).max() <= 1e-6 * np.abs(values).max()


class TestBlocksAndLimits:
    @pytest.mark.parametrize("operands", ["pair0", "pair1", "pair2", "plane_wave", "sparse"])
    def test_rows_match_the_whole_box_bit_for_bit(self, grid, operands):
        if operands == "plane_wave":
            (c1, a), (c2, b) = GAUSSIAN_PAIRS[0]
            wave = GridFunction.from_callable(grid, lambda x, p: np.exp(1j * (1.5 * x - 0.7 * p)))
            f = times(GridFunction.gaussian(grid, c1, a), wave)
            g = times(GridFunction.gaussian(grid, c2, b), conjugate(wave))
        elif operands == "sparse":
            rng = np.random.default_rng(20260816)
            f, g = sparse_polynomial(grid, rng), sparse_polynomial(grid, rng)
        else:
            (c1, a), (c2, b) = GAUSSIAN_PAIRS[int(operands[-1])]
            f = GridFunction.gaussian(grid, c1, a)
            g = GridFunction.gaussian(grid, c2, b)
        pair = rieffel._pair_stage(grid, _significant(_modes(f)), _significant(_modes(g)))
        for hbar in SCHEDULE:
            assert np.array_equal(rieffel._twist_stage(pair, hbar), whole_box_twist(pair, hbar))

    def test_block_size_moves_the_pullback_only_at_round_off(self, grid, monkeypatch):
        (c1, a), _ = GAUSSIAN_PAIRS[1]
        f = GridFunction.gaussian(grid, c1, a)
        phi = AffineSymplecticMap.shear(0.3)
        default = pullback(f, phi)
        monkeypatch.setattr(rieffel, "_SYNTHESIS_BLOCK", 2**12)
        small = pullback(f, phi)
        assert sup_gap(small, default) <= 1e-13 * default.sup_norm()

    @pytest.mark.parametrize(
        "operands, limit_mib",
        [
            (GAUSSIAN_PAIRS[1], 8),  # 73 x 73 momenta, q-FFT length 150: 4.8 MiB
            ((((-5.0, 0.0), 4.0), ((5.0, 0.0), 4.0)), 12),  # the disjoint pair: 7.3 MiB
        ],
        ids=["pair2", "disjoint"],
    )
    def test_product_temporaries_stay_bounded(self, grid, operands, limit_mib, traced_mib):
        (c1, a), (c2, b) = operands
        f = GridFunction.gaussian(grid, c1, a)
        g = GridFunction.gaussian(grid, c2, b)
        peak, _ = traced_mib(lambda: moyal_product(f, g, HBAR))
        assert peak <= limit_mib

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


@pytest.fixture(scope="module")
def fine_pair():
    """wt-03 pair 1 on a 1024-point grid, where a complex sample array is 16 MiB."""
    fine = Grid2n(1, 1024, 20.0)
    return tuple(GridFunction.gaussian(fine, c, a) for c, a in TRANSFORM_PAIR)


class TestPeakMemory:
    # tracemalloc peaks at 1024 points; each bound lies between the peak of
    # copied results and two-pass transforms and the peak measured now
    def test_product(self, fine_pair, traced_mib):
        # one spectrum and its significant-mode mask at a time: 25.3 MiB;
        # 48.8 MiB with copies
        peak, _ = traced_mib(lambda: moyal_product(*fine_pair, HBAR))
        assert peak <= 36

    def test_defects(self, fine_pair, traced_mib):
        # two spectra, then the bracket's four arrays, then pointwise,
        # bracket and one entry's two arrays: 72.5 MiB; 128.8 MiB with
        # out-of-place differences
        peak, _ = traced_mib(lambda: star_defects(*fine_pair, (0.2, 0.1)))
        assert peak <= 100

    def test_bracket(self, fine_pair, traced_mib):
        # two spectra, the result and one derivative field: 64.4 MiB;
        # 96.1 MiB with two-pass transforms
        peak, _ = traced_mib(lambda: poisson_bracket_grid(*fine_pair))
        assert peak <= 80


class TestDefectsAndConvergence:
    def test_frozen_defect_anchors(self, offset_pair):
        f, g = offset_pair
        ((von_neumann, dirac),) = star_defects(f, g, [0.4])
        assert von_neumann == pytest.approx(0.05704109168640791, rel=1e-6)
        assert dirac == pytest.approx(0.010145434930611485, rel=1e-6)

    @pytest.mark.parametrize("index", range(len(GAUSSIAN_PAIRS)))
    def test_one_product_matches_the_two_product_references(self, grid, index, monkeypatch):
        (c1, a), (c2, b) = GAUSSIAN_PAIRS[index]
        f = GridFunction.gaussian(grid, c1, a)
        g = GridFunction.gaussian(grid, c2, b)
        with monkeypatch.context() as patch:
            pairs, twists = count_stages(patch)
            got = star_defects(f, g, SCHEDULE)
        # real operands: one pair stage for the schedule, g*f = conj(f*g)
        assert len(pairs) == 1 and modes_are(pairs[0], f, g)
        assert twists == list(SCHEDULE)
        # the defect is a difference of terms of the size of {f, g}: the two
        # routes agree to round-off on that scale (up to 1.7e-12 of the defect
        # itself, pair 1 at hbar = 0.05)
        scale = poisson_bracket_grid(f, g).sup_norm()
        for hbar, (von_neumann, dirac) in zip(SCHEDULE, got):
            assert von_neumann == von_neumann_defect_grid(f, g, hbar)
            assert abs(dirac - dirac_defect_grid(f, g, hbar)) <= 1e-12 * scale

    @pytest.mark.parametrize("complex_operand", [False, True], ids=["real", "complex"])
    def test_one_spectrum_per_operand(self, grid, complex_operand, monkeypatch):
        # the pair stages and the bracket read the same two spectra, and the
        # support guards refuse before the first of them
        (c1, a), (c2, b) = GAUSSIAN_PAIRS[0]
        f, g = GridFunction.gaussian(grid, c1, a), GridFunction.gaussian(grid, c2, b)
        if complex_operand:
            f = times(f, GridFunction.from_callable(grid, lambda x, p: np.exp(1j * x)))
        transforms = []
        modes = rieffel._modes

        def counted_modes(h):
            transforms.append(h)
            return modes(h)

        monkeypatch.setattr(rieffel, "_modes", counted_modes)
        star_defects(f, g, SCHEDULE)
        assert transforms == [f, g]
        transforms.clear()
        wide = GridFunction.gaussian(grid, (8.0, 0.0), 0.5)
        with pytest.raises(SupportError):
            star_defects(f, wide, SCHEDULE)
        assert transforms == []

    def test_no_grid_function_is_built(self, offset_pair, monkeypatch):
        # the stages pass arrays: six GridFunctions per hbar went only to
        # read two sup norms
        f, g = offset_pair
        built = []
        own = GridFunction._own

        def counted(self, grid, samples):
            built.append(grid)
            own(self, grid, samples)

        monkeypatch.setattr(GridFunction, "_own", counted)
        assert len(star_defects(f, g, SCHEDULE)) == len(SCHEDULE)
        assert built == []

    def test_complex_operand_takes_two_products(self, grid, monkeypatch):
        (c1, a), (c2, b) = GAUSSIAN_PAIRS[0]
        wave = GridFunction.from_callable(grid, lambda x, p: np.exp(1j * x))
        f = times(GridFunction.gaussian(grid, c1, a), wave)
        g = GridFunction.gaussian(grid, c2, b)
        schedule = (HBAR, HBAR / 2)
        for left, right in ((f, g), (g, f)):
            refs = [(von_neumann_defect_grid(left, right, h), dirac_defect_grid(left, right, h))
                    for h in schedule]
            with monkeypatch.context() as patch:
                pairs, twists = count_stages(patch)
                got = star_defects(left, right, schedule)
            assert got == refs
            assert len(pairs) == 2
            assert modes_are(pairs[0], left, right) and modes_are(pairs[1], right, left)
            assert twists == [HBAR, HBAR, HBAR / 2, HBAR / 2]

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
            (alone,) = convergence_study(
                lambda a, b, hs: [(defect_fn(a, b, h),) for h in hs], f, g, SCHEDULE
            )
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

        def defects(f, g, hs):
            seen.extend(hs)
            return [(h, h * h) for h in hs]

        first, second = convergence_study(defects, None, None, schedule)
        assert [type(h) for h in seen] == [Fraction, float, Fraction, Fraction]
        assert seen == list(schedule)
        for study, slope in ((first, 1.0), (second, 2.0)):
            assert study["rows"] == [(h, h**slope) for h in (0.5, 0.25, 0.125, 0.0625)]
            assert all(type(h) is float and type(d) is float for h, d in study["rows"])
            assert study["slope"] == pytest.approx(slope, abs=1e-12)

    def test_schedule_is_read_once(self, offset_pair):
        # a one-shot iterator gives what the tuple gives
        f, g = offset_pair
        assert star_defects(f, g, iter(SCHEDULE)) == star_defects(f, g, SCHEDULE)

        def defects(f, g, hs):
            return [(h, h * h) for h in hs]

        studies = convergence_study(defects, None, None, SCHEDULE)
        assert len(studies) == 2
        assert convergence_study(defects, None, None, iter(SCHEDULE)) == studies

    @pytest.mark.parametrize("last", [0.0, -0.05, float("nan")])
    def test_schedule_entry_not_positive_is_refused_before_any_product(
        self, offset_pair, last, monkeypatch
    ):
        f, g = offset_pair
        monkeypatch.setattr(rieffel, "_twist_stage", no_twist)
        with pytest.raises(GridError, match="positive"):
            star_defects(f, g, (0.4, 0.2, 0.1, last))
        with pytest.raises(GridError, match="positive"):
            convergence_study(star_defects, f, g, (0.4, 0.2, 0.1, last))

    def test_guards_stay_loud_on_both_paths(self, grid, monkeypatch):
        # every guard fires in a pair stage, before any twisted FFT
        monkeypatch.setattr(rieffel, "_twist_stage", no_twist)
        wide = GridFunction.gaussian(grid, (8.0, 0.0), 0.5)
        g = GridFunction.gaussian(grid, (0.0, 0.0), 1.0)
        carrier = GridFunction.from_callable(grid, lambda x, p: np.cos(32.0 * x))
        fast = times(GridFunction.gaussian(grid, (0.0, 0.0), 1.0), carrier)
        twisted = times(fast, GridFunction.from_callable(grid, lambda x, p: np.exp(1j * p)))
        for left, right in ((wide, g), (g, wide), (wide, GridFunction(grid, g.samples * (1 + 1j)))):
            with pytest.raises(SupportError):
                star_defects(left, right, SCHEDULE)
        for left, right in ((fast, fast), (twisted, fast)):
            with pytest.raises(AliasError):
                star_defects(left, right, SCHEDULE)


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
        assert sup_gap(got, f) <= 1e-12

    def test_translation_matches_translate(self, grid, offset_pair):
        f, _ = offset_pair
        x = (0.6, -0.3)
        via_map = pullback(f, AffineSymplecticMap(np.eye(2), x))
        assert sup_gap(via_map, translate(f, x)) <= 1e-12

    def test_rotation_fixes_radial_functions(self, grid):
        f = GridFunction.gaussian(grid, (0.0, 0.0), 0.7)
        got = pullback(f, AffineSymplecticMap.rotation(1.1))
        assert sup_gap(got, f) <= 1e-12

    def test_rotation_moves_center_against_the_map(self, grid):
        # f(phi(z)) recenters the bump at phi^{-1}(c)
        f = GridFunction.gaussian(grid, (1.0, 0.0), 1.0)
        phi = AffineSymplecticMap.rotation(np.pi / 2)
        got = pullback(f, phi)
        inv = inverse(phi)
        inv_center = inv.linear @ np.array([1.0, 0.0]) + inv.offset
        ref = GridFunction.gaussian(grid, tuple(inv_center), 1.0)
        assert sup_gap(got, ref) <= 1e-12

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
        assert sup_gap(got, ref) <= 1e-12

    @pytest.mark.parametrize("phi", [
        AffineSymplecticMap.rotation(np.pi / 6),
        AffineSymplecticMap.shear(0.3),
        AffineSymplecticMap(np.diag([2.0, 2.0])),
    ], ids=["rot30", "shear-0.3", "diag-2-2"])
    def test_zero_function_pulls_back_to_exact_zero(self, grid, phi):
        # an empty spectrum runs the general path: no block, a zero image
        got = pullback(GridFunction(grid, np.zeros(grid.shape)), phi)
        assert got.grid == grid
        assert np.array_equal(got.samples, np.zeros(grid.shape, dtype=np.complex128))

    def test_wraparound_leak_is_detected_then_waivable(self, grid):
        # rotating an off-center bump drags periodic copies onto the faces;
        # the detector reports it and an explicit threshold accepts it
        f = GridFunction.gaussian(grid, (0.8, 0.0), 0.5)
        phi = AffineSymplecticMap.rotation(np.pi / 6)
        assert f.boundary_ratio() <= 1e-12  # the refusal is of the image, not of f
        with pytest.raises(SupportError, match="boundary mass"):
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
        star = moyal_product(f, g, HBAR, boundary_threshold=1e-9)
        defect = morphism_star_defect(factory(), f, g, HBAR, star, boundary_threshold=1e-9)
        assert defect <= 1e-12

    def test_uniform_scaling_breaks_the_product(self, tight_pair):
        f, g = tight_pair
        phi = AffineSymplecticMap(np.diag([2.0, 2.0]))
        star = moyal_product(f, g, HBAR, boundary_threshold=float("inf"))
        defect = morphism_star_defect(phi, f, g, HBAR, star, boundary_threshold=float("inf"))
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
