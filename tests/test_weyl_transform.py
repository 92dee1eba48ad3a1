"""Oscillator-basis transform tests: matrix anchors, intertwining, detectors."""

import tracemalloc
from math import atan2

import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import eigh_tridiagonal

from quantaequiv import rieffel
from quantaequiv.rieffel import (
    Grid2n,
    GridError,
    GridFunction,
    TruncationError,
    _class_symbols,
    _jacobi_eigenpairs,
    _modes,
    _significant,
    moyal_product,
    oscillator_position,
    weyl_homomorphism_residual,
    weyl_transform,
)

HBAR = 0.1

# the two Gaussian pairs of the weyl-transform suite's wt-03 checks
TRANSFORM_PAIRS = (
    (((0.5, 0.0), 1.0), ((-0.4, 0.3), 2.0 / 3.0)),
    (((0.8, 0.0), 0.5), ((-0.5, 0.4), 1.0 / 3.0)),
)


def _mode_exponential(n_trunc, hbar, mode_step, class_key):
    """exp(i |k| Q) for one |k|^2 class, from its own tridiagonal eigenproblem."""
    absk = mode_step * np.sqrt(float(class_key))
    off = absk * np.sqrt(0.5 * hbar * np.arange(1, n_trunc))
    w, v = eigh_tridiagonal(np.zeros(n_trunc), off)
    return (v * np.exp(1j * w)) @ v.T


def reference_weyl_transform(f, hbar, n_trunc, bases):
    """The per-mode assembly weyl_transform replaced, kept as its reference.

    One eigendecomposition per |k|^2 class (memoized in `bases`, keyed by
    truncation, hbar and class) and one n x n update
    F_k U_phi base U_phi^dagger per significant mode.
    """
    grid = f.grid
    mvec, fval = _significant(_modes(f))
    class_keys = (mvec[:, 0] ** 2 + mvec[:, 1] ** 2).astype(np.int64)
    total = np.zeros((n_trunc, n_trunc), dtype=np.complex128)
    levels = np.arange(n_trunc)
    for j in range(len(fval)):
        key = int(class_keys[j])
        if key == 0:
            total[levels, levels] += fval[j]
            continue
        tag = (n_trunc, hbar, key)
        if tag not in bases:
            bases[tag] = _mode_exponential(n_trunc, hbar, grid.mode_step, key)
        k1 = grid.mode_step * mvec[j, 0]
        k2 = grid.mode_step * mvec[j, 1]
        phases = np.exp(1j * atan2(k2, k1) * levels)
        total += np.outer(fval[j] * phases, phases.conj()) * bases[tag]
    return total


def _class_inputs(f):
    """(members, phi, fval) of f's significant modes, as weyl_transform builds them."""
    mvec, fval = _significant(_modes(f))
    _, members = np.unique(mvec[:, 0] ** 2 + mvec[:, 1] ** 2, return_inverse=True)
    return members, np.arctan2(mvec[:, 1], mvec[:, 0]), fval


def reference_class_symbols(members, phi, fval, n_trunc):
    """The sparse class-by-mode product _class_symbols replaced, kept as its reference."""
    classes, count = len(np.bincount(members)), len(fval)
    weights = sparse.csc_array(
        (
            np.concatenate([fval, fval.conj()]),
            (np.concatenate([members, members + classes]), np.tile(np.arange(count), 2)),
        ),
        shape=(2 * classes, count),
    )
    half = np.zeros((2 * classes, n_trunc), dtype=np.complex128)
    rows = max(1, rieffel._PHASE_ENTRIES // n_trunc)
    for start in range(0, count, rows):
        block = slice(start, start + rows)
        half += weights[:, block] @ rieffel._powers(np.exp(1j * phi[block]), n_trunc)
    return np.concatenate([half[classes:, :0:-1].conj(), half[:classes]], axis=1)


def _relative_gap(mat, ref):
    return float(np.abs(mat - ref).max() / np.abs(ref).max())


def oscillator_momentum(n_trunc, hbar):
    # commutator [Q, P] = +i hbar; plane-wave composition then reproduces
    # the product twist e^{-i hbar sigma/2} used by moyal_product
    off = np.sqrt(0.5 * hbar * np.arange(1, n_trunc))
    m = np.zeros((n_trunc, n_trunc), dtype=np.complex128)
    m[np.arange(n_trunc - 1), np.arange(1, n_trunc)] = -1j * off
    m[np.arange(1, n_trunc), np.arange(n_trunc - 1)] = 1j * off
    return m


def hermiticity_defect(mat):
    return float(np.abs(mat - mat.conj().T).max())


@pytest.fixture(scope="module")
def grid():
    return Grid2n(1, 256, 20.0)


@pytest.fixture(scope="module")
def window(grid):
    # flat to ~1e-7 inside radius 1.4, gone by radius 3.2
    def fn(x, p):
        r2 = (x * x + p * p) / 2.8**2
        return np.exp(-(r2**12))

    return GridFunction.from_callable(grid, fn)


@pytest.fixture(scope="module")
def gaussian_pair(grid):
    (c1, a), (c2, b) = TRANSFORM_PAIRS[0]
    return GridFunction.gaussian(grid, c1, a), GridFunction.gaussian(grid, c2, b)


@pytest.fixture(scope="module")
def pair_operands(grid):
    """(f, g, f*g) for each pair in TRANSFORM_PAIRS."""
    out = []
    for (c1, a), (c2, b) in TRANSFORM_PAIRS:
        f, g = GridFunction.gaussian(grid, c1, a), GridFunction.gaussian(grid, c2, b)
        out.append((f, g, moyal_product(f, g, HBAR)))
    return out


@pytest.fixture(scope="module")
def windowed_coordinate(grid, window):
    return GridFunction.from_callable(grid, lambda x, p: x) * window


class TestOscillatorMatrices:
    def test_position_is_the_standard_tridiagonal(self):
        q = oscillator_position(6, HBAR)
        off = np.sqrt(0.5 * HBAR * np.arange(1, 6))
        assert np.allclose(np.diag(q, 1), off)
        assert np.allclose(np.diag(q, -1), off)
        assert np.allclose(np.diag(q), 0.0)

    def test_commutator_on_the_interior(self):
        n = 40
        q, p = oscillator_position(n, HBAR), oscillator_momentum(n, HBAR)
        comm = (q @ p - p @ q)[: n - 1, : n - 1]
        assert np.max(np.abs(comm - 1j * HBAR * np.eye(n - 1))) <= 1e-13

    def test_hermiticity(self):
        for mat in (oscillator_position(12, HBAR), oscillator_momentum(12, HBAR)):
            assert np.max(np.abs(mat - mat.conj().T)) == 0.0


class TestWeylMatrix:
    def test_hermiticity_defect(self):
        entries = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]])
        assert hermiticity_defect(entries) == 0.0
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        assert hermiticity_defect(skew) == pytest.approx(2.0)


class TestWeylTransform:
    def test_window_gives_identity_block(self, window):
        mat = weyl_transform(window, HBAR, 64)
        block = mat[:10, :10]
        assert np.max(np.abs(block - np.eye(10))) <= 1e-6

    def test_windowed_coordinate_gives_position_block(self, windowed_coordinate):
        mat = weyl_transform(windowed_coordinate, HBAR, 64)
        ref = oscillator_position(64, HBAR)
        assert np.max(np.abs(mat[:10, :10] - ref[:10, :10])) <= 1e-6

    def test_real_input_gives_hermitian_matrix(self, gaussian_pair):
        f, _ = gaussian_pair
        mat = weyl_transform(f, HBAR, 48)
        assert hermiticity_defect(mat) <= 1e-12

    def test_zero_function(self, grid):
        zero = GridFunction.from_callable(grid, lambda x, p: np.zeros_like(x))
        mat = weyl_transform(zero, HBAR, 32)
        assert np.max(np.abs(mat)) == 0.0

    def test_input_validation(self, gaussian_pair):
        f, _ = gaussian_pair
        with pytest.raises(GridError):
            weyl_transform(f, HBAR, 8)
        with pytest.raises(GridError):
            weyl_transform(f, 0.0, 64)


class TestTruncationDetector:
    def test_small_truncation_rejected(self, gaussian_pair):
        f, _ = gaussian_pair
        with pytest.raises(TruncationError):
            weyl_transform(f, HBAR, 16)

    def test_wide_support_rejected(self, grid):
        def fn(x, p):
            r2 = (x * x + p * p) / 7.0**2
            return np.exp(-(r2**6))

        wide = GridFunction.from_callable(grid, fn)
        with pytest.raises(TruncationError):
            weyl_transform(wide, HBAR, 64)

    def test_threshold_is_overridable(self, gaussian_pair):
        f, _ = gaussian_pair
        mat = weyl_transform(f, HBAR, 16, support_tail=1.0)
        assert mat.shape == (16, 16)


class TestClassSymbolsAndEigenpairs:
    @pytest.mark.parametrize("n_trunc", (32, 64, 128))
    def test_class_sum_matches_the_sparse_product(
        self, window, windowed_coordinate, pair_operands, n_trunc
    ):
        gaussians = [h for f, g, _ in pair_operands for h in (f, g)]
        for f in [window, windowed_coordinate] + gaussians:
            args = _class_inputs(f)
            ref = reference_class_symbols(*args, n_trunc)
            assert _relative_gap(_class_symbols(*args, n_trunc), ref) <= 1e-15

    @pytest.mark.parametrize("n_trunc", (32, 64, 128))
    def test_eigenpairs_match_the_tridiagonal_solver(self, n_trunc):
        lam, w = _jacobi_eigenpairs(n_trunc)
        ref_lam, ref_w = eigh_tridiagonal(np.zeros(n_trunc), np.sqrt(np.arange(1.0, n_trunc)))
        assert np.array_equal(lam, ref_lam)
        # eigenvectors agree up to sign, which cancels in W[a, m] W[b, m]
        assert np.array_equal(np.abs(w), np.abs(ref_w))

    def test_cached_eigenpairs_are_read_only(self):
        lam, w = _jacobi_eigenpairs(32)
        assert _jacobi_eigenpairs(32)[1] is w
        with pytest.raises(ValueError):
            lam[0] = 0.0
        with pytest.raises(ValueError):
            w[0, 0] = 0.0

    def test_window_transform_temporaries_stay_bounded(self, window):
        tracemalloc.start()
        try:
            weyl_transform(window, HBAR, 128)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # with the sparse class sum this transform peaked at 77.1 MiB
        assert peak <= 77.1 * 2**20


@pytest.fixture(scope="module")
def class_bases():
    return {}


class TestAgainstReference:
    """The class-symbol assembly against the per-mode loop, at 1e-12 relative."""

    def test_window_and_windowed_coordinate(self, window, windowed_coordinate, class_bases):
        for f in (window, windowed_coordinate):
            ref = reference_weyl_transform(f, HBAR, 64, class_bases)
            assert _relative_gap(weyl_transform(f, HBAR, 64), ref) <= 1e-12

    @pytest.mark.parametrize("index", range(len(TRANSFORM_PAIRS)))
    def test_gaussian_pairs_and_products(self, pair_operands, index, class_bases):
        for n in (32, 64, 128):
            for h in pair_operands[index]:
                ref = reference_weyl_transform(h, HBAR, n, class_bases)
                mat = weyl_transform(h, HBAR, n, support_tail=1.0)
                assert _relative_gap(mat, ref) <= 1e-12

    def test_complex_input(self, grid, gaussian_pair, class_bases):
        f, _ = gaussian_pair
        h = f * GridFunction.from_callable(grid, lambda x, p: np.exp(1j * x))
        ref = reference_weyl_transform(h, HBAR, 64, class_bases)
        mat = weyl_transform(h, HBAR, 64)
        assert hermiticity_defect(mat) > 1e-3
        assert _relative_gap(mat, ref) <= 1e-12


@pytest.fixture(scope="module")
def residuals(pair_operands):
    f, g, star = pair_operands[0]
    out = {}
    for n in (32, 64, 128):
        wf = weyl_transform(f, HBAR, n, support_tail=1.0)
        wg = weyl_transform(g, HBAR, n, support_tail=1.0)
        ws = weyl_transform(star, HBAR, n, support_tail=1.0)
        out[n] = weyl_homomorphism_residual(ws, wf, wg)
    return out


class TestIntertwining:
    def test_residual_small_at_reference_truncation(self, residuals):
        assert residuals[64] <= 1e-3

    def test_residual_decreases_monotonically(self, residuals):
        assert residuals[32] > residuals[64] > residuals[128]

    def test_residual_magnitudes(self, residuals):
        assert 1e-5 <= residuals[32] <= 1e-2
        assert 1e-8 <= residuals[64] <= 1e-4
        assert residuals[128] <= 1e-9

    def test_residual_validation(self):
        a = np.eye(4, dtype=complex)
        b = np.eye(6, dtype=complex)
        with pytest.raises(GridError):
            weyl_homomorphism_residual(a, a, b)

    def test_exact_for_matching_products(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        a, b = m, m @ m
        assert weyl_homomorphism_residual(b, a, a) <= 1e-12
