"""Oscillator-basis transform tests: matrix anchors, intertwining, detectors."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import eigh_tridiagonal, expm
from scipy.special import gammaln, xlogy

from quantaequiv import rieffel
from quantaequiv.rieffel import (
    Grid2n,
    GridError,
    GridFunction,
    SupportError,
    TruncationError,
    _assemble,
    _class_symbols,
    _half_spectrum_symbols,
    _jacobi_eigenpairs,
    _modes,
    _significant,
    moyal_product,
    oscillator_position,
    weyl_homomorphism_residual,
    weyl_transform,
    weyl_transforms,
)

HBAR = 0.1

# the two Gaussian pairs of the weyl-transform suite's wt-03 checks
TRANSFORM_PAIRS = (
    (((0.5, 0.0), 1.0), ((-0.4, 0.3), 2.0 / 3.0)),
    (((0.8, 0.0), 0.5), ((-0.5, 0.4), 1.0 / 3.0)),
)


def reference_weyl_transform(f, hbar, n_trunc):
    """The per-mode sum weyl_transform replaced, kept as its reference.

    sum_k F_k U_phi exp(i |k| sqrt(hbar/2) J) U_phi^dagger, U_phi = diag(e^{i phi a}),
    from one tridiagonal eigenproblem sqrt(hbar/2) J = V diag(w) V^T: a |k|^2
    class's exponential is V e^{i |k| w} V^T, and its m modes enter as one
    (n x m)(m x n) product of their phase columns e^{i phi_k a}, weighted by F_k.
    """
    mvec, fval = _significant(_modes(f))
    keys, members = np.unique(mvec[:, 0] ** 2 + mvec[:, 1] ** 2, return_inverse=True)
    levels = np.arange(n_trunc)
    w, v = eigh_tridiagonal(np.zeros(n_trunc), np.sqrt(0.5 * hbar * levels[1:]))
    classes = np.split(np.argsort(members, kind="stable"), np.cumsum(np.bincount(members))[:-1])
    total = np.zeros((n_trunc, n_trunc), dtype=np.complex128)
    for key, modes in zip(keys, classes):
        phi = np.arctan2(mvec[modes, 1], mvec[modes, 0])
        columns = np.exp(1j * np.multiply.outer(levels, phi))
        base = (v * np.exp(1j * f.grid.mode_step * np.sqrt(key) * w)) @ v.T
        total += ((columns * fval[modes]) @ columns.conj().T) * base
    return total


def _class_inputs(f):
    """(members, phi, fval) of f's significant modes, as weyl_transform builds them."""
    mvec, fval = _significant(_modes(f))
    _, members = np.unique(mvec[:, 0] ** 2 + mvec[:, 1] ** 2, return_inverse=True)
    return members, np.arctan2(mvec[:, 1], mvec[:, 0]), fval


def reference_powers(z, count):
    """The column-layout power table _powers replaced, kept as its reference."""
    out = np.empty((len(z), count), dtype=np.complex128)
    out[:, 0] = 1.0
    done = 1
    while done < count:
        step = min(done, count - done)
        out[:, done : done + step] = out[:, :step] * (out[:, done - 1] * z)[:, None]
        done += step
    return out


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
    rows = max(1, rieffel._BLOCK_ENTRIES // n_trunc)
    for start in range(0, count, rows):
        block = slice(start, start + rows)
        half += weights[:, block] @ rieffel._powers(np.exp(1j * phi[block]), n_trunc).T
    return np.concatenate([half[classes:, :0:-1].conj(), half[:classes]], axis=1)


def _contraction_inputs(f, n_trunc):
    """(lam, s, symbol) of f at n_trunc, as weyl_transform builds them."""
    mvec, fval = _significant(_modes(f))
    keys, members = np.unique(mvec[:, 0] ** 2 + mvec[:, 1] ** 2, return_inverse=True)
    symbol = _class_symbols(members, np.arctan2(mvec[:, 1], mvec[:, 0]), fval, n_trunc)
    s = f.grid.mode_step * np.sqrt(0.5 * HBAR * keys)
    return _jacobi_eigenpairs(n_trunc)[0], s, symbol


def reference_eigenvalue_symbols(lam, s, symbol):
    """G[d, m] = sum_c e^{i s_c lam_m} T[c, d] over the whole spectrum, by one einsum."""
    return np.einsum("mc,cd->dm", np.exp(1j * np.multiply.outer(lam, s)), symbol)


def full_spectrum_eigenvalue_symbols(lam, s, symbol):
    """The per-eigenvalue product _half_spectrum_symbols replaced, kept as its reference."""
    phases = np.exp(1j * np.multiply.outer(lam, s))
    return np.stack([e @ symbol for e in phases]).T


def diagonal_sum(w, g):
    """The per-diagonal loop _assemble replaced, kept as its reference.

    The b x b block sum_m w[a, m] w[b', m] g[b - 1 + a - b', m], b = len(w),
    one diagonal d at a time: diagonals d and -d share the products
    w[a + d, m] w[a, m].
    """
    corner = len(w)
    levels = np.arange(corner)
    total = np.empty((corner, corner), dtype=np.complex128)
    for d in range(corner):
        a = levels[: corner - d]
        pair = w[d:] * w[: corner - d]
        total[a + d, a] = np.einsum("am,m->a", pair, g[corner - 1 + d])
        total[a, a + d] = np.einsum("am,m->a", pair, g[corner - 1 - d])
    return total


def full_spectrum_assemble(n_trunc, s, symbol):
    """The assembly over all n eigenvectors that _assemble replaced, kept as its reference."""
    lam, w = _jacobi_eigenpairs(n_trunc)
    return diagonal_sum(w, full_spectrum_eigenvalue_symbols(lam, s, symbol))


def folded_eigenvalue_symbols(lam, s, symbol):
    """The whole-spectrum G summed over each pair +-lam, the partner taken (-1)^d times.

    Column m stands for lam[n // 2 + m]; for odd n the zero mode is its own
    partner and is taken once, so its odd offsets, which meet only
    W[a, m] W[b, m] = 0, vanish.
    """
    n_trunc = len(lam)
    g = reference_eigenvalue_symbols(lam, s, symbol)
    upper = np.arange(n_trunc // 2, n_trunc)
    sign = (-1.0) ** np.arange(-(n_trunc - 1), n_trunc)
    folded = g[:, upper] + sign[:, None] * g[:, n_trunc - 1 - upper]
    if n_trunc % 2:
        folded[:, 0] *= 0.5
    return folded


def normalized_laguerre_rows(x, count):
    """Rows n = 0 .. count - 1 of l_n^(d)(x), each a (count, len(x)) array over d < count.

    l_n^(d)(x) = sqrt(n! / (n + d)!) x^(d/2) e^(-x/2) L_n^(d)(x) is the
    normalized Laguerre function.  Row 0 is taken in logs; the others follow
    the normalized three-term recurrence
        l_(n+1) = ((2n + 1 + d - x) l_n - sqrt(n (n + d)) l_(n-1))
                  / sqrt((n + 1) (n + 1 + d)).
    """
    d = np.arange(count, dtype=float)[:, None]
    prev = np.zeros((count, len(x)))
    cur = np.exp(xlogy(0.5 * d, x) - 0.5 * x - 0.5 * gammaln(d + 1.0))
    for n in range(count):
        yield cur
        nxt = (2 * n + 1 + d - x) * cur - np.sqrt(n * (n + d)) * prev
        prev, cur = cur, nxt / np.sqrt((n + 1) * (n + 1 + d))


def closed_form_symbol(f, hbar, corner, orientation=1.0):
    """(x, T) of f's significant modes, grouped by |k|^2 class c.

    x_c = s_c^2 = |k|^2 hbar / 2 and T[c, d] = sum_{k in c} F_k e^{i phi_k d}
    for d = -(corner - 1) .. corner - 1.  orientation=-1 plants the fault
    phi -> -phi.
    """
    mvec, fval = _significant(_modes(f))
    keys, members = np.unique(mvec[:, 0] ** 2 + mvec[:, 1] ** 2, return_inverse=True)
    phi = orientation * np.arctan2(mvec[:, 1], mvec[:, 0])
    symbol = np.empty((len(keys), 2 * corner - 1), dtype=np.complex128)
    for column, d in enumerate(range(-(corner - 1), corner)):
        terms = fval * np.exp(1j * d * phi)
        symbol[:, column] = np.bincount(members, terms.real, len(keys))
        symbol[:, column] += 1j * np.bincount(members, terms.imag, len(keys))
    return 0.5 * hbar * f.grid.mode_step**2 * keys, symbol


def closed_form_block(x, symbol, unit=1j):
    """The leading b x b block of sum_k F_k exp(i(k1 Q + k2 P)), no truncation of J.

    exp(i(k1 Q + k2 P)) is the displacement operator D(alpha),
    alpha = i s e^{i phi}, s = |k| sqrt(hbar/2), with elements
    <a|D|a'> = i^|d| e^{i phi d} l_min(a, a')^(|d|)(s^2), d = a - a' (Cahill
    and Glauber, Phys. Rev. 177, 1857 (1969)).  So entry (a, a') of the block
    is i^|d| sum_c l_min(a, a')^(|d|)(x_c) T[c, d]; b comes from the symbol's
    2b - 1 offsets.  unit=-1j plants the fault i -> -i.
    """
    corner = (symbol.shape[1] + 1) // 2
    units = np.array([1.0, unit, unit * unit, unit * unit * unit])
    block = np.empty((corner, corner), dtype=np.complex128)
    for n, ell in enumerate(normalized_laguerre_rows(x, corner)):
        d = np.arange(corner - n)
        block[n + d, n] = units[d % 4] * np.einsum("dc,cd->d", ell[d], symbol[:, corner - 1 + d])
        block[n, n + d] = units[d % 4] * np.einsum("dc,cd->d", ell[d], symbol[:, corner - 1 - d])
    return block


def plane_wave_block(k, hbar, corner, unit=1j, orientation=1.0):
    """closed_form_block of the single mode e^{i k.z}."""
    phi = orientation * np.arctan2(k[1], k[0])
    symbol = np.exp(1j * phi * np.arange(-(corner - 1), corner))[None, :]
    return closed_form_block(np.array([0.5 * hbar * (k[0] ** 2 + k[1] ** 2)]), symbol, unit)


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


def window_fn(x, p):
    # flat to ~1e-7 inside radius 1.4, gone by radius 3.2
    r2 = (x * x + p * p) / 2.8**2
    return np.exp(-(r2**12))


@pytest.fixture(scope="module")
def window(grid):
    return GridFunction.from_callable(grid, window_fn)


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
def windowed_coordinate(grid):
    return GridFunction.from_callable(grid, lambda x, p: x * window_fn(x, p))


@pytest.fixture(scope="module")
def plane_wave_gaussian(grid, gaussian_pair):
    """A complex operand: the first wt-03 Gaussian times e^{i x}."""
    wave = np.exp(1j * grid.axis_coordinates())[:, None]
    return GridFunction(grid, gaussian_pair[0].samples * wave)


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


def block_transforms(window, pair_operands):
    """The window at corner 10 (n = 64) and whole (n = 96), then each wt-03
    operand and product at n = 32, 64, 128 and 129, each a call of its own."""
    mats = [weyl_transform(window, HBAR, 64, corner=10), weyl_transform(window, HBAR, 96)]
    for f in (h for operands in pair_operands for h in operands):
        mats += [weyl_transform(f, HBAR, n, support_tail=1.0) for n in (32, 64, 128, 129)]
    return mats


@pytest.fixture(scope="module")
def default_block_transforms(window, pair_operands):
    return block_transforms(window, pair_operands)


class TestClassSymbolsAndEigenpairs:
    @pytest.mark.parametrize("count", (1, 2, 3, 5, 31, 64, 128))
    def test_powers_are_the_column_table_stored_by_power(self, count):
        # the odd counts end on a partial doubling step
        z = np.exp(1j * np.linspace(-3.0, 3.0, 11))
        assert np.array_equal(rieffel._powers(z, count), reference_powers(z, count).T)

    def test_middle_columns_of_a_larger_symbol_are_the_symbol(
        self, window, windowed_coordinate, pair_operands
    ):
        # weyl_transforms slices each truncation's symbol out of the largest one
        functions = [window, windowed_coordinate] + [h for ops in pair_operands for h in ops]
        for f in functions:
            args = _class_inputs(f)
            full = _class_symbols(*args, 128)
            for n in (16, 31, 32, 64):
                assert np.array_equal(full[:, 128 - n : 128 + n - 1], _class_symbols(*args, n))

    @pytest.mark.parametrize("n_trunc", (32, 64, 128))
    def test_class_sum_matches_the_sparse_product(
        self, window, windowed_coordinate, pair_operands, n_trunc
    ):
        gaussians = [h for f, g, _ in pair_operands for h in (f, g)]
        for f in [window, windowed_coordinate] + gaussians:
            args = _class_inputs(f)
            ref = reference_class_symbols(*args, n_trunc)
            assert _relative_gap(_class_symbols(*args, n_trunc), ref) <= 1e-15

    @pytest.mark.parametrize("block", (1, 7, 2**16, 2**19))
    def test_block_size_never_changes_the_transform(
        self, window, pair_operands, default_block_transforms, block, monkeypatch
    ):
        # a block holds whole classes, so the classes sum alike in any grouping,
        # one class per block included
        monkeypatch.setattr(rieffel, "_BLOCK_ENTRIES", block)
        got = block_transforms(window, pair_operands)
        assert len(got) == len(default_block_transforms) == 2 + 6 * 4
        for mat, want in zip(got, default_block_transforms):
            assert np.array_equal(mat, want)

    @pytest.mark.parametrize("n_trunc", (32, 64, 128))
    def test_eigenpairs_match_the_tridiagonal_solver(self, n_trunc):
        lam, w = _jacobi_eigenpairs(n_trunc)
        ref_lam, ref_w = eigh_tridiagonal(np.zeros(n_trunc), np.sqrt(np.arange(1.0, n_trunc)))
        assert np.array_equal(lam, ref_lam)
        # eigenvectors agree up to sign, which cancels in W[a, m] W[b, m]
        assert np.array_equal(np.abs(w), np.abs(ref_w))

    def test_each_call_decomposes_each_truncation_once(self, window, pair_operands, monkeypatch):
        # once per truncation however many functions, and nothing kept between calls
        sizes = []
        eigh = np.linalg.eigh

        def counted_eigh(a, *args, **kwargs):
            sizes.append(len(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        functions = [window, *pair_operands[0]]
        for mats in weyl_transforms(functions, HBAR, (32, 33, 64), support_tail=1.0):
            assert len(mats) == len(functions)
        assert sizes == [32, 33, 64]
        weyl_transform(window, HBAR, 64)
        weyl_transform(window, HBAR, 64)
        assert sizes == [32, 33, 64, 64, 64]

    @pytest.mark.parametrize("truncations", ((128,), (32, 64, 128)))
    def test_window_transform_temporaries_stay_bounded(self, window, truncations, traced_mib):
        # the smaller truncations take views of the symbol built at n = 128
        def stream():
            for _ in weyl_transforms([window], HBAR, truncations, support_tail=1.0):
                pass

        peak, _ = traced_mib(stream)
        # with the sparse class sum one transform at n = 128 peaked at 77.1 MiB
        assert peak <= 77.1

    def test_window_corner_peak_at_1024_points(self, traced_mib):
        # one spectrum, made in one array, and the class symbol written once
        # in 1 MiB blocks: 58.4 MiB; 77.1 MiB with two-pass transforms,
        # 8 MiB blocks and the symbol held twice
        fine = GridFunction.from_callable(Grid2n(1, 1024, 20.0), window_fn)
        peak, _ = traced_mib(lambda: weyl_transform(fine, HBAR, 64, corner=10))
        assert peak <= 67


class TestWeylTransforms:
    @pytest.mark.parametrize("truncations", ((32, 64, 128), (128, 32)))
    def test_equal_to_one_transform_per_truncation(
        self, window, windowed_coordinate, pair_operands, truncations
    ):
        functions = [window, windowed_coordinate] + [h for ops in pair_operands for h in ops]
        streamed = list(weyl_transforms(functions, HBAR, truncations, support_tail=1.0))
        assert len(streamed) == len(truncations)
        for n, mats in zip(truncations, streamed):
            assert len(mats) == len(functions)
            for f, mat in zip(functions, mats):
                assert np.array_equal(mat, weyl_transform(f, HBAR, n, support_tail=1.0))

    @settings(max_examples=8, deadline=None)
    @given(
        index=st.integers(0, 3),
        truncations=st.lists(st.integers(16, 160), min_size=2, max_size=4)
        .filter(lambda ns: any(n % 2 for n in ns))
        .map(sorted),
    )
    def test_streamed_slices_are_the_transforms_built_alone(
        self, pair_operands, index, truncations
    ):
        # one of wt-03's Gaussians f, g; the drawn sizes include an odd one
        f = pair_operands[index // 2][index % 2]
        odd = min(n for n in truncations if n % 2)
        streamed = weyl_transforms([f], HBAR, truncations, support_tail=1.0)
        for n, (mat,) in zip(truncations, streamed):
            assert np.array_equal(mat, weyl_transform(f, HBAR, n, support_tail=1.0))
            if n == odd:
                _, s, symbol = _contraction_inputs(f, n)
                assert _relative_gap(mat, full_spectrum_assemble(n, s, symbol)) <= 1e-13

    def test_wt03_operands_stream_in_bounded_memory(self, pair_operands, traced_mib):
        # one truncation's three transforms are held at a time: 19.9 MiB at
        # peak, where lists of every truncation's transforms peaked at 43.8 MiB
        truncations = range(16, 161, 2)
        residuals = []

        def stream():
            streamed = weyl_transforms(pair_operands[0], HBAR, truncations, support_tail=1.0)
            residuals.extend(weyl_homomorphism_residual(s, a, b) for a, b, s in streamed)

        peak, _ = traced_mib(stream)
        assert len(residuals) == len(truncations)
        assert peak <= 25

    def test_truncations_are_read_once_at_call_time(self, gaussian_pair):
        # a list changed after the call, or a one-shot iterator, gives what
        # the list gives at the call
        f = gaussian_pair[0]
        want = list(weyl_transforms([f], HBAR, [32, 64]))
        listed = [32, 64]
        changed = weyl_transforms([f], HBAR, listed)
        listed[0] = 8
        listed.append(128)
        for got in (list(changed), list(weyl_transforms([f], HBAR, iter([32, 64])))):
            assert len(got) == len(want)
            for (mat,), (ref,) in zip(got, want):
                assert np.array_equal(mat, ref)

    def test_needs_a_truncation(self, window):
        with pytest.raises(GridError, match="at least one truncation"):
            weyl_transforms([window], HBAR, [])


class TestCorner:
    @settings(max_examples=10, deadline=None)
    @given(
        index=st.integers(0, 3),
        truncations=st.lists(st.integers(16, 160), min_size=2, max_size=2)
        .filter(lambda ns: any(n % 2 for n in ns))
        .map(sorted),
        data=st.data(),
    )
    def test_corner_is_the_leading_block_bit_for_bit(
        self, window, windowed_coordinate, pair_operands, index, truncations, data
    ):
        # the corner's parity and the truncation's are drawn apart, so an offset
        # parity read from n instead of from the symbol's width fails here
        f = (window, windowed_coordinate, pair_operands[0][0], pair_operands[0][2])[index]
        corner = data.draw(st.integers(1, truncations[0]), label="corner")
        streamed = weyl_transforms([f], HBAR, truncations, support_tail=1.0, corner=corner)
        for n, (block,) in zip(truncations, streamed):
            full = weyl_transform(f, HBAR, n, support_tail=1.0)
            alone = weyl_transform(f, HBAR, n, support_tail=1.0, corner=corner)
            assert block.shape == alone.shape == (corner, corner)
            assert np.array_equal(alone, full[:corner, :corner])
            assert np.array_equal(block, full[:corner, :corner])

    def test_corner_builds_a_symbol_only_as_wide_as_itself(self, window, monkeypatch):
        widths = []

        def recorded(members, phi, fval, n_trunc):
            widths.append(n_trunc)
            return _class_symbols(members, phi, fval, n_trunc)

        monkeypatch.setattr(rieffel, "_class_symbols", recorded)
        for _ in weyl_transforms([window], HBAR, (32, 64), support_tail=1.0, corner=10):
            pass
        weyl_transform(window, HBAR, 64, corner=np.int64(64))
        weyl_transform(window, HBAR, 64)
        assert widths == [10, 64, 64]


class TestEigenvalueSymbols:
    """The half-spectrum G against the folded whole-spectrum einsum, at 1e-13 relative."""

    @pytest.mark.parametrize("n_trunc", (64, 65, 128))
    def test_window(self, window, n_trunc):
        args = _contraction_inputs(window, n_trunc)
        ref = folded_eigenvalue_symbols(*args)
        assert _relative_gap(_half_spectrum_symbols(*args), ref) <= 1e-13

    @pytest.mark.parametrize("n_trunc", (32, 33, 64, 65, 128))
    def test_pair_operands(self, pair_operands, n_trunc):
        for h in (h for operands in pair_operands for h in operands):
            args = _contraction_inputs(h, n_trunc)
            ref = folded_eigenvalue_symbols(*args)
            assert _relative_gap(_half_spectrum_symbols(*args), ref) <= 1e-13

    def test_spectrum_comes_in_pairs(self):
        # the partner of eigenpair (lam, w) is (-lam, (-1)^a w), up to the sign of w
        for n_trunc in (16, 17, 64, 65):
            lam, w = _jacobi_eigenpairs(n_trunc)
            sign = (-1.0) ** np.arange(n_trunc)
            assert np.allclose(lam[::-1], -lam, rtol=0.0, atol=1e-13)
            assert np.allclose(np.abs(w[:, ::-1]), np.abs(sign[:, None] * w), rtol=0.0, atol=1e-13)


class TestHalfSpectrumAssembly:
    """The transform against the whole-spectrum assembly, at 1e-13 relative.

    The odd truncations carry a zero mode, which a weight of 2 would count twice.
    """

    @pytest.mark.parametrize("n_trunc", (16, 17, 32, 33, 64, 65, 128))
    def test_against_the_full_spectrum(
        self, window, windowed_coordinate, pair_operands, n_trunc
    ):
        functions = [window, windowed_coordinate] + [h for ops in pair_operands for h in ops]
        for f in functions:
            _, s, symbol = _contraction_inputs(f, n_trunc)
            ref = full_spectrum_assemble(n_trunc, s, symbol)
            mat = weyl_transform(f, HBAR, n_trunc, support_tail=1.0)
            assert _relative_gap(mat, ref) <= 1e-13


class TestToeplitzAssembly:
    """Every block _assemble makes against the per-diagonal sum, bit for bit."""

    @pytest.mark.parametrize("n_trunc", (16, 17, 33, 64, 65, 128, 129))
    def test_every_block_is_the_diagonal_sum(
        self, window, windowed_coordinate, plane_wave_gaussian, pair_operands, n_trunc
    ):
        functions = [window, windowed_coordinate, plane_wave_gaussian]
        functions += [h for ops in pair_operands for h in ops]
        lam, w = _jacobi_eigenpairs(n_trunc)
        for f in functions:
            _, s, symbol = _contraction_inputs(f, n_trunc)
            for corner in (1, 2, 10, n_trunc):
                middle = symbol[:, n_trunc - corner : n_trunc + corner - 1]
                ref = diagonal_sum(
                    w[:corner, n_trunc // 2 :], _half_spectrum_symbols(lam, s, middle)
                )
                assert np.array_equal(_assemble(lam, w, s, middle), ref)


_HASH_SCRIPT = """
import hashlib
import numpy as np
from quantaequiv.rieffel import Grid2n, GridFunction, moyal_product, weyl_transform

def window_fn(x, p):
    return np.exp(-(((x * x + p * p) / 2.8**2) ** 12))

grid = Grid2n(1, 256, 20.0)
window = GridFunction.from_callable(grid, window_fn)
coordinate = GridFunction.from_callable(grid, lambda x, p: x * window_fn(x, p))
(c1, a), (c2, b) = %r
star = moyal_product(GridFunction.gaussian(grid, c1, a), GridFunction.gaussian(grid, c2, b), %r)
mats = [weyl_transform(h, %r, n) for n in (64, 128) for h in (window, coordinate)]
mats.append(weyl_transform(star, %r, 128, support_tail=1.0))
# odd truncations too: whether BLAS bits depend on the thread count can depend on the size
mats += [weyl_transform(h, %r, n, support_tail=1.0) for n in (33, 65) for h in (window, star)]
for mat in mats:
    print(hashlib.sha256(mat.tobytes()).hexdigest())
""" % (TRANSFORM_PAIRS[0], HBAR, HBAR, HBAR, HBAR)


_EIGENPAIR_HASH_SCRIPT = """
import hashlib
from quantaequiv.rieffel import _jacobi_eigenpairs

for n in (513, 1024):
    for part in _jacobi_eigenpairs(n):
        print(hashlib.sha256(part.tobytes()).hexdigest())
"""


_NUMPY_MA_SCRIPT = """
import sys
from quantaequiv.rieffel import Grid2n, GridFunction, weyl_transform

f = GridFunction.gaussian(Grid2n(1, 256, 20.0), %r, %r)
weyl_transform(f, %r, 64)
print("numpy.ma" in sys.modules)
""" % (*TRANSFORM_PAIRS[0][0], HBAR)


class TestImports:
    def test_transform_does_not_import_numpy_ma(self, fresh_env):
        # np.unique without return flags imports numpy.ma, about 17 ms, on first use
        proc = subprocess.run(
            [sys.executable, "-c", _NUMPY_MA_SCRIPT], capture_output=True, text=True,
            env=fresh_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]


_MEMORY_SCRIPT = """
import tracemalloc
from quantaequiv.rieffel import Grid2n, GridFunction, weyl_transform

grid = Grid2n(1, 1024, 20.0)
tracemalloc.start()
f = GridFunction.gaussian(grid, %r, %r)
print(tracemalloc.get_traced_memory()[1] / 2**20)
tracemalloc.stop()
tracemalloc.start()  # f's samples are not traced from here
weyl_transform(f, %r, 64)
held, peak = tracemalloc.get_traced_memory()
print(peak / 2**20, held / 2**20)
""" % (*TRANSFORM_PAIRS[0][0], HBAR)


_VIEW_MEMORY_SCRIPT = """
import tracemalloc
from quantaequiv.rieffel import Grid2n, GridFunction, weyl_transform

f = GridFunction.gaussian(Grid2n(1, 256, 20.0), %r, %r)
tracemalloc.start()
weyl_transform(f, %r, 512, support_tail=1.0)
print(tracemalloc.get_traced_memory()[1] / 2**20)
""" % (*TRANSFORM_PAIRS[0][0], HBAR)


class TestFreshInterpreterMemory:
    def test_grid_calls_keep_nothing_and_build_no_radius_mesh(self, fresh_env):
        # a fresh interpreter, so no earlier call has left anything behind;
        # with cached p x p parity tables and coordinate meshes for the
        # radius, the Gaussian peaked at 50.0 MiB and the transform at 49.3,
        # and 8.2 MiB stayed held after it returned
        proc = subprocess.run(
            [sys.executable, "-c", _MEMORY_SCRIPT], capture_output=True, text=True,
            env=fresh_env(),
        )
        assert proc.returncode == 0, proc.stderr
        gaussian_peak, transform_peak, held = map(float, proc.stdout.split())
        assert gaussian_peak <= 40
        assert transform_peak <= 40
        assert held <= 1

    def test_assembly_reads_g_through_a_view(self, fresh_env):
        # G is read through a strided Toeplitz view: 17.9 MiB at peak, 18.9
        # with the per-diagonal loop; a copy of the (512, 256, 512) view
        # would take 1 GiB
        proc = subprocess.run(
            [sys.executable, "-c", _VIEW_MEMORY_SCRIPT], capture_output=True, text=True,
            env=fresh_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert float(proc.stdout) <= 24


class TestBlasThreadCount:
    def test_transform_bits_do_not_depend_on_blas_threads(self, fresh_env):
        # one fresh process per setting: OpenBLAS reads its thread count at load
        hashes = {}
        for blas in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", _HASH_SCRIPT], capture_output=True, text=True,
                env=fresh_env(OPENBLAS_NUM_THREADS=blas),
            )
            assert proc.returncode == 0, proc.stderr
            hashes[blas] = proc.stdout.split()
        assert len(hashes["1"]) == 9
        assert hashes["1"] == hashes["2"]


    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="np.linalg.eigh's eigenvector bits depend on the OpenBLAS thread count at "
               "n = 513 and 1024, though its eigenvalue bits do not; the eigenpairs from "
               "the Hermite recurrence would make no LAPACK call",
    )
    def test_eigenpair_bits_do_not_depend_on_blas_threads(self, fresh_env):
        # the default suites stop at n = 128; the config schema allows 1024
        hashes = {}
        for blas in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", _EIGENPAIR_HASH_SCRIPT], capture_output=True,
                text=True, env=fresh_env(OPENBLAS_NUM_THREADS=blas),
            )
            assert proc.returncode == 0, proc.stderr
            hashes[blas] = proc.stdout.split()
        values, vectors = (
            {blas: lines[part::2] for blas, lines in hashes.items()} for part in (0, 1)
        )
        assert len(values["1"]) == 2
        assert values["1"] == values["2"]
        assert vectors["1"] == vectors["2"]


@pytest.fixture
def no_symbol_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("symbol work started")

    monkeypatch.setattr(rieffel, "_class_symbols", no_work)
    monkeypatch.setattr(rieffel, "_powers", no_work)


@pytest.mark.usefixtures("no_symbol_work")
class TestSizeGuard:
    def test_oversize_transform_is_refused_before_symbol_work(self, window):
        # the window's 5924 classes at n = 2048 make 5924 * 6143 entries
        with pytest.raises(GridError) as info:
            weyl_transform(window, HBAR, 2048)
        assert type(info.value) is GridError
        assert str(5924 * 6143) in str(info.value)
        assert str(rieffel._MAX_TRANSFORM_ENTRIES) in str(info.value)

    def test_window_at_the_schema_cap_passes_the_guard(self, window):
        with pytest.raises(AssertionError, match="symbol work started"):
            weyl_transform(window, HBAR, 1024)

    def test_a_bad_last_truncation_is_refused_before_symbol_work(self, window, gaussian_pair):
        with pytest.raises(GridError, match="truncation size must be at least 16"):
            weyl_transforms([window], HBAR, [64, 128, 8])
        with pytest.raises(GridError) as info:
            weyl_transforms([window], HBAR, [64, 128, 2048])
        assert "5924 |k|^2 classes at truncation 2048 make %d" % (5924 * 6143) in str(info.value)
        # the Gaussian's tail is above the default support_tail at n = 16
        with pytest.raises(TruncationError, match="beyond the truncation reach 1.761;"):
            weyl_transforms([gaussian_pair[0]], HBAR, [32, 64, 16])

    def test_each_guard_is_decided_at_the_truncation_that_decides_it(self, window, gaussian_pair):
        # the tail at the smallest truncation, wherever it stands
        with pytest.raises(TruncationError, match="beyond the truncation reach 1.761;"):
            weyl_transforms([gaussian_pair[0]], HBAR, [128, 16])
        # the size at the largest: 5924 classes overflow from n = 1889 on
        with pytest.raises(GridError) as info:
            weyl_transforms([window], HBAR, [1900, 2048])
        assert type(info.value) is GridError
        assert "5924 |k|^2 classes at truncation 2048 make %d" % (5924 * 6143) in str(info.value)
        # the tail guard comes first
        with pytest.raises(TruncationError):
            weyl_transforms([window], HBAR, [2048, 16])

    def test_a_bad_last_function_is_refused_before_symbol_work(self, window, gaussian_pair):
        # the Gaussian passes every guard; the window after it does not
        with pytest.raises(GridError) as info:
            weyl_transforms([gaussian_pair[0], window], HBAR, [64, 128, 2048])
        assert "5924 |k|^2 classes at truncation 2048 make %d" % (5924 * 6143) in str(info.value)


# each refusal of weyl_transforms: (functions, truncations, hbar), the functions
# picked by index from (window, Gaussian, Gaussian with mass at the boundary)
_REFUSALS = {
    "support": ((2,), (64,), HBAR),
    "tail-at-the-last-truncation": ((1,), (32, 64, 16), HBAR),
    "tail-at-the-smallest-truncation": ((1,), (128, 16), HBAR),
    "tail-before-size": ((0,), (2048, 16), HBAR),
    "size": ((0,), (2048,), HBAR),
    "size-at-the-largest-truncation": ((0,), (1900, 2048), HBAR),
    "bad-last-truncation": ((0,), (64, 128, 8), HBAR),
    "bad-last-function": ((1, 0), (64, 128, 2048), HBAR),
    "hbar": ((0,), (64,), 0.0),
}


@pytest.mark.usefixtures("no_symbol_work")
class TestCornerGuards:
    @pytest.mark.parametrize("case", sorted(_REFUSALS))
    def test_a_corner_refuses_what_the_whole_transform_refuses(
        self, grid, window, gaussian_pair, case
    ):
        picks, truncations, hbar = _REFUSALS[case]
        operands = (window, gaussian_pair[0], GridFunction.gaussian(grid, (9.5, 0.0), 1.0))
        functions = [operands[i] for i in picks]
        errors = []
        for corner in (None, 10):
            with pytest.raises(GridError) as info:
                weyl_transforms(functions, hbar, truncations, corner=corner)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        if case == "support":
            assert errors[0][0] is SupportError

    @pytest.mark.parametrize("corner", (0, -1, 65, 2.5, True, np.float64(10.0), "10"))
    def test_bad_corners_are_refused_before_symbol_work(self, window, corner):
        with pytest.raises(GridError, match="corner must be an int from 1 to") as info:
            weyl_transform(window, HBAR, 64, corner=corner)
        assert type(info.value) is GridError

    def test_a_corner_past_the_smallest_truncation_is_refused(self, window):
        with pytest.raises(GridError, match="to the smallest truncation, 32"):
            weyl_transforms([window], HBAR, (64, 32), support_tail=1.0, corner=33)
        with pytest.raises(AssertionError, match="symbol work started"):
            weyl_transforms([window], HBAR, (64, 32), support_tail=1.0, corner=32)


class TestAgainstReference:
    """The class-symbol assembly against the per-mode sum, at 1e-12 relative."""

    def test_window_and_windowed_coordinate(self, window, windowed_coordinate):
        for f in (window, windowed_coordinate):
            ref = reference_weyl_transform(f, HBAR, 64)
            assert _relative_gap(weyl_transform(f, HBAR, 64), ref) <= 1e-12

    @pytest.mark.parametrize("index", range(len(TRANSFORM_PAIRS)))
    def test_gaussian_pairs_and_products(self, pair_operands, index):
        for n in (32, 64, 128):
            for h in pair_operands[index]:
                ref = reference_weyl_transform(h, HBAR, n)
                mat = weyl_transform(h, HBAR, n, support_tail=1.0)
                assert _relative_gap(mat, ref) <= 1e-12

    def test_complex_input(self, grid, plane_wave_gaussian):
        # plane_wave_gaussian is even in p, so a reflection p -> -p (a sign
        # error in the mode angle) leaves it alone; the second operand, centred
        # off both axes and waving along q + p, is moved by it
        x = grid.axis_coordinates()
        wave = np.exp(0.5j * (x[:, None] + x[None, :]))
        off_axis = GridFunction(grid, GridFunction.gaussian(grid, (0.5, 0.4), 1.0).samples * wave)
        for h in (plane_wave_gaussian, off_axis):
            ref = reference_weyl_transform(h, HBAR, 64)
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

    @pytest.mark.parametrize("n_trunc", (32, 64, 129))
    def test_block_product_matches_the_full_product(self, n_trunc):
        rng = np.random.default_rng(n_trunc)
        shape = (n_trunc, n_trunc)
        s, a, b = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(3))
        block = (3 * n_trunc) // 4
        composed = (a @ b)[:block, :block]
        ref = np.linalg.norm(s[:block, :block] - composed) / np.linalg.norm(composed)
        assert weyl_homomorphism_residual(s, a, b) == pytest.approx(ref, rel=1e-14, abs=0.0)

    def test_exact_for_matching_products(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        a, b = m, m @ m
        assert weyl_homomorphism_residual(b, a, a) <= 1e-12


# the planted faults of the closed form as (unit, orientation): i -> -i, and phi -> -phi
CLOSED_FORM_FAULTS = ((-1j, 1.0), (1j, -1.0))
_CLOSED_FORM_LEVELS = 128  # the largest default truncation; the wt-03 block is 96


@pytest.fixture(scope="module")
def closed_forms(pair_operands):
    """The closed-form leading 128 x 128 blocks of (f, g, f*g) for each wt-03 pair."""
    return [
        [closed_form_block(*closed_form_symbol(h, HBAR, _CLOSED_FORM_LEVELS)) for h in operands]
        for operands in pair_operands
    ]


class TestClosedFormDisplacement:
    """A reference that does not truncate J: the displacement operator in closed form."""

    @pytest.mark.parametrize("k", [(0.9, -0.6), (-3.0, -8.0)])
    def test_closed_form_is_the_matrix_exponential(self, k):
        # expm of i(k1 Q + k2 P) at 400 levels; its edge does not reach the corner
        levels, corner = 400, 12
        q, p = oscillator_position(levels, HBAR), oscillator_momentum(levels, HBAR)
        exact = expm(1j * (k[0] * q + k[1] * p))[:corner, :corner]
        assert np.abs(plane_wave_block(k, HBAR, corner) - exact).max() <= 1e-14
        for unit, orientation in CLOSED_FORM_FAULTS:
            wrong = plane_wave_block(k, HBAR, corner, unit, orientation)
            assert np.abs(wrong - exact).max() >= 0.1

    def test_window_corners_are_the_closed_form(self, window, windowed_coordinate):
        # measured 8.8e-15 (window) and 4.2e-15 (coordinate) at n = 128
        for f in (window, windowed_coordinate):
            block = weyl_transform(f, HBAR, _CLOSED_FORM_LEVELS, corner=10)
            ref = closed_form_block(*closed_form_symbol(f, HBAR, 10))
            assert np.abs(block - ref).max() <= 5e-14

    def test_wt03_operands_are_the_closed_form_on_the_three_quarter_block(
        self, pair_operands, closed_forms
    ):
        # measured relative gaps at n = 128: f and g up to 1.4e-14, f*g 2.8e-12
        # (pair 1) and 4.4e-15 (pair 2); the truncation of J sets them
        block = (3 * _CLOSED_FORM_LEVELS) // 4
        for operands, closed in zip(pair_operands, closed_forms):
            for h, ref, bound in zip(operands, closed, (1e-13, 1e-13, 1e-11)):
                mat = weyl_transform(h, HBAR, _CLOSED_FORM_LEVELS, support_tail=1.0)
                assert _relative_gap(mat[:block, :block], ref[:block, :block]) <= bound

    def test_planted_faults_miss_the_transform(self, pair_operands):
        # g of pair 1 has no mirror symmetry, so phi -> -phi moves it
        g = pair_operands[0][1]
        mat = weyl_transform(g, HBAR, _CLOSED_FORM_LEVELS, support_tail=1.0)[:24, :24]
        for unit, orientation in CLOSED_FORM_FAULTS:
            wrong = closed_form_block(*closed_form_symbol(g, HBAR, 24, orientation), unit)
            assert _relative_gap(mat, wrong) >= 0.1

    @pytest.mark.parametrize("n_trunc", (32, 64, 128))
    def test_intertwining_is_round_off_with_closed_form_elements(self, closed_forms, n_trunc):
        # wt-03's residuals are the edge error of exp(isJ_n): with closed-form
        # elements T(f*g) = T(f) T(g) holds at round-off (measured 5.0e-15 to 1.0e-14)
        for left, right, product in closed_forms:
            cut = slice(0, n_trunc)
            residual = weyl_homomorphism_residual(
                product[cut, cut], left[cut, cut], right[cut, cut]
            )
            assert residual <= 1e-13
