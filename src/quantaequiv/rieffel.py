"""Grid-based deformed products on phase space.

Functions live on a periodic grid over [-L/2, L/2)^2, axes (q, p),
standing in for the phase plane R^2; everything spectral (shifts,
derivatives, deformed products) acts on the trigonometric interpolant, so
band-limited inputs are handled exactly up to round-off.  The deformed
product follows the plane-wave rule

    e^{i k.z} * e^{i l.z} = e^{-i hbar sigma(k,l)/2} e^{i (k+l).z}

with sigma(k,l) = k_q l_p - k_p l_q, the normalization that expands as
f*g = fg + (i hbar/2){f,g} + O(hbar^2) against the grid Poisson bracket.
The twist blocks the plain convolution theorem, but for fixed momentum
frequencies (k_p, l_p) it splits into one factor per operand, so products
are sums of linear q-convolutions over the pruned significant modes, done
by FFT; contributions that would wrap past the Nyquist box are dropped and
accounted by an aliasing detector.

Test functions must decay below a threshold at the domain boundary (the
grid is a torus; the detector keeps wrap-around artifacts out of norms).

A product runs in two stages.  The pair stage holds all that does not
depend on hbar: the guards, the operand spectra, the mode boxes and where
the result lands.  The twist stage makes the product's samples at one
hbar from it.  Stages pass numpy arrays; a GridFunction is built only where
a caller receives one, and it takes the array its kernel made without a
copy.  The classical-limit defects take the whole
schedule: star_defects builds the pair stage of f*g once, then one twist
stage per hbar, and reads the von Neumann and the Dirac defect from each
product; for real operands the reversed product is g*f = conj(f*g), the
involution rule (f*g)^* = g^* * f^*, so convergence_study fits both
slopes from one pass over the schedule.  Bad input is refused before any
twisted FFT.

The quadrature oracle, the independent reference for the grid product,
takes each operand as its pair of per-axis factors (f_q, f_p): the
separability it needs is stated by the caller, not recovered from samples.
On the midpoint nodes its kernel e^{(2i/hbar) u u'} is a Hankel matrix
between two chirps, so each bilinear form is one FFT correlation: no
kernel is ever built.  Its node count grows as 1/hbar, to resolve the chirp.
"""

from dataclasses import dataclass

import numpy as np


# Fixed tolerances.  Only boundary_threshold and support_tail are parameters:
# convergence studies and negative controls waive those guards on purpose.
_PRUNE_THRESHOLD = 1e-14  # modes below this fraction of the peak are dropped
_ALIAS_TOLERANCE = 1e-9  # largest aliased share of the pair mass in a product
_MAX_PHASE = _ALIAS_TOLERANCE * 2.0**53  # largest phase argument of translate
_BOUNDARY_THRESHOLD = 1e-12  # default largest boundary-to-peak magnitude ratio
_SATURATION_FLOOR = 1e-12  # a defect below this leaves no slope to fit
_ORACLE_RADIUS, _ORACLE_MIN_NODES, _ORACLE_MAX_NODES = 9.0, 2048, 2**16  # box; nodes per axis
# Blocks bound the temporaries of the grid kernels.  One block of the
# phase-power table in weyl_transforms (one row per power, built once per
# operand at its corner or largest truncation) is _BLOCK_ENTRIES complex
# entries (1 MiB); it never changes a result.  moyal_product needs no block size:
# its twist stage takes one k_p row per step, l_p x q entries per q-FFT
# array, which stays in cache.  _SYNTHESIS_BLOCK counts grid-by-mode
# entries of 64 bytes in pullback (64 MiB); it sets the order of
# pullback's sums.
_BLOCK_ENTRIES = 2**16
_SYNTHESIS_BLOCK = 2**20
_MAX_WORK = 2**30  # momentum pairs x q-FFT entries; larger products are refused
# entries of weyl_transform's class symbol, classes x (2n - 1), written once
# into one array, and of its cosine and sine tables, ceil(n/2) x classes
# each, counted as n x classes, at the largest truncation whatever the
# corner; more than 2**25 (512 MiB if all complex) are refused
_MAX_TRANSFORM_ENTRIES = 2**25


class GridError(ValueError):
    """Bad grid parameters or incompatible operands."""


class SupportError(GridError):
    """Function mass too close to the periodic boundary."""


class AliasError(GridError):
    """Twisted convolution pushed significant mass past the Nyquist box."""


class TruncationError(GridError):
    """Oscillator truncation too small for the function's phase-space support."""


def _positive(name, value):
    if not 0 < value < np.inf:
        raise GridError("%s must be positive and finite, got %s" % (name, value))
    return value


def _point(name, value):
    point = np.array(value, dtype=float)
    if point.shape != (2,) or not np.all(np.isfinite(point)):
        raise GridError("%s must be a finite phase-space vector, got %s" % (name, value))
    return point


@dataclass(frozen=True)
class Grid2n:
    """The grid over the phase plane; n, the degrees of freedom, is always 1."""

    n: int
    points_per_axis: int
    extent: float

    def __post_init__(self):
        if self.n != 1:
            raise GridError("the grid is the phase plane: n must be 1")
        p = self.points_per_axis
        if p < 32 or (p & (p - 1)) != 0:
            raise GridError("points_per_axis must be a power of two, at least 32")
        _positive("extent", self.extent)

    @property
    def shape(self):
        return (self.points_per_axis,) * 2

    @property
    def spacing(self):
        return self.extent / self.points_per_axis

    @property
    def mode_step(self):
        return 2.0 * np.pi / self.extent

    def axis_coordinates(self):
        return -0.5 * self.extent + self.spacing * np.arange(self.points_per_axis)


def _int_freqs(points):
    return np.fft.fftfreq(points, d=1.0 / points).astype(np.int64)


class GridFunction:
    """Immutable complex samples over one grid."""

    __slots__ = ("grid", "samples")

    def __init__(self, grid, samples):
        # C order: a broadcast sample array is copied into a contiguous one
        self._own(grid, np.array(samples, dtype=np.complex128, order="C"))

    @classmethod
    def _handed(cls, grid, samples):
        """The module's kernels hand over a fresh C-contiguous complex array
        they never touch again: the constructor's checks, and no copy."""
        f = cls.__new__(cls)
        f._own(grid, samples)
        return f

    def _own(self, grid, samples):
        if samples.shape != grid.shape:
            raise GridError("sample shape does not match the grid")
        if not np.all(np.isfinite(samples.view(np.float64))):
            raise GridError("samples must be finite")
        samples.flags.writeable = False
        self.grid = grid
        self.samples = samples

    @classmethod
    def from_callable(cls, grid, fn):
        """fn(q, p) on the two broadcast axes, q a column and p a row.

        fn must work elementwise; its result is broadcast to the grid, so a
        function of one axis stays one axis wide until the samples are made.
        """
        x = grid.axis_coordinates()
        return cls(grid, np.broadcast_to(fn(x[:, None], x[None, :]), grid.shape))

    @classmethod
    def gaussian(cls, grid, center, decay, amplitude=1.0):
        """amplitude * exp(-decay * |z - center|^2), decay > 0 and both finite."""
        center = _point("center", center)
        _positive("decay", decay)
        if not np.isfinite(amplitude):
            raise GridError("amplitude must be a finite number, got %s" % (amplitude,))
        return cls.from_callable(grid, lambda q, p: amplitude * np.exp(
            -float(decay) * ((q - center[0]) ** 2 + (p - center[1]) ** 2)))

    def sup_norm(self):
        return _sup(self.samples)

    def boundary_ratio(self):
        """Largest boundary-face magnitude relative to the global maximum."""
        mags = np.abs(self.samples)
        peak = mags.max()
        if peak == 0.0:
            return 0.0
        worst = max(mags[0].max(), mags[-1].max(), mags[:, 0].max(), mags[:, -1].max())
        return float(worst) / float(peak)


def _sup(samples):
    return float(np.abs(samples).max())


def _require_same_grid(f, g):
    if f.grid != g.grid:
        raise GridError("functions live on different grids")


def _require_interior_support(f, threshold):
    ratio = f.boundary_ratio()
    if ratio > threshold:
        raise SupportError(
            "boundary mass %.3e exceeds the decay threshold %.1e" % (ratio, threshold)
        )


def _flip_origin(modes):
    # the grid starts at -L/2, so mode (i, j) takes (-1)^(i + j): on an even
    # number of points an index has the parity of its frequency
    modes[1::2] *= -1
    modes[:, 1::2] *= -1
    return modes


def _modes(f):
    """f's spectrum, both axis passes written into one fresh array."""
    return _flip_origin(np.fft.fftn(f.samples, norm="forward", out=np.empty_like(f.samples)))


def _from_modes(modes):
    """The samples of a spectrum.  Takes ownership of `modes`: flips it and
    transforms it in place, and returns it."""
    return np.fft.ifftn(_flip_origin(modes), norm="forward", out=modes)


def translate(f, x):
    """Compose with the shift z -> z + x, spectrally (exact group law).

    The largest phase is theta = max(|x_q|, |x_p|) mode_step points / 2; its
    rounding, about theta 2^-53 rad, stays within _ALIAS_TOLERANCE only up
    to theta = _MAX_PHASE, about 9.0e6 rad (|x| up to about 2.2e5 on 256
    points over an extent of 20).  A larger shift is refused, not reduced
    modulo the period.
    """
    grid = f.grid
    shift = _point("shift x", x)
    theta = float(np.abs(shift).max()) * float(grid.mode_step) * (grid.points_per_axis / 2)
    if theta > _MAX_PHASE:
        raise GridError("shift x = %s makes a phase of %s rad, above the limit of %s rad"
                        % (x, theta, _MAX_PHASE))
    freqs = _int_freqs(grid.points_per_axis)
    q_phase, p_phase = (np.exp(1j * grid.mode_step * freqs * c) for c in shift)
    modes = _modes(f)
    modes *= q_phase[:, None]
    modes *= p_phase[None, :]
    return GridFunction._handed(grid, _from_modes(modes))


def _bracket(grid, modes_f, modes_g):
    """The samples of d_q f d_p g, then d_p f d_q g subtracted in place, from
    the operands' spectra, which it consumes: one pair of derivative fields
    alive at a time."""
    k = 1j * grid.mode_step * _int_freqs(grid.points_per_axis).astype(float)
    kq, kp = k[:, None], k[None, :]
    out = _from_modes(modes_f * kq)
    out *= _from_modes(modes_g * kp)
    modes_f *= kp
    modes_g *= kq
    term = _from_modes(modes_f)
    term *= _from_modes(modes_g)
    out -= term
    return out


def poisson_bracket_grid(f, g):
    """Canonical bracket d_q f d_p g - d_p f d_q g, one spectrum per operand."""
    _require_same_grid(f, g)
    return GridFunction._handed(f.grid, _bracket(f.grid, _modes(f), _modes(g)))


def _significant(modes):
    """Signed frequency vectors and values of the modes above _PRUNE_THRESHOLD (relative)."""
    mags = np.abs(modes)
    mask = mags > mags.max() * _PRUNE_THRESHOLD
    freqs = _int_freqs(modes.shape[0])
    return np.stack([freqs[ix] for ix in np.nonzero(mask)], axis=1), modes[mask]


def _fft_length(n):
    """Smallest 2**a 3**b 5**c at least n: a length numpy's FFT does fast."""
    r = range(int(n).bit_length() + 1)
    return min(m for m in (2**a * 3**b * 5**c for a in r for b in r for c in r) if m >= n)


def _mode_box(vecs, values, lo, size):
    """The modes on the signed frequency box from lo, zero where none is given."""
    box = np.zeros(tuple(size), dtype=np.complex128)
    box[tuple((vecs - lo).T)] = values
    return box


def _twist(momenta, lo, size, scale):
    """e^{i scale m q} for each momentum m (rows) and each q in lo .. lo + size - 1."""
    return np.exp(1j * scale * np.outer(momenta, np.arange(lo, lo + size)))


@dataclass(frozen=True, eq=False)
class _Pair:
    """What f*g needs at any hbar: the pair stage of moyal_product.

    frows and grows are the operands' significant-mode boxes as (momentum
    row, q) arrays, from the low corners flo and glo; q_entries is the
    q-FFT length, and the result frequencies in `keep` land at `index` of
    the output.  frows is None when an operand has no significant mode.
    """

    grid: Grid2n
    frows: np.ndarray = None
    grows: np.ndarray = None
    flo: np.ndarray = None
    glo: np.ndarray = None
    q_entries: int = 0
    keep: tuple = None
    index: tuple = None


def _require_pair(f, g, boundary_threshold):
    _require_same_grid(f, g)
    _require_interior_support(f, boundary_threshold)
    _require_interior_support(g, boundary_threshold)


def _pair_stage(grid, significant_f, significant_g):
    """Everything of f*g that does not depend on hbar, from the operands'
    significant modes; the support guards (_require_pair) come first.

    The mode boxes, the work guard and the alias guard: a pair weighs
    |F_k||G_l| whatever hbar, so the aliased share (pairs leaving the
    Nyquist box) is the out-of-box part of |F| * |G|.  Work above _MAX_WORK
    (momentum pairs x q-FFT entries) is refused before any box is built.
    """
    p = grid.points_per_axis
    (fvec, fval), (gvec, gval) = significant_f, significant_g
    if len(fval) == 0 or len(gval) == 0:
        return _Pair(grid)
    # boxes are indexed (q, p): entry 0 of each vector is q, entry 1 is p
    flo, glo = fvec.min(axis=0), gvec.min(axis=0)
    fsize, gsize = fvec.max(axis=0) - flo + 1, gvec.max(axis=0) - glo + 1
    span = fsize + gsize - 1  # linear convolution length per axis
    fft_shape = tuple(_fft_length(s) for s in span)
    fmomenta, gmomenta, q_entries = int(fsize[1]), int(gsize[1]), fft_shape[0]
    if fmomenta * gmomenta * q_entries > _MAX_WORK:
        raise GridError(
            "%d x %d momentum frequencies times %d q-FFT entries make %d, above the limit of %d"
            % (fmomenta, gmomenta, q_entries, fmomenta * gmomenta * q_entries, _MAX_WORK)
        )
    fbox, gbox = _mode_box(fvec, fval, flo, fsize), _mode_box(gvec, gval, glo, gsize)

    # result frequency lo + i lies inside the Nyquist box for i in keep
    lo = flo + glo
    keep = tuple(slice(max(0, -p // 2 - a), max(0, min(s, p // 2 - a))) for a, s in zip(lo, span))
    fmass, gmass = (np.fft.rfftn(np.abs(box), fft_shape, (0, 1)) for box in (fbox, gbox))
    inside = np.fft.irfftn(fmass * gmass, fft_shape, (0, 1))[keep].sum()
    aliased = 1.0 - float(inside) / (float(np.abs(fval).sum()) * float(np.abs(gval).sum()))
    if aliased > _ALIAS_TOLERANCE:
        raise AliasError(
            "aliased mass ratio %.3e exceeds %.1e; refine the grid or widen the domain"
            % (aliased, _ALIAS_TOLERANCE)
        )
    index = np.ix_(*[np.arange(a + k.start, a + k.stop) % p for a, k in zip(lo, keep)])
    return _Pair(grid, fbox.T, gbox.T, flo, glo, q_entries, keep, index)


def _twist_stage(pair, hbar):
    """Samples of f*g at one hbar from its pair stage: twist factors, q-FFTs, inverse FFT.

    Each step takes one k_p row: its l_p x q twisted products go through
    the q-FFTs together and enter the m_p sums k .. k + l_p - 1, in row
    order.  One row's arrays stay in cache however large the operands.
    """
    grid = pair.grid
    out = np.zeros(grid.shape, dtype=np.complex128)
    if pair.frows is None:
        return out
    (fmomenta, fq), (gmomenta, gq) = pair.frows.shape, pair.grows.shape
    flo, glo, q_entries = pair.flo, pair.glo, pair.q_entries
    scale = 0.5 * hbar * grid.mode_step**2
    ftwist = _twist(glo[1] + np.arange(gmomenta), flo[0], fq, -scale)
    gtwist = _twist(flo[1] + np.arange(fmomenta), glo[0], gq, scale)
    acc = np.zeros((fmomenta + gmomenta - 1, q_entries), dtype=np.complex128)
    for k, frow in enumerate(pair.frows):
        terms = np.fft.fft(frow * ftwist, q_entries)
        terms *= np.fft.fft(pair.grows * gtwist[k], q_entries)
        acc[k : k + gmomenta] += terms
    acc = np.fft.ifft(acc, out=acc)[:, : fq + gq - 1]
    out[pair.index] = acc.T[pair.keep]
    return _from_modes(out)


def moyal_product(f, g, hbar, boundary_threshold=_BOUNDARY_THRESHOLD):
    """Deformed product as q-convolutions, one per pair of momentum frequencies.

    sigma(k, l) = k_q l_p - k_p l_q, so for fixed (k_p, l_p) the twist
    e^{-ic sigma}, c = hbar dk^2 / 2, is e^{-ic k_q l_p} e^{+ic k_p l_q}, one
    factor per operand: the pairs sum to one zero-padded FFT convolution
    along q of two twisted columns of the significant-mode boxes, and the
    terms sharing m_p = k_p + l_p add up before one inverse FFT.  The pair
    stage (guards, spectra, then _pair_stage: boxes) does not depend on
    hbar; the twist stage (_twist_stage) does the rest.
    """
    if hbar != 0:  # hbar = 0 is the pointwise product
        _positive("nonzero hbar", hbar)
    _require_pair(f, g, boundary_threshold)
    pair = _pair_stage(f.grid, _significant(_modes(f)), _significant(_modes(g)))
    return GridFunction._handed(f.grid, _twist_stage(pair, hbar))


def star_defects(f, g, schedule):
    """Von Neumann and Dirac defects at each schedule entry, from one f*g each.

    Returns one (von Neumann, Dirac) pair per entry: sup |f*g - fg| and
    sup |(f*g - g*f)/(i hbar) - {f, g}|.  Everything that does not depend on
    hbar is made once for the schedule, from one spectrum per operand: the
    pair stage of f*g, then {f, g}, which consumes the spectra, then fg.
    The product respects the involution, (f*g)^* = g^* * f^*, so when the
    samples of both operands are real g*f is conj(f*g); complex operands
    get a pair stage of their own for g*f, from the same spectra.  Every
    refusal (an entry not positive and finite, a support, work or alias guard)
    comes before any twisted FFT; then the products are made one entry at
    a time, as sample arrays, and each entry's two arrays take its
    differences in place: no GridFunction is built.
    """
    schedule = tuple(_positive("schedule entry", hbar) for hbar in schedule)
    _require_pair(f, g, _BOUNDARY_THRESHOLD)
    grid, modes_f, modes_g = f.grid, _modes(f), _modes(g)
    significant_f, significant_g = _significant(modes_f), _significant(modes_g)
    forward = _pair_stage(grid, significant_f, significant_g)
    backward = None
    if f.samples.imag.any() or g.samples.imag.any():
        backward = _pair_stage(grid, significant_g, significant_f)
    bracket = _bracket(grid, modes_f, modes_g)
    del modes_f, modes_g  # consumed by the bracket; freed before any product is made
    pointwise = f.samples * g.samples
    defects = []
    for hbar in schedule:
        product = _twist_stage(forward, hbar)
        reverse = np.conj(product) if backward is None else _twist_stage(backward, hbar)
        np.subtract(product, reverse, out=reverse)
        reverse *= 1.0 / (1j * hbar)
        reverse -= bracket
        product -= pointwise
        defects.append((_sup(product), _sup(reverse)))
        del product, reverse  # freed before the next entry's product is made
    return defects


# --- affine symplectic morphisms ---------------------------------------------


class AffineSymplecticMap:
    """z -> A z + b with A invertible; symplecticity is not required.

    Keeping non-symplectic maps constructible is deliberate: the morphism
    defect measurements use them as negative controls.
    """

    __slots__ = ("linear", "offset")

    def __init__(self, linear, offset=None):
        linear = np.array(linear, dtype=float)
        if linear.shape != (2, 2):
            raise GridError("linear part must be a 2 x 2 matrix on the phase plane")
        (a, b), (c, d) = linear.tolist()
        if not 1e-12 <= abs(a * d - b * c) < np.inf:  # a non-finite entry makes it nan or inf
            raise GridError("linear part must be finite and invertible")
        offset = _point("offset", (0.0, 0.0) if offset is None else offset)
        linear.flags.writeable = False
        offset.flags.writeable = False
        self.linear = linear
        self.offset = offset

    @classmethod
    def rotation(cls, angle):
        c, s = np.cos(angle), np.sin(angle)
        return cls(np.array([[c, -s], [s, c]]))

    @classmethod
    def shear(cls, amount, upper=True):
        return cls([[1.0, amount], [0.0, 1.0]] if upper else [[1.0, 0.0], [amount, 1.0]])


def pullback(f, phi, boundary_threshold=_BOUNDARY_THRESHOLD):
    """Composition with an affine map via exact trigonometric synthesis.

    f(Az + b) = sum_k F_k e^{i k.b} e^{i (A^T k).z}, evaluated as a
    product of the q-factors and the p-factors of the modes over the grid
    axes.  The result must keep its mass interior, otherwise the support
    escaped the domain.  A zero f takes the same path: it has no
    significant mode, so no block runs and the image is zero.
    """
    _require_interior_support(f, boundary_threshold)
    grid = f.grid
    fvec, fval = _significant(_modes(f))
    kvec = fvec.astype(float) * grid.mode_step
    alpha = kvec @ phi.linear
    coeff = fval * np.exp(1j * (kvec @ phi.offset))
    x = grid.axis_coordinates()
    result = np.zeros(grid.shape, dtype=np.complex128)
    chunk = max(1, _SYNTHESIS_BLOCK // grid.points_per_axis)
    for start in range(0, len(coeff), chunk):
        block = slice(start, start + chunk)
        left = np.exp(1j * np.outer(x, alpha[block, 0]))
        right = np.exp(1j * np.outer(x, alpha[block, 1]))
        result += (left * coeff[block][None, :]) @ right.T
    out = GridFunction._handed(grid, result)
    _require_interior_support(out, boundary_threshold)
    return out


def _relative(gap, scale):
    # gap / scale, or the absolute gap when scale is 0
    return gap if scale == 0.0 else gap / scale


def morphism_star_defect(phi, f, g, hbar, star, boundary_threshold=_BOUNDARY_THRESHOLD):
    """Relative sup defect of pullback against the deformed product.

    Small for symplectic affine maps (the product only sees the form),
    large for maps that change the form: the direct numerical shadow of
    quantized-morphism multiplicativity.  Rotated off-center functions keep
    a little periodic leakage near the boundary, so callers measuring at
    coarse tolerances may relax boundary_threshold accordingly.

    star is moyal_product(f, g, hbar), which a caller comparing several maps
    makes once; pullback guards f and g at boundary_threshold.
    """
    star_then_pull = pullback(star, phi, boundary_threshold)
    pull_then_star = moyal_product(
        pullback(f, phi, boundary_threshold),
        pullback(g, phi, boundary_threshold),
        hbar,
        boundary_threshold,
    )
    return _relative(
        _sup(pull_then_star.samples - star_then_pull.samples), star_then_pull.sup_norm()
    )


def equivariance_defect(phi, f, direction, boundary_threshold=_BOUNDARY_THRESHOLD):
    """Relative sup defect of pullback(translate(f, A X)) vs translate(pullback(f), X)."""
    direction = _point("direction", direction)
    lhs = pullback(translate(f, phi.linear @ direction), phi, boundary_threshold)
    rhs = translate(pullback(f, phi, boundary_threshold), direction)
    return _relative(_sup(lhs.samples - rhs.samples), f.sup_norm())


# --- oscillator-basis transform ----------------------------------------------


def oscillator_position(n_trunc, hbar):
    """Q on the first n_trunc oscillator levels (an int, at least 1), hbar > 0 finite."""
    if isinstance(n_trunc, bool) or not isinstance(n_trunc, (int, np.integer)) or n_trunc < 1:
        raise GridError("n_trunc must be an int of at least 1, got %s" % (n_trunc,))
    _positive("hbar", hbar)
    off = np.sqrt(0.5 * hbar * np.arange(1, n_trunc))
    return (np.diag(off, 1) + np.diag(off, -1)).astype(np.complex128)


def _powers(z, count):
    """Rows z**0 .. z**(count - 1), by doubling: log2(count) products deep."""
    out = np.empty((count, len(z)), dtype=np.complex128)
    out[0] = 1.0
    done = 1
    while done < count:
        step = min(done, count - done)
        out[done : done + step] = out[:step] * (out[done - 1] * z)
        done += step
    return out


def _class_symbols(members, phi, fval, n_trunc):
    """Rows T[c, d] = sum_{k in class c} F_k e^{i phi_k d}, d = -(n-1) .. n-1.

    members[k] is the class of mode k.  Classes of one size m share a
    (classes, m) table of their modes in mode order, whose powers are one
    (n, classes, m) table stored by power; one einsum per half then sums
    each class, in blocks of at most _BLOCK_ENTRIES powers.  Column d of T
    takes the same products at every n_trunc above |d|, so the middle
    2n - 1 columns of T at a larger truncation are T at n, bit for bit.
    """
    # Column n - 1 + d holds T[c, d]: for d >= 0 the class sums of F_k z_k^d,
    # z_k = e^{i phi_k}, and for d < 0 the conjugates of those of conj(F_k) z_k^-d.
    sizes = np.bincount(members)
    order = np.argsort(members, kind="stable")
    starts = np.cumsum(sizes) - sizes
    z = np.exp(1j * phi)
    symbol = np.empty((len(sizes), 2 * n_trunc - 1), dtype=np.complex128)
    # the distinct sizes, ascending; np.unique would import numpy.ma on first use
    for m in np.flatnonzero(np.bincount(sizes)):
        same = np.nonzero(sizes == m)[0]
        table = order[starts[same][:, None] + np.arange(m)]
        rows = max(1, _BLOCK_ENTRIES // (m * n_trunc))
        for start in range(0, len(same), rows):
            c, modes = same[start : start + rows], table[start : start + rows]
            powers = _powers(z[modes.ravel()], n_trunc).reshape(n_trunc, len(c), m)
            symbol[c, n_trunc - 1 :] = np.einsum("cm,dcm->cd", fval[modes], powers)
            negative = np.einsum("cm,dcm->cd", fval[modes].conj(), powers)
            symbol[c, : n_trunc - 1] = negative[:, :0:-1].conj()
    return symbol


def _half_spectrum_symbols(lam, s, symbol):
    """G summed over each pair +-lam of eigenvalues, as a (2b - 1, ceil(n/2)) array.

    The symbol holds the offsets d = -(b-1) .. b-1 of the leading b x b
    block, b <= n = len(lam), so column j is the offset j - (b - 1) and its
    parity comes from the symbol's width, not from n.  J couples only
    neighbouring levels, so its eigenvalues come in pairs +-lam and the
    partner of column m of W is (-1)^a W[a, m]: the products
    W[a, m] W[a', m] of a pair differ by (-1)^d, d = a - a'.  Row d, column m
    of the result is
    sum_c (e^{i s_c lam_m} + (-1)^d e^{-i s_c lam_m}) T[c, d] over the
    non-negative lam_m = lam[n // 2 + m]: 2 cos(s_c lam_m) on even offsets
    and 2i sin(s_c lam_m) on odd ones.  For odd n the first of them is the
    zero mode, its own partner, which counts once.  The four real
    contractions run in numpy's own einsum loops, not BLAS, so the bits do
    not depend on any thread count, and each row is the same sum at any b.
    """
    n_trunc = len(lam)
    corner = (symbol.shape[1] + 1) // 2
    phase = np.multiply.outer(lam[n_trunc // 2 :], s)
    cos, sin = 2.0 * np.cos(phase), 2.0 * np.sin(phase)
    if n_trunc % 2:
        cos[0] *= 0.5
    even, odd = slice((corner - 1) % 2, None, 2), slice(corner % 2, None, 2)
    by_offset = symbol.T

    def contract(table, part):
        return np.einsum("mc,dc->dm", table, np.ascontiguousarray(part))

    g = np.empty((2 * corner - 1, len(phase)), dtype=np.complex128)
    g.real[even] = contract(cos, by_offset[even].real)
    g.imag[even] = contract(cos, by_offset[even].imag)
    g.real[odd] = -contract(sin, by_offset[odd].imag)
    g.imag[odd] = contract(sin, by_offset[odd].real)
    return g


def _jacobi_eigenpairs(n_trunc):
    """Eigenvalues and eigenvectors of the Jacobi matrix J."""
    off = np.sqrt(np.arange(1.0, n_trunc))
    return np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))


def _assemble(lam, w, s, symbol):
    """The leading b x b block of the n x n transform, in one einsum:
    total[a, b'] = sum_m W[a, m] W[b', m] G[b - 1 + a - b', m].

    n = len(lam) sets J's eigenpairs; the symbol's 2b - 1 offsets set b.
    Only the eigenvectors of the non-negative eigenvalues enter, and each
    stands for its pair (_half_spectrum_symbols); only their first b rows
    meet the block.  b = n is the whole transform.  Row b - 1 + d of G is
    the offset d = a - b', read through the strided Toeplitz view
    toeplitz[a, m, b'] = G[b - 1 + a - b', m], which copies nothing.
    """
    n_trunc = len(lam)
    corner = (symbol.shape[1] + 1) // 2
    g = _half_spectrum_symbols(lam, s, symbol)
    w = w[:corner, n_trunc // 2 :]
    toeplitz = np.lib.stride_tricks.sliding_window_view(g, corner, axis=0)[:, :, ::-1]
    return np.einsum("am,bm,amb->ab", w, w, toeplitz)


def weyl_transforms(functions, hbar, truncations, support_tail=1e-3, corner=None):
    """An iterator over truncations, in order, of
    [weyl_transform(f, hbar, n, corner=corner) for f in functions].

    The call reads `truncations` once and runs every guard of every function
    before any symbol is built: the corner's range, the support guard, the
    tail detector at the smallest truncation (the tail shrinks as n grows)
    and the size guard at the largest (the symbol grows with n).  Then it
    makes one operand stage per function: its significant modes, their
    |k|^2 classes and angles, and one class symbol 2b - 1 offsets wide, b
    the corner or else the largest truncation.  Per n the iterator
    decomposes J once and assembles each block from the middle 2b - 1
    columns of its function's symbol (bit for bit the symbol built at b),
    so one n's transforms are held at a time.
    """
    truncations = tuple(truncations)
    if not truncations:
        raise GridError("at least one truncation is needed")
    low, top = min(truncations), max(truncations)
    if low < 16:
        raise GridError("truncation size must be at least 16")
    if corner is not None and (
        isinstance(corner, bool) or not isinstance(corner, (int, np.integer))
        or not 1 <= corner <= low
    ):
        raise GridError("corner must be an int from 1 to the smallest truncation, %d" % low)
    _positive("hbar", hbar)
    spectra = []
    for f in functions:
        _require_interior_support(f, _BOUNDARY_THRESHOLD)
        mvec, fval = _significant(_modes(f))
        # trace of |f|^2 beyond the turning radius of the top basis state at n = low
        mass = np.abs(f.samples) ** 2
        total_mass = float(mass.sum())
        if total_mass > 0.0:
            x = f.grid.axis_coordinates()
            reach = np.sqrt(hbar * (2.0 * low - 1.0))
            tail = float(mass[x[:, None] ** 2 + x[None, :] ** 2 > reach**2].sum()) / total_mass
            if tail > support_tail:
                raise TruncationError(
                    "phase-space mass fraction %.3e beyond the truncation reach %.3f; "
                    "increase the truncation" % (tail, reach)
                )
        keys, members = np.unique(mvec[:, 0] ** 2 + mvec[:, 1] ** 2, return_inverse=True)
        entries = len(keys) * (3 * top - 1)
        if entries > _MAX_TRANSFORM_ENTRIES:
            raise GridError(
                "%d |k|^2 classes at truncation %d make %d symbol and phase entries, "
                "above the limit of %d" % (len(keys), top, entries, _MAX_TRANSFORM_ENTRIES)
            )
        s = f.grid.mode_step * np.sqrt(0.5 * hbar * keys)
        spectra.append((s, members, np.arctan2(mvec[:, 1], mvec[:, 0]), fval))
    width = top if corner is None else corner
    stages = [(s, _class_symbols(members, phi, fval, width)) for s, members, phi, fval in spectra]

    def at(n):
        b = n if corner is None else corner
        lam, w = _jacobi_eigenpairs(n)
        return [_assemble(lam, w, s, symbol[:, width - b : width + b - 1]) for s, symbol in stages]

    return map(at, truncations)


def weyl_transform(f, hbar, n_trunc, support_tail=1e-3, corner=None):
    """The n_trunc x n_trunc complex matrix of f in the oscillator basis, or
    its leading corner x corner block.

    Builds sum_k F_k exp(i(k1 Q + k2 P)) over significant modes.  Before
    assembling, a trace-residual detector integrates |f|^2 outside the
    classical reach of the highest retained basis state; a tail fraction
    above support_tail means the truncation cannot hold the function's
    phase-space support.  Pass support_tail >= 1 to measure deliberately
    under-resolved truncations (convergence studies).  This is the
    one-function, one-truncation case of weyl_transforms.

    Assembly rests on three exact facts.  First, k1 Q + k2 P is unitarily
    similar to |k| sqrt(hbar/2) J, with J the real Jacobi matrix of
    off-diagonal sqrt(j) and the similarity U = diag(e^{i phi a}), phi the
    angle of k.  One eigendecomposition J = W diag(lam) W^T per truncation
    serves every mode:
        exp(i(k1 Q + k2 P))[a, b]
            = e^{i phi (a-b)} sum_m W[a, m] W[b, m] e^{i s lam_m},
    s = |k| sqrt(hbar/2).  Second, inside one |k|^2 class c only the phase
    e^{i phi (a-b)} still depends on the mode, so the class enters as one
    Toeplitz symbol T[c, d] = sum_{k in c} F_k e^{i phi_k d},
    d = a - b = -(n-1) .. n-1, and
        total[a, b] = sum_m W[a, m] W[b, m] G[m, a-b],
        G[m, d] = sum_c e^{i s_c lam_m} T[c, d].
    Per mode that is n powers of e^{i phi_k} (the offsets d < 0 are their
    conjugates) instead of an n x n update.  Third, J's spectrum is
    symmetric, so only its ceil(n/2) non-negative eigenvalues enter
    (_half_spectrum_symbols).  The class k = 0 gives F_0 I with no branch
    of its own.  A function with too many classes
    for n_trunc, above _MAX_TRANSFORM_ENTRIES, is refused with GridError
    before any symbol is built.

    corner=b, an int from 1 to n_trunc, builds only the leading b x b block:
    the symbol's 2b - 1 offsets |d| < b against the same eigenpairs of J at
    n_trunc, and the first b rows of W.  Each entry is the same sum as in
    the whole transform, so the block is bit for bit
    weyl_transform(f, hbar, n_trunc)[:b, :b], and every guard still reads
    n_trunc.  corner=None is b = n_trunc.
    """
    return next(weyl_transforms([f], hbar, [n_trunc], support_tail, corner))[0]


def weyl_homomorphism_residual(product_matrix, left_matrix, right_matrix):
    """Frobenius residual of the transform against the operator product.

    Compared on the leading three quarters of the dimension: rows within
    ~|k|sqrt(hbar N) of the truncation edge never converge entrywise, so
    the intertwining statement is a statement about the interior.  On that
    block the residual is the edge-band overlap, which shrinks steadily as
    the truncation grows.
    """
    if not (product_matrix.shape == left_matrix.shape == right_matrix.shape):
        raise GridError("matrices must share one truncation size")
    block = (3 * product_matrix.shape[0]) // 4
    composed = left_matrix[:block] @ right_matrix[:, :block]
    defect = product_matrix[:block, :block] - composed
    return float(_relative(np.linalg.norm(defect), np.linalg.norm(composed)))


# --- quadrature oracle and closed form ---------------------------------------


def _oracle_nodes(hbar):
    """The least power of two >= max(2048, 4 R^2 / (pi hbar)): the step is then at most
    pi hbar / (2R), the Nyquist step of the chirp e^{-i u^2/hbar} at u = +-R."""
    need = 4.0 * _ORACLE_RADIUS**2 / (np.pi * hbar)
    if need > _ORACLE_MAX_NODES:
        raise GridError(
            "the oracle needs %.3g nodes per axis at hbar = %g, above the limit of %d"
            % (need, hbar, _ORACLE_MAX_NODES)
        )
    nodes = _ORACLE_MIN_NODES
    while nodes < need:
        nodes *= 2
    return nodes


def moyal_quadrature_oracle(f_factors, g_factors, hbar, points):
    """Direct oscillatory-integral evaluation of the deformed product.

    (f*g)(z) = (pi hbar)^{-2} iint f(z+u) g(z+v) e^{(2i/hbar) sigma(u,v)} du dv
    over u, v in R^2, with sigma(u,v) = u1 v2 - u2 v1.  Each operand is a
    pair of 1-D callables (f_q, f_p) with f(x, p) = f_q(x) f_p(p), and
    points is a non-empty finite (k, 2) array.  The phase splits per axis
    pair, so the quadruple integral is a product of two double integrals
    over (u1,v2) and (u2,v1); each is done on a uniform midpoint grid over
    [-_ORACLE_RADIUS, _ORACLE_RADIUS] of N = _oracle_nodes(hbar) points per
    axis, and each factor is sampled once per point, on the nodes z + u.

    Each double integral is a bilinear form x @ K @ y with the kernel
    K_jk = e^{i a u_j u_k}, a = 2/hbar.  Here u_j u_k =
    ((u_j + u_k)^2 - u_j^2 - u_k^2) / 2, and on the nodes
    u_j = -R + s (j + 1/2) (R = _ORACLE_RADIUS, s the node step) the sum
    u_j + u_k = -2R + s (j + k + 1) depends on j + k only.  So
    x @ K @ y = sum_m h_m c_m, where c is the linear convolution of
    x e^{-i a u^2/2} with y e^{-i a u^2/2} and
    h_m = e^{i a (-2R + s (m + 1))^2 / 2}.  Each convolution is one
    zero-padded FFT of length 2N per operand, and the sum over
    m is taken against the inverse transform of h by numpy's pairwise sum,
    whose bits do not depend on the BLAS thread count.  Independent of
    every grid code path: it is quadrature, not a grid spectrum.
    """
    _positive("hbar", hbar)
    try:
        points = np.asarray(points, dtype=float)
    except (TypeError, ValueError):  # ragged or not numbers
        points = np.empty(0)
    if points.shape[1:] != (2,) or not len(points) or not np.isfinite(points).all():
        raise GridError("oracle points must be a non-empty finite (k, 2) array")
    (f_q, f_p), (g_q, g_p) = f_factors, g_factors
    nodes = _oracle_nodes(hbar)
    step = 2.0 * _ORACLE_RADIUS / nodes
    u = -_ORACLE_RADIUS + step * (np.arange(nodes) + 0.5)
    # u_j + u_k for j + k = 0 .. 2N - 2
    pair_sums = -2.0 * _ORACLE_RADIUS + step * (np.arange(2 * nodes - 1) + 1.0)
    # a u^2 / 2 = u^2 / hbar; the chirp carries the node weight
    chirp = step * np.exp(-1j * (u * u / hbar))
    # sum_m h_m c_m = sum_k C_k ifft(h)_k over the length-2N spectrum C of c
    h_hat = np.fft.ifft(np.exp(1j * (pair_sums * pair_sums / hbar)), 2 * nodes)
    forms = np.empty((len(points), 2), dtype=np.complex128)
    for i, z in enumerate(points):
        samples = []
        for factor, origin in ((f_q, z[0]), (f_p, z[1]), (g_q, z[0]), (g_p, z[1])):
            values = np.asarray(factor(origin + u))
            if values.shape != u.shape or not np.all(np.isfinite(values)):
                raise GridError("oracle factors must give finite samples, one per node")
            samples.append(values)
        fa, fb, ga, gb = samples
        # x @ conj(K) @ y is conj(conj(x) @ K @ conj(y)): both pairs share h
        spectra = np.fft.fft(chirp * np.array([fa, gb, np.conj(fb), np.conj(ga)]), 2 * nodes)
        forms[i] = np.sum(spectra[::2] * spectra[1::2] * h_hat, axis=1)
    return forms[:, 0] * np.conj(forms[:, 1]) / (np.pi * hbar) ** 2


def gaussian_star_closed_form(decay_a, decay_b, hbar):
    """The deformed product of centered radial Gaussians.

    exp(-a|z|^2) * exp(-b|z|^2)
        = (1 + a b hbar^2)^{-1} exp(-(a+b)|z|^2 / (1 + a b hbar^2)).
    Returns (prefactor, effective_decay).
    """
    denom = 1.0 + decay_a * decay_b * hbar * hbar
    return 1.0 / denom, (decay_a + decay_b) / denom


# --- schedules and convergence tables ----------------------------------------


def loglog_fit(hs, ds):
    """Least-squares line through (log h, log d): (slope, rms residual)."""
    logh = np.log(np.asarray(hs, dtype=float))
    logd = np.log(np.asarray(ds, dtype=float))
    design = np.stack([logh, np.ones_like(logh)], axis=1)
    coef, *_ = np.linalg.lstsq(design, logd, rcond=None)
    residual = float(np.sqrt(np.mean((logd - design @ coef) ** 2)))
    return float(coef[0]), residual


def convergence_study(defect_fn, f, g, schedule):
    """Defect tables along a decreasing schedule with log-log slope fits.

    The schedule is read once.  Once it is checked, defect_fn(f, g, schedule)
    gets its entries as they are (an exact Fraction stays a Fraction) and
    returns the defects per entry: one sequence each, all of one length.
    Each position of those sequences gives one table, in their order: rows
    of (float(h), defect), the slope and rms residual of the log-log fit,
    and `saturated`, set (with no fit) when a defect falls below the
    saturation floor.
    """
    schedule = tuple(schedule)
    hs = [float(h) for h in schedule]
    if len(hs) < 4:
        raise GridError("schedule needs at least 4 points")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise GridError("schedule must be strictly decreasing")
    defects = [[float(d) for d in row] for row in defect_fn(f, g, schedule)]
    return [_slope_table(list(zip(hs, column))) for column in zip(*defects)]


def _slope_table(rows):
    if any(d < _SATURATION_FLOOR for _, d in rows):
        return {"rows": rows, "slope": None, "residual": None, "saturated": True}
    slope, residual = loglog_fit(*zip(*rows))
    return {"rows": rows, "slope": slope, "residual": residual, "saturated": False}
