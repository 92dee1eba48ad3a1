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

The classical-limit defects take one f*g per (pair, hbar): star_defects
reads the von Neumann and the Dirac defect from it, and for real operands
the reversed product is g*f = conj(f*g), the involution rule
(f*g)^* = g^* * f^*, so convergence_study fits both slopes from one pass
over the schedule.

The quadrature oracle, the independent reference for the grid product,
takes each operand as its pair of per-axis factors (f_q, f_p): the
separability it needs is stated by the caller, not recovered from samples.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


# Fixed tolerances.  Only boundary_threshold and support_tail are parameters:
# convergence studies and negative controls waive those guards on purpose.
_PRUNE_THRESHOLD = 1e-14  # modes below this fraction of the peak are dropped
_ALIAS_TOLERANCE = 1e-9  # largest aliased share of the pair mass in a product
_BOUNDARY_THRESHOLD = 1e-12  # default largest boundary-to-peak magnitude ratio
_SATURATION_FLOOR = 1e-12  # a defect below this leaves no slope to fit
_ORACLE_RADIUS, _ORACLE_NODES = 9.0, 2048  # quadrature box and nodes per axis
# Blocks bound the temporaries of the grid kernels: complex entries per
# q-FFT array in moyal_product (8 MiB each, two live per block) and 64
# bytes per grid-by-mode entry in pullback (64 MiB).  The momentum block
# never changes a result; the synthesis block sets the order of pullback's
# sums.
_MOMENTUM_BLOCK = 2**19
_SYNTHESIS_BLOCK = 2**20
_MAX_WORK = 2**30  # momentum pairs x q-FFT entries; larger products are refused


class GridError(ValueError):
    """Bad grid parameters or incompatible operands."""


class SupportError(GridError):
    """Function mass too close to the periodic boundary."""


class AliasError(GridError):
    """Twisted convolution pushed significant mass past the Nyquist box."""


class TruncationError(GridError):
    """Oscillator truncation too small for the function's phase-space support."""


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
        if not (self.extent > 0):
            raise GridError("extent must be positive")

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
        p = self.points_per_axis
        return -0.5 * self.extent + self.spacing * np.arange(p)

    def coordinate_mesh(self):
        x = self.axis_coordinates()
        return np.meshgrid(x, x, indexing="ij")


@lru_cache(maxsize=32)
def _int_freqs(points):
    return np.fft.fftfreq(points, d=1.0 / points).astype(np.int64)


@lru_cache(maxsize=32)
def _parity(points):
    # grid origin sits at -L/2, which shows up as a (-1)^m factor per axis
    sign = (-1.0) ** (_int_freqs(points) & 1)
    return np.multiply.outer(sign, sign)


class GridFunction:
    """Immutable complex samples over one grid."""

    __slots__ = ("grid", "samples")

    def __init__(self, grid, samples):
        samples = np.asarray(samples, dtype=np.complex128)
        if samples.shape != grid.shape:
            raise GridError("sample shape does not match the grid")
        if not np.all(np.isfinite(samples.view(np.float64))):
            raise GridError("samples must be finite")
        samples = samples.copy()
        samples.flags.writeable = False
        self.grid = grid
        self.samples = samples

    @classmethod
    def from_callable(cls, grid, fn):
        return cls(grid, fn(*grid.coordinate_mesh()))

    @classmethod
    def gaussian(cls, grid, center, decay, amplitude=1.0):
        """amplitude * exp(-decay * |z - center|^2)."""
        center = np.asarray(center, dtype=float)
        if center.shape != (2,):
            raise GridError("center must be a phase-space point")
        mesh = grid.coordinate_mesh()
        r2 = sum((m - c) ** 2 for m, c in zip(mesh, center))
        return cls(grid, amplitude * np.exp(-float(decay) * r2))

    def __sub__(self, other):
        _require_same_grid(self, other)
        return GridFunction(self.grid, self.samples - other.samples)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            _require_same_grid(self, other)
            return GridFunction(self.grid, self.samples * other.samples)
        return GridFunction(self.grid, self.samples * complex(other))

    __rmul__ = __mul__

    def conjugate(self):
        return GridFunction(self.grid, np.conj(self.samples))

    def sup_norm(self):
        return float(np.abs(self.samples).max())

    def boundary_ratio(self):
        """Largest boundary-face magnitude relative to the global maximum."""
        mags = np.abs(self.samples)
        peak = mags.max()
        if peak == 0.0:
            return 0.0
        worst = max(mags[0].max(), mags[-1].max(), mags[:, 0].max(), mags[:, -1].max())
        return float(worst) / float(peak)


def _require_same_grid(f, g):
    if f.grid != g.grid:
        raise GridError("functions live on different grids")


def _require_interior_support(f, threshold):
    ratio = f.boundary_ratio()
    if ratio > threshold:
        raise SupportError(
            "boundary mass %.3e exceeds the decay threshold %.1e" % (ratio, threshold)
        )


def _modes(f):
    p = f.grid.points_per_axis
    return np.fft.fftn(f.samples) * _parity(p) / p**2


def _from_modes(grid, modes):
    p = grid.points_per_axis
    return np.fft.ifftn(modes * _parity(p)) * p**2


def translate(f, x):
    """Compose with the shift z -> z + x, spectrally (exact group law)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise GridError("shift must be a phase-space vector")
    freqs = _int_freqs(f.grid.points_per_axis)
    q_phase, p_phase = (np.exp(1j * f.grid.mode_step * freqs * c) for c in x)
    modes = _modes(f) * q_phase[:, None] * p_phase[None, :]
    return GridFunction(f.grid, _from_modes(f.grid, modes))


def poisson_bracket_grid(f, g):
    """Canonical bracket d_q f d_p g - d_p f d_q g, one spectrum per operand."""
    _require_same_grid(f, g)
    grid = f.grid
    k = 1j * grid.mode_step * _int_freqs(grid.points_per_axis).astype(float)
    modes_f, modes_g = _modes(f), _modes(g)
    fq, fp = (_from_modes(grid, modes_f * d) for d in (k[:, None], k[None, :]))
    gq, gp = (_from_modes(grid, modes_g * d) for d in (k[:, None], k[None, :]))
    return GridFunction(grid, fq * gp - fp * gq)


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


def moyal_product(f, g, hbar, boundary_threshold=_BOUNDARY_THRESHOLD):
    """Deformed product as q-convolutions, one per pair of momentum frequencies.

    sigma(k, l) = k_q l_p - k_p l_q, so for fixed (k_p, l_p) the twist
    e^{-ic sigma}, c = hbar dk^2 / 2, is e^{-ic k_q l_p} e^{+ic k_p l_q}, one
    factor per operand: the pairs sum to one zero-padded FFT convolution
    along q of two twisted columns of the significant-mode boxes, and the
    terms sharing m_p = k_p + l_p add up before one inverse FFT.  A pair
    weighs |F_k||G_l| whatever hbar, so the aliased share (pairs leaving the
    Nyquist box) is the out-of-box part of |F| * |G|.  Work above _MAX_WORK
    (momentum pairs x q-FFT entries) is refused before any box is built.
    The k_p rows go in blocks of about _MOMENTUM_BLOCK entries and enter the
    m_p sums in row order, so the block never changes the result.
    """
    _require_same_grid(f, g)
    if not (hbar >= 0):
        raise GridError("the deformation parameter must be nonnegative")
    _require_interior_support(f, boundary_threshold)
    _require_interior_support(g, boundary_threshold)
    grid, p = f.grid, f.grid.points_per_axis
    fvec, fval = _significant(_modes(f))
    gvec, gval = _significant(_modes(g))
    out = np.zeros(grid.shape, dtype=np.complex128)
    if len(fval) == 0 or len(gval) == 0:
        return GridFunction(grid, out)
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

    # operands as (momentum row, q), each with its own twist factor
    frows, grows = fbox.T, gbox.T
    scale = 0.5 * hbar * grid.mode_step**2
    ftwist = _twist(glo[1] + np.arange(gmomenta), flo[0], fsize[0], -scale)
    gtwist = _twist(flo[1] + np.arange(fmomenta), glo[0], gsize[0], scale)
    acc = np.zeros((span[1], q_entries), dtype=np.complex128)
    rows = max(1, _MOMENTUM_BLOCK // (gmomenta * q_entries))
    for start in range(0, fmomenta, rows):
        block = slice(start, start + rows)
        terms = np.fft.fft(frows[block, None] * ftwist, q_entries)
        terms *= np.fft.fft(grows * gtwist[block, None], q_entries)
        for corner, row in enumerate(terms, start):
            acc[corner : corner + gmomenta] += row
    acc = np.fft.ifft(acc)[:, : span[0]]
    index = np.ix_(*[np.arange(a + k.start, a + k.stop) % p for a, k in zip(lo, keep)])
    out[index] = acc.T[keep]
    return GridFunction(grid, _from_modes(grid, out))


def star_defects(f, g, hbar):
    """Von Neumann and Dirac defects, both read from one f*g.

    The von Neumann defect is sup |f*g - fg|, the Dirac defect
    sup |(f*g - g*f)/(i hbar) - {f, g}|.  The product respects the
    involution, (f*g)^* = g^* * f^*, so when the samples of both operands
    are real g*f is conj(f*g) and only one product is made; complex
    operands get their own g*f.  Either way both products pass the same
    support and alias guards: they see the same operands and the same pair
    mass.
    """
    if not (hbar > 0):
        raise GridError("the commutator comparison needs a positive parameter")
    forward = moyal_product(f, g, hbar)
    if f.samples.imag.any() or g.samples.imag.any():
        backward = moyal_product(g, f, hbar)
    else:
        backward = forward.conjugate()
    von_neumann = (forward - f * g).sup_norm()
    commutator_scaled = (forward - backward) * (1.0 / (1j * hbar))
    return von_neumann, (commutator_scaled - poisson_bracket_grid(f, g)).sup_norm()


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
        if not np.all(np.isfinite(linear)) or abs(np.linalg.det(linear)) < 1e-12:
            raise GridError("linear part must be finite and invertible")
        if offset is None:
            offset = np.zeros(2)
        offset = np.array(offset, dtype=float)
        if offset.shape != (2,) or not np.all(np.isfinite(offset)):
            raise GridError("offset must be a finite phase-space vector")
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
        m = np.eye(2)
        if upper:
            m[0, 1] = amount
        else:
            m[1, 0] = amount
        return cls(m)


def pullback(f, phi, boundary_threshold=_BOUNDARY_THRESHOLD):
    """Composition with an affine map via exact trigonometric synthesis.

    f(Az + b) = sum_k F_k e^{i k.b} e^{i (A^T k).z}, evaluated as a
    product of the q-factors and the p-factors of the modes over the grid
    axes.  The result must keep its mass interior, otherwise the support
    escaped the domain.
    """
    _require_interior_support(f, boundary_threshold)
    grid = f.grid
    fvec, fval = _significant(_modes(f))
    if len(fval) == 0:
        return GridFunction(grid, np.zeros(grid.shape))
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
    out = GridFunction(grid, result)
    if out.boundary_ratio() > boundary_threshold:
        raise SupportError("image support escapes the domain")
    return out


def morphism_star_defect(phi, f, g, hbar, boundary_threshold=_BOUNDARY_THRESHOLD):
    """Relative sup defect of pullback against the deformed product.

    Small for symplectic affine maps (the product only sees the form),
    large for maps that change the form: the direct numerical shadow of
    quantized-morphism multiplicativity.  Rotated off-center functions keep
    a little periodic leakage near the boundary, so callers measuring at
    coarse tolerances may relax boundary_threshold accordingly.
    """
    star = moyal_product(f, g, hbar, boundary_threshold)
    star_then_pull = pullback(star, phi, boundary_threshold)
    pull_then_star = moyal_product(
        pullback(f, phi, boundary_threshold),
        pullback(g, phi, boundary_threshold),
        hbar,
        boundary_threshold,
    )
    scale = star_then_pull.sup_norm()
    if scale == 0.0:
        return (pull_then_star - star_then_pull).sup_norm()
    return (pull_then_star - star_then_pull).sup_norm() / scale


def equivariance_defect(phi, f, direction, boundary_threshold=_BOUNDARY_THRESHOLD):
    """Relative sup defect of pullback(translate(f, A X)) vs translate(pullback(f), X)."""
    direction = np.asarray(direction, dtype=float)
    lhs = pullback(translate(f, phi.linear @ direction), phi, boundary_threshold)
    rhs = translate(pullback(f, phi, boundary_threshold), direction)
    scale = f.sup_norm()
    if scale == 0.0:
        return (lhs - rhs).sup_norm()
    return (lhs - rhs).sup_norm() / scale


# --- oscillator-basis transform ----------------------------------------------


def oscillator_position(n_trunc, hbar):
    off = np.sqrt(0.5 * hbar * np.arange(1, n_trunc))
    m = np.zeros((n_trunc, n_trunc), dtype=np.complex128)
    m[np.arange(n_trunc - 1), np.arange(1, n_trunc)] = off
    m[np.arange(1, n_trunc), np.arange(n_trunc - 1)] = off
    return m


# complex entries per block of the phase table in weyl_transform (8 MiB)
_PHASE_ENTRIES = 2**19


def _powers(z, count):
    """Columns z**0 .. z**(count - 1), by doubling: log2(count) products deep."""
    out = np.empty((len(z), count), dtype=np.complex128)
    out[:, 0] = 1.0
    done = 1
    while done < count:
        step = min(done, count - done)
        out[:, done : done + step] = out[:, :step] * (out[:, done - 1] * z)[:, None]
        done += step
    return out


def _class_symbols(members, phi, fval, n_trunc):
    """Rows T[c, d] = sum_{k in class c} F_k e^{i phi_k d}, d = -(n-1) .. n-1.

    members[k] is the class of mode k.  Classes of one size m share a
    (classes, m) table of their modes in mode order; one einsum per half
    then sums each class, in blocks of at most _PHASE_ENTRIES powers.
    """
    # Row c of `half` holds T[c, d] for d >= 0, row C + c holds conj(T[c, -d]):
    # the class sums of F_k z_k^d and conj(F_k) z_k^d, z_k = e^{i phi_k}.
    sizes = np.bincount(members)
    classes = len(sizes)
    order = np.argsort(members, kind="stable")
    starts = np.cumsum(sizes) - sizes
    z = np.exp(1j * phi)
    half = np.empty((2 * classes, n_trunc), dtype=np.complex128)
    for m in np.unique(sizes):
        same = np.nonzero(sizes == m)[0]
        table = order[starts[same][:, None] + np.arange(m)]
        rows = max(1, _PHASE_ENTRIES // (m * n_trunc))
        for start in range(0, len(same), rows):
            c, modes = same[start : start + rows], table[start : start + rows]
            powers = _powers(z[modes.ravel()], n_trunc).reshape(len(c), m, n_trunc)
            half[c] = np.einsum("cm,cmd->cd", fval[modes], powers)
            half[classes + c] = np.einsum("cm,cmd->cd", fval[modes].conj(), powers)
    return np.concatenate([half[classes:, :0:-1].conj(), half[:classes]], axis=1)


@lru_cache(maxsize=32)
def _jacobi_eigenpairs(n_trunc):
    """Read-only eigenvalues and eigenvectors of the Jacobi matrix J."""
    off = np.sqrt(np.arange(1.0, n_trunc))
    lam, w = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    lam.flags.writeable = False
    w.flags.writeable = False
    return lam, w


def weyl_transform(f, hbar, n_trunc, support_tail=1e-3):
    """The n_trunc x n_trunc complex matrix of f in the oscillator basis.

    Builds sum_k F_k exp(i(k1 Q + k2 P)) over significant modes.  Before
    assembling, a trace-residual detector integrates |f|^2 outside the
    classical reach of the highest retained basis state; a tail fraction
    above support_tail means the truncation cannot hold the function's
    phase-space support.  Pass support_tail >= 1 to measure deliberately
    under-resolved truncations (convergence studies).

    Assembly rests on two exact facts.  First, k1 Q + k2 P is unitarily
    similar to |k| sqrt(hbar/2) J, with J the real Jacobi matrix of
    off-diagonal sqrt(j) and the similarity U = diag(e^{i phi a}), phi the
    angle of k.  One eigendecomposition J = W diag(lam) W^T per truncation
    (cached) serves every mode:
        exp(i(k1 Q + k2 P))[a, b]
            = e^{i phi (a-b)} sum_m W[a, m] W[b, m] e^{i s lam_m},
    s = |k| sqrt(hbar/2).  Second, inside one |k|^2 class c only the phase
    e^{i phi (a-b)} still depends on the mode, so the class enters as one
    Toeplitz symbol T[c, d] = sum_{k in c} F_k e^{i phi_k d},
    d = a - b = -(n-1) .. n-1, and
        total[a, b] = sum_m W[a, m] W[b, m] G[m, a-b],
        G[m, d] = sum_c e^{i s_c lam_m} T[c, d].
    Per mode that is n powers of e^{i phi_k} (the offsets d < 0 are their
    conjugates) instead of an n x n update; then one product over the
    classes and one O(n^3) assembly along the diagonals.  The class k = 0
    gives F_0 I with no branch of its own.
    """
    if n_trunc < 16:
        raise GridError("truncation size must be at least 16")
    if not (hbar > 0):
        raise GridError("the deformation parameter must be positive")
    _require_interior_support(f, _BOUNDARY_THRESHOLD)
    grid = f.grid

    # trace of |f|^2 beyond the turning radius of the top basis state
    mass = np.abs(f.samples) ** 2
    total_mass = float(mass.sum())
    if total_mass > 0.0:
        reach = np.sqrt(hbar * (2.0 * n_trunc - 1.0))
        radius2 = sum(c**2 for c in grid.coordinate_mesh())
        tail = float(mass[radius2 > reach**2].sum()) / total_mass
        if tail > support_tail:
            raise TruncationError(
                "phase-space mass fraction %.3e beyond the truncation reach %.3f; "
                "increase the truncation" % (tail, reach)
            )
    mvec, fval = _significant(_modes(f))
    keys, members = np.unique(mvec[:, 0] ** 2 + mvec[:, 1] ** 2, return_inverse=True)
    phi = np.arctan2(mvec[:, 1], mvec[:, 0])
    symbol = _class_symbols(members, phi, fval, n_trunc)
    lam, w = _jacobi_eigenpairs(n_trunc)

    # einsum, not BLAS: the sums then do not depend on the BLAS thread count
    s = grid.mode_step * np.sqrt(0.5 * hbar * keys)
    g = np.einsum("mc,cd->dm", np.exp(1j * np.multiply.outer(lam, s)), symbol)

    # diagonals d and -d share the products W[a + d, m] W[a, m]
    levels = np.arange(n_trunc)
    total = np.empty((n_trunc, n_trunc), dtype=np.complex128)
    for d in range(n_trunc):
        a = levels[: n_trunc - d]
        pair = w[d:] * w[: n_trunc - d]
        total[a + d, a] = np.einsum("am,m->a", pair, g[n_trunc - 1 + d])
        total[a, a + d] = np.einsum("am,m->a", pair, g[n_trunc - 1 - d])
    return total


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
    composed = (left_matrix @ right_matrix)[:block, :block]
    defect = product_matrix[:block, :block] - composed
    scale = np.linalg.norm(composed)
    if scale == 0.0:
        return float(np.linalg.norm(defect))
    return float(np.linalg.norm(defect) / scale)


# --- quadrature oracle and closed form ---------------------------------------


def moyal_quadrature_oracle(f_factors, g_factors, hbar, points):
    """Direct oscillatory-integral evaluation of the deformed product.

    (f*g)(z) = (pi hbar)^{-2} iint f(z+u) g(z+v) e^{(2i/hbar) sigma(u,v)} du dv
    over u, v in R^2, with sigma(u,v) = u1 v2 - u2 v1.  Each operand is a
    pair of 1-D callables (f_q, f_p) with f(x, p) = f_q(x) f_p(p).  The
    phase splits per axis pair, so the quadruple integral is a product of
    two double integrals over (u1,v2) and (u2,v1); each is done on a uniform
    midpoint grid of _ORACLE_NODES points per axis over
    [-_ORACLE_RADIUS, _ORACLE_RADIUS], and each factor is sampled once per
    point, on the nodes z + u.  Independent of every grid code path; slow
    on purpose.
    """
    if not (hbar > 0):
        raise GridError("the deformation parameter must be positive")
    (f_q, f_p), (g_q, g_p) = f_factors, g_factors
    step = 2.0 * _ORACLE_RADIUS / _ORACLE_NODES
    u = -_ORACLE_RADIUS + step * (np.arange(_ORACLE_NODES) + 0.5)
    wu = np.full(_ORACLE_NODES, step)
    kernel = np.exp((2j / hbar) * np.outer(u, u))
    rows = []
    for z in np.atleast_2d(np.asarray(points, dtype=float)):
        samples = []
        for factor, origin in ((f_q, z[0]), (f_p, z[1]), (g_q, z[0]), (g_p, z[1])):
            values = np.asarray(factor(origin + u))
            if values.shape != u.shape or not np.all(np.isfinite(values)):
                raise GridError("oracle factors must give finite samples, one per node")
            samples.append(values)
        fa, fb, ga, gb = samples
        ia = (wu * fa) @ kernel @ (wu * gb)
        # x @ conj(K) @ y, exactly, with no conjugate copy of the kernel
        ib = np.conj(np.conj(wu * fb) @ kernel @ np.conj(wu * ga))
        rows.append(ia * ib / (np.pi * hbar) ** 2)
    return np.array(rows)


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

    defect_fn(f, g, h) gets each schedule entry h as it is (an exact
    Fraction stays a Fraction) and returns a sequence of defects.  One pass
    over the schedule gives one table per entry of that sequence, in its
    order: rows of (float(h), defect), the slope and rms residual of the
    log-log fit, and `saturated`, set (with no fit) when a defect falls
    below the saturation floor.
    """
    hs = [float(h) for h in schedule]
    if len(hs) < 4:
        raise GridError("schedule needs at least 4 points")
    if any(b >= a for a, b in zip(hs, hs[1:])):
        raise GridError("schedule must be strictly decreasing")
    defects = [[float(d) for d in defect_fn(f, g, h)] for h in schedule]
    return [_slope_table(list(zip(hs, column))) for column in zip(*defects)]


def _slope_table(rows):
    if any(d < _SATURATION_FLOOR for _, d in rows):
        return {"rows": rows, "slope": None, "residual": None, "saturated": True}
    slope, residual = loglog_fit(*zip(*rows))
    return {"rows": rows, "slope": slope, "residual": residual, "saturated": False}
