"""Finite dimensional symplectic vector spaces over the rationals.

A space is a rational coordinate space of even dimension together with an
exact antisymmetric nondegenerate bilinear form.  Characters are restricted
to the family chi(f) = e^{i pi <theta, f>} with rational theta, so that every
phase that ever appears is an exact root of unity.

Spaces and maps keep the integer form of their matrix (``form_ints``,
``matrix_ints``: rows of ints over one common denominator, see
``rational_linalg.integer_matrix``) from construction.  It is not a
dataclass field, so equality and hashing stay on the Fraction data;
composition, composed characters and the form identity run on it.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import rational_linalg as rl


class SpaceError(ValueError):
    """Malformed space, vector or map data."""


@dataclass(frozen=True)
class SymplecticSpace:
    """Even-dimensional rational space with a fixed symplectic form matrix."""

    dim: int
    form: tuple

    def __post_init__(self):
        if self.dim <= 0 or self.dim % 2 != 0:
            raise SpaceError("dimension must be a positive even integer")
        form = rl.matrix(self.form)
        if len(form) != self.dim or any(len(r) != self.dim for r in form):
            raise SpaceError("form matrix must be dim x dim")
        for i in range(self.dim):
            for j in range(self.dim):
                if form[i][j] != -form[j][i]:
                    raise SpaceError("form matrix must be antisymmetric")
        if rl.det(form) == 0:
            raise SpaceError("form matrix must be nondegenerate")
        object.__setattr__(self, "form", form)
        object.__setattr__(self, "form_ints", rl.integer_matrix(form))

    def vector(self, entries):
        v = rl.vector(entries)
        if len(v) != self.dim:
            raise SpaceError("vector has length %d, space has dimension %d" % (len(v), self.dim))
        return v


@dataclass(frozen=True)
class LinearMapSpec:
    """A rational linear map recorded as a matrix (rows act on the left)."""

    matrix: tuple

    def __post_init__(self):
        matrix = rl.matrix(self.matrix)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "matrix_ints", rl.integer_matrix(matrix))

    @classmethod
    def _from_ints(cls, ints):
        # the map of a canonical integer form, its Fractions built once
        rows, d = ints
        obj = cls.__new__(cls)
        object.__setattr__(obj, "matrix", tuple(tuple(Fraction(x, d) for x in row) for row in rows))
        object.__setattr__(obj, "matrix_ints", ints)
        return obj

    @property
    def dim_in(self):
        return len(self.matrix[0]) if self.matrix else 0

    @property
    def dim_out(self):
        return len(self.matrix)

    def apply(self, v):
        if len(v) != self.dim_in:
            raise SpaceError("map expects vectors of length %d" % self.dim_in)
        return rl.mat_vec(self.matrix, v)

    def compose(self, first):
        """self after ``first``: (self.compose(first)).apply(v) = self(first(v))."""
        if first.dim_out != self.dim_in:
            raise SpaceError("composition dimension mismatch")
        return LinearMapSpec._from_ints(rl.integer_product(self.matrix_ints, first.matrix_ints))


@dataclass(frozen=True)
class CharacterSpec:
    """chi(f) = e^{i pi <theta, f>} for a rational vector theta."""

    theta: tuple

    def __post_init__(self):
        object.__setattr__(self, "theta", rl.vector(self.theta))


def standard_space(n):
    """Standard symplectic space of dimension 2n, form [[0, I], [-I, 0]]."""
    if n <= 0:
        raise SpaceError("n must be a positive integer")
    d = 2 * n
    form = [[Fraction(0)] * d for _ in range(d)]
    for i in range(n):
        form[i][n + i] = Fraction(1)
        form[n + i][i] = Fraction(-1)
    return SymplecticSpace(d, tuple(tuple(r) for r in form))


def symplectic_form(space, f, g):
    """Exact value of the form on two vectors of the space."""
    f = space.vector(f)
    g = space.vector(g)
    return rl.dot(f, rl.mat_vec(space.form, g))


def is_symplectic_map(t, dom, cod):
    """True iff T^t . form_cod . T equals form_dom exactly."""
    if t.dim_in != dom.dim or t.dim_out != cod.dim:
        return False
    # integer forms are canonical, so the matrices are equal iff their forms are
    tm, dt = t.matrix_ints
    pulled = rl.integer_product((tuple(zip(*tm)), dt), cod.form_ints)
    return rl.integer_product(pulled, t.matrix_ints) == dom.form_ints


def compose_characters(chi2, t1, chi1):
    """Character of a composite action: f -> chi1(f) * chi2(T1 f).

    Returns the CharacterSpec with theta = theta1 + T1^t theta2.
    """
    if len(chi1.theta) != t1.dim_in or len(chi2.theta) != t1.dim_out:
        raise SpaceError("characters do not fit the map's dimensions")
    # with T1 = rows/dt and theta_k = n_k/d_k the sum is
    # (n1 dt d2 + d1 rows^t n2) / (d1 dt d2)
    rows, dt = t1.matrix_ints
    n1, d1 = rl.integer_vector(chi1.theta)
    n2, d2 = rl.integer_vector(chi2.theta)
    scale = dt * d2
    pulled = [sum([r * x for r, x in zip(col, n2)]) for col in zip(*rows)]
    d = d1 * scale
    return CharacterSpec(tuple(Fraction(a * scale + d1 * b, d) for a, b in zip(n1, pulled)))


def darboux_basis(space):
    """A rational basis B with B^t . form . B equal to the standard form.

    Returned as a LinearMapSpec sending standard coordinates into the space.
    Built by symplectic pair extraction: pick v, find w with form(v, w) = 1,
    project the rest onto the symplectic complement, recurse.
    """
    form = space.form
    dim = space.dim

    def pairing(u, v):
        return rl.dot(u, rl.mat_vec(form, v))

    remaining = [tuple(row) for row in rl.identity(dim)]
    es, fs = [], []
    while remaining:
        v = remaining[0]
        w = None
        for cand in remaining[1:]:
            c = pairing(v, cand)
            if c != 0:
                w = rl.vec_scale(Fraction(1) / c, cand)
                break
        if w is None:
            raise SpaceError("form degenerate on remaining subspace")
        es.append(v)
        fs.append(w)
        projected = []
        for u in remaining[1:]:
            u2 = rl.vec_sub(u, rl.vec_scale(pairing(u, w), v))
            u2 = rl.vec_add(u2, rl.vec_scale(pairing(u, v), w))
            if any(e != 0 for e in u2):
                projected.append(u2)
        remaining = rl.row_space_basis(projected)
    cols = es + fs
    b = tuple(tuple(cols[j][i] for j in range(dim)) for i in range(dim))
    return LinearMapSpec(b)
