"""Finite dimensional symplectic vector spaces over the rationals.

A space is a rational coordinate space of even dimension together with an
exact antisymmetric nondegenerate bilinear form.  Characters are restricted
to the family chi(f) = e^{i pi <theta, f>} with rational theta, so that every
phase that ever appears is an exact root of unity.
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
        object.__setattr__(self, "matrix", rl.matrix(self.matrix))

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
        return LinearMapSpec(rl.mat_mul(self.matrix, first.matrix))


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
    # with T = tm/dt, form_cod = w/dw and form_dom = v/dv (int entries) the
    # identity reads dv * (tm^t w tm) == dt^2 dw * v, decided entry by entry
    tm, dt = rl.integer_matrix(t.matrix)
    w, dw = rl.integer_matrix(cod.form)
    v, dv = rl.integer_matrix(dom.form)
    cols = list(zip(*tm))
    w_cols = [[sum([a * b for a, b in zip(row, col)]) for row in w] for col in cols]
    scale = dt * dt * dw
    for col, v_row in zip(cols, v):
        for w_col, vij in zip(w_cols, v_row):
            if dv * sum([a * b for a, b in zip(col, w_col)]) != scale * vij:
                return False
    return True


def compose_characters(chi2, t1, chi1):
    """Character of a composite action: f -> chi1(f) * chi2(T1 f).

    Returns the CharacterSpec with theta = theta1 + T1^t theta2.
    """
    pulled = rl.mat_vec(rl.transpose(t1.matrix), chi2.theta)
    return CharacterSpec(rl.vec_add(chi1.theta, pulled))


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
