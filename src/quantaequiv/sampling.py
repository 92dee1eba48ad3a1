"""Seeded random generators for spaces, arrows and elements.

Everything is driven by ``random.Random`` (or an integer seed derived from
one master seed through ``child_seed``), so suites replay byte-identically.
Shapes are kept small on purpose: entries are fractions with single-digit
numerators and denominators, which keeps the exact arithmetic fast while
still exercising every code path.
"""

import hashlib
import random
from fractions import Fraction

from . import rational_linalg as rl
from .symplectic import (
    CharacterSpec,
    LinearMapSpec,
    SpaceError,
    SymplecticSpace,
    darboux_basis,
    is_symplectic_map,
    standard_space,
)
from .weyl_algebra import CoeffExpr, WeylElement


def child_seed(master, *path):
    """A stable derived seed: hash of the master seed and a label path."""
    text = repr((int(master),) + tuple(path)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


def make_rng(master, *path):
    return random.Random(child_seed(master, *path))


def random_fraction(rng, max_abs=3, max_den=4, allow_zero=True):
    while True:
        num = rng.randint(-max_abs, max_abs)
        den = rng.randint(1, max_den)
        value = Fraction(num, den)
        if allow_zero or value != 0:
            return value


def random_label(rng, space):
    return space.vector([random_fraction(rng, 2, 3) for _ in range(space.dim)])


def random_space(rng, dim):
    """A random nondegenerate antisymmetric rational form of even dimension."""
    while True:
        entries = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                entries[i][j] = random_fraction(rng, 3, 3)
                entries[j][i] = -entries[i][j]
        form = rl.matrix(entries)
        if rl.det(form) != 0:
            return SymplecticSpace(dim, form)


def _random_symmetric(rng, n):
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = random_fraction(rng, 2, 2)
            entries[j][i] = entries[i][j]
    return rl.matrix(entries)


def _random_invertible(rng, n):
    while True:
        entries = [
            [Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)
        ]
        m = rl.matrix(entries)
        if rl.det(m) != 0:
            return m


def _block(top_left, top_right, bottom_left, bottom_right):
    n = len(top_left)
    rows = []
    for i in range(n):
        rows.append(tuple(top_left[i]) + tuple(top_right[i]))
    for i in range(n):
        rows.append(tuple(bottom_left[i]) + tuple(bottom_right[i]))
    return LinearMapSpec(rows)


def random_standard_symplectic(rng, n):
    """A random element of the symplectic group for the standard form.

    Built as a product of three shears and block-diagonal scalings, each of
    which preserves the standard form exactly; returned as a LinearMapSpec.
    """
    eye = rl.identity(n)
    zero = rl.matrix([[Fraction(0)] * n for _ in range(n)])
    total = LinearMapSpec(rl.identity(2 * n))
    for _ in range(3):
        kind = rng.randrange(3)
        if kind == 0:
            total = _block(eye, _random_symmetric(rng, n), zero, eye).compose(total)
        elif kind == 1:
            total = _block(eye, zero, _random_symmetric(rng, n), eye).compose(total)
        else:
            a = _random_invertible(rng, n)
            a_inv_t = rl.transpose(rl.inverse(a))
            total = _block(a, zero, zero, a_inv_t).compose(total)
    return total


def darboux_frame(space):
    """(B, B^-1) as LinearMapSpecs, B the space's darboux_basis."""
    basis = darboux_basis(space)
    return basis, LinearMapSpec(rl.inverse(basis.matrix))


def random_symplectic_map(rng, dom, cod, dom_frame, cod_frame):
    """A random exact form-preserving isomorphism dom -> cod (equal dims).

    The frames are the darboux_frame of each space; the map is
    B_cod . S . B_dom^-1 for a random standard symplectic S, checked
    against the forms before it is returned.
    """
    if dom.dim != cod.dim:
        raise ValueError("symplectic isomorphisms need equal dimensions")
    middle = random_standard_symplectic(rng, dom.dim // 2)
    spec = cod_frame[0].compose(middle.compose(dom_frame[1]))
    if not is_symplectic_map(spec, dom, cod):
        raise SpaceError("the frames do not carry the spaces' forms to the standard form")
    return spec


def random_character(rng, dim):
    return CharacterSpec(tuple(random_fraction(rng, 2, 4) for _ in range(dim)))


def random_coeff(rng, max_terms=2, with_parameter=True):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        p = random_fraction(rng, 2, 3)
        q = random_fraction(rng, 2, 3) if with_parameter else Fraction(0)
        amp = random_fraction(rng, 3, 3, allow_zero=False)
        terms[(p, q)] = terms.get((p, q), Fraction(0)) + amp
    return CoeffExpr(terms)


def random_element(rng, space, max_terms=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        label = random_label(rng, space)
        coeff = random_coeff(rng)
        terms[label] = terms.get(label, CoeffExpr.zero()) + coeff
    return WeylElement(space, terms)


def random_space_pool(rng, count, dims=(2, 4, 6)):
    pool = [standard_space(dims[0] // 2)]
    while len(pool) < count:
        pool.append(random_space(rng, rng.choice(dims)))
    return pool
