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
from math import gcd

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
from .weyl_algebra import CoeffExpr, WeylElement, merge_terms


def child_seed(master, *path):
    """A stable derived seed: hash of the master seed and a label path."""
    text = repr((int(master),) + tuple(path)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


def make_rng(master, *path):
    return random.Random(child_seed(master, *path))


def _randint(rng, a, b):
    """rng.randint(a, b), drawn as CPython's randrange draws it: getrandbits
    of the width's bit length until the value is below the width.  An empty
    range is refused, as randint refuses it: the loop would never end."""
    width = b - a + 1
    if width < 1:
        raise ValueError("empty range for randint(%d, %d)" % (a, b))
    bits = width.bit_length()
    r = rng.getrandbits(bits)
    while r >= width:
        r = rng.getrandbits(bits)
    return a + r


def _random_ratio(rng, max_abs, max_den, allow_zero=True):
    # one num/den draw as the lowest-terms ints (num, den); without
    # allow_zero a zero num is drawn again
    while True:
        num = _randint(rng, -max_abs, max_abs)
        den = _randint(rng, 1, max_den)
        if allow_zero or num:
            g = gcd(num, den)
            return num // g, den // g


def random_fraction(rng, max_abs=3, max_den=4, allow_zero=True):
    return Fraction(*_random_ratio(rng, max_abs, max_den, allow_zero))


def _random_label_pairs(rng, dim):
    # a label's entries as one flat tuple (n1, d1, n2, d2, ...) of lowest-terms pairs
    out = []
    for _ in range(dim):
        out += _random_ratio(rng, 2, 3)
    return tuple(out)


def random_label(rng, space):
    pairs = _random_label_pairs(rng, space.dim)
    return space.vector([Fraction(n, d) for n, d in zip(pairs[::2], pairs[1::2])])


def random_space(rng, dim):
    """A random nondegenerate antisymmetric rational form of even dimension.

    Any other dim is refused before the first draw: no form of it is
    nondegenerate, so drawing again would never end.
    """
    if dim <= 0 or dim % 2 != 0:
        raise SpaceError("dimension must be a positive even integer")
    while True:
        entries = [[Fraction(0)] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i + 1, dim):
                entries[i][j] = random_fraction(rng, 3, 3)
                entries[j][i] = -entries[i][j]
        try:
            return SymplecticSpace(dim, entries)
        except SpaceError:  # degenerate: draw again
            pass


def _random_symmetric(rng, n):
    entries = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entries[i][j] = random_fraction(rng, 2, 2)
            entries[j][i] = entries[i][j]
    return rl.matrix(entries)


def _random_invertible(rng, n):
    """(A, A^-1) for a random invertible A with entries in [-2, 2]."""
    while True:
        m = rl.matrix([[_randint(rng, -2, 2) for _ in range(n)] for _ in range(n)])
        try:
            return m, rl.inverse(m)
        except ValueError:  # singular: draw again
            pass


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
        kind = _randint(rng, 0, 2)
        if kind == 0:
            total = _block(eye, _random_symmetric(rng, n), zero, eye).compose(total)
        elif kind == 1:
            total = _block(eye, zero, _random_symmetric(rng, n), eye).compose(total)
        else:
            a, a_inv = _random_invertible(rng, n)
            total = _block(a, zero, zero, rl.transpose(a_inv)).compose(total)
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


def random_coeff(rng, with_parameter=True):
    def draws():  # one or two phases, merged once by from_int_pairs
        for _ in range(_randint(rng, 1, 2)):
            p = _random_ratio(rng, 2, 3)
            q = _random_ratio(rng, 2, 3) if with_parameter else (0, 1)
            yield p + q, _random_ratio(rng, 3, 3, allow_zero=False)

    return CoeffExpr.from_int_pairs(draws())


def random_element(rng, space, max_terms=3):
    draws = (
        (_random_label_pairs(rng, space.dim), random_coeff(rng))
        for _ in range(_randint(rng, 0, max_terms))
    )
    return WeylElement.from_int_pairs(space, merge_terms(draws))


def random_space_pool(rng, count, dims=(2, 4, 6)):
    pool = [standard_space(dims[0] // 2)]
    while len(pool) < count:
        pool.append(random_space(rng, dims[_randint(rng, 0, len(dims) - 1)]))
    return pool
