"""Exact arithmetic with sums of roots of unity.

A phase sum is a finite formal sum  sum_j  c_j * e^{i pi s_j}  with rational
amplitudes c_j and rational exponents s_j taken mod 2.  Deciding whether such
a sum is exactly zero reduces to divisibility by a cyclotomic polynomial:
with D the common denominator of the s_j, the value lives in the ring of
integers of Q(zeta) for zeta a primitive 2D-th root of unity, and the sum
vanishes iff the associated polynomial is a multiple of the 2D-th cyclotomic
polynomial.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .rational_linalg import integer_vector


def _poly_divmod_int(num, den):
    # exact division of integer coefficient lists (ascending order); den monic
    # up to sign of its leading coefficient
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        q, r = divmod(num[i + len(den) - 1], lead)
        if r != 0:
            raise ArithmeticError("non-exact polynomial division")
        if q:
            out[i] = q
            for j, d in enumerate(den):
                num[i + j] -= q * d
    if any(num):
        raise ArithmeticError("nonzero remainder in exact polynomial division")
    return out


def _divisors(n):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n):
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    if n == 1:
        return (-1, 1)
    # (x^n - 1) / prod_{d | n, d < n} Phi_d
    poly = [-1] + [0] * (n - 1) + [1]
    for d in _divisors(n):
        if d < n:
            poly = _poly_divmod_int(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def phase_sum_is_zero(terms):
    """Exact zero test for  sum  amp * e^{i pi s}.

    ``terms`` maps rational exponents s (any representatives) to rational
    amplitudes.  Returns True iff the complex value is exactly zero.
    """
    # merge exponents mod 2 first; weyl_algebra.merge_terms sits above this module
    merged = {}
    for s, amp in terms.items():
        s = Fraction(s) % 2
        merged[s] = merged.get(s, Fraction(0)) + Fraction(amp)
    merged = {s: a for s, a in merged.items() if a != 0}
    if not merged:
        return True
    denom = 1
    for s in merged:
        denom = lcm(denom, s.denominator)
    order = 2 * denom  # work with the primitive `order`-th root e^{i pi / denom}
    # polynomial in zeta with rational coefficients, exponent = s * denom
    coeffs = [Fraction(0)] * order
    for s, amp in merged.items():
        e = int(s * denom) % order
        coeffs[e] += amp
    # phi is monic, so an integer multiple of coeffs divides exactly iff coeffs does
    try:
        _poly_divmod_int(integer_vector(coeffs)[0], cyclotomic_polynomial(order))
    except ArithmeticError:
        return False
    return True
