"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  Both are
hashable, so vectors can serve as dictionary keys elsewhere.  Every routine
here is exact; nothing ever touches a float.

``dot`` scales each of its two vectors to integer numerators over one common
denominator (the lcm of its denominators), takes one Python-int dot product
and builds one Fraction from it.  Summing Fractions term by term would run a
gcd after every + and *; the values are the same either way.  ``mat_vec`` and
``mat_mul`` take each result entry as one ``dot``; ``dot`` and ``mat_mul``
are the reference kernels that the tests hold the integer kernels to.

``integer_vector`` and ``integer_matrix`` do that scaling once.  Spaces and
maps (``symplectic``) carry their integer form from construction, so
composition, the form identity and the symplectic twist in ``weyl_algebra``
work on ints: ``integer_product`` multiplies two integer forms and reduces
the result by one gcd, and a Fraction is built only for a result that is
kept.
"""

from fractions import Fraction
from math import gcd, lcm


def frac(x):
    """Coerce ints, Fractions and strings like '-3/4' to Fraction exactly."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError("expected an exact rational, got %r" % (x,))


def vector(entries):
    """Build an immutable rational vector from an iterable of exact entries."""
    return tuple(frac(e) for e in entries)


def matrix(rows):
    """Build an immutable rational matrix; all rows must have equal length."""
    out = tuple(vector(r) for r in rows)
    if out and any(len(r) != len(out[0]) for r in out):
        raise ValueError("ragged rows in matrix")
    return out


def zeros(n):
    return tuple(Fraction(0) for _ in range(n))


def identity(n):
    return tuple(tuple(Fraction(1 if i == j else 0) for j in range(n)) for i in range(n))


def vec_add(u, v):
    if len(u) != len(v):
        raise ValueError("vector length mismatch: %d vs %d" % (len(u), len(v)))
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    if len(u) != len(v):
        raise ValueError("vector length mismatch: %d vs %d" % (len(u), len(v)))
    return tuple(a - b for a, b in zip(u, v))


def vec_neg(u):
    return tuple(-a for a in u)


def vec_scale(c, u):
    c = frac(c)
    return tuple(c * a for a in u)


def dot(u, v):
    if len(u) != len(v):
        raise ValueError("vector length mismatch: %d vs %d" % (len(u), len(v)))
    # entries are int or Fraction; both carry .numerator and .denominator
    du = lcm(*[a.denominator for a in u])
    dv = lcm(*[b.denominator for b in v])
    num = sum(
        [
            a.numerator * (du // a.denominator) * (b.numerator * (dv // b.denominator))
            for a, b in zip(u, v)
        ]
    )
    return Fraction(num, du * dv)


def integer_vector(v):
    """(nums, d) with v[i] == nums[i] / d; d is the lcm of v's denominators."""
    d = lcm(*[a.denominator for a in v])
    return [a.numerator * (d // a.denominator) for a in v], d


def integer_matrix(m):
    """(rows, d) with m[i][j] == rows[i][j] / d; one d for the whole matrix.

    d is the lcm of the denominators, so the form is canonical: d and the
    entries of rows have no common factor.
    """
    d = lcm(*[a.denominator for row in m for a in row])
    return tuple(tuple(a.numerator * (d // a.denominator) for a in row) for row in m), d


def integer_product(a, b):
    """The canonical integer form of the product of two integer forms."""
    (ra, da), (rb, db) = a, b
    cols = list(zip(*rb))
    rows = [[sum([x * y for x, y in zip(row, col)]) for col in cols] for row in ra]
    d = da * db
    g = gcd(d, *[x for row in rows for x in row])
    return tuple(tuple(x // g for x in row) for row in rows), d // g


def mat_vec(m, v):
    return tuple(dot(row, v) for row in m)


def mat_mul(a, b):
    if not b:
        return ()
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m):
    if not m:
        return ()
    return tuple(tuple(m[i][j] for i in range(len(m))) for j in range(len(m[0])))


def _eliminate(rows):
    # forward elimination with partial (first-nonzero) pivoting; returns the
    # echelon rows and the list of pivot columns
    rows = [list(r) for r in rows]
    n_rows = len(rows)
    n_cols = len(rows[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = None
        for i in range(r, n_rows):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [e * inv for e in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def rank(m):
    if not m:
        return 0
    _, pivots = _eliminate(m)
    return len(pivots)


def det(m):
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant needs a square matrix")
    rows = [list(r) for r in m]
    result = Fraction(1)
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            result = -result
        result *= rows[c][c]
        inv = Fraction(1) / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return result


def inverse(m):
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("inverse needs a square matrix")
    aug = [list(m[i]) + list(identity(n)[i]) for i in range(n)]
    rows, pivots = _eliminate(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(rows[i][n:]) for i in range(n))


def solve(m, rhs):
    """Solve m x = rhs exactly; raises ValueError if singular."""
    return mat_vec(inverse(m), rhs)


def row_space_basis(vectors):
    """A basis (echelon rows) of the rational span of the given vectors."""
    vecs = [v for v in vectors if any(e != 0 for e in v)]
    if not vecs:
        return []
    rows, pivots = _eliminate(vecs)
    return [tuple(rows[i]) for i in range(len(pivots))]
