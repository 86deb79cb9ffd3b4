"""Reference routines of the matrix oracle.

The library inverts a QuadNum on its integers, conjugates a matrix by
negating each entry's b in place, and applies the pinned automorphism as a
signed anti-transpose (``MatrixContext._flip``): theta(g) is the flip of
g^-1, d theta(x) the negated flip of x, and theta-fixedness is g times its
flip equal to 1, read on the integer rows over Q(sqrt d).  These are the
rules it used before: the inverse through the norm as a ``Fraction``, the
field's conjugation applied to each entry, J (g^-1)^T J^-1 and -J x^T J^-1
as sums of field products, and the full product g J g^T compared entry by
entry with J.  They share no code with the new rules, so the tests compare
the two.  The determinant, which the library takes from the pivots of an
elimination, is kept here as the Leibniz sum over permutations.
"""

from fractions import Fraction
from itertools import permutations

from splitinv.coeffs import QuadField, QuadNum
from splitinv.errors import CoefficientError
from splitinv.matoracle import mat_inv


def inv_by_fraction(x: QuadNum) -> QuadNum:
    """1/x = conj(x)/N(x), with N(x) = u^2 - d v^2 built as a Fraction."""
    a, b, c, d = x.a, x.b, x.c, x.d
    nrm = Fraction(a * a - d * b * b, c * c)
    if not nrm:
        raise CoefficientError("inverse of zero in Q(sqrt(d))")
    return QuadNum(x.u / nrm, -x.v / nrm, d)


def galois_apply_by_field_conj(ctx, g, k=1):
    """sigma^k on the entries through ``QuadField.conj``, one entry at a time."""
    f = ctx.field
    if k % 2 and isinstance(f, QuadField):
        return tuple(tuple(map(f.conj, row)) for row in g)
    return g


def theta_fixed_by_full_product(ctx, g) -> bool:
    """g J g^T = J, with every entry of g J g^T formed as a sum of field
    products and compared with J entry by entry."""
    n, f, J = ctx.n, ctx.field, ctx.J
    g = [[f.embed(x) for x in row] for row in g]
    gj = [[sum((g[i][t] * J[t][j] for t in range(n)), f.zero()) for j in range(n)]
          for i in range(n)]
    m = [[sum((gj[i][t] * g[j][t] for t in range(n)), f.zero()) for j in range(n)]
         for i in range(n)]
    return all(m[i][j] == J[i][j] for i in range(n) for j in range(n))


def _conjugate_by_j(ctx, x):
    """J x^T J^-1 as sums of field products, with J^-1 = J^T since J is a
    signed permutation matrix."""
    n, f, J = ctx.n, ctx.field, ctx.J
    jxt = [[sum((J[i][t] * x[j][t] for t in range(n)), f.zero()) for j in range(n)]
           for i in range(n)]
    return tuple(tuple(sum((jxt[i][t] * J[j][t] for t in range(n)), f.zero()) for j in range(n))
                 for i in range(n))


def theta_apply_by_j_products(ctx, g):
    """theta(g) = J (g^-1)^T J^-1, g^-1 from the library's ``mat_inv``."""
    return _conjugate_by_j(ctx, mat_inv(g, ctx.field))


def dtheta_apply_by_j_products(ctx, x):
    """d theta(x) = -J x^T J^-1."""
    return tuple(tuple(-y for y in row) for row in _conjugate_by_j(ctx, x))


def det_by_leibniz(a, field):
    """det(a) as the sum over permutations p of sign(p) prod a[i][p[i]], each
    entry read through ``field.embed``; n! terms, for small n only."""
    n, total = len(a), field.zero()
    for p in permutations(range(n)):
        inversions = sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n))
        term = field.one()
        for i in range(n):
            term = term * field.embed(a[i][p[i]])
        total = total + (-term if inversions % 2 else term)
    return total
