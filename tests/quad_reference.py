"""Reference Q(sqrt d) routines of the matrix oracle.

The library inverts a QuadNum on its integers, conjugates a matrix by
negating each entry's b in place, and tests theta-fixedness over Q(sqrt d)
from the upper triangle of g J g^T.  These are the rules it used before:
the inverse through the norm as a ``Fraction``, the field's conjugation
applied to each entry, and the full product g J g^T compared entry by
entry with J.  They share no code with the new rules, so the tests compare
the two.
"""

from fractions import Fraction

from splitinv.coeffs import QuadField, QuadNum
from splitinv.errors import CoefficientError


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
