"""Explicit SL(n) realizations over exact fields.

These matrices are the ground truth for the abstract normalizer model: the
canonical lifts, their products, the order-2 pinned automorphism given by
conjugated inverse-transpose, the fixed subgroup with its own pinning, and
the rank-1 adjoint maps into SL(3).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Sequence, Tuple

from .coeffs import QuadField, QuadNum, RationalField, _new_quad, _reduced, quad_parts
from .errors import RealizationError
from .rootdata import PinnedAutomorphism, WeylElement, build_root_datum
from .tits import TitsElement, TorusElement

Matrix = Tuple[tuple, ...]

_new, _set = object.__new__, object.__setattr__   # a QuadNum built in place


# ---------------------------------------------------------------------------
# generic exact matrix helpers
# ---------------------------------------------------------------------------

def mat_identity(n: int, field) -> Matrix:
    one, zero = field.one(), field.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def _shape(m) -> str:
    """'rxc' for r rows of c entries each, 'ragged r-row' when the rows differ."""
    widths = set(map(len, m))
    if len(widths) > 1:
        return f"ragged {len(m)}-row"
    return f"{len(m)}x{widths.pop() if widths else 0}"


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product a*b of an n x k and a k x m matrix, n, k, m >= 1; any
    other pair of shapes raises RealizationError naming both.  It is
    ``_quad_mat_mul`` when the first entry of a or b is a QuadNum; over Q
    and F_p each entry is the sum of all k products (skipping zeros reads as
    more peak RSS in the benchmark, ROADMAP item 1)."""
    if set(map(len, a)) != {len(b)} or len(set(map(len, b))) != 1 or not b[0]:
        raise RealizationError(f"cannot multiply a {_shape(a)} matrix by a {_shape(b)} matrix")
    a00, b00 = a[0][0], b[0][0]
    if isinstance(a00, QuadNum) or isinstance(b00, QuadNum):
        return _quad_mat_mul(a, b, a00.d if isinstance(a00, QuadNum) else b00.d)
    n, m, k = len(a), len(b[0]), len(b)
    return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(1, k)),
                           a[i][0] * b[0][j]) for j in range(m)) for i in range(n))


def _nonzero_parts(row, d: int) -> list:
    """(column, a, b, c) for each nonzero entry (a + b*sqrt(d))/c of row.  The
    integers of a QuadNum of this d are read in place; any other entry goes
    through ``quad_parts``.  Every entry, zeros included, is checked, so an
    entry of another d or outside the field raises CoefficientError."""
    out = []
    for j, x in enumerate(row):
        p = x._v if type(x) is QuadNum and x._v[3] == d else quad_parts(x, d)
        if p[0] or p[1]:
            out.append((j, p[0], p[1], p[2]))
    return out


def _quad_rows(a_rows, b_rows, m: int, d: int):
    """The rows of a*b over Q(sqrt(d)), from the rows of a and of the
    m-column b as ``_nonzero_parts`` reads them, as integer lists (A, B, C):
    (A[j] + B[j]*sqrt(d))/C[j], C[j] > 0, unreduced, sums each product of a
    nonzero a[i][t] with row t of b over a running lcm (Gustavson 1978)."""
    for row in a_rows:
        ta, tb, tc = [0] * m, [0] * m, [1] * m
        for t, xa, xb, xc in row:
            for j, ya, yb, yc in b_rows[t]:
                pa, pb, pc = xa * ya + d * xb * yb, xa * yb + xb * ya, xc * yc
                c = tc[j]
                if pc == c:
                    ta[j] += pa
                    tb[j] += pb
                else:
                    g = gcd(c, pc)
                    s, u = pc // g, c // g
                    ta[j], tb[j], tc[j] = ta[j] * s + pa * u, tb[j] * s + pb * u, c * s
        yield ta, tb, tc


def _quad_mat_mul(a: Matrix, b: Matrix, d: int) -> Matrix:
    """a*b over Q(sqrt(d)): each nonzero total of ``_quad_rows`` becomes one
    QuadNum in place with one gcd, as ``_reduced`` builds it, so every entry
    has the integers of the generic sum of QuadNum products, bit for bit."""
    zero, out = _reduced(0, 0, 1, d), []
    b_rows = [_nonzero_parts(row, d) for row in b]
    for ta, tb, tc in _quad_rows((_nonzero_parts(row, d) for row in a), b_rows, len(b[0]), d):
        new_row = []
        for ea, eb, ec in zip(ta, tb, tc):
            x = zero
            if ea or eb:
                g = gcd(ea, eb, ec)
                x = _new(QuadNum)
                _set(x, "_v", (ea // g, eb // g, ec // g, d) if g != 1 else (ea, eb, ec, d))
            new_row.append(x)
        out.append(tuple(new_row))
    return tuple(out)


def mat_prod(*ms: Matrix) -> Matrix:
    out = ms[0]
    for m in ms[1:]:
        out = mat_mul(out, m)
    return out


def mat_transpose(a: Matrix) -> Matrix:
    """The transpose of an n x m matrix, n, m >= 1; any other shape raises
    RealizationError naming it."""
    if len(set(map(len, a))) != 1 or not a[0]:
        raise RealizationError(f"cannot transpose a {_shape(a)} matrix")
    return tuple(zip(*a))


def mat_eq(a: Matrix, b: Matrix) -> bool:
    """Entrywise equality; matrices of different shapes are unequal."""
    return tuple(map(tuple, a)) == tuple(map(tuple, b))


def mat_scalar(a: Matrix, c) -> Matrix:
    return tuple(tuple(c * x if x else x for x in row) for row in a)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    """a + b for two n x m matrices, n, m >= 1; any other pair of shapes
    raises RealizationError naming both."""
    widths = set(map(len, a))
    if len(a) != len(b) or len(widths) != 1 or widths != set(map(len, b)) or not a[0]:
        raise RealizationError(f"cannot add a {_shape(a)} matrix and a {_shape(b)} matrix")
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _eliminate(work: List[list], col: int, prow: int, first: int = 0) -> None:
    """Clear column col from the rows from first on but prow, by row prow
    scaled to pivot 1, writing only where the pivot row is nonzero right of
    col: no column up to col is read again, so it keeps stale entries."""
    pivot = work[prow]
    inv_p = pivot[col] ** -1
    support = [(j, x * inv_p) for j, x in enumerate(pivot[col + 1:], col + 1) if x]
    for j, y in support:
        pivot[j] = y
    for r, row in enumerate(work[first:], first):
        f = row[col]
        if r != prow and f:
            for j, y in support:
                row[j] = row[j] - f * y


def _pivots(a: Matrix, field, inverse: bool):
    """det(a), and a^-1 if inverse is set (zero and None if a is singular):
    Gauss-Jordan on [a | 1], or forward elimination on a alone, clearing
    only the rows below each pivot.  det is the product of the pivots,
    negated per row swap.  Entries go through ``field.embed`` (an int is
    exact, a float raises CoefficientError); a non-square a RealizationError."""
    n = len(a)
    if set(map(len, a)) - {n}:
        what = "invert" if inverse else "take the determinant of"
        raise RealizationError(f"cannot {what} a {_shape(a)} matrix: it is not square")
    work = [[field.embed(x) for x in row] for row in a]
    for row, idrow in zip(work, mat_identity(n, field) if inverse else ()):
        row.extend(idrow)
    det = field.one()
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            return field.zero(), None
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det = det * work[col][col]
        if inverse or col < n - 1:
            _eliminate(work, col, col, 0 if inverse else col + 1)
    return det, tuple(tuple(row[n:]) for row in work) if inverse else None


def mat_det_inv(a: Matrix, field):
    """det(a) and a^-1, or zero and None, by Gauss-Jordan: the route for a
    matrix not known to be theta-fixed (a theta-fixed g has g^-1 = J g^T
    J^-1, its flip, which is how ``Realization`` inverts one)."""
    return _pivots(a, field, True)


def mat_inv(a: Matrix, field) -> Matrix:
    inv = mat_det_inv(a, field)[1]
    if inv is None:
        raise RealizationError("singular matrix")
    return inv


def mat_det(a: Matrix, field):
    """det(a) from the pivots of forward elimination on a alone."""
    return _pivots(a, field, False)[0]


def exp_nilpotent(x: Matrix, field) -> Matrix:
    """exp of a nilpotent matrix; the factorials that occur must be units."""
    n = len(x)
    out = mat_identity(n, field)
    term = x
    fact = 1
    for k in range(1, n + 1):
        if k > 1:
            term = mat_mul(term, x)
        if not any(v for row in term for v in row):
            break
        fact *= k
        if field.char and fact % field.char == 0:
            raise RealizationError(f"{k}! is not invertible in {field.name}")
        coeff = field.embed(fact) ** -1
        out = mat_add(out, mat_scalar(term, coeff))
    return out


# ---------------------------------------------------------------------------
# the SL(n) context
# ---------------------------------------------------------------------------

class MatrixContext:
    """SL(n) with the standard upper-triangular pinning, and optionally the
    order-2 pinned automorphism g -> J (g^T)^{-1} J^{-1} for the antidiagonal
    J with alternating signs."""

    def __init__(self, n: int, field=None, twisted: bool = False):
        if n < 2:
            raise RealizationError("SL(n) needs n >= 2")
        self.n = n
        self.field = field if field is not None else RationalField()
        self.datum = build_root_datum([("A", n - 1)])
        self.twisted = twisted
        self._lift_cache = {}
        # (fiber, coroot) -> ((X, H, Y), simple lift, {key: pinned_factor})
        self._pinning_cache = {}
        if twisted:
            perm = tuple(n - 2 - i for i in range(n - 1))
            self.theta = PinnedAutomorphism(self.datum, perm)
            one, zero = self.field.one(), self.field.zero()
            self.J = tuple(tuple((-one if (n - 1 - i) % 2 else one) if j == n - 1 - i else zero
                                 for j in range(n)) for i in range(n))
            self._check_pinning_preserved()
        else:
            self.theta = self.J = None

    # -- pinning -------------------------------------------------------------

    def unit_upper(self, i: int):
        """Root vector X_{alpha_i} = E_{i,i+1} (0-based simple index)."""
        zero, one = self.field.zero(), self.field.one()
        return tuple(tuple(one if (r == i and c == i + 1) else zero
                           for c in range(self.n)) for r in range(self.n))

    def simple_lift_matrix(self, i: int) -> Matrix:
        """n(alpha_i): the block [[0,1],[-1,0]] in rows/cols i, i+1."""
        return block_embed(self, i, ((0, 1), (-1, 0)))

    def torus_matrix(self, t: TorusElement) -> Matrix:
        """Diagonal matrix of a simple-coroot coordinate vector."""
        if t.rank != self.n - 1:
            raise RealizationError("rank mismatch")
        # entry i is t_i / t_(i-1), t_0 = t_n = 1; embed keeps a field element as it is
        one, zero = self.field.one(), self.field.zero()
        coords = [self.field.embed(c) for c in t.coords]
        diag = [c / prev for c, prev in zip(coords + [one], [one] + coords)]
        return tuple(tuple(diag[i] if i == j else zero for j in range(self.n))
                     for i in range(self.n))

    def torus_coords_of_diagonal(self, m: Matrix) -> TorusElement:
        self._check_square(m, "torus_coords_of_diagonal")
        if any(m[i][j] for i in range(self.n) for j in range(self.n) if i != j):
            raise RealizationError("matrix is not diagonal")
        acc = self.field.one()
        coords = []
        for i in range(self.n - 1):
            acc = acc * m[i][i]
            coords.append(acc)
        return TorusElement(tuple(coords))

    def weyl_lift_matrix(self, w: WeylElement) -> Matrix:
        cached = self._lift_cache.get(w.word)
        if cached is None:
            cached = mat_identity(self.n, self.field)
            for i in w.word:
                cached = mat_mul(cached, self.simple_lift_matrix(i))
            self._lift_cache[w.word] = cached
        return cached

    def cochar_matrix(self, coroot_coords: Sequence[int], value) -> Matrix:
        return self.torus_matrix(TorusElement.coroot_product(
            len(coroot_coords), [(coroot_coords, self.field.embed(value))], self.field.one()))

    def _check_square(self, g: Matrix, what: str) -> None:
        """RealizationError naming what and the shape of g unless g is n x n."""
        n = self.n
        if len(g) != n or set(map(len, g)) != {n}:
            raise RealizationError(f"{what} takes a {n}x{n} matrix on SL({n}), "
                                   f"not a {_shape(g)} matrix")

    # -- theta ----------------------------------------------------------------

    def _flip(self, x: Matrix, negate: bool = False) -> Matrix:
        """J x^T J^-1 (negated if negate is set), with entry (i, j) equal to
        (-1)^(i+j) x[n-1-j][n-1-i]: the one entry of row i of J is J[i][n-1-i]
        = (-1)^(n-1-i), so J^2 = (-1)^(n-1), J^-1 = (-1)^(n-1) J, and the sign
        of J[i][n-1-i] J^-1[n-1-j][j] is (-1)^((n-1-i) + (n-1) + j) = (-1)^(i+j).
        Entries are moved, and negated where the sign is -1, never embedded."""
        n = self.n
        return tuple(tuple(-x[n - 1 - j][n - 1 - i] if (i + j + negate) % 2
                           else x[n - 1 - j][n - 1 - i] for j in range(n)) for i in range(n))

    def theta_apply(self, g: Matrix) -> Matrix:
        """J (g^-1)^T J^-1, the flip of g^-1; a singular g raises RealizationError."""
        if self.J is None:
            raise RealizationError("context carries no automorphism")
        self._check_square(g, "theta_apply")
        return self._flip(mat_inv(g, self.field))

    def theta_fixed(self, g: Matrix) -> bool:
        """Whether theta(g) = g, tested as g J g^T J^-1 = 1 with no inverse (so
        a singular g is never fixed): over Q and F_p as g, embedded, times its
        flip; over Q(sqrt(d)) as the ``_quad_rows`` of g and its flip, which
        must be those of 1 (B = 0, A[i] = C[i], every other A zero).  There g
        is flipped on its integer rows, (k, a, b, c) of row r to row n-1-k,
        column n-1-r, sign (-1)^(k+r): flipping QuadNums cost descent 4.5-8 %."""
        if self.J is None:
            raise RealizationError("context carries no automorphism")
        self._check_square(g, "theta_fixed")
        f, n = self.field, self.n
        if not isinstance(f, QuadField):
            g = tuple(tuple(map(f.embed, row)) for row in g)
            return mat_eq(mat_mul(g, self._flip(g)), mat_identity(n, f))
        rows, flipped = [_nonzero_parts(row, f.d) for row in g], [[] for _ in range(n)]
        for r, row in enumerate(rows):
            for k, a, b, c in row:
                flipped[n - 1 - k].append((n - 1 - r, -a, -b, c) if (k + r) % 2
                                          else (n - 1 - r, a, b, c))
        for i, (ta, tb, tc) in enumerate(_quad_rows(rows, flipped, n, f.d)):
            if any(tb) or ta[i] != tc[i] or any(ta[:i]) or any(ta[i + 1:]):
                return False
        return True

    def dtheta_apply(self, x: Matrix) -> Matrix:
        """d theta(x) = -J x^T J^-1, the negated flip of x."""
        if self.J is None:
            raise RealizationError("context carries no automorphism")
        self._check_square(x, "dtheta_apply")
        return self._flip(x, negate=True)

    def _check_pinning_preserved(self):
        for i in range(self.n - 1):
            img = self.dtheta_apply(self.unit_upper(i))
            want = self.unit_upper(self.theta.perm[i])
            if not mat_eq(img, want):
                raise RealizationError("automorphism does not preserve the pinning")
        gt2 = self.theta_apply(self.theta_apply(_generic_probe(self)))
        if not mat_eq(gt2, _generic_probe(self)):
            raise RealizationError("automorphism does not square to the identity")

    def galois_apply(self, g: Matrix, k: int = 1) -> Matrix:
        """sigma^k applied to each entry: sigma conjugates Q(sqrt(d)) and is
        trivial on Q and F_p.  Over Q(sqrt(d)) the conjugate of (a, b, c),
        read in place or through ``quad_parts`` (which refuses an entry
        outside the field), is (a, -b, c); a QuadNum with b = 0 is kept."""
        self._check_square(g, "galois_apply")
        f = self.field
        if not (k % 2 and isinstance(f, QuadField)):
            return g
        d = f.d
        out = []
        for row in g:
            new_row = []
            for x in row:
                a, b, c, _ = x._v if type(x) is QuadNum and x._v[3] == d else quad_parts(x, d)
                new_row.append(x if not b and type(x) is QuadNum else _new_quad(a, -b, c, d))
            out.append(tuple(new_row))
        return tuple(out)

    def __repr__(self):
        tail = ", twisted" if self.twisted else ""
        return f"MatrixContext(SL({self.n}) over {self.field.name}{tail})"


def _generic_probe(ctx: MatrixContext) -> Matrix:
    # an invertible matrix with distinct entries, to witness identities
    m = tuple(tuple(ctx.field.embed(int(i == j) + (i + 2 * j) % 3) for j in range(ctx.n))
              for i in range(ctx.n))
    if not mat_det(m, ctx.field):
        m = mat_add(m, mat_identity(ctx.n, ctx.field))
    return m


def realize(ctx: MatrixContext, x) -> Matrix:
    """Matrix of a torus element or a normalizer point."""
    if isinstance(x, TorusElement):
        return ctx.torus_matrix(x)
    if isinstance(x, TitsElement):
        return mat_mul(ctx.torus_matrix(x.torus), ctx.weyl_lift_matrix(x.weyl))
    raise RealizationError(f"cannot realize {type(x).__name__}")


# ---------------------------------------------------------------------------
# SL(2) points: the pinned rank-1 blocks and the adjoint maps into SL(3)
# ---------------------------------------------------------------------------

def _sl2_entries(f, g2: Sequence[Sequence]) -> tuple:
    """The entries a, b, c, d of g2 in the field f, checked to have ad - bc = 1."""
    a, b = f.embed(g2[0][0]), f.embed(g2[0][1])
    c, d = f.embed(g2[1][0]), f.embed(g2[1][1])
    if a * d - b * c != f.one():
        raise RealizationError("input is not unimodular")
    return a, b, c, d


def block_embed(ctx: MatrixContext, i: int, g2: Sequence[Sequence]) -> Matrix:
    """g2 in rows and columns i, i+1 of the identity: the SL(2) of alpha_i
    (0-based), written out by hand, not read off the pinning it checks."""
    if not 0 <= i < ctx.n - 1:
        raise RealizationError(f"simple root index {i} out of range for SL({ctx.n})")
    rows = [list(r) for r in mat_identity(ctx.n, ctx.field)]
    rows[i][i], rows[i][i + 1], rows[i + 1][i], rows[i + 1][i + 1] = _sl2_entries(ctx.field, g2)
    return tuple(tuple(r) for r in rows)


def ad(ctx: MatrixContext, g2: Sequence[Sequence]) -> Matrix:
    """Adjoint map SL(2) -> SL(3) in the basis (X, H, Y) with X = [[0,-1],[0,0]]:
    entries [[a^2, 2ab, b^2], [ac, ad+bc, bd], [c^2, 2cd, d^2]]."""
    if ctx.n != 3:
        raise RealizationError("adjoint maps target SL(3)")
    f = ctx.field
    a, b, c, d = _sl2_entries(f, g2)
    two = f.embed(2)
    return (
        (a * a, two * a * b, b * b),
        (a * c, a * d + b * c, b * d),
        (c * c, two * c * d, d * d),
    )


def adprime(ctx: MatrixContext, g2: Sequence[Sequence]) -> Matrix:
    """The adjoint map conjugated by diag(1,2,2); lands in the fixed subgroup
    of the order-2 automorphism.  Needs 2 invertible."""
    if ctx.field.char == 2:
        raise RealizationError("adprime undefined in characteristic 2")
    two, half = ctx.field.embed(2), ctx.field.half()
    # D ad D^-1 with D = diag(1, 2, 2): entry (i, j) times d_i / d_j
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = ad(ctx, g2)
    return ((m00, m01 * half, m02 * half),
            (m10 * two, m11, m12),
            (m20 * two, m21, m22))


# ---------------------------------------------------------------------------
# the pinning of the fixed subgroup
# ---------------------------------------------------------------------------

def restricted_root_vectors(ctx: MatrixContext, rrs, beta) -> Tuple[Matrix, Matrix, Matrix]:
    """(X_beta, H_beta, Y_beta) for a simple restricted root: X_beta is the
    sum of the pinned root vectors over the fiber of beta, H_beta the
    derivative of the restricted coroot, and Y_beta the unique lower
    completion to an sl(2) triple."""
    return _pinning(ctx, rrs, beta)[0]


def _pinning(ctx: MatrixContext, rrs, beta) -> Tuple[tuple, Matrix, dict]:
    """The triple of restricted_root_vectors, the fixed-group simple lift
    exp(X) exp(-Y) exp(X) built from it, and the dict of ``pinned_factor``,
    computed once per context: all read only the fiber and the coroot of
    beta, which key the cache."""
    beta = tuple(beta)
    if beta not in rrs.simple_restricted:
        raise RealizationError(f"{beta} is not a simple restricted root")
    rr = rrs.restricted[beta]
    key = (rr.orbit, rr.coroot)
    entry = ctx._pinning_cache.get(key)
    if entry is None:
        x, h, y = triple = _solve_pinning(ctx, rr)
        ex = exp_nilpotent(x, ctx.field)
        ey = exp_nilpotent(mat_scalar(y, -ctx.field.one()), ctx.field)
        entry = ctx._pinning_cache[key] = (triple, mat_prod(ex, ey, ex), {})
    return entry


def pinned_factor(ctx: MatrixContext, rrs, beta, key, build) -> Matrix:
    """build(), a matrix that depends only on ctx, beta and key, built once
    per context and kept beside the pinning of beta."""
    built = _pinning(ctx, rrs, beta)[2]
    out = built.get(key)
    if out is None:
        out = built[key] = build()
    return out


def _solve_pinning(ctx: MatrixContext, rr) -> Tuple[Matrix, Matrix, Matrix]:
    """The sl(2) triple of restricted_root_vectors from the fiber and the
    coroot of rr, which are all it reads.  X is the sum of E_{i,i+1} over
    the simple indices i of the fiber.  [E_{i,i+1}, E_{j+1,j}] is
    E_ii - E_{i+1,i+1} for i = j and zero otherwise, so Y = sum y_i E_{i+1,i}
    over the fiber has [X, Y] = H = sum_i coroot_i (E_ii - E_{i+1,i+1})
    exactly when y is the coroot and the coroot lives on the fiber."""
    f, n, coroot = ctx.field, ctx.n, rr.coroot
    simple_idx = []
    for coords in rr.orbit:
        if sum(abs(c) for c in coords) != 1:
            raise RealizationError("fiber of a simple restricted root is not simple")
        simple_idx.append(next(k for k, c in enumerate(coords) if c))
    if any(e for i, e in enumerate(coroot) if i not in simple_idx):
        raise RealizationError("no sl(2) completion over the given positions")
    diag = [0] * n
    for i, e in enumerate(coroot):
        diag[i] += e
        diag[i + 1] -= e

    def matrix(entry):
        return tuple(tuple(f.embed(entry(r, c)) for c in range(n)) for r in range(n))

    return (matrix(lambda r, c: int(c == r + 1 and r in simple_idx)),
            matrix(lambda r, c: diag[r] if r == c else 0),
            matrix(lambda r, c: coroot[c] if r == c + 1 and c in simple_idx else 0))


def fixed_group_simple_lift(ctx: MatrixContext, rrs, beta) -> Matrix:
    """The canonical lift in the fixed subgroup attached to a simple
    restricted root, via exp(X) exp(-Y) exp(X)."""
    return _pinning(ctx, rrs, beta)[1]


def fixed_group_lift(ctx: MatrixContext, rrs, omega: WeylElement) -> Matrix:
    """Lift of a theta-fixed Weyl element through the fixed subgroup's own
    pinning, along a reduced word in simple restricted reflections."""
    word = rrs.res_word_of(omega)
    if not word:
        return mat_identity(ctx.n, ctx.field)
    return mat_prod(*(fixed_group_simple_lift(ctx, rrs, rrs.simple_restricted[gi])
                      for gi in word))


def sl2_embed(ctx: MatrixContext, rrs, beta, g2: Sequence[Sequence]) -> Matrix:
    """Image of an SL(2) point under the rank-1 subgroup attached to a simple
    restricted root of the fixed subgroup."""
    f = ctx.field
    a, b, c, d = _sl2_entries(f, g2)
    x, _, y = restricted_root_vectors(ctx, rrs, beta)
    coroot = rrs.restricted[tuple(beta)].coroot
    if a != f.zero():
        lower = exp_nilpotent(mat_scalar(y, c / a), f)
        torus = ctx.cochar_matrix(coroot, a)
        upper = exp_nilpotent(mat_scalar(x, b / a), f)
        return mat_prod(lower, torus, upper)
    # [[0, b], [-1/b, d]] = beta_vee(b) * n'(beta) * exp(-d*b X)
    torus = ctx.cochar_matrix(coroot, b)
    nb = fixed_group_simple_lift(ctx, rrs, beta)
    upper = exp_nilpotent(mat_scalar(x, -d * b), f)
    return mat_prod(torus, nb, upper)


# ---------------------------------------------------------------------------
# appendix-style verification
# ---------------------------------------------------------------------------

def verify_appendix(ctx: MatrixContext, rng=None) -> List[Tuple[str, bool]]:
    """The SL(3) ground-truth computations, as (name, ok) pairs: the standard
    lift of the long Weyl element, its counterpart through the fixed
    subgroup's pinning, the relating half-coroot factor, the swap of the two
    rank-1 pinnings, and the fixed Weyl subgroup."""
    if ctx.n != 3 or not ctx.twisted:
        raise RealizationError("appendix verification requires the twisted SL(3) context")
    import random
    rng = rng or random.Random(0)
    f = ctx.field
    checks: List[Tuple[str, bool]] = []
    datum = ctx.datum

    n1 = ctx.simple_lift_matrix(0)
    n2 = ctx.simple_lift_matrix(1)
    n3 = mat_prod(n1, n2, n1)
    checks.append(("n3 = n1 n2 n1 = n2 n1 n2", mat_eq(n3, mat_prod(n2, n1, n2))))
    want_n3 = tuple(tuple(f.embed(v) for v in row)
                    for row in ((0, 0, 1), (0, -1, 0), (1, 0, 0)))
    checks.append(("n3 explicit matrix", mat_eq(n3, want_n3)))
    checks.append(("theta fixes n3", ctx.theta_fixed(n3)))

    # the lift through the fixed subgroup and the half-coroot discrepancy
    from .rootdata import restrict_root_system
    rrs = restrict_root_system(datum, ctx.theta)
    w0 = datum.longest_element()
    n3p = fixed_group_lift(ctx, rrs, w0)
    want_n3p = ((f.zero(), f.zero(), f.half()),
                (f.zero(), -f.one(), f.zero()),
                (f.embed(2), f.zero(), f.zero()))
    checks.append(("n3' explicit matrix", mat_eq(n3p, want_n3p)))
    alpha3_coroot = (1, 1)
    half_co = ctx.cochar_matrix(alpha3_coroot, f.half())
    checks.append(("n3' = (1/2)^{alpha3_vee} n3", mat_eq(n3p, mat_mul(half_co, n3))))
    checks.append(("n3' equals the rank-1 adjoint image of [[0,1],[-1,0]]",
                   mat_eq(n3p, adprime(ctx, ((0, 1), (-1, 0))))))

    # theta swaps the two rank-1 pinnings
    ok = all(mat_eq(ctx.theta_apply(block_embed(ctx, 0, g2)), block_embed(ctx, 1, g2))
             for g2 in (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 1), (1, 1))))
    checks.append(("theta composed with the first rank-1 pinning is the second", ok))

    # fixed points of theta in the Weyl group
    fixed = {w for w in datum.weyl_group() if ctx.theta.commutes_with(w)}
    checks.append(("fixed Weyl subgroup is {1, w0}",
                   fixed == {datum.identity_weyl(), w0}))

    # the unipotent image of the conjugated adjoint map, random samples
    ok = True
    for _ in range(20):
        xval = Fraction(rng.randint(-40, 40), _unit_den(rng, f))
        x = f.embed(xval)
        img = adprime(ctx, ((1, xval), (0, 1)))
        want = ((f.one(), x, f.half() * x * x),
                (f.zero(), f.one(), x),
                (f.zero(), f.zero(), f.one()))
        ok = ok and mat_eq(img, want)
    checks.append(("adprime on upper unipotents", ok))

    ok = True
    for _ in range(5):
        g2 = _random_sl2(rng, f)
        a, b = g2[0]
        m = ad(ctx, g2)
        ok = ok and m[0][1] == f.embed(2) * f.embed(a) * f.embed(b)
    checks.append(("ad has doubled (1,2) entry", ok))

    ok = True
    for _ in range(10):
        g2 = _random_sl2(rng, f)
        img = adprime(ctx, g2)
        ok = ok and ctx.theta_fixed(img)
        ok = ok and mat_det(img, f) == f.one()
    checks.append(("adprime lands in the fixed subgroup", ok))
    return checks


def _unit_den(rng, field) -> int:
    while True:
        den = rng.randint(1, 12)
        if not field.char or den % field.char:
            return den


def _random_sl2(rng, field) -> Tuple[Tuple, Tuple]:
    while True:
        a, b, c = (Fraction(rng.randint(-6, 6)) for _ in range(3))
        if a != 0 and (not field.char or a % field.char):
            return ((a, b), (c, (1 + b * c) / a))
