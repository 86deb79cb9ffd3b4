"""Explicit SL(n) realizations over exact fields.

These matrices are the ground truth for the abstract normalizer model: the
canonical lifts, their products, the order-2 pinned automorphism given by
conjugated inverse-transpose, the fixed subgroup with its own pinning, and
the rank-1 adjoint maps into SL(3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Sequence, Tuple

from .coeffs import RationalField
from .errors import RealizationError
from .rootdata import PinnedAutomorphism, WeylElement, build_root_datum
from .tits import TitsElement, TorusElement

Matrix = Tuple[tuple, ...]


# ---------------------------------------------------------------------------
# generic exact matrix helpers
# ---------------------------------------------------------------------------

def mat_identity(n: int, field) -> Matrix:
    one, zero = field.one(), field.zero()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, m, k = len(a), len(b[0]), len(b)
    return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(1, k)),
                           a[i][0] * b[0][j]) for j in range(m)) for i in range(n))


def mat_prod(*ms: Matrix) -> Matrix:
    out = ms[0]
    for m in ms[1:]:
        out = mat_mul(out, m)
    return out


def mat_transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_scalar(a: Matrix, c) -> Matrix:
    return tuple(tuple(c * x if x else x for x in row) for row in a)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _eliminate(work: List[list], col: int, prow: int) -> None:
    """Scale row prow of work to a pivot 1 in column col and clear column col
    from every other row, touching only the nonzero entries of the pivot row
    (subtracting a zero multiple changes no value)."""
    pivot = work[prow]
    inv_p = pivot[col] ** -1
    for j, x in enumerate(pivot):
        if x:
            pivot[j] = x * inv_p
    support = [(j, y) for j, y in enumerate(pivot) if y]
    for r, row in enumerate(work):
        f = row[col]
        if r != prow and f:
            for j, y in support:
                row[j] = row[j] - f * y


def mat_inv(a: Matrix, field) -> Matrix:
    """Gauss-Jordan over an exact field."""
    n = len(a)
    work = [list(row) + list(idrow) for row, idrow in zip(a, mat_identity(n, field))]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise RealizationError("singular matrix")
        work[col], work[piv] = work[piv], work[col]
        _eliminate(work, col, col)
    return tuple(tuple(row[n:]) for row in work)


def mat_det(a: Matrix, field):
    n = len(a)
    work = [list(row) for row in a]
    det = field.one()
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            return field.zero()
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = -det
        det = det * work[col][col]
        inv_p = work[col][col] ** -1
        for r in range(col + 1, n):
            if work[r][col]:
                f = work[r][col] * inv_p
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return det


def mat_conj_entries(a: Matrix, field, k: int = 1) -> Matrix:
    out = a
    for _ in range(k % field.conj_order if field.conj_order > 1 else 0):
        out = tuple(tuple(field.conj(x) for x in row) for row in out)
    return out


def mat_is_diagonal(a: Matrix, field) -> bool:
    return not any(a[i][j] for i in range(len(a)) for j in range(len(a)) if i != j)


def exp_nilpotent(x: Matrix, field) -> Matrix:
    """exp of a nilpotent matrix; the factorials that occur must be units."""
    n = len(x)
    out = mat_identity(n, field)
    term = mat_identity(n, field)
    fact = 1
    for k in range(1, n + 1):
        term = mat_mul(term, x)
        if not any(v for row in term for v in row):
            break
        fact *= k
        if field.char and fact % field.char == 0:
            raise RealizationError(f"{k}! is not invertible in {field.name}")
        coeff = field.from_int(fact) ** -1
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
        self._pinning_cache = {}   # (fiber, coroot) -> restricted_root_vectors
        if twisted:
            perm = tuple(n - 2 - i for i in range(n - 1))
            self.theta = PinnedAutomorphism(self.datum, perm)
            one = self.field.one()
            zero = self.field.zero()
            self.J = tuple(tuple((one if (n - 1 - i) % 2 == 0 else -one)
                                 if j == n - 1 - i else zero
                                 for j in range(n)) for i in range(n))
            self._J_inv = mat_inv(self.J, self.field)
            self._check_pinning_preserved()
        else:
            self.theta = None
            self.J = None

    # -- pinning -------------------------------------------------------------

    def unit_upper(self, i: int):
        """Root vector X_{alpha_i} = E_{i,i+1} (0-based simple index)."""
        zero, one = self.field.zero(), self.field.one()
        return tuple(tuple(one if (r == i and c == i + 1) else zero
                           for c in range(self.n)) for r in range(self.n))

    def unit_lower(self, i: int):
        zero, one = self.field.zero(), self.field.one()
        return tuple(tuple(one if (r == i + 1 and c == i) else zero
                           for c in range(self.n)) for r in range(self.n))

    def simple_lift_matrix(self, i: int) -> Matrix:
        """n(alpha_i): the block [[0,1],[-1,0]] in rows/cols i, i+1."""
        zero, one = self.field.zero(), self.field.one()
        rows = [[one if r == c else zero for c in range(self.n)] for r in range(self.n)]
        rows[i][i] = zero
        rows[i][i + 1] = one
        rows[i + 1][i] = -one
        rows[i + 1][i + 1] = zero
        return tuple(tuple(r) for r in rows)

    def torus_matrix(self, t: TorusElement) -> Matrix:
        """Diagonal matrix of a simple-coroot coordinate vector."""
        if t.rank != self.n - 1:
            raise RealizationError("rank mismatch")
        try:
            coords = [self.field.embed(c) if not isinstance(c, type(self.field.one()))
                      else c for c in t.coords]
        except TypeError:
            raise RealizationError(
                "torus coordinates cannot be embedded into the context field") from None
        diag = []
        prev = self.field.one()
        for i in range(self.n - 1):
            diag.append(coords[i] / prev if i else coords[0])
            prev = coords[i]
        diag.append(self.field.one() / prev)
        zero = self.field.zero()
        return tuple(tuple(diag[i] if i == j else zero for j in range(self.n))
                     for i in range(self.n))

    def torus_coords_of_diagonal(self, m: Matrix) -> TorusElement:
        if not mat_is_diagonal(m, self.field):
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
        value = self.field.embed(value)
        t = TorusElement.cochar_power(tuple(coroot_coords), value, self.field.one())
        return self.torus_matrix(t)

    # -- theta ----------------------------------------------------------------

    def theta_apply(self, g: Matrix) -> Matrix:
        if self.J is None:
            raise RealizationError("context carries no automorphism")
        return mat_prod(self.J, mat_transpose(mat_inv(g, self.field)), self._J_inv)

    def dtheta_apply(self, x: Matrix) -> Matrix:
        if self.J is None:
            raise RealizationError("context carries no automorphism")
        return mat_scalar(mat_prod(self.J, mat_transpose(x), self._J_inv),
                          -self.field.one())

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
        return mat_conj_entries(g, self.field, k)

    def __repr__(self):
        tail = ", twisted" if self.twisted else ""
        return f"MatrixContext(SL({self.n}) over {self.field.name}{tail})"


def _generic_probe(ctx: MatrixContext) -> Matrix:
    # an invertible matrix with distinct entries, to witness identities
    vals = [[ctx.field.from_int(1 if i == j else 0) + ctx.field.from_int((i + 2 * j) % 3)
             for j in range(ctx.n)] for i in range(ctx.n)]
    m = tuple(tuple(row) for row in vals)
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
# rank-1 adjoint maps into SL(3)
# ---------------------------------------------------------------------------

def ad(ctx: MatrixContext, g2: Sequence[Sequence]) -> Matrix:
    """Adjoint map SL(2) -> SL(3) in the basis (X, H, Y) with X = [[0,-1],[0,0]]:
    entries [[a^2, 2ab, b^2], [ac, ad+bc, bd], [c^2, 2cd, d^2]]."""
    if ctx.n != 3:
        raise RealizationError("adjoint maps target SL(3)")
    f = ctx.field
    a, b = f.embed(g2[0][0]), f.embed(g2[0][1])
    c, d = f.embed(g2[1][0]), f.embed(g2[1][1])
    if a * d - b * c != f.one():
        raise RealizationError("input is not unimodular")
    two = f.from_int(2)
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
    f = ctx.field
    half = f.half()
    two = f.from_int(2)
    m = ad(ctx, g2)
    a, b = f.embed(g2[0][0]), f.embed(g2[0][1])
    c, d = f.embed(g2[1][0]), f.embed(g2[1][1])
    return (
        (a * a, a * b, half * b * b),
        (two * a * c, a * d + b * c, b * d),
        (two * c * c, two * c * d, d * d),
    )


# ---------------------------------------------------------------------------
# the pinning of the fixed subgroup
# ---------------------------------------------------------------------------

def restricted_root_vectors(ctx: MatrixContext, rrs, beta) -> Tuple[Matrix, Matrix, Matrix]:
    """(X_beta, H_beta, Y_beta) for a simple restricted root: X_beta is the
    sum of the pinned root vectors over the fiber of beta, H_beta the
    derivative of the restricted coroot, and Y_beta the unique lower
    completion to an sl(2) triple."""
    beta = tuple(beta)
    if beta not in rrs.simple_restricted:
        raise RealizationError(f"{beta} is not a simple restricted root")
    rr = rrs.restricted[beta]
    key = (rr.orbit, rr.coroot)
    triple = ctx._pinning_cache.get(key)
    if triple is None:
        triple = ctx._pinning_cache[key] = _solve_pinning(ctx, rr)
    return triple


def _solve_pinning(ctx: MatrixContext, rr) -> Tuple[Matrix, Matrix, Matrix]:
    """The sl(2) triple of restricted_root_vectors from the fiber and the
    coroot of rr, which are all it reads."""
    f = ctx.field
    zero = f.zero()
    simple_idx = []
    for coords in rr.orbit:
        i = next((k for k, c in enumerate(coords) if c), None)
        if sum(abs(c) for c in coords) != 1:
            raise RealizationError("fiber of a simple restricted root is not simple")
        simple_idx.append(i)
    x = tuple(tuple(sum((1 if (r == i and c == i + 1) else 0) for i in simple_idx)
                    for c in range(ctx.n)) for r in range(ctx.n))
    x = tuple(tuple(f.from_int(v) for v in row) for row in x)
    h_exps = rr.coroot
    diag = [0] * ctx.n
    for i, e in enumerate(h_exps):
        diag[i] += e
        diag[i + 1] -= e
    h = tuple(tuple(f.from_int(diag[r]) if r == c else zero for c in range(ctx.n))
              for r in range(ctx.n))
    # solve [x, sum y_i E_{i+1,i}] = h over the same simple positions
    k = len(simple_idx)
    basis = [tuple(tuple(f.one() if (r == i + 1 and c == i) else zero
                         for c in range(ctx.n)) for r in range(ctx.n))
             for i in simple_idx]
    brackets = [mat_add(mat_mul(x, bi), mat_scalar(mat_mul(bi, x), -f.one()))
                for bi in basis]
    # equations indexed by matrix positions
    sols = _solve_exact(brackets, h, f, ctx.n, k)
    y = tuple(tuple(sum((sols[t] * basis[t][r][c] for t in range(1, k)),
                        sols[0] * basis[0][r][c]) for c in range(ctx.n))
              for r in range(ctx.n))
    return x, h, y


def _solve_exact(brackets, target, field, n, k):
    """Solve sum_t c_t * brackets[t] == target entrywise."""
    rows, rhs = [], []
    for r in range(n):
        for c in range(n):
            row = [brackets[t][r][c] for t in range(k)]
            if any(row) or target[r][c]:
                rows.append(row)
                rhs.append(target[r][c])
    # Gaussian elimination on the k-column system
    m = len(rows)
    sol = [field.zero()] * k
    used_cols = []
    work = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    rank = 0
    for col in range(k):
        piv = next((r for r in range(rank, m) if work[r][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        _eliminate(work, col, rank)
        used_cols.append(col)
        rank += 1
    for r in range(rank, m):
        if work[r][k]:
            raise RealizationError("no sl(2) completion over the given positions")
    for r, col in enumerate(used_cols):
        sol[col] = work[r][k]
    return sol


def fixed_group_simple_lift(ctx: MatrixContext, rrs, beta) -> Matrix:
    """The canonical lift in the fixed subgroup attached to a simple
    restricted root, via exp(X) exp(-Y) exp(X)."""
    x, _, y = restricted_root_vectors(ctx, rrs, beta)
    ex = exp_nilpotent(x, ctx.field)
    ey = exp_nilpotent(mat_scalar(y, -ctx.field.one()), ctx.field)
    return mat_prod(ex, ey, ex)


def fixed_group_lift(ctx: MatrixContext, rrs, omega: WeylElement) -> Matrix:
    """Lift of a theta-fixed Weyl element through the fixed subgroup's own
    pinning, along a reduced word in simple restricted reflections."""
    word = rrs.res_word_of(omega)
    out = mat_identity(ctx.n, ctx.field)
    for gi in word:
        beta = rrs.simple_restricted[gi]
        out = mat_mul(out, fixed_group_simple_lift(ctx, rrs, beta))
    return out


def sl2_embed(ctx: MatrixContext, rrs, beta, g2: Sequence[Sequence]) -> Matrix:
    """Image of an SL(2) point under the rank-1 subgroup attached to a simple
    restricted root of the fixed subgroup."""
    f = ctx.field
    a, b = f.embed(g2[0][0]), f.embed(g2[0][1])
    c, d = f.embed(g2[1][0]), f.embed(g2[1][1])
    if a * d - b * c != f.one():
        raise RealizationError("input is not unimodular")
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

@dataclass
class AppendixReport:
    checks: List[Tuple[str, bool]] = field(default_factory=list)

    def record(self, name: str, ok: bool):
        self.checks.append((name, ok))

    @property
    def ok(self) -> bool:
        return all(ok for _, ok in self.checks)


def verify_appendix(ctx: MatrixContext, rng=None) -> AppendixReport:
    """The SL(3) ground-truth computations: the standard lift of the long
    Weyl element, its counterpart through the fixed subgroup's pinning, the
    relating half-coroot factor, the swap of the two rank-1 pinnings, and the
    fixed Weyl subgroup."""
    if ctx.n != 3 or not ctx.twisted:
        raise RealizationError("appendix verification requires the twisted SL(3) context")
    import random
    rng = rng or random.Random(0)
    f = ctx.field
    rep = AppendixReport()
    datum = ctx.datum

    n1 = ctx.simple_lift_matrix(0)
    n2 = ctx.simple_lift_matrix(1)
    n3 = mat_prod(n1, n2, n1)
    rep.record("n3 = n1 n2 n1 = n2 n1 n2", mat_eq(n3, mat_prod(n2, n1, n2)))
    want_n3 = tuple(tuple(f.from_int(v) for v in row)
                    for row in ((0, 0, 1), (0, -1, 0), (1, 0, 0)))
    rep.record("n3 explicit matrix", mat_eq(n3, want_n3))
    rep.record("theta fixes n3", mat_eq(ctx.theta_apply(n3), n3))

    # the lift through the fixed subgroup and the half-coroot discrepancy
    from .rootdata import restrict_root_system
    rrs = restrict_root_system(datum, ctx.theta)
    w0 = datum.longest_element()
    n3p = fixed_group_lift(ctx, rrs, w0)
    want_n3p = ((f.zero(), f.zero(), f.half()),
                (f.zero(), -f.one(), f.zero()),
                (f.from_int(2), f.zero(), f.zero()))
    rep.record("n3' explicit matrix", mat_eq(n3p, want_n3p))
    alpha3_coroot = (1, 1)
    half_co = ctx.cochar_matrix(alpha3_coroot, f.half())
    rep.record("n3' = (1/2)^{alpha3_vee} n3", mat_eq(n3p, mat_mul(half_co, n3)))
    rep.record("n3' equals the rank-1 adjoint image of [[0,1],[-1,0]]",
               mat_eq(n3p, adprime(ctx, ((0, 1), (-1, 0)))))

    # theta swaps the two rank-1 pinnings
    ok = True
    for g2 in (((1, 1), (0, 1)), ((1, 0), (1, 1)), ((2, 1), (1, 1))):
        xi1 = _xi(ctx, 0, g2)
        xi2 = _xi(ctx, 1, g2)
        ok = ok and mat_eq(ctx.theta_apply(xi1), xi2)
    rep.record("theta composed with the first rank-1 pinning is the second", ok)

    # fixed points of theta in the Weyl group
    fixed = {w for w in datum.weyl_group() if ctx.theta.commutes_with(w)}
    rep.record("fixed Weyl subgroup is {1, w0}",
               fixed == {datum.identity_weyl(), w0})

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
    rep.record("adprime on upper unipotents", ok)

    ok = True
    for _ in range(5):
        g2 = _random_sl2(rng, f)
        a, b = g2[0]
        m = ad(ctx, g2)
        ok = ok and m[0][1] == f.embed(2) * f.embed(a) * f.embed(b)
    rep.record("ad has doubled (1,2) entry", ok)

    ok = True
    for _ in range(10):
        g2 = _random_sl2(rng, f)
        img = adprime(ctx, g2)
        ok = ok and mat_eq(ctx.theta_apply(img), img)
        ok = ok and mat_det(img, f) == f.one()
    rep.record("adprime lands in the fixed subgroup", ok)
    return rep


def _xi(ctx: MatrixContext, which: int, g2) -> Matrix:
    """The two pinned SL(2) embeddings into SL(3) (upper-left, lower-right)."""
    f = ctx.field
    a, b = f.embed(g2[0][0]), f.embed(g2[0][1])
    c, d = f.embed(g2[1][0]), f.embed(g2[1][1])
    one, zero = f.one(), f.zero()
    if which == 0:
        return ((a, b, zero), (c, d, zero), (zero, zero, one))
    return ((one, zero, zero), (zero, a, b), (zero, c, d))


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
