"""Independent arithmetic for checking the outputs of splitinv.

Nothing here imports splitinv.  The checks compare the library's answers
with computations made from scratch:

* signed monomial matrices in SL(n) over Q for the standard pinning, where
  n(alpha_i) is the block [[0, 1], [-1, 0]] in rows and columns i, i+1;
* dense matrices over Q(sqrt(d)) with entries stored as (u, v) pairs of
  Fractions, standing for u + v*sqrt(d);
* Weyl words acting on root coordinates through a Cartan matrix built here;
* a deterministic Miller-Rabin primality test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

# ---------------------------------------------------------------------------
# signed monomial matrices in SL(n) over Q
# ---------------------------------------------------------------------------

# A monomial matrix is a tuple of (column, value) pairs, one per row.
Mono = Tuple[Tuple[int, Fraction], ...]


def mono_identity(n: int) -> Mono:
    return tuple((r, Fraction(1)) for r in range(n))


def mono_mul(a: Mono, b: Mono) -> Mono:
    return tuple((b[c][0], x * b[c][1]) for c, x in a)


def mono_simple_lift(n: int, i: int) -> Mono:
    rows = list(mono_identity(n))
    rows[i] = (i + 1, Fraction(1))
    rows[i + 1] = (i, Fraction(-1))
    return tuple(rows)


def mono_of_word(n: int, word: Sequence[int]) -> Mono:
    out = mono_identity(n)
    for i in word:
        out = mono_mul(out, mono_simple_lift(n, i))
    return out


def mono_diag(n: int, coroot_coords: Sequence) -> Mono:
    """The diagonal matrix prod_i alpha_i_vee(c_i): entries c_1, c_2/c_1, ...,
    1/c_{n-1}."""
    c = [Fraction(x) for x in coroot_coords]
    if len(c) != n - 1:
        raise ValueError("coroot coordinates do not match SL(n)")
    diag = [c[0]] + [c[k] / c[k - 1] for k in range(1, n - 1)] + [1 / c[-1]]
    return tuple((r, diag[r]) for r in range(n))


def mono_pattern(m: Mono) -> Tuple[int, ...]:
    return tuple(c for c, _ in m)


def inversion_count(perm: Sequence[int]) -> int:
    return sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
               if perm[i] > perm[j])


def reduced_word_of_pattern(perm: Sequence[int]) -> Tuple[int, ...]:
    """A reduced word whose lift has the given row -> column pattern.

    If rows r and r+1 are out of order, the matrix is n(alpha_r) times the
    matrix with those two rows exchanged, which has one inversion fewer."""
    p = list(perm)
    word = []
    while True:
        r = next((r for r in range(len(p) - 1) if p[r] > p[r + 1]), None)
        if r is None:
            return tuple(word)
        word.append(r)
        p[r], p[r + 1] = p[r + 1], p[r]


def mono_matches_dense(m: Mono, dense) -> bool:
    n = len(m)
    if len(dense) != n:
        return False
    for r, (c, x) in enumerate(m):
        row = dense[r]
        for j in range(n):
            if row[j] != (x if j == c else 0):
                return False
    return True


def mono_is_identity(m: Mono) -> bool:
    return all(c == r and x == 1 for r, (c, x) in enumerate(m))


# ---------------------------------------------------------------------------
# matrices over Q(sqrt(d)) as (u, v) pairs
# ---------------------------------------------------------------------------

Quad = Tuple[Fraction, Fraction]
ZERO: Quad = (Fraction(0), Fraction(0))
ONE: Quad = (Fraction(1), Fraction(0))


def q_mul(x: Quad, y: Quad, d: int) -> Quad:
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def q_sub(x: Quad, y: Quad) -> Quad:
    return (x[0] - y[0], x[1] - y[1])


def q_inv(x: Quad, d: int) -> Quad:
    norm = x[0] * x[0] - d * x[1] * x[1]
    if norm == 0:
        raise ZeroDivisionError("inverse of zero in Q(sqrt(d))")
    return (x[0] / norm, -x[1] / norm)


def qmat_mul(a, b, d: int):
    n, k, m = len(a), len(b), len(b[0])
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            u = v = Fraction(0)
            for t in range(k):
                x, y = a[i][t], b[t][j]
                u += x[0] * y[0] + d * x[1] * y[1]
                v += x[0] * y[1] + x[1] * y[0]
            row.append((u, v))
        out.append(tuple(row))
    return tuple(out)


def qmat_conj(a):
    return tuple(tuple((x[0], -x[1]) for x in row) for row in a)


def qmat_transpose(a):
    return tuple(zip(*a))


def qmat_identity(n: int):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def qmat_det(a, d: int) -> Quad:
    """Determinant by Gaussian elimination over Q(sqrt(d))."""
    n = len(a)
    work = [list(row) for row in a]
    det = ONE
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != ZERO), None)
        if piv is None:
            return ZERO
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            det = (-det[0], -det[1])
        p = work[col][col]
        det = q_mul(det, p, d)
        p_inv = q_inv(p, d)
        for r in range(col + 1, n):
            if work[r][col] != ZERO:
                f = q_mul(work[r][col], p_inv, d)
                work[r] = [q_sub(x, q_mul(f, y, d)) for x, y in zip(work[r], work[col])]
    return det


def flip_form(n: int):
    """The antidiagonal J with alternating signs that defines the order-2
    pinned automorphism g -> J (g^T)^{-1} J^{-1}: J[i][n-1-i] = (-1)^(n-1-i)."""
    return tuple(tuple(((Fraction((-1) ** (n - 1 - i)), Fraction(0)) if j == n - 1 - i
                        else ZERO) for j in range(n)) for i in range(n))


# ---------------------------------------------------------------------------
# Weyl words acting on root coordinates
# ---------------------------------------------------------------------------

def cartan_matrix(families: Sequence[Tuple[str, int]]) -> List[List[int]]:
    """cartan[i][j] = <alpha_j, alpha_i_vee> for products of types A and D
    with the node order of the standard diagrams: A_n a chain, D_n a chain
    0 - ... - (n-2) with node n-1 attached to node n-3."""
    blocks = []
    for fam, rank in families:
        c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
        edges = [(i, i + 1) for i in range(rank - 1)]
        if fam == "D":
            edges = edges[:-1] + [(rank - 3, rank - 1)]
        elif fam != "A":
            raise ValueError(f"no Cartan matrix here for family {fam}")
        for i, j in edges:
            c[i][j] = c[j][i] = -1
        blocks.append(c)
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                out[off + i][off + j] = x
        off += len(b)
    return out


def word_action(cartan: Sequence[Sequence[int]], word: Sequence[int]):
    """Matrix of s_{w1} ... s_{wk} on simple-root coordinates, where
    s_i(beta) = beta - <beta, alpha_i_vee> alpha_i."""
    n = len(cartan)
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for i in word:
        # right-multiply by the reflection matrix of s_i
        refl = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        refl[i] = [(1 if c == i else 0) - cartan[i][c] for c in range(n)]
        m = [[sum(m[r][k] * refl[k][c] for k in range(n)) for c in range(n)]
             for r in range(n)]
    return tuple(tuple(row) for row in m)


# ---------------------------------------------------------------------------
# primes
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the first 13 prime bases decide every
    n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n
