"""Workload `normalizer`: products, inverses and closed-form cocycles of
random Tits elements t * n(w), and matrix realizations in SL(4) and SL(5).

The Weyl parts come from the enumerated Weyl group, which is built during
set-up: left factors stratified by length, right factors uniformly.  Type-A
outputs are checked against signed monomial matrices computed in `oracle`;
types B, C and D are checked through associativity, x * x^-1 = 1, and the
peeled torus part of n(w1) n(w2)."""

from __future__ import annotations

import random
from fractions import Fraction

import splitinv.matoracle as mo
import splitinv.tits as tits_mod
from splitinv.rootdata import build_root_datum
from splitinv.tits import TitsElement, TorusElement

import oracle
from common import Op, Workload, interleave

ONE = Fraction(1)

# (label, type, ops per round: mul, inverse, cocycle)
ABSTRACT = (
    ("A4", ("A", 4), 32, 24, 32),
    ("A5", ("A", 5), 32, 24, 32),
    ("B3", ("B", 3), 32, 24, 32),
    ("C3", ("C", 3), 32, 24, 32),
    ("D4", ("D", 4), 32, 24, 32),
)
# (n, realize ops per round) for the SL(n) matrix contexts over Q
MATRIX = ((4, 40), (5, 40))


def _torus(rng: random.Random, rank: int) -> TorusElement:
    return TorusElement(tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice((1, -1))
                              for _ in range(rank)))


def _stratified(rng: random.Random, by_length, count: int):
    """count Weyl elements, one from each of count equal slices of the group
    sorted by length, in random order: the spread of lengths, which sets
    the cost of peeling, is then the same for every seed."""
    out = [by_length[int((k + rng.random()) * len(by_length) / count)] for k in range(count)]
    rng.shuffle(out)
    return out


# -- independent type-A checks ------------------------------------------------

def _own(n: int, x: TitsElement):
    """Monomial matrix of x from its torus part and its Weyl word, after
    checking that the word is reduced; a failed check raises, which the
    worker reports as a rejected output."""
    word = x.weyl.word
    lift = oracle.mono_of_word(n, word)
    if oracle.inversion_count(oracle.mono_pattern(lift)) != len(word):
        raise AssertionError(f"word {word} is not reduced")
    return oracle.mono_mul(oracle.mono_diag(n, x.torus.coords), lift)


def _check_mul_A(n, x, y):
    return lambda p: None if _own(n, p) == oracle.mono_mul(_own(n, x), _own(n, y)) \
        else f"SL({n}) matrix of x*y differs from M(x) M(y)"


def _check_inverse_A(n, x):
    return lambda xi: None if oracle.mono_is_identity(oracle.mono_mul(_own(n, x), _own(n, xi))) \
        else f"SL({n}) matrix of x * x^-1 is not the identity"


def _check_cocycle_A(n, w1, w2):
    def check(c):
        lhs = oracle.mono_mul(oracle.mono_of_word(n, w1.word), oracle.mono_of_word(n, w2.word))
        word12 = oracle.reduced_word_of_pattern(oracle.mono_pattern(lhs))
        rhs = oracle.mono_mul(oracle.mono_diag(n, c.coords), oracle.mono_of_word(n, word12))
        return None if lhs == rhs else f"SL({n}): n(w1) n(w2) != c(w1,w2) n(w1 w2)"
    return check


def _check_realize(n, x, y):
    def check(out):
        p, rp, rxy = out
        want = oracle.mono_mul(_own(n, x), _own(n, y))
        if _own(n, p) != want:
            return f"SL({n}) matrix of x*y differs from M(x) M(y)"
        if not oracle.mono_matches_dense(want, rp):
            return f"realize(x*y) differs from the SL({n}) matrix"
        if not oracle.mono_matches_dense(want, rxy):
            return f"realize(x) realize(y) differs from the SL({n}) matrix"
        return None
    return check


# -- checks for every type -----------------------------------------------------

def _is_one(x: TitsElement) -> bool:
    return x.weyl.is_identity and all(c == 1 for c in x.torus.coords)


def _check_mul_assoc(x, y, z):
    def check(p):
        if p.weyl != x.weyl * y.weyl:
            return "Weyl part of x*y is not w(x) w(y)"
        return None if p * z == x * (y * z) else "(x*y)*z != x*(y*z)"
    return check


def _check_inverse(x):
    return lambda xi: None if _is_one(x * xi) and _is_one(xi * x) else "x * x^-1 != 1"


def _check_cocycle_peeled(datum, w1, w2):
    def check(c):
        prod = tits_mod.tits_lift(datum, w1, ONE) * tits_mod.tits_lift(datum, w2, ONE)
        if prod.weyl != w1 * w2:
            return "Weyl part of n(w1) n(w2) is not w1 w2"
        return None if prod.torus == c else "tits_cocycle differs from the peeled torus part"
    return check


def _both(*checks):
    def check(out):
        for c in checks:
            err = c(out)
            if err:
                return err
        return None
    return check


def build(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    groups = []
    for label, fam, n_mul, n_inv, n_coc in ABSTRACT:
        datum = build_root_datum([fam])
        group = datum.weyl_group()
        by_length = sorted(group, key=lambda w: len(w.word))
        type_a = fam[0] == "A"
        n = fam[1] + 1

        def element(w):
            return TitsElement(_torus(rng, datum.rank), w)

        def anywhere():
            return element(group[rng.randrange(len(group))])

        ops = []
        for w in _stratified(rng, by_length, n_mul):
            x, y, z = element(w), anywhere(), anywhere()
            check = _check_mul_assoc(x, y, z)
            if type_a:
                check = _both(_check_mul_A(n, x, y), check)
            ops.append(Op("mul", label, lambda x=x, y=y: x * y, check))
        for w in _stratified(rng, by_length, n_inv):
            x = element(w)
            check = _check_inverse(x)
            if type_a:
                check = _both(_check_inverse_A(n, x), check)
            ops.append(Op("inverse", label, lambda x=x: x.inverse(), check))
        for w1 in _stratified(rng, by_length, n_coc):
            w2 = group[rng.randrange(len(group))]
            check = _check_cocycle_peeled(datum, w1, w2)
            if type_a:
                check = _both(_check_cocycle_A(n, w1, w2), check)
            ops.append(Op("cocycle", label,
                          lambda d=datum, w1=w1, w2=w2: tits_mod.tits_cocycle(d, w1, w2, ONE),
                          check))
        groups.append(ops)
    for n, count in MATRIX:
        ctx = mo.MatrixContext(n)
        group = ctx.datum.weyl_group()
        by_length = sorted(group, key=lambda w: len(w.word))
        ops = []
        for w in _stratified(rng, by_length, count):
            x = TitsElement(_torus(rng, ctx.datum.rank), w)
            y = TitsElement(_torus(rng, ctx.datum.rank), group[rng.randrange(len(group))])

            def run(ctx=ctx, x=x, y=y):
                p = x * y
                return p, mo.realize(ctx, p), mo.mat_mul(mo.realize(ctx, x), mo.realize(ctx, y))

            ops.append(Op("realize", f"SL{n}", run, _check_realize(n, x, y)))
        groups.append(ops)
    return Workload("normalizer", interleave(groups, rng))
