"""Workload `descent`: the comparison of the twisted splitting invariant
with the fixed-subgroup one, with matrices, in SL(3) ... SL(7) over
Q(sqrt(5)) and Q(sqrt(-1)).

Each operation samples a theta-fixed conjugator h, builds the Realization
and special a-data, and runs `compare_fixed_vs_twisted` with matrices.  The
restrictions and matrix contexts are built during set-up.  Each torus
matrix t(sigma^k) = h m(sigma^k) sigma^k(h)^-1 is checked with the
arithmetic of `oracle`: t(1) = 1, det t(sigma) = 1, t(sigma) conj(t(sigma))
= 1, and t(sigma) J t(sigma)^T = J, which says that t(sigma) is fixed by
g -> J (g^T)^-1 J^-1."""

from __future__ import annotations

import random
from fractions import Fraction

import splitinv.splitting as splitting
from splitinv.coeffs import QuadField
from splitinv.matoracle import MatrixContext
from splitinv.rootdata import restrict_root_system

import oracle
from common import Op, Workload, interleave

FIELDS = (5, -1)
# SL(n) -> operations per round
COUNTS = {3: 20, 4: 8, 5: 4, 6: 2, 7: 1}


def _seedsets(rrs):
    """Seeds for sample_h_twisted, in a fixed order: (simple restricted
    root, conjugating fixed Weyl element or None) pairs; each set gives a
    different omega_T."""
    b, levi = rrs.simple_restricted, rrs.levi_longest
    if len(b) == 1:
        return {"b0": [(b[0], None)], "none": []}
    return {"b0": [(b[0], None)], "blast": [(b[-1], None)],
            "b0^w1": [(b[0], levi[b[1]])],
            "b1,b1^w0": [(b[1], None), (b[1], levi[b[0]])], "none": []}


def _compare(ctx, rrs, seeds, op_seed):
    rng = random.Random(op_seed)
    h = splitting.sample_h_twisted(ctx, rrs, rng, seeds=seeds)
    real = splitting.Realization(ctx, h, use_theta=True)
    special = splitting.equivariant_quad_adata(rrs, real.descent, ctx.field, rng, special=True)
    return splitting.compare_fixed_vs_twisted(rrs, real.descent, special, ctx=ctx,
                                              realization=real)


def _pairs(m, d):
    out = []
    for row in m:
        r = []
        for x in row:
            if x.d != d:
                raise ValueError(f"entry {x!r} is not in Q(sqrt({d}))")
            r.append((Fraction(x.u), Fraction(x.v)))
        out.append(tuple(r))
    return tuple(out)


def check_torus_matrices(n, d, mats):
    """The three properties of t(sigma), computed on (u, v) pairs."""
    ident = oracle.qmat_identity(n)
    if mats[0] != ident:
        return f"SL({n}) d={d}: t(1) is not the identity"
    t = mats[1]
    if oracle.qmat_det(t, d) != oracle.ONE:
        return f"SL({n}) d={d}: det t(sigma) != 1"
    if oracle.qmat_mul(t, oracle.qmat_conj(t), d) != ident:
        return f"SL({n}) d={d}: t(sigma) conj(t(sigma)) != 1"
    j = oracle.flip_form(n)
    if oracle.qmat_mul(oracle.qmat_mul(t, j, d), oracle.qmat_transpose(t), d) != j:
        return f"SL({n}) d={d}: t(sigma) is not fixed by the pinned automorphism"
    return None


def _key(rep):
    return (rep.equal_on_the_nose, rep.matrix_checked,
            tuple(sorted(rep.t_cocycle.matrices.items())),
            tuple(sorted(rep.t_prime_matrices.items())))


def _check(n, d):
    def check(rep):
        if not (rep.equal_on_the_nose and rep.matrix_checked and rep.t_cocycle is not None):
            return f"SL({n}) d={d}: comparison did not complete with matrices"
        if rep.t_prime_matrices != rep.t_cocycle.matrices:
            return f"SL({n}) d={d}: the two routes give different t(sigma)"
        return check_torus_matrices(n, d, [_pairs(rep.t_cocycle.matrices[k], d) for k in (0, 1)])
    return check


def build(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    setups = {}
    for d in FIELDS:
        for n in COUNTS:
            ctx = MatrixContext(n, QuadField(d), twisted=True)
            rrs = restrict_root_system(ctx.datum, ctx.theta)
            setups[n, d] = (ctx, rrs, _seedsets(rrs))

    def op(n, d, name, op_seed):
        ctx, rrs, sets = setups[n, d]
        seeds = sets[name]
        return Op(f"SL{n}", f"SL{n} d={d} {name}",
                  lambda: _compare(ctx, rrs, seeds, op_seed), _check(n, d), _key)

    # the seed set and the field of each operation are fixed, so that the
    # mix of costs does not depend on the seed; h and the a-data do
    groups = []
    for n, count in COUNTS.items():
        combos = [(name, d) for name in setups[n, FIELDS[0]][2] for d in FIELDS]
        ops = []
        for i in range(count):
            name, d = combos[i % len(combos)]
            ops.append(op(n, d, name, rng.getrandbits(48)))   # the op's own generator
        groups.append(ops)
    # warm-up: the cheapest operation of each size, independent of the seed
    warmup = [op(n, FIELDS[0], "none", 0) for n in COUNTS]
    return Workload("descent", interleave(groups, rng), warmup=warmup)
