"""Feed each output checker of the benchmark one corrupted result and show
that it rejects it, after showing that it accepts the genuine result.

Run through `python3 perfbench/run.py --self-test`; exits 1 if a checker
accepts a corrupted result or rejects a genuine one."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import sys
import tempfile

from splitinv.tits import TitsElement, TorusElement

import descent
import normalizer
import scenarios
import signs
from worker import Checker, Round


def _negate_first(coords):
    return (-coords[0],) + tuple(coords[1:])


def _corrupt_tits(x):
    return TitsElement(TorusElement(_negate_first(x.torus.coords)), x.weyl)


def _corrupt_realize(out):
    p, rp, rxy = out
    return p, (tuple(-v for v in rp[0]),) + tuple(rp[1:]), rxy


def _corrupt_restrict(out):
    rc, text, err = out
    rep = json.loads(text)
    rep["result"]["fixed_weyl_order"] += 1          # a wrong |W^theta|
    return rc, json.dumps(rep), err


def _corrupt_invariant(out):
    """Change one torus coordinate at sigma whose node theta moves."""
    rc, text, err = out
    rep = json.loads(text)
    with open(rep["command"][1]) as fh:
        perm = json.load(fh)["theta"]["perm"]
    i = next(i for i, p in enumerate(perm) if p != i + 1)
    torus = rep["result"]["values"]["1"]["torus"]
    torus[i] = f"-({torus[i]})"
    return rc, json.dumps(rep), err


def _corrupt_matrix(m):
    first = (-m[0][0] - 1,) + tuple(m[0][1:])
    return (first,) + tuple(m[1:])


def _corrupt_compare(rep):
    """Flip one entry of t(sigma) on both routes, so that only the matrix
    properties can catch it."""
    mats = dict(rep.t_cocycle.matrices)
    mats[1] = _corrupt_matrix(mats[1])
    return dataclasses.replace(rep, t_cocycle=dataclasses.replace(rep.t_cocycle, matrices=mats),
                               t_prime_matrices=dict(mats))


CORRUPT = {
    ("normalizer", "mul"): _corrupt_tits,
    ("normalizer", "inverse"): _corrupt_tits,
    ("normalizer", "cocycle"): lambda c: TorusElement(_negate_first(c.coords)),
    ("normalizer", "realize"): _corrupt_realize,
    ("scenarios", "restrict"): _corrupt_restrict,
    ("scenarios", "invariant"): _corrupt_invariant,
    ("descent", "SL3"): _corrupt_compare,
    ("signs", "hilbert_small"): lambda v: -v,
    ("signs", "hilbert_large"): lambda v: -v,
    ("signs", "norm_sign"): lambda v: -v,
    ("signs", "factor"): lambda r: (r[0], -r[1]),
    ("signs", "chi"): lambda ok: not ok,
    ("signs", "malformed"): lambda out: (0, "", ""),
}


def _verdict(op, out):
    """The checker's error for an output, None if it accepts it; as in a
    run, a check that raises rejects the output."""
    checker = Checker()
    checker.outcome(op, False, out)
    return checker.errors[0] if checker.errors else None


def _cases(name, workload):
    """The operations to test, with their genuine outputs."""
    if name == "signs":
        # a whole round, checked, so that the product formula of every pair
        # of Hilbert queries has all its places
        rnd = Round(workload.ops)
        picked = {}
        for op, failed, out in zip(rnd.ops, rnd.failed, rnd.outputs):
            if op.kind == "malformed":
                out = (2, "", "error: malformed query")  # what the mended CLI returns
            elif failed:
                raise out
            _verdict(op, out)
            picked.setdefault(op.kind, (op, out))
        return list(picked.values())
    if name == "descent":
        ops = [next(op for op in workload.ops if op.kind == "SL3")]
    else:
        seen = {}
        for op in workload.warmup + workload.ops:
            seen.setdefault((op.kind, op.label), op)
        ops = list(seen.values())
    return [(op, op.run()) for op in ops]


def main() -> int:
    bad = 0
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=out_dir)
    try:
        for name, module in (("normalizer", normalizer), ("scenarios", scenarios),
                             ("descent", descent), ("signs", signs)):
            for op, out in _cases(name, module.build(0, workdir)):
                genuine = _verdict(op, out)
                rejected = _verdict(op, CORRUPT[name, op.kind](out))
                ok = genuine is None and rejected is not None
                bad += not ok
                what = f"genuine output rejected: {genuine}" if genuine else \
                    f"rejected: {rejected}" if rejected else "corrupted output accepted"
                print(f"{'ok  ' if ok else 'FAIL'} {name} {op.kind} {op.label}: {what}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"self-test: {'all checkers reject corrupted results' if not bad else f'{bad} failures'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
