"""Workload `scenarios`: `splitinv restrict` and `splitinv invariant` run in
process through `splitinv.cli.main` on generated scenario files.

The ladder is the A2 ... A8 flips, the D4 swap, D4 triality and the A2 x A2
swap.  A round holds groups of operations, one group per large rung and
twelve per small rung (A2, A3, A4, D4 triality, A2 x A2).  A group restricts
the rung once and computes five invariants: one with omega_T the longest
element, one quasi-split (sigma_T = theta, omega_T = 1) and three with
omega_T the longest element of the Levi of a simple restricted root.
Which Levi each invariant uses, which invariants carry explicit values over
Q(sqrt(d)) instead of symbolic a-data, and d are fixed; the seed picks the
values and the order of the operations."""

from __future__ import annotations

import json
import os
import random
from fractions import Fraction

from splitinv.coeffs import QuadConj, QuadField
from splitinv.rootdata import PinnedAutomorphism, RootDatum, analyze_weyl
from splitinv.splitting import DescentDatum, equivariant_quad_adata

import oracle
from common import Op, Workload, interleave, run_cli

FIELDS = (5, -1, 2, 3, -3, 7, 13)


def _flip(n):
    return [n - i for i in range(n)]


# (label, datum, 1-based theta, expected restricted system, groups per
# round); a group is one restrict and five invariants.  The small rungs get
# more groups so that the 90th percentile falls among many operations of
# similar cost rather than among the few large ones.
RUNGS = tuple((f"A{n} flip", [["A", n]], _flip(n),
               ("BC", n // 2) if n % 2 == 0 else ("C", (n + 1) // 2), 12 if n <= 4 else 1)
              for n in range(2, 9)) + (
    ("D4 swap", [["D", 4]], [1, 2, 4, 3], ("B", 3), 1),
    ("D4 triality", [["D", 4]], [3, 2, 4, 1], ("G", 2), 12),
    ("A2xA2 swap", [["A", 2], ["A", 2]], [3, 4, 1, 2], ("A", 2), 12),
)


def expected_restriction(kind):
    """Root counts by type, |W^theta| and reducedness of the restricted system."""
    fam, m = kind
    fact = 1
    for k in range(2, m + 1):
        fact *= k
    if fam == "BC":
        types = {"R1": 2 * m * (m - 1), "R2": 2 * m, "R3": 2 * m}
        return {t: c for t, c in types.items() if c}, 2 ** m * fact, m, False
    if fam in ("B", "C"):
        return {"R1": 2 * m * m}, 2 ** m * fact, m, True
    if fam == "G":
        return {"R1": 12}, 12, 2, True
    return {"R1": m * (m + 1)}, fact * (m + 1), m, True     # type A_m


def _ambient_roots(datum_spec):
    total = 0
    for fam, n in datum_spec:
        total += n * (n + 1) if fam == "A" else 2 * n * (n - 1)
    return total


def _check_restrict(label, datum_spec, kind):
    types, weyl_order, rank, reduced = expected_restriction(kind)

    def check(out):
        rc, text, _ = out
        if rc != 0:
            return f"{label}: restrict exited {rc}"
        rep = json.loads(text)
        res = rep["result"]
        if not rep["pass"]:
            return f"{label}: restrict report does not pass"
        got = {}
        for rr in res["restricted_roots"]:
            got[rr["type"]] = got.get(rr["type"], 0) + 1
        if got != types:
            return f"{label}: restricted root types {got}, expected {types}"
        if sum(len(rr["orbit"]) for rr in res["restricted_roots"]) != _ambient_roots(datum_spec):
            return f"{label}: fibers do not partition the roots"
        if sum(rr["positive"] for rr in res["restricted_roots"]) * 2 != sum(types.values()):
            return f"{label}: positive restricted roots are not half of all"
        if len(res["simple"]) != rank:
            return f"{label}: {len(res['simple'])} simple restricted roots, expected {rank}"
        if res["reduced"] != reduced:
            return f"{label}: reduced flag {res['reduced']}, expected {reduced}"
        if res["fixed_weyl_order"] != weyl_order:
            return f"{label}: |W^theta| = {res['fixed_weyl_order']}, expected {weyl_order}"
        return None
    return check


def _check_invariant(label, datum_spec, perm, order, omega_word):
    cartan = oracle.cartan_matrix([(f, n) for f, n in datum_spec])
    theta = [p - 1 for p in perm]
    want_omega = oracle.word_action(cartan, omega_word)

    def check(out):
        rc, text, _ = out
        if rc != 0:
            return f"{label}: invariant exited {rc}"
        rep = json.loads(text)
        if not rep["pass"]:
            return f"{label}: invariant report does not pass"
        values = rep["result"]["values"]
        if sorted(values, key=int) != [str(k) for k in range(order)]:
            return f"{label}: values at {sorted(values)}, expected 0..{order - 1}"
        v0 = values["0"]
        if v0["weyl"] or any(c != "1" for c in v0["torus"]):
            return f"{label}: value at sigma^0 is not trivial"
        for k in range(1, order):
            torus, word = values[str(k)]["torus"], [i - 1 for i in values[str(k)]["weyl"]]
            if any(torus[theta[i]] != torus[i] for i in range(len(torus))):
                return f"{label}: torus part at sigma^{k} is not theta-fixed"
            w = oracle.word_action(cartan, word)
            if oracle.word_action(cartan, [theta[i] for i in word]) != w:
                return f"{label}: Weyl part at sigma^{k} is not theta-fixed"
            if k == 1 and w != want_omega:
                return f"{label}: Weyl part at sigma is not omega_T"
        return None
    return check


def _levi_words(cartan, theta):
    """For each theta-orbit of simple roots, the longest element of the Levi
    it spans: the product of the reflections when no two nodes are linked,
    s_i s_j s_i for a linked pair (the A2 Levi of a divisible root)."""
    words, seen = [], set()
    for i in range(len(theta)):
        if i in seen:
            continue
        orbit, j = [], i
        while j not in orbit:
            orbit.append(j)
            j = theta[j]
        seen.update(orbit)
        orbit.sort()
        linked = [(a, b) for a in orbit for b in orbit if a < b and cartan[a][b]]
        if not linked:
            words.append(orbit)
        elif len(orbit) == 2:
            words.append([orbit[0], orbit[1], orbit[0]])
        else:
            raise ValueError(f"no Levi word here for the orbit {orbit}")
    return words


def _values_adata(rng, datum, theta, omega, d):
    """Equivariant, theta-invariant a-data over Q(sqrt(d)) as scenario values."""
    field = QuadField(d)
    desc = DescentDatum(datum, 2, omega, None, QuadConj(field))
    adata = equivariant_quad_adata(datum, desc, field, rng, theta=theta)
    return {",".join(map(str, r.coords)): [str(Fraction(adata[r.coords].u)),
                                           str(Fraction(adata[r.coords].v))]
            for r in datum.positive_roots}


def build(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    groups = []
    for label, spec, perm, kind, n_groups in RUNGS:
        tag = label.replace(" ", "_")
        datum = RootDatum([(f, n) for f, n in spec])
        theta = PinnedAutomorphism(datum, [p - 1 for p in perm])
        base = {"datum": spec, "theta": {"perm": perm}}
        path = os.path.join(workdir, f"{tag}.json")
        with open(path, "w") as fh:
            json.dump(dict(base, galois={"order": 2, "omega_T": []},
                           adata={"mode": "symbolic"}), fh)
        levis = _levi_words(oracle.cartan_matrix(spec), [p - 1 for p in perm])
        for g in range(n_groups):
            ops = [Op("restrict", label, lambda p=path: run_cli(["restrict", p]),
                      _check_restrict(label, spec, kind))]
            # the theta-fixed Weyl elements used as omega_T; which Levi and
            # which mode go where is fixed, so that the mix of costs is the
            # same for every seed
            omegas = [("w0", datum.longest_element())] + \
                [("levi", analyze_weyl(datum, levis[(3 * g + k) % len(levis)]))
                 for k in range(3)]
            variants = [(name, w, 2, None) for name, w in omegas]
            variants.append(("quasi", datum.identity_weyl(), theta.order, perm))
            for j, (name, omega, order, sigma) in enumerate(variants):
                word = list(omega.word)
                galois = {"order": order, "omega_T": [i + 1 for i in word], "sigma_T": sigma}
                if sigma is None and (g + j) % 2 == 0:
                    d = FIELDS[(g + j // 2) % len(FIELDS)]
                    galois["field"] = {"d": d}
                    adata = {"mode": "values",
                             "values": _values_adata(rng, datum, theta, omega, d)}
                else:
                    adata = {"mode": "symbolic"}
                vpath = os.path.join(workdir, f"{tag}-{g}-{j}-{name}.json")
                with open(vpath, "w") as fh:
                    json.dump(dict(base, galois=galois, adata=adata), fh)
                ops.append(Op("invariant", f"{label} {name} {adata['mode']}",
                              lambda p=vpath: run_cli(["invariant", p]),
                              _check_invariant(label, spec, perm, order, word)))
            groups.append(ops)
    # warm-up: both commands on the smallest rung, the same for every seed
    label, spec, perm, kind, _ = RUNGS[0]
    path = os.path.join(workdir, "warmup.json")
    with open(path, "w") as fh:
        json.dump({"datum": spec, "theta": {"perm": perm},
                   "galois": {"order": 2, "omega_T": [1, 2, 1]},
                   "adata": {"mode": "symbolic"}}, fh)
    warmup = [Op("restrict", label, lambda: run_cli(["restrict", path]),
                 _check_restrict(label, spec, kind)),
              Op("invariant", label, lambda: run_cli(["invariant", path]),
                 _check_invariant(label, spec, perm, 2, [0, 1, 0]))]
    return Workload("scenarios", interleave(groups, rng), warmup=warmup)
