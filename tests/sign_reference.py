"""Reference sign-datum checks and sign readers keyed by coordinates.

The library keys endoscopic sign data by restricted-root index: it reads
the values once into exponent pairs in index order, checks inverse pairs
on those integers, and builds the table of symmetric orbits once, which
``delta_i_ratio`` and ``adata_change_sign`` read.  These are the rules it
used before: every check and every reading looks a restricted root up by
its coordinate tuple, and the inverse check compares ``RootOfUnity.inv()``.
The Galois orbits are found as before too, from every power of the
generator.  The two share only ``restricted_action``, ``quad_norm_sign`` and
the error class, so the tests compare them.
"""

from fractions import Fraction

from splitinv.coeffs import quad_norm_sign
from splitinv.errors import FactorError
from splitinv.rootdata import R3


def galois_orbits(rrs, descent):
    """(members, symmetric) of each Galois orbit on the restricted roots, in
    sorted order of least members, from every power's permutation."""
    acts = [descent.restricted_action(k, rrs) for k in range(descent.order)]
    keys, negation = rrs._res_roots, rrs._res_negation
    orbits = [{act[i] for act in acts} for i in range(len(keys))]
    return tuple((tuple(keys[w].coords for w in sorted(orbit)),
                  all(negation[w] in orbit for w in orbit))
                 for i, orbit in enumerate(orbits) if min(orbit) == i)


def validate(rrs, orbits, values, places):
    """The checks of a sign datum in their order, the first fault raised;
    values and places keyed as the constructor keys them."""
    for v in rrs.restricted:
        if v not in values:
            raise FactorError(f"missing sign value at restricted root {v}")
    for v, val in values.items():
        if v not in rrs.restricted:
            raise FactorError(f"sign value at {v}, which is not a restricted root")
        neg = tuple(-c for c in v)
        if values[neg] != val.inv():
            raise FactorError(f"sign values at {v} and {neg} are not inverse")
    for members, symmetric in orbits:
        vals = {values[w] for w in members}
        if len(vals) != 1:
            raise FactorError(f"sign value not constant on the orbit {members}")
        val = vals.pop()
        if symmetric:
            if not (val.is_one or val.is_minus_one):
                raise FactorError(f"value on the symmetric orbit {members} is not a sign")
            if members not in places:
                raise FactorError(f"symmetric orbit {members} carries no local place")


def _comes_from_h(rrs, values, beta):
    val = values[beta]
    return val.is_minus_one if rrs.rtype(beta) == R3 else val.is_one


def adata_change_sign(rrs, orbits, values, places, b):
    out = 1
    for members, symmetric in orbits:
        if not symmetric:
            continue
        beta = min(members)
        divisible = rrs.rtype(beta) == R3
        if divisible != _comes_from_h(rrs, values, beta):
            continue
        vals = {Fraction(b[w]) for w in members if w in b}
        if not vals:
            raise FactorError(f"no multiplier given on the orbit {members}")
        if len(vals) != 1:
            raise FactorError(f"multiplier not constant on the orbit {members}")
        b_val = vals.pop()
        if b_val == 0:
            raise FactorError(f"zero a-data multiplier on {members}")
        out *= quad_norm_sign(b_val, places[members])
    return out


def delta_i_ratio(rrs, orbits, values, places):
    out = 1
    for members, symmetric in orbits:
        if not symmetric:
            continue
        beta = min(members)
        if rrs.rtype(beta) != R3 or not _comes_from_h(rrs, values, beta):
            continue
        out *= quad_norm_sign(2, places[members])
    return out
