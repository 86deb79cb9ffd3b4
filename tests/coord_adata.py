"""Reference a-data operations on coordinate dicts.

The library holds a-data as one value per root in the order of the roots,
or of the restricted roots, and moves a root by an index table.  These are
the operations as they were on dicts keyed by root coordinates: every
image of a root is computed from its coordinates (simple reflections along
a reduced word, theta on coordinates, restriction through the pairings,
negation and doubling of tuples), and nothing reads the library's index
tables, so the tests compare the two representations value by value.
"""

import random
from fractions import Fraction

from splitinv.errors import ADataError, DescentError
from splitinv.rootdata import R3, RestrictedRootSystem


def act_by_word(cartan, word, v):
    """w(v) in simple-root coordinates, w the product of the simple
    reflections along word, s_i(v) = v - <v, alpha_i_vee> alpha_i applied
    from the last letter."""
    for i in reversed(word):
        v = v[:i] + (v[i] - sum(c * x for c, x in zip(cartan[i], v)),) + v[i + 1:]
    return v


def negate(v):
    return tuple(-c for c in v)


def restriction(rrs):
    """The restriction of each root, keyed by coordinates, from its pairings."""
    return {r.coords: rrs.restrict_weight(p) for r, p in zip(rrs.datum.roots, rrs.datum.pairings)}


def root_images(descent, k):
    """sigma^k on the roots: w(g(alpha)) for sigma^k = w g."""
    aut = descent.root_action(k)
    cartan = descent.datum.cartan
    return {r.coords: act_by_word(cartan, aut.weyl.word, aut.diagram.act_root(r.coords))
            for r in descent.datum.roots}


def restricted_images(descent, k, rrs):
    """sigma^k on the restricted roots, read off the restrictions of its
    images of each whole fiber."""
    k %= descent.order
    images, res = root_images(descent, k), restriction(rrs)
    out = {}
    for v, rr in rrs.restricted.items():
        fiber = {res[images[c]] for c in rr.orbit}
        if len(fiber) != 1:
            raise DescentError(f"sigma^{k} does not act on the restricted roots: the "
                               f"fiber of {v} restricts to {sorted(fiber)}")
        out[v] = fiber.pop()
    return out


def key_order(system):
    """The keys of a-data on system: roots in the datum's order, restricted
    roots sorted."""
    if isinstance(system, RestrictedRootSystem):
        return sorted(system.restricted)
    return [r.coords for r in system.roots]


def adata_classes(system, descent, theta, special=False):
    """Each key's (class, sign against the class's least key) and the
    (class, sign) of the Galois generator's image of each least key, the
    classes closed under negation (sign -1) and under theta on full data or
    doubling on special restricted data (sign +1), numbered by least key."""
    if theta is not None and not theta.is_identity:
        descent.validate_theta_compatible(theta)
    keys = sorted(key_order(system))
    moves = [({v: negate(v) for v in keys}, -1)]
    if isinstance(system, RestrictedRootSystem):
        if special:
            pair = {}
            for v in keys:
                dbl = tuple(2 * c for c in v)
                if dbl in system.restricted:
                    pair[v], pair[dbl] = dbl, v
            moves.append(({v: pair.get(v, v) for v in keys}, 1))
        sigma = restricted_images(descent, 1, system)
    else:
        if theta is not None and not theta.is_identity:
            moves.append(({v: theta.act_root(v) for v in keys}, 1))
        sigma = root_images(descent, 1)
    of, starts = {}, []
    for start in keys:
        if start in of:
            continue
        of[start] = (len(starts), 1)
        starts.append(start)
        frontier = [start]
        while frontier:
            v = frontier.pop()
            c, s = of[v]
            for table, sign in moves:
                w = table[v]
                if w not in of:
                    of[w] = (c, s * sign)
                    frontier.append(w)
    return {v: of[v] for v in key_order(system)}, [of[sigma[s]] for s in starts]


def quad_adata(system, descent, fieldq, rng: random.Random, special=False, theta=None):
    """Random equivariant a-data over Q(sqrt d), one Galois orbit of classes
    at a time in order of least key, as a dict in key order."""
    classes, images = adata_classes(system, descent, theta, special)
    base = [None] * len(images)
    for c, (img, sign) in enumerate(images):
        if base[c] is None:
            x = fieldq.embed(Fraction(rng.choice([1, 2, 3, 1, 5])) * rng.choice([1, -1]))
            base[c] = x if descent.order == 2 and (img, sign) == (c, 1) else fieldq.gen() * x
            if img != c:
                base[img] = fieldq.conj(base[c]) if sign == 1 else -fieldq.conj(base[c])
    return {v: base[c] if s == 1 else -base[c] for v, (c, s) in classes.items()}


def translate(values, mu):
    """a'(alpha) = a(mu(alpha))."""
    return {v: values[act_by_word(mu.datum.cartan, mu.word, v)] for v in values}


def pullback(values, rrs):
    res = restriction(rrs)
    return {r.coords: values[res[r.coords]] for r in rrs.datum.roots}


def tilde(values, rrs, half):
    return {v: a * half if rrs.restricted[v].rtype == R3 else a for v, a in values.items()}


def is_special(values, rrs):
    for v in values:
        dbl = tuple(2 * c for c in v)
        if dbl in values and values[dbl] != values[v]:
            return False
    return True


def validate_equivariant(values, system, descent):
    what = "a-data"
    for k in range(1, descent.order):
        if isinstance(system, RestrictedRootSystem):
            act, what = restricted_images(descent, k, system), "restricted a-data"
        else:
            act = root_images(descent, k)
        for v, a in values.items():
            if values[act[v]] != descent.field_apply(k, a):
                raise ADataError(f"{what} not Galois-equivariant at {v}, sigma^{k}")


def validate_twisted(values, theta):
    for v, a in values.items():
        if values[theta.act_root(v)] != a:
            raise ADataError(f"a-data not theta-invariant at {v}")
