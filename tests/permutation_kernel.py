"""Reference Weyl kernels that move a whole root permutation per letter.

The library reads descents off the heights of the images of the simple
roots, and builds a longest element from the codes of those images.  These
are the rules it used before: the descent rule of the reduced word, the
wall-crossing peel of the Tits product and the ascent rule of the longest
element, each applying one simple reflection to a permutation of the roots
per letter.  They share no code with the rank-sized rules, so the tests
compare the two.
"""

from splitinv.tits import TitsElement, TorusElement

# the data the two rules are compared on: every element of each Weyl group
HEIGHT_CASES = [(f"A{n}", [("A", n)]) for n in range(1, 6)] + \
    [(f"B{n}", [("B", n)]) for n in range(2, 5)] + \
    [("C3", [("C", 3)]), ("C4", [("C", 4)])] + \
    [(f"D{n}", [("D", n)]) for n in range(3, 6)] + [("A2xA2", [("A", 2), ("A", 2)])]


def _peel_inverse(inv, i, datum):
    """The permutation of (s_i v)^{-1} = v^{-1} s_i from that of v^{-1}."""
    return tuple(map(inv.__getitem__, datum.simple_reflection(i).perm))


def word_by_permutations(w):
    """Lexicographically least reduced word of w: peel off the first s_i
    with w^{-1} alpha_i < 0 from the left as long as w != 1."""
    datum = w.datum
    npos, simple = datum.n_positive, datum.simple_index
    identity = tuple(range(len(datum.roots)))
    inv, letters = w.inv_perm, []
    while inv != identity:
        i = next(i for i, s in enumerate(simple) if inv[s] >= npos)
        letters.append(i)
        inv = _peel_inverse(inv, i, datum)
    return tuple(letters)


def longest_by_permutations(datum, nodes):
    """The longest element of the subgroup generated by the s_i, i in nodes:
    multiply by one with w alpha_i > 0 (a right ascent) while there is one."""
    w = datum.identity_weyl()
    while True:
        i = next((i for i in nodes if w.perm[datum.simple_index[i]] < datum.n_positive), None)
        if i is None:
            return w
        w = w * datum.simple_reflection(i)


def tits_product_by_permutations(x, y):
    """(t1, w1)(t2, w2): peel the letters of w1 onto n(w2) from the right; a
    letter crosses a wall when it is a left descent of the running v, read
    off v^{-1}'s permutation of the roots, and adds alpha_i_vee to mu, which
    s_i moves through row i of the transposed Cartan matrix."""
    datum = x.weyl.datum
    t = x.torus * y.torus.weyl_apply(x.weyl)
    npos, simple, dual = datum.n_positive, datum.simple_index, datum.dual_rows
    mu = [0] * datum.rank
    v_inv = y.weyl.inv_perm
    for i in reversed(word_by_permutations(x.weyl)):
        mu[i] += (v_inv[simple[i]] >= npos) - sum(c * mu[j] for j, c in dual[i])
        v_inv = _peel_inverse(v_inv, i, datum)
    return TitsElement(TorusElement(tuple(-c if m % 2 else c for c, m in zip(t.coords, mu))),
                       x.weyl * y.weyl)
