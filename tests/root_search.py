"""Reference root-data builds that search every root.

The library searches only the positive roots, over the simple reflections
that raise the height, and reads each negative root off its positive
partner; it builds a simple reflection on first use, and it checks the
simple restricted roots by their count.  These are the rules it used
before: the breadth-first search of all the roots under every simple
reflection, the root permutations built along the edges of that search,
and the two-clause indecomposability check.  They share no code with the
new rules, so the tests compare the two.
"""

from operator import sub

from splitinv.rootdata import Root


def search_all_roots(datum):
    """The roots, by breadth-first search from the simple roots under the
    simple reflections, sorted; the pairings <root, alpha_i_vee> of each;
    and, in order of discovery, the edge (root, parent, i, p), root =
    s_i(parent) = parent + p alpha_i, that found each root."""
    rank, dual = datum.rank, datum.dual_rows
    columns = tuple(zip(*datum.cartan))
    found, tree = [], []
    for i in range(rank):
        e = tuple(1 if j == i else 0 for j in range(rank))
        found.append((e, e, columns[i]))
    seen = {c for c, _, _ in found}
    for k, (c, d, p) in enumerate(found):
        for i, pi in enumerate(p):
            if pi:
                c2 = c[:i] + (c[i] - pi,) + c[i + 1:]
                if c2 not in seen:
                    seen.add(c2)
                    tree.append((len(found), k, i, -pi))
                    p2 = list(p)
                    for m, a in dual[i]:
                        p2[m] -= pi * a
                    k2 = sum(a * d[m] for m, a in dual[i])
                    found.append((c2, d[:i] + (d[i] - k2,) + d[i + 1:], tuple(p2)))
    roots = [Root(c, d, sum(c) > 0, sum(c)) for c, d, _ in found]
    order = sorted(range(len(roots)), key=lambda k: (
        not roots[k].positive, abs(roots[k].height), roots[k].coords))
    position = [0] * len(order)
    for j, k in enumerate(order):
        position[k] = j
    return (tuple(roots[k] for k in order), tuple(found[k][2] for k in order),
            tuple((position[j], position[k], i, p) for j, k, i, p in tree))


class AllRootsTables:
    """The root tables of a datum from the search of every root, and the
    root permutations built along its edges from the base-8 codes of the
    images of the simple roots."""

    def __init__(self, datum):
        self.datum = datum
        self.roots, self.pairings, self.tree = search_all_roots(datum)
        index = {r.coords: j for j, r in enumerate(self.roots)}
        self.simple_index = tuple(index[tuple(int(j == i) for j in range(datum.rank))]
                                  for i in range(datum.rank))
        self.simple_codes = tuple(8 ** i for i in range(datum.rank))
        self.code_index = {c: j for j, c in enumerate(self.linear_codes(self.simple_codes))}

    def linear_codes(self, simple_codes):
        out = [0] * len(self.roots)
        for s, c in zip(self.simple_index, simple_codes):
            out[s] = c
        for k, parent, i, p in self.tree:
            out[k] = out[parent] + p * simple_codes[i]
        return out

    def perm_of(self, simple_codes):
        return tuple(self.code_index[c] for c in self.linear_codes(simple_codes))

    def _times_simple(self, codes, i):
        ci = codes[i]
        for j, c in self.datum.cartan_rows[i]:
            codes[j] -= c * ci
        return codes

    def simple_reflection(self, i):
        return self.perm_of(self._times_simple(list(self.simple_codes), i))

    def longest_element(self):
        codes = list(self.simple_codes)
        while (i := next((i for i in range(self.datum.rank) if codes[i] > 0), None)) is not None:
            self._times_simple(codes, i)
        return self.perm_of(codes)

    def theta_perm(self, perm):
        return self.perm_of([self.simple_codes[p] for p in perm])


def indecomposables_by_subtraction(simple, pos):
    """Whether simple, a subset of the positive roots pos, is the set of
    those that are no sum of two: each of simple is none, and every other
    minus some root of simple is positive."""
    return not any(tuple(map(sub, b, u)) in pos for b in simple for u in pos if u != b) \
        and all(any(tuple(map(sub, v, b)) in pos for b in simple)
                for v in pos.difference(simple))
