"""Reference Weyl-group routes the library used before.

The library reads |W| and |W^theta| off the heights of the positive roots
(Macdonald's formula), and the Weyl element of a monomial matrix off the
roots its permutation sends the simple roots to.  These are the rules it
used before: the order of each irreducible component read off its Dynkin
type, and the Weyl element multiplied out from a bubble sort of the
permutation.  The classifier shares no code with the height formula, so the
tests compare the two.
"""

import math

from splitinv.errors import RootDatumError
from splitinv.rootdata import analyze_weyl


def weyl_group_order(cartan):
    """Order of the Weyl group of a Cartan matrix, as the product over its
    irreducible components (Bourbaki, Lie Groups VI, Plates I-IX): (k+1)! for
    A_k, 2^k k! for B_k and C_k, 2^(k-1) k! for D_k and 12 for G_2.  Any
    other matrix raises RootDatumError."""
    n = len(cartan)
    bonds = {}     # i < j -> a_ij a_ji, for linked i, j
    for i in range(n):
        if cartan[i][i] != 2:
            raise RootDatumError(f"Cartan matrix has {cartan[i][i]} on the diagonal")
        for j in range(i + 1, n):
            a, b = cartan[i][j], cartan[j][i]
            if a or b:
                if not (a < 0 and b < 0 and a * b <= 3):
                    raise RootDatumError(
                        f"Cartan entries {a}, {b} at {i}, {j} are not of finite type")
                bonds[i, j] = a * b
    order, seen = 1, set()
    for start in range(n):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            i = stack.pop()
            for j in range(n):
                if j not in comp and (min(i, j), max(i, j)) in bonds:
                    comp.add(j)
                    stack.append(j)
        seen |= comp
        order *= _component_weyl_order(
            len(comp), {e: m for e, m in bonds.items() if e[0] in comp})
    return order


def _component_weyl_order(k, bonds):
    """Weyl group order of a connected Dynkin diagram with k nodes, given by
    its bonds (pair of nodes -> a_ij a_ji)."""
    fact = math.factorial(k)
    degree = {}
    for i, j in bonds:
        degree[i] = degree.get(i, 0) + 1
        degree[j] = degree.get(j, 0) + 1
    doubles = [e for e, m in bonds.items() if m == 2]
    top = max(degree.values(), default=0)
    branches = [i for i, d in degree.items() if d == 3]
    # finite type needs a tree, and a triple bond only occurs in G_2
    if len(bonds) == k - 1 and (k == 2 or 3 not in bonds.values()):
        if 3 in bonds.values():
            return 12                                   # G_2
        if top <= 2 and not doubles:
            return fact * (k + 1)                       # A_k: a path
        if top <= 2 and len(doubles) == 1 and 1 in (degree[i] for i in doubles[0]):
            return 2 ** k * fact                        # B_k, C_k: the double bond at an end
        if top == 3 and not doubles and len(branches) == 1:
            b = branches[0]
            if sum(degree[i + j - b] == 1 for i, j in bonds if b in (i, j)) >= 2:
                return 2 ** (k - 1) * fact              # D_k: two arms of length 1
    raise RootDatumError(f"Dynkin diagram with bonds {sorted(bonds.items())} "
                         "is not of type A, B, C, D or G2")


def restricted_cartan(rrs):
    """The Cartan matrix <beta_j, beta_i_vee> of the simple restricted roots."""
    simple = rrs.simple_restricted
    return [[rrs.pair_restricted(b, rrs.restricted[a].coroot) for b in simple] for a in simple]


def weyl_of_permutation(datum, perm):
    """The Weyl element of SL(n) (datum of type A_{n-1}) whose lift sends
    e_j to a multiple of e_perm[j]: a bubble sort of perm, each swap of
    neighbours i, i+1 one letter s_i, multiplied out in reverse."""
    word, p = [], list(perm)
    while p != sorted(p):  # each swap removes one inversion
        for i in range(len(p) - 1):
            if p[i] > p[i + 1]:
                p[i], p[i + 1] = p[i + 1], p[i]
                word.append(i)
                break
    return analyze_weyl(datum, tuple(reversed(word)))
