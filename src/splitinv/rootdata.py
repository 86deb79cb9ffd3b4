"""Based root data, Weyl groups, pinned automorphisms, and restriction to
the fixed subtorus of a pinned automorphism.

Conventions.  Root data are simply-connected and semisimple: the cocharacter
lattice is spanned by the simple coroots and the character lattice by the
fundamental weights.  Roots are stored by their coordinates in the
simple-root basis, coroots by coordinates in the simple-coroot basis, and
``cartan[i][j] = <alpha_j, alpha_i_vee>``.  Characters restricted to the
fixed subtorus are recorded by their values on the orbit sums of simple
coroots, which form a basis of the fixed cocharacter lattice.  A datum is
built from a search of the positive roots alone, each negative root read
off its partner through the negation table; a simple reflection is built
the first time it is read.  A restriction numbers the restricted roots in
sorted order and reads them by index tables: the restricted index of each
root, and the negative and the double or half of each restricted root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import neg, sub
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import RootDatumError

Vec = Tuple[int, ...]
Mat = Tuple[Vec, ...]


# ---------------------------------------------------------------------------
# Cartan matrices
# ---------------------------------------------------------------------------

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


def _int_field(raw, field: str) -> int:
    """A rank or a permutation entry; a float, bool or string is rejected,
    never truncated."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise RootDatumError(f"field {field!r}: expected an integer, got {raw!r}")
    return raw


def _checked_family(entry) -> Tuple[str, int]:
    try:
        family, raw = entry
    except (TypeError, ValueError):
        raise RootDatumError(f"type entry {entry!r} is not a (family, rank) pair") from None
    rank = _int_field(raw, "rank")
    if not isinstance(family, str) or family not in _MIN_RANK:
        raise RootDatumError(f"unsupported family {family!r}; expected one of A, B, C, D")
    if rank < _MIN_RANK[family]:
        raise RootDatumError(f"family {family} requires rank >= {_MIN_RANK[family]}, got {rank}")
    return family, rank


def _cartan_block(family: str, rank: int) -> List[List[int]]:
    c = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i in range(rank - 1):
        c[i][i + 1] = -1
        c[i + 1][i] = -1
    if family == "B":
        # last simple root short
        c[rank - 1][rank - 2] = -2
    elif family == "C":
        # last simple root long
        c[rank - 2][rank - 1] = -2
    elif family == "D":
        for i, j in ((rank - 2, rank - 1), (rank - 1, rank - 2)):
            c[i][j] = 0
        c[rank - 3][rank - 1] = -1
        c[rank - 1][rank - 3] = -1
    return c


def _sparse_rows(cartan: Mat) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """The nonzero entries (j, cartan[i][j]) of each row: at most four."""
    return tuple([tuple([(j, c) for j, c in enumerate(row) if c]) for row in cartan])


_ROOT_COUNT = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
}

# the largest |roots| x rank a RootDatum builds: the root tables hold about
# that many integers, and the A100 flip (1,010,000) restricts in a few seconds
SIZE_BUDGET = 1_050_000


@dataclass(frozen=True)
class Root:
    coords: Vec     # simple-root basis
    coroot: Vec     # simple-coroot basis
    positive: bool
    height: int


class RootDatum:
    """Simply-connected based root datum of a product of classical groups."""

    def __init__(self, families: Sequence[Tuple[str, int]]):
        if not isinstance(families, (list, tuple)) or not families:
            raise RootDatumError(f"type specification {families!r} is not a non-empty "
                                 "list of (family, rank) pairs")
        families = tuple(map(_checked_family, families))
        rank = sum(r for _, r in families)
        expected = sum(_ROOT_COUNT[f](r) for f, r in families)
        size = expected * rank
        if size > SIZE_BUDGET:
            shown = size if size.bit_length() <= 64 else f"2^{size.bit_length() - 1} or more"
            raise RootDatumError(f"datum too large: |roots| x rank = {shown}, "
                                 f"above the budget of {SIZE_BUDGET}")
        cartan, off = [], 0
        for f, r in families:
            cartan += [[0] * off + row + [0] * (rank - off - r) for row in _cartan_block(f, r)]
            off += r
        self.families = families
        self.rank = rank
        self.cartan: Mat = tuple(tuple(row) for row in cartan)
        # s_i on heights (row i) and on coroot coordinates: coroots are the
        # roots of the dual datum, whose Cartan matrix is the transpose
        self.cartan_rows = _sparse_rows(self.cartan)
        self.dual_rows = _sparse_rows(tuple(zip(*self.cartan)))
        # pairings[j][i] = <root j, alpha_i_vee>: the fundamental-weight coordinates
        self.roots, self.pairings, self._tree, self._negation = self._generate_roots()
        if len(self.roots) != expected:
            raise RootDatumError("root enumeration does not match the classification count")
        # the tables of the Weyl kernel: positive roots come first in `roots`
        self.root_index: Dict[Vec, int] = {r.coords: j for j, r in enumerate(self.roots)}
        self._heights: Tuple[int, ...] = tuple(r.height for r in self.roots)
        self.n_positive = len(self.roots) // 2
        # the roots of height 1 come first, alpha_{rank-1} first of them
        self.simple_index: Tuple[int, ...] = tuple(range(rank - 1, -1, -1))
        # each root as one integer, its coordinates the signed digits in base
        # 8 (they lie in [-2, 2]), so that a sum of roots is a sum of integers;
        # the top digit outweighs the rest, so a code has the sign of its root
        self._simple_codes = tuple(8 ** i for i in range(rank))
        self._code_index: Dict[int, int] = {
            c: j for j, c in enumerate(self._linear_codes(self._simple_codes))}
        ident = tuple(range(len(self.roots)))
        self._identity = WeylElement._from_perms(self, ident, ident)
        self._simple: List[Optional[WeylElement]] = [None] * rank
        self._weyl_cache: Optional[Tuple["WeylElement", ...]] = None
        self._identity_theta = PinnedAutomorphism(self, range(rank))
        self._identity_theta._root_perms = (ident, ident)

    # -- construction ------------------------------------------------------

    def _generate_roots(self):
        """The roots, sorted; their pairings <root, alpha_i_vee>; the edge
        (root, parent, i, p), root = s_i(parent) = parent + p alpha_i, that
        found each positive root, in order of discovery; and the negation
        table, the index of -(root j) at j.  The search applies to a positive root c the s_i with p =
        -<c, alpha_i_vee> > 0, which reach every positive root (Humphreys 1972,
        10.2), and c carries its pairings (Stembridge 2001): s_i takes p times
        column i of the Cartan matrix off them.  A negative root is its
        partner negated, with no search."""
        dual = self.dual_rows
        columns = tuple(zip(*self.cartan))     # pairings of the simple roots
        found: List[Tuple[Vec, Vec, Vec]] = []  # (root, coroot, pairings) in order of discovery
        tree: List[Tuple[int, int, int, int]] = []    # (id, parent id, i, p) of each new root
        for i in range(self.rank):
            e = (0,) * i + (1,) + (0,) * (self.rank - i - 1)
            found.append((e, e, columns[i]))
        seen = {c for c, _, _ in found}
        for k, (c, d, p) in enumerate(found):    # the list grows while it is walked: a FIFO queue
            for i, pi in enumerate(p):
                if pi < 0:
                    c2 = c[:i] + (c[i] - pi,) + c[i + 1:]
                    if c2 not in seen:
                        seen.add(c2)
                        tree.append((len(found), k, i, -pi))
                        p2, k2 = list(p), 0    # k2 = <alpha_i, coroot>
                        for m, a in dual[i]:
                            p2[m] -= pi * a
                            k2 += a * d[m]
                        found.append((c2, d[:i] + (d[i] - k2,) + d[i + 1:], tuple(p2)))
        npos = len(found)
        found += [(tuple(map(neg, c)), tuple(map(neg, d)), tuple(map(neg, p))) for c, d, p in found]
        height = [sum(c) for c, _, _ in found]
        # positive roots by height, then negative roots by depth; -a < -b
        # exactly when b < a, so those of one depth are their partners reversed
        order = sorted(range(npos), key=lambda k: (height[k], found[k][0]))
        order += sorted([k + npos for k in reversed(order)], key=height.__getitem__, reverse=True)
        position = [0] * len(order)
        for j, k in enumerate(order):
            position[k] = j
        return (tuple([Root(found[k][0], found[k][1], k < npos, height[k]) for k in order]),
                tuple([found[k][2] for k in order]),
                tuple([(position[j], position[k], i, p) for j, k, i, p in tree]),
                tuple([position[(k + npos) % len(order)] for k in order]))

    # -- basic queries ------------------------------------------------------

    def root(self, coords: Vec) -> Root:
        try:
            return self.roots[self.root_index[tuple(coords)]]
        except KeyError:
            raise RootDatumError(f"{coords} is not a root") from None

    @property
    def positive_roots(self) -> Tuple[Root, ...]:
        return self.roots[:self.n_positive]

    def simple_root(self, i: int) -> Root:
        return self.roots[self.simple_index[self._index(i)]]

    def _index(self, i, one_based: bool = False) -> int:
        """The 0-based simple index that i names, 1-based if one_based: a
        bool, a non-int or an index out of range raises RootDatumError naming
        it as written."""
        j = _int_field(i, "simple index") - one_based
        if not 0 <= j < self.rank:
            raise RootDatumError(f"simple index {i} out of range "
                                 f"{int(one_based)}..{self.rank - 1 + one_based}")
        return j

    # -- Weyl group ---------------------------------------------------------

    def identity_weyl(self) -> "WeylElement":
        return self._identity

    def simple_reflection(self, i: int) -> "WeylElement":
        """s_i, built on first use: the identity's codes after one step."""
        i = self._index(i)
        if self._simple[i] is None:
            self._simple[i] = WeylElement._from_perms(self, *self._perms_of(
                self._times_simple(list(self._simple_codes), i)))
        return self._simple[i]

    def weyl_group(self) -> Tuple["WeylElement", ...]:
        """All Weyl elements (cached), if |W| is within WEYL_BUDGET."""
        if self._weyl_cache is None:
            _check_enumerable(self, "|W|", _weyl_order(self._heights[:self.n_positive]))
            self._weyl_cache = _closure(
                self.identity_weyl(), [self.simple_reflection(i) for i in range(self.rank)])
        return self._weyl_cache

    def _linear_codes(self, simple_codes: Sequence[int]) -> List[int]:
        """The codes of the images of the roots under the linear map taking alpha_i
        to the root coded simple_codes[i]: parent + p alpha_i goes to image(parent)
        + p simple_codes[i], along the edges of the root search, and -(root j)
        to minus the image of root j."""
        npos = self.n_positive
        out = [0] * len(self.roots)
        for s, c in zip(self.simple_index, simple_codes):
            out[s] = c
        for k, parent, i, p in self._tree:
            out[k] = out[parent] + p * simple_codes[i]
        out[npos:] = [-out[j] for j in self._negation[npos:]]
        return out

    def _perms_of(self, simple_codes: Sequence[int]) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """The permutation of root indices of the linear map taking alpha_i to
        the root coded simple_codes[i], and its inverse: the one builder of a
        root permutation, a Weyl element or theta being fixed by where it sends
        the simple roots (Casselman 1994; Bjorner-Brenti, GTM 231, ch. 4)."""
        perm = tuple(map(self._code_index.__getitem__, self._linear_codes(simple_codes)))
        inv = [0] * len(perm)
        for j, k in enumerate(perm):
            inv[k] = j
        return perm, tuple(inv)

    def _times_simple(self, codes: List[int], i: int) -> List[int]:
        """w <- w s_i on the codes c_j of w(alpha_j), in place: w s_i alpha_j =
        w alpha_j - <alpha_j, alpha_i_vee> w alpha_i, row i of the Cartan matrix."""
        ci = codes[i]
        for j, c in self.cartan_rows[i]:
            codes[j] -= c * ci
        return codes

    def _simple_heights(self, inv_perm: Sequence[int]) -> List[int]:
        """The heights of w^{-1} alpha_i, i < rank, for w^{-1} given by inv_perm."""
        return [self._heights[inv_perm[s]] for s in self.simple_index]

    def longest_element(self) -> "WeylElement":
        return self._longest_in(range(self.rank))

    def _longest_in(self, nodes: Sequence[int]) -> "WeylElement":
        """The longest element of the subgroup generated by the simple
        reflections s_i, i in nodes: w <- w s_i while some w alpha_i > 0 (a
        right ascent), on the codes of the w alpha_j, then one root permutation."""
        codes = list(self._simple_codes)
        while (i := next((i for i in nodes if codes[i] > 0), None)) is not None:
            self._times_simple(codes, i)
        return WeylElement._from_perms(self, *self._perms_of(codes))

    def __repr__(self):
        return "RootDatum(" + "x".join(f"{f}{r}" for f, r in self.families) + ")"


def build_root_datum(type_spec: Sequence[Tuple[str, int]]) -> RootDatum:
    """Build the simply-connected datum for a product of classical families."""
    return RootDatum(type_spec)


class WeylElement:
    """Weyl group element with canonical (lexicographically least) reduced word.

    Stored as the permutation it induces on the indices of ``datum.roots``
    (``perm[j]`` is the index of w(root j)) together with the permutation of
    w^{-1}; everything else is read off these through the datum's tables
    (Casselman, Machine calculations in Weyl groups, 1994).  A word, the
    longest element of a set of nodes and a simple reflection all reach these
    permutations the same way: the codes of the w(alpha_j) through w <- w s_i,
    one Cartan row per letter, then ``RootDatum._perms_of`` once."""

    __slots__ = ("datum", "perm", "inv_perm", "_word", "_inversions", "_coroot_rows")

    def __init__(self):
        raise RootDatumError("use datum.simple_reflection / analyze_weyl to build Weyl elements")

    @classmethod
    def _from_perms(cls, datum, perm, inv_perm) -> "WeylElement":
        self = object.__new__(cls)
        self.datum = datum
        self.perm = perm
        self.inv_perm = inv_perm
        self._word = None
        self._inversions = None
        self._coroot_rows = None
        return self

    # -- group structure ----------------------------------------------------

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if other.datum is not self.datum:
            raise RootDatumError("Weyl elements from different data")
        return WeylElement._from_perms(self.datum,
                                       tuple(map(self.perm.__getitem__, other.perm)),
                                       tuple(map(other.inv_perm.__getitem__, self.inv_perm)))

    def inverse(self) -> "WeylElement":
        return WeylElement._from_perms(self.datum, self.inv_perm, self.perm)

    def __eq__(self, other):
        return isinstance(other, WeylElement) and self.datum is other.datum \
            and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def inverts(self, j: int) -> bool:
        """Whether w^{-1} sends root j (an index into ``datum.roots``) to a
        negative root; for a simple root alpha_i, whether s_i w < w."""
        return self.inv_perm[j] >= self.datum.n_positive

    # -- actions -------------------------------------------------------------

    def coroot_images(self) -> Tuple[Vec, ...]:
        """w(alpha_i_vee) for each simple index i: the coroot (w alpha_i)_vee."""
        roots = self.datum.roots
        return tuple(roots[self.perm[s]].coroot for s in self.datum.simple_index)

    def coroot_rows(self) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
        """w(alpha_i_vee) for each simple index i as its nonzero (index,
        exponent) entries (cached)."""
        if self._coroot_rows is None:
            self._coroot_rows = tuple(tuple((j, e) for j, e in enumerate(img) if e)
                                      for img in self.coroot_images())
        return self._coroot_rows

    def act_weight(self, weight: Vec) -> Vec:
        """Action on the fundamental-weight coordinates of a character:
        <w lambda, alpha_i_vee> = <lambda, w^{-1} alpha_i_vee>.  The library
        moves roots only through ``perm``; this coordinate action is kept as
        the weight-lattice cross-check of the Steinberg suite's check 5."""
        return tuple(sum(x * y for x, y in zip(weight, img))
                     for img in self.inverse().coroot_images())

    # -- reduced words -------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return self.perm == self.datum._identity.perm

    @property
    def word(self) -> Tuple[int, ...]:
        """Canonical reduced word (0-based indices), lexicographically least:
        peel off the first s_i whose v^{-1} alpha_i has negative height h_i
        while v = s_i ... w has one; v <- s_i v takes h_j to h_j - <alpha_j,
        alpha_i_vee> h_i, row i of the Cartan matrix (Casselman 1994; Bjorner-Brenti, GTM 231)."""
        if self._word is None:
            rows = self.datum.cartan_rows
            h = self.datum._simple_heights(self.inv_perm)
            letters = []
            while (i := next((i for i, x in enumerate(h) if x < 0), None)) is not None:
                letters.append(i)
                hi = h[i]
                for j, c in rows[i]:
                    h[j] -= c * hi
            self._word = tuple(letters)
        return self._word

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def inversions(self) -> Tuple[Root, ...]:
        """R(w) = positive roots sent negative by w^{-1}."""
        if self._inversions is None:
            roots, npos = self.datum.roots, self.datum.n_positive
            self._inversions = tuple(roots[j] for j in range(npos)
                                     if self.inv_perm[j] >= npos)
        return self._inversions

    def __repr__(self):
        return "w[" + ",".join(str(i + 1) for i in self.word) + "]" if self.word else "w[e]"


# the most elements one Weyl enumeration lists: A7 (40,320) takes 3.3 s and
# 65 MiB peak under Python 3.11 on a 2-CPU Xeon, A8 (362,880) nine times that
WEYL_BUDGET = 50_000


def _check_enumerable(datum: RootDatum, what: str, order: int) -> None:
    if order > WEYL_BUDGET:
        raise RootDatumError(f"datum {datum!r}: {what} = {order} is above the "
                             f"enumeration budget of {WEYL_BUDGET}")


def _weyl_order(heights: Sequence[int]) -> int:
    """|W| of a reduced root system from the heights of its positive roots:
    the product of (h + 1) / h over them, the Poincare series
    sum_w t^l(w) = prod (1 - t^(h+1)) / (1 - t^h) at t = 1 (Macdonald 1972,
    The Poincare series of a Coxeter group), exact in integers."""
    return math.prod(h + 1 for h in heights) // math.prod(heights)


def _closure(identity: WeylElement, gens: Sequence[WeylElement]) -> Tuple[WeylElement, ...]:
    """The group generated by gens, in breadth-first order of right
    multiplication by the generators in the given order."""
    seen = {identity: None}
    frontier = [identity]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                w2 = w * g
                if w2 not in seen:
                    seen[w2] = None
                    nxt.append(w2)
        frontier = nxt
    return tuple(seen)


def analyze_weyl(datum: RootDatum, word: Sequence[int], one_based: bool = False) -> WeylElement:
    """Multiply out a (not necessarily reduced) reflection word and return the
    canonical Weyl element.  Idempotent on canonical words.

    The codes of the images w(alpha_j) of the simple roots take the letters
    from the left, w <- w s_i one Cartan row each, and the root permutation is
    built once from them (``RootDatum._perms_of``).  A word that is not a
    sequence, or a letter that is a bool, a non-int or out of range, raises
    RootDatumError."""
    try:
        letters = iter(word)
    except TypeError:
        raise RootDatumError(f"reflection word {word!r} is not a sequence") from None
    codes = list(datum._simple_codes)
    for i in letters:
        datum._times_simple(codes, datum._index(i, one_based))
    if codes == list(datum._simple_codes):
        return datum.identity_weyl()
    w = WeylElement._from_perms(datum, *datum._perms_of(codes))
    assert w.length == len(w.inversions)
    return w


# ---------------------------------------------------------------------------
# pinned automorphisms
# ---------------------------------------------------------------------------

class PinnedAutomorphism:
    """Automorphism of the based datum given by a simple-root permutation.

    Preserves the Cartan matrix and hence the positive system; acts on both
    lattices by the same permutation of basis indices.
    """

    def __init__(self, datum: RootDatum, perm: Sequence[int]):
        perm = tuple(_int_field(p, "perm") for p in perm)
        if sorted(perm) != list(range(datum.rank)):
            raise RootDatumError(f"not a permutation of 0..{datum.rank - 1}: {perm}")
        if tuple(tuple(datum.cartan[p][q] for q in perm) for p in perm) != datum.cartan:
            raise RootDatumError("permutation does not preserve the Cartan matrix")
        self.datum = datum
        self.perm = perm
        self.inv_perm = tuple(sorted(range(len(perm)), key=perm.__getitem__))
        self._root_perms: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None

    @staticmethod
    def identity(datum: RootDatum) -> "PinnedAutomorphism":
        """The identity of datum: one instance, shared by every caller."""
        return datum._identity_theta

    @property
    def order(self) -> int:
        k, p = 1, self.perm
        cur = p
        while cur != tuple(range(len(p))):
            cur = tuple(p[i] for i in cur)
            k += 1
        return k

    @property
    def is_identity(self) -> bool:
        return self.perm == tuple(range(self.datum.rank))

    def act_root(self, coords: Vec) -> Vec:
        """alpha_i -> alpha_{perm[i]} on coordinates, as the suites' checks
        use it; ``root_perm`` is built from the codes of the alpha_{perm[i]}
        instead, and the tests compare the two."""
        return tuple(coords[i] for i in self.inv_perm)

    def _perms(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """theta's permutation of the indices of ``datum.roots`` and its
        inverse, built on first use by ``RootDatum._perms_of`` from the codes
        of the alpha_{theta(i)}."""
        if self._root_perms is None:
            codes = self.datum._simple_codes
            self._root_perms = self.datum._perms_of([codes[p] for p in self.perm])
        return self._root_perms

    @property
    def root_perm(self) -> Tuple[int, ...]:
        """``root_perm[j]`` is the index of theta(root j)."""
        return self._perms()[0]

    def act_weyl(self, w: WeylElement) -> WeylElement:
        """Conjugation w -> theta w theta^{-1}, through theta's permutation
        of the roots."""
        fwd, back = self._perms()
        return WeylElement._from_perms(self.datum,
                                       tuple(fwd[w.perm[j]] for j in back),
                                       tuple(fwd[w.inv_perm[j]] for j in back))

    def orbits(self) -> Tuple[Tuple[int, ...], ...]:
        """Orbits on simple-root indices, each sorted, ordered by least element."""
        seen, out = set(), []
        for i in range(self.datum.rank):
            if i in seen:
                continue
            orb, j = [], i
            while j not in seen:
                seen.add(j)
                orb.append(j)
                j = self.perm[j]
            out.append(tuple(sorted(orb)))
        return tuple(sorted(out))

    def compose(self, other: "PinnedAutomorphism") -> "PinnedAutomorphism":
        """self after other.  On one datum both factors passed the Cartan
        check, so the composite is read off their permutations of the
        simple roots and of the roots without checking or acting again."""
        perm = tuple(map(self.perm.__getitem__, other.perm))
        if other.datum is not self.datum:
            return PinnedAutomorphism(self.datum, perm)
        (fwd, back), (ofwd, oback) = self._perms(), other._perms()
        out = object.__new__(PinnedAutomorphism)
        out.datum, out.perm = self.datum, perm
        out.inv_perm = tuple(map(other.inv_perm.__getitem__, self.inv_perm))
        out._root_perms = (tuple(map(fwd.__getitem__, ofwd)),
                           tuple(map(oback.__getitem__, back)))
        return out

    def power(self, k: int) -> "PinnedAutomorphism":
        k %= self.order
        out = PinnedAutomorphism.identity(self.datum)
        for _ in range(k):
            out = self.compose(out)
        return out

    def commutes_with(self, w: WeylElement) -> bool:
        """Whether theta w = w theta: both sides are linear, so it is enough
        that theta(w alpha_i) = w(theta alpha_i) on the simple roots."""
        fwd, perm = self.root_perm, w.perm
        return all(fwd[perm[s]] == perm[fwd[s]] for s in self.datum.simple_index)

    def __repr__(self):
        return f"theta{tuple(p + 1 for p in self.perm)}"


class RootAutomorphism:
    """Composite automorphism w . g of the root system, with w in the Weyl
    group and g a pinned diagram automorphism.  Acts as alpha -> w(g(alpha))."""

    def __init__(self, weyl: WeylElement, diagram: Optional[PinnedAutomorphism] = None):
        self.weyl = weyl
        self.diagram = diagram if diagram is not None \
            else PinnedAutomorphism.identity(weyl.datum)
        self.datum = weyl.datum
        # perm[j] is the index of w(g(root j))
        self.perm: Tuple[int, ...] = tuple(map(weyl.perm.__getitem__, self.diagram.root_perm))

    def __repr__(self):
        return f"RootAut({self.weyl!r}, {self.diagram!r})"


# ---------------------------------------------------------------------------
# restriction to the fixed subtorus
# ---------------------------------------------------------------------------

R1, R2, R3 = "R1", "R2", "R3"


@dataclass(frozen=True)
class RestrictedRoot:
    coords: Vec               # values on the orbit sums of simple coroots
    rtype: str                # R1 / R2 / R3
    positive: bool
    orbit: Tuple[Vec, ...]    # the orbit of roots restricting to it
    coroot: Vec               # coroot in the simple-coroot basis of the ambient datum


class RestrictedRootSystem:
    """The image of the root system on the fixed subtorus of a pinned
    automorphism, with types, orbits, and the fixed-subgroup Weyl group."""

    def __init__(self, datum: RootDatum, theta: PinnedAutomorphism):
        if theta.datum is not datum:
            raise RootDatumError("automorphism belongs to a different datum")
        self.datum = datum
        self.theta = theta
        self.simple_orbits = theta.orbits()
        # X*(T)/(theta-1)X*(T) needs no torsion check: theta permutes the
        # fundamental-weight basis of X*(T), so the quotient is free on the
        # theta-orbits, with restrict_weight as the quotient map.
        self._build_roots()
        self._fixed_weyl_cache: Optional[Tuple[WeylElement, ...]] = None

    @cached_property
    def levi_longest(self) -> Dict[Vec, WeylElement]:
        """The image of each simple restricted reflection in Omega^theta: the
        longest element of the Levi attached to the restricted line, by
        simple restricted root, built and checked theta-fixed on first read."""
        out = {}
        for beta in self.simple_restricted:
            w = levi_component(self, beta).longest
            if not self.theta.commutes_with(w):
                raise RootDatumError("restricted reflection image not theta-fixed")
            out[beta] = w
        return out

    # restriction of a character given by fundamental-weight coordinates
    # (the quotient map onto the coinvariant lattice in orbit coordinates)
    def restrict_weight(self, weight: Vec) -> Vec:
        return tuple(sum(weight[i] for i in orb) for orb in self.simple_orbits)

    def restrict_root(self, coords: Vec) -> Vec:
        try:
            return self._res_roots[self._res_of[self.datum.root_index[tuple(coords)]]].coords
        except KeyError:
            raise RootDatumError(f"{tuple(coords)} is not a root") from None

    def _build_roots(self):
        """The restricted roots and the tables ``_res_of``, ``_res_negation`` and
        ``_res_double`` (i where i has no double or half).  Only positive roots
        are restricted: -alpha restricts to minus alpha's restriction."""
        datum, fwd = self.datum, self.theta.root_perm
        roots, npos, partner = datum.roots, datum.n_positive, datum._negation
        pos_res = [self.restrict_weight(p) for p in datum.pairings[:npos]]
        pos = set(pos_res)
        minus = {tuple(map(neg, v)) for v in pos}
        if tuple([0] * len(self.simple_orbits)) in pos:
            raise RootDatumError("a root restricts to zero")
        if not pos.isdisjoint(minus):
            raise RootDatumError("restriction does not separate positive and negative roots")
        keys = sorted(pos | minus)
        position = {v: i for i, v in enumerate(keys)}
        negation = [position[tuple(map(neg, v))] for v in keys]
        double, rtype = list(range(len(keys))), [R1] * len(keys)
        for i, v in enumerate(keys):
            j = position.get(tuple(2 * x for x in v))
            if j is not None:
                double[i], double[j], rtype[i], rtype[j] = j, i, R2, R3
        res_of = [position[v] for v in pos_res]
        res_of += [negation[res_of[partner[j]]] for j in range(npos, len(roots))]
        fibers: List[List[int]] = [[] for _ in keys]
        for j, i in enumerate(res_of):
            fibers[i].append(j)
        restricted = {}
        for res, fiber, t in zip(keys, fibers, rtype):
            # the theta-orbit of any preimage must be the whole fiber
            probe, j = set(), fiber[0]
            while j not in probe:
                probe.add(j)
                j = fwd[j]
            if probe != set(fiber):
                raise RootDatumError("orbit/fiber mismatch in restriction")
            nsum = tuple(map(sum, zip(*(roots[j].coroot for j in fiber))))
            restricted[res] = RestrictedRoot(res, t, res in pos,
                                             tuple(sorted(roots[j].coords for j in fiber)),
                                             tuple(2 * x for x in nsum) if t == R2 else nsum)
        self.restricted: Dict[Vec, RestrictedRoot] = restricted
        self._res_roots, self._res_position = tuple(restricted.values()), position
        self._res_of, self._res_negation, self._res_double = map(tuple, (res_of, negation, double))
        self.res_rank = len(self.simple_orbits)
        for rr in self._res_roots:
            if self._pair(rr.coords, rr.coroot) != 2:
                raise RootDatumError("restricted coroot normalization failed")
        self.simple_restricted: Tuple[Vec, ...] = tuple(sorted(
            {keys[res_of[s]] for s in datum.simple_index}))
        if not _indecomposables_are(self.simple_restricted,
                                    {v for v, rr in restricted.items() if rr.positive},
                                    self.res_rank):
            raise RootDatumError("images of simple roots are not the simple restricted roots")

    # pairing of a restricted character with a theta-fixed cocharacter
    def pair_restricted(self, res_coords: Vec, coroot_coords: Vec) -> int:
        if any(coroot_coords[i] != coroot_coords[orb[0]]
               for orb in self.simple_orbits for i in orb):
            raise RootDatumError("cocharacter is not theta-fixed")
        return self._pair(res_coords, coroot_coords)

    def _pair(self, res_coords: Vec, coroot_coords: Vec) -> int:
        """``pair_restricted`` without its check, for the restricted coroots:
        each is a sum over a theta-orbit of coroots, so it is theta-fixed."""
        return sum(coroot_coords[orb[0]] * x for orb, x in zip(self.simple_orbits, res_coords))

    def reflect_restricted(self, res_coords: Vec, by: Vec) -> Vec:
        rr = self.restricted[by]
        k = self._pair(res_coords, rr.coroot)
        return tuple(res_coords[i] - k * rr.coords[i] for i in range(self.res_rank))

    @property
    def positive_restricted(self) -> Tuple[Vec, ...]:
        return tuple(sorted(v for v, rr in self.restricted.items() if rr.positive))

    def rtype(self, res_coords: Vec) -> str:
        return self.restricted[tuple(res_coords)].rtype

    @property
    def is_reduced(self) -> bool:
        return all(rr.rtype == R1 for rr in self.restricted.values())

    # -- fixed-subgroup Weyl group -------------------------------------------

    def fixed_weyl_subgroup(self) -> Tuple[WeylElement, ...]:
        """Omega^theta, enumerated on first call by closure under the images
        of the simple restricted reflections (cached), if its order is
        within WEYL_BUDGET."""
        if self._fixed_weyl_cache is None:
            _check_enumerable(self.datum, "|W^theta|", self.fixed_weyl_order())
            self._fixed_weyl_cache = _closure(
                self.datum.identity_weyl(),
                [self.levi_longest[beta] for beta in self.simple_restricted])
        return self._fixed_weyl_cache

    def fixed_weyl_order(self) -> int:
        """|Omega^theta|, the order of the Weyl group of the restricted root
        system, from the heights of its positive roots without enumerating
        the group.  Restriction is linear and sends alpha_i to the simple
        restricted root of its theta-orbit, so a root sum_i c_i alpha_i
        restricts to a root of height sum_i c_i over the simple restricted
        roots: every root of a fiber has the height of the restricted root.
        The R3 roots are the divisible ones; without them the system is
        reduced, with the same simple roots and the same Weyl group
        (W(BC_n) = W(B_n)), and ``_weyl_order`` applies to it."""
        return _weyl_order([sum(rr.orbit[0]) for rr in self._res_roots
                            if rr.positive and rr.rtype != R3])

    def res_word_of(self, w: WeylElement) -> Tuple[int, ...]:
        """Reduced word in simple restricted reflections (indices into
        ``simple_restricted``) for a theta-fixed w, lexicographically least:
        peel off the first beta with w^{-1} beta < 0 as long as w != 1.

        Omega^theta is a Coxeter group on the ``levi_longest`` elements
        (Steinberg, Endomorphisms of linear algebraic groups, 1968), so this
        is the descent rule of ``WeylElement.word``."""
        if not self.theta.commutes_with(w):
            raise RootDatumError("element is not in the fixed Weyl subgroup")
        index = self.datum.root_index
        descent = [index[self.restricted[beta].orbit[0]] for beta in self.simple_restricted]
        letters = []
        while not w.is_identity:
            gi = next(gi for gi, j in enumerate(descent) if w.inverts(j))
            letters.append(gi)
            w = self.levi_longest[self.simple_restricted[gi]].inverse() * w
        return tuple(letters)

    def res_inversions(self, inverse_perm: Sequence[int]) -> Tuple[int, ...]:
        """The indices of the positive indivisible restricted roots that the
        permutation inverse_perm of restricted indices sends negative."""
        res = self._res_roots
        return tuple(i for i, rr in enumerate(res) if rr.positive and rr.rtype != R3
                     and not res[inverse_perm[i]].positive)


def _indecomposables_are(simple: Sequence[Vec], pos: set, rank: int) -> bool:
    """Whether simple, a subset of the positive roots pos of a root system
    of the given rank, is the set of those that are no sum of two: it has
    rank elements, and every other root of pos minus one of simple is in pos.
    By the second clause every root of pos is a sum of roots of simple, so
    simple holds every indecomposable root, the base of pos, which has rank
    elements since the roots span: so simple is the base if it has rank
    elements.  The second clause makes at most len(simple) x len(pos)
    subtractions, stopping for each root at its first hit."""
    return len(simple) == rank and all(any(tuple(map(sub, v, b)) in pos for b in simple)
                                       for v in pos.difference(simple))


@dataclass(frozen=True)
class LeviComponent:
    """The Levi attached to a simple restricted root: preimage of the
    restricted line, with its diagram decomposition and longest Weyl element."""

    roots: Tuple[Vec, ...]             # all roots of the Levi
    components: Tuple[Tuple[Vec, ...], ...]  # its simple roots by diagram component
    kind: str                          # "A1" or "A2"
    longest: WeylElement


def restrict_root_system(datum: RootDatum, theta: PinnedAutomorphism) -> RestrictedRootSystem:
    """Restriction of the root system to the fixed subtorus of theta."""
    return RestrictedRootSystem(datum, theta)


def levi_component(rrs: RestrictedRootSystem, beta) -> LeviComponent:
    """Levi subgroup data for a simple restricted root beta: the standard
    Levi of the theta-orbit J of simple roots that restricts to beta, which
    is the fiber of beta.  Restriction is linear, the simple restricted roots
    are independent and the coefficients of a root have one sign, so a root
    restricts to a multiple of beta exactly when its support lies in J."""
    beta = tuple(beta)
    if beta not in rrs.simple_restricted:
        raise RootDatumError(f"{beta} is not a simple restricted root")
    datum, i = rrs.datum, rrs._res_position[beta]
    simples = {c.index(1): c for c in rrs.restricted[beta].orbit}    # J, by simple index
    nodes = sorted(simples)
    # the multiples of beta: +-beta and, when it is a restricted root, +-2 beta
    lines = {m for k in (i, rrs._res_double[i]) for m in (k, rrs._res_negation[k])}
    roots = tuple(sorted(c for m in lines for c in rrs._res_roots[m].orbit))
    components = tuple(sorted(
        tuple(sorted(simples[i] for i in piece))
        for piece in _diagram_pieces(nodes, lambda i, j: datum.cartan[i][j] != 0)))
    kind = {(1,): "A1", (2,): "A2"}.get(tuple({len(c) for c in components}))
    if kind is None:
        raise RootDatumError("Levi component is not a union of A1 or A2 diagrams")
    # sanity: component root counts match the diagram type
    if len(roots) != (2 if kind == "A1" else 6) * len(components):
        raise RootDatumError("Levi root count does not match its diagram")
    return LeviComponent(roots, components, kind, datum._longest_in(nodes))


def _diagram_pieces(nodes: Sequence[int], linked) -> List[set]:
    """The connected pieces of the graph on nodes whose edges are the pairs
    with linked(i, j), each found by a walk from its least node."""
    pieces, seen = [], set()
    for start in nodes:
        if start in seen:
            continue
        piece, stack = {start}, [start]
        while stack:
            i = stack.pop()
            for j in nodes:
                if j not in piece and linked(i, j):
                    piece.add(j)
                    stack.append(j)
        seen |= piece
        pieces.append(piece)
    return pieces
