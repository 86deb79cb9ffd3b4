"""Based root data, Weyl groups, pinned automorphisms, and restriction to
the fixed subtorus of a pinned automorphism.

Conventions.  Root data are simply-connected and semisimple: the cocharacter
lattice is spanned by the simple coroots and the character lattice by the
fundamental weights.  Roots are stored by their coordinates in the
simple-root basis, coroots by coordinates in the simple-coroot basis, and
``cartan[i][j] = <alpha_j, alpha_i_vee>``.  Characters restricted to the
fixed subtorus are recorded by their values on the orbit sums of simple
coroots, which form a basis of the fixed cocharacter lattice.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
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


def _cartan_block(family: str, rank: int) -> List[List[int]]:
    if family not in _MIN_RANK:
        raise RootDatumError(f"unsupported family {family!r}; expected one of A, B, C, D")
    if rank < _MIN_RANK[family]:
        raise RootDatumError(f"family {family} requires rank >= {_MIN_RANK[family]}, got {rank}")
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
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in cartan)


def _reflect(row: Sequence[Tuple[int, int]], v: Vec, i: int) -> Vec:
    """s_i in simple-root coordinates, given row i of the Cartan matrix as
    its nonzero entries: v - <v, alpha_i_vee> alpha_i."""
    k = sum(c * v[j] for j, c in row)
    return v[:i] + (v[i] - k,) + v[i + 1:]


_ROOT_COUNT = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
}


@dataclass(frozen=True)
class Root:
    coords: Vec     # simple-root basis
    coroot: Vec     # simple-coroot basis
    positive: bool
    height: int


class RootDatum:
    """Simply-connected based root datum of a product of classical groups."""

    def __init__(self, families: Sequence[Tuple[str, int]]):
        if not families:
            raise RootDatumError("empty type specification")
        families = tuple((f, _int_field(r, "type")) for f, r in families)
        blocks = [_cartan_block(f, r) for f, r in families]
        rank = sum(len(b) for b in blocks)
        cartan = [[0] * rank for _ in range(rank)]
        off = 0
        for b in blocks:
            for i, row in enumerate(b):
                for j, v in enumerate(row):
                    cartan[off + i][off + j] = v
            off += len(b)
        self.families = families
        self.rank = rank
        self.cartan: Mat = tuple(tuple(row) for row in cartan)
        # s_i on coroot coordinates: coroots are the roots of the dual datum,
        # whose Cartan matrix is the transpose
        self.dual_rows = _sparse_rows(tuple(zip(*self.cartan)))
        self.roots, reflections = self._generate_roots()
        expected = sum(_ROOT_COUNT[f](r) for f, r in self.families)
        if len(self.roots) != expected:
            raise RootDatumError("root enumeration does not match the classification count")
        # the tables of the Weyl kernel: positive roots come first in `roots`
        self.root_index: Dict[Vec, int] = {r.coords: j for j, r in enumerate(self.roots)}
        self.n_positive = sum(r.positive for r in self.roots)
        self.simple_index: Tuple[int, ...] = tuple(
            self.root_index[tuple(int(j == i) for j in range(rank))] for i in range(rank))
        ident = tuple(range(len(self.roots)))
        self._identity = WeylElement._from_perms(self, ident, ident)
        self._simple = tuple(WeylElement._from_perms(self, p, p) for p in reflections)
        self._weyl_cache: Optional[Tuple["WeylElement", ...]] = None

    # -- construction ------------------------------------------------------

    def _generate_roots(self) -> Tuple[Tuple[Root, ...], List[Tuple[int, ...]]]:
        """The roots, by breadth-first search from the simple roots under the
        simple reflections, sorted; and each simple reflection as the
        permutation of root indices read off the edges that search walked."""
        rows, dual = _sparse_rows(self.cartan), self.dual_rows
        found: List[Tuple[Vec, Vec]] = []     # (root, coroot) in order of discovery
        ids: Dict[Vec, int] = {}
        edges: List[Tuple[int, ...]] = []     # edges[k][i]: id of s_i(root k)
        for i in range(self.rank):
            e = tuple(1 if j == i else 0 for j in range(self.rank))
            ids[e] = len(found)
            found.append((e, e))
        for c, d in found:      # the list grows while it is walked: a FIFO queue
            out = []
            for i in range(self.rank):
                c2 = _reflect(rows[i], c, i)
                if c2 not in ids:
                    ids[c2] = len(found)
                    found.append((c2, _reflect(dual[i], d, i)))
                out.append(ids[c2])
            edges.append(tuple(out))
        roots = [Root(c, d, self._is_positive(c), sum(c)) for c, d in found]
        # positive roots by height, then negative roots by depth
        order = sorted(range(len(roots)), key=lambda k: (
            not roots[k].positive, abs(roots[k].height), roots[k].coords))
        position = [0] * len(order)
        for j, k in enumerate(order):
            position[k] = j
        reflections = [tuple(position[edges[k][i]] for k in order) for i in range(self.rank)]
        return tuple(roots[k] for k in order), reflections

    @staticmethod
    def _is_positive(coords: Vec) -> bool:
        for x in coords:
            if x > 0:
                return True
            if x < 0:
                return False
        raise RootDatumError("zero vector is not a root")

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
        return self.root(tuple(1 if j == i else 0 for j in range(self.rank)))

    def _coroot_row(self, coroot_coords: Vec) -> Vec:
        """The values <alpha_j, mu_vee> of a cocharacter on the simple roots."""
        terms = [(x, row) for x, row in zip(coroot_coords, self.cartan) if x]
        return tuple(sum(x * row[j] for x, row in terms) for j in range(self.rank))

    def pairing(self, root_coords: Vec, coroot_coords: Vec) -> int:
        """<alpha, mu_vee> for alpha in the root basis, mu_vee in the coroot basis."""
        return sum(map(operator.mul, self._coroot_row(coroot_coords), root_coords))

    def weight_coords(self, root_coords: Vec) -> Vec:
        """Coordinates of a root-lattice element in the fundamental-weight basis."""
        return tuple(sum(self.cartan[i][j] * root_coords[j] for j in range(self.rank))
                     for i in range(self.rank))

    def reflection_in_root(self, coords: Vec) -> "WeylElement":
        """The reflection s_a attached to an arbitrary root a, as a Weyl
        element: b -> b - <b, a_vee> a, with a_vee's row of pairings on the
        simple roots computed once."""
        a = self.root(coords)
        row = self._coroot_row(a.coroot)
        index, mul = self.root_index, operator.mul
        perm = []
        for j, b in enumerate(self.roots):
            k = sum(map(mul, row, b.coords))
            perm.append(index[tuple(x - k * y for x, y in zip(b.coords, a.coords))] if k else j)
        perm = tuple(perm)
        return WeylElement._from_perms(self, perm, perm)

    # -- Weyl group ---------------------------------------------------------

    def identity_weyl(self) -> "WeylElement":
        return self._identity

    def simple_reflection(self, i: int) -> "WeylElement":
        if not 0 <= i < self.rank:
            raise RootDatumError(f"simple reflection index {i} out of range")
        return self._simple[i]

    def weyl_group(self) -> Tuple["WeylElement", ...]:
        """All Weyl elements (cached)."""
        if self._weyl_cache is None:
            self._weyl_cache = _closure(
                self.identity_weyl(), [self.simple_reflection(i) for i in range(self.rank)])
        return self._weyl_cache

    def longest_element(self) -> "WeylElement":
        w = self.identity_weyl()
        while True:
            # a right ascent: w alpha_i > 0
            i = next((i for i, s in enumerate(self.simple_index)
                      if w.perm[s] < self.n_positive), None)
            if i is None:
                return w
            w = w * self.simple_reflection(i)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"type": [[f, r] for f, r in self.families]}

    @staticmethod
    def from_json(doc: dict) -> "RootDatum":
        try:
            fams = [(str(f), r) for f, r in doc["type"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise RootDatumError(f"malformed root datum document: field 'type': {exc}") from None
        return build_root_datum(fams)

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
    (Casselman, Machine calculations in Weyl groups, 1994)."""

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

    def root_images(self) -> Tuple[Vec, ...]:
        """w(alpha_i) for each simple index i."""
        roots = self.datum.roots
        return tuple(roots[self.perm[s]].coords for s in self.datum.simple_index)

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

    def act_root(self, coords: Vec) -> Vec:
        return _combine(self.root_images(), coords)

    def act_root_inv(self, coords: Vec) -> Vec:
        return _combine(self.inverse().root_images(), coords)

    def act_coroot(self, coords: Vec) -> Vec:
        return _combine(self.coroot_images(), coords)

    def act_coroot_inv(self, coords: Vec) -> Vec:
        return _combine(self.inverse().coroot_images(), coords)

    def act_weight(self, weight: Vec) -> Vec:
        """Action on the fundamental-weight coordinates of a character:
        <w lambda, alpha_i_vee> = <lambda, w^{-1} alpha_i_vee>."""
        return tuple(sum(x * y for x, y in zip(weight, img))
                     for img in self.inverse().coroot_images())

    # -- reduced words -------------------------------------------------------

    @property
    def is_identity(self) -> bool:
        return self.perm == self.datum._identity.perm

    @property
    def word(self) -> Tuple[int, ...]:
        """Canonical reduced word (0-based indices), lexicographically least."""
        if self._word is None:
            datum = self.datum
            npos, simple = datum.n_positive, datum.simple_index
            letters = []
            inv = self.inv_perm  # tracks (s_i ... w)^{-1} = w^{-1} s_i ...
            while inv != datum._identity.perm:
                i = next(i for i, s in enumerate(simple) if inv[s] >= npos)
                letters.append(i)
                inv = tuple(map(inv.__getitem__, datum._simple[i].perm))
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


def _combine(images: Sequence[Vec], coords: Vec) -> Vec:
    """sum_i coords[i] * images[i]."""
    out = [0] * len(coords)
    for x, img in zip(coords, images):
        if x:
            for k, y in enumerate(img):
                out[k] += x * y
    return tuple(out)


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
    canonical Weyl element.  Idempotent on canonical words."""
    w = datum.identity_weyl()
    for i in word:
        j = i - 1 if one_based else i
        w = w * datum.simple_reflection(j)
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
        for i in range(datum.rank):
            for j in range(datum.rank):
                if datum.cartan[perm[i]][perm[j]] != datum.cartan[i][j]:
                    raise RootDatumError("permutation does not preserve the Cartan matrix")
        self.datum = datum
        self.perm = perm
        inv = [0] * len(perm)
        for i, p in enumerate(perm):
            inv[p] = i
        self.inv_perm = tuple(inv)
        self._root_perms: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None

    @staticmethod
    def identity(datum: RootDatum) -> "PinnedAutomorphism":
        return PinnedAutomorphism(datum, tuple(range(datum.rank)))

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
        """alpha_i -> alpha_{perm[i]}."""
        return tuple(coords[i] for i in self.inv_perm)

    def act_root_inv(self, coords: Vec) -> Vec:
        return tuple(coords[i] for i in self.perm)

    act_coroot = act_root
    act_coroot_inv = act_root_inv

    def _perms(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """theta's permutation of the indices of ``datum.roots`` and its
        inverse, built on first use."""
        if self._root_perms is None:
            index = self.datum.root_index
            fwd = tuple(index[self.act_root(r.coords)] for r in self.datum.roots)
            back = [0] * len(fwd)
            for j, k in enumerate(fwd):
                back[k] = j
            self._root_perms = (fwd, tuple(back))
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

    def to_json(self) -> dict:
        return {"perm": [p + 1 for p in self.perm]}

    @staticmethod
    def from_json(datum: RootDatum, doc: Optional[dict]) -> "PinnedAutomorphism":
        if doc is None:
            return PinnedAutomorphism.identity(datum)
        try:
            raw = list(doc["perm"])
        except (KeyError, TypeError) as exc:
            raise RootDatumError(f"malformed automorphism document: field 'perm': {exc}") from None
        return PinnedAutomorphism(datum, [_int_field(p, "perm") - 1 for p in raw])

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

    def act_root(self, coords: Vec) -> Vec:
        return self.weyl.act_root(self.diagram.act_root(coords))

    def act_coroot(self, coords: Vec) -> Vec:
        return self.weyl.act_coroot(self.diagram.act_coroot(coords))

    def __repr__(self):
        return f"RootAut({self.weyl!r}, {self.diagram!r})"


def inversion_domain(zeta) -> Tuple[Root, ...]:
    """R(zeta) = positive roots alpha with zeta^{-1}(alpha) negative, in the
    fixed (height, lexicographic) order of ``datum.roots``.  A pinned
    automorphism keeps the positive roots positive, so R(w g) = R(w)."""
    if isinstance(zeta, PinnedAutomorphism):
        return ()
    if isinstance(zeta, RootAutomorphism):
        zeta = zeta.weyl
    return zeta.inversions


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
        # image of each simple restricted reflection in Omega^theta: the
        # longest element of the Levi attached to the restricted line
        self.levi_longest: Dict[Vec, WeylElement] = {}
        for beta in self.simple_restricted:
            w = levi_component(self, beta).longest
            if not theta.commutes_with(w):
                raise RootDatumError("restricted reflection image not theta-fixed")
            self.levi_longest[beta] = w
        self._fixed_weyl_cache: Optional[Tuple[WeylElement, ...]] = None

    # restriction of a character given by fundamental-weight coordinates
    # (the quotient map onto the coinvariant lattice in orbit coordinates)
    def restrict_weight(self, weight: Vec) -> Vec:
        return tuple(sum(weight[i] for i in orb) for orb in self.simple_orbits)

    def restrict_root(self, coords: Vec) -> Vec:
        return self.restrict_weight(self.datum.weight_coords(coords))

    def _build_roots(self):
        datum, theta = self.datum, self.theta
        roots = datum.roots
        res_of = [self.restrict_root(r.coords) for r in roots]
        by_res: Dict[Vec, List[int]] = {}
        for j, res in enumerate(res_of):
            by_res.setdefault(res, []).append(j)
        if any(v == tuple([0] * len(self.simple_orbits)) for v in by_res):
            raise RootDatumError("a root restricts to zero")
        all_res = set(by_res)
        pos_res = set(res_of[:datum.n_positive])
        if pos_res & set(res_of[datum.n_positive:]):
            raise RootDatumError("restriction does not separate positive and negative roots")

        def halved(v: Vec) -> Optional[Vec]:
            if all(x % 2 == 0 for x in v):
                return tuple(x // 2 for x in v)
            return None

        fwd = theta.root_perm
        restricted = {}
        for res, fiber in sorted(by_res.items()):
            orbit = tuple(sorted(roots[j].coords for j in fiber))
            # the theta-orbit of any preimage must be the whole fiber
            probe, j = set(), fiber[0]
            while j not in probe:
                probe.add(j)
                j = fwd[j]
            if probe != set(fiber):
                raise RootDatumError("orbit/fiber mismatch in restriction")
            double = tuple(2 * x for x in res)
            half = halved(res)
            if double in all_res:
                rtype = R2
            elif half is not None and half in all_res:
                rtype = R3
            else:
                rtype = R1
            nsum = tuple(map(sum, zip(*(roots[j].coroot for j in fiber))))
            coroot = nsum if rtype in (R1, R3) else tuple(2 * x for x in nsum)
            restricted[res] = RestrictedRoot(res, rtype, res in pos_res, orbit, coroot)
        self.restricted: Dict[Vec, RestrictedRoot] = restricted
        self.res_rank = len(self.simple_orbits)
        for rr in restricted.values():
            if self.pair_restricted(rr.coords, rr.coroot) != 2:
                raise RootDatumError("restricted coroot normalization failed")
        self.simple_restricted: Tuple[Vec, ...] = tuple(sorted(
            {res_of[s] for s in datum.simple_index}))
        indecomposable = self._indecomposable_positives()
        if set(self.simple_restricted) != indecomposable:
            raise RootDatumError("images of simple roots are not the simple restricted roots")

    def _indecomposable_positives(self) -> set:
        pos = [v for v, rr in self.restricted.items() if rr.positive]
        pos_set = set(pos)
        out = set()
        for v in pos:
            if not any(tuple(v[i] - u[i] for i in range(len(v))) in pos_set
                       for u in pos if u != v):
                out.add(v)
        return out

    # pairing of a restricted character with a theta-fixed cocharacter
    def pair_restricted(self, res_coords: Vec, coroot_coords: Vec) -> int:
        total = 0
        for o_idx, orb in enumerate(self.simple_orbits):
            m = coroot_coords[orb[0]]
            for i in orb:
                if coroot_coords[i] != m:
                    raise RootDatumError("cocharacter is not theta-fixed")
            total += m * res_coords[o_idx]
        return total

    def reflect_restricted(self, res_coords: Vec, by: Vec) -> Vec:
        rr = self.restricted[by]
        k = self.pair_restricted(res_coords, rr.coroot)
        return tuple(res_coords[i] - k * rr.coords[i] for i in range(self.res_rank))

    @property
    def positive_restricted(self) -> Tuple[Vec, ...]:
        return tuple(sorted(v for v, rr in self.restricted.items() if rr.positive))

    @property
    def indivisible_positive(self) -> Tuple[Vec, ...]:
        return tuple(sorted(v for v, rr in self.restricted.items()
                            if rr.positive and rr.rtype != R3))

    def rtype(self, res_coords: Vec) -> str:
        return self.restricted[tuple(res_coords)].rtype

    @property
    def is_reduced(self) -> bool:
        return all(rr.rtype == R1 for rr in self.restricted.values())

    # -- fixed-subgroup Weyl group -------------------------------------------

    def fixed_weyl_subgroup(self) -> Tuple[WeylElement, ...]:
        """Omega^theta, enumerated on first call by closure under the images
        of the simple restricted reflections (cached)."""
        if self._fixed_weyl_cache is None:
            self._fixed_weyl_cache = _closure(
                self.datum.identity_weyl(),
                [self.levi_longest[beta] for beta in self.simple_restricted])
        return self._fixed_weyl_cache

    def fixed_weyl_order(self) -> int:
        """|Omega^theta|, which is the order of the Weyl group of the
        restricted root system, read off the type of its Cartan matrix
        <beta_j, beta_i_vee> without enumerating the group."""
        simple = self.simple_restricted
        return weyl_group_order([[self.pair_restricted(b, self.restricted[a].coroot)
                                  for b in simple] for a in simple])

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

    def res_inversions(self, act_res_inv) -> Tuple[Vec, ...]:
        """Positive indivisible restricted roots sent negative by the inverse
        of a restricted-space action."""
        out = []
        neg = {v for v, rr in self.restricted.items() if not rr.positive}
        for v in self.indivisible_positive:
            if act_res_inv(v) in neg:
                out.append(v)
        return tuple(out)


@dataclass(frozen=True)
class LeviComponent:
    """The Levi attached to a simple restricted root: preimage of the
    restricted line, with its diagram decomposition and longest Weyl element."""

    beta: Vec
    roots: Tuple[Vec, ...]             # all roots of the Levi
    simples: Tuple[Vec, ...]           # indecomposable positives
    components: Tuple[Tuple[Vec, ...], ...]  # simples grouped by diagram component
    kind: str                          # "A1" or "A2"
    longest: WeylElement


def restrict_root_system(datum: RootDatum, theta: PinnedAutomorphism) -> RestrictedRootSystem:
    """Restriction of the root system to the fixed subtorus of theta."""
    return RestrictedRootSystem(datum, theta)


def levi_component(rrs: RestrictedRootSystem, beta) -> LeviComponent:
    """Levi subgroup data for a simple restricted root."""
    beta = tuple(beta)
    if beta not in rrs.simple_restricted:
        raise RootDatumError(f"{beta} is not a simple restricted root")
    datum = rrs.datum
    line = set()
    for v, rr in rrs.restricted.items():
        q = _integer_ratio(v, beta)
        if q is not None:
            line.add(v)
    roots = tuple(sorted(c for v in line for c in rrs.restricted[v].orbit))
    root_set = set(roots)
    pos = [c for c in roots if datum.root(c).positive]
    pos_set = set(pos)
    simples = tuple(sorted(
        c for c in pos
        if not any(tuple(c[i] - u[i] for i in range(datum.rank)) in pos_set
                   for u in pos if u != c)))
    # group the simples into diagram components (union of linked pieces)
    comp_of: Dict[Vec, int] = {}
    comps: List[List[Vec]] = []
    for c in simples:
        linked = sorted({comp_of[u] for u in simples if u in comp_of
                         and datum.pairing(c, datum.root(u).coroot) != 0})
        if not linked:
            comp_of[c] = len(comps)
            comps.append([c])
        else:
            tgt = linked[0]
            comps[tgt].append(c)
            comp_of[c] = tgt
            for extra in linked[1:]:
                for u in comps[extra]:
                    comp_of[u] = tgt
                comps[tgt].extend(comps[extra])
                comps[extra] = []
    components = tuple(sorted(tuple(sorted(c)) for c in comps if c))
    sizes = {len(c) for c in components}
    if sizes == {1}:
        kind = "A1"
    elif sizes == {2}:
        kind = "A2"
    else:
        raise RootDatumError("Levi component is not a union of A1 or A2 diagrams")
    # sanity: component root counts match the diagram type
    per_comp = 2 if kind == "A1" else 6
    if len(roots) != per_comp * len(components):
        raise RootDatumError("Levi root count does not match its diagram")
    # longest element of the Levi Weyl group: multiply by the reflection in a
    # Levi simple root that w still sends to a positive root, while there is one
    index, npos = datum.root_index, datum.n_positive
    reflections = [(index[c], datum.reflection_in_root(c)) for c in simples]
    w = datum.identity_weyl()
    while True:
        s = next((s for j, s in reflections if w.perm[j] < npos), None)
        if s is None:
            break
        w = w * s
    return LeviComponent(beta, roots, simples, components, kind, w)


def weyl_group_order(cartan: Sequence[Sequence[int]]) -> int:
    """Order of the Weyl group of a Cartan matrix, as the product over its
    irreducible components (Bourbaki, Lie Groups VI, Plates I-IX): (k+1)! for
    A_k, 2^k k! for B_k and C_k, 2^(k-1) k! for D_k and 12 for G_2.  Any
    other matrix raises RootDatumError."""
    n = len(cartan)
    bonds: Dict[Tuple[int, int], int] = {}     # i < j -> a_ij a_ji, for linked i, j
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


def _component_weyl_order(k: int, bonds: Dict[Tuple[int, int], int]) -> int:
    """Weyl group order of a connected Dynkin diagram with k nodes, given by
    its bonds (pair of nodes -> a_ij a_ji)."""
    fact = math.factorial(k)
    degree: Dict[int, int] = {}
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


def _integer_ratio(v: Vec, beta: Vec) -> Optional[int]:
    """q with v == q*beta over the integers (q may be negative), else None."""
    qs = set()
    for a, b in zip(v, beta):
        if b == 0:
            if a != 0:
                return None
        else:
            if a % b:
                return None
            qs.add(a // b)
    if len(qs) != 1:
        return None
    return qs.pop()


# ---------------------------------------------------------------------------
# JSON entry points
# ---------------------------------------------------------------------------

def datum_and_theta_from_json(doc: dict) -> Tuple[RootDatum, PinnedAutomorphism]:
    datum = RootDatum.from_json(doc)
    theta = PinnedAutomorphism.from_json(datum, doc.get("theta"))
    return datum, theta
