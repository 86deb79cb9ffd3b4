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

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import RootDatumError

Vec = Tuple[int, ...]
Mat = Tuple[Vec, ...]


# ---------------------------------------------------------------------------
# Cartan matrices
# ---------------------------------------------------------------------------

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 3}


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


def _reflect(cartan: Mat, v: Vec, i: int) -> Vec:
    """s_i in simple-root coordinates: v - <v, alpha_i_vee> alpha_i."""
    k = sum(c * x for c, x in zip(cartan[i], v))
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
        blocks = [_cartan_block(f, r) for f, r in families]
        rank = sum(len(b) for b in blocks)
        cartan = [[0] * rank for _ in range(rank)]
        off = 0
        for b in blocks:
            for i, row in enumerate(b):
                for j, v in enumerate(row):
                    cartan[off + i][off + j] = v
            off += len(b)
        self.families = tuple((f, int(r)) for f, r in families)
        self.rank = rank
        self.cartan: Mat = tuple(tuple(row) for row in cartan)
        self.roots: Tuple[Root, ...] = self._generate_roots()
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
        reflections = [tuple(self.root_index[_reflect(self.cartan, r.coords, i)]
                             for r in self.roots) for i in range(rank)]
        self._simple = tuple(WeylElement._from_perms(self, p, p) for p in reflections)
        self._weyl_cache: Optional[Tuple["WeylElement", ...]] = None

    # -- construction ------------------------------------------------------

    def _generate_roots(self) -> Tuple[Root, ...]:
        # coroots are the roots of the dual datum, whose Cartan matrix is the transpose
        dual = tuple(zip(*self.cartan))
        seen: Dict[Vec, Vec] = {}
        frontier = []
        for i in range(self.rank):
            e = tuple(1 if j == i else 0 for j in range(self.rank))
            seen[e] = e
            frontier.append((e, e))
        while frontier:
            nxt = []
            for c, d in frontier:
                for i in range(self.rank):
                    c2 = _reflect(self.cartan, c, i)
                    if c2 not in seen:
                        d2 = _reflect(dual, d, i)
                        seen[c2] = d2
                        nxt.append((c2, d2))
            frontier = nxt
        out = []
        for c, d in seen.items():
            pos = self._is_positive(c)
            out.append(Root(c, d, pos, sum(c)))
        out.sort(key=lambda r: (not r.positive, r.height if r.positive else -r.height, r.coords))
        return tuple(out)

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

    def is_root(self, coords: Vec) -> bool:
        return tuple(coords) in self.root_index

    @property
    def positive_roots(self) -> Tuple[Root, ...]:
        return self.roots[:self.n_positive]

    def simple_root(self, i: int) -> Root:
        return self.root(tuple(1 if j == i else 0 for j in range(self.rank)))

    def pairing(self, root_coords: Vec, coroot_coords: Vec) -> int:
        """<alpha, mu_vee> for alpha in the root basis, mu_vee in the coroot basis."""
        c = self.cartan
        return sum(coroot_coords[i] * c[i][j] * root_coords[j]
                   for i in range(self.rank) for j in range(self.rank))

    def weight_coords(self, root_coords: Vec) -> Vec:
        """Coordinates of a root-lattice element in the fundamental-weight basis."""
        return tuple(sum(self.cartan[i][j] * root_coords[j] for j in range(self.rank))
                     for i in range(self.rank))

    def reflection_in_root(self, coords: Vec) -> "WeylElement":
        """The reflection attached to an arbitrary root, as a Weyl element."""
        a = self.root(coords)
        perm = tuple(self.root_index[tuple(x - self.pairing(b.coords, a.coroot) * y
                                           for x, y in zip(b.coords, a.coords))]
                     for b in self.roots)
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
            fams = [(str(f), int(r)) for f, r in doc["type"]]
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

    __slots__ = ("datum", "perm", "inv_perm", "_word", "_inversions")

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
        perm = tuple(perm)
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

    def act_weyl(self, w: WeylElement) -> WeylElement:
        """Conjugation w -> theta w theta^{-1}, through theta's permutation
        of the roots (built on first use)."""
        if self._root_perms is None:
            index = self.datum.root_index
            fwd = tuple(index[self.act_root(r.coords)] for r in self.datum.roots)
            back = [0] * len(fwd)
            for j, k in enumerate(fwd):
                back[k] = j
            self._root_perms = (fwd, tuple(back))
        fwd, back = self._root_perms
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
        return PinnedAutomorphism(self.datum, tuple(self.perm[other.perm[i]]
                                                    for i in range(self.datum.rank)))

    def power(self, k: int) -> "PinnedAutomorphism":
        k %= self.order
        out = PinnedAutomorphism.identity(self.datum)
        for _ in range(k):
            out = self.compose(out)
        return out

    def commutes_with(self, w: WeylElement) -> bool:
        return self.act_weyl(w) == w

    def to_json(self) -> dict:
        return {"perm": [p + 1 for p in self.perm]}

    @staticmethod
    def from_json(datum: RootDatum, doc: Optional[dict]) -> "PinnedAutomorphism":
        if doc is None:
            return PinnedAutomorphism.identity(datum)
        try:
            perm = [int(p) - 1 for p in doc["perm"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise RootDatumError(f"malformed automorphism document: field 'perm': {exc}") from None
        return PinnedAutomorphism(datum, perm)

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

    def fixed_cocharacter_basis(self) -> Tuple[Vec, ...]:
        """Basis of the fixed cocharacter sublattice: orbit sums of simple
        coroots, in simple-coroot coordinates."""
        n = self.datum.rank
        return tuple(tuple(1 if i in orb else 0 for i in range(n))
                     for orb in self.simple_orbits)

    @property
    def coinvariant_rank(self) -> int:
        """Rank of the coinvariant character lattice (free, see the
        constructor), equal to the number of orbits."""
        return len(self.simple_orbits)

    # restriction of a character given by fundamental-weight coordinates
    # (the quotient map onto the coinvariant lattice in orbit coordinates)
    def restrict_weight(self, weight: Vec) -> Vec:
        return tuple(sum(weight[i] for i in orb) for orb in self.simple_orbits)

    def restrict_root(self, coords: Vec) -> Vec:
        return self.restrict_weight(self.datum.weight_coords(coords))

    def _build_roots(self):
        datum, theta = self.datum, self.theta
        by_res: Dict[Vec, List[Vec]] = {}
        for r in datum.roots:
            by_res.setdefault(self.restrict_root(r.coords), []).append(r.coords)
        if any(v == tuple([0] * len(self.simple_orbits)) for v in by_res):
            raise RootDatumError("a root restricts to zero")
        all_res = set(by_res)
        pos_res = {self.restrict_root(r.coords) for r in datum.positive_roots}
        neg_res = {self.restrict_root(r.coords) for r in datum.roots if not r.positive}
        if pos_res & neg_res:
            raise RootDatumError("restriction does not separate positive and negative roots")

        def halved(v: Vec) -> Optional[Vec]:
            if all(x % 2 == 0 for x in v):
                return tuple(x // 2 for x in v)
            return None

        restricted = {}
        for res, orbit_roots in sorted(by_res.items()):
            orbit = tuple(sorted(orbit_roots))
            # the theta-orbit of any preimage must be the whole fiber
            fiber = set(orbit)
            probe = {orbit[0]}
            while True:
                nxt = {theta.act_root(c) for c in probe} | probe
                if nxt == probe:
                    break
                probe = nxt
            if probe != fiber:
                raise RootDatumError("orbit/fiber mismatch in restriction")
            double = tuple(2 * x for x in res)
            half = halved(res)
            if double in all_res:
                rtype = R2
            elif half is not None and half in all_res:
                rtype = R3
            else:
                rtype = R1
            nsum = tuple(sum(datum.root(c).coroot[i] for c in orbit)
                         for i in range(datum.rank))
            coroot = nsum if rtype in (R1, R3) else tuple(2 * x for x in nsum)
            restricted[res] = RestrictedRoot(res, rtype, res in pos_res, orbit, coroot)
        self.restricted: Dict[Vec, RestrictedRoot] = restricted
        self.res_rank = len(self.simple_orbits)
        for rr in restricted.values():
            if self.pair_restricted(rr.coords, rr.coroot) != 2:
                raise RootDatumError("restricted coroot normalization failed")
        self.simple_restricted: Tuple[Vec, ...] = tuple(sorted(
            {self.restrict_root(datum.simple_root(i).coords) for i in range(datum.rank)}))
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
    # longest element of the Levi Weyl group
    w = datum.identity_weyl()
    while True:
        delta = next((c for c in simples
                      if RootDatum._is_positive(w.act_root(c))), None)
        if delta is None:
            break
        w = w * datum.reflection_in_root(delta)
    return LeviComponent(beta, roots, simples, components, kind, w)


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
