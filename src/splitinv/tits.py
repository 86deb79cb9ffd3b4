"""Torus coordinates, the normalizer model built on canonical Weyl lifts,
and the cocycle building blocks x(zeta) and m(sigma).

A torus point is a coordinate vector over the simple coroots; a normalizer
point is a pair (torus part, Weyl part) standing for t * n(w), where n(w) is
the canonical lift along any reduced word.  Products are normalized by
peeling simple lifts, using n(s)^2 = (-1)^{alpha_vee}, and the walls crossed
are read off heights as in ``WeylElement.word`` (Casselman 1994; Bjorner-Brenti,
GTM 231, ch. 4); a closed-form expression for the resulting 2-torsion cocycle
is exported separately and is cross-checked against explicit matrix models
by the test suites.

One helper, ``_torus_product``, builds w(t) (``TorusElement.weyl_apply``),
prod v^mu over cocharacters mu (``TorusElement.coroot_product``) and the
torus parts of the Tits product and its inverse: coordinate j is
left_j * prod_i c_i^{e_ij} * (-1)^{mu_j}, multiplied once.  Over ints and
Fractions the numerators and denominators are integer products and each
coordinate becomes one Fraction, with one gcd; symbolic units sum their
exponents in ``SymUnit.product``; any other field multiplies left to right.
So a 2-torsion mu is summed as integers first, and t1 w1(t2) (-1)^mu is
formed in one pass once mu is known.

A product with n(1) on either side peels nothing: (t1, 1)(t2, w2) is
(t1 t2, w2) and (t1, w1)(t2, 1) is (t1 w1(t2), w1), since no letter crosses
a wall against n(1).  The 2-torsion correction (-1)^mu negates the
coordinates where mu is odd.

The inverse takes one peel and no Tits product.  Peeling a reduced word of
w^-1 onto n(w) gives n(w^-1) n(w) = (-1)^nu; then n(w)^-1 = (-1)^nu n(w^-1),
and (t n(w))^-1 = n(w)^-1 t^-1 = w^-1(t^-1) (-1)^nu n(w^-1).  The same nu is
w^-1(mu) for n(w) n(w^-1) = (-1)^mu, since n(w^-1) n(w) is n(w) n(w^-1)
conjugated by n(w^-1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .coeffs import SymUnit
from .errors import ADataError, RootDatumError
from .rootdata import PinnedAutomorphism, RootDatum, WeylElement


@dataclass(frozen=True)
class TorusElement:
    """Point of the maximal torus in simple-coroot coordinates."""

    coords: Tuple

    @staticmethod
    def ones(rank: int, one) -> "TorusElement":
        return TorusElement(tuple(one for _ in range(rank)))

    @staticmethod
    def coroot_product(rank: int, factors: Iterable, one) -> "TorusElement":
        """prod v^mu over the (cocharacter mu, value v) pairs, read off mu's
        nonzero entries; a coordinate that no factor reaches is one."""
        mus, values = tuple(zip(*factors)) or ((), ())
        return _torus_product(rank, values, map(enumerate, mus), one=one)

    @property
    def rank(self) -> int:
        return len(self.coords)

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        if len(self.coords) != len(other.coords):
            raise RootDatumError(f"cannot multiply the rank-{self.rank} {self!r} "
                                 f"by the rank-{other.rank} {other!r}")
        return TorusElement(tuple(a * b for a, b in zip(self.coords, other.coords)))

    def inv(self) -> "TorusElement":
        return TorusElement(tuple(c ** -1 for c in self.coords))

    def map_coords(self, f: Callable) -> "TorusElement":
        return TorusElement(tuple(f(c) for c in self.coords))

    def weyl_apply(self, w: WeylElement) -> "TorusElement":
        """w(t): the coordinate on alpha_i_vee moves to w(alpha_i_vee), read
        as sparse (index, exponent) rows."""
        # the coroot rows form an invertible matrix: every coordinate is hit
        return _torus_product(len(self.coords), self.coords, w.coroot_rows())

    def diagram_apply(self, g: PinnedAutomorphism) -> "TorusElement":
        out = [None] * len(self.coords)
        for i, c in enumerate(self.coords):
            out[g.perm[i]] = c
        return TorusElement(tuple(out))

    def theta_fixed(self, theta: PinnedAutomorphism) -> bool:
        return self.diagram_apply(theta) == self

    @property
    def is_one(self) -> bool:
        return all(_value_is_one(c) for c in self.coords)

    def fixed_subtorus_coords(self, theta: PinnedAutomorphism) -> Tuple:
        """Coordinates on the basis of orbit sums of simple coroots; defined
        for theta-fixed points only."""
        if not self.theta_fixed(theta):
            raise RootDatumError("torus element is not theta-fixed")
        return tuple(self.coords[orb[0]] for orb in theta.orbits())

    def __repr__(self):
        return "t" + repr(tuple(self.coords))


def _value_is_one(c) -> bool:
    one = c ** 0
    return c == one


_RATIONAL = frozenset((int, Fraction))


def _torus_product(rank: int, values: Sequence, rows: Iterable, left: Optional[Sequence] = None,
                   mu: Optional[Sequence[int]] = None, one=None) -> TorusElement:
    """The torus point with coordinates left[j] * prod c^e * (-1)^mu[j], the
    product over each value c with its row and the (j, e) entries of that
    row, e = 0 adding nothing.  No left is all ones, no mu all zeros, and a
    coordinate that nothing reaches is one.

    Each coordinate is multiplied once.  When every value, left coordinate
    and one is an int or a Fraction, its numerator and denominator are
    integer products and one Fraction is built from them, which reduces by
    one gcd and raises ZeroDivisionError for a zero value under a negative
    exponent.  Symbolic units gather their powers for the n-ary
    ``SymUnit.product``.  Any other value is multiplied left to right, its
    inverse taken once."""
    kinds = set(map(type, values))
    if left is not None:
        kinds.update(map(type, left))
    if one is not None:
        kinds.add(type(one))
    if kinds <= _RATIONAL:
        if left is None:
            nums, dens = [1] * rank, [1] * rank
        else:
            nums = [c.numerator for c in left]
            dens = [c.denominator for c in left]
        for c, row in zip(values, rows):
            n, d = c.numerator, c.denominator
            for j, e in row:
                if e == 1:
                    nums[j] *= n
                    dens[j] *= d
                elif e > 0:
                    nums[j] *= n ** e
                    dens[j] *= d ** e
                elif e:
                    nums[j] *= d ** -e
                    dens[j] *= n ** -e
        if mu is not None:
            nums = [-x if m % 2 else x for x, m in zip(nums, mu)]
        return TorusElement(tuple(map(Fraction, nums, dens)))
    if kinds == {SymUnit}:
        terms = [[] for _ in range(rank)] if left is None else [[c] for c in left]
        for c, row in zip(values, rows):
            for j, e in row:
                if e:
                    terms[j].append(c if e == 1 else c ** e)
        out = [t[0] if len(t) == 1 else SymUnit.product(t) if t else one for t in terms]
    else:
        out = [None] * rank if left is None else list(left)
        for c, row in zip(values, rows):
            inv = None
            for j, e in row:
                if e == 1:
                    f = c
                elif e > 0:
                    f = c ** e
                elif e:
                    if inv is None:
                        inv = c ** -1
                    f = inv if e == -1 else inv ** -e
                else:
                    continue
                out[j] = f if out[j] is None else out[j] * f
        out = [one if x is None else x for x in out]
    if mu is not None:
        out = [-x if m % 2 else x for x, m in zip(out, mu)]
    return TorusElement(tuple(out))


@dataclass(frozen=True)
class TitsElement:
    """Normalizer point t * n(w) in normal form."""

    torus: TorusElement
    weyl: WeylElement

    def __post_init__(self):
        if self.torus.rank != self.weyl.datum.rank:
            raise RootDatumError(f"the rank-{self.torus.rank} {self.torus!r} does not pair "
                                 f"with {self.weyl!r} of {self.weyl.datum!r}")

    @property
    def datum(self) -> RootDatum:
        return self.weyl.datum

    def __mul__(self, other: "TitsElement") -> "TitsElement":
        """(t1, w1)(t2, w2) = t1 w1(t2) (-1)^mu n(w1 w2), resolved through the
        canonical-lift 2-cocycle: mu is peeled first, then the torus part is
        built in one pass."""
        if other.weyl.datum is not self.weyl.datum:
            raise RootDatumError("Tits elements from different data")
        if self.weyl.is_identity:
            return TitsElement(self.torus * other.torus, other.weyl)
        t2, rows = other.torus.coords, self.weyl.coroot_rows()
        if other.weyl.is_identity:
            return TitsElement(_torus_product(len(t2), t2, rows, self.torus.coords), self.weyl)
        mu = _peel(self.datum, reversed(self.weyl.word), other.weyl.inv_perm)
        return TitsElement(_torus_product(len(t2), t2, rows, self.torus.coords, mu),
                           self.weyl * other.weyl)

    def inverse(self) -> "TitsElement":
        """w^-1(t^-1) (-1)^nu n(w^-1), with n(w^-1) n(w) = (-1)^nu peeled from
        the letters of w, a reduced word of w^-1 read from its right end.
        A zero coordinate raises ZeroDivisionError, whatever its exponents."""
        if not all(self.torus.coords):
            raise ZeroDivisionError(f"{self.torus!r} has a zero coordinate and no inverse")
        w, w_inv = self.weyl, self.weyl.inverse()
        nu = _peel(self.datum, w.word, w.inv_perm)
        t = self.torus.coords
        rows = ([(j, -e) for j, e in row] for row in w_inv.coroot_rows())
        return TitsElement(_torus_product(len(t), t, rows, mu=nu), w_inv)

    def theta_apply(self, theta: PinnedAutomorphism) -> "TitsElement":
        return TitsElement(self.torus.diagram_apply(theta), theta.act_weyl(self.weyl))

    def theta_fixed(self, theta: PinnedAutomorphism) -> bool:
        return self.theta_apply(theta) == self

    def __repr__(self):
        return f"({self.torus!r}, {self.weyl!r})"


def _peel(datum: RootDatum, letters: Iterable[int], inv_perm: Sequence[int]) -> List[int]:
    """mu with n(w1) n(w2) = (-1)^mu n(w1 w2), for letters a reduced word of w1
    read from its right end and inv_perm the permutation of w2^-1.

    Each letter is peeled onto the running product v = s ... s w2.  It
    crosses a wall exactly when it is a left descent of v (the height h_i of
    v^{-1} alpha_i is negative) and then contributes (-1)^{alpha_i_vee}.
    s_i acts on the heights through row i of the Cartan matrix, on mu
    through its transpose."""
    mu = [0] * datum.rank
    h = datum._simple_heights(inv_perm)
    rows, dual = datum.cartan_rows, datum.dual_rows
    for i in letters:
        # mu <- s_i(mu), plus alpha_i_vee when s_i v < v
        hi = h[i]
        mu[i] += (hi < 0) - sum(c * mu[j] for j, c in dual[i])
        for j, c in rows[i]:
            h[j] -= c * hi
    return mu


def tits_lift(datum: RootDatum, omega: WeylElement, one=None) -> TitsElement:
    """Canonical lift n(omega) of a Weyl element (product of the simple
    lifts along any reduced word; well defined by the braid property)."""
    if one is None:
        one = Fraction(1)
    if omega.datum is not datum:
        raise RootDatumError("Weyl element belongs to a different datum")
    return TitsElement(TorusElement.ones(datum.rank, one), omega)


def lift_along_word(datum: RootDatum, word: Sequence[int], one) -> TitsElement:
    """Product of simple lifts along an arbitrary word (not assumed reduced)."""
    out = tits_lift(datum, datum.identity_weyl(), one)
    for i in word:
        out = out * tits_lift(datum, datum.simple_reflection(i), one)
    return out


def tits_cocycle(datum: RootDatum, w1: WeylElement, w2: WeylElement, one) -> TorusElement:
    """Closed form of the 2-cocycle: n(w1) n(w2) = c(w1,w2) * n(w1 w2) with

        c(w1,w2) = prod (-1)^{alpha_vee}  over  {alpha > 0 : w1^{-1} alpha < 0,
                                                 (w1 w2)^{-1} alpha > 0}.

    Derived by induction on reduced words and pinned against explicit matrix
    models; the product multiplication does not use it.
    """
    w12 = w1 * w2
    mu = [0] * datum.rank
    for j in range(datum.n_positive):
        if w1.inverts(j) and not w12.inverts(j):
            mu = [m + k for m, k in zip(mu, datum.roots[j].coroot)]
    return TorusElement.coroot_product(datum.rank, [([m % 2 for m in mu], -one)], one)


# ---------------------------------------------------------------------------
# x(zeta) and the m-cocycle
# ---------------------------------------------------------------------------

def x_of(datum: RootDatum, w: WeylElement, adata) -> TorusElement:
    """The torus element prod_{alpha in R(w)} a_alpha^{alpha_vee}, where R(w)
    consists of the positive roots sent negative by w^{-1}."""
    return TorusElement.coroot_product(datum.rank, (
        (r.coroot, adata.values[j]) for j, r in enumerate(datum.positive_roots)
        if w.inverts(j)), adata.one)


def m_cocycle(datum: RootDatum, descent, adata,
              theta: Optional[PinnedAutomorphism] = None) -> Dict[int, TitsElement]:
    """The normalizer-valued 1-cocycle k -> x(sigma_T^k) n(omega_T(sigma^k)).
    sigma_T^k acts on the roots as w g with w = omega_T(sigma^k); the diagram
    part g keeps positive roots positive, so R(w g) = R(w).

    Checks the a-data for Galois equivariance (and theta-invariance when a
    pinned automorphism is supplied), then the cocycle identity against the
    descent datum's Galois action, which tests m(1) = 1 directly and
    multiplies the pairs j, k >= 1 only, and theta-fixedness of every value
    but m(1) = 1.
    """
    adata.validate_equivariant(descent)
    if theta is not None and not theta.is_identity:
        descent.validate_theta_compatible(theta)
        adata.validate_twisted(theta)
    values: Dict[int, TitsElement] = {}
    for k in range(descent.order):
        w = descent.root_action(k).weyl
        values[k] = TitsElement(x_of(datum, w, adata), w)
    verify_cocycle_identity(values, descent.order, descent.galois_on_tits)
    if theta is not None:
        for k in range(1, descent.order):
            if not values[k].theta_fixed(theta):
                raise ADataError(f"m(sigma^{k}) is not theta-fixed")
    return values


def verify_cocycle_identity(values: Dict[int, object], order: int, act) -> None:
    """Check values[j + k] = values[j] * act(j, values[k]) for j, k mod order,
    act(j, v) applying sigma^j; a failure names the pair and both sides.

    The pairs with j = 0 or k = 0 come down to values[0] = 1, which is
    tested directly and, failing, named as (sigma^0, sigma^0).  act(0, .)
    is the identity, and each act(j, .) is an automorphism (the Galois
    action on the normalizer, ``galois_on_tits``, or on the torus,
    ``galois_on_torus_twisted``), so it fixes 1 and is injective.  The
    j = 0 row reads values[k] = values[0] * values[k], which holds exactly
    when values[0] = 1; the k = 0 column reads values[j] = values[j] *
    act(j, values[0]), that is act(j, values[0]) = 1, which by injectivity
    holds exactly when values[0] = 1.  The products left are the pairs
    j, k in 1 .. order - 1: (order - 1)^2 of them in place of order^2.
    """
    if not _is_one(values[0]):
        raise ADataError(f"cocycle identity fails at (sigma^0, sigma^0): "
                         f"the value at sigma^0 is {values[0]}, not 1")
    for j in range(1, order):
        for k in range(1, order):
            lhs = values[(j + k) % order]
            rhs = values[j] * act(j, values[k])
            if lhs != rhs:
                raise ADataError(
                    f"cocycle identity fails at (sigma^{j}, sigma^{k}): {lhs} != {rhs}")


def _is_one(v) -> bool:
    """v is 1: a torus point whose coordinates are all one, or t n(1) for such a t."""
    if isinstance(v, TitsElement):
        return v.weyl.is_identity and v.torus.is_one
    return v.is_one
