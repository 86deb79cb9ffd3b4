"""Torus coordinates, the normalizer model built on canonical Weyl lifts,
and the cocycle building blocks x(zeta) and m(sigma).

Each product prod v^mu over cocharacters mu is ``TorusElement.coroot_product``;
the Tits product and ``tits_cocycle`` sum a 2-torsion mu as integers first.

A torus point is a coordinate vector over the simple coroots; a normalizer
point is a pair (torus part, Weyl part) standing for t * n(w), where n(w) is
the canonical lift along any reduced word.  Products are normalized by
peeling simple lifts, using n(s)^2 = (-1)^{alpha_vee}, and the walls crossed
are read off heights as in ``WeylElement.word`` (Casselman 1994; Bjorner-Brenti,
GTM 231, ch. 4); a closed-form expression for the resulting 2-torsion cocycle
is exported separately and is cross-checked against explicit matrix models
by the test suites.

A product with n(1) on either side peels nothing: (t1, 1)(t2, w2) is
(t1 t2, w2) and (t1, w1)(t2, 1) is (t1 w1(t2), w1), since no letter crosses
a wall against n(1).  The 2-torsion correction (-1)^mu negates the
coordinates where mu is odd.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from operator import mul
from typing import Callable, Dict, Iterable, Optional, Sequence, Tuple

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
        nonzero entries; a coordinate that no factor reaches is one.  Each
        coordinate gathers its powers v^e and is multiplied once: a symbolic
        one by the n-ary ``SymUnit.product``, any other left to right."""
        terms = [[] for _ in range(rank)]
        for mu, v in factors:
            for j, e in enumerate(mu):
                if e:
                    terms[j].append(v if e == 1 else v ** e)
        product = SymUnit.product if isinstance(one, SymUnit) else partial(reduce, mul)
        return TorusElement(tuple(product(t) if t else one for t in terms))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        return TorusElement(tuple(a * b for a, b in zip(self.coords, other.coords)))

    def inv(self) -> "TorusElement":
        return TorusElement(tuple(c ** -1 for c in self.coords))

    def map_coords(self, f: Callable) -> "TorusElement":
        return TorusElement(tuple(f(c) for c in self.coords))

    def weyl_apply(self, w: WeylElement) -> "TorusElement":
        """w(t): the coordinate on alpha_i_vee moves to w(alpha_i_vee), read
        as sparse (index, exponent) rows; a negative exponent raises the
        coordinate's inverse, taken once."""
        out = [None] * len(self.coords)
        for c, row in zip(self.coords, w.coroot_rows()):
            inv = None
            for j, e in row:
                if e < 0 and inv is None:
                    inv = c ** -1
                f = c if e == 1 else c ** e if e > 0 else inv if e == -1 else inv ** -e
                # the coroot rows form an invertible matrix: every j is hit
                out[j] = f if out[j] is None else out[j] * f
        return TorusElement(tuple(out))

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


@dataclass(frozen=True)
class TitsElement:
    """Normalizer point t * n(w) in normal form."""

    torus: TorusElement
    weyl: WeylElement

    @property
    def datum(self) -> RootDatum:
        return self.weyl.datum

    def __mul__(self, other: "TitsElement") -> "TitsElement":
        """(t1, w1)(t2, w2) resolved through the canonical-lift 2-cocycle."""
        if other.weyl.datum is not self.weyl.datum:
            raise RootDatumError("Tits elements from different data")
        if self.weyl.is_identity:
            return TitsElement(self.torus * other.torus, other.weyl)
        datum = self.datum
        t = self.torus * other.torus.weyl_apply(self.weyl)
        if other.weyl.is_identity:
            return TitsElement(t, self.weyl)
        # peel the letters of w1 onto n(w2) from the right; a letter crosses a
        # wall exactly when it is a left descent of the running product v
        # (the height h_i of v^{-1} alpha_i is negative) and then contributes
        # (-1)^{alpha_i_vee}; the correction is (-1)^mu.  s_i acts on the
        # heights through row i of the Cartan matrix, on mu through its transpose.
        mu = [0] * datum.rank
        h = datum._simple_heights(other.weyl.inv_perm)    # of the running v = s ... s w2
        rows, dual = datum.cartan_rows, datum.dual_rows
        for i in reversed(self.weyl.word):
            # mu <- s_i(mu), plus alpha_i_vee when s_i v < v
            hi = h[i]
            mu[i] += (hi < 0) - sum(c * mu[j] for j, c in dual[i])
            for j, c in rows[i]:
                h[j] -= c * hi
        return TitsElement(TorusElement(tuple(-c if m % 2 else c for c, m in zip(t.coords, mu))),
                           self.weyl * other.weyl)

    def inverse(self) -> "TitsElement":
        rough = TitsElement(self.torus.inv().weyl_apply(self.weyl.inverse()),
                            self.weyl.inverse())
        defect = (self * rough).torus  # self * rough is torus-valued
        # rough * defect^-1: no letter of w^-1 crosses a wall against n(1),
        # so the product is the torus part moved through w^-1
        return TitsElement(rough.torus * defect.inv().weyl_apply(rough.weyl),
                           rough.weyl)

    def theta_apply(self, theta: PinnedAutomorphism) -> "TitsElement":
        return TitsElement(self.torus.diagram_apply(theta), theta.act_weyl(self.weyl))

    def theta_fixed(self, theta: PinnedAutomorphism) -> bool:
        return self.theta_apply(theta) == self

    def __repr__(self):
        return f"({self.torus!r}, {self.weyl!r})"


def tits_lift(datum: RootDatum, omega: WeylElement, one=None) -> TitsElement:
    """Canonical lift n(omega) of a Weyl element (product of the simple
    lifts along any reduced word; well defined by the braid property)."""
    from fractions import Fraction
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
