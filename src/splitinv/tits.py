"""Torus coordinates, the normalizer model built on canonical Weyl lifts,
and the cocycle building blocks x(zeta) and m(sigma).

A torus point is a coordinate vector over the simple coroots; a normalizer
point is a pair (torus part, Weyl part) standing for t * n(w), where n(w) is
the canonical lift along any reduced word.  Products are normalized by
peeling simple lifts, using n(s)^2 = (-1)^{alpha_vee}; a closed-form
expression for the resulting 2-torsion cocycle is exported separately and is
cross-checked against explicit matrix models by the test suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from .errors import ADataError, RootDatumError
from .rootdata import (PinnedAutomorphism, RootDatum, WeylElement,
                       inversion_domain)


@dataclass(frozen=True)
class TorusElement:
    """Point of the maximal torus in simple-coroot coordinates."""

    coords: Tuple

    @staticmethod
    def ones(rank: int, one) -> "TorusElement":
        return TorusElement(tuple(one for _ in range(rank)))

    @staticmethod
    def cochar_power(coroot_coords: Sequence[int], value, one) -> "TorusElement":
        """value ** mu for a cocharacter mu: raises the value coordinatewise."""
        return TorusElement(tuple(value ** k if k else one for k in coroot_coords))

    @property
    def rank(self) -> int:
        return len(self.coords)

    def __mul__(self, other: "TorusElement") -> "TorusElement":
        return TorusElement(tuple(a * b for a, b in zip(self.coords, other.coords)))

    def inv(self) -> "TorusElement":
        return TorusElement(tuple(c ** -1 for c in self.coords))

    def map_coords(self, f: Callable) -> "TorusElement":
        return TorusElement(tuple(f(c) for c in self.coords))

    def weyl_apply(self, w: WeylElement, one) -> "TorusElement":
        """w(t): the coordinate on alpha_i_vee moves to w(alpha_i_vee), read
        as sparse (index, exponent) rows; a negative exponent raises the
        coordinate's inverse, taken once."""
        out = [one] * len(self.coords)
        for c, row in zip(self.coords, w.coroot_rows()):
            inv = None
            for j, e in row:
                if e < 0 and inv is None:
                    inv = c ** -1
                out[j] = out[j] * (c if e == 1 else c ** e if e > 0 else
                                   inv if e == -1 else inv ** -e)
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

    @staticmethod
    def identity(datum: RootDatum, one) -> "TitsElement":
        return TitsElement(TorusElement.ones(datum.rank, one), datum.identity_weyl())

    @staticmethod
    def simple_lift(datum: RootDatum, i: int, one) -> "TitsElement":
        return TitsElement(TorusElement.ones(datum.rank, one), datum.simple_reflection(i))

    @staticmethod
    def from_torus(t: TorusElement, datum: RootDatum) -> "TitsElement":
        return TitsElement(t, datum.identity_weyl())

    @property
    def datum(self) -> RootDatum:
        return self.weyl.datum

    def _one(self):
        return self.torus.coords[0] ** 0

    def __mul__(self, other: "TitsElement") -> "TitsElement":
        """(t1, w1)(t2, w2) resolved through the canonical-lift 2-cocycle."""
        one = self._one()
        datum = self.datum
        t = self.torus * other.torus.weyl_apply(self.weyl, one)
        # peel the letters of w1 onto n(w2) from the right; a letter crosses a
        # wall exactly when it is a left descent of the running product v and
        # then contributes (-1)^{alpha_i_vee}; the correction is (-1)^mu.
        # s_i acts on mu through row i of the transposed Cartan matrix.
        mu = [0] * datum.rank
        v_inv = other.weyl.inv_perm        # of the running v = s ... s w2
        npos, simple, dual = datum.n_positive, datum.simple_index, datum.dual_rows
        for i in reversed(self.weyl.word):
            # mu <- s_i(mu), plus alpha_i_vee when s_i v < v
            mu[i] += (v_inv[simple[i]] >= npos) - sum(c * mu[j] for j, c in dual[i])
            v_inv = tuple(map(v_inv.__getitem__, datum.simple_reflection(i).perm))
        c = TorusElement.cochar_power([m % 2 for m in mu], -one, one)
        return TitsElement(t * c, self.weyl * other.weyl)

    def inverse(self) -> "TitsElement":
        one = self._one()
        rough = TitsElement(self.torus.inv().weyl_apply(self.weyl.inverse(), one),
                            self.weyl.inverse())
        defect = (self * rough).torus  # self * rough is torus-valued
        # rough * defect^-1: no letter of w^-1 crosses a wall against n(1),
        # so the product is the torus part moved through w^-1
        return TitsElement(rough.torus * defect.inv().weyl_apply(rough.weyl, one),
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
    out = TitsElement.identity(datum, one)
    for i in word:
        out = out * TitsElement.simple_lift(datum, i, one)
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
    return TorusElement.cochar_power([m % 2 for m in mu], -one, one)


# ---------------------------------------------------------------------------
# x(zeta) and the m-cocycle
# ---------------------------------------------------------------------------

def x_of(datum: RootDatum, zeta, adata, one=None) -> TorusElement:
    """The torus element prod_{alpha in R(zeta)} a_alpha^{alpha_vee}, where
    R(zeta) consists of the positive roots sent negative by zeta^{-1}."""
    adata.validate()
    return _x_of(datum, zeta, adata, adata.one if one is None else one)


def _x_of(datum: RootDatum, zeta, adata, one) -> TorusElement:  # a-data validated
    out = TorusElement.ones(datum.rank, one)
    for r in inversion_domain(zeta):
        out = out * TorusElement.cochar_power(r.coroot, adata[r.coords], one)
    return out


def m_cocycle(datum: RootDatum, descent, adata,
              theta: Optional[PinnedAutomorphism] = None) -> Dict[int, TitsElement]:
    """The normalizer-valued 1-cocycle k -> x(sigma_T^k) n(omega_T(sigma^k)).

    Verifies the cocycle identity against the Galois action carried by the
    descent datum (which validated itself when it was built), and
    theta-fixedness of every value when a pinned automorphism is supplied.
    """
    adata.validate()
    adata.validate_equivariant(descent)
    if theta is not None and not theta.is_identity:
        descent.validate_theta_compatible(theta)
        adata.validate_twisted(theta)
    one = adata.one
    values: Dict[int, TitsElement] = {}
    for k in range(descent.order):
        aut = descent.root_action(k)
        values[k] = TitsElement(_x_of(datum, aut, adata, one), aut.weyl)
    _verify_m_cocycle(values, descent)
    if theta is not None:
        for k, mk in values.items():
            if not mk.theta_fixed(theta):
                raise ADataError(f"m(sigma^{k}) is not theta-fixed")
    return values


def _verify_m_cocycle(values: Dict[int, TitsElement], descent) -> None:
    n = descent.order
    for j in range(n):
        for k in range(n):
            lhs = values[(j + k) % n]
            rhs = values[j] * descent.galois_on_tits(j, values[k])
            if lhs != rhs:
                raise ADataError(
                    f"cocycle identity fails at (sigma^{j}, sigma^{k}): {lhs} != {rhs}")
