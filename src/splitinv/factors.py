"""Endoscopic sign data on restricted roots, the membership predicate for
the endoscopic coroot system, the a-data change sign, and the formal
exponent calculus for the corrected transfer-factor variants."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Tuple

from .coeffs import LocalPlace, quad_norm_sign
from .errors import FactorError
from .rootdata import RestrictedRootSystem, R3
from .splitting import DescentDatum


# ---------------------------------------------------------------------------
# Galois orbits on restricted roots
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RestrictedOrbit:
    members: Tuple[tuple, ...]
    symmetric: bool

    @property
    def representative(self) -> tuple:
        return min(self.members)


def restricted_galois_orbits(rrs: RestrictedRootSystem,
                             descent: DescentDatum) -> Tuple[RestrictedOrbit, ...]:
    """Orbits of the Galois action on restricted roots; an orbit is symmetric
    when it contains the negative of each member."""
    acts = [descent.restricted_action(k, rrs) for k in range(descent.order)]
    keys, negation = rrs._res_roots, rrs._res_negation
    orbits = [{act[i] for act in acts} for i in range(len(keys))]
    # each orbit once, at its least index: in sorted order of least members
    return tuple(RestrictedOrbit(tuple(keys[w].coords for w in sorted(orbit)),
                                 all(negation[w] in orbit for w in orbit))
                 for i, orbit in enumerate(orbits) if min(orbit) == i)


# ---------------------------------------------------------------------------
# sign data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RootOfUnity:
    """Exact root of unity exp(2 pi i e), stored by its exponent e in Q/Z in the
    normal form 0 <= e < 1, which the constructor checks and ``make`` reduces to."""

    exponent: Fraction

    def __post_init__(self):
        e = self.exponent
        if not (isinstance(e, Fraction) and 0 <= e < 1):
            raise FactorError(f"need a Fraction exponent e with 0 <= e < 1, got {e!r}")

    @staticmethod
    def make(exponent) -> "RootOfUnity":
        try:
            e = Fraction(exponent)
        except (TypeError, ValueError, OverflowError):
            raise FactorError(f"need a rational exponent, got {exponent!r}") from None
        return _new_root(e - (e.numerator // e.denominator))

    @staticmethod
    def one() -> "RootOfUnity":
        return _new_root(_ZERO)

    @staticmethod
    def minus_one() -> "RootOfUnity":
        return _new_root(_HALF)

    @property
    def is_one(self) -> bool:
        return self.exponent == 0

    @property
    def is_minus_one(self) -> bool:
        return self.exponent == _HALF

    def inv(self) -> "RootOfUnity":
        return _new_root(1 - self.exponent if self.exponent else self.exponent)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        e = self.exponent + other.exponent
        return _new_root(e - 1 if e >= 1 else e)

    def __repr__(self):
        if self.is_one:
            return "1"
        if self.is_minus_one:
            return "-1"
        return f"zeta({self.exponent})"


_ZERO, _HALF = Fraction(0), Fraction(1, 2)


def _new_root(e: Fraction) -> RootOfUnity:
    """The RootOfUnity of an exponent already in normal form."""
    x = object.__new__(RootOfUnity)
    object.__setattr__(x, "exponent", e)
    return x


class EndoscopicSignDatum:
    """The values of the orbit-summed coroots on the endoscopic sign element,
    together with a local quadratic extension for every symmetric orbit."""

    def __init__(self, rrs: RestrictedRootSystem, descent: DescentDatum,
                 values: Mapping[tuple, RootOfUnity],
                 places: Mapping[Tuple[tuple, ...], LocalPlace]):
        self.rrs = rrs
        self.descent = descent
        self.orbits = restricted_galois_orbits(rrs, descent)
        self.values = {tuple(k): v for k, v in values.items()}
        self.places = {tuple(sorted(k)): p for k, p in places.items()}
        self._validate()

    def _validate(self):
        rrs = self.rrs
        for v in rrs.restricted:
            if v not in self.values:
                raise FactorError(f"missing sign value at restricted root {v}")
        for v, val in self.values.items():
            if v not in rrs.restricted:
                raise FactorError(f"sign value at {v}, which is not a restricted root")
            neg = tuple(-c for c in v)
            if self.values[neg] != val.inv():
                raise FactorError(f"sign values at {v} and {neg} are not inverse")
        for orbit in self.orbits:
            vals = {self.values[w] for w in orbit.members}
            if len(vals) != 1:
                raise FactorError(f"sign value not constant on the orbit {orbit.members}")
            val = vals.pop()
            if orbit.symmetric:
                if not (val.is_one or val.is_minus_one):
                    raise FactorError(
                        f"value on the symmetric orbit {orbit.members} is not a sign")
                if orbit.members not in self.places:
                    raise FactorError(
                        f"symmetric orbit {orbit.members} carries no local place")

    def value(self, beta) -> RootOfUnity:
        try:
            return self.values[tuple(beta)]
        except KeyError:
            raise FactorError(f"no sign value at {tuple(beta)}") from None

    def place(self, orbit: RestrictedOrbit) -> LocalPlace:
        return self.places[orbit.members]

    def symmetric_orbits(self) -> Tuple[RestrictedOrbit, ...]:
        return tuple(o for o in self.orbits if o.symmetric)


def comes_from_h(rrs: RestrictedRootSystem, sign_datum: EndoscopicSignDatum,
                 beta) -> bool:
    """Whether a restricted root contributes a coroot orbit to the endoscopic
    group: value +1 for indivisible types, value -1 for divisible ones."""
    beta = tuple(beta)
    rtype = rrs.rtype(beta)
    val = sign_datum.value(beta)
    if rtype == R3:
        return val.is_minus_one
    return val.is_one


def adata_change_sign(rrs: RestrictedRootSystem, sign_datum: EndoscopicSignDatum,
                      b: Mapping[tuple, Fraction]) -> int:
    """The sign picked up by the refined first factor when the a-data is
    multiplied by b: the product of the local norm-sign characters of b over
    the symmetric orbits that are (divisible and from the endoscopic group)
    or (indivisible and not from it)."""
    out = 1
    for orbit in sign_datum.symmetric_orbits():
        beta = orbit.representative
        divisible = rrs.rtype(beta) == R3
        member = comes_from_h(rrs, sign_datum, beta)
        if divisible != member:
            continue
        b_val = _orbit_value(b, orbit)
        if b_val == 0:
            raise FactorError(f"zero a-data multiplier on {orbit.members}")
        out *= quad_norm_sign(b_val, sign_datum.place(orbit))
    return out


def _orbit_value(b: Mapping[tuple, Fraction], orbit: RestrictedOrbit) -> Fraction:
    vals = {Fraction(b[w]) for w in orbit.members if w in b}
    if not vals:
        raise FactorError(f"no multiplier given on the orbit {orbit.members}")
    if len(vals) != 1:
        raise FactorError(f"multiplier not constant on the orbit {orbit.members}")
    return vals.pop()


def delta_i_ratio(rrs: RestrictedRootSystem, sign_datum: EndoscopicSignDatum) -> int:
    """Ratio of the refined first factor to the classical one: the product of
    the norm-sign characters of 2 over the symmetric divisible orbits coming
    from the endoscopic group."""
    out = 1
    for orbit in sign_datum.symmetric_orbits():
        beta = orbit.representative
        if rrs.rtype(beta) != R3:
            continue
        if not comes_from_h(rrs, sign_datum, beta):
            continue
        out *= quad_norm_sign(2, sign_datum.place(orbit))
    return out


def half_on_divisible(rrs: RestrictedRootSystem) -> Dict[tuple, Fraction]:
    """The multiplier taking special a-data to its halved variant."""
    return {v: (Fraction(1, 2) if rr.rtype == R3 else Fraction(1))
            for v, rr in rrs.restricted.items()}


# ---------------------------------------------------------------------------
# the factor-expression calculus
# ---------------------------------------------------------------------------

TERMS = ("I_new", "I_old", "II", "III", "IV", "eps_L")

VARIANTS = ("delta_ks", "delta_d", "delta_prime", "delta_d_lambda", "delta_prime_lambda")


@dataclass(frozen=True)
class FactorExpression:
    """Formal product of the named transfer-factor terms with integer
    exponents.  Changing the auxiliary character data multiplies the second
    and third terms by one common factor, so the variation exponent is their
    sum."""

    exponents: Tuple[Tuple[str, int], ...]

    @staticmethod
    def make(**exps: int) -> "FactorExpression":
        for k in exps:
            if k not in TERMS:
                raise FactorError(f"unknown factor term {k!r}")
        return FactorExpression(tuple((k, exps[k]) for k in TERMS if exps.get(k)))

    def exponent(self, term: str) -> int:
        if term not in TERMS:
            raise FactorError(f"unknown factor term {term!r}")
        return dict(self.exponents).get(term, 0)

    @property
    def chi_variation(self) -> int:
        return self.exponent("II") + self.exponent("III")

    def __mul__(self, other: "FactorExpression") -> "FactorExpression":
        acc = dict(self.exponents)
        for k, e in other.exponents:
            acc[k] = acc.get(k, 0) + e
        return FactorExpression(tuple((k, acc[k]) for k in TERMS if acc.get(k)))

    def inv(self) -> "FactorExpression":
        return FactorExpression(tuple((k, -e) for k, e in self.exponents))

    def invert_chi_data(self) -> "FactorExpression":
        """Rewrite the expression at the inverse character data: the second
        term is replaced by its inverse, and the third keeps its exponent
        while contributing twice that to the second with opposite sign."""
        e2, e3 = self.exponent("II"), self.exponent("III")
        acc = dict(self.exponents)
        acc["II"] = -e2 - 2 * e3
        return FactorExpression(tuple((k, acc[k]) for k in TERMS if acc.get(k)))

    def to_dict(self) -> Dict[str, int]:
        return {k: e for k, e in self.exponents}

    def __repr__(self):
        if not self.exponents:
            return "1"
        return "*".join(k if e == 1 else f"{k}^{e}" for k, e in self.exponents)


def build_factor_expression(variant: str) -> FactorExpression:
    """The exponent patterns of the classical product and its corrected
    variants (renormalized and classical-compatible), with the Whittaker
    normalizations carrying the local epsilon factor to the first power."""
    v = variant.lower()
    if v == "delta_ks":
        return FactorExpression.make(I_old=1, II=1, III=1, IV=1)
    if v == "delta_d":
        return FactorExpression.make(I_new=1, II=-1, III=1, IV=1)
    if v == "delta_prime":
        return FactorExpression.make(I_new=-1, II=1, III=-1, IV=1)
    if v == "delta_d_lambda":
        return build_factor_expression("delta_d") * FactorExpression.make(eps_L=1)
    if v == "delta_prime_lambda":
        return build_factor_expression("delta_prime") * FactorExpression.make(eps_L=1)
    raise FactorError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def delta_d_via_inverse_chi() -> FactorExpression:
    """The equivalent presentation of the renormalized variant: keep the
    second term, and take the third at the inverse character data."""
    third_at_inverse = FactorExpression.make(III=1).invert_chi_data()
    return FactorExpression.make(I_new=1, II=1, IV=1) * third_at_inverse


def chi_invariance_check(expr: FactorExpression) -> bool:
    """True iff the expression is independent of the auxiliary character
    data, i.e. the common variation cancels."""
    return expr.chi_variation == 0
