"""Endoscopic sign data on restricted roots, the membership predicate for
the endoscopic coroot system, the a-data change sign, and the formal
exponent calculus for the corrected transfer-factor variants.

Sign data is keyed by restricted-root index, as a-data is: each Galois
orbit carries its restricted indices, the values are read once into
integer exponent pairs in index order, the inverse check compares those
integers, and the sign readers go through the table of symmetric orbits
that the constructor builds."""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Tuple

from .coeffs import LocalPlace, _rational, quad_norm_sign
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
    # the members' restricted indices, in the same (ascending) order
    indices: Tuple[int, ...] = field(compare=False, repr=False)


def restricted_galois_orbits(rrs: RestrictedRootSystem,
                             descent: DescentDatum) -> Tuple[RestrictedOrbit, ...]:
    """Orbits of the Galois action on restricted roots, each once, in order of
    its least index; an orbit is symmetric when it contains the negative of
    each member, that is, of one member, since the action is linear."""
    acts = [descent.restricted_action(k, rrs) for k in range(1, descent.order)]
    keys, negation = rrs._res_roots, rrs._res_negation
    out, seen = [], set()
    for i in range(len(keys)):
        if i not in seen:
            orbit = tuple(sorted({i, *(act[i] for act in acts)}))
            seen.update(orbit)
            out.append(RestrictedOrbit(tuple(keys[w].coords for w in orbit),
                                       negation[i] in orbit, orbit))
    return tuple(out)


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
        """exp(2 pi i e) for an exact rational e, an int that is not a bool or a
        Fraction, reduced mod 1; FactorError naming anything else."""
        e = _rational(exponent, FactorError, "exponent")
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
        if not isinstance(other, RootOfUnity):
            return NotImplemented
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
    together with a local quadratic extension for every symmetric orbit.

    The constructor reads the values once into exponent pairs (numerator,
    denominator) in restricted-index order, checks them there, and keeps
    for each symmetric orbit the row (orbit, divisible, comes from the
    endoscopic group, place) that the sign readers below go through."""

    def __init__(self, rrs: RestrictedRootSystem, descent: DescentDatum,
                 values: Mapping[tuple, RootOfUnity],
                 places: Mapping[Tuple[tuple, ...], LocalPlace]):
        if not isinstance(rrs, RestrictedRootSystem):
            raise FactorError(f"rrs: need a RestrictedRootSystem, got {type(rrs).__name__}")
        if not isinstance(descent, DescentDatum):
            raise FactorError(f"descent: need a DescentDatum, got {type(descent).__name__}")
        if descent.datum.cartan != rrs.datum.cartan:
            raise FactorError("descent: on another root datum than rrs (Cartan matrices differ)")
        self.rrs = rrs
        self.descent = descent
        self.values = _rekeyed("values", values, tuple)
        self.places = _rekeyed("places", places, lambda k: tuple(sorted(k)))
        self.orbits = restricted_galois_orbits(rrs, descent)
        self._validate()

    def _validate(self):
        res, values = self.rrs._res_roots, self.values
        for rr in res:
            if rr.coords not in values:
                raise FactorError(f"missing sign value at restricted root {rr.coords}")
        row = [values[rr.coords] for rr in res]
        if len(values) != len(res) or not all(isinstance(v, RootOfUnity) for v in row):
            self._raise_key_fault()
        # the value at -beta is the inverse of the one at beta: f = -e mod 1
        exps = [(v.exponent.numerator, v.exponent.denominator) for v in row]
        inverse = [(-n % d, d) for n, d in exps]
        if not all(inverse[i] == exps[j] for i, j in enumerate(self.rrs._res_negation)
                   if i < j):
            self._raise_key_fault()
        symmetric = []
        for orbit in self.orbits:
            vals = {exps[w] for w in orbit.indices}
            if len(vals) != 1:
                raise FactorError(f"sign value not constant on the orbit {orbit.members}")
            if orbit.symmetric:
                val = vals.pop()
                if val not in (_ONE, _MINUS_ONE):
                    raise FactorError(
                        f"value on the symmetric orbit {orbit.members} is not a sign")
                if orbit.members not in self.places:
                    raise FactorError(
                        f"symmetric orbit {orbit.members} carries no local place")
                place = self.places[orbit.members]
                if not isinstance(place, LocalPlace):
                    raise FactorError(f"places: the place of the symmetric orbit "
                                      f"{orbit.members} is {place!r}, not a LocalPlace")
                divisible = res[orbit.indices[0]].rtype == R3
                symmetric.append((orbit, divisible, _from_h(divisible, val), place))
        self._symmetric = tuple(symmetric)

    def _raise_key_fault(self):
        """The first fault of the key, type and inverse checks, in the order
        of the values: called only once one of them has failed."""
        restricted, values = self.rrs.restricted, self.values
        for v, val in values.items():
            if v not in restricted:
                raise FactorError(f"sign value at {v}, which is not a restricted root")
            if not isinstance(val, RootOfUnity):
                raise FactorError(f"values: the sign value at {v} is {val!r}, "
                                  f"not a RootOfUnity")
            neg = tuple(-c for c in v)
            if values[neg] != val.inv():
                raise FactorError(f"sign values at {v} and {neg} are not inverse")
        raise AssertionError("no key fault found")


_ONE, _MINUS_ONE = (0, 1), (1, 2)   # the exponent pairs of 1 and -1


def _from_h(divisible: bool, exponent: Tuple[int, int]) -> bool:
    """The membership rule, on the exponent pair of a sign value: an orbit
    comes from the endoscopic group when its value is -1 if it is
    divisible, 1 if not."""
    return exponent == (_MINUS_ONE if divisible else _ONE)


def _rekeyed(name: str, mapping, key) -> dict:
    """A copy of the mapping with each key passed through key; FactorError
    naming the argument when it is no mapping or a key does not convert."""
    if not isinstance(mapping, Mapping):
        raise FactorError(f"{name}: need a mapping, got {type(mapping).__name__}")
    try:
        return {key(k): v for k, v in mapping.items()}
    except TypeError as exc:
        raise FactorError(f"{name}: a key is not a tuple of coordinates ({exc})") from None


def _check_system(rrs, sign_datum: EndoscopicSignDatum) -> None:
    """FactorError unless rrs is the sign datum's restricted root system, or
    one rebuilt equal to it: the same Cartan matrix and theta permutation."""
    if not isinstance(sign_datum, EndoscopicSignDatum):
        raise FactorError(f"sign_datum: need an EndoscopicSignDatum, "
                          f"got {type(sign_datum).__name__}")
    own = sign_datum.rrs
    if rrs is not own and not (isinstance(rrs, RestrictedRootSystem)
                               and rrs.datum.cartan == own.datum.cartan
                               and rrs.theta.perm == own.theta.perm):
        raise FactorError("rrs: not the restricted root system of the sign datum "
                          "(another Cartan matrix or theta permutation)")


def comes_from_h(rrs: RestrictedRootSystem, sign_datum: EndoscopicSignDatum,
                 beta) -> bool:
    """Whether a restricted root contributes a coroot orbit to the endoscopic
    group: value +1 for indivisible types, value -1 for divisible ones."""
    _check_system(rrs, sign_datum)
    try:
        rr = rrs.restricted[tuple(beta)]
    except (KeyError, TypeError):
        raise FactorError(f"beta: {beta!r} is not a restricted root") from None
    e = sign_datum.values[rr.coords].exponent
    return _from_h(rr.rtype == R3, (e.numerator, e.denominator))


def adata_change_sign(rrs: RestrictedRootSystem, sign_datum: EndoscopicSignDatum,
                      b: Mapping[tuple, Fraction]) -> int:
    """The sign picked up by the refined first factor when the a-data is
    multiplied by b: the product of the local norm-sign characters of b over
    the symmetric orbits that are (divisible and from the endoscopic group)
    or (indivisible and not from it).  The orbits' types and values are
    those of the sign datum's own restricted root system, which rrs must be."""
    _check_system(rrs, sign_datum)
    if not isinstance(b, Mapping):
        raise FactorError(f"b: need a mapping, got {type(b).__name__}")
    out = 1
    for orbit, divisible, from_h, place in sign_datum._symmetric:
        if divisible != from_h:
            continue
        b_val = _orbit_value(b, orbit)
        if b_val == 0:
            raise FactorError(f"zero a-data multiplier on {orbit.members}")
        out *= quad_norm_sign(b_val, place)
    return out


def _orbit_value(b: Mapping[tuple, Fraction], orbit: RestrictedOrbit) -> Fraction:
    vals = {_rational(b[w], FactorError, "multiplier") for w in orbit.members if w in b}
    if not vals:
        raise FactorError(f"no multiplier given on the orbit {orbit.members}")
    if len(vals) != 1:
        raise FactorError(f"multiplier not constant on the orbit {orbit.members}")
    return vals.pop()


def delta_i_ratio(rrs: RestrictedRootSystem, sign_datum: EndoscopicSignDatum) -> int:
    """Ratio of the refined first factor to the classical one: the product of
    the norm-sign characters of 2 over the symmetric divisible orbits coming
    from the endoscopic group; rrs must be the sign datum's system."""
    _check_system(rrs, sign_datum)
    out = 1
    for _, divisible, from_h, place in sign_datum._symmetric:
        if divisible and from_h:
            out *= quad_norm_sign(2, place)
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
