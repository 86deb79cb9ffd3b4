"""Exact coefficient groups and local quadratic symbols.

Three kinds of scalars are used throughout the package:

* symbolic units: the abelian group {+-1} x (free abelian group on named
  indeterminates together with the distinguished generator ``2``), so that
  negation and exact division by 2 are available without a field;
* exact field elements: ``Fraction``, quadratic extensions Q(sqrt(d)) and
  prime fields F_p for odd p; only Q(sqrt(d)) carries a conjugation, and
  ``QuadNum`` and ``Fp`` share one set of derived operators,
  ``_FieldElement``.  An element of Q(sqrt(d)) is held as integers,
  (a + b*sqrt(d))/c with c > 0 and gcd(a, b, c) = 1 (Cohen, A Course in
  Computational Algebraic Number Theory, 4.2): sums and products run on
  plain ints with one gcd each, and the normal form is unique, so equality
  compares integers (``matoracle.mat_mul`` multiplies on them in place);
* the sign characters of local class field theory for quadratic extensions,
  computed through the Hilbert symbol over Q_p and R.

An exact number is an int that is not a bool, or a Fraction; nothing else is
read.  Q, Q(sqrt(d)) and F_p convert through ``_rational``, ``_quad`` and
``_fp``, which ``embed``, the operators and ``quad_parts`` call.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple, Union

from .errors import CoefficientError, PlaceError

Rat = Union[int, Fraction]


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_rational(x) -> bool:
    return isinstance(x, Fraction) or _is_int(x)


def _rational(x, error, what: str = "value") -> Fraction:
    """x as a Fraction, or error naming x when it is not an exact number."""
    if not _is_rational(x):
        raise error(f"need a rational {what} (an int or a Fraction), got {x!r}")
    return x if isinstance(x, Fraction) else Fraction(x)


# ---------------------------------------------------------------------------
# symbolic units
# ---------------------------------------------------------------------------

TWO = "2"  # distinguished generator; "half" is TWO with exponent -1


@dataclass(frozen=True)
class SymUnit:
    """An element +-1 * prod(sym**exp) of the symbolic unit group.

    ``exps`` is a tuple of (str symbol, nonzero int exponent) pairs sorted
    by unique symbol, so structural equality is group equality.  The
    constructor checks this normal form; group operations build in place.
    """

    sign: int = 1
    exps: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        exps = self.exps
        if not (self.sign in (1, -1) and isinstance(exps, tuple) and all(
                isinstance(p, tuple) and len(p) == 2 and isinstance(p[0], str)
                and type(p[1]) is int and p[1] for p in exps)
                and all(a[0] < b[0] for a, b in zip(exps, exps[1:]))):
            raise CoefficientError(f"need sign +-1 and (str, nonzero int) pairs sorted by "
                                   f"unique symbol, got {self.sign!r}, {exps!r}")

    @staticmethod
    def one() -> "SymUnit":
        return _new_sym(1, ())

    @staticmethod
    def gen(name: str, exp: int = 1, sign: int = 1) -> "SymUnit":
        if exp == 0:
            return SymUnit(sign, ())
        return SymUnit(sign, ((name, exp),))

    @staticmethod
    def half() -> "SymUnit":
        return SymUnit.gen(TWO, -1)

    @staticmethod
    def product(units: Iterable["SymUnit"]) -> "SymUnit":
        """The product of units: their exponents are summed in one dict and
        sorted once, whatever the number of factors."""
        sign, acc = 1, {}
        for u in units:
            sign *= u.sign
            for name, e in u.exps:
                acc[name] = acc.get(name, 0) + e
        return _new_sym(sign, tuple(sorted((n, e) for n, e in acc.items() if e)))

    def __mul__(self, other: "SymUnit") -> "SymUnit":
        if not isinstance(other, SymUnit):
            return NotImplemented
        if other.is_one:
            return self
        if self.is_one:
            return other
        return SymUnit.product((self, other))

    def __pow__(self, k: int) -> "SymUnit":
        if not isinstance(k, int):
            return NotImplemented
        sign = self.sign if k % 2 else 1
        return _new_sym(sign, tuple((n, e * k) for n, e in self.exps) if k else ())

    def __neg__(self) -> "SymUnit":
        return _new_sym(-self.sign, self.exps)

    def inv(self) -> "SymUnit":
        return self ** -1

    @property
    def is_one(self) -> bool:
        return self.sign == 1 and not self.exps

    def __repr__(self) -> str:
        if not self.exps:
            return "1" if self.sign == 1 else "-1"
        body = "*".join(n if e == 1 else f"{n}^{e}" for n, e in self.exps)
        return body if self.sign == 1 else "-" + body


def _new_sym(sign: int, exps: Tuple[Tuple[str, int], ...]) -> SymUnit:
    """The SymUnit sign * exps of a sign and exponents already in normal form."""
    x = object.__new__(SymUnit)
    object.__setattr__(x, "sign", sign)
    object.__setattr__(x, "exps", exps)
    return x


class SignedSymbolMap:
    """Automorphism of the symbolic unit group: symbol -> sign * symbol.

    Used as the Galois action on symbolic coefficients.
    """

    def __init__(self, mapping: Mapping[str, Tuple[int, str]]):
        if not isinstance(mapping, Mapping):
            raise CoefficientError(f"symbol map {mapping!r} is not a mapping")
        for name, image in mapping.items():
            if not isinstance(name, str):
                raise CoefficientError(f"symbol {name!r} is not a str")
            if not isinstance(image, tuple) or len(image) != 2:
                raise CoefficientError(f"symbol {name!r}: image {image!r} is not a "
                                       "(sign, symbol) pair")
            if not _is_int(image[0]) or image[0] not in (1, -1):
                raise CoefficientError(f"symbol {name!r}: sign {image[0]!r} is not the int 1 or -1")
            if not isinstance(image[1], str):
                raise CoefficientError(f"symbol {name!r}: image {image[1]!r} is not a str")
        self.mapping = dict(mapping)

    def __call__(self, u: SymUnit) -> SymUnit:
        # (s * img)^e = s^e * img^e: exponents add up per image symbol
        sign, acc = u.sign, {}
        for name, e in u.exps:
            s, img = self.mapping.get(name, (1, name))
            acc[img] = acc.get(img, 0) + e
            sign *= s ** (e % 2)
        return _new_sym(sign, tuple(sorted((n, e) for n, e in acc.items() if e)))

    @property
    def order(self) -> int:
        # brute force; symbol alphabets here are tiny
        for k in range(1, 49):
            if all(self._image(name, k) == (1, name) for name in self.mapping):
                return k
        raise CoefficientError("signed symbol map has order > 48")

    def power(self, k: int) -> "SignedSymbolMap":
        """The k-th power of this map, k >= 0, as one map."""
        return SignedSymbolMap({name: self._image(name, k) for name in self.mapping})

    def _image(self, name: str, k: int) -> Tuple[int, str]:
        """(sign, symbol) of the k-th power's image of name."""
        s, n = 1, name
        for _ in range(k):
            s2, n = self.mapping.get(n, (1, n))
            s *= s2
        return s, n


class IdentityAction:
    """Trivial coefficient automorphism."""

    order = 1

    def __call__(self, x):
        return x


# ---------------------------------------------------------------------------
# exact fields
# ---------------------------------------------------------------------------

class RationalField:
    """Q, with elements held as Fraction."""

    char = 0
    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def embed(self, x: Rat):
        return _rational(x, CoefficientError)

    def half(self):
        return Fraction(1, 2)


class _FieldElement:
    """The operators an exact field element derives from its class's ``_coerce``
    (its field's conversion, None for a foreign type), ``__add__``, ``__neg__``,
    ``__mul__`` and ``inv``; none re-enters the operator protocol."""

    __slots__ = ()

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o + (-self)

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self * o.inv()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o * self.inv()


class QuadNum(_FieldElement):
    """u + v*sqrt(d) with exact rational u, v, stored as (a + b*sqrt(d))/c.

    ``a``, ``b``, ``c`` are integers with c > 0 and gcd(a, b, c) = 1, so a
    value has exactly one representation: equality compares the integers,
    and arithmetic runs on them with one gcd per result.  ``u`` and ``v``
    are ``Fraction`` properties.  Instances are immutable.
    """

    __slots__ = ("_v",)  # the tuple (a, b, c, d)

    def __new__(cls, u: Rat, v: Rat, d: int) -> "QuadNum":
        if not _is_int(d):
            raise CoefficientError(f"d={d!r} is not an integer")
        u, v = _rational(u, CoefficientError), _rational(v, CoefficientError)
        return _reduced(u.numerator * v.denominator, v.numerator * u.denominator,
                        u.denominator * v.denominator, d)

    def __setattr__(self, name, value):
        raise AttributeError(f"QuadNum is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"QuadNum is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return (QuadNum, (self.u, self.v, self.d))

    a = property(lambda self: self._v[0])
    b = property(lambda self: self._v[1])
    c = property(lambda self: self._v[2])
    d = property(lambda self: self._v[3])

    @property
    def u(self) -> Fraction:
        return Fraction(self._v[0], self._v[2])

    @property
    def v(self) -> Fraction:
        return Fraction(self._v[1], self._v[2])

    def _coerce(self, other):
        return _quad(other, self._v[3])

    # zero operands return at once: most entries of the oracle's matrices
    # are zero

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self._v
        oa, ob, oc, _ = o._v
        if not (oa or ob):
            return self
        if not (a or b):
            return o
        if c == oc:
            return _reduced(a + oa, b + ob, c, d)
        return _reduced(a * oc + oa * c, b * oc + ob * c, c * oc, d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self._v
        if not (a or b):
            return self
        oa, ob, oc, _ = o._v
        if not (oa or ob):
            return o
        return _reduced(a * oa + d * b * ob, a * ob + b * oa, c * oc, d)

    __radd__, __rmul__ = __add__, __mul__     # both commute

    def __neg__(self):
        a, b, c, d = self._v
        return _new_quad(-a, -b, c, d)

    def norm(self) -> Fraction:
        """The norm u^2 - d*v^2 to Q."""
        a, b, c, d = self._v
        return Fraction(a * a - d * b * b, c * c)

    def inv(self) -> "QuadNum":
        nrm = self.norm()
        if not nrm:
            raise CoefficientError("inverse of zero in Q(sqrt(d))")
        # 1/x = conj(x)/N(x); with N(x) = p/q this is (a - b*sqrt(d))*q/(c*p)
        a, b, c, d = self._v
        p, q = nrm.numerator, nrm.denominator
        if p < 0:
            p, q = -p, -q
        return _reduced(a * q, -b * q, c * p, d)

    def __pow__(self, k: int):
        a, b, c, d = (self if k >= 0 else self.inv())._v
        pa, pb = 1, 0
        for _ in range(abs(k)):
            pa, pb = pa * a + d * pb * b, pa * b + pb * a
        return _reduced(pa, pb, c ** abs(k), d)

    def __eq__(self, other):
        if isinstance(other, QuadNum):
            return self._v == other._v
        if isinstance(other, (int, Fraction)):
            a, b, c, _ = self._v
            return not b and a == other.numerator and c == other.denominator
        return NotImplemented

    def __hash__(self):
        # equal to the rational u when v == 0, so it must hash like u
        return hash(self.u) if not self._v[1] else hash((self.u, self.v, self.d))

    def conj(self) -> "QuadNum":
        a, b, c, d = self._v
        return _new_quad(a, -b, c, d)

    def __bool__(self):
        return bool(self._v[0] or self._v[1])

    def __repr__(self):
        if not self._v[1]:
            return str(self.u)
        return f"({self.u}+{self.v}*sqrt({self.d}))"


def _new_quad(a: int, b: int, c: int, d: int) -> QuadNum:
    """The QuadNum (a + b*sqrt(d))/c of integers already in normal form."""
    x = object.__new__(QuadNum)
    object.__setattr__(x, "_v", (a, b, c, d))
    return x


def _reduced(a: int, b: int, c: int, d: int) -> QuadNum:
    """The QuadNum (a + b*sqrt(d))/c of integers with c > 0."""
    g = math.gcd(a, b, c)
    if g != 1:
        a, b, c = a // g, b // g, c // g
    return _new_quad(a, b, c, d)


def _quad(x, d: int) -> Optional[QuadNum]:
    """x in Q(sqrt(d)), or None for a foreign type; CoefficientError for another d."""
    if isinstance(x, QuadNum):
        if x._v[3] != d:
            raise CoefficientError("mixed quadratic extensions")
        return x
    return _new_quad(x.numerator, 0, x.denominator, d) if _is_rational(x) else None


def _embedded(x, y, name: str):
    """y, a field's conversion of x; CoefficientError naming x if it is None."""
    if y is None:
        raise CoefficientError(f"{x!r} is not an element of {name}")
    return y


def quad_parts(x, d: int) -> Tuple[int, int, int, int]:
    """The integers (a, b, c, d) of x as an element of Q(sqrt(d))."""
    return _embedded(x, _quad(x, d), f"Q(sqrt({d}))")._v


class QuadField:
    """Q(sqrt(d)) for a non-square integer d, with its conjugation (Q and F_p have none)."""

    char = 0

    def __init__(self, d: int):
        self._one = QuadNum(1, 0, d)    # which refuses a d that is not an int
        if d == 0 or _is_square_int(d):
            raise CoefficientError(f"d={d} is a square; extension is not quadratic")
        self.d = d
        self.name = f"Q(sqrt({d}))"
        self._zero = _new_quad(0, 0, 1, d)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def embed(self, x):
        return _embedded(x, _quad(x, self.d), self.name)

    def gen(self):
        return _new_quad(0, 1, 1, self.d)

    def half(self):
        return _new_quad(1, 0, 2, self.d)

    def conj(self, x: QuadNum) -> QuadNum:
        return self.embed(x).conj()


@dataclass(frozen=True)
class Fp(_FieldElement):
    """Element 0 <= v < p of F_p, p odd: the constructor checks it, results build in place."""

    v: int
    p: int

    def __post_init__(self):
        _check_prime(self.p, CoefficientError, odd=True)
        if not (_is_int(self.v) and 0 <= self.v < self.p):
            raise CoefficientError(f"need an int v with 0 <= v < p={self.p}, got {self.v!r}")

    def _coerce(self, other):
        return _fp(other, self.p)

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else _new_fp((self.v + o.v) % self.p, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else _new_fp(self.v * o.v % self.p, self.p)

    __radd__, __rmul__ = __add__, __mul__     # both commute

    def __neg__(self):
        return _new_fp((-self.v) % self.p, self.p)

    def inv(self) -> "Fp":
        if self.v == 0:
            raise CoefficientError("inverse of zero in F_p")
        return _new_fp(pow(self.v, -1, self.p), self.p)

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        return _new_fp(pow(self.v, k, self.p), self.p)

    def __eq__(self, other):
        # only elements of the same field compare equal: an int equal to
        # Fp(1, 5) would have to equal 1 and 6 alike, and no hash allows that
        if not isinstance(other, Fp):
            return NotImplemented
        return self.p == other.p and self.v == other.v

    def __hash__(self):
        return hash((self.v, self.p))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v}(mod {self.p})"


def _new_fp(v: int, p: int) -> Fp:
    """The Fp v (mod p) of a v already in normal form."""
    x = object.__new__(Fp)
    object.__setattr__(x, "v", v)
    object.__setattr__(x, "p", p)
    return x


def _fp(x, p: int) -> Optional[Fp]:
    """x in F_p, or None for a foreign type; CoefficientError for another p."""
    if isinstance(x, Fp):
        if x.p != p:
            raise CoefficientError("mixed prime fields")
        return x
    if not _is_rational(x):
        return None
    if x.denominator % p == 0:
        raise CoefficientError(f"{x} has no image in F_{p}: p={p} divides its denominator")
    return _new_fp(x.numerator * pow(x.denominator, -1, p) % p, p)


class PrimeField:
    """F_p for an odd prime p.  Characteristic 2 is rejected: the
    constructions downstream divide by 2."""

    def __init__(self, p: int):
        _check_prime(p, CoefficientError, odd=True)
        self.p = p
        self.char = p
        self.name = f"F_{p}"

    def zero(self):
        return _new_fp(0, self.p)

    def one(self):
        return _new_fp(1, self.p)

    def embed(self, x):
        return _embedded(x, _fp(x, self.p), self.name)

    def half(self):
        return _new_fp(pow(2, -1, self.p), self.p)


def _check_prime(p, error, odd: bool = False) -> None:
    """error naming p unless p is a prime int below PRIME_BOUND (and odd)."""
    if not _is_int(p):
        raise error(f"p={p!r} is not an integer")
    if p >= PRIME_BOUND:
        raise error(f"p={p} is not below the primality bound {PRIME_BOUND}")
    if not _is_prime(p):
        raise error(f"p={p} is not prime")
    if odd and p == 2:
        raise error("characteristic 2 not supported: 2 is not invertible")


def _is_square_int(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


# Miller-Rabin with the first 13 primes as bases decides primality of every
# n below PRIME_BOUND (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for n < PRIME_BOUND."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class QuadConj:
    """Order-2 coefficient automorphism sqrt(d) -> -sqrt(d)."""

    order = 2

    def __init__(self, field: QuadField):
        self.field = field

    def __call__(self, x):
        return self.field.conj(x)


# ---------------------------------------------------------------------------
# local places and quadratic symbols
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LocalPlace:
    """A place of Q (real or p-adic), optionally carrying the square class d
    of a quadratic extension attached to a symmetric orbit."""

    p: Optional[int] = None  # None means the real place
    d: Optional[int] = None  # non-square class defining the extension

    def __post_init__(self):
        if self.p is not None:
            _check_prime(self.p, PlaceError)
        if self.d is not None and not _is_int(self.d):
            raise PlaceError(f"d={self.d!r} is not an integer")

    @staticmethod
    def real(d: Optional[int] = None) -> "LocalPlace":
        return LocalPlace(None, d)

    @staticmethod
    def padic(p: int, d: Optional[int] = None) -> "LocalPlace":
        return LocalPlace(p, d)

    @property
    def is_real(self) -> bool:
        return self.p is None

    def __repr__(self):
        base = "real" if self.is_real else f"p={self.p}"
        return f"LocalPlace({base}" + (f", d={self.d})" if self.d is not None else ")")


def _checked_place(place) -> LocalPlace:
    """place, or PlaceError naming it when it is not a LocalPlace."""
    if not isinstance(place, LocalPlace):
        raise PlaceError(f"place {place!r} is not a LocalPlace")
    return place


def _valuation(x: Fraction, p: int) -> Tuple[int, Fraction]:
    """Return (v_p(x), unit part)."""
    if x == 0:
        raise PlaceError("valuation of zero")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _unit_mod(u: Fraction, m: int) -> int:
    """Reduce a p-unit fraction modulo m (m a power of the same p)."""
    return u.numerator * pow(u.denominator, -1, m) % m


def legendre_symbol(a: int, p: int) -> int:
    """(a|p) for odd prime p, a prime to p."""
    ls = pow(a % p, (p - 1) // 2, p)
    if ls == 0:
        raise PlaceError("Legendre symbol of a multiple of p")
    return -1 if ls == p - 1 else 1


def hilbert_symbol(a: Rat, b: Rat, place: LocalPlace) -> int:
    """The Hilbert symbol (a,b) at a place of Q.

    Returns +1 iff a is a norm from the quadratic etale algebra obtained by
    adjoining sqrt(b); symmetric and bimultiplicative.
    """
    place = _checked_place(place)
    a, b = _rational(a, PlaceError), _rational(b, PlaceError)
    if a == 0 or b == 0:
        raise PlaceError("Hilbert symbol requires nonzero arguments")
    if place.is_real:
        return -1 if (a < 0 and b < 0) else 1
    p = place.p
    alpha, u = _valuation(a, p)
    beta, w = _valuation(b, p)
    if p != 2:
        eps = (p - 1) // 2
        sign = -1 if (alpha * beta * eps) % 2 else 1
        if beta % 2:
            sign *= legendre_symbol(_unit_mod(u, p), p)
        if alpha % 2:
            sign *= legendre_symbol(_unit_mod(w, p), p)
        return sign
    # p = 2: standard closed form via (u-1)/2 and (u^2-1)/8
    u8 = _unit_mod(u, 8)
    w8 = _unit_mod(w, 8)
    eps_u, eps_w = (u8 - 1) // 2 % 2, (w8 - 1) // 2 % 2
    om_u, om_w = (u8 * u8 - 1) // 8 % 2, (w8 * w8 - 1) // 8 % 2
    e = eps_u * eps_w + alpha * om_w + beta * om_u
    return -1 if e % 2 else 1


def hilbert_symbol_bruteforce(a: Rat, b: Rat, place: LocalPlace) -> int:
    """Independent oracle for the Hilbert symbol: exhaustive search for a
    primitive solution of z^2 = a*x^2 + b*y^2 to sufficient p-adic precision
    (mod p^3 for odd p, mod 2^6 at p=2).
    """
    place = _checked_place(place)
    a, b = _rational(a, PlaceError), _rational(b, PlaceError)
    if a == 0 or b == 0:
        raise PlaceError("Hilbert symbol requires nonzero arguments")
    if place.is_real:
        return 1 if (a > 0 or b > 0) else -1
    p = place.p
    m = 6 if p == 2 else 3
    pm = p ** m
    aa = _squareclass_rep(a, p, pm)
    bb = _squareclass_rep(b, p, pm)
    # tabulate squares once
    squares = {}
    for z in range(pm):
        squares.setdefault(z * z % pm, []).append(z)
    lift_bound = 2 if p == 2 else 1
    for x in range(pm):
        axx = aa * x * x % pm
        for y in range(pm):
            t = (axx + bb * y * y) % pm
            if t not in squares:
                continue
            for z in squares[t]:
                if x % p == 0 and y % p == 0 and z % p == 0:
                    continue
                # Hensel: some partial derivative must be small enough to lift
                if min(_int_val(2 * z, p, m), _int_val(2 * aa * x, p, m),
                       _int_val(2 * bb * y, p, m)) <= lift_bound:
                    return 1
    return -1


def _squareclass_rep(x: Fraction, p: int, pm: int) -> int:
    v, u = _valuation(x, p)
    return p ** (v % 2) * _unit_mod(u, pm) % pm


def _int_val(n: int, p: int, cap: int) -> int:
    if n % p ** cap == 0:
        return cap + 1
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def is_square_at(x: Rat, place: LocalPlace) -> bool:
    """Whether x is a square in the completion at the place."""
    place = _checked_place(place)
    x = _rational(x, PlaceError)
    if x == 0:
        raise PlaceError("square test of zero")
    if place.is_real:
        return x > 0
    p = place.p
    v, u = _valuation(x, p)
    if v % 2:
        return False
    if p != 2:
        return legendre_symbol(_unit_mod(u, p), p) == 1
    return _unit_mod(u, 8) == 1


def quad_norm_sign(x: Rat, place: LocalPlace) -> int:
    """Sign character of the quadratic extension attached to the place.

    Equals +1 exactly on local norms from the extension by sqrt(d); this is
    the character associated to the extension by local class field theory.
    """
    if _checked_place(place).d is None:
        raise PlaceError("place carries no quadratic extension datum d")
    if is_square_at(place.d, place):
        raise PlaceError(f"d={place.d} is a square at {place}; extension is not quadratic")
    if _rational(x, PlaceError) == 0:
        raise PlaceError("sign character of zero")
    return hilbert_symbol(x, place.d, place)
