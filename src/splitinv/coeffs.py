"""Exact coefficient groups and local quadratic symbols.

Three kinds of scalars are used throughout the package:

* symbolic units: the abelian group {+-1} x (free abelian group on named
  indeterminates together with the distinguished generator ``2``), so that
  negation and exact division by 2 are available without a field;
* exact field elements: ``Fraction``, quadratic extensions Q(sqrt(d)) with
  their conjugation, and prime fields F_p for odd p.  An element of
  Q(sqrt(d)) is held as integers, (a + b*sqrt(d))/c with c > 0 and
  gcd(a, b, c) = 1 (Cohen, A Course in Computational Algebraic Number
  Theory, 4.2): sums and products run on plain ints with one gcd each, and
  the normal form is unique, so equality compares integers.
  ``matoracle.mat_mul`` multiplies Q(sqrt(d)) matrices on those integers:
  it reads a QuadNum's integers in place (``quad_parts`` for an int or a
  Fraction entry) and builds each nonzero result entry in place with one
  gcd, as ``_reduced`` does;
* the sign characters of local class field theory for quadratic extensions,
  computed through the Hilbert symbol over Q_p and R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional, Tuple, Union

from .errors import CoefficientError, PlaceError

Rat = Union[int, Fraction]


# ---------------------------------------------------------------------------
# symbolic units
# ---------------------------------------------------------------------------

TWO = "2"  # distinguished generator; "half" is TWO with exponent -1


@dataclass(frozen=True)
class SymUnit:
    """An element +-1 * prod(sym**exp) of the symbolic unit group.

    ``exps`` is a sorted tuple of (symbol, nonzero exponent) pairs, so
    structural equality is group equality.
    """

    sign: int = 1
    exps: Tuple[Tuple[str, int], ...] = ()

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise CoefficientError("sign must be +-1")
        if any(e == 0 for _, e in self.exps):
            raise CoefficientError("zero exponents must be dropped")

    @staticmethod
    def one() -> "SymUnit":
        return SymUnit(1, ())

    @staticmethod
    def gen(name: str, exp: int = 1, sign: int = 1) -> "SymUnit":
        if exp == 0:
            return SymUnit(sign, ())
        return SymUnit(sign, ((name, exp),))

    @staticmethod
    def half() -> "SymUnit":
        return SymUnit.gen(TWO, -1)

    def __mul__(self, other: "SymUnit") -> "SymUnit":
        if not isinstance(other, SymUnit):
            return NotImplemented
        acc: Dict[str, int] = dict(self.exps)
        for name, e in other.exps:
            acc[name] = acc.get(name, 0) + e
        exps = tuple(sorted((n, e) for n, e in acc.items() if e != 0))
        return SymUnit(self.sign * other.sign, exps)

    def __pow__(self, k: int) -> "SymUnit":
        sign = self.sign if k % 2 else 1
        return SymUnit(sign, tuple((n, e * k) for n, e in self.exps if e * k != 0))

    def __neg__(self) -> "SymUnit":
        return SymUnit(-self.sign, self.exps)

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


class SignedSymbolMap:
    """Automorphism of the symbolic unit group: symbol -> sign * symbol.

    Used as the Galois action on symbolic coefficients.
    """

    def __init__(self, mapping: Mapping[str, Tuple[int, str]]):
        self.mapping = {k: (int(s), n) for k, (s, n) in mapping.items()}
        for s, _ in self.mapping.values():
            if s not in (1, -1):
                raise CoefficientError("symbol image sign must be +-1")

    def __call__(self, u: SymUnit) -> SymUnit:
        # (s * img)^e = s^e * img^e: exponents add up per image symbol
        sign, acc = u.sign, {}
        for name, e in u.exps:
            s, img = self.mapping.get(name, (1, name))
            acc[img] = acc.get(img, 0) + e
            sign *= s ** (e % 2)
        return SymUnit(sign, tuple(sorted((n, e) for n, e in acc.items() if e)))

    @property
    def order(self) -> int:
        # brute force; symbol alphabets here are tiny
        for k in range(1, 49):
            if all(self._power_fixes(name, k) for name in self.mapping):
                return k
        raise CoefficientError("signed symbol map has order > 48")

    def _power_fixes(self, name: str, k: int) -> bool:
        s, n = 1, name
        for _ in range(k):
            s2, n = self.mapping.get(n, (1, n))
            s *= s2
        return s == 1 and n == name


class IdentityAction:
    """Trivial coefficient automorphism."""

    order = 1

    def __call__(self, x):
        return x


# ---------------------------------------------------------------------------
# exact fields
# ---------------------------------------------------------------------------

class RationalField:
    """Q with trivial conjugation."""

    char = 0
    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, k: int):
        return Fraction(k)

    def embed(self, x: Rat):
        return Fraction(x)

    def half(self):
        return Fraction(1, 2)

    def conj(self, x):
        return x

    conj_order = 1


class QuadNum:
    """u + v*sqrt(d) with exact rational u, v, stored as (a + b*sqrt(d))/c.

    ``a``, ``b``, ``c`` are integers with c > 0 and gcd(a, b, c) = 1, so a
    value has exactly one representation: equality compares the integers,
    and arithmetic runs on them with one gcd per result.  ``u`` and ``v``
    are ``Fraction`` properties.  Instances are immutable.
    """

    __slots__ = ("_v",)  # the tuple (a, b, c, d)

    def __new__(cls, u: Rat, v: Rat, d: int) -> "QuadNum":
        u, v = Fraction(u), Fraction(v)
        return _reduced(u.numerator * v.denominator, v.numerator * u.denominator,
                        u.denominator * v.denominator, d)

    @staticmethod
    def make(u: Rat, v: Rat, d: int) -> "QuadNum":
        return QuadNum(u, v, d)

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
        if isinstance(other, QuadNum):
            if other._v[3] != self._v[3]:
                raise CoefficientError("mixed quadratic extensions")
            return other
        if isinstance(other, int):
            return _new_quad(other, 0, 1, self._v[3])
        if isinstance(other, Fraction):
            return _new_quad(other.numerator, 0, other.denominator, self._v[3])
        return None

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

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

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

    __rmul__ = __mul__

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

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

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


def quad_parts(x, d: int) -> Tuple[int, int, int, int]:
    """The integers (a, b, c, d) of x as an element of Q(sqrt(d)): a QuadNum
    as stored, an int or a Fraction as a rational (b = 0).  Raises
    CoefficientError for a QuadNum of another d."""
    if isinstance(x, QuadNum):
        if x._v[3] != d:
            raise CoefficientError("mixed quadratic extensions")
        return x._v
    if isinstance(x, int):
        return (x, 0, 1, d)
    if isinstance(x, Fraction):
        return (x.numerator, 0, x.denominator, d)
    raise CoefficientError(f"{x!r} is not an element of Q(sqrt({d}))")


class QuadField:
    """Q(sqrt(d)) for a non-square integer d, with its conjugation."""

    char = 0
    conj_order = 2

    def __init__(self, d: int):
        if d == 0 or _is_square_int(d):
            raise CoefficientError(f"d={d} is a square; extension is not quadratic")
        self.d = d
        self.name = f"Q(sqrt({d}))"
        self._zero = _new_quad(0, 0, 1, d)
        self._one = _new_quad(1, 0, 1, d)

    def zero(self):
        return self._zero

    def one(self):
        return self._one

    def from_int(self, k: int):
        return QuadNum.make(k, 0, self.d)

    def embed(self, x):
        if isinstance(x, QuadNum):
            if x.d != self.d:
                raise CoefficientError("mixed quadratic extensions")
            return x
        return QuadNum.make(x, 0, self.d)

    def gen(self):
        return _new_quad(0, 1, 1, self.d)

    def half(self):
        return _new_quad(1, 0, 2, self.d)

    def conj(self, x: QuadNum) -> QuadNum:
        return self.embed(x).conj()


@dataclass(frozen=True)
class Fp:
    """Element of the prime field F_p, p odd."""

    v: int
    p: int

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise CoefficientError("mixed prime fields")
            return other
        if isinstance(other, int):
            return Fp(other % self.p, self.p)
        if isinstance(other, Fraction):
            return Fp(other.numerator * pow(other.denominator, -1, self.p) % self.p, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Fp((self.v + o.v) % self.p, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Fp((self.v - o.v) % self.p, self.p)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Fp((self.v * o.v) % self.p, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return Fp((-self.v) % self.p, self.p)

    def inv(self) -> "Fp":
        if self.v == 0:
            raise CoefficientError("inverse of zero in F_p")
        return Fp(pow(self.v, -1, self.p), self.p)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        return Fp(pow(self.v, k, self.p), self.p)

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


class PrimeField:
    """F_p for an odd prime p.  Characteristic 2 is rejected: the
    constructions downstream divide by 2."""

    conj_order = 1

    def __init__(self, p: int):
        if p == 2:
            raise CoefficientError("characteristic 2 not supported: 2 is not invertible")
        if p >= PRIME_BOUND:
            raise CoefficientError(f"p={p} is not below the primality bound {PRIME_BOUND}")
        if p < 3 or not _is_prime(p):
            raise CoefficientError(f"p={p} is not an odd prime")
        self.p = p
        self.char = p
        self.name = f"F_{p}"

    def zero(self):
        return Fp(0, self.p)

    def one(self):
        return Fp(1, self.p)

    def from_int(self, k: int):
        return Fp(k % self.p, self.p)

    def embed(self, x):
        if isinstance(x, Fp):
            if x.p != self.p:
                raise CoefficientError("mixed prime fields")
            return x
        if isinstance(x, Fraction):
            return Fp(x.numerator * pow(x.denominator, -1, self.p) % self.p, self.p)
        return Fp(int(x) % self.p, self.p)

    def half(self):
        return Fp(pow(2, -1, self.p), self.p)

    def conj(self, x):
        return x


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

    @staticmethod
    def real(d: Optional[int] = None) -> "LocalPlace":
        return LocalPlace(None, d)

    @staticmethod
    def padic(p: int, d: Optional[int] = None) -> "LocalPlace":
        if p >= PRIME_BOUND:
            raise PlaceError(f"{p} is not below the primality bound {PRIME_BOUND}")
        if not _is_prime(p):
            raise PlaceError(f"{p} is not prime")
        return LocalPlace(p, d)

    @property
    def is_real(self) -> bool:
        return self.p is None

    def __repr__(self):
        base = "real" if self.is_real else f"p={self.p}"
        return f"LocalPlace({base}" + (f", d={self.d})" if self.d is not None else ")")


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
    a, b = Fraction(a), Fraction(b)
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
    a, b = Fraction(a), Fraction(b)
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
    x = Fraction(x)
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
    if place.d is None:
        raise PlaceError("place carries no quadratic extension datum d")
    if is_square_at(place.d, place):
        raise PlaceError(f"d={place.d} is a square at {place}; extension is not quadratic")
    x = Fraction(x)
    if x == 0:
        raise PlaceError("sign character of zero")
    return hilbert_symbol(x, place.d, place)
