"""Coefficient layer: symbolic units, quadratic extensions, prime fields,
and the Hilbert symbol against its brute-force norm-search oracle."""

import copy
import itertools
import math
import pickle
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from splitinv.coeffs import (PRIME_BOUND, Fp, LocalPlace, PrimeField, QuadField, QuadNum,
                             RationalField, SignedSymbolMap, SymUnit, _is_prime,
                             hilbert_symbol, hilbert_symbol_bruteforce, is_square_at,
                             legendre_symbol, quad_norm_sign, quad_parts)
from splitinv.errors import CoefficientError, FactorError, PlaceError
from splitinv.factors import (EndoscopicSignDatum, RootOfUnity, adata_change_sign,
                              restricted_galois_orbits)
from splitinv.rootdata import PinnedAutomorphism, RootDatum, restrict_root_system
from splitinv.splitting import DescentDatum

nonzero_rational = st.fractions(min_value=-30, max_value=30).filter(lambda x: x != 0)


def _rho_factor(n):
    """A proper factor of the odd composite n with no factor below 1000
    (Pollard's rho with Brent's cycle search, one gcd per doubling)."""
    for c in itertools.count(1):
        y, r, g = 2, 1, 1
        while g == 1:
            x, ys, q = y, y, 1
            for _ in range(r):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = math.gcd(q, n)
            r *= 2
        if g == n:
            # several factors met within one batch: repeat it step by step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _prime_factors(n):
    """The prime divisors of n >= 1. Trial division alone takes hours on
    the 100-bit numerators and denominators that hypothesis draws."""
    primes = set()
    for d in range(2, 1000):
        while n % d == 0:
            primes.add(d)
            n //= d
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if _is_prime(m):
            primes.add(m)
        else:
            f = _rho_factor(m)
            stack += [f, m // f]
    return primes


class TestSymbolicUnits:
    def test_one_and_signs(self):
        one = SymUnit.one()
        assert (-one) * (-one) == one
        assert -(-one) == one

    def test_half_times_two(self):
        two = SymUnit.gen("2")
        assert SymUnit.half() * two == SymUnit.one()

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.sampled_from("abc2"), st.integers(-4, 4),
                              st.sampled_from([1, -1])), max_size=8))
    def test_cancellation(self, word):
        u = SymUnit.one()
        for name, e, s in word:
            u = u * SymUnit.gen(name, e, s)
        assert (u * u.inv()).is_one
        assert (u ** 3) * (u ** -3) == SymUnit.one()

    # the public constructor enforces the normal form its docstring states,
    # so equal units compare equal and a repeated symbol cannot survive a
    # product
    @pytest.mark.parametrize("sign, exps", [
        (1, (("b", 1), ("a", 1))),
        (1, (("a", 1), ("a", 1))),
        (1, (("a", 1.5),)),
        (1, (("a", True),)),
        (1, ((3, 1),)),
        (1, (("a", 0),)),
        (1, [("a", 1)]),
        (1, (("a", 1, 2),)),
        (2, ()),
    ], ids=["unsorted", "repeated", "float-exponent", "bool-exponent", "int-symbol",
            "zero-exponent", "list", "triple", "sign-2"])
    def test_constructor_enforces_the_normal_form(self, sign, exps):
        with pytest.raises(CoefficientError):
            SymUnit(sign, exps)

    # products, powers, negation and signed maps build their results in
    # place: each must be what the validating constructor builds from the
    # exponents summed in a dict, and a unit factor comes back unchanged
    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.tuples(st.sampled_from([1, -1]),
                              st.dictionaries(st.sampled_from("abcd2"),
                                              st.integers(-4, 4).filter(lambda e: e != 0))),
                    min_size=2, max_size=2),
           st.integers(-3, 3),
           st.dictionaries(st.sampled_from("abc2"),
                           st.tuples(st.sampled_from([1, -1]), st.sampled_from("abcd2"))))
    def test_in_place_results_are_the_constructors(self, pair, k, mapping):
        (su, eu), (sv, ev) = pair
        u, v = SymUnit(su, tuple(sorted(eu.items()))), SymUnit(sv, tuple(sorted(ev.items())))
        acc = dict(eu)
        for name, e in ev.items():
            acc[name] = acc.get(name, 0) + e
        m = SignedSymbolMap(mapping)
        img, sign = {}, su
        for name, e in eu.items():
            s, target = mapping.get(name, (1, name))
            img[target] = img.get(target, 0) + e
            sign *= s ** (e % 2)
        for got, want in ((u * v, SymUnit(su * sv, tuple(sorted((n, e) for n, e in acc.items()
                                                                   if e)))),
                          (u ** k, SymUnit(su ** (k % 2), tuple((n, e * k) for n, e in u.exps
                                                                if e * k))),
                          (-u, SymUnit(-su, u.exps)),
                          (m(u), SymUnit(sign, tuple(sorted((n, e) for n, e in img.items()
                                                            if e))))):
            assert got == want and hash(got) == hash(want)
            assert SymUnit(got.sign, got.exps) == got
        one = SymUnit.one()
        assert u * one is u and one * u is (one if u.is_one else u)

    # the n-ary product against pairwise products and against the validating
    # constructor of the summed exponents: negative units to odd and even
    # powers, zero exponents, and exponents that cancel
    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.tuples(st.sampled_from([1, -1]),
                              st.dictionaries(st.sampled_from("abc2"),
                                              st.integers(-3, 3).filter(lambda e: e != 0)),
                              st.integers(-3, 3)), max_size=6))
    def test_product_is_the_pairwise_product(self, factors):
        units = [SymUnit(s, tuple(sorted(exps.items()))) ** e for s, exps, e in factors]
        pairwise, sign, acc = SymUnit.one(), 1, {}
        for s, exps, e in factors:
            sign *= s ** (e % 2)
            for name, x in exps.items():
                acc[name] = acc.get(name, 0) + x * e
        for u in units:
            pairwise = pairwise * u
        got = SymUnit.product(units)
        assert got == pairwise == SymUnit(sign, tuple(sorted((n, x) for n, x in acc.items() if x)))
        assert hash(got) == hash(pairwise)
        assert SymUnit.product(units + [u.inv() for u in reversed(units)]) == SymUnit.one()

    def test_signed_map(self):
        m = SignedSymbolMap({"a": (-1, "a"), "b": (1, "c"), "c": (1, "b")})
        a, b = SymUnit.gen("a"), SymUnit.gen("b")
        assert m(a) == -a
        assert m(a ** 2) == a ** 2
        assert m(b) == SymUnit.gen("c")
        assert m.order == 2

    # the one-pass map against the product it replaced: one SymUnit product
    # per symbol for img^e and one for the sign s^e.  Images may collide,
    # so exponents of different symbols add up or cancel; "d" is unmapped
    @settings(deadline=None, max_examples=300)
    @given(st.dictionaries(st.sampled_from("abc2"),
                           st.tuples(st.sampled_from([1, -1]), st.sampled_from("abcd2"))),
           st.sampled_from([1, -1]),
           st.dictionaries(st.sampled_from("abcd2"),
                           st.integers(-6, 6).filter(lambda e: e != 0)))
    def test_signed_map_matches_the_product_formula(self, mapping, sign, exps):
        m = SignedSymbolMap(mapping)
        u = SymUnit(sign, tuple(sorted(exps.items())))
        want = SymUnit(u.sign, ())
        for name, e in u.exps:
            s, img = mapping.get(name, (1, name))
            want = want * SymUnit.gen(img, e, 1) * SymUnit(s ** (e % 2) if s == -1 else 1, ())
        assert m(u) == want


class TestQuadField:
    def test_arithmetic(self):
        f = QuadField(5)
        x = f.embed(Fraction(1, 2)) + f.gen() * f.embed(3)
        assert x * x.inv() == f.one()
        assert (x ** 3) * (x ** -3) == f.one()
        assert f.conj(f.gen()) == -f.gen()
        assert f.conj(x * x) == f.conj(x) * f.conj(x)

    def test_rejects_square_discriminant(self):
        with pytest.raises(CoefficientError):
            QuadField(9)

    # d must be an int and not a bool, as PrimeField asks of p: 2.5 and "5"
    # once ended in a bare TypeError, and QuadNum(1, 2, "5") was accepted
    @pytest.mark.parametrize("d", [2.5, "5", Fraction(5), 5.0, None, True])
    @pytest.mark.parametrize("build", [QuadField, lambda d: QuadNum(1, 2, d)],
                             ids=["QuadField", "QuadNum"])
    def test_d_must_be_an_integer(self, build, d):
        with pytest.raises(CoefficientError, match=re.escape(f"d={d!r} is not an integer")):
            build(d)

    def test_norm_formula(self):
        f = QuadField(-1)
        x = f.embed(3) + f.gen() * f.embed(Fraction(1, 4))
        n = x * f.conj(x)
        assert n.v == 0 and n.u == Fraction(9) + Fraction(1, 16)


class TestPrimeField:
    def test_basic(self):
        f = PrimeField(5)
        assert f.half() == f.embed(3)
        assert (f.embed(2) * f.half()) == f.one()
        x = f.embed(4)
        assert x ** -1 == f.embed(4)

    def test_characteristic_two_rejected(self):
        with pytest.raises(CoefficientError):
            PrimeField(2)

    def test_composite_rejected(self):
        with pytest.raises(CoefficientError):
            PrimeField(9)

    def test_beyond_primality_bound_rejected(self):
        with pytest.raises(CoefficientError, match=str(PRIME_BOUND)):
            PrimeField(PRIME_BOUND + 2)

    @pytest.mark.parametrize("p", [5.0, True, "5"])
    def test_non_integer_rejected(self, p):
        # 5.0 used to pass the primality test and fail later in half()
        with pytest.raises(CoefficientError, match=re.escape(f"p={p!r}")):
            PrimeField(p)


small_fraction = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
coefficient = st.one_of(
    st.integers(-3, 3),
    small_fraction,
    st.builds(QuadNum, small_fraction, st.sampled_from([0, 0, 1, Fraction(-1, 2)]),
              st.sampled_from([5, -1])),
    st.builds(lambda k, p: Fp(k % p, p), st.integers(-6, 6), st.sampled_from([3, 5])),
    # embed reads any int or Fraction whose denominator p does not divide
    st.sampled_from([3, 5]).flatmap(
        lambda p: st.one_of(st.integers(), st.fractions().filter(lambda k: k.denominator % p))
        .map(PrimeField(p).embed)),
)


class TestEqualityAndHash:
    @settings(max_examples=500)
    @given(coefficient, coefficient)
    def test_equal_values_hash_alike(self, a, b):
        if a == b:
            assert b == a
            assert hash(a) == hash(b)

    def test_rational_quadnum_is_its_rational(self):
        assert QuadNum(1, 0, 5) == 1
        assert len({QuadNum(1, 0, 5), 1, Fraction(1)}) == 1
        assert QuadNum(Fraction(1, 2), 0, -1) in {Fraction(1, 2)}
        assert QuadNum(1, 1, 5) != 1

    def test_fp_equals_only_its_own_field(self):
        assert Fp(1, 5) == Fp(1, 5) and Fp(1, 5) != Fp(1, 3)
        assert Fp(1, 5) != 1 and Fp(1, 5) != 6 and Fp(0, 5) != Fraction(0)
        assert len({Fp(1, 5), 1, 6}) == 3


quad_part = st.one_of(st.just(Fraction(0)), small_fraction)


@st.composite
def quad_pairs(draw):
    """Two elements of one Q(sqrt(d)), often with u or v (or both) zero."""
    d = draw(st.sampled_from([5, -1, 2]))
    return tuple(QuadNum(draw(quad_part), draw(quad_part), d) for _ in range(2))


class TestScalarPaths:
    """The zero-skipping arithmetic against the full (u, v) formulas."""

    @staticmethod
    def assert_quad(z, d, u, v):
        assert type(z) is QuadNum and z.d == d
        assert type(z.u) is Fraction and type(z.v) is Fraction
        assert (z.u, z.v) == (u, v)

    @settings(max_examples=400)
    @given(quad_pairs())
    def test_quad_against_full_formulas(self, pair):
        x, y = pair
        d = x.d
        self.assert_quad(x + y, d, x.u + y.u, x.v + y.v)
        self.assert_quad(x - y, d, x.u - y.u, x.v - y.v)
        self.assert_quad(x * y, d, x.u * y.u + d * x.v * y.v, x.u * y.v + x.v * y.u)
        assert bool(x) == (x.u != 0 or x.v != 0)
        assert bool(-x) == bool(x) and bool(x - x) is False

    @settings(max_examples=200)
    @given(quad_pairs(), st.one_of(st.integers(-3, 3), quad_part))
    def test_quad_with_rational_operand(self, pair, k):
        x, d = pair[0], pair[0].d
        k_ = Fraction(k)
        self.assert_quad(x + k, d, x.u + k_, x.v)
        self.assert_quad(k + x, d, x.u + k_, x.v)
        self.assert_quad(x - k, d, x.u - k_, x.v)
        self.assert_quad(k - x, d, k_ - x.u, -x.v)
        self.assert_quad(x * k, d, x.u * k_, x.v * k_)
        self.assert_quad(k * x, d, x.u * k_, x.v * k_)
        if k:
            self.assert_quad(x / k, d, x.u / k_, x.v / k_)
        if x:
            n = x.norm()
            self.assert_quad(k / x, d, k_ * x.u / n, -k_ * x.v / n)

    @given(st.integers(-20, 20), st.sampled_from([3, 5, 7]))
    def test_fp_bool(self, k, p):
        assert bool(Fp(0, p)) is False
        assert bool(Fp(k % p, p)) == (k % p != 0)


class TestFieldElementOperators:
    """Subtraction, division and the reflected operators, which QuadNum and
    Fp share: Fp against integers mod p (QuadNum against the (u, v) formulas
    is in TestScalarPaths and TestQuadNormalForm), and the operand checks of
    both."""

    @settings(max_examples=200)
    @given(st.sampled_from([3, 5, 7, 101]), st.integers(0, 200), st.integers(0, 200),
           st.one_of(st.integers(-5, 5), st.fractions(min_value=-5, max_value=5,
                                                      max_denominator=6)))
    @example(3, 1, 2, Fraction(1, 3))
    def test_fp(self, p, a, b, k):
        x, y = Fp(a % p, p), Fp(b % p, p)
        assert x - y == Fp((a - b) % p, p)
        if Fraction(k).denominator % p == 0:
            # no image in F_p: every operator and embed name p
            for op in (lambda: k + x, lambda: k - x, lambda: k * x, lambda: k / Fp(1, p),
                       lambda: x / k, lambda: PrimeField(p).embed(k)):
                with pytest.raises(CoefficientError, match=f"p={p}"):
                    op()
            return
        km = k.numerator * pow(k.denominator, -1, p)
        assert k + x == Fp((km + a) % p, p)
        assert k - x == Fp((km - a) % p, p)
        assert k * x == Fp(km * a % p, p)
        if b % p:
            assert x / y == Fp(a * pow(b, -1, p) % p, p)
            assert k / y == Fp(km * pow(b, -1, p) % p, p)

    @pytest.mark.parametrize("x, y", [
        (QuadNum(1, 1, 5), QuadNum(1, 1, 2)), (Fp(1, 5), Fp(1, 7))])
    def test_mixed_fields_raise(self, x, y):
        for op in (lambda: x - y, lambda: x / y, lambda: y - x, lambda: y / x):
            with pytest.raises(CoefficientError):
                op()

    # a reflected operator once re-entered the + protocol, so an Fp and a
    # QuadNum handed the operation back and forth until RecursionError
    @pytest.mark.parametrize("x, y", [(Fp(1, 5), QuadNum(1, 1, 5)), (QuadNum(1, 1, 5), Fp(1, 5))])
    def test_elements_of_different_fields_raise_type_error(self, x, y):
        for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
            with pytest.raises(TypeError):
                op()

    @pytest.mark.parametrize("x", [QuadNum(1, 1, 5), Fp(2, 5)])
    @pytest.mark.parametrize("other", [1.5, "x"])
    def test_float_or_str_operand_raises_type_error(self, x, other):
        for op in (lambda: x + other, lambda: other + x, lambda: x - other,
                   lambda: other - x, lambda: x * other, lambda: other * x,
                   lambda: x / other, lambda: other / x):
            with pytest.raises(TypeError):
                op()


def _a2_flip_sign_datum():
    """The A2 flip under omega_T = w0, +1 on the short and -1 on the long
    restricted roots: the one orbit adata_change_sign reads is the long one."""
    datum = RootDatum([("A", 2)])
    rrs = restrict_root_system(datum, PinnedAutomorphism(datum, [1, 0]))
    desc = DescentDatum(datum, 2, datum.longest_element())
    values = {(1,): RootOfUnity.one(), (-1,): RootOfUnity.one(),
              (2,): RootOfUnity.minus_one(), (-2,): RootOfUnity.minus_one()}
    places = {o.members: LocalPlace.padic(5, 2)
              for o in restricted_galois_orbits(rrs, desc) if o.symmetric}
    return rrs, EndoscopicSignDatum(rrs, desc, values, places)


_RRS, _SIGNS = _a2_flip_sign_datum()
_PLACE = LocalPlace.padic(5, 2)

# every exact-number entry point: its call on one input, its error class, and
# the kinds of input it reads ("own" is an element of its own field)
RATIONAL, FIELD = ("int", "Fraction"), ("int", "Fraction", "own")
ENTRY_POINTS = {
    "RationalField.embed": (RationalField().embed, CoefficientError, RATIONAL),
    "QuadNum(u, v, d)": (lambda x: QuadNum(x, 1, 5), CoefficientError, RATIONAL),
    "hilbert_symbol a": (lambda x: hilbert_symbol(x, 5, _PLACE), PlaceError, RATIONAL),
    "hilbert_symbol b": (lambda x: hilbert_symbol(5, x, _PLACE), PlaceError, RATIONAL),
    "hilbert_symbol_bruteforce": (lambda x: hilbert_symbol_bruteforce(x, 5, _PLACE),
                                  PlaceError, RATIONAL),
    "is_square_at": (lambda x: is_square_at(x, _PLACE), PlaceError, RATIONAL),
    "quad_norm_sign": (lambda x: quad_norm_sign(x, _PLACE), PlaceError, RATIONAL),
    "RootOfUnity.make": (RootOfUnity.make, FactorError, RATIONAL),
    "a-data multiplier": (lambda x: adata_change_sign(_RRS, _SIGNS, dict.fromkeys(
        _RRS.restricted, x)), FactorError, RATIONAL),
    "QuadField.embed": (QuadField(5).embed, CoefficientError, FIELD),
    "PrimeField.embed": (PrimeField(5).embed, CoefficientError, FIELD),
    "quad_parts": (lambda x: quad_parts(x, 5), CoefficientError, FIELD),
    "Fp(v, p)": (lambda x: Fp(x, 5), CoefficientError, ("int",)),
    # None is the real place, or no quadratic extension
    "LocalPlace p": (LocalPlace, PlaceError, ("int", "None")),
    "LocalPlace d": (lambda x: LocalPlace(5, x), PlaceError, ("int", "None")),
}
# each input with its int or Fraction spelling
OWN = {"QuadField.embed": QuadNum(Fraction(3, 2), 0, 5), "PrimeField.embed": Fp(4, 5),
       "quad_parts": QuadNum(Fraction(3, 2), 0, 5)}
SPELLING = {"QuadField.embed": Fraction(3, 2), "PrimeField.embed": Fraction(3, 2),
            "quad_parts": Fraction(3, 2)}
INPUTS = {"int": 3, "Fraction": Fraction(3, 2), "bool": True, "float": 1.5, "str": "3/2",
          "None": None, "Decimal": Decimal("1.5"), "other d": QuadNum(1, 1, 2),
          "other p": Fp(3, 7), "SymUnit": SymUnit.gen("a")}


class TestExactNumberRule:
    """An exact number is an int that is not a bool, or a Fraction; each
    field converts through one function.  Every entry point answers what the
    int or Fraction spelling gives, or raises its own error class."""

    @pytest.mark.parametrize("name, kind", [(name, kind) for name in ENTRY_POINTS
                                            for kind in INPUTS] + [(name, "own") for name in OWN])
    def test_entry_point(self, name, kind):
        call, error, reads = ENTRY_POINTS[name]
        x = OWN[name] if kind == "own" else INPUTS[kind]
        if kind not in reads:
            with pytest.raises(error):
                call(x)
            return
        got = call(x)
        spelled = call(SPELLING[name] if kind == "own" else x)
        assert got == spelled and type(got) is type(spelled)
        if kind == "int" and "Fraction" in reads:
            # an int and the equal Fraction give the same value of the same type
            as_fraction = call(Fraction(x))
            assert got == as_fraction and type(got) is type(as_fraction)

    def test_a_float_is_not_read_as_its_binary_fraction(self):
        # 0.04 = (1/5)^2, but the float 0.04 is not 1/25
        assert is_square_at(Fraction(1, 25), LocalPlace.padic(5))
        with pytest.raises(PlaceError, match="0.04"):
            is_square_at(0.04, LocalPlace.padic(5))
        with pytest.raises(CoefficientError, match="2.5"):
            PrimeField(5).embed(2.5)

    @settings(max_examples=400)
    @given(st.sampled_from([RationalField(), QuadField(5), QuadField(-1), PrimeField(5),
                            PrimeField(7)]),
           st.one_of(st.integers(), st.fractions(), st.booleans(), st.floats(), st.none(),
                     st.text(max_size=3), st.decimals(),
                     st.builds(QuadNum, small_fraction, small_fraction,
                               st.sampled_from([5, -1, 2])),
                     st.builds(Fp, st.integers(0, 2), st.sampled_from([3, 5, 7])),
                     st.builds(SymUnit.gen, st.sampled_from("ab"))))
    def test_embed_is_zero_plus(self, field, x):
        own = type(field.zero())
        try:
            want = field.zero() + x
        except (TypeError, CoefficientError) as exc:
            want = exc
        if isinstance(x, (own, Fraction)) or type(x) is int:
            if isinstance(want, Exception):
                # another d or p, or a denominator p divides: both refuse
                assert isinstance(want, CoefficientError)
                with pytest.raises(CoefficientError):
                    field.embed(x)
                return
            got = field.embed(x)
            assert got == want and type(got) is type(want)
            return
        with pytest.raises(CoefficientError):
            field.embed(x)
        if own is not Fraction:         # Fraction's own + reads floats and more
            assert isinstance(want, TypeError)

    @pytest.mark.parametrize("v, p", [(5, 5), (-1, 5), (Fraction(1), 5), (True, 5), (1.0, 5),
                                      (1, 9), (1, 2), (1, 5.0), (1, True), (1, PRIME_BOUND + 2)])
    def test_fp_constructor_checks_the_normal_form(self, v, p):
        with pytest.raises(CoefficientError):
            Fp(v, p)

    # the field's operations build their results in place: each must be in
    # the normal form the constructor checks
    @settings(max_examples=200)
    @given(st.sampled_from([3, 5, 7, 101]), st.integers(), st.integers(), st.integers(-4, 4),
           st.fractions(max_denominator=20))
    def test_in_place_results_are_in_normal_form(self, p, a, b, k, q):
        f = PrimeField(p)
        x, y = f.embed(a), f.embed(b)
        results = [f.zero(), f.one(), f.half(), x, -x, x + y, x - y, x * y, 3 - x, 2 * x]
        if y:
            results += [x / y, 1 / y, y.inv(), y ** k]
        if q.denominator % p:
            results.append(f.embed(q))
        for z in results:
            assert Fp(z.v, z.p) == z


wide_fraction = st.fractions(min_value=-40, max_value=40, max_denominator=24)


@st.composite
def quad_values(draw):
    """A d and the (u, v) of an element of Q(sqrt(d)), u or v often zero."""
    d = draw(st.sampled_from([5, -1, 2, -3, 13]))
    part = st.one_of(st.just(Fraction(0)), wide_fraction)
    return d, draw(part), draw(part)


class TestQuadNormalForm:
    """The integer representation (a + b*sqrt(d))/c against the (u, v) formulas."""

    @staticmethod
    def assert_normal(x):
        assert type(x.a) is int and type(x.b) is int and type(x.c) is int
        assert x.c > 0 and math.gcd(x.a, x.b, x.c) == 1

    @settings(max_examples=300)
    @given(quad_values(), st.integers(1, 12))
    def test_normal_form_is_unique(self, value, k):
        d, u, v = value
        x = QuadNum(u, v, d)
        self.assert_normal(x)
        assert (x.u, x.v, x.d) == (u, v, d)
        assert type(x.u) is Fraction and type(x.v) is Fraction
        assert Fraction(x.a, x.c) == u and Fraction(x.b, x.c) == v
        # the same value reached by arithmetic has the same fields
        y = (x * k + QuadNum(0, Fraction(1, k), d)) / k - QuadNum(0, Fraction(1, k * k), d)
        self.assert_normal(y)
        assert (y.a, y.b, y.c, y.d) == (x.a, x.b, x.c, x.d)
        assert y == x and hash(y) == hash(x)
        twice = QuadNum(2 * u, 2 * v, d)
        for z in (x + x, x - (-x), x * 2, 2 * x):
            self.assert_normal(z)
            assert (z.a, z.b, z.c) == (twice.a, twice.b, twice.c)

    @settings(max_examples=300)
    @given(quad_values(), quad_values())
    def test_inverse_division_conj_norm(self, value, other):
        d, u, v = value
        _, s, t = other
        x, y = QuadNum(u, v, d), QuadNum(s, t, d)
        nrm = u * u - d * v * v
        assert x.norm() == nrm and type(x.norm()) is Fraction
        self.assert_normal(x.conj())
        assert (x.conj().u, x.conj().v) == (u, -v)
        if not x:
            with pytest.raises(CoefficientError):
                x.inv()
            with pytest.raises(CoefficientError):
                y / x
            return
        inv = x.inv()
        self.assert_normal(inv)
        assert (inv.u, inv.v) == (u / nrm, -v / nrm)
        q = y / x
        self.assert_normal(q)
        assert (q.u, q.v) == ((s * u - d * t * v) / nrm, (t * u - s * v) / nrm)
        r = 3 / x
        assert (r.u, r.v) == (3 * u / nrm, -3 * v / nrm)

    @settings(max_examples=200)
    @given(quad_values(), st.integers(-4, 4))
    def test_power(self, value, k):
        d, u, v = value
        x = QuadNum(u, v, d)
        if k < 0 and not x:
            with pytest.raises(CoefficientError):
                x ** k
            return
        pu, pv = Fraction(1), Fraction(0)
        bu, bv = (u, v) if k >= 0 else (u / (u * u - d * v * v), -v / (u * u - d * v * v))
        for _ in range(abs(k)):
            pu, pv = pu * bu + d * pv * bv, pu * bv + pv * bu
        z = x ** k
        self.assert_normal(z)
        assert (z.u, z.v, z.d) == (pu, pv, d)

    def test_immutable(self):
        x = QuadNum(1, 2, 5)
        for name in ("u", "v", "d", "a", "b", "c", "_v", "other"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
        with pytest.raises(AttributeError):
            del x.a
        assert x == QuadNum(1, 2, 5)

    def test_copy_and_pickle_keep_the_value(self):
        x = QuadNum(Fraction(1, 2), Fraction(-3, 4), -1)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is QuadNum and y == x and repr(y) == repr(x)

    def test_mixed_extensions_raise(self):
        x, y = QuadNum(1, 1, 5), QuadNum(1, 1, -1)
        for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y,
                   lambda: QuadField(5).embed(y)):
            with pytest.raises(CoefficientError):
                op()
        assert x != y

    def test_field_constants(self):
        f = QuadField(5)
        assert f.zero() is f.zero() and f.one() is f.one()
        assert (f.zero().a, f.zero().b, f.zero().c) == (0, 0, 1)
        assert f.one() == 1 and not f.zero() and f.zero() == 0
        assert repr(f.half()) == "1/2" and repr(f.gen() / 2) == "(0+1/2*sqrt(5))"


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        for n in range(10 ** 5):
            expected = n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))
            assert _is_prime(n) == expected, n

    def test_strong_pseudoprimes_rejected(self):
        # strong pseudoprimes to the bases 2..7 and 2..23 respectively
        assert not _is_prime(3215031751)
        assert not _is_prime(3825123056546413051)

    def test_large_primes(self):
        assert _is_prime(10 ** 18 + 3)
        assert _is_prime(2 ** 61 - 1)

    def test_place_beyond_bound_rejected(self):
        with pytest.raises(PlaceError, match=str(PRIME_BOUND)):
            LocalPlace.padic(PRIME_BOUND)

    @pytest.mark.parametrize("p", [5.0, True, "5"])
    def test_place_with_non_integer_prime_rejected(self, p):
        # 5.0 used to pass the primality test and fail later in hilbert_symbol
        with pytest.raises(PlaceError, match=re.escape(f"p={p!r}")):
            LocalPlace.padic(p)

    # the dataclass constructor makes the same checks as LocalPlace.padic
    @pytest.mark.parametrize("p", [6, 5.0, "x", True])
    def test_place_constructor_checks_p(self, p):
        with pytest.raises(PlaceError, match=re.escape(f"p={p!r}")):
            LocalPlace(p)


PLACES = [LocalPlace.real(), LocalPlace.padic(2), LocalPlace.padic(3),
          LocalPlace.padic(5), LocalPlace.padic(7)]


class TestHilbertSymbol:
    def test_trivial_cases(self):
        # -1 is not a norm from C over R; 1 is a norm everywhere
        assert hilbert_symbol(-1, -1, LocalPlace.real()) == -1
        for place in PLACES:
            assert hilbert_symbol(1, 7, place) == 1
            assert hilbert_symbol(5, 1, place) == 1

    def test_two_five_at_five(self):
        # brute force: x^2 - 5 y^2 does not represent 2 up to squares at p=5
        assert hilbert_symbol_bruteforce(2, 5, LocalPlace.padic(5)) == -1
        assert hilbert_symbol(2, 5, LocalPlace.padic(5)) == -1

    def test_oracle_agreement_curated(self):
        values = [1, -1, 2, -2, 3, -3, 5, 6, 7, 10, -10,
                  Fraction(1, 2), Fraction(-3, 4), Fraction(5, 9)]
        for place in PLACES[:4]:
            for a in values:
                for b in values:
                    assert hilbert_symbol(a, b, place) == \
                        hilbert_symbol_bruteforce(a, b, place), (a, b, place)

    @settings(deadline=None, max_examples=120)
    @given(nonzero_rational, nonzero_rational, nonzero_rational,
           st.sampled_from(PLACES))
    def test_symmetry_and_bimultiplicativity(self, a, b, c, place):
        assert hilbert_symbol(a, b, place) == hilbert_symbol(b, a, place)
        assert hilbert_symbol(a * b, c, place) == \
            hilbert_symbol(a, c, place) * hilbert_symbol(b, c, place)

    @settings(deadline=None, max_examples=80)
    @given(nonzero_rational, st.sampled_from(PLACES))
    def test_a_minus_a(self, a, place):
        assert hilbert_symbol(a, -a, place) == 1

    @settings(deadline=None, max_examples=60)
    @given(nonzero_rational, nonzero_rational)
    def test_product_formula(self, a, b):
        primes = set()
        for x in (a, b):
            for n in (abs(x.numerator), x.denominator):
                primes |= _prime_factors(n)
        beyond = [p for p in primes if p >= PRIME_BOUND]
        if beyond:
            # the drawn denominators reach about 2^130; places at or above
            # the primality bound are outside the library's domain
            with pytest.raises(PlaceError, match=str(PRIME_BOUND)):
                LocalPlace.padic(beyond[0])
            return
        total = hilbert_symbol(a, b, LocalPlace.real())
        for p in primes | {2}:
            total *= hilbert_symbol(a, b, LocalPlace.padic(p))
        assert total == 1

    def test_zero_rejected(self):
        with pytest.raises(PlaceError):
            hilbert_symbol(0, 3, LocalPlace.real())

    def test_prime_factors_reference(self):
        for n in range(1, 3000):
            expected = {q for q in range(2, n + 1) if n % q == 0 and _is_prime(q)}
            assert _prime_factors(n) == expected, n
        assert _prime_factors(1009 ** 2 * 1000003 * (2 ** 61 - 1)) == \
            {1009, 1000003, 2 ** 61 - 1}


class TestQuadNormSign:
    def test_squares_are_norms(self):
        for place in (LocalPlace.padic(5, 2), LocalPlace.padic(3, -1),
                      LocalPlace.real(-1)):
            for y in (2, 3, Fraction(5, 4), 7):
                assert quad_norm_sign(y * y, place) == 1

    def test_unramified_valuation_parity(self):
        # d a non-square unit at odd p: norms are exactly the even-valuation
        # elements, so the uniformizer has sign -1
        place = LocalPlace.padic(5, 2)
        assert quad_norm_sign(5, place) == -1
        assert quad_norm_sign(25, place) == 1
        assert quad_norm_sign(2, place) == 1  # units are norms here

    def test_sign_of_two(self):
        # the element 2 is a unit of odd valuation at p=2, hence not a norm
        # from the unramified extension there
        assert quad_norm_sign(2, LocalPlace.padic(2, 5)) == -1
        # ramified case at p=5: sign given by the Legendre symbol of 2
        assert quad_norm_sign(2, LocalPlace.padic(5, 5)) == legendre_symbol(2, 5)
        # over the reals every positive number is a norm from C
        assert quad_norm_sign(2, LocalPlace.real(-1)) == 1

    def test_equals_hilbert_symbol(self):
        place = LocalPlace.padic(5, 2)
        for x in (2, 3, 5, Fraction(1, 2), -7):
            assert quad_norm_sign(x, place) == hilbert_symbol(x, 2, place)

    def test_homomorphism_and_norm_triviality(self):
        place = LocalPlace.padic(3, -1)
        f = QuadField(-1)
        for u, v in ((1, 2), (2, 3), (Fraction(1, 3), 1), (4, Fraction(5, 2))):
            nrm = Fraction(u) ** 2 + Fraction(v) ** 2  # norm from Q(i)
            assert quad_norm_sign(nrm, place) == 1

    def test_square_d_rejected(self):
        with pytest.raises(PlaceError):
            quad_norm_sign(3, LocalPlace.padic(5, 4))
        with pytest.raises(PlaceError):
            quad_norm_sign(3, LocalPlace.real(4))

    def test_missing_d_rejected(self):
        with pytest.raises(PlaceError):
            quad_norm_sign(3, LocalPlace.padic(5))


def test_is_square_at():
    assert is_square_at(4, LocalPlace.real())
    assert not is_square_at(-4, LocalPlace.real())
    assert is_square_at(Fraction(1, 4), LocalPlace.padic(2))
    assert not is_square_at(2, LocalPlace.padic(2))
    assert is_square_at(17, LocalPlace.padic(2))  # 17 = 1 mod 8
    assert not is_square_at(5, LocalPlace.padic(5))


# each local symbol refuses a place that is not a LocalPlace, naming it,
# before it reads the place's prime or its d
@pytest.mark.parametrize("call", [lambda place: hilbert_symbol(2, 3, place),
                                  lambda place: hilbert_symbol_bruteforce(2, 3, place),
                                  lambda place: is_square_at(2, place),
                                  lambda place: quad_norm_sign(2, place)],
                         ids=["hilbert_symbol", "hilbert_symbol_bruteforce", "is_square_at",
                              "quad_norm_sign"])
@pytest.mark.parametrize("place", [5, "real", None, {"p": 5}], ids=["int", "str", "None", "dict"])
def test_local_symbols_refuse_a_place_that_is_not_a_local_place(call, place):
    with pytest.raises(PlaceError, match=re.escape(f"place {place!r} is not a LocalPlace")):
        call(place)


class TestSignedSymbolMapInput:
    """A signed symbol map is a mapping from symbols to (sign, symbol) pairs,
    the sign the int 1 or -1; anything else is refused naming the symbol,
    never truncated or read as an int."""

    @pytest.mark.parametrize("mapping, message", [
        (None, "symbol map None is not a mapping"),
        ([("a", (1, "a"))], "is not a mapping"),
        ({"a": 5}, "symbol 'a': image 5 is not a (sign, symbol) pair"),
        ({"a": (1, "a", "b")}, "symbol 'a': image (1, 'a', 'b') is not a (sign, symbol) pair"),
        ({"a": [1, "a"]}, "symbol 'a': image [1, 'a'] is not a (sign, symbol) pair"),
        ({"a": (1.9, "a")}, "symbol 'a': sign 1.9 is not the int 1 or -1"),
        ({"a": (1.0, "a")}, "symbol 'a': sign 1.0 is not the int 1 or -1"),
        ({"a": (True, "a")}, "symbol 'a': sign True is not the int 1 or -1"),
        ({"a": ("-1", "a")}, "symbol 'a': sign '-1' is not the int 1 or -1"),
        ({"a": (2, "a")}, "symbol 'a': sign 2 is not the int 1 or -1"),
        ({"a": (1, 5)}, "symbol 'a': image 5 is not a str"),
        ({5: (1, "a")}, "symbol 5 is not a str"),
    ])
    def test_refused(self, mapping, message):
        with pytest.raises(CoefficientError, match=re.escape(message)):
            SignedSymbolMap(mapping)

    def test_accepted_maps_and_their_powers(self):
        source = {"a": (-1, "b"), "b": (1, "c"), "c": (1, "a")}
        m = SignedSymbolMap(source)
        source["a"] = (1, "a")          # the map holds its own copy
        assert m.mapping == {"a": (-1, "b"), "b": (1, "c"), "c": (1, "a")}
        assert m.order == 6
        assert m.power(3).mapping == {"a": (-1, "a"), "b": (-1, "b"), "c": (-1, "c")}
        assert m.power(0).mapping == {"a": (1, "a"), "b": (1, "b"), "c": (1, "c")}
