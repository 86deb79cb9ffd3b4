"""Endoscopic sign data, the change-of-a-data sign, the first-factor ratio,
and the factor-expression calculus."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from splitinv.coeffs import LocalPlace
from splitinv.errors import FactorError
from splitinv.factors import (EndoscopicSignDatum, FactorExpression, RootOfUnity,
                              adata_change_sign, build_factor_expression,
                              chi_invariance_check, comes_from_h,
                              delta_d_via_inverse_chi, delta_i_ratio,
                              half_on_divisible, restricted_galois_orbits)
from splitinv.rootdata import (PinnedAutomorphism, build_root_datum,
                               restrict_root_system)
from splitinv.splitting import DescentDatum

import sign_reference as ref

ONE, MINUS = RootOfUnity.one(), RootOfUnity.minus_one()


def a2_flip_setup():
    d = build_root_datum([("A", 2)])
    theta = PinnedAutomorphism(d, [1, 0])
    rrs = restrict_root_system(d, theta)
    desc = DescentDatum(d, 2, d.longest_element())
    return rrs, desc


def sign_datum(rrs, desc, val_short, val_long, place):
    values = {(1,): val_short, (-1,): val_short, (2,): val_long, (-2,): val_long}
    orbits = restricted_galois_orbits(rrs, desc)
    places = {o.members: place for o in orbits if o.symmetric}
    return EndoscopicSignDatum(rrs, desc, values, places)


class TestRootOfUnity:
    """The exponent is held in its normal form 0 <= e < 1, so structural
    equality is equality of roots of unity."""

    @pytest.mark.parametrize("e", [Fraction(3, 2), Fraction(-1, 2), Fraction(1), 0, 0.5,
                                   "x", None])
    def test_constructor_refuses_other_exponents(self, e):
        with pytest.raises(FactorError):
            RootOfUnity(e)

    @pytest.mark.parametrize("e", ["x", float("nan"), float("inf"), float("-inf"), None,
                                   [1, 2]])
    def test_make_refuses_what_is_not_a_rational(self, e):
        with pytest.raises(FactorError, match="rational exponent"):
            RootOfUnity.make(e)

    def test_minus_one_has_one_form(self):
        assert RootOfUnity(Fraction(1, 2)) == MINUS and RootOfUnity(Fraction(1, 2)).is_minus_one
        assert RootOfUnity.make(Fraction(3, 2)) == MINUS
        assert MINUS * MINUS == ONE and MINUS.inv() == MINUS and ONE.inv() == ONE

    @given(st.fractions(max_denominator=12), st.fractions(max_denominator=12))
    def test_in_place_results_are_the_constructors(self, a, b):
        x, y = RootOfUnity.make(a), RootOfUnity.make(b)
        for z, e in ((x, a), (x.inv(), -a), (x * y, a + b)):
            assert z == RootOfUnity(e - math.floor(e))
            assert type(z.exponent) is Fraction and 0 <= z.exponent < 1
            assert hash(z) == hash(RootOfUnity(z.exponent))


class TestSignDatum:
    def test_orbits_symmetric_under_long_element(self):
        rrs, desc = a2_flip_setup()
        orbits = restricted_galois_orbits(rrs, desc)
        assert all(o.symmetric for o in orbits)
        assert {o.members for o in orbits} == {((-1,), (1,)), ((-2,), (2,))}

    def test_asymmetric_orbits(self):
        d = build_root_datum([("A", 4)])
        theta = PinnedAutomorphism(d, [3, 2, 1, 0])
        rrs = restrict_root_system(d, theta)
        beta0 = rrs.simple_restricted[0]
        desc = DescentDatum(d, 2, rrs.levi_longest[beta0])
        orbits = restricted_galois_orbits(rrs, desc)
        assert any(not o.symmetric for o in orbits)
        assert any(o.symmetric for o in orbits)

    def test_nonreal_value_on_symmetric_orbit_rejected(self):
        rrs, desc = a2_flip_setup()
        zeta3 = RootOfUnity.make(Fraction(1, 3))
        values = {(1,): zeta3, (-1,): zeta3.inv(), (2,): ONE, (-2,): ONE}
        orbits = restricted_galois_orbits(rrs, desc)
        places = {o.members: LocalPlace.padic(5, 2) for o in orbits}
        with pytest.raises(FactorError):
            EndoscopicSignDatum(rrs, desc, values, places)

    def test_value_at_a_non_root_rejected(self):
        rrs, desc = a2_flip_setup()
        values = {(1,): ONE, (-1,): ONE, (2,): MINUS, (-2,): MINUS, (7,): ONE}
        places = {o.members: LocalPlace.padic(5, 2)
                  for o in restricted_galois_orbits(rrs, desc)}
        with pytest.raises(FactorError, match=re.escape("(7,)")):
            EndoscopicSignDatum(rrs, desc, values, places)

    def test_missing_place_rejected(self):
        rrs, desc = a2_flip_setup()
        values = {(1,): ONE, (-1,): ONE, (2,): MINUS, (-2,): MINUS}
        with pytest.raises(FactorError):
            EndoscopicSignDatum(rrs, desc, values, {})


class TestSignDatumRefusals:
    """Every malformed argument ends in FactorError at construction, naming
    the argument, or the root or orbit concerned."""

    def _inputs(self):
        rrs, desc = a2_flip_setup()
        values = {(1,): ONE, (-1,): ONE, (2,): MINUS, (-2,): MINUS}
        places = {o.members: LocalPlace.padic(5, 2)
                  for o in restricted_galois_orbits(rrs, desc)}
        return rrs, desc, values, places

    def test_values_none(self):
        rrs, desc, _, places = self._inputs()
        with pytest.raises(FactorError, match="^values: need a mapping, got NoneType$"):
            EndoscopicSignDatum(rrs, desc, None, places)

    def test_places_none(self):
        rrs, desc, values, _ = self._inputs()
        with pytest.raises(FactorError, match="^places: need a mapping, got NoneType$"):
            EndoscopicSignDatum(rrs, desc, values, None)

    def test_fraction_value(self):
        rrs, desc, values, places = self._inputs()
        values[(1,)] = Fraction(1, 2)
        with pytest.raises(FactorError, match=re.escape(
                "values: the sign value at (1,) is Fraction(1, 2), not a RootOfUnity")):
            EndoscopicSignDatum(rrs, desc, values, places)

    def test_int_value(self):
        rrs, desc, values, places = self._inputs()
        values[(2,)] = 1
        with pytest.raises(FactorError, match=re.escape(
                "values: the sign value at (2,) is 1, not a RootOfUnity")):
            EndoscopicSignDatum(rrs, desc, values, places)

    def test_str_place(self):
        rrs, desc, values, places = self._inputs()
        places[((-2,), (2,))] = "5"
        with pytest.raises(FactorError, match=re.escape(
                "places: the place of the symmetric orbit ((-2,), (2,)) is '5', "
                "not a LocalPlace")):
            EndoscopicSignDatum(rrs, desc, values, places)

    @pytest.mark.parametrize("name", ["values", "places"])
    def test_key_that_is_no_tuple(self, name):
        rrs, desc, values, places = self._inputs()
        args = {"values": values, "places": places}
        args[name][7] = None
        with pytest.raises(FactorError, match=f"^{name}: a key is not a tuple"):
            EndoscopicSignDatum(rrs, desc, **args)


def a4_flip_setup():
    d = build_root_datum([("A", 4)])
    rrs = restrict_root_system(d, PinnedAutomorphism(d, [3, 2, 1, 0]))
    return rrs, DescentDatum(d, 2, d.longest_element())


class TestSystemChecks:
    """The sign datum's constructor checks its root system and descent, and
    its readers refuse a restricted root system other than the sign datum's
    (a rebuilt equal one is the same system)."""

    def test_rrs_that_is_no_restricted_root_system(self):
        _, desc = a2_flip_setup()
        with pytest.raises(FactorError, match="^rrs: need a RestrictedRootSystem, got NoneType$"):
            EndoscopicSignDatum(None, desc, {}, {})

    def test_descent_that_is_no_descent_datum(self):
        rrs, _ = a2_flip_setup()
        with pytest.raises(FactorError, match="^descent: need a DescentDatum, got NoneType$"):
            EndoscopicSignDatum(rrs, None, {}, {})

    def test_descent_on_another_cartan_matrix(self):
        # the A2 flip's system with an A4 descent once ended in IndexError
        rrs, _ = a2_flip_setup()
        _, desc4 = a4_flip_setup()
        with pytest.raises(FactorError, match="^descent: on another root datum than rrs"):
            EndoscopicSignDatum(rrs, desc4, {}, {})

    @staticmethod
    def _readers(rrs, sd):
        half = half_on_divisible(a2_flip_setup()[0])
        return (lambda: delta_i_ratio(rrs, sd),
                lambda: adata_change_sign(rrs, sd, half),
                lambda: comes_from_h(rrs, sd, (2,)))

    def test_readers_refuse_no_system(self):
        # delta_i_ratio(None, sd) once answered 1
        sd = sign_datum(*a2_flip_setup(), ONE, MINUS, LocalPlace.padic(5, 2))
        for read in self._readers(None, sd):
            with pytest.raises(FactorError, match="^rrs: not the restricted root system"):
                read()

    def test_readers_refuse_another_system(self):
        sd = sign_datum(*a2_flip_setup(), ONE, MINUS, LocalPlace.padic(5, 2))
        a2 = sd.rrs.datum
        for rrs in (a4_flip_setup()[0],       # another Cartan matrix
                    restrict_root_system(a2, PinnedAutomorphism.identity(a2))):  # theta
            for read in self._readers(rrs, sd):
                with pytest.raises(FactorError, match="^rrs: not the restricted root system"):
                    read()

    def test_readers_refuse_what_is_no_sign_datum(self):
        rrs, _ = a2_flip_setup()
        for read in self._readers(rrs, None):
            with pytest.raises(FactorError, match="^sign_datum: need an EndoscopicSignDatum"):
                read()

    def test_readers_accept_a_rebuilt_equal_system(self):
        sd = sign_datum(*a2_flip_setup(), ONE, MINUS, LocalPlace.padic(5, 2))
        rebuilt, _ = a2_flip_setup()
        assert rebuilt is not sd.rrs
        for own, other in zip(self._readers(sd.rrs, sd), self._readers(rebuilt, sd)):
            assert own() == other()


PLACE_POOL = (LocalPlace.real(-1), LocalPlace.padic(2, 5), LocalPlace.padic(2, -1),
              LocalPlace.padic(3, -1), LocalPlace.padic(5, 2), LocalPlace.padic(7, 3))
ZETA3, ZETA6 = RootOfUnity.make(Fraction(1, 3)), RootOfUnity.make(Fraction(1, 6))


@pytest.fixture(scope="module")
def flip_descents():
    """(rrs, descent) on the A2, A4 and A6 flips, for omega_T = w0 and for
    the Levi longest element of the first simple restricted root."""
    out = []
    for n in (2, 4, 6):
        d = build_root_datum([("A", n)])
        rrs = restrict_root_system(d, PinnedAutomorphism(d, list(range(n - 1, -1, -1))))
        for w in (d.longest_element(), rrs.levi_longest[rrs.simple_restricted[0]]):
            out.append((rrs, DescentDatum(d, 2, w)))
    return out


def _random_sign_data(rng, orbits):
    values, places = {}, {}
    for members, symmetric in orbits:
        if members[0] in values:
            continue
        val = rng.choice((ONE, MINUS)) if symmetric else \
            RootOfUnity.make(Fraction(rng.randrange(6), 6))
        for w in members:
            values[w] = val
            values[tuple(-c for c in w)] = val.inv()
        if symmetric:
            places[members] = rng.choice(PLACE_POOL)
    return values, places


def _drop_key(rng, orbits, values, places):
    del values[rng.choice(sorted(values))]


def _extra_key(rng, orbits, values, places):
    # three times a root and its negative, their values not inverse
    items = list(values.items())
    v = tuple(3 * c for c in items[0][0])
    for key, val in ((v, ONE), (tuple(-c for c in v), ZETA6)):
        items.insert(rng.randrange(len(items) + 1), (key, val))
    values.clear()
    values.update(items)


def _broken_inverse(rng, orbits, values, places):
    v = rng.choice(sorted(values))
    values[v] = values[v] * ZETA6


def _non_constant_orbit(rng, orbits, values, places):
    members = rng.choice([m for m, _ in orbits if len(m) > 1] or [m for m, _ in orbits])
    w = rng.choice(members)
    values[w] = values[w] * ZETA3
    values[tuple(-c for c in w)] = values[w].inv()


def _zeta3_on_symmetric(rng, orbits, values, places):
    for w in rng.choice([m for m, sym in orbits if sym]):
        values[w] = ZETA3


def _missing_place(rng, orbits, values, places):
    del places[rng.choice(sorted(places))]


CORRUPTIONS = (_drop_key, _extra_key, _broken_inverse, _non_constant_orbit,
               _zeta3_on_symmetric, _missing_place)


def _outcome(run):
    try:
        return run()
    except FactorError as exc:
        return "FactorError", str(exc)


class TestAgainstCoordinateReference:
    """The index-keyed sign datum against the coordinate-keyed rules of
    ``sign_reference``: the same orbits, and on random and corrupted sign
    data the same signs or FactorError with the same message."""

    def test_orbits(self, flip_descents):
        for rrs, desc in flip_descents:
            orbits = restricted_galois_orbits(rrs, desc)
            assert [(o.members, o.symmetric) for o in orbits] == list(ref.galois_orbits(rrs, desc))
            for o in orbits:
                assert o.members == tuple(rrs._res_roots[i].coords for i in o.indices)

    @pytest.mark.parametrize("corrupt", [None, *CORRUPTIONS, "two"],
                             ids=lambda c: c if isinstance(c, str) or c is None
                             else c.__name__.strip("_"))
    def test_same_signs_or_same_fault(self, flip_descents, corrupt):
        rng = random.Random(corrupt if isinstance(corrupt, str) else
                            getattr(corrupt, "__name__", "clean"))
        for rrs, desc in flip_descents:
            orbits = ref.galois_orbits(rrs, desc)
            half = half_on_divisible(rrs)
            for _ in range(12):
                values, places = _random_sign_data(rng, orbits)
                steps = rng.sample(CORRUPTIONS, 2) if corrupt == "two" else \
                    [corrupt] if corrupt else []
                for step in steps:
                    step(rng, orbits, values, places)
                b = {}
                for members, _ in orbits:
                    x = Fraction(rng.randint(0 if rng.random() < 0.1 else 1, 12),
                                 rng.randint(1, 12))
                    b.update((w, x) for w in members)

                def new():
                    sd = EndoscopicSignDatum(rrs, desc, dict(values), dict(places))
                    return (delta_i_ratio(rrs, sd), adata_change_sign(rrs, sd, half),
                            _outcome(lambda: adata_change_sign(rrs, sd, b)))

                def old():
                    ref.validate(rrs, orbits, values, places)
                    return (ref.delta_i_ratio(rrs, orbits, values, places),
                            ref.adata_change_sign(rrs, orbits, values, places, half),
                            _outcome(lambda: ref.adata_change_sign(rrs, orbits, values,
                                                                   places, b)))

                got, want = _outcome(new), _outcome(old)
                assert got == want, (steps, values, places)
                if corrupt != "two":   # two corruptions may undo each other
                    assert (got[0] == "FactorError") == (corrupt is not None)


class TestComesFromH:
    def test_divisible_with_minus_one(self):
        rrs, desc = a2_flip_setup()
        sd = sign_datum(rrs, desc, ONE, MINUS, LocalPlace.padic(5, 2))
        assert comes_from_h(rrs, sd, (2,))

    def test_indivisible_with_plus_one(self):
        rrs, desc = a2_flip_setup()
        sd = sign_datum(rrs, desc, ONE, MINUS, LocalPlace.padic(5, 2))
        assert comes_from_h(rrs, sd, (1,))

    def test_r2_with_minus_one_is_out(self):
        rrs, desc = a2_flip_setup()
        sd = sign_datum(rrs, desc, MINUS, MINUS, LocalPlace.padic(5, 2))
        assert not comes_from_h(rrs, sd, (1,))

    def test_constant_on_orbits(self):
        rrs, desc = a2_flip_setup()
        sd = sign_datum(rrs, desc, ONE, MINUS, LocalPlace.padic(5, 2))
        for orbit in restricted_galois_orbits(rrs, desc):
            flags = {comes_from_h(rrs, sd, w) for w in orbit.members}
            assert len(flags) == 1


@pytest.fixture(params=[MINUS, ONE], ids=["contributing", "non-contributing"])
def a2_sign_datum(request):
    """The A2 flip at an unramified 5-adic place, with the value -1 or 1 on
    its divisible orbit: that orbit contributes to adata_change_sign in the
    first case and no orbit does in the second."""
    rrs, desc = a2_flip_setup()
    sd = sign_datum(rrs, desc, ONE, request.param, LocalPlace.padic(5, 2))
    five = {v: Fraction(5) for v in rrs.restricted}
    assert adata_change_sign(rrs, sd, five) == (-1 if request.param == MINUS else 1)
    return rrs, sd


class TestForeignArguments:
    """comes_from_h, adata_change_sign and the product of roots of unity
    refuse an argument of the wrong kind by its type, not by a KeyError or
    AttributeError from deeper in, and not by an answer."""

    @pytest.mark.parametrize("beta", [(5,), (1, 0), (), None, 2, [[1]]])
    def test_comes_from_h_refuses_what_is_no_restricted_root(self, a2_sign_datum, beta):
        rrs, sd = a2_sign_datum
        with pytest.raises(FactorError, match=re.escape(f"beta: {beta!r} is not a restricted root")):
            comes_from_h(rrs, sd, beta)

    @pytest.mark.parametrize("b", [None, 5, [((2,), Fraction(5))], "b"])
    def test_change_sign_refuses_a_multiplier_that_is_no_mapping(self, a2_sign_datum, b):
        rrs, sd = a2_sign_datum
        with pytest.raises(FactorError, match=f"^b: need a mapping, got {type(b).__name__}$"):
            adata_change_sign(rrs, sd, b)

    @pytest.mark.parametrize("other", [2, Fraction(1, 2), None, "x"])
    def test_product_with_a_foreign_operand_is_a_type_error(self, a2_sign_datum, other):
        _, sd = a2_sign_datum
        for z in sd.values.values():
            assert z * z.inv() == ONE
            with pytest.raises(TypeError):
                z * other


class TestChangeSign:
    def test_trivial_multiplier(self):
        rrs, desc = a2_flip_setup()
        sd = sign_datum(rrs, desc, ONE, MINUS, LocalPlace.padic(5, 2))
        b = {v: Fraction(1) for v in rrs.restricted}
        assert adata_change_sign(rrs, sd, b) == 1

    def test_square_multipliers(self):
        rrs, desc = a2_flip_setup()
        sd = sign_datum(rrs, desc, ONE, MINUS, LocalPlace.padic(5, 2))
        b = {v: Fraction(9, 4) for v in rrs.restricted}
        assert adata_change_sign(rrs, sd, b) == 1

    def test_contributing_orbits(self):
        rrs, desc = a2_flip_setup()
        # divisible root in the endoscopic set: contributes; the indivisible
        # orbit contributes only when it is out
        place = LocalPlace.padic(5, 2)  # unramified: sign = valuation parity
        sd = sign_datum(rrs, desc, ONE, MINUS, place)
        b = {(1,): Fraction(1), (-1,): Fraction(1),
             (2,): Fraction(5), (-2,): Fraction(5)}
        assert adata_change_sign(rrs, sd, b) == -1
        sd2 = sign_datum(rrs, desc, MINUS, MINUS, place)
        b2 = {(1,): Fraction(5), (-1,): Fraction(5),
              (2,): Fraction(1), (-2,): Fraction(1)}
        assert adata_change_sign(rrs, sd2, b2) == -1

    def test_multiplicative(self):
        rrs, desc = a2_flip_setup()
        sd = sign_datum(rrs, desc, MINUS, MINUS, LocalPlace.padic(2, 5))
        rng = random.Random(0)
        orbits = restricted_galois_orbits(rrs, desc)
        for _ in range(40):
            def rand_mult():
                out = {}
                for o in orbits:
                    v = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                    for w in o.members:
                        out[w] = v
                return out
            b1, b2 = rand_mult(), rand_mult()
            b12 = {k: b1[k] * b2[k] for k in b1}
            assert adata_change_sign(rrs, sd, b12) == \
                adata_change_sign(rrs, sd, b1) * adata_change_sign(rrs, sd, b2)

    def test_zero_rejected(self):
        rrs, desc = a2_flip_setup()
        sd = sign_datum(rrs, desc, ONE, MINUS, LocalPlace.padic(5, 2))
        b = {v: Fraction(0) for v in rrs.restricted}
        with pytest.raises(FactorError):
            adata_change_sign(rrs, sd, b)


class TestDeltaIRatio:
    def test_no_divisible_roots_gives_one(self):
        d = build_root_datum([("A", 3)])
        theta = PinnedAutomorphism(d, [2, 1, 0])
        rrs = restrict_root_system(d, theta)
        desc = DescentDatum(d, 2, d.longest_element())
        orbits = restricted_galois_orbits(rrs, desc)
        values = {}
        places = {}
        for o in orbits:
            for w in o.members:
                values[w] = ONE
            if o.symmetric:
                places[o.members] = LocalPlace.padic(3, -1)
        sd = EndoscopicSignDatum(rrs, desc, values, places)
        assert delta_i_ratio(rrs, sd) == 1

    def test_real_place_positive_norm(self):
        rrs, desc = a2_flip_setup()
        sd = sign_datum(rrs, desc, ONE, MINUS, LocalPlace.real(-1))
        assert delta_i_ratio(rrs, sd) == 1  # 2 > 0 is a norm from C

    def test_two_at_two_unramified(self):
        rrs, desc = a2_flip_setup()
        sd = sign_datum(rrs, desc, ONE, MINUS, LocalPlace.padic(2, 5))
        assert delta_i_ratio(rrs, sd) == -1

    def test_matches_change_sign_at_half(self):
        rng = random.Random(1)
        pool = (LocalPlace.real(-1), LocalPlace.padic(2, 5), LocalPlace.padic(2, -1),
                LocalPlace.padic(3, -1), LocalPlace.padic(5, 2), LocalPlace.padic(5, 5))
        for fam, rank, perm in (("A", 2, (1, 0)), ("A", 4, (3, 2, 1, 0))):
            d = build_root_datum([(fam, rank)])
            theta = PinnedAutomorphism(d, perm)
            rrs = restrict_root_system(d, theta)
            desc = DescentDatum(d, 2, d.longest_element())
            orbits = restricted_galois_orbits(rrs, desc)
            for _ in range(30):
                values, places = {}, {}
                for o in orbits:
                    val = rng.choice([ONE, MINUS])
                    for w in o.members:
                        values[w] = val
                    if o.symmetric:
                        places[o.members] = rng.choice(pool)
                sd = EndoscopicSignDatum(rrs, desc, values, places)
                assert delta_i_ratio(rrs, sd) == \
                    adata_change_sign(rrs, sd, half_on_divisible(rrs))


class TestFactorExpressions:
    def test_exponent_maps(self):
        assert build_factor_expression("delta_ks").to_dict() == \
            {"I_old": 1, "II": 1, "III": 1, "IV": 1}
        assert build_factor_expression("delta_d").to_dict() == \
            {"I_new": 1, "II": -1, "III": 1, "IV": 1}
        assert build_factor_expression("delta_prime").to_dict() == \
            {"I_new": -1, "II": 1, "III": -1, "IV": 1}

    def test_whittaker_variants_use_plain_epsilon(self):
        for v in ("delta_d_lambda", "delta_prime_lambda"):
            assert build_factor_expression(v).exponent("eps_L") == 1

    def test_chi_invariance(self):
        assert chi_invariance_check(build_factor_expression("delta_d"))
        assert chi_invariance_check(build_factor_expression("delta_prime"))
        assert not chi_invariance_check(build_factor_expression("delta_ks"))
        assert chi_invariance_check(build_factor_expression("delta_d_lambda"))
        assert chi_invariance_check(build_factor_expression("delta_prime_lambda"))

    def test_two_definitions_agree(self):
        assert delta_d_via_inverse_chi() == build_factor_expression("delta_d")

    def test_chi_inversion_is_involutive_on_invariant_expressions(self):
        e = build_factor_expression("delta_d")
        assert e.invert_chi_data().invert_chi_data() == e
        # an invariant expression keeps its variation at zero
        assert e.invert_chi_data().chi_variation == 0

    def test_unknown_variant(self):
        with pytest.raises(FactorError):
            build_factor_expression("delta_x")

    def test_unknown_term(self):
        with pytest.raises(FactorError):
            FactorExpression.make(V=1)
