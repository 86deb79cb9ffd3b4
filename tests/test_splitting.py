"""a-data, descent data, splitting cocycles, Borel independence, the lift
comparison, and the fixed-subgroup vs twisted comparison."""

import dataclasses
import random
import re
from fractions import Fraction

import pytest

import splitinv.splitting as splitting
import splitinv.suites as suites
from splitinv.coeffs import (LocalPlace, PrimeField, QuadConj, QuadField, RationalField,
                             SignedSymbolMap, SymUnit)
from splitinv.errors import (ADataError, DescentError, RealizationError, RootDatumError,
                             SplitinvError)
from splitinv.factors import EndoscopicSignDatum, RootOfUnity, restricted_galois_orbits
from splitinv.matoracle import (MatrixContext, block_embed, exp_nilpotent,
                                fixed_group_lift, mat_det, mat_eq, mat_identity,
                                mat_inv, mat_mul, mat_prod, mat_scalar, realize,
                                restricted_root_vectors, sl2_embed)
from splitinv.rootdata import (PinnedAutomorphism, analyze_weyl, build_root_datum,
                               restrict_root_system)
from splitinv.splitting import (ADatum, DescentDatum, Realization, _h2_seed,
                                _symbolic_adata, check_nn_prime,
                                compare_fixed_vs_twisted, equivariant_quad_adata,
                                lambda_twisted, lambda_untwisted, lift_discrepancy,
                                sample_h_twisted, verify_borel_independence)
from splitinv.tits import TitsElement, TorusElement

import coord_adata
from test_matoracle import dense_inverse

ONE = Fraction(1)


def untwisted_h(ctx, rng, i):
    """sample_h_twisted at theta = 1, seeded at the restriction of alpha_i:
    a conjugator of SL(n) whose Galois twist is s_i."""
    rrs = restrict_root_system(ctx.datum, PinnedAutomorphism.identity(ctx.datum))
    seed = (rrs.restrict_root(ctx.datum.simple_root(i).coords), None)
    return sample_h_twisted(ctx, rrs, rng, seeds=[seed])


class TestADatum:
    def setup_method(self):
        self.d = build_root_datum([("A", 2)])
        self.theta = PinnedAutomorphism(self.d, [1, 0])
        self.rrs = restrict_root_system(self.d, self.theta)

    def test_negation_rule_built_in(self):
        a = SymUnit.gen("a")
        ad = ADatum.from_positive(self.d, {(1, 0): a, (0, 1): a, (1, 1): a},
                                  SymUnit.one(), SymUnit.half())
        assert ad[(-1, 0)] == -a

    # the constructor checks the negation rule and the system, so no consumer
    # has to
    @pytest.mark.parametrize("values, message", [
        ({(1, 0): ONE, (-1, 0): ONE}, "a(-alpha) != -a(alpha) at (1, 0)"),
        ({(1, 0): ONE}, "a-data not defined at (-1, 0)"),
    ])
    def test_negation_rule_checked_when_built(self, values, message):
        with pytest.raises(ADataError, match=re.escape(message)):
            ADatum(values, ONE, Fraction(1, 2), self.d)

    # keys are checked against the system before the negation rule, and
    # roots left without a value after it
    @pytest.mark.parametrize("restricted, values, message", [
        (True, {(1,): ONE, (-1,): -ONE}, "a-data not defined at (-2,)"),
        (False, {(5, 7): ONE, (-5, -7): -ONE}, "a-datum at (5, 7), which is not a root"),
        (True, {(3,): ONE, (-3,): -ONE}, "a-datum at (3,), which is not a restricted root"),
    ])
    def test_keys_are_the_roots_of_the_system(self, restricted, values, message):
        with pytest.raises(ADataError, match=re.escape(message)):
            ADatum(values, ONE, Fraction(1, 2), self.rrs if restricted else self.d)

    @pytest.mark.parametrize("restricted, key, message", [
        (False, (5, 7), "a-datum given at (5, 7), which is not a positive root"),
        (False, (-1, 0), "a-datum given at (-1, 0), which is not a positive root"),
        (True, (-2,), "a-datum given at (-2,), which is not a positive restricted root"),
    ])
    def test_positive_values_only_on_positive_roots(self, restricted, key, message):
        if restricted:
            build, system, pos = ADatum.restricted_from_positive, self.rrs, [(1,), (2,)]
        else:
            build, system, pos = ADatum.from_positive, self.d, [(1, 0), (0, 1), (1, 1)]
        with pytest.raises(ADataError, match=re.escape(message)):
            build(system, {**{k: ONE for k in pos}, key: ONE}, ONE, Fraction(1, 2))

    # a-data on one root datum and a descent datum on another: A2 against A3
    # (different coordinates), A1xA1 against A2 (the same coordinates)
    @pytest.mark.parametrize("adata_type, descent_type", [
        ([("A", 2)], [("A", 3)]), ([("A", 1), ("A", 1)], [("A", 2)])])
    def test_equivariance_needs_the_descent_datum_of_the_a_data(self, adata_type,
                                                                descent_type):
        d, other = build_root_datum(adata_type), build_root_datum(descent_type)
        ad = ADatum.from_positive(d, {r.coords: ONE for r in d.positive_roots},
                                  ONE, Fraction(1, 2))
        with pytest.raises(ADataError, match="different root data"):
            ad.validate_equivariant(DescentDatum(other, 1, other.identity_weyl()))

    # a-data are invertible coefficients given as a dict: anything else is
    # refused naming the values, a bad value naming its root
    @pytest.mark.parametrize("values", [None, [1, 2], 5])
    def test_values_must_be_a_dict(self, values):
        with pytest.raises(ADataError, match="values must map root coordinates"):
            ADatum(values, ONE, Fraction(1, 2), self.d)
        with pytest.raises(ADataError, match="values must map root coordinates"):
            ADatum.from_positive(self.d, values, ONE, Fraction(1, 2))

    @pytest.mark.parametrize("bad", ["x", None, 0, Fraction(0), QuadField(5).zero()])
    def test_a_value_must_be_an_invertible_coefficient(self, bad):
        pos = {(1, 0): ONE, (0, 1): bad, (1, 1): ONE}
        message = f"a-datum at (0, 1) is {bad!r}, not an invertible coefficient"
        with pytest.raises(ADataError, match=re.escape(message)):
            ADatum.from_positive(self.d, pos, ONE, Fraction(1, 2))
        with pytest.raises(ADataError, match=re.escape(message)):
            ADatum({**pos, (-1, 0): -ONE, (0, -1): ONE, (-1, -1): -ONE},
                   ONE, Fraction(1, 2), self.d)

    def test_restricted_a_value_must_be_invertible(self):
        with pytest.raises(ADataError, match=re.escape("a-datum at (2,) is 0")):
            ADatum.restricted_from_positive(self.rrs, {(1,): ONE, (2,): 0}, ONE, Fraction(1, 2))

    @pytest.mark.parametrize("system", [None, "restricted"])
    def test_system_must_be_a_root_system(self, system):
        with pytest.raises(ADataError, match="system"):
            ADatum({}, SymUnit.one(), SymUnit.half(), system)

    def test_missing_root_rejected(self):
        with pytest.raises(ADataError):
            ADatum.from_positive(self.d, {(1, 0): SymUnit.gen("a")},
                                 SymUnit.one(), SymUnit.half())

    def test_twisted_validation(self):
        a, b, c = SymUnit.gen("a"), SymUnit.gen("b"), SymUnit.gen("c")
        ad = ADatum.from_positive(self.d, {(1, 0): a, (0, 1): b, (1, 1): c},
                                  SymUnit.one(), SymUnit.half())
        with pytest.raises(ADataError):
            ad.validate_twisted(self.theta)

    def test_special_and_tilde(self):
        s = SymUnit.gen("s")
        spec = ADatum.restricted_from_positive(
            self.rrs, {(1,): s, (2,): s}, SymUnit.one(), SymUnit.half())
        assert spec.is_special()
        tilde = spec.tilde()
        assert tilde[(1,)] == s
        assert tilde[(2,)] == s * SymUnit.half()
        assert not tilde.is_special()
        full = tilde.pullback()
        assert full[(1, 0)] == s and full[(1, 1)] == s * SymUnit.half()
        full.validate_twisted(self.theta)

    def test_non_special_rejected(self):
        s, t = SymUnit.gen("s"), SymUnit.gen("t")
        nonspec = ADatum.restricted_from_positive(
            self.rrs, {(1,): s, (2,): t}, SymUnit.one(), SymUnit.half())
        with pytest.raises(ADataError):
            nonspec.tilde()


class TestDescentDatum:
    def test_homomorphism_enforced(self):
        d = build_root_datum([("A", 2)])
        s1 = d.simple_reflection(0)
        desc = DescentDatum(d, 2, s1)
        desc.validate()  # s1 has order 2
        rot = analyze_weyl(d, [0, 1])
        with pytest.raises(DescentError):
            DescentDatum(d, 2, rot).validate()  # order 3 generator in Z/2
        DescentDatum(d, 3, rot).validate()

    def test_disallowed_order(self):
        d = build_root_datum([("A", 2)])
        with pytest.raises(DescentError):
            DescentDatum(d, 5, d.identity_weyl())

    def test_theta_compatibility(self):
        d = build_root_datum([("A", 2)])
        theta = PinnedAutomorphism(d, [1, 0])
        desc = DescentDatum(d, 2, d.simple_reflection(0))
        with pytest.raises(DescentError):
            desc.validate_theta_compatible(theta)
        DescentDatum(d, 2, d.longest_element()).validate_theta_compatible(theta)

    def test_each_power_is_built_once(self):
        d = build_root_datum([("D", 4)])
        theta = PinnedAutomorphism(d, [2, 1, 3, 0])
        desc = DescentDatum(d, 3, d.identity_weyl(), theta)
        assert [desc.root_action(k) for k in range(3)] == \
            [desc.root_action(k + 3) for k in range(3)]
        assert all(desc.root_action(k) is desc.root_action(k - 3) for k in range(3))
        assert desc.root_action(1).perm == theta.root_perm


    # symbolic coefficient actions of orders 1, 2, 3, 4 and 6: the trivial
    # descent and the A2 flip, the A2 rotation, the order-4 diagram twist of
    # A2xA2 and D4 triality with omega_T = w0, each with theta where given
    FIELD_POWER_CASES = [
        ("A2 trivial", [("A", 2)], 1, [], None, None, 1),
        ("A2 flip", [("A", 2)], 2, [1, 2, 1], None, (1, 0), 2),
        ("A2 rotation", [("A", 2)], 3, [1, 2], None, None, 3),
        ("A2xA2 order-4 twist", [("A", 2), ("A", 2)], 4, [], (2, 3, 1, 0), None, 4),
        ("D4 triality", [("D", 4)], 6, [1, 2, 1, 3, 2, 1, 4, 2, 1, 3, 2, 4], (2, 1, 3, 0),
         None, 6),
    ]

    @pytest.mark.parametrize("label,families,order,word,sigma,theta,action_order",
                             FIELD_POWER_CASES, ids=[c[0] for c in FIELD_POWER_CASES])
    def test_field_apply_is_the_k_fold_action(self, label, families, order, word, sigma,
                                              theta, action_order):
        d = build_root_datum(families)
        omega = analyze_weyl(d, word, one_based=True)
        desc = DescentDatum(d, order, omega, None if sigma is None else PinnedAutomorphism(d, sigma))
        adata, action = _symbolic_adata(d, desc, None if theta is None
                                        else PinnedAutomorphism(d, theta))
        desc = desc.with_field_action(action)
        assert desc.field_action is action and action.order == action_order
        for k in range(-1, 2 * order + 1):
            for v in adata.values:
                want = v
                for _ in range(k % order):
                    want = action(want)
                assert desc.field_apply(k, v) == want

    # the coefficient action passed on is checked like the constructor's:
    # an order that does not divide the group order is refused, and the
    # root action's powers are shared, not rebuilt
    def test_with_field_action_validates_and_shares_the_powers(self):
        d = build_root_datum([("A", 2)])
        desc = DescentDatum(d, 2, d.longest_element())
        rotation = SignedSymbolMap({"a": (1, "b"), "b": (1, "c"), "c": (1, "a")})
        for make in (lambda: DescentDatum(d, 2, d.longest_element(), field_action=rotation),
                     lambda: desc.with_field_action(rotation)):
            with pytest.raises(DescentError, match="coefficient action order"):
                make()
        flip = SignedSymbolMap({"a": (-1, "a")})
        other = desc.with_field_action(flip)
        assert other.field_action is flip and desc.field_action is not flip
        assert all(other.root_action(k) is desc.root_action(k) for k in range(2))


# A Weyl twist omega_T that does not commute with theta moves the fiber of
# some restricted root onto roots of two restricted roots, so sigma has no
# action on the restricted roots; omega_T = s1 s5 on the A5 flip commutes
DESCENT_CASES = [("A4 flip", [("A", 4)], (3, 2, 1, 0), [0], False),
                 ("A3 flip", [("A", 3)], (2, 1, 0), [0], False),
                 ("D4 swap", [("D", 4)], (0, 1, 3, 2), [2], False),
                 ("A2 flip", [("A", 2)], (1, 0), [0], False),
                 ("A5 flip", [("A", 5)], (4, 3, 2, 1, 0), [0, 4], True)]


@pytest.mark.parametrize("label,families,perm,word,descends", DESCENT_CASES)
def test_restricted_galois_action_needs_a_descent(label, families, perm, word, descends):
    d = build_root_datum(families)
    rrs = restrict_root_system(d, PinnedAutomorphism(d, perm))
    f = QuadField(5)
    desc = DescentDatum(d, 2, analyze_weyl(d, word), field_action=QuadConj(f))
    plain = ADatum.restricted_from_positive(rrs, {v: f.one() for v in rrs.positive_restricted},
                                            f.one(), f.half())
    if not descends:
        for call in (lambda: restricted_galois_orbits(rrs, desc),
                     lambda: EndoscopicSignDatum(rrs, desc, {}, {}),
                     lambda: equivariant_quad_adata(rrs, desc, f, random.Random(0), special=True),
                     lambda: plain.validate_equivariant(desc)):
            with pytest.raises(DescentError, match=r"sigma\^1 does not act on the restricted "
                                                   r"roots: the fiber of \(.*\) restricts to "):
                call()
        return
    orbits = restricted_galois_orbits(rrs, desc)
    assert sorted(v for o in orbits for v in o.members) == sorted(rrs.restricted)
    values = {v: RootOfUnity.one() for v in rrs.restricted}
    EndoscopicSignDatum(rrs, desc, values, {o.members: LocalPlace.padic(5, 2)
                                            for o in orbits if o.symmetric})
    equivariant_quad_adata(rrs, desc, f, random.Random(0), special=True).validate_equivariant(desc)
    with pytest.raises(ADataError, match="restricted a-data not Galois-equivariant"):
        plain.validate_equivariant(desc)


class TestLambdaUntwisted:
    def test_trivial_group(self):
        d = build_root_datum([("A", 2)])
        desc = DescentDatum(d, 1, d.identity_weyl())
        adata, info = _symbolic_adata(d, desc, None)
        coc = lambda_untwisted(d, desc, adata)
        assert (coc.level, coc.ambient) == ("m", "T")
        assert coc.values[0].torus.is_one

    def test_split_torus_trivial_cocycle(self):
        # SL(3), the pinned torus itself: omega_T = 1, rational a-data
        f = QuadField(5)
        ctx = MatrixContext(3, f)
        h = mat_identity(3, f)
        real = Realization(ctx, h)
        assert real.omega.is_identity
        adata = ADatum.from_positive(ctx.datum,
                                     {(1, 0): f.one(), (0, 1): f.one(),
                                      (1, 1): f.one()}, f.one(), f.half())
        coc = lambda_untwisted(ctx.datum, real.descent, adata, real)
        assert all(v.is_one for v in coc.values.values())

    def test_rank_one_frozen_value(self):
        # the norm-one torus of Q(sqrt5) in SL(2): explicit conjugator with
        # h^{-1} sigma(h) = (2 sqrt5)^{coroot} n(s); a-datum sqrt5 gives the
        # transported cocycle value alpha_vee(1/2)
        f = QuadField(5)
        ctx = MatrixContext(2, f)
        h = block_embed(ctx, 0, _h2_seed(f))
        assert mat_det(h, f) == f.one()
        real = Realization(ctx, h)
        assert real.omega.word == (0,)
        adata = ADatum.from_positive(ctx.datum, {(1,): f.gen()}, f.one(), f.half())
        coc = lambda_untwisted(ctx.datum, real.descent, adata, real)
        assert coc.values[1].coords == (f.half(),)

    # the untwisted sampler is sample_h_twisted at theta = 1; its seed is the
    # restriction of alpha_1, not simple_restricted[0], which is sorted by
    # restricted coordinates and restricts alpha_2 on A2
    def test_sampler_at_theta_one_seeded_at_alpha_1(self):
        f = QuadField(5)
        ctx = MatrixContext(3, f)
        rrs = restrict_root_system(ctx.datum, PinnedAutomorphism.identity(ctx.datum))
        beta = rrs.restrict_root((1, 0))
        assert rrs.simple_restricted[0] == rrs.restrict_root((0, 1))
        assert sl2_embed(ctx, rrs, beta, _h2_seed(f)) == block_embed(ctx, 0, _h2_seed(f))
        for seed in range(5):
            h = sample_h_twisted(ctx, rrs, random.Random(seed), seeds=[(beta, None)])
            assert Realization(ctx, h).omega == ctx.datum.simple_reflection(0)
        assert Realization(ctx, untwisted_h(ctx, random.Random(0), 1)).omega \
            == ctx.datum.simple_reflection(1)

    def test_sampled_explicit_cocycle(self):
        f = QuadField(5)
        ctx = MatrixContext(3, f)
        rng = random.Random(0)
        h = untwisted_h(ctx, rng, 0)
        real = Realization(ctx, h)
        adata = equivariant_quad_adata(ctx.datum, real.descent, f, rng)
        coc = lambda_untwisted(ctx.datum, real.descent, adata, real)
        assert (coc.level, coc.ambient) == ("t", "T")
        assert set(coc.values) == {0, 1}
        # honest matrices live in the transported torus and are nontrivial here
        assert not mat_eq(coc.matrices[1], mat_identity(3, f))
        # level and ambient are read off the fields, so replacing one keeps
        # them consistent
        copy = dataclasses.replace(coc, matrices=dict(coc.matrices))
        assert (copy.level, copy.ambient) == ("t", "T") and copy.values == coc.values
        assert dataclasses.replace(coc, matrices=None).level == "m"

    def test_t_level_cocycle_failure_names_the_pair(self):
        f = QuadField(5)
        ctx = MatrixContext(3, f)
        rng = random.Random(0)
        real = Realization(ctx, untwisted_h(ctx, rng, 0))
        adata = equivariant_quad_adata(ctx.datum, real.descent, f, rng)
        coc = lambda_untwisted(ctx.datum, real.descent, adata, real)
        coc.verify()
        # omega_T = s_1 here, so t sigma_T(t) != 1 for t = (1, 2)
        coc.values[1] = coc.values[1] * TorusElement((f.one(), f.embed(2)))
        with pytest.raises(ADataError, match=re.escape(
                f"cocycle identity fails at (sigma^1, sigma^1): {coc.values[0]!r} != ")):
            coc.verify()

    def test_wrong_h_rejected(self):
        f = QuadField(5)
        ctx = MatrixContext(3, f)
        bad = [[f.one() if i == j else f.zero() for j in range(3)] for i in range(3)]
        bad[0][1] = f.gen()  # upper unipotent over E: sigma(h) != h * monomial
        bad = tuple(tuple(r) for r in bad)
        with pytest.raises(RealizationError):
            Realization(ctx, bad)


class TestLambdaTwisted:
    def test_identity_theta_reduces_to_untwisted(self):
        f = QuadField(5)
        ctx = MatrixContext(2, f)
        h = block_embed(ctx, 0, _h2_seed(f))
        real = Realization(ctx, h)
        adata = ADatum.from_positive(ctx.datum, {(1,): f.gen()}, f.one(), f.half())
        theta = PinnedAutomorphism.identity(ctx.datum)
        tw = lambda_twisted(ctx.datum, theta, real.descent, adata, real)
        untw = lambda_untwisted(ctx.datum, real.descent, adata, real)
        assert tw.values == untw.values
        assert (tw.level, tw.ambient) == ("t", "T^theta")

    def test_fixed_subtorus_membership_and_refinement(self):
        f = QuadField(5)
        ctx = MatrixContext(3, f, twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        rng = random.Random(1)
        h = sample_h_twisted(ctx, rrs, rng, seeds=[(rrs.simple_restricted[0], None)])
        real = Realization(ctx, h, use_theta=True)
        adata = equivariant_quad_adata(ctx.datum, real.descent, f, rng,
                                       theta=ctx.theta)
        tw = lambda_twisted(ctx.datum, ctx.theta, real.descent, adata, real)
        untw = lambda_untwisted(ctx.datum, real.descent, adata, real)
        for k in range(2):
            assert tw.values[k] == untw.values[k]
            assert tw.values[k].theta_fixed(ctx.theta)
            assert mat_eq(ctx.theta_apply(tw.matrices[k]), tw.matrices[k])
        assert len(tw.fixed_coords(1)) == len(rrs.simple_orbits)

    def test_trivial_scenario(self):
        f = QuadField(5)
        ctx = MatrixContext(3, f, twisted=True)
        h = mat_identity(3, f)
        real = Realization(ctx, h, use_theta=True)
        adata = ADatum.from_positive(ctx.datum,
                                     {(1, 0): f.one(), (0, 1): f.one(),
                                      (1, 1): f.embed(2)}, f.one(), f.half())
        coc = lambda_twisted(ctx.datum, ctx.theta, real.descent, adata, real)
        assert all(v.is_one for v in coc.values.values())

    # the m-level cocycle identity and theta-fixedness are checked once, in
    # m_cocycle; with a fault put in, lambda_twisted must still raise
    def test_m_level_cocycle_identity_still_checked(self, request):
        d = build_root_datum([("A", 2)])
        theta = PinnedAutomorphism(d, [1, 0])
        base = DescentDatum(d, 2, analyze_weyl(d, [0, 1, 0]))
        adata, action = _symbolic_adata(d, base, theta)
        desc = DescentDatum(d, 2, base.omega_T, None, action)
        coc = lambda_twisted(d, theta, desc, adata)
        assert (coc.level, coc.ambient) == ("m", "T^theta")
        request.getfixturevalue("negated_galois_on_tits")
        with pytest.raises(ADataError, match=r"\(sigma\^1, sigma\^1\)"):
            lambda_twisted(d, theta, desc, adata)

    def test_m_level_theta_fixedness_still_checked(self, monkeypatch):
        # Galois-equivariant over Q(sqrt 5) for omega_T = w0, so the cocycle
        # identity holds, but a(alpha_1) != a(alpha_2): x(sigma) is not
        # theta-fixed once the theta-invariance check on the a-data is off
        d = build_root_datum([("A", 2)])
        theta = PinnedAutomorphism(d, [1, 0])
        f = QuadField(5)
        desc = DescentDatum(d, 2, analyze_weyl(d, [0, 1, 0]), None, QuadConj(f))
        adata = ADatum.from_positive(d, {(1, 0): f.one(), (0, 1): -f.one(),
                                         (1, 1): f.gen()}, f.one(), f.half())
        lambda_untwisted(d, desc, adata)
        monkeypatch.setattr(ADatum, "validate_twisted", lambda self, theta: None)
        with pytest.raises(ADataError, match=r"m\(sigma\^1\) is not theta-fixed"):
            lambda_twisted(d, theta, desc, adata)

    def test_non_fixed_h_rejected(self):
        f = QuadField(5)
        ctx = MatrixContext(3, f, twisted=True)
        rng = random.Random(2)
        h = untwisted_h(ctx, rng, 0)  # not theta-fixed in general
        with pytest.raises(RealizationError):
            Realization(ctx, h, use_theta=True)


class TestNNPrime:
    def test_identity_discrepancy(self):
        ctx = MatrixContext(3, twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        disc = check_nn_prime(rrs, ctx.datum.identity_weyl(), ctx)
        assert disc.is_one

    def test_sl3_long_element(self):
        ctx = MatrixContext(3, twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        disc = check_nn_prime(rrs, ctx.datum.longest_element(), ctx)
        assert disc.coords == (Fraction(1, 2), Fraction(1, 2))
        m = realize(ctx, disc)
        assert m == ((Fraction(1, 2), 0, 0), (0, Fraction(1), 0), (0, 0, Fraction(2)))

    def test_sl4_trivial_discrepancies(self):
        ctx = MatrixContext(4, twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        for w in rrs.fixed_weyl_subgroup():
            assert check_nn_prime(rrs, w, ctx).is_one

    def test_sl5_all_fixed_elements(self):
        ctx = MatrixContext(5, twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        for w in rrs.fixed_weyl_subgroup():
            check_nn_prime(rrs, w, ctx)

    def test_non_fixed_omega_rejected(self):
        ctx = MatrixContext(3, twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        with pytest.raises(RootDatumError):
            check_nn_prime(rrs, ctx.datum.simple_reflection(0), ctx)


class TestCompare:
    def test_symbolic_a2_flip(self):
        d = build_root_datum([("A", 2)])
        theta = PinnedAutomorphism(d, [1, 0])
        rrs = restrict_root_system(d, theta)
        s = SymUnit.gen("s")
        spec = ADatum.restricted_from_positive(rrs, {(1,): s, (2,): s},
                                               SymUnit.one(), SymUnit.half())
        desc = DescentDatum(d, 2, d.longest_element(),
                            field_action=SignedSymbolMap({"s": (-1, "s")}))
        rep = compare_fixed_vs_twisted(rrs, desc, spec)
        assert rep.equal_on_the_nose
        half = SymUnit.half()
        want = SymUnit.gen("s", 2) * half
        assert rep.m_values[1].torus.coords == (want, want)

    def test_identity_theta_trivial(self):
        d = build_root_datum([("A", 2)])
        theta = PinnedAutomorphism.identity(d)
        rrs = restrict_root_system(d, theta)
        pos = {rrs.restrict_root(r.coords): SymUnit.gen(f"s{i}")
               for i, r in enumerate(d.positive_roots)}
        spec = ADatum.restricted_from_positive(rrs, pos, SymUnit.one(),
                                               SymUnit.half())
        desc = DescentDatum(d, 1, d.identity_weyl())
        rep = compare_fixed_vs_twisted(rrs, desc, spec)
        assert rep.equal_on_the_nose

    def test_matrix_modes(self):
        for dval, n in ((5, 3), (-1, 3), (5, 5)):
            f = QuadField(dval)
            ctx = MatrixContext(n, f, twisted=True)
            rrs = restrict_root_system(ctx.datum, ctx.theta)
            rng = random.Random(n * 10 + dval)
            h = sample_h_twisted(ctx, rrs, rng,
                                 seeds=[(rrs.simple_restricted[0], None)])
            real = Realization(ctx, h, use_theta=True)
            spec = equivariant_quad_adata(rrs, real.descent, f, rng, special=True)
            rep = compare_fixed_vs_twisted(rrs, real.descent, spec, ctx=ctx,
                                           realization=real)
            assert rep.equal_on_the_nose and rep.matrix_checked
            assert rep.t_cocycle is not None

    @staticmethod
    def matrix_case(n=4, dval=5, seed=3):
        f = QuadField(dval)
        ctx = MatrixContext(n, f, twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        rng = random.Random(seed)
        h = sample_h_twisted(ctx, rrs, rng, seeds=[(rrs.simple_restricted[0], None)])
        real = Realization(ctx, h, use_theta=True)
        spec = equivariant_quad_adata(rrs, real.descent, f, rng, special=True)
        return ctx, rrs, h, real, spec

    # the comparison builds the m-level cocycle once and realizes each of its
    # values past sigma^0 once, for its own matrix check and for the t-level
    @pytest.mark.parametrize("n, dval", [(3, 5), (4, -1), (5, 5)])
    def test_m_cocycle_and_its_matrices_computed_once(self, monkeypatch, n, dval):
        ctx, rrs, _, real, spec = self.matrix_case(n, dval)
        calls = {"m_cocycle": 0, "realize_m": 0}
        m_cocycle = splitting.m_cocycle

        def counted_m_cocycle(*args, **kwargs):
            calls["m_cocycle"] += 1
            return m_cocycle(*args, **kwargs)

        def counted_realize(ctx_, x):
            calls["realize_m"] += isinstance(x, TitsElement)
            return realize(ctx_, x)

        monkeypatch.setattr(splitting, "m_cocycle", counted_m_cocycle)
        monkeypatch.setattr(splitting, "realize", counted_realize)
        rep = compare_fixed_vs_twisted(rrs, real.descent, spec, ctx=ctx, realization=real)
        assert rep.t_cocycle is not None
        assert calls == {"m_cocycle": 1, "realize_m": real.descent.order - 1}

    # one descent operation checks equivariance twice: the special a-data in
    # the comparison and its halved pull-back in m_cocycle
    def test_equivariance_checked_twice_per_comparison(self, monkeypatch):
        calls = []
        honest = ADatum.validate_equivariant

        def counted(adata, descent):
            calls.append(type(adata.system).__name__)
            honest(adata, descent)

        monkeypatch.setattr(ADatum, "validate_equivariant", counted)
        ctx, rrs, _, real, spec = self.matrix_case()
        compare_fixed_vs_twisted(rrs, real.descent, spec, ctx=ctx, realization=real)
        assert calls == ["RestrictedRootSystem", "RootDatum"]

    # the t-level checks of lambda_twisted still run on the comparison's path
    def test_t_level_checks_run_in_the_comparison(self, monkeypatch):
        ctx, rrs, h, real, spec = self.matrix_case()
        plain = Realization(ctx, h, use_theta=False)
        with pytest.raises(RealizationError, match="conjugator fixed by the automorphism"):
            compare_fixed_vs_twisted(rrs, plain.descent, spec, ctx=ctx, realization=plain)
        monkeypatch.setattr(ctx, "theta_fixed", lambda g: False)
        with pytest.raises(RealizationError, match=r"matrix t\(sigma\^1\) is not theta-fixed"):
            compare_fixed_vs_twisted(rrs, real.descent, spec, ctx=ctx, realization=real)

    def test_non_special_rejected(self):
        d = build_root_datum([("A", 2)])
        theta = PinnedAutomorphism(d, [1, 0])
        rrs = restrict_root_system(d, theta)
        s, t = SymUnit.gen("s"), SymUnit.gen("t")
        nonspec = ADatum.restricted_from_positive(rrs, {(1,): s, (2,): t},
                                                  SymUnit.one(), SymUnit.half())
        desc = DescentDatum(d, 2, d.longest_element(),
                            field_action=SignedSymbolMap({"s": (-1, "s"),
                                                          "t": (-1, "t")}))
        with pytest.raises(ADataError):
            compare_fixed_vs_twisted(rrs, desc, nonspec)


class TestBorel:
    def test_identity_mu(self):
        d = build_root_datum([("A", 2)])
        desc = DescentDatum(d, 2, d.longest_element())
        adata, action = _symbolic_adata(d, desc, None)
        desc2 = DescentDatum(d, 2, d.longest_element(),
                             field_action=action)
        rep = verify_borel_independence(d, desc2, adata, d.identity_weyl())
        assert rep.witness.is_one

    def test_symbolic_witness_pattern(self):
        d = build_root_datum([("A", 2)])
        theta = PinnedAutomorphism(d, [1, 0])
        w0 = d.longest_element()
        desc0 = DescentDatum(d, 2, w0)
        adata, action = _symbolic_adata(d, desc0, theta)
        desc = DescentDatum(d, 2, w0, field_action=action)
        rep = verify_borel_independence(d, desc, adata, w0, theta=theta)
        a1a2 = SymUnit.gen("a1") * SymUnit.gen("a2")
        assert rep.witness.coords == (a1a2, a1a2)

    def test_matrix_identity_for_all_mu(self):
        f = QuadField(5)
        ctx = MatrixContext(3, f)
        rng = random.Random(4)
        h = untwisted_h(ctx, rng, 1)
        real = Realization(ctx, h)
        adata = equivariant_quad_adata(ctx.datum, real.descent, f, rng)
        for mu in ctx.datum.weyl_group():
            verify_borel_independence(ctx.datum, real.descent, adata, mu,
                                      realization=real)

    # the check builds the m-level cocycles of the two Borel subgroups once
    # each, and the t-level cocycles from them
    @pytest.mark.parametrize("with_realization", [False, True])
    @pytest.mark.parametrize("twisted", [False, True])
    def test_m_cocycle_computed_twice(self, monkeypatch, twisted, with_realization):
        f = QuadField(5)
        ctx = MatrixContext(3, f, twisted=twisted)
        rng = random.Random(5)
        if twisted:
            rrs = restrict_root_system(ctx.datum, ctx.theta)
            h = sample_h_twisted(ctx, rrs, rng, seeds=[(rrs.simple_restricted[0], None)])
            mus = rrs.fixed_weyl_subgroup()
        else:
            h = untwisted_h(ctx, rng, 1)
            mus = ctx.datum.weyl_group()
        real = Realization(ctx, h, use_theta=twisted)
        theta = ctx.theta if twisted else None
        adata = equivariant_quad_adata(ctx.datum, real.descent, f, rng, theta=theta)
        calls = []
        m_cocycle = splitting.m_cocycle

        def counted_m_cocycle(*args, **kwargs):
            calls.append(args)
            return m_cocycle(*args, **kwargs)

        monkeypatch.setattr(splitting, "m_cocycle", counted_m_cocycle)
        for mu in mus:
            calls.clear()
            rep = verify_borel_independence(ctx.datum, real.descent, adata, mu, theta=theta,
                                            realization=real if with_realization else None)
            assert len(calls) == 2
            assert rep.cocycle.level == rep.cocycle_translated.level \
                == ("t" if with_realization else "m")

    def test_twisted_requires_fixed_mu(self):
        d = build_root_datum([("A", 2)])
        theta = PinnedAutomorphism(d, [1, 0])
        desc0 = DescentDatum(d, 2, d.longest_element())
        adata, action = _symbolic_adata(d, desc0, theta)
        desc = DescentDatum(d, 2, d.longest_element(),
                            field_action=action)
        with pytest.raises(RootDatumError):
            verify_borel_independence(d, desc, adata, d.simple_reflection(0),
                                      theta=theta)


def test_lift_discrepancy_matches_tilde_ratio():
    # the half-coroot discrepancy is exactly the change from the special
    # a-data to its halved variant, root by root, on the long element
    d = build_root_datum([("A", 4)])
    theta = PinnedAutomorphism(d, [3, 2, 1, 0])
    rrs = restrict_root_system(d, theta)
    w0 = d.longest_element()
    disc = lift_discrepancy(rrs, w0)
    expected = TorusElement.ones(d.rank, ONE)
    for r in w0.inversions:
        if rrs.restricted[rrs.restrict_root(r.coords)].rtype == "R3":
            expected = expected * TorusElement(tuple(Fraction(1, 2) ** e for e in r.coroot))
    assert disc == expected
    assert disc.coords == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4),
                           Fraction(1, 2))


class TestRealizationShortcuts:
    """The matrices a Realization reads off instead of computing: theta-
    fixedness as g J g^T = J, and sigma^k(h)^{-1} as the conjugate of h^{-1}."""

    CASES = [(3, 5), (4, -1), (5, 5), (6, -1)]

    @staticmethod
    def samples(ctx, rrs, rng):
        """theta-fixed conjugators, conjugators of the plain torus (not
        fixed in general), their products, a sparse random matrix and a
        singular one."""
        b = rrs.simple_restricted
        for seeds in ([], [(b[0], None)], [(b[-1], None)]):
            fixed = sample_h_twisted(ctx, rrs, rng, seeds=seeds)
            plain = untwisted_h(ctx, rng, rng.randrange(ctx.n - 1))
            yield from (fixed, plain, mat_mul(fixed, plain))
            f = ctx.field
            sparse = tuple(tuple(f.embed(rng.choice([0, 0, 0, 1, -1, 2]))
                                 for _ in range(ctx.n)) for _ in range(ctx.n))
            yield sparse
            yield sparse[:-1] + sparse[:1]

    @pytest.mark.parametrize("n, d", CASES)
    def test_theta_fixed_agrees_with_theta_apply(self, n, d):
        ctx = MatrixContext(n, QuadField(d), twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        rng = random.Random(n * d)
        seen = set()
        for g in self.samples(ctx, rrs, rng):
            try:
                want = mat_eq(ctx.theta_apply(g), g)
            except RealizationError:  # singular: theta_apply has no inverse
                want = None
            got = ctx.theta_fixed(g)
            assert got is (want is True)
            seen.add(want)
        assert seen == {True, False, None}

    @pytest.mark.parametrize("n, d", CASES)
    def test_non_fixed_h_is_rejected(self, n, d):
        ctx = MatrixContext(n, QuadField(d), twisted=True)
        rng = random.Random(n)
        h = untwisted_h(ctx, rng, 0)
        assert mat_det(h, ctx.field) == ctx.field.one()
        assert not mat_eq(ctx.theta_apply(h), h)
        with pytest.raises(RealizationError, match="not fixed by the automorphism"):
            Realization(ctx, h, use_theta=True)
        Realization(ctx, h)  # the same h without the automorphism is fine

    # a theta-fixed h is inverted by its flip J h^T J^-1, once theta_fixed
    # has found h times its flip to be 1; the determinant still decides
    FLIP_CASES = [(n, d) for n in range(2, 8) for d in (5, -1)]

    @pytest.mark.parametrize("n, d", FLIP_CASES)
    def test_h_inv_is_the_gauss_jordan_inverse(self, n, d):
        ctx = MatrixContext(n, QuadField(d), twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        rng = random.Random(10 * n + d)
        for seeds in descent_seed_sets(rrs):
            real = Realization(ctx, sample_h_twisted(ctx, rrs, rng, seeds), use_theta=True)
            assert entries(real.h_inv) == entries(dense_inverse(real.h, ctx.field))

    @pytest.mark.parametrize("n, d", [c for c in FLIP_CASES if c[0] % 2])
    def test_minus_h_is_fixed_with_determinant_minus_one(self, n, d):
        ctx = MatrixContext(n, QuadField(d), twisted=True)
        f = ctx.field
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        minus_h = mat_scalar(sample_h_twisted(ctx, rrs, random.Random(n)), -f.one())
        assert ctx.theta_fixed(minus_h) and mat_det(minus_h, f) == -f.one()
        with pytest.raises(RealizationError, match="determinant 1"):
            Realization(ctx, minus_h, use_theta=True)

    @pytest.mark.parametrize("n, d", FLIP_CASES)
    def test_a_singular_h_is_not_fixed(self, n, d):
        ctx = MatrixContext(n, QuadField(d), twisted=True)
        h = list(mat_identity(n, ctx.field))
        h[-1] = h[0]
        with pytest.raises(RealizationError, match="not fixed by the automorphism"):
            Realization(ctx, h, use_theta=True)
        with pytest.raises(RealizationError, match="determinant 1"):
            Realization(ctx, h)

    @pytest.mark.parametrize("n, d", CASES)
    def test_sigma_h_inv_is_the_inverse_of_sigma_h(self, n, d):
        ctx = MatrixContext(n, QuadField(d), twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        rng = random.Random(n + d)
        b = rrs.simple_restricted
        for use_theta, h in ((True, sample_h_twisted(ctx, rrs, rng, seeds=[(b[0], None)])),
                             (True, sample_h_twisted(ctx, rrs, rng)),
                             (False, untwisted_h(ctx, rng, n - 2))):
            real = Realization(ctx, h, use_theta=use_theta)
            for k in range(4):
                want = mat_inv(ctx.galois_apply(h, k), ctx.field)
                assert real.sigma_h_inv(k) == want
                u_k = mat_mul(mat_inv(h, ctx.field), ctx.galois_apply(h, k))
                assert real.transported_diagonal(mat_identity(n, ctx.field), k) \
                    == mat_inv(u_k, ctx.field)


def descent_seed_sets(rrs):
    """The seed sets of the descent benchmark: (simple restricted root,
    conjugating fixed Weyl element or None) pairs."""
    b, levi = rrs.simple_restricted, rrs.levi_longest
    if len(b) == 1:
        return [[(b[0], None)], []]
    return [[(b[0], None)], [(b[-1], None)], [(b[0], levi[b[1]])],
            [(b[1], None), (b[1], levi[b[0]])], []]


def uncached_seed_block(ctx, rrs, beta, conj):
    block = sl2_embed(ctx, rrs, beta, _h2_seed(ctx.field))
    if conj is None:
        return block
    c = fixed_group_lift(ctx, rrs, conj)
    return mat_prod(c, block, mat_inv(c, ctx.field))


def uncached_sample_h_twisted(ctx, rrs, rng, seeds):
    """sample_h_twisted with every factor rebuilt, drawing from rng in the
    same order."""
    f = ctx.field
    factors = [uncached_seed_block(ctx, rrs, beta, conj) for beta, conj in seeds]
    left = []
    betas = list(rrs.simple_restricted)
    for _ in range(4):
        b = betas[rng.randrange(len(betas))]
        x, _, y = restricted_root_vectors(ctx, rrs, b)
        gen = x if rng.random() < 0.5 else y
        left.append(exp_nilpotent(mat_scalar(gen, f.embed(rng.randint(-2, 2))), f))
    right = splitting._random_torus_matrix(ctx, rng, theta=rrs.theta)
    return mat_prod(*left, *factors, right)


def entries(m):
    """The stored integers and the type of every entry."""
    return [(type(x), x.a, x.b, x.c, x.d) for row in m for x in row]


class TestContextFactors:
    """The factors of sample_h_twisted that depend on the context alone are
    built once per MatrixContext; h does not depend on whether they were."""

    CASES = [(n, d) for n in (3, 4, 5) for d in (5, -1)]

    @pytest.mark.parametrize("n, d", CASES)
    def test_warm_context_gives_the_fresh_h(self, n, d):
        warm = MatrixContext(n, QuadField(d), twisted=True)
        rrs = restrict_root_system(warm.datum, warm.theta)
        for rep in range(2):   # the second pass runs on a warm context
            for i, seeds in enumerate(descent_seed_sets(rrs)):
                op_seed = 1000 * n + 10 * i + d
                got = sample_h_twisted(warm, rrs, random.Random(op_seed), seeds)
                fresh = MatrixContext(n, QuadField(d), twisted=True)
                want = sample_h_twisted(fresh, rrs, random.Random(op_seed), seeds)
                rebuilt = uncached_sample_h_twisted(
                    MatrixContext(n, QuadField(d), twisted=True), rrs,
                    random.Random(op_seed), seeds)
                assert entries(got) == entries(want) == entries(rebuilt)

    @pytest.mark.parametrize("n, d", CASES)
    def test_cached_factors_equal_fresh_ones(self, n, d):
        ctx = MatrixContext(n, QuadField(d), twisted=True)
        f = ctx.field
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        rng = random.Random(n - d)
        for _ in range(10):
            for seeds in descent_seed_sets(rrs):
                sample_h_twisted(ctx, rrs, rng, seeds)
        seen = set()
        for beta in rrs.simple_restricted:
            rr = rrs.restricted[beta]
            (x, _, y), _, built = ctx._pinning_cache[rr.orbit, rr.coroot]
            for key, m in built.items():
                if key[0] == "seed":
                    want = uncached_seed_block(ctx, rrs, beta, key[1])
                else:
                    upper, c = key
                    want = exp_nilpotent(mat_scalar(x if upper else y, f.embed(c)), f)
                assert entries(m) == entries(want)
                seen.add(key[0])
        assert seen == {"seed", True, False}

    @pytest.mark.parametrize("field", [RationalField(), PrimeField(7)], ids=["Q", "F7"])
    @pytest.mark.parametrize("seeded", [False, True])
    def test_refused_outside_a_quadratic_field_before_any_draw(self, field, seeded):
        ctx = MatrixContext(3, field, twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        seeds = descent_seed_sets(rrs)[0] if seeded else []
        rng = random.Random(0)
        state = rng.getstate()
        msg = f"sample_h_twisted samples over Q(sqrt d) only, not over {field.name}"
        with pytest.raises(RealizationError, match=re.escape(msg)):
            sample_h_twisted(ctx, rrs, rng, seeds)
        assert rng.getstate() == state


# ---------------------------------------------------------------------------
# symbolic a-data against the breadth-first canon of coordinate tuples
# ---------------------------------------------------------------------------

def _act_by_word(cartan, word, v):
    """w(v) in simple-root coordinates for w the product of the simple
    reflections along word, s_i(v) = v - <v, alpha_i_vee> alpha_i applied
    from the last letter."""
    for i in reversed(word):
        v = v[:i] + (v[i] - sum(c * x for c, x in zip(cartan[i], v)),) + v[i + 1:]
    return v


def _canon_symbolic(datum, descent, theta):
    """(sign, symbol) at each root and the symbol mapping of the generator,
    with each root's class found by a breadth-first search of its
    theta-orbit as coordinate tuples: the least tuple of the orbit, or of
    the negated orbit with sign -1 when that one is less."""
    def canon(coords):
        orbit, frontier = set(), {coords}
        while frontier:
            orbit |= frontier
            frontier = set() if theta is None else \
                {tuple(theta.act_root(c)) for c in frontier} - orbit
        rep, negrep = min(orbit), min(tuple(-x for x in c) for c in orbit)
        return (negrep, -1) if negrep < rep else (rep, 1)

    node_of = {r.coords: canon(r.coords) for r in datum.roots}
    reps = sorted({node for node, _ in node_of.values()})
    sym_of = {rep: f"a{k + 1}" for k, rep in enumerate(reps)}
    gen = descent.root_action(1 % descent.order)
    mapping = {}
    for rep in reps:
        node, sgn = node_of[_act_by_word(datum.cartan, gen.weyl.word, gen.diagram.act_root(rep))]
        mapping[sym_of[rep]] = (sgn, sym_of[node])
    return {c: (sgn, sym_of[node]) for c, (node, sgn) in node_of.items()}, mapping


SYMBOLIC_CASES = [
    ("A2 flip", [("A", 2)], (1, 0)), ("A3 flip", [("A", 3)], (2, 1, 0)),
    ("A4 flip", [("A", 4)], (3, 2, 1, 0)), ("A5 flip", [("A", 5)], (4, 3, 2, 1, 0)),
    ("D4 swap", [("D", 4)], (0, 1, 3, 2)), ("D4 triality", [("D", 4)], (2, 1, 3, 0)),
    ("A2xA2 swap", [("A", 2), ("A", 2)], (2, 3, 0, 1)),
    ("A2xA2 order-4 twist", [("A", 2), ("A", 2)], (2, 3, 1, 0)),
    ("A3 identity", [("A", 3)], (0, 1, 2)), ("B3 identity", [("B", 3)], (0, 1, 2)),
]


class TestSymbolicAData:
    # the descents of the benchmark's scenarios: omega_T the longest
    # element, 1, or the longest element of the Levi of a simple restricted
    # root, and the quasi-split sigma_T = theta; theta is None when trivial,
    # as in the invariant command
    @pytest.mark.parametrize("label,families,perm", SYMBOLIC_CASES)
    def test_classes_are_the_breadth_first_canon(self, label, families, perm):
        d = build_root_datum(families)
        theta = PinnedAutomorphism(d, perm)
        rrs = restrict_root_system(d, theta)
        descents = [DescentDatum(d, 2, w) for w in
                    [d.longest_element(), d.identity_weyl()] + list(rrs.levi_longest.values())]
        if not theta.is_identity:
            descents.append(DescentDatum(d, theta.order, d.identity_weyl(), theta))
        theta = None if theta.is_identity else theta
        for desc in descents:
            adata, action = _symbolic_adata(d, desc, theta)
            values, mapping = _canon_symbolic(d, desc, theta)
            assert len(adata.values) == len(d.roots)
            assert {r.coords: (adata[r.coords].sign, adata[r.coords].exps) for r in d.roots} == \
                {c: (sgn, ((sym, 1),)) for c, (sgn, sym) in values.items()}
            assert action.mapping == mapping


def test_quad_adata_refuses_a_theta_omega_does_not_commute_with():
    # s1 does not commute with the A2 flip, so the Galois generator does not
    # permute the theta-classes of full a-data
    d = build_root_datum([("A", 2)])
    f = QuadField(5)
    desc = DescentDatum(d, 2, d.simple_reflection(0), field_action=QuadConj(f))
    with pytest.raises(DescentError, match=r"omega_T\(sigma\) does not commute with theta"):
        equivariant_quad_adata(d, desc, f, random.Random(0), theta=PinnedAutomorphism(d, [1, 0]))


# ---------------------------------------------------------------------------
# a census of small descent data: every involution in W^theta of each
# folding of the suites, the identity included
# ---------------------------------------------------------------------------

CENSUS_INVOLUTIONS = {"A2 flip": 2, "A3 flip": 6, "A4 flip": 6, "A5 flip": 20, "D4 swap": 20}


def _census_case(d, theta, rrs, omega, f, rng):
    """The special Q(sqrt 5) a-data of omega passes the comparison and is a
    specialization of the symbolic a-data, whose twisted cocycle passes."""
    desc = DescentDatum(d, 2, omega, field_action=QuadConj(f))
    spec = equivariant_quad_adata(rrs, desc, f, rng, special=True)
    assert compare_fixed_vs_twisted(rrs, desc, spec).equal_on_the_nose
    sym_desc = DescentDatum(d, 2, omega)
    sym, action = _symbolic_adata(d, sym_desc, theta)
    sym_desc = sym_desc.with_field_action(action)
    # a_c -> value[c] maps the symbolic a-data onto the pulled-back values,
    # one value per class up to sign, and the symbolic action onto conjugation
    full, value = spec.pullback(), {}
    for coords in (r.coords for r in d.roots):
        unit = sym[coords]
        (name, _), = unit.exps
        assert value.setdefault(name, unit.sign * full[coords]) == unit.sign * full[coords]
    for name, (sign, image) in sym_desc.field_action.mapping.items():
        assert value[image] == sign * f.conj(value[name])
    lambda_twisted(d, theta, sym_desc, sym)


@pytest.mark.parametrize("name,families,perm", suites._FLIP_CASES,
                         ids=[case[0] for case in suites._FLIP_CASES])
def test_census_of_involutions(name, families, perm):
    d = build_root_datum(families)
    theta = PinnedAutomorphism(d, perm)
    rrs = restrict_root_system(d, theta)
    f, rng = QuadField(5), random.Random(0)
    involutions = [w for w in rrs.fixed_weyl_subgroup() if (w * w).is_identity]
    failures = []
    for omega in involutions:
        try:
            _census_case(d, theta, rrs, omega, f, rng)
        except (AssertionError, SplitinvError) as exc:
            failures.append(((name, omega.word), repr(exc)))
    assert failures == []
    assert len(involutions) == CENSUS_INVOLUTIONS[name]


# ---------------------------------------------------------------------------
# a-data by index against the coordinate-dict reference
# ---------------------------------------------------------------------------

def _outcome(call):
    """The ADataError message call raises, or None."""
    try:
        call()
    except ADataError as exc:
        return str(exc)
    return None


def _by_coords(adata, system):
    return {v: adata[v] for v in coord_adata.key_order(system)}


class TestAgainstCoordinateAData:
    # the theta-fixed descents of TestSymbolicAData at order 2 over Q(sqrt 5):
    # omega_T the longest element, 1, or a Levi's longest element
    @staticmethod
    def _cases(families, perm):
        d = build_root_datum(families)
        theta = PinnedAutomorphism(d, perm)
        rrs = restrict_root_system(d, theta)
        f = QuadField(5)
        omegas = [d.longest_element(), d.identity_weyl()] + list(rrs.levi_longest.values())
        return d, theta, rrs, f, [DescentDatum(d, 2, w, field_action=QuadConj(f))
                                  for w in omegas]

    @pytest.mark.parametrize("label,families,perm", SYMBOLIC_CASES)
    def test_quad_adata_is_the_reference_value_by_value(self, label, families, perm):
        d, theta, rrs, f, descents = self._cases(families, perm)
        twist = None if theta.is_identity else theta
        for n, desc in enumerate(descents):
            for system, special in ((d, False), (rrs, False), (rrs, True)):
                got = equivariant_quad_adata(system, desc, f, random.Random(n), special, twist)
                want = coord_adata.quad_adata(system, desc, f, random.Random(n), special, twist)
                assert _by_coords(got, system) == want

    @pytest.mark.parametrize("label,families,perm", SYMBOLIC_CASES)
    def test_translate_pullback_tilde_and_specialness(self, label, families, perm):
        d, theta, rrs, f, descents = self._cases(families, perm)
        fixed = rrs.fixed_weyl_subgroup()
        for n, desc in enumerate(descents):
            full = equivariant_quad_adata(d, desc, f, random.Random(n),
                                          theta=None if theta.is_identity else theta)
            values = _by_coords(full, d)
            for mu in fixed:
                assert _by_coords(full.translate(mu), d) == coord_adata.translate(values, mu)
            for special in (False, True):
                res = equivariant_quad_adata(rrs, desc, f, random.Random(n), special)
                values = _by_coords(res, rrs)
                assert res.is_special() == coord_adata.is_special(values, rrs)
                assert _by_coords(res.pullback(), d) == coord_adata.pullback(values, rrs)
                if special:
                    halved = coord_adata.tilde(values, rrs, f.half())
                    assert _by_coords(res.tilde(), rrs) == halved
                    assert res.tilde().is_special() == coord_adata.is_special(halved, rrs)

    # valid data passes both checks, and with the values at one root and its
    # negative doubled (the negation rule still holds) both sides refuse
    # alike, naming the same root: the reference dicts are in key order
    @pytest.mark.parametrize("label,families,perm", SYMBOLIC_CASES)
    def test_validation_refuses_the_same_corruptions(self, label, families, perm):
        d, theta, rrs, f, descents = self._cases(families, perm)
        twist = None if theta.is_identity else theta
        refused = 0
        for n, desc in enumerate(descents):
            for system, special in ((d, False), (rrs, True)):
                valid = _by_coords(equivariant_quad_adata(system, desc, f, random.Random(n),
                                                          special, twist), system)
                for key in [None] + [v for v in valid if max(v) > 0]:
                    values = dict(valid)
                    if key is not None:
                        values[key], values[coord_adata.negate(key)] = \
                            2 * values[key], 2 * values[coord_adata.negate(key)]
                    adata = ADatum(values, f.one(), f.half(), system)
                    got = _outcome(lambda: adata.validate_equivariant(desc))
                    assert got == _outcome(
                        lambda: coord_adata.validate_equivariant(values, system, desc))
                    refused += got is not None
                    assert key is not None or got is None
                    if system is d and twist is not None:
                        got = _outcome(lambda: adata.validate_twisted(theta))
                        assert got == _outcome(lambda: coord_adata.validate_twisted(values, theta))
                        assert key is not None or got is None
        assert refused
