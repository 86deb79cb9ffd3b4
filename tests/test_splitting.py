"""a-data, descent data, splitting cocycles, Borel independence, the lift
comparison, and the fixed-subgroup vs twisted comparison."""

import random
from fractions import Fraction

import pytest

import splitinv.splitting as splitting
from splitinv.coeffs import QuadConj, QuadField, SignedSymbolMap, SymUnit
from splitinv.errors import ADataError, DescentError, RealizationError, RootDatumError
from splitinv.matoracle import (MatrixContext, exp_nilpotent, fixed_group_lift,
                                mat_det, mat_eq, mat_identity, mat_inv, mat_mul,
                                mat_prod, mat_scalar, realize, restricted_root_vectors,
                                sl2_embed)
from splitinv.rootdata import (PinnedAutomorphism, analyze_weyl, build_root_datum,
                               restrict_root_system)
from splitinv.splitting import (ADatum, DescentDatum, Realization, _h2_seed,
                                _block_embed, _symbolic_adata, check_nn_prime,
                                compare_fixed_vs_twisted, equivariant_quad_adata,
                                lambda_twisted, lambda_untwisted, lift_discrepancy,
                                sample_h_twisted, sample_h_untwisted,
                                verify_borel_independence)
from splitinv.tits import TitsElement, TorusElement

ONE = Fraction(1)


class TestADatum:
    def setup_method(self):
        self.d = build_root_datum([("A", 2)])
        self.theta = PinnedAutomorphism(self.d, [1, 0])
        self.rrs = restrict_root_system(self.d, self.theta)

    def test_negation_rule_built_in(self):
        a = SymUnit.gen("a")
        ad = ADatum.from_positive(self.d, {(1, 0): a, (0, 1): a, (1, 1): a},
                                  SymUnit.one(), SymUnit.half())
        ad.validate()
        assert ad[(-1, 0)] == -a

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
            self.rrs, {(1,): s, (2,): s}, SymUnit.one(), SymUnit.half(),
            flavor="special")
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


class TestLambdaUntwisted:
    def test_trivial_group(self):
        d = build_root_datum([("A", 2)])
        desc = DescentDatum(d, 1, d.identity_weyl())
        adata, info = _symbolic_adata(d, desc, None)
        coc = lambda_untwisted(d, desc, adata)
        assert coc.level == "m"
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
        h = _block_embed(ctx, 0, _h2_seed(f))
        assert mat_det(h, f) == f.one()
        real = Realization(ctx, h)
        assert real.omega.word == (0,)
        adata = ADatum.from_positive(ctx.datum, {(1,): f.gen()}, f.one(), f.half())
        coc = lambda_untwisted(ctx.datum, real.descent, adata, real)
        assert coc.values[1].coords == (f.half(),)

    def test_sampled_explicit_cocycle(self):
        f = QuadField(5)
        ctx = MatrixContext(3, f)
        rng = random.Random(0)
        h = sample_h_untwisted(ctx, rng, seeds=[0])
        real = Realization(ctx, h)
        adata = equivariant_quad_adata(ctx.datum, real.descent, f, rng)
        coc = lambda_untwisted(ctx.datum, real.descent, adata, real)
        assert coc.level == "t" and coc.ambient == "T"
        assert set(coc.values) == {0, 1}
        # honest matrices live in the transported torus and are nontrivial here
        assert not mat_eq(coc.matrices[1], mat_identity(3, f))

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
        h = _block_embed(ctx, 0, _h2_seed(f))
        real = Realization(ctx, h)
        adata = ADatum.from_positive(ctx.datum, {(1,): f.gen()}, f.one(), f.half())
        theta = PinnedAutomorphism.identity(ctx.datum)
        tw = lambda_twisted(ctx.datum, theta, real.descent, adata, real)
        untw = lambda_untwisted(ctx.datum, real.descent, adata, real)
        assert tw.values == untw.values
        assert tw.ambient == "T^theta"

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
                                      (1, 1): f.from_int(2)}, f.one(), f.half(),
                                     flavor="twisted")
        coc = lambda_twisted(ctx.datum, ctx.theta, real.descent, adata, real)
        assert all(v.is_one for v in coc.values.values())

    # the m-level cocycle identity and theta-fixedness are checked once, in
    # m_cocycle; with a fault put in, lambda_twisted must still raise
    def test_m_level_cocycle_identity_still_checked(self, request):
        d = build_root_datum([("A", 2)])
        theta = PinnedAutomorphism(d, [1, 0])
        base = DescentDatum(d, 2, analyze_weyl(d, [0, 1, 0]))
        adata, info = _symbolic_adata(d, base, theta)
        desc = DescentDatum(d, 2, base.omega_T, None, info.field_action)
        lambda_twisted(d, theta, desc, adata)
        request.getfixturevalue("negated_galois_on_tits")
        with pytest.raises(ADataError, match=r"\(sigma\^0, sigma\^0\)"):
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
        h = sample_h_untwisted(ctx, rng, seeds=[0])  # not theta-fixed in general
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
                                               SymUnit.one(), SymUnit.half(),
                                               flavor="special")
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
                                               SymUnit.half(), flavor="special")
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
    # values once, for its own matrix check and for the t-level
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
        assert calls == {"m_cocycle": 1, "realize_m": real.descent.order}

    # the t-level checks of lambda_twisted still run on the comparison's path
    def test_t_level_checks_run_in_the_comparison(self, monkeypatch):
        ctx, rrs, h, real, spec = self.matrix_case()
        plain = Realization(ctx, h, use_theta=False)
        with pytest.raises(RealizationError, match="conjugator fixed by the automorphism"):
            compare_fixed_vs_twisted(rrs, plain.descent, spec, ctx=ctx, realization=plain)
        monkeypatch.setattr(ctx, "theta_fixed", lambda g: False)
        with pytest.raises(RealizationError, match=r"matrix t\(sigma\^0\) is not theta-fixed"):
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
        adata, info = _symbolic_adata(d, desc, None)
        desc2 = DescentDatum(d, 2, d.longest_element(),
                             field_action=info.field_action)
        rep = verify_borel_independence(d, desc2, adata, d.identity_weyl())
        assert rep.witness.is_one

    def test_symbolic_witness_pattern(self):
        d = build_root_datum([("A", 2)])
        theta = PinnedAutomorphism(d, [1, 0])
        w0 = d.longest_element()
        desc0 = DescentDatum(d, 2, w0)
        adata, info = _symbolic_adata(d, desc0, theta)
        desc = DescentDatum(d, 2, w0, field_action=info.field_action)
        rep = verify_borel_independence(d, desc, adata, w0, theta=theta)
        a1a2 = SymUnit.gen("a1") * SymUnit.gen("a2")
        assert rep.witness.coords == (a1a2, a1a2)

    def test_matrix_identity_for_all_mu(self):
        f = QuadField(5)
        ctx = MatrixContext(3, f)
        rng = random.Random(4)
        h = sample_h_untwisted(ctx, rng, seeds=[1])
        real = Realization(ctx, h)
        adata = equivariant_quad_adata(ctx.datum, real.descent, f, rng)
        for mu in ctx.datum.weyl_group():
            verify_borel_independence(ctx.datum, real.descent, adata, mu,
                                      realization=real)

    def test_twisted_requires_fixed_mu(self):
        d = build_root_datum([("A", 2)])
        theta = PinnedAutomorphism(d, [1, 0])
        desc0 = DescentDatum(d, 2, d.longest_element())
        adata, info = _symbolic_adata(d, desc0, theta)
        desc = DescentDatum(d, 2, d.longest_element(),
                            field_action=info.field_action)
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
            expected = expected * TorusElement.cochar_power(r.coroot,
                                                            Fraction(1, 2), ONE)
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
            plain = sample_h_untwisted(ctx, rng, seeds=[rng.randrange(ctx.n - 1)])
            yield from (fixed, plain, mat_mul(fixed, plain))
            f = ctx.field
            sparse = tuple(tuple(f.from_int(rng.choice([0, 0, 0, 1, -1, 2]))
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
        h = sample_h_untwisted(ctx, rng, seeds=[0])
        assert mat_det(h, ctx.field) == ctx.field.one()
        assert not mat_eq(ctx.theta_apply(h), h)
        with pytest.raises(RealizationError, match="not fixed by the automorphism"):
            Realization(ctx, h, use_theta=True)
        Realization(ctx, h)  # the same h without the automorphism is fine

    @pytest.mark.parametrize("n, d", CASES)
    def test_sigma_h_inv_is_the_inverse_of_sigma_h(self, n, d):
        ctx = MatrixContext(n, QuadField(d), twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        rng = random.Random(n + d)
        b = rrs.simple_restricted
        for use_theta, h in ((True, sample_h_twisted(ctx, rrs, rng, seeds=[(b[0], None)])),
                             (True, sample_h_twisted(ctx, rrs, rng)),
                             (False, sample_h_untwisted(ctx, rng, seeds=[n - 2]))):
            real = Realization(ctx, h, use_theta=use_theta)
            for k in range(4):
                want = mat_inv(ctx.galois_apply(h, k), ctx.field)
                assert real.sigma_h_inv(k) == want
                assert real.transported_diagonal(mat_identity(n, ctx.field), k) \
                    == mat_inv(real.u[k % 2], ctx.field)


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
        left.append(exp_nilpotent(mat_scalar(gen, f.from_int(rng.randint(-2, 2))), f))
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
                    want = exp_nilpotent(mat_scalar(x if upper else y, f.from_int(c)), f)
                assert entries(m) == entries(want)
                seen.add(key[0])
        assert seen == {"seed", True, False}
