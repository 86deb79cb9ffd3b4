"""Canonical lifts: braid property, the 2-torsion cocycle, x(zeta), and the
normalizer-valued Galois cocycle."""

import random
from fractions import Fraction

import pytest

from splitinv.coeffs import QuadField, SignedSymbolMap, SymUnit
from splitinv.errors import ADataError
from splitinv.matoracle import MatrixContext, mat_eq, mat_mul, realize
from splitinv.rootdata import (PinnedAutomorphism, RootAutomorphism, analyze_weyl,
                               build_root_datum, inversion_domain,
                               restrict_root_system)
from splitinv.splitting import ADatum, DescentDatum
from splitinv.tits import (TitsElement, TorusElement, lift_along_word, m_cocycle,
                           tits_cocycle, tits_lift, x_of)

ONE = Fraction(1)


class TestLifts:
    def test_identity_lift(self):
        d = build_root_datum([("A", 2)])
        x = tits_lift(d, d.identity_weyl())
        assert x.weyl.is_identity and x.torus.is_one

    def test_simple_lift_squares_to_coroot_of_minus_one(self):
        # SL(2) oracle: [[0,1],[-1,0]]^2 = -I
        d = build_root_datum([("A", 1)])
        sq = lift_along_word(d, [0, 0], ONE)
        assert sq.weyl.is_identity
        assert sq.torus == TorusElement.cochar_power((1,), -ONE, ONE)
        ctx = MatrixContext(2)
        n = ctx.simple_lift_matrix(0)
        assert mat_eq(mat_mul(n, n), realize(ctx, sq))

    def test_braid_a2(self):
        d = build_root_datum([("A", 2)])
        assert lift_along_word(d, [0, 1, 0], ONE) == lift_along_word(d, [1, 0, 1], ONE)

    def test_braid_b2(self):
        d = build_root_datum([("B", 2)])
        assert lift_along_word(d, [0, 1, 0, 1], ONE) == \
            lift_along_word(d, [1, 0, 1, 0], ONE)

    def test_reduced_word_independence_exhaustive_a3(self):
        d = build_root_datum([("A", 3)])
        rng = random.Random(0)
        for w in d.weyl_group():
            base = tits_lift(d, w)
            for _ in range(4):
                cur, letters = w, []
                while not cur.is_identity:
                    descents = [i for i in range(d.rank)
                                if not d._is_positive(
                                    cur.act_root_inv(d.simple_root(i).coords))]
                    i = rng.choice(descents)
                    letters.append(i)
                    cur = d.simple_reflection(i) * cur
                assert lift_along_word(d, letters, ONE) == base

    def test_cocycle_closed_form_exhaustive(self):
        for spec in ([("A", 2)], [("B", 2)], [("A", 3)]):
            d = build_root_datum(spec)
            for w1 in d.weyl_group():
                for w2 in d.weyl_group():
                    prod = tits_lift(d, w1) * tits_lift(d, w2)
                    assert prod.weyl == w1 * w2
                    assert prod.torus == tits_cocycle(d, w1, w2, ONE)

    def test_pinned_equivariance(self):
        d = build_root_datum([("A", 3)])
        theta = PinnedAutomorphism(d, [2, 1, 0])
        for w in d.weyl_group():
            assert tits_lift(d, theta.act_weyl(w)) == \
                tits_lift(d, w).theta_apply(theta)

    def test_inverse(self):
        # every element of W, with random tori, on both sides
        rng = random.Random(1)
        for family in [("A", 2), ("A", 3), ("B", 3), ("C", 3), ("D", 4)]:
            d = build_root_datum([family])
            one = TitsElement.identity(d, ONE)
            for w in d.weyl_group():
                t = TorusElement(tuple(Fraction(rng.randint(1, 9), rng.randint(1, 4))
                                       * rng.choice([1, -1]) for _ in range(d.rank)))
                x = TitsElement(t, w)
                inv = x.inverse()
                assert inv.weyl == w.inverse()
                assert x * inv == one and inv * x == one


class TestXOf:
    def setup_method(self):
        self.d = build_root_datum([("A", 2)])
        self.a = SymUnit.gen("a")
        self.b = SymUnit.gen("b")
        self.adata = ADatum.from_positive(
            self.d, {(1, 0): self.a, (0, 1): self.a, (1, 1): self.b},
            SymUnit.one(), SymUnit.half(), flavor="twisted")

    def test_identity_gives_one(self):
        x = x_of(self.d, self.d.identity_weyl(), self.adata)
        assert x.is_one

    def test_long_element(self):
        w0 = analyze_weyl(self.d, [0, 1, 0])
        x = x_of(self.d, w0, self.adata)
        ab = self.a * self.b
        assert x.coords == (ab, ab)

    def test_long_element_matrix(self):
        # diag(ab, 1, 1/(ab)) in the SL(3) realization with a=3, b=7
        d = self.d
        adata = ADatum.from_positive(
            d, {(1, 0): Fraction(3), (0, 1): Fraction(3), (1, 1): Fraction(7)},
            ONE, Fraction(1, 2), flavor="twisted")
        w0 = analyze_weyl(d, [0, 1, 0])
        x = x_of(d, w0, adata)
        ctx = MatrixContext(3)
        m = realize(ctx, x)
        assert m == ((Fraction(21), 0, 0), (0, Fraction(1), 0),
                     (0, 0, Fraction(1, 21)))

    def test_simple_reflection(self):
        s1 = self.d.simple_reflection(0)
        assert [r.coords for r in inversion_domain(s1)] == [(1, 0)]
        x = x_of(self.d, s1, self.adata)
        assert x.coords == (self.a, SymUnit.one())

    def test_diagram_automorphism_alone_gives_one(self):
        theta = PinnedAutomorphism(self.d, [1, 0])
        assert inversion_domain(theta) == ()
        assert x_of(self.d, theta, self.adata).is_one

    def test_theta_fixed_for_twisted_data(self):
        theta = PinnedAutomorphism(self.d, [1, 0])
        w0 = analyze_weyl(self.d, [0, 1, 0])
        x = x_of(self.d, w0, self.adata)
        assert x.theta_fixed(theta)


class TestMCocycle:
    def test_trivial_group(self):
        d = build_root_datum([("A", 2)])
        a = SymUnit.gen("a")
        adata = ADatum.from_positive(d, {(1, 0): a, (0, 1): SymUnit.gen("c"),
                                         (1, 1): SymUnit.gen("e")},
                                     SymUnit.one(), SymUnit.half())
        desc = DescentDatum(d, 1, d.identity_weyl())
        m = m_cocycle(d, desc, adata)
        assert set(m) == {0}
        assert m[0].torus.is_one and m[0].weyl.is_identity

    def test_a2_flip_symbolic(self):
        d = build_root_datum([("A", 2)])
        theta = PinnedAutomorphism(d, [1, 0])
        a, b = SymUnit.gen("a"), SymUnit.gen("b")
        adata = ADatum.from_positive(d, {(1, 0): a, (0, 1): a, (1, 1): b},
                                     SymUnit.one(), SymUnit.half(), flavor="twisted")
        w0 = analyze_weyl(d, [0, 1, 0])
        desc = DescentDatum(d, 2, w0,
                            field_action=SignedSymbolMap({"a": (-1, "a"),
                                                          "b": (-1, "b")}))
        m = m_cocycle(d, desc, adata, theta=theta)
        ab = a * b
        assert m[1].torus.coords == (ab, ab)
        assert m[1].weyl == w0
        # the cocycle identity m(sigma) sigma(m(sigma)) = 1 is verified inside;
        # check it once more explicitly
        prod = m[1] * desc.galois_on_tits(1, m[1])
        assert prod.torus.is_one and prod.weyl.is_identity

    def test_a2_flip_matrix_oracle(self):
        f = QuadField(5)
        ctx = MatrixContext(3, f, twisted=True)
        d = ctx.datum
        s5 = f.gen()
        adata = ADatum.from_positive(d, {(1, 0): s5, (0, 1): s5, (1, 1): s5},
                                     f.one(), f.half(), flavor="twisted")
        from splitinv.coeffs import QuadConj
        desc = DescentDatum(d, 2, d.longest_element(), field_action=QuadConj(f))
        m = m_cocycle(d, desc, adata, theta=ctx.theta)
        mat = realize(ctx, m[1])
        expect = ((f.zero(), f.zero(), f.from_int(5)),
                  (f.zero(), -f.one(), f.zero()),
                  (f.embed(Fraction(1, 5)), f.zero(), f.zero()))
        assert mat_eq(mat, expect)
        assert mat_eq(mat_mul(mat, ctx.galois_apply(mat, 1)),
                      realize(ctx, TitsElement.identity(d, f.one())))

    def test_diagram_only_descent(self):
        # omega_T = 1 with a nontrivial diagram action: torus-valued cocycle
        d = build_root_datum([("A", 3)])
        sigma = PinnedAutomorphism(d, [2, 1, 0])
        desc = DescentDatum(d, 2, d.identity_weyl(), sigma_T=sigma)
        pos = {r.coords: SymUnit.gen(f"c{i}") for i, r in
               enumerate(d.positive_roots)}
        # equivariance forces matching symbols across the diagram orbit
        from splitinv.splitting import _symbolic_adata
        adata, info = _symbolic_adata(d, desc, None)
        desc2 = DescentDatum(d, 2, d.identity_weyl(), sigma_T=sigma,
                             field_action=info.field_action)
        m = m_cocycle(d, desc2, adata)
        assert all(mk.weyl.is_identity for mk in m.values())
        assert m[1].torus.is_one  # diagram automorphisms have no inversions

    def test_order_three(self):
        d = build_root_datum([("A", 2)])
        rot = analyze_weyl(d, [0, 1])  # order 3 in the A2 Weyl group
        desc0 = DescentDatum(d, 3, rot)
        from splitinv.splitting import _symbolic_adata
        adata, info = _symbolic_adata(d, desc0, None)
        desc = DescentDatum(d, 3, rot, field_action=info.field_action)
        m = m_cocycle(d, desc, adata)
        assert set(m) == {0, 1, 2}

    def test_rejects_non_equivariant(self):
        d = build_root_datum([("A", 2)])
        a = SymUnit.gen("a")
        adata = ADatum.from_positive(d, {(1, 0): a, (0, 1): a, (1, 1): a},
                                     SymUnit.one(), SymUnit.half())
        w0 = analyze_weyl(d, [0, 1, 0])
        desc = DescentDatum(d, 2, w0)  # trivial coefficient action
        with pytest.raises(ADataError):
            m_cocycle(d, desc, adata)

    def test_rejects_non_invariant_in_twisted_mode(self):
        d = build_root_datum([("A", 2)])
        theta = PinnedAutomorphism(d, [1, 0])
        a, b, c = SymUnit.gen("a"), SymUnit.gen("b"), SymUnit.gen("c")
        adata = ADatum.from_positive(d, {(1, 0): a, (0, 1): b, (1, 1): c},
                                     SymUnit.one(), SymUnit.half(), flavor="twisted")
        desc = DescentDatum(d, 1, d.identity_weyl())
        with pytest.raises(ADataError):
            m_cocycle(d, desc, adata, theta=theta)


class TestFixedPointLemma:
    def test_x_of_lands_in_fixed_subtorus(self):
        # for every automorphism commuting with theta and invariant a-data,
        # the wall-crossing element is fixed by theta
        for fam, rank, perm in (("A", 3, (2, 1, 0)), ("A", 4, (3, 2, 1, 0))):
            d = build_root_datum([(fam, rank)])
            theta = PinnedAutomorphism(d, perm)
            rrs = restrict_root_system(d, theta)
            pos = {}
            for r in d.positive_roots:
                key = rrs.restrict_root(r.coords)
                pos.setdefault(key, SymUnit.gen(f"s{len(pos)}"))
            adata = ADatum.from_positive(
                d, {r.coords: pos[rrs.restrict_root(r.coords)]
                    for r in d.positive_roots},
                SymUnit.one(), SymUnit.half(), flavor="twisted")
            adata.validate_twisted(theta)
            for w in rrs.fixed_weyl_subgroup():
                assert x_of(d, w, adata).theta_fixed(theta)
            for w in rrs.fixed_weyl_subgroup():
                aut = RootAutomorphism(w, theta)
                assert x_of(d, aut, adata).theta_fixed(theta)


def dense_weyl_apply(t, w, one):
    """w(t) from the dense coroot images: the coordinate on alpha_i_vee is
    raised to each entry of w(alpha_i_vee), zeros skipped."""
    out = [one] * len(t.coords)
    for c, img in zip(t.coords, w.coroot_images()):
        for j, e in enumerate(img):
            if e:
                out[j] = out[j] * (c ** e)
    return TorusElement(tuple(out))


class TestWeylApply:
    """weyl_apply reads sparse coroot rows and inverts each coordinate once;
    it agrees with the dense formula on whole Weyl groups."""

    @staticmethod
    def coordinates(kind, rank, rng):
        if kind == "fraction":
            return ONE, [Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
                         for _ in range(rank)]
        if kind == "quad":
            f = QuadField(5)
            return f.one(), [f.embed(Fraction(rng.randint(1, 4), rng.randint(1, 3)))
                             + f.gen() * f.from_int(rng.randint(-2, 2))
                             for _ in range(rank)]
        names = "abcdefg"
        return SymUnit.one(), [SymUnit.gen(names[i], rng.choice([1, 2, -1]),
                                           rng.choice([1, -1])) for i in range(rank)]

    @pytest.mark.parametrize("spec", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
    @pytest.mark.parametrize("kind", ["fraction", "quad", "symunit"])
    def test_matches_the_dense_formula(self, spec, kind):
        d = build_root_datum([spec])
        rng = random.Random(f"{spec}{kind}")
        group = d.weyl_group()
        assert d.identity_weyl() in group
        for w in group:
            one, coords = self.coordinates(kind, d.rank, rng)
            t = TorusElement(tuple(coords))
            got = t.weyl_apply(w, one)
            assert got == dense_weyl_apply(t, w, one)
            assert [type(c) for c in got.coords] == [type(one)] * d.rank
