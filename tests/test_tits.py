"""Canonical lifts: braid property, the 2-torsion cocycle, x(zeta), and the
normalizer-valued Galois cocycle."""

import random
from fractions import Fraction

import pytest

from permutation_kernel import HEIGHT_CASES, tits_product_by_permutations
from splitinv.coeffs import QuadField, SignedSymbolMap, SymUnit
from splitinv.errors import ADataError, RootDatumError
from splitinv.matoracle import MatrixContext, mat_eq, mat_mul, realize
from splitinv.rootdata import (PinnedAutomorphism, RootAutomorphism, analyze_weyl,
                               build_root_datum, restrict_root_system)
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
        assert sq.torus == TorusElement((-ONE,))
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
                    descents = [i for i in range(d.rank) if cur.inverts(d.simple_index[i])]
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
            one = tits_lift(d, d.identity_weyl(), ONE)
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
            SymUnit.one(), SymUnit.half())

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
            ONE, Fraction(1, 2))
        w0 = analyze_weyl(d, [0, 1, 0])
        x = x_of(d, w0, adata)
        ctx = MatrixContext(3)
        m = realize(ctx, x)
        assert m == ((Fraction(21), 0, 0), (0, Fraction(1), 0),
                     (0, 0, Fraction(1, 21)))

    def test_simple_reflection(self):
        s1 = self.d.simple_reflection(0)
        assert [r.coords for r in s1.inversions] == [(1, 0)]
        x = x_of(self.d, s1, self.adata)
        assert x.coords == (self.a, SymUnit.one())

    @pytest.mark.parametrize("spec, perm", [(("A", 2), [1, 0]), (("A", 3), [2, 1, 0]),
                                            (("D", 4), [0, 1, 3, 2])])
    def test_diagram_part_adds_no_inversions(self, spec, perm):
        # R(w g) = R(w): the positive roots that (w g)^-1 sends negative are
        # the images under w g of the negative roots that land positive
        d = build_root_datum([spec])
        theta = PinnedAutomorphism(d, perm)
        npos = d.n_positive
        for w in d.weyl_group():
            aut = RootAutomorphism(w, theta)
            inverted = {aut.perm[j] for j in range(npos, len(d.roots)) if aut.perm[j] < npos}
            assert inverted == {d.root_index[r.coords] for r in w.inversions}

    def test_diagram_automorphism_alone_gives_one(self):
        theta = PinnedAutomorphism(self.d, [1, 0])
        aut = RootAutomorphism(self.d.identity_weyl(), theta)
        assert x_of(self.d, aut.weyl, self.adata).is_one

    def test_theta_fixed_for_twisted_data(self):
        theta = PinnedAutomorphism(self.d, [1, 0])
        w0 = analyze_weyl(self.d, [0, 1, 0])
        x = x_of(self.d, w0, self.adata)
        assert x.theta_fixed(theta)

    # x_of reads each coroot's nonzero entries; the reference multiplies
    # dense powers a_alpha^{alpha_vee} as whole torus points, starting at 1.
    # B3, C3 and D4 have coroot entries 2 (and A2 none), over Fraction and
    # SymUnit.
    @pytest.mark.parametrize("spec", [("A", 2), ("B", 3), ("C", 3), ("D", 4)])
    def test_matches_the_product_of_cocharacter_powers(self, spec):
        d = build_root_datum([spec])
        rng = random.Random(str(spec))
        names = iter(f"a{k}" for k in range(len(d.roots)))
        for pos, one in (({r.coords: Fraction(rng.choice([-3, 2, 5]), rng.randint(1, 4))
                           for r in d.positive_roots}, ONE),
                         ({r.coords: SymUnit.gen(next(names)) for r in d.positive_roots},
                          SymUnit.one())):
            adata = ADatum.from_positive(d, pos, one, one)
            for w in d.weyl_group():
                want = TorusElement.ones(d.rank, one)
                for r in w.inversions:
                    want = want * TorusElement(tuple(adata[r.coords] ** e for e in r.coroot))
                assert x_of(d, w, adata) == want


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
                                     SymUnit.one(), SymUnit.half())
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
                                     f.one(), f.half())
        from splitinv.coeffs import QuadConj
        desc = DescentDatum(d, 2, d.longest_element(), field_action=QuadConj(f))
        m = m_cocycle(d, desc, adata, theta=ctx.theta)
        mat = realize(ctx, m[1])
        expect = ((f.zero(), f.zero(), f.embed(5)),
                  (f.zero(), -f.one(), f.zero()),
                  (f.embed(Fraction(1, 5)), f.zero(), f.zero()))
        assert mat_eq(mat, expect)
        assert mat_eq(mat_mul(mat, ctx.galois_apply(mat, 1)),
                      realize(ctx, tits_lift(d, d.identity_weyl(), f.one())))

    def test_diagram_only_descent(self):
        # omega_T = 1 with a nontrivial diagram action: torus-valued cocycle
        d = build_root_datum([("A", 3)])
        sigma = PinnedAutomorphism(d, [2, 1, 0])
        desc = DescentDatum(d, 2, d.identity_weyl(), sigma_T=sigma)
        pos = {r.coords: SymUnit.gen(f"c{i}") for i, r in
               enumerate(d.positive_roots)}
        # equivariance forces matching symbols across the diagram orbit
        from splitinv.splitting import _symbolic_adata
        adata, action = _symbolic_adata(d, desc, None)
        desc2 = DescentDatum(d, 2, d.identity_weyl(), sigma_T=sigma,
                             field_action=action)
        m = m_cocycle(d, desc2, adata)
        assert all(mk.weyl.is_identity for mk in m.values())
        assert m[1].torus.is_one  # diagram automorphisms have no inversions

    def test_order_three(self):
        d = build_root_datum([("A", 2)])
        rot = analyze_weyl(d, [0, 1])  # order 3 in the A2 Weyl group
        desc0 = DescentDatum(d, 3, rot)
        from splitinv.splitting import _symbolic_adata
        adata, action = _symbolic_adata(d, desc0, None)
        desc = DescentDatum(d, 3, rot, field_action=action)
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
                                     SymUnit.one(), SymUnit.half())
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
                SymUnit.one(), SymUnit.half())
            adata.validate_twisted(theta)
            for w in rrs.fixed_weyl_subgroup():
                assert x_of(d, w, adata).theta_fixed(theta)


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
                             + f.gen() * f.embed(rng.randint(-2, 2))
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
            got = t.weyl_apply(w)
            assert got == dense_weyl_apply(t, w, one)
            assert [type(c) for c in got.coords] == [type(one)] * d.rank


def letter_by_letter(d, x, y, one):
    """x * y with n(w1) n(w2) multiplied out one letter of w2 at a time on
    the root tables: n(v) n(s_i) is n(v s_i) when v alpha_i > 0, and else
    (-1)^{v alpha_i_vee} n(v s_i), as n(s_i)^2 = (-1)^{alpha_i_vee}."""
    t = list((x.torus * dense_weyl_apply(y.torus, x.weyl, one)).coords)
    v = x.weyl
    for i in y.weyl.word:
        img = v.perm[d.simple_index[i]]
        if img >= d.n_positive:
            t = [-c if e % 2 else c for c, e in zip(t, d.roots[img].coroot)]
        v = v * d.simple_reflection(i)
    return TitsElement(TorusElement(tuple(t)), v)


class TestProductShortCuts:
    """A product with n(1) on either side peels no letter, and the 2-torsion
    correction negates the odd coordinates; both agree with the
    letter-by-letter route and with lift_along_word over whole Weyl groups."""

    @pytest.mark.parametrize("spec", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
    @pytest.mark.parametrize("kind", ["fraction", "quad", "symunit"])
    def test_matches_the_letter_by_letter_route(self, spec, kind):
        d = build_root_datum([spec])
        rng = random.Random(f"{spec}{kind}")
        group, e = d.weyl_group(), d.identity_weyl()
        corrected = set()
        for w in group:
            for w1, w2 in ((e, w), (w, e), (w, rng.choice(group))):
                one, c1 = TestWeylApply.coordinates(kind, d.rank, rng)
                _, c2 = TestWeylApply.coordinates(kind, d.rank, rng)
                x = TitsElement(TorusElement(tuple(c1)), w1)
                y = TitsElement(TorusElement(tuple(c2)), w2)
                got = x * y
                assert got == letter_by_letter(d, x, y, one)
                assert [type(c) for c in got.torus.coords] == [type(one)] * d.rank
                lifts = lift_along_word(d, w1.word + w2.word, one)
                moved = x.torus * dense_weyl_apply(y.torus, w1, one)
                assert got == TitsElement(moved * lifts.torus, lifts.weyl)
                corrected.add(got.torus != moved)
        assert corrected == {True, False}     # odd and even corrections both met

    def test_factors_from_different_data_are_refused(self):
        d, twin = build_root_datum([("A", 2)]), build_root_datum([("A", 2)])
        e, s = tits_lift(d, d.identity_weyl()), tits_lift(twin, twin.simple_reflection(0))
        for x, y in ((e, s), (s, e)):
            with pytest.raises(RootDatumError, match="different data"):
                x * y


class TestWrongRank:
    """A torus point whose rank is not the datum's is refused by name: in a
    product of torus points, and where a Tits element is built, so neither
    the Tits product nor the inverse ever reads one."""

    def test_tits_product_with_a_wrong_rank_factor(self):
        d = build_root_datum([("A", 3)])
        e, s1 = d.identity_weyl(), d.simple_reflection(0)
        with pytest.raises(RootDatumError,
                           match=r"rank-2 t\(2, 3\) does not pair with w\[e\] of RootDatum\(A3\)"):
            TitsElement(TorusElement((2, 3)), e) * TitsElement(TorusElement((2, 3, 5)), s1)
        with pytest.raises(RootDatumError, match=r"rank-4 t\(2, 3, 5, 7\) .* w\[1\]"):
            TitsElement(TorusElement((2, 3, 5)), e) * TitsElement(TorusElement((2, 3, 5, 7)), s1)

    def test_torus_product_of_two_ranks(self):
        for x, y, want in (((2,), (2, 3), r"rank-1 t\(2,\) by the rank-2 t\(2, 3\)"),
                           ((2, 3), (2,), r"rank-2 t\(2, 3\) by the rank-1 t\(2,\)")):
            with pytest.raises(RootDatumError, match=want):
                TorusElement(x) * TorusElement(y)
        assert TorusElement((2, 3)) * TorusElement((5, 7)) == TorusElement((10, 21))

    def test_no_inverse_of_a_wrong_rank_point(self):
        d = build_root_datum([("A", 3)])
        for w in (d.identity_weyl(), d.simple_reflection(0), d.longest_element()):
            with pytest.raises(RootDatumError, match=r"rank-2 t\(2, 3\) does not pair"):
                TitsElement(TorusElement((2, 3)), w).inverse()
            x = TitsElement(TorusElement((Fraction(2), Fraction(3), Fraction(5))), w)
            assert x * x.inverse() == tits_lift(d, d.identity_weyl(), ONE)


def three_step_inverse(d, x, one):
    """(t n(w))^-1 by the route the library took before its one-peel
    inverse: the rough inverse w^-1(t^-1) n(w^-1), the torus-valued defect
    x * rough, and rough * defect^-1, which peels no letter since the defect
    sits over n(1).  Moves and products go through the dense formula and the
    letter-by-letter route, not through the library's torus product."""
    w_inv = x.weyl.inverse()
    rough = TitsElement(dense_weyl_apply(x.torus.inv(), w_inv, one), w_inv)
    defect = letter_by_letter(d, x, rough, one)
    assert defect.weyl.is_identity
    return TitsElement(rough.torus * dense_weyl_apply(defect.torus.inv(), w_inv, one), w_inv)


class TestInverse:
    """The inverse w^-1(t^-1) (-1)^nu n(w^-1), nu from one peel, agrees with
    the three-step route on whole Weyl groups, value and entry type."""

    @pytest.mark.parametrize("spec", [("A", 3), ("B", 3), ("C", 3), ("D", 4)])
    @pytest.mark.parametrize("kind", ["fraction", "quad", "symunit"])
    def test_matches_the_three_step_route(self, spec, kind):
        d = build_root_datum([spec])
        rng = random.Random(f"inverse{spec}{kind}")
        signs = set()
        for w in d.weyl_group():
            one, coords = TestWeylApply.coordinates(kind, d.rank, rng)
            x = TitsElement(TorusElement(tuple(coords)), w)
            got = x.inverse()
            assert got == three_step_inverse(d, x, one), w
            assert [type(c) for c in got.torus.coords] == [type(one)] * d.rank
            moved = dense_weyl_apply(x.torus.inv(), w.inverse(), one)
            signs.add(got.torus != moved)
        assert signs == {True, False}     # odd and even nu both met

    def test_int_coordinates_become_fractions(self):
        d = build_root_datum([("B", 3)])
        rng = random.Random(7)
        for w in d.weyl_group():
            coords = tuple(rng.choice([-4, -1, 2, 3]) for _ in range(d.rank))
            x = TitsElement(TorusElement(coords), w)
            got = x.inverse()
            want = three_step_inverse(
                d, TitsElement(TorusElement(tuple(map(Fraction, coords))), w), ONE)
            assert got == want, w
            assert all(type(c) is Fraction for c in got.torus.coords)
            assert x * got == tits_lift(d, d.identity_weyl(), ONE)

    def test_a_zero_coordinate_raises(self):
        # under the identity the zero meets exponent -1; under w0, which sends
        # each simple coroot to a negative one, it meets exponent +1
        d = build_root_datum([("A", 3)])
        for w in (d.identity_weyl(), d.longest_element()):
            x = TitsElement(TorusElement((Fraction(2, 3), 0, Fraction(-1, 2))), w)
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        # the one Fraction built per coordinate has denominator zero
        with pytest.raises(ZeroDivisionError):
            x.torus.weyl_apply(d.simple_reflection(1))


class TestHeightPeel:
    """The Tits product peels by the heights of the simple-root images; the
    per-letter permutation peel it replaced agrees on random pairs, the
    identity on either side included."""

    @pytest.mark.parametrize("label,families", HEIGHT_CASES)
    def test_matches_the_permutation_peel(self, label, families):
        d = build_root_datum(families)
        rng = random.Random(label)
        group, e = d.weyl_group(), d.identity_weyl()

        def point(w):
            return TitsElement(TorusElement(tuple(
                Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4)) for _ in range(d.rank))), w)

        pairs = [(rng.choice(group), rng.choice(group)) for _ in range(60)]
        pairs += [(e, rng.choice(group)), (rng.choice(group), e), (d.longest_element(),) * 2]
        for w1, w2 in pairs:
            x, y = point(w1), point(w2)
            assert x * y == tits_product_by_permutations(x, y), (w1, w2)
