"""SL(n) matrix realizations: frozen ground-truth matrices, homomorphism and
injectivity properties, and the rank-1 adjoint maps."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from quad_reference import det_by_leibniz
from splitinv.coeffs import PrimeField, QuadField, QuadNum, RationalField
from splitinv.errors import CoefficientError, RealizationError, RootDatumError
from splitinv.matoracle import (MatrixContext, ad, adprime, block_embed, exp_nilpotent,
                                fixed_group_lift, fixed_group_simple_lift, mat_det,
                                mat_det_inv, mat_eq, mat_identity, mat_inv, mat_mul, mat_prod,
                                realize, restricted_root_vectors, sl2_embed, verify_appendix)
from splitinv.rootdata import restrict_root_system
from splitinv.splitting import check_nn_prime
from splitinv.tits import TitsElement, TorusElement, tits_lift

F1 = Fraction(1)


def frozen(rows):
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


class TestRealize:
    def test_simple_lift_matrices(self):
        ctx = MatrixContext(3)
        assert ctx.simple_lift_matrix(0) == frozen([[0, 1, 0], [-1, 0, 0], [0, 0, 1]])
        assert ctx.simple_lift_matrix(1) == frozen([[1, 0, 0], [0, 0, 1], [0, -1, 0]])

    def test_long_lift_is_the_standard_matrix(self):
        ctx = MatrixContext(3)
        w0 = ctx.datum.longest_element()
        assert ctx.weyl_lift_matrix(w0) == frozen([[0, 0, 1], [0, -1, 0], [1, 0, 0]])

    def test_identity(self):
        ctx = MatrixContext(4)
        x = tits_lift(ctx.datum, ctx.datum.identity_weyl(), F1)
        assert realize(ctx, x) == mat_identity(4, ctx.field)

    def test_torus_coordinates(self):
        ctx = MatrixContext(3)
        t = TorusElement((Fraction(6), Fraction(2)))
        m = realize(ctx, t)
        assert m == frozen([[6, 0, 0], [0, Fraction(1, 3), 0], [0, 0, Fraction(1, 2)]])
        assert ctx.torus_coords_of_diagonal(m) == t

    # the torus matrix embeds every coordinate: an element of the context
    # field is kept as it is, an int or a Fraction is read as its value, and
    # anything else is refused (F_5 once read the float 2.5 as 2)
    @pytest.mark.parametrize("field", [RationalField(), QuadField(5), PrimeField(5)],
                             ids=["Q", "Q(sqrt 5)", "F_5"])
    def test_torus_coordinates_are_embedded(self, field):
        ctx = MatrixContext(3, field)
        want = tuple(tuple(field.embed(v) for v in row)
                     for row in ((6, 0, 0), (0, Fraction(1, 3), 0), (0, 0, Fraction(1, 2))))
        for coords in ((6, 2), (Fraction(6), Fraction(2)), (field.embed(6), field.embed(2))):
            m = ctx.torus_matrix(TorusElement(coords))
            assert m == want and all(type(x) is type(field.one()) for row in m for x in row)
        for bad in (2.5, "2", True):
            with pytest.raises(CoefficientError):
                ctx.torus_matrix(TorusElement((6, bad)))

    @pytest.mark.parametrize("n,count", [(4, 300), (6, 60)])
    def test_multiplicative_random(self, n, count):
        rng = random.Random(0)
        ctx = MatrixContext(n)
        group = list(ctx.datum.weyl_group()) if n < 6 else None
        for _ in range(count):
            if group is not None:
                w1, w2 = rng.choice(group), rng.choice(group)
            else:
                from splitinv.rootdata import analyze_weyl
                w1 = analyze_weyl(ctx.datum, [rng.randrange(n - 1) for _ in range(8)])
                w2 = analyze_weyl(ctx.datum, [rng.randrange(n - 1) for _ in range(8)])
            t1 = TorusElement(tuple(Fraction(rng.randint(1, 7), rng.randint(1, 4))
                                    for _ in range(n - 1)))
            t2 = TorusElement(tuple(Fraction(rng.randint(1, 7), rng.randint(1, 4))
                                    for _ in range(n - 1)))
            x1, x2 = TitsElement(t1, w1), TitsElement(t2, w2)
            assert mat_eq(mat_mul(realize(ctx, x1), realize(ctx, x2)),
                          realize(ctx, x1 * x2))

    def test_injective_on_normal_forms(self):
        ctx = MatrixContext(3)
        d = ctx.datum
        seen = {}
        vals = [Fraction(1), Fraction(2), Fraction(-1)]
        for w in d.weyl_group():
            for c1 in vals:
                for c2 in vals:
                    x = TitsElement(TorusElement((c1, c2)), w)
                    m = realize(ctx, x)
                    assert m not in seen
                    seen[m] = x

    def test_injective_sampled_sl6(self):
        from splitinv.rootdata import analyze_weyl
        rng = random.Random(9)
        ctx = MatrixContext(6)
        seen = {}
        for _ in range(400):
            w = analyze_weyl(ctx.datum, [rng.randrange(5) for _ in range(10)])
            t = TorusElement(tuple(Fraction(rng.randint(1, 3), rng.randint(1, 2))
                                   for _ in range(5)))
            x = TitsElement(t, w)
            m = realize(ctx, x)
            if m in seen:
                assert seen[m] == x
            seen[m] = x

    def test_rank_mismatch(self):
        ctx = MatrixContext(3)
        with pytest.raises(RealizationError):
            realize(ctx, TorusElement((F1,)))


class TestGaloisApply:
    """sigma^k on matrices: only Q(sqrt(d)) carries a conjugation, which an
    odd k applies to every entry; over Q and F_p every power is trivial."""

    @pytest.mark.parametrize("field", [RationalField(), PrimeField(5), QuadField(5)])
    def test_powers(self, field):
        ctx = MatrixContext(2, field)
        g0 = field.gen() if isinstance(field, QuadField) else field.embed(3)
        g = ((g0, field.embed(2)), (field.zero(), field.one()))
        conj = ((-g0, field.embed(2)), (field.zero(), field.one()))
        for k in range(4):
            want = conj if k % 2 and isinstance(field, QuadField) else g
            assert ctx.galois_apply(g, k) == want


class TestTheta:
    def test_theta_squares_to_identity(self):
        for n in (3, 4, 5):
            ctx = MatrixContext(n, twisted=True)
            g = ctx.weyl_lift_matrix(ctx.datum.longest_element())
            assert mat_eq(ctx.theta_apply(ctx.theta_apply(g)), g)

    def test_theta_preserves_pinning(self):
        for n in (3, 4, 5, 6):
            MatrixContext(n, twisted=True)  # construction checks the pinning

    # the probe of theta^2 = flip^2 = 1 is 5x5 and singular over F_7: it
    # need not be invertible, since flip^2 takes no inverse
    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    @pytest.mark.parametrize("field", [RationalField(), QuadField(5), PrimeField(7)],
                             ids=["Q", "Q(sqrt5)", "F7"])
    def test_flip_that_is_not_an_involution_is_refused(self, n, field):
        """A flip that doubles the diagonal is right on the root vectors,
        which have none, but flip^2 multiplies the diagonal by 4."""
        class DoubledDiagonal(MatrixContext):
            def _flip(self, x, negate=False):
                out = super()._flip(x, negate)
                return tuple(tuple(v + v if i == j else v for j, v in enumerate(row))
                             for i, row in enumerate(out))

        assert MatrixContext(n, field, twisted=True).theta is not None
        with pytest.raises(RealizationError, match="^automorphism does not square to the identity$"):
            DoubledDiagonal(n, field, twisted=True)

    def test_sl3_theta_matrix_matches(self):
        ctx = MatrixContext(3, twisted=True)
        assert ctx.J == frozen([[0, 0, 1], [0, -1, 0], [1, 0, 0]])

    def test_theta_fixed_tits_elements_commute(self):
        ctx = MatrixContext(4, twisted=True)
        d, theta = ctx.datum, ctx.theta
        rng = random.Random(3)
        fixed = [w for w in d.weyl_group() if theta.commutes_with(w)]
        for _ in range(40):
            w = rng.choice(fixed)
            orbit_val = Fraction(rng.randint(1, 5))
            coords = [None] * 3
            for orb in theta.orbits():
                v = Fraction(rng.randint(1, 5))
                for i in orb:
                    coords[i] = v
            x = TitsElement(TorusElement(tuple(coords)), w)
            assert x.theta_fixed(theta)
            m = realize(ctx, x)
            assert mat_eq(ctx.theta_apply(m), m)


class TestAdjoint:
    def test_ad_entry_pattern(self):
        ctx = MatrixContext(3)
        m = ad(ctx, ((2, 3), (1, 2)))
        assert m == frozen([[4, 12, 9], [2, 7, 6], [1, 4, 4]])

    def test_adprime_unipotent(self):
        ctx = MatrixContext(3)
        x = Fraction(5, 3)
        m = adprime(ctx, ((1, x), (0, 1)))
        assert m == frozen([[1, x, x * x / 2], [0, 1, x], [0, 0, 1]])

    def test_adprime_weyl_point(self):
        ctx = MatrixContext(3)
        m = adprime(ctx, ((0, 1), (-1, 0)))
        assert m == frozen([[0, 0, Fraction(1, 2)], [0, -1, 0], [2, 0, 0]])

    def test_adprime_lands_in_fixed_group(self):
        ctx = MatrixContext(3, twisted=True)
        rng = random.Random(5)
        for _ in range(25):
            a, b, c = (Fraction(rng.randint(-5, 5)) for _ in range(3))
            if a == 0:
                continue
            g = ((a, b), (c, (1 + b * c) / a))
            img = adprime(ctx, g)
            assert mat_det(img, ctx.field) == ctx.field.one()
            assert mat_eq(ctx.theta_apply(img), img)

    # adprime is read off ad; the reference is the conjugation itself,
    # D ad D^-1 with D = diag(1, 2, 2), by matrix product and inverse
    @pytest.mark.parametrize("field", [RationalField(), QuadField(5), PrimeField(5),
                                       PrimeField(7)], ids=lambda f: f.name)
    def test_adprime_is_ad_conjugated_by_diag_1_2_2(self, field):
        ctx = MatrixContext(3, field)
        zero, one, two = field.zero(), field.one(), field.embed(2)
        diag = ((one, zero, zero), (zero, two, zero), (zero, zero, two))
        diag_inv = mat_inv(diag, field)
        rng = random.Random(7)

        def entry():
            if isinstance(field, QuadField):
                return QuadNum(Fraction(rng.randint(-9, 9), rng.randint(1, 4)),
                               rng.randint(-3, 3), field.d)
            return field.embed(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))

        seen = 0
        while seen < 200:
            a, b, c = entry(), entry(), entry()
            if a == zero:
                continue
            g = ((a, b), (c, (one + b * c) / a))
            got = adprime(ctx, g)
            want = mat_prod(diag, ad(ctx, g), diag_inv)
            assert got == want
            assert [type(x) for row in got for x in row] == \
                [type(x) for row in want for x in row]
            seen += 1

    def test_non_unimodular_rejected(self):
        ctx = MatrixContext(3)
        with pytest.raises(RealizationError):
            ad(ctx, ((1, 0), (0, 2)))


class TestBlockEmbed:
    @pytest.mark.parametrize("field", [RationalField(), QuadField(5), PrimeField(7)],
                             ids=lambda f: f.name)
    def test_block_in_rows_and_columns_i_and_i_plus_1(self, field):
        ctx = MatrixContext(4, field)
        g2 = ((2, 3), (1, 2))
        for i in range(3):
            want = [list(row) for row in mat_identity(4, field)]
            for r in range(2):
                for c in range(2):
                    want[i + r][i + c] = field.embed(g2[r][c])
            assert block_embed(ctx, i, g2) == tuple(tuple(row) for row in want)
            assert block_embed(ctx, i, ((0, 1), (-1, 0))) == ctx.simple_lift_matrix(i)

    @pytest.mark.parametrize("g2", [((1, 1), (1, 1)), ((1, 0), (0, 2)), ((0, 0), (0, 0))])
    def test_non_unimodular_rejected(self, g2):
        ctx = MatrixContext(3)
        with pytest.raises(RealizationError, match="not unimodular"):
            block_embed(ctx, 0, g2)

    @pytest.mark.parametrize("i", [-1, 2, 5])
    def test_index_out_of_range_rejected(self, i):
        with pytest.raises(RealizationError, match="out of range"):
            block_embed(MatrixContext(3), i, ((1, 0), (0, 1)))


class TestFixedGroupPinning:
    def test_sl3_simple_lift_is_adprime_weyl_point(self):
        ctx = MatrixContext(3, twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        beta = rrs.simple_restricted[0]
        n = fixed_group_simple_lift(ctx, rrs, beta)
        assert n == frozen([[0, 0, Fraction(1, 2)], [0, -1, 0], [2, 0, 0]])

    def test_sl4_lift_of_paired_reflection(self):
        ctx = MatrixContext(4, twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        beta = rrs.restrict_root(ctx.datum.simple_root(0).coords)
        n = fixed_group_simple_lift(ctx, rrs, beta)
        w = rrs.levi_longest[beta]
        assert w.word == (0, 2)
        assert mat_eq(n, ctx.weyl_lift_matrix(w))

    def test_sl2_triples(self):
        for n in (3, 4, 5):
            ctx = MatrixContext(n, twisted=True)
            rrs = restrict_root_system(ctx.datum, ctx.theta)
            for beta in rrs.simple_restricted:
                x, h, y = restricted_root_vectors(ctx, rrs, beta)
                lhs = mat_mul(x, y)
                rhs = mat_mul(y, x)
                bracket = tuple(tuple(a - b for a, b in zip(ra, rb))
                                for ra, rb in zip(lhs, rhs))
                assert mat_eq(bracket, h)


def dense_inverse(a, field):
    """Reference Gauss-Jordan that updates every entry of every row; None
    for a singular matrix."""
    n = len(a)
    work = [list(row) + [field.one() if i == j else field.zero() for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != field.zero()), None)
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        inv_p = work[col][col] ** -1
        work[col] = [x * inv_p for x in work[col]]
        for r in range(n):
            if r != col:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def _random_entry(rng, field):
    if rng.random() < 0.6:
        return field.zero()
    x = field.embed(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if not field.char
                    else rng.randint(0, field.char - 1))
    if isinstance(field, QuadField) and rng.random() < 0.5:
        x = x + field.gen() * field.embed(rng.randint(-3, 3))
    return x


class TestSparseElimination:
    @pytest.mark.parametrize("field", [RationalField(), QuadField(5), PrimeField(7)],
                             ids=["Q", "Q(sqrt5)", "F7"])
    def test_mat_inv_matches_dense_gauss_jordan(self, field):
        rng = random.Random(3)
        inverted = singular = 0
        while inverted < 40:
            n = rng.randint(2, 6)
            a = tuple(tuple(_random_entry(rng, field) for _ in range(n)) for _ in range(n))
            want = dense_inverse(a, field)
            if want is None:
                singular += 1
                with pytest.raises(RealizationError):
                    mat_inv(a, field)
                continue
            got = mat_inv(a, field)
            assert got == want
            assert [type(x) for row in got for x in row] == \
                [type(x) for row in want for x in row]
            assert mat_eq(mat_mul(a, got), mat_identity(n, field))
            inverted += 1
        assert singular  # the draws are sparse enough to hit singular matrices

    # mat_det is forward elimination on a alone: the Leibniz sum, the first
    # value of mat_det_inv, and zero on singular draws
    @pytest.mark.parametrize("field", [RationalField(), QuadField(5), PrimeField(7)],
                             ids=["Q", "Q(sqrt5)", "F7"])
    def test_mat_det_matches_the_leibniz_sum(self, field):
        rng = random.Random(5)
        kind = type(field.one())
        counts = {True: 0, False: 0}
        while min(counts.values()) < 10:
            n = rng.randint(1, 5)
            a = tuple(tuple(_random_entry(rng, field) for _ in range(n)) for _ in range(n))
            got = mat_det(a, field)
            assert got == det_by_leibniz(a, field) == mat_det_inv(a, field)[0]
            assert type(got) is kind
            counts[bool(got)] += 1

    @pytest.mark.parametrize("a", [((2, 0), (0, 3)), ((0, 1), (1, 0)), ((1, 2), (2, 4)),
                                   ((1, 2, 0), (0, 1, 3), (4, 0, 1)),
                                   ((0, 0, 1, 0), (0, 2, 0, 0), (3, 0, 0, 1), (0, 1, 0, 5))])
    def test_mat_det_of_an_int_matrix_is_a_fraction(self, a):
        got = mat_det(a, RationalField())
        assert type(got) is Fraction
        assert got == det_by_leibniz(a, RationalField())

    # a non-square matrix is refused by the name of what was asked of it
    NON_SQUARE = [(((1, 2, 3), (4, 5, 6)), "2x3"), (((1, 2), (3, 4), (5, 6)), "3x2"),
                  (((1, 2), (3,)), "ragged 2-row")]

    @pytest.mark.parametrize("a, shape", NON_SQUARE)
    def test_mat_det_of_a_non_square_matrix_names_the_determinant(self, a, shape):
        with pytest.raises(RealizationError) as info:
            mat_det(a, RationalField())
        assert str(info.value) == \
            f"cannot take the determinant of a {shape} matrix: it is not square"

    @pytest.mark.parametrize("invert", [mat_inv, mat_det_inv])
    @pytest.mark.parametrize("a, shape", NON_SQUARE)
    def test_inverse_of_a_non_square_matrix_names_the_inverse(self, a, shape, invert):
        with pytest.raises(RealizationError) as info:
            invert(a, RationalField())
        assert str(info.value) == f"cannot invert a {shape} matrix: it is not square"


class TestPinningCache:
    CASES = [(n, f) for n in (3, 4, 5, 6) for f in (RationalField(), QuadField(5))]

    @pytest.mark.parametrize("n, field", CASES)
    def test_warm_cache_matches_fresh_context(self, n, field):
        warm = MatrixContext(n, field, twisted=True)
        rrs = restrict_root_system(warm.datum, warm.theta)
        for beta in rrs.simple_restricted:
            first = restricted_root_vectors(warm, rrs, beta)
            again = restricted_root_vectors(warm, rrs, beta)
            assert again is first
            fresh = MatrixContext(n, field, twisted=True)
            assert restricted_root_vectors(fresh, rrs, beta) == first
            x, h, y = again
            bracket = tuple(tuple(a - b for a, b in zip(ra, rb))
                            for ra, rb in zip(mat_mul(x, y), mat_mul(y, x)))
            assert mat_eq(bracket, h)

    # the simple lifts are cached beside the pinning; a lift through a warm
    # context is the one a fresh context builds, entry types included
    @pytest.mark.parametrize("n, d", [(n, d) for n in (3, 4, 5, 6) for d in (5, -1)])
    def test_warm_fixed_group_lift_matches_fresh_context(self, n, d):
        warm = MatrixContext(n, QuadField(d), twisted=True)
        rrs = restrict_root_system(warm.datum, warm.theta)
        omegas = rrs.fixed_weyl_subgroup()
        for omega in omegas:
            fixed_group_lift(warm, rrs, omega)
        for omega in omegas:
            got = fixed_group_lift(warm, rrs, omega)
            want = fixed_group_lift(MatrixContext(n, QuadField(d), twisted=True), rrs, omega)
            assert got == want
            assert all(type(x) is QuadNum for row in got for x in row)
            assert all(type(x) is QuadNum for row in want for x in row)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_warm_cache_still_rejects_non_simple_roots(self, n):
        ctx = MatrixContext(n, twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        for beta in rrs.simple_restricted:
            restricted_root_vectors(ctx, rrs, beta)
        others = [b for b in rrs.restricted if b not in rrs.simple_restricted]
        assert others
        for beta in others:
            with pytest.raises(RealizationError, match="not a simple restricted root"):
                restricted_root_vectors(ctx, rrs, beta)


class TestFixedGroupLiftCache:
    """fixed_group_lift keeps each lift in the context's ``_lift_cache``,
    keyed by the permutations of theta and omega, beside the Weyl lifts."""

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    @pytest.mark.parametrize("field", [RationalField(), QuadField(5)], ids=["Q", "Q(sqrt5)"])
    def test_cached_lift_is_the_product_along_the_word(self, n, field):
        ctx = MatrixContext(n, field, twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        # built apart: equal permutations, other objects
        apart = MatrixContext(n, field, twisted=True)
        rrs_apart = restrict_root_system(apart.datum, apart.theta)
        omegas = rrs.fixed_weyl_subgroup()
        assert len(omegas) == {3: 2, 4: 8, 5: 8, 6: 48, 7: 48}[n]
        for omega in omegas:
            fresh = mat_identity(n, field)
            for gi in rrs.res_word_of(omega):
                fresh = mat_mul(fresh, fixed_group_simple_lift(
                    apart, rrs_apart, rrs_apart.simple_restricted[gi]))
            got = fixed_group_lift(ctx, rrs, omega)
            assert got == fresh
            assert fixed_group_lift(ctx, rrs, omega) is got
            twin = next(w for w in rrs_apart.fixed_weyl_subgroup() if w.perm == omega.perm)
            assert twin is not omega and fixed_group_lift(ctx, rrs_apart, twin) is got
        # the Weyl lifts share the cache: the lifts of w0 still differ by the
        # half-coroot product
        check_nn_prime(rrs, ctx.datum.longest_element(), ctx)
        with pytest.raises(RootDatumError, match="not in the fixed Weyl subgroup"):
            fixed_group_lift(ctx, rrs, ctx.datum.simple_reflection(0))    # theta moves it


class TestSl2EmbedAtZeroCorner:
    """sl2_embed writes an SL(2) point with a = 0 through the fixed group's
    Weyl lift, and one with a != 0 as lower * torus * upper; the two agree
    when the image of g = g1 g2, with a = 0, is the product of the images
    of g1 and g2, with a != 0."""

    @pytest.mark.parametrize("field", [RationalField(), QuadField(5), PrimeField(7)],
                             ids=["Q", "Q(sqrt5)", "F7"])
    @pytest.mark.parametrize("n", [3, 5])
    def test_homomorphism_through_a_zero_corner(self, n, field):
        ctx = MatrixContext(n, field, twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        for u, v, s in ((1, 1, 1), (2, 3, -1), (Fraction(1, 2), -1, 3)):
            t = -u * v / Fraction(s)          # u v + s t = 0
            g1 = ((u, s), (0, 1 / Fraction(u)))
            g2 = ((v, 0), (t, 1 / Fraction(v)))
            g = ((0, s / Fraction(v)), (t / u, 1 / Fraction(u * v)))
            for beta in rrs.simple_restricted:
                image = sl2_embed(ctx, rrs, beta, g)
                assert mat_eq(image, mat_mul(sl2_embed(ctx, rrs, beta, g1),
                                             sl2_embed(ctx, rrs, beta, g2))), (beta, u, v, s)
                assert ctx.theta_fixed(image), (beta, u, v, s)
                assert mat_det(image, field) == field.one(), (beta, u, v, s)


class TestAppendixVerification:
    def test_over_q(self):
        ctx = MatrixContext(3, twisted=True)
        checks = verify_appendix(ctx)
        assert all(ok for _, ok in checks), [n for n, ok in checks if not ok]

    def test_over_f5(self):
        f = PrimeField(5)
        assert f.half() == f.embed(3)
        ctx = MatrixContext(3, f, twisted=True)
        checks = verify_appendix(ctx)
        assert all(ok for _, ok in checks), [n for n, ok in checks if not ok]

    def test_f2_rejected(self):
        with pytest.raises(CoefficientError):
            PrimeField(2)

    def test_requires_twisted_sl3(self):
        with pytest.raises(RealizationError):
            verify_appendix(MatrixContext(3))
        with pytest.raises(RealizationError):
            verify_appendix(MatrixContext(4, twisted=True))


def test_exp_nilpotent_factorial_guard():
    f = PrimeField(3)
    ctx = MatrixContext(5, f, twisted=False)
    x = [[f.zero()] * 5 for _ in range(5)]
    for i in range(4):
        x[i][i + 1] = f.one()
    with pytest.raises(RealizationError):
        exp_nilpotent(tuple(tuple(r) for r in x), f)


# -- Q(sqrt d) products by the sparse row kernel ---------------------------------

def generic_mat_mul(a, b):
    """The entrywise sum of products that mat_mul keeps over Q and F_p: the
    reference for its Q(sqrt d) path."""
    n, m, k = len(a), len(b[0]), len(b)
    return tuple(tuple(sum((a[i][t] * b[t][j] for t in range(1, k)),
                           a[i][0] * b[0][j]) for j in range(m)) for i in range(n))


small_fraction = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def zero_entry(d):
    return st.sampled_from([0, Fraction(0), QuadNum(0, 0, d)])


@st.composite
def quad_entry(draw, d):
    """Mostly zeros (in all three types), then int and Fraction entries,
    rational-only QuadNums and general ones with mixed denominators."""
    kind = draw(st.sampled_from(["zero", "zero", "zero", "int", "fraction",
                                 "rational", "quad", "quad"]))
    if kind == "zero":
        return draw(zero_entry(d))
    if kind == "int":
        return draw(st.integers(-9, 9))
    if kind == "fraction":
        return draw(small_fraction)
    if kind == "rational":
        return QuadNum(draw(small_fraction), 0, d)
    return QuadNum(draw(small_fraction), draw(small_fraction), d)


SHAPES = st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5))
THIN_SHAPES = st.sampled_from([(1, k, 1) for k in (1, 2, 5)] + [(1, 4, 3), (3, 4, 1),
                                                               (5, 1, 5), (4, 1, 1),
                                                               (1, 1, 4)])


@st.composite
def quad_product(draw, shape=SHAPES):
    """(d, a, b) with a n x k and b k x m; the first entry of a or of b is a
    QuadNum, which is what selects the Q(sqrt d) path."""
    d = draw(st.sampled_from([5, -1]))
    n, k, m = draw(shape)
    a = [[draw(quad_entry(d)) for _ in range(k)] for _ in range(n)]
    b = [[draw(quad_entry(d)) for _ in range(m)] for _ in range(k)]
    # all-zero rows of a and columns of b, in the three types of zero
    for i in draw(st.sets(st.integers(0, n - 1))):
        a[i] = [draw(zero_entry(d)) for _ in range(k)]
    for j in draw(st.sets(st.integers(0, m - 1))):
        for row in b:
            row[j] = draw(zero_entry(d))
    corner = a if draw(st.booleans()) else b
    corner[0][0] = QuadField(d).embed(corner[0][0])
    return d, tuple(map(tuple, a)), tuple(map(tuple, b))


class TestQuadMatMul:
    @staticmethod
    def check_bit_for_bit(case):
        d, a, b = case
        got = mat_mul(a, b)
        want = generic_mat_mul(a, b)
        assert (len(got), len(got[0])) == (len(a), len(b[0]))
        field = QuadField(d)
        for got_row, want_row in zip(got, want):
            for x, y in zip(got_row, want_row):
                y = field.embed(y)
                assert type(x) is QuadNum
                assert (x.a, x.b, x.c, x.d) == (y.a, y.b, y.c, y.d)
                assert x == y and hash(x) == hash(y)

    @settings(max_examples=200, deadline=None)
    @given(quad_product())
    def test_matches_the_generic_sum_bit_for_bit(self, case):
        self.check_bit_for_bit(case)

    # 1 x k, k x 1 and 1 x 1 factors, where a row kernel has one row or
    # one column to fill
    @settings(max_examples=100, deadline=None)
    @given(quad_product(THIN_SHAPES))
    def test_thin_shapes_match_the_generic_sum_bit_for_bit(self, case):
        self.check_bit_for_bit(case)

    @settings(max_examples=50, deadline=None)
    @given(quad_product(), st.data())
    def test_mixed_extensions_raise(self, case, data):
        d, a, b = case
        # a QuadNum of the other d anywhere but the corners, which keep the
        # QuadNum of d that selects the path; a zero of the other d raises
        # too, though it contributes no product
        places = [(side, i, j) for side, m in (("a", a), ("b", b))
                  for i in range(len(m)) for j in range(len(m[0])) if (i, j) != (0, 0)]
        assume(places)
        side, i, j = data.draw(st.sampled_from(places))
        other = -1 if d == 5 else 5
        for alien in (QuadNum(data.draw(small_fraction), 1, other),
                      QuadNum(0, 0, other)):
            rows = [list(row) for row in (a if side == "a" else b)]
            rows[i][j] = alien
            rows = tuple(map(tuple, rows))
            with pytest.raises(CoefficientError, match="mixed quadratic extensions"):
                mat_mul(rows, b) if side == "a" else mat_mul(a, rows)
