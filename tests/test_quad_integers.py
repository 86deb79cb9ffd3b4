"""The Q(sqrt d) kernels of the matrix oracle that read each entry's integers
in place, against the references in ``quad_reference``, and the oracle's
refusal of matrices of the wrong shape."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quad_reference import (dtheta_apply_by_j_products, galois_apply_by_field_conj,
                            inv_by_fraction, theta_apply_by_j_products,
                            theta_fixed_by_full_product)
from splitinv.coeffs import PrimeField, QuadField, QuadNum, RationalField
from splitinv.errors import CoefficientError, RealizationError
from splitinv.matoracle import (MatrixContext, mat_add, mat_det, mat_det_inv, mat_eq,
                                mat_identity, mat_mul, mat_transpose)
from splitinv.rootdata import restrict_root_system
from splitinv.splitting import Realization, sample_h_twisted

DS = [5, -1, 2, -3, 7]
rationals = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4)


class TestInv:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(DS), rationals, rationals)
    def test_matches_the_fraction_route_in_all_four_integers(self, d, u, v):
        x = QuadNum(u, v, d)
        if not x:
            with pytest.raises(CoefficientError, match=r"inverse of zero in Q\(sqrt\(d\)\)"):
                x.inv()
            return
        got, want = x.inv(), inv_by_fraction(x)
        assert type(got) is QuadNum
        assert got._v == want._v
        assert x * got == QuadNum(1, 0, d)

    @pytest.mark.parametrize("d", DS)
    def test_zero_is_refused(self, d):
        with pytest.raises(CoefficientError, match=r"inverse of zero in Q\(sqrt\(d\)\)"):
            QuadNum(0, 0, d).inv()

    def test_negative_norm(self):
        # (3 + 2 sqrt 5)(3 - 2 sqrt 5) = -11, so 1/x = (-3 + 2 sqrt 5)/11
        assert QuadNum(3, 2, 5).inv()._v == (-3, 2, 11, 5)
        assert inv_by_fraction(QuadNum(3, 2, 5))._v == (-3, 2, 11, 5)


@st.composite
def quad_matrix(draw, d):
    """A square matrix of ints, Fractions and QuadNums of d, zeros among them."""
    n = draw(st.integers(2, 5))
    small = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    entry = st.one_of(st.just(0), st.integers(-5, 5), small,
                      st.builds(lambda u: QuadNum(u, 0, d), small),
                      st.builds(lambda u, v: QuadNum(u, v, d), small, small))
    return tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))


class TestGaloisApply:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(DS).flatmap(lambda d: st.tuples(st.just(d), quad_matrix(d))),
           st.integers(0, 3))
    def test_matches_the_field_conjugation_bit_for_bit(self, case, k):
        d, g = case
        ctx = MatrixContext(len(g), QuadField(d))
        got, want = ctx.galois_apply(g, k), galois_apply_by_field_conj(ctx, g, k)
        assert [[type(x) for x in row] for row in got] == \
            [[type(x) for x in row] for row in want]
        assert [[getattr(x, "_v", x) for x in row] for row in got] == \
            [[getattr(x, "_v", x) for x in row] for row in want]

    @pytest.mark.parametrize("alien", [0.5, "1", QuadNum(1, 1, -1), QuadNum(0, 0, -1)])
    def test_foreign_entry_raises_the_same_error(self, alien):
        ctx = MatrixContext(2, QuadField(5))
        g = ((1, alien), (0, 1))
        with pytest.raises(CoefficientError) as want:
            galois_apply_by_field_conj(ctx, g)
        with pytest.raises(CoefficientError) as got:
            ctx.galois_apply(g)
        assert str(got.value) == str(want.value)


def _theta_fixed_samples(d):
    for n in range(2, 8):
        ctx = MatrixContext(n, QuadField(d), twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        for seed in range(3):
            seeds = [(rrs.simple_restricted[seed % len(rrs.simple_restricted)], None)]
            yield ctx, sample_h_twisted(ctx, rrs, random.Random(100 * n + seed), seeds=seeds)


class TestThetaFixed:
    @pytest.mark.parametrize("d", [5, -1])
    def test_fixed_conjugators_match_the_full_product(self, d):
        parities = set()
        for ctx, h in _theta_fixed_samples(d):
            assert ctx.theta_fixed(h) and theta_fixed_by_full_product(ctx, h)
            parities.add(ctx.n % 2)
        assert parities == {0, 1}

    @pytest.mark.parametrize("d", [5, -1])
    def test_single_entry_perturbations_match_the_full_product(self, d):
        """Adding delta to h[i][k] adds delta s v^T to row i of h J h^T and
        delta s' v to its column i, s and s' signs and v column n-1-k of h;
        so wherever v is nonzero outside row i the result is not fixed.
        Elsewhere (h diagonal in SL(2), say, where g J g^T = det(g) J) it
        may stay fixed, and the two tests must still agree."""
        refused = 0
        for ctx, h in _theta_fixed_samples(d):
            f, n = ctx.field, ctx.n
            for i in range(n):
                for k in range(n):
                    delta = (f.one(), f.gen(), f.half())[(i + k) % 3]
                    g = [list(row) for row in h]
                    g[i][k] = g[i][k] + delta
                    got = ctx.theta_fixed(g)
                    assert got == theta_fixed_by_full_product(ctx, g)
                    if any(h[r][n - 1 - k] for r in range(n) if r != i):
                        assert got is False
                        refused += 1
        assert refused > 100

    @pytest.mark.parametrize("field", [RationalField(), PrimeField(7)], ids=["Q", "F7"])
    def test_q_and_fp_keep_the_product(self, field):
        rng = random.Random(1)
        for n in range(2, 6):
            ctx = MatrixContext(n, field, twisted=True)
            for _ in range(20):
                g = tuple(tuple(field.embed(rng.randint(-1, 1)) for _ in range(n))
                          for _ in range(n))
                assert ctx.theta_fixed(g) == theta_fixed_by_full_product(ctx, g)

    def test_foreign_entry_is_refused(self):
        ctx = MatrixContext(3, QuadField(5), twisted=True)
        g = [list(row) for row in ctx.J]
        g[1][2] = QuadNum(1, 1, -1)
        with pytest.raises(CoefficientError, match="mixed quadratic extensions"):
            ctx.theta_fixed(g)


FLIP_FIELDS = [RationalField(), PrimeField(7), QuadField(5), QuadField(-1)]
FLIP_IDS = ["Q", "F7", "Q(sqrt5)", "Q(sqrt-1)"]


def _random_matrix(f, n, rng):
    """n x n field elements a/b with |a| <= 3, b <= 3, zeros among them, plus
    a multiple of sqrt(d) in about half the entries over Q(sqrt d)."""
    def entry():
        x = f.embed(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        if isinstance(f, QuadField) and rng.random() < 0.5:
            x = x + f.gen() * rng.randint(-2, 2)
        return x
    return tuple(tuple(entry() for _ in range(n)) for _ in range(n))


def _typed(m):
    return [[(type(x), getattr(x, "_v", x)) for x in row] for row in m]


class TestThetaFlip:
    """theta_apply and dtheta_apply, the signed anti-transposes of g^-1 and
    of x, against J (g^-1)^T J^-1 and -J x^T J^-1 summed as field products:
    the same values and entry types for n = 2..7; and the theta test on
    products that differ from 1 only off the diagonal or only in sqrt(d)."""

    @pytest.mark.parametrize("field", FLIP_FIELDS, ids=FLIP_IDS)
    def test_theta_apply_matches_the_j_products(self, field):
        rng = random.Random(f"theta {field.name}")
        for n in range(2, 8):
            ctx = MatrixContext(n, field, twisted=True)
            checked = 0
            while checked < 4:
                g = _random_matrix(field, n, rng)
                if not mat_det(g, field):
                    continue
                got = ctx.theta_apply(g)
                assert _typed(got) == _typed(theta_apply_by_j_products(ctx, g))
                assert mat_eq(ctx.theta_apply(got), g)
                checked += 1

    @pytest.mark.parametrize("field", FLIP_FIELDS, ids=FLIP_IDS)
    def test_dtheta_apply_matches_the_j_products(self, field):
        rng = random.Random(f"dtheta {field.name}")
        for n in range(2, 8):
            ctx = MatrixContext(n, field, twisted=True)
            for _ in range(4):
                x = _random_matrix(field, n, rng)
                got = ctx.dtheta_apply(x)
                assert _typed(got) == _typed(dtheta_apply_by_j_products(ctx, x))
                assert mat_eq(ctx.dtheta_apply(got), x)

    @pytest.mark.parametrize("field", FLIP_FIELDS, ids=FLIP_IDS)
    def test_a_singular_g_is_refused_and_never_fixed(self, field):
        for n in range(2, 8):
            ctx = MatrixContext(n, field, twisted=True)
            g = list(mat_identity(n, field))
            g[-1] = g[0]
            with pytest.raises(RealizationError, match="singular matrix"):
                ctx.theta_apply(g)
            assert not ctx.theta_fixed(g)

    @pytest.mark.parametrize("field", FLIP_FIELDS, ids=FLIP_IDS)
    def test_errors_come_in_order(self, field):
        """No automorphism first, then the shape, then the arithmetic."""
        untwisted, twisted = MatrixContext(3, field), MatrixContext(3, field, twisted=True)
        zero2 = ((field.zero(),) * 2,) * 2
        for name in ("theta_apply", "theta_fixed", "dtheta_apply"):
            for g in (mat_identity(3, field), zero2):
                with pytest.raises(RealizationError, match="context carries no automorphism"):
                    getattr(untwisted, name)(g)
            with pytest.raises(RealizationError, match="3x3 matrix on SL.3., not a 2x2"):
                getattr(twisted, name)(zero2)

    @pytest.mark.parametrize("d", [5, -1])
    def test_a_product_off_one_only_in_sqrt_d_is_not_fixed(self, d):
        """diag(c, 1, ..., 1) times its flip is diag(c, 1, ..., 1, c); for
        c = 1 + sqrt(d) its rows agree with those of 1 in A and C."""
        f = QuadField(d)
        c = f.one() + f.gen()
        for n in range(2, 8):
            ctx = MatrixContext(n, f, twisted=True)
            g = tuple(tuple((c if i == 0 else f.one()) if i == j else f.zero() for j in range(n))
                      for i in range(n))
            assert not ctx.theta_fixed(g) and not theta_fixed_by_full_product(ctx, g)

    @pytest.mark.parametrize("field", FLIP_FIELDS, ids=FLIP_IDS)
    def test_a_product_off_one_only_off_the_diagonal_is_not_fixed(self, field):
        """1 + E_01 times its flip 1 - E_(n-2)(n-1) has diagonal 1 and, for
        n >= 3, nonzero entries off it; in SL(2), where g J g^T = det(g) J,
        it is fixed."""
        for n in range(2, 8):
            ctx = MatrixContext(n, field, twisted=True)
            g = [list(row) for row in mat_identity(n, field)]
            g[0][1] = field.one()
            assert ctx.theta_fixed(g) is theta_fixed_by_full_product(ctx, g) is (n == 2)

    def test_entries_of_another_quadratic_field_are_refused(self):
        """The theta test reads g in the context's Q(sqrt 5), whatever field
        the entries claim."""
        ctx = MatrixContext(3, QuadField(5), twisted=True)
        with pytest.raises(CoefficientError, match="mixed quadratic extensions"):
            ctx.theta_fixed(MatrixContext(3, QuadField(-1), twisted=True).J)

    def test_int_entries_over_f7_are_read_in_the_field(self):
        ctx = MatrixContext(4, PrimeField(7), twisted=True)
        assert ctx.theta_fixed(tuple(tuple(8 * (i == j) for j in range(4)) for i in range(4)))
        assert not ctx.theta_fixed(tuple(tuple(2 * (i == j) for j in range(4)) for i in range(4)))


class TestMatEq:
    @pytest.mark.parametrize("field", [RationalField(), QuadField(5)], ids=["Q", "Q(sqrt5)"])
    def test_shapes(self, field):
        i2, i3 = mat_identity(2, field), mat_identity(3, field)
        assert not mat_eq(i2, i3) and not mat_eq(i3, i2)
        assert not mat_eq(i3, i3[:2]) and not mat_eq(i3, tuple(r[:2] for r in i3))
        assert mat_eq(i3, [list(r) for r in i3])
        assert mat_eq(i3, tuple(tuple(int(x == field.one()) for x in r) for r in i3))


SL3 = MatrixContext(3, QuadField(5), twisted=True)
SL3_Q = MatrixContext(3, twisted=True)
I2 = mat_identity(2, QuadField(5))
I3 = mat_identity(3, QuadField(5))


class TestWrongShapes:
    CASES = [
        ("theta_fixed 2x3", lambda: SL3.theta_fixed(SL3.J[:2]), "2x3"),
        ("theta_fixed 2x2", lambda: SL3.theta_fixed(tuple(r[:2] for r in SL3.J[:2])), "2x2"),
        ("theta_fixed 2x3 over Q", lambda: SL3_Q.theta_fixed(SL3_Q.J[:2]), "2x3"),
        ("theta_apply", lambda: SL3.theta_apply(I2), "2x2"),
        ("dtheta_apply", lambda: SL3.dtheta_apply(I2), "2x2"),
        ("galois_apply", lambda: SL3.galois_apply(I2), "2x2"),
        ("galois_apply, even k", lambda: SL3.galois_apply(I2, 2), "2x2"),
        ("torus_coords_of_diagonal", lambda: SL3.torus_coords_of_diagonal(I2), "2x2"),
        ("ragged", lambda: SL3.theta_fixed((I3[0], I3[1][:2], I3[2])), "ragged 3-row"),
        ("mat_det_inv 2x3", lambda: mat_det_inv(((1, 2, 3), (4, 5, 6)), RationalField()),
         "2x3"),
        ("mat_mul over Q(sqrt5)", lambda: mat_mul(I2, I3), "2x2 matrix by a 3x3"),
        ("mat_mul over Q", lambda: mat_mul(mat_identity(2, RationalField()),
                                           mat_identity(3, RationalField())),
         "2x2 matrix by a 3x3"),
        ("mat_mul of an empty matrix", lambda: mat_mul((), I3), "0x0 matrix by a 3x3"),
        ("mat_mul by a ragged matrix", lambda: mat_mul(I2, (I2[0], I2[1][:1])),
         "2x2 matrix by a ragged 2-row"),
        ("mat_add over Q", lambda: mat_add(mat_identity(2, RationalField()),
                                           mat_identity(3, RationalField())),
         "2x2 matrix and a 3x3"),
        ("mat_add 1x2 and 2x1", lambda: mat_add(((1, 2),), ((1,), (2,))), "1x2 matrix and a 2x1"),
        ("mat_add of empty matrices", lambda: mat_add((), ()), "0x0 matrix and a 0x0"),
        ("mat_add of a ragged matrix", lambda: mat_add((I2[0], I2[1][:1]), I2),
         "ragged 2-row matrix and a 2x2"),
        ("mat_transpose of a ragged matrix", lambda: mat_transpose((I3[0], I3[1][:2], I3[2])),
         "ragged 3-row"),
        ("mat_transpose of an empty matrix", lambda: mat_transpose(()), "0x0"),
        ("mat_transpose of empty rows", lambda: mat_transpose(((), ())), "2x0"),
        ("Realization of a 2x2 h", lambda: Realization(SL3, I2), "3x3 matrix on SL.3., not a 2x2"),
        ("Realization of an empty h", lambda: Realization(SL3, ()), "not a 0x0"),
        ("Realization of h None", lambda: Realization(SL3, None), "None is not a matrix"),
        ("Realization of a string h", lambda: Realization(SL3, "abc"), "'abc' is not a matrix"),
        ("Realization of an int h", lambda: Realization(SL3, 3), "3 is not a matrix"),
    ]

    @pytest.mark.parametrize("call, shape", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
    def test_refused_naming_the_shape(self, call, shape):
        with pytest.raises(RealizationError, match=shape):
            call()

    def test_square_shapes_still_pass(self):
        assert SL3.theta_fixed(SL3.J) and SL3_Q.theta_fixed(SL3_Q.J)
        assert mat_det_inv(((2, 1), (1, 1)), RationalField()) == \
            (Fraction(1), ((Fraction(1), Fraction(-1)), (Fraction(-1), Fraction(2))))
        assert mat_mul(((1, 2, 3),), ((1,), (1,), (1,))) == ((6,),)
        assert mat_add(((1, 2),), ((3, 4),)) == ((4, 6),)
        assert mat_transpose(((1, 2, 3),)) == ((1,), (2,), (3,))
