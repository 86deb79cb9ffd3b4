"""The Q(sqrt d) kernels of the matrix oracle that read each entry's integers
in place, against the references in ``quad_reference``, and the oracle's
refusal of matrices of the wrong shape."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quad_reference import (galois_apply_by_field_conj, inv_by_fraction,
                            theta_fixed_by_full_product)
from splitinv.coeffs import PrimeField, QuadField, QuadNum, RationalField
from splitinv.errors import CoefficientError, RealizationError
from splitinv.matoracle import (MatrixContext, mat_det_inv, mat_eq, mat_identity, mat_mul)
from splitinv.rootdata import restrict_root_system
from splitinv.splitting import sample_h_twisted

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
