"""The cocycle identity with sigma^0 checked once, against the all-pairs
reference; t(sigma^0) = h h^-1 tested directly at the t-level; exact
inverses from ``mat_det_inv``; and the constructors on the cocycle path
refusing a malformed argument by name."""

import random
import re
from fractions import Fraction

import pytest

from splitinv.coeffs import Fp, PrimeField, QuadField, QuadNum, RationalField, SymUnit
from splitinv.errors import ADataError, CoefficientError, DescentError, RealizationError
from splitinv.matoracle import (MatrixContext, mat_det_inv, mat_eq, mat_identity, mat_mul,
                                mat_scalar)
from splitinv.rootdata import (PinnedAutomorphism, analyze_weyl, build_root_datum,
                               restrict_root_system)
from splitinv.splitting import (DescentDatum, Realization, _symbolic_adata,
                                compare_fixed_vs_twisted, equivariant_quad_adata,
                                lambda_twisted, sample_h_twisted)
from splitinv.tits import (TitsElement, TorusElement, m_cocycle, tits_lift,
                           verify_cocycle_identity)

from cocycle_reference import verify_cocycle_identity_all_pairs


def _outcome(check, values, order, act):
    """None when check passes values, else the pair its ADataError names."""
    try:
        check(values, order, act)
    except ADataError as exc:
        return re.search(r"\(sigma\^\d+, sigma\^\d+\)", str(exc)).group()
    return None


def _agree_on_every_corruption(values, order, act, corruptions):
    """Corrupt one value at a time, sigma^0 included, with each corruption:
    the reduced check and the reference fail together, at the same pair.
    Returns, for each k, how many of the cochains corrupted at k they refused."""
    for check in (verify_cocycle_identity, verify_cocycle_identity_all_pairs):
        assert _outcome(check, values, order, act) is None
    refused = [0] * order
    for k in range(order):
        for corrupt in corruptions:
            bad = dict(values)
            bad[k] = corrupt(values, k)
            want = _outcome(verify_cocycle_identity_all_pairs, bad, order, act)
            assert _outcome(verify_cocycle_identity, bad, order, act) == want, (k, corrupt)
            refused[k] += want is not None
    return refused


def _torus_corruptions(scale):
    """Corruptions of torus points: the first coordinate negated, the last
    multiplied by scale, every coordinate one, and the next value put in."""
    def negated(values, k):
        c = values[k].coords
        return TorusElement((-c[0],) + c[1:])

    def scaled(values, k):
        c = values[k].coords
        return TorusElement(c[:-1] + (c[-1] * scale,))

    def ones(values, k):
        c = values[k].coords
        return TorusElement.ones(len(c), c[0] ** 0)

    def next_value(values, k):
        return values[(k + 1) % len(values)]

    return [negated, scaled, ones, next_value]


# (label, families, order, omega_T word (1-based), sigma_T, theta)
M_LEVEL_CASES = [
    ("A2 flip", [("A", 2)], 2, [1, 2, 1], None, (1, 0)),
    ("D4 triality quasi-split", [("D", 4)], 3, [], (2, 1, 3, 0), None),
    ("A2xA2 order-4 twist", [("A", 2), ("A", 2)], 4, [], (2, 3, 1, 0), None),
    ("D4 s1 and triality", [("D", 4)], 6, [1], (2, 1, 3, 0), None),
]


@pytest.mark.parametrize("label,families,order,word,sigma,theta", M_LEVEL_CASES,
                         ids=[c[0] for c in M_LEVEL_CASES])
def test_m_level_reduced_check_agrees_with_all_pairs(label, families, order, word, sigma,
                                                     theta):
    d = build_root_datum(families)
    base = DescentDatum(d, order, analyze_weyl(d, word, one_based=True),
                        None if sigma is None else PinnedAutomorphism(d, sigma))
    theta = None if theta is None else PinnedAutomorphism(d, theta)
    adata, action = _symbolic_adata(d, base, theta)
    desc = base.with_field_action(action)
    values = m_cocycle(d, desc, adata, theta)
    assert len(values) == order
    one = SymUnit.one()
    torus = [lambda values, k, c=c: TitsElement(c(
        {j: v.torus for j, v in values.items()}, k), values[k].weyl)
        for c in _torus_corruptions(SymUnit.gen("z"))]

    def times_simple_lift(values, k):
        return values[k] * tits_lift(d, d.simple_reflection(0), one)

    def unit(values, k):
        return TitsElement(TorusElement.ones(d.rank, one), d.identity_weyl())

    refused = _agree_on_every_corruption(values, order, desc.galois_on_tits,
                                         torus + [times_simple_lift, unit])
    assert min(refused) >= 3


T_LEVEL_CASES = [(n, dval) for n in (3, 4, 5) for dval in (5, -1)]


def _twisted_comparison(n, dval, seed=7):
    f = QuadField(dval)
    ctx = MatrixContext(n, f, twisted=True)
    rrs = restrict_root_system(ctx.datum, ctx.theta)
    rng = random.Random(seed * 100 + n * 10 + dval)
    h = sample_h_twisted(ctx, rrs, rng, seeds=[(rrs.simple_restricted[0], None)])
    real = Realization(ctx, h, use_theta=True)
    spec = equivariant_quad_adata(rrs, real.descent, f, rng, special=True)
    return ctx, rrs, real, spec


@pytest.mark.parametrize("n,dval", T_LEVEL_CASES)
def test_t_level_reduced_check_agrees_with_all_pairs(n, dval):
    ctx, rrs, real, spec = _twisted_comparison(n, dval)
    rep = compare_fixed_vs_twisted(rrs, real.descent, spec, ctx=ctx, realization=real)
    coc = rep.t_cocycle
    assert coc.values[0].is_one and coc.matrices[0] == mat_identity(n, ctx.field)
    refused = _agree_on_every_corruption(coc.values, 2, coc.descent.galois_on_torus_twisted,
                                         _torus_corruptions(ctx.field.gen()))
    assert min(refused) >= 2


# h^-1 off by a scalar c: t(sigma^0) = h (c h^-1) = c is not 1.  With c = -1
# every other t-level check still holds: h m sigma(h)^-1 and h diag h^-1
# both change sign, and the transported diagonal does not involve h^-1
@pytest.mark.parametrize("n,dval", [(3, 5), (4, -1), (5, 5)])
@pytest.mark.parametrize("scalar", [-1, 2, "gen"])
def test_h_inverse_off_by_a_scalar_fails_at_sigma_0(n, dval, scalar):
    ctx, rrs, real, spec = _twisted_comparison(n, dval)
    f = ctx.field
    c = f.gen() if scalar == "gen" else f.embed(scalar)
    real.h_inv = mat_scalar(real.h_inv, c)
    message = r"t\(sigma\^0\) = h h\^-1 is not the identity"
    with pytest.raises(RealizationError, match=message):
        compare_fixed_vs_twisted(rrs, real.descent, spec, ctx=ctx, realization=real)
    with pytest.raises(RealizationError, match=message):
        lambda_twisted(ctx.datum, ctx.theta, real.descent, spec.tilde().pullback(), real)


def test_sigma_0_not_one_is_named():
    d = build_root_datum([("A", 2)])
    desc = DescentDatum(d, 2, d.longest_element())
    one = Fraction(1)
    lift = tits_lift(d, d.identity_weyl(), one)
    bad = TitsElement(TorusElement((one, -one)), d.identity_weyl())
    with pytest.raises(ADataError, match=r"\(sigma\^0, sigma\^0\): the value at sigma\^0 is "):
        verify_cocycle_identity({0: bad, 1: lift}, 2, desc.galois_on_tits)
    w = TitsElement(TorusElement((one, one)), d.simple_reflection(0))
    with pytest.raises(ADataError, match=r"\(sigma\^0, sigma\^0\)"):
        verify_cocycle_identity({0: w, 1: lift}, 2, desc.galois_on_tits)


# ---------------------------------------------------------------------------
# mat_det_inv reads every entry through field.embed
# ---------------------------------------------------------------------------

FIELDS = [("Q", RationalField(), Fraction), ("F7", PrimeField(7), Fp),
          ("Q(sqrt 5)", QuadField(5), QuadNum), ("Q(sqrt -1)", QuadField(-1), QuadNum)]
INT_MATRICES = [((2, 0), (0, 3)), ((2, 1), (1, 1)), ((1, 2, 0), (0, 1, 3), (4, 0, 1)),
                ((0, 1, 0), (1, 0, 0), (0, 0, -1))]


@pytest.mark.parametrize("name,field,kind", FIELDS, ids=[f[0] for f in FIELDS])
@pytest.mark.parametrize("a", INT_MATRICES)
def test_mat_det_inv_of_int_matrix_is_exact(name, field, kind, a):
    det, inv = mat_det_inv(a, field)
    exact = tuple(tuple(map(field.embed, row)) for row in a)
    assert (det, inv) == mat_det_inv(exact, field)
    assert type(det) is kind and all(type(x) is kind for row in inv for x in row)
    assert mat_eq(mat_mul(exact, inv), mat_identity(len(a), field))


def test_mat_det_inv_over_q_and_f7():
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert mat_det_inv(((2, 0), (0, 3)), RationalField()) == (Fraction(6), ((half, 0), (0, third)))
    f = PrimeField(7)
    det, inv = mat_det_inv(((2, 1), (1, 1)), f)
    assert det == f.one() and inv == ((f.embed(1), f.embed(-1)), (f.embed(-1), f.embed(2)))


@pytest.mark.parametrize("name,field,kind", FIELDS, ids=[f[0] for f in FIELDS])
@pytest.mark.parametrize("entry", [0.5, 2.0, "2", None])
def test_mat_det_inv_refuses_an_inexact_entry(name, field, kind, entry):
    with pytest.raises(CoefficientError):
        mat_det_inv(((1, 0), (0, entry)), field)


def test_mat_det_inv_singular_int_matrix():
    assert mat_det_inv(((1, 2), (2, 4)), RationalField()) == (Fraction(0), None)


# ---------------------------------------------------------------------------
# constructors on the cocycle path refuse by name
# ---------------------------------------------------------------------------

BAD_H = [((1, 0), (0, 1)), (), None, "abc", ((1, 0, 0), (0, 1, 0)),
         ((1, 0, 0), (0, 1, 0), (0, 0)), ((1, 0, 0), (0, 1, 0), (0, 0, 1.0)),
         ((1, 0, 0), (0, 1, 0), (0, 0, "x")), ((1, 0, 0), (0, 1, 0), (0, 0, QuadNum(1, 0, 3)))]


@pytest.mark.parametrize("h", BAD_H, ids=range(len(BAD_H)))
def test_realization_refuses_a_malformed_h(h):
    ctx = MatrixContext(3, QuadField(5), twisted=True)
    with pytest.raises(RealizationError, match=r"^h "):
        Realization(ctx, h)


def test_realization_takes_an_int_matrix():
    f = QuadField(5)
    ctx = MatrixContext(3, f, twisted=True)
    real = Realization(ctx, ((1, 0, 0), (0, 1, 0), (0, 0, 1)), use_theta=True)
    assert real.h == mat_identity(3, f) and real.h_inv == mat_identity(3, f)
    assert real.omega.is_identity


def _bad_descents():
    d, other = build_root_datum([("A", 2)]), build_root_datum([("A", 2)])
    w0 = d.longest_element()
    return [
        ("order", lambda: DescentDatum(d, 2.0, w0)),
        ("order", lambda: DescentDatum(d, True, w0)),
        ("order", lambda: DescentDatum(d, "2", w0)),
        ("datum", lambda: DescentDatum("A2", 2, w0)),
        ("omega_T", lambda: DescentDatum(d, 2, None)),
        ("omega_T", lambda: DescentDatum(d, 2, [1, 2, 1])),
        ("omega_T", lambda: DescentDatum(d, 2, other.longest_element())),
        ("sigma_T", lambda: DescentDatum(d, 2, w0, "x")),
        ("sigma_T", lambda: DescentDatum(d, 2, w0, PinnedAutomorphism(other, [1, 0]))),
        ("field_action", lambda: DescentDatum(d, 2, w0, None, 5)),
        ("field_action", lambda: DescentDatum(d, 2, w0, None, lambda x: x)),
        ("field_action", lambda: DescentDatum(d, 2, w0).with_field_action("conj")),
    ]


@pytest.mark.parametrize("case", range(len(_bad_descents())))
def test_descent_datum_refuses_by_name(case):
    name, make = _bad_descents()[case]
    with pytest.raises(DescentError, match=rf"^(group )?{name} "):
        make()
