"""Acceptance criteria, one test per criterion.

Each test drives the corresponding verification suite (or direct
computations), asserts every check at its stated tolerance (all identities
here are exact), and prints one pass/fail line.
"""

import random
from fractions import Fraction

from splitinv.matoracle import MatrixContext, adprime, mat_eq, mat_mul, realize
from splitinv.rootdata import restrict_root_system
from splitinv.splitting import check_nn_prime
from splitinv.suites import run_suite

_cache = {}


def suite(name):
    if name not in _cache:
        _cache[name] = run_suite(name, seed=0)
    return _cache[name]


def report(number, label, records):
    failed = [r for r in records if not r.passed]
    status = "PASS" if not failed else "FAIL"
    print(f"[{status}] criterion {number}: {label} "
          f"({len(records) - len(failed)}/{len(records)} checks)")
    assert not failed, [f"{r.name}: {r.counterexample!r}" for r in failed]


class TestAcceptance:
    def test_criterion_1_appendix_reproduction(self):
        records = suite("appendix")
        # the three displayed identities, exactly as matrices over Q
        ctx = MatrixContext(3, twisted=True)
        f = ctx.field
        n3 = ctx.weyl_lift_matrix(ctx.datum.longest_element())
        assert n3 == ((f.zero(), f.zero(), f.one()),
                      (f.zero(), -f.one(), f.zero()),
                      (f.one(), f.zero(), f.zero()))
        n3p = adprime(ctx, ((0, 1), (-1, 0)))
        assert n3p == ((f.zero(), f.zero(), f.half()),
                       (f.zero(), -f.one(), f.zero()),
                       (f.embed(2), f.zero(), f.zero()))
        assert mat_eq(n3p, mat_mul(ctx.cochar_matrix((1, 1), f.half()), n3))
        rng = random.Random(11)
        for _ in range(20):
            x = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            img = adprime(ctx, ((1, x), (0, 1)))
            ex = f.embed(x)
            assert img == ((f.one(), ex, f.half() * ex * ex),
                           (f.zero(), f.one(), ex),
                           (f.zero(), f.zero(), f.one()))
        report(1, "SL(3) ground-truth lifts and adjoint images", records)

    def test_criterion_2_tits_model_soundness(self):
        records = suite("tits")
        names = {r.name for r in records}
        for case in ("A2 flip", "A3 flip", "A4 flip", "A5 flip", "D4 swap"):
            assert f"tits/braid/{case}" in names
            assert f"tits/pinned-equivariance/{case}" in names
        matrix_records = [r for r in records if "matrix-multiplicativity" in r.name]
        assert {r.name.rsplit("/", 1)[1] for r in matrix_records} == {"SL4", "SL5"}
        for r in matrix_records:
            assert r.actual == 0  # zero failures out of the sampled pairs
        report(2, "braid/square/word-independence/equivariance + 10^4 matrix pairs",
               records)

    def test_criterion_3_steinberg_suite(self):
        records = suite("steinberg")
        names = {r.name for r in records}
        for case in ("A3 identity", "A2 flip", "A3 flip", "A4 flip", "A5 flip",
                     "D4 swap"):
            for part in range(1, 7):
                assert any(n.startswith(f"steinberg/{part}") and n.endswith(case)
                           for n in names), (case, part)
        report(3, "restriction theorem parts (1)-(6) and reduced patterns", records)

    def test_criterion_4_lift_comparison(self):
        records = suite("nn")
        # the SL(3) case reduces to the half-coroot of criterion 1
        ctx = MatrixContext(3, twisted=True)
        rrs = restrict_root_system(ctx.datum, ctx.theta)
        disc = check_nn_prime(rrs, ctx.datum.longest_element(), ctx)
        assert realize(ctx, disc) == ((Fraction(1, 2), 0, 0), (0, Fraction(1), 0),
                                      (0, 0, Fraction(2)))
        report(4, "fixed-subgroup lift vs ambient lift in SL(3)/SL(4)/SL(5)",
               records)

    def test_criterion_5_main_comparison(self):
        records = [r for r in suite("main")
                   if r.name.startswith(("main/symbolic", "main/matrix-compare"))]
        count_rec = [r for r in records if r.name.endswith("scenario-count")]
        assert count_rec and count_rec[0].actual >= 10
        report(5, "twisted vs fixed-subgroup cocycles equal on the nose", records)

    def test_criterion_6_twisted_refinement(self):
        records = [r for r in suite("main")
                   if r.name.startswith(("main/twisted-refinement",
                                         "main/borel-independence",
                                         "main/h-class-independence"))]
        assert len(records) == 3
        report(6, "refinement, fixedness, Borel and conjugator independence",
               records)

    def test_criterion_7_sign_suite(self):
        records = [r for r in suite("aa") if not r.name.startswith("aa/delta-")
                   and "definitions" not in r.name and "whittaker" not in r.name
                   and "classical-product" not in r.name]
        names = {r.name for r in records}
        assert "aa/product-formula" in names
        assert "aa/ratio-vs-change-sign" in names
        assert any(n.startswith("aa/hilbert-properties") for n in names)
        report(7, "Hilbert symbol laws, product formula, ratio consistency",
               records)

    def test_criterion_8_factor_calculus(self):
        records = [r for r in suite("aa")
                   if r.name.startswith(("aa/delta-", "aa/classical-product",
                                         "aa/two-definitions", "aa/whittaker"))]
        assert len(records) == 5
        report(8, "corrected variants chi-invariant, classical product flagged",
               records)
