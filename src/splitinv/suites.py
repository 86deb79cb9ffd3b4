"""Named verification suites producing machine-readable check records.

Each suite function exercises one family of identities at desk scale and
returns a list of CheckRecord; the command-line runner serializes these and
the acceptance tests assert on them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .coeffs import (LocalPlace, PrimeField, QuadConj, QuadField,
                     SignedSymbolMap, SymUnit, hilbert_symbol,
                     hilbert_symbol_bruteforce, quad_norm_sign)
from .errors import CoefficientError, SplitinvError
from .factors import (EndoscopicSignDatum, RootOfUnity, adata_change_sign,
                      build_factor_expression, chi_invariance_check, comes_from_h,
                      delta_d_via_inverse_chi, delta_i_ratio, half_on_divisible,
                      restricted_galois_orbits)
from .matoracle import MatrixContext, mat_eq, mat_mul, realize, verify_appendix
from .rootdata import (PinnedAutomorphism, RestrictedRootSystem, RootDatum,
                       WeylElement, build_root_datum, levi_component,
                       restrict_root_system)
from .splitting import (ADatum, DescentDatum, Realization, check_nn_prime,
                        compare_fixed_vs_twisted, equivariant_quad_adata,
                        lambda_twisted, lambda_untwisted, sample_h_twisted,
                        sample_h_untwisted, verify_borel_independence)
from .tits import (TitsElement, TorusElement, lift_along_word,
                   tits_cocycle, tits_lift)


@dataclass
class CheckRecord:
    name: str
    passed: bool
    expected: object = None
    actual: object = None
    counterexample: object = None
    inputs: object = None

    def to_dict(self) -> dict:
        out = {"name": self.name, "pass": self.passed}
        if self.inputs is not None:
            out["inputs"] = repr(self.inputs)
        if self.expected is not None:
            out["expected"] = repr(self.expected)
        if self.actual is not None:
            out["actual"] = repr(self.actual)
        if not self.passed and self.counterexample is not None:
            out["counterexample"] = repr(self.counterexample)
        return out


def _check(records: List[CheckRecord], name: str, fn: Callable[[], object],
           expected=None) -> None:
    """Run a check body; exceptions count as failures with the message kept,
    and any exception other than a SplitinvError also with its type."""
    try:
        actual = fn()
    except Exception as exc:  # a fault in the check body: record it, run on
        records.append(_raised(name, exc, expected))
        return
    passed = bool(actual) if expected is None else (actual == expected)
    records.append(CheckRecord(name, passed, expected, actual,
                               None if passed else actual))


def _raised(name: str, exc: Exception, expected=None) -> CheckRecord:
    """The failed record of a check whose computation raised exc."""
    detail = str(exc) if isinstance(exc, SplitinvError) else f"{type(exc).__name__}: {exc}"
    return CheckRecord(name, False, expected, None, detail)


def _set_up(records: List[CheckRecord], name: str, build: Callable[[], object]):
    """Run set-up code that the checks after it share.  When it raises,
    record one failed check called name and return None, so that the caller
    skips those checks and the run carries on."""
    try:
        return build()
    except Exception as exc:  # a fault in the set-up: record it, run on
        records.append(_raised(name, exc))
        return None


_FLIP_CASES: Tuple[Tuple[str, Sequence[Tuple[str, int]], Sequence[int]], ...] = (
    ("A2 flip", [("A", 2)], (1, 0)),
    ("A3 flip", [("A", 3)], (2, 1, 0)),
    ("A4 flip", [("A", 4)], (3, 2, 1, 0)),
    ("A5 flip", [("A", 5)], (4, 3, 2, 1, 0)),
    ("D4 swap", [("D", 4)], (0, 1, 3, 2)),
)


def _braid_length(c_ij: int, c_ji: int) -> int:
    return {0: 2, 1: 3, 2: 4, 3: 6}[c_ij * c_ji]


def _twisted_sl(n: int, field=None) -> Tuple[MatrixContext, RestrictedRootSystem]:
    """SL(n) with the pinned flip, and its restricted root system."""
    ctx = MatrixContext(n, field, twisted=True)
    return ctx, restrict_root_system(ctx.datum, ctx.theta)


# ---------------------------------------------------------------------------
# appendix suite
# ---------------------------------------------------------------------------

def suite_appendix(seed: int = 0) -> List[CheckRecord]:
    records: List[CheckRecord] = []
    rng = random.Random(seed)
    for label, fld in (("Q", None), ("F5", PrimeField(5))):
        report = _set_up(records, f"appendix/{label}",
                         lambda: verify_appendix(MatrixContext(3, fld, twisted=True), rng))
        if report is None:
            continue
        records.extend(CheckRecord(f"appendix/{label}/{name}", ok) for name, ok in report.checks)
    _check(records, "appendix/F5/one-half-is-three",
           lambda: PrimeField(5).half().v, expected=3)

    def reject_f2():
        try:
            PrimeField(2)
        except CoefficientError:
            return True
        return False

    _check(records, "appendix/F2-rejected", reject_f2)
    return records


# ---------------------------------------------------------------------------
# tits suite
# ---------------------------------------------------------------------------

def _random_reduced_word(w: WeylElement, rng: random.Random) -> Tuple[int, ...]:
    datum = w.datum
    letters = []
    cur = w
    while not cur.is_identity:
        descents = [i for i in range(datum.rank) if cur.inverts(datum.simple_index[i])]
        i = rng.choice(descents)
        letters.append(i)
        cur = datum.simple_reflection(i) * cur
    return tuple(letters)


def suite_tits(seed: int = 0, matrix_pairs: int = 10000,
               sample_elements: int = 40) -> List[CheckRecord]:
    records: List[CheckRecord] = []
    rng = random.Random(seed)
    one = Fraction(1)
    for name, families, perm in _FLIP_CASES:
        datum = build_root_datum(families)
        theta = PinnedAutomorphism(datum, perm)

        def braid_ok(datum=datum):
            for i in range(datum.rank):
                for j in range(i + 1, datum.rank):
                    m = _braid_length(datum.cartan[i][j], datum.cartan[j][i])
                    left = lift_along_word(datum, [i, j] * m, one)
                    right = lift_along_word(datum, [j, i] * m, one)
                    lw = lift_along_word(datum, ([i, j] * m)[:m], one)
                    rw = lift_along_word(datum, ([j, i] * m)[:m], one)
                    if lw != rw:
                        return False
                    if not (left.weyl.is_identity and right.weyl.is_identity):
                        return False
            return True

        _check(records, f"tits/braid/{name}", braid_ok)

        def squares_ok(datum=datum):
            for i in range(datum.rank):
                sq = lift_along_word(datum, [i, i], one)
                want = TorusElement.cochar_power(datum.simple_root(i).coroot, -one, one)
                if not (sq.weyl.is_identity and sq.torus == want):
                    return False
            return True

        _check(records, f"tits/square-is-minus-one-coroot/{name}", squares_ok)

        group = _set_up(records, f"tits/weyl-group/{name}", datum.weyl_group)
        if group is None:
            continue
        # exhaustive through rank 4; sampled beyond that
        sample = list(group) if len(group) <= 200 else rng.sample(list(group),
                                                                  sample_elements)

        def words_ok(sample=sample, datum=datum):
            for w in sample:
                base = tits_lift(datum, w, one)
                for _ in range(6):
                    word = _random_reduced_word(w, rng)
                    if lift_along_word(datum, word, one) != base:
                        return False
            return True

        _check(records, f"tits/reduced-word-independence/{name}", words_ok)

        def equivariance_ok(sample=sample, datum=datum, theta=theta):
            for w in sample:
                lhs = tits_lift(datum, theta.act_weyl(w), one)
                rhs = tits_lift(datum, w, one).theta_apply(theta)
                if lhs != rhs:
                    return False
            return True

        _check(records, f"tits/pinned-equivariance/{name}", equivariance_ok)

    # matrix multiplicativity and the closed-form cocycle, SL(4) and SL(5)
    def multiplicativity_failures(n):
        ctx = MatrixContext(n)
        datum = ctx.datum
        group = list(datum.weyl_group())
        failures = 0
        for _ in range(matrix_pairs // 2):
            w1, w2 = rng.choice(group), rng.choice(group)
            t1 = TorusElement(tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3))
                                    * rng.choice([1, -1]) for _ in range(datum.rank)))
            t2 = TorusElement(tuple(Fraction(rng.randint(1, 5), rng.randint(1, 3))
                                    * rng.choice([1, -1]) for _ in range(datum.rank)))
            x1, x2 = TitsElement(t1, w1), TitsElement(t2, w2)
            prod = x1 * x2
            if not mat_eq(mat_mul(realize(ctx, x1), realize(ctx, x2)),
                          realize(ctx, prod)):
                failures += 1
                continue
            lift_prod = tits_lift(datum, w1, one) * tits_lift(datum, w2, one)
            if lift_prod.torus != tits_cocycle(datum, w1, w2, one):
                failures += 1
        return failures

    for n in (4, 5):
        _check(records, f"tits/matrix-multiplicativity-and-cocycle/SL{n}",
               lambda n=n: multiplicativity_failures(n), expected=0)
    return records


# ---------------------------------------------------------------------------
# steinberg suite
# ---------------------------------------------------------------------------

def _steinberg_case(records: List[CheckRecord], label: str, datum: RootDatum,
                    theta: PinnedAutomorphism) -> None:
    rrs = _set_up(records, f"steinberg/restrict/{label}",
                  lambda: restrict_root_system(datum, theta))
    if rrs is None:
        return

    def root_system_ok():
        allres = set(rrs.restricted)
        for beta, rb in rrs.restricted.items():
            for gamma in allres:
                k = rrs.pair_restricted(gamma, rb.coroot)  # integrality
                img = rrs.reflect_restricted(gamma, beta)
                if img not in allres:
                    return False
        return True

    _check(records, f"steinberg/1-root-system/{label}", root_system_ok)

    def positive_system_ok():
        pos = set(rrs.positive_restricted)
        neg = {tuple(-c for c in v) for v in pos}
        if pos & neg or pos | neg != set(rrs.restricted):
            return False
        for u in pos:
            for v in pos:
                s = tuple(a + b for a, b in zip(u, v))
                if s in rrs.restricted and s not in pos:
                    return False
        return True

    _check(records, f"steinberg/2-positive-system/{label}", positive_system_ok)

    def simples_ok():
        images = {rrs.restrict_root(datum.simple_root(i).coords)
                  for i in range(datum.rank)}
        if images != set(rrs.simple_restricted):
            return False
        preimage_simples = {r.coords for v in rrs.simple_restricted
                            for r in (datum.root(c) for c in rrs.restricted[v].orbit)}
        ambient_simples = {datum.simple_root(i).coords for i in range(datum.rank)}
        return preimage_simples == ambient_simples

    _check(records, f"steinberg/3-simples-correspond/{label}", simples_ok)

    _check(records, f"steinberg/4-orbit-bijection/{label}",
           lambda: len({tuple(rr.orbit) for rr in rrs.restricted.values()})
           == len(rrs.restricted))

    def weyl_iso_ok():
        fixed = {w for w in datum.weyl_group() if theta.commutes_with(w)}
        image = set(rrs.fixed_weyl_subgroup())
        if image != fixed:
            return False
        # equivariance of the restriction map for every generator
        for beta in rrs.simple_restricted:
            w_beta = rrs.levi_longest[beta]
            for i in range(datum.rank):
                lam = tuple(1 if j == i else 0 for j in range(datum.rank))
                lhs = rrs.restrict_weight(w_beta.act_weight(lam))
                rhs = rrs.reflect_restricted(rrs.restrict_weight(lam), beta)
                if lhs != rhs:
                    return False
            for r in datum.roots:
                lhs = rrs.restrict_root(w_beta.act_root(r.coords))
                rhs = rrs.reflect_restricted(rrs.restrict_root(r.coords), beta)
                if lhs != rhs:
                    return False
        return True

    _check(records, f"steinberg/5-weyl-isomorphism/{label}", weyl_iso_ok)

    def levi_ok():
        for beta in rrs.simple_restricted:
            lev = levi_component(rrs, beta)
            divisible = tuple(2 * c for c in beta) in rrs.restricted
            if lev.kind != ("A2" if divisible else "A1"):
                return False
            comps = [frozenset(c) for c in lev.components]
            imgs = [frozenset(tuple(theta.act_root(v)) for v in c) for c in comps]
            if sorted(map(sorted, comps)) != sorted(map(sorted, imgs)):
                return False
            # transitivity of the component permutation
            idx = {c: k for k, c in enumerate(comps)}
            reach = {0}
            cur = 0
            for _ in range(len(comps)):
                cur = idx[imgs[cur]]
                reach.add(cur)
            if len(reach) != len(comps):
                return False
            if lev.kind == "A2":
                r = len(comps)
                pr = theta.power(r)
                for c in comps:
                    moved = {tuple(pr.act_root(v)) for v in c}
                    if moved != set(c):
                        return False
                    if all(tuple(pr.act_root(v)) == v for v in c):
                        return False
            if not theta.commutes_with(lev.longest):
                return False
        return True

    _check(records, f"steinberg/6-levi-structure/{label}", levi_ok)


def suite_steinberg() -> List[CheckRecord]:
    records: List[CheckRecord] = []
    id_datum = build_root_datum([("A", 3)])
    _steinberg_case(records, "A3 identity", id_datum,
                    PinnedAutomorphism.identity(id_datum))
    for name, families, perm in _FLIP_CASES:
        datum = build_root_datum(families)
        _steinberg_case(records, name, datum, PinnedAutomorphism(datum, perm))

    # reduced / non-reduced pattern
    for fam, rank, perm, reduced in (("A", 2, (1, 0), False), ("A", 3, (2, 1, 0), True),
                                     ("A", 4, (3, 2, 1, 0), False),
                                     ("A", 5, (4, 3, 2, 1, 0), True)):
        datum = build_root_datum([(fam, rank)])
        rrs = _set_up(records, f"steinberg/reduced-pattern/{fam}{rank} flip",
                      lambda: restrict_root_system(datum, PinnedAutomorphism(datum, perm)))
        if rrs is None:
            continue
        _check(records, f"steinberg/reduced-pattern/{fam}{rank} flip",
               lambda rrs=rrs, reduced=reduced: rrs.is_reduced == reduced)
        if not reduced:
            _check(records, f"steinberg/R2R3-present/{fam}{rank} flip",
                   lambda rrs=rrs: {"R2", "R3"} <=
                   {rr.rtype for rr in rrs.restricted.values()})

    # a product datum: plain swap stays reduced, swap-with-flip does not
    prod = build_root_datum([("A", 2), ("A", 2)])
    swap = PinnedAutomorphism(prod, (2, 3, 0, 1))
    _check(records, "steinberg/product-swap-reduced",
           lambda: restrict_root_system(prod, swap).is_reduced)
    twist = PinnedAutomorphism(prod, (2, 3, 1, 0))
    _check(records, "steinberg/product-swap-order4-nonreduced",
           lambda: (twist.order == 4
                    and not restrict_root_system(prod, twist).is_reduced))
    return records


# ---------------------------------------------------------------------------
# lift-comparison suite
# ---------------------------------------------------------------------------

def suite_nn() -> List[CheckRecord]:
    records: List[CheckRecord] = []
    for n in (3, 4, 5):
        def all_ok(n=n):
            ctx, rrs = _twisted_sl(n)
            for w in rrs.fixed_weyl_subgroup():
                check_nn_prime(rrs, w, ctx)
            return True

        _check(records, f"nn/lift-comparison/SL{n}", all_ok)

    def sl3_discrepancy():
        ctx, rrs = _twisted_sl(3)
        return check_nn_prime(rrs, ctx.datum.longest_element(), ctx).coords

    _check(records, "nn/SL3-long-element-discrepancy", sl3_discrepancy,
           expected=(Fraction(1, 2), Fraction(1, 2)))

    def sl4_trivial():
        ctx, rrs = _twisted_sl(4)
        return all(check_nn_prime(rrs, w, ctx).is_one for w in rrs.fixed_weyl_subgroup())

    _check(records, "nn/SL4-no-divisible-roots-trivial", sl4_trivial)
    return records


# ---------------------------------------------------------------------------
# main-comparison suite
# ---------------------------------------------------------------------------

def suite_main(seed: int = 0) -> List[CheckRecord]:
    records: List[CheckRecord] = []
    rng = random.Random(seed)

    # symbolic comparison on the A2 flip
    def symbolic_ok():
        datum = build_root_datum([("A", 2)])
        theta = PinnedAutomorphism(datum, (1, 0))
        rrs = restrict_root_system(datum, theta)
        s = SymUnit.gen("s")
        spec = ADatum.restricted_from_positive(
            rrs, {(1,): s, (2,): s}, SymUnit.one(), SymUnit.half(), flavor="special")
        desc = DescentDatum(datum, 2, datum.longest_element(),
                            field_action=SignedSymbolMap({"s": (-1, "s")}))
        rep = compare_fixed_vs_twisted(rrs, desc, spec)
        half = SymUnit.half()
        want = SymUnit.gen("s", 2) * half
        return rep.m_values[1].torus.coords == (want, want)

    _check(records, "main/symbolic-A2-flip", symbolic_ok)

    # matrix comparisons across sampled descent data and conjugators
    scenarios = 0
    for dval in (5, -1):
        fieldq = QuadField(dval)
        for n in (3, 5):
            built = _set_up(records, f"main/matrix-compare/SL{n}-d{dval}",
                            lambda: _twisted_sl(n, fieldq))
            if built is None:
                continue
            ctx, rrs = built
            b = rrs.simple_restricted
            seedsets = [[], [(b[0], None)]]
            if len(b) > 1:
                w1 = rrs.levi_longest[b[1]]
                w0b = rrs.levi_longest[b[0]]
                seedsets += [[(b[1], None)], [(b[0], w1)],
                             [(b[1], None), (b[1], w0b)]]
            for si, seeds in enumerate(seedsets):
                label = f"main/matrix-compare/SL{n}-d{dval}-case{si}"

                def one_case(ctx=ctx, rrs=rrs, seeds=seeds, fieldq=fieldq):
                    h = sample_h_twisted(ctx, rrs, rng, seeds=seeds)
                    real = Realization(ctx, h, use_theta=True)
                    spec = equivariant_quad_adata(rrs, real.descent, fieldq, rng,
                                                  special=True)
                    rep = compare_fixed_vs_twisted(rrs, real.descent, spec,
                                                   ctx=ctx, realization=real)
                    return rep.equal_on_the_nose and rep.matrix_checked \
                        and rep.t_cocycle is not None
                _check(records, label, one_case)
                scenarios += 1
    records.append(CheckRecord("main/matrix-compare/scenario-count",
                               scenarios >= 10, expected=">=10", actual=scenarios))

    # abstract-mode comparison across every supported folding, including the
    # one without a matrix model
    fieldq = QuadField(5)
    for name, families, perm in _FLIP_CASES:
        def abstract_case(families=families, perm=perm):
            datum = build_root_datum(families)
            rrs = restrict_root_system(datum, PinnedAutomorphism(datum, perm))
            for omega in (datum.longest_element(),
                          rrs.levi_longest[rrs.simple_restricted[0]]):
                desc = DescentDatum(datum, 2, omega, field_action=QuadConj(fieldq))
                spec = equivariant_quad_adata(rrs, desc, fieldq, rng, special=True)
                rep = compare_fixed_vs_twisted(rrs, desc, spec)
                if not rep.equal_on_the_nose:
                    return False
            return True

        _check(records, f"main/abstract-compare/{name}", abstract_case)

    # twisted refinement and theta-fixedness
    def refinement_ok():
        fieldq = QuadField(5)
        for n in (3, 4):
            ctx, rrs = _twisted_sl(n, fieldq)
            h = sample_h_twisted(ctx, rrs, rng, seeds=[(rrs.simple_restricted[0], None)])
            real = Realization(ctx, h, use_theta=True)
            adata = equivariant_quad_adata(ctx.datum, real.descent, fieldq, rng,
                                           theta=ctx.theta)
            tw = lambda_twisted(ctx.datum, ctx.theta, real.descent, adata, real)
            untw = lambda_untwisted(ctx.datum, real.descent, adata, real)
            for k in range(2):
                if tw.values[k] != untw.values[k]:
                    return False
                tw.fixed_coords(k)  # raises unless theta-fixed
        return True

    _check(records, "main/twisted-refinement", refinement_ok)

    # Borel independence: every fixed mu, rank <= 3
    def borel_ok():
        fieldq = QuadField(5)
        for n, twisted in ((2, False), (3, False), (4, False), (3, True), (4, True)):
            ctx = MatrixContext(n, fieldq, twisted=twisted)
            if twisted:
                rrs = restrict_root_system(ctx.datum, ctx.theta)
                h = sample_h_twisted(ctx, rrs, rng,
                                     seeds=[(rrs.simple_restricted[0], None)])
                real = Realization(ctx, h, use_theta=True)
                adata = equivariant_quad_adata(ctx.datum, real.descent, fieldq, rng,
                                               theta=ctx.theta)
                mus = rrs.fixed_weyl_subgroup()
                for mu in mus:
                    verify_borel_independence(ctx.datum, real.descent, adata, mu,
                                              theta=ctx.theta, realization=real)
            else:
                h = sample_h_untwisted(ctx, rng, seeds=[0])
                real = Realization(ctx, h)
                adata = equivariant_quad_adata(ctx.datum, real.descent, fieldq, rng)
                for mu in ctx.datum.weyl_group():
                    verify_borel_independence(ctx.datum, real.descent, adata, mu,
                                              realization=real)
        return True

    _check(records, "main/borel-independence", borel_ok)

    # class independence from the conjugator: torus translation is a coboundary
    def h_class_ok():
        fieldq = QuadField(5)
        ctx, rrs = _twisted_sl(3, fieldq)
        h1 = sample_h_twisted(ctx, rrs, rng, seeds=[(rrs.simple_restricted[0], None)])
        real1 = Realization(ctx, h1, use_theta=True)
        adata = equivariant_quad_adata(ctx.datum, real1.descent, fieldq, rng,
                                       theta=ctx.theta)
        from .splitting import _random_torus_matrix
        y = _random_torus_matrix(ctx, rng, theta=ctx.theta)
        h2 = mat_mul(h1, y)
        real2 = Realization(ctx, h2, use_theta=True)
        if real2.omega != real1.omega:
            return False
        c1 = lambda_twisted(ctx.datum, ctx.theta, real1.descent, adata, real1)
        c2 = lambda_twisted(ctx.datum, ctx.theta, real2.descent, adata, real2)
        yt = ctx.torus_coords_of_diagonal(y)
        one = fieldq.one()
        for k in range(2):
            cob = yt * real1.descent.galois_on_torus_twisted(k, yt, one).inv()
            if c2.values[k] != c1.values[k] * cob:
                return False
        return True

    _check(records, "main/h-class-independence", h_class_ok)
    return records


# ---------------------------------------------------------------------------
# sign suite
# ---------------------------------------------------------------------------

_PLACES = (LocalPlace.real(), LocalPlace.padic(2), LocalPlace.padic(3),
           LocalPlace.padic(5))

_PLACE_POOL = (LocalPlace.real(-1), LocalPlace.padic(2, 5), LocalPlace.padic(2, -1),
               LocalPlace.padic(2, 2), LocalPlace.padic(3, -1), LocalPlace.padic(3, 3),
               LocalPlace.padic(5, 2), LocalPlace.padic(5, 5), LocalPlace.padic(7, 3))


def _random_rational(rng: random.Random, lo: int = 1, hi: int = 30) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(lo, hi)) * rng.choice([1, -1])


def suite_aa(seed: int = 0, pairs: int = 1000, product_pairs: int = 100,
             sign_data: int = 100) -> List[CheckRecord]:
    records: List[CheckRecord] = []
    rng = random.Random(seed)

    for place in _PLACES:
        tag = "real" if place.is_real else f"p{place.p}"

        def props_ok(place=place):
            for _ in range(pairs):
                a, b, c = (_random_rational(rng) for _ in range(3))
                if hilbert_symbol(a, b, place) != hilbert_symbol(b, a, place):
                    return False
                if hilbert_symbol(a * b, c, place) != \
                        hilbert_symbol(a, c, place) * hilbert_symbol(b, c, place):
                    return False
                if hilbert_symbol(a, -a, place) != 1:
                    return False
            return True

        _check(records, f"aa/hilbert-properties/{tag}", props_ok)

    def product_formula_ok():
        for _ in range(product_pairs):
            a, b = _random_rational(rng, 1, 20), _random_rational(rng, 1, 20)
            primes = {2}
            for x in (a, b):
                for n in (abs(x.numerator), x.denominator):
                    d = 2
                    while d * d <= n:
                        while n % d == 0:
                            primes.add(d)
                            n //= d
                        d += 1
                    if n > 1:
                        primes.add(n)
            total = hilbert_symbol(a, b, LocalPlace.real())
            for p in primes:
                total *= hilbert_symbol(a, b, LocalPlace.padic(p))
            if total != 1:
                return False
        return True

    _check(records, "aa/product-formula", product_formula_ok)

    def oracle_ok():
        values = (1, -1, 2, -2, 3, 5, -5, 6, 10, Fraction(1, 2), Fraction(3, 4))
        for place in (LocalPlace.padic(2), LocalPlace.padic(3), LocalPlace.padic(5),
                      LocalPlace.real()):
            for a in values:
                for b in values:
                    if hilbert_symbol(a, b, place) != \
                            hilbert_symbol_bruteforce(a, b, place):
                        return False
        return True

    _check(records, "aa/closed-form-vs-bruteforce", oracle_ok)

    def norm_sign_ok():
        for place in (LocalPlace.padic(5, 2), LocalPlace.padic(3, -1),
                      LocalPlace.padic(2, 5), LocalPlace.real(-1)):
            for _ in range(60):
                x, y = _random_rational(rng), _random_rational(rng)
                if quad_norm_sign(x * y, place) != \
                        quad_norm_sign(x, place) * quad_norm_sign(y, place):
                    return False
                # norms evaluate to +1
                u, v = _random_rational(rng), _random_rational(rng)
                nrm = u * u - place.d * v * v
                if nrm != 0 and quad_norm_sign(nrm, place) != 1:
                    return False
        return True

    _check(records, "aa/norm-sign-character", norm_sign_ok)

    # frozen small values: the key sign at 2, and unramified vs ramified cases
    _check(records, "aa/hilbert(-1,-1)-real",
           lambda: hilbert_symbol(-1, -1, LocalPlace.real()), expected=-1)
    _check(records, "aa/hilbert(2,5)-at-5",
           lambda: hilbert_symbol(2, 5, LocalPlace.padic(5)), expected=-1)
    _check(records, "aa/sign-of-2-unramified-at-5",
           lambda: quad_norm_sign(2, LocalPlace.padic(5, 2)), expected=1)
    _check(records, "aa/sign-of-2-at-2-unramified",
           lambda: quad_norm_sign(2, LocalPlace.padic(2, 5)), expected=-1)
    _check(records, "aa/sign-of-2-ramified-at-5",
           lambda: quad_norm_sign(2, LocalPlace.padic(5, 5)), expected=-1)

    # the ratio identity against the a-data change sign
    def ratio_consistency_ok():
        cases = []
        for fam, rank, perm in (("A", 2, (1, 0)), ("A", 4, (3, 2, 1, 0))):
            datum = build_root_datum([(fam, rank)])
            theta = PinnedAutomorphism(datum, perm)
            rrs = restrict_root_system(datum, theta)
            descents = [DescentDatum(datum, 2, datum.longest_element())]
            beta0 = rrs.simple_restricted[0]
            descents.append(DescentDatum(datum, 2, rrs.levi_longest[beta0]))
            cases.append((rrs, descents))
        for rrs, descents in cases:
            for _ in range(sign_data):
                desc = descents[rng.randrange(len(descents))]
                sd = _random_sign_datum(rrs, desc, rng)
                if delta_i_ratio(rrs, sd) != \
                        adata_change_sign(rrs, sd, half_on_divisible(rrs)):
                    return False
                # multiplicativity in the a-data multiplier
                orbits = restricted_galois_orbits(rrs, desc)
                b1 = _random_multiplier(rrs, orbits, rng)
                b2 = _random_multiplier(rrs, orbits, rng)
                b12 = {k: b1[k] * b2[k] for k in b1}
                if adata_change_sign(rrs, sd, b12) != \
                        adata_change_sign(rrs, sd, b1) * adata_change_sign(rrs, sd, b2):
                    return False
                # membership is constant on Galois orbits
                for orbit in orbits:
                    flags = {comes_from_h(rrs, sd, w) for w in orbit.members}
                    if len(flags) != 1:
                        return False
        return True

    _check(records, "aa/ratio-vs-change-sign", ratio_consistency_ok)

    # factor-expression calculus
    _check(records, "aa/delta-d-chi-invariant",
           lambda: chi_invariance_check(build_factor_expression("delta_d")))
    _check(records, "aa/delta-prime-chi-invariant",
           lambda: chi_invariance_check(build_factor_expression("delta_prime")))
    _check(records, "aa/classical-product-not-chi-invariant",
           lambda: not chi_invariance_check(build_factor_expression("delta_ks")))
    _check(records, "aa/two-definitions-of-delta-d-agree",
           lambda: delta_d_via_inverse_chi() == build_factor_expression("delta_d"))
    _check(records, "aa/whittaker-epsilon-exponent",
           lambda: (build_factor_expression("delta_d_lambda").exponent("eps_L"),
                    build_factor_expression("delta_prime_lambda").exponent("eps_L")),
           expected=(1, 1))
    return records


def _random_sign_datum(rrs: RestrictedRootSystem, desc: DescentDatum,
                       rng: random.Random) -> EndoscopicSignDatum:
    orbits = restricted_galois_orbits(rrs, desc)
    values: Dict[tuple, RootOfUnity] = {}
    places = {}
    done = set()
    for orbit in orbits:
        if orbit.members in done:
            continue
        if orbit.symmetric:
            val = rng.choice([RootOfUnity.one(), RootOfUnity.minus_one()])
            for w in orbit.members:
                values[w] = val
            places[orbit.members] = rng.choice(_PLACE_POOL)
            done.add(orbit.members)
        else:
            neg_members = tuple(sorted(tuple(-c for c in w) for w in orbit.members))
            val = RootOfUnity.make(Fraction(rng.randrange(6), 6))
            for w in orbit.members:
                values[w] = val
            for w in neg_members:
                values[w] = val.inv()
            done.add(orbit.members)
            done.add(neg_members)
    return EndoscopicSignDatum(rrs, desc, values, places)


def _random_multiplier(rrs, orbits, rng) -> Dict[tuple, Fraction]:
    """Random multiplier, constant on Galois orbits and at opposite roots
    (the shape of a ratio of two a-data)."""
    out: Dict[tuple, Fraction] = {}
    for orbit in orbits:
        if orbit.members[0] in out:
            continue
        val = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        for w in orbit.members:
            out[w] = val
            out[tuple(-c for c in w)] = val
    return out


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

SUITES: Dict[str, Callable[..., List[CheckRecord]]] = {
    "appendix": lambda seed: suite_appendix(seed),
    "tits": lambda seed: suite_tits(seed),
    "steinberg": lambda seed: suite_steinberg(),
    "nn": lambda seed: suite_nn(),
    "main": lambda seed: suite_main(seed),
    "aa": lambda seed: suite_aa(seed),
}


def run_suite(name: str, seed: int = 0) -> List[CheckRecord]:
    if name == "all":
        out: List[CheckRecord] = []
        for key in ("appendix", "tits", "steinberg", "nn", "main", "aa"):
            out.extend(SUITES[key](seed))
        return out
    if name not in SUITES:
        raise SplitinvError(f"unknown suite {name!r}")
    return SUITES[name](seed)
