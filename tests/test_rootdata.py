"""Root data, Weyl elements, pinned automorphisms, and restriction."""

import functools
import itertools
import json
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

import splitinv.rootdata as rootdata
from splitinv.cli import _parse_datum, main
from splitinv.errors import RootDatumError
from permutation_kernel import HEIGHT_CASES, longest_by_permutations, word_by_permutations
from root_search import AllRootsTables, indecomposables_by_subtraction
from splitinv.rootdata import (PinnedAutomorphism, RootAutomorphism, RootDatum, WeylElement,
                               _indecomposables_are, analyze_weyl, build_root_datum,
                               levi_component, restrict_root_system)
from weyl_order_reference import weyl_group_order


def is_root(d, coords):
    return tuple(coords) in d.root_index


def act_coroot(w, coords):
    """sum_i coords[i] * w(alpha_i_vee)."""
    return tuple(sum(x * img[k] for x, img in zip(coords, w.coroot_images()))
                 for k in range(len(coords)))


def act_coroot_inv(w, coords):
    return act_coroot(w.inverse(), coords)


def fixed_cocharacter_basis(rrs):
    """Basis of the fixed cocharacter sublattice: orbit sums of simple
    coroots, in simple-coroot coordinates."""
    n = rrs.datum.rank
    return tuple(tuple(1 if i in orb else 0 for i in range(n)) for orb in rrs.simple_orbits)


def coinvariant_rank(rrs):
    """Rank of the coinvariant character lattice, which is free (see the
    RestrictedRootSystem constructor): the number of theta-orbits."""
    return len(rrs.simple_orbits)


class TestBuild:
    def test_a1_identity_case(self):
        d = build_root_datum([("A", 1)])
        assert len(d.roots) == 2
        assert d.cartan == ((2,),)

    def test_a2_classical_count(self):
        d = build_root_datum([("A", 2)])
        assert len(d.roots) == 6
        assert len(d.positive_roots) == 3

    def test_a4_count_from_closure(self):
        # expected values from the classification count n(n+1)
        d = build_root_datum([("A", 4)])
        assert len(d.roots) == 20
        assert len(d.positive_roots) == 10

    @pytest.mark.parametrize("fam,rank,count", [
        ("B", 2, 8), ("B", 3, 18), ("C", 3, 18), ("D", 4, 24), ("A", 5, 30),
    ])
    def test_other_families(self, fam, rank, count):
        assert len(build_root_datum([(fam, rank)]).roots) == count

    def test_product(self):
        d = build_root_datum([("A", 2), ("A", 1)])
        assert len(d.roots) == 8
        assert d.rank == 3

    def test_rejections(self):
        with pytest.raises(RootDatumError):
            build_root_datum([("E", 8)])
        with pytest.raises(RootDatumError):
            build_root_datum([("B", 1)])
        with pytest.raises(RootDatumError):
            build_root_datum([])

    @pytest.mark.parametrize("spec,named", [
        ([("A",)], "('A',)"), ("A3", "'A3'"), (None, "None"), (3, "3"),
        ([("A", 2, 1)], "('A', 2, 1)"), ([["A"], 2], "['A']"), ([(["A"], 2)], "['A']"),
    ])
    def test_malformed_type_specification_is_refused(self, spec, named):
        with pytest.raises(RootDatumError, match=re.escape(named)):
            build_root_datum(spec)

    def test_reflection_closure(self):
        # s_i sends each root to a root, and its permutation of the root
        # indices is the reflection matrix built from the Cartan matrix
        for label, families in HEIGHT_CASES:
            d = build_root_datum(families)
            for i, m in enumerate(_simple_reflection_matrices(d.cartan, False)):
                assert d.simple_root(i).coords == tuple(int(j == i) for j in range(d.rank))
                s = d.simple_reflection(i)
                assert s.inv_perm == s.perm, (label, i)
                for r, j in zip(d.roots, s.perm):
                    img = _mat_vec(m, r.coords)
                    assert is_root(d, img) and d.roots[j].coords == img, (label, i, r)

    def test_coroot_pairing_is_two(self):
        for spec in ([("A", 3)], [("C", 2)], [("D", 4)]):
            d = build_root_datum(spec)
            for r in d.roots:
                assert _pairing(d.cartan, r.coords, r.coroot) == 2


class TestWeyl:
    def test_empty_word_is_identity(self):
        d = build_root_datum([("A", 2)])
        w = analyze_weyl(d, [])
        assert w.is_identity and w.length == 0 and w.inversions == ()

    def test_longest_element_a2(self):
        d = build_root_datum([("A", 2)])
        w0 = analyze_weyl(d, [0, 1, 0])
        # brute force over all six elements: the one with all inversions
        group = d.weyl_group()
        assert len(group) == 6
        longest = max(group, key=lambda w: len(w.inversions))
        assert w0 == longest
        assert {r.coords for r in w0.inversions} == {(1, 0), (0, 1), (1, 1)}
        assert w0.word == (0, 1, 0)  # lexicographically least reduced word

    def test_non_reduced_input_canonicalized(self):
        d = build_root_datum([("A", 2)])
        assert analyze_weyl(d, [0, 0]).is_identity
        assert analyze_weyl(d, [0, 1, 1, 0]).is_identity

    def test_canonical_idempotent(self):
        d = build_root_datum([("A", 3)])
        w = analyze_weyl(d, [2, 0, 1, 2, 0])
        again = analyze_weyl(d, w.word)
        assert again == w and again.word == w.word

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.integers(0, 2), max_size=10))
    def test_length_equals_inversions(self, word):
        d = build_root_datum([("A", 3)])
        w = analyze_weyl(d, word)
        assert w.length == len(w.inversions)
        assert len(w.word) == w.length

    def test_inversion_sets_word_independent(self):
        d = build_root_datum([("B", 2)])
        w1 = analyze_weyl(d, [0, 1, 0, 1])
        w2 = analyze_weyl(d, [1, 0, 1, 0])
        assert w1 == w2
        assert w1.inversions == w2.inversions

    def test_weyl_group_orders(self):
        assert len(build_root_datum([("A", 3)]).weyl_group()) == 24
        assert len(build_root_datum([("B", 2)]).weyl_group()) == 8
        assert len(build_root_datum([("D", 4)]).weyl_group()) == 192


class TestWeylBudget:
    """W and W^theta are enumerated only up to WEYL_BUDGET elements; the
    order is read off the root heights first, so a refusal enumerates nothing."""

    @staticmethod
    def no_closure(monkeypatch):
        def broken(*args):
            raise AssertionError("Weyl group enumerated")
        monkeypatch.setattr(rootdata, "_closure", broken)

    def test_a9_refused_without_enumerating(self, monkeypatch):
        self.no_closure(monkeypatch)
        d = build_root_datum([("A", 9)])
        t0 = time.perf_counter()
        with pytest.raises(RootDatumError, match=re.escape(
                "datum RootDatum(A9): |W| = 3628800 is above the enumeration budget of 50000")):
            d.weyl_group()
        assert time.perf_counter() - t0 < 0.5

    def test_a13_flip_fixed_subgroup_refused(self, monkeypatch):
        self.no_closure(monkeypatch)
        d = build_root_datum([("A", 13)])
        rrs = restrict_root_system(d, PinnedAutomorphism(d, list(range(12, -1, -1))))
        with pytest.raises(RootDatumError, match=re.escape(
                "datum RootDatum(A13): |W^theta| = 645120 is above")):
            rrs.fixed_weyl_subgroup()

    def test_the_budget_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(rootdata, "WEYL_BUDGET", 24)
        assert len(build_root_datum([("A", 3)]).weyl_group()) == 24
        with pytest.raises(RootDatumError, match=r"\|W\| = 120 is above"):
            build_root_datum([("A", 4)]).weyl_group()
        d = build_root_datum([("A", 5)])
        rrs = restrict_root_system(d, PinnedAutomorphism(d, [4, 3, 2, 1, 0]))
        with pytest.raises(RootDatumError, match=r"\|W\^theta\| = 48 is above"):
            rrs.fixed_weyl_subgroup()


class TestPinnedAutomorphism:
    def test_validation(self):
        d = build_root_datum([("A", 3)])
        theta = PinnedAutomorphism(d, [2, 1, 0])
        assert theta.order == 2
        with pytest.raises(RootDatumError):
            PinnedAutomorphism(d, [1, 2, 0])  # breaks the Cartan matrix
        with pytest.raises(RootDatumError):
            PinnedAutomorphism(d, [0, 0, 1])

    def test_preserves_positivity(self):
        d = build_root_datum([("A", 4)])
        theta = PinnedAutomorphism(d, [3, 2, 1, 0])
        for r in d.positive_roots:
            img = d.root(theta.act_root(r.coords))
            assert img.positive

    def test_triality_is_allowed(self):
        d = build_root_datum([("D", 4)])
        tri = PinnedAutomorphism(d, [2, 1, 3, 0])
        assert tri.order == 3

    def test_one_identity_per_datum(self):
        d, twin = build_root_datum([("D", 4)]), build_root_datum([("D", 4)])
        ident = PinnedAutomorphism.identity(d)
        read, no_theta = _parse_datum({"datum": [["D", 4]]})
        assert no_theta is PinnedAutomorphism.identity(read)
        assert ident.power(0) is ident and ident.is_identity
        assert ident.root_perm == tuple(range(len(d.roots)))
        assert PinnedAutomorphism.identity(twin) is not ident
        assert PinnedAutomorphism.identity(twin).datum is twin


class TestRestriction:
    def test_a2_flip_nonreduced(self):
        d = build_root_datum([("A", 2)])
        rrs = restrict_root_system(d, PinnedAutomorphism(d, [1, 0]))
        assert set(rrs.restricted) == {(1,), (2,), (-1,), (-2,)}
        assert rrs.rtype((1,)) == "R2"
        assert rrs.rtype((2,)) == "R3"
        assert rrs.positive_restricted == ((1,), (2,))
        assert not rrs.is_reduced
        assert rrs.simple_restricted == ((1,),)

    def test_a3_flip_reduced_c2(self):
        d = build_root_datum([("A", 3)])
        rrs = restrict_root_system(d, PinnedAutomorphism(d, [2, 1, 0]))
        assert rrs.positive_restricted == ((-2, 2), (0, 1), (2, -1), (2, 0))
        assert all(rrs.rtype(v) == "R1" for v in rrs.restricted)
        assert rrs.is_reduced
        assert len(rrs.fixed_weyl_subgroup()) == 8

    def test_identity_restriction(self):
        d = build_root_datum([("A", 3)])
        rrs = restrict_root_system(d, PinnedAutomorphism.identity(d))
        assert len(rrs.restricted) == len(d.roots)
        assert all(rr.rtype == "R1" for rr in rrs.restricted.values())
        assert all(len(rr.orbit) == 1 for rr in rrs.restricted.values())

    def test_orbit_bijection(self):
        d = build_root_datum([("A", 4)])
        theta = PinnedAutomorphism(d, [3, 2, 1, 0])
        rrs = restrict_root_system(d, theta)
        total = sum(len(rr.orbit) for rr in rrs.restricted.values())
        assert total == len(d.roots)

    def test_d4_swap_is_b3(self):
        d = build_root_datum([("D", 4)])
        rrs = restrict_root_system(d, PinnedAutomorphism(d, [0, 1, 3, 2]))
        assert rrs.is_reduced
        assert len(rrs.positive_restricted) == 9
        assert len(rrs.fixed_weyl_subgroup()) == 48


class TestLevi:
    def test_a2_flip_levi_is_a2(self):
        d = build_root_datum([("A", 2)])
        theta = PinnedAutomorphism(d, [1, 0])
        rrs = restrict_root_system(d, theta)
        lev = levi_component(rrs, (1,))
        assert lev.kind == "A2"
        assert len(lev.components) == 1
        assert len(lev.roots) == 6
        # the automorphism swaps the two simple roots of the copy
        a, b = lev.components[0]
        assert tuple(theta.act_root(a)) == b

    def test_a3_flip_levi_two_a1(self):
        d = build_root_datum([("A", 3)])
        theta = PinnedAutomorphism(d, [2, 1, 0])
        rrs = restrict_root_system(d, theta)
        beta = rrs.restrict_root(d.simple_root(0).coords)
        lev = levi_component(rrs, beta)
        assert lev.kind == "A1"
        assert len(lev.components) == 2
        assert lev.longest.word == (0, 2)

    def test_identity_levi_single_a1(self):
        d = build_root_datum([("A", 2)])
        rrs = restrict_root_system(d, PinnedAutomorphism.identity(d))
        beta = rrs.restrict_root(d.simple_root(1).coords)
        lev = levi_component(rrs, beta)
        assert lev.kind == "A1" and len(lev.components) == 1

    def test_non_simple_rejected(self):
        d = build_root_datum([("A", 2)])
        rrs = restrict_root_system(d, PinnedAutomorphism(d, [1, 0]))
        with pytest.raises(RootDatumError):
            levi_component(rrs, (2,))


def restrict_error(tmp_path, capsys, doc) -> str:
    """What `splitinv restrict` prints on the scenario doc, which must exit 2
    with nothing on stdout."""
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["restrict", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    return captured.err


class TestSerialization:
    """A datum and theta read from a scenario file: the CLI's reader is the
    only JSON route into the constructors."""

    def test_roundtrip(self):
        datum, theta = _parse_datum({"datum": [["A", 3]], "theta": {"perm": [3, 2, 1]}})
        assert datum.families == (("A", 3),)
        assert theta.perm == (2, 1, 0)

    def test_malformed(self, tmp_path, capsys):
        assert restrict_error(tmp_path, capsys, {"datum": "A2"}) \
            .startswith("error: field 'datum':")
        assert restrict_error(tmp_path, capsys,
                              {"datum": [["A", 2]], "theta": {"perm": [1]}}) \
            .startswith("error: field 'theta':")

    # a rank or a permutation entry that is not an int is rejected, never
    # truncated: ("A", 2.5) once built A2 from JSON and [3.7, 2, 1] the A3 flip
    @pytest.mark.parametrize("rank", [2.5, True, "3"])
    def test_rank_must_be_an_integer(self, rank):
        with pytest.raises(RootDatumError, match="field 'rank'"):
            RootDatum([("A", rank)])

    @pytest.mark.parametrize("rank", [2.5, True, "2"])
    def test_json_rank_must_be_an_integer(self, tmp_path, capsys, rank):
        err = restrict_error(tmp_path, capsys, {"datum": [["A", rank]]})
        assert err.startswith("error: field 'datum':") and "field 'rank'" in err

    @pytest.mark.parametrize("perm", [[3.7, 2, 1], [3.0, 2, 1], [3, 2, True], ["3", 2, 1]])
    def test_json_perm_must_be_integers(self, tmp_path, capsys, perm):
        err = restrict_error(tmp_path, capsys, {"datum": [["A", 3]], "theta": {"perm": perm}})
        assert err.startswith("error: field 'theta':") and "field 'perm'" in err

    @pytest.mark.parametrize("perm", [(2.0, 1, 0), (2, 1, False)])
    def test_perm_must_be_integers(self, perm):
        d = build_root_datum([("A", 3)])
        with pytest.raises(RootDatumError, match="field 'perm'"):
            PinnedAutomorphism(d, perm)


class TestFixedLattice:
    def test_orbit_sum_basis(self):
        d = build_root_datum([("A", 3)])
        theta = PinnedAutomorphism(d, [2, 1, 0])
        rrs = restrict_root_system(d, theta)
        assert fixed_cocharacter_basis(rrs) == ((1, 0, 1), (0, 1, 0))
        assert coinvariant_rank(rrs) == 2

    def test_basis_elements_are_fixed(self):
        d = build_root_datum([("A", 4)])
        theta = PinnedAutomorphism(d, [3, 2, 1, 0])
        rrs = restrict_root_system(d, theta)
        # theta permutes the simple coroots as it permutes the simple roots
        for v in fixed_cocharacter_basis(rrs):
            assert theta.act_root(v) == v

    def test_restriction_pairs_with_basis(self):
        # the restricted coordinates of a root are its pairings with the
        # orbit-sum basis of the fixed cocharacter lattice
        d = build_root_datum([("A", 4)])
        theta = PinnedAutomorphism(d, [3, 2, 1, 0])
        rrs = restrict_root_system(d, theta)
        basis = fixed_cocharacter_basis(rrs)
        for r in d.roots:
            res = rrs.restrict_root(r.coords)
            assert res == tuple(_pairing(d.cartan, r.coords, mu) for mu in basis)


RESTRICTION_CASES = [(f"A{n} flip", [("A", n)], tuple(range(n - 1, -1, -1)))
                     for n in range(2, 7)] + [
    ("D4 swap", [("D", 4)], (0, 1, 3, 2)),
    ("D4 triality", [("D", 4)], (2, 1, 3, 0)),
    ("A2xA2 swap", [("A", 2), ("A", 2)], (2, 3, 0, 1)),
    ("A2xA2 order-4 twist", [("A", 2), ("A", 2)], (2, 3, 1, 0)),
    ("A3 identity", [("A", 3)], (0, 1, 2)),
]


def _mat_mul(a, b):
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
                       for j in range(len(b[0]))) for i in range(len(a)))


def _restricted_reflection(rrs, beta):
    n = rrs.res_rank
    cols = [rrs.reflect_restricted(tuple(int(i == j) for j in range(n)), beta)
            for i in range(n)]
    return tuple(tuple(cols[j][i] for j in range(n)) for i in range(n))


def _restricted_weyl_words(rrs):
    """The lexicographically least reduced word of every element of the group
    generated by the simple restricted reflection matrices: breadth-first
    search in generator order reaches each element first along that word."""
    gens = [_restricted_reflection(rrs, beta) for beta in rrs.simple_restricted]
    n = rrs.res_rank
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    words = {ident: ()}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for gi, g in enumerate(gens):
                m2 = _mat_mul(m, g)
                if m2 not in words:
                    words[m2] = words[m] + (gi,)
                    nxt.append(m2)
        frontier = nxt
    return list(words.values())


def _elementary_divisors(m):
    """Diagonal of the Smith normal form of an integer matrix, by unimodular
    row and column elimination."""
    a = [list(row) for row in m]
    rows, cols = len(a), len(a[0])
    out = []
    t = 0
    while t < min(rows, cols):
        entries = [(abs(a[i][j]), i, j) for i in range(t, rows) for j in range(t, cols)
                   if a[i][j]]
        if not entries:
            break
        _, i, j = min(entries)
        a[t], a[i] = a[i], a[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        p = a[t][t]
        for i in range(t + 1, rows):
            q = a[i][t] // p
            a[i] = [x - q * y for x, y in zip(a[i], a[t])]
        for j in range(t + 1, cols):
            q = a[t][j] // p
            for row in a:
                row[j] -= q * row[t]
        if any(a[i][t] for i in range(t + 1, rows)) or any(a[t][t + 1:]):
            continue  # a smaller remainder is left: pivot on it
        bad = next((i for i in range(t + 1, rows)
                    if any(x % p for x in a[i][t + 1:])), None)
        if bad is not None:
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            continue
        out.append(abs(p))
        t += 1
    return out + [0] * (min(rows, cols) - len(out))


class TestRestrictedWeyl:
    @staticmethod
    def _restrict(families, perm):
        d = build_root_datum(families)
        theta = PinnedAutomorphism(d, perm)
        return d, theta, restrict_root_system(d, theta)

    @staticmethod
    def _from_word(rrs, word):
        w = rrs.datum.identity_weyl()
        for gi in word:
            w = w * rrs.levi_longest[rrs.simple_restricted[gi]]
        return w

    @pytest.mark.parametrize("label,families,perm", RESTRICTION_CASES)
    def test_words_are_lexicographically_least(self, label, families, perm):
        _, _, rrs = self._restrict(families, perm)
        for word in _restricted_weyl_words(rrs):
            assert rrs.res_word_of(self._from_word(rrs, word)) == word

    @pytest.mark.parametrize("label,families,perm", RESTRICTION_CASES)
    def test_fixed_subgroup_is_the_restricted_weyl_group(self, label, families, perm):
        _, _, rrs = self._restrict(families, perm)
        words = _restricted_weyl_words(rrs)
        images = {self._from_word(rrs, word) for word in words}
        assert len(images) == len(words)  # the map onto Omega^theta is injective
        fixed = rrs.fixed_weyl_subgroup()
        assert len(fixed) == len(words) and set(fixed) == images

    @pytest.mark.parametrize("label,families,perm",
                             [c for c in RESTRICTION_CASES if c[2] != tuple(sorted(c[2]))])
    def test_word_of_non_fixed_element_rejected(self, label, families, perm):
        d, theta, rrs = self._restrict(families, perm)
        moved = next(i for i in range(d.rank) if theta.perm[i] != i)
        with pytest.raises(RootDatumError):
            rrs.res_word_of(d.simple_reflection(moved))

    @pytest.mark.parametrize("label,families,perm", RESTRICTION_CASES)
    def test_coinvariants_torsion_free(self, label, families, perm):
        # X/(theta-1)X is free of rank #orbits: no torsion check is needed
        d, theta, rrs = self._restrict(families, perm)
        n = d.rank
        m = [[int(theta.perm[j] == i) - int(i == j) for j in range(n)] for i in range(n)]
        divisors = _elementary_divisors(m)
        assert set(divisors) <= {0, 1}
        assert divisors.count(1) == n - len(theta.orbits())
        assert divisors.count(0) == coinvariant_rank(rrs)

    def test_elementary_divisors_see_torsion(self):
        assert _elementary_divisors([[2, 4], [6, 8]]) == [2, 4]
        assert _elementary_divisors([[2, 0], [0, 3]]) == [1, 6]

    def test_a11_flip_longest_word(self):
        d, _, rrs = self._restrict([("A", 11)], tuple(range(10, -1, -1)))
        assert len(rrs.res_word_of(d.longest_element())) == 36


# ---------------------------------------------------------------------------
# the root-permutation kernel against dense matrices
# ---------------------------------------------------------------------------

KERNEL_CASES = [
    ("A1", [("A", 1)], (0,)),
    ("A2", [("A", 2)], (1, 0)),
    ("A3", [("A", 3)], (2, 1, 0)),
    ("A4", [("A", 4)], (3, 2, 1, 0)),
    ("B2", [("B", 2)], (0, 1)),
    ("B3", [("B", 3)], (0, 1, 2)),
    ("C2", [("C", 2)], (0, 1)),
    ("C3", [("C", 3)], (0, 1, 2)),
    ("D4", [("D", 4)], (2, 1, 3, 0)),
    ("A2xA2", [("A", 2), ("A", 2)], (2, 3, 0, 1)),
]


def _simple_reflection_matrices(cartan, coroot):
    """s_i on simple-root coordinates, alpha_k -> alpha_k - <alpha_k, alpha_i_vee>
    alpha_i, or on simple-coroot coordinates, alpha_k_vee -> alpha_k_vee -
    <alpha_i, alpha_k_vee> alpha_i_vee; column k is the image of basis vector k."""
    n = len(cartan)
    out = []
    for i in range(n):
        m = [[int(r == k) for k in range(n)] for r in range(n)]
        for k in range(n):
            m[i][k] -= cartan[k][i] if coroot else cartan[i][k]
        out.append(tuple(map(tuple, m)))
    return out


def _identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def _mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def _transpose(m):
    return tuple(zip(*m))


class MatrixWeyl:
    """The Weyl group of a datum as dense integer matrices, built from the
    Cartan matrix alone: every element as (root matrix, its inverse, coroot
    matrix, its inverse), keyed by root matrix, with the lexicographically
    least reduced word from a breadth-first search in generator order."""

    def __init__(self, cartan):
        n = len(cartan)
        gens = list(zip(_simple_reflection_matrices(cartan, False),
                        _simple_reflection_matrices(cartan, True)))
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        self.elements = {ident: (ident, ident, ident, ())}
        frontier = [ident]
        while frontier:
            nxt = []
            for m in frontier:
                m, m_inv, c, c_inv, word = (m,) + self.elements[m]
                for i, (g, gc) in enumerate(gens):
                    m2 = _mat_mul(m, g)
                    if m2 not in self.elements:
                        self.elements[m2] = (_mat_mul(g, m_inv), _mat_mul(c, gc),
                                             _mat_mul(gc, c_inv), word + (i,))
                        nxt.append(m2)
            frontier = nxt

    def word(self, m):
        return self.elements[m][3]


_MATRIX_WEYL = {}


def _kernel_case(label, families):
    d = build_root_datum(families)
    if label not in _MATRIX_WEYL:
        _MATRIX_WEYL[label] = MatrixWeyl(d.cartan)
    ref = _MATRIX_WEYL[label]
    return d, ref, {m: analyze_weyl(d, ref.word(m)) for m in ref.elements}


def _is_negative(v):
    return next(x for x in v if x) < 0


class TestWeylKernel:
    @pytest.mark.parametrize("label,families,perm", KERNEL_CASES)
    def test_words_are_lexicographically_least(self, label, families, perm):
        d, ref, lib = _kernel_case(label, families)
        assert len(d.weyl_group()) == len(ref.elements)
        for m, w in lib.items():
            assert w.word == ref.word(m)
        for w in d.weyl_group():
            assert analyze_weyl(d, w.word) == w

    @pytest.mark.parametrize("label,families,perm", KERNEL_CASES)
    def test_actions_are_the_matrix_action(self, label, families, perm):
        d, ref, lib = _kernel_case(label, families)
        basis = [tuple(int(i == j) for j in range(d.rank)) for i in range(d.rank)]
        covectors = basis + [r.coroot for r in d.roots] + [tuple(range(-1, d.rank - 1))]
        for m, w in lib.items():
            m_inv, c, c_inv, _ = ref.elements[m]
            # roots move only by permutation: perm is w, inv_perm is w^-1
            for r, j, k in zip(d.roots, w.perm, w.inv_perm):
                assert d.roots[j].coords == _mat_vec(m, r.coords)
                assert d.roots[k].coords == _mat_vec(m_inv, r.coords)
            for v in covectors:
                assert act_coroot(w, v) == _mat_vec(c, v)
                assert act_coroot_inv(w, v) == _mat_vec(c_inv, v)
                # <w lambda, alpha_i_vee> = <lambda, w^-1 alpha_i_vee>
                assert w.act_weight(v) == _mat_vec(_transpose(c_inv), v)
                assert w.inverse().act_weight(v) == _mat_vec(_transpose(c), v)

    @pytest.mark.parametrize("label,families,perm", KERNEL_CASES)
    def test_products_and_inverses_are_matrix_products(self, label, families, perm):
        d, ref, lib = _kernel_case(label, families)
        keys = list(lib)
        partners = keys if len(keys) <= 48 else random.Random(0).sample(keys, 24)
        for m, w in lib.items():
            inv = w.inverse()
            assert inv.word == ref.word(ref.elements[m][0])
            assert inv * w == d.identity_weyl() == w * inv
            for m2 in partners:
                prod = w * lib[m2]
                assert prod.word == ref.word(_mat_mul(m, m2))
                assert prod == lib[_mat_mul(m, m2)]

    @pytest.mark.parametrize("label,families,perm", KERNEL_CASES)
    def test_inversions_are_the_matrix_inversions(self, label, families, perm):
        d, ref, lib = _kernel_case(label, families)
        for m, w in lib.items():
            m_inv = ref.elements[m][0]
            want = [r for r in d.positive_roots if _is_negative(_mat_vec(m_inv, r.coords))]
            assert list(w.inversions) == want
            assert len(w.word) == len(w.inversions) == w.length
            assert w.is_identity == (not w.word)

    @pytest.mark.parametrize("label,families,perm", KERNEL_CASES)
    def test_equality_and_hash_follow_the_matrix(self, label, families, perm):
        d, ref, lib = _kernel_case(label, families)
        assert len(set(lib.values())) == len(lib)  # distinct matrices, distinct elements
        keys = list(lib)
        rng = random.Random(1)
        for m, w in lib.items():
            # the same matrix reached along another route
            m2 = rng.choice(keys)
            m3 = ref.elements[m2][0]
            other = (w * lib[m2]) * lib[m3]
            assert other == w and hash(other) == hash(w)
            assert (other != lib[m2]) == (m != m2)

    @pytest.mark.parametrize("label,families,perm", KERNEL_CASES)
    def test_act_weyl_is_conjugation(self, label, families, perm):
        d, ref, lib = _kernel_case(label, families)
        theta = PinnedAutomorphism(d, perm)
        n = d.rank
        p = tuple(tuple(int(perm[j] == i) for j in range(n)) for i in range(n))
        for m, w in lib.items():
            conj = _mat_mul(p, _mat_mul(m, _transpose(p)))
            assert theta.act_weyl(w) == lib[conj]
            assert theta.act_weyl(w).word == ref.word(conj)
            assert theta.commutes_with(w) == (conj == m)


# ---------------------------------------------------------------------------
# the height rule against the per-letter permutation rule it replaced
# ---------------------------------------------------------------------------

class TestHeightKernel:
    @pytest.mark.parametrize("label,families", HEIGHT_CASES)
    def test_word_is_the_permutation_descent_rule(self, label, families):
        d = build_root_datum(families)
        for w in d.weyl_group():
            assert w.word == word_by_permutations(w)

    @pytest.mark.parametrize("label,families", HEIGHT_CASES)
    def test_analyze_weyl_is_the_product_of_simple_reflections(self, label, families):
        d = build_root_datum(families)
        rng = random.Random(label)
        n = d.rank
        words = [[], [0, 0], [n - 1] * 7, [0, n - 1] * 20, list(range(n)) * 2 + list(range(n))[::-1]]
        words += [[rng.randrange(n) for _ in range(rng.randint(0, 40))] for _ in range(40)]
        for word in words:
            want = functools.reduce(lambda w, i: w * d.simple_reflection(i), word,
                                    d.identity_weyl())
            got = analyze_weyl(d, word)
            assert got.perm == want.perm and got.inv_perm == want.inv_perm, word
            assert got.word == word_by_permutations(want)
            assert analyze_weyl(d, [i + 1 for i in word], one_based=True) == want

    @pytest.mark.parametrize("letter", [2, 3, -1])
    def test_out_of_range_letter_is_refused(self, letter):
        d = build_root_datum([("A", 2)])
        with pytest.raises(RootDatumError, match=f"index {letter} out of range 0..1$"):
            analyze_weyl(d, [0, letter])
        # a one-based letter is named as written, with the one-based range
        with pytest.raises(RootDatumError, match=f"index {letter + 1} out of range 1..2$"):
            analyze_weyl(d, [1, letter + 1], one_based=True)

    @pytest.mark.parametrize("letter", ["x", None, 1.0, True, False, "1", [1]])
    def test_letter_that_is_not_an_int_is_refused(self, letter):
        d = build_root_datum([("A", 2)])
        for one_based in (False, True):
            with pytest.raises(RootDatumError, match=re.escape(repr(letter))):
                analyze_weyl(d, [1, letter], one_based=one_based)

    @pytest.mark.parametrize("word", [None, 5, 1.5, True])
    def test_word_that_is_not_a_sequence_is_refused(self, word):
        d = build_root_datum([("A", 2)])
        with pytest.raises(RootDatumError, match=re.escape(f"reflection word {word!r}")):
            analyze_weyl(d, word)

    @pytest.mark.parametrize("index", [True, False, "x", "1", 1.0, None, [1]])
    def test_simple_index_that_is_not_an_int_is_refused(self, index):
        # one check for simple_reflection, simple_root and the letters of
        # analyze_weyl: True is not read as 1, nor 1.0 as 1
        d = build_root_datum([("A", 3)])
        for call in (d.simple_reflection, d.simple_root, lambda i: analyze_weyl(d, [i])):
            with pytest.raises(RootDatumError, match=re.escape(repr(index))):
                call(index)

    @pytest.mark.parametrize("index", [3, 5, -1, 10 ** 30])
    def test_simple_index_out_of_range_is_refused(self, index):
        d = build_root_datum([("A", 3)])
        for call in (d.simple_reflection, d.simple_root, lambda i: analyze_weyl(d, [i])):
            with pytest.raises(RootDatumError, match=f"simple index {index} out of range 0..2"):
                call(index)


# ---------------------------------------------------------------------------
# the longest element against three references
# ---------------------------------------------------------------------------

class TestLongestElement:
    @pytest.mark.parametrize("label,families", HEIGHT_CASES)
    def test_longest_element_against_three_references(self, label, families):
        d = build_root_datum(families)
        w0 = d.longest_element()
        assert w0 == longest_by_permutations(d, range(d.rank))
        assert w0 == max(d.weyl_group(), key=lambda w: w.length)
        assert w0 == analyze_weyl(d, w0.word)
        assert w0.length == d.n_positive == len(w0.inversions)
        assert w0.inv_perm == w0.perm    # an involution

    @pytest.mark.parametrize("label,families", HEIGHT_CASES)
    def test_longest_of_every_node_set_is_the_permutation_rule(self, label, families):
        d = build_root_datum(families)
        for k in range(d.rank + 1):
            for nodes in itertools.combinations(range(d.rank), k):
                got = d._longest_in(nodes)
                assert got == longest_by_permutations(d, nodes), nodes
                assert got.inv_perm == got.perm and set(got.word) <= set(nodes)

    def test_a100_longest_element(self):
        d = build_root_datum([("A", 100)])
        w0 = d.longest_element()
        assert w0.length == 5050
        assert len(w0.inversions) == d.n_positive == 5050    # every positive root
        word = [j for i in range(1, 101) for j in range(i, 0, -1)]
        assert w0 == analyze_weyl(d, word, one_based=True)


# ---------------------------------------------------------------------------
# |W^theta| from the restricted type against the enumerated group
# ---------------------------------------------------------------------------

FIXED_ORDER_CASES = [(f"A{n} flip", [("A", n)], tuple(range(n - 1, -1, -1)))
                     for n in range(2, 10)] + [
    ("D4 swap", [("D", 4)], (0, 1, 3, 2)),
    ("D4 triality", [("D", 4)], (2, 1, 3, 0)),
    ("D5 swap", [("D", 5)], (0, 1, 2, 4, 3)),
    ("A2xA2 swap", [("A", 2), ("A", 2)], (2, 3, 0, 1)),
    ("A3xA3 swap", [("A", 3), ("A", 3)], (3, 4, 5, 0, 1, 2)),
    ("A3 identity", [("A", 3)], (0, 1, 2)),
    ("B3 identity", [("B", 3)], (0, 1, 2)),
    ("C3 identity", [("C", 3)], (0, 1, 2)),
    ("D4 identity", [("D", 4)], (0, 1, 2, 3)),
]


class TestFixedWeylOrder:
    @pytest.mark.parametrize("label,families,perm", FIXED_ORDER_CASES)
    def test_formula_is_the_enumerated_order(self, label, families, perm):
        d = build_root_datum(families)
        rrs = restrict_root_system(d, PinnedAutomorphism(d, perm))
        assert rrs.fixed_weyl_order() == len(rrs.fixed_weyl_subgroup())

    @pytest.mark.parametrize("families", [[("A", 1)], [("A", 4)], [("B", 2)], [("B", 3)],
                                          [("C", 4)], [("D", 4)], [("A", 2), ("B", 2)]])
    def test_formula_on_ambient_cartan_matrices(self, families):
        d = build_root_datum(families)
        assert weyl_group_order(d.cartan) == len(d.weyl_group())

    @pytest.mark.parametrize("label,cartan", [
        ("G2", [[2, -1], [-3, 2]]),
        ("G2 transposed", [[2, -3], [-1, 2]]),
    ])
    def test_g2(self, label, cartan):
        assert weyl_group_order(cartan) == 12

    @pytest.mark.parametrize("label,cartan", [
        ("F4", [[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]]),
        ("E6", [[2, 0, -1, 0, 0, 0], [0, 2, 0, -1, 0, 0], [-1, 0, 2, -1, 0, 0],
                [0, -1, -1, 2, -1, 0], [0, 0, 0, -1, 2, -1], [0, 0, 0, 0, -1, 2]]),
        ("affine A2", [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]),
        ("affine D4", [[2, -1, -1, -1, -1], [-1, 2, 0, 0, 0], [-1, 0, 2, 0, 0],
                       [-1, 0, 0, 2, 0], [-1, 0, 0, 0, 2]]),
        ("G2 with a tail", [[2, -1, 0], [-3, 2, -1], [0, -1, 2]]),
        ("two double bonds", [[2, -2, 0], [-1, 2, -1], [0, -2, 2]]),
        ("quadruple bond", [[2, -4], [-1, 2]]),
        ("asymmetric zero", [[2, 0], [-1, 2]]),
        ("bad diagonal", [[1]]),
    ])
    def test_other_types_rejected(self, label, cartan):
        with pytest.raises(RootDatumError):
            weyl_group_order(cartan)


# ---------------------------------------------------------------------------
# the index-table routes against their coordinate formulas
# ---------------------------------------------------------------------------

TABLE_CASES = [("A3", [("A", 3)]), ("A4", [("A", 4)]), ("B3", [("B", 3)]),
               ("C3", [("C", 3)]), ("D4", [("D", 4)]), ("D5", [("D", 5)]),
               ("A2xA2", [("A", 2), ("A", 2)])]


# every diagram automorphism of each, with how many there are
THETA_PERM_CASES = [(f"A{n}", [("A", n)], 1 if n == 1 else 2) for n in range(1, 10)] + [
    (f"{f}{n}", [(f, n)], 1) for f in "BC" for n in range(2, 6)] + [
    ("D4", [("D", 4)], 6), ("D5", [("D", 5)], 2), ("A2xA2", [("A", 2), ("A", 2)], 8),
    ("A3xA3", [("A", 3), ("A", 3)], 8), ("D4xA2", [("D", 4), ("A", 2)], 12)]


def _diagram_automorphisms(d):
    """Every permutation of the simple roots that keeps the Cartan matrix."""
    n = d.rank
    return [PinnedAutomorphism(d, p) for p in itertools.permutations(range(n))
            if all(d.cartan[p[i]][p[j]] == d.cartan[i][j] for i in range(n) for j in range(n))]


def _pairing(cartan, b, a_vee):
    """<b, a_vee> = sum_ij a_vee[i] cartan[i][j] b[j]."""
    n = len(cartan)
    return sum(a_vee[i] * cartan[i][j] * b[j] for i in range(n) for j in range(n))


class TestTableRoutes:
    @pytest.mark.parametrize("label,families", TABLE_CASES)
    def test_commutes_with_is_equality_under_conjugation(self, label, families):
        d = build_root_datum(families)
        thetas = _diagram_automorphisms(d)
        assert len(thetas) == {"D4": 6, "A2xA2": 8}.get(label, 2 if label[0] in "AD" else 1)
        for theta in thetas:
            fixed = [w for w in d.weyl_group() if theta.commutes_with(w)]
            assert fixed == [w for w in d.weyl_group() if theta.act_weyl(w) == w]
            assert len(fixed) == restrict_root_system(d, theta).fixed_weyl_order()

    # compose reads the composite off the factors' permutations; the
    # validating constructor and act_root on every root are the reference
    @pytest.mark.parametrize("label,families", TABLE_CASES)
    def test_compose_matches_the_validating_constructor(self, label, families):
        d = build_root_datum(families)
        thetas = _diagram_automorphisms(d)
        for s in thetas:
            for o in thetas:
                got = s.compose(o)
                want = PinnedAutomorphism(d, [s.perm[o.perm[i]] for i in range(d.rank)])
                assert got.datum is d
                assert (got.perm, got.inv_perm) == (want.perm, want.inv_perm)
                fwd = tuple(d.root_index[want.act_root(r.coords)] for r in d.roots)
                assert got.root_perm == fwd
                assert [fwd[j] for j in got._perms()[1]] == list(range(len(d.roots)))
                assert got.order == want.order and got.is_identity == want.is_identity
        # a factor on a separately built datum goes through the constructor
        twin = build_root_datum(families)
        for s in thetas:
            for o in thetas:
                got = s.compose(PinnedAutomorphism(twin, o.perm))
                assert got.datum is d and got.root_perm == s.compose(o).root_perm

    # root_perm is read off the reflection tables; act_root on every root's
    # coordinates and a root_index lookup is the reference
    @pytest.mark.parametrize("label,families,count", THETA_PERM_CASES)
    def test_root_perm_is_the_coordinate_action(self, label, families, count):
        d = build_root_datum(families)
        thetas = _levi_thetas(d)
        assert len(thetas) == count
        for theta in thetas:
            want = tuple(d.root_index[theta.act_root(r.coords)] for r in d.roots)
            assert theta.root_perm == want
            assert [want[j] for j in theta._perms()[1]] == list(range(len(d.roots)))

    # the reference is theta's act_root followed by the matrix of w, the
    # product of the reflection matrices along its word
    @pytest.mark.parametrize("label,families", TABLE_CASES)
    def test_root_automorphism_index_action_is_act_root(self, label, families):
        d = build_root_datum(families)
        gens = _simple_reflection_matrices(d.cartan, False)
        group = d.weyl_group()
        sample = random.Random(0).sample(group, min(len(group), 40))
        for theta in _diagram_automorphisms(d):
            for w in sample:
                m = functools.reduce(_mat_mul, (gens[i] for i in w.word), _identity(d.rank))
                aut = RootAutomorphism(w, theta)
                assert [d.roots[k].coords for k in aut.perm] == \
                    [_mat_vec(m, theta.act_root(r.coords)) for r in d.roots]


# ---------------------------------------------------------------------------
# the Levi of a simple restricted root against the line scan
# ---------------------------------------------------------------------------

LEVI_CASES = [(f"A{n}", [("A", n)]) for n in range(1, 12)] + [
    (f"{f}{n}", [(f, n)]) for f, ns in (("B", (2, 3, 4)), ("C", (2, 3, 4)), ("D", (4, 5, 6)))
    for n in ns] + [
    (f"A{n}xA{n}", [("A", n), ("A", n)]) for n in range(1, 5)] + [
    ("D4xA2", [("D", 4), ("A", 2)])]


def _levi_thetas(d):
    """Identity and flip on a single A_n, whose rank is too large for a
    search over all permutations; every diagram automorphism otherwise."""
    if len(d.families) == 1 and d.families[0][0] == "A":
        return [PinnedAutomorphism(d, p) for p in sorted({tuple(range(d.rank)),
                                                          tuple(range(d.rank))[::-1]})]
    return _diagram_automorphisms(d)


def _integer_ratio(v, beta):
    """q with v == q*beta over the integers (q may be negative), else None."""
    qs = set()
    for a, b in zip(v, beta):
        if b == 0:
            if a != 0:
                return None
        elif a % b:
            return None
        else:
            qs.add(a // b)
    return qs.pop() if len(qs) == 1 else None


def _coordinate_reflection(d, a):
    """s_a for a root a, b -> b - <b, a_vee> a on every root, as a Weyl element."""
    perm = tuple(d.root_index[tuple(x - _pairing(d.cartan, b.coords, a.coroot) * y
                                    for x, y in zip(b.coords, a.coords))] for b in d.roots)
    return WeylElement._from_perms(d, perm, perm)


def _line_scan_levi(rrs, beta):
    """(roots, components, kind, longest) of the Levi of beta by the line
    scan: every root restricting to an integer multiple of beta; the
    indecomposable positives among them as its simple roots, grouped by
    union-find over nonzero pairings; the longest element by reflections in
    those simple roots while w sends one of them to a positive root."""
    d = rrs.datum
    roots = tuple(sorted(c for v, rr in rrs.restricted.items()
                         if _integer_ratio(v, beta) is not None for c in rr.orbit))
    pos = [c for c in roots if d.root(c).positive]
    simples = sorted(c for c in pos if not any(
        tuple(x - y for x, y in zip(c, u)) in pos for u in pos if u != c))
    comp_of, comps = {}, []
    for c in simples:
        linked = sorted({comp_of[u] for u in simples if u in comp_of
                         and _pairing(d.cartan, c, d.root(u).coroot) != 0})
        if not linked:
            comp_of[c] = len(comps)
            comps.append([c])
            continue
        comps[linked[0]].append(c)
        comp_of[c] = linked[0]
        for extra in linked[1:]:
            for u in comps[extra]:
                comp_of[u] = linked[0]
            comps[linked[0]].extend(comps[extra])
            comps[extra] = []
    components = tuple(sorted(tuple(sorted(c)) for c in comps if c))
    kind = {frozenset({1}): "A1", frozenset({2}): "A2"}.get(frozenset(map(len, components)))
    reflections = [(d.root_index[c], _coordinate_reflection(d, d.root(c))) for c in simples]
    w = d.identity_weyl()
    while True:
        s = next((s for j, s in reflections if w.perm[j] < d.n_positive), None)
        if s is None:
            return roots, components, kind, w
        w = w * s


class TestLeviRoute:
    @pytest.mark.parametrize("label,families", LEVI_CASES)
    def test_fiber_levi_is_the_line_scan_levi(self, label, families):
        d = build_root_datum(families)
        for theta in _levi_thetas(d):
            rrs = restrict_root_system(d, theta)
            for beta in rrs.simple_restricted:
                lev = levi_component(rrs, beta)
                roots, components, kind, longest = _line_scan_levi(rrs, beta)
                assert (lev.roots, lev.components, lev.kind) == (roots, components, kind)
                assert lev.longest == longest and lev.longest.word == longest.word
                assert rrs.levi_longest[beta] == longest
            for v in rrs.restricted:
                if v not in rrs.simple_restricted:
                    with pytest.raises(RootDatumError, match="not a simple restricted root"):
                        levi_component(rrs, v)


# ---------------------------------------------------------------------------
# the pairings table, and the restriction read off it, against dense routes
# ---------------------------------------------------------------------------

PAIRING_CASES = [(f"A{n}", [("A", n)]) for n in range(1, 10)] + [
    (f"{f}{n}", [(f, n)]) for f, ns in (("B", range(2, 6)), ("C", range(2, 6)),
                                        ("D", range(3, 7))) for n in ns] + [
    ("A2xA2", [("A", 2), ("A", 2)]), ("D4xA1", [("D", 4), ("A", 1)])]

# every restriction that `verify --suite all` builds is among
# RESTRICTION_CASES, as are the scenario ladder of the benchmark and the D4
# triality and A2xA2 twist that CI restricts; the flips run on to A13
LADDER_CASES = RESTRICTION_CASES + [(f"A{n} flip", [("A", n)], tuple(range(n - 1, -1, -1)))
                                    for n in range(7, 14)]

# every restricted system that these tests build, each under its first label
_BUILT = LADDER_CASES + FIXED_ORDER_CASES + KERNEL_CASES
RESTRICTED_CASES = [case for k, case in enumerate(_BUILT)
                    if all(case[1:] != other[1:] for other in _BUILT[:k])]


def _dense_pairings(d, coords):
    """<root, alpha_i_vee> for each i: the Cartan matrix times the coordinates."""
    return tuple(sum(c * x for c, x in zip(row, coords)) for row in d.cartan)


def _pairwise_indecomposables(pos):
    """The roots of pos that are no sum of two roots of pos, comparing every pair."""
    return {v for v in pos
            if not any(tuple(x - y for x, y in zip(v, u)) in pos for u in pos if u != v)}


def _support_scan(rrs, beta):
    """The roots supported on the simple indices of the fiber of beta, by a
    scan of every root."""
    nodes = {c.index(1) for c in rrs.restricted[beta].orbit}
    return tuple(sorted(r.coords for r in rrs.datum.roots
                        if all(i in nodes for i, x in enumerate(r.coords) if x)))


class TestRestrictionTables:
    @pytest.mark.parametrize("label,families", PAIRING_CASES)
    def test_pairings_are_the_dense_cartan_product(self, label, families):
        d = build_root_datum(families)
        assert len(d.pairings) == len(d.roots)
        for r, p in zip(d.roots, d.pairings):
            assert p == _dense_pairings(d, r.coords)

    @pytest.mark.parametrize("label,families,perm", LADDER_CASES)
    def test_restrict_root_is_the_restricted_dense_pairing(self, label, families, perm):
        d = build_root_datum(families)
        rrs = restrict_root_system(d, PinnedAutomorphism(d, perm))
        for r in d.roots:
            assert rrs.restrict_root(r.coords) == rrs.restrict_weight(_dense_pairings(d, r.coords))
        for v in ((0,) * d.rank, (2,) + (0,) * (d.rank - 1), (1,) * d.rank + (0,)):
            with pytest.raises(RootDatumError, match="is not a root"):
                rrs.restrict_root(v)

    # the check decides, for the simple restricted roots and for each
    # subset of the positive restricted roots one root away from them (one
    # simple root dropped, one extra, or one swapped for a non-simple root),
    # what the pairwise comparison and the two-clause check decide
    @pytest.mark.parametrize("label,families,perm", RESTRICTED_CASES)
    def test_indecomposable_check_is_the_pairwise_check(self, label, families, perm):
        d = build_root_datum(families)
        rrs = restrict_root_system(d, PinnedAutomorphism(d, perm))
        pos, simple = set(rrs.positive_restricted), set(rrs.simple_restricted)
        indecomposable = _pairwise_indecomposables(pos)
        assert indecomposable == simple
        others = sorted(pos - simple)
        candidates = [simple] + [simple - {b} for b in simple] + \
            [simple | {v} for v in others] + [(simple - {b}) | {v} for b in simple for v in others]
        for cand in candidates:
            cand_t = tuple(sorted(cand))
            assert _indecomposables_are(cand_t, pos, rrs.res_rank) == (cand == indecomposable)
            assert indecomposables_by_subtraction(cand_t, pos) == (cand == indecomposable)

    # the index tables against coordinates: the restriction of each root
    # through its dense pairings, and minus, twice and half of each
    # restricted root as tuples
    @pytest.mark.parametrize("label,families,perm", RESTRICTED_CASES)
    def test_index_tables_are_the_coordinate_maps(self, label, families, perm):
        d = build_root_datum(families)
        rrs = restrict_root_system(d, PinnedAutomorphism(d, perm))
        keys = list(rrs.restricted)
        assert keys == sorted(keys) == [rr.coords for rr in rrs._res_roots]
        assert [keys[i] for i in rrs._res_of] == \
            [rrs.restrict_weight(_dense_pairings(d, r.coords)) for r in d.roots]
        for i, v in enumerate(keys):
            assert keys[rrs._res_negation[i]] == tuple(-c for c in v)
            multiples = [w for w in keys if tuple(2 * c for c in v) == w
                         or tuple(2 * c for c in w) == v]
            assert keys[rrs._res_double[i]] == (multiples[0] if multiples else v)
            assert rrs._res_position[v] == i

    # the pairing reads one coordinate per orbit, so a cocharacter that theta
    # does not fix is refused rather than paired
    def test_pairing_refuses_a_cocharacter_theta_does_not_fix(self):
        d = build_root_datum([("A", 3)])
        rrs = restrict_root_system(d, PinnedAutomorphism(d, [2, 1, 0]))
        assert rrs.pair_restricted((1, 0), (1, 0, 1)) == 1
        for cochar in ((1, 0, 0), (0, 0, 1), (1, 1, 2)):
            with pytest.raises(RootDatumError, match="cocharacter is not theta-fixed"):
                rrs.pair_restricted((1, 0), cochar)

    @pytest.mark.parametrize("label,families,perm", LADDER_CASES)
    def test_levi_roots_are_the_support_scan(self, label, families, perm):
        d = build_root_datum(families)
        rrs = restrict_root_system(d, PinnedAutomorphism(d, perm))
        for beta in rrs.simple_restricted:
            assert levi_component(rrs, beta).roots == _support_scan(rrs, beta)


# ---------------------------------------------------------------------------
# the positive-root search against the search of every root
# ---------------------------------------------------------------------------

SEARCH_CASES = HEIGHT_CASES + [
    (f"{f}{n}", [(f, n)]) for f, low in (("B", 2), ("C", 2), ("D", 3)) for n in range(low, 8)
    if (f"{f}{n}", [(f, n)]) not in HEIGHT_CASES] + [("A30", [("A", 30)])]


def _diagram_perms(d):
    """The permutations of the simple roots that preserve the Cartan matrix:
    all of them up to rank 5, else the identity, the reversal and the swap
    of the last two where they do."""
    n = d.rank
    perms = itertools.permutations(range(n)) if n <= 5 else [
        tuple(range(n)), tuple(range(n - 1, -1, -1)), tuple(range(n - 2)) + (n - 1, n - 2)]
    return [p for p in perms
            if all(d.cartan[p[i]][p[j]] == d.cartan[i][j] for i in range(n) for j in range(n))]


class TestPositiveRootSearch:
    @pytest.mark.parametrize("label,families", SEARCH_CASES)
    def test_tables_are_those_of_the_search_of_every_root(self, label, families):
        d = build_root_datum(families)
        ref = AllRootsTables(d)
        assert d.roots == ref.roots
        assert d.pairings == ref.pairings
        assert list(d._code_index.items()) == list(ref.code_index.items())
        assert d.simple_index == ref.simple_index
        for j, r in enumerate(d.roots):
            assert d.roots[d._negation[j]].coords == tuple(-x for x in r.coords)

    @pytest.mark.parametrize("label,families", SEARCH_CASES)
    def test_permutations_are_those_of_the_search_of_every_root(self, label, families):
        d = build_root_datum(families)
        ref = AllRootsTables(d)
        for i in range(d.rank):
            s = d.simple_reflection(i)
            assert s.perm == s.inv_perm == ref.simple_reflection(i), i
        assert d.longest_element().perm == ref.longest_element()
        perms = _diagram_perms(d)
        # the identity, and on A_n, n > 1, the flip as well
        assert len(perms) >= 1 + (families[0][0] == "A" and d.rank > 1)
        for perm in perms:
            assert PinnedAutomorphism(d, perm).root_perm == ref.theta_perm(perm), perm


class TestSimpleReflectionsOnFirstUse:
    @pytest.fixture
    def built(self, monkeypatch):
        """The image codes of every root permutation built while the test runs."""
        codes, original = [], RootDatum._perms_of
        monkeypatch.setattr(RootDatum, "_perms_of",
                            lambda self, c: codes.append(tuple(c)) or original(self, c))
        return codes

    @pytest.mark.parametrize("label,families", HEIGHT_CASES)
    def test_construction_builds_no_reflection(self, label, families, built):
        d = build_root_datum(families)
        assert built == []
        for i in reversed(range(d.rank)):
            s = d.simple_reflection(i)
            assert d.simple_reflection(i) is s
        assert len(built) == d.rank

    @pytest.mark.parametrize("scenario", [
        {"datum": [["A", 4]], "theta": {"perm": [4, 3, 2, 1]},
         "galois": {"order": 2, "omega_T": [1, 2, 1, 3, 2, 1, 4, 3, 2, 1]},
         "adata": {"mode": "symbolic"}},
        {"datum": [["D", 4]], "theta": {"perm": [3, 2, 4, 1]},
         "galois": {"order": 6, "omega_T": [1, 2, 1, 3, 2, 1, 4, 2, 1, 3, 2, 4],
                    "sigma_T": [3, 2, 4, 1]}, "adata": {"mode": "symbolic"}},
        {"datum": [["A", 2]], "theta": {"perm": [2, 1]},
         "galois": {"order": 2, "omega_T": [1, 2, 1], "field": {"d": 5}},
         "adata": {"mode": "values", "values": {"1,0": [0, 1], "0,1": [0, 1], "1,1": [0, 1]}}},
    ])
    def test_restrict_and_invariant_read_no_reflection(self, scenario, tmp_path, monkeypatch,
                                                        capsys):
        read, original = [], RootDatum.simple_reflection
        monkeypatch.setattr(RootDatum, "simple_reflection",
                            lambda self, i: read.append(i) or original(self, i))
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        for command in ("restrict", "invariant"):
            assert main([command, str(path)]) == 0
            assert json.loads(capsys.readouterr().out)["pass"]
        assert read == []
