"""Root data, Weyl elements, pinned automorphisms, and restriction."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from splitinv.errors import RootDatumError
from splitinv.rootdata import (PinnedAutomorphism, RootAutomorphism, RootDatum,
                               analyze_weyl, build_root_datum, datum_and_theta_from_json,
                               levi_component, restrict_root_system, weyl_group_order)


def is_root(d, coords):
    return tuple(coords) in d.root_index


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

    def test_reflection_closure(self):
        d = build_root_datum([("B", 3)])
        for r in d.roots:
            for i in range(d.rank):
                img = d.simple_reflection(i).act_root(r.coords)
                assert is_root(d, img)

    def test_coroot_pairing_is_two(self):
        for spec in ([("A", 3)], [("C", 2)], [("D", 4)]):
            d = build_root_datum(spec)
            for r in d.roots:
                assert d.pairing(r.coords, r.coroot) == 2


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


class TestSerialization:
    def test_roundtrip(self):
        doc = {"type": [["A", 3]], "theta": {"perm": [3, 2, 1]}}
        datum, theta = datum_and_theta_from_json(doc)
        assert datum.families == (("A", 3),)
        assert theta.perm == (2, 1, 0)
        assert datum.to_json() == {"type": [["A", 3]]}
        assert theta.to_json() == {"perm": [3, 2, 1]}

    def test_malformed(self):
        with pytest.raises(RootDatumError):
            datum_and_theta_from_json({"type": "A2"})
        with pytest.raises(RootDatumError):
            datum_and_theta_from_json({"type": [["A", 2]], "theta": {"perm": [1]}})

    # a rank or a permutation entry that is not an int is rejected, never
    # truncated: ("A", 2.5) once built A2 from JSON and [3.7, 2, 1] the A3 flip
    @pytest.mark.parametrize("rank", [2.5, True, "3"])
    def test_rank_must_be_an_integer(self, rank):
        with pytest.raises(RootDatumError, match="field 'type'"):
            RootDatum([("A", rank)])

    @pytest.mark.parametrize("rank", [2.5, True, "2"])
    def test_json_rank_must_be_an_integer(self, rank):
        with pytest.raises(RootDatumError, match="field 'type'"):
            RootDatum.from_json({"type": [["A", rank]]})

    @pytest.mark.parametrize("perm", [[3.7, 2, 1], [3.0, 2, 1], [3, 2, True], ["3", 2, 1]])
    def test_json_perm_must_be_integers(self, perm):
        d = build_root_datum([("A", 3)])
        with pytest.raises(RootDatumError, match="field 'perm'"):
            PinnedAutomorphism.from_json(d, {"perm": perm})

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
        for v in fixed_cocharacter_basis(rrs):
            assert theta.act_coroot(v) == v

    def test_restriction_pairs_with_basis(self):
        # the restricted coordinates of a root are its pairings with the
        # orbit-sum basis of the fixed cocharacter lattice
        d = build_root_datum([("A", 4)])
        theta = PinnedAutomorphism(d, [3, 2, 1, 0])
        rrs = restrict_root_system(d, theta)
        basis = fixed_cocharacter_basis(rrs)
        for r in d.roots:
            res = rrs.restrict_root(r.coords)
            assert res == tuple(d.pairing(r.coords, mu) for mu in basis)


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
        vectors = basis + [r.coords for r in d.roots] + [tuple(range(2, d.rank + 2))]
        covectors = basis + [r.coroot for r in d.roots] + [tuple(range(-1, d.rank - 1))]
        for m, w in lib.items():
            m_inv, c, c_inv, _ = ref.elements[m]
            for v in vectors:
                assert w.act_root(v) == _mat_vec(m, v)
                assert w.act_root_inv(v) == _mat_vec(m_inv, v)
            for v in covectors:
                assert w.act_coroot(v) == _mat_vec(c, v)
                assert w.act_coroot_inv(v) == _mat_vec(c_inv, v)
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
    def test_reflection_in_root_is_the_coordinate_reflection(self, label, families):
        d = build_root_datum(families)
        for a in d.roots:
            s = d.reflection_in_root(a.coords)
            for j, b in enumerate(d.roots):
                k = _pairing(d.cartan, b.coords, a.coroot)
                want = tuple(x - k * y for x, y in zip(b.coords, a.coords))
                assert d.roots[s.perm[j]].coords == want
                assert d.pairing(b.coords, a.coroot) == k
            assert s * s == d.identity_weyl() and s.inverse() == s

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

    @pytest.mark.parametrize("label,families", TABLE_CASES)
    def test_root_automorphism_index_action_is_act_root(self, label, families):
        d = build_root_datum(families)
        group = d.weyl_group()
        sample = random.Random(0).sample(group, min(len(group), 40))
        for theta in _diagram_automorphisms(d):
            for w in sample:
                aut = RootAutomorphism(w, theta)
                assert [d.roots[k].coords for k in aut.perm] == \
                    [aut.act_root(r.coords) for r in d.roots]
