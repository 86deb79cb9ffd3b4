"""Weyl-group data read off the root tables: |W| and |W^theta| from the
heights of the positive roots, and the Weyl element of a monomial matrix
from the roots its permutation sends the simple roots to, each against the
route it replaced (``weyl_order_reference``)."""

import itertools
import math

import pytest

import splitinv.rootdata as rootdata
from splitinv.coeffs import QuadField
from splitinv.errors import RootDatumError
from splitinv.matoracle import MatrixContext
from splitinv.rootdata import PinnedAutomorphism, build_root_datum, restrict_root_system
from splitinv.splitting import Realization
from weyl_order_reference import restricted_cartan, weyl_group_order, weyl_of_permutation


def height_order(d):
    return rootdata._weyl_order(d._heights[:d.n_positive])


def pinned_automorphisms(d):
    """Every permutation of the simple roots that keeps the Cartan matrix."""
    n = d.rank
    return [PinnedAutomorphism(d, p) for p in itertools.permutations(range(n))
            if all(d.cartan[p[i]][p[j]] == d.cartan[i][j] for i in range(n) for j in range(n))]


@pytest.mark.parametrize("families", [[(f, n)] for f, low, high in (
    ("A", 1, 14), ("B", 2, 8), ("C", 2, 8), ("D", 3, 8)) for n in range(low, high + 1)] + [
    [("A", 2), ("B", 3)], [("D", 4), ("C", 2), ("A", 1)]])
def test_ambient_orders_are_the_classifiers(families):
    d = build_root_datum(families)
    assert height_order(d) == weyl_group_order(d.cartan)


# every pinned theta of each datum, the identity among them
@pytest.mark.parametrize("families", [[("A", n)] for n in range(1, 5)] + [
    [("B", 2)], [("B", 3)], [("C", 3)], [("D", 4)], [("A", 2), ("A", 2)]])
def test_fixed_orders_are_the_classifiers_and_the_enumerated(families):
    d = build_root_datum(families)
    for theta in pinned_automorphisms(d):
        rrs = restrict_root_system(d, theta)
        got = rrs.fixed_weyl_order()
        assert got == weyl_group_order(restricted_cartan(rrs)), theta
        assert got == len(rrs.fixed_weyl_subgroup()), theta
        if theta.is_identity:
            assert got == height_order(d) == len(d.weyl_group())


def test_fixed_order_pairs_no_restricted_roots(monkeypatch):
    d = build_root_datum([("D", 4)])
    rrs = restrict_root_system(d, PinnedAutomorphism(d, (2, 1, 3, 0)))
    monkeypatch.setattr(rrs, "_pair", None)
    assert rrs.fixed_weyl_order() == 12


def test_closed_forms_at_large_rank():
    d13 = build_root_datum([("A", 13)])
    assert restrict_root_system(
        d13, PinnedAutomorphism(d13, range(12, -1, -1))).fixed_weyl_order() == 645120
    d = build_root_datum([("A", 100)])
    with pytest.raises(RootDatumError, match=f"= {math.factorial(101)} is above"):
        d.weyl_group()
    flip = restrict_root_system(d, PinnedAutomorphism(d, range(99, -1, -1)))
    assert flip.fixed_weyl_order() == 2 ** 50 * math.factorial(50)


# every signed permutation matrix of determinant 1 over Q(sqrt 5), the
# field of a realization: omega from the roots e_perm[i] - e_perm[i+1]
# against omega multiplied out from a bubble sort
@pytest.mark.parametrize("n", range(2, 7))
def test_monomial_weyl_element_is_the_bubble_sorts(n):
    f = QuadField(5)
    ctx = MatrixContext(n, f)
    entry = {1: f.one(), -1: -f.one(), 0: f.zero()}
    real = object.__new__(Realization)
    real.ctx = ctx
    for perm in itertools.permutations(range(n)):
        want = weyl_of_permutation(ctx.datum, perm)
        parity = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)) % 2
        for signs in itertools.product((1, -1), repeat=n):
            if math.prod(signs) != (-1) ** parity:
                continue
            u = tuple(tuple(entry[signs[j] if i == perm[j] else 0] for j in range(n))
                      for i in range(n))
            omega, got_perm = real._weyl_from_monomial(u)
            assert omega == want and omega.word == want.word, (perm, signs)
            assert got_perm == list(perm)
