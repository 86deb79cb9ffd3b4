"""A failing suite check names the first input it failed on.

Each test puts a fault into one computation that a suite checks against a
second route, and asserts that the failed record carries the faulty input as
its counterexample."""

from splitinv import suites
from splitinv.coeffs import LocalPlace
from splitinv.rootdata import (PinnedAutomorphism, RestrictedRootSystem,
                               build_root_datum, restrict_root_system)
from splitinv.tits import TorusElement


def by_name(records):
    return {r.name: r for r in records}


def test_closed_form_check_names_the_failing_triple(monkeypatch):
    genuine = suites.hilbert_symbol_bruteforce
    bad = (2, 5, LocalPlace.padic(5))

    def corrupted(a, b, place):
        value = genuine(a, b, place)
        return -value if (a, b, place) == bad else value

    monkeypatch.setattr(suites, "hilbert_symbol_bruteforce", corrupted)
    records = by_name(suites.suite_aa(0, pairs=10, product_pairs=5, sign_data=5))
    record = records["aa/closed-form-vs-bruteforce"]
    assert not record.passed
    assert record.counterexample == bad
    assert record.to_dict()["counterexample"] == repr(bad)
    assert all(r.passed for name, r in records.items() if name != record.name)


def test_multiplicativity_check_counts_and_names_a_failing_pair(monkeypatch):
    genuine = suites.tits_cocycle
    corrupted_pairs = []

    def corrupted(datum, w1, w2, one):
        value = genuine(datum, w1, w2, one)
        if datum.rank == 3 and not corrupted_pairs:  # the first SL(4) pair
            corrupted_pairs.append((w1, w2))
        if datum.rank == 3 and (w1, w2) == corrupted_pairs[0]:
            return TorusElement(tuple(-c for c in value.coords))
        return value

    monkeypatch.setattr(suites, "tits_cocycle", corrupted)
    records = by_name(suites.suite_tits(0, matrix_pairs=20))
    sl4 = records["tits/matrix-multiplicativity-and-cocycle/SL4"]
    assert not sl4.passed and sl4.expected == 0 and sl4.actual >= 1
    w1, w2, t1, t2 = sl4.counterexample
    assert (w1, w2) == corrupted_pairs[0]
    assert isinstance(t1, TorusElement) and isinstance(t2, TorusElement)
    assert len(t1.coords) == len(t2.coords) == 3  # the rank of SL(4)
    assert records["tits/matrix-multiplicativity-and-cocycle/SL5"].passed


def test_root_system_check_names_the_failing_pair(monkeypatch):
    datum = build_root_datum([("A", 3)])
    rrs = restrict_root_system(datum, PinnedAutomorphism(datum, (2, 1, 0)))
    target = list(rrs.restricted)[-1]  # the last case the check draws
    genuine = RestrictedRootSystem.reflect_restricted

    def corrupted(self, gamma, beta):
        if tuple(gamma) == tuple(beta) == target:
            return tuple(0 for _ in beta)  # not a restricted root
        return genuine(self, gamma, beta)

    monkeypatch.setattr(RestrictedRootSystem, "reflect_restricted", corrupted)
    record = by_name(suites.suite_steinberg())["steinberg/1-root-system/A3 flip"]
    assert not record.passed
    assert record.counterexample == (target, target)
    assert record.to_dict()["counterexample"] == repr((target, target))
