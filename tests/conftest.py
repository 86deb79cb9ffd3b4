"""Fixtures shared by the test modules."""

import pytest

from splitinv.splitting import DescentDatum
from splitinv.tits import TitsElement, TorusElement


@pytest.fixture
def negated_galois_on_tits(monkeypatch):
    """DescentDatum.galois_on_tits with a fault put in: the first torus
    coordinate of every image negated, so the m-level cocycle identity
    fails at (sigma^1, sigma^1), the first pair that applies the action."""
    honest = DescentDatum.galois_on_tits

    def faulty(self, k, x):
        y = honest(self, k, x)
        c = y.torus.coords
        return TitsElement(TorusElement((-c[0],) + c[1:]), y.weyl)

    monkeypatch.setattr(DescentDatum, "galois_on_tits", faulty)
