"""Workload `signs`: the local sign calculus.

A round holds Hilbert symbols (a, b)_v for twelve pairs at every place
where they can be nontrivial: the real place, 2, the small odd primes and
two primes between 1e9 and 1e11 per pair.  As the command line does, each
query builds its place.  The round also evaluates norm-sign characters on
norms, compares delta_i_ratio with adata_change_sign on random endoscopic
sign data over the A2, A4 and A6 flips, checks chi-invariance of every
factor variant, and sends two malformed `hilbert` queries through
`cli.main`.

a and b are built from primes certified by `oracle.is_prime`.  The checks
are the product formula over all places of each pair, agreement with
`hilbert_symbol_bruteforce` at the real place and at p <= 7, norm signs
equal to +1, and the expected chi-invariance of each variant."""

from __future__ import annotations

import random
from fractions import Fraction

import splitinv.coeffs as coeffs
import splitinv.factors as factors
from splitinv.rootdata import PinnedAutomorphism, build_root_datum, restrict_root_system
from splitinv.splitting import DescentDatum

import oracle
from common import Op, Workload, interleave, run_cli

PAIRS = 12                       # Hilbert pairs per round, two large primes each
PAIRS_WITH_ODD_SMALL = 4         # of which this many carry a small odd prime
NORMS = 10
CHI_REPEATS = 2
FACTOR_COUNTS = {2: 5, 4: 24, 6: 24}   # A_n flip -> sign-datum operations
SMALL_ODD = (3, 5, 7, 11, 13)
BRUTE_LIMIT = 7                  # brute-force oracle at the real place and p <= 7
MALFORMED = (["hilbert", "abc", "5", "--place", "5"],
             ["hilbert", "2", "5", "--place", "x"])
CHI_EXPECTED = {"delta_ks": False, "delta_d": True, "delta_prime": True,
                "delta_d_lambda": True, "delta_prime_lambda": True}
# (p or None for the real place, d): d is not a square at the place
PLACE_POOL = ((None, -1), (2, 5), (2, -1), (2, 3), (3, -1), (3, 3), (5, 2),
              (5, 5), (7, 3), (11, 2))


def _place(p, d=None):
    return coeffs.LocalPlace.real(d) if p is None else coeffs.LocalPlace.padic(p, d)


def large_primes(rng: random.Random, count: int):
    """One prime near the middle of each stratum of [1e9, 1e11] on a log
    scale, so that the spread of sizes is the same for every seed."""
    out = []
    for k in range(count):
        exponent = 9 + 2 * (k + 0.4 + 0.2 * rng.random()) / count
        out.append(oracle.next_prime(int(10 ** exponent)))
    rng.shuffle(out)
    return out


class PairLedger:
    """Collects the symbols of one pair (a, b) at all its places and checks
    the product formula once all are in."""

    def __init__(self, a: int, b: int, places):
        self.a, self.b = a, b
        self.places = tuple(places)
        self.values = {}

    def record(self, p, value):
        self.values[p] = value
        if len(self.values) < len(self.places):
            return None
        prod = 1
        for v in self.values.values():
            prod *= v
        return None if prod == 1 else f"product formula fails for ({self.a}, {self.b})"


def _check_hilbert(ledger, p):
    def check(value):
        if value not in (1, -1):
            return f"hilbert({ledger.a}, {ledger.b}) at {p}: {value!r} is not a sign"
        if p is None or p <= BRUTE_LIMIT:
            brute = coeffs.hilbert_symbol_bruteforce(ledger.a, ledger.b, _place(p))
            if brute != value:
                return f"hilbert({ledger.a}, {ledger.b}) at {p}: {value}, brute force {brute}"
        return ledger.record(p, value)
    return check


def _hilbert_ops(rng):
    ops = []
    larges = large_primes(rng, 2 * PAIRS)
    for j in range(PAIRS):
        la, lb = larges[2 * j], larges[2 * j + 1]
        a = rng.choice((1, -1)) * 2 ** rng.randrange(3) * la
        b = rng.choice((1, -1)) * lb
        small = {2}
        if j < PAIRS_WITH_ODD_SMALL:
            q = rng.choice(SMALL_ODD)
            small.add(q)
            if rng.random() < 0.5:
                a *= q
            else:
                b *= q
        for p in (la, lb) + tuple(small):
            if not oracle.is_prime(p):
                raise AssertionError(f"{p} is not prime")
        places = [None] + sorted(small) + [la, lb]
        ledger = PairLedger(a, b, places)
        for p in places:
            large = p in (la, lb)
            # building the place of a large prime is integer arithmetic
            ops.append(Op("hilbert_large" if large else "hilbert_small", f"({a}, {b}) at {p}",
                          lambda a=a, b=b, p=p: coeffs.hilbert_symbol(a, b, _place(p)),
                          _check_hilbert(ledger, p), work="arith" if large else "object"))
    return ops


def _norm_ops(rng):
    ops = []
    for _ in range(NORMS):
        p, d = rng.choice(PLACE_POOL)
        u = Fraction(rng.randint(1, 30), rng.randint(1, 30))
        v = Fraction(rng.randint(0, 30), rng.randint(1, 30))
        x = u * u - d * v * v
        ops.append(Op("norm_sign", f"N({u}+{v}sqrt({d})) at {p}",
                      lambda x=x, p=p, d=d: coeffs.quad_norm_sign(x, _place(p, d)),
                      lambda s, x=x: None if s == 1 else f"norm {x} has sign {s}"))
    return ops


def _sign_datum_inputs(rng, orbits):
    """Random values on the Galois orbits of restricted roots: a sign and a
    place on each symmetric orbit, a sixth root of unity elsewhere."""
    values, places = {}, {}
    for orbit in orbits:
        if orbit.members[0] in values:
            continue
        if orbit.symmetric:
            val = rng.choice((factors.RootOfUnity.one(), factors.RootOfUnity.minus_one()))
            for w in orbit.members:
                values[w] = val
            places[orbit.members] = _place(*rng.choice(PLACE_POOL))
        else:
            val = factors.RootOfUnity.make(Fraction(rng.randrange(6), 6))
            for w in orbit.members:
                values[w] = val
                values[tuple(-c for c in w)] = val.inv()
    return values, places


def _factor_ops(rng):
    ops = []
    for n, count in FACTOR_COUNTS.items():
        datum = build_root_datum([("A", n)])
        theta = PinnedAutomorphism(datum, tuple(range(n - 1, -1, -1)))
        rrs = restrict_root_system(datum, theta)
        half = factors.half_on_divisible(rrs)
        descents = [DescentDatum(datum, 2, datum.longest_element()),
                    DescentDatum(datum, 2, rrs.levi_longest[rrs.simple_restricted[0]])]
        orbits = [factors.restricted_galois_orbits(rrs, desc) for desc in descents]
        for i in range(count):
            desc = descents[i % 2]
            values, places = _sign_datum_inputs(rng, orbits[i % 2])

            def run(rrs=rrs, desc=desc, values=values, places=places, half=half):
                sd = factors.EndoscopicSignDatum(rrs, desc, values, places)
                return factors.delta_i_ratio(rrs, sd), factors.adata_change_sign(rrs, sd, half)

            ops.append(Op("factor", f"A{n} flip", run,
                          lambda r: None if r[0] == r[1] and r[0] in (1, -1)
                          else f"delta_i_ratio {r[0]} != adata_change_sign {r[1]}"))
    return ops


def _chi_ops():
    return [Op("chi", v,
               lambda v=v: factors.chi_invariance_check(factors.build_factor_expression(v)),
               lambda ok, want=want, v=v: None if ok is want
               else f"{v}: chi-invariance {ok}, expected {want}")
            for v, want in CHI_EXPECTED.items() for _ in range(CHI_REPEATS)]


def _malformed_ops():
    # today these raise ValueError instead of exiting 2; they count as failed
    return [Op("malformed", " ".join(argv), lambda argv=argv: run_cli(argv),
               lambda out: None if out[0] == 2 and out[2] else f"exit {out[0]}, expected 2",
               known_fault=(ValueError,))
            for argv in MALFORMED]


def build(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    groups = [_hilbert_ops(rng), _norm_ops(rng), _factor_ops(rng), _chi_ops(), _malformed_ops()]
    return Workload("signs", interleave(groups, rng))
