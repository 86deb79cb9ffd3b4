"""Command-line entry point: verification suites, restriction reports,
abstract splitting-cocycle computation, Hilbert symbols, and the factor
calculus, all emitting deterministic JSON reports."""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from fractions import Fraction
from typing import List, Optional

from .coeffs import LocalPlace, QuadConj, QuadField, hilbert_symbol
from .errors import SplitinvError
from .factors import build_factor_expression, chi_invariance_check
from .rootdata import (PinnedAutomorphism, RootDatum, analyze_weyl,
                       restrict_root_system)
from .splitting import ADatum, DescentDatum, lambda_twisted, lambda_untwisted, \
    _symbolic_adata
from .suites import CheckRecord, run_suite


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _report(command: List[str], checks: List[CheckRecord], seed: Optional[int],
            result=None, timing: Optional[float] = None) -> dict:
    out = {
        "command": command,
        "input_digest": _digest(command),
        "seed": seed,
        "checks": [c.to_dict() for c in checks],
        "pass": all(c.passed for c in checks),
    }
    if result is not None:
        out["result"] = result
    if timing is not None:
        out["wall_time_s"] = round(timing, 3)
    return out


def _write_out(out_path: str, text: str, mode: str = "w") -> None:
    """Write text to --out; "" in mode "a" tests the path and keeps its file."""
    try:
        with open(out_path, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise SplitinvError(
            f"argument --out: cannot write {out_path}: {exc.strerror}") from None


def _emit(report: dict, out_path: Optional[str]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if out_path:
        _write_out(out_path, text)
    else:
        sys.stdout.write(text)


class ScenarioError(Exception):
    def __init__(self, field: str, message: str):
        super().__init__(f"field {field!r}: {message}")
        self.field = field


def _load_scenario(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ScenarioError("<file>", f"no such file: {path}") from None
    except OSError as exc:
        raise ScenarioError("<file>", f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError("<file>", f"{path} is not UTF-8 text: {exc.reason} "
                                      f"at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError("<json>", str(exc)) from None
    if not isinstance(doc, dict):
        raise ScenarioError("<json>", f"expected an object, got {type(doc).__name__}")
    return doc


def _object(doc: dict, key: str, field: str) -> Optional[dict]:
    """doc[key] when it is a JSON object, None when it is absent or null."""
    value = doc.get(key)
    if value is not None and not isinstance(value, dict):
        raise ScenarioError(field, f"expected an object, got {type(value).__name__}")
    return value


def _integer(raw, field: str) -> int:
    """A JSON integer; a float or a boolean is not silently truncated."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ScenarioError(field, f"expected an integer, got {raw!r}")
    return raw


def _parse_datum(doc: dict):
    spec = doc.get("datum", doc.get("type"))
    if spec is None:
        raise ScenarioError("datum", "missing")
    try:
        datum = RootDatum([(str(f), r) for f, r in spec])
    except (TypeError, ValueError, SplitinvError) as exc:
        raise ScenarioError("datum", str(exc)) from None
    theta_doc = doc.get("theta")
    try:
        theta = PinnedAutomorphism.from_json(datum, theta_doc)
    except SplitinvError as exc:
        raise ScenarioError("theta", str(exc)) from None
    return datum, theta


def _parse_galois(doc: dict, datum: RootDatum, fieldq: Optional[QuadField]) -> DescentDatum:
    gal = _object(doc, "galois", "galois")
    if gal is None:
        raise ScenarioError("galois", "missing")
    if "order" not in gal:
        raise ScenarioError("galois.order", "missing")
    order = _integer(gal["order"], "galois.order")
    word = gal.get("omega_T", [])
    if not isinstance(word, list):
        raise ScenarioError("galois.omega_T", "expected a list of 1-based indices")
    try:
        omega = analyze_weyl(datum, [_integer(i, "galois.omega_T") for i in word],
                             one_based=True)
    except (SplitinvError, ValueError, IndexError) as exc:
        raise ScenarioError("galois.omega_T", str(exc)) from None
    sigma_doc = gal.get("sigma_T")
    try:
        sigma = PinnedAutomorphism.from_json(
            datum, {"perm": sigma_doc} if sigma_doc else None)
    except SplitinvError as exc:
        raise ScenarioError("galois.sigma_T", str(exc)) from None
    try:
        return DescentDatum(datum, order, omega, sigma,
                            QuadConj(fieldq) if fieldq is not None else None)
    except SplitinvError as exc:
        raise ScenarioError("galois", str(exc)) from None


def _parse_value(raw, fieldq: Optional[QuadField]):
    if isinstance(raw, (int, str)):
        val = Fraction(raw)
        return fieldq.embed(val) if fieldq else val
    if isinstance(raw, list) and len(raw) == 2 and fieldq is not None:
        return fieldq.embed(Fraction(raw[0])) + fieldq.gen() * fieldq.embed(Fraction(raw[1]))
    raise ValueError(f"cannot parse coefficient {raw!r}")


def cmd_invariant(args) -> int:
    doc = _load_scenario(args.scenario)
    datum, theta = _parse_datum(doc)
    adoc = _object(doc, "adata", "adata")
    if adoc is None or "mode" not in adoc:
        raise ScenarioError("adata.mode", "missing")
    gal = _object(doc, "galois", "galois") or {}
    fdoc = _object(gal, "field", "galois.field")
    checks: List[CheckRecord] = []
    if adoc["mode"] == "symbolic":
        descent = _parse_galois(doc, datum, None)
        try:
            adata, info = _symbolic_adata(datum, descent,
                                          None if theta.is_identity else theta)
        except SplitinvError as exc:
            raise ScenarioError("galois", str(exc)) from None
        # the symbolic coefficient action permutes the root classes as the
        # validated generator permutes the roots, so its order divides the
        # group order and the descent datum stays valid
        descent.field_action = info.field_action
    elif adoc["mode"] == "values":
        if not fdoc or "d" not in fdoc:
            raise ScenarioError("galois.field.d", "missing (required for value mode)")
        try:
            fieldq = QuadField(_integer(fdoc["d"], "galois.field.d"))
        except SplitinvError as exc:
            raise ScenarioError("galois.field.d", str(exc)) from None
        descent = _parse_galois(doc, datum, fieldq)
        raw = adoc.get("values")
        if not isinstance(raw, dict):
            raise ScenarioError("adata.values", "expected an object keyed by root coords")
        values = {}
        for key, v in raw.items():
            try:
                coords = tuple(int(c) for c in key.split(","))
                val = _parse_value(v, fieldq)
            except (ValueError, TypeError, ZeroDivisionError) as exc:
                raise ScenarioError("adata.values", f"at {key!r}: cannot parse {v!r}: "
                                    f"{type(exc).__name__}: {exc}") from None
            if not val:
                raise ScenarioError("adata.values", f"at {key!r}: an a-value must be nonzero")
            values[coords] = val
        try:
            adata = ADatum.from_positive(datum, values, fieldq.one(), fieldq.half(),
                                         flavor="twisted" if not theta.is_identity
                                         else "plain")
        except SplitinvError as exc:
            raise ScenarioError("adata.values", str(exc)) from None
    else:
        raise ScenarioError("adata.mode", f"unknown mode {adoc['mode']!r}")

    def run():
        if theta.is_identity:
            return lambda_untwisted(datum, descent, adata)
        return lambda_twisted(datum, theta, descent, adata)

    t0 = time.time()
    try:
        cocycle = run()
        ok = True
        detail = None
    except SplitinvError as exc:
        ok, detail = False, str(exc)
        cocycle = None
    checks.append(CheckRecord("invariant/cocycle-and-fixedness", ok,
                              counterexample=detail))
    result = None
    if cocycle is not None:
        result = {
            "level": cocycle.level,
            "ambient": cocycle.ambient,
            "values": {
                str(k): {
                    "torus": [repr(c) for c in v.torus.coords],
                    "weyl": [i + 1 for i in v.weyl.word],
                }
                for k, v in cocycle.values.items()
            },
        }
    report = _report(["invariant", args.scenario], checks, None, result,
                     time.time() - t0 if args.timing else None)
    _emit(report, args.out)
    return 0 if all(c.passed for c in checks) else 1


def cmd_restrict(args) -> int:
    doc = _load_scenario(args.scenario)
    datum, theta = _parse_datum(doc)
    t0 = time.time()
    checks: List[CheckRecord] = []
    try:
        rrs = restrict_root_system(datum, theta)
        # |W^theta| from the restricted type; W^theta is never enumerated here
        weyl_order = rrs.fixed_weyl_order()
        ok = True
        detail = None
    except SplitinvError as exc:
        rrs, ok, detail = None, False, str(exc)
    checks.append(CheckRecord("restrict/construction", ok, counterexample=detail))
    result = None
    if rrs is not None:
        result = {
            "restricted_roots": [
                {"coords": list(v), "type": rr.rtype, "positive": rr.positive,
                 "orbit": [list(c) for c in rr.orbit]}
                for v, rr in sorted(rrs.restricted.items())
            ],
            "simple": [list(v) for v in rrs.simple_restricted],
            "reduced": rrs.is_reduced,
            "fixed_weyl_order": weyl_order,
        }
    report = _report(["restrict", args.scenario], checks, None, result,
                     time.time() - t0 if args.timing else None)
    _emit(report, args.out)
    return 0 if ok else 1


def cmd_verify(args) -> int:
    if args.out:   # an unwritable --out is found before the suite runs
        _write_out(args.out, "", "a")
    t0 = time.time()
    try:
        checks = run_suite(args.suite, args.seed)
    except SplitinvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = _report(["verify", args.suite], checks, args.seed, None,
                     time.time() - t0 if args.timing else None)
    _emit(report, args.out)
    return 0 if all(c.passed for c in checks) else 1


def _parse_arg(name: str, raw: str, parse):
    try:
        return parse(raw)
    except (ValueError, ZeroDivisionError):
        raise SplitinvError(f"argument {name}: cannot parse {raw!r}") from None


def cmd_hilbert(args) -> int:
    a = _parse_arg("a", args.a, Fraction)
    b = _parse_arg("b", args.b, Fraction)
    place = LocalPlace.real() if args.place == "real" else \
        LocalPlace.padic(_parse_arg("--place", args.place, int))
    value = hilbert_symbol(a, b, place)
    print(value)
    return 0


def cmd_factors(args) -> int:
    expr = build_factor_expression(args.variant)
    report = {
        "variant": args.variant,
        "exponents": expr.to_dict(),
        "chi_invariant": chi_invariance_check(expr),
    }
    _emit(report, args.out)
    return 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process and shared by every `main` call, so
    each subcommand's `cmd_*` is bound at the first call."""
    p = argparse.ArgumentParser(
        prog="splitinv",
        description="exact splitting-invariant computations and verification suites")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", default="all",
                   choices=["steinberg", "tits", "nn", "main", "aa", "appendix", "all"])
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--out", default=None)
    v.add_argument("--timing", action="store_true",
                   help="include wall time (breaks byte-level determinism)")
    v.set_defaults(fn=cmd_verify)

    i = sub.add_parser("invariant", help="compute a splitting cocycle from a scenario file")
    i.add_argument("scenario")
    i.add_argument("--out", default=None)
    i.add_argument("--timing", action="store_true")
    i.set_defaults(fn=cmd_invariant)

    r = sub.add_parser("restrict", help="restricted root system report")
    r.add_argument("scenario")
    r.add_argument("--out", default=None)
    r.add_argument("--timing", action="store_true")
    r.set_defaults(fn=cmd_restrict)

    h = sub.add_parser("hilbert", help="Hilbert symbol at a place of Q")
    h.add_argument("a")
    h.add_argument("b")
    h.add_argument("--place", required=True, help="'real' or a prime p")
    h.set_defaults(fn=cmd_hilbert)

    f = sub.add_parser("factors", help="transfer-factor exponent map")
    f.add_argument("--variant", required=True,
                   choices=["delta_ks", "delta_d", "delta_prime",
                            "delta_d_lambda", "delta_prime_lambda"])
    f.add_argument("--out", default=None)
    f.set_defaults(fn=cmd_factors)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SplitinvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
