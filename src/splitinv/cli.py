"""Command-line entry point: verification suites, restriction reports,
abstract splitting-cocycle computation, Hilbert symbols, and the factor
calculus, all emitting deterministic JSON reports."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from fractions import Fraction
from typing import List, Optional

from .coeffs import LocalPlace, QuadConj, QuadField, QuadNum, hilbert_symbol
from .errors import CheckRecord, SplitinvError
from .factors import build_factor_expression, chi_invariance_check
from .rootdata import (PinnedAutomorphism, RootDatum, _int_field, analyze_weyl,
                       restrict_root_system)
from .splitting import ADatum, DescentDatum, lambda_twisted, lambda_untwisted, \
    _symbolic_adata

# CPython's own SHA-256, as random.py takes its sha512: hashlib would load
# OpenSSL's libcrypto, about 3.5 MiB resident, for one digest per report
try:
    from _sha2 import sha256 as _sha256             # CPython 3.12 on
except ImportError:
    try:
        from _sha256 import sha256 as _sha256       # CPython 3.10 and 3.11
    except ImportError:
        _sha256 = None


def _digest(obj) -> str:
    """The first 16 hex digits of the SHA-256 of obj's sorted-key JSON.
    hashlib gives the same bytes; it is imported here, and only where no
    built-in module is, so that no importer of this module holds OpenSSL."""
    sha256 = _sha256
    if sha256 is None:
        from hashlib import sha256
    return sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def run_suite(name: str, seed: int = 0) -> List[CheckRecord]:
    """splitinv.suites.run_suite, imported at the first call: only verify
    runs a suite, so restrict and invariant never load them."""
    from . import suites
    return suites.run_suite(name, seed)


def _write_out(out_path: str, text: str, mode: str = "w") -> None:
    """Write text to --out; "" in mode "a" tests the path and keeps its file."""
    try:
        with open(out_path, mode) as fh:
            fh.write(text)
    except OSError as exc:
        raise SplitinvError(
            f"argument --out: cannot write {out_path}: {exc.strerror}") from None


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(obj, newline: str = "\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, for the
    values reports hold: dicts with string keys, lists, tuples, strings,
    ints, floats, booleans and None.  With an indent, json falls back to its
    pure-Python encoder, which passes every token up through one generator
    per level of nesting; this builds each container's text with one join
    and encodes strings in C."""
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join(
            [_encode_str(k) + ": " + _json_text(v, inner)
             for k, v in sorted(obj.items())]) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = map(int.__repr__, obj) if all(type(x) is int for x in obj) \
            else [_json_text(x, inner) for x in obj]     # root coordinates are int lists
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    # no type is both a container and one of these, so the order of the two
    # groups does not matter; within this one it is json's
    if isinstance(obj, str):
        return _encode_str(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return "NaN" if obj != obj else "Infinity" if obj == math.inf \
            else "-Infinity" if obj == -math.inf else float.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(report: dict, out_path: Optional[str]) -> None:
    text = _json_text(report) + "\n"
    if out_path:
        _write_out(out_path, text)
    else:
        sys.stdout.write(text)


def _write_report(args, command: List[str], checks: List[CheckRecord], t0: float,
                  seed: Optional[int] = None, result=None) -> int:
    """Emit the report of verify, restrict or invariant, begun at time t0, to
    args.out or standard output, and return its exit code: 0 when every
    check passed, else 1."""
    report = {
        "command": command,
        "input_digest": _digest(command),
        "seed": seed,
        "checks": [c.to_dict() for c in checks],
        "pass": all(c.passed for c in checks),
    }
    if result is not None:
        report["result"] = result
    if args.timing:
        report["wall_time_s"] = round(time.time() - t0, 3)
    _emit(report, args.out)
    return 0 if report["pass"] else 1


def _checked(name: str, compute):
    """compute()'s value and the check of that name; a SplitinvError it
    raises gives None and the failed check, with the error message."""
    try:
        return compute(), CheckRecord(name, True)
    except SplitinvError as exc:
        return None, CheckRecord(name, False, counterexample=str(exc))


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
    except ValueError as exc:    # malformed JSON, or an integer literal past Python's digit limit
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


def _at(field: str, compute):
    """compute(), with a SplitinvError it raises re-raised as a ScenarioError
    at field."""
    try:
        return compute()
    except SplitinvError as exc:
        raise ScenarioError(field, str(exc)) from None


def _automorphism(datum: RootDatum, raw, field: str) -> PinnedAutomorphism:
    """The pinned automorphism with 1-based simple-root permutation raw, the
    list read at field: theta.perm or galois.sigma_T."""
    if not isinstance(raw, list):
        raise ScenarioError(field, f"expected a list of 1-based simple-root indices, got {raw!r}")
    return _at(field, lambda: PinnedAutomorphism(
        datum, [_int_field(p, "perm") - 1 for p in raw]))


def _parse_datum(doc: dict):
    spec = doc.get("datum")
    if spec is None:
        raise ScenarioError("datum", "missing")
    try:
        datum = RootDatum([(str(f), r) for f, r in spec])
    except (TypeError, ValueError, SplitinvError) as exc:
        raise ScenarioError("datum", str(exc)) from None
    theta_doc = _object(doc, "theta", "theta")
    if theta_doc is None:
        return datum, PinnedAutomorphism.identity(datum)
    return datum, _automorphism(datum, theta_doc.get("perm"), "theta")


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
    omega = _at("galois.omega_T", lambda: analyze_weyl(
        datum, [_integer(i, "galois.omega_T") for i in word], one_based=True))
    sigma_doc = gal.get("sigma_T")
    sigma = None if sigma_doc is None else _automorphism(datum, sigma_doc, "galois.sigma_T")
    return _at("galois", lambda: DescentDatum(
        datum, order, omega, sigma, QuadConj(fieldq) if fieldq is not None else None))


def _number(raw) -> Fraction:
    """A number the CLI reads: a non-bool int, or a string that Fraction reads
    with no exponent part, so "1e100000" is not expanded into 10^100000.  A
    plain decimal integer string is read by int, without Fraction's regular
    expression."""
    if isinstance(raw, bool) or not isinstance(raw, (int, str)) \
            or isinstance(raw, str) and "e" in raw.lower():
        raise ValueError(f"expected an integer or a rational string, got {raw!r}")
    if isinstance(raw, str):
        digits = raw[1:] if raw[:1] == "-" else raw
        if digits.isascii() and digits.isdigit():
            return Fraction(int(raw))
    return Fraction(raw)


def _parse_value(raw, fieldq: Optional[QuadField]):
    if isinstance(raw, list) and len(raw) == 2 and fieldq is not None:
        return QuadNum(_number(raw[0]), _number(raw[1]), fieldq.d)
    val = _number(raw)
    return fieldq.embed(val) if fieldq else val


def cmd_invariant(args) -> int:
    doc = _load_scenario(args.scenario)
    datum, theta = _parse_datum(doc)
    adoc = _object(doc, "adata", "adata")
    if adoc is None or "mode" not in adoc:
        raise ScenarioError("adata.mode", "missing")
    gal = _object(doc, "galois", "galois") or {}
    fdoc = _object(gal, "field", "galois.field")
    if adoc["mode"] == "symbolic":
        descent = _parse_galois(doc, datum, None)
        adata, action = _at("galois", lambda: _symbolic_adata(
            datum, descent, None if theta.is_identity else theta))
        descent = _at("galois", lambda: descent.with_field_action(action))
    elif adoc["mode"] == "values":
        if not fdoc or "d" not in fdoc:
            raise ScenarioError("galois.field.d", "missing (required for value mode)")
        fieldq = _at("galois.field.d",
                     lambda: QuadField(_integer(fdoc["d"], "galois.field.d")))
        descent = _parse_galois(doc, datum, fieldq)
        raw = adoc.get("values")
        if not isinstance(raw, dict):
            raise ScenarioError("adata.values", "expected an object keyed by root coords")
        values, key_of = {}, {}
        for key, v in raw.items():
            try:
                coords = tuple(int(c) for c in key.split(","))
                val = _parse_value(v, fieldq)
            except (ValueError, TypeError, ZeroDivisionError) as exc:
                raise ScenarioError("adata.values", f"at {key!r}: cannot parse {v!r}: "
                                    f"{type(exc).__name__}: {exc}") from None
            if not val:
                raise ScenarioError("adata.values", f"at {key!r}: an a-value must be nonzero")
            if coords in key_of:
                raise ScenarioError("adata.values", f"keys {key_of[coords]!r} and {key!r} "
                                    f"both name the root {coords}")
            values[coords], key_of[coords] = val, key
        adata = _at("adata.values", lambda: ADatum.from_positive(
            datum, values, fieldq.one(), fieldq.half()))
    else:
        raise ScenarioError("adata.mode", f"unknown mode {adoc['mode']!r}")

    def cocycle() -> dict:
        c = lambda_untwisted(datum, descent, adata) if theta.is_identity \
            else lambda_twisted(datum, theta, descent, adata)
        return {
            "level": c.level,
            "ambient": c.ambient,
            "values": {
                str(k): {
                    "torus": [repr(x) for x in v.torus.coords],
                    "weyl": [i + 1 for i in v.weyl.word],
                }
                for k, v in c.values.items()
            },
        }

    t0 = time.time()
    result, check = _checked("invariant/cocycle-and-fixedness", cocycle)
    return _write_report(args, ["invariant", args.scenario], [check], t0, result=result)


def cmd_restrict(args) -> int:
    datum, theta = _parse_datum(_load_scenario(args.scenario))

    def restricted() -> dict:
        rrs = restrict_root_system(datum, theta)
        return {
            "restricted_roots": [
                {"coords": list(v), "type": rr.rtype, "positive": rr.positive,
                 "orbit": [list(c) for c in rr.orbit]}
                for v, rr in sorted(rrs.restricted.items())
            ],
            "simple": [list(v) for v in rrs.simple_restricted],
            "reduced": rrs.is_reduced,
            # |W^theta| from the restricted type; W^theta is never enumerated here
            "fixed_weyl_order": rrs.fixed_weyl_order(),
        }

    t0 = time.time()
    result, check = _checked("restrict/construction", restricted)
    return _write_report(args, ["restrict", args.scenario], [check], t0, result=result)


def cmd_verify(args) -> int:
    if args.out:   # an unwritable --out is found before the suite runs
        _write_out(args.out, "", "a")
    t0 = time.time()
    return _write_report(args, ["verify", args.suite], run_suite(args.suite, args.seed), t0,
                         seed=args.seed)


def _parse_arg(name: str, raw: str, parse):
    # argparse drops a value that is exactly "--" ("--place=--", or "--" as a
    # positional after the "--" separator) and hands on an empty list
    if raw == []:
        raw = "--"
    try:
        return parse(raw)
    except SplitinvError as exc:
        raise SplitinvError(f"argument {name}: {exc}") from None
    except (ValueError, ZeroDivisionError):
        raise SplitinvError(f"argument {name}: cannot parse {raw!r}") from None


def cmd_hilbert(args) -> int:
    a, b = _parse_arg("a", args.a, _number), _parse_arg("b", args.b, _number)
    for name, x in (("a", a), ("b", b)):
        if not x:
            raise SplitinvError(f"argument {name}: the Hilbert symbol needs a nonzero value")
    place = LocalPlace.real() if args.place == "real" else \
        _parse_arg("--place", args.place, lambda raw: LocalPlace.padic(int(raw)))
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

    def report_parser(name: str, fn, summary: str) -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--out", default=None)
        sp.add_argument("--timing", action="store_true",
                        help="include wall time (breaks byte-level determinism)")
        sp.set_defaults(fn=fn)
        return sp

    v = report_parser("verify", cmd_verify, "run a verification suite")
    v.add_argument("--suite", default="all",
                   choices=["steinberg", "tits", "nn", "main", "aa", "appendix", "all"])
    v.add_argument("--seed", type=int, default=0)
    for name, fn, summary in (
            ("invariant", cmd_invariant, "compute a splitting cocycle from a scenario file"),
            ("restrict", cmd_restrict, "restricted root system report")):
        report_parser(name, fn, summary).add_argument("scenario")

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
    except (ScenarioError, SplitinvError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
