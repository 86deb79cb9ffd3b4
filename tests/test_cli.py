"""Command-line interface: subcommands, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from splitinv import cli, rootdata, suites
from splitinv.cli import main
from splitinv.rootdata import (PinnedAutomorphism, RestrictedRootSystem, build_root_datum,
                               restrict_root_system)
from splitinv.splitting import ADatum, DescentDatum

A2_FLIP_SCENARIO = {
    "datum": [["A", 2]],
    "theta": {"perm": [2, 1]},
    "galois": {"order": 2, "omega_T": [1, 2, 1], "sigma_T": None},
    "adata": {"mode": "symbolic"},
}


def write(tmp_path, doc, name="scenario.json"):
    """doc as JSON, or as given when it is already text."""
    path = tmp_path / name
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    return str(path)


class TestVerify:
    def test_appendix_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "appendix", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["pass"] is True
        names = [c["name"] for c in report["checks"]]
        assert any("n3'" in n for n in names)

    def test_deterministic_reports(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["verify", "--suite", "nn", "--seed", "7",
                     "--out", str(out1)]) == 0
        assert main(["verify", "--suite", "nn", "--seed", "7",
                     "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_exit_zero_iff_all_pass(self, capsys):
        assert main(["verify", "--suite", "steinberg"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] and all(c["pass"] for c in report["checks"])

    def test_unexpected_exception_is_a_failed_check(self, capsys, monkeypatch):
        assert main(["verify", "--suite", "steinberg"]) == 0
        names = [c["name"] for c in json.loads(capsys.readouterr().out)["checks"]]

        def broken(rrs, beta):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(suites, "levi_component", broken)
        assert main(["verify", "--suite", "steinberg"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [c["name"] for c in checks] == names  # the run carried on
        failed = [c for c in checks if not c["pass"]]
        assert failed and all(c["name"].startswith("steinberg/6-levi-structure/")
                              for c in failed)
        assert all(c["counterexample"] == repr("ZeroDivisionError: division by zero")
                   for c in failed)

    @pytest.mark.parametrize("suite, target, names", [
        ("appendix", "verify_appendix", ["appendix/Q", "appendix/F5"]),
        ("tits", "realize", ["tits/matrix-multiplicativity-and-cocycle/SL4",
                             "tits/matrix-multiplicativity-and-cocycle/SL5"]),
    ])
    def test_exception_outside_a_check_body_is_a_failed_check(
            self, capsys, monkeypatch, suite, target, names):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(suites, target, broken)
        assert main(["verify", "--suite", suite]) == 1
        failed = [c for c in json.loads(capsys.readouterr().out)["checks"] if not c["pass"]]
        assert [c["name"] for c in failed] == names
        assert all(c["counterexample"] == repr("ZeroDivisionError: division by zero")
                   for c in failed)


    @pytest.mark.parametrize("suite, names", [
        ("nn", ["nn/lift-comparison/SL3", "nn/lift-comparison/SL4",
                "nn/lift-comparison/SL5", "nn/SL3-long-element-discrepancy",
                "nn/SL4-no-divisible-roots-trivial"]),
        ("steinberg", ["steinberg/restrict/A3 identity", "steinberg/restrict/A2 flip",
                       "steinberg/restrict/A3 flip", "steinberg/restrict/A4 flip",
                       "steinberg/restrict/A5 flip", "steinberg/restrict/D4 swap",
                       "steinberg/reduced-pattern/A2 flip",
                       "steinberg/reduced-pattern/A3 flip",
                       "steinberg/reduced-pattern/A4 flip",
                       "steinberg/reduced-pattern/A5 flip",
                       "steinberg/product-swap-reduced",
                       "steinberg/product-swap-order4-nonreduced"]),
        ("aa", ["aa/ratio-vs-change-sign"]),
    ])
    def test_exception_in_set_up_is_a_failed_check(self, capsys, monkeypatch, suite, names):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(suites, "restrict_root_system", broken)
        assert main(["verify", "--suite", suite]) == 1
        failed = [c for c in json.loads(capsys.readouterr().out)["checks"] if not c["pass"]]
        assert [c["name"] for c in failed] == names
        assert all(c["counterexample"] == repr("ZeroDivisionError: division by zero")
                   for c in failed)

    def test_weyl_group_failure_in_tits_set_up_is_a_failed_check(self, capsys, monkeypatch):
        def broken(self):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(suites.RootDatum, "weyl_group", broken)
        assert main(["verify", "--suite", "tits"]) == 1
        failed = [c for c in json.loads(capsys.readouterr().out)["checks"] if not c["pass"]]
        assert [c["name"] for c in failed] == \
            [f"tits/weyl-group/{name}" for name, _, _ in suites._FLIP_CASES] + \
            [f"tits/matrix-multiplicativity-and-cocycle/SL{n}" for n in (4, 5)]
        assert all(c["counterexample"] == repr("ZeroDivisionError: division by zero")
                   for c in failed)

    @pytest.mark.parametrize("target", ["restrict_root_system", "MatrixContext"])
    def test_exception_in_main_set_up_is_a_failed_check(self, capsys, monkeypatch, target):
        def broken(*args, **kwargs):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(suites, target, broken)
        assert main(["verify", "--suite", "main"]) == 1
        failed = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]
                  if not c["pass"]}
        for n, d in ((3, 5), (5, 5), (3, -1), (5, -1)):
            assert failed[f"main/matrix-compare/SL{n}-d{d}"]["counterexample"] \
                == repr("ZeroDivisionError: division by zero")
        assert "main/matrix-compare/scenario-count" in failed

class TestInvariant:
    def test_symbolic_scenario(self, tmp_path, capsys):
        path = write(tmp_path, A2_FLIP_SCENARIO)
        assert main(["invariant", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"]
        assert report["result"]["ambient"] == "T^theta"
        assert report["result"]["values"]["1"]["weyl"] == [1, 2, 1]

    def test_value_mode(self, tmp_path, capsys):
        doc = {
            "datum": [["A", 2]],
            "theta": {"perm": [2, 1]},
            "galois": {"order": 2, "omega_T": [1, 2, 1], "sigma_T": None,
                       "field": {"d": 5}},
            "adata": {"mode": "values",
                      "values": {"1,0": [0, 1], "0,1": [0, 1], "1,1": [0, 1]}},
        }
        path = write(tmp_path, doc)
        assert main(["invariant", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"]

    def test_malformed_scenario_exits_two(self, tmp_path, capsys):
        doc = dict(A2_FLIP_SCENARIO)
        # s_1 is an involution, but theta swaps s_1 and s_2
        doc["galois"] = {"order": 2, "omega_T": [1]}
        path = write(tmp_path, doc)
        assert main(["invariant", path]) == 2
        err = capsys.readouterr().err
        assert "galois" in err
        assert "does not commute with theta" in err

    @pytest.mark.parametrize("letter", [3, 0, -1])
    def test_out_of_range_letter_named_as_written(self, tmp_path, capsys, letter):
        doc = dict(A2_FLIP_SCENARIO, galois={"order": 2, "omega_T": [1, letter]})
        assert main(["invariant", write(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert f"field 'galois.omega_T': simple index {letter} out of range 1..2" in err

    def test_missing_field_named(self, tmp_path, capsys):
        doc = {"datum": [["A", 2]], "adata": {"mode": "symbolic"}}
        path = write(tmp_path, doc)
        assert main(["invariant", path]) == 2
        assert "galois" in capsys.readouterr().err

    def test_bad_json_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["invariant", str(path)]) == 2

    # hand-made malformed scenarios, each of which once ended in a traceback
    # or was silently misread; each must exit 2 naming the offending field
    @pytest.mark.parametrize("change,field", [
        (lambda doc: [1, 2], "<json>"),
        (lambda doc: dict(doc, galois=[1]), "galois"),
        (lambda doc: dict(doc, adata=["mode"]), "adata"),
        (lambda doc: dict(doc, galois=dict(doc["galois"], field={"d": "x"})), "galois.field.d"),
        (lambda doc: dict(doc, adata={"mode": "values",
                                      "values": dict(doc["adata"]["values"], **{"1,0": "1/0"})}),
         "adata.values"),
        (lambda doc: dict(doc, adata={"mode": "values",
                                      "values": dict(doc["adata"]["values"], **{"1,0": "0"})}),
         "adata.values"),
        (lambda doc: dict(doc, galois=dict(doc["galois"], omega_T=[1]),
                          adata={"mode": "values", "values": {"1,0": "0", "0,1": "0",
                                                              "1,1": "0"}}),
         "adata.values"),
        (lambda doc: dict(doc, datum=[["A", 2.5]]), "datum"),
    ] + [
        (lambda doc, key=key: dict(doc, adata={"mode": "values",
                                               "values": dict(doc["adata"]["values"],
                                                              **{key: value})}),
         "adata.values")
        for key, value in (("5,7", 2), ("2,2,2", 1), ("-1,0", 9))
    ] + [
        # with omega_T = 1 rational a-data is equivariant, and 1 in place of
        # each boolean runs and passes
        (lambda doc, value=value: dict(doc, galois=dict(doc["galois"], omega_T=[]),
                                       adata={"mode": "values",
                                              "values": {"1,0": value, "0,1": 1, "1,1": 1}}),
         "adata.values")
        for value in (True, [True, 0], [1, False])
    ] + [
        # one number rule: a non-bool int or a string with no exponent part
        (lambda doc, value=value: dict(doc, adata={"mode": "values",
                                                   "values": dict(doc["adata"]["values"],
                                                                  **{"1,0": value})}),
         "adata.values")
        for value in ([float("inf"), 1], [0.1, 1], 0.1, [0, "1e5"], "1e100000", [0, "nan"])
    ] + [
        # Python reads no integer literal of more than 4,300 digits, even
        # under a key the command never looks at
        (lambda doc: json.dumps(doc)[:-1] + ', "unused": ' + "7" * 4301 + "}", "<json>"),
    ], ids=["top-level-list", "galois-list", "adata-list", "field-d-not-integer",
            "value-one-over-zero", "zero-value-unused", "zero-value-with-short-omega",
            "fractional-rank", "key-not-a-root", "key-of-another-rank",
            "key-a-negative-root", "value-true", "value-true-in-pair",
            "value-false-in-pair", "value-infinity-in-pair", "value-float-in-pair",
            "value-float", "value-exponent-in-pair", "value-huge-exponent",
            "value-nan-string-in-pair", "integer-literal-past-the-digit-limit"])
    def test_malformed_input_names_its_field(self, tmp_path, capsys, change, field):
        doc = {
            "datum": [["A", 2]],
            "theta": {"perm": [2, 1]},
            "galois": {"order": 2, "omega_T": [1, 2, 1], "field": {"d": 5}},
            "adata": {"mode": "values",
                      "values": {"1,0": [0, 1], "0,1": [0, 1], "1,1": [0, 1]}},
        }
        assert main(["invariant", write(tmp_path, doc)]) == 0
        capsys.readouterr()
        assert main(["invariant", write(tmp_path, change(doc), "bad.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: field {field!r}:")

    # keys that parse to one root: neither value may silently replace the other
    @pytest.mark.parametrize("values, first, second, root", [
        ({"1,0": [0, 1], "0,1": [0, 1], "1, 1": [0, 2], "1,1": [0, 1]}, "1, 1", "1,1",
         (1, 1)),
        ({"1,0": [0, 1], "01,0": [0, 1], "0,1": [0, 1], "1,1": [0, 1]}, "1,0", "01,0",
         (1, 0)),
    ], ids=["space-in-key", "leading-zero"])
    def test_two_keys_of_one_root_exit_two(self, tmp_path, capsys, values, first, second,
                                           root):
        doc = {
            "datum": [["A", 2]],
            "theta": {"perm": [2, 1]},
            "galois": {"order": 2, "omega_T": [1, 2, 1], "field": {"d": 5}},
            "adata": {"mode": "values", "values": values},
        }
        assert main(["invariant", write(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: field 'adata.values': keys {first!r} and "
                                f"{second!r} both name the root {root}\n")

    # one parser serves every main call of a process: what one call parsed,
    # or failed to parse, must not reach the next
    def test_repeated_calls_are_independent(self, tmp_path, capsys):
        path = write(tmp_path, A2_FLIP_SCENARIO)
        for command in ("invariant", "restrict"):
            assert main([command, path]) == 0
            first = capsys.readouterr().out
            out = str(tmp_path / f"{command}-report.json")
            assert main([command, path, "--timing", "--out", out]) == 0
            assert "wall_time_s" in json.loads(Path(out).read_text())
            with pytest.raises(SystemExit) as exc:
                main(["verify", "--suite", "bogus"])
            assert exc.value.code == 2
            capsys.readouterr()
            assert main([command, path]) == 0
            assert capsys.readouterr().out == first

    def test_failed_cocycle_identity_is_reported(self, tmp_path, capsys,
                                                 negated_galois_on_tits):
        assert main(["invariant", write(tmp_path, A2_FLIP_SCENARIO)]) == 1
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check["name"] == "invariant/cocycle-and-fixedness"
        assert not check["pass"]
        assert "cocycle identity fails at (sigma^1, sigma^1)" in check["counterexample"]

    def test_value_not_theta_fixed_is_reported(self, tmp_path, capsys, monkeypatch):
        # equivariant for omega_T = w0 but a(alpha_1) != a(alpha_2), with the
        # theta-invariance check on the a-data switched off
        monkeypatch.setattr(ADatum, "validate_twisted", lambda self, theta: None)
        doc = dict(A2_FLIP_SCENARIO, galois={"order": 2, "omega_T": [1, 2, 1],
                                             "field": {"d": 5}},
                   adata={"mode": "values", "values": {"1,0": "1", "0,1": "-1",
                                                       "1,1": [0, 1]}})
        assert main(["invariant", write(tmp_path, doc)]) == 1
        (check,) = json.loads(capsys.readouterr().out)["checks"]
        assert check["name"] == "invariant/cocycle-and-fixedness"
        assert not check["pass"]
        assert "m(sigma^1) is not theta-fixed" in check["counterexample"]

    # sha256 over the exit code and stdout of each symbolic invariant of
    # flip_scenarios(n), in order, run from the scenario's directory: the
    # reports must not depend on how often the descent datum is built
    FLIP_DIGESTS = {
        2: "b62f3a2aebd024eedbe0abe4cb7ef7207076447a17dff1a755bb218d9ea7c3a1",
        3: "9250df195e2b3e44255a36dd07ff284c0497b8d335158ead79bb431940844f27",
        4: "3e4dc74d08898cf0d0a787f2bed340751be32b8c4604a00efd4d5aa26b6636ab",
        5: "3b7d5ad901300a888ddbbd0f1b4048689b1ec53e1004ac8364c996c3ccd796a9",
        6: "0b90aa6a3a81cdbc8deff993d2a18be9b53991295b25cb06e4f1b31c5d3d49f0",
        7: "e2de991808b01f8f6470c5aab2c7ea34c26264c9003007b2c378ed5cedd1c255",
        8: "ab39efbf4c9f64541d649f1720dc12c808244568d9bcfac8d8f1a8bf1fad171d",
    }

    @staticmethod
    def flip_scenarios(n):
        """Symbolic invariants on the A_n flip: omega_T the longest element
        and the longest element of each simple restricted root's Levi, then
        the quasi-split sigma_T = theta with omega_T = 1."""
        perm = list(range(n, 0, -1))
        datum = build_root_datum([("A", n)])
        rrs = restrict_root_system(datum, PinnedAutomorphism(datum, [p - 1 for p in perm]))
        omegas = [datum.longest_element()] + [rrs.levi_longest[b]
                                              for b in rrs.simple_restricted]
        base = {"datum": [["A", n]], "theta": {"perm": perm}, "adata": {"mode": "symbolic"}}
        docs = [dict(base, galois={"order": 2, "omega_T": [i + 1 for i in w.word]})
                for w in omegas]
        docs.append(dict(base, galois={"order": 2, "omega_T": [], "sigma_T": perm}))
        return docs

    @pytest.mark.parametrize("n", range(2, 9))
    def test_symbolic_descent_built_and_validated_once(self, tmp_path, capsys,
                                                       monkeypatch, n):
        calls = []
        honest = DescentDatum.validate

        def counted(self):
            calls.append(self)
            honest(self)

        monkeypatch.setattr(DescentDatum, "validate", counted)
        monkeypatch.chdir(tmp_path)
        digest = hashlib.sha256()
        for i, doc in enumerate(self.flip_scenarios(n)):
            name = f"A{n}-{i}.json"
            write(tmp_path, doc, name)
            calls.clear()
            rc = main(["invariant", name])
            assert rc == 0
            assert len(calls) == 1, doc["galois"]
            digest.update(f"{rc}\n".encode() + capsys.readouterr().out.encode())
        assert digest.hexdigest() == self.FLIP_DIGESTS[n]

    # a rejected symbolic descent exits 2 with the message of the check it
    # failed, under field 'galois'
    @pytest.mark.parametrize("galois,err", [
        ({"order": 2, "omega_T": [1, 2]},
         "error: field 'galois': sigma_T is not a homomorphism: generator has wrong order"),
        ({"order": 5, "omega_T": []},
         "error: field 'galois': group order 5 not in (1, 2, 3, 4, 6)"),
        ({"order": 2, "omega_T": [1]},
         "error: field 'galois': omega_T(sigma) does not commute with theta"),
        ({"order": 3, "omega_T": [1, 2]},
         "error: field 'galois': omega_T(sigma) does not commute with theta"),
    ], ids=["wrong-order", "order-five", "not-theta-fixed", "rotation-not-theta-fixed"])
    def test_rejected_symbolic_descent_names_galois(self, tmp_path, capsys, galois, err):
        doc = {"datum": [["A", 3]], "theta": {"perm": [3, 2, 1]}, "galois": galois,
               "adata": {"mode": "symbolic"}}
        assert main(["invariant", write(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == err + "\n"


class TestRestrict:
    def test_fractional_perm_exits_two(self, tmp_path, capsys):
        # [3.7, 2, 1] was once truncated to the A3 flip
        path = write(tmp_path, {"datum": [["A", 3]], "theta": {"perm": [3.7, 2, 1]}})
        assert main(["restrict", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: field 'theta':")
        assert "field 'perm'" in captured.err and "3.7" in captured.err

    # "datum" is the one key for the datum: "type" was once read in its place
    @pytest.mark.parametrize("command", ["restrict", "invariant"])
    def test_type_key_in_place_of_datum_exits_two(self, tmp_path, capsys, command):
        doc = dict(A2_FLIP_SCENARIO)
        doc["type"] = doc.pop("datum")
        assert main([command, write(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: field 'datum': missing\n"

    @pytest.mark.parametrize("theta", [{}, {"perm": None}, {"perm": "321"}, {"perm": 3},
                                       {"perm": [3, 2]}, [3, 2, 1]])
    def test_theta_without_a_perm_list_exits_two(self, tmp_path, capsys, theta):
        path = write(tmp_path, {"datum": [["A", 3]], "theta": theta})
        assert main(["restrict", path]) == 2
        assert capsys.readouterr().err.startswith("error: field 'theta':")

    @pytest.mark.parametrize("sigma", [["2", 1], [2, True], [2.0, 1], [1], "21", 0])
    def test_malformed_sigma_t_names_its_field(self, tmp_path, capsys, sigma):
        doc = dict(A2_FLIP_SCENARIO, galois={"order": 2, "omega_T": [], "sigma_T": sigma})
        assert main(["invariant", write(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.startswith("error: field 'galois.sigma_T':")

    def test_report(self, tmp_path, capsys):
        path = write(tmp_path, {"datum": [["A", 3]], "theta": {"perm": [3, 2, 1]}})
        assert main(["restrict", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["reduced"] is True
        assert report["result"]["fixed_weyl_order"] == 8

    def test_runs_without_sympy(self, tmp_path):
        # sympy is not a dependency: restriction must run with it unimportable
        path = write(tmp_path, {"datum": [["A", 3]], "theta": {"perm": [3, 2, 1]}})
        code = ("import sys\n"
                "sys.modules['sympy'] = None\n"
                "from splitinv.cli import main\n"
                f"sys.exit(main(['restrict', {path!r}]))\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=pythonpath), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["result"]["fixed_weyl_order"] == 8

    def test_reads_no_levi_component(self, tmp_path, capsys, monkeypatch):
        # the Levi longest elements are built on first read, and restrict
        # reports only the restricted roots and |W^theta|
        def broken(rrs, beta):
            raise AssertionError("Levi component built")

        monkeypatch.setattr(rootdata, "levi_component", broken)
        path = write(tmp_path, {"datum": [["A", 5]], "theta": {"perm": [5, 4, 3, 2, 1]}})
        assert main(["restrict", path]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["fixed_weyl_order"] == 48

    def test_a13_flip_order_from_the_restricted_type(self, tmp_path, capsys, monkeypatch):
        # C7: 2^7 * 7! = 645120 elements, reported without enumerating them
        def broken(self):
            raise AssertionError("W^theta enumerated")

        monkeypatch.setattr(RestrictedRootSystem, "fixed_weyl_subgroup", broken)
        path = write(tmp_path, {"datum": [["A", 13]],
                                "theta": {"perm": list(range(13, 0, -1))}})
        assert main(["restrict", path]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["fixed_weyl_order"] == 645120

    def test_a9_flip(self, tmp_path, capsys):
        # |W^theta| = 2^5 * 5! for the restricted type C5 (BC5)
        path = write(tmp_path, {"datum": [["A", 9]],
                                "theta": {"perm": list(range(9, 0, -1))}})
        assert main(["restrict", path]) == 0
        assert json.loads(capsys.readouterr().out)["result"]["fixed_weyl_order"] == 3840


def test_import_loads_no_openssl():
    # hashlib is imported where a report digest is made: every importer of
    # the module would otherwise hold OpenSSL's libcrypto resident
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, splitinv.cli; print('_hashlib' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def run_fresh(code):
    """The standard output of code run in a fresh interpreter with src/ on
    its path."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=pythonpath), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def hashlib_digest(command):
    return hashlib.sha256(json.dumps(command, sort_keys=True).encode()).hexdigest()[:16]


class TestInputDigest:
    """A report's input_digest is the first 16 hex digits of the SHA-256 of
    the command's sorted-key JSON, whichever module computes it."""

    @pytest.mark.parametrize("argv", [["restrict"], ["invariant"],
                                      ["verify", "--suite", "appendix"]])
    def test_matches_hashlib(self, tmp_path, capsys, argv):
        if argv[0] != "verify":
            argv = argv + [write(tmp_path, A2_FLIP_SCENARIO)]
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == [argv[0], argv[-1]]
        assert report["input_digest"] == hashlib_digest(report["command"])

    def test_hashlib_fallback_gives_the_same_digest(self, tmp_path):
        # with no built-in SHA-256 module, _digest imports hashlib
        path = write(tmp_path, A2_FLIP_SCENARIO)
        code = ("import contextlib, io, json, sys\n"
                "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
                "from splitinv import cli\n"
                "out = io.StringIO()\n"
                "with contextlib.redirect_stdout(out):\n"
                f"    assert cli.main(['restrict', {path!r}]) == 0\n"
                "print(json.dumps([cli._sha256 is None, '_hashlib' in sys.modules,\n"
                "                  json.loads(out.getvalue())['input_digest']]))\n")
        assert json.loads(run_fresh(code)) == [True, True,
                                               hashlib_digest(["restrict", path])]


class TestWhatACommandLoads:
    """restrict and invariant load neither OpenSSL nor the verification
    suites; verify loads the suites."""

    LOADED = ("print(json.dumps({m: m in sys.modules "
              "for m in ('_hashlib', 'splitinv.suites')}))\n")

    def run(self, argv):
        code = ("import contextlib, io, json, sys\n"
                "from splitinv.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert main({argv!r}) == 0\n" + self.LOADED)
        return json.loads(run_fresh(code))

    @pytest.mark.parametrize("command", ["restrict", "invariant"])
    def test_report_loads_no_openssl_and_no_suites(self, tmp_path, command):
        path = write(tmp_path, A2_FLIP_SCENARIO)
        assert self.run([command, path]) == {"_hashlib": False, "splitinv.suites": False}

    def test_verify_loads_the_suites(self):
        assert self.run(["verify", "--suite", "appendix"])["splitinv.suites"] is True


class TestFileErrors:
    """An unreadable scenario file or an unwritable --out path exits 2 with
    one line naming the file or the argument, never a traceback."""

    @pytest.mark.parametrize("command", ["invariant", "restrict"])
    def test_scenario_path_is_a_directory(self, tmp_path, capsys, command):
        assert main([command, str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: field '<file>': cannot read")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["invariant", "restrict"])
    def test_scenario_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"datum": [["A", 2]], "note": "caf\xe9"}')
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: field '<file>':")
        assert "not UTF-8" in captured.err and captured.err.count("\n") == 1

    @pytest.mark.parametrize("target", ["directory", "missing-directory"])
    @pytest.mark.parametrize("command", ["restrict", "invariant", "verify", "factors"])
    def test_unwritable_out(self, tmp_path, capsys, command, target):
        scenario = write(tmp_path, A2_FLIP_SCENARIO)
        out = str(tmp_path if target == "directory" else tmp_path / "missing" / "r.json")
        argv = {"restrict": ["restrict", scenario],
                "invariant": ["invariant", scenario],
                "verify": ["verify", "--suite", "nn"],
                "factors": ["factors", "--variant", "delta_d"]}[command]
        assert main(argv + ["--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: argument --out: cannot write {out}:")
        assert captured.err.count("\n") == 1

    # the path is tried before the suite runs, which here would fail the test
    def test_verify_finds_unwritable_out_before_the_suite(self, tmp_path, capsys,
                                                         monkeypatch):
        def no_suite(*args):
            raise AssertionError("the suite ran before --out was found unwritable")

        monkeypatch.setattr(cli, "run_suite", no_suite)
        out = str(tmp_path / "missing" / "x.json")
        assert main(["verify", "--suite", "all", "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: argument --out: cannot write {out}:")
        # a writable path is tried without clobbering what it holds
        kept = tmp_path / "kept.json"
        kept.write_text("an earlier report\n")
        with pytest.raises(AssertionError, match="the suite ran"):
            main(["verify", "--suite", "all", "--out", str(kept)])
        assert kept.read_text() == "an earlier report\n"


# numbers, rationals, signs, exponents and any other text for `hilbert`
HILBERT_TEXT = st.one_of(
    st.from_regex(r"[-+]?[0-9]{1,30}(/[0-9]{1,30})?", fullmatch=True),
    st.text(alphabet="0123456789-+/.eE_ x", max_size=12),
    st.text(max_size=8))


class TestHilbert:
    def test_known_value(self, capsys):
        assert main(["hilbert", "2", "5", "--place", "5"]) == 0
        assert capsys.readouterr().out.strip() == "-1"

    def test_real_place(self, capsys):
        assert main(["hilbert", "-1", "-1", "--place", "real"]) == 0
        assert capsys.readouterr().out.strip() == "-1"

    def test_fractions_accepted(self, capsys):
        assert main(["hilbert", "1/2", "5", "--place", "5"]) == 0
        assert capsys.readouterr().out.strip() == "-1"
        assert main(["hilbert", "0.5", "5", "--place", "5"]) == 0
        assert capsys.readouterr().out.strip() == "-1"

    @pytest.mark.parametrize("args,name", [
        (["abc", "5", "--place", "5"], "a"),
        (["2", "1/0", "--place", "5"], "b"),
        (["2", "5", "--place", "x"], "--place"),
        # a float form is refused, not expanded: 1e1000000 would have its
        # valuation at 5 divide out a million factors
        (["1e100000", "5", "--place", "5"], "a"),
        (["1e1000000", "5", "--place", "5"], "a"),
        (["2", "5E3", "--place", "5"], "b"),
        (["inf", "5", "--place", "5"], "a"),
    ])
    def test_malformed_argument_exits_two(self, capsys, args, name):
        assert main(["hilbert"] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"argument {name}:" in err

    def test_large_prime_place(self, capsys):
        assert main(["hilbert", "2", "5", "--place", "1000000000000000003"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    # a zero argument or a place that is not a prime names its argument
    @pytest.mark.parametrize("args,err", [
        (["0", "5", "--place", "5"], "argument a: the Hilbert symbol needs a nonzero value"),
        (["2", "0/3", "--place", "real"], "argument b: the Hilbert symbol needs a nonzero value"),
        (["2", "5", "--place", "4"], "argument --place: p=4 is not prime"),
        (["2", "5", "--place", "-3"], "argument --place: p=-3 is not prime"),
    ])
    def test_rejected_value_names_its_argument(self, capsys, args, err):
        assert main(["hilbert"] + args) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    # any text for a, b and --place exits 0 with a symbol or 2 naming the
    # argument, never with a traceback; "--place=..." and "--" keep a draw
    # that starts with "-" from being read as an option
    @settings(deadline=None, max_examples=300)
    @given(a=HILBERT_TEXT, b=HILBERT_TEXT,
           place=st.one_of(st.sampled_from(["real", "2", "5", "1000000000000000003"]),
                           HILBERT_TEXT))
    @example(a="1", b="1", place="--")
    @example(a="1", b="--", place="5")
    def test_fuzzed_arguments_exit_cleanly(self, a, b, place):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["hilbert", f"--place={place}", "--", a, b])
        assert "Traceback" not in err.getvalue()
        if code == 0:
            assert out.getvalue() in ("1\n", "-1\n")
        else:
            assert code == 2 and out.getvalue() == ""
            assert re.match(r"error: argument (a|b|--place): ", err.getvalue()), err.getvalue()


class TestNumber:
    # a plain decimal integer string is read by int and any other string by
    # Fraction: the two read the same numbers and refuse the same strings
    # with the same messages, past int's digit limit too
    @settings(deadline=None, max_examples=500)
    @given(st.one_of(HILBERT_TEXT, st.from_regex(r"-?[0-9]{1,40}", fullmatch=True),
                     st.text(alphabet="0123456789-+ \u0663\u00b2", max_size=6))
           .filter(lambda s: "e" not in s and "E" not in s))
    @example("1" * 5000)
    @example("-" + "0" * 4301)
    @example("\u0663")
    @example(" 12 ")
    @example("+7")
    @example("1_000")
    @example("-")
    @example("")
    def test_reads_what_fraction_reads(self, text):
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            with pytest.raises(type(exc)) as got:
                cli._number(text)
            assert str(got.value) == str(exc)
        else:
            got = cli._number(text)
            assert type(got) is Fraction and got == want

    @pytest.mark.parametrize("text", ["1e5", "1E5", "-2e3", "12e", "0e0"])
    def test_exponent_forms_stay_refused(self, text):
        with pytest.raises(ValueError, match="expected an integer or a rational string"):
            cli._number(text)


class TestFactors:
    def test_delta_ks_flagged(self, capsys):
        assert main(["factors", "--variant", "delta_ks"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["chi_invariant"] is False
        assert report["exponents"] == {"I_old": 1, "II": 1, "III": 1, "IV": 1}

    def test_delta_d(self, capsys):
        assert main(["factors", "--variant", "delta_d"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["chi_invariant"] is True


# ---------------------------------------------------------------------------
# malformed scenarios drawn at random
# ---------------------------------------------------------------------------

_LONG = "@long-literal@"   # stands for an integer literal of 4,301 digits

# the well-formed scenarios a draw starts from, in value and symbolic mode;
# each has every path below, and the values of the second are unread until
# a draw sets its mode to "values"
_FUZZ_BASES = [
    {"datum": [["A", 2]], "theta": {"perm": [2, 1]},
     "galois": {"order": 2, "omega_T": [1, 2, 1], "sigma_T": None, "field": {"d": 5}},
     "adata": {"mode": "values", "values": {"1,0": [0, 1], "0,1": [0, 1], "1,1": [0, 1]}}},
    {"datum": [["D", 4]], "theta": {"perm": [1, 2, 4, 3]},
     "galois": {"order": 2, "omega_T": [1], "sigma_T": [1, 2, 4, 3], "field": {"d": -1}},
     "adata": {"mode": "symbolic", "values": {"1,0": "1", "0,1": "-2/3"}}},
]

_FUZZ_PATHS = [
    (), ("datum",), ("datum", 0), ("datum", 0, 0), ("datum", 0, 1),
    ("theta",), ("theta", "perm"), ("theta", "perm", 0),
    ("galois",), ("galois", "order"), ("galois", "omega_T"), ("galois", "omega_T", 0),
    ("galois", "sigma_T"), ("galois", "field"), ("galois", "field", "d"),
    ("adata",), ("adata", "mode"), ("adata", "values"), ("adata", "values", "1,0"),
    ("adata", "values", "0,1", 0),
]

# wrong types, floats, bools, non-finite constants, long ints, bad
# permutations and data past the size budget
_FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-3, 12), st.text(max_size=4),
    st.sampled_from([10 ** 40, -10 ** 40, _LONG, float("inf"), float("nan"),
                     "1e5", "1/0", "-1/2", "0.5", "symbolic", "values"]),
    st.lists(st.integers(-2, 5), max_size=4),
    st.dictionaries(st.sampled_from(["perm", "d", "mode", "1,0"]), st.integers(-2, 5),
                    max_size=2),
    st.sampled_from([[["A", 200]], [["D", 100]], [["A", 10 ** 9]], [["A", 50]] * 20,
                     [2, 2], [1], [3, 1, 2], [0, 1], [[1, 2]], [["A", 2, 1]]]))


def _put(doc, path, value):
    """doc with value at path, a list of keys and indices."""
    if not path:
        return value
    out = dict(doc) if isinstance(doc, dict) else list(doc)
    out[path[0]] = _put(doc[path[0]], path[1:], value)
    return out


class TestScenarioFuzz:
    # each input ends in an answer (0), a failed check (1), or exit 2 naming
    # a field, in bounded time and never in an exception
    @settings(deadline=None, max_examples=250)
    @given(base=st.sampled_from(_FUZZ_BASES), path=st.sampled_from(_FUZZ_PATHS),
           value=_FUZZ_VALUES, command=st.sampled_from(["invariant", "restrict"]))
    def test_malformed_scenario_exits_cleanly(self, tmp_path_factory, base, path, value,
                                              command):
        text = json.dumps(_put(base, path, value)).replace(json.dumps(_LONG), "9" * 4301)
        scenario = write(tmp_path_factory.mktemp("fuzz"), text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, scenario])
        assert code in (0, 1, 2), err.getvalue()
        if code == 2:
            assert re.match(r"error: field '[^']+': ", err.getvalue()), err.getvalue()
            assert out.getvalue() == ""
        else:
            assert json.loads(out.getvalue())["pass"] is (code == 0)


JSON_SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(min_value=10 ** 30)
                | st.integers(max_value=-10 ** 30) | st.floats(allow_nan=True)
                | st.text() | st.sampled_from(['"', "\\", "\n", "\x00\x1f", "\u00e9\u2603"]))
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=30)


class TestReportWriter:
    """The report writer is json.dumps(indent=2, sort_keys=True) byte for
    byte, written without json's pure-Python indenting encoder."""

    @settings(max_examples=400, deadline=None)
    @given(JSON_VALUES)
    def test_equals_json_dumps(self, obj):
        assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    @pytest.mark.parametrize("obj", [
        {}, [], {"a": {}, "b": [], "c": [{}], "d": [[]]}, [True, 1, False, 0, None],
        {"x": [1.0, -0.0, 1e300, float("inf"), float("-inf"), float("nan")]},
        "\u00e9\"\\\n\t\x7f\U0001f600", -10 ** 100])
    def test_edge_cases(self, obj):
        assert cli._json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    def test_unserializable_is_refused(self):
        # a key that is not a string too: no report has one
        for obj in ({1: 1}, {None: 1}, [object()], {"a": {1, 2}}):
            with pytest.raises(TypeError):
                cli._json_text(obj)

    def test_emit_writes_the_text_and_a_newline(self, tmp_path, capsys):
        report = {"b": [1, {"c": None}], "a": "\u00e9"}
        want = json.dumps(report, indent=2, sort_keys=True) + "\n"
        cli._emit(report, None)
        assert capsys.readouterr().out == want
        cli._emit(report, str(tmp_path / "r.json"))
        assert (tmp_path / "r.json").read_text() == want
