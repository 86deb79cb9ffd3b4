"""Command-line interface: subcommands, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from splitinv import cli, suites
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
    path = tmp_path / name
    path.write_text(json.dumps(doc))
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
    ], ids=["top-level-list", "galois-list", "adata-list", "field-d-not-integer",
            "value-one-over-zero", "zero-value-unused", "zero-value-with-short-omega",
            "fractional-rank"])
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
        assert "cocycle identity fails at (sigma^0, sigma^0)" in check["counterexample"]

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

    @pytest.mark.parametrize("args,name", [
        (["abc", "5", "--place", "5"], "a"),
        (["2", "1/0", "--place", "5"], "b"),
        (["2", "5", "--place", "x"], "--place"),
    ])
    def test_malformed_argument_exits_two(self, capsys, args, name):
        assert main(["hilbert"] + args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"argument {name}:" in err

    def test_large_prime_place(self, capsys):
        assert main(["hilbert", "2", "5", "--place", "1000000000000000003"]) == 0
        assert capsys.readouterr().out.strip() == "1"


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
