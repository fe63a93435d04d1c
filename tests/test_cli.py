"""End-to-end command-line checks: exit codes and emitted artifacts."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ctforge import cli, qdyson
from ctforge.cli import main
from ctforge.qfield import QPoly
from ctforge.qdyson import certificate_from_dict, validate_certificate
from ctforge.tournament import Witness

ROOT = Path(__file__).resolve().parent.parent

# perfbench/cases.kernel_expr((3, 3), 7) and kernel_expr((2, 2, 2), 9)
K33_7 = ("qpoch(q*x1/x0,3)*qpoch(q*x2/x0,3)*qpoch(x1/x2,3)*qpoch(q*x2/x1,3)*"
         "qpoch(x0/x1,-7)*qpoch(x0/x2,-7)")
K222_9 = ("qpoch(q*x1/x0,2)*qpoch(q*x2/x0,2)*qpoch(q*x3/x0,2)*qpoch(x1/x2,2)*"
          "qpoch(q*x2/x1,2)*qpoch(x1/x3,2)*qpoch(q*x3/x1,2)*qpoch(x2/x3,2)*"
          "qpoch(q*x3/x2,2)*qpoch(x0/x1,-9)*qpoch(x0/x2,-9)*qpoch(x0/x3,-9)")


def run_cli(*args, **kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run((sys.executable, "-m", "ctforge") + args,
                          capture_output=True, text=True, env=env, **kw)


_BOUNDED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
from ctforge.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_bounded_cli(*args, timeout=60):
    """run_cli in a child process held to 512 MB of address space and
    `timeout` seconds, so an input whose work has no budget fails the test
    instead of exhausting the machine."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run((sys.executable, "-c", _BOUNDED_CLI) + args,
                          capture_output=True, text=True, env=env,
                          timeout=timeout)


class TestVerifyCommand:
    def test_identity_holds(self):
        r = run_cli("verify", "--a0", "1", "--a", "1")
        assert r.returncode == 0
        assert "LHS = RHS = 1 + q" in r.stdout

    def test_q1_multinomial(self):
        r = run_cli("verify", "--a0", "1", "--a", "1,1", "--q1")
        assert r.returncode == 0 and "6" in r.stdout

    def test_negative_parameter_is_usage_error(self):
        r = run_cli("verify", "--a0", "1", "--a", "-1")
        assert r.returncode == 2

    def test_missing_flags_usage_error(self):
        assert run_cli("verify", "--a", "1").returncode == 2

    def test_json_output(self):
        r = run_cli("verify", "--a0", "2", "--a", "1", "--json")
        assert r.returncode == 0
        payload = json.loads(r.stdout)
        assert payload["ok"] is True
        assert payload["rhs"] == "1 + q + q^2"

    def test_replay_method(self):
        r = run_cli("verify", "--a0", "1", "--a", "1,1", "--method", "replay")
        assert r.returncode == 0 and "certified" in r.stdout

    def test_q1_with_another_method_exit_2(self, capsys):
        # --q1 would ignore replay and both, and print the q = 1 value
        for method in ("replay", "both"):
            with pytest.raises(SystemExit) as e:
                main(["verify", "--a0", "1", "--a", "1,1", "--q1",
                      "--method", method])
            assert e.value.code == 2
            out = capsys.readouterr()
            assert out.out == "" and "--method must be brute" in out.err
        assert main(["verify", "--a0", "1", "--a", "1,1", "--q1",
                     "--method", "brute"]) == 0
        assert capsys.readouterr().out == "LHS = RHS = 6\n"

    def test_replay_unsound_witness_exit_1(self, monkeypatch, capsys):
        monkeypatch.setattr(qdyson, "find_vanishing_witness",
                            lambda a, path: Witness(1, 1))
        assert main(["verify", "--a0", "1", "--a", "1,1",
                     "--method", "replay"]) == 1
        assert "witness inequalities fail" in capsys.readouterr().err


class TestCertifyCommand:
    def test_single_b(self, tmp_path):
        out = tmp_path / "cert.json"
        r = run_cli("certify", "--a", "1", "--b", "1",
                    "--json-out", str(out), "--oracle")
        assert r.returncode == 0
        cert = certificate_from_dict(json.loads(out.read_text()))
        assert validate_certificate(cert) == 2

    def test_all_b_writes_per_b(self, tmp_path):
        out = tmp_path / "cert.json"
        r = run_cli("certify", "--a", "1,1", "--all-b", "--json-out", str(out))
        assert r.returncode == 0
        for b in (1, 2):
            path = tmp_path / f"cert_b{b}.json"
            assert path.exists()
            cert = certificate_from_dict(json.loads(path.read_text()))
            assert validate_certificate(cert) >= 1

    def test_b_out_of_range(self):
        assert run_cli("certify", "--a", "1", "--b", "2").returncode == 2

    def test_unwritable_json_out_exit_1(self, tmp_path, capsys):
        for path, reason in ((tmp_path / "missing" / "x.json",
                              "No such file or directory"),
                             (tmp_path, "Is a directory")):
            assert main(["certify", "--a", "1", "--b", "1",
                         "--json-out", str(path)]) == 1
            assert capsys.readouterr().err == \
                f"error: cannot write {path}: {reason}\n"


class TestCtCommand:
    def test_small_pole(self):
        r = run_cli("ct", "--expr", "1/(1 - q*x0/x1)", "--var", "x0")
        assert r.returncode == 0 and r.stdout.strip() == "1"

    def test_large_pole(self):
        r = run_cli("ct", "--expr", "1/(1 - q*x1/x0)", "--var", "x1")
        assert r.returncode == 0 and r.stdout.strip() == "0"

    def test_all_vars(self):
        r = run_cli("ct", "--expr", "(1 - x0/x1)*(1 - q*x1/x0)", "--all-vars")
        assert r.returncode == 0 and r.stdout.strip() == "1 + q"

    def test_parse_error_exit_2(self):
        r = run_cli("ct", "--expr", "(1 - x0/x1", "--var", "x0")
        assert r.returncode == 2
        assert "expected" in r.stderr

    def test_properness_failure_exit_1(self):
        r = run_cli("ct", "--expr", "1/(1 - q*x0/x1)", "--var", "x1",
                    "--method", "pfrac")
        assert r.returncode == 1
        assert "degree" in r.stderr

    def test_scalar_summands_are_summed(self):
        # both summands collapse to scalars: 1/(1 - q^-3) + 1/(1 - q^3) = 1
        r = run_cli("ct", "--expr", "1/((1 - q*x0/x1)*(1 - x0/(q^2*x1)))",
                    "--var", "x0", "--method", "pfrac")
        assert r.returncode == 0 and r.stdout == "1\n"

    def test_benchmark_kernel_summands_pinned(self, capsys):
        spec = importlib.util.spec_from_file_location(
            "perfbench_cases", ROOT / "perfbench" / "cases.py")
        cases = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cases)
        assert main(["ct", "--expr", cases.kernel_expr((2, 1, 1), 4), "--var",
                     "x0", "--method", "both", "--trunc", "1"]) == 0
        out = capsys.readouterr().out
        assert "0" not in out.rstrip("\n").split("  +  ")
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "7a8dba850bb58a70dbacb0cf922b6cf17d5499c32fe83916c0b9d75170261c2f"

    def test_zero_summands_are_dropped(self, capsys):
        # the pole x0 = x2 zeroes the numerator (1 - x2/x0): one summand is
        # left; with the pole x0 = x1 of (1 - x1/x0) none is, and 0 prints
        for expr, want in (
                ("(1 - x2/x0)/((1 - x0/x1)*(1 - x0/x2))",
                 "(1 - x1^-1*x2) * (1 - x1*x2^-1)^-1\n"),
                ("(1 - x1/x0)/(1 - x0/x1)", "0\n")):
            assert main(["ct", "--expr", expr, "--var", "x0",
                         "--method", "pfrac"]) == 0
            assert capsys.readouterr().out == want

    def test_methods_agree(self):
        r = run_cli("ct", "--expr", "1/((1 - x0/x1)*(1 - x0/(q*x2)))",
                    "--var", "x0", "--method", "both")
        assert r.returncode == 0

    def test_exponent_overflow_exit_1(self):
        r = run_cli("ct", "--expr", "x0^999999999*x0^999999999", "--var", "x0")
        assert r.returncode == 1
        assert "exponent overflow" in r.stderr

    def _refused(self, expr, *flags, timeout=60):
        r = run_bounded_cli("ct", "--expr", expr, *(flags or ("--all-vars",)),
                            timeout=timeout)
        assert r.returncode == 1 and r.stdout == "", expr
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        assert "work budget" in r.stderr

    def test_binomial_power_budget_exit_1(self):
        self._refused("(1-x0/x1)^100000")

    def test_scalar_power_and_qpoch_budget_exit_1(self):
        self._refused("(1+q)^100000")
        self._refused("qpoch(q,100000)")

    def test_dense_power_budget_exit_1(self):
        # a power is measured as the packed product of its copies and
        # refused before anything is multiplied
        self._refused("(1+q)^4000", timeout=10)
        self._refused("qpoch(q,3)^1000", timeout=10)
        self._refused("(1 - q*x1/x0)^3000/(1 - x0/x1)",
                      "--var", "x0", "--method", "pfrac", timeout=10)

    def test_dense_powers_within_budget(self):
        for expr, digest in (
                ("(1+q)^1000", "e680264d54b74e7fe9350a3db19bb83e"
                               "0fdf37572798c751bfe41d4dae6ac99b"),
                ("qpoch(q,3)^300", "a34b401d0ff826f5c7ca996d0c91c318"
                                   "6ef4eaee827664e20eaae32d4061617c"),
                ("(1+x0)^300", "4355a46b19d348dc2f57c046f8ef63d4"
                               "538ebb936000f3c9ee954a27460dd865")):
            r = run_bounded_cli("ct", "--expr", expr, "--all-vars")
            assert r.returncode == 0, expr
            assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest

    def test_dense_x_power_budget_exit_1(self):
        # (1+x0)^4000, the product of 4000 copies, would form 16M products
        # of terms; it stops at the budget of 2^22
        self._refused("(1+x0)^4000", timeout=10)

    def test_both_comparison_makes_no_gcd(self, monkeypatch):
        # the series and the partial-fraction total are compared as
        # integer maps over a common denominator: until a summand is
        # printed, nothing is reduced in Q(q)
        calls, printed = [], []
        gcd = QPoly.gcd
        monkeypatch.setattr(QPoly, "gcd", staticmethod(
            lambda a, b: calls.append(1) or gcd(a, b)))
        monkeypatch.setattr(cli, "_print_summands", printed.append)
        assert main(["ct", "--expr", K33_7, "--var", "x0", "--method", "both",
                     "--trunc", "6"]) == 0
        assert len(printed) == 1 and calls == []

    def test_packed_width_budget_exit_1(self):
        # 1 and q^100000000 both land on the constant x-key
        self._refused("(1-q^100000000*x0/x1)*(1-x1/x0)")

    def test_accumulator_budget_exit_1(self):
        # each packed value fits its width budget, but the accumulator's
        # keys times their values would exhaust the memory limit
        self._refused("qpoch(x0/x1,40)*qpoch(x1/x0,40)*qpoch(x0/x2,40)*"
                      "qpoch(x2/x0,40)*qpoch(x0/x3,40)*qpoch(x3/x0,40)*"
                      "qpoch(x1/x2,40)*qpoch(x2/x1,40)")

    def test_series_length_budget_exit_1(self):
        # the series in x1/x2 would have trunc + 1 terms; it is refused
        # before it is built
        for trunc in ("100000000", "1000000"):
            self._refused("1/(1-x1/x2)", "--var", "x0", "--trunc", trunc,
                          timeout=10)

    def test_method_with_all_vars_exit_2(self, capsys):
        # --all-vars takes every constant term by series: a method would
        # be ignored
        with pytest.raises(SystemExit) as e:
            main(["ct", "--expr", "1/(1-q*x0/x1)", "--all-vars",
                  "--method", "pfrac"])
        assert e.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "--method applies to --var only" in out.err

    def test_negative_trunc_exit_2(self):
        # a negative window would drop the constant term (the value is 1)
        r = run_cli("ct", "--expr", "1/((1 - x0/x1)*(1 - x0/(q*x2)))",
                    "--var", "x0", "--trunc", "-1", "--method", "series")
        assert r.returncode == 2 and r.stdout == ""
        assert "--trunc must be nonnegative" in r.stderr

    def test_long_integer_exit_2(self):
        long = "9" * 5000
        for expr in (long, f"x0^{long}", f"qpoch(x0/x1,{'1' * 5000})"):
            r = run_cli("ct", "--expr", expr, "--all-vars")
            assert r.returncode == 2, expr[:20]
            assert "5000 digits" in r.stderr and "Traceback" not in r.stderr

    def test_unprintable_value_exit_1(self):
        # 9^5000 has 4772 digits: str() refuses it
        r = run_cli("ct", "--expr", "9^5000", "--all-vars")
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr == "error: a coefficient has too many digits to print\n"

    def test_deep_parentheses_exit_2(self):
        r = run_cli("ct", "--expr", "(" * 400 + "x0" + ")" * 400, "--all-vars")
        assert r.returncode == 2
        assert "nests deeper" in r.stderr and "Traceback" not in r.stderr

    def test_long_sum_exit_2(self):
        r = run_cli("ct", "--expr", "+".join(["x0"] * 3000), "--var", "x0")
        assert r.returncode == 2
        assert "nests deeper" in r.stderr and "Traceback" not in r.stderr

    def test_variable_index_cap_in_expr(self):
        r = run_cli("ct", "--expr", "1/(1 - q*x0/x63)", "--var", "x0")
        assert r.returncode == 0 and r.stdout.strip() == "1"
        for name in ("x64", "x40000"):
            r = run_cli("ct", "--expr", f"1/(1 - q*x0/{name})", "--var", "x0")
            assert r.returncode == 2 and r.stdout == ""
            assert f"variable {name} out of range" in r.stderr
            assert "Traceback" not in r.stderr

    def test_variable_index_cap_in_var(self):
        r = run_cli("ct", "--expr", "1/(1 - q*x0/x1)", "--var", "x63",
                    "--trunc", "1")
        assert r.returncode == 0 and r.stdout.strip() == "1 + q*x0*x1^-1"
        for name in ("x64", "x40000"):
            r = run_cli("ct", "--expr", "1/(1 - q*x0/x1)", "--var", name)
            assert r.returncode == 2 and r.stdout == ""
            assert "--var must be one of x0 .. x63" in r.stderr

    def test_polynomial_input_defaults_to_series(self):
        r = run_cli("ct", "--expr", "(1 - x0/x1)", "--var", "x0")
        assert r.returncode == 0 and r.stdout.strip() == "1"
        # explicitly requesting pfrac still surfaces the properness degree
        r = run_cli("ct", "--expr", "(1 - x0/x1)", "--var", "x0",
                    "--method", "pfrac")
        assert r.returncode == 1 and "degree in x0 is 1" in r.stderr


class TestByteIdentity:
    """stdout digests taken before LaurentPoly held integer maps over one
    unreduced denominator: reducing a coefficient only where it is read
    prints the same canonical values."""

    @pytest.mark.parametrize("argv, digest", [
        (["ct", "--expr", K33_7, "--var", "x0", "--method", "series",
          "--trunc", "6"],
         "1e1ffe60405523e0246aa9ce69d6938775d3ca7174b4e8090d1d61f4edd21140"),
        (["ct", "--expr", K33_7, "--var", "x0", "--method", "pfrac",
          "--trunc", "6"],
         "2dedd72091bbc965e90848023da5b198b531a603bb2554b76df632293022191d"),
        (["ct", "--expr", K33_7, "--var", "x0", "--method", "both",
          "--trunc", "6"],
         "2dedd72091bbc965e90848023da5b198b531a603bb2554b76df632293022191d"),
        (["ct", "--expr", K222_9, "--all-vars"],
         "9401e88c9fc2aaf6afb62e2df8d046e6c99e34276fdf39352457359c01f19f6c"),
        (["identities", "--trunc", "8"],
         "b83ab8c12f2d8269d5ba76a4f3483d5aa75e6f2d97f55b52eeec921f0a33e54d"),
    ])
    def test_stdout_digest(self, capsys, argv, digest):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestTournamentCommand:
    def test_exhaustive(self):
        r = run_cli("tournament", "--s-max", "3", "--a-max", "2")
        assert r.returncode == 0
        assert "counterexamples:   0" in r.stdout

    def test_s_max_below_1_exit_2(self):
        # s-max < 1 would check no instance and pass vacuously
        for s_max in ("0", "-1"):
            r = run_cli("tournament", "--s-max", s_max)
            assert r.returncode == 2 and r.stdout == ""
            assert "--s-max must be at least 1" in r.stderr

    def test_a_max_below_1_exit_2(self):
        r = run_cli("tournament", "--s-max", "3", "--a-max", "0")
        assert r.returncode == 2 and r.stdout == ""
        assert "--a-max must be at least 1" in r.stderr


class TestIdentitiesCommand:
    def test_suite_passes(self):
        r = run_cli("identities", "--trunc", "5")
        assert r.returncode == 0
        assert "FAIL" not in r.stdout
        assert r.stdout.count("PASS") == 6

    def test_series_length_budget_exit_1(self):
        # the suite's series would have 10^8 + 1 terms
        r = run_bounded_cli("identities", "--trunc", "100000000", timeout=10)
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        assert "work budget" in r.stderr

    def test_negative_trunc_exit_2(self):
        r = run_cli("identities", "--trunc", "-1")
        assert r.returncode == 2 and r.stdout == ""
        assert "--trunc must be nonnegative" in r.stderr
