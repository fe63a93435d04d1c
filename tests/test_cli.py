"""End-to-end command-line checks: exit codes and emitted artifacts."""

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ctforge import cli, qdyson
from ctforge.cli import main
from ctforge.ctengine import ct_factored_pfrac_labeled
from ctforge.errors import size_str
from ctforge.laurent import qbinomial
from ctforge.parser import lower, parse
from ctforge.qfield import QPoly, QRat
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
            assert f"  wrote {path}\n" in r.stdout

    def test_all_b_is_not_listed_up_front(self):
        # the values of b are taken one at a time: 10^8 of them were a
        # list of 3.6 GB before b = 1 was refused by the work budget
        r = run_bounded_cli("certify", "--a", "100000000", "--all-b",
                            timeout=10)
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr == ("error: power or count 100000000 exceeds the "
                            "work budget of 10000\n")

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

    def test_benchmark_kernel_summands_pinned(self, capsys, bench_cases):
        assert main(["ct", "--expr", bench_cases.kernel_expr((2, 1, 1), 4),
                     "--var", "x0", "--method", "both", "--trunc", "1"]) == 0
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

    def test_powers_past_a_machine_index(self):
        # 10^19 > 2^63: a power repeated the form's empty tuple of sums
        # that many times, and Python refused the tuple with OverflowError
        big = "10000000000000000000"
        for expr in (f"(1-x0/x1)^{big}", f"(1-q)^{big}", f"qpoch(x0,3)^{big}",
                     f"(1-q^999999999)^{'9' * 4300}"):
            self._refused(expr)
        for expr, out in ((f"q^{big}", f"q^{big}\n"),
                          (f"(1-x0/x1)^-{big}", "1\n")):
            r = run_bounded_cli("ct", "--expr", expr, "--all-vars")
            assert (r.returncode, r.stdout, r.stderr) == (0, out, "")

    def test_scalar_power_and_qpoch_budget_exit_1(self):
        self._refused("(1+q)^100000")
        self._refused("qpoch(q,100000)")
        # qpoch(q^P,-1) is the one binomial 1/(1 - q^(P-1)): its width is
        # held to the budget when lowered, before it can reach a readout
        self._refused("qpoch(q^999999938,-1)", timeout=10)

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

    def test_a_qpoch_quotient_reads_as_binomials(self):
        # both qpochs lower to binomial runs, so the quotient stays
        # factored and its readout cancels them with no gcd
        r = run_bounded_cli("ct", "--expr", "qpoch(q^7,3)^90/qpoch(q^2,3)^90",
                            "--all-vars", timeout=10)
        assert r.returncode == 0 and r.stderr == ""
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
            "0e160e4be354c06cd3302d638976f716545722fdf44d1e2937ec2fd180e944e8")

    def test_a_zero_pochhammer_factor_comes_before_the_budget(self):
        # qpoch(1, N) holds 1 - q^0: it is 0 whatever the count
        r = run_bounded_cli("ct", "--expr", "qpoch(1,10000000000000000)",
                            "--all-vars", timeout=10)
        assert (r.returncode, r.stdout, r.stderr) == (0, "0\n", "")

    def test_dense_x_power_budget_exit_1(self):
        # a sum inside a sum is multiplied out with no window: the 4000
        # copies of (1+x0) would form 16M products of terms; it stops at
        # the budget of 2^22
        self._refused("(1+x0)^4000+1", timeout=10)

    def test_sum_powers_are_parts_of_the_windowed_product(self):
        # the copies of (1+x0) are parts of the all-zero window's product,
        # one key each: no budget is near
        r = run_bounded_cli("ct", "--expr", "(1+x0)^4000", "--all-vars",
                            timeout=10)
        assert r.returncode == 0 and r.stdout == "1\n"

    def test_width_lower_bound_refuses_before_the_product(self):
        # the 1000 copies of N + x0, N a 4000-digit literal, need slots of
        # at least 13M bits: refused before N^1000 is formed
        self._refused(f"({'9' * 4000}+x0)^1000", timeout=5)

    def test_scalar_power_is_one_packed_power(self):
        # (1 - q)^2000 is raised once, not squared through Q(q) products
        r = run_bounded_cli("ct", "--expr", "1/(1-q)^2000", "--all-vars",
                            timeout=3)
        assert r.returncode == 0
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
            "9ad96dc06b4e5c05b6d0449121bdab4b42a66f635e55eabc1dc2822a311d61ee")

    def test_times_one_costs_nothing(self):
        # the scalar of x0 is 1: the product keeps the big scalar as it is
        r = run_bounded_cli("ct", "--expr",
                            "(qpoch(q^5,-3)*qpoch(q^7,3))^150*x0",
                            "--var", "x0", timeout=5)
        assert r.returncode == 0 and r.stdout == "0\n"

    def test_all_scalar_summands_reduce_once(self, monkeypatch, capsys):
        # the summands are added as integer maps and reduced once, to
        # print, by cyclotomic cancellation: the denominators are
        # binomials, so no gcd is made
        calls = []
        gcd = QPoly.gcd
        monkeypatch.setattr(QPoly, "gcd", staticmethod(
            lambda a, b: calls.append(1) or gcd(a, b)))
        for expr, out in (
                ("1/((1-x0/x1)*(1-q*x0/x1))", "1"),
                ("1/((1-x0/x1)*(1-q*x0/x1)*(1-q^3*x0/x1))", "1"),
                ("x1/(x0*(1-x0/x1)*(1-q*x0/x1)*(1-q^3*x0/x1))",
                 "1 + q + q^3")):
            calls.clear()
            assert main(["ct", "--expr", expr, "--var", "x0"]) == 0
            assert capsys.readouterr().out == out + "\n"
            assert calls == []

    def test_a_qpoch_denominator_makes_no_gcd(self, monkeypatch, capsys):
        # qpoch(q,2) lowers to the binomials (1-q)(1-q^2), so the readout
        # cancels them with no gcd and prints them multiplied out
        calls = []
        gcd = QPoly.gcd
        monkeypatch.setattr(QPoly, "gcd", staticmethod(
            lambda a, b: calls.append(1) or gcd(a, b)))
        assert main(["ct", "--expr", "1/((1-x0/x1)*qpoch(q,2))",
                     "--var", "x0"]) == 0
        assert capsys.readouterr().out == "1/(1 - q - q^2 + q^3)\n"
        assert calls == []

    def test_zero_sum_makes_the_form_zero(self, capsys):
        # x0 - x0 is the zero sum, so the form is zero, not of degree 0
        assert main(["ct", "--expr", "x0-x0", "--var", "x0",
                     "--method", "pfrac"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_multi_term_scalar_prints_in_parentheses(self, capsys):
        # the printed summand reads back as the same function
        expr = "qpoch(q,2)*x1/(1-x0/x1)"
        assert main(["ct", "--expr", expr, "--var", "x0",
                     "--method", "pfrac"]) == 0
        out = capsys.readouterr().out
        assert out == "(1 - q - q^2 + q^3) * x1\n"
        summand, = ct_factored_pfrac_labeled(lower(parse(expr)), 0)
        assert lower(parse(out), 2).expand_exact() == \
            summand[1].expand_exact()

    def test_one_minus_q_divides_like_its_pochhammer(self, capsys):
        for flags in (["--all-vars"], ["--var", "x0"]):
            outs = []
            for expr in ("1/(1-q)", "1/qpoch(q,1)"):
                assert main(["ct", "--expr", expr, *flags]) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] == outs[1] == "-1/(-1 + q)\n"

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

    def test_group_width_is_the_product_width(self, capsys):
        # x0^-100 / (x0; q^-1)_40: the constant term is h_100(1, q^-1, ...,
        # q^-39) = q^-3900 [139, 39]_q.  The group measures 118 bits over
        # 4,001 powers of q, within the packed budget, though its members'
        # norms and spans would claim at least 242 bits over 78,001
        assert main(["ct", "--expr", "x0^-100*qpoch(q*x0,-40)",
                     "--all-vars"]) == 0
        assert capsys.readouterr().out == \
            f"{qbinomial(139, 39) * QRat.qpow(-3900)}\n"

    @pytest.mark.parametrize("expr, value", [
        # h_300(1, q^-1, ..., q^-39) = q^-11700 [339, 39]_q
        ("x0^-300*qpoch(q*x0,-40)",
         lambda: qbinomial(339, 39) * QRat.qpow(-11700)),
        # [x0^1000] 1/((1 - x0)(1 - q^60 x0)) = 1 + q^60 + ... + q^60000
        ("x0^-1000/((1-x0)*(1-q^60*x0))",
         lambda: " + ".join(["1"] + [f"q^{60 * k}" for k in range(1, 1001)])),
    ])
    def test_long_groups_pack_in_passes(self, expr, value):
        # each member after the first is one pass over the indices; formed
        # by products of terms, the two took about 48 s and 12 s
        r = run_bounded_cli("ct", "--expr", expr, "--all-vars", timeout=10)
        assert r.returncode == 0 and r.stdout == f"{value()}\n"

    @pytest.mark.parametrize("expr, refusal", [
        # past the packed budget by the group's own measured width
        ("x0^-1000/((1-x0)*(1-q^5000*x0))",
         "at least 20-bit coefficients over 5000001 powers of q exceed the "
         "4194304-bit work budget"),
        # past the budget of products of terms before any width is set
        ("x0^-3000*qpoch(q*x0,-40)",
         "more than 4194304 products of terms exceed the work budget"),
    ])
    def test_group_refusals(self, expr, refusal):
        r = run_bounded_cli("ct", "--expr", expr, "--all-vars")
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr == f"error: expansion too large: {refusal}\n"

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

    def test_zero_division_exit_1(self):
        # every zero division is a DomainError, whether lowering or the
        # arithmetic finds it; the parser's keeps its position
        for expr, msg in (("0^0", "0 to a nonpositive power"),
                          ("qpoch(q,-1)", "negative Pochhammer hits a zero"),
                          ("qpoch(q^2,-3)", "negative Pochhammer hits a zero"),
                          ("0^-1", "at 1:1: division by zero"),
                          ("1/0", "at 1:1: division by zero"),
                          ("1/(1-q^0)", "at 1:1: division by zero")):
            r = run_cli("ct", "--expr", expr, "--all-vars")
            assert r.returncode == 1 and r.stdout == "", expr
            assert r.stderr.startswith(f"error: {msg}"), expr
            assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr

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

    @pytest.mark.parametrize("expr, series, error", [
        ("x1/x0", "0", None),       # accepted, with no summands
        ("1/(1-x1/x0)", "0", "degree in x0 is 0, not negative"),
        ("x0/(1-x0/x1)", "0", "degree in x0 is 0, not negative"),
        ("1/(1-x0/x1)^2", "1", "repeated pole"),
        ("1/((1-x0/x1)*(1-x1/x2))", "1 + 1*x1*x2^-1 + ",
         "does not have x0 upstairs"),
    ])
    def test_input_outside_pfrac_defaults_to_series(self, capsys, expr,
                                                    series, error):
        # by default, both only where partial fractions accepts the form
        outs = []
        for method in ((), ("--method", "series")):
            assert main(["ct", "--expr", expr, "--var", "x0", *method]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and outs[0].startswith(series)
        for method in ("pfrac", "both"):
            code = main(["ct", "--expr", expr, "--var", "x0",
                         "--method", method])
            out = capsys.readouterr()
            if error is None:
                assert (code, out.out, out.err) == (0, outs[0], "")
            else:
                assert code == 1 and out.out == "" and error in out.err

    def test_long_input_is_refused_in_linear_time(self, capsys):
        # 120 KB of input: tokenizing it took seconds when each token's
        # position was counted from the start of the input
        start = time.perf_counter()
        assert main(["ct", "--expr", "+".join(["x1"] * 40000),
                     "--all-vars"]) == 2
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err == ("error: 1:603: expression nests "
                                           "deeper than 200 levels, found '+'\n")

    def test_syntax_errors_come_before_lowering(self):
        # lowered alone, this qpoch is refused by its budget with exit 1
        r = run_cli("ct", "--expr", "qpoch(q,20000) +", "--all-vars")
        assert r.returncode == 2 and r.stderr == (
            "error: 1:17: expected an atom, found end of input "
            "(expected integer, q, xN, qpoch, ()\n")
        # and --var is checked after parsing, before lowering
        r = run_cli("ct", "--expr", "qpoch(q,20000)*x0", "--var", "x99")
        assert r.returncode == 2 and r.stdout == ""
        assert "--var must be one of x0 .. x63; got 'x99'" in r.stderr


class TestByteIdentity:
    """stdout digests taken before LaurentPoly held integer maps over one
    unreduced denominator, and (the last three) before powers were packed
    and all-scalar summands added as integer maps: reducing a coefficient
    only where it is read prints the same canonical values."""

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
        # summands that print a product of sums
        (["ct", "--expr", "(1+x1)^3/((1-x0/x1)*(1-x0/x2)*(1-x0/x3)*(1-x0/x4))",
          "--var", "x0", "--trunc", "3"],
         "4c5345fb760b2b251adb934b3be1c5a1fc4b251419eed33d6df7e88555b9007b"),
        (["ct", "--expr", "(1+x1)*(1+x2)/((1-x0/x1)*(1-x0/x2)*(1-x0/x3))",
          "--var", "x0", "--trunc", "3"],
         "43ed6845f508c5fc65850e8e7d28f94a1a1e89bcc310f9a873667a6088d24e5b"),
        (["ct", "--expr", "(qpoch(q^5,-3)*qpoch(q^7,3))^60", "--all-vars"],
         "b97b7340f66a81456aac97c8f3951e12ddb153910e56cddaa7f6846537580535"),
        # fractional coefficients
        (["ct", "--expr", "(qpoch(q^3,-2)*2/3)^-25", "--all-vars"],
         "ae9cc55697689d289c28efef4d642a732c7ded85f4dc59e93475fb3c6043568b"),
        # all-scalar summands
        (["ct", "--expr", "2/3*x1^2/(x0^2*(1-x0/x1)*(1-q*x0/x1)*(1-q^3*x0/x1))",
          "--var", "x0"],
         "a9eedfe7e131d7b4fae976b47c10755b66949b74ad45c4303a592c80f9ad8388"),
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

    def test_default_within_budget(self):
        r = run_bounded_cli("tournament", timeout=10)
        assert r.returncode == 0
        assert "instances checked: 634542" in r.stdout

    def test_instance_budget_exit_1(self):
        # 56M instances, about 1.4e20, and far more: each is counted, not
        # enumerated, and refused before any is checked
        for flags in (("--s-max", "5"), ("--s-max", "8", "--a-max", "8"),
                      ("--s-max", "1000000000", "--a-max", "1000000000")):
            r = run_bounded_cli("tournament", *flags, timeout=10)
            assert r.returncode == 1 and r.stdout == "", flags
            assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
            assert "work budget" in r.stderr


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


_NEW_MODULES = """
import sys
before = set(sys.modules)
import ctforge.cli
print(" ".join(sorted(set(sys.modules) - before)))
"""


class TestStartup:
    def test_cli_import_loads_no_heavy_modules(self):
        # dataclasses pulls in inspect, ast and dis, about 20 ms of start-up
        # with the classes it generates; the modules `site` loaded before
        # the import are not counted
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        r = subprocess.run((sys.executable, "-c", _NEW_MODULES),
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        new = set(r.stdout.split())
        assert "ctforge.cli" in new and "ctforge.parser" in new
        assert not new & {"dataclasses", "inspect", "ast", "dis", "typing"}

    def test_cli_import_loads_no_pathlib(self):
        # pathlib brings urllib.parse and ipaddress, milliseconds of
        # start-up; without `site` (-S) nothing has loaded them before
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        r = subprocess.run((sys.executable, "-S", "-c", _NEW_MODULES),
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        new = set(r.stdout.split())
        assert "ctforge.cli" in new
        assert not new & {"pathlib", "urllib", "urllib.parse", "ipaddress",
                          "fnmatch", "ntpath"}


class TestParserReuse:
    def test_calls_parse_independently(self, monkeypatch):
        # one parser serves every call, and no option carries over
        assert cli.build_arg_parser() is cli.build_arg_parser()
        seen = []
        monkeypatch.setattr(cli, "run_certify",
                            lambda ap, args: seen.append(args) or 0)
        assert main(["certify", "--a", "1,1", "--b", "1"]) == 0
        assert main(["certify", "--a", "1,1", "--all-b"]) == 0
        first, second = seen
        assert first.b == 1 and not first.all_b
        assert second.b is None and second.all_b


class TestHugeSizes:
    """str() refuses an int of over 4300 digits; a refusal prints such a
    size by its order of magnitude, on one line."""
    N = "9" * 4300

    @pytest.mark.parametrize("args", [
        ("ct", "--expr", f"qpoch(q,{N})", "--all-vars"),
        ("ct", "--expr", f"(x0^999999999)^{N}", "--all-vars"),
        ("ct", "--expr", "1/(1-x1/x2)", "--var", "x0", "--trunc", N),
        ("identities", "--trunc", N),
        ("verify", "--a0", N, "--a", "1"),
        ("verify", "--a0", "1", "--a", N),
    ])
    def test_refusal_prints_its_size(self, args):
        r = run_bounded_cli(*args, timeout=10)
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1
        assert len(r.stderr) < 200

    def test_point_window_caps_the_extraction_variable(self):
        # the series side is expanded with lo = 0 on x1 as well as hi = 0,
        # so x1's lo caps the group of 1/(1 - x0/x1) at index 0, whatever
        # --trunc bounds x0 by
        r = run_bounded_cli("ct", "--expr", "1/(1-x0/x1)", "--var", "x1",
                            "--trunc", self.N, timeout=10)
        assert (r.returncode, r.stdout, r.stderr) == (0, "1\n", "")

    @pytest.mark.parametrize("e", ["100000000000000000039", N])
    def test_a_huge_scalar_binomial_is_refused_unfactored(self, e):
        # the printed summand's scalar holds 1 - q^e: its readout refuses
        # the numerator's product before it could factor e
        r = run_bounded_cli("ct", "--expr", f"(1-q^{e})/((1-x0/x1)*(1-x0/x2))",
                            "--var", "x0", "--method", "pfrac", timeout=10)
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr.startswith("error: expansion too large: at least "
                                   "3-bit coefficients over 1.00e")
        assert r.stderr.endswith("powers of q exceed the 4194304-bit work "
                                 "budget\n")

    def test_size_str(self):
        # exact up to 20 digits, then three digits, truncated, and the power
        assert size_str(10**20 - 1) == "99999999999999999999"
        assert size_str(-10**20) == "-1.00e20"
        assert size_str(int(self.N)) == "9.99e4299"
        assert size_str(2**100000) == "9.99e30102"
        assert size_str(7 * 10**9999 + 1) == "7.00e9999"

    def test_order_of_magnitude(self):
        # a size str() can print, but 4300 digits long
        r = run_bounded_cli("certify", "--a", f"{self.N},{self.N}", "--b", "1",
                            timeout=10)
        assert r.stderr == ("error: power or count 9.99e4299 exceeds the "
                            "work budget of 10000\n")
