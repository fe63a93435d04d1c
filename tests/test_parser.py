"""Expression grammar: parsing, printing, lowering."""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ctforge.ctengine import ct_all_bruteforce
from ctforge.laurent import Factor, LaurentPoly
from ctforge.parser import (MAX_DEPTH, MAX_VARS, BinOp, IntLit,
                            LoweringError, ParseError, Pow, QLit, QPoch, Var,
                            free_vars, lower, parse, print_expr)
from ctforge.qdyson import qdyson_kernel
from ctforge.qfield import QPoly, QRat

ROOT = Path(__file__).resolve().parent.parent


class TestParsing:
    def test_single_factor(self):
        ff = lower(parse("(1 - q^2*x0/x1)"))
        assert len(ff.factors) == 1
        f = ff.factors[0]
        assert f.qexp == 2 and f.mono == (1, -1) and f.exp == 1

    def test_qpoch_lowers_to_three_factors(self):
        ff = lower(parse("qpoch(x0/x1, 3)"))
        assert len(ff.factors) == 3
        assert sorted(f.qexp for f in ff.factors) == [0, 1, 2]

    def test_unclosed_paren(self):
        with pytest.raises(ParseError) as err:
            parse("(1 - x0/x1")
        assert err.value.line == 1 and err.value.col == 11
        assert ")" in err.value.expected

    def test_error_positions(self):
        with pytest.raises(ParseError) as err:
            parse("1 + + 2")
        assert (err.value.line, err.value.col) == (1, 5)

    def test_unknown_name(self):
        with pytest.raises(ParseError):
            parse("qq + 1")

    def test_whitespace_insignificant(self):
        assert parse("1-q^2*x0/x1") == parse("  1 - q^2 * x0  / x1 ")

    def test_signed_int_slots(self):
        assert parse("x0^-2") == Pow(Var(0), -2)
        assert parse("qpoch(q*x1, -2)") == QPoch(BinOp("*", QLit(), Var(1)), -2)

    def test_ast_equality_ignores_spans(self):
        # equal, and hashed, by type and fields; the span is never compared
        node = parse(" x0^-2")
        assert node.span == (1, 2) and node == Pow(Var(0), -2)
        assert hash(node) == hash(Pow(Var(0), -2))
        assert node != Pow(Var(0), 2) and node != Pow(Var(1), -2)
        assert IntLit(1) != Var(1) and QLit() == QLit(span=(3, 4))
        assert repr(node) == ("Pow(span=(1, 2), base=Var(span=(1, 2), "
                              "index=0), exponent=-2)")

    def test_free_vars(self):
        assert free_vars(parse("x0 * x3 + q")) == {0, 3}


class TestNestingLimit:
    def test_deepest_accepted_input_is_walked(self):
        # parse, print, free_vars and lower all recurse over the AST
        for src in ("(" * (MAX_DEPTH - 1) + "x0" + ")" * (MAX_DEPTH - 1),
                    "+".join(["x0"] * MAX_DEPTH)):
            ast = parse(src)
            assert parse(print_expr(ast)) == ast
            assert free_vars(ast) == {0}
            assert not lower(ast).is_zero()

    def test_deeper_input_rejected(self):
        for src in ("(" * MAX_DEPTH + "x0" + ")" * MAX_DEPTH,
                    "+".join(["x0"] * (MAX_DEPTH + 1)),
                    "*".join(["x0"] * (MAX_DEPTH + 1)),
                    "qpoch(" * MAX_DEPTH + "x0" + ",1)" * MAX_DEPTH):
            with pytest.raises(ParseError, match="nests deeper"):
                parse(src)

    def test_benchmark_kernel_parses(self):
        # the largest expression the benchmark's ct workload feeds the parser
        spec = importlib.util.spec_from_file_location(
            "perfbench_cases", ROOT / "perfbench" / "cases.py")
        cases = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cases)
        ff = lower(parse(cases.kernel_expr((2, 2, 2), 9)))
        kernel = qdyson_kernel(9, (2, 2, 2))
        # the same factors, in the order the expression lists them
        assert (ff.nvars, ff.scalar, ff.mono, ff.polys) == \
            (kernel.nvars, kernel.scalar, kernel.mono, kernel.polys)
        assert Counter(ff.factors) == Counter(kernel.factors)


class TestVariableLimit:
    def test_highest_index_accepted(self):
        assert MAX_VARS == 64
        assert parse("x63") == Var(63)
        assert parse("x0063") == Var(63)
        assert lower(parse("x0/x63")).nvars == 64

    def test_higher_index_rejected(self):
        # 5000 digits: past the length int() accepts from a string
        for name in ("x64", "x0640", "x40000", "x" + "9" * 5000):
            with pytest.raises(ParseError) as err:
                parse(f"1 + {name}")
            assert (err.value.line, err.value.col) == (1, 5)


class TestLongIntegers:
    # int() refuses strings of over 4300 digits (CPython's default limit)
    def test_over_limit_is_parse_error_at_the_token(self):
        long = "9" * 5000
        for src, col in ((long, 1), (f"1 + {long}", 5), (f"x0^{long}", 4),
                         (f"x0^-{long}", 5), (f"qpoch(x0/x1,{long})", 13)):
            with pytest.raises(ParseError) as err:
                parse(src)
            assert (err.value.line, err.value.col) == (1, col)
            assert "5000 digits" in str(err.value)

    def test_at_limit_parses(self):
        lit = "9" * 4300
        assert parse(lit) == IntLit(int(lit))
        assert parse(f"x0^{lit}") == Pow(Var(0), int(lit))
        assert parse(f"qpoch(x0/x1,{lit})").count == int(lit)


class TestPrinting:
    CASES = [
        "(1 - x0/x1)*(1 - q*x1/x0)",
        "1 - 2 - 3",
        "1 - (2 - 3)",
        "q^-2*x0/x1/x2 - 3 + qpoch(q*x1, -2)^2",
        "(1 + q)^3*x2",
        "x0^-1",
        "qpoch(x0, 2)^-1",
        "1/(1 - q*x0/x1)",
    ]

    @pytest.mark.parametrize("src", CASES)
    def test_round_trip(self, src):
        ast = parse(src)
        assert parse(print_expr(ast)) == ast


class TestLowering:
    def test_division_by_recognized_factor(self):
        ff = lower(parse("1/(1 - q*x0/x1)"))
        assert len(ff.factors) == 1 and ff.factors[0].exp == -1

    def test_division_by_general_sum_rejected(self):
        with pytest.raises(LoweringError):
            lower(parse("1/(2 - x0)"))
        with pytest.raises(LoweringError):
            lower(parse("x0/(1 + x1 + x2)"))

    def test_division_by_zero_rejected(self):
        with pytest.raises(LoweringError):
            lower(parse("1/0"))

    def test_general_polynomial_lowers_to_poly(self):
        ff = lower(parse("1 + x0 + x0*x1"))
        assert len(ff.polys) == 1 and len(ff.polys[0].terms) == 3

    def test_scalar_arithmetic(self):
        ff = lower(parse("2^3 - q"))
        assert ff.polys == (
            LaurentPoly.monomial(1, {}, QRat(QPoly({0: 8, 1: -1}))),)

    def test_qpoch_scalar_base(self):
        ff = lower(parse("qpoch(q, 2)"))
        assert ff.factors == () and ff.polys == ()
        assert ff.scalar == QRat.one_minus_qpow(1) * QRat.one_minus_qpow(2)

    def test_one_minus_q_power_is_a_collapsed_factor(self):
        # 1 - q^s, s != 0, is the factor substitute makes when a binomial
        # collapses, so it may divide; 1 - q^0 is the zero sum
        for src, s in (("1 - q", 1), ("(1 - q^-3)", -3), ("1 - q^2*x0/x0", 2)):
            ff = lower(parse(src), 2)
            assert ff.factors == (Factor(s, (0, 0)),) and ff.polys == ()
            inv = lower(parse(f"1/({src})"), 2)
            assert inv.factors == (Factor(s, (0, 0), -1),)
        assert lower(parse("1 - q^0")).is_zero()
        with pytest.raises(LoweringError, match="division by zero"):
            lower(parse("1/(1 - q^0)"))
        # other constant sums stay sums, and may not divide
        for src in ("2 - q", "1 + q", "q - 1", "1 - 2*q"):
            assert lower(parse(src)).polys, src
            with pytest.raises(LoweringError, match="not a product"):
                lower(parse(f"1/({src})"))

    def test_qpoch_bad_base(self):
        with pytest.raises(LoweringError):
            lower(parse("qpoch(1 + x0, 2)"))

    def test_ct_through_the_surface(self):
        ff = lower(parse("(1 - x0/x1)*(1 - q*x1/x0)"))
        assert ct_all_bruteforce(ff) == QRat(QPoly({0: 1, 1: 1}))


# -- grammar fuzz ---------------------------------------------------------------

def _atoms():
    return st.one_of(
        st.integers(0, 99).map(IntLit),
        st.just(QLit()),
        st.integers(0, 5).map(Var),
    )


def _exprs():
    return st.recursive(
        _atoms(),
        lambda inner: st.one_of(
            st.builds(BinOp, st.sampled_from("+-*/"), inner, inner),
            st.builds(Pow, inner, st.integers(-4, 4)),
            st.builds(QPoch, inner, st.integers(-3, 3)),
        ),
        max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_exprs())
def test_fuzzed_round_trip(ast):
    assert parse(print_expr(ast)) == ast
