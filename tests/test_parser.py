"""Expression grammar: parsing, grouping, lowering."""

import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ctforge.cli import main
from ctforge.ctengine import ct_all_bruteforce
from ctforge.errors import DomainError
from ctforge.laurent import FactoredForm, LaurentPoly, qpochhammer
from ctforge.parser import (MAX_DEPTH, MAX_VARS, LoweringError, ParseError,
                            lower, parse, tokenize)
from ctforge.qdyson import qdyson_kernel
from ctforge.qfield import QPoly, QRat

from binomials import triples


class TestParsing:
    def test_single_factor(self):
        ff = lower(parse("(1 - q^2*x0/x1)"))
        assert triples(ff) == [(2, (1, -1), 1)]

    def test_qpoch_lowers_to_three_factors(self):
        ff = lower(parse("qpoch(x0/x1, 3)"))
        assert triples(ff) == [(s, (1, -1), 1) for s in (0, 1, 2)]

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
        assert lower(parse("1-q^2*x0/x1")) == \
            lower(parse("  1 - q^2 * x0  / x1 "))

    def test_signed_int_slots(self):
        assert lower(parse("x0^-2")) == FactoredForm.monomial(1, {0: -2})
        assert lower(parse("qpoch(q*x1, -2)")) == \
            qpochhammer(2, (0, 1), -2, qshift=1)

    def test_free_vars(self):
        # parse reports one more than the highest variable index it met
        assert parse("x0 * x3 + q")[1] == 4 and parse("q")[1] == 1
        assert lower(parse("x0 * x3 + q")).nvars == 4

    def test_nvars_widens_never_narrows(self):
        assert lower(parse("x3"), 2).nvars == 4
        assert lower(parse("x3"), 6) == FactoredForm.monomial(6, {3: 1})

    def test_lowering_errors_name_their_spans(self):
        # an operation names its left operand's first atom, a qpoch its
        # token, and a parenthesized atom its inner expression
        for src, at in (("1/(2-x0)", "1:1: division by something"),
                        ("x1 + qpoch(1+x0, 2)", "1:6: qpoch base"),
                        ("2*(1+x0)^-1", "1:4: division by something"),
                        ("x0 +\n (1 - 1/(1-x0))", "2:3: sums may not")):
            with pytest.raises(LoweringError, match=f"^at {at}"):
                lower(parse(src))


class TestNestingLimit:
    def test_deepest_accepted_input_is_walked(self):
        # parse recurses over the nesting, lower over the operations
        for src in ("(" * (MAX_DEPTH - 1) + "x0" + ")" * (MAX_DEPTH - 1),
                    "+".join(["x0"] * MAX_DEPTH),
                    "*".join(["x0"] * MAX_DEPTH)):
            parsed = parse(src)
            assert parsed[1] == 1
            assert not lower(parsed).is_zero()

    def test_deeper_input_rejected(self):
        for src in ("(" * MAX_DEPTH + "x0" + ")" * MAX_DEPTH,
                    "+".join(["x0"] * (MAX_DEPTH + 1)),
                    "*".join(["x0"] * (MAX_DEPTH + 1)),
                    "qpoch(" * MAX_DEPTH + "x0" + ",1)" * MAX_DEPTH):
            with pytest.raises(ParseError, match="nests deeper"):
                parse(src)

    def test_benchmark_kernel_parses(self, bench_cases):
        # the largest expression the benchmark's ct workload feeds the parser
        ff = lower(parse(bench_cases.kernel_expr((2, 2, 2), 9)))
        kernel = qdyson_kernel(9, (2, 2, 2))
        # the same factors, in the order the expression lists them
        assert (ff.nvars, ff.scalar, ff.mono, ff.polys) == \
            (kernel.nvars, kernel.scalar, kernel.mono, kernel.polys)
        assert Counter(triples(ff)) == Counter(triples(kernel))


class TestVariableLimit:
    def test_highest_index_accepted(self):
        assert MAX_VARS == 64
        assert lower(parse("x63")) == FactoredForm.monomial(64, {63: 1})
        assert lower(parse("x0063")) == lower(parse("x63"))
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
        assert lower(parse(lit)) == \
            FactoredForm(1, QRat.from_int(int(lit)))
        # they parse; lowering refuses the power and the count by budget
        for src in (f"x0^{lit}", f"qpoch(x0/x1,{lit})"):
            parsed = parse(src)
            with pytest.raises(DomainError):
                lower(parsed)


# The grammar's alphabet, words of it, whitespace that is and is not a line
# break, and characters no token may hold.
_PIECES = list("x0123456789q+-*/^(),pochab_ ") + [
    "qpoch", "x12", "\n", "\t", "\r", "\x0b", "\x1c", " \n ", "é", "٣", "$"]
_WORD_RE = re.compile(r"(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
                      r"|(?P<sym>[-+*/^(),])")


def _reference_tokens(src: str):
    """Each token's (kind, text, line, col), or ("error", ch, line, col)
    at a stray character: whitespace is whatever str.isspace() says, and
    a position is computed afresh from its offset."""
    def at(i):
        return src.count("\n", 0, i) + 1, i - src.rfind("\n", 0, i)
    out, i = [], 0
    while i < len(src):
        if src[i].isspace():
            i += 1
            continue
        m = _WORD_RE.match(src, i)
        if m is None:
            return ("error", src[i]) + at(i)
        out.append((m.lastgroup, m.group()) + at(i))
        i = m.end()
    return out + [("eof", "") + at(len(src))]


class TestTokenizer:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
    def test_positions_match_offsets(self, src):
        want = _reference_tokens(src)
        try:
            got = [(t.kind, t.text, t.line, t.col) for t in tokenize(src)]
        except ParseError as e:
            assert want[0] == "error"
            assert str(e) == f"{want[2]}:{want[3]}: unexpected character {want[1]!r}"
            assert (e.line, e.col) == want[2:]
            return
        assert got == want

    def test_linear_time(self):
        # counting each token's position from the start of the input made
        # this quadratic (seconds); one pass keeps the line count as it goes
        start = time.perf_counter()
        tokens = tokenize("x1+\n" * 40000 + "x1")
        assert time.perf_counter() - start < 1
        assert (tokens[-2].text, tokens[-2].line, tokens[-2].col) == \
            ("x1", 40001, 1)
        assert (tokens[-1].kind, tokens[-1].line, tokens[-1].col) == \
            ("eof", 40001, 3)


class TestAsciiGrammar:
    """Digits are 0-9 and names ASCII: a digit of another script is a
    stray character, not a number or part of a variable's index."""

    def test_other_digits_are_stray_characters(self):
        for src, col in (("٣*x٣/x3", 1), ("x٣", 2), ("x3 + ٣", 6),
                         ("x1٣", 3), ("qpoch(x0, ٣)", 11)):
            with pytest.raises(ParseError) as err:
                parse(src)
            assert (err.value.line, err.value.col) == (1, col)
            assert "unexpected character '٣'" in str(err.value)

    def test_cli_exits_2_with_one_error_line(self, capsys):
        from ctforge import cli
        assert cli.main(["ct", "--expr", "٣*x٣/x3", "--var", "x0"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: 1:1: unexpected character '٣'\n"


class TestPrinting:
    """Each case, printed once more with every operation parenthesized as
    the grammar groups it, lowers to the same form."""
    CASES = {
        "(1 - x0/x1)*(1 - q*x1/x0)": "((1 - (x0/x1))*(1 - ((q*x1)/x0)))",
        "1 - 2 - 3": "((1 - 2) - 3)",
        "1 - (2 - 3)": "(1 - (2 - 3))",
        "q^-2*x0/x1/x2 - 3 + qpoch(q*x1, -2)^2":
            "((((((q^-2)*x0)/x1)/x2) - 3) + (qpoch((q*x1), -2)^2))",
        "(1 + q)^3*x2": "(((1 + q)^3)*x2)",
        "x0^-1": "(x0^-1)",
        "qpoch(x0, 2)^-1": "(qpoch(x0, 2)^-1)",
        "1/(1 - q*x0/x1)": "(1/(1 - ((q*x0)/x1)))",
    }

    @pytest.mark.parametrize("src", CASES)
    def test_round_trip(self, src):
        # the parentheses move the columns that lowering errors name
        assert _lowered(src, False) == _lowered(self.CASES[src], False)


class TestLowering:
    def test_division_by_recognized_factor(self):
        ff = lower(parse("1/(1 - q*x0/x1)"))
        assert triples(ff) == [(1, (1, -1), -1)]

    def test_division_by_general_sum_rejected(self):
        with pytest.raises(LoweringError):
            lower(parse("1/(2 - x0)"))
        with pytest.raises(LoweringError):
            lower(parse("x0/(1 + x1 + x2)"))

    def test_division_by_zero_rejected(self):
        with pytest.raises(DomainError, match="^at 1:1: division by zero"):
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
        assert ff.polys == ()
        assert str(ff) == str(QRat.from_laurent({0: 1, 1: -1})
                              * QRat.from_laurent({0: 1, 2: -1}))

    def test_pure_q_qpoch_is_its_binomials(self):
        # a pure-q qpoch lowers to the collapsed runs its factors 1 - q^e,
        # written out in its order, lower to: the forms compare equal
        for qexp in range(-4, 5):
            for count in range(-4, 5):
                if count >= 0:
                    exps = range(qexp, qexp + count)
                else:
                    exps = range(qexp - 1, qexp + count - 1, -1)
                if 0 in exps:
                    continue
                factors = "*".join(f"(1 - q^{e})" for e in exps) or "1"
                src = factors if count >= 0 else f"1/({factors})"
                assert lower(parse(f"qpoch(q^{qexp}, {count})")) == \
                    lower(parse(src)), (qexp, count)

    def test_pure_q_qpoch_with_a_zero_factor(self):
        # 1 - q^0 in the range: zero, whatever the count, or a zero
        # division when the count inverts it
        assert lower(parse("qpoch(1, 3)")).is_zero()
        assert lower(parse("qpoch(q^-2, 5)")).is_zero()
        for src in ("qpoch(q^2, -3)", "qpoch(q, -1)"):
            with pytest.raises(DomainError,
                               match="^negative Pochhammer hits a zero factor$"):
                lower(parse(src))

    def test_one_minus_q_power_is_a_collapsed_factor(self):
        # 1 - q^s, s != 0, is the factor substitute makes when a binomial
        # collapses, so it may divide; 1 - q^0 is the zero sum
        for src, s in (("1 - q", 1), ("(1 - q^-3)", -3), ("1 - q^2*x0/x0", 2)):
            ff = lower(parse(src), 2)
            assert ff.runs == (((0, 0), s, s, 1),) and ff.polys == ()
            inv = lower(parse(f"1/({src})"), 2)
            assert inv.runs == (((0, 0), s, s, -1),)
        assert lower(parse("1 - q^0")).is_zero()
        with pytest.raises(DomainError, match="division by zero"):
            lower(parse("1/(1 - q^0)"))
        # other constant sums stay sums, and may not divide
        for src in ("2 - q", "1 + q", "q - 1", "1 - 2*q"):
            assert lower(parse(src)).polys, src
            with pytest.raises(LoweringError, match="not a product"):
                lower(parse(f"1/({src})"))

    def test_qpoch_bad_base(self):
        with pytest.raises(LoweringError):
            lower(parse("qpoch(1 + x0, 2)"))

    @pytest.mark.parametrize("src, line", [
        # a base that holds only collapsed runs is a scalar base
        ("qpoch(qpoch(q,2),3)", "qpoch base scalar must be a power of q"),
        ("qpoch(1+x0,2)", "qpoch base must be a monomial times a power of q"),
    ])
    def test_qpoch_base_refusal_lines(self, capsys, src, line):
        assert main(["ct", "--expr", src, "--all-vars"]) == 2
        assert capsys.readouterr().err == f"error: at 1:1: {line}\n"

    def test_ct_through_the_surface(self):
        ff = lower(parse("(1 - x0/x1)*(1 - q*x1/x0)"))
        assert ct_all_bruteforce(ff) == QRat(QPoly({0: 1, 1: 1}))


def _lowered(src: str, spans: bool = True):
    """The form src lowers to, or the type and message of what it raises,
    with or without the position a lowering error names."""
    try:
        return lower(parse(src))
    except Exception as e:
        message = str(e) if spans else re.sub(r"^at \d+:\d+: ", "", str(e))
        return type(e), message


# -- grammar fuzz ---------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def _render(tree, grouped: bool, parent_prec: int = 0) -> str:
    """A drawn expression as source.  grouped parenthesizes every operation;
    otherwise only where the grammar needs it, with a space for each
    parenthesis left out, so that every atom keeps its column and both
    renderings name the same spans."""
    if isinstance(tree, str):
        return tree
    if tree[0] == "qpoch":
        return f"qpoch({_render(tree[1], grouped)},{tree[2]})"
    if tree[0] == "^":
        # the grammar's pow base is an atom, so anything lower (including
        # another pow) must be parenthesized
        s, prec = f"{_render(tree[1], grouped, 4)}^{tree[2]}", 3
    else:
        prec = _PREC[tree[0]]
        # left-associative: the right operand needs parens at equal precedence
        s = (f"{_render(tree[1], grouped, prec)}{tree[0]}"
             f"{_render(tree[2], grouped, prec + 1)}")
    if grouped or prec < parent_prec:
        return f"({s})"
    return f" {s} "


def _exprs():
    atoms = st.one_of(st.integers(0, 99).map(str), st.just("q"),
                      st.integers(0, 5).map(lambda i: f"x{i}"))
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(st.sampled_from("+-*/"), inner, inner),
            st.tuples(st.just("^"), inner, st.integers(-4, 4)),
            st.tuples(st.just("qpoch"), inner, st.integers(-3, 3)),
        ),
        max_leaves=12)


# A lowered form does not show every grouping ((a*b)*c and a*(b*c) are one
# form), so the test draws 500 examples.  Over seeds 1..10, 500 found a
# right-associative '*' and '/' in 10 runs and '-' bound as tightly as '*'
# in 8; 150 found each in 5.
@settings(max_examples=500, deadline=None)
@given(_exprs())
def test_fuzzed_round_trip(tree):
    plain, grouped = _render(tree, False), _render(tree, True)
    assert _lowered(plain) == _lowered(grouped), (plain, grouped)
