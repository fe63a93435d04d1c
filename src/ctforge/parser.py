"""Expression surface syntax for the CLI.

Grammar (whitespace insignificant):

    expr  := term (('+' | '-') term)*
    term  := pow (('*' | '/') pow)*
    pow   := atom ('^' int)?
    atom  := int | 'q' | var | call | '(' expr ')'
    var   := 'x' digits
    call  := 'qpoch' '(' expr ',' int ')'
    int   := ['-'] digits          (sign only in exponent/count slots)

The grammar is ASCII: digits are 0-9 and names are letters A-Z, a-z
followed by those, digits and '_'.  Any other character, a digit of
another script included, is a ParseError.

Each rule returns a builder for what it read, so lowering waits until the
whole input has parsed: every ParseError comes before any lowering work.
`lower` runs the builders.  Lowering targets FactoredForm: products,
powers and quotients of binomial factors, monomials and q-powers stay
factored; sums collapse to Laurent polynomials (and are re-recognized as
binomial factors when they happen to be one, so that "(1 - q^2*x0/x1)" can
be inverted).  Every qpoch is one run from `qpochhammer`; with a pure
q-power base it is the collapsed factors 1 - q^e that its binomials,
written out, lower to, so a form's scalar is a rational times a power of
q.  Dividing by anything else is a lowering error; dividing by zero is a
DomainError, as `0^0` and a zero Pochhammer factor are, and names its
position.
"""

from __future__ import annotations

import re

from .errors import CTForgeError, DomainError
from .laurent import FactoredForm, LaurentPoly, qpochhammer
from .qfield import QRat


class ParseError(CTForgeError, ValueError):
    def __init__(self, message: str, line: int, col: int,
                 expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        extra = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {message}{extra}")


class LoweringError(CTForgeError, ValueError):
    pass


# -- tokenizer ---------------------------------------------------------------

# Each character is in one match: whitespace, a token or a stray character.
_TOKEN_RE = re.compile(r"(?P<space>\s+)|(?P<int>[0-9]+)"
                       r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
                       r"|(?P<sym>[-+*/^(),])|(?P<bad>.)")


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind            # int | name | sym | eof
        self.text = text
        self.line = line
        self.col = col


def tokenize(src: str) -> list[Token]:
    """One pass, counting the newlines (only whitespace holds them) and
    where the last one was, from which a column counts."""
    tokens = []
    line, last_nl = 1, -1
    for m in _TOKEN_RE.finditer(src):
        kind, text, col = m.lastgroup, m.group(), m.start() - last_nl
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        if kind != "space":
            tokens.append(Token(kind, text, line, col))
        elif "\n" in text:
            line += text.count("\n")
            last_nl = m.start() + text.rindex("\n")
    tokens.append(Token("eof", "", line, len(src) - last_nl))
    return tokens


# The deepest nesting `parse` accepts, both as nested `expr` rules (the
# input's own plus one per open parenthesis or qpoch call, four parser
# frames each) and as the depth of the expression's operations (one frame
# each when `lower` runs the builders): both walks stay under CPython's
# limit of 1000.
MAX_DEPTH = 200

# Variables are x0 .. x{MAX_VARS-1}: every expansion builds exponent tuples
# as long as the largest index, so an unbounded index is unbounded memory.
MAX_VARS = 64


def var_index(name: str) -> int | None:
    """N when name is xN with N < MAX_VARS, else None.  Leading zeros are
    stripped before int(), which refuses strings of over 4300 digits."""
    m = re.fullmatch(r"x0*([0-9]{1,2})", name)
    if m is None or int(m.group(1)) >= MAX_VARS:
        return None
    return int(m.group(1))


class _Parser:
    """Recursive descent; each rule returns (build, depth, span): build(nvars)
    lowers what the rule read, depth counts its nested operations, and span
    is the (line, col) of its first atom, which lowering errors name."""

    def __init__(self, src: str):
        self.tokens = tokenize(src)
        self.i = 0
        self.nested = 0
        self.nvars = 1

    def peek(self) -> Token:
        return self.tokens[self.i]

    def advance(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def error(self, message: str, expected: tuple[str, ...] = ()):
        t = self.peek()
        what = "end of input" if t.kind == "eof" else repr(t.text)
        raise ParseError(f"{message}, found {what}", t.line, t.col, expected)

    def expect_sym(self, sym: str) -> Token:
        t = self.peek()
        if t.kind == "sym" and t.text == sym:
            return self.advance()
        self.error(f"expected {sym!r}", (sym,))

    def check_depth(self, depth: int) -> int:
        if depth > MAX_DEPTH:
            self.error(f"expression nests deeper than {MAX_DEPTH} levels")
        return depth

    # expr := term (('+'|'-') term)*
    def expr(self):
        self.nested = self.check_depth(self.nested + 1)
        build, depth, span = self.term()
        while self.peek().kind == "sym" and self.peek().text in "+-":
            op = self.advance().text
            right, rdepth, _ = self.term()
            build = _binop(op, build, right, span)
            depth = self.check_depth(1 + max(depth, rdepth))
        self.nested -= 1
        return build, depth, span

    # term := pow (('*'|'/') pow)*
    def term(self):
        build, depth, span = self.pow()
        while self.peek().kind == "sym" and self.peek().text in "*/":
            op = self.advance().text
            right, rdepth, _ = self.pow()
            build = _binop(op, build, right, span)
            depth = self.check_depth(1 + max(depth, rdepth))
        return build, depth, span

    # pow := atom ('^' int)?
    def pow(self):
        build, depth, span = self.atom()
        if self.peek().kind == "sym" and self.peek().text == "^":
            self.advance()
            build = _power(build, self.int_lit(), span)
            depth = self.check_depth(depth + 1)
        return build, depth, span

    def int_lit(self) -> int:
        sign = 1
        if self.peek().kind == "sym" and self.peek().text == "-":
            self.advance()
            sign = -1
        if self.peek().kind != "int":
            self.error("expected an integer", ("integer",))
        return sign * self.int_token()

    def int_token(self) -> int:
        """Consume an int token; int() refuses one of over 4300 digits."""
        t = self.advance()
        try:
            return int(t.text)
        except ValueError:
            raise ParseError(f"integer of {len(t.text)} digits is too long",
                             t.line, t.col) from None

    def atom(self):
        t = self.peek()
        span = (t.line, t.col)
        if t.kind == "int":
            value = self.int_token()
            return lambda nvars: FactoredForm(
                nvars, QRat.from_int(value)), 1, span
        if t.kind == "name":
            if t.text == "q":
                self.advance()
                return lambda nvars: FactoredForm(
                    nvars, QRat.qpow(1)), 1, span
            if re.fullmatch(r"x[0-9]+", t.text):
                index = var_index(t.text)
                if index is None:
                    raise ParseError(
                        f"variable {t.text} out of range (x0 .. x{MAX_VARS - 1})",
                        t.line, t.col)
                self.advance()
                self.nvars = max(self.nvars, index + 1)
                return lambda nvars: FactoredForm.monomial(
                    nvars, {index: 1}), 1, span
            if t.text == "qpoch":
                self.advance()
                self.expect_sym("(")
                base, depth, _ = self.expr()
                self.expect_sym(",")
                count = self.int_lit()
                self.expect_sym(")")
                return _qpoch(base, count, span), self.check_depth(depth + 1), span
            self.error(f"unknown name {t.text!r}", ("q", "xN", "qpoch"))
        if t.kind == "sym" and t.text == "(":
            self.advance()
            parsed = self.expr()
            self.expect_sym(")")
            return parsed
        self.error("expected an atom", ("integer", "q", "xN", "qpoch", "("))


def parse(src: str):
    """(build, nvars) for src: build(n) lowers it over n variables, and
    nvars is one more than the highest variable index in src (at least 1).
    ParseError on bad syntax or too deep nesting, before any lowering."""
    p = _Parser(src)
    build, _, _ = p.expr()
    if p.peek().kind != "eof":
        p.error("trailing input")
    return build, p.nvars


def lower(parsed, nvars: int | None = None) -> FactoredForm:
    """Lower parse's result to a FactoredForm over nvars variables, widened
    to the variables the expression uses."""
    build, own = parsed
    return build(max(nvars or 1, own))


# -- lowering -------------------------------------------------------------------

def _qpower_exponent(c: QRat) -> int | None:
    """e when c is the plain q-power q^e (single-term numerator and
    denominator, coefficient 1), else None."""
    if len(c.num.c) != 1 or len(c.den.c) != 1:
        return None
    (en, cn), = c.num.c.items()
    (ed, cd), = c.den.c.items()
    if cn != 1 or cd != 1 or (en and ed):
        return None
    return en - ed


def _recognize_factor(nvars: int, lp: LaurentPoly) -> FactoredForm | None:
    """1 - q^s * monomial, spotted inside an expanded sum; with the
    all-zero monomial and s != 0 it is the collapsed factor 1 - q^s, as
    `FactoredForm.substitute` makes it."""
    rest = (LaurentPoly.one(nvars) - lp).terms
    if len(rest) != 1:
        return None
    (mono, coeff), = rest.items()
    e = _qpower_exponent(coeff)
    if e is None or not (e or any(mono)):
        return None
    return FactoredForm(nvars, runs=((mono, e, e, 1),))


def _as_poly(ff: FactoredForm, span: tuple[int, int]) -> LaurentPoly:
    if ff.has_poles():
        raise LoweringError(
            f"at {span[0]}:{span[1]}: sums may not contain "
            "unexpanded denominators")
    return ff.expand_exact()


def _binop(op: str, left, right, span: tuple[int, int]):
    def build(nvars: int) -> FactoredForm:
        lf, rf = left(nvars), right(nvars)
        if op == "*":
            return lf * rf
        if op == "/":
            return lf * _pow(rf, -1, span)
        lp, rp = _as_poly(lf, span), _as_poly(rf, span)
        total = lp + rp if op == "+" else lp - rp
        factor = _recognize_factor(nvars, total)
        if factor is not None:
            return factor
        return FactoredForm(nvars, polys=(total,))
    return build


def _power(base, e: int, span: tuple[int, int]):
    return lambda nvars: _pow(base(nvars), e, span)


def _pow(ff: FactoredForm, e: int, span: tuple[int, int]) -> FactoredForm:
    if e < 0 and ff.polys:
        raise LoweringError(
            f"at {span[0]}:{span[1]}: division by something that "
            "is not a product of binomial factors, monomials and scalars")
    if e < 0 and ff.scalar.is_zero():
        raise DomainError(f"at {span[0]}:{span[1]}: division by zero")
    return ff ** e


def _qpoch(base, count: int, span: tuple[int, int]):
    """A base whose runs are all collapsed, such as qpoch(q,2), is a
    scalar times a monomial, refused unless that scalar is a power of q."""
    def build(nvars: int) -> FactoredForm:
        ff = base(nvars)
        if ff.polys or any(any(run[0]) for run in ff.runs):
            raise LoweringError(
                f"at {span[0]}:{span[1]}: qpoch base must be a "
                "monomial times a power of q")
        qshift = None if ff.runs else _qpower_exponent(ff.scalar)
        if qshift is None:
            raise LoweringError(
                f"at {span[0]}:{span[1]}: qpoch base scalar must be "
                "a power of q")
        return qpochhammer(nvars, ff.mono, count, qshift=qshift)
    return build
