"""Expression surface syntax for the CLI.

Grammar (whitespace insignificant):

    expr  := term (('+' | '-') term)*
    term  := pow (('*' | '/') pow)*
    pow   := atom ('^' int)?
    atom  := int | 'q' | var | call | '(' expr ')'
    var   := 'x' digits
    call  := 'qpoch' '(' expr ',' int ')'
    int   := ['-'] digits          (sign only in exponent/count slots)

Parsing produces an AST with source spans; the pretty-printer emits a form
that re-parses to a structurally identical AST.  Lowering targets
FactoredForm: products, powers and quotients of binomial factors, monomials
and q-powers stay factored; sums collapse to Laurent polynomials (and are
re-recognized as binomial factors when they happen to be one, so that
"(1 - q^2*x0/x1)" can be inverted).  Dividing by anything else is a
lowering error.
"""

from __future__ import annotations

import re

from .errors import CTForgeError
from .laurent import Factor, FactoredForm, LaurentPoly, qpoch_qrat, qpochhammer
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


# -- AST ----------------------------------------------------------------------

class Node:
    """An AST node: equal by its type and _fields, hashed by _fields; the
    source span (line, col) is carried for messages but never compared."""
    __slots__ = ("span",)
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        args = ", ".join(f"{f}={getattr(self, f)!r}"
                         for f in ("span",) + self._fields)
        return f"{type(self).__name__}({args})"


class IntLit(Node):
    __slots__ = _fields = ("value",)

    def __init__(self, value: int, *, span: tuple[int, int] = (0, 0)):
        self.value = value
        self.span = span


class QLit(Node):
    __slots__ = ()

    def __init__(self, *, span: tuple[int, int] = (0, 0)):
        self.span = span


class Var(Node):
    __slots__ = _fields = ("index",)

    def __init__(self, index: int, *, span: tuple[int, int] = (0, 0)):
        self.index = index
        self.span = span


class BinOp(Node):
    __slots__ = _fields = ("op", "left", "right")

    def __init__(self, op: str, left: Node, right: Node, *,
                 span: tuple[int, int] = (0, 0)):
        self.op = op                # + - * /
        self.left = left
        self.right = right
        self.span = span


class Pow(Node):
    __slots__ = _fields = ("base", "exponent")

    def __init__(self, base: Node, exponent: int, *,
                 span: tuple[int, int] = (0, 0)):
        self.base = base
        self.exponent = exponent
        self.span = span


class QPoch(Node):
    __slots__ = _fields = ("base", "count")

    def __init__(self, base: Node, count: int, *,
                 span: tuple[int, int] = (0, 0)):
        self.base = base
        self.count = count
        self.span = span


# -- tokenizer ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z]\w*)"
                       r"|(?P<sym>[-+*/^(),]))")


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind            # int | name | sym | eof
        self.text = text
        self.line = line
        self.col = col


def tokenize(src: str) -> list[Token]:
    tokens = []
    pos = 0
    line, col = 1, 1
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if not m or m.end() == pos:
            bad_at = pos + len(src[pos:]) - len(src[pos:].lstrip())
            if bad_at >= len(src):
                break
            _line, _col = _locate(src, bad_at)
            raise ParseError(f"unexpected character {src[bad_at]!r}", _line, _col)
        for kind in ("int", "name", "sym"):
            text = m.group(kind)
            if text is not None:
                l, c = _locate(src, m.start(kind))
                tokens.append(Token(kind, text, l, c))
                break
        pos = m.end()
    l, c = _locate(src, len(src))
    tokens.append(Token("eof", "", l, c))
    return tokens


def _locate(src: str, pos: int) -> tuple[int, int]:
    line = src.count("\n", 0, pos) + 1
    last_nl = src.rfind("\n", 0, pos)
    return line, pos - last_nl


# The deepest nesting `parse` accepts, both as nested `expr` rules (the
# input's own plus one per open parenthesis or qpoch call, four parser
# frames each) and as AST levels (one frame each in free_vars, _lower and
# print_expr): every recursive pass stays under CPython's limit of 1000.
MAX_DEPTH = 200

# Variables are x0 .. x{MAX_VARS-1}: every expansion builds exponent tuples
# as long as the largest index, so an unbounded index is unbounded memory.
MAX_VARS = 64


def var_index(name: str) -> int | None:
    """N when name is xN with N < MAX_VARS, else None.  Leading zeros are
    stripped before int(), which refuses strings of over 4300 digits."""
    m = re.fullmatch(r"x0*(\d{1,2})", name)
    if m is None or int(m.group(1)) >= MAX_VARS:
        return None
    return int(m.group(1))


class _Parser:
    """Recursive descent; each rule returns (node, AST depth of node)."""

    def __init__(self, src: str):
        self.src = src
        self.tokens = tokenize(src)
        self.i = 0
        self.nested = 0

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
    def expr(self) -> tuple[Node, int]:
        self.nested = self.check_depth(self.nested + 1)
        node, depth = self.term()
        while self.peek().kind == "sym" and self.peek().text in "+-":
            op = self.advance().text
            right, rdepth = self.term()
            node = BinOp(op, node, right, span=node.span)
            depth = self.check_depth(1 + max(depth, rdepth))
        self.nested -= 1
        return node, depth

    # term := pow (('*'|'/') pow)*
    def term(self) -> tuple[Node, int]:
        node, depth = self.pow()
        while self.peek().kind == "sym" and self.peek().text in "*/":
            op = self.advance().text
            right, rdepth = self.pow()
            node = BinOp(op, node, right, span=node.span)
            depth = self.check_depth(1 + max(depth, rdepth))
        return node, depth

    # pow := atom ('^' int)?
    def pow(self) -> tuple[Node, int]:
        node, depth = self.atom()
        if self.peek().kind == "sym" and self.peek().text == "^":
            self.advance()
            node = Pow(node, self.int_lit(), span=node.span)
            depth = self.check_depth(depth + 1)
        return node, depth

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

    def atom(self) -> tuple[Node, int]:
        t = self.peek()
        span = (t.line, t.col)
        if t.kind == "int":
            return IntLit(self.int_token(), span=span), 1
        if t.kind == "name":
            if t.text == "q":
                self.advance()
                return QLit(span=span), 1
            if re.fullmatch(r"x\d+", t.text):
                index = var_index(t.text)
                if index is None:
                    raise ParseError(
                        f"variable {t.text} out of range (x0 .. x{MAX_VARS - 1})",
                        t.line, t.col)
                self.advance()
                return Var(index, span=span), 1
            if t.text == "qpoch":
                self.advance()
                self.expect_sym("(")
                base, depth = self.expr()
                self.expect_sym(",")
                count = self.int_lit()
                self.expect_sym(")")
                node = QPoch(base, count, span=span)
                return node, self.check_depth(depth + 1)
            self.error(f"unknown name {t.text!r}", ("q", "xN", "qpoch"))
        if t.kind == "sym" and t.text == "(":
            self.advance()
            node, depth = self.expr()
            self.expect_sym(")")
            return node, depth
        self.error("expected an atom", ("integer", "q", "xN", "qpoch", "("))


def parse(src: str) -> Node:
    """The AST of src; ParseError on bad syntax or too deep nesting."""
    p = _Parser(src)
    node, _ = p.expr()
    if p.peek().kind != "eof":
        p.error("trailing input")
    return node


# -- pretty printer ------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2}


def print_expr(node: Node, parent_prec: int = 0) -> str:
    if isinstance(node, IntLit):
        s, prec = str(node.value), 4
    elif isinstance(node, QLit):
        s, prec = "q", 4
    elif isinstance(node, Var):
        s, prec = f"x{node.index}", 4
    elif isinstance(node, QPoch):
        s, prec = f"qpoch({print_expr(node.base)}, {node.count})", 4
    elif isinstance(node, Pow):
        # the grammar's pow base is an atom, so anything lower (including
        # another pow) must be parenthesized
        s = f"{print_expr(node.base, 4)}^{node.exponent}"
        prec = 3
    elif isinstance(node, BinOp):
        prec = _PREC[node.op]
        # left-assoc grammar: the right operand needs parens at equal
        # precedence to reparse with the same shape
        left = print_expr(node.left, prec)
        right = print_expr(node.right, prec + 1)
        s = f"{left} {node.op} {right}"
    else:
        raise TypeError(f"not an AST node: {node!r}")
    if prec < parent_prec:
        return f"({s})"
    return s


# -- lowering -------------------------------------------------------------------

def free_vars(node: Node) -> set[int]:
    if isinstance(node, Var):
        return {node.index}
    if isinstance(node, BinOp):
        return free_vars(node.left) | free_vars(node.right)
    if isinstance(node, Pow):
        return free_vars(node.base)
    if isinstance(node, QPoch):
        return free_vars(node.base)
    return set()


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
    return FactoredForm(nvars, factors=(Factor(e, mono),))


def lower(node: Node, nvars: int | None = None) -> FactoredForm:
    """Lower an AST to a FactoredForm over nvars variables."""
    if nvars is None:
        fv = free_vars(node)
        nvars = max(fv) + 1 if fv else 1
    return _lower(node, nvars)


def _as_poly(ff: FactoredForm, node: Node) -> LaurentPoly:
    if ff.denominator_factors():
        raise LoweringError(
            f"at {node.span[0]}:{node.span[1]}: sums may not contain "
            "unexpanded denominators")
    return ff.expand_exact()


def _lower(node: Node, nvars: int) -> FactoredForm:
    if isinstance(node, IntLit):
        return FactoredForm.from_scalar(nvars, QRat.from_int(node.value))
    if isinstance(node, QLit):
        return FactoredForm.from_scalar(nvars, QRat.qpow(1))
    if isinstance(node, Var):
        return FactoredForm.monomial(nvars, {node.index: 1})
    if isinstance(node, Pow):
        base = _lower(node.base, nvars)
        return _pow(base, node.exponent, node)
    if isinstance(node, QPoch):
        base = _lower(node.base, nvars)
        if base.polys or base.factors:
            raise LoweringError(
                f"at {node.span[0]}:{node.span[1]}: qpoch base must be a "
                "monomial times a power of q")
        qshift = _qpower_exponent(base.scalar)
        if qshift is None:
            raise LoweringError(
                f"at {node.span[0]}:{node.span[1]}: qpoch base scalar must be "
                "a power of q")
        if any(base.mono):
            return qpochhammer(nvars, base.mono, node.count, qshift=qshift)
        return FactoredForm.from_scalar(nvars, qpoch_qrat(qshift, node.count))
    if isinstance(node, BinOp):
        left = _lower(node.left, nvars)
        right = _lower(node.right, nvars)
        if node.op == "*":
            return left * right
        if node.op == "/":
            return left * _pow(right, -1, node)
        lp = _as_poly(left, node)
        rp = _as_poly(right, node)
        total = lp + rp if node.op == "+" else lp - rp
        factor = _recognize_factor(nvars, total)
        if factor is not None:
            return factor
        return FactoredForm(nvars, polys=(total,))
    raise TypeError(f"not an AST node: {node!r}")


def _pow(ff: FactoredForm, e: int, node: Node) -> FactoredForm:
    if e < 0 and ff.polys:
        raise LoweringError(
            f"at {node.span[0]}:{node.span[1]}: division by something that "
            "is not a product of binomial factors, monomials and scalars")
    if e < 0 and ff.scalar.is_zero():
        raise LoweringError(
            f"at {node.span[0]}:{node.span[1]}: division by zero")
    return ff ** e
