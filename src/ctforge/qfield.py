"""Exact arithmetic in Q(q): rationals, polynomials in q, and their quotients.

The coefficient field of the whole engine.  We work over the rational
numbers rather than the complex numbers: every constant arising in the
q-Dyson computations is rational, so Q(q) suffices (deliberate narrowing,
see package docs).

Conventions:
  * rational scalars are `int` or `fractions.Fraction`; a Fraction whose
    denominator is 1 is normalized back to `int` so that the common
    integer-only paths stay in fast machine/bignum arithmetic;
  * QPoly exponents are nonnegative.  Negative powers of q (which do occur,
    e.g. q^{-k} prefactors) live in QRat as a denominator q^k;
  * QRat is always canonical: num/den coprime, den monic.  Equality of
    canonical representations is equality in the field.  `_canonicalize`
    (through `QRat.__init__`) is the only place a quotient is reduced:
    products multiply numerators and denominators and reduce once there.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, lcm

from .errors import DomainError, PoleError

Scalar = int | Fraction


def as_scalar(x) -> Scalar:
    """Normalize a rational scalar: Fractions with denominator 1 become int."""
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return x
    raise DomainError(f"not an exact rational scalar: {x!r}")


# ---------------------------------------------------------------------------
# integer polynomial gcd (dense lists, primitive PRS)
# ---------------------------------------------------------------------------

def _list_content(a: list[int]) -> int:
    g = 0
    for c in a:
        g = _int_gcd(g, abs(c))
        if g == 1:
            return 1
    return g


def _list_primitive(a: list[int]) -> list[int]:
    g = _list_content(a)
    if g in (0, 1):
        return a
    return [c // g for c in a]


def _list_prem(a: list[int], b: list[int]) -> list[int]:
    # pseudo-remainder of a by b; b nonzero, deg a >= deg b
    a = a[:]
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        la = a[-1]
        shift = len(a) - 1 - db
        a = [c * lb for c in a]
        for i in range(db + 1):
            a[shift + i] -= la * b[i]
        while a and a[-1] == 0:
            a.pop()
    return a


def _list_gcd(a: list[int], b: list[int]) -> list[int]:
    a = _list_primitive([c for c in a])
    b = _list_primitive([c for c in b])
    while a and a[-1] == 0:
        a.pop()
    while b and b[-1] == 0:
        b.pop()
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _list_prem(a, b)
        a, b = b, _list_primitive(r)
    return a


class QPoly:
    """Sparse univariate polynomial in q over the rationals.

    Stored as {exponent: scalar} with no zero values and exponents >= 0.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        if coeffs:
            c = {}
            for e, v in coeffs.items():
                if e < 0:
                    raise DomainError("QPoly exponents must be nonnegative")
                v = as_scalar(v)
                if v != 0:
                    c[e] = v
            self.c = c
        else:
            self.c = {}

    @staticmethod
    def _raw(c: dict) -> "QPoly":
        p = QPoly.__new__(QPoly)
        p.c = c
        return p

    @classmethod
    def const(cls, v) -> "QPoly":
        v = as_scalar(v)
        return cls._raw({0: v} if v != 0 else {})

    @classmethod
    def qpow(cls, e: int, coeff=1) -> "QPoly":
        if e < 0:
            raise DomainError("QPoly.qpow needs a nonnegative exponent")
        coeff = as_scalar(coeff)
        return cls._raw({e: coeff} if coeff != 0 else {})

    # -- predicates / views -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.c

    def is_one(self) -> bool:
        return self.c == {0: 1}

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self.c) if self.c else -1

    @property
    def leading_coeff(self) -> Scalar:
        return self.c[max(self.c)] if self.c else 0

    # -- ring operations ----------------------------------------------------

    def __add__(self, other: "QPoly") -> "QPoly":
        a, b = self.c, other.c
        if not a:
            return other
        if not b:
            return self
        c = dict(a)
        for e, v in b.items():
            s = c.get(e)
            if s is None:
                c[e] = v
            else:
                s = s + v
                if s == 0:
                    del c[e]
                else:
                    c[e] = s
        return QPoly._raw(c)

    def __neg__(self) -> "QPoly":
        return QPoly._raw({e: -v for e, v in self.c.items()})

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        a, b = self.c, other.c
        if not a or not b:
            return _QP_ZERO
        if len(b) == 1:
            (e, v), = b.items()
            return self.shifted(e, v)
        if len(a) == 1:
            (e, v), = a.items()
            return other.shifted(e, v)
        c: dict = {}
        for e1, v1 in a.items():
            for e2, v2 in b.items():
                e = e1 + e2
                s = c.get(e)
                c[e] = v1 * v2 if s is None else s + v1 * v2
        return QPoly._raw({e: as_scalar(v) for e, v in c.items() if v != 0})

    def shifted(self, shift: int, scale=1) -> "QPoly":
        """self * scale * q^shift (shift may not push exponents below 0)."""
        if scale == 0:
            return _QP_ZERO
        scale = as_scalar(scale)
        if shift == 0 and scale == 1:
            return self
        c = {}
        for e, v in self.c.items():
            e2 = e + shift
            if e2 < 0:
                raise DomainError("shift would create a negative q-exponent")
            c[e2] = as_scalar(v * scale)
        return QPoly._raw(c)

    def scaled(self, scale) -> "QPoly":
        return self.shifted(0, scale)

    def __eq__(self, other) -> bool:
        return isinstance(other, QPoly) and self.c == other.c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    # -- division / gcd -----------------------------------------------------

    def exact_div(self, other: "QPoly") -> "QPoly":
        """self / other; DomainError unless other divides self."""
        if other.is_zero():
            raise DomainError("polynomial division by zero")
        rem = dict(self.c)
        quo: dict = {}
        dob = other.degree
        lob = other.leading_coeff
        while rem:
            da = max(rem)
            if da < dob:
                break
            factor = as_scalar(Fraction(rem[da]) / Fraction(lob))
            quo[da - dob] = factor
            for e, v in other.c.items():
                e2 = e + da - dob
                s = rem.get(e2, 0) - factor * v
                if s == 0:
                    rem.pop(e2, None)
                else:
                    rem[e2] = as_scalar(s)
        if rem:
            raise DomainError("exact_div with nonzero remainder")
        return QPoly._raw(quo)

    def _cleared(self) -> dict[int, int]:
        """The coefficients times the lcm of their denominators, as ints."""
        scale = lcm(*(v.denominator for v in self.c.values()
                      if isinstance(v, Fraction)))
        return {e: int(v * scale) for e, v in self.c.items()}

    def _dense_int(self) -> list[int]:
        """Dense integer coefficient list, the denominators cleared."""
        c = self._cleared()
        return [c.get(e, 0) for e in range(self.degree + 1)]

    @staticmethod
    def gcd(a: "QPoly", b: "QPoly") -> "QPoly":
        """Monic gcd, computed by a primitive pseudo-remainder sequence.

        Coefficients are cleared to integers first; exact and fast at the
        polynomial degrees this engine produces.
        """
        if a.is_zero():
            return b.monic()
        if b.is_zero():
            return a.monic()
        g = _list_gcd(a._dense_int(), b._dense_int())
        poly = QPoly._raw({e: v for e, v in enumerate(g) if v != 0})
        return poly.monic()

    def monic(self) -> "QPoly":
        if not self.c:
            return self
        lc = self.leading_coeff
        if lc == 1:
            return self
        inv = Fraction(1, 1) / Fraction(lc)
        return self.scaled(inv)

    # -- evaluation / display -----------------------------------------------

    def eval_at(self, v: Fraction) -> Fraction:
        """Exact evaluation at q = v (Horner on the dense span)."""
        if not self.c:
            return Fraction(0)
        acc = Fraction(0)
        for e in range(self.degree, -1, -1):
            acc = acc * v + self.c.get(e, 0)
        return acc

    def __str__(self) -> str:
        try:
            return self._text()
        except ValueError:  # str() of an int over sys.get_int_max_str_digits()
            raise DomainError("a coefficient has too many digits to print") from None

    def _text(self) -> str:
        if not self.c:
            return "0"
        bits = []
        for e in sorted(self.c):
            v = self.c[e]
            if e == 0:
                bits.append(str(v))
                continue
            qq = "q" if e == 1 else f"q^{e}"
            if v == 1:
                term = qq
            elif v == -1:
                term = f"-{qq}"
            else:
                term = f"{v}*{qq}"
            bits.append(term)
        out = bits[0]
        for t in bits[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out

    def __repr__(self) -> str:
        return f"QPoly({self})"


_QP_ZERO = QPoly._raw({})
_QP_ONE = QPoly._raw({0: 1})


class QRat:
    """Element of Q(q) in canonical form: num/den coprime, den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num: QPoly, den: QPoly = _QP_ONE):
        num, den = _canonicalize(num, den)
        self.num = num
        self.den = den

    @staticmethod
    def _raw(num: QPoly, den: QPoly) -> "QRat":
        r = QRat.__new__(QRat)
        r.num = num
        r.den = den
        return r

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "QRat":
        if n == 0:
            return QRAT_ZERO
        if n == 1:
            return QRAT_ONE
        return cls._raw(QPoly.const(n), _QP_ONE)

    @classmethod
    def from_scalar(cls, v) -> "QRat":
        v = as_scalar(v)
        if isinstance(v, int):
            return cls.from_int(v)
        return cls._raw(QPoly.const(v), _QP_ONE)

    @classmethod
    def qpow(cls, e: int) -> "QRat":
        """q^e for any integer e; negative powers go into the denominator."""
        if e >= 0:
            return cls._raw(QPoly.qpow(e), _QP_ONE)
        return cls._raw(_QP_ONE, QPoly.qpow(-e))

    @classmethod
    def from_laurent(cls, terms: dict[int, int],
                     den: dict[int, int] | None = None) -> "QRat":
        """sum c q^e for {e: c} with nonzero int c and any integer e,
        divided by the same kind of map den when one is given.

        Canonical with no gcd when den is absent or {0: 1}: after shifting
        by the lowest exponent m the numerator has a nonzero constant term,
        so it is coprime to q^-m.  Any other den is reduced by
        `_canonicalize`, with no gcd when it is a monomial.
        """
        m = min(terms)
        if den is None or den == {0: 1}:
            if m >= 0:
                return cls._raw(QPoly._raw(dict(terms)), _QP_ONE)
            return cls._raw(QPoly._raw({e - m: c for e, c in terms.items()}),
                            QPoly.qpow(-m))
        d = min(den)
        num = QPoly._raw({e - m: c for e, c in terms.items()})
        dpoly = QPoly._raw({e - d: c for e, c in den.items()})
        if m > d:
            num = num.shifted(m - d)
        else:
            dpoly = dpoly.shifted(d - m)
        return cls(num, dpoly)

    @classmethod
    def one_minus_qpow(cls, e: int) -> "QRat":
        """1 - q^e, for any integer e (canonical for negative e too)."""
        if e == 0:
            return QRAT_ZERO
        if e > 0:
            return cls._raw(QPoly._raw({0: 1, e: -1}), _QP_ONE)
        # 1 - q^e = -(1 - q^{-e})/q^{-e}
        return cls._raw(QPoly._raw({0: -1, -e: 1}), QPoly.qpow(-e))

    # -- predicates -----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    # -- field operations -------------------------------------------------
    # integer operands are accepted everywhere and promoted

    def __add__(self, other) -> "QRat":
        if not isinstance(other, QRat):
            other = QRat.from_scalar(other)
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if self.den.is_one() and other.den.is_one():
            return QRat._raw(self.num + other.num, _QP_ONE)
        if self.den == other.den:
            return QRat(self.num + other.num, self.den)
        return QRat(self.num * other.den + other.num * self.den,
                    self.den * other.den)

    def __radd__(self, other) -> "QRat":
        return self + other

    def __neg__(self) -> "QRat":
        return QRat._raw(-self.num, self.den)

    def __sub__(self, other) -> "QRat":
        if not isinstance(other, QRat):
            other = QRat.from_scalar(other)
        return self + (-other)

    def __rsub__(self, other) -> "QRat":
        return (-self) + other

    def __mul__(self, other) -> "QRat":
        if not isinstance(other, QRat):
            other = QRat.from_scalar(other)
        if self.num.is_zero() or other.num.is_zero():
            return QRAT_ZERO
        if self.den.is_one() and other.den.is_one():
            return QRat._raw(self.num * other.num, _QP_ONE)
        return QRat(self.num * other.num, self.den * other.den)

    def inverse(self) -> "QRat":
        # a coprime pair stays coprime when swapped: no gcd
        if self.num.is_zero():
            raise DomainError("inverse of zero")
        return QRat._raw(*_monic_den(self.den, self.num))

    def __rmul__(self, other) -> "QRat":
        return self * other

    def __truediv__(self, other) -> "QRat":
        if not isinstance(other, QRat):
            other = QRat.from_scalar(other)
        return self * other.inverse()

    def __rtruediv__(self, other) -> "QRat":
        return QRat.from_scalar(other) * self.inverse()

    def __pow__(self, n: int) -> "QRat":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return QRAT_ONE
        if n > 1 and self.num.c:
            _check_packed_power(self.num._cleared(), n)
            _check_packed_power(self.den._cleared(), n)
        # square from the top bit of n down: start from self and multiply
        # only by self, so no square runs past the top bit
        r = self
        for bit in bin(n)[3:]:
            r = r * r
            if bit == "1":
                r = r * self
        return r

    def times_qpow(self, e: int) -> "QRat":
        """self * q^e with a fast path for polynomial values."""
        if e >= 0 and self.den.is_one():
            return QRat._raw(self.num.shifted(e), _QP_ONE)
        return self * QRat.qpow(e)

    def scaled(self, v) -> "QRat":
        v = as_scalar(v)
        if v == 0:
            return QRAT_ZERO
        return QRat._raw(self.num.scaled(v), self.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, QRat)
                and self.num == other.num and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    # -- evaluation / display -----------------------------------------------

    def specialize(self, v) -> Fraction:
        """Exact value at q = v; PoleError only at a genuine (cancelled) pole."""
        v = Fraction(v)
        d = self.den.eval_at(v)
        if d == 0:
            raise PoleError(f"pole at q = {v}")
        return self.num.eval_at(v) / d

    def __str__(self) -> str:
        if self.den.is_one():
            return str(self.num)
        ns = str(self.num)
        if len(self.num.c) > 1:
            ns = f"({ns})"
        ds = str(self.den)
        if len(self.den.c) > 1:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __repr__(self) -> str:
        return f"QRat({self})"


# Work budget of a product over Z[q]: the bits one packed q-map of
# `laurent._multiply_within` may need (slot width times slots), and the same
# measure for the q-Pochhammer products of `laurent` and for QRat powers.
# The perfbench kernels need at most 79,040.
_MAX_PACKED_BITS = 1 << 22


def _check_packed(w: int, span: int) -> None:
    if w * (span + 1) > _MAX_PACKED_BITS:
        raise DomainError(
            f"expansion too large: {w}-bit coefficients over {span + 1} "
            f"powers of q exceed the {_MAX_PACKED_BITS}-bit work budget")


def _check_packed_power(m: dict[int, int], n: int) -> None:
    """Refuse x**n, n >= 2, for x the integer map {q-exponent: int} of a
    QRat's numerator or denominator, when `_multiply_within` would refuse
    the product of n copies of x: slot width (l1^n).bit_length() + 1, l1
    the map's l1 norm, over n times its q-span plus 1 slots.  l1^n is
    formed only after the width's lower bound n * (l1.bit_length() - 1)
    + 2 has passed, so a refused power costs no big integer."""
    l1 = sum(map(abs, m.values()))
    span = n * (max(m) - min(m))
    _check_packed(n * (l1.bit_length() - 1) + 2, span)
    _check_packed((l1 ** n).bit_length() + 1, span)


def _canonicalize(num: QPoly, den: QPoly) -> tuple[QPoly, QPoly]:
    """The one reduction of Q(q): cancel gcd(num, den), make den monic."""
    if den.is_zero():
        raise DomainError("zero denominator")
    if num.is_zero():
        return _QP_ZERO, _QP_ONE
    if len(den.c) == 1 and not den.is_one():
        # den = lc * q^k: the gcd is q^j, j = min(k, lowest exponent of num)
        (k, lc), = den.c.items()
        j = min(k, min(num.c))
        return num.shifted(-j, Fraction(1) / Fraction(lc)), QPoly.qpow(k - j)
    if not den.is_one():
        g = QPoly.gcd(num, den)
        if not g.is_one():
            num = num.exact_div(g)
            den = den.exact_div(g)
        return _monic_den(num, den)
    return num, den


def _monic_den(num: QPoly, den: QPoly) -> tuple[QPoly, QPoly]:
    """num/den with both scaled so that den is monic."""
    lc = den.leading_coeff
    if lc == 1:
        return num, den
    inv = Fraction(1) / Fraction(lc)
    return num.scaled(inv), den.scaled(inv)


QRAT_ZERO = QRat._raw(_QP_ZERO, _QP_ONE)
QRAT_ONE = QRat._raw(_QP_ONE, _QP_ONE)
