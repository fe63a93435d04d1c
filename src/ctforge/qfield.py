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
    canonical representations is equality in the field.  Arithmetic
    reduces in one place, `_canonicalize` (through `QRat.__init__`):
    products multiply numerators and denominators and reduce once there.
    A power is never reduced: raised, a canonical pair stays canonical.
  * a coefficient held factored, as products of integer maps, is read by
    one entry point, `QRat.from_factors`.  Every denominator the engine
    builds is a product of monomials and binomials c (q^a - q^b), and
    q^e - 1 is the product of the cyclotomic polynomials Phi_d over
    d | e, so such a quotient is reduced by cancelling Phi_d counts and
    dividing by what is left, exactly, with no gcd; any other denominator
    is multiplied out and goes to `_canonicalize`, whose gcd is a
    primitive pseudo-remainder sequence.

The one product over Z[q], `_qprod`, packs each integer map {q-exponent:
int} into its value at q = 2^w (Kronecker substitution; Harvey, J.
Symbolic Comput. 44, 2009) and raises the maps of one multiplicity k as
one integer power of their product; a two-term map of multiplicity 1,
such as a binomial 1 - q^e, is one shift and one add.  QPoly products
and powers go through it, all but a shift.  `_width`, the one width
rule, sets w for it and for `laurent`, and refuses a product past the
budget before forming it.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd as _int_gcd, lcm, prod

from .errors import DomainError, PoleError, size_str

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
                    c[e] = as_scalar(s)
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
        return _poly_product([(self, 1), (other, 1)])

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

    def _cleared(self) -> tuple[dict[int, int], int]:
        """(the coefficients times scale, as ints; scale), scale the lcm of
        the coefficients' denominators."""
        scale = lcm(*(v.denominator for v in self.c.values()
                      if isinstance(v, Fraction)))
        return {e: int(v * scale) for e, v in self.c.items()}, scale

    def _dense_int(self) -> list[int]:
        """Dense integer coefficient list, the denominators cleared."""
        c = self._cleared()[0]
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
    def from_laurent(cls, terms: dict[int, int]) -> "QRat":
        """sum c q^e for {e: c} with nonzero int c and any integer e.

        Canonical with no gcd: after shifting by the lowest exponent m the
        numerator has a nonzero constant term, so it is coprime to q^-m.
        """
        m = min(terms)
        if m >= 0:
            return cls._raw(QPoly._raw(dict(terms)), _QP_ONE)
        return cls._raw(QPoly._raw({e - m: c for e, c in terms.items()}),
                        QPoly.qpow(-m))

    @classmethod
    def ratio_of_products(cls, nums: list["QRat"],
                          dens: list["QRat"]) -> "QRat":
        """prod(nums) / prod(dens), each factor nonzero: both sides
        multiplied as integer maps (`_integer_pair`, `_qprod`) and reduced
        once, by `_canonicalize` (`_quotient`)."""
        top, bottom = [], []
        for xs, up, down in ((nums, top, bottom), (dens, bottom, top)):
            for x in xs:
                n, d = _integer_pair(x)
                up.append((n, 1))
                down.append((d, 1))
        return _quotient(_qprod(top), _qprod(bottom))

    @classmethod
    def from_factors(cls, num: list[tuple[dict[int, int], int]],
                     den: list[tuple[dict[int, int], int]]) -> "QRat":
        """The quotient of two products of integer maps, each side a list
        of `_qprod` pairs (m, k): m a nonzero map {q-exponent: int}, k >= 1.
        The one readout of a factored coefficient.

        Reduced by cyclotomic cancellation.  A binomial c (q^a - q^b),
        a < b, is -c q^a (q^e - 1) for e = b - a, and q^e - 1 is the
        product of the cyclotomic polynomials Phi_d over d | e, each monic
        and irreducible over Q (Lang, Algebra, ch. VI).  So a monomial or a
        binomial factor adds its constant and its q-power to a scalar, and
        each side keeps its binomials as counts of q^e - 1.  The
        denominator's binomials give the Phi_d it holds; those that divide
        a numerator binomial's e cancel by count.  The other numerator maps
        multiply into one map N, which is divided by each Phi_d still left
        downstairs for as long as the division is exact (`_divide_out`).
        Each side is then its binomials over the Phi_d it lost
        (`_binomials_over`).  Each Phi_d left downstairs is irreducible and
        divides nothing left upstairs, and q divides at most one side, so
        the quotient is coprime, and its denominator, a product of Phi_d,
        is monic: the canonical form, found with no gcd.

        Each side is first held to the work budget of multiplying it out
        by `_qprod`, so a readout refuses what the product of its factors
        would.  A denominator map of any other shape, or a binomial wider
        than the budget (a lone factor, which no product bounds, and whose
        divisors would cost sqrt(e) steps), takes the general route: both
        sides multiplied out and reduced by `_canonicalize` (`_quotient`).
        """
        if not den and len(num) == 1 and num[0][1] == 1:
            return cls.from_laurent(num[0][0])     # nothing to cancel
        for pairs in (num, den):
            if sum(k for _, k in pairs) > 1:
                _product_width(pairs)
        cn = cd = 1
        shift = 0
        general = []                # numerator maps of no binomial shape
        binoms = (Counter(), Counter())     # e: multiplicity of q^e - 1
        for side, pairs in enumerate((num, den)):
            sign = 1 - 2 * side
            for m, k in pairs:
                if len(m) == 1:
                    (a, c), = m.items()
                elif (len(m) == 2 and sum(m.values()) == 0
                      and (not side or max(m) - min(m) <= _MAX_PACKED_BITS)):
                    a, b = sorted(m)
                    c = -m[a]
                    binoms[side][b - a] += k
                elif not side:
                    general.append((m, k))
                    continue
                else:
                    return _quotient(_qprod(num), _qprod(den))
                if side:
                    cd *= c ** k
                else:
                    cn *= c ** k
                shift += sign * a * k

        down = Counter()            # d: Phi_d's multiplicity downstairs
        for e, k in binoms[1].items():
            for d in _divisors(e):
                down[d] += k
        lost = Counter({d: min(n, sum(k for e, k in binoms[0].items()
                                      if e % d == 0))
                        for d, n in down.items()})
        nmap, divided = None, Counter()
        if general:
            nmap = _qprod(general)
            low = min(nmap)
            shift += low
            nmap = {e - low: c for e, c in nmap.items()}
            if down - lost:
                nmap, divided = _divide_out(nmap, down - lost)
        n = _binomials_over(binoms[0], lost, nmap)
        d = _binomials_over(binoms[1], lost + divided)
        # both have a nonzero constant term: q^shift goes on one side
        if shift < 0:
            d = {e - shift: c for e, c in d.items()}
        scale = as_scalar(Fraction(cn, cd))
        top = max(shift, 0)
        return cls._raw(QPoly._raw({e + top: as_scalar(c * scale)
                                    for e, c in n.items()}), QPoly._raw(d))

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
        if self.is_one() or other.is_one():     # the other is canonical
            return other if self.is_one() else self
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
        # a canonical pair stays canonical when both sides are raised: no gcd
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return QRAT_ONE
        if n == 1 or self.num.is_zero():
            return self
        return QRat._raw(_poly_product([(self.num, n)]),
                         _poly_product([(self.den, n)]))

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


# Work budget of a product over Z[q]: the bits (slot width times slots) one
# packed q-map of `_qprod`, `laurent._multiply_within` or a q-Pochhammer
# product may need.  The perfbench kernels need at most 79,040.
_MAX_PACKED_BITS = 1 << 22


def _check_packed(w: int, span: int, at: str = "") -> None:
    if w * (span + 1) > _MAX_PACKED_BITS:
        raise DomainError(
            f"expansion too large: {at}{size_str(w)}-bit coefficients over "
            f"{size_str(span + 1)} powers of q exceed the "
            f"{_MAX_PACKED_BITS}-bit work budget")


def _width(norms: list[tuple[int, int]], span: int) -> int:
    """The slot width w = P.bit_length() + 1 of a packed product of maps m^k
    over span + 1 powers of q, P = prod l1^k for norms the pairs (l1 norm of
    m, k), held to the budget.  Its lower bound sum k (l1.bit_length() - 1)
    + 2 is checked first, so a refused width costs no big integer."""
    _check_packed(sum(k * (l1.bit_length() - 1) for l1, k in norms) + 2,
                  span, "at least ")
    w = prod(l1 ** k for l1, k in norms).bit_length() + 1
    _check_packed(w, span)
    return w


def _pack(m: dict[int, int], w: int) -> tuple[int, int]:
    """(offset, value at q = 2^w) of the q-map m, offset its lowest exponent."""
    o = min(m)
    return o, sum(c << w * (e - o) for e, c in m.items())


def _unpack(offset: int, value: int, w: int) -> dict[int, int]:
    """{q-exponent: int} from the balanced base-2^w digits of value, the
    lowest at offset; zero digits are left out.  Splitting the digits in
    halves keeps the work near-linear in value's size and skips zero runs."""
    out = {}
    todo = [(value, offset, abs(value).bit_length() // w + 1)]
    while todo:
        v, e, n = todo.pop()
        if not v:
            continue
        if n == 1:
            out[e] = v
            continue
        k = n // 2
        s = w * k
        low = v & ((1 << s) - 1)
        if low >> (s - 1):             # the balanced low half is negative
            low -= 1 << s
        todo.append(((v - low) >> s, e + k, n - k))
        todo.append((low, e, k))
    return out


def _grouped(pairs: list[tuple[dict[int, int], int]]) -> list[tuple]:
    """The pairs with the maps of each multiplicity k > 1 multiplied into
    one: the same product, which their l1 norms bound more tightly, as
    l1(m m') <= l1(m) l1(m')."""
    by_k: dict[int, list] = {}
    for m, k in pairs:
        by_k.setdefault(k, []).append(m)
    ones = [(m, 1) for m in by_k.pop(1, [])]
    return ones + [(_qprod([(m, 1) for m in ms]), k)
                   for k, ms in by_k.items()]


def _product_width(pairs: list[tuple[dict[int, int], int]]) -> int:
    """`_width` of the product of m^k over the pairs (m, k), as `_qprod`
    packs it: over the `_grouped` pairs."""
    pairs = _grouped(pairs)
    return _width([(sum(map(abs, m.values())), k) for m, k in pairs],
                  sum(k * (max(m) - min(m)) for m, k in pairs))


def _qprod(pairs: list[tuple[dict[int, int], int]]) -> dict[int, int]:
    """The product of m^k over the pairs (m, k), m a nonzero integer map
    {q-exponent: int} and k >= 1: the maps of one multiplicity k > 1 are
    multiplied first (`_grouped`), then each map is packed once, at the
    width of `_width`, and raised to k as one integer power.  A two-term
    map of multiplicity 1, such as a binomial 1 - q^e, is applied to the
    product by one shift and one add in place of a packed multiply."""
    pairs = _grouped(pairs)
    if len(pairs) == 1 and pairs[0][1] == 1:
        return pairs[0][0]
    w = _product_width(pairs)
    offset, value = 0, 1
    for m, k in pairs:
        if k == 1 and len(m) == 2:
            (a, ca), (b, cb) = sorted(m.items())
            offset += a
            value = ca * value + (cb * value << w * (b - a))
            continue
        o, v = _pack(m, w)
        offset += k * o
        value *= v ** k
    return _unpack(offset, value, w)


def _poly_product(pairs: list[tuple[QPoly, int]]) -> QPoly:
    """The product of p^k over the pairs (p, k), p nonzero and k >= 1: the
    maps of `QPoly._cleared` multiply in one `_qprod`, scales above 1 in one."""
    cleared = [(p._cleared(), k) for p, k in pairs]
    m = _qprod([(c, k) for (c, _), k in cleared])
    scales = [({0: s}, k) for (_, s), k in cleared if s > 1]
    scale = _qprod(scales)[0] if scales else 1
    return QPoly._raw({e: as_scalar(Fraction(c, scale)) for e, c in m.items()}
                      if scale > 1 else m)


@lru_cache(maxsize=1024)
def _primes(n: int) -> tuple[int, ...]:
    """The distinct primes of n >= 1, ascending, by trial division."""
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return (*out, n) if n > 1 else tuple(out)


@lru_cache(maxsize=1024)
def _divisors(e: int) -> tuple[int, ...]:
    """The divisors of e >= 1."""
    out, n = [1], e
    for p in _primes(e):
        k = 0
        while n % p == 0:
            n //= p
            k += 1
        out = [x * p ** i for x in out for i in range(k + 1)]
    return tuple(out)


def _totient(d: int) -> int:
    """Euler's phi(d), the degree of Phi_d."""
    ps = _primes(d)
    return d // prod(ps) * prod(p - 1 for p in ps)


@lru_cache(maxsize=1024)
def _moebius(d: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(plus, minus): d/s over the squarefree s | d with mu(s) = 1 and with
    mu(s) = -1, so that Phi_d is the product of q^e - 1 over plus divided
    by that over minus."""
    ps = _primes(d)
    plus, minus = [], []
    for mask in range(1 << len(ps)):
        s = prod(p for i, p in enumerate(ps) if mask >> i & 1)
        (minus if mask.bit_count() % 2 else plus).append(d // s)
    return tuple(plus), tuple(minus)


def _binomial_ratio(n: list[int], times: tuple[int, ...],
                    over: tuple[int, ...]) -> list[int] | None:
    """n times the product of q^e - 1 over times, divided by that over
    over, for a dense list n, the lowest coefficient first; None unless
    the division is exact.  Each binomial is one pass: times q^e - 1
    subtracts the list from itself shifted up by e; over q^e - 1 sums it
    along each residue class mod e from the top, which leaves the
    quotient above the lowest e places and, just when it is exact, zeros
    in them."""
    c = n + [0] * sum(times)
    for e in times:
        for i in range(len(c) - 1, -1, -1):
            c[i] = (c[i - e] if i >= e else 0) - c[i]
    for e in over:
        for i in range(len(c) - 1 - e, -1, -1):
            c[i] += c[i + e]
        if any(c[:e]):
            return None
        c = c[e:]
    return c


def _divide_out(m: dict[int, int],
                phis: Counter) -> tuple[dict[int, int], Counter]:
    """(m / P, P's Phi_d counts): m, a map whose lowest exponent is 0,
    divided by each Phi_d up to phis[d] times, for as long as the division
    is exact.  Phi_d is the product of q^e - 1 over its Moebius plus
    exponents divided by that over its minus exponents (`_moebius`), so
    one division is one `_binomial_ratio`."""
    dense = [m.get(i, 0) for i in range(max(m) + 1)]
    out = Counter()
    for d, k in sorted(phis.items()):
        if _totient(d) >= len(dense):       # deg Phi_d > deg m
            continue
        plus, minus = _moebius(d)
        while out[d] < k:
            quo = _binomial_ratio(dense, minus, plus)
            if quo is None:
                break
            dense = quo
            out[d] += 1
    return {i: c for i, c in enumerate(dense) if c}, out


def _binomials_over(binoms: Counter, phis: Counter,
                    m: dict[int, int] | None = None) -> dict[int, int]:
    """m (1 when None) times the product of (q^e - 1)^k over binoms {e: k},
    divided by the product of Phi_d^k over phis {d: k}, which divides it.
    By `_moebius` each Phi_d is a quotient of binomials, so this is a
    product of binomials to net powers: those above 0 multiply with m in
    one `_qprod`, those below divide it exactly, one pass each
    (`_binomial_ratio`)."""
    net = Counter(binoms)
    for d, k in phis.items():
        plus, minus = _moebius(d)
        for e in plus:
            net[e] -= k
        for e in minus:
            net[e] += k
    pairs = [({0: -1, e: 1}, k) for e, k in net.items() if k > 0]
    if m is not None:
        pairs.append((m, 1))
    out = _qprod(pairs) if pairs else {0: 1}
    over = tuple(e for e, k in net.items() for _ in range(-k))
    if not over:
        return out
    dense = _binomial_ratio([out.get(i, 0) for i in range(max(out) + 1)],
                            (), over)
    return {i: c for i, c in enumerate(dense) if c}


def _integer_pair(c: QRat) -> tuple[dict, dict]:
    """(N, D), integer maps {q-exponent: int} with N / D = c: both sides of
    c times the lcm of their coefficients' denominators.  A monomial
    denominator q^m is moved into N, so D is then a positive integer."""
    scale = lcm(*(v.denominator for p in (c.num, c.den) for v in p.c.values()
                  if not isinstance(v, int)))
    num = {e: int(v * scale) for e, v in c.num.c.items()}
    if len(c.den.c) == 1:           # monic: q^m
        (m, _), = c.den.c.items()
        return {e - m: v for e, v in num.items()}, {0: scale}
    return num, {e: int(v * scale) for e, v in c.den.c.items()}


def _quotient(num: dict[int, int], den: dict[int, int]) -> QRat:
    """num / den for nonzero integer maps, reduced by `_canonicalize`."""
    m, d = min(num), min(den)
    n = QPoly._raw({e - m: c for e, c in num.items()})
    dpoly = QPoly._raw({e - d: c for e, c in den.items()})
    if m > d:
        n = n.shifted(m - d)
    else:
        dpoly = dpoly.shifted(d - m)
    return QRat(n, dpoly)


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
