"""Sparse multivariate Laurent polynomials over Q(q) and factored products.

Variables are x0, x1, ..., x_{nvars-1}.  The variable order is fixed and
meaningful: rational functions are expanded as iterated Laurent series
*first* in x0, then x1, and so on.  In that field every binomial
1/(1 - q^k x_i/x_j) has a unique expansion:

    i < j:  sum_{l>=0} q^{kl} x_i^l x_j^{-l}
    i > j:  -sum_{l>=0} q^{-k(l+1)} x_i^{-l-1} x_j^{l+1}

so the monomial q^k x_i/x_j is called *small* when i < j (its constant
term in x_i is 1) and *large* when i > j (constant term 0).  More
generally a monomial is small exactly when its lowest-index variable
carries a positive exponent; each geometric series then ascends in that
"control" variable, which is what makes finite windowed expansions exact.

Two representations:

  * LaurentPoly -- the expanded form, over Z[q, 1/q]: integer maps
    {exponent tuple: {q-exponent: int}} over one denominator shared by
    every term, a multiset of integer maps that is never multiplied out
    or reduced;
  * FactoredForm -- scalar * monomial * poly * prod (1 - q^s M)^e, the
    lossless symbolic form the proof engine manipulates (poly is an
    optional LaurentPoly prefix, 1 for all pipeline-built forms).

A substitution that collapses a binomial to 1 - q^e keeps it as a factor
with an all-zero monomial, so the proof engine does no Q(q) arithmetic.
Expansion works over Z[q, 1/q]: every binomial factor expands with
coefficients +-C(n, k) q^e, so inside `expand_within` a coefficient is an
integer map {q-exponent: int} and a part of the product is
{x-exponent tuple: {q-exponent: int}}.  Inside `_multiply_within` each
such map is packed into one integer, its value at q = 2^w (Kronecker
substitution), each x-key into another, one bit field per variable, and
both are decoded back once at the end.  The scalar's numerator and the
collapsed numerator factors are parts with the one key 0; the scalar's
denominator and the collapsed denominator factors become the result's
denominator as they are, with no gcd.  Q(q) enters only where a
coefficient is read or printed: `QRat.from_laurent` reduces it then,
once, and the canonical form is unique, so the bytes printed are those
of term-by-term Q(q) arithmetic.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from math import comb, lcm

from .errors import (DomainError, NotPolynomialError, ProofInvariantError,
                     ShapeError, TruncationError, UncancelledPoleError)
from .qfield import QRAT_ONE, QRAT_ZERO, QRat, _check_packed

# Exponents are plain machine ints; anything this big is a bug upstream.
_EXP_LIMIT = 10**9

# Work budget of powers, binomial expansions and Pochhammer factor lists:
# the largest exponent or count.
_MAX_POWER = 10_000

# Work budget of the accumulator of `_multiply_within`: its number of keys
# and the bits its packed values hold.  The perfbench cases and `verify`
# up to brute (1; 1^8), (3; 3,3,3,3,3) and replay (3; 3,3,3,3) need at
# most 25,686 keys (brute (1; 1^8)) and 26.1M bits (brute (3; 3,3,3,3,3)).
# And the products of terms a product with no window may form (a power or
# a product of sums): (1+x0)^1000, as 1000 copies, forms 1.0M and takes
# about 1 s, while (1+x0)^4000 would form 16M.
_MAX_PRODUCT_KEYS = 1 << 18
_MAX_PRODUCT_BITS = 1 << 28
_MAX_PRODUCT_PAIRS = 1 << 22


def _check_exp(e: int) -> int:
    if not -_EXP_LIMIT < e < _EXP_LIMIT:
        raise DomainError(f"exponent overflow: {e}")
    return e


def _rows_within_budget(out: dict, keys: int, bits: int) -> int:
    """How many more accumulator rows, each adding at most `keys` keys and
    `bits` bits to out, surely keep out within the budget of keys and
    packed bits; DomainError when out is past it already."""
    held = sum(v.bit_length() for _, v in out.values())
    if len(out) > _MAX_PRODUCT_KEYS or held > _MAX_PRODUCT_BITS:
        raise DomainError(
            f"expansion too large: {len(out)} terms of {held} bits exceed "
            f"the work budget of {_MAX_PRODUCT_KEYS} terms and "
            f"{_MAX_PRODUCT_BITS} bits")
    return min((_MAX_PRODUCT_KEYS - len(out)) // keys,
               (_MAX_PRODUCT_BITS - held) // bits)


def _check_power(n: int) -> int:
    if n > _MAX_POWER:
        raise DomainError(
            f"power or count {n} exceeds the work budget of {_MAX_POWER}")
    return n


def add_exps(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(_check_exp(x + y) for x, y in zip(a, b))


def scale_exps(a: tuple[int, ...], c: int) -> tuple[int, ...]:
    return tuple(_check_exp(x * c) for x in a)


def _move(mono: tuple[int, ...], moves: tuple[tuple[int, int], ...],
          dst: int) -> tuple[tuple[int, ...] | None, int]:
    """mono with each (src, shift) of moves applied: x_src := x_dst q^shift.

    Returns the new exponent tuple and the q-exponent the move adds, or
    (None, 0) when mono has no src exponent.
    """
    out = None
    qexp = 0
    for v, s in moves:
        e = mono[v]
        if e:
            if out is None:
                out = list(mono)
            out[v] = 0
            out[dst] += e
            qexp += s * e
    return (None if out is None else tuple(out)), qexp


def _add_term(terms: dict, k, m: dict) -> None:
    """terms[k] += m for integer maps {q-exponent: int}, dropping zero
    coefficients and an empty map; terms[k] itself is never mutated, since
    maps are shared between polynomials."""
    prev = terms.get(k)
    if prev is None:
        terms[k] = m
        return
    s = dict(prev)
    for e, c in m.items():
        c += s.get(e, 0)
        if c:
            s[e] = c
        else:
            del s[e]
    if s:
        terms[k] = s
    else:
        del terms[k]


def _mono_str(mono: tuple[int, ...]) -> str:
    """x0*x1^-1 for (1, -1); empty for the all-zero tuple."""
    return "*".join(f"x{i}" if e == 1 else f"x{i}^{e}"
                    for i, e in enumerate(mono) if e)


def _exp_tuple(nvars: int, exps: dict[int, int] | tuple) -> tuple[int, ...]:
    """The full exponent tuple of {var: exp}; a tuple passes through."""
    if not isinstance(exps, dict):
        return exps
    key = [0] * nvars
    for v, e in exps.items():
        key[v] = e
    return tuple(key)


_ONE = {0: 1}
_NO_DEN: Counter = Counter()    # never mutated: + and | make new Counters


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


def _den_times(den: Counter, m: dict, k: int = 1) -> Counter:
    """The factored denominator den, a multiset of integer maps kept as
    sorted item tuples, times the map m to the k."""
    if m == _ONE:
        return den
    return den + Counter({tuple(sorted(m.items())): k})


def _factor_maps(den: Counter) -> list[dict]:
    """The factors of a factored denominator, one map per multiplicity."""
    return [dict(f) for f in den.elements()]


def _qprod(maps: list[dict]) -> dict:
    """The product of nonzero integer maps {q-exponent: int}: one packed
    product, its slot width set from the product of the maps' l1 norms and
    held to the packed budget, as `_multiply_within` sets and holds it."""
    if len(maps) < 2:
        return maps[0] if maps else _ONE
    bound, span = 1, 0
    for m in maps:
        bound *= sum(map(abs, m.values()))
        span += max(m) - min(m)
    w = bound.bit_length() + 1
    _check_packed(w, span)
    offset, value = 0, 1
    for m in maps:
        o, v = _pack(m, w)
        offset += o
        value *= v
    return _unpack(offset, value, w)


class _Terms(Mapping):
    """A LaurentPoly's terms {exponent tuple: QRat}.  A coefficient is
    reduced to its canonical QRat when it is read; the length, the keys
    and membership cost no reduction."""

    __slots__ = ("_p",)

    def __init__(self, p: "LaurentPoly"):
        self._p = p

    def __getitem__(self, k) -> QRat:
        return QRat.from_laurent(self._p.maps[k], self._p._den_map())

    def __iter__(self):
        return iter(self._p.maps)

    def __len__(self) -> int:
        return len(self._p.maps)

    def __contains__(self, k) -> bool:
        return k in self._p.maps


class LaurentPoly:
    """Sparse Laurent polynomial over Q(q), held over Z[q, 1/q]:

        sum_k maps[k](q) X^k / (f_1(q)^k_1 ... f_r(q)^k_r),

    maps {exponent tuple: {q-exponent: int}} with nonzero maps and no zero
    coefficients, and den the Counter {f_i: k_i}: the one denominator
    every term shares, a product of integer maps f_i (as sorted item
    tuples) that is never multiplied out or reduced.  + - * ** and == are
    integer map arithmetic: products go through `_multiply_within` with an
    empty window and add the factor counts; a sum or a comparison brings
    both sides to the least common multiple of their factor lists, so
    summands over shared factors (the partial-fraction summands of one
    kernel) keep a small denominator.  A coefficient becomes a canonical
    QRat only where it is read (`terms`, `coeff_of`, `constant_coeff`,
    `str`), by `QRat.from_laurent` over the product of the factors.
    """

    __slots__ = ("nvars", "maps", "den")

    def __init__(self, nvars: int, terms: dict | None = None):
        """From terms {exponent tuple: QRat}; zero coefficients drop out."""
        p = LaurentPoly._raw(nvars, {})
        for k, c in (terms or {}).items():
            p = p + LaurentPoly.monomial(nvars, k, c)
        self.nvars, self.maps, self.den = nvars, p.maps, p.den

    @staticmethod
    def _raw(nvars: int, maps: dict, den: Counter = _NO_DEN) -> "LaurentPoly":
        p = LaurentPoly.__new__(LaurentPoly)
        p.nvars = nvars
        p.maps = maps
        p.den = den
        return p

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls._raw(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls._raw(nvars, {(0,) * nvars: _ONE})

    @classmethod
    def monomial(cls, nvars: int, exps: dict[int, int] | tuple,
                 coeff: QRat = QRAT_ONE) -> "LaurentPoly":
        if coeff.is_zero():
            return cls.zero(nvars)
        num, den = _integer_pair(coeff)
        return cls._raw(nvars, {_exp_tuple(nvars, exps): num},
                        _den_times(_NO_DEN, den))

    @property
    def terms(self) -> Mapping:
        return _Terms(self)

    def is_zero(self) -> bool:
        return not self.maps

    def _require_same(self, other: "LaurentPoly"):
        if self.nvars != other.nvars:
            raise DomainError("mixed variable orders")

    def _den_map(self) -> dict:
        return _qprod(_factor_maps(self.den))

    def _over(self, den: Counter) -> dict:
        """The maps over den, a multiple of self.den: each times the
        factors den has beyond self.den."""
        extra = _factor_maps(den - self.den)
        if not extra:
            return self.maps
        return {k: _qprod([m] + extra) for k, m in self.maps.items()}

    def _common(self, other: "LaurentPoly") -> tuple[dict, dict, Counter]:
        """(a, b, den): both sides' maps over den, the lcm of their factor
        lists."""
        if self.den == other.den:
            return self.maps, other.maps, self.den
        den = self.den | other.den
        return self._over(den), other._over(den), den

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._require_same(other)
        if not self.maps:
            return other
        if not other.maps:
            return self
        a, b, den = self._common(other)
        out = dict(a)
        for k, m in b.items():
            _add_term(out, k, m)
        return LaurentPoly._raw(self.nvars, out, den)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw(self.nvars, {k: {e: -c for e, c in m.items()}
                                             for k, m in self.maps.items()},
                                self.den)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._require_same(other)
        if not self.maps or not other.maps:
            return LaurentPoly.zero(self.nvars)
        return LaurentPoly._raw(
            self.nvars,
            _multiply_within(self.nvars, [self.maps, other.maps], {}, None),
            self.den + other.den)

    def __pow__(self, n: int) -> "LaurentPoly":
        """The product of n copies, one `_multiply_within` call, so the
        power is refused before anything is multiplied when the product
        of the copies would pass the packed-width budget."""
        if n < 0:
            raise DomainError("negative power of a LaurentPoly")
        _check_power(n)
        if n == 0:
            return LaurentPoly.one(self.nvars)
        if not self.maps:
            return self
        return LaurentPoly._raw(
            self.nvars, _multiply_within(self.nvars, [self.maps] * n, {}, None),
            Counter({f: k * n for f, k in self.den.items()}))

    def coeff_of(self, exps: tuple[int, ...]) -> QRat:
        m = self.maps.get(exps)
        return QRAT_ZERO if m is None else QRat.from_laurent(m, self._den_map())

    def constant_coeff(self) -> QRat:
        return self.coeff_of((0,) * self.nvars)

    def free_of(self, var: int) -> "LaurentPoly":
        """Terms with zero exponent of x_var (the constant term in x_var)."""
        return LaurentPoly._raw(
            self.nvars, {k: m for k, m in self.maps.items() if k[var] == 0},
            self.den)

    def var_range(self, var: int) -> tuple[int, int]:
        """(min, max) exponent of x_var over the terms; (0, 0) if empty."""
        if not self.maps:
            return 0, 0
        es = [k[var] for k in self.maps]
        return min(es), max(es)

    def restrict(self, hi: dict[int, int] | None = None,
                 lo: dict[int, int] | None = None) -> "LaurentPoly":
        """Drop terms with exponents above hi / below lo."""
        out = {}
        for k, m in self.maps.items():
            if hi and any(k[x] > b for x, b in hi.items()):
                continue
            if lo and any(k[x] < b for x, b in lo.items()):
                continue
            out[k] = m
        return LaurentPoly._raw(self.nvars, out, self.den)

    def __eq__(self, other) -> bool:
        """Equal values: both sides' maps over a common denominator,
        compared as integer maps, with no reduction."""
        if not (isinstance(other, LaurentPoly) and self.nvars == other.nvars
                and self.maps.keys() == other.maps.keys()):
            return False
        a, b, _ = self._common(other)
        return a == b

    def __str__(self) -> str:
        if not self.maps:
            return "0"
        den = self._den_map()
        bits = []
        for k in sorted(self.maps):
            mono = _mono_str(k)
            vs = str(QRat.from_laurent(self.maps[k], den))
            if mono and (" " in vs or "/" in vs):
                vs = f"({vs})"
            bits.append(f"{vs}*{mono}" if mono else vs)
        return " + ".join(bits)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


class Factor:
    """One binomial factor (1 - q^qexp * X^mono)^exp.

    mono is a full-length exponent tuple.  It may be all zero only when
    qexp is not: that factor is the collapsed scalar (1 - q^qexp)^exp.
    exp > 0 is a numerator factor, exp < 0 a denominator factor.
    """

    __slots__ = ("qexp", "mono", "exp")

    def __init__(self, qexp: int, mono: tuple[int, ...], exp: int = 1):
        if exp == 0:
            raise DomainError("factor with zero exponent")
        if not (qexp or any(mono)):
            raise ShapeError("factor 1 - q^0 is zero")
        self.qexp = qexp
        self.mono = mono
        self.exp = exp

    @classmethod
    def binomial(cls, nvars: int, qexp: int, num: int, den: int,
                 exp: int = 1) -> "Factor":
        """(1 - q^qexp x_num / x_den)^exp."""
        if num == den:
            raise ShapeError("factor x_i/x_i is a scalar, not a factor")
        mono = [0] * nvars
        mono[num] = 1
        mono[den] = -1
        return cls(qexp, tuple(mono), exp)

    @property
    def control_var(self) -> int:
        """Lowest-index variable in the monomial (controls its series)."""
        for i, e in enumerate(self.mono):
            if e:
                return i
        raise ShapeError("empty factor monomial")

    def is_small(self) -> bool:
        return self.mono[self.control_var] > 0

    def pair_vars(self) -> tuple[int, int]:
        """(numerator var, denominator var) when two-variable +1/-1 shaped."""
        num = den = None
        for i, e in enumerate(self.mono):
            if e == 1 and num is None:
                num = i
            elif e == -1 and den is None:
                den = i
            elif e != 0:
                raise ShapeError("factor is not of the x_i/x_j shape")
        if num is None or den is None:
            raise ShapeError("factor is not of the x_i/x_j shape")
        return num, den

    def powered(self, n: int) -> "Factor":
        return Factor(self.qexp, self.mono, self.exp * n)

    def sort_key(self):
        return (self.mono, self.qexp, self.exp)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Factor) and self.qexp == other.qexp
                and self.mono == other.mono and self.exp == other.exp)

    def __hash__(self):
        return hash((self.qexp, self.mono, self.exp))

    def base_str(self) -> str:
        q = {0: "", 1: "q"}.get(self.qexp, f"q^{self.qexp}")
        return f"(1 - {'*'.join(filter(None, (q, _mono_str(self.mono))))})"

    def __repr__(self) -> str:
        b = self.base_str()
        return b if self.exp == 1 else f"{b}^{self.exp}"

    # -- expansion ----------------------------------------------------------

    def expand_exact(self) -> dict:
        """Finite expansion {x-exponents: {q-exponent: int}}; requires
        exp > 0.  A collapsed factor (1 - q^qexp)^exp has one key, 0."""
        if self.exp < 0:
            raise NotPolynomialError("denominator factor has no finite expansion")
        e = _check_power(self.exp)
        coeffs = [(t, (-1) ** t * comb(e, t)) for t in range(e + 1)]
        if not any(self.mono):
            return {self.mono: {self.qexp * t: c for t, c in coeffs}}
        return {scale_exps(self.mono, t): {self.qexp * t: c} for t, c in coeffs}

    def series_terms(self, tmax: int) -> dict:
        """Truncated geometric expansion of a denominator factor, as
        {x-exponents: {q-exponent: int}}.

        Keeps series terms with index t <= tmax, where the series runs over
        Y^t for Y the small direction of the monomial:
          small, exp = -p:  sum_{t>=0} C(t+p-1, p-1) q^{s t} M^t
          large, exp = -p:  (-1)^p sum_{t>=p} C(t-1, p-1) q^{-s t} M^{-t}
        """
        if self.exp >= 0:
            raise DomainError("series_terms is for denominator factors")
        p = -self.exp
        s = self.qexp
        if self.is_small():
            return {scale_exps(self.mono, t): {s * t: comb(t + p - 1, p - 1)}
                    for t in range(tmax + 1)}
        sign = (-1) ** p
        return {scale_exps(self.mono, -t): {-s * t: sign * comb(t - 1, p - 1)}
                for t in range(p, tmax + 1)}

    def series_start(self) -> int:
        """First series index with a term (0 for small, multiplicity for large)."""
        return 0 if self.is_small() else -self.exp


class FactoredForm:
    """scalar * X^mono * poly * prod_i (1 - q^{s_i} M_i)^{e_i}, held exactly.

    The proof engine's working representation: products are never expanded
    until a constant term actually has to be read off.  `poly` is an
    optional Laurent-polynomial prefix (1 when absent); pipeline-built
    forms keep it trivial so the factor bookkeeping stays visible.
    """

    __slots__ = ("nvars", "scalar", "mono", "poly", "factors")

    def __init__(self, nvars: int, scalar: QRat = QRAT_ONE,
                 mono: tuple[int, ...] | None = None,
                 factors: tuple[Factor, ...] = (),
                 poly: LaurentPoly | None = None):
        self.nvars = nvars
        self.scalar = scalar
        self.mono = mono if mono is not None else (0,) * nvars
        if poly is not None and poly.maps == {(0,) * nvars: poly._den_map()}:
            poly = None
        self.poly = poly
        if scalar.is_zero():
            self.mono = (0,) * nvars
            self.poly = None
            self.factors = ()
        else:
            self.factors = tuple(factors)

    @classmethod
    def one(cls, nvars: int) -> "FactoredForm":
        return cls(nvars)

    @classmethod
    def zero(cls, nvars: int) -> "FactoredForm":
        return cls(nvars, scalar=QRAT_ZERO)

    @classmethod
    def from_scalar(cls, nvars: int, c: QRat) -> "FactoredForm":
        return cls(nvars, scalar=c)

    @classmethod
    def monomial(cls, nvars: int, exps: dict[int, int],
                 coeff: QRat = QRAT_ONE) -> "FactoredForm":
        return cls(nvars, scalar=coeff, mono=_exp_tuple(nvars, exps))

    def is_zero(self) -> bool:
        return self.scalar.is_zero()

    def denominator_factors(self) -> list[Factor]:
        """The denominator factors that contain a variable."""
        return [f for f in self.factors if f.exp < 0 and any(f.mono)]

    # -- algebra ------------------------------------------------------------

    def times_factor(self, f: Factor) -> "FactoredForm":
        if self.is_zero():
            return self
        return FactoredForm(self.nvars, self.scalar, self.mono,
                            self.factors + (f,), self.poly)

    def __mul__(self, other: "FactoredForm") -> "FactoredForm":
        if self.nvars != other.nvars:
            raise DomainError("mixed variable orders")
        if self.is_zero() or other.is_zero():
            return FactoredForm.zero(self.nvars)
        if self.poly is not None and other.poly is not None:
            poly = self.poly * other.poly
        else:
            poly = self.poly if self.poly is not None else other.poly
        return FactoredForm(self.nvars, self.scalar * other.scalar,
                            add_exps(self.mono, other.mono),
                            self.factors + other.factors, poly)

    def __pow__(self, n: int) -> "FactoredForm":
        if self.is_zero():
            if n <= 0:
                raise DomainError("0 to a nonpositive power")
            return self
        if n == 0:
            return FactoredForm.one(self.nvars)
        if self.poly is not None and n < 0:
            raise DomainError("cannot invert a polynomial prefix symbolically")
        s = self.scalar
        if len(s.num.c) + len(s.den.c) > 2 or abs(s.num.leading_coeff) != 1:
            _check_power(abs(n))        # only a power of +-q^k costs nothing
        poly = None
        if self.poly is not None:
            poly = self.poly ** n
        return FactoredForm(self.nvars, self.scalar ** n,
                            scale_exps(self.mono, n),
                            tuple(f.powered(n) for f in self.factors), poly)

    def __eq__(self, other) -> bool:
        """Scalar, monomial, polynomial prefix and the factor sequence, in
        order: equal forms have equal values, but (1 - q) and
        -q(1 - q^-1) compare unequal, and so do two orders of one
        factor list."""
        return (isinstance(other, FactoredForm) and self.nvars == other.nvars
                and self.scalar == other.scalar and self.mono == other.mono
                and self.poly == other.poly and self.factors == other.factors)

    # -- substitution ---------------------------------------------------------

    def substitute(self, shifts: dict[int, int], dst: int) -> "FactoredForm":
        """Replace x_src by x_dst * q^shifts[src] for every src in shifts,
        all at once (dst must not be a src).

        Each factor is rewritten once and keeps its place; one whose
        monomial collapses stays as the factor (1 - q^e)^exp with an
        all-zero monomial, so no Q(q) arithmetic is done.  Whatever the
        factor order, a denominator factor that collapses to 1 - q^0
        raises UncancelledPoleError; otherwise a numerator factor that
        collapses to it makes the form zero.
        """
        if dst in shifts:
            raise DomainError("substitute onto the same variable")
        if self.is_zero():
            return self
        moves = tuple(shifts.items())
        factors = []
        zero = False
        # a Pochhammer's factors share one monomial tuple, and so do the
        # factors built here from them: a monomial is moved once per run
        # of factors that share it.  Once a numerator has collapsed, only
        # a collapsing denominator can change the outcome.
        last = None
        for f in self.factors:
            if zero and f.exp > 0:
                continue
            if f.mono is not last:
                last = f.mono
                mono, dq = _move(last, moves, dst)
                varying = mono is not None and any(mono)
            if mono is None:
                factors.append(f)
                continue
            qexp = f.qexp + dq
            if qexp or varying:
                factors.append(Factor(qexp, mono, f.exp))
            elif f.exp < 0:
                raise UncancelledPoleError(
                    f"substitution {shifts} onto x{dst} zeroes {f!r}")
            else:
                zero = True
        if zero:
            return FactoredForm.zero(self.nvars)
        scalar = self.scalar
        mono, qexp = _move(self.mono, moves, dst)
        if mono is None:
            mono = self.mono
        elif qexp:
            scalar = scalar.times_qpow(qexp)
        poly = None
        if self.poly is not None:
            maps = {}
            for k, m in self.poly.maps.items():
                k2, qexp = _move(k, moves, dst)
                if k2 is None:
                    k2 = k
                elif qexp:
                    m = {e + qexp: c for e, c in m.items()}
                _add_term(maps, k2, m)
            if not maps:
                return FactoredForm.zero(self.nvars)
            poly = LaurentPoly._raw(self.nvars, maps, self.poly.den)
        return FactoredForm(self.nvars, scalar, mono, tuple(factors), poly)

    # -- degrees --------------------------------------------------------------

    def degree_in(self, var: int) -> int:
        """Degree as a rational function of x_var.

        Follows the convention that deg of (1 - q^s M) in x_var is
        max(0, exponent of x_var in M); e.g. (x_i - x_j)/x_i has degree 0
        in x_i and 1 in x_j.
        """
        d = self.mono[var]
        if self.poly is not None and not self.poly.is_zero():
            d += self.poly.var_range(var)[1]
        for f in self.factors:
            d += f.exp * max(0, f.mono[var])
        return d

    # -- expansion ------------------------------------------------------------

    def expand_exact(self) -> LaurentPoly:
        """Full expansion; requires no denominator factors."""
        if self.denominator_factors():
            raise NotPolynomialError(
                "form has denominator factors; use a truncated expansion")
        return self.expand_within({})

    def expand_within(self, hi: dict[int, int],
                      lo: dict[int, int] | None = None) -> LaurentPoly:
        """Expansion complete for every exponent vector within the window.

        hi[v] bounds the exponent of x_v from above; lo (optional) filters
        from below.  Raises TruncationError if a denominator factor's
        control variable has no hi bound.

        Why per-factor caps are exact.  Write each denominator factor's
        series over its small direction Y (first nonzero variable exponent
        positive), so every series term is c_t Y^t with t >= 0, and Y's
        exponents vanish on all variables below its control variable.
        Fix a product term whose final exponents lie in the window and
        process variables in expansion order.  On variable v, negative
        contributions can come only from the fixed parts (monomial, poly
        prefix, numerator factors: all finite, minima known exactly) and
        from factors controlled by earlier variables, whose indices are
        already capped, so their most-negative contribution to v is known.
        Everything else contributes >= its t = t0 minimum.  The remaining
        headroom under hi[v] therefore bounds t for every factor
        controlled by v, and induction up the variable order bounds them
        all.  In particular, for the negative-exponent q-Dyson kernel the
        computed x0 cap equals the parameter sum, the classical bound.
        """
        nv = self.nvars
        if self.is_zero():
            return LaurentPoly.zero(nv)

        # the scalar's numerator and the collapsed numerator factors are
        # parts of the product with the one key 0; its denominator, the
        # collapsed denominator factors and a poly prefix's den multiply
        # into the result's den
        num, den = _integer_pair(self.scalar)
        if self.poly is None:
            parts, den = [{self.mono: num}], _den_times(_NO_DEN, den)
        else:
            parts = [{add_exps(self.mono, k): m
                      for k, m in self.poly.maps.items()}, {(0,) * nv: num}]
            den = _den_times(self.poly.den, den)
        for f in self.factors:
            if f.exp > 0:
                parts.append(f.expand_exact())
            elif not any(f.mono):
                den = _den_times(den, {0: 1, f.qexp: -1}, -f.exp)
        dens = self.denominator_factors()

        if dens:
            bounds = self._series_bounds(parts, dens, hi)
            if bounds is None:
                return LaurentPoly.zero(nv)
            for f, tmax in zip(dens, bounds):
                size = tmax - f.series_start() + 1   # before any lo pruning
                if size > _MAX_PRODUCT_KEYS:
                    raise DomainError(f"expansion too large: a series of {size} "
                                      f"terms exceeds the work budget of "
                                      f"{_MAX_PRODUCT_KEYS} terms")
                parts.append(f.series_terms(tmax))

        return LaurentPoly._raw(nv, _multiply_within(nv, parts, hi, lo), den)

    def _series_bounds(self, fixed_parts: list[dict],
                       dens: list[Factor],
                       hi: dict[int, int]) -> list[int] | None:
        """Series index cap per denominator factor, or None if the window
        admits no terms at all."""
        nv = self.nvars
        fixed_min = [0] * nv
        for p in fixed_parts:
            for v, m in enumerate(map(min, zip(*p))):
                fixed_min[v] += m

        # small-direction monomial and first index per factor
        ymono = [f.mono if f.is_small() else scale_exps(f.mono, -1)
                 for f in dens]
        t0 = [f.series_start() for f in dens]
        tmax: list[int | None] = [None] * len(dens)

        for v in range(nv):
            owned = [i for i, f in enumerate(dens) if f.control_var == v]
            if not owned:
                continue
            if v not in hi:
                raise TruncationError(
                    f"denominator factor controlled by x{v} needs a bound on x{v}")
            # minimal possible contribution of every series factor to x_v
            mins = []
            for i in range(len(dens)):
                ev = ymono[i][v]
                if ev >= 0:
                    mins.append(t0[i] * ev)
                else:
                    # control var of factor i is < v, so tmax[i] is known
                    mins.append(tmax[i] * ev)
            total_min = sum(mins)
            for i in owned:
                step = ymono[i][v]
                room = hi[v] - fixed_min[v] - (total_min - mins[i])
                cap = room // step
                if cap < t0[i]:
                    return None
                tmax[i] = cap
        # every factor has a variable, so its control variable owned a pass
        return tmax  # type: ignore[return-value]

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        bits = []
        scalar = _scalar_value(self)
        factors = [f for f in self.factors if any(f.mono)]
        if not scalar.is_one() or (not any(self.mono) and not factors
                                   and self.poly is None):
            bits.append(str(scalar))
        mono = _mono_str(self.mono)
        if mono:
            bits.append(mono)
        if self.poly is not None:
            bits.append(f"({self.poly})")
        for f in sorted(factors, key=Factor.sort_key):
            bits.append(repr(f))
        return " * ".join(bits)

    def __repr__(self) -> str:
        return f"FactoredForm({self})"


def _scalar_value(ff: FactoredForm) -> QRat:
    """ff.scalar times ff's variable-free factors (1 - q^e)^m, for printing.
    Numerator and denominator multiply apart as integer maps, packed; one
    `QRat.from_laurent` makes the one reduction."""
    num, den = _integer_pair(ff.scalar)
    nums, dens = [num], [den]
    for f in ff.factors:
        if not any(f.mono):
            side = nums if f.exp > 0 else dens
            side += [{0: 1, f.qexp: -1}] * abs(f.exp)
    return QRat.from_laurent(_qprod(nums), _qprod(dens))


def _multiply_within(nvars: int, parts: list[dict],
                     hi: dict[int, int],
                     lo: dict[int, int] | None) -> dict:
    """Multiply integer parts {x-exponents: {q-exponent: int}}, pruning
    x-exponents that cannot re-enter the window (q is never pruned).

    Part order.  parts[0] stays first; the others are sorted, stably, by
    the lowest and then the highest variable their keys touch, so every
    x0 part comes first: Gessel and Xin take constant terms x0 first, as
    Xin orders iterated constant terms (EJC 11 (2004) R58).  A q-Dyson
    product's pair factors are built in this order already; in a kernel
    the x0 series move ahead of the pair products.  Any order gives the
    same result: the product is commutative, and a key is pruned only
    when the ranges of the parts still to come, in the order used, cannot
    bring it back into the window.  This order keeps the accumulator
    small.

    Packed keys.  Inside the loop an x-key is one integer with a bit field
    per variable.  Field v of a key of part i holds k[v] - pmin_i[v],
    pmin_i[v] the part's least exponent of x_v, so it is at least 0; of
    an accumulator key, the sum of those.  R_v, the sum over the parts of
    their ranges in x_v, bounds every such sum, and the field is
    R_v.bit_length() + 1 bits wide: the top bit, the guard, stays 0 in a
    key, so adding two keys is one integer add that never carries into
    the next field.  A sum of fields is the exponent minus the sum of the
    same parts' pmin, so each bound of the window is a bound on a field:

      hi: the exponent plus the least the later parts add, at most hi[v],
          is field_v <= cap_v = hi[v] - sum_i pmin_i[v], one cap for the
          whole product, clamped to R_v (a variable without hi gets R_v);
      lo: the exponent plus the most the later parts add, at least lo[v],
          is field_v >= lo[v] - prefix_min[v] - suffmax[v], one floor per
          part, clamped to [0, R_v + 1].

    Both are SWAR tests (Lamport, CACM 18(8), 1975).  With g_v the guard
    bit, field_v + (g_v - 1 - cap_v) sets the guard exactly when
    field_v > cap_v, and (g_v + floor_v - 1) - field_v sets it exactly
    when field_v < floor_v; neither leaves its field, so one add (or
    subtract) and one mask over all guards test every variable at once.
    The keys are decoded to tuples once, at the end.

    Kronecker substitution: inside the loop each x-key's q-map is a pair
    (offset, value at q = 2^w), offset at or below the key's lowest
    q-exponent, so value = sum c_e 2^(w (e - offset)).  The slot width is
    set once per product: w = P.bit_length() + 1, P the product over the
    parts of each part's l1 norm.  A pair product is one integer multiply
    plus an offset add; accumulating into a key is one add, after a shift
    of w times the offset difference; a key whose value is 0 is dropped;
    the surviving keys are decoded once, with balanced digits.

    Why this is exact.  Evaluation at 2^w is a ring homomorphism from
    Z[q] to Z, so each value is the evaluation of the map a product of
    {q-exponent: int} maps would hold, even if an intermediate
    coefficient exceeded a slot.  Dropping a key whose value is 0 removes
    only zeros from every later evaluation.  Only the final maps are
    decoded.  Their keys lie in the window, so their coefficients are
    coefficients of the full product, and those are at most P < 2^(w-1):
    each balanced digit is one coefficient.

    Work budget.  Every value spans at most S + 1 slots, S the sum of the
    parts' q-exponent ranges, so w (S + 1) bounds its bits; a product that
    could exceed _MAX_PACKED_BITS is refused before anything is packed.
    The accumulator is held to _MAX_PRODUCT_KEYS keys and
    _MAX_PRODUCT_BITS bits of packed values, checked after each row of
    the accumulator, so a part cannot run far past either.  A row adds at
    most len(part) keys, each of at most w (S_i + 1) bits, S_i the q-ranges
    of the parts so far, so the keys and bits are counted only when that
    many rows could have passed the budget.  A product with no window
    forms every pair of terms, so before each part it is held to
    _MAX_PRODUCT_PAIRS of them, counted as len(acc) * len(part): a power
    dense in the variables is refused in bounded time however few keys
    it has.
    """
    if not all(parts):
        return {}
    mins = [list(map(min, zip(*p))) for p in parts]
    maxs = [list(map(max, zip(*p))) for p in parts]

    def reach(i):
        vs = [v for v in range(nvars) if mins[i][v] or maxs[i][v]]
        return (vs[0], vs[-1]) if vs else (-1, -1)

    order = [0] + sorted(range(1, len(parts)), key=reach)
    parts = [parts[i] for i in order]
    mins = [mins[i] for i in order]
    maxs = [maxs[i] for i in order]

    bound, spans = 1, []
    for part in parts:
        bound *= sum(abs(c) for m in part.values() for c in m.values())
        spans.append(max(e for m in part.values() for e in m)
                     - min(e for m in part.values() for e in m))
    w = bound.bit_length() + 1
    _check_packed(w, sum(spans))

    # field v: shift sh[v], guard bit g[v], values 0..R[v]
    base = [sum(col) for col in zip(*mins)]
    R = [sum(col) - b for col, b in zip(zip(*maxs), base)]
    sh, g, top = [], [], 0
    for r in R:
        sh.append(top)
        top += r.bit_length() + 1
        g.append(1 << r.bit_length())
    G = sum(gv << s for gv, s in zip(g, sh))
    X = 0
    for v in range(nvars):
        cap = min(hi[v] - base[v], R[v]) if v in hi else R[v]
        if cap < 0:
            return {}
        X += (g[v] - 1 - cap) << sh[v]
    lo = lo or {}
    pre = [0] * nvars
    suf = [sum(col) for col in zip(*maxs)]

    acc = {0: (0, 1)}
    span = 0
    pairs = _MAX_PRODUCT_PAIRS if not (hi or lo) else None
    for part, pmin, pmax, pspan in zip(parts, mins, maxs, spans):
        span += pspan
        for v in range(nvars):
            pre[v] += pmin[v]
            suf[v] -= pmax[v]
        floors = {v: min(max(b - pre[v] - suf[v], 0), R[v] + 1)
                  for v, b in lo.items()}
        Z = (sum((g[v] - 1 + floors.get(v, 0)) << sh[v] for v in range(nvars))
             if any(floors.values()) else None)
        items = [(sum((e - m) << s for e, m, s in zip(k, pmin, sh)),
                  _pack(qm, w)) for k, qm in part.items()]
        if pairs is not None:
            pairs -= len(acc) * len(items)
            if pairs < 0:
                raise DomainError(
                    f"expansion too large: more than {_MAX_PRODUCT_PAIRS} "
                    f"products of terms exceed the work budget")
        row_bits = len(items) * w * (span + 1)
        out: dict = {}
        rows = _rows_within_budget(out, len(items), row_bits)
        for k1, (o1, v1) in acc.items():
            khi = k1 + X
            klo = None if Z is None else Z - k1
            for k2, (o2, v2) in items:
                if (khi + k2) & G or klo is not None and (klo - k2) & G:
                    continue
                k = k1 + k2
                o = o1 + o2
                v = v1 * v2
                prev = out.get(k)
                if prev is not None:
                    po, pv = prev
                    if po == o:
                        v += pv
                    elif po < o:
                        v = pv + (v << w * (o - po))
                        o = po
                    else:
                        v += pv << w * (po - o)
                out[k] = (o, v)
            rows -= 1
            if rows < 0:
                rows = _rows_within_budget(out, len(items), row_bits)
        acc = {k: ov for k, ov in out.items() if ov[1]}
        if not acc:
            return {}
    return {tuple(((k >> s) & (gv - 1)) + b
                  for s, gv, b in zip(sh, g, base)): _unpack(o, v, w)
            for k, (o, v) in acc.items()}


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


# ---------------------------------------------------------------------------
# q-Pochhammer and q-binomial constructors
# ---------------------------------------------------------------------------

def qpochhammer(nvars: int, mono: dict[int, int] | tuple[int, ...],
                count: int, qshift: int = 0) -> FactoredForm:
    """(z)_count for z = q^qshift * X^mono, as a FactoredForm.

      count = p >= 0:  (1 - z)(1 - zq) ... (1 - z q^{p-1})
      count = -p < 0:  1 / ((1 - z q^{-1})(1 - z q^{-2}) ... (1 - z q^{-p}))
      count = 0:       the empty product, 1.
    """
    mono = _exp_tuple(nvars, mono)
    if not any(mono):
        raise ShapeError("use qpoch_qrat for a pure q-power base")
    _check_power(abs(count))
    factors = []
    if count >= 0:
        for m in range(count):
            factors.append(Factor(qshift + m, mono, 1))
    else:
        for m in range(1, -count + 1):
            factors.append(Factor(qshift - m, mono, -1))
    return FactoredForm(nvars, factors=tuple(factors))


def _pack_qpoch(lo: int, hi: int, w: int) -> tuple[int, int]:
    """(offset, value at q = 2^w) of the product of 1 - q^e for e from lo
    to hi, none of them 0: each factor is one shift and one subtraction.
    The value is exact whatever w; it decodes when w covers the product's
    coefficients."""
    offset, value = 0, 1
    for e in range(lo, hi + 1):
        if e > 0:
            value -= value << w * e
        else:                       # 1 - q^e = q^e (q^-e - 1)
            offset += e
            value = (value << w * -e) - value
    return offset, value


def qpoch_qrat(qexp: int, count: int) -> QRat:
    """(z)_count for the scalar base z = q^qexp, as an exact QRat.

    Its factors are 1 - q^e for e from lo to hi, inverted when count < 0.
    They multiply as one packed integer, the product's value at q = 2^w
    (as in `_multiply_within`).  A partial product's coefficients are at
    most its l1 norm, 2^|count| < 2^(w-1) for w = |count| + 2, so the
    product decodes exactly; it is built as one QRat and inverted once.
    It is held to the budget `_multiply_within` would apply to it: slot
    width w and q-degree the sum of |e|.
    """
    lo, hi = (qexp, qexp + count - 1) if count >= 0 else (qexp + count, qexp - 1)
    if lo <= 0 <= hi:
        if count >= 0:
            return QRAT_ZERO        # the factor 1 - q^0
        raise DomainError("negative Pochhammer hits a zero factor")
    w = abs(count) + 2
    _check_packed(w, abs(lo + hi) * abs(count) // 2)
    out = QRat.from_laurent(_unpack(*_pack_qpoch(lo, hi, w), w))
    return out if count >= 0 else out.inverse()


def qpoch_quotient(qexp: int, parts: tuple[int, ...]) -> QRat:
    """(q^qexp)_A / ((q)_{p_1} ... (q)_{p_k}), A = p_1 + ... + p_k, for
    counts p_i >= 0, as an exact QRat computed with no gcd.

    The numerator N has the factors 1 - q^e for e from qexp to
    qexp + A - 1.  When they include e = 0 the value is 0.  When they are
    all positive the quotient is the q-multinomial [c + A; c, p_1, ...,
    p_k] for c = qexp - 1; when they are all negative each 1 - q^e is
    -q^e (1 - q^-e), and the quotient is +-q^E times that multinomial for
    c = -qexp - A.  Either way it is a Laurent polynomial whose
    coefficients share one sign, so none exceeds its value at q = 1 in
    absolute value: M = (c + A)! / (c! p_1! ... p_k!).

    The quotient is one exact division of packed values, N(2^w) // D(2^w)
    for w = M.bit_length() + 1, decoded with balanced digits.  It is then
    checked: D Q = N, both sides packed at a width that covers both (N's
    coefficients are at most 2^A, D Q's at most 2^A times Q's largest); a
    mismatch raises ProofInvariantError.  Both widths are held to the
    packed budget over N's q-degree.
    """
    if any(p < 0 for p in parts):
        raise DomainError("Pochhammer counts must be nonnegative")
    count = sum(parts)
    lo, hi = qexp, qexp + count - 1
    if lo <= 0 <= hi:
        return QRAT_ZERO            # the factor 1 - q^0
    c = qexp - 1 if lo > 0 else -qexp - count
    bound, rest = comb(c + count, count), count
    for p in parts:
        bound *= comb(rest, p)
        rest -= p
    degree = abs(lo + hi) * count // 2

    def packed(w):
        _check_packed(w, degree)
        offset, num = _pack_qpoch(lo, hi, w)
        den = 1
        for p in parts:
            den *= _pack_qpoch(1, p, w)[1]
        return offset, num, den

    w = bound.bit_length() + 1
    offset, num, den = packed(w)
    quotient = _unpack(offset, num // den, w)
    w = count + max(map(abs, quotient.values())).bit_length() + 1
    offset, num, den = packed(w)
    low, value = _pack(quotient, w)
    if low != offset or den * value != num:
        raise ProofInvariantError(
            f"(q^{qexp})_{count} / (q)_{parts} is not a Laurent polynomial")
    return QRat.from_laurent(quotient)


def qfactorial(m: int) -> QRat:
    """(q)_m = (1-q)(1-q^2)...(1-q^m) for m >= 0."""
    if m < 0:
        raise DomainError("(q)_m needs m >= 0")
    return qpoch_qrat(1, m)


def qbinomial(n: int, m: int) -> QRat:
    """Gaussian binomial [n, m] = (q^{n-m+1})_m / (q)_m, any integer n, m >= 0.

    For 0 <= m <= n this equals (q)_n / ((q)_m (q)_{n-m}); for general n it
    is a Laurent polynomial in q (denominator a power of q), computed by
    `qpoch_quotient` with no gcd.
    """
    if m < 0:
        raise DomainError("q-binomial needs m >= 0")
    return qpoch_quotient(n - m + 1, (m,))
