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

  * FactoredForm -- scalar * monomial * prod (sums) * prod (1 - q^s M)^e,
    the lossless symbolic form the proof engine manipulates; its sums
    (parsed expressions such as 1 + x1) are parts of the product just as
    its factors are, and pipeline-built forms have none;
  * LaurentPoly -- the expanded form, what an expansion of a FactoredForm
    returns, over Z[q, 1/q]: integer maps {exponent tuple: {q-exponent:
    int}} over one denominator shared by every term, a multiset of
    integer maps that is never multiplied out or reduced.

Every product is one windowed expansion, `FactoredForm.expand_within`.

A FactoredForm stores its factors as maximal runs, q-Pochhammer symbols:
one monomial M, q-exponents in steps of +1 or -1, one exponent.  A
substitution moves one monomial per run, and a run that collapses to
scalars (1 - q^e) keeps an all-zero monomial, so the proof engine does no
Q(q) arithmetic.  Expansion works over Z[q, 1/q], one part of the product
per group: the runs that share one monomial M and one sign expand
together, the numerator ones as one polynomial in M and the denominator
ones as one series in M or 1/M kept to one cap, by a one-dimensional
product of their binomial series, whose coefficients are +-C(n, k) q^e.
Inside `expand_within` a coefficient is an integer map {q-exponent: int}
and a part of the product is {x-exponent tuple: {q-exponent: int}}; a
group is not built there, only measured (`_measure_run`): no coefficient
of a group can cancel, so its l1 norm and q-span are read exactly at
q = 1.  `_multiply_within` sets one slot width w from every part's norm
and span, and packs each coefficient into one integer, its value at
q = 2^w (Kronecker substitution; the packing and its width rule live in
`qfield`): a map by `qfield._pack`, a group straight from its members at
that w (`_pack_run`).  Each x-key is packed into another integer, one bit
field per variable, and only the product's keys and values are decoded,
once, at the end.  The scalar's numerator is a part with the one key 0,
the collapsed numerator factors, multiplied by `_qprod`, are another, and
each sum is a part with its own keys; the scalar's denominator, the
collapsed denominator factors and the sums' denominators become the
result's denominator as they are, with no gcd.
Q(q) enters only where a coefficient is read or printed:
`QRat.from_laurent` reduces it then, once, and the canonical form is
unique, so the bytes printed are those of term-by-term Q(q) arithmetic.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from math import comb, lcm

from .errors import (DomainError, NotPolynomialError, ProofInvariantError,
                     ShapeError, TruncationError, UncancelledPoleError,
                     size_str)
from .qfield import (QRAT_ONE, QRAT_ZERO, QRat, _check_packed, _pack,
                     _qprod, _unpack, _width)

# Exponents are plain machine ints; anything this big is a bug upstream.
_EXP_LIMIT = 10**9

# Work budget of powers, binomial expansions, Pochhammer factor lists and
# the sums a form holds: the largest exponent or count.
_MAX_POWER = 10_000

# Work budget of the accumulator of `_multiply_within`: its number of keys
# and the bits its packed values hold.  The perfbench cases and `verify`
# up to brute (1; 1^8), (3; 3,3,3,3,3) and replay (3; 3,3,3,3) need at
# most 25,686 keys (brute (1; 1^8)) and 26.1M bits (brute (3; 3,3,3,3,3)).
# And the products of terms a product with no window may form (the sums
# of a form multiplied out, as a sum inside a sum needs them):
# (1+x0)^1000 + 1, its 1000 copies multiplied out, forms 1.0M and takes
# about 1 s, while (1+x0)^4000 + 1 would form 16M.
_MAX_PRODUCT_KEYS = 1 << 18
_MAX_PRODUCT_BITS = 1 << 28
_MAX_PRODUCT_PAIRS = 1 << 22


def _check_exp(e: int) -> int:
    if not -_EXP_LIMIT < e < _EXP_LIMIT:
        raise DomainError(f"exponent overflow: {size_str(e)}")
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
            f"power or count {size_str(n)} exceeds the work budget of "
            f"{_MAX_POWER}")
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


def _factor_str(s: int, mono: tuple[int, ...], exp: int) -> str:
    """(1 - q^s*X^mono)^exp as printed; ^1 is left out."""
    q = {0: "", 1: "q"}.get(s, f"q^{s}")
    base = f"(1 - {'*'.join(filter(None, (q, _mono_str(mono))))})"
    return base if exp == 1 else f"{base}^{exp}"


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


def _den_map(den: Counter) -> dict:
    """The product of a factored denominator, as one integer map."""
    return _qprod([(dict(f), k) for f, k in den.items()])


def _den_times(den: Counter, m: dict, k: int = 1) -> Counter:
    """The factored denominator den, a multiset of integer maps kept as
    sorted item tuples, times the map m to the k."""
    if m == _ONE:
        return den
    return den + Counter({tuple(sorted(m.items())): k})


class _Terms(Mapping):
    """A LaurentPoly's terms {exponent tuple: QRat}.  A coefficient is
    reduced to its canonical QRat when it is read; the length, the keys
    and membership cost no reduction."""

    __slots__ = ("_p",)

    def __init__(self, p: "LaurentPoly"):
        self._p = p

    def __getitem__(self, k) -> QRat:
        return QRat.from_laurent(self._p.maps[k], _den_map(self._p.den))

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
    tuples) that is never multiplied out or reduced.  It is what an
    expansion returns: products are made by `FactoredForm.expand_within`,
    and + - and == are integer map arithmetic that bring both sides to
    the least common multiple of their factor lists, so summands over
    shared factors (the partial-fraction summands of one kernel) keep a
    small denominator.  A coefficient becomes a canonical
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

    def _over(self, den: Counter) -> dict:
        """The maps over den, a multiple of self.den: each times the
        factors den has beyond self.den, each to its multiplicity."""
        extra = [(dict(f), k) for f, k in (den - self.den).items()]
        if not extra:
            return self.maps
        return {k: _qprod([(m, 1), *extra]) for k, m in self.maps.items()}

    def _common(self, other: "LaurentPoly") -> tuple[dict, dict, Counter]:
        """(a, b, den): both sides' maps over den, the lcm of their factor
        lists."""
        if self.den == other.den:
            return self.maps, other.maps, self.den
        den = self.den | other.den
        return self._over(den), other._over(den), den

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if self.nvars != other.nvars:
            raise DomainError("mixed variable orders")
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

    def coeff_of(self, exps: tuple[int, ...]) -> QRat:
        m = self.maps.get(exps)
        return QRAT_ZERO if m is None else QRat.from_laurent(m, _den_map(self.den))

    def constant_coeff(self) -> QRat:
        return self.coeff_of((0,) * self.nvars)

    def free_of(self, var: int) -> "LaurentPoly":
        """Terms with zero exponent of x_var (the constant term in x_var)."""
        return LaurentPoly._raw(
            self.nvars, {k: m for k, m in self.maps.items() if k[var] == 0},
            self.den)

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
        den = _den_map(self.den)
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


def _control_var(mono: tuple[int, ...]) -> int:
    """Lowest-index variable in the monomial (controls its series)."""
    for i, e in enumerate(mono):
        if e:
            return i
    raise ShapeError("empty factor monomial")


def _pair_vars(mono: tuple[int, ...]) -> tuple[int, int]:
    """(numerator var, denominator var) of x_i/x_j; ShapeError otherwise."""
    num = den = None
    for i, e in enumerate(mono):
        if e == 1 and num is None:
            num = i
        elif e == -1 and den is None:
            den = i
        elif e != 0:
            raise ShapeError("factor is not of the x_i/x_j shape")
    if num is None or den is None:
        raise ShapeError("factor is not of the x_i/x_j shape")
    return num, den


def _qexps(run: tuple) -> range:
    """The q-exponents of a run's factors, in order."""
    _, first, last, _ = run
    step = 1 if last >= first else -1
    return range(first, last + step, step)


def _join(runs) -> tuple:
    """The maximal runs of the factor sequence that runs, a sequence of runs,
    holds: its split, from the left, into the longest stretches of factors
    with one monomial, one exponent and q-exponents in steps of one sign.
    The split is a function of the factor sequence, so equal factor
    sequences give equal run tuples.

    A run that can take the next run's first factor takes the whole run
    when their steps agree, and that factor alone when they do not; the
    rest of that run then cannot continue it, and stands as it is (a rest
    of one factor may still take the next run's first).
    """
    out = []
    prev = None
    for run in runs:
        if prev is not None and run[0] == prev[0] and run[3] == prev[3]:
            mono, first, last, exp = prev
            step = (last > first) - (last < first)
            head, end = run[1], run[2]
            if step == 0 and abs(head - last) == 1:
                step = head - last
            if step and head == last + step:
                if (end > head) - (end < head) in (0, step):
                    prev = out[-1] = (mono, first, end, exp)
                    continue
                out[-1] = (mono, first, head, exp)
                run = (mono, head - step, end, exp)
        out.append(run)
        prev = run
    return tuple(out)


def _concat(left: tuple, right: tuple) -> tuple:
    """_join(left + right) for maximal left: a join changes only the last
    run it has kept, so the runs of left before its last stay as they are.
    """
    return left[:-1] + _join(left[-1:] + right)


_ZEROS: dict = {}                   # FactoredForm.zero's, by nvars


class FactoredForm:
    """scalar * X^mono * prod(polys) * prod_i (1 - q^{s_i} M_i)^{e_i}, held
    exactly.

    The proof engine's working representation: products are never expanded
    until a constant term actually has to be read off.  `polys` holds the
    sums a parsed expression multiplies in, each a LaurentPoly, as parts of
    the product just like the factors: `*` joins the lists, `**` repeats
    them, and `expand_within` multiplies them in under its window.  A zero
    sum makes the form zero.  Pipeline-built forms hold no sums.

    The factors are stored as runs, each a tuple (M, first, last, e): the
    factors (1 - q^s M)^e for s from first to last in steps of +1 or -1, a
    q-Pochhammer symbol (q^first M; q)_n when e = 1 and the steps ascend.
    A single binomial is a run of one factor, first = last.  The runs are
    the maximal ones (`_join`), so the run tuple is a function of the
    factor sequence: equal run tuples mean equal factor sequences, and `==`
    compares runs in order as it would compare factors.  A run's monomial
    may be all zero only when its range leaves out 0: it is then the
    collapsed scalars (1 - q^s)^e.
    """

    __slots__ = ("nvars", "scalar", "mono", "runs", "polys")

    def __init__(self, nvars: int, scalar: QRat = QRAT_ONE,
                 mono: tuple[int, ...] | None = None,
                 runs=(), polys: tuple[LaurentPoly, ...] = ()):
        """runs, any sequence of runs, are stored as the maximal ones.  A
        run may not have exponent 0, nor hold the factor 1 - q^0."""
        runs = _join(runs)
        for m, first, last, e in runs:
            if e == 0:
                raise DomainError("factor with zero exponent")
            if first * last <= 0 and not any(m):
                raise ShapeError("factor 1 - q^0 is zero")
        self._fill(nvars, scalar, mono, runs, polys)

    @classmethod
    def _of(cls, nvars: int, scalar: QRat, mono: tuple[int, ...] | None,
            runs: tuple, polys=()) -> "FactoredForm":
        """A form from runs that are maximal already."""
        ff = cls.__new__(cls)
        ff._fill(nvars, scalar, mono, runs, polys)
        return ff

    def _fill(self, nvars, scalar, mono, runs, polys) -> None:
        self.nvars = nvars
        if scalar.is_zero() or polys and not all(p.maps for p in polys):
            self.scalar, self.mono = QRAT_ZERO, (0,) * nvars
            self.runs = self.polys = ()
        else:
            self.scalar = scalar
            self.mono = mono if mono is not None else (0,) * nvars
            self.runs = runs
            self.polys = tuple(polys)

    @classmethod
    def zero(cls, nvars: int) -> "FactoredForm":
        """The zero form; one per nvars, shared, as forms are values."""
        z = _ZEROS.get(nvars)
        if z is None:
            z = _ZEROS[nvars] = cls(nvars, scalar=QRAT_ZERO)
        return z

    @classmethod
    def monomial(cls, nvars: int, exps: dict[int, int],
                 coeff: QRat = QRAT_ONE) -> "FactoredForm":
        return cls(nvars, scalar=coeff, mono=_exp_tuple(nvars, exps))

    def is_zero(self) -> bool:
        return self.scalar.is_zero()

    def is_scalar(self) -> bool:
        """Whether the form prints as its scalar alone."""
        return not self._bits()

    def has_poles(self) -> bool:
        """Whether a denominator run has a variable."""
        return any(exp < 0 and any(mono) for mono, _, _, exp in self.runs)

    # -- algebra ------------------------------------------------------------

    def drop_factors(self, cuts: dict[int, int]) -> "FactoredForm":
        """The form without, for each run index i in cuts, the factor of
        q-exponent cuts[i] of run i: that run splits around it."""
        runs = list(self.runs)
        join = False
        for i in sorted(cuts, reverse=True):
            mono, first, last, exp = runs[i]
            s = cuts[i]
            if (s - first) * (s - last) > 0:
                raise DomainError(f"run {i} has no factor of q-exponent {s}")
            step = 1 if last >= first else -1
            pieces = []
            if s != first:
                pieces.append((mono, first, s - step, exp))
            if s != last:
                pieces.append((mono, s + step, last, exp))
            # runs merge only where two adjacent ones share a monomial; the
            # two pieces cannot (a gap of 2), their neighbours may
            prv = runs[i - 1][0] if i else None
            nxt = runs[i + 1][0] if i + 1 < len(runs) else None
            join = join or (mono in (prv, nxt) if pieces else prv == nxt)
            runs[i:i + 1] = pieces
        return FactoredForm._of(self.nvars, self.scalar, self.mono,
                                _join(runs) if join else tuple(runs),
                                self.polys)

    def __mul__(self, other: "FactoredForm") -> "FactoredForm":
        if self.nvars != other.nvars:
            raise DomainError("mixed variable orders")
        if self.is_zero() or other.is_zero():
            return FactoredForm.zero(self.nvars)
        polys = self.polys + other.polys
        _check_power(len(polys))
        return FactoredForm._of(self.nvars, self.scalar * other.scalar,
                                add_exps(self.mono, other.mono),
                                _concat(self.runs, other.runs), polys)

    def __pow__(self, n: int) -> "FactoredForm":
        """Factors take the power in their exponents and sums as n copies,
        so a form holds at most _MAX_POWER sums.  A run stays a run, and
        the runs stay maximal."""
        if self.is_zero():
            if n <= 0:
                raise DomainError("0 to a nonpositive power")
            return self
        if n == 0:
            return FactoredForm(self.nvars)
        if self.polys and n < 0:
            raise DomainError("cannot invert a sum symbolically")
        s = self.scalar
        if len(s.num.c) + len(s.den.c) > 2 or abs(s.num.leading_coeff) != 1:
            _check_power(abs(n))        # only a power of +-q^k costs nothing
        _check_power(len(self.polys) * n)
        return FactoredForm._of(self.nvars, self.scalar ** n,
                                scale_exps(self.mono, n),
                                tuple((m, a, b, e * n)
                                      for m, a, b, e in self.runs),
                                self.polys * n if self.polys else ())

    def __eq__(self, other) -> bool:
        """Scalar, monomial, the sums and the factor sequence, in order,
        compared run by run: equal forms have equal values, but (1 - q) and
        -q(1 - q^-1) compare unequal, and so do two orders of one factor
        list."""
        return self is other or (
            isinstance(other, FactoredForm) and self.nvars == other.nvars
            and self.scalar == other.scalar and self.mono == other.mono
            and self.polys == other.polys and self.runs == other.runs)

    # -- substitution ---------------------------------------------------------

    def substitute(self, shifts: dict[int, int], dst: int) -> "FactoredForm":
        """Replace x_src by x_dst * q^shifts[src] for every src in shifts,
        all at once (dst must not be a src).

        Each run moves its monomial once and shifts its q-range, and keeps
        its place; one whose monomial collapses stays as the scalars
        (1 - q^e)^exp with an all-zero monomial, so no Q(q) arithmetic is
        done.  A collapsed run holds 1 - q^0 exactly when its range holds
        0.  Whatever the run order, a denominator run that does raises
        UncancelledPoleError; otherwise a numerator run that does makes the
        form zero, and so does a sum whose terms cancel.  Once a numerator
        run has, only the denominator runs are scanned, and nothing more is
        built.
        """
        if dst in shifts:
            raise DomainError("substitute onto the same variable")
        if self.is_zero():
            return self
        moves = tuple(shifts.items())
        runs = []
        zero = join = False
        kept = None                     # the monomial of the last run kept
        for run in self.runs:
            mono, first, last, exp = run
            if zero and exp > 0:
                continue
            moved = None                # _move, inlined: once per run
            for v, shift in moves:
                e = mono[v]
                if e:
                    if moved is None:
                        moved = list(mono)
                    moved[v] = 0
                    moved[dst] += e
                    first += shift * e
                    last += shift * e
            if moved is not None:
                moved = tuple(moved)
                if first * last <= 0 and not any(moved):
                    if exp < 0:
                        raise UncancelledPoleError(
                            f"substitution {shifts} onto x{dst} zeroes "
                            f"{_factor_str(run[1] - first, mono, exp)}")
                    zero = True
                    continue
                mono = moved
                run = (mono, first, last, exp)
            if not zero:
                # runs merge only where a kept run's monomial repeats
                join = join or mono == kept
                kept = mono
                runs.append(run)
        if zero:
            return FactoredForm.zero(self.nvars)
        scalar = self.scalar
        mono, qexp = _move(self.mono, moves, dst)
        if mono is None:
            mono = self.mono
        elif qexp:
            scalar = scalar.times_qpow(qexp)
        polys = []
        for p in self.polys:                # terms that meet add up
            maps = {}
            for k, m in p.maps.items():
                k2, qexp = _move(k, moves, dst)
                if qexp:
                    m = {e + qexp: c for e, c in m.items()}
                _add_term(maps, k if k2 is None else k2, m)
            polys.append(LaurentPoly._raw(self.nvars, maps, p.den))
        return FactoredForm._of(self.nvars, scalar, mono,
                                _join(runs) if join else tuple(runs), polys)

    # -- degrees --------------------------------------------------------------

    def degree_in(self, var: int) -> int:
        """Degree as a rational function of x_var.

        Follows the convention that deg of (1 - q^s M) in x_var is
        max(0, exponent of x_var in M); e.g. (x_i - x_j)/x_i has degree 0
        in x_i and 1 in x_j.
        """
        d = self.mono[var]
        for p in self.polys:
            d += max(k[var] for k in p.maps)
        for mono, first, last, exp in self.runs:
            if mono[var] > 0:
                d += exp * (abs(last - first) + 1) * mono[var]
        return d

    # -- expansion ------------------------------------------------------------

    def expand_exact(self) -> LaurentPoly:
        """Full expansion; requires no denominator factors."""
        if self.has_poles():
            raise NotPolynomialError(
                "form has denominator factors; use a truncated expansion")
        return self.expand_within({})

    def expand_within(self, hi: dict[int, int],
                      lo: dict[int, int] | None = None) -> LaurentPoly:
        """Expansion complete for every exponent vector within the window.

        hi[v] bounds the exponent of x_v from above; lo (optional) filters
        from below.  Raises TruncationError if a denominator factor's
        control variable has no hi bound.

        The runs with a variable that share one monomial M and one sign
        form a group, and each group is one part of the product
        (`_measure_run`): the numerator runs of M a polynomial in M, its
        denominator runs one series in the small direction Y of M.  Its
        members are the runs' factors.  Each group is kept to one cap on
        its index (`_series_bounds`).  The collapsed numerator factors are
        one more part, their product with the one key 0, built after the
        caps; they bound no variable.

        Why one cap per group is exact.  A group is one series c_t Y^t, t >= t0
        the sum of its members' first indices, Y = M for a numerator group; a
        denominator group's Y has zero exponents on all variables below its
        control variable and a positive one on it.  Fix a product term in the
        window and take the variables in expansion order, as `_series_bounds`
        does, with every cap found so far a bound on the term's index in its
        group.  On x_v the fixed parts (monomial, sums) add at least their
        minimum and at most their maximum; a group whose Y raises x_v adds at
        least t0 times Y's exponent, and one whose Y lowers x_v at least its
        cap times it, a cap already proven (a numerator group's degree, or one
        found at an earlier variable, as Y's lowest variable has a positive
        exponent).  So hi[v], less the least the rest adds, bounds the index of
        every group whose Y raises x_v; with those proven, lo[v], less the most
        the rest adds, bounds every group whose Y lowers x_v.  A new cap, and
        its minimum with an older one, bounds the term: tightening with caps
        already proven stays sound, and induction up the variable order proves
        them all.  A denominator group gets its first cap at its control
        variable, which therefore needs a hi bound.  A group's term at index t
        is a sum of member terms whose indices add up to t, so the cap bounds
        each member too.  For the negative-exponent q-Dyson kernel the x0 cap
        is at most the parameter sum, the classical bound.

        Why the slot width stays valid.  `_multiply_within` sets one width
        from the l1 norms and q-spans of all parts, and a group reaches it
        measured, not built: no coefficient of a group can cancel (at each
        index its terms share one sign), so its norm and span at q = 1 are
        those of its maps, and the width is the one its maps would set.
        """
        nv = self.nvars
        if self.is_zero():
            return LaurentPoly.zero(nv)

        # the scalar's numerator, each sum, the collapsed numerator factors
        # and each group (numerator groups first) are parts; the scalar's
        # denominator, the collapsed denominator factors and the sums'
        # denominators multiply into the result's den
        num, collapsed, den = _scalar_parts(self)
        parts = [{self.mono: num}, *(p.maps for p in self.polys)]
        den = sum((p.den for p in self.polys), den)
        nums: dict = {}
        dens: dict = {}
        for run in self.runs:
            mono, _, _, exp = run
            if any(mono):
                (nums if exp > 0 else dens).setdefault(mono, []).extend(
                    (s, mono, exp) for s in _qexps(run))
        groups = [*nums.values(), *dens.values()]
        caps = self._series_bounds(parts, groups, hi, lo)
        if caps is None:
            return LaurentPoly.zero(nv)
        if collapsed:
            for _, e in collapsed:
                _check_power(e)
            parts.append({(0,) * nv: _qprod(collapsed)})
        series = [_measure_run(g, cap) for g, cap in zip(groups, caps)]
        return LaurentPoly._raw(
            nv, _multiply_within(nv, parts, hi, lo, series), den)

    def _series_bounds(self, fixed_parts: list[dict], groups: list[list],
                       hi: dict[int, int],
                       lo: dict[int, int] | None) -> list[int] | None:
        """Index cap per group, or None if the window admits no terms at all.

        Each group, its members (s, M, e) the factors (1 - q^s M)^e, counts
        as one series over Y (`_direction`) from t0, the sum of its members'
        first indices; a numerator group starts capped by its degree, a
        denominator group uncapped.  One pass over the variables in
        expansion order caps the rest and tightens every cap.  At x_v:

          1. a denominator group controlled by x_v needs hi[v], and
             TruncationError is raised without;
          2. hi[v] caps every group whose Y raises x_v, given the least the
             fixed parts and the other groups add to x_v;
          3. lo[v] caps every group whose Y lowers x_v, given the most they
             add.

        The least and the most take each other group at t0 or at its cap
        so far, whichever is the extreme.  A cap below t0 means no term
        reaches the window.  `expand_within` proves every cap a bound.
        """
        if not groups:
            return []
        nv = self.nvars
        fixed_min, fixed_max = [0] * nv, [0] * nv
        for p in fixed_parts:
            for v, col in enumerate(zip(*p)):
                fixed_min[v] += min(col)
                fixed_max[v] += max(col)

        ymono, t0 = zip(*map(_direction, groups))
        caps = [sum(e for _, _, e in group) if group[0][2] > 0 else None
                for group in groups]
        lo = lo or {}
        for v in range(nv):
            # an uncapped group whose Y raises x_v is controlled by x_v
            if v not in hi and any(caps[i] is None
                                   for i, y in enumerate(ymono) if y[v] > 0):
                raise TruncationError(
                    f"denominator factor controlled by x{v} needs a bound on x{v}")
            # hi[v] bounds sign * x_v from above for sign 1, lo[v] for -1
            for sign, bound, fixed in ((1, hi, fixed_min[v]),
                                       (-1, lo, -fixed_max[v])):
                if v not in bound:
                    continue
                z = [sign * y[v] for y in ymono]
                # the least each group adds to sign * x_v; a cap is known
                # wherever z < 0
                least = [(t0[i] if zi >= 0 else caps[i]) * zi
                         for i, zi in enumerate(z)]
                room = sign * bound[v] - fixed - sum(least)
                for i, zi in enumerate(z):
                    if zi > 0:
                        cap = (room + least[i]) // zi
                        if caps[i] is not None:
                            cap = min(cap, caps[i])
                        if cap < t0[i]:
                            return None
                        caps[i] = cap
        return caps

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        bits = self._bits()
        num, collapsed, den = _scalar_parts(self)
        scalar = QRat.from_laurent(_qprod([(num, 1), *collapsed]),
                                   _den_map(den))
        if not scalar.is_one() or not bits:
            s = str(scalar)
            if bits and scalar.den.is_one() and len(scalar.num.c) > 1:
                s = f"({s})"        # 1 - q * x1 would read as 1 - (q * x1)
            bits.insert(0, s)
        return " * ".join(bits)

    def _bits(self) -> list[str]:
        """What str prints after the scalar: the monomial, the product of
        the sums multiplied out unless it is 1, the factors with a
        variable."""
        bits = [_mono_str(self.mono)] if any(self.mono) else []
        if self.polys:
            sums = FactoredForm(self.nvars, polys=self.polys).expand_exact()
            if sums != LaurentPoly.one(self.nvars):
                bits.append(f"({sums})")
        factors = sorted((run[0], s, run[3]) for run in self.runs
                         if any(run[0]) for s in _qexps(run))
        return bits + [_factor_str(s, mono, exp) for mono, s, exp in factors]

    def __repr__(self) -> str:
        return f"FactoredForm({self})"


def _scalar_parts(ff: FactoredForm) -> tuple[dict, list, Counter]:
    """(N, pairs, den) of ff.scalar times ff's collapsed factors: the
    scalar's integer numerator, the `_qprod` pairs ({0: 1, s: -1}, e) of the
    numerator factors (1 - q^s)^e, and the factored denominator."""
    num, d = _integer_pair(ff.scalar)
    pairs, den = [], _den_times(_NO_DEN, d)
    for run in ff.runs:
        mono, _, _, exp = run
        if not any(mono):
            for s in _qexps(run):
                if exp > 0:
                    pairs.append(({0: 1, s: -1}, exp))
                else:
                    den = _den_times(den, {0: 1, s: -1}, -exp)
    return num, pairs, den


def _direction(group: list[tuple]) -> tuple[tuple[int, ...], int]:
    """(Y, t0) of a group of members (s, M, e): the monomial its terms are
    powers of, and its first index.  A numerator group is a polynomial in
    M from index 0.  A denominator group is a series in its small
    direction: M from index 0 when M is small, 1/M from the group's
    multiplicity when M is large."""
    _, mono, exp = group[0]
    if exp > 0 or mono[_control_var(mono)] > 0:
        return mono, 0
    return scale_exps(mono, -1), -sum(e for _, _, e in group)


def _measure_run(group: list[tuple], cap: int) -> tuple:
    """The measure step of one part of the windowed product: the product of
    the members (s, M, e) of group, the factors (1 - q^s M)^e of the runs
    that share one monomial M and one sign of e, kept to the terms Y^t with
    t <= cap (Y and the first index T0 from `_direction`), measured without
    being built.  Returns (keys, l1, span, pack): the x-keys of its terms in
    index order, its exact l1 norm and q-exponent span, and pack(w), the
    pack step (`_pack_run`), which gives each key's packed q-map at the slot
    width w that `_multiply_within` sets from every part.

    Each member (1 - q^s M)^e is a series sum_u c_u q^(r (t0 + u))
    Y^(t0 + u) from its first index t0, with p = -e:

      e > 0:            Y = M,   r = s,  t0 = 0, c_u = (-1)^u C(e, u), u <= e;
      e = -p, M small:  Y = M,   r = s,  t0 = 0, c_u = C(u + p - 1, p - 1);
      e = -p, M large:  Y = 1/M, r = -s, t0 = p, c_u = (-1)^p C(u + p - 1, p - 1),

    the last since 1/(1 - q^s M)^p = (-q^-s/M)^p / (1 - q^-s/M)^p.  All
    three follow c_(u+1) = c_u (u + p) / (u + 1).  The group is their
    product, one-dimensional in the index u of Y^(T0 + u), kept to u <=
    cap - T0 = L.

    Why the measure is exact.  No coefficient of the group can cancel: at
    index u every term of a numerator group has sign (-1)^u, and every
    term of a denominator group the one sign of the product of its
    members' c_0.  So every index up to L (up to the degree E of a
    numerator group, if that is less) has a key, each product of member
    terms with indices adding up to at most L survives as a q-power of
    its index, and the l1 norm is the truncated product of the members'
    absolute series at q = 1: with E the sum of the |e|, sum_(u <= L)
    C(E, u) for a numerator group, (1 + x)^E at x = 1, and C(L + E, E) for
    a denominator group, 1/(1 - x)^E summed to L.  A member's term j has
    the one q-exponent r (t0 + j), so the lowest (highest) q-exponent of
    the group takes the members of the most negative (positive) r first,
    each to its last term, until the indices add up to L.

    Refusals, before any term is built: a numerator member's exponent is
    held to _MAX_POWER, a denominator group to L + 1 <= _MAX_PRODUCT_KEYS
    terms, and the largest key is checked for overflow, which bounds every
    key.  The group's products of terms count against _MAX_PRODUCT_PAIRS,
    member by member, so a group of many long series is refused in
    bounded time.  A denominator member is packed by p passes over its n
    indices instead (`_pack_run`) where those p n steps are fewer than half
    its products of terms, a step weighed as two products; the budget
    counts the products either way.
    """
    y, start = _direction(group)
    last = cap - start
    if group[0][2] > 0:
        for _, _, e in group:
            _check_power(e)
    elif last + 1 > _MAX_PRODUCT_KEYS:      # before any lo pruning
        raise DomainError(f"expansion too large: a series of "
                          f"{size_str(last + 1)} terms exceeds the work "
                          f"budget of {_MAX_PRODUCT_KEYS} terms")
    _check_exp(max(map(abs, y)) * cap)
    small = not start               # Y = M: a numerator or a small series
    members = []                    # (r, t0, [c_0, c_1, ...], steps)
    n, pairs = 1, _MAX_PRODUCT_PAIRS
    for s, _, e in group:
        p = -e
        cs = [1 if small or p % 2 == 0 else -1]
        for u in range(min(-p, last) if p < 0 else last):
            cs.append(cs[-1] * (u + p) // (u + 1))
        # sum over i < n of min(len(cs), last + 1 - i): len(cs) for the
        # first k rows, then one fewer per row
        k = max(0, min(n, last + 2 - len(cs)))
        formed = k * len(cs) + (n - k) * (2 * last + 3 - n - k) // 2
        pairs -= formed
        if pairs < 0:
            raise DomainError(
                f"expansion too large: more than {_MAX_PRODUCT_PAIRS} "
                f"products of terms exceed the work budget")
        n = min(n + len(cs) - 1, last + 1)
        # p passes over n indices, where fewer than half the products
        steps = p if 0 < 2 * p * n < formed else 0
        members.append((s, 0, cs, steps) if small else (-s, p, cs, steps))

    total = sum(abs(e) for _, _, e in group)
    if group[0][2] < 0:
        l1 = comb(last + total, total)
    else:
        l1 = 1 << total if last >= total else \
            sum(comb(total, u) for u in range(last + 1))

    def extent(sign):               # the most sign * q-exponent adds past T0
        room, most = last, 0
        for r, _, cs, _ in sorted(members, key=lambda m: -sign * m[0]):
            if sign * r <= 0 or not room:
                break
            take = min(len(cs) - 1, room)
            most += sign * r * take
            room -= take
        return most

    keys = [tuple([x * (start + u) for x in y]) for u in range(n)]
    return (keys, l1, extent(1) + extent(-1),
            lambda w: _pack_run(members, last, w))


def _pack_run(members: list[tuple], last: int, w: int) -> list[tuple]:
    """The pack step of a group measured by `_measure_run`: the packed
    q-map (offset, value at q = 2^w) of each index u <= last, by the
    one-dimensional product of the members (r, t0, [c_0, c_1, ...], steps).
    A member's term is one slot, so a term product is one multiply and an
    offset add, and accumulating is one add after a shift; a member with
    steps = p > 0 is instead p divisions by 1 - q^r Y, each one pass up the
    indices, then times c_0 q^(r t0).  Evaluation at 2^w is a ring
    homomorphism, so every value is exact at any w, and each offset is its
    index's lowest q-exponent, as `qfield._pack` sets it: no partial
    product cancels."""
    def plus(prev, o, v):           # prev + v q^o, both packed at w
        if prev is None:
            return o, v
        po, pv = prev
        if po <= o:
            return po, pv + (v << w * (o - po))
        return o, v + (pv << w * (po - o))

    acc = [(0, 1)]                  # (offset, value) of each Y^(T0 + u)
    for r, t0, cs, steps in members:
        n = min(len(acc) + len(cs) - 1, last + 1)
        if steps:
            acc += [None] * (n - len(acc))
            for _ in range(steps):
                for u in range(1, n):
                    o, v = acc[u - 1]
                    acc[u] = plus(acc[u], o + r, v)
            acc = [(o + r * t0, v * cs[0]) for o, v in acc]
        else:
            out: list = [None] * n
            for i, (o1, v1) in enumerate(acc):
                for j, c in enumerate(cs[:last + 1 - i], i):
                    o = o1 + r * (t0 + j - i)
                    v = v1 * c
                    prev = out[j]
                    if prev is not None:
                        po, pv = prev
                        if po == o:
                            v += pv
                        elif po < o:
                            v = pv + (v << w * (o - po))
                            o = po
                        else:
                            v += pv << w * (po - o)
                    out[j] = (o, v)
            acc = out
    return acc


def _map_part(part: dict) -> tuple:
    """(keys, l1, span, pack) of a part given as integer maps, as
    `_measure_run` measures a group: pack(w) packs each map by
    `qfield._pack`."""
    qs = [e for m in part.values() for e in m]
    return (list(part), sum(abs(c) for m in part.values() for c in m.values()),
            max(qs) - min(qs), lambda w: [_pack(m, w) for m in part.values()])


def _multiply_within(nvars: int, parts: list[dict],
                     hi: dict[int, int], lo: dict[int, int] | None,
                     series: list | tuple = ()) -> dict:
    """Multiply integer parts {x-exponents: {q-exponent: int}} and the
    groups measured by `_measure_run` (series), which follow the parts,
    pruning x-exponents that cannot re-enter the window (q is never
    pruned).  This is the one place that sets the slot width and packs:
    each part is measured as a group is (`_map_part`), and nothing reaches
    the loop decoded.

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
    set once per product by `qfield._width`: w = P.bit_length() + 1, P the
    product over the parts and groups of each one's l1 norm, equal norms
    raised as one power.  A group's norm and span are measured at q = 1,
    exactly, since none of its coefficients cancels, so w is the width its
    decoded maps would set; its pairs are then formed at w from its
    members' terms (`_pack_run`), and a map is packed by `qfield._pack`.
    A pair product is one integer multiply plus an offset add; accumulating
    into a key is one add, after a shift of w times the offset difference;
    a key whose value is 0 is dropped; the surviving keys are decoded
    once, with balanced digits.

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
    could exceed _MAX_PACKED_BITS is refused before anything is packed,
    and before P is formed when a lower bound of w is past it already.
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
    parts = [*map(_map_part, parts), *series]
    mins = [list(map(min, zip(*keys))) for keys, _, _, _ in parts]
    maxs = [list(map(max, zip(*keys))) for keys, _, _, _ in parts]

    def reach(i):
        vs = [v for v in range(nvars) if mins[i][v] or maxs[i][v]]
        return (vs[0], vs[-1]) if vs else (-1, -1)

    order = [0] + sorted(range(1, len(parts)), key=reach)
    parts = [parts[i] for i in order]
    mins = [mins[i] for i in order]
    maxs = [maxs[i] for i in order]

    w = _width(list(Counter(l1 for _, l1, _, _ in parts).items()),
               sum(span for _, _, span, _ in parts))

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
    for (keys, _, pspan, pack), pmin, pmax in zip(parts, mins, maxs):
        span += pspan
        for v in range(nvars):
            pre[v] += pmin[v]
            suf[v] -= pmax[v]
        floors = {v: min(max(b - pre[v] - suf[v], 0), R[v] + 1)
                  for v, b in lo.items()}
        Z = (sum((g[v] - 1 + floors.get(v, 0)) << sh[v] for v in range(nvars))
             if any(floors.values()) else None)
        items = [(sum((e - m) << s for e, m, s in zip(k, pmin, sh)), ov)
                 for k, ov in zip(keys, pack(w))]
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


# ---------------------------------------------------------------------------
# q-Pochhammer and q-binomial constructors
# ---------------------------------------------------------------------------

def qpochhammer(nvars: int, mono: dict[int, int] | tuple[int, ...],
                count: int, qshift: int = 0) -> FactoredForm:
    """(z)_count for z = q^qshift * X^mono, as a FactoredForm of one run.

      count = p >= 0:  (1 - z)(1 - zq) ... (1 - z q^{p-1})
      count = -p < 0:  1 / ((1 - z q^{-1})(1 - z q^{-2}) ... (1 - z q^{-p}))
      count = 0:       the empty product, 1.
    """
    mono = _exp_tuple(nvars, mono)
    if not any(mono):
        raise ShapeError("use qpoch_qrat for a pure q-power base")
    _check_power(abs(count))
    if count > 0:
        runs = ((mono, qshift, qshift + count - 1, 1),)
    else:
        runs = ((mono, qshift - 1, qshift + count, -1),) if count else ()
    return FactoredForm._of(nvars, QRAT_ONE, None, runs)


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
    w is `qfield._width`'s for |count| maps of l1 norm 2 over the q-degree
    the sum of |e|, so it is held to the budget of any packed product.
    """
    lo, hi = (qexp, qexp + count - 1) if count >= 0 else (qexp + count, qexp - 1)
    if lo <= 0 <= hi:
        if count >= 0:
            return QRAT_ZERO        # the factor 1 - q^0
        raise DomainError("negative Pochhammer hits a zero factor")
    w = _width([(2, abs(count))], abs(lo + hi) * abs(count) // 2)
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
