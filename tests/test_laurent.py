"""Laurent polynomials, factored forms, and the windowed expansion engine."""

import random
from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb
import time
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from ctforge import laurent, qfield
from ctforge.ctengine import (ct_all_bruteforce, ct_all_series,
                              ct_factored_pfrac_labeled)
from ctforge.errors import (DomainError, NotPolynomialError, ShapeError,
                            TruncationError)
from ctforge.identities import (finite_qbinomial_check,
                                pochhammer_additivity_check,
                                product_identity_check,
                                qbinomial_theorem_check)
from ctforge.laurent import (_MAX_POWER, FactoredForm, LaurentPoly,
                             _control_var, _direction, _move,
                             _multiply_within, _pair_vars, qbinomial,
                             qfactorial, qpoch_qrat, qpoch_quotient,
                             qpochhammer)
from ctforge.qfield import (_MAX_PACKED_BITS, QPoly, QRat, QRAT_ONE, QRAT_ZERO,
                            _qprod, _unpack, _width)

from binomials import binomial, run, triples


def one_minus_qpow(e):
    """1 - q^e as a QRat, built from its integer map."""
    return QRat.from_laurent({0: 1, e: -1}) if e else QRAT_ZERO


def by_factors(qexp, count):
    """(q^qexp)_count built one factor 1 - q^e at a time in QRat arithmetic,
    each product and inverse reduced by `_canonicalize`: a reference that
    shares no code with `QRat.from_factors`."""
    out = QRAT_ONE
    if count >= 0:
        for m in range(count):
            out = out * one_minus_qpow(qexp + m)
    else:
        for m in range(1, -count + 1):
            out = out * one_minus_qpow(qexp - m).inverse()
    return out


def lp_mono(nvars, exps, coeff=QRAT_ONE):
    return LaurentPoly.monomial(nvars, exps, coeff)


def product(nvars, *polys):
    """The product of LaurentPolys: a form holding them as sums, expanded."""
    return FactoredForm(nvars, polys=polys).expand_exact()


class TestLaurentPolyRing:
    def test_product_example(self):
        # (1 - x0/x1)(1 - q x1/x0) = 1 + q - x0/x1 - q x1/x0
        a = FactoredForm(2, runs=(binomial(2, 0, 0, 1),)).expand_exact()
        b = FactoredForm(2, runs=(binomial(2, 1, 1, 0),)).expand_exact()
        prod = product(2, a, b)
        assert prod.coeff_of((0, 0)) == QRat(QPoly({0: 1, 1: 1}))
        assert prod.coeff_of((1, -1)) == QRat.from_int(-1)
        assert prod.coeff_of((-1, 1)) == QRat.qpow(1).scaled(-1)
        assert len(prod.terms) == 3

    def test_additive_inverse(self):
        a = lp_mono(2, {0: 2, 1: -1}) + lp_mono(2, {1: 3}, QRat.qpow(2))
        assert (a + (-a)).is_zero()

    def test_one_is_identity(self):
        a = lp_mono(3, {0: 1, 2: -2}, QRat.from_int(5))
        assert product(3, a, LaurentPoly.one(3)) == a

    def test_mixed_orders_rejected(self):
        with pytest.raises(DomainError):
            LaurentPoly.one(2) + LaurentPoly.one(3)

    def test_sparsity_canonical(self):
        a = lp_mono(1, {0: 1})
        assert (a - a).terms == {}

    def test_pow_is_repeated_product(self):
        a = (lp_mono(2, {0: 1, 1: -1}, QRat(QPoly({0: 1}), QPoly({0: 1, 1: -1})))
             + lp_mono(2, {1: 2}, QRat.qpow(-1)) + LaurentPoly.one(2))
        # a form's power repeats its sums: n copies, one expansion
        ff = FactoredForm(2, polys=(a,))
        acc = LaurentPoly.one(2)
        for n in range(7):
            assert (ff ** n).expand_exact() == acc
            acc = product(2, acc, a)


class _Ref:
    """The term-by-term QRat arithmetic LaurentPoly used before it held
    integer maps over one unreduced denominator: {exponent tuple: nonzero
    QRat}, every sum and product reduced in Q(q) as it is formed."""

    def __init__(self, terms):
        self.terms = {k: v for k, v in terms.items() if not v.is_zero()}

    def __add__(self, other):
        t = dict(self.terms)
        for k, v in other.terms.items():
            t[k] = t.get(k, QRAT_ZERO) + v
        return _Ref(t)

    def __neg__(self):
        return _Ref({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        t = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(x + y for x, y in zip(k1, k2))
                t[k] = t.get(k, QRAT_ZERO) + v1 * v2
        return _Ref(t)

    def __pow__(self, n):
        out = _Ref({(0,) * 3: QRAT_ONE})
        for _ in range(n):
            out = out * self
        return out

    def free_of(self, var):
        return _Ref({k: v for k, v in self.terms.items() if k[var] == 0})

    def substitute(self, shifts, dst):
        out = _Ref({})
        for k, v in self.terms.items():
            k2, qexp = _move(k, tuple(shifts.items()), dst)
            if k2 is not None:
                k, v = k2, v.times_qpow(qexp)
            out = out + _Ref({k: v})
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms):
            mono = laurent._mono_str(k)
            vs = str(self.terms[k])
            if mono and (" " in vs or "/" in vs):
                vs = f"({vs})"
            bits.append(f"{vs}*{mono}" if mono else vs)
        return " + ".join(bits)


# coefficients c q^e / (1 - q^k) and (c + q^j) q^e, c a small fraction:
# outside Z[q, 1/q], with monomial and non-monomial denominators
_coeff = st.builds(
    lambda c, e, k, j: (QRat.from_scalar(c) + (QRat.qpow(j) if j else 0))
    .times_qpow(e) * (one_minus_qpow(k).inverse() if k else QRAT_ONE),
    st.fractions(-3, 3, max_denominator=3), st.integers(-2, 2),
    st.integers(-3, 3), st.integers(-1, 2))
_terms = st.dictionaries(st.tuples(*[st.integers(-1, 1)] * 3), _coeff,
                         max_size=4)


class TestAgainstQRatReference:
    """LaurentPoly's integer map arithmetic against `_Ref`: equal
    canonical coefficients and the same printed bytes."""

    @staticmethod
    def _same(lp, ref):
        assert lp.terms == ref.terms
        assert str(lp) == str(ref)

    @settings(max_examples=80, deadline=None)
    @given(_terms, _terms)
    def test_ring_operations(self, f, g):
        a, b = LaurentPoly(3, f), LaurentPoly(3, g)
        ra, rb = _Ref(f), _Ref(g)
        self._same(a, ra)
        self._same(a + b, ra + rb)
        self._same(a - b, ra - rb)
        self._same(-a, -ra)
        self._same(product(3, a, b), ra * rb)
        for n in range(4):
            self._same(product(3, *[a] * n), ra ** n)
        for v in range(3):
            self._same(a.free_of(v), ra.free_of(v))

    @settings(max_examples=80, deadline=None)
    @given(_terms, _terms)
    def test_equality(self, f, g):
        a, b = LaurentPoly(3, f), LaurentPoly(3, g)
        assert (a == b) == (_Ref(f).terms == _Ref(g).terms)
        # the same values over other denominators compare equal
        assert (a + b) - b == a and product(3, a, b) == product(3, b, a)
        assert product(3, a + b, a - b) == \
            product(3, a, a) - product(3, b, b)

    @settings(max_examples=80, deadline=None)
    @given(_terms, st.integers(-2, 2), st.integers(-2, 2))
    def test_substitute(self, f, s0, s1):
        got = FactoredForm(3, polys=(LaurentPoly(3, f),)).substitute(
            {0: s0, 1: s1}, 2)
        want = _Ref(f).substitute({0: s0, 1: s1}, 2)
        if got.is_zero():
            assert want.terms == {}
        else:
            assert got.expand_exact().terms == want.terms

    def test_reading_the_length_reduces_nothing(self, monkeypatch):
        # a traced run counts len(terms) after every expansion; it must not
        # count reductions an untraced run never makes
        ff = FactoredForm(2, runs=(binomial(2, 1, 0, 1, -1),
                                   run(2, (0, 0), -1)))
        lp = ff.expand_within({0: 3})
        made = []
        monkeypatch.setattr(QRat, "__init__", lambda *a: made.append(a))
        assert len(lp.terms) == 4 and made == []
        assert (lp == lp + LaurentPoly.zero(2)) and made == []


class TestPochhammer:
    def test_positive_unfolds(self):
        # (z)_2 = (1 - z)(1 - qz), z = x0
        p = qpochhammer(1, {0: 1}, 2)
        assert triples(p) == [(0, (1,), 1), (1, (1,), 1)]

    def test_empty_product(self):
        p = qpochhammer(1, {0: 1}, 0)
        assert p.runs == () and p.expand_exact() == LaurentPoly.one(1)

    def test_negative_reciprocal(self):
        # (z)_{-2} = 1/((1 - z q^-1)(1 - z q^-2))
        p = qpochhammer(1, {0: 1}, -2)
        assert triples(p) == [(-1, (1,), -1), (-2, (1,), -1)]

    def test_scalar_base(self):
        assert qpoch_qrat(1, 2) == one_minus_qpow(1) * one_minus_qpow(2)
        assert qfactorial(0) == QRAT_ONE

    @settings(max_examples=150, deadline=None)
    @given(st.integers(-12, 12), st.integers(-9, 9))
    def test_scalar_base_matches_repeated_products(self, qexp, count):
        # the factors read by from_factors against one QRat product per
        # factor
        if count < 0 and not all(qexp - m for m in range(1, -count + 1)):
            with pytest.raises(DomainError, match="zero factor"):
                qpoch_qrat(qexp, count)
            return
        want = by_factors(qexp, count)
        got = qpoch_qrat(qexp, count)
        assert got == want and str(got) == str(want)

    def test_largest_scalar_count_is_quick(self):
        # (q)_202 is the largest q-factorial the packed budget admits (see
        # TestWorkBudget); factor by factor in Q(q) it took about 2 s
        start = time.perf_counter()
        f = qfactorial(202)
        assert time.perf_counter() - start < 1.0
        assert f.den.is_one() and len(f.num.c) > 10_000
        assert f.num.c[0] == 1 and f.num.c[202 * 203 // 2] == 1


class TestQBinomial:
    def test_basic(self):
        assert qbinomial(2, 1) == QRat(QPoly({0: 1, 1: 1}))

    def test_top_zero(self):
        for n in (-3, 0, 2, 7):
            assert qbinomial(n, 0) == QRAT_ONE

    def test_negative_top(self):
        # [-1, 2] = q^-3 by direct simplification
        assert qbinomial(-1, 2) == QRat.qpow(-3)

    def test_out_of_range_is_zero(self):
        assert qbinomial(1, 2).is_zero()

    def test_negative_m_rejected(self):
        with pytest.raises(DomainError):
            qbinomial(3, -1)

    def test_symmetry_in_range(self):
        for n in range(7):
            for m in range(n + 1):
                assert qbinomial(n, m) == qbinomial(n, n - m)
                assert qbinomial(n, m) == by_factors(1, n) / (
                    by_factors(1, m) * by_factors(1, n - m))

    def test_matches_factor_by_factor_quotients(self):
        # any top n, in range or not: (q^{n-m+1})_m / (q)_m in QRat
        for n in range(-8, 9):
            for m in range(6):
                want = by_factors(n - m + 1, m) / by_factors(1, m)
                got = qbinomial(n, m)
                assert got == want and str(got) == str(want), (n, m)


class TestPochhammerQuotient:
    """(q^s)_A / ((q)_{p_1} ... (q)_{p_k}) read by `QRat.from_factors`."""

    def test_matches_division_in_qrat(self):
        for parts in ((), (1,), (2, 1), (3, 3), (2, 2, 2), (1, 0, 4)):
            count = sum(parts)
            for s in range(-count - 5, 6):
                want = by_factors(s, count)
                for p in parts:
                    want = want / by_factors(1, p)
                got = qpoch_quotient(s, parts)
                assert got == want and str(got) == str(want), (s, parts)

    def test_negative_top_is_laurent(self):
        # [-1, 2] = q^-3 and [-3, 2] = q^-7 [4, 2]
        assert qbinomial(-1, 2) == QRat.qpow(-3)
        assert qbinomial(-3, 2) == qbinomial(4, 2) * QRat.qpow(-7)

    def test_counts_are_nonnegative(self):
        with pytest.raises(DomainError):
            qpoch_quotient(1, (2, -1))

    @pytest.mark.parametrize("qexp, parts, line", [
        # [32002; 3] is at most C(32002, 3) < 2^43 at q = 1, before any
        # list; its largest coefficient would fit
        (32000, (3,), "44-bit coefficients over 96004 powers"),
        # the numerator's product, 2^203 in l1 norm, before any list
        (1, (203,), "205-bit coefficients over 20707 powers"),
        # the quotient times the denominator: 180 + 98 + 1 bits
        (1, (60, 60, 60), "279-bit coefficients over 16291 powers"),
        (1, (100, 100), "387-bit coefficients over 20101 powers"),
    ])
    def test_refused_at_the_width_of_its_products(self, qexp, parts, line):
        with pytest.raises(DomainError, match=f"^expansion too large: {line}"):
            qpoch_quotient(qexp, parts)


class TestMonomialClass:
    # a small monomial's series runs in it from index 0, a large one's in
    # its inverse from the multiplicity
    def test_small(self):
        mono = (1, 0, -1)
        assert _direction([(3, mono, -1)]) == (mono, 0)
        assert _pair_vars(mono) == (0, 2)

    def test_large(self):
        mono = (-1, 0, 1)
        assert _direction([(0, mono, -2)]) == ((1, 0, -1), 2)
        assert _pair_vars(mono) == (2, 0)

    def test_same_variable_rejected(self):
        with pytest.raises(ShapeError):
            _pair_vars((1, -1, 1))
        with pytest.raises(ShapeError):
            _pair_vars((2, -2))


class TestConstructor:
    """FactoredForm(nvars, scalar, mono, runs, polys) checks each run and
    stores the maximal runs of their factor sequence."""

    def test_zero_exponent_refused(self):
        with pytest.raises(DomainError, match="factor with zero exponent"):
            FactoredForm(2, runs=(binomial(2, 1, 0, 1, 0),))

    def test_collapsed_run_holding_q0_refused(self):
        # 1 - q^0 alone, and inside a collapsed run from q^-1 to q^1 either
        # way; a collapsed run that leaves out 0 is scalars, and stays
        for first, last in ((0, 0), (-1, 1), (2, -2)):
            with pytest.raises(ShapeError, match="factor 1 - q\\^0 is zero"):
                FactoredForm(2, runs=(((0, 0), first, last, -1),))
        ff = FactoredForm(2, runs=(((0, 0), 1, 3, -1),))
        assert ff.runs == (((0, 0), 1, 3, -1),)
        assert str(ff) == str(qpoch_qrat(1, 3).inverse())

    def test_runs_are_joined(self):
        # runs of one factor, or runs that continue each other, are stored
        # as the maximal runs: the forms compare equal
        x = (1, -1)
        pieces = FactoredForm(2, runs=[run(s, x) for s in (0, 1, 2, 3)])
        halves = FactoredForm(2, runs=((x, 0, 1, 1), (x, 2, 3, 1)))
        whole = qpochhammer(2, x, 4)
        assert pieces == halves == whole and whole.runs == ((x, 0, 3, 1),)


class TestExpansion:
    def test_small_series(self):
        # 1/(1 - q x0/x1) to x0-degree 2
        f = FactoredForm(2, runs=(binomial(2, 1, 0, 1, -1),))
        lp = f.expand_within({0: 2})
        assert lp.terms == {(0, 0): QRAT_ONE,
                            (1, -1): QRat.qpow(1),
                            (2, -2): QRat.qpow(2)}

    def test_large_series(self):
        # 1/(1 - q x1/x0): the naive geometric series is invalid; the valid
        # one starts at x0^1 with negated reciprocal coefficients
        f = FactoredForm(2, runs=(binomial(2, 1, 1, 0, -1),))
        lp = f.expand_within({0: 2})
        assert lp.terms == {(1, -1): QRat.qpow(-1).scaled(-1),
                            (2, -2): QRat.qpow(-2).scaled(-1)}

    def test_numerator_truncation(self):
        f = FactoredForm(2, runs=(binomial(2, 0, 0, 1),))
        assert f.expand_within({0: 0}) == LaurentPoly.one(2)

    def test_unbounded_control_var_rejected(self):
        f = FactoredForm(2, runs=(binomial(2, 0, 0, 1, -1),))
        with pytest.raises(TruncationError):
            f.expand_within({1: 3})

    def test_expand_exact_rejects_denominators(self):
        f = FactoredForm(2, runs=(binomial(2, 0, 0, 1, -1),))
        with pytest.raises(NotPolynomialError):
            f.expand_exact()

    def test_repeated_pole_series(self):
        # 1/(1 - x0)^2 = sum (l+1) x0^l
        f = FactoredForm(1, runs=(run(0, (1,), -2),))
        lp = f.expand_within({0: 3})
        assert lp.terms == {(l,): QRat.from_int(l + 1) for l in range(4)}

    def test_window_coherence_mixed_controls(self):
        # completeness of the in-window coefficients must not depend on the
        # window size: widening and restricting back changes nothing.  The
        # forms mix denominator factors controlled by different variables,
        # like the collapsed kernels the proof engine feeds the engine.
        rng = random.Random(11)
        for _ in range(30):
            nv = 3
            runs = []
            for _ in range(rng.randint(1, 2)):
                i, j = rng.sample(range(nv), 2)
                runs.append(binomial(nv, rng.randint(-2, 2), i, j, 1))
            for _ in range(rng.randint(1, 3)):
                i, j = rng.sample(range(nv), 2)
                runs.append(binomial(nv, rng.randint(-2, 2), i, j, -1))
            ff = FactoredForm(nv, runs=runs)
            window = {v: rng.randint(0, 2) for v in range(nv)}
            base = ff.expand_within(window)
            for pad in (3, 7):
                wide = {v: b + pad for v, b in window.items()}
                assert ff.expand_within(wide).restrict(hi=window) == base

    def test_window_multiplicativity_random(self):
        # expand(f*g) within a window equals the product of the separately
        # expanded sides restricted to it, once the sides carry enough
        # padding that no out-of-window term can multiply back in; two
        # paddings are compared to confirm the slack suffices
        rng = random.Random(7)
        for _ in range(25):
            nv = 3
            window = {v: 3 for v in range(nv)}
            def rand_ff():
                runs = []
                for _ in range(rng.randint(1, 3)):
                    i, j = rng.sample(range(nv), 2)
                    exp = rng.choice((1, 1, -1))
                    runs.append(binomial(nv, rng.randint(-2, 2), i, j, exp))
                return FactoredForm(nv, runs=runs)
            f, g = rand_ff(), rand_ff()
            direct = (f * g).expand_within(window)
            for pad in (8, 12):
                wide = {v: b + pad for v, b in window.items()}
                split = product(nv, f.expand_within(wide),
                                g.expand_within(wide)).restrict(hi=window)
                assert split == direct


class TestIntegerRing:
    """expand_within multiplies integer maps over Z[q, 1/q]; these check the
    boundary to Q(q) against references built from QRat LaurentPolys."""

    def test_sums_with_rational_coefficients(self):
        # 1/(1 - q) and 1/6 are not in Z[q, 1/q]: a sum holds integer maps
        # over its denominator, which joins the product's; the product of
        # the sums is checked against term-by-term QRat products
        from ctforge.parser import lower, parse

        def side(src):
            return _Ref(dict(lower(parse(src), 2).expand_exact().terms))

        for left, right in (("x0/qpoch(q,1) + x1", "1/x0 + 1/x1"),
                            ("x0/2 + q^-1*x1/3", "(1 - q*x0/x1)^2"),
                            ("x0/qpoch(q,2) + x1/qpoch(q^-1,1)",
                             "1/x0 + q*x1")):
            ff = lower(parse(f"({left})*({right})"))
            assert ff.polys
            got = ff.expand_exact()
            want = side(left) * side(right)
            assert got.terms == want.terms and str(got) == str(want)

    def test_scalar_with_non_monomial_denominator(self):
        from ctforge.qdyson import qdyson_kernel
        summands = dict(ct_factored_pfrac_labeled(qdyson_kernel(4, (2, 2)), 0))
        s = summands[(1, 3)]
        # the scalar folded with the collapsed factors, which have no variable
        value = ct_all_series(FactoredForm(
            s.nvars, s.scalar, runs=[r for r in s.runs if not any(r[0])]))
        assert len(value.den.c) > 1  # 1/(q^3 - q^2)
        bare = FactoredForm(s.nvars, QRAT_ONE, s.mono,
                            [r for r in s.runs if any(r[0])], s.polys)
        window = {0: 0, 1: 2, 2: 2}
        lp = s.expand_within(window)
        assert not lp.is_zero()
        assert lp.terms == {k: v * value
                            for k, v in bare.expand_within(window).terms.items()}

    @staticmethod
    def _reference(ff, hi, lo, cap):
        """ff expanded by hand: each denominator factor is a geometric
        series truncated at index cap, the parts multiplied by plain
        integer arithmetic and the scalar multiplied in as a QRat."""
        nv = ff.nvars
        parts = [{ff.mono: {0: 1}}]
        for qexp, mono, exp in triples(ff):
            if exp > 0:
                parts += [{(0,) * nv: {0: 1}, mono: {qexp: -1}}] * exp
                continue
            small = next(e for e in mono if e) > 0
            # 1/(1 - cM) = -(cM)^-1 / (1 - (cM)^-1) when cM is large
            geo = {tuple(t * e for e in mono): {qexp * t: 1 if small else -1}
                   for t in (range(cap + 1) if small
                             else range(-1, -cap - 1, -1))}
            parts += [geo] * -exp
        return LaurentPoly(nv, {
            k: QRat.from_laurent(m) * ff.scalar
            for k, m in _reference_product(nv, parts, hi, lo).items()})

    def test_random_forms_against_qrat_reference(self):
        rng = random.Random(2025)
        nv = 3
        scalars = (QRAT_ONE, QRat.from_int(-3), QRat.qpow(-2),
                   one_minus_qpow(2).inverse())
        for _ in range(20):
            runs = []
            for exp in (1, -1, -1, rng.choice((1, -1, -2))):
                i, j = rng.sample(range(nv), 2)
                runs.append(binomial(nv, rng.randint(-2, 2), i, j, exp))
            mono = tuple(rng.randint(-1, 1) for _ in range(nv))
            ff = FactoredForm(nv, rng.choice(scalars), mono, runs)
            hi = {v: rng.randint(0, 2) for v in range(nv)}
            lo = rng.choice((None, {v: -2 for v in range(nv)}))
            got = ff.expand_within(hi, lo)
            # the largest series index the window needs here is 8; a
            # second, longer truncation shows the reference is complete
            assert got == self._reference(ff, hi, lo, 8)
            assert got == self._reference(ff, hi, lo, 10)


def _reference_product(nvars, parts, hi, lo):
    """_multiply_within's result by plain {q-exponent: int} arithmetic: the
    full product, zero coefficients and empty maps dropped, then the
    window."""
    acc = {(0,) * nvars: {0: 1}}
    for part in parts:
        out = {}
        for k1, m1 in acc.items():
            for k2, m2 in part.items():
                o = out.setdefault(tuple(a + b for a, b in zip(k1, k2)), {})
                for e1, c1 in m1.items():
                    for e2, c2 in m2.items():
                        o[e1 + e2] = o.get(e1 + e2, 0) + c1 * c2
        acc = {k: {e: c for e, c in m.items() if c} for k, m in out.items()}
        acc = {k: m for k, m in acc.items() if m}
    return {k: m for k, m in acc.items()
            if all(k[v] <= b for v, b in hi.items())
            and all(k[v] >= b for v, b in (lo or {}).items())}


@st.composite
def _products(draw):
    """Random parts with negative q-exponents and coefficients, some of
    them large, and a random hi/lo window.  x-keys come from a small range
    so that terms meet, and binomials 1 +- q^e x_v^+-1 often pair up as
    (1 - M)(1 + M), whose M key cancels to zero.  A part may leave some
    variables untouched, and hi and lo bound any subset of the variables,
    lo possibly without hi."""
    nvars = draw(st.integers(1, 5))
    coeff = st.one_of(st.sampled_from([1, -1]), st.integers(-9, 9),
                      st.integers(-10**12, 10**12)).filter(bool)
    qmap = st.dictionaries(st.integers(-5, 5), coeff, min_size=1, max_size=3)
    unit = st.builds(lambda v, s: tuple(s if i == v else 0
                                        for i in range(nvars)),
                     st.integers(0, nvars - 1), st.sampled_from([1, -1]))
    binomial = st.builds(lambda m, e, c: {(0,) * nvars: {0: 1}, m: {e: c}},
                         unit, st.integers(-1, 1), st.sampled_from([1, -1]))

    @st.composite
    def general(draw):
        touched = draw(st.sets(st.integers(0, nvars - 1)))
        key = st.tuples(*[st.integers(-2, 2) if v in touched else st.just(0)
                          for v in range(nvars)])
        return draw(st.dictionaries(key, qmap, min_size=1, max_size=4))

    parts = draw(st.lists(st.one_of(general(), binomial),
                          min_size=1, max_size=5))
    bound = st.dictionaries(st.integers(0, nvars - 1), st.integers(-4, 4))
    return nvars, parts, draw(bound), draw(st.one_of(st.none(), bound))


class TestPackedProduct:
    """_multiply_within packs each x-key into one integer and each x-key's
    q-map into another, and reorders the parts after the first; these hold
    it to the plain dict-of-dicts product in the given order."""

    @settings(max_examples=200, deadline=None)
    @given(_products())
    def test_matches_reference(self, case):
        nvars, parts, hi, lo = case
        got = _multiply_within(nvars, parts, hi, lo)
        assert got == _reference_product(nvars, parts, hi, lo)
        assert all(m and all(m.values()) for m in got.values())

    @settings(max_examples=100, deadline=None)
    @given(_products(), st.randoms(use_true_random=False))
    def test_order_of_later_parts_is_irrelevant(self, case, rnd):
        nvars, parts, hi, lo = case
        rest = parts[1:]
        rnd.shuffle(rest)
        got = _multiply_within(nvars, parts[:1] + rest, hi, lo)
        assert got == _reference_product(nvars, parts, hi, lo)

    def test_variable_without_hi_bound_is_not_capped(self):
        # x1 has no hi bound: its field may take every value up to its
        # range, (1 + x1)(1 + q x1) = 1 + (1 + q) x1 + q x1^2
        parts = [{(0, 0): {0: 1}, (0, 1): {0: 1}},
                 {(0, 0): {0: 1}, (0, 1): {1: 1}}]
        assert _multiply_within(2, parts, {0: 0}, None) == \
            {(0, 0): {0: 1}, (0, 1): {0: 1, 1: 1}, (0, 2): {1: 1}}

    def test_lo_bound_past_every_key(self):
        # (1 + x0) x0^-2 has no term with x0 >= 0: the first part's floor
        # lies above its field's range, and every candidate is pruned
        parts = [{(0,): {0: 1}, (1,): {0: 1}}, {(-2,): {0: 1}}]
        assert _multiply_within(1, parts, {}, {0: 0}) == {}
        assert _multiply_within(1, parts, {}, {0: -1}) == {(-1,): {0: 1}}

    def test_accumulator_budget(self, monkeypatch):
        # (1 + x0)(1 + x1)(1 + x2) has 8 keys; the budget is checked after
        # every accumulator row, so out never runs a whole part past it
        parts = [{(0, 0, 0): {0: 1}}] + [
            {(0, 0, 0): {0: 1}, tuple(int(i == v) for i in range(3)): {0: 1}}
            for v in range(3)]
        assert len(_multiply_within(3, parts, {}, None)) == 8
        monkeypatch.setattr(laurent, "_MAX_PRODUCT_KEYS", 7)
        with pytest.raises(DomainError, match="work budget"):
            _multiply_within(3, parts, {}, None)
        monkeypatch.setattr(laurent, "_MAX_PRODUCT_KEYS", 8)
        assert len(_multiply_within(3, parts, {}, None)) == 8
        # each of the 8 packed values is 1, one bit
        monkeypatch.setattr(laurent, "_MAX_PRODUCT_BITS", 7)
        with pytest.raises(DomainError, match="work budget"):
            _multiply_within(3, parts, {}, None)

    def test_term_product_budget(self, monkeypatch):
        # (1 + x0)^3 as three parts with no window forms 2 + 4 + 6 = 12
        # products of terms; the count is checked before each part.  A
        # window bounds the result, and the budget does not apply
        parts = [{(0,): {0: 1}, (1,): {0: 1}}] * 3
        monkeypatch.setattr(laurent, "_MAX_PRODUCT_PAIRS", 12)
        assert _multiply_within(1, parts, {}, None)[(3,)] == {0: 1}
        monkeypatch.setattr(laurent, "_MAX_PRODUCT_PAIRS", 11)
        with pytest.raises(DomainError, match="products of terms"):
            _multiply_within(1, parts, {}, None)
        with pytest.raises(DomainError, match="products of terms"):
            product(1, *[LaurentPoly._raw(1, parts[0])] * 3)
        assert _multiply_within(1, parts, {0: 1}, None) == \
            {(0,): {0: 1}, (1,): {0: 3}}

    def test_cancelling_keys_are_dropped(self):
        # (1 - q x0)(1 + q x0) = 1 - q^2 x0^2: the x0 key cancels
        parts = [{(0,): {0: 1}, (1,): {1: -1}}, {(0,): {0: 1}, (1,): {1: 1}}]
        assert _multiply_within(1, parts, {}, None) == \
            {(0,): {0: 1}, (2,): {2: -1}}

    def test_coefficient_equal_to_the_l1_bound(self):
        # one key and one q-exponent per part, all of one sign: the single
        # coefficient is the product of the l1 norms, the most a slot holds
        for norms in ((3, 7, 255), (2, 4, 8)):
            for sign in (1, -1):
                parts = [{(i,): {i - 2: sign * c}} for i, c in enumerate(norms)]
                top = sign ** 3 * norms[0] * norms[1] * norms[2]
                assert _multiply_within(1, parts, {}, None) == {(3,): {-3: top}}

    def test_packed_width_budget(self):
        # two keys of one part whose q-exponents lie 10^7 apart: a packed
        # map could span 10^7 slots, so the product is refused unbuilt
        parts = [{(0,): {0: 1}, (1,): {10**7: -1}}]
        assert 3 * (10**7 + 1) > _MAX_PACKED_BITS
        with pytest.raises(DomainError, match="work budget"):
            _multiply_within(1, parts, {}, None)


def _per_factor_expansion(ff, hi, lo):
    """ff.expand_within(hi, lo).maps by the rule of one part per factor:
    each numerator factor multiplied out alone, each denominator factor
    its own geometric series with its own cap from hi alone, every one of
    them a part of one `_multiply_within`.  ff has scalar 1 and no
    collapsed denominator factor."""
    nv = ff.nvars
    parts, dens = [{ff.mono: {0: 1}}], []
    for f in triples(ff):
        if f.exp < 0:
            dens.append(f)
            continue
        part = {}                   # a collapsed factor's keys are all 0
        for t in range(f.exp + 1):
            m = part.setdefault(tuple(x * t for x in f.mono), {})
            m[f.qexp * t] = (-1) ** t * comb(f.exp, t)
        parts.append(part)
    fixed_min = [sum(min(k[v] for k in p) for p in parts) for v in range(nv)]
    small = [next(e for e in f.mono if e) > 0 for f in dens]
    ymono = [f.mono if sm else tuple(-e for e in f.mono)
             for f, sm in zip(dens, small)]
    t0 = [0 if sm else -f.exp for f, sm in zip(dens, small)]
    control = [next(v for v, e in enumerate(f.mono) if e) for f in dens]
    tmax = [None] * len(dens)
    for v in range(nv):
        owned = [i for i, c in enumerate(control) if c == v]
        if not owned:
            continue
        if v not in hi:
            raise TruncationError(f"x{v} has no bound")
        mins = [(t0[i] if y[v] >= 0 else tmax[i]) * y[v]
                for i, y in enumerate(ymono)]
        for i in owned:
            tmax[i] = (hi[v] - fixed_min[v] - sum(mins) + mins[i]) // ymono[i][v]
            if tmax[i] < t0[i]:
                return {}
    for f, sm, cap in zip(dens, small, tmax):
        p, s = -f.exp, f.qexp
        if sm:
            parts.append({tuple(x * t for x in f.mono): {s * t: comb(t + p - 1, p - 1)}
                          for t in range(cap + 1)})
        else:
            parts.append({tuple(-x * t for x in f.mono):
                          {-s * t: (-1) ** p * comb(t - 1, p - 1)}
                          for t in range(p, cap + 1)})
    return _multiply_within(nv, parts, hi, lo)


@st.composite
def _forms_with_runs(draw):
    """A form whose factors share a few monomials, so they fall into runs:
    numerator and denominator runs of small and large monomials, some not
    primitive (x0^2/x1^2), multiplicities 1 to 3 and q-exponents of both
    signs, perhaps a run of collapsed numerator factors; and a window with
    hi alone, hi and lo, or none (numerator factors only)."""
    nv = draw(st.integers(2, 3))
    kind = draw(st.sampled_from(("hi", "hilo", "none")))

    @st.composite
    def monomial(draw):
        i, j = draw(st.lists(st.integers(0, nv - 1), min_size=2, max_size=2,
                             unique=True))
        d = draw(st.sampled_from((1, 1, 2)))
        m = [0] * nv
        m[i] = d
        if draw(st.booleans()):
            m[j] = -d
        return tuple(m)

    monos = draw(st.lists(monomial(), min_size=1, max_size=3))
    exps = (1, 2, 3) if kind == "none" else (1, 2, 3, -1, -2, -3)
    runs = draw(st.lists(st.builds(
        run, st.integers(-3, 3), st.sampled_from(monos),
        st.sampled_from(exps)), min_size=1, max_size=7))
    if draw(st.booleans()):
        runs += draw(st.lists(st.builds(
            run, st.integers(-3, 3).filter(bool), st.just((0,) * nv),
            st.integers(1, 3)), min_size=1, max_size=3))
    runs = draw(st.permutations(runs))
    mono = draw(st.tuples(*[st.integers(-2, 1)] * nv))
    if kind == "none":
        return FactoredForm(nv, mono=mono, runs=runs), {}, None
    hi = {v: draw(st.integers(0, 3)) for v in range(nv)}
    lo = ({v: draw(st.integers(-3, 0)) for v in range(nv)}
          if kind == "hilo" else None)
    return FactoredForm(nv, mono=mono, runs=runs), hi, lo


@st.composite
def _run_groups(draw):
    """A group for `laurent._measure_run` and a cap: members (s, M, e) of one
    monomial, small or large, and one sign of e, from one to three runs of
    one to three factors with q-steps of either sign and |e| up to 3; the
    cap lies past the group's start by at most its degree plus 2 for a
    numerator group, which may truncate it, and by at most 8 for a
    denominator group."""
    mono = draw(st.sampled_from(((1, -1), (-1, 1), (2, -1), (1, 0), (0, -1))))
    sign = draw(st.sampled_from((1, -1)))
    group = []
    for _ in range(draw(st.integers(1, 3))):
        first, step = draw(st.integers(-4, 4)), draw(st.sampled_from((1, -1)))
        e = sign * draw(st.integers(1, 3))
        group += [(first + step * i, mono, e)
                  for i in range(draw(st.integers(1, 3)))]
    total = sum(abs(e) for _, _, e in group)
    room = draw(st.integers(0, total + 2 if sign > 0 else 8))
    return group, _direction(group)[1] + room


def _reference_group(group, cap):
    """The product of the factors (1 - q^s M)^e of group by plain
    {q-exponent: int} arithmetic, each a series in Y (`_direction`) kept to
    the index cap."""
    y, _ = _direction(group)
    acc = {0: {0: 1}}               # index of Y -> q-map
    for s, mono, e in group:
        if e > 0:
            terms = {t: {s * t: (-1) ** t * comb(e, t)} for t in range(e + 1)}
        elif mono == y:             # small: sum C(t + p - 1, p - 1) (q^s M)^t
            terms = {t: {s * t: comb(t - e - 1, -e - 1)}
                     for t in range(cap + 1)}
        else:                       # large: (-1)^p C(t - 1, p - 1) (q^-s/M)^t
            terms = {t: {-s * t: (-1) ** e * comb(t - 1, -e - 1)}
                     for t in range(-e, cap + 1)}
        out = {}
        for t1, m1 in acc.items():
            for t2, m2 in terms.items():
                if t1 + t2 > cap:
                    continue
                o = out.setdefault(t1 + t2, {})
                for e1, c1 in m1.items():
                    for e2, c2 in m2.items():
                        o[e1 + e2] = o.get(e1 + e2, 0) + c1 * c2
        acc = {t: {e: c for e, c in m.items() if c} for t, m in out.items()}
    return {tuple(x * t for x in y): m for t, m in acc.items() if m}


def _decoded(keys, l1, pack):
    """The maps of a measured group, packed at the least width that decodes
    a coefficient of size up to l1."""
    w = l1.bit_length() + 1
    return {k: _unpack(o, v, w) for k, (o, v) in zip(keys, pack(w))}


class TestRunParts:
    """The factors that share a monomial expand together, one part per
    numerator run and one per denominator run."""

    @settings(max_examples=300, deadline=None)
    @given(_run_groups())
    def test_measure_matches_decoded_part(self, case):
        # the l1 norm and q-span measured at q = 1 are those of the maps
        # the pack step builds, and those maps are the group's product
        group, cap = case
        keys, l1, span, pack = laurent._measure_run(group, cap)
        part = _decoded(keys, l1, pack)
        assert part == _reference_group(group, cap)
        assert len(part) == len(keys) and all(part.values())
        qs = [e for m in part.values() for e in m]
        assert l1 == sum(abs(c) for m in part.values() for c in m.values())
        assert span == max(qs) - min(qs)

    def test_width_matches_decoded_maps(self, monkeypatch, capsys):
        # every product of brute (4; 4,4,4,4) and of ct K((3,3),7) --var x0
        # --trunc 6 sets the slot width its groups' decoded maps would
        # set, and gives the same maps
        from ctforge.cli import main
        from ctforge.qdyson import qdyson_lhs_product, qdyson_rhs
        widths, seen = [], []
        monkeypatch.setattr(laurent, "_width", lambda norms, span:
                            widths.append(_width(norms, span)) or widths[-1])
        real = laurent._multiply_within

        def spy(nv, parts, hi, lo, series=()):
            got = real(nv, parts, hi, lo, series)
            w = widths[-1]
            decoded = [_decoded(keys, l1, pack) for keys, l1, _, pack in series]
            assert real(nv, parts + decoded, hi, lo) == got
            seen.append(len(series))
            assert widths[-1] == w
            return got

        monkeypatch.setattr(laurent, "_multiply_within", spy)
        a = (4, 4, 4, 4)
        assert ct_all_bruteforce(qdyson_lhs_product(4, a)) == qdyson_rhs(4, a)
        assert len(seen) == 1
        k33_7 = ("qpoch(q*x1/x0,3)*qpoch(q*x2/x0,3)*qpoch(x1/x2,3)*"
                 "qpoch(q*x2/x1,3)*qpoch(x0/x1,-7)*qpoch(x0/x2,-7)")
        assert main(["ct", "--expr", k33_7, "--var", "x0", "--method", "both",
                     "--trunc", "6"]) == 0
        assert capsys.readouterr().err == ""
        assert len(seen) > 1 and all(seen)

    @settings(max_examples=150, deadline=None)
    @given(_forms_with_runs())
    def test_matches_one_part_per_factor(self, case):
        ff, hi, lo = case
        try:
            want = _per_factor_expansion(ff, hi, lo)
        except TruncationError:
            with pytest.raises(TruncationError):
                ff.expand_within(hi, lo)
            return
        got = ff.expand_within(hi, lo)
        assert got.maps == want and not got.den

    def test_part_counts(self, monkeypatch):
        # brute (4; 4,4,4,4): 20 Pochhammers of 4 binomials and the scalar,
        # 81 parts as factors, 21 as runs.  K((2,2,2), 9): the 3 x0
        # Pochhammers of 9 denominators, 9 of 2 numerators and the scalar,
        # 46 parts as factors, 13 as runs
        from ctforge.qdyson import (qdyson_kernel, qdyson_lhs_product,
                                    qdyson_rhs, rhs_value_at)
        seen = []
        real = laurent._multiply_within
        monkeypatch.setattr(
            laurent, "_multiply_within",
            lambda nv, parts, hi, lo, series=():
            seen.append(len(parts) + len(series))
            or real(nv, parts, hi, lo, series))
        a = (4, 4, 4, 4)
        assert ct_all_bruteforce(qdyson_lhs_product(4, a)) == qdyson_rhs(4, a)
        assert ct_all_series(qdyson_kernel(9, (2, 2, 2))) == \
            rhs_value_at((2, 2, 2), -9)
        assert seen == [21, 13]

    def test_run_term_product_budget(self, monkeypatch):
        # 1/((1 - x0)(1 - q x0)(1 - q^2 x0)) to x0^3 is one run of three
        # series of 4 terms: 4 + 10 + 10 = 24 products of terms, counted
        # under a window too.  A factor alone forms one product per term
        ff = FactoredForm(1, runs=tuple(run(s, (1,), -1) for s in range(3)))
        monkeypatch.setattr(laurent, "_MAX_PRODUCT_PAIRS", 24)
        assert ff.expand_within({0: 3}).coeff_of((3,)) == \
            qbinomial(5, 3)
        monkeypatch.setattr(laurent, "_MAX_PRODUCT_PAIRS", 23)
        with pytest.raises(DomainError, match="products of terms"):
            ff.expand_within({0: 3})
        monkeypatch.setattr(laurent, "_MAX_PRODUCT_PAIRS", 4)
        one = FactoredForm(1, runs=(run(0, (1,), -3),))
        assert len(one.expand_within({0: 3}).terms) == 4

    def test_cap_uses_the_whole_window(self, monkeypatch):
        # x0^-3000/(x0/x1; q)_3 over the all-zero window: x0's bound alone
        # caps the run at 3000, x1's lo bound at 0.  In (x0/x1)_5
        # (q x1/x0)_100 the second run meets x0's lo bound only up to
        # (x0/x1)^5: both runs stop at 5
        from ctforge.parser import lower, parse
        from ctforge.qdyson import qdyson_lhs_product, qdyson_rhs
        caps = []
        real = laurent._measure_run
        monkeypatch.setattr(laurent, "_measure_run", lambda group, cap:
                            caps.append((len(group), cap)) or real(group, cap))
        assert ct_all_series(lower(parse("x0^-3000*qpoch(x0/x1,-3)"))) == \
            QRAT_ZERO
        assert caps == [(3, 0)]
        caps.clear()
        assert ct_all_bruteforce(qdyson_lhs_product(5, (100,))) == \
            qdyson_rhs(5, (100,))
        assert caps == [(5, 5), (100, 5)]


def _two_pass_bounds(nv, fixed_parts, groups, hi, lo):
    """The group caps as two passes found them: an induction over the
    variables that caps each denominator group at its control variable,
    then a pass over the groups that tightens every cap by the window's
    bounds on its variables, given the first pass's caps.  The reference
    that the one-pass `FactoredForm._series_bounds` may only undercut."""
    if not groups:
        return []
    fixed_min, fixed_max = [0] * nv, [0] * nv
    for p in fixed_parts:
        for v, col in enumerate(zip(*p)):
            fixed_min[v] += min(col)
            fixed_max[v] += max(col)
    ymono, t0 = zip(*map(_direction, groups))
    tmax = [sum(e for _, _, e in group) if group[0][2] > 0 else None
            for group in groups]
    for v in range(nv):
        owned = [i for i, group in enumerate(groups)
                 if tmax[i] is None and _control_var(group[0][1]) == v]
        if not owned:
            continue
        if v not in hi:
            raise TruncationError(f"x{v} has no bound")
        mins = [(t0[i] if y[v] >= 0 else tmax[i]) * y[v]
                for i, y in enumerate(ymono)]
        for i in owned:
            cap = (hi[v] - fixed_min[v] - sum(mins) + mins[i]) // ymono[i][v]
            if cap < t0[i]:
                return None
            tmax[i] = cap

    def adds(j, v, most):           # the least or the most group j adds to x_v
        return (tmax[j] if (ymono[j][v] > 0) == most else t0[j]) * ymono[j][v]

    least = [fixed_min[v] + sum(adds(j, v, False) for j in range(len(groups)))
             for v in range(nv)]
    most = [fixed_max[v] + sum(adds(j, v, True) for j in range(len(groups)))
            for v in range(nv)]
    lo = lo or {}
    caps = []
    for i, y in enumerate(ymono):
        cap = tmax[i]
        for v, ev in enumerate(y):
            if ev > 0 and v in hi:
                cap = min(cap, (hi[v] - least[v] + adds(i, v, False)) // ev)
            elif ev < 0 and v in lo:
                cap = min(cap, (most[v] - adds(i, v, True) - lo[v]) // -ev)
        if cap < t0[i]:
            return None
        caps.append(cap)
    return caps


def _with_two_pass_bounds():
    return patch.object(FactoredForm, "_series_bounds",
                        lambda ff, parts, groups, hi, lo: _two_pass_bounds(
                            ff.nvars, parts, groups, hi, lo))


def _bounds_seen(call):
    """call() with both cap rules spying on every `_series_bounds`: the
    result and the (one-pass, two-pass) caps of each product."""
    seen = []
    real = FactoredForm._series_bounds

    def spy(ff, parts, groups, hi, lo):
        old = _two_pass_bounds(ff.nvars, parts, groups, hi, lo)
        seen.append((real(ff, parts, groups, hi, lo), old))
        return seen[-1][0]

    with patch.object(FactoredForm, "_series_bounds", spy):
        return call(), seen


@st.composite
def _forms_for_caps(draw):
    """A form of 2 to 4 variables: numerator and denominator runs of x_i^d /
    x_j^d, small three times as often as large, a monomial offset and
    perhaps a sum of two terms; and a window with hi on every variable and
    lo on some, or on none."""
    nv = draw(st.integers(2, 4))

    @st.composite
    def monomial(draw):
        i, j = sorted(draw(st.lists(st.integers(0, nv - 1), min_size=2,
                                    max_size=2, unique=True)))
        if draw(st.integers(0, 3)) == 0:
            i, j = j, i
        d = draw(st.sampled_from((1, 1, 2)))
        m = [0] * nv
        m[i], m[j] = d, -d
        return tuple(m)

    @st.composite
    def a_run(draw):
        first, n = draw(st.integers(-3, 3)), draw(st.integers(0, 3))
        last = first + draw(st.sampled_from((n, -n)))
        return (draw(monomial()), first, last,
                draw(st.sampled_from((1, 2, -1, -1, -2))))

    runs = draw(st.lists(a_run(), min_size=1, max_size=6))
    mono = draw(st.tuples(*[st.integers(-1, 1)] * nv))
    polys = ()
    if draw(st.booleans()):
        keys = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * nv),
                             min_size=2, max_size=2, unique=True))
        polys = (lp_mono(nv, keys[0]) + lp_mono(nv, keys[1]),)
    hi = {v: draw(st.integers(0, 4)) for v in range(nv)}
    lo = draw(st.none() | st.dictionaries(st.integers(0, nv - 1),
                                          st.integers(-4, 0)))
    return FactoredForm(nv, mono=mono, runs=runs, polys=polys), hi, lo


class TestSeriesBounds:
    """One pass over the variables caps every group, feeding each cap it
    finds into the next: no cap is above the two-pass rule's, and no
    expansion changes."""

    @settings(max_examples=300, deadline=None)
    @given(_forms_for_caps())
    @example((FactoredForm(3, runs=[((-1, 1, 0), 0, 0, 1)] * 4
                           + [((1, 0, -1), 0, 0, 1)],
                           polys=(lp_mono(3, (0, 0, -1)) + LaurentPoly.one(3),)),
              {0: 0, 1: 0, 2: 0}, {2: 0}))   # lo meets a sum's largest key
    def test_caps_never_rise(self, case):
        ff, hi, lo = case
        got, seen = _bounds_seen(lambda: ff.expand_within(hi, lo))
        for new, old in seen:
            if new is not None:         # only the one pass finds more empty
                assert old is not None
                assert all(n <= o for n, o in zip(new, old))
        with _with_two_pass_bounds():
            assert ff.expand_within(hi, lo).maps == got.maps

    @pytest.mark.parametrize("a, new, old", [
        ((1, 2, 1), [0, 2, 2, 0, 1, 2, 4, 7], [0, 2, 2, 0, 1, 2, 4, 9]),
        ((1, 1, 2), None, [0, 0, 0, 0, 2, 2, 4, 4]),
    ])
    def test_ct_products_are_tightened(self, bench_cases, a, new, old):
        # among the partial-fraction summands of the benchmark's ct
        # K(a,4) --var x0 --trunc 1, over the window {0: 0, 1: 1, 2: 1,
        # 3: 1}, one group's cap falls from 9 to 7, or a window is found
        # empty before any group is built
        from ctforge.cli import main
        argv = ["ct", "--expr", bench_cases.kernel_expr(a, 4), "--var", "x0",
                "--method", "both", "--trunc", "1"]
        rc, seen = _bounds_seen(lambda: main(argv))
        assert rc == 0
        assert (new, old) in seen
        for n, o in seen:
            assert n is None or all(map(int.__le__, n, o))

    def test_empty_before_the_unbounded_variable(self):
        # x0^5 (1 - x0/x1) / (1 - x1/x2) with hi on x0 alone: the
        # numerator group already leaves x0 above 0, so the one pass finds
        # the window empty at x0, before x1's missing bound; the two
        # passes raised at x1
        ff = FactoredForm(3, mono=(5, 0, 0),
                          runs=(run(0, (1, -1, 0)), run(0, (0, 1, -1), -1)))
        assert ff.expand_within({0: 0}).is_zero()
        with _with_two_pass_bounds(), pytest.raises(TruncationError):
            ff.expand_within({0: 0})
        with pytest.raises(TruncationError):
            ff.expand_within({0: 5})


class TestPointWindow:
    """`ct --var` expands its series side with lo = 0 on the extraction
    variable as well as hi = 0: the same maps, and the same str, as the
    window with hi alone, its terms then kept where x_var is 0."""

    @staticmethod
    def _check(ff, hi, var):
        got = ff.expand_within(hi, {var: 0})
        want = ff.expand_within(hi).free_of(var)
        assert got.maps == want.maps
        assert str(got) == str(want)

    def test_ct_kernels(self, bench_cases):
        from ctforge.parser import lower, parse
        for a, b, trunc in (((3, 3), 7, 6), ((2, 1, 1), 4, 1)):
            for order in sorted(set(permutations(a))):
                ff = lower(parse(bench_cases.kernel_expr(order, b)), 1)
                hi = {v: trunc for v in range(ff.nvars)}
                hi[0] = 0
                self._check(ff, hi, 0)

    @settings(max_examples=200, deadline=None)
    @given(_forms_for_caps(), st.data())
    def test_random_forms(self, case, data):
        ff, hi, _ = case
        var = data.draw(st.integers(0, ff.nvars - 1))
        self._check(ff, {**hi, var: 0}, var)


class TestPackedPowers:
    """One product over Z[q]: `qfield._qprod` raises a map of multiplicity
    k as one packed power, `QRat ** n` raises a canonical pair's two sides
    through it with no reduction, and `qfield._width` refuses a product
    before it is formed."""

    @settings(max_examples=80, deadline=None)
    @given(_coeff, _coeff, st.integers(-6, 12))
    def test_power_is_repeated_product(self, a, b, n):
        # fractional coefficients, monomial and non-monomial denominators
        x = a * b
        if x.is_zero() and n <= 0:
            return
        acc = QRAT_ONE
        for _ in range(abs(n)):
            acc = acc * x
        assert x ** n == (acc if n >= 0 else acc.inverse())

    def test_power_makes_no_gcd(self, monkeypatch):
        xs = [QRat(QPoly({0: Fraction(2, 3), 1: -1, 3: 5})),
              QRat(QPoly({0: Fraction(1, 2), 2: 1}), QPoly({0: 1, 3: -1})),
              QRat.qpow(-2).scaled(Fraction(-3, 4)) + QRat.qpow(1)]
        want = {(i, n): x ** n for i, x in enumerate(xs) for n in range(-6, 13)}
        calls = []
        gcd = QPoly.gcd
        monkeypatch.setattr(QPoly, "gcd", staticmethod(
            lambda a, b: calls.append(1) or gcd(a, b)))
        monkeypatch.setattr(qfield, "_canonicalize",
                            lambda *a: calls.append(1))
        monkeypatch.setattr(QRat, "__mul__", lambda *a: calls.append(1))
        for (i, n), w in want.items():
            assert xs[i] ** n == w
        assert calls == []

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        st.dictionaries(st.integers(-4, 6), st.integers(-9, 9).filter(bool),
                        min_size=1, max_size=4),
        st.integers(1, 5)), max_size=4))
    def test_pairs_equal_copies(self, pairs):
        copies = [(m, 1) for m, k in pairs for _ in range(k)]
        ref = {0: 1}
        for m, _ in copies:
            out = {}
            for e1, c1 in ref.items():
                for e2, c2 in m.items():
                    out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
            ref = {e: c for e, c in out.items() if c}
        assert _qprod(pairs) == _qprod(copies) == ref

    def test_width_lower_bound_is_checked_first(self, monkeypatch):
        # w = (3^k).bit_length() + 1 against a budget of 100 bits over one
        # slot: k = 62 fits, k = 63 is refused by its exact width, and
        # k = 99 by the lower bound k + 2 alone, which says so
        monkeypatch.setattr(qfield, "_MAX_PACKED_BITS", 100)
        assert _width([(3, 62)], 0) == (3 ** 62).bit_length() + 1 == 100
        with pytest.raises(DomainError, match="too large: 101-bit"):
            _width([(3, 63)], 0)
        with pytest.raises(DomainError, match="at least 101-bit"):
            _width([(3, 99)], 0)
        # 3^(10^9) would never finish: it is refused unformed
        monkeypatch.undo()
        with pytest.raises(DomainError, match="at least 1000000002-bit"):
            _width([(3, 10 ** 9)], 0)

    def test_factored_denominator_is_one_power(self):
        # 1/(1 - q)^300 reads back through one packed power of 1 - q
        ff = FactoredForm(1, runs=(run(1, (0,), -300),))
        want = QRat(QPoly({0: 1, 1: -1})) ** -300
        assert ff.expand_within({0: 0}).constant_coeff() == want
        assert str(ff) == str(want)


class TestWorkBudget:
    def test_binomial_exponent(self):
        def expand(exp):
            f = run(0, (1, -1), exp)
            return FactoredForm(2, runs=(f,)).expand_exact().terms
        with pytest.raises(DomainError, match="work budget"):
            expand(_MAX_POWER + 1)
        assert len(expand(3)) == 4

    def test_powers(self):
        poly = FactoredForm(1, polys=(lp_mono(1, {0: 1}) + LaurentPoly.one(1),))
        scalar = FactoredForm(1, QRat(QPoly({0: 1, 1: 1})))
        for ff in (poly, scalar):
            with pytest.raises(DomainError, match="work budget"):
                ff ** (_MAX_POWER + 1)
        # a form holds at most _MAX_POWER sums, however they were joined
        half = poly ** (_MAX_POWER // 2)
        assert len(half.polys) == _MAX_POWER // 2
        assert len((half * half).polys) == _MAX_POWER
        with pytest.raises(DomainError, match="work budget"):
            half * half * poly
        with pytest.raises(DomainError, match="work budget"):
            half ** 3
        with pytest.raises(DomainError, match="invert a sum"):
            poly ** -1
        # powers of monomials and of +-q^k cost nothing and are not limited
        q = FactoredForm.monomial(1, {0: 1}, QRat.qpow(1).scaled(-1))
        assert (q ** (10 * _MAX_POWER)).scalar == QRat.qpow(10 * _MAX_POWER)

    def test_exponent_overflow_of_a_series(self):
        # the largest key of the series of 1/(1 - x0 x1^-10^8) to x0^t is
        # (t, -t * 10^8): one check of it refuses t = 10
        ff = FactoredForm(2, runs=(run(0, (1, -10**8), -1),))
        assert len(ff.expand_within({0: 9}).terms) == 10
        with pytest.raises(DomainError, match="exponent overflow"):
            ff.expand_within({0: 10})
        def expand(exp):
            f = run(0, (1, -10**8), exp)
            return FactoredForm(2, runs=(f,)).expand_exact().terms
        with pytest.raises(DomainError, match="exponent overflow"):
            expand(10)
        assert len(expand(9)) == 10

    def test_series_length(self, monkeypatch):
        # a series part is refused unbuilt when it would hold more terms
        # than the accumulator may: 1/(1 - x0) to x0^t has t + 1 terms,
        # 1/(1 - x1/x0)^2 to x0^t has t - 1 (it starts at index 2)
        monkeypatch.setattr(laurent, "_MAX_PRODUCT_KEYS", 5)
        small = FactoredForm(1, runs=(run(0, (1,), -1),))
        large = FactoredForm(2, runs=(binomial(2, 0, 1, 0, -2),))
        for ff, t in ((small, 4), (large, 6)):
            window = {v: t for v in range(ff.nvars)}
            assert len(ff.expand_within(window).terms) == 5
            with pytest.raises(DomainError, match="series of 6 terms"):
                ff.expand_within({v: t + 1 for v in range(ff.nvars)})

    def test_pochhammer_counts(self):
        # (q)_203 has degree 20706 and l1 norm up to 2^203: as a packed
        # product of binomials it would need 205 * 20707 bits
        assert 205 * 20707 > _MAX_PACKED_BITS > 204 * 20504
        with pytest.raises(DomainError, match="work budget"):
            qpoch_qrat(1, 203)
        with pytest.raises(DomainError, match="work budget"):
            qpoch_qrat(-1, -203)
        with pytest.raises(DomainError, match="count"):
            qpochhammer(2, {0: 1, 1: -1}, _MAX_POWER + 1)
        assert qpoch_qrat(-5, 10 ** 15).is_zero()   # zero before the budget
        assert qpoch_qrat(1, 100) == qfactorial(100)


class TestDegree:
    def test_factor_degree_convention(self):
        # 1 - x1/x0 = (x0 - x1)/x0: degree 0 in x0, 1 in x1
        f = FactoredForm(2, runs=(binomial(2, 0, 1, 0),))
        assert f.degree_in(0) == 0
        assert f.degree_in(1) == 1

    def test_kernel_degree(self):
        from ctforge.qdyson import qdyson_kernel
        assert qdyson_kernel(3, (1, 1)).degree_in(0) == -6
        assert qdyson_kernel(2, (2, 1, 2)).degree_in(0) == -6

    def test_monomial_and_sums(self):
        f = FactoredForm.monomial(2, {0: -2})
        assert f.degree_in(0) == -2
        g = FactoredForm(2, polys=(lp_mono(2, {0: 3}) + LaurentPoly.one(2),))
        assert g.degree_in(0) == 3
        # the sums' top degrees add up
        h = g * g * FactoredForm(2, polys=(lp_mono(2, {0: -1, 1: 4}),))
        assert h.degree_in(0) == 5 and h.degree_in(1) == 4


def _greedy_runs(factors):
    """The maximal runs (M, first, last, e) of a list of (q-exponent,
    monomial, exponent) triples, factor by factor: a factor joins the last
    run when it has the run's monomial and exponent and continues its
    q-exponents by one step of the run's sign (either sign after one
    factor)."""
    runs = []
    for s, mono, e in factors:
        if runs:
            m, first, last, e2 = runs[-1]
            step = (last > first) - (last < first)
            if (m, e2) == (mono, e) and abs(s - last) == 1 \
                    and step in (0, s - last):
                runs[-1] = (m, first, s, e)
                continue
        runs.append((mono, s, s, e))
    return tuple(runs)


# few monomials and q-exponents, so that factors meet in runs of either
# step, in pieces that merge, and collapse
_RUN_MONOS = ((1, -1, 0), (0, 1, -1), (1, 0, -1), (0, 0, 0))
_factor_triples = st.lists(st.tuples(
    st.integers(-3, 3), st.sampled_from(_RUN_MONOS),
    st.sampled_from((1, 1, -1, 2))).filter(lambda f: f[0] or any(f[1])),
    max_size=12)


class TestRunEncoding:
    """A form stores its factors as maximal runs: every operation keeps the
    runs those of its factor sequence, which is the factor sequence the
    same operation makes one factor at a time."""

    @settings(max_examples=300, deadline=None)
    @given(_factor_triples, _factor_triples)
    def test_construction_and_product(self, fs, gs):
        ff = FactoredForm(3, runs=[run(*f) for f in fs])
        gg = FactoredForm(3, runs=[run(*f) for f in gs])
        assert triples(ff) == fs and ff.runs == _greedy_runs(fs)
        prod = ff * gg
        assert triples(prod) == fs + gs
        assert prod.runs == _greedy_runs(fs + gs)
        cube = ff ** 3
        assert triples(cube) == [(s, m, 3 * e) for s, m, e in fs]
        assert cube.runs == _greedy_runs(triples(cube))
        if fs:
            last = fs[-1]
            grown = gg * FactoredForm(3, runs=[run(*last)])
            assert grown.runs == _greedy_runs(gs + [last])

    @settings(max_examples=300, deadline=None)
    @given(_factor_triples, st.data())
    def test_drop_factors(self, fs, data):
        ff = FactoredForm(3, runs=[run(*f) for f in fs])
        if not ff.runs:
            return
        # one factor out of each of some runs, as the pole deletions do
        picks = data.draw(st.sets(st.integers(0, len(ff.runs) - 1),
                                  min_size=1))
        cuts, gone, start = {}, set(), 0
        for i, (mono, first, last, exp) in enumerate(ff.runs):
            length = abs(last - first) + 1
            if i in picks:
                j = data.draw(st.integers(0, length - 1))
                cuts[i] = triples(ff)[start + j].qexp
                gone.add(start + j)
            start += length
        want = [f for i, f in enumerate(fs) if i not in gone]
        out = ff.drop_factors(cuts)
        assert triples(out) == want and out.runs == _greedy_runs(want)

    @settings(max_examples=300, deadline=None)
    @given(_factor_triples, st.integers(-3, 3), st.integers(-3, 3))
    def test_substitute(self, fs, s0, s1):
        from ctforge.errors import UncancelledPoleError
        ff = FactoredForm(3, runs=[run(*f) for f in fs])
        shifts = {0: s0, 1: s1}
        want, zero, pole = [], False, False
        for s, mono, e in fs:
            s += s0 * mono[0] + s1 * mono[1]
            mono = (0, 0, sum(mono))
            if not any(mono) and s == 0:
                pole = pole or e < 0
                zero = True
            want.append((s, mono, e))
        if pole:
            with pytest.raises(UncancelledPoleError):
                ff.substitute(shifts, 2)
            return
        out = ff.substitute(shifts, 2)
        if zero:
            assert out.is_zero()
        else:
            assert triples(out) == want and out.runs == _greedy_runs(want)

    def test_run_steps(self):
        # 1, 2, 3, 2: the split from the left is [1, 2, 3], [2]; taking 2
        # out leaves 1, 3, 2, which is [1], [3, 2]
        x = (1, -1)
        ff = FactoredForm(2, runs=[run(s, x) for s in (1, 2, 3, 2)])
        assert ff.runs == ((x, 1, 3, 1), (x, 2, 2, 1))
        assert ff.drop_factors({0: 2}).runs == ((x, 1, 1, 1), (x, 3, 2, 1))
        # a product splits across the seam from the left too: [1, 2] times
        # [3, 2] is [1, 2, 3], [2], and [1] times [2, 1, 0] is [1, 2], [1, 0]
        left = FactoredForm(2, runs=[run(s, x) for s in (1, 2)])
        right = FactoredForm(2, runs=[run(s, x) for s in (3, 2)])
        assert right.runs == ((x, 3, 2, 1),)
        assert (left * right).runs == ((x, 1, 3, 1), (x, 2, 2, 1))
        one = FactoredForm(2, runs=[run(1, x)])
        down = FactoredForm(2, runs=[run(s, x) for s in (2, 1, 0)])
        assert (one * down).runs == ((x, 1, 2, 1), (x, 1, 0, 1))
        # a Pochhammer is one run, and a negative one runs downwards
        assert qpochhammer(2, x, 4, qshift=-1).runs == ((x, -1, 2, 1),)
        assert qpochhammer(2, x, -3).runs == ((x, -1, -3, -1),)
        with pytest.raises(DomainError):
            ff.drop_factors({1: 5})


class TestFactoredFormAlgebra:
    def test_pow_inverts_factors(self):
        ff = FactoredForm(2, runs=(binomial(2, 1, 0, 1),)) ** -1
        assert ff.runs == (binomial(2, 1, 0, 1, -1),)

    def test_substitute_collapse_to_scalar(self):
        # (1 - q^2 x0/x1) with x0 -> x1 q: 1 - q^3
        ff = FactoredForm(2, runs=(binomial(2, 2, 0, 1),))
        out = ff.substitute({0: 1}, 1)
        assert ct_all_series(out) == one_minus_qpow(3)

    def test_collapsed_binomial_stays_a_factor(self):
        # the same collapse keeps (1 - q^3) as a variable-free factor
        ff = FactoredForm(2, runs=(binomial(2, 2, 0, 1),))
        out = ff.substitute({0: 1}, 1)
        assert out.runs == (run(3, (0, 0)),)
        assert ct_all_series(out) == one_minus_qpow(3)
        assert str(out) == "1 - q^3"

    def test_collapsed_denominator_factor(self):
        # 1/((1 - q x0/x1)(1 - q^2)): one pole in x0; (1 - q^2)^-1 is a scalar
        pole, c = binomial(2, 1, 0, 1, -1), run(2, (0, 0), -1)
        ff = FactoredForm(2, runs=(pole, c))
        assert ff.has_poles() and not FactoredForm(2, runs=(c,)).has_poles()
        (label, summand), = ct_factored_pfrac_labeled(ff, 0)
        assert label == (1, -1) and summand.runs == (c,)
        value = one_minus_qpow(2).inverse()
        assert ct_all_series(summand) == value and ct_all_series(ff) == value

    def test_substitute_zero_numerator_kills_form(self):
        ff = FactoredForm(2, runs=(binomial(2, 1, 1, 0),))
        assert ff.substitute({1: -1}, 0).is_zero()

    def test_substitute_zero_denominator_raises(self):
        from ctforge.errors import UncancelledPoleError
        ff = FactoredForm(2, runs=(binomial(2, 1, 1, 0, -1),))
        with pytest.raises(UncancelledPoleError):
            ff.substitute({1: -1}, 0)

    def test_substitute_zero_denominator_wins_in_any_order(self):
        # x1 := x0 q^-1, x2 := x0 q^-2 zeroes (1 - q x1/x0) and
        # (1 - q^2 x2/x0)^-1 alike: the pole decides, whichever comes first
        from ctforge.errors import UncancelledPoleError
        num = binomial(3, 1, 1, 0)
        den = binomial(3, 2, 2, 0, -1)
        for factors in ((num, den), (den, num)):
            ff = FactoredForm(3, runs=factors)
            with pytest.raises(UncancelledPoleError):
                ff.substitute({1: -1, 2: -2}, 0)

    def test_substitute_maps_several_variables_at_once(self):
        # x0 := x2 q^2, x1 := x2 q in x0 * x1^-1 * (1 - x0/x1) * (1 - x1/x2)
        ff = FactoredForm(3, mono=(1, -1, 0), runs=(
            binomial(3, 0, 0, 1), binomial(3, 0, 1, 2)))
        out = ff.substitute({0: 2, 1: 1}, 2)
        assert out.mono == (0, 0, 0) and out.scalar == QRat.qpow(1)
        assert triples(out) == [(1, (0, 0, 0), 1)] * 2
        # a sum x0 - q x1 becomes q^2 x2 - q^2 x2 = 0, and the form is 0
        x0, x1 = lp_mono(3, {0: 1}), lp_mono(3, {1: 1})
        zero = x0 - lp_mono(3, {1: 1}, QRat.qpow(1))
        g = FactoredForm(3, polys=(x0 + x1, zero))
        assert g.substitute({0: 2, 1: 1}, 2).is_zero()
        # and x0 + x1 becomes (q^2 + q) x2, each sum moved on its own
        h = FactoredForm(3, polys=(x0 + x1, x0)).substitute({0: 2, 1: 1}, 2)
        assert h.polys == (lp_mono(3, {2: 1}, QRat(QPoly({1: 1, 2: 1}))),
                           lp_mono(3, {2: 1}, QRat.qpow(2)))
        with pytest.raises(DomainError):
            ff.substitute({0: 1, 2: 1}, 2)


class TestCollapsedRuns:
    """Collapsed runs (1 - q^s)^e, with the all-zero monomial, expand and
    print as their value moved into the scalar."""

    Z = (0, 0)
    COLLAPSED = [
        [],
        [(Z, 1, 3, 1)],                     # (1 - q)(1 - q^2)(1 - q^3)
        [(Z, 3, 1, 2)],                     # the same, descending, squared
        [(Z, -3, -1, 1), (Z, -1, -2, 3)],   # negative s, both steps
        [(Z, 2, 4, -1)],
        [(Z, 4, 2, -2), (Z, -2, -1, -1)],
        [(Z, 1, 2, 2), (Z, -1, -3, -2)],
    ]
    VARIABLE = [
        [],
        [binomial(2, 1, 0, 1), binomial(2, 0, 1, 0, 2)],
        [binomial(2, 2, 0, 1, -1), binomial(2, -1, 1, 0)],
    ]
    WINDOWS = [({}, None), ({0: 2, 1: 2}, None),
               ({0: 1, 1: 3}, {0: -1, 1: -2}), ({0: -9}, None)]

    @staticmethod
    def _value(run_):
        _, first, last, e = run_
        return qpoch_qrat(min(first, last), abs(last - first) + 1) ** e

    def test_grid_matches_the_scalar(self):
        x0, x1 = lp_mono(2, {0: 1}), lp_mono(2, {1: 1}, QRat.qpow(1))
        scalars = (QRAT_ONE, QRat.from_int(-3) / one_minus_qpow(2))
        checked = 0
        for collapsed in self.COLLAPSED:
            value = QRAT_ONE
            for r in collapsed:
                value = value * self._value(r)
            for variable in self.VARIABLE:
                for scalar in scalars:
                    for polys in ((), (x0 + x1,)):
                        ff = FactoredForm(2, scalar, (1, -1),
                                          collapsed + variable, polys)
                        moved = FactoredForm(2, scalar * value, (1, -1),
                                             variable, polys)
                        assert len(ff.runs) == len(collapsed + variable)
                        assert str(ff) == str(moved)
                        for hi, lo in self.WINDOWS:
                            if not hi and ff.has_poles():
                                continue
                            got = ff.expand_within(hi, lo)
                            want = moved.expand_within(hi, lo)
                            assert got == want, (ff, hi, lo)
                            assert str(got) == str(want)
                            checked += not got.is_zero()
        assert checked > 100

    def test_collapsed_powers_keep_the_power_budget(self):
        ff = FactoredForm(1, runs=[((0,), 7, 7, _MAX_POWER + 1)])
        with pytest.raises(DomainError, match="power or count"):
            ff.expand_within({})
        # the width of the packed product is checked as for any part
        ff = FactoredForm(1, runs=[((0,), 7, 7, 2000)])
        with pytest.raises(DomainError, match="expansion too large"):
            ff.expand_within({})
        # a window that no group can reach is 0 before the collapsed
        # product is formed
        ff = FactoredForm(1, mono=(1,), runs=[*ff.runs, ((1,), 0, 0, 1)])
        assert ff.expand_within({0: -1}).is_zero()


class TestSectionTwoIdentities:
    """Module-scale runs of the classical identity checks (the acceptance
    suite runs the full stated grids)."""

    def test_product_identity_small_grid(self):
        for l in range(3):
            for m in range(3):
                assert product_identity_check(l, m)
                assert product_identity_check(l, m, i=1, j=0)

    def test_product_identity_trivial(self):
        assert product_identity_check(0, 0)

    def test_finite_qbinomial(self):
        for n in range(-3, 4):
            assert finite_qbinomial_check(n, max_deg=6)

    def test_qbinomial_theorem(self):
        assert qbinomial_theorem_check(max_deg=5)

    def test_additivity(self):
        for n in (-2, 0, 3):
            for m in (-3, -1, 2):
                assert pochhammer_additivity_check(n, m, max_deg=6)
                assert pochhammer_additivity_check(n, m, max_deg=6, two_var=True)
