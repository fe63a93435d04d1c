"""Laurent polynomials, factored forms, and the windowed expansion engine."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from ctforge import laurent
from ctforge.ctengine import ct_all_series, ct_factored_pfrac_labeled
from ctforge.errors import (DomainError, NotPolynomialError,
                            ProofInvariantError, ShapeError, TruncationError)
from ctforge.identities import (finite_qbinomial_check,
                                pochhammer_additivity_check,
                                product_identity_check,
                                qbinomial_theorem_check)
from ctforge.laurent import (_MAX_POWER, Factor, FactoredForm, LaurentPoly,
                             _move, _multiply_within, qbinomial, qfactorial,
                             qpoch_qrat, qpoch_quotient, qpochhammer)
from ctforge.qfield import _MAX_PACKED_BITS, QPoly, QRat, QRAT_ONE, QRAT_ZERO


def lp_mono(nvars, exps, coeff=QRAT_ONE):
    return LaurentPoly.monomial(nvars, exps, coeff)


class TestLaurentPolyRing:
    def test_product_example(self):
        # (1 - x0/x1)(1 - q x1/x0) = 1 + q - x0/x1 - q x1/x0
        a = FactoredForm(2, factors=(Factor.binomial(2, 0, 0, 1),)).expand_exact()
        b = FactoredForm(2, factors=(Factor.binomial(2, 1, 1, 0),)).expand_exact()
        prod = a * b
        assert prod.coeff_of((0, 0)) == QRat(QPoly({0: 1, 1: 1}))
        assert prod.coeff_of((1, -1)) == QRat.from_int(-1)
        assert prod.coeff_of((-1, 1)) == QRat.qpow(1).scaled(-1)
        assert len(prod.terms) == 3

    def test_additive_inverse(self):
        a = lp_mono(2, {0: 2, 1: -1}) + lp_mono(2, {1: 3}, QRat.qpow(2))
        assert (a + (-a)).is_zero()

    def test_one_is_identity(self):
        a = lp_mono(3, {0: 1, 2: -2}, QRat.from_int(5))
        assert a * LaurentPoly.one(3) == a

    def test_mixed_orders_rejected(self):
        with pytest.raises(DomainError):
            LaurentPoly.one(2) + LaurentPoly.one(3)

    def test_sparsity_canonical(self):
        a = lp_mono(1, {0: 1})
        assert (a - a).terms == {}

    def test_pow_is_repeated_product(self):
        a = (lp_mono(2, {0: 1, 1: -1}, QRat(QPoly({0: 1}), QPoly({0: 1, 1: -1})))
             + lp_mono(2, {1: 2}, QRat.qpow(-1)) + LaurentPoly.one(2))
        acc = LaurentPoly.one(2)
        for n in range(7):
            assert a ** n == acc
            acc = acc * a


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
        out = _Ref({})
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                out = out + _Ref({tuple(x + y for x, y in zip(k1, k2)): v1 * v2})
        return out

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
    .times_qpow(e) * (QRat.one_minus_qpow(k).inverse() if k else QRAT_ONE),
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
        self._same(a * b, ra * rb)
        for n in range(4):
            self._same(a ** n, ra ** n)
        for v in range(3):
            self._same(a.free_of(v), ra.free_of(v))

    @settings(max_examples=80, deadline=None)
    @given(_terms, _terms)
    def test_equality(self, f, g):
        a, b = LaurentPoly(3, f), LaurentPoly(3, g)
        assert (a == b) == (_Ref(f).terms == _Ref(g).terms)
        # the same values over other denominators compare equal
        assert (a + b) - b == a and a * b == b * a
        assert (a + b) * (a - b) == a * a - b * b

    @settings(max_examples=80, deadline=None)
    @given(_terms, st.integers(-2, 2), st.integers(-2, 2))
    def test_substitute(self, f, s0, s1):
        got = FactoredForm(3, poly=LaurentPoly(3, f)).substitute(
            {0: s0, 1: s1}, 2)
        want = _Ref(f).substitute({0: s0, 1: s1}, 2)
        if got.is_zero():
            assert want.terms == {}
        else:
            assert got.expand_exact().terms == want.terms

    def test_reading_the_length_reduces_nothing(self, monkeypatch):
        # a traced run counts len(terms) after every expansion; it must not
        # count reductions an untraced run never makes
        ff = FactoredForm(2, factors=(Factor.binomial(2, 1, 0, 1, -1),
                                      Factor(2, (0, 0), -1)))
        lp = ff.expand_within({0: 3})
        made = []
        monkeypatch.setattr(QRat, "__init__", lambda *a: made.append(a))
        assert len(lp.terms) == 4 and made == []
        assert (lp == lp + LaurentPoly.zero(2)) and made == []


class TestPochhammer:
    def test_positive_unfolds(self):
        # (z)_2 = (1 - z)(1 - qz), z = x0
        p = qpochhammer(1, {0: 1}, 2)
        assert sorted(f.qexp for f in p.factors) == [0, 1]
        assert all(f.exp == 1 for f in p.factors)

    def test_empty_product(self):
        p = qpochhammer(1, {0: 1}, 0)
        assert p.factors == () and p.expand_exact() == LaurentPoly.one(1)

    def test_negative_reciprocal(self):
        # (z)_{-2} = 1/((1 - z q^-1)(1 - z q^-2))
        p = qpochhammer(1, {0: 1}, -2)
        assert sorted(f.qexp for f in p.factors) == [-2, -1]
        assert all(f.exp == -1 for f in p.factors)

    def test_scalar_base(self):
        assert qpoch_qrat(1, 2) == QRat.one_minus_qpow(1) * QRat.one_minus_qpow(2)
        assert qfactorial(0) == QRAT_ONE

    @settings(max_examples=150, deadline=None)
    @given(st.integers(-12, 12), st.integers(-9, 9))
    def test_scalar_base_matches_repeated_products(self, qexp, count):
        # the packed product against one QRat product per factor
        want = QRAT_ONE
        if count >= 0:
            for m in range(count):
                want = want * QRat.one_minus_qpow(qexp + m)
        elif all(qexp - m for m in range(1, -count + 1)):
            for m in range(1, -count + 1):
                want = want * QRat.one_minus_qpow(qexp - m).inverse()
        else:
            with pytest.raises(DomainError, match="zero factor"):
                qpoch_qrat(qexp, count)
            return
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
                assert qbinomial(n, m) == qfactorial(n) / (
                    qfactorial(m) * qfactorial(n - m))


class TestPochhammerQuotient:
    """(q^s)_A / ((q)_{p_1} ... (q)_{p_k}) as one packed exact division."""

    def test_matches_division_in_qrat(self):
        for parts in ((), (1,), (2, 1), (3, 3), (2, 2, 2), (1, 0, 4)):
            count = sum(parts)
            for s in range(-count - 5, 6):
                want = qpoch_qrat(s, count)
                for p in parts:
                    want = want / qfactorial(p)
                got = qpoch_quotient(s, parts)
                assert got == want and str(got) == str(want), (s, parts)

    def test_negative_top_is_laurent(self):
        # [-1, 2] = q^-3 and [-3, 2] = q^-7 [4, 2]
        assert qbinomial(-1, 2) == QRat.qpow(-3)
        assert qbinomial(-3, 2) == qbinomial(4, 2) * QRat.qpow(-7)

    def test_too_narrow_slots_are_caught(self, monkeypatch):
        # with every coefficient bounded by 1, [6, 3] (which has a 3)
        # decodes wrongly, and the check D Q = N refuses it
        monkeypatch.setattr(laurent, "comb", lambda n, k: 1)
        assert qbinomial(3, 1) == QRat(QPoly({0: 1, 1: 1, 2: 1}))
        with pytest.raises(ProofInvariantError):
            qbinomial(6, 3)

    def test_counts_are_nonnegative(self):
        with pytest.raises(DomainError):
            qpoch_quotient(1, (2, -1))


class TestMonomialClass:
    def test_small(self):
        f = Factor.binomial(3, 3, 0, 2)
        assert f.is_small() and f.pair_vars() == (0, 2)

    def test_large(self):
        f = Factor.binomial(3, 0, 2, 0)
        assert not f.is_small() and f.pair_vars() == (2, 0)

    def test_same_variable_rejected(self):
        with pytest.raises(ShapeError):
            Factor(0, (0, 0))
        with pytest.raises(ShapeError):
            Factor(0, (1, -1, 1)).pair_vars()
        with pytest.raises(ShapeError):
            Factor(0, (2, -2)).pair_vars()


class TestExpansion:
    def test_small_series(self):
        # 1/(1 - q x0/x1) to x0-degree 2
        f = FactoredForm(2, factors=(Factor.binomial(2, 1, 0, 1, -1),))
        lp = f.expand_within({0: 2})
        assert lp.terms == {(0, 0): QRAT_ONE,
                            (1, -1): QRat.qpow(1),
                            (2, -2): QRat.qpow(2)}

    def test_large_series(self):
        # 1/(1 - q x1/x0): the naive geometric series is invalid; the valid
        # one starts at x0^1 with negated reciprocal coefficients
        f = FactoredForm(2, factors=(Factor.binomial(2, 1, 1, 0, -1),))
        lp = f.expand_within({0: 2})
        assert lp.terms == {(1, -1): QRat.qpow(-1).scaled(-1),
                            (2, -2): QRat.qpow(-2).scaled(-1)}

    def test_numerator_truncation(self):
        f = FactoredForm(2, factors=(Factor.binomial(2, 0, 0, 1),))
        assert f.expand_within({0: 0}) == LaurentPoly.one(2)

    def test_unbounded_control_var_rejected(self):
        f = FactoredForm(2, factors=(Factor.binomial(2, 0, 0, 1, -1),))
        with pytest.raises(TruncationError):
            f.expand_within({1: 3})

    def test_expand_exact_rejects_denominators(self):
        f = FactoredForm(2, factors=(Factor.binomial(2, 0, 0, 1, -1),))
        with pytest.raises(NotPolynomialError):
            f.expand_exact()

    def test_repeated_pole_series(self):
        # 1/(1 - x0)^2 = sum (l+1) x0^l
        f = FactoredForm(1, factors=(Factor(0, (1,), -2),))
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
            ff = FactoredForm.one(nv)
            for _ in range(rng.randint(1, 2)):
                i, j = rng.sample(range(nv), 2)
                ff = ff.times_factor(
                    Factor.binomial(nv, rng.randint(-2, 2), i, j, 1))
            for _ in range(rng.randint(1, 3)):
                i, j = rng.sample(range(nv), 2)
                ff = ff.times_factor(
                    Factor.binomial(nv, rng.randint(-2, 2), i, j, -1))
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
                ff = FactoredForm.one(nv)
                for _ in range(rng.randint(1, 3)):
                    i, j = rng.sample(range(nv), 2)
                    exp = rng.choice((1, 1, -1))
                    ff = ff.times_factor(
                        Factor.binomial(nv, rng.randint(-2, 2), i, j, exp))
                return ff
            f, g = rand_ff(), rand_ff()
            direct = (f * g).expand_within(window)
            for pad in (8, 12):
                wide = {v: b + pad for v, b in window.items()}
                split = (f.expand_within(wide) * g.expand_within(wide)) \
                    .restrict(hi=window)
                assert split == direct


class TestIntegerRing:
    """expand_within multiplies integer maps over Z[q, 1/q]; these check the
    boundary to Q(q) against references built from QRat LaurentPolys."""

    def test_poly_prefix_with_rational_coefficients(self):
        # 1/(1 - q) and 1/6 are not in Z[q, 1/q]: the prefix is expanded as
        # integer terms over a common denominator folded into the scalar
        from ctforge.parser import lower, parse

        def side(src):
            # a sum lowers to its poly prefix, summed term by term in Q(q)
            f = lower(parse(src), 2)
            return f.poly if f.poly is not None else f.expand_exact()

        for left, right in (("x0/qpoch(q,1) + x1", "1/x0 + 1/x1"),
                            ("x0/2 + q^-1*x1/3", "(1 - q*x0/x1)^2"),
                            ("x0/qpoch(q,2) + x1/qpoch(q^-1,1)",
                             "1/x0 + q*x1")):
            ff = lower(parse(f"({left})*({right})"))
            assert ff.poly is not None
            assert ff.expand_exact() == side(left) * side(right)

    def test_scalar_with_non_monomial_denominator(self):
        from ctforge.qdyson import qdyson_kernel
        summands = dict(ct_factored_pfrac_labeled(qdyson_kernel(4, (2, 2)), 0))
        s = summands[(1, 3)]
        # the scalar folded with the collapsed factors, which have no variable
        value = ct_all_series(FactoredForm(
            s.nvars, s.scalar, factors=[f for f in s.factors if not any(f.mono)]))
        assert len(value.den.c) > 1  # 1/(q^3 - q^2)
        bare = FactoredForm(s.nvars, QRAT_ONE, s.mono,
                            [f for f in s.factors if any(f.mono)], s.poly)
        window = {0: 0, 1: 2, 2: 2}
        lp = s.expand_within(window)
        assert not lp.is_zero()
        assert lp.terms == {k: v * value
                            for k, v in bare.expand_within(window).terms.items()}

    @staticmethod
    def _reference(ff, hi, lo, cap):
        """ff expanded by hand: each denominator factor is a geometric
        series truncated at index cap, multiplied as QRat LaurentPolys."""
        nv = ff.nvars
        out = LaurentPoly.monomial(nv, ff.mono, ff.scalar)
        for f in ff.factors:
            c = QRat.qpow(f.qexp)
            if f.exp > 0:
                base = LaurentPoly.one(nv) - LaurentPoly.monomial(nv, f.mono, c)
                out = out * base ** f.exp
                continue
            small = next(e for e in f.mono if e) > 0
            geo = LaurentPoly.zero(nv)
            for t in range(cap + 1) if small else range(-1, -cap - 1, -1):
                geo = geo + LaurentPoly.monomial(
                    nv, tuple(t * e for e in f.mono), c ** t)
            # 1/(1 - cM) = -(cM)^-1 / (1 - (cM)^-1) when cM is large
            out = out * (geo if small else -geo) ** -f.exp
        return out.restrict(hi=hi, lo=lo)

    def test_random_forms_against_qrat_reference(self):
        rng = random.Random(2025)
        nv = 3
        scalars = (QRAT_ONE, QRat.from_int(-3), QRat.qpow(-2),
                   QRat.one_minus_qpow(2).inverse())
        for _ in range(20):
            factors = []
            for exp in (1, -1, -1, rng.choice((1, -1, -2))):
                i, j = rng.sample(range(nv), 2)
                factors.append(Factor.binomial(nv, rng.randint(-2, 2), i, j, exp))
            mono = tuple(rng.randint(-1, 1) for _ in range(nv))
            ff = FactoredForm(nv, rng.choice(scalars), mono, tuple(factors))
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
            LaurentPoly._raw(1, parts[0]) ** 3
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


class TestWorkBudget:
    def test_binomial_exponent(self):
        f = Factor(0, (1, -1), _MAX_POWER + 1)
        with pytest.raises(DomainError, match="work budget"):
            f.expand_exact()
        assert len(Factor(0, (1, -1), 3).expand_exact()) == 4

    def test_powers(self):
        poly = FactoredForm(1, poly=lp_mono(1, {0: 1}) + LaurentPoly.one(1))
        scalar = FactoredForm.from_scalar(1, QRat(QPoly({0: 1, 1: 1})))
        for ff in (poly, scalar):
            with pytest.raises(DomainError, match="work budget"):
                ff ** (_MAX_POWER + 1)
        with pytest.raises(DomainError, match="work budget"):
            poly.poly ** (_MAX_POWER + 1)
        # powers of monomials and of +-q^k cost nothing and are not limited
        q = FactoredForm.monomial(1, {0: 1}, QRat.qpow(1).scaled(-1))
        assert (q ** (10 * _MAX_POWER)).scalar == QRat.qpow(10 * _MAX_POWER)

    def test_series_length(self, monkeypatch):
        # a series part is refused unbuilt when it would hold more terms
        # than the accumulator may: 1/(1 - x0) to x0^t has t + 1 terms,
        # 1/(1 - x1/x0)^2 to x0^t has t - 1 (it starts at index 2)
        monkeypatch.setattr(laurent, "_MAX_PRODUCT_KEYS", 5)
        small = FactoredForm(1, factors=(Factor(0, (1,), -1),))
        large = FactoredForm(2, factors=(Factor.binomial(2, 0, 1, 0, -2),))
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
        f = FactoredForm(2, factors=(Factor.binomial(2, 0, 1, 0),))
        assert f.degree_in(0) == 0
        assert f.degree_in(1) == 1

    def test_kernel_degree(self):
        from ctforge.qdyson import qdyson_kernel
        assert qdyson_kernel(3, (1, 1)).degree_in(0) == -6
        assert qdyson_kernel(2, (2, 1, 2)).degree_in(0) == -6

    def test_monomial_and_poly_prefix(self):
        f = FactoredForm.monomial(2, {0: -2})
        assert f.degree_in(0) == -2
        g = FactoredForm(2, poly=lp_mono(2, {0: 3}) + LaurentPoly.one(2))
        assert g.degree_in(0) == 3


class TestFactoredFormAlgebra:
    def test_pow_inverts_factors(self):
        ff = FactoredForm(2, factors=(Factor.binomial(2, 1, 0, 1),)) ** -1
        assert ff.factors[0].exp == -1

    def test_substitute_collapse_to_scalar(self):
        # (1 - q^2 x0/x1) with x0 -> x1 q: 1 - q^3
        ff = FactoredForm(2, factors=(Factor.binomial(2, 2, 0, 1),))
        out = ff.substitute({0: 1}, 1)
        assert ct_all_series(out) == QRat.one_minus_qpow(3)

    def test_collapsed_binomial_stays_a_factor(self):
        # the same collapse keeps (1 - q^3) as a variable-free factor
        ff = FactoredForm(2, factors=(Factor.binomial(2, 2, 0, 1),))
        out = ff.substitute({0: 1}, 1)
        assert out.factors == (Factor(3, (0, 0)),)
        assert ct_all_series(out) == QRat.one_minus_qpow(3)
        assert str(out) == "1 - q^3"

    def test_collapsed_denominator_factor(self):
        # 1/((1 - q x0/x1)(1 - q^2)): one pole in x0; (1 - q^2)^-1 is a scalar
        pole, c = Factor.binomial(2, 1, 0, 1, -1), Factor(2, (0, 0), -1)
        ff = FactoredForm(2, factors=(pole, c))
        assert ff.denominator_factors() == [pole]
        (label, summand), = ct_factored_pfrac_labeled(ff, 0)
        assert label == (1, -1) and summand.factors == (c,)
        value = QRat.one_minus_qpow(2).inverse()
        assert ct_all_series(summand) == value and ct_all_series(ff) == value

    def test_substitute_zero_numerator_kills_form(self):
        ff = FactoredForm(2, factors=(Factor.binomial(2, 1, 1, 0),))
        assert ff.substitute({1: -1}, 0).is_zero()

    def test_substitute_zero_denominator_raises(self):
        from ctforge.errors import UncancelledPoleError
        ff = FactoredForm(2, factors=(Factor.binomial(2, 1, 1, 0, -1),))
        with pytest.raises(UncancelledPoleError):
            ff.substitute({1: -1}, 0)

    def test_substitute_zero_denominator_wins_in_any_order(self):
        # x1 := x0 q^-1, x2 := x0 q^-2 zeroes (1 - q x1/x0) and
        # (1 - q^2 x2/x0)^-1 alike: the pole decides, whichever comes first
        from ctforge.errors import UncancelledPoleError
        num = Factor.binomial(3, 1, 1, 0)
        den = Factor.binomial(3, 2, 2, 0, -1)
        for factors in ((num, den), (den, num)):
            ff = FactoredForm(3, factors=factors)
            with pytest.raises(UncancelledPoleError):
                ff.substitute({1: -1, 2: -2}, 0)

    def test_substitute_maps_several_variables_at_once(self):
        # x0 := x2 q^2, x1 := x2 q in x0 * x1^-1 * (1 - x0/x1) * (1 - x1/x2)
        ff = FactoredForm(3, mono=(1, -1, 0), factors=(
            Factor.binomial(3, 0, 0, 1), Factor.binomial(3, 0, 1, 2)))
        out = ff.substitute({0: 2, 1: 1}, 2)
        assert out.mono == (0, 0, 0) and out.scalar == QRat.qpow(1)
        assert out.factors == (Factor(1, (0, 0, 0)), Factor(1, (0, 0, 0)))
        # a polynomial prefix x0 - q x1 becomes q^2 x2 - q^2 x2 = 0
        x0, x1 = lp_mono(3, {0: 1}), lp_mono(3, {1: 1})
        g = FactoredForm(3, poly=x0 - lp_mono(3, {1: 1}, QRat.qpow(1)))
        assert g.substitute({0: 2, 1: 1}, 2).is_zero()
        # and x0 + x1 becomes (q^2 + q) x2
        h = FactoredForm(3, poly=x0 + x1).substitute({0: 2, 1: 1}, 2)
        assert h.poly == lp_mono(3, {2: 1}, QRat(QPoly({1: 1, 2: 1})))
        with pytest.raises(DomainError):
            ff.substitute({0: 1, 2: 1}, 2)


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
