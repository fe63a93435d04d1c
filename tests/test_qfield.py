"""Exact rational-function field: examples and algebraic properties."""

import random
from functools import lru_cache
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from ctforge.errors import DomainError, PoleError
from ctforge.qfield import (QPoly, QRat, QRAT_ONE, QRAT_ZERO, _binomial_ratio,
                            _divisors, _moebius, _product_width, _qprod,
                            _totient)


def qp(coeffs):
    return QPoly(coeffs)


ONE_MINUS_Q = qp({0: 1, 1: -1})


class TestQPoly:
    def test_zero_is_empty(self):
        assert qp({}).is_zero()
        assert (qp({3: 1}) - qp({3: 1})).is_zero()

    def test_no_stored_zeros(self):
        assert qp({0: 0, 2: 5}).c == {2: 5}

    def test_sum_normalizes_integral_fractions(self):
        # 1/2 + 1/2 is held as the int 1, as every integral coefficient is
        s = qp({0: Fraction(1, 2)}) + qp({0: Fraction(1, 2)})
        assert s.c == {0: 1} and type(s.c[0]) is int

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            qp({-1: 1})

    def test_mul(self):
        # (1 - q)(1 + q) = 1 - q^2
        assert ONE_MINUS_Q * qp({0: 1, 1: 1}) == qp({0: 1, 2: -1})

    def test_products_match_schoolbook(self):
        # products are packed (`qfield._qprod`); a double loop over the
        # terms is the reference, one-term factors and Fractions included
        def schoolbook(a, b):
            c = {}
            for e1, v1 in a.c.items():
                for e2, v2 in b.c.items():
                    c[e1 + e2] = c.get(e1 + e2, 0) + v1 * v2
            return c

        rng = random.Random(25)

        def poly(terms):
            return qp({rng.randrange(15): Fraction(rng.randint(-9, 9),
                                                   rng.choice((1, 1, 2, 3, 7)))
                       for _ in range(terms)})
        # sums can leave a Fraction of denominator 1 in place
        whole = QPoly._raw({0: Fraction(2, 1), 3: Fraction(-1, 1)})
        pairs = [(whole, whole), (whole, qp({1: 1, 2: Fraction(1, 2)}))]
        for _ in range(300):
            pairs.append((poly(rng.randint(0, 8)),
                          poly(rng.choice((1, 1, 2, 6, 12)))))
        for a, b in pairs:
            for x, y in ((a, b), (b, a)):
                got = x * y
                assert got == qp(schoolbook(x, y)), (x, y)
                assert not any(isinstance(v, Fraction) and v.denominator == 1
                               for v in got.c.values())

    def test_divmod_exact(self):
        a = qp({0: 1, 3: -1})          # 1 - q^3
        quo = a.exact_div(ONE_MINUS_Q)
        assert quo == qp({0: 1, 1: 1, 2: 1})
        with pytest.raises(DomainError):
            quo.exact_div(ONE_MINUS_Q)

    def test_gcd_monic(self):
        a = qp({0: 1, 2: -1})          # (1-q)(1+q)
        b = qp({0: 2, 1: -2})          # 2(1-q)
        g = QPoly.gcd(a, b)
        assert g == qp({0: -1, 1: 1})  # monic: q - 1

    def test_fraction_coeffs_normalize_to_int(self):
        p = qp({0: Fraction(4, 2)})
        assert p.c == {0: 2}


class TestQRatNormalize:
    def test_cancel_example(self):
        # (1 - q^2, 1 - q) -> 1 + q
        r = QRat(qp({0: 1, 2: -1}), ONE_MINUS_Q)
        assert r == QRat(qp({0: 1, 1: 1}))
        assert r.den.is_one()

    def test_zero_numerator(self):
        r = QRat(qp({}), ONE_MINUS_Q)
        assert r == QRAT_ZERO and r.den.is_one()

    def test_leading_coeff_convention(self):
        # (2 - 2q, 4) -> (1 - q)/2 over 1
        r = QRat(qp({0: 2, 1: -2}), qp({0: 4}))
        assert r.den.is_one()
        assert r.num.c == {0: Fraction(1, 2), 1: Fraction(-1, 2)}

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            QRat(qp({0: 1}), qp({}))

    def test_monomial_denominator_matches_gcd_route(self):
        # den = c*q^k takes a path with no QPoly.gcd; the canonical form is
        # unique, so it must equal the general gcd / exact_div / monic route
        rng = random.Random(5)
        scalars = (1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3))
        for _ in range(300):
            num = qp({rng.randint(0, 6): rng.choice(scalars)
                      for _ in range(rng.randint(1, 4))})
            den = qp({rng.randint(0, 5): rng.choice(scalars)})
            g = QPoly.gcd(num, den)
            n, d = num.exact_div(g), den.exact_div(g)
            inv = Fraction(1) / Fraction(d.leading_coeff)
            r = QRat(num, den)
            assert (r.num, r.den) == (n.scaled(inv), d.scaled(inv))
            assert r.den.c == {r.den.degree: 1}

    def test_from_laurent_is_canonical(self):
        rng = random.Random(6)
        for _ in range(200):
            terms = {rng.randint(-5, 5): rng.choice((1, -1, 2, -7))
                     for _ in range(rng.randint(1, 4))}
            expected = QRAT_ZERO
            for e, c in terms.items():
                expected = expected + QRat.qpow(e).scaled(c)
            assert QRat.from_laurent(terms) == expected


class TestQRatArith:
    def test_add_example(self):
        # q/(1-q) + 1 = 1/(1-q)
        lhs = QRat(qp({1: 1}), ONE_MINUS_Q) + QRAT_ONE
        assert lhs == QRat(qp({0: 1}), ONE_MINUS_Q)

    def test_mul_by_zero(self):
        x = QRat(qp({0: 1, 5: 7}), qp({0: 3, 2: 1}))
        assert (x * QRAT_ZERO).is_zero()

    def test_pow_negative(self):
        assert QRat(ONE_MINUS_Q) ** -1 == QRat(qp({0: 1}), ONE_MINUS_Q)

    def test_pow_is_repeated_product(self):
        x = QRat(qp({0: 2, 1: -1, 3: 1}), qp({0: 1, 2: 3}))  # (2-q+q^3)/(1+3q^2)
        acc = QRAT_ONE
        for n in range(7):
            assert x ** n == acc
            assert x ** -n == QRAT_ONE / acc
            acc = acc * x

    def test_div_by_zero(self):
        with pytest.raises(DomainError):
            QRAT_ONE / QRAT_ZERO
        with pytest.raises(DomainError):
            QRAT_ZERO ** -1

    def test_qpow_negative_goes_downstairs(self):
        r = QRat.qpow(-3)
        assert r.num.is_one() and r.den == qp({3: 1})

    def test_integer_operands_promote(self):
        x = QRat(qp({1: 1}), ONE_MINUS_Q)
        assert x + 1 == QRat(qp({0: 1}), ONE_MINUS_Q)
        assert 1 + x == x + 1
        assert (x * 0).is_zero() and (0 * x).is_zero()
        assert 2 - QRAT_ONE == QRAT_ONE
        assert 1 / QRat(ONE_MINUS_Q) == QRat(qp({0: 1}), ONE_MINUS_Q)
        assert QRat.from_int(6) / 2 == QRat.from_int(3)



class TestSpecialize:
    def test_cancelled_pole(self):
        # (1 - q^3)/(1 - q) at q = 1 -> 3
        r = QRat(qp({0: 1, 3: -1}), ONE_MINUS_Q)
        assert r.specialize(1) == 3

    def test_plain(self):
        assert QRat(qp({0: 1, 1: 1})).specialize(1) == 2

    def test_genuine_pole(self):
        with pytest.raises(PoleError):
            QRat(qp({0: 1}), ONE_MINUS_Q).specialize(1)

    def test_rational_point(self):
        r = QRat(qp({2: 1}), qp({0: 1, 1: 1}))     # q^2/(1+q)
        assert r.specialize(Fraction(1, 2)) == Fraction(1, 6)


# -- property-based --------------------------------------------------------

coeffs = st.integers(min_value=-9, max_value=9)
polys = st.dictionaries(st.integers(min_value=0, max_value=6), coeffs,
                        max_size=4).map(QPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


def rationals(draw_num=polys, draw_den=nonzero_polys):
    return st.builds(QRat, draw_num, draw_den)


@settings(max_examples=60, deadline=None)
@given(nonzero_polys, nonzero_polys, nonzero_polys)
def test_normalize_kills_common_factors(a, b, c):
    assert QRat(a * c, b * c) == QRat(a, b)


@settings(max_examples=60, deadline=None)
@given(rationals(), rationals(), rationals())
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    if not x.is_zero():
        assert x * x.inverse() == QRAT_ONE


@settings(max_examples=60, deadline=None)
@given(rationals(), rationals())
def test_specialize_commutes(x, y):
    for v in (Fraction(2), Fraction(1, 3)):
        try:
            lhs = (x * y).specialize(v)
            rhs = x.specialize(v) * y.specialize(v)
        except PoleError:
            continue
        assert lhs == rhs
        try:
            assert (x + y).specialize(v) == x.specialize(v) + y.specialize(v)
        except PoleError:
            pass


@settings(max_examples=40, deadline=None)
@given(polys, nonzero_polys, rationals())
def test_canonical_invariants(num, den, y):
    r = QRat(num, den)
    assert r.den.leading_coeff == 1
    assert QPoly.gcd(r.num, r.den).is_one() or r.num.is_zero()
    # products, quotients and powers reduce only through QRat.__init__
    results = [r * y] + [r ** k for k in range(1, 5)]
    if not y.is_zero():
        results.append(r / y)
    if not r.is_zero():
        results += [r.inverse()] + [r ** -k for k in range(1, 5)]
    for x in results:
        assert x.den.leading_coeff == 1
        assert QPoly.gcd(x.num, x.den).is_one() or x.num.is_zero()


# -- the readout: factor lists reduced by cyclotomic cancellation -----------

def _multiplied(pairs):
    """The product of the (map, k) pairs, term by term."""
    out = {0: 1}
    for m, k in pairs:
        for _ in range(k):
            acc = {}
            for e1, c1 in out.items():
                for e2, c2 in m.items():
                    acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2
            out = {e: c for e, c in acc.items() if c}
    return out


def _reference(num, den):
    """num / den multiplied out and reduced by the gcd route."""
    n, d = _multiplied(num), _multiplied(den)
    low = min(min(n), min(d))
    return QRat(QPoly({e - low: c for e, c in n.items()}),
                QPoly({e - low: c for e, c in d.items()}))


@lru_cache(maxsize=None)
def _cyclotomic(d):
    """Phi_d's coefficients, the lowest first: q^d - 1 divided by Phi_k
    for each k < d that divides d, by long division (each Phi_k monic)."""
    c = [-1] + [0] * (d - 1) + [1]
    for k in range(1, d):
        if d % k == 0:
            p = _cyclotomic(k)
            quo = [0] * (len(c) - len(p) + 1)
            for i in range(len(quo) - 1, -1, -1):
                quo[i] = c[i + len(p) - 1]
                for j, v in enumerate(p):
                    c[i + j] -= quo[i] * v
            assert not any(c)
            c = quo
    return tuple(c)


def _cyclotomic_map(d):
    return {i: c for i, c in enumerate(_cyclotomic(d)) if c}


@st.composite
def _binomials(draw):
    """(c (q^a - q^b), k): either order of a and b, c = +-1 or +-2, k up
    to 3."""
    a = draw(st.integers(-3, 3))
    b = a + draw(st.sampled_from((1, -1))) * draw(st.integers(1, 12))
    c = draw(st.sampled_from((1, -1, 2, -2)))
    return {a: c, b: -c}, draw(st.integers(1, 3))


@st.composite
def _factor_lists(draw):
    """(num, den): a random map times random Phi_d, a few binomials and
    perhaps a monomial upstairs; binomials, perhaps a monomial and now and
    then a factor of no binomial shape downstairs."""
    general = draw(st.dictionaries(st.integers(-4, 6), coeffs.filter(bool),
                                   min_size=1, max_size=4))
    phis = [(_cyclotomic_map(d), 1)
            for d in draw(st.lists(st.integers(1, 12), max_size=4))]
    num = [(_multiplied([(general, 1), *phis]), 1)]
    num += draw(st.lists(_binomials(), max_size=2))
    den = draw(st.lists(_binomials(), min_size=1, max_size=4))
    monomial = st.builds(lambda e, c, k: ({e: c}, k), st.integers(-3, 3),
                         st.sampled_from((1, -1, 2, 3)), st.integers(1, 2))
    if draw(st.booleans()):
        num.append(draw(monomial))
    if draw(st.booleans()):
        den.append(draw(monomial))
    if draw(st.integers(0, 4)) == 0:
        den.append((draw(st.sampled_from(({0: 1, 1: 1, 3: 1}, {0: 2, 1: 1},
                                           {1: 1, 2: 3}))), 1))
    return draw(st.permutations(num)), draw(st.permutations(den))


@st.composite
def _qprod_pairs(draw):
    """(map, k) pairs: two-term maps of any nonzero coefficients and
    exponents (the binomial step's input at k = 1), at multiplicity 1 and
    2 or 3, among dense maps."""
    nonzero = coeffs.filter(bool)
    two = st.builds(lambda a, gap, ca, cb: {a: ca, a + gap: cb},
                    st.integers(-6, 6), st.integers(1, 9), nonzero, nonzero)
    dense = st.dictionaries(st.integers(-4, 6), nonzero,
                            min_size=1, max_size=6)
    pair = st.tuples(st.one_of(two, dense), st.sampled_from((1, 1, 2, 3)))
    return draw(st.lists(pair, min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(_qprod_pairs())
def test_qprod_matches_the_plain_product(pairs):
    # a two-term map of multiplicity 1 is a shift and an add, every other
    # pair a packed power; both against the dict product, term by term
    assert _qprod(pairs) == _multiplied(pairs)


def test_equal_multiplicities_are_measured_as_one_product():
    # (1-q)(1-q^2)(1-q^3) has l1 norm 6 < 2^3, so its N-th power packs at
    # the width of 6^N, as the written-out product would
    binomials = [{0: 1, e: -1} for e in (1, 2, 3)]
    product = _multiplied([(m, 1) for m in binomials])
    assert sum(map(abs, product.values())) == 6
    for n in (2, 519):
        assert _product_width([(m, n) for m in binomials]) == \
            _product_width([(product, n)]) == (6 ** n).bit_length() + 1
    with pytest.raises(DomainError, match="^expansion too large: 1346-bit"):
        _product_width([(m, 520) for m in binomials])


class TestFromFactors:
    @settings(max_examples=300, deadline=None)
    @given(_factor_lists())
    @example(([({0: 1, 1: -1}, 1)], [({0: 1, 1000: -1}, 1)]))  # in part
    @example(([({0: 1, 2: -1, 3: 1}, 1)], [({0: 1, 1: -1}, 2)]))
    @example(([({0: 1, 1: 2, 4: -1, 5: -2}, 1)], [({1: 1, 5: -1}, 2)]))
    def test_matches_the_gcd_route(self, case):
        num, den = case
        got, want = QRat.from_factors(num, den), _reference(num, den)
        assert (got.num.c, got.den.c) == (want.num.c, want.den.c)
        assert str(got) == str(want)

    def test_binomial_denominators_make_no_gcd(self, monkeypatch):
        calls = []
        gcd = QPoly.gcd
        monkeypatch.setattr(QPoly, "gcd", staticmethod(
            lambda a, b: calls.append(1) or gcd(a, b)))
        # (1 - q^6)(1 + q) / ((1 - q^2)(1 - q^3)^2): the binomials' Phi_1,
        # Phi_2 and Phi_3 cancel by count, 1 + q = Phi_2 stays upstairs
        # (no Phi_d left downstairs divides it), and Phi_1 Phi_3 Phi_1 is
        # rebuilt as (q^3 - 1)(q - 1)
        num = [({0: 1, 6: -1}, 1), ({0: 1, 1: 1}, 1)]
        den = [({0: 1, 2: -1}, 1), ({0: 1, 3: -1}, 2)]
        r = QRat.from_factors(num, den)
        assert calls == []
        assert str(r) == "(1 + q^3)/(1 - q - q^3 + q^4)"
        assert r == _reference(num, den)

    def test_a_general_denominator_reaches_the_gcd(self, monkeypatch):
        calls = []
        gcd = QPoly.gcd
        monkeypatch.setattr(QPoly, "gcd", staticmethod(
            lambda a, b: calls.append(1) or gcd(a, b)))
        r = QRat.from_factors([({0: 1, 2: -1}, 1)], [({0: 1, 1: 1, 2: 1}, 1)])
        assert calls == [1]
        assert r == _reference([({0: 1, 2: -1}, 1)], [({0: 1, 1: 1, 2: 1}, 1)])

    def test_long_binomials_cancel_in_part(self, monkeypatch):
        # (1 - q^7) / (1 - q^2000) and (1 - q) / (1 - q^5040): only Phi_1
        # is shared, so each side is its binomial over q - 1, whatever its
        # length, and no gcd is made
        calls = []
        gcd = QPoly.gcd
        monkeypatch.setattr(QPoly, "gcd", staticmethod(
            lambda a, b: calls.append(1) or gcd(a, b)))
        for a, b in ((7, 2000), (1, 5040)):
            r = QRat.from_factors([({0: 1, a: -1}, 1)], [({0: 1, b: -1}, 1)])
            assert r.num == QPoly({e: 1 for e in range(a)})
            assert r.den == QPoly({e: 1 for e in range(b)})
        assert calls == []

    def test_refuses_what_the_product_would(self):
        # a numerator binomial past the work budget is refused, before any
        # factoring, with the message of multiplying the numerator out
        big = 10**20 + 39
        num = [({0: 2, 1: 1}, 1), ({0: 2, big: -2}, 1)]
        with pytest.raises(DomainError, match="work budget") as want:
            _qprod(num)
        for den in ([], [({0: 1, 1: -1}, 1)], [({0: 1, 6: -1}, 2)]):
            with pytest.raises(DomainError) as got:
                QRat.from_factors(num, den)
            assert str(got.value) == str(want.value)

    def test_moebius_quotients_are_cyclotomic(self):
        # Phi_d is the product of q^e - 1 over _moebius(d)'s plus
        # exponents over that over its minus exponents, of degree phi(d)
        for d in range(1, 121):
            phi = _binomial_ratio([1], *_moebius(d))
            assert tuple(phi) == _cyclotomic(d)
            assert _totient(d) == len(phi) - 1
            assert sorted(_divisors(d)) == [k for k in range(1, d + 1)
                                            if d % k == 0]


@settings(max_examples=100, deadline=None)
@given(st.lists(rationals(nonzero_polys), min_size=1, max_size=4),
       st.lists(rationals(nonzero_polys), max_size=4))
def test_ratio_of_products(nums, dens):
    # reduced once, the quotient equals the one of QRat arithmetic
    want = QRAT_ONE
    for x in nums:
        want = want * x
    for x in dens:
        want = want / x
    got = QRat.ratio_of_products(nums, dens)
    assert (got.num.c, got.den.c) == (want.num.c, want.den.c)
