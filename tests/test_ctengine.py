"""Constant-term operators: brute force vs partial fractions."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from ctforge.ctengine import (ct_all_bruteforce, ct_all_series,
                              ct_factored_pfrac_labeled)
from ctforge.errors import (DistinctPolesError, NotPolynomialError,
                            PropernessError, ShapeError)
from ctforge.laurent import FactoredForm, LaurentPoly, qpochhammer
from ctforge.qfield import QPoly, QRat, QRAT_ONE

from binomials import binomial


class TestBruteForce:
    def test_ct_var_example(self):
        # x0-free part of the rank-1 Dyson expansion is 1 + q
        prod = (FactoredForm(2, runs=(binomial(2, 0, 0, 1),
                                      binomial(2, 1, 1, 0)))
                .expand_exact())
        ct = prod.free_of(0)
        assert ct == LaurentPoly.monomial(2, {}, QRat(QPoly({0: 1, 1: 1})))

    def test_ct_var_constant(self):
        c = LaurentPoly.monomial(3, {}, QRat.qpow(2))
        assert c.free_of(1) == c

    def test_ct_var_kills_pure_monomial(self):
        m = LaurentPoly.monomial(3, {1: 1, 2: -1})
        assert m.free_of(1).is_zero()

    def test_ct_all_rank1(self):
        ff = FactoredForm(2, runs=(binomial(2, 0, 0, 1),
                                   binomial(2, 1, 1, 0)))
        assert ct_all_bruteforce(ff) == QRat(QPoly({0: 1, 1: 1}))

    def test_ct_all_empty_product(self):
        assert ct_all_bruteforce(FactoredForm(4)) == QRAT_ONE

    def test_ct_all_rank2(self):
        from ctforge.qdyson import qdyson_lhs_product
        want = QRat(QPoly({0: 1, 1: 1})) * QRat(QPoly({0: 1, 1: 1, 2: 1}))
        assert ct_all_bruteforce(qdyson_lhs_product(1, (1, 1))) == want

    def test_ct_all_rejects_denominators(self):
        ff = FactoredForm(2, runs=(binomial(2, 0, 0, 1, -1),))
        with pytest.raises(NotPolynomialError):
            ct_all_bruteforce(ff)


class TestTruncatedSeriesCT:
    def test_kernel_like_zero(self):
        # (x0/x1)_{-1} (q x1/x0)_1 has zero CT in x0 at bound 1
        f = (qpochhammer(2, {0: 1, 1: -1}, -1)
             * qpochhammer(2, {1: 1, 0: -1}, 1, qshift=1))
        lp = f.expand_within({0: 1}).free_of(0)
        assert lp.is_zero()

    def test_no_denominators_matches_brute(self):
        rng = random.Random(3)
        for _ in range(10):
            runs = []
            for _ in range(rng.randint(1, 4)):
                i, j = rng.sample(range(3), 2)
                runs.append(binomial(3, rng.randint(-2, 2), i, j))
            ff = FactoredForm(3, runs=runs)
            lp = ff.expand_exact()
            assert ff.expand_within({0: 12}).free_of(0) == lp.free_of(0)

    def test_rank1_kernel_ct_zero(self):
        from ctforge.qdyson import qdyson_kernel
        f = qdyson_kernel(1, (1,))
        lp = f.expand_within({0: 1}).free_of(0)
        assert lp.free_of(1).is_zero()
        assert ct_all_series(f).is_zero()


def proper_rat(var: int, num: LaurentPoly, dpow: int,
               poles: list[tuple[int, int]]) -> tuple[int, FactoredForm]:
    """num(x_var) / (x_var^dpow * prod_i (1 - x_var/pole_i)) as an extraction
    variable and a FactoredForm; a pole (t, s) is the monomial x_t q^s."""
    nv = num.nvars
    mono = [0] * nv
    mono[var] = -dpow
    runs = [binomial(nv, -s, var, t, -1) for t, s in poles]
    return var, FactoredForm(nv, mono=tuple(mono), runs=runs, polys=(num,))


def pfrac(r: tuple[int, FactoredForm]) -> list[FactoredForm]:
    var, ff = r
    return [summand for _, summand in ct_factored_pfrac_labeled(ff, var)]


class TestPartialFractions:
    def test_two_pole_example(self):
        # R = 1/((1 - x0/x1)(1 - x0/(q x2))): both poles small; the two
        # summands are 1/(1 - x1/(q x2)) and 1/(1 - q x2/x1); they sum to 1
        r = proper_rat(0, LaurentPoly.one(3), 0, [(1, 0), (2, 1)])
        labeled = ct_factored_pfrac_labeled(r[1], 0)
        assert [pole for pole, _ in labeled] == [(1, 0), (2, 1)]
        parts = pfrac(r)
        assert len(parts) == 2
        window = {v: 5 for v in range(3)}
        total = LaurentPoly.zero(3)
        for p in parts:
            total = total + p.expand_within(window)
        assert total.restrict(hi={1: 2, 2: 2}) == LaurentPoly.one(3)
        # matches the series oracle exactly
        series = r[1].expand_within({0: 0, 1: 5, 2: 5}).free_of(0)
        assert series == LaurentPoly.one(3)

    def test_single_small_pole(self):
        r = proper_rat(0, LaurentPoly.one(2), 0, [(1, 0)])
        parts = pfrac(r)
        assert len(parts) == 1
        assert parts[0].expand_exact() == LaurentPoly.one(2)

    def test_large_pole_empty(self):
        # R = 1/(1 - x1/(q x0)) extracted in x1: pole is large, CT = 0
        r = proper_rat(1, LaurentPoly.one(2), 0, [(0, 1)])
        assert pfrac(r) == []

    def test_repeated_pole_rejected(self):
        with pytest.raises(DistinctPolesError):
            pfrac(proper_rat(0, LaurentPoly.one(2), 0, [(1, 2), (1, 2)]))
        ff = FactoredForm(2, runs=(binomial(2, 1, 0, 1, -2),))
        with pytest.raises(DistinctPolesError):
            ct_factored_pfrac_labeled(ff, 0)
        # the same pole in two runs of one factor each is still repeated
        twice = FactoredForm(2, runs=(binomial(2, 1, 0, 1, -1),
                                      binomial(2, 1, 0, 1, -1)))
        with pytest.raises(DistinctPolesError):
            ct_factored_pfrac_labeled(twice, 0)

    def test_properness_verified(self):
        # numerator degree 1 with a single pole and no x^d: degree 0, improper
        num = LaurentPoly.monomial(2, {0: 1})
        with pytest.raises(PropernessError):
            pfrac(proper_rat(0, num, 0, [(1, 0)]))
        ff = FactoredForm(2, mono=(1, 0),
                          runs=(binomial(2, 0, 0, 1, -1),))
        with pytest.raises(PropernessError):
            ct_factored_pfrac_labeled(ff, 0)

    def test_pole_involving_extraction_var_rejected(self):
        # x0 x1 has no variable downstairs: not of the x0/x_t shape
        ff = FactoredForm(2, mono=(-1, 0), runs=(((1, 1), 0, 0, -1),))
        with pytest.raises(ShapeError):
            ct_factored_pfrac_labeled(ff, 0)
        # x0 downstairs: not a pole in x0 of the lemma's shape
        ff = FactoredForm(2, runs=(binomial(2, 0, 1, 0, -1),),
                          mono=(-1, 0))
        with pytest.raises(ShapeError):
            ct_factored_pfrac_labeled(ff, 0)

    def test_polynomial_numerator(self):
        # R = (1 + x0 x2^-1)/((1 - x0/x1)(1 - q^-1 x0/x1)) in x0
        num = LaurentPoly.one(3) + LaurentPoly.monomial(3, {0: 1, 2: -1})
        r = proper_rat(0, num, 0, [(1, 0), (1, -1)])
        parts = pfrac(r)
        assert len(parts) == 2
        _assert_pfrac_matches_series(r, window=4)


def _assert_pfrac_matches_series(r: tuple[int, FactoredForm], window: int):
    var, ff = r
    nv = ff.nvars
    hi = {v: window for v in range(nv)}
    hi[var] = 0
    series = ff.expand_within(hi).free_of(var)
    hi_rest = {v: window for v in range(nv) if v != var}
    total = LaurentPoly.zero(nv)
    for p in pfrac(r):
        total = total + p.expand_within(hi_rest)
    assert total.restrict(hi=hi_rest) == series.restrict(hi=hi_rest)


def random_proper_rat(rng: random.Random,
                      nvars: int = 4) -> tuple[int, FactoredForm]:
    """A random proper rational function in the Lemma's shape: at most
    nvars-1 pole variables, <= 4 distinct poles, q-powers in [-3, 3]."""
    var = rng.randrange(nvars)
    others = [v for v in range(nvars) if v != var]
    npoles = rng.randint(1, 4)
    pole_set = set()
    while len(pole_set) < npoles:
        pole_set.add((rng.choice(others), rng.randint(-3, 3)))
    poles = sorted(pole_set)
    dpow = rng.randint(0, 2)
    max_num_deg = dpow + npoles - 1
    num_deg = rng.randint(0, max_num_deg)
    num = LaurentPoly.zero(nvars)
    for e in range(num_deg + 1):
        if e < num_deg and rng.random() < 0.4:
            continue
        exps = {var: e}
        for v in rng.sample(others, rng.randint(0, 2)):
            exps[v] = rng.randint(-2, 2)
        coeff = QRat.qpow(rng.randint(-2, 2)).scaled(rng.randint(-3, 3))
        num = num + LaurentPoly.monomial(nvars, exps, coeff)
    if num.is_zero():
        num = LaurentPoly.one(nvars)
    return proper_rat(var, num, dpow, poles)


class TestOracleEquivalence:
    def test_randomized(self):
        rng = random.Random(20250808)
        for _ in range(40):
            r = random_proper_rat(rng)
            _assert_pfrac_matches_series(r, window=3)

    def test_small_large_grid(self):
        # CT_{x_i} 1/(1 - q^k x_i/x_j): 1 when i < j, 0 when i > j
        for k in range(-3, 4):
            small = proper_rat(0, LaurentPoly.one(2), 0, [(1, -k)])
            parts = pfrac(small)
            assert len(parts) == 1 and parts[0].expand_exact() == LaurentPoly.one(2)
            large = proper_rat(1, LaurentPoly.one(2), 0, [(0, -k)])
            assert pfrac(large) == []


# -- structural properties ----------------------------------------------------

exp_vecs = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
coeffs = st.integers(-5, 5).filter(bool).map(QRat.from_int)
laurents = st.dictionaries(exp_vecs, coeffs, max_size=5).map(
    lambda terms: LaurentPoly(3, terms))


@settings(max_examples=60, deadline=None)
@given(laurents, laurents)
def test_ct_commutes_and_linear(f, g):
    assert f.free_of(0).free_of(2) == f.free_of(2).free_of(0)
    for v in range(3):
        assert (f + g).free_of(v) == f.free_of(v) + g.free_of(v)
