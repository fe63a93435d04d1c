"""The q-Dyson verifier: kernels, substitutions, certificates, replay."""

import copy
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from ctforge import qdyson, qfield
from ctforge.ctengine import ct_all_series, ct_factored_pfrac_labeled
from ctforge.errors import (CertificationError, DomainError,
                            ProofInvariantError)
from ctforge.laurent import FactoredForm, qpochhammer
from ctforge.qdyson import (CertNode, Certificate, DegreeBoundReport,
                            DysonParams, ProofPath,
                            certificate_from_dict, certificate_to_dict,
                            certificate_to_json, certify_vanishing,
                            collapse_path,
                            degree_bound_check, dyson_product,
                            expand_recursion, find_vanishing_witness,
                            interpolate_eval, kernel_at_path, lhs_value_at,
                            multinomial, qdyson_kernel, qdyson_lhs_product,
                            qdyson_rhs, rhs_value_at, transfer_var,
                            validate_certificate, verify_dyson, verify_qdyson)
from ctforge.qfield import QPoly, QRat, QRAT_ONE, QRAT_ZERO
from ctforge.tournament import TournamentInstance, Witness

from binomials import binomial, run, triples
from test_laurent import _greedy_runs

ONE_PLUS_Q = QRat(QPoly({0: 1, 1: 1}))


class TestProductSides:
    def test_lhs_two_factors(self):
        ff = qdyson_lhs_product(1, (1,))
        assert len(triples(ff)) == 2
        assert not ff.has_poles()

    def test_lhs_empty(self):
        ff = qdyson_lhs_product(0, (0, 0))
        assert ff.runs == ()

    def test_lhs_factor_count(self):
        # (x0/x1)_2 contributes two factors, (q x1/x0)_1 one
        assert len(triples(qdyson_lhs_product(2, (1,)))) == 3

    def test_lhs_factor_order(self):
        # the pair Pochhammers in (i, j) order, as a product of forms would
        # concatenate them
        for n in range(4):
            for a in product(range(3), repeat=n):
                for a0 in range(-3, 4):
                    params = (a0,) + a
                    nv = n + 1
                    ff = FactoredForm(nv)
                    for i in range(nv):
                        for j in range(i + 1, nv):
                            ff = ff * qpochhammer(nv, {i: 1, j: -1}, params[i])
                            ff = ff * qpochhammer(nv, {j: 1, i: -1}, params[j],
                                                  qshift=1)
                    assert qdyson_lhs_product(a0, a) == ff

    def test_rhs_examples(self):
        assert qdyson_rhs(1, (1,)) == ONE_PLUS_Q
        assert qdyson_rhs(1, (1, 1)) == ONE_PLUS_Q * QRat(QPoly({0: 1, 1: 1, 2: 1}))
        assert qdyson_rhs(5, ()) == QRAT_ONE
        assert qdyson_rhs(0, (0, 4, 0)) == QRAT_ONE

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            qdyson_lhs_product(1, (-1,))
        with pytest.raises(DomainError):
            qdyson_rhs(0, (-2,))


class TestClosedFormSide:
    def test_at_zero(self):
        assert rhs_value_at((1,), 0) == QRAT_ONE

    def test_vanishing_factor(self):
        assert rhs_value_at((1,), -1).is_zero()
        for b in range(1, 5):
            assert rhs_value_at((2, 2), -b).is_zero()

    def test_positive_value(self):
        want = QRat(QPoly({0: 1, 1: 1, 2: 1})) * ONE_PLUS_Q
        assert rhs_value_at((1, 1), 1) == want

    def test_matches_rhs_for_nonneg_b(self):
        for a in [(1,), (2, 1), (1, 1, 1)]:
            for b in range(4):
                assert rhs_value_at(a, b) == qdyson_rhs(b, a)

    def test_polynomial_of_degree_at_most_a(self):
        # the fit through b = 0..a keeps predicting the closed form
        for a in [(1,), (2,), (1, 1), (2, 1)]:
            asum = sum(a)
            points = [(QRat.qpow(b), rhs_value_at(a, b))
                      for b in range(asum + 1)]
            for b_next in (asum + 1, asum + 2, -1 - asum):
                predicted = interpolate_eval(points, QRat.qpow(b_next))
                assert predicted == rhs_value_at(a, b_next)


class TestConstantTermSide:
    def test_examples(self):
        assert lhs_value_at((1,), 1) == ONE_PLUS_Q
        assert lhs_value_at((1,), 0) == QRAT_ONE
        assert lhs_value_at((1,), -1).is_zero()

    def test_equals_closed_form_after_verification(self):
        # representational equality for b >= 0, asserted post-verification
        for a in [(1,), (1, 1), (2, 1)]:
            for b in range(3):
                assert verify_qdyson(b, a, "brute").ok
                assert lhs_value_at(a, b) == rhs_value_at(a, b)


@pytest.fixture
def kernel_memo():
    """An empty K(b) memo, emptied again afterwards, so that no kernel a
    test builds (through a patched builder too) outlives it."""
    qdyson_kernel.cache_clear()
    yield
    qdyson_kernel.cache_clear()


class TestKernel:
    def test_rank1_shape(self):
        # (1 - q x1/x0) / (1 - x0/(q x1))
        ff = qdyson_kernel(1, (1,))
        assert triples(ff) == [(-1, (1, -1), -1), (1, (-1, 1), 1)]

    def test_degree_is_minus_nb(self):
        assert qdyson_kernel(2, (1, 1)).degree_in(0) == -4
        assert qdyson_kernel(3, (2, 0, 1)).degree_in(0) == -9

    def test_parameters_as_a_list(self):
        assert qdyson_kernel(2, [1, 1]) == qdyson_kernel(2, (1, 1))

    def test_certify_then_oracle_builds_once(self, monkeypatch, kernel_memo):
        # certify --oracle: the walk and the series oracle share one K(b)
        calls = []
        build = qdyson.qdyson_lhs_product
        monkeypatch.setattr(qdyson, "qdyson_lhs_product",
                            lambda a0, a: calls.append((a0, a)) or build(a0, a))
        certify_vanishing((2, 1, 1), 3)
        assert lhs_value_at((2, 1, 1), -3).is_zero()
        assert [c for c in calls if c[0] == -3] == [(-3, (2, 1, 1))]

    def test_pole_monomials_distinct(self):
        ff = qdyson_kernel(3, (1, 2))
        dens = [(s, mono) for s, mono, e in triples(ff) if e < 0]
        assert len(set(dens)) == len(dens) == 6

    def test_kernel_is_product_at_negative_a0(self):
        for n in range(1, 4):
            for a in product(range(3), repeat=n):
                for b in range(1, sum(a) + 1):
                    assert qdyson_kernel(b, a) == qdyson_lhs_product(-b, a)

    def test_ct_matches_series_value(self):
        for a, b in [((1,), 1), ((1, 1), 2), ((2,), 2)]:
            assert ct_all_series(qdyson_kernel(b, a)) == lhs_value_at(a, -b)

    def test_two_step_composition_equals_windowed_ct(self):
        # truncate the x0 series at the parameter-sum bound, take the x0
        # constant term, then a brute constant term over the rest: same
        # value as the single windowed pass
        for a, b in [((1,), 1), ((1, 1), 1), ((1, 1), 2), ((2, 1), 3)]:
            kernel = qdyson_kernel(b, a)
            lp = kernel.expand_within({0: sum(a)}).free_of(0)
            two_step = lp.constant_coeff()
            assert two_step == ct_all_series(kernel) == lhs_value_at(a, -b)


class TestSubstitutions:
    def test_collapse_single(self):
        # s=1, r=(2), k=(3): x0 -> x2 q^3, x1 and x2 untouched
        path = ProofPath((2,), (3,))
        f = FactoredForm.monomial(3, {0: 1, 1: 2, 2: 1})
        out = collapse_path(path, f)
        assert out.mono == (0, 2, 2)
        assert out.scalar == QRat.qpow(3)

    def test_collapse_double(self):
        # s=2, r=(1,2), k=(1,1): x0 -> x2 q, x1 -> x2 q^0
        path = ProofPath((1, 2), (1, 1))
        f = FactoredForm.monomial(3, {0: 1})
        assert collapse_path(path, f).mono == (0, 0, 1)
        assert collapse_path(path, f).scalar == QRat.qpow(1)
        g = FactoredForm.monomial(3, {1: 1})
        assert collapse_path(path, g).mono == (0, 0, 1)
        assert collapse_path(path, g).scalar == QRAT_ONE

    def test_collapse_fixes_untouched(self):
        path = ProofPath((1,), (2,))
        f = FactoredForm.monomial(3, {2: 5})
        assert collapse_path(path, f) == f

    def test_transfer_examples(self):
        # T with dst=2, k=2, ks=1 sends the collapse variable to x2 q
        f = FactoredForm.monomial(3, {1: 1})
        out = transfer_var(f, 1, 2, 2, 1)
        assert out.mono == (0, 0, 1) and out.scalar == QRat.qpow(1)
        g = FactoredForm.monomial(3, {0: 3})
        assert transfer_var(g, 1, 2, 2, 1) == g

    def test_composition_on_generators(self):
        # transfer-after-collapse equals the extended collapse on x_{r_i}
        rng = random.Random(5)
        for _ in range(30):
            n = rng.randint(2, 4)
            b = rng.randint(1, 4)
            s = rng.randint(1, n - 1)
            r = tuple(sorted(rng.sample(range(1, n + 1), s)))
            k = tuple(rng.randint(1, b) for _ in range(s))
            path = ProofPath(r, k)
            rn = rng.randint(r[-1] + 1, n) if r[-1] < n else None
            if rn is None:
                continue
            kn = rng.randint(1, b)
            ext = path.extended(rn, kn)
            for gen in (0,) + r:
                f = FactoredForm.monomial(n + 1, {gen: 1})
                via_t = transfer_var(collapse_path(path, f), r[-1], rn, kn, k[-1])
                direct = collapse_path(ext, f)
                assert via_t == direct


class TestKernelAtPath:
    def test_case1_collapses_to_zero(self):
        assert kernel_at_path(1, (1,), ProofPath((1,), (1,))).is_zero()

    def test_substitution_closure(self):
        # collapsed variables (x0 and the earlier path entries) are gone
        ff = kernel_at_path(2, (1, 1), ProofPath((1,), (2,)))
        assert not ff.is_zero()
        touched = set()
        for mono, _, _, _ in ff.runs:
            touched |= {v for v, e in enumerate(mono) if e}
        assert 0 not in touched and touched == {1, 2}

    def test_full_depth_always_witnessed_zero(self):
        # at depth n some factor collapses to 1 - q^0, so the form is zero
        a = (1, 1)
        for k in product(range(1, 3), repeat=2):
            path = ProofPath((1, 2), k)
            assert find_vanishing_witness(a, path) is not None
            assert kernel_at_path(2, a, path).is_zero()

    def test_properness_degree_formula(self):
        # (n - s)(a_{r_1} - b) = 1 * (1 - 2) = -1
        ff = kernel_at_path(2, (1, 1), ProofPath((1,), (2,)))
        assert ff.degree_in(1) == -1

    def test_path_validation(self):
        with pytest.raises(DomainError):
            kernel_at_path(2, (1, 1), ProofPath((3,), (1,)))
        with pytest.raises(DomainError):
            kernel_at_path(2, (1, 1), ProofPath((1,), (5,)))


def _walk_cases():
    """(a, b, root kernel, the non-root paths of its certificate)."""
    for a in ((2, 1, 1), (1, 2, 1), (2, 2), (3, 3, 3)):
        for b in range(1, sum(a) + 1):
            paths = [node.path for node in certify_vanishing(a, b).root.walk()
                     if node.path.depth]
            yield a, b, qdyson_kernel(b, a), paths


def _chained_kernel(root: FactoredForm, path: ProofPath) -> FactoredForm:
    """The walk's kernel the long way: the poles dropped by value, then one
    one-entry substitution per collapsed variable."""
    poles = {binomial(root.nvars, -k, 0, r, -1)
             for r, k in zip(path.r, path.k)}
    out = FactoredForm(root.nvars, runs=[
        run(*f) for f in triples(root) if run(*f) not in poles])
    rs, ks = path.r[-1], path.k[-1]
    for ri, ki in zip((0,) + path.r[:-1], (0,) + path.k[:-1]):
        out = out.substitute({ri: ks - ki}, rs)
    return out


class TestKernelWalk:
    """One root kernel per certificate, one substitution per collapse, the
    poles found by position."""

    @pytest.fixture(scope="class")
    def cases(self):
        return list(_walk_cases())

    def test_one_pass_collapse_equals_chained(self, cases):
        zeros = nonzeros = 0
        for a, b, root, paths in cases:
            for path in paths:
                want = _chained_kernel(root, path)
                got = kernel_at_path(b, a, path)
                assert got == want, (a, b, path)
                zeros += got.is_zero()
                nonzeros += not got.is_zero()
        assert zeros and nonzeros

    def test_pole_runs_are_found_by_value(self, monkeypatch, kernel_memo):
        # K(b) with its pole runs (x_0/x_r)_{-b} moved, intact, to the end:
        # kernel_at_path finds each by value, and the certificate is the one
        # of the canonical layout
        a, b = (2, 1, 1), 3
        want = json.dumps(certificate_to_dict(certify_vanishing(a, b)))
        build = qdyson.qdyson_lhs_product

        def poles_last(a0, a):
            ff = build(a0, a)
            poles = [r for r in ff.runs if r[0][0] == 1 and r[3] < 0]
            rest = [r for r in ff.runs if r not in poles]
            return FactoredForm(ff.nvars, runs=rest + poles)
        monkeypatch.setattr(qdyson, "qdyson_lhs_product", poles_last)
        qdyson_kernel.cache_clear()
        runs = qdyson_kernel(b, a).runs
        assert runs[-3:] == tuple((m, -1, -b, -1) for m in
                                  ((1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1)))
        assert runs != build(-b, a).runs
        got = json.dumps(certificate_to_dict(certify_vanishing(a, b)))
        assert got == want

    def test_reversed_pole_runs_are_refused(self, monkeypatch, kernel_memo):
        # K(b) built with its factors reversed: each pole run then ascends
        # from q^-b to q^-1, so no run equals (x_0/x_r)_{-b}
        build = qdyson.qdyson_lhs_product

        def reversed_kernel(a0, a):
            ff = build(a0, a)
            return FactoredForm(ff.nvars,
                                runs=[run(*f) for f in triples(ff)[::-1]])
        monkeypatch.setattr(qdyson, "qdyson_lhs_product", reversed_kernel)
        a, b = (2, 1, 1), 3
        with pytest.raises(ProofInvariantError,
                           match="missing denominator factors"):
            kernel_at_path(b, a, ProofPath((1,), (3,)))
        with pytest.raises(ProofInvariantError,
                           match="missing denominator factors"):
            certify_vanishing(a, b)

    def test_reordered_summand_is_refused(self, monkeypatch):
        # a summand with the child kernel's factors in another order is not
        # the child kernel, factor by factor
        pfrac = qdyson.ct_factored_pfrac_labeled

        def reordered(ff, var):
            out = pfrac(ff, var)
            for i, (label, g) in enumerate(out):
                fs = triples(g)
                if fs[::-1] != fs:
                    out[i] = label, FactoredForm(
                        g.nvars, g.scalar, g.mono,
                        [run(*f) for f in fs[::-1]], g.polys)
                    break
            return out
        monkeypatch.setattr(qdyson, "ct_factored_pfrac_labeled", reordered)
        with pytest.raises(ProofInvariantError,
                           match="composition law fails"):
            certify_vanishing((2, 1, 1), 3)

    def test_nonzero_witnessed_kernel_is_refused(self, monkeypatch):
        # a witnessed leaf handed a kernel that is not zero fails the build
        expand = qdyson.expand_recursion
        monkeypatch.setattr(qdyson, "expand_recursion", lambda *args: [
            (p, FactoredForm(ff.nvars) if ff.is_zero() else ff)
            for p, ff in expand(*args)])
        with pytest.raises(CertificationError, match=r"witnessed kernel "
                           r"is not zero at \(r=\[1\]; k=\[1\]\)"):
            certify_vanishing((1, 1), 2)


def _factor_kernel(b, a):
    """K(b) factor by factor, as (q-exponent, monomial, exponent) triples in
    qdyson_lhs_product's order: for i < j, (x_i/x_j)_{p_i} and then
    (q x_j/x_i)_{p_j}, with p = (-b,) + a."""
    params = (-b,) + a
    nv = len(params)
    out = []
    for i in range(nv):
        for j in range(i + 1, nv):
            for num, den, p, shift in ((i, j, params[i], 0),
                                       (j, i, params[j], 1)):
                mono = [0] * nv
                mono[num], mono[den] = 1, -1
                if p >= 0:
                    out += [(shift + m, tuple(mono), 1) for m in range(p)]
                else:
                    out += [(shift - m, tuple(mono), -1)
                            for m in range(1, -p + 1)]
    return out


def _factor_substitute(factors, shifts, dst):
    """Each factor moved on its own; None when a numerator factor becomes
    1 - q^0 (no denominator factor may)."""
    out, zero = [], False
    for s, mono, e in factors:
        m = list(mono)
        for v, shift in shifts.items():
            s += shift * m[v]
            m[dst] += m[v]
            m[v] = 0
        if not any(m) and s == 0:
            assert e > 0, "a pole collapsed"
            zero = True
        out.append((s, tuple(m), e))
    return None if zero else out


def _assert_encodes(ff, factors):
    """ff is the form the factor list encodes (None: the zero form), in both
    encodings: its factor view and its runs."""
    if factors is None:
        assert ff.is_zero()
        return
    assert ff.scalar == QRAT_ONE and not any(ff.mono) and ff.polys == ()
    assert triples(ff) == factors
    assert ff.runs == _greedy_runs(factors)


class TestRunEncoding:
    """Every kernel and partial-fraction summand of every certificate of the
    criterion-3 grid (n <= 3, a_i <= 2, b = 1..a), rebuilt factor by factor
    from K(b): the poles dropped at their factor positions, then each
    factor substituted alone.  Both encodings of the engine's forms, its
    factor view and its runs, match the rebuilt factor list."""

    def test_kernels_and_summands_match_factor_rebuild(self):
        kernels = summands = 0
        for n in range(1, 4):
            for a in product(range(3), repeat=n):
                for b in range(1, sum(a) + 1):
                    root = _factor_kernel(b, a)
                    _assert_encodes(qdyson_kernel(b, a), root)
                    cert = certify_vanishing(a, b)
                    for node in cert.root.walk():
                        path = node.path
                        want = root
                        if path.depth:
                            drop = {(r - 1) * b + sum(a[:r - 1]) + k - 1:
                                    (-k, r) for r, k in zip(path.r, path.k)}
                            for pos, (s, r) in drop.items():
                                mono = [0] * (n + 1)
                                mono[0], mono[r] = 1, -1
                                assert root[pos] == (s, tuple(mono), -1)
                            kept = [f for i, f in enumerate(root)
                                    if i not in drop]
                            ks = path.k[-1]
                            want = _factor_substitute(
                                kept, {ri: ks - ki for ri, ki in zip(
                                    (0,) + path.r[:-1], (0,) + path.k[:-1])},
                                path.r[-1])
                        ff = kernel_at_path(b, a, path)
                        _assert_encodes(ff, want)
                        kernels += 1
                        if node.status != "recursed":
                            continue
                        var = path.r[-1] if path.depth else 0
                        got = ct_factored_pfrac_labeled(ff, var)
                        rebuilt = []
                        for i, (s, mono, e) in enumerate(want):
                            if e > 0 or not any(mono):
                                continue
                            t = mono.index(-1)
                            if var < t:
                                rebuilt.append(((t, -s), _factor_substitute(
                                    want[:i] + want[i + 1:], {var: -s}, t)))
                        assert [label for label, _ in got] == \
                            [label for label, _ in rebuilt]
                        for (_, g), (_, w) in zip(got, rebuilt):
                            _assert_encodes(g, w)
                        summands += len(got)
        # 102 certificates: 1,939 nodes, and a summand for each non-root one
        assert (kernels, summands) == (1939, 1837)


class TestVanishingWitness:
    def test_case1(self):
        assert find_vanishing_witness((1,), ProofPath((1,), (1,))) == Witness(1, 1)

    def test_scan_order_prefers_case1(self):
        # both cases hold here; the deterministic scan reports case 1, i=1
        w = find_vanishing_witness((1, 1), ProofPath((1, 2), (1, 1)))
        assert w == Witness(1, 1)

    def test_none(self):
        assert find_vanishing_witness((1, 1), ProofPath((1,), (2,))) is None

    def test_case2_when_case1_absent(self):
        w = find_vanishing_witness((1, 1), ProofPath((1, 2), (2, 2)))
        assert w == Witness(2, 1, 2)


class TestRecursion:
    def test_children_enumeration(self):
        path = ProofPath((1,), (2,))
        kids = expand_recursion(2, (1, 1), path, kernel_at_path(2, (1, 1), path))
        assert [(p.r[-1], p.k[-1]) for p, _ in kids] == [(2, 1), (2, 2)]

    def test_root_children(self):
        kids = expand_recursion(2, (1, 1), ProofPath(), qdyson_kernel(2, (1, 1)))
        assert [(p.r[-1], p.k[-1]) for p, _ in kids] == \
            [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_empty_when_rs_is_n(self):
        path = ProofPath((2,), (2,))
        kids = expand_recursion(2, (1, 1), path, kernel_at_path(2, (1, 1), path))
        assert kids == []

    def test_children_carry_their_kernels(self):
        # the form handed down is the child kernel the composition check used
        a, b = (2, 1, 1), 3
        for path in (ProofPath(), ProofPath((1,), (3,))):
            kids = expand_recursion(b, a, path, kernel_at_path(b, a, path))
            assert kids
            for child, ff in kids:
                assert ff == kernel_at_path(b, a, child)

    def test_recursion_does_no_qfield_arithmetic(self, monkeypatch):
        # collapsed binomials stay factors: a full walk of the proof tree
        # neither multiplies nor reduces in Q(q)
        calls = []
        gcd, mul = QPoly.gcd, QRat.__mul__
        monkeypatch.setattr(QPoly, "gcd", staticmethod(
            lambda x, y: calls.append("gcd") or gcd(x, y)))
        monkeypatch.setattr(QRat, "__mul__",
                            lambda x, y: calls.append("mul") or mul(x, y))
        for a, b in (((2, 2, 2), 4), ((2, 1, 1), 3)):
            nodes = 0
            stack = [(ProofPath(), qdyson_kernel(b, a))]
            while stack:
                path, ff = stack.pop()
                if path.depth and find_vanishing_witness(a, path) is not None:
                    continue
                nodes += 1
                stack += expand_recursion(b, a, path, ff)
            assert nodes > 1 and calls == [], (a, b)


class TestCertificates:
    def test_rank1_tree(self):
        cert = certify_vanishing((1,), 1)
        assert cert.root.status == "recursed"
        (leaf,) = cert.root.children
        assert leaf.status == "zero_case1" and leaf.witness == Witness(1, 1)

    def test_rank1_b2(self):
        cert = certify_vanishing((2,), 2)
        assert [c.status for c in cert.root.children] == ["zero_case1"] * 2

    def test_mixed_tree(self):
        cert = certify_vanishing((1, 1), 2)
        statuses = {str(n.path): n.status for n in cert.root.walk()}
        assert statuses["(r=[1, 2]; k=[2, 2])"] == "zero_case2"
        assert statuses["(r=[2]; k=[2])"] == "recursed"
        counts = cert.leaf_counts()
        assert counts == {"recursed": 3, "zero_case1": 3, "zero_case2": 1}

    def test_b_out_of_range(self):
        with pytest.raises(DomainError):
            certify_vanishing((1,), 2)
        with pytest.raises(DomainError):
            certify_vanishing((1, 1), 0)

    def test_oracle_samples_recorded(self):
        cert = certify_vanishing((1, 1), 2)
        assert cert.oracle_checked
        for path in cert.oracle_checked:
            assert ct_all_series(kernel_at_path(2, (1, 1), path)).is_zero()

    def test_degree_formula_every_recursed_node(self):
        a, b = (2, 1), 3
        cert = certify_vanishing(a, b)
        n = len(a)
        for node in cert.root.walk():
            if node.status != "recursed" or node.path.depth == 0:
                continue
            s = node.path.depth
            ssum = sum(a[r - 1] for r in node.path.r)
            deg = kernel_at_path(b, a, node.path).degree_in(node.path.r[-1])
            assert deg == (n - s) * (ssum - b) < 0

    def test_json_round_trip_and_validation(self):
        cert = certify_vanishing((1, 1), 2)
        blob = json.dumps(certificate_to_dict(cert))
        back = certificate_from_dict(json.loads(blob))
        assert validate_certificate(back) == validate_certificate(cert)

    def test_validation_rejects_tampering(self):
        cert = certify_vanishing((1, 1), 2)
        d = certificate_to_dict(cert)
        d["root"]["children"][0]["witness"]["i"] = 2
        with pytest.raises(CertificationError):
            validate_certificate(certificate_from_dict(d))
        d = certificate_to_dict(cert)
        del d["root"]["children"][1]["children"][0]
        with pytest.raises(CertificationError):
            validate_certificate(certificate_from_dict(d))

    def test_validation_rejects_nonempty_root_path(self):
        # a lone witnessed leaf says nothing about the root kernel
        d = {"params": {"a": [1, 1], "b": 2},
             "root": {"path": {"r": [1], "k": [1]}, "status": "zero_case1",
                      "witness": {"case": 1, "i": 1}, "children": []}}
        with pytest.raises(CertificationError):
            validate_certificate(certificate_from_dict(d))

    def test_validation_rejects_improper_recursion(self):
        # (r=[2]; k=[1]) at a=(1,1), b=1 has a_2 = 1 >= b: the kernel there
        # is not proper in x2, so an empty child list proves nothing
        d = certificate_to_dict(certify_vanishing((1, 1), 1))
        (node,) = [c for c in d["root"]["children"] if c["path"]["r"] == [2]]
        node.update(status="recursed", witness=None, children=[])
        with pytest.raises(CertificationError):
            validate_certificate(certificate_from_dict(d))

    def test_from_dict_missing_root(self):
        with pytest.raises(CertificationError):
            certificate_from_dict({"params": {"a": [1], "b": 1}})

    def test_from_dict_children_not_a_list(self):
        d = certificate_to_dict(certify_vanishing((1, 1), 2))
        d["root"]["children"] = 5
        with pytest.raises(CertificationError):
            certificate_from_dict(d)

    def test_from_dict_bad_path(self):
        d = certificate_to_dict(certify_vanishing((1, 1), 2))
        d["root"]["children"][0]["path"]["r"] = [2, 1]
        with pytest.raises(CertificationError):
            certificate_from_dict(d)

    def test_from_dict_top_level_list(self):
        with pytest.raises(CertificationError):
            certificate_from_dict([certificate_to_dict(certify_vanishing((1,), 1))])

    def test_from_dict_non_integer_fields(self):
        # non-integers would otherwise reach the validator's arithmetic
        for edit in (lambda d: d["params"].update(b="2"),
                     lambda d: d["root"]["children"][0]["path"].update(k=[1.5]),
                     lambda d: d["root"]["children"][0]["witness"].update(i=None)):
            d = certificate_to_dict(certify_vanishing((1, 1), 2))
            edit(d)
            with pytest.raises(CertificationError):
                certificate_from_dict(d)

    def test_from_dict_deep_nesting(self):
        node = {"path": {"r": [], "k": []}, "status": "recursed",
                "witness": None, "children": []}
        for _ in range(2000):
            node = dict(node, children=[node])
        with pytest.raises(CertificationError):
            certificate_from_dict({"params": {"a": [1], "b": 1}, "root": node})

    def test_certificate_json_pinned(self):
        # sha256 of the certificate JSON, every order of (2,1,1) and (1,1,1)
        pinned = {
            (1, 1, 2): ["f8cc8b5070464a0d72fbd4964e7a6ad4e190a69fc91246d1dc695c616939f9a6",
                        "3c0908c81dbad21171a1178582fb042746b5386afe709e9ed332532e2c246413",
                        "579725b8199082093a37984be57b98938921a1aa365b13a8e3891029321f5e8b",
                        "b317c1aacdb972c81b49dd36e259b6f26ef6d127ce10d8d2b0864cf6d5a673ef"],
            (1, 2, 1): ["77456df189a5598e98e31f2049a06fad3d9dde274292c18d871e172ae63bdf92",
                        "0aed7908812b30e84482f8999b3ccd354a8f4b2c134467f3c97b9f0a33cf796e",
                        "1890219292e5d419f4269533089f86f2b6d8deb62f1872b5e4b1d0ccefc44141",
                        "43a4204c25aac3427a71545d016fc79183b49fef1b3347434e205080a023c56c"],
            (2, 1, 1): ["8ad5807681d3d7708a11febdf34edaba149e2f41c8a8affdd653b67b8140e275",
                        "ee7d1f09921504881400b787b195c50d92f96a89bf72d906b93583b81ef1ab95",
                        "6ff304666c73b0c50ff086fd97a1aec32f7154856c8459d2538f72d2da16efeb",
                        "2893f9dbe126ffafd5445e3c887bd496033a7ba03d9b4c1ef9b06e9c118849cf"],
            (1, 1, 1): ["5ca879fd33dd459fd5c860767c5545c9fa7a31cd9628809fa6dbac10b52c5fd2",
                        "b3a7025efbf75ad1cfa8744cd1c61e6ce131da7f90c310430fd56d8c59431608",
                        "bd29dfd228a086a319687c77a8ad85dc3608c36361dd70819ac58f40d028c2a4"],
        }
        for a, digests in pinned.items():
            for b, want in enumerate(digests, start=1):
                blob = certificate_to_json(certify_vanishing(a, b)).encode()
                assert hashlib.sha256(blob).hexdigest() == want, (a, b)

    def test_pfrac_summands_pinned(self):
        # sha256 of the printed partial-fraction summands of K(b) in x0,
        # every order of (2,1,1) and (1,1,1)
        b1 = "b451a8b0c5532a7d55a6f161b364261d268dfe2523d1b00d47a5f7d9555b58e6"
        pinned = {
            (1, 1, 2): [b1, "49130aeb4f423218c430f351d226192613ac24a3e1de2b1832d06c7bcacab7e1",
                        "9aedb64443095ae410401226fe0824f435613758c4533e24f7bb497d6c90ff62",
                        "2298663356574848c720be5c240f04c760f3d6a2e9c4ebe557ed23aa942330fc"],
            (1, 2, 1): [b1, "7b6292cc792aa71f37bd267663d6352d76893a921a6a6bbd9b54e1bf17193f81",
                        "75f4604b93456a4a3e841d83b0ec0d709988b420904a0a94a32313239b5bdbd6",
                        "4f2f1d9d8be4e2df4d59f769552d19a49c4d2a599217bb9855518af3b0ab541e"],
            (2, 1, 1): [b1, "dd7e7ae1c5d98e6bded5fd6bc0ab3b7d8dadf5ee979a271e8cb34b0c892baffb",
                        "38753afab69927b2c98ee8462dcf3268a161bfc5229ef618138d0e7c4ded969c",
                        "9c08d70026144308e0b15f090c09b5ed1793463e210ed9f5ac7f285f3e5fc2ff"],
            (1, 1, 1): [b1, "084386efeba287bf33d74e4fe734f0b10930f3e02fc28f4f70c556f858563448",
                        "d4d0b43d1be21318ed5a42acc3043ace3de13ee807ee53d795a3f71b7515202d"],
        }
        for a, digests in pinned.items():
            for b, want in enumerate(digests, start=1):
                summands = ct_factored_pfrac_labeled(qdyson_kernel(b, a), 0)
                blob = "\n".join(f"{pole}: {s}" for pole, s in summands).encode()
                assert hashlib.sha256(blob).hexdigest() == want, (a, b)


def _checked(d: dict) -> int:
    return validate_certificate(certificate_from_dict(d))


class TestCertificateChecker:
    """The reader and the validator reject what the tree does not prove."""

    def _valid(self) -> dict:
        return certificate_to_dict(certify_vanishing((2, 1, 1), 3))

    def test_format_tag_required(self):
        for fmt in ("ctforge-certificate/2", "", None, 1):
            d = self._valid()
            d["format"] = fmt
            with pytest.raises(CertificationError):
                certificate_from_dict(d)
        d = self._valid()
        del d["format"]
        with pytest.raises(CertificationError):
            certificate_from_dict(d)

    def test_n_is_the_length_of_a(self):
        for n in (2, 4, 0, "3", 3.0, True, None):
            d = self._valid()
            d["params"]["n"] = n
            with pytest.raises(CertificationError):
                certificate_from_dict(d)
        d = self._valid()
        del d["params"]["n"]
        with pytest.raises(CertificationError):
            certificate_from_dict(d)

    def test_oracle_checked_names_distinct_internal_nodes(self):
        d = self._valid()
        first = d["oracle_checked"][0]
        leaf = next(c["path"] for c in d["root"]["children"]
                    if c["status"] != "recursed")
        for entries in ([{"r": [9], "k": [99]}], [{"r": [], "k": []}],
                        [first, first], [leaf]):
            d = self._valid()
            d["oracle_checked"] = entries
            with pytest.raises(CertificationError):
                _checked(d)

    def test_recursed_node_carries_no_witness(self):
        d = self._valid()
        node = next(c for c in d["root"]["children"]
                    if c["status"] == "recursed")
        node["witness"] = {"case": 1, "i": 1}
        with pytest.raises(CertificationError):
            _checked(d)
        d = self._valid()
        d["root"]["witness"] = {"case": 1, "i": 1}
        with pytest.raises(CertificationError):
            _checked(d)

    def test_root_path_must_be_empty(self):
        # a lone witnessed leaf says nothing about the root kernel
        d = {"format": "ctforge-certificate/1",
             "params": {"n": 2, "a": [1, 1], "b": 2},
             "root": {"path": {"r": [1], "k": [1]}, "status": "zero_case1",
                      "witness": {"case": 1, "i": 1}, "children": []}}
        with pytest.raises(CertificationError, match="root path is not empty"):
            _checked(d)

    def test_missing_root_is_malformed(self):
        d = {"format": "ctforge-certificate/1",
             "params": {"n": 1, "a": [1], "b": 1}}
        with pytest.raises(CertificationError,
                           match=r"malformed certificate: KeyError\('root'\)"):
            certificate_from_dict(d)

    def test_deep_nesting_is_malformed(self):
        node = {"path": {"r": [], "k": []}, "status": "recursed",
                "witness": None, "children": []}
        for _ in range(2000):
            node = dict(node, children=[node])
        d = {"format": "ctforge-certificate/1",
             "params": {"n": 1, "a": [1], "b": 1}, "root": node}
        with pytest.raises(CertificationError,
                           match="malformed certificate: RecursionError"):
            certificate_from_dict(d)

    def test_child_count_checked_before_enumeration(self):
        # b comes from the input: a root claiming 10^15 children but holding
        # none is refused without building the expected child paths
        d = {"format": "ctforge-certificate/1",
             "params": {"n": 1, "a": [10 ** 15], "b": 10 ** 15},
             "oracle_checked": [],
             "root": {"path": {"r": [], "k": []}, "status": "recursed",
                      "witness": None, "children": []}}
        assert _checked_in_child(d).startswith("refused: bad child enumeration")

    def test_large_a_is_not_iterated(self):
        # a_1 = 10^15 comes from the input: the witness (q^0)_{a_1} is zero
        # at its first factor, and the checker stops there
        d = {"format": "ctforge-certificate/1",
             "params": {"n": 1, "a": [10 ** 15], "b": 1},
             "oracle_checked": [],
             "root": {"path": {"r": [], "k": []}, "status": "recursed",
                      "witness": None, "children": [
                          {"path": {"r": [1], "k": [1]}, "status": "zero_case1",
                           "witness": {"case": 1, "i": 1}, "children": []}]}}
        assert _checked_in_child(d) == "2"


_CHILD_CHECK = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 29, 1 << 29))
from ctforge.errors import CertificationError
from ctforge.qdyson import certificate_from_dict, validate_certificate
try:
    print(validate_certificate(certificate_from_dict(json.load(sys.stdin))))
except CertificationError as e:
    print("refused:", e)
"""


def _checked_in_child(d: dict) -> str:
    """_checked on d in a child process held to 512 MB of address space and
    60 s, so a checker whose work grows with an input integer fails the
    test instead of exhausting the machine; returns the child's output."""
    env = dict(os.environ, PYTHONPATH=str(Path(qdyson.__file__).parents[1]))
    r = subprocess.run((sys.executable, "-c", _CHILD_CHECK),
                       input=json.dumps(d), capture_output=True, text=True,
                       env=env, timeout=60)
    assert r.returncode == 0, r.stderr
    return r.stdout.strip()


def _integer_sites(d: dict) -> list[tuple]:
    """Key paths to every integer of the proof: each params.a entry,
    params.b, and each node's path entries and witness fields."""
    sites = [("params", "a", i) for i in range(len(d["params"]["a"]))]
    sites.append(("params", "b"))

    def walk(node, at):
        for key in ("r", "k"):
            sites.extend(at + ("path", key, i)
                         for i in range(len(node["path"][key])))
        sites.extend(at + ("witness", f) for f in node["witness"] or ())
        for c, child in enumerate(node["children"]):
            walk(child, at + ("children", c))

    walk(d["root"], ("root",))
    return sites


def _lookup(d: dict, keys: tuple):
    for key in keys:
        d = d[key]
    return d


class TestCertificateMutations:
    CASES = (((2, 1, 1), 3), ((1, 1, 1), 2), ((2, 2), 3), ((1, 2, 1), 4))

    def test_every_one_integer_edit_is_rejected(self):
        edits = 0
        accepted = []
        for a, b in self.CASES:
            d = certificate_to_dict(certify_vanishing(a, b))
            for site in _integer_sites(d):
                for delta in (1, -1):
                    e = copy.deepcopy(d)
                    _lookup(e, site[:-1])[site[-1]] += delta
                    edits += 1
                    try:
                        _checked(e)
                    except CertificationError:
                        continue
                    accepted.append((a, site, delta, e))
        assert edits == 952
        # the one edit that passes moves a witness onto another sound one
        assert [(a, site[-2:], delta) for a, site, delta, _ in accepted] \
            == [((1, 2, 1), ("witness", "i"), 1)]
        (a, site, _, e), = accepted
        node = _lookup(e, site[:-2])
        w = node["witness"]
        A = tuple(a[r - 1] for r in node["path"]["r"])
        assert Witness(w["case"], w["i"], w.get("j")).holds_for(
            A, tuple(node["path"]["k"]))

    def test_oracle_checked_is_the_sampling_policy(self):
        # the oracle samples the first and the last internal recursed node
        # in preorder: moving, swapping or dropping an entry is refused
        edits = 0
        for a, b in self.CASES:
            d = certificate_to_dict(certify_vanishing(a, b))
            tampered = [d["oracle_checked"][::-1], d["oracle_checked"][:1],
                        d["oracle_checked"][1:]]
            for i, entry in enumerate(d["oracle_checked"]):
                for key in ("r", "k"):
                    for j in range(len(entry[key])):
                        for delta in (1, -1):
                            oc = copy.deepcopy(d["oracle_checked"])
                            oc[i][key][j] += delta
                            tampered.append(oc)
                            edits += 1
            for oc in tampered:
                with pytest.raises(CertificationError):
                    _checked(dict(d, oracle_checked=oc))
        assert edits == 32

    def test_oracle_policy_with_fewer_than_two_internal_nodes(self):
        # (2, 1) at b = 1 has no internal recursed node, at b = 2 just one
        assert certify_vanishing((2, 1), 1).oracle_checked == []
        d = certificate_to_dict(certify_vanishing((2, 1), 2))
        assert d["oracle_checked"] == [{"r": [2], "k": [2]}]
        for oc in ([], d["oracle_checked"] * 2):
            with pytest.raises(CertificationError, match="oracle_checked"):
                _checked(dict(d, oracle_checked=oc))


class TestOneChecker:
    """certify_vanishing hands every certificate to validate_certificate."""

    def test_dropped_child_is_rejected(self, monkeypatch):
        expand = qdyson.expand_recursion
        monkeypatch.setattr(qdyson, "expand_recursion",
                            lambda *args: expand(*args)[:-1])
        with pytest.raises(CertificationError, match="child enumeration"):
            certify_vanishing((1, 1), 2)

    def test_unsound_witness_is_rejected(self, monkeypatch):
        # case 1 at index 1 claims 1 <= k_1 <= a_{r_1}; false at k_1 = 2
        monkeypatch.setattr(qdyson, "find_vanishing_witness",
                            lambda a, path: Witness(1, 1))
        with pytest.raises(CertificationError, match="witness inequalities"):
            certify_vanishing((1, 1), 2)


class TestVanishingDualPath:
    def test_small_grid(self):
        # oracle and certificate independently confirm each root
        for n in range(1, 3):
            for a in product(range(3), repeat=n):
                for b in range(1, sum(a) + 1):
                    assert lhs_value_at(a, -b).is_zero(), (a, b)
                    cert = certify_vanishing(a, b)
                    assert validate_certificate(cert) >= 1


class TestInterpolation:
    def test_hand_example(self):
        # a=(1): points (1, 1), (q, 1+q); prediction at q^2 is 1+q+q^2
        points = [(QRAT_ONE, QRAT_ONE), (QRat.qpow(1), ONE_PLUS_Q)]
        got = interpolate_eval(points, QRat.qpow(2))
        assert got == QRat(QPoly({0: 1, 1: 1, 2: 1}))
        assert got == lhs_value_at((1,), 2)

    def test_one_reduction_per_point(self, monkeypatch):
        # each point's term is multiplied as integer maps and reduced once;
        # the value is that of the Lagrange form in QRat arithmetic, at
        # abscissae and ordinates with q-power denominators and fractions,
        # and at a point that is an abscissa
        rng = random.Random(28)
        for n in range(1, 6):
            ts = rng.sample(range(-4, 6), n)
            points = [(QRat.qpow(t), QRat(QPoly({rng.randrange(4): c}),
                                          QPoly({rng.randrange(3): 1}))
                       if (c := rng.choice((0, 1, -2, Fraction(1, 3))))
                       else QRAT_ZERO) for t in ts]
            for at in (QRat.qpow(6), QRat.qpow(-5), QRat.qpow(ts[0]),
                       QRat(QPoly({0: 1, 1: 1}))):
                want = QRAT_ZERO
                for i, (ti, yi) in enumerate(points):
                    term = yi
                    for j, (tj, _) in enumerate(points):
                        if j != i:
                            term = term * (at - tj) / (ti - tj)
                    want = want + term
                calls = []
                reduce = qfield._canonicalize
                monkeypatch.setattr(qfield, "_canonicalize", lambda a, b:
                                    calls.append(1) or reduce(a, b))
                nonzero = [ti for ti, yi in points if not yi.is_zero()]
                for tj, _ in points:        # the differences it takes
                    at - tj
                    for ti in nonzero:
                        if ti != tj:
                            ti - tj
                differences = len(calls)
                calls.clear()
                got = interpolate_eval(points, at)
                monkeypatch.undo()
                assert got == want
                # past the differences, one per term and one per sum
                assert len(calls) <= differences + 2 * len(nonzero)

    def test_degenerate_rank0(self):
        rep = degree_bound_check(())
        assert rep.ok and rep.predicted == QRAT_ONE

    def test_machine_checks(self):
        for a in [(1,), (1, 1), (2, 1)]:
            assert degree_bound_check(a).ok


class TestVerify:
    def test_brute_examples(self):
        r = verify_qdyson(1, (1,))
        assert r.ok and r.lhs == r.rhs == ONE_PLUS_Q
        r = verify_qdyson(2, (1,))
        assert r.ok and r.rhs == QRat(QPoly({0: 1, 1: 1, 2: 1}))
        assert verify_qdyson(0, (0, 0, 0)).ok

    def test_replay_small(self):
        for a0, a in [(1, (1,)), (0, (1, 1)), (2, (1, 2)), (1, (1, 1, 1))]:
            r = verify_qdyson(a0, a, "replay")
            assert r.ok, (a0, a, r.detail)

    def test_both(self):
        assert verify_qdyson(2, (2, 1), "both").ok

    def test_both_requires_the_sampled_fit(self, monkeypatch):
        r = verify_qdyson(2, (2, 1), "both")
        assert r.ok and r.detail[-1] == "sampled degree fit holds"
        monkeypatch.setattr(qdyson, "degree_bound_check", lambda a, known:
                            DegreeBoundReport(a, QRAT_ONE, QRAT_ZERO))
        r = verify_qdyson(2, (2, 1), "both")
        assert not r.ok and r.detail[-1] == "sampled degree fit FAILS"
        assert verify_qdyson(2, (2, 1), "replay").ok

    def test_both_expands_each_point_once(self, monkeypatch):
        # the brute value at a0 is one of the fit's points: not recomputed
        calls = []
        value = qdyson.lhs_value_at
        monkeypatch.setattr(qdyson, "lhs_value_at",
                            lambda a, b: calls.append(b) or value(a, b))
        assert verify_qdyson(2, (2, 1), "both").ok
        assert sorted(calls) == [0, 1, 2, 3, 4]
        # a wrong value at b = a + 1 breaks the fit alone
        monkeypatch.setattr(qdyson, "lhs_value_at", lambda a, b:
                            QRAT_ZERO if b == 4 else value(a, b))
        r = verify_qdyson(2, (2, 1), "both")
        assert not r.ok and r.detail[-1] == "sampled degree fit FAILS"
        assert r.lhs == r.rhs

    def test_replay_never_expands_the_product(self, monkeypatch):
        # brute and replay are two routes that do not cross
        def refuse(*args):
            raise AssertionError("replay took the brute-force route")
        for name in ("ct_all_bruteforce", "lhs_value_at", "degree_bound_check"):
            monkeypatch.setattr(qdyson, name, refuse)
        for a0, a in [(1, (1,)), (0, (1, 1)), (2, (1, 2)), (1, (1, 1, 1)),
                      (2, (2, 1, 1))]:
            r = verify_qdyson(a0, a, "replay")
            assert r.ok, (a0, a, r.detail)

    def _lowered_at_rank(self, monkeypatch, rank):
        # an extra (1 - x1/x0) in the a0-free part of the given rank
        build = qdyson.qdyson_lhs_product

        def lowered(a0, a):
            ff = build(a0, a)
            if a0 == 0 and len(a) == rank:
                ff = ff * FactoredForm(
                    ff.nvars, runs=(binomial(ff.nvars, 0, 1, 0),))
            return ff
        monkeypatch.setattr(qdyson, "qdyson_lhs_product", lowered)

    def test_replay_checks_the_degree_lemma(self, monkeypatch):
        # at rank 2 the extra factor reaches x0^-4 below -3
        self._lowered_at_rank(monkeypatch, 2)
        r = verify_qdyson(2, (2, 1), "replay")
        assert not r.ok
        assert r.detail[-1] == ("rank 2: degree bound: a0-free part's lowest "
                                "x0-degree -4, needs >= -3: FAILS; "
                                "q-binomial theorem taken on trust")

    def test_replay_checks_the_degree_lemma_at_rank_1(self, monkeypatch):
        # rank 1 is checked like every other rank: x0^-2 below -1, and the
        # replay stops before rank 2
        self._lowered_at_rank(monkeypatch, 1)
        r = verify_qdyson(2, (2, 1), "replay")
        assert not r.ok
        assert r.detail[-1] == ("rank 1: degree bound: a0-free part's lowest "
                                "x0-degree -2, needs >= -1: FAILS; "
                                "q-binomial theorem taken on trust")
        assert not any(line.startswith("rank 2") for line in r.detail)

    def test_rank_1_is_replayed_like_every_rank(self):
        # no Gaussian-binomial shortcut: rank 1 certifies its a1 roots and
        # rests on the empty product at rank 0
        for a0, a1 in product(range(4), repeat=2):
            r = verify_qdyson(a0, (a1,), "replay")
            assert r.ok, (a0, a1, r.detail)
            assert r.detail[0] == "rank 0: empty product, both sides 1"
            roots = [line for line in r.detail if "root" in line]
            assert roots == [f"rank 1: root t=q^-{b} certified "
                             f"({b} case-1, 0 case-2 leaves)"
                             for b in range(1, a1 + 1)]
            assert not any("Gaussian binomial" in line for line in r.detail)
            assert r.detail[-1] == (f"rank 1: value at t=q^{a0} pinned by "
                                    f"{a1 + 1} points")

    def test_each_closed_form_is_computed_once(self, monkeypatch):
        # the closed form at (a0, a), then one base point per rank
        calls = []
        rhs = qdyson.qdyson_rhs
        monkeypatch.setattr(qdyson, "qdyson_rhs",
                            lambda a0, a: calls.append((a0, a)) or rhs(a0, a))
        for a0, a in [(1, (1,)), (2, (2, 1)), (1, (1, 1, 1)), (0, (0, 2, 0))]:
            for method, want in (("brute", 1), ("replay", len(a) + 1),
                                 ("both", len(a) + 1)):
                calls.clear()
                assert verify_qdyson(a0, a, method).ok
                assert len(calls) == want, (a0, a, method, calls)
                assert calls[0] == (a0, a)
                assert len(set(calls)) == len(calls)

    def test_unknown_method(self):
        with pytest.raises(DomainError):
            verify_qdyson(1, (1,), "fancy")


class TestClassicalDyson:
    def test_spot_values(self):
        r = verify_dyson(1, (1, 1))
        assert r.ok and r.lhs == QRat.from_int(6)
        r = verify_dyson(2, (1,))
        assert r.ok and r.lhs == QRat.from_int(3)
        assert verify_dyson(0, (0, 0)).ok

    def test_multinomial(self):
        assert multinomial((1, 1, 1)) == 6
        assert multinomial((2, 1)) == 3
        assert multinomial(()) == 1

    def test_specialization_route_matches(self):
        # q = 1 specialization of the q-product equals the classical CT
        from ctforge.ctengine import ct_all_bruteforce
        for tup in [(1, 1), (2, 1), (1, 1, 1)]:
            qct = ct_all_bruteforce(qdyson_lhs_product(tup[0], tup[1:]))
            classical = ct_all_bruteforce(dyson_product(tup))
            assert qct.specialize(1) == classical.specialize(1) \
                == multinomial(tup)


class TestParamsAndPaths:
    def test_params_invariants(self):
        p = DysonParams((1, 2, 0), 3)
        assert p.n == 3
        with pytest.raises(DomainError):
            DysonParams((1, -1), 1)

    def test_path_invariants(self):
        with pytest.raises(DomainError):
            ProofPath((2, 1), (1, 1))
        with pytest.raises(DomainError):
            ProofPath((0,), (1,))
        with pytest.raises(DomainError):
            ProofPath((1,), (0,))
        p = ProofPath((1, 3), (2, 2))
        assert p.depth == 2 and p.extended(4, 1).r == (1, 3, 4)
        assert ProofPath() == ProofPath((), ()) and ProofPath().depth == 0

    def test_extension_checks_the_new_entry(self):
        # each invalid extension is refused as __new__ would refuse the
        # extended path, with its message
        r_msg = "r must be strictly increasing and positive"
        k_msg = "k entries must be positive"
        p = ProofPath((1, 3), (2, 2))
        for path, r_next, k_next, msg in (
                (ProofPath(), 0, 1, r_msg), (ProofPath(), -2, 1, r_msg),
                (p, 3, 1, r_msg), (p, 2, 1, r_msg),
                (ProofPath(), 1, 0, k_msg), (p, 4, 0, k_msg),
                (p, 4, -1, k_msg)):
            with pytest.raises(DomainError, match=f"^{msg}$"):
                path.extended(r_next, k_next)
            with pytest.raises(DomainError, match=f"^{msg}$"):
                ProofPath(path.r + (r_next,), path.k + (k_next,))
        for path, r_next, k_next in ((ProofPath(), 1, 1), (p, 4, 7)):
            ext = path.extended(r_next, k_next)
            assert type(ext) is ProofPath
            assert ext == ProofPath(path.r + (r_next,), path.k + (k_next,))

    def test_paths_are_values_of_their_own_type(self):
        # validate_certificate compares paths, and oracle_checked keys
        # them in a dict: equal and hashed by value, never equal to a plain
        # tuple or to another record holding the same tuple
        p = ProofPath((1,), (2,))
        assert p == ProofPath((1,), (2,))
        assert hash(p) == hash(ProofPath((1,), (2,)))
        assert {p: "x"}[ProofPath((1,), (2,))] == "x"
        assert p != ProofPath((1,), (3,))
        assert p != ((1,), (2,)) and ((1,), (2,)) != p
        assert not p == ((1,), (2,)) and not ((1,), (2,)) == p
        assert ProofPath((1,), (1,)) != TournamentInstance((1,), (1,))
        assert DysonParams((1, 2), 3) == DysonParams((1, 2), 3)
        assert DysonParams((1, 2), 3) != ((1, 2), 3)
        assert str(p) == "(r=[1]; k=[2])"

    def test_mutable_defaults_are_fresh(self):
        p = ProofPath()
        first, second = CertNode(p, "recursed"), CertNode(p, "recursed")
        first.children.append(CertNode(p, "zero_case1"))
        assert second.children == [] and first.children is not second.children
        params = DysonParams((1,), 1)
        c1, c2 = Certificate(params, first), Certificate(params, second)
        c1.oracle_checked.append(p)
        assert c2.oracle_checked == []
        r1 = verify_qdyson(1, (1,))
        r1.detail.append("extra")
        assert "extra" not in verify_dyson(1, (1,)).detail
