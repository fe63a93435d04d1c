"""Witness lemma: examples, soundness, exhaustive check, proof device."""

from itertools import product

import pytest

from ctforge import tournament
from ctforge.errors import DomainError, LemmaViolationError
from ctforge.tournament import (TournamentInstance, Witness, build_tournament,
                                exhaustive_check, find_witness,
                                instance_count, scan_witness)


class TestWitnessExamples:
    def test_case1_second_index(self):
        w = find_witness(TournamentInstance((1, 1), (2, 1)))
        assert w == Witness(1, 2)

    def test_case2_pair(self):
        w = find_witness(TournamentInstance((1, 1), (2, 2)))
        assert w == Witness(2, 1, 2)

    def test_single_index(self):
        w = find_witness(TournamentInstance((2,), (1,)))
        assert w == Witness(1, 1)

    def test_scan_order_case1_first(self):
        # both cases fire; the deterministic scan reports case 1 at i=1
        assert scan_witness((1, 1), (1, 1)) == Witness(1, 1)

    def test_hypothesis_enforced(self):
        with pytest.raises(DomainError):
            TournamentInstance((1, 1), (3, 1))
        with pytest.raises(DomainError):
            TournamentInstance((1,), (0,))


class TestWitnessSoundness:
    def test_holds_for_reverifies(self):
        w = Witness(2, 1, 2)
        assert w.holds_for((1, 1), (2, 2))
        assert not w.holds_for((1, 1), (4, 1))

    def test_witnesses_are_values_of_their_own_type(self):
        w = Witness(1, 2)
        assert w.j is None and w == Witness(1, 2, None)
        assert {w: "x"}[Witness(1, 2)] == "x"
        assert w != (1, 2, None) and (1, 2, None) != w
        assert not w == (1, 2, None)
        assert w != Witness(2, 1, 2)

    def test_reprs_in_messages(self, monkeypatch):
        # LemmaViolationError prints the witness and the instance
        assert repr(Witness(2, 1, 2)) == "Witness(case=2, i=1, j=2)"
        inst = TournamentInstance((1, 2), (1, 1))
        assert repr(inst) == "TournamentInstance(A=(1, 2), k=(1, 1))"
        monkeypatch.setattr(tournament, "scan_witness", lambda A, k: None)
        with pytest.raises(LemmaViolationError) as err:
            find_witness(inst)
        assert str(err.value) == ("no witness for "
                                  "TournamentInstance(A=(1, 2), k=(1, 1))")
        monkeypatch.setattr(tournament, "scan_witness",
                            lambda A, k: Witness(2, 1, 2))
        with pytest.raises(LemmaViolationError) as err:
            find_witness(TournamentInstance((1, 2), (3, 1)))
        assert str(err.value) == (
            "unsound witness Witness(case=2, i=1, j=2) for "
            "TournamentInstance(A=(1, 2), k=(3, 1))")

    def test_all_returned_witnesses_sound(self):
        for A in product(range(3), repeat=3):
            if sum(A) == 0:
                continue
            for k in product(range(1, sum(A) + 1), repeat=3):
                w = find_witness(TournamentInstance(A, k))
                assert w.holds_for(A, k)


class TestExhaustive:
    def test_tiny(self):
        r = exhaustive_check(1, 1)
        assert r.instances == 1 and r.ok

    def test_medium(self):
        r = exhaustive_check(2, 2)
        assert r.ok and r.failures == 0

    def test_instance_count_is_the_enumerated_count(self):
        for s_max in range(1, 4):
            for a_max in range(4):
                assert instance_count(s_max, a_max, 10 ** 6) == \
                    exhaustive_check(s_max, a_max).instances
        assert instance_count(4, 3, 10 ** 6) == 634542
        assert instance_count(5, 2, 10 ** 7) == 1998375

    def test_instance_budget(self, monkeypatch):
        # the count stops past its limit: (4, 3) has 634,542 instances,
        # (5, 3) 56M and (8, 8) about 1.4e20; none of them is enumerated
        assert instance_count(4, 3, limit=634542) == 634542
        assert instance_count(4, 3, limit=634541) == 634542
        for s_max, a_max in ((5, 3), (8, 8), (10 ** 9, 10 ** 9)):
            assert instance_count(s_max, a_max, 10 ** 7) == 10 ** 7 + 1
            with pytest.raises(DomainError, match="work budget"):
                exhaustive_check(s_max, a_max)
        monkeypatch.setattr(tournament, "_MAX_INSTANCES", 50)
        with pytest.raises(DomainError, match="more than 50 instances"):
            exhaustive_check(2, 2)
        assert exhaustive_check(2, 1).instances == 7

    def test_zero_entries_force_pair_witnesses(self):
        # A = (0, 2): k_1 >= 1 > A_1 = 0, so index-1 witnesses must be pairs
        for k in product(range(1, 3), repeat=2):
            w = find_witness(TournamentInstance((0, 2), k))
            assert w.holds_for((0, 2), k)


def witness_free_instances(s, kmax):
    """Relaxed instances (bound waived) admitting no witness at all."""
    out = []
    for A in product(range(4), repeat=s):
        for k in product(range(1, kmax + 1), repeat=s):
            if scan_witness(A, k) is None:
                out.append((A, k))
    return out


class TestTournamentConstruction:
    def test_drawing_rule_example(self):
        # witness-free A=(0,1), k=(1,3): the pair rule k_i - k_j <= -1 - A_j
        # draws the arc 1 -> 2 labeled A_2 + 1 = 2
        rep = build_tournament((0, 1), (1, 3))
        assert rep.arcs == [(0, 1, 2)] and rep.order == [1, 2]

    def test_witness_input_rejected(self):
        with pytest.raises(DomainError):
            build_tournament((1, 1), (1, 3))

    def test_transitive_and_bounds(self):
        # fact (i): every arc label is at most k_head - k_tail, so path sums
        # are bounded; fact (ii): ascending arcs carry positive labels;
        # together they forbid cycles: every arc runs forward along the order
        instances = [inst for s in (1, 2, 3)
                     for inst in witness_free_instances(s, 9)]
        instances += witness_free_instances(4, 6)
        assert len(instances) == 18_230
        for A, k in instances:
            s = len(A)
            rep = build_tournament(A, k)
            assert len(rep.arcs) == s * (s - 1) // 2
            assert sorted(rep.order) == list(range(1, s + 1))
            order = [i - 1 for i in rep.order]
            place = {v: t for t, v in enumerate(order)}
            for u, v, label in rep.arcs:
                assert place[u] < place[v]
                assert label <= k[v] - k[u]
                if u < v:
                    assert label > 0
            # along the total order the sum of consecutive labels is bounded
            label_of = {(u, v): l for u, v, l in rep.arcs}
            total = sum(label_of[(order[t], order[t + 1])]
                        for t in range(len(order) - 1))
            assert total <= k[order[-1]] - k[order[0]]

    def test_bounded_instances_never_witness_free(self):
        # within the lemma hypothesis there is nothing to build on
        for s in (1, 2, 3):
            for A in product(range(3), repeat=s):
                if sum(A) == 0:
                    continue
                for k in product(range(1, sum(A) + 1), repeat=s):
                    assert scan_witness(A, k) is not None


class TestAgreementWithProofEngine:
    def test_same_scan_as_vanishing_test(self):
        from ctforge.qdyson import ProofPath, find_vanishing_witness
        a = (2, 1, 2)
        for r1 in range(1, 3):
            for r2 in range(r1 + 1, 4):
                for k in product(range(1, 6), repeat=2):
                    path = ProofPath((r1, r2), k)
                    A = (a[r1 - 1], a[r2 - 1])
                    assert find_vanishing_witness(a, path) == scan_witness(A, k)
