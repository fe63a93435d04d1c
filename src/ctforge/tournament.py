"""The combinatorial witness lemma and its tournament construction.

Given nonnegative integers A_1..A_s and positive integers k_1..k_s with
every k_i <= A_1 + ... + A_s, at least one of the following holds:

  case 1:  1 <= k_i <= A_i                      for some i
  case 2:  -A_j <= k_i - k_j <= A_i - 1         for some i < j

This is the totality guarantee behind the proof engine's vanishing test.
`find_witness` produces a witness deterministically; `build_tournament`
exposes the proof device on inputs where the hypothesis is relaxed and no
witness exists: a labeled tournament whose arcs all run forward along the
order of (k_i, -i), so that it is transitive and its path sums are
bounded, which forces the hypothesis to fail.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, product

from .errors import DomainError, LemmaViolationError, size_str


class Record(tuple):
    """Base of the immutable records (`namedtuple` subclasses): equal, and
    hashed, by value, but only to a record of the same type, so that
    ProofPath((1,), (2,)) != ((1,), (2,))."""
    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


class Witness(Record, namedtuple("Witness", "case i j", defaults=(None,))):
    """A certified reason an instance vanishes.

    case 1 carries index i (1-based); case 2 carries the pair i < j.
    """
    __slots__ = ()

    def holds_for(self, A: tuple[int, ...], k: tuple[int, ...]) -> bool:
        if self.case == 1:
            return (1 <= self.i <= len(A)
                    and 1 <= k[self.i - 1] <= A[self.i - 1])
        if self.case == 2 and self.j is not None:
            if not 1 <= self.i < self.j <= len(A):
                return False
            d = k[self.i - 1] - k[self.j - 1]
            return -A[self.j - 1] <= d <= A[self.i - 1] - 1
        return False


class TournamentInstance(Record, namedtuple("TournamentInstance", "A k")):
    __slots__ = ()

    def __new__(cls, A: tuple[int, ...], k: tuple[int, ...]):
        if len(A) != len(k) or not A:
            raise DomainError("A and k must be nonempty and equally long")
        if any(a < 0 for a in A):
            raise DomainError("A entries must be nonnegative")
        total = sum(A)
        if any(not 1 <= x <= total for x in k):
            raise DomainError("lemma hypothesis needs 1 <= k_i <= sum(A)")
        return tuple.__new__(cls, (A, k))


def scan_witness(A: tuple[int, ...], k: tuple[int, ...]) -> Witness | None:
    """Deterministic witness scan: case 1 by ascending i, then case 2 by
    lexicographic (i, j).  Returns None when neither case fires (possible
    only when the lemma hypothesis k_i <= sum(A) is violated)."""
    s = len(A)
    for i in range(s):
        if 1 <= k[i] <= A[i]:
            return Witness(1, i + 1)
    for i in range(s):
        for j in range(i + 1, s):
            d = k[i] - k[j]
            if -A[j] <= d <= A[i] - 1:
                return Witness(2, i + 1, j + 1)
    return None


def find_witness(inst: TournamentInstance) -> Witness:
    """A witness for an instance satisfying the lemma hypothesis.

    Raises LemmaViolationError if none exists -- a bug detector that must
    never fire (the exhaustive check below confirms it does not at desk
    scale)."""
    w = scan_witness(inst.A, inst.k)
    if w is None:
        raise LemmaViolationError(f"no witness for {inst}")
    if not w.holds_for(inst.A, inst.k):
        raise LemmaViolationError(f"unsound witness {w} for {inst}")
    return w


class TournamentReport:
    """The labeled tournament built from a witness-free instance."""
    __slots__ = ("arcs", "order")

    def __init__(self, arcs: list[tuple[int, int, int]], order: list[int]):
        self.arcs = arcs            # (u, v, label): arc u -> v
        self.order = order          # its total order, 1-based


def build_tournament(A: tuple[int, ...], k: tuple[int, ...]) -> TournamentReport:
    """The proof's tournament for an instance where NO witness exists.

    For i < j (0-based here, reported 1-based): k_i - k_j >= A_i draws an
    arc j -> i labeled A_i; otherwise k_i - k_j <= -A_j - 1, because the
    instance admits no case-2 witness, and the arc i -> j is labeled
    A_j + 1.  An arc j -> i needs k_i - k_j >= A_i >= 0 and an arc i -> j
    needs k_j - k_i >= A_j + 1 >= 1, so every arc runs forward along the
    order of (k_i, -i): the tournament is transitive, with that order.
    Each arc is checked against it, which machine-checks the argument;
    LemmaViolationError if one runs backward (never expected).
    """
    if scan_witness(A, k) is not None:
        raise DomainError("instance admits a witness; tournament not defined")
    s = len(A)
    arcs = []
    for i in range(s):
        for j in range(i + 1, s):
            if k[i] - k[j] >= A[i]:
                arcs.append((j, i, A[i]))
            else:
                arcs.append((i, j, A[j] + 1))
    order = sorted(range(s), key=lambda i: (k[i], -i))
    place = {v: t for t, v in enumerate(order)}
    for u, v, _ in arcs:
        if place[u] > place[v]:
            raise LemmaViolationError(
                f"arc {u + 1} -> {v + 1} runs backward for A={A}, k={k}")
    return TournamentReport(arcs, [i + 1 for i in order])


class ExhaustiveReport:
    __slots__ = ("instances", "witnesses_case1", "witnesses_case2", "failures")

    def __init__(self, instances: int, witnesses_case1: int,
                 witnesses_case2: int, failures: int):
        self.instances = instances
        self.witnesses_case1 = witnesses_case1
        self.witnesses_case2 = witnesses_case2
        self.failures = failures

    @property
    def ok(self) -> bool:
        return self.failures == 0


# Work budget of `exhaustive_check`: the instances it may enumerate.  The
# default s_max = 4, a_max = 3 has 634,542 of them and takes a few
# seconds; s_max = 5 would have 56M, and s_max = a_max = 8 about 1.4e20.
_MAX_INSTANCES = 1 << 22


def instance_count(s_max: int, a_max: int, limit: int) -> int:
    """How many instances exhaustive_check(s_max, a_max) enumerates: the
    sum over s <= s_max and A in [0, a_max]^s of (A_1 + ... + A_s)^s,
    counted from the number of A with each sum, not by enumeration.  Past
    limit it stops and returns limit + 1.  A length s is counted only when
    its largest term, A all a_max, leaves the count within limit, so huge
    arguments cost nothing."""
    total, ways = 0, [1]        # ways[t]: the A of length s - 1 with sum t
    for s in range(1, s_max + 1):
        if total + (s * a_max) ** s > limit:
            return limit + 1
        pre = list(accumulate(ways, initial=0))
        ways = [pre[min(t + 1, len(ways))] - pre[max(t - a_max, 0)]
                for t in range(s * a_max + 1)]
        total += sum(c * t ** s for t, c in enumerate(ways))
        if total > limit:
            return limit + 1
    return total


def exhaustive_check(s_max: int = 4, a_max: int = 3) -> ExhaustiveReport:
    """Check every instance with s <= s_max, A_i <= a_max, all admissible k.

    Asserts a sound witness exists for each; failure raises (never expected).
    More than _MAX_INSTANCES instances are refused before any is checked.
    """
    if instance_count(s_max, a_max, _MAX_INSTANCES) > _MAX_INSTANCES:
        raise DomainError(
            f"s_max {size_str(s_max)}, a_max {size_str(a_max)}: more than "
            f"{_MAX_INSTANCES} instances exceed the work budget")
    n_inst = c1 = c2 = 0
    for s in range(1, s_max + 1):
        for A in product(range(a_max + 1), repeat=s):
            total = sum(A)
            if total == 0:
                continue  # no admissible k
            for k in product(range(1, total + 1), repeat=s):
                n_inst += 1
                w = find_witness(TournamentInstance(A, k))
                if w.case == 1:
                    c1 += 1
                else:
                    c2 += 1
    return ExhaustiveReport(n_inst, c1, c2, 0)
