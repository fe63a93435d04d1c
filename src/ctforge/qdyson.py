"""The q-Dyson identity: brute-force verification and a mechanical replay
of its constant-term proof.

For nonnegative a_0..a_n the identity says

    CT prod_{0<=i<j<=n} (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j}
        = (q)_{a_0+...+a_n} / ((q)_{a_0} ... (q)_{a_n}).

Both sides, viewed as functions of t = q^{a_0} with a_1..a_n fixed, are
polynomials in t of degree at most a = a_1+...+a_n: t enters the product
only through the z^k coefficients of (z)_{a_0}, z = x_0/x_j, of t-degree k
(q-binomial theorem), and the a_0-free rest has lowest x_0-degree -a.  The
closed-form side visibly vanishes at t = q^{-1}..q^{-a}; the replay
machinery certifies that the constant-term side vanishes there too, by a
recursion that eliminates one variable per step via partial fractions,
with every leaf carrying a combinatorial witness (see `tournament`).
Matching at the remaining point t = q^0 reduces the rank by one, and
agreement at a+1 points pins both degree-<=a polynomials to each other.

The negative exponents are reached through the same product at a_0 = -b,
where (x_0/x_j)_{-b} = 1/prod_{i=1..b} (1 - x_0/(x_j q^i)): the kernel

    K(b) = prod_j (x_j q/x_0)_{a_j} / prod_j prod_{i=1..b} (1 - x_0/(x_j q^i))
           * prod_{1<=i<j<=n} (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j}

whose full constant term equals the constant-term side at t = q^{-b}.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import lru_cache
from math import factorial, prod

from .ctengine import (ct_all_bruteforce, ct_all_series,
                       ct_factored_pfrac_labeled)
from .errors import (CertificationError, DomainError, ProofInvariantError,
                     size_str)
from .laurent import FactoredForm, qpoch_qrat, qpoch_quotient, qpochhammer
from .qfield import QRAT_ONE, QRAT_ZERO, QRat
from .tournament import Record, Witness, scan_witness


class DysonParams(Record, namedtuple("DysonParams", "a b")):
    """Parameters (a_1..a_n) plus the exponent slot b / a_0."""
    __slots__ = ()

    def __new__(cls, a: tuple[int, ...], b: int):
        if any(x < 0 for x in a):
            raise DomainError("parameters must be nonnegative")
        return tuple.__new__(cls, (a, b))

    @property
    def n(self) -> int:
        return len(self.a)


class ProofPath(Record, namedtuple("ProofPath", "r k")):
    """Index pair sequences (r_1..r_s; k_1..k_s) of the recursion.

    0 < r_1 < ... < r_s <= n and 1 <= k_i <= b; the implicit r_0 = k_0 = 0
    stands for the original series variable x_0.
    """
    __slots__ = ()

    def __new__(cls, r: tuple[int, ...] = (), k: tuple[int, ...] = ()):
        if len(r) != len(k):
            raise DomainError("r and k must have equal length")
        if any(x <= y for x, y in zip(r[1:], r)) or (r and r[0] < 1):
            raise DomainError("r must be strictly increasing and positive")
        if any(x < 1 for x in k):
            raise DomainError("k entries must be positive")
        return tuple.__new__(cls, (r, k))

    @property
    def depth(self) -> int:
        return len(self.r)

    def extended(self, r_next: int, k_next: int) -> "ProofPath":
        """The path with (r_next, k_next) appended.  Only the new entry is
        checked, with `__new__`'s messages: self was checked when made."""
        if r_next <= (self.r[-1] if self.r else 0):
            raise DomainError("r must be strictly increasing and positive")
        if k_next < 1:
            raise DomainError("k entries must be positive")
        return tuple.__new__(ProofPath,
                             (self.r + (r_next,), self.k + (k_next,)))

    def __str__(self):
        return f"(r={list(self.r)}; k={list(self.k)})"


# ---------------------------------------------------------------------------
# the two sides of the identity
# ---------------------------------------------------------------------------

def qdyson_lhs_product(a0: int, a: tuple[int, ...]) -> FactoredForm:
    """prod_{0<=i<j<=n} (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j}.

    a_1..a_n must be nonnegative; a0 may be any integer.  For a0 >= 0 the
    form is numerator-only; for a0 = -b < 0 it is the kernel K(b).
    """
    if any(x < 0 for x in a):
        raise DomainError("parameters must be nonnegative")
    params = (a0,) + tuple(a)
    nv = len(params)
    runs = []
    for i in range(nv):
        for j in range(i + 1, nv):
            runs += qpochhammer(nv, {i: 1, j: -1}, params[i]).runs
            runs += qpochhammer(nv, {j: 1, i: -1}, params[j], qshift=1).runs
    return FactoredForm(nv, runs=runs)


def qdyson_rhs(a0: int, a: tuple[int, ...]) -> QRat:
    """(q)_{a_0+...+a_n} / ((q)_{a_0} (q)_{a_1} ... (q)_{a_n})."""
    if a0 < 0 or any(x < 0 for x in a):
        raise DomainError("parameters must be nonnegative")
    return rhs_value_at(a, a0)


def rhs_value_at(a: tuple[int, ...], b: int) -> QRat:
    """The closed-form side as a function of b:
    (1-q^{b+a})(1-q^{b+a-1})...(1-q^{b+1}) / ((q)_{a_1} ... (q)_{a_n}),
    a Laurent polynomial for every integer b, its factors read by
    `QRat.from_factors` (`qpoch_quotient`)."""
    return qpoch_quotient(b + 1, tuple(a))


def lhs_value_at(a: tuple[int, ...], b: int) -> QRat:
    """The constant-term side as a function of b.

    b >= 0 is the literal polynomial product; b < 0 is the constant term
    of the kernel's iterated-Laurent expansion (the series in x0 is capped
    at the exact bound a = sum of parameters by the all-zero window; the
    remaining variables are swept in the same windowed pass, which equals
    taking their constant terms afterwards but prunes far harder).
    """
    a = tuple(a)
    if b >= 0:
        return ct_all_bruteforce(qdyson_lhs_product(b, a))
    return ct_all_series(qdyson_kernel(-b, a))


# ---------------------------------------------------------------------------
# the negative-exponent kernel and its recursion
# ---------------------------------------------------------------------------

def qdyson_kernel(b: int, a: tuple[int, ...]) -> FactoredForm:
    """K(b) for b >= 1: CT over all variables equals lhs_value_at(a, -b).

    The product at a0 = -b.  Numerator: prod_j (x_j q/x_0)_{a_j} and the
    pair products; denominator: prod_j prod_{i=1..b} (1 - x_0/(x_j q^i)).
    Proper in x0 of degree -n*b.  The last result is kept in one memo
    slot keyed on (b, tuple(a)), so a certificate's walk and the oracle
    run right after it share one build; qdyson_kernel.cache_clear()
    empties the slot.
    """
    return _kernel(b, tuple(a))


@lru_cache(maxsize=1)
def _kernel(b: int, a: tuple[int, ...]) -> FactoredForm:
    if b < 1:
        raise DomainError("kernel needs b >= 1")
    return qdyson_lhs_product(-b, a)


qdyson_kernel.cache_clear = _kernel.cache_clear


def collapse_path(path: ProofPath, f: FactoredForm) -> FactoredForm:
    """The substitution E: x_{r_i} := x_{r_s} q^{k_s - k_i} for i = 0..s-1
    (with r_0 = k_0 = 0), as one substitution."""
    if path.depth == 0:
        raise DomainError("collapse needs a nonempty path")
    ks = path.k[-1]
    return f.substitute(
        {ri: ks - ki for ri, ki in zip((0,) + path.r[:-1], (0,) + path.k[:-1])},
        path.r[-1])


def transfer_var(f: FactoredForm, src: int, dst: int, k: int,
                 ks: int) -> FactoredForm:
    """The substitution T: x_src := x_dst q^{k - ks} (src is the variable
    the current path collapsed onto; dst must differ)."""
    if src == dst:
        raise DomainError("transfer onto the same variable")
    return f.substitute({src: k - ks}, dst)


def kernel_at_path(b: int, a: tuple[int, ...],
                   path: ProofPath) -> FactoredForm:
    """K(b | r; k): the path's denominator factors are cancelled
    symbolically *before* the collapse, so no zero denominators arise.

    The poles 1 - x_0/(x_r q^k), k = 1..b, are one run (x_0/x_r)_{-b} of
    K(b) = qdyson_kernel(b, a), found by value wherever it stands and split
    around k; a path whose pole run is missing raises ProofInvariantError.
    """
    n = len(a)
    if path.r and path.r[-1] > n:
        raise DomainError("path index exceeds the number of variables")
    if any(x > b for x in path.k):
        raise DomainError("path k entries must be at most b")
    root = qdyson_kernel(b, a)
    if path.depth == 0:
        return root
    cuts = {}
    for r, k in zip(path.r, path.k):
        pole = ((1,) + (0,) * (r - 1) + (-1,) + (0,) * (n - r), -1, -b, -1)
        if pole not in root.runs:
            raise ProofInvariantError(f"missing denominator factors at {path}")
        cuts[root.runs.index(pole)] = -k
    return collapse_path(path, root.drop_factors(cuts))


def find_vanishing_witness(a: tuple[int, ...],
                           path: ProofPath) -> Witness | None:
    """Why K(b | r; k) is zero, when the witness lemma applies.

    case 1 (1 <= k_i <= a_{r_i}): the collapsed Pochhammer (q^{1-k_i})_{a_{r_i}}
    has a (1 - q^0) factor.  case 2 (-a_{r_j} <= k_i - k_j <= a_{r_i} - 1):
    the collapsed pair product rewrites, via the two-Pochhammer product
    identity, to a multiple of (q^{k_j-k_i-a_{r_j}})_{a_{r_i}+a_{r_j}} = 0.
    Scan order: case 1 by ascending i, then case 2 by lex (i, j).
    """
    if path.depth == 0:
        return None
    A = tuple(a[r - 1] for r in path.r)
    return scan_witness(A, path.k)


def witness_vanishing_value(a: tuple[int, ...], path: ProofPath,
                            w: Witness) -> QRat:
    """The Pochhammer value the witness claims is zero, computed exactly."""
    if w.case == 1:
        ki = path.k[w.i - 1]
        ai = a[path.r[w.i - 1] - 1]
        return qpoch_qrat(1 - ki, ai)
    ki, kj = path.k[w.i - 1], path.k[w.j - 1]
    ai = a[path.r[w.i - 1] - 1]
    aj = a[path.r[w.j - 1] - 1]
    return qpoch_qrat(kj - ki - aj, ai + aj)


def expand_recursion(b: int, a: tuple[int, ...], path: ProofPath,
                     ff: FactoredForm) -> list[tuple[ProofPath, FactoredForm]]:
    """Children of a witness-free node whose kernel K(b | r; k) is ff, in
    lexicographic order, each paired with its own kernel, built by
    kernel_at_path.

    Verifies the properness degree of ff in the collapse variable equals
    (n - s)(a_{r_1}+...+a_{r_s} - b) and is negative, and that each
    partial-fraction summand in that variable is literally the child kernel
    -- the transfer-after-collapse composition law, factor by factor.
    """
    n = len(a)
    s = path.depth
    if s >= n and not (s == 0 and n == 0):
        raise DomainError("recursion needs depth below the variable count")
    if ff.is_zero():
        raise ProofInvariantError("recursion reached a form that is already zero")
    var = path.r[-1] if s else 0     # the collapse variable, r_s
    ssum = sum(a[r - 1] for r in path.r)
    expected_deg = (n - s) * (ssum - b)
    deg = ff.degree_in(var)
    if deg != expected_deg or deg >= 0:
        raise ProofInvariantError(
            f"degree in x{var} at {path} is {deg}, expected {expected_deg} < 0")
    if var == n:
        return []
    # transfer-after-collapse route (from the parent's form) must equal
    # the fresh collapse route (the child kernel), pole by pole; the pole
    # for child (r_next, k_next) is x_{r_next} q^{k_next - k_s}
    ks = path.k[-1] if s else 0
    summands = {(t, e + ks): summand
                for (t, e), summand in ct_factored_pfrac_labeled(ff, var)}
    children = []
    for rn in range(var + 1, n + 1):
        for kn in range(1, b + 1):
            child = path.extended(rn, kn)
            got = summands.get((rn, kn))
            want = kernel_at_path(b, a, child)
            if got is None or not (got == want):
                raise ProofInvariantError(
                    f"composition law fails at {path} -> {child}")
            children.append((child, want))
    if len(summands) != len(children):
        raise ProofInvariantError(f"extra partial-fraction summands at {path}")
    return children


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

CERT_FORMAT = "ctforge-certificate/1"
ZERO_CASE1 = "zero_case1"
ZERO_CASE2 = "zero_case2"
RECURSED = "recursed"


class CertNode:
    __slots__ = ("path", "status", "witness", "children")

    def __init__(self, path: ProofPath, status: str,
                 witness: Witness | None = None,
                 children: list[CertNode] | None = None):
        self.path = path
        self.status = status
        self.witness = witness
        self.children = [] if children is None else children

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


class Certificate:
    __slots__ = ("params", "root", "oracle_checked")

    def __init__(self, params: DysonParams, root: CertNode,
                 oracle_checked: list[ProofPath] | None = None):
        self.params = params
        self.root = root
        self.oracle_checked = [] if oracle_checked is None else oracle_checked

    def leaf_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in self.root.walk():
            counts[node.status] = counts.get(node.status, 0) + 1
        return counts


def certify_vanishing(a: tuple[int, ...], b: int) -> Certificate:
    """Certificate that the constant-term side vanishes at t = q^{-b}.

    Requires 1 <= b <= a_1+...+a_n.  One pass down the proof tree builds
    it: a node with a vanishing witness is a leaf, whose kernel must be
    zero; every other node is a recursion step, degree- and
    composition-checked, and each child's kernel is the one its
    composition check built from the root kernel K(b), which is built
    once.  The first and the last internal (non-root recursed) kernels
    are independently confirmed to have zero constant term by the series
    oracle.  The finished tree is then checked by validate_certificate,
    the one certificate checker.
    """
    a = tuple(a)
    asum = sum(a)
    if not 1 <= b <= asum:
        raise DomainError(f"b must lie in [1, {size_str(asum)}]")
    n = len(a)
    first = last = None
    nonzero = []                    # witnessed leaves whose kernel is not zero

    def build(path: ProofPath, ff: FactoredForm) -> CertNode:
        nonlocal first, last
        s = path.depth
        if s > 0:
            w = find_vanishing_witness(a, path)
            if w is not None:
                if not ff.is_zero():
                    nonzero.append(path)
                return CertNode(path, ZERO_CASE1 if w.case == 1 else ZERO_CASE2, w)
            if s == n:
                raise CertificationError(
                    f"full-depth node without witness at {path}")
            last = (path, ff)
            first = first or last
        children = expand_recursion(b, a, path, ff)
        return CertNode(path, RECURSED, None, [build(*c) for c in children])

    root = build(ProofPath(), qdyson_kernel(b, a))
    cert = Certificate(DysonParams(a, b), root)
    # the first and the last internal kernel, once when they coincide
    for path, ff in dict(p for p in (first, last) if p).items():
        value = ct_all_series(ff)
        if not value.is_zero():
            raise CertificationError(f"series oracle nonzero at {path}: {value}")
        cert.oracle_checked.append(path)
    # a witness that fails its own inequalities is reported as such first
    validate_certificate(cert)
    if nonzero:
        raise CertificationError(f"witnessed kernel is not zero at {nonzero[0]}")
    return cert


# -- JSON serialization (schema documented in the README) --------------------

def _node_to_dict(node: CertNode) -> dict:
    w = None
    if node.witness is not None:
        w = {"case": node.witness.case, "i": node.witness.i}
        if node.witness.j is not None:
            w["j"] = node.witness.j
    return {
        "path": {"r": list(node.path.r), "k": list(node.path.k)},
        "status": node.status,
        "witness": w,
        "children": [_node_to_dict(c) for c in node.children],
    }


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "format": CERT_FORMAT,
        "params": {"n": cert.params.n, "a": list(cert.params.a),
                   "b": cert.params.b},
        "oracle_checked": [{"r": list(p.r), "k": list(p.k)}
                           for p in cert.oracle_checked],
        "root": _node_to_dict(cert.root),
    }


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2)


def _ints(*xs) -> tuple[int, ...]:
    if any(type(x) is not int for x in xs):
        raise TypeError(f"expected integers, found {xs!r}")
    return xs


def _node_from_dict(d: dict) -> CertNode:
    w = d.get("witness")
    j = (w["j"],) if w and "j" in w else ()
    witness = Witness(*_ints(w["case"], w["i"], *j)) if w else None
    return CertNode(ProofPath(_ints(*d["path"]["r"]), _ints(*d["path"]["k"])),
                    d["status"], witness,
                    [_node_from_dict(c) for c in d["children"]])


def certificate_from_dict(d: dict) -> Certificate:
    """Read a certificate from its JSON form; any malformed input raises
    CertificationError.  validate_certificate then checks the proof."""
    try:
        if d.get("format") != CERT_FORMAT:
            raise CertificationError(f"not a {CERT_FORMAT} certificate")
        a = _ints(*d["params"]["a"])
        if _ints(d["params"]["n"]) != (len(a),):
            raise CertificationError("params.n is not the length of params.a")
        params = DysonParams(a, *_ints(d["params"]["b"]))
        oc = [ProofPath(_ints(*p["r"]), _ints(*p["k"]))
              for p in d.get("oracle_checked", [])]
        return Certificate(params, _node_from_dict(d["root"]), oc)
    except (LookupError, TypeError, ValueError, AttributeError,
            RecursionError) as e:
        raise CertificationError(f"malformed certificate: {e!r}") from e


def validate_certificate(cert: Certificate) -> int:
    """The one certificate checker: full structural and logical
    verification of a certificate tree; returns the node count.

    Checks: the root path is empty; per node, path shape; recursed nodes
    carry no witness, lie below full depth with a_{r_1}+...+a_{r_s} < b
    (the properness precondition (n-s)(a_{r_1}+...+a_{r_s} - b) < 0 of the
    recursion) and their children enumerate exactly (r_s, n] x [1, b];
    every other node is a zero_case1 or zero_case2 leaf whose witness has
    that case, re-satisfies its inequalities and has a claimed Pochhammer
    value that is exactly zero; oracle_checked is the first and the last
    recursed node below the root, in preorder.  Raises CertificationError.
    """
    a = cert.params.a
    n = cert.params.n
    b = cert.params.b
    if not 1 <= b <= sum(a):
        raise CertificationError("certificate b out of range")
    if cert.root.path.depth:
        raise CertificationError(f"root path is not empty: {cert.root.path}")
    count = 0
    internal = []                        # recursed nodes of depth >= 1
    for node in cert.root.walk():
        count += 1
        path = node.path
        s = path.depth
        if any(r > n for r in path.r) or any(k > b for k in path.k):
            raise CertificationError(f"path out of range: {path}")
        if node.status == RECURSED:
            if node.witness is not None:
                raise CertificationError(f"recursed node with a witness at {path}")
            if s >= n or sum(a[r - 1] for r in path.r) >= b:
                raise CertificationError(f"recursion is not proper at {path}")
            rs = path.r[-1] if s else 0
            got = [c.path for c in node.children]
            # b comes from the input: count before building the paths
            if len(got) != (n - rs) * b or got != [
                    path.extended(rn, kn) for rn in range(rs + 1, n + 1)
                    for kn in range(1, b + 1)]:
                raise CertificationError(f"bad child enumeration at {path}")
            if s:
                internal.append(path)
        elif node.status in (ZERO_CASE1, ZERO_CASE2):
            if node.children:
                raise CertificationError(f"leaf with children at {path}")
            w = node.witness
            if w is None:
                raise CertificationError(f"leaf without witness at {path}")
            if w.case != (1 if node.status == ZERO_CASE1 else 2):
                raise CertificationError(f"witness case mismatch at {path}")
            A = tuple(a[r - 1] for r in path.r)
            if not w.holds_for(A, path.k):
                raise CertificationError(f"witness inequalities fail at {path}")
            if not witness_vanishing_value(a, path, w).is_zero():
                raise CertificationError(f"witness value not zero at {path}")
        else:
            raise CertificationError(f"unknown status {node.status!r}")
    if cert.oracle_checked != list(dict.fromkeys(internal[:1] + internal[-1:])):
        raise CertificationError("oracle_checked is not the sampling policy")
    return count


# ---------------------------------------------------------------------------
# degree bound via interpolation
# ---------------------------------------------------------------------------

def interpolate_eval(points: list[tuple[QRat, QRat]], at: QRat) -> QRat:
    """Value at `at` of the unique degree < len(points) polynomial through
    the points, in Lagrange form; points with a zero ordinate add nothing.
    The abscissae must be distinct.  Each point's term yi prod (at - tj) /
    prod (ti - tj) is reduced once (`QRat.ratio_of_products`)."""
    ats = [at - tj for tj, _ in points]
    acc = QRAT_ZERO
    for i, (ti, yi) in enumerate(points):
        others = [j for j in range(len(points)) if j != i]
        if yi.is_zero() or any(ats[j].is_zero() for j in others):
            continue
        acc = acc + QRat.ratio_of_products(
            [yi, *(ats[j] for j in others)],
            [ti - points[j][0] for j in others])
    return acc


class DegreeBoundReport:
    __slots__ = ("a", "predicted", "actual")

    def __init__(self, a: tuple[int, ...], predicted: QRat, actual: QRat):
        self.a = a
        self.predicted = predicted
        self.actual = actual

    @property
    def ok(self) -> bool:
        return self.predicted == self.actual


def degree_bound_check(a: tuple[int, ...],
                       known: dict[int, QRat] | None = None
                       ) -> DegreeBoundReport:
    """Sampled cross-check of the degree lemma, run by `--method both`:
    the degree-<=a fit in t = q^b through the brute-force values at
    b = 0..a predicts the value at b = a+1 exactly.  known holds values
    lhs_value_at(a, b) already computed, by b; they are not recomputed."""
    a = tuple(a)
    asum = sum(a)
    known = known or {}
    values = [known[b] if b in known else lhs_value_at(a, b)
              for b in range(asum + 2)]
    points = [(QRat.qpow(b), values[b]) for b in range(asum + 1)]
    predicted = interpolate_eval(points, QRat.qpow(asum + 1))
    actual = values[-1]
    return DegreeBoundReport(a, predicted, actual)


# ---------------------------------------------------------------------------
# top-level verifiers
# ---------------------------------------------------------------------------

class VerifyReport:
    __slots__ = ("ok", "method", "a0", "a", "lhs", "rhs", "detail")

    def __init__(self, ok: bool, method: str, a0: int, a: tuple[int, ...],
                 lhs: QRat | None, rhs: QRat, detail: list[str] | None = None):
        self.ok = ok
        self.method = method
        self.a0 = a0
        self.a = a
        self.lhs = lhs
        self.rhs = rhs
        self.detail = [] if detail is None else detail

    def counterexample(self) -> str | None:
        if self.ok:
            return None
        return (f"a0={self.a0}, a={list(self.a)}: "
                f"LHS = {self.lhs} but RHS = {self.rhs}")


def verify_qdyson(a0: int, a: tuple[int, ...],
                  method: str = "brute") -> VerifyReport:
    """Check the identity at (a0, a); its closed form is computed once.

    brute: expand the product and compare constant terms exactly.
    replay: re-run the proof's logic by rank induction down to the empty
    product -- at each rank, take the value at t = 1 from the rank below,
    certify the a roots, check the degree lemma's exact hypothesis, and
    pin the value at q^{a0} through the a+1 matching points.  both: run
    both plus the sampled degree fit; all must hold.
    """
    a = tuple(a)
    if a0 < 0 or any(x < 0 for x in a):
        raise DomainError("parameters must be nonnegative")
    if method not in ("brute", "replay", "both"):
        raise DomainError(f"unknown method {method!r}")
    rhs = qdyson_rhs(a0, a)
    lhs = None if method == "replay" else lhs_value_at(a, a0)
    ok = lhs is None or lhs == rhs
    detail: list[str] = []
    if method != "brute":
        ok = _replay(a0, a, rhs, detail) and ok
    if method == "both":
        fit = degree_bound_check(a, {a0: lhs}).ok
        detail.append(f"sampled degree fit {'holds' if fit else 'FAILS'}")
        ok = ok and fit
    return VerifyReport(ok, method, a0, a, lhs, rhs, detail)


def _replay(a0: int, a: tuple[int, ...], rhs: QRat, detail: list[str]) -> bool:
    """Rank-inductive replay at (a0, a), rhs its closed form; returns True
    when every step certifies.  Every rank n >= 1 takes the same step, and
    its base point, the closed form at rank n - 1, is that rank's rhs."""
    n = len(a)
    if n == 0:
        detail.append("rank 0: empty product, both sides 1")
        return rhs == QRAT_ONE
    base = qdyson_rhs(a[0], a[1:])
    if not _replay(a[0], a[1:], base, detail):
        return False
    asum = sum(a)
    detail.append(f"rank {n}: base point t=1 from rank {n - 1}")
    points = [(QRAT_ONE, base)]
    for b in range(1, asum + 1):
        cert = certify_vanishing(a, b)
        counts = cert.leaf_counts()
        detail.append(f"rank {n}: root t=q^-{b} certified "
                      f"({counts.get(ZERO_CASE1, 0)} case-1, "
                      f"{counts.get(ZERO_CASE2, 0)} case-2 leaves)")
        if not rhs_value_at(a, -b).is_zero():
            detail.append(f"closed form does not vanish at b=-{b}")
            return False
        points.append((QRat.qpow(-b), QRAT_ZERO))
    rest = qdyson_lhs_product(0, a)
    low = rest.mono[0] + sum(exp * (abs(last - first) + 1) * min(0, mono[0])
                             for mono, first, last, exp in rest.runs)
    ok = low >= -asum
    detail.append(f"rank {n}: degree bound: a0-free part's lowest x0-degree "
                  f"{low}, needs >= -{asum}: {'holds' if ok else 'FAILS'}; "
                  "q-binomial theorem taken on trust")
    if not ok:
        return False
    predicted = interpolate_eval(points, QRat.qpow(a0))
    if predicted != rhs:
        detail.append(f"uniqueness step fails: {predicted} != {rhs}")
        return False
    detail.append(f"rank {n}: value at t=q^{a0} pinned by {asum + 1} points")
    return True


def dyson_product(a: tuple[int, ...]) -> FactoredForm:
    """The classical Dyson product prod_{i != j} (1 - x_i/x_j)^{a_j}."""
    nv = len(a)
    return prod((qpochhammer(nv, {i: 1, j: -1}, 1) ** a[j]
                 for i in range(nv) for j in range(nv) if i != j and a[j]),
                start=FactoredForm(nv))


def multinomial(parts: tuple[int, ...]) -> int:
    out = factorial(sum(parts))
    for p in parts:
        out //= factorial(p)
    return out


def verify_dyson(a0: int, a: tuple[int, ...]) -> VerifyReport:
    """The q = 1 statement: CT of the classical Dyson product equals the
    multinomial coefficient."""
    params = (a0,) + tuple(a)
    if any(x < 0 for x in params):
        raise DomainError("parameters must be nonnegative")
    ct = ct_all_bruteforce(dyson_product(params))
    want = QRat.from_int(multinomial(params))
    return VerifyReport(ct == want, "q1", a0, tuple(a), ct, want)
