"""The classical q-series identity suite the engine is sanity-checked against.

Each check compares two exact expansions:

  * product identity: (x_i/x_j)_l (q x_j/x_i)_m
        = q^{binom(m+1,2)} (-x_j/x_i)^m (x_i/x_j q^{-m})_{l+m}
    -- exact Laurent-polynomial equality, all integers l, m >= 0;
  * finite q-binomial theorem: (u)_n = sum_k q^{k(k-1)/2} [n, k] (-u)^k
    -- exact for n >= 0, truncated in u for n < 0 (each u-coefficient is
    still an exact element of Q(q));
  * q-binomial theorem: (az)_inf / (z)_inf = sum_k (a)_k / (q)_k z^k
    -- the infinite products live outside Q(q), so q is adjoined as a
    series variable and both sides are compared exactly inside a finite
    exponent window (factors beyond the window are identically 1 there);
  * Pochhammer additivity: (z)_n (z q^n)_m = (z)_{n+m}, n, m of both signs.
"""

from __future__ import annotations

from .ctengine import ct_factored_pfrac_labeled
from .errors import DomainError
from .laurent import FactoredForm, LaurentPoly, qbinomial, qpochhammer
from .qfield import QRat


class IdentityResult:
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = ok
        self.detail = detail


def product_identity_check(l: int, m: int, i: int = 0, j: int = 1) -> bool:
    """(x_i/x_j)_l (q x_j/x_i)_m vs its single-Pochhammer rewrite, exactly."""
    nv = max(i, j) + 1
    lhs = (qpochhammer(nv, {i: 1, j: -1}, l)
           * qpochhammer(nv, {j: 1, i: -1}, m, qshift=1))
    rhs = qpochhammer(nv, {i: 1, j: -1}, l + m, qshift=-m) * \
        FactoredForm.monomial(nv, {j: m, i: -m},
                              QRat.qpow(m * (m + 1) // 2).scaled((-1) ** m))
    return lhs.expand_exact() == rhs.expand_exact()


def finite_qbinomial_check(n: int, max_deg: int = 8) -> bool:
    """(u)_n = sum_k q^{k(k-1)/2} [n, k] (-u)^k with u a series variable."""
    u = {0: 1}
    lhs_ff = qpochhammer(1, u, n)
    if n >= 0:
        lhs = lhs_ff.expand_exact()
        kmax = n
    else:
        lhs = lhs_ff.expand_within({0: max_deg})
        kmax = max_deg
    rhs = LaurentPoly.zero(1)
    for k in range(kmax + 1):
        coeff = qbinomial(n, k).times_qpow(k * (k - 1) // 2).scaled((-1) ** k)
        rhs = rhs + LaurentPoly.monomial(1, (k,), coeff)
    return lhs == rhs


def qbinomial_theorem_check(max_deg: int = 8) -> bool:
    """(az)_inf / (z)_inf = sum_k (a)_k/(q)_k z^k inside the window
    a-deg, z-deg, q-deg <= max_deg (a = x0, z = x1, q adjoined as x2)."""
    window = {0: max_deg, 1: max_deg, 2: max_deg}
    lhs = FactoredForm(3)
    for m in range(max_deg + 1):
        lhs = (lhs * qpochhammer(3, (1, 1, m), 1)           # 1 - a z q^m
               * qpochhammer(3, (0, 1, m), 1) ** -1)        # 1/(1 - z q^m)
    lhs_lp = lhs.expand_within(window)

    rhs_lp = LaurentPoly.zero(3)
    for k in range(max_deg + 1):
        term = FactoredForm.monomial(3, {1: k})
        for t in range(k):
            term = term * qpochhammer(3, (1, 0, t), 1)          # 1 - a q^t
        for t in range(1, k + 1):
            term = term * qpochhammer(3, (0, 0, t), 1) ** -1    # 1/(1 - q^t)
        rhs_lp = rhs_lp + term.expand_within(window)
    return lhs_lp == rhs_lp


def pochhammer_additivity_check(n: int, m: int, max_deg: int = 8,
                                two_var: bool = False) -> bool:
    """(z)_n (z q^n)_m = (z)_{n+m} as expanded factored forms."""
    if two_var:
        nv, mono, qshift = 2, {0: 1, 1: -1}, 2   # z = q^2 x0/x1
    else:
        nv, mono, qshift = 1, {0: 1}, 0          # z = x0
    lhs = (qpochhammer(nv, mono, n, qshift=qshift)
           * qpochhammer(nv, mono, m, qshift=qshift + n))
    rhs = qpochhammer(nv, mono, n + m, qshift=qshift)
    window = {0: max_deg}
    return lhs.expand_within(window) == rhs.expand_within(window)


def small_large_ct_check(k: int) -> bool:
    """CT_{x_i} 1/(1 - q^k x_i/x_j) is 1 for i < j and 0 for i > j,
    by partial fractions against the windowed series."""
    ok = True
    # i = 0 < j = 1: small, CT = 1
    r = qpochhammer(2, {0: 1, 1: -1}, 1, qshift=k) ** -1
    total = LaurentPoly.zero(2)
    for _, p in ct_factored_pfrac_labeled(r, 0):
        total = total + p.expand_within({0: 0, 1: 0})
    ok &= total == LaurentPoly.one(2)
    series = r.expand_within({0: 0, 1: 4}, {0: 0})
    ok &= series == LaurentPoly.one(2)
    # i = 1 > j = 0: large, CT = 0
    r = qpochhammer(2, {1: 1, 0: -1}, 1, qshift=k) ** -1
    ok &= ct_factored_pfrac_labeled(r, 1) == []
    return bool(ok)


def run_suite(max_deg: int = 8) -> list[IdentityResult]:
    """The full suite at one truncation degree; one result per identity."""
    if max_deg < 0:
        raise DomainError("truncation degree must be nonnegative")
    results = []

    ok = all(product_identity_check(l, m)
             and product_identity_check(l, m, i=1, j=0)
             for l in range(4) for m in range(4))
    results.append(IdentityResult(
        "pochhammer-product-rewrite", ok, "l, m in [0, 3], both orientations"))

    ok = all(finite_qbinomial_check(n, max_deg) for n in range(-4, 5))
    results.append(IdentityResult(
        "finite-q-binomial", ok,
        f"n in [-4, 4], truncated to u-degree {max_deg} for n < 0"))

    # the n = -1 row coefficient-by-coefficient: coeff of u^k is q^{-k}
    lhs = qpochhammer(1, {0: 1}, -1).expand_within({0: max_deg})
    ok = all(lhs.coeff_of((k,)) == QRat.qpow(-k) for k in range(max_deg + 1))
    results.append(IdentityResult(
        "finite-q-binomial-n=-1-coeffs", ok, "coeff of u^k equals q^-k"))

    results.append(IdentityResult(
        "q-binomial-theorem", qbinomial_theorem_check(max_deg),
        f"window degree {max_deg} in a, z, q"))

    ok = all(pochhammer_additivity_check(n, m, max_deg, two_var)
             for n in range(-3, 4) for m in range(-3, 4)
             for two_var in (False, True))
    results.append(IdentityResult(
        "pochhammer-additivity", ok, "n, m in [-3, 3], scalar and x0/x1 bases"))

    ok = all(small_large_ct_check(k) for k in range(-3, 4))
    results.append(IdentityResult(
        "small-large-constant-terms", ok, "q-power in [-3, 3]"))

    return results
