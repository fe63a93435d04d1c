#!/usr/bin/env python3
"""The classical q-series identities the engine is checked against.

Three workhorses, each verified exactly by the expansion engine itself:

  * the two-Pochhammer product rewrite
        (x_i/x_j)_l (q x_j/x_i)_m
            = q^{C(m+1,2)} (-x_j/x_i)^m (x_i/x_j q^{-m})_{l+m},
    an equality of honest Laurent polynomials;
  * the finite q-binomial theorem
        (u)_n = sum_k q^{k(k-1)/2} [n, k] (-u)^k,
    valid for negative n too, where (u)_{-p} is a reciprocal product and
    the sum becomes a power series in u;
  * the q-binomial theorem for infinite products,
        (az)_inf / (z)_inf = sum_k (a)_k/(q)_k z^k,
    compared inside a finite exponent window with q adjoined as a series
    variable (factors beyond the window are identically 1 there).
"""

from ctforge import qbinomial, qpochhammer
from ctforge.identities import run_suite
from ctforge.qfield import QRat

# the finite theorem at n = -1 is the plain geometric series in disguise:
# every coefficient of u^k must be exactly q^{-k}
series = qpochhammer(1, {0: 1}, -1).expand_within({0: 6})
print("(u)_{-1} =", series, "+ ...")
assert all(series.coeff_of((k,)) == QRat.qpow(-k) for k in range(7))

# Gaussian binomials with negative top argument stay exact:
for k in range(5):
    print(f"[-1, {k}] =", qbinomial(-1, k))

# the full suite, as the command line runs it
print()
for result in run_suite(max_deg=8):
    print(f"{'PASS' if result.ok else 'FAIL'}  {result.name}  ({result.detail})")
