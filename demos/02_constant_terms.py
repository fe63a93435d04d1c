#!/usr/bin/env python3
"""Constant terms in the iterated Laurent series field.

Rational functions of x0..xn have a unique expansion if series are taken
first in x0, then x1, and so on.  The direction each geometric series
runs in is decided by the variable order: q^k x_i/x_j is "small" when
i < j (so 1/(1 - small) starts at 1) and "large" when i > j (the series
starts at a nonconstant term).  Constant terms can then be read off two
independent ways: expanding a window of the series, or partial fractions.
"""

from ctforge import LaurentPoly, ct_factored_pfrac_labeled, qpochhammer

# ---------------------------------------------------------------------------
# Small vs large: the same binomial, two very different series.
# ---------------------------------------------------------------------------

# (1 - q x0/x1)^-1 is the q-Pochhammer symbol (q x0/x1; q)_1 inverted
small = qpochhammer(2, {0: 1, 1: -1}, 1, qshift=1) ** -1
large = qpochhammer(2, {1: 1, 0: -1}, 1, qshift=1) ** -1

print("1/(1 - q x0/x1) =", small.expand_within({0: 3}), "+ ...")
print("1/(1 - q x1/x0) =", large.expand_within({0: 3}), "+ ...")
print()
# small: the lowest-index variable of the monomial is upstairs
for label, mono in (("q^3 x0/x2", (1, 0, -1)), ("x2/x0", (-1, 0, 1))):
    upstairs = next(e for e in mono if e) > 0
    print(f"{label:9} is", "small" if upstairs else "large")

# Consequently CT_{x0} of the first is 1 and of the second is 0.
print("CT_x0 small :", small.expand_within({0: 0, 1: 0}))
print("CT_x0 large :", large.expand_within({0: 0, 1: 0}))

# ---------------------------------------------------------------------------
# Partial fractions.  For R proper in x_k with simple monomial poles
# x_t q^s, CT_{x_k} R is the sum of cofactors at the small poles only.
# ---------------------------------------------------------------------------

print()
R = (qpochhammer(3, {0: 1, 1: -1}, 1)
     * qpochhammer(3, {0: 1, 2: -1}, 1, qshift=-1)) ** -1
print("R = 1/((1 - x0/x1)(1 - x0/(q x2)))")
parts = ct_factored_pfrac_labeled(R, 0)
for (t, s), part in parts:
    print(f"  pole x{t} q^{s}: summand", part)

# The two summands are reciprocal-complementary, so they sum to 1 --
# confirm by expanding both in the same window:
window = {1: 4, 2: 4}
total = LaurentPoly.zero(3)
for _, part in parts:
    total = total + part.expand_within(window)
print("sum of summands in a window:", total.restrict(hi=window))

# And the series oracle agrees:
series_ct = R.expand_within({0: 0, 1: 4, 2: 4}).free_of(0)
print("series route:               ", series_ct)
