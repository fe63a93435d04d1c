#!/usr/bin/env python3
"""The q-Dyson identity, checked head-on.

The constant term (in every variable) of

    prod_{0 <= i < j <= n} (x_i/x_j)_{a_i} (q x_j/x_i)_{a_j}

equals the q-multinomial (q)_{a_0+...+a_n} / ((q)_{a_0} ... (q)_{a_n}).
Here we expand the product exactly and compare, then specialize q = 1 to
land on Dyson's original conjecture about multinomial coefficients.
"""

from itertools import product

from ctforge import (ct_all_bruteforce, multinomial, qdyson_lhs_product,
                     qdyson_rhs, verify_dyson, verify_qdyson)

# one instance, spelled out ---------------------------------------------------

a0, a = 2, (1, 1)
ff = qdyson_lhs_product(a0, a)
# the product is stored as q-Pochhammer runs (M, first, last, e), one
# binomial factor per q-exponent from first to last
count = sum(abs(last - first) + 1 for _, first, last, _ in ff.runs)
print(f"product for (a0, a) = ({a0}, {a}): {count} binomial factors")
lhs = ct_all_bruteforce(ff)
rhs = qdyson_rhs(a0, a)
print("CT  =", lhs)
print("RHS =", rhs)
assert lhs == rhs

# a sweep ----------------------------------------------------------------------

print()
print("sweep over n+1 = 3 variables, a_i <= 2:")
count = 0
for tup in product(range(3), repeat=3):
    report = verify_qdyson(tup[0], tup[1:], "brute")
    assert report.ok, tup
    count += 1
print(f"  all {count} tuples verified exactly")

# q = 1: the classical statement ------------------------------------------------

print()
for tup in [(1, 1, 1), (2, 1), (2, 2, 2)]:
    report = verify_dyson(tup[0], tup[1:])
    print(f"q=1, a = {tup}: CT = {report.lhs} = "
          f"{multinomial(tup)} = multinomial", "(ok)" if report.ok else "(FAIL)")
    assert report.ok
