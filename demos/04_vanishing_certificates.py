#!/usr/bin/env python3
"""Replaying the proof: vanishing certificates and the uniqueness step.

Both sides of the q-Dyson identity are polynomials of degree <= a in
t = q^{a_0} (a = a_1 + ... + a_n).  The closed form visibly vanishes at
t = q^{-1}, ..., q^{-a}; the constant-term side vanishing there is the
hard part.  The engine certifies it by a recursion that eliminates one
variable at a time through partial fractions; every leaf of the
certificate tree names a concrete factor that is zero.  With the a roots
plus the rank-reduction base point t = 1, a degree-<= a polynomial is
pinned at a+1 points, and the identity follows for every a_0 at once.
"""

import json

from ctforge import (certificate_to_dict, certify_vanishing, ct_all_series,
                     kernel_at_path, lhs_value_at, qdyson_kernel,
                     validate_certificate, verify_qdyson)

a, b = (1, 1), 2

# the kernel whose full constant term is the identity's LHS at t = q^{-b}
kernel = qdyson_kernel(b, a)
print("kernel for b =", b, "~", kernel)
print("degree in x0:", kernel.degree_in(0), "(proper, = -n*b)")
print()

# the independent series oracle says the constant term is zero...
print("series oracle:", "zero" if lhs_value_at(a, -b).is_zero() else "NONZERO")

# ...and the certificate explains why, leaf by leaf
cert = certify_vanishing(a, b)
print("certificate tree:")
for node in cert.root.walk():
    indent = "  " * (node.path.depth + 1)
    extra = ""
    if node.witness is not None:
        extra = f"  (witness case {node.witness.case})"
    print(f"{indent}{node.path}  {node.status}{extra}")

nodes = validate_certificate(cert)
print(f"re-validated {nodes} nodes, leaf witnesses re-checked")

# internal kernels were independently confirmed zero by the series oracle
for path in cert.oracle_checked:
    value = ct_all_series(kernel_at_path(b, a, path))
    print(f"oracle-checked internal node {path}: CT = {value}")

# certificates serialize to a documented JSON schema
blob = json.dumps(certificate_to_dict(cert), indent=2)
print()
print("JSON certificate starts:")
print("\n".join(blob.splitlines()[:8]), "\n  ...")

# the full replay: base case by rank induction, roots by certificates,
# degree bound by the lemma's exact check, value pinned by uniqueness
print()
report = verify_qdyson(3, a, method="replay")
for line in report.detail:
    print(" ", line)
print("replay verdict:", "ok" if report.ok else "FAILED")
