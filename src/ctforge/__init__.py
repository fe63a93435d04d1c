"""ctforge: exact constant terms in iterated Laurent series, and a
mechanical verifier for the q-Dyson identity.

The engine computes constant terms of multivariate Laurent polynomials and
rational functions exactly over Q(q), expands rational functions in the
iterated Laurent series field (series first in x0, then x1, ...), and
replays the constant-term proof of the q-Dyson identity as a checkable
certificate tree.
"""

from .qfield import QPoly, QRat
from .laurent import (FactoredForm, LaurentPoly, qbinomial, qfactorial,
                      qpoch_qrat, qpochhammer)
from .ctengine import (ct_all_bruteforce, ct_all_series,
                       ct_factored_pfrac_labeled)
from .qdyson import (certificate_to_dict, certify_vanishing, kernel_at_path,
                     lhs_value_at, multinomial, qdyson_kernel,
                     qdyson_lhs_product, qdyson_rhs, validate_certificate,
                     verify_dyson, verify_qdyson)
from . import errors

__version__ = "0.1.0"
