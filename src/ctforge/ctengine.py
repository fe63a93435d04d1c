"""Constant-term operators, one entry point per route.

  * series -- `ct_all_series` expands in the iterated Laurent series field
    inside the all-zero window (exact there) and reads off the constant
    coefficient; `ct_all_bruteforce` is the same route restricted to
    polynomial products;
  * partial fractions -- `ct_factored_pfrac_labeled`: for a function that
    is proper in the extraction variable x_k with simple poles at monomials
    x_t q^s, the constant term in x_k is the sum of the cofactors at the
    *small* poles (those with k < t), evaluated symbolically at x_k = pole.

The two routes check each other throughout the test suite; the proof
engine leans on the second because it preserves factored structure.
"""

from __future__ import annotations

from .errors import (DistinctPolesError, NotPolynomialError, PropernessError,
                     ShapeError)
from .laurent import FactoredForm, _factor_str, _pair_vars, _qexps
from .qfield import QRat


def ct_all_bruteforce(f: FactoredForm) -> QRat:
    """Constant term in every variable of a polynomial FactoredForm.

    Denominator factors are refused: this is the oracle side and must stay
    a genuine polynomial expansion.
    """
    if f.has_poles():
        raise NotPolynomialError("ct_all_bruteforce needs a polynomial product")
    return ct_all_series(f)


def ct_all_series(f: FactoredForm) -> QRat:
    """Constant term in every variable via the iterated-series expansion.

    Valid for any FactoredForm whose denominator factors can be bounded by
    the all-zero window (always true here: each series ascends in its
    control variable).  Exact: the windowed expansion is complete for the
    all-zero exponent vector, and pruning to it changes nothing about the
    value.
    """
    target = {v: 0 for v in range(f.nvars)}
    return f.expand_within(target, target).constant_coeff()


def ct_factored_pfrac_labeled(
        f: FactoredForm, var: int) -> list[tuple[tuple[int, int], FactoredForm]]:
    """Partial-fraction constant term, each summand labeled by its pole.

    Each denominator factor with a variable must be a simple two-variable factor
    (1 - q^s x_var/x_t), i.e. x_var in the numerator slot: the only shape
    the proof pipeline produces and the shape the partial-fraction lemma
    covers.  Its pole is x_t q^{-s}, labeled (t, -s).  The poles are
    enumerated per denominator run, one per factor, in factor order.

    One (pole, FactoredForm) pair per *small* pole (var < t): the form
    with that pole factor split out of its run and x_var := x_t q^{-s}
    substituted everywhere else.  Large poles contribute nothing, and the
    polynomial part of the decomposition is never materialized (a proper
    function has none beyond negative powers of x_var, which carry no
    x_var-free term).
    """
    if f.is_zero():
        return []
    deg = f.degree_in(var)
    if deg >= 0:
        raise PropernessError(f"degree in x{var} is {deg}, not negative")
    # every pole is checked before any substitution: a repeated pole would
    # otherwise surface as an UncancelledPoleError from substitute
    poles = []
    seen = set()
    for idx, run in enumerate(f.runs):
        mono, first, _, exp = run
        if exp > 0 or not any(mono):
            continue        # not a denominator run with a variable
        num, den = _pair_vars(mono)
        if num != var:
            raise ShapeError(f"denominator factor "
                             f"{_factor_str(first, mono, exp)} does not "
                             f"have x{var} upstairs")
        for s in _qexps(run):
            pole = (den, -s)
            if exp != -1 or pole in seen:
                raise DistinctPolesError(
                    f"repeated pole: {_factor_str(s, mono, exp)}")
            seen.add(pole)
            poles.append((idx, s, pole))
    # a large pole (var > t) contributes nothing
    return [(pole, f.drop_factors({i: s}).substitute({var: pole[1]}, pole[0]))
            for i, s, pole in poles if var < pole[0]]
