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
from .laurent import FactoredForm
from .qfield import QRat


def ct_all_bruteforce(f: FactoredForm) -> QRat:
    """Constant term in every variable of a polynomial FactoredForm.

    Denominator factors are refused: this is the oracle side and must stay
    a genuine polynomial expansion.
    """
    if f.denominator_factors():
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
    covers.  Its pole is x_t q^{-s}, labeled (t, -s).

    One (pole, FactoredForm) pair per *small* pole (var < t): the form
    with that pole factor removed and x_var := x_t q^{-s} substituted
    everywhere else.  Large poles contribute nothing, and the polynomial
    part of the decomposition is never materialized (a proper function has
    none beyond negative powers of x_var, which carry no x_var-free term).
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
    for idx, fac in enumerate(f.factors):
        if fac.exp > 0 or not any(fac.mono):
            continue        # not a denominator factor with a variable
        num, den = fac.pair_vars()
        if num != var:
            raise ShapeError(
                f"denominator factor {fac!r} does not have x{var} upstairs")
        pole = (den, -fac.qexp)
        if fac.exp != -1 or pole in seen:
            raise DistinctPolesError(f"repeated pole: {fac!r}")
        seen.add(pole)
        poles.append((idx, pole))
    out = []
    for idx, pole in poles:
        if var > pole[0]:
            continue  # large pole: no contribution
        out.append((pole, f.drop_factors((idx,)).substitute(
            {var: pole[1]}, pole[0])))
    return out
