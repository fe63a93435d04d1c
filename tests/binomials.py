"""Forms written binomial by binomial, for the tests.  A FactoredForm
stores maximal runs (M, first, last, e); these make the run of a single
binomial (1 - q^s M)^e and read a form back as its binomials."""

from collections import namedtuple

# (1 - q^qexp X^mono)^exp; compares equal to the plain triple
Binomial = namedtuple("Binomial", "qexp mono exp")


def run(qexp, mono, exp=1):
    """The run of the one factor (1 - q^qexp X^mono)^exp."""
    return (mono, qexp, qexp, exp)


def binomial(nvars, qexp, num, den, exp=1):
    """The run of the one factor (1 - q^qexp x_num/x_den)^exp."""
    assert num != den
    mono = [0] * nvars
    mono[num], mono[den] = 1, -1
    return run(qexp, tuple(mono), exp)


def triples(ff):
    """ff's factors in order, each a Binomial (q-exponent, monomial,
    exponent)."""
    out = []
    for mono, first, last, exp in ff.runs:
        step = 1 if last >= first else -1
        out += [Binomial(s, mono, exp) for s in range(first, last + step, step)]
    return out
