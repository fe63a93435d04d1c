"""Error taxonomy shared across the engine.

Everything derives from CTForgeError so callers can catch broadly; the
CLI maps these to exit codes.
"""


class CTForgeError(Exception):
    pass


class DomainError(CTForgeError, ValueError):
    """Invalid input for an exact operation (division by zero, bad range)."""


class PoleError(DomainError):
    """Evaluation at a genuine pole (after full cancellation)."""


class ShapeError(CTForgeError, ValueError):
    """A value does not have the structural shape an operation requires."""


class DistinctPolesError(CTForgeError, ValueError):
    """Repeated denominator factor where partial fractions needs distinct poles."""


class PropernessError(CTForgeError, ValueError):
    """Rational function is not proper in the extraction variable."""


class UncancelledPoleError(CTForgeError, ValueError):
    """A substitution sent a denominator factor to zero."""


class NotPolynomialError(CTForgeError, ValueError):
    """Denominator factors present where a Laurent polynomial is required."""


class TruncationError(CTForgeError, ValueError):
    """A series factor has no truncation bound in its controlling variable."""


class ProofInvariantError(CTForgeError, RuntimeError):
    """An invariant the proof guarantees failed; indicates a bug, not bad input."""


class CertificationError(CTForgeError, RuntimeError):
    """A certificate node could not be certified zero."""


class LemmaViolationError(CTForgeError, RuntimeError):
    """The combinatorial witness lemma failed to produce a witness."""


def size_str(n: int) -> str:
    """n as written up to 20 digits, past that by its order of magnitude:
    a refusal must print sizes str() refuses (ints of over 4300 digits)."""
    m = abs(n)
    if m < 10**20:
        return str(n)
    k = (m.bit_length() - 1) * 30102 // 100000 - 2    # 10^(k+2) <= m
    lead = str(m // 10**k)
    return f"{'-' * (n < 0)}{lead[0]}.{lead[1:3]}e{k + len(lead) - 1}"
