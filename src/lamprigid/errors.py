"""Exception types shared across the package."""


class AlgebraError(Exception):
    """Base class for every error raised by this package."""


class FieldMismatch(AlgebraError):
    """Operands live over different prime fields."""


class DivisionByZero(AlgebraError):
    """Polynomial division by the zero polynomial."""


class BothZero(AlgebraError):
    """gcd of (0, 0) is undefined."""


class ShapeMismatch(AlgebraError):
    """Matrix dimensions incompatible with the requested operation."""


class NotSquare(AlgebraError):
    """Operation requires a square matrix."""


class InvalidM(AlgebraError):
    """Truncation index m must be a positive integer."""


class ZeroDivisor(AlgebraError):
    """Quotient by the zero polynomial has infinite order."""


class NotNormalized(AlgebraError):
    """Polynomial violates the f(0) != 0 normalization."""


class RankDeficient(AlgebraError):
    """Free rank of the module is smaller than the requested target rank."""


class SpecMismatch(AlgebraError):
    """Wreath elements belong to different groups."""


class NotBaseValued(AlgebraError):
    """Module-generator image has a nonzero shift component."""


class ConjugationMismatch(AlgebraError):
    """Conjugation by the t-image cannot realize an invertible x-action."""


class RelationNotKilled(AlgebraError):
    """Candidate matrix does not annihilate the relation columns."""


class NotSurjective(AlgebraError):
    """Surjectivity certificate failed."""


class CertificateError(AlgebraError, AssertionError):
    """A computed result failed its own certificate; raised even under python -O."""


def require(cond: bool, message: str) -> None:
    """Certificate check that, unlike assert, also runs under python -O."""
    if not cond:
        raise CertificateError(message)


class OrderBoundExceeded(AlgebraError):
    """Requested computation exceeds the fixed order cap."""


class NotNormal(AlgebraError):
    """Subset is not a normal subgroup."""


class InvalidInput(AlgebraError):
    """Malformed JSON or schema violation in external input."""


class RelationViolated(AlgebraError):
    """A relator column is not satisfied by the proposed generator images."""

    def __init__(self, index: int, message: str = ""):
        self.index = index
        detail = f": {message}" if message else ""
        super().__init__(f"relator {index} not satisfied{detail}")


class CocycleViolation(AlgebraError):
    """Cocycle identity failed; signals a corrupted homomorphism object."""

    def __init__(self, k: int, k2: int, message: str = ""):
        self.k = k
        self.k2 = k2
        detail = f": {message}" if message else ""
        super().__init__(f"cocycle identity failed at ({k}, {k2}){detail}")
