"""Exception types shared across the package; each maps to one CLI exit code.

Whose data failed decides the type: a check on data the program computed itself
is CertificateError (exit 3, raised through require); a rejected request or
argument is AlgebraError (exit 2); malformed JSON is InvalidInput (exit 2).
"""


class AlgebraError(Exception):
    """A request or argument the package rejects."""


class InvalidInput(AlgebraError):
    """Malformed JSON or schema violation in external input."""


class CertificateError(AlgebraError, AssertionError):
    """A computed result failed its own certificate; raised even under python -O."""


def require(cond: bool, message: str) -> None:
    """Certificate check that, unlike assert, also runs under python -O."""
    if not cond:
        raise CertificateError(message)
