"""Exception types shared across the pioucrypt package."""


class PiouCryptError(Exception):
    """Base class for all pioucrypt errors."""


class InvalidConfig(PiouCryptError, ValueError):
    """A configuration value is out of range.

    Also a ValueError, so callers that catch ValueError keep working.
    """


class AllZeroState(PiouCryptError):
    """The all-zero generator state is absorbing and therefore rejected."""


class InvalidRange(PiouCryptError):
    """An empty or inverted range was requested from a generator."""


class IndexOutOfRange(PiouCryptError):
    """A swap pair (i, j) names a row or column outside the plane."""


class NonBijectiveTable(PiouCryptError):
    """A substitution table is not a permutation of 0..255."""


class DimensionMismatch(PiouCryptError):
    """Key dimensions do not match the image they are applied to."""


class DegenerateVectors(PiouCryptError):
    """No usable (non-collinear, non-zero) basis pair could be produced."""


class EmptyMatrix(PiouCryptError):
    """Factorization input has no rows or no columns."""


class ShapeMismatch(PiouCryptError):
    """Matrix operands have incompatible shapes."""


class EmptyKey(PiouCryptError):
    """The secret key byte string is empty."""


class OverflowGuard(PiouCryptError):
    """key weight x plaintext length exceeds the signed-arithmetic budget."""


class KeyMismatch(PiouCryptError):
    """Redundancy sections do not re-derive from the supplied key."""


class MalformedCipher(PiouCryptError):
    """Cipher sections violate the structural invariants."""


class NonByteValue(PiouCryptError):
    """A recovered plaintext value falls outside [0, 255]."""


class ParseError(PiouCryptError):
    """A serialized artifact does not match its grammar."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnsupportedFormat(PiouCryptError):
    """The image file format or depth is outside what the pipeline accepts."""


class MalformedHeader(PiouCryptError):
    """The image file is structurally broken (header or payload)."""
