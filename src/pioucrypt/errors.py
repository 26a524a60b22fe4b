"""Exception types shared across the pioucrypt package, and its one integer check."""

import operator


class PiouCryptError(Exception):
    """Base class for all pioucrypt errors."""


class InvalidConfig(PiouCryptError, ValueError):
    """A refused argument: a value of the wrong type, shape or range.

    Every argument check in the package raises this class; a fault found in
    a file or a key keeps its own class below. Also a ValueError, so callers
    that catch ValueError keep working.
    """


def as_int(value, what: str) -> int:
    """value as a Python int, from any integer type; a float or a string is InvalidConfig."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidConfig(f"{what} must be an integer, not {type(value).__name__}") from None


class DimensionMismatch(PiouCryptError):
    """Key dimensions do not match the image they are applied to."""


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


class InterruptedWrite(PiouCryptError):
    """A file that an interrupted bundle write left behind lies beside a bundle path."""
