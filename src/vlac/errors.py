"""Exception types shared across the package.

Exceptions are reserved for malformed inputs, broken encodings, and
transport faults.  A verifier that merely disbelieves the prover raises
``proto.Reject`` with a reason string, which ``proto._run_verifier`` turns
into the rejecting verdict (see :mod:`vlac.proto`).
"""


class VlacError(Exception):
    """Base class for all package errors."""


class NotPrime(VlacError):
    """Modulus failed the primality test."""


class EvenModulus(VlacError):
    """Modulus is even; fields of characteristic 2 are not supported."""


class DivisionByZero(VlacError, ZeroDivisionError):
    """Inversion of the zero scalar."""


class BothZero(VlacError):
    """Polynomial gcd of two zero polynomials is undefined."""


class GeneratorMismatch(VlacError):
    """Claimed minimal generator does not satisfy the sequence recurrence."""


class DimensionMismatch(VlacError):
    """Operand shapes are incompatible."""


class NotSquare(VlacError):
    """A square matrix was required."""


class FieldMismatch(VlacError):
    """Operands live over different prime fields."""


class Malformed(VlacError):
    """A byte string does not decode as a valid record."""


class VersionUnsupported(Malformed):
    """Transcript version is newer than this implementation understands."""


class BrokenReference(VlacError):
    """A chained product claim points at a slot that is absent or later."""


class ProtocolViolation(VlacError):
    """Peer sent a message out of order or of the wrong shape."""


class TransportError(VlacError):
    """Connection dropped or produced unreadable framing."""


class Timeout(VlacError):
    """Peer failed to respond within the per-round deadline."""
