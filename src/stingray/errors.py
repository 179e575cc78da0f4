"""Exception taxonomy for the whole package.

Every failure mode named in a module contract gets its own class so callers
(and the CLI) can branch on type.  The CLI maps StingrayUsageError to exit
code 64 and everything else derived from StingrayError to exit code 2.
"""


class StingrayError(Exception):
    """Base class for all package errors."""


class StingrayUsageError(StingrayError):
    """Bad command-line or API usage (CLI exit code 64)."""


# ffield
class NotPrime(StingrayError):
    pass


class ReducibleModulus(StingrayError):
    pass


class DegreeMismatch(StingrayError):
    pass


class FieldMismatch(StingrayError):
    pass


class DivisionByZero(StingrayError):
    pass


class NoEmbedding(StingrayError):
    pass


# fpoly
class ZeroPolynomial(StingrayError):
    pass


class CharacteristicDividesR(StingrayError):
    pass


# fmatrix
class DimensionMismatch(StingrayError):
    pass


class Singular(StingrayError):
    pass


class SingularGenerator(Singular):
    """A MatrixGroup generator of rank below its dimension."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class NotSquare(StingrayError):
    pass


class NotInvariant(StingrayError):
    pass


# ppd
class NotCoprime(StingrayError):
    pass


class TooLarge(StingrayError):
    pass


class CompositeQ(StingrayError):
    pass


# cyclo
class MismatchedR(StingrayError):
    pass


class NonUnit(StingrayError):
    pass


class NoSolution(StingrayError):
    pass


class UnsupportedR(StingrayError):
    pass


class NotRational(StingrayError):
    pass


# classify
class NoPpdPrime(StingrayError):
    pass


class NoUnimodularFactor(StingrayError):
    pass


class OrderMismatch(StingrayError):
    pass


class CharacteristicOrder(StingrayError):
    pass


# groups
class DegreeTooSmall(StingrayError):
    pass


class BadTwist(StingrayError):
    pass


class CharTooSmallForSymcube(StingrayError):
    pass


class UnknownModuleSpec(StingrayUsageError):
    """An SL2 module spec other than NATURAL, SYMCUBE or twist(s, t)."""


class OddDimensionSymplectic(StingrayError):
    pass


class ZeroVector(StingrayError):
    pass


class ActionTooLarge(StingrayError):
    pass


# harness
class ParseError(StingrayError):
    def __init__(self, message, line=None):
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)
        self.line = line
