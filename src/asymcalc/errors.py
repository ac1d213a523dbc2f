"""Exception hierarchy for the asymcalc package.

Every error raised by the library proper derives from AsymcalcError so that
callers (and the CLI) can distinguish library failures from programming bugs;
one raised by a script statement starts with its "line L, col C" position.
"""


class AsymcalcError(Exception):
    """Base class for all library errors; a script position leads it."""

    def __init__(self, message="", line=None, col=None):
        super().__init__(message)
        self.line, self.col = line, col

    def __str__(self):
        at = "" if self.line is None else f"line {self.line}, col {self.col}: "
        return at + super().__str__()


class GridMismatch(AsymcalcError):
    """Two objects live on exponent grids that were expected to agree."""


class IncommensurableRatio(AsymcalcError):
    """No common self-similarity ratio exists (or the rewrite to a common
    ratio would need non-integer tail weights)."""


class ContinuityViolation(AsymcalcError):
    """A piecewise definition fails the required matching conditions at a
    breakpoint or at the self-similar gluing of consecutive scale blocks."""


class NotModerate(AsymcalcError):
    """A construction produced (or was asked to accept) an element growing
    faster than any power of the scale parameter."""


class NotCharacteristic(AsymcalcError):
    """A set-valued argument was required to accumulate at 0 but does not."""


class PreconditionViolated(AsymcalcError):
    """An operation's documented precondition fails for the given input."""


class RepresentabilityError(AsymcalcError):
    """The mathematically defined result exists but cannot be written in the
    self-similar piecewise-rational form this package works with."""


class ZeroDenominator(AsymcalcError):
    """A rational-function piece has a denominator root inside its domain."""


class EmptySet(AsymcalcError):
    """A set-valued argument was required to be nonempty."""


class ProductNotZero(AsymcalcError):
    """A factorization argument requires an exactly vanishing product."""


class ImproperFilter(AsymcalcError):
    """A filter description fails to generate a proper filter."""


class ModulusViolated(AsymcalcError):
    """A certified Cauchy modulus fails exactly on some scale block."""


class ImproperIdeal(AsymcalcError):
    """The operation needs a proper ideal."""


class SearchBoundExceeded(AsymcalcError):
    """A bounded witness search ran out without reaching a decision."""


class ChainNotDescending(AsymcalcError):
    """A chain argument is not strictly descending in the extension
    order."""


class NotMember(AsymcalcError):
    """A chain element does not belong to the filter."""


class UnknownCheck(AsymcalcError):
    """An unrecognized check name was requested."""


class AllSamplesZero(AsymcalcError):
    """A numeric slope estimate degenerated: every sample vanished."""


class UndefinedName(AsymcalcError):
    """A script referenced a name absent from the session."""


class TypeMismatch(AsymcalcError):
    """A script passed an object of the wrong kind to an operation."""


class ParseError(AsymcalcError):
    """Malformed textual input (expression DSL or serialized JSON)."""
