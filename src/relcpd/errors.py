"""Exception types with stable machine-readable categories, and the one
integer check every input applies.

The CLI prints ``error: <category>: <message>`` on failure; the category
strings below are part of the external interface and must not change.
"""

import operator


class ChangePointError(Exception):
    """Base class for all errors raised by this package."""

    category = "error"


class InvalidDataError(ChangePointError):
    category = "invalid-data"


class InvalidWindowLengthError(ChangePointError):
    category = "invalid-window-length"


class SegmentRangeError(ChangePointError):
    category = "segment-range"


class DimensionMismatchError(ChangePointError):
    category = "dimension"


class ParameterError(ChangePointError):
    category = "parameter"


class DegenerateBandwidthError(ChangePointError):
    category = "degenerate-bandwidth"


class SingularSystemError(ChangePointError):
    category = "singular-system"


class NumericError(ChangePointError):
    category = "numeric"


class InsufficientDataError(ChangePointError):
    category = "insufficient-data"


class EmptyInputError(ChangePointError):
    category = "empty-input"


class ParseError(ChangePointError):
    category = "parse"


class UndefinedRateError(ChangePointError):
    category = "undefined-tpr"


def integer(name: str, value, error: type = ParameterError) -> int:
    """``value`` as an int; Python and numpy integers pass, anything else
    (a float, even an integral one) raises ``error``."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
