"""Exception types shared across the workbench.

The CLI maps these to exit codes: InvalidInput/InvalidField/LooplessRequired
to 2, TooLarge to 3, InternalInvariantViolation to 4. Messages quote the
input they reject through quote(), so each stays one short line.
"""
import reprlib

_QUOTE = reprlib.Repr()
_QUOTE.maxstring = _QUOTE.maxother = 60


def quote(value):
    """repr(value), capped: long strings and numbers are cut in the middle,
    long or deep containers shown in part, newlines escaped."""
    return _QUOTE.repr(value)


class WorkbenchError(Exception):
    """Base class for all workbench errors."""


class InvalidInput(WorkbenchError):
    """Malformed descriptor, subset outside the ground set, bad arguments."""


class InvalidField(WorkbenchError):
    """Unrecognized field name or non-prime modulus."""


class TooLarge(WorkbenchError):
    """A computation exceeds its configured enumeration or point budget."""


class LooplessRequired(WorkbenchError):
    """Raised by constructions that are only defined for loopless matroids."""


def require_int(value, what):
    """Raise InvalidInput unless `value` is an int and not a bool."""
    if type(value) is not int:
        raise InvalidInput(f"{what} must be an integer, got {quote(value)}")


class InternalInvariantViolation(WorkbenchError):
    """Two internally computed values that must agree do not.

    This always indicates a bug in the workbench, never bad input.
    """
