"""Exception types shared across the toolkit."""


class SanitizationError(Exception):
    """Base class for all toolkit errors."""


class SeparatorInInput(SanitizationError):
    """The input sequence contains the reserved separator token '#'."""


class BadK(SanitizationError):
    """Pattern length k is out of range, or a supplied pattern has the wrong length."""


class BadPosition(SanitizationError):
    """A sensitive position falls outside the valid occurrence range."""


class Infeasible(SanitizationError):
    """No separator replacement satisfies the safety and capacity constraints."""


class UndefinedWhenZero(SanitizationError):
    """Relative error is undefined because the reference distance is zero."""
