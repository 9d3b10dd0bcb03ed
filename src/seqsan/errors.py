"""Exception types shared across the toolkit; a bad argument raises ValueError."""


class SanitizationError(Exception):
    """Base class of `Infeasible` and of the command line's input errors."""


class Infeasible(SanitizationError):
    """No separator replacement satisfies the safety and capacity constraints."""
