"""Exception types shared across the package."""


class DomainError(ValueError):
    """Arguments outside the mathematical domain of an operation."""


class RangeOverflowError(OverflowError):
    """Result magnitude exceeds the double-precision exponent range."""


class AccuracyError(RuntimeError):
    """Requested accuracy not reached; carries the best estimate."""

    def __init__(self, message, best=None, err_est=None):
        super().__init__(message)
        self.best = best
        self.err_est = err_est


class InsufficientDataError(DomainError):
    """Stored coefficients do not reach the requested truncation bound.

    ``required_n`` is a rough estimate of the coefficient range that would
    be needed.
    """

    def __init__(self, message, required_n=None):
        super().__init__(message)
        self.required_n = required_n


class MembershipError(DomainError):
    """Test function fails the convergence (membership) check for a form.

    ``side`` is "left" or "right" when the failure is one side of a
    functional equation, else None.
    """

    def __init__(self, message, side=None):
        super().__init__(message)
        self.side = side


class ShadowVanishesError(DomainError):
    """The form has no nonholomorphic part: its shadow is identically zero."""


class SchemaError(ValueError):
    """Malformed coefficient / configuration file."""
