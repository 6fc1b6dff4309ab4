"""Exception types shared across the toolkit."""


class SocmorseError(Exception):
    """Base class for all toolkit errors."""


class DomainError(SocmorseError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class AccuracyError(SocmorseError):
    """A numerical routine could not reach the requested accuracy.

    Carries the best available estimate and its estimated error so callers
    can decide whether to proceed anyway.
    """

    def __init__(self, message, best_estimate=None, error_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class NumericalFailureError(SocmorseError):
    """Propagation produced NaN/Inf or lost norm beyond tolerance."""

    def __init__(self, message, time=None):
        super().__init__(message)
        self.time = time


class DesignInfeasibleError(SocmorseError):
    """The requested control schedule cannot be built (vanishing coupling)."""


class ConfigError(SocmorseError, ValueError):
    """A run configuration is malformed or inconsistent.

    Raised only by the command-line front end, for parsing and its own
    checks; library objects reject a value with :class:`DomainError`.
    """
