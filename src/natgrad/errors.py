"""Exception types shared across the package.

Every failure mode that callers are expected to catch has its own class so
that error handling never has to match on message strings.
"""


class NatgradError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(NatgradError, ValueError):
    """A parameter vector lies outside the family's open domain."""


class CapabilityError(NatgradError, TypeError):
    """An operation was requested that the object does not support."""


class DivergenceInfiniteError(NatgradError, ArithmeticError):
    """A divergence evaluated to an infinite value (support mismatch)."""


class NumericError(NatgradError, ArithmeticError):
    """A numerical routine failed to produce a trustworthy result.

    Carries an optional ``diagnostics`` dict with quantities that describe
    the failure (residuals, extrapolation gaps, integrand statistics).
    """

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class ConfigError(NatgradError, ValueError):
    """A run configuration is malformed or references unknown identifiers."""
