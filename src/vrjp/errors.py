"""Exception hierarchy shared across the toolkit.

Everything derives from VrjpError so callers can catch broadly; the concrete
classes also inherit the closest builtin so idiomatic handlers keep working
(e.g. DomainError is a ValueError).
"""

from __future__ import annotations

__all__ = [
    "VrjpError",
    "DomainError",
    "SizeError",
    "RestrictionError",
    "FactorizationError",
    "NumericError",
    "CoverageError",
    "PreconditionError",
    "TestError",
    "ConfigError",
]


class VrjpError(Exception):
    """Base class for all toolkit errors."""


class DomainError(VrjpError, ValueError):
    """An argument lies outside the mathematical domain of the operation."""


class SizeError(VrjpError, ValueError):
    """A requested object exceeds a configured size limit."""


class RestrictionError(VrjpError, ValueError):
    """A wired restriction is ill-posed (no boundary, or disconnected)."""


class FactorizationError(VrjpError, ArithmeticError):
    """A matrix that must be positive definite failed to factor."""


class NumericError(VrjpError, ArithmeticError):
    """An iterative numeric routine failed to converge."""


class CoverageError(VrjpError, RuntimeError):
    """No usable data survived a filtering rule (e.g. boundary discard)."""


class PreconditionError(VrjpError, ValueError):
    """A structural precondition of an experiment is not met."""


class TestError(VrjpError, ValueError):
    """A statistical test received degenerate input."""

    __test__ = False  # keep pytest from collecting the name


class ConfigError(VrjpError, ValueError):
    """An experiment or CLI configuration is invalid."""
