"""Exception types shared across the package.

The CLI's exit code follows the type alone: ConfigError exits 2, and any
other exception that escapes a subcommand exits 5.
"""
from __future__ import annotations


class HolocurveError(Exception):
    """Base class for package-specific errors."""


class ConfigError(HolocurveError, ValueError):
    """A malformed or unknown config key, or a value that the subcommand or
    library function taking it rejects; raised where the check is made.

    `line` is the 1-based line number in the config file when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DomainError(HolocurveError, ValueError):
    """Evaluation point outside the admissible domain (open unit disk)."""


class VanishingTangentError(HolocurveError, ValueError):
    """The curve's tangent vector vanished at an evaluation point."""


class NumericalError(HolocurveError, RuntimeError):
    """An internal numerical routine failed (ODE solver, bracketing, mesh)."""
