"""Exception types shared across the package."""

__all__ = ["ConfigError", "NumericalError"]


class ConfigError(ValueError):
    """Bad user-supplied configuration (file contents, parameter ranges)."""


class NumericalError(ArithmeticError):
    """A numerical routine left its validity envelope (singular, indefinite, diverged)."""
