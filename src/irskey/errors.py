"""Exception types shared across the package."""

from contextlib import contextmanager

__all__ = ["ConfigError", "NumericalError"]
_TOO_BIG = ("array is too big", "Maximum allowed dimension exceeded", "Maximum allowed size exceeded")


class ConfigError(ValueError):
    """Bad user-supplied configuration (file contents, parameter ranges)."""


class NumericalError(ArithmeticError):
    """A numerical routine left its validity envelope (singular, indefinite, diverged)."""


@contextmanager
def _fits_in_memory(what: str):
    """Turn a MemoryError, or numpy's ValueError for a size past its index range, into a ConfigError naming ``what``."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and (isinstance(exc, ConfigError) or not str(exc).startswith(_TOO_BIG)):
            raise
        raise ConfigError(f"{what} do not fit in memory") from exc
