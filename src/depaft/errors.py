"""Exception types shared across the package, and the numeric-field and
section checks that config and model-file readers share.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""
import math


class ConfigError(ValueError):
    """Invalid configuration or command usage."""


class DataError(ValueError):
    """Malformed, inconsistent, or out-of-domain input data."""


class DomainError(DataError):
    """Argument outside the mathematical domain of an operation."""


class PersistenceError(DataError):
    """Model or config file that cannot be read back."""


class NumericError(RuntimeError):
    """Internal numerical failure (non-finite intermediate, sampler breakdown)."""


def number(value, kind, what: str, error: type[Exception] = ConfigError):
    """value as a finite float or an int64-sized int, else `error`.

    kind is float or int.  The value must equal its conversion, so
    strings, fractional counts, NaN and infinities are refused rather
    than coerced; so are booleans, which JSON does not count as numbers.
    """
    try:
        out = kind(value)
        ok = not isinstance(value, bool) and out == value and (
            math.isfinite(out) if kind is float else -(2**63) <= out < 2**63
        )
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        noun = "a finite number" if kind is float else "an integer"
        raise error(f"{what} must be {noun}, got {value!r}")
    return out


def section(value, what: str) -> dict:
    """value if it is a JSON object (a dict), else ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(f"{what} must be an object, got {value!r}")
    return value
