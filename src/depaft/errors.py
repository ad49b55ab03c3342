"""Exception types shared across the package, the numeric-field and
section checks that config and model-file readers share, and the base
class of every config record.

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""
import math
from dataclasses import MISSING, fields

# A record field's metadata may hold a parser of its file value
# (PARSE: value -> field value).  Other fields annotated int or float go
# through number(); the annotations are strings (from __future__ import
# annotations).
PARSE = "parse"
_KINDS = {"int": int, "float": float}
# a file key is its field's name, but "lambda" is a Python keyword
_FILE_KEYS = {"reg_lambda": "lambda"}


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


def _file_fields(cls):
    """(file key, field) of each field of dataclass cls."""
    return [(_FILE_KEYS.get(f.name, f.name), f) for f in fields(cls)]


class Record:
    """Base of the frozen dataclasses that JSON config objects describe.

    A subclass names itself in `what` ("train config"); error messages
    name the record and the file key.  Its fields are the file's keys.
    """

    what: str

    @classmethod
    def from_dict(cls, d):
        """The record a JSON object describes, else ConfigError.

        A key that names no field, a missing field without a default
        and a field value of the wrong kind are refused; the dataclass's
        own checks then judge the values.
        """
        d = section(d, cls.what)
        keyed = _file_fields(cls)
        extra = set(d) - {key for key, _ in keyed}
        if extra:
            raise ConfigError(f"unknown {cls.what} fields: {sorted(extra)}")
        missing = [key for key, f in keyed
                   if key not in d and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ConfigError(f"{cls.what} missing fields: {missing}")
        kwargs = {}
        for key, f in keyed:
            if key not in d:
                continue
            if PARSE in f.metadata:
                kwargs[f.name] = f.metadata[PARSE](d[key])
            elif f.type in _KINDS:
                kwargs[f.name] = number(d[key], _KINDS[f.type], f"{cls.what} field {key!r}")
            else:
                kwargs[f.name] = d[key]
        return cls(**kwargs)

    def to_dict(self) -> dict:
        """The JSON object from_dict reads back to an equal record."""
        out = {}
        for key, f in _file_fields(self):
            value = getattr(self, f.name)
            if isinstance(value, Record):
                value = value.to_dict()
            elif f.type == "float":
                value = float(value)
            out[key] = value
        return out
