"""Exception types shared across the package, the file layer every read
and output goes through, the numeric-field and section checks, and the
base class of every config record, which checks its number fields.

Every file is UTF-8 whatever the locale.  open_text opens each input;
write_json writes every JSON file and dataset.write_table every CSV, and
both, like make_dirs, turn an output fault into a ConfigError (writing).

The CLI maps these onto exit codes: ConfigError -> 2, DataError -> 3,
NumericError -> 4.
"""
import json
import math
import operator
import os
from contextlib import contextmanager
from dataclasses import MISSING, fields

# A record field's metadata may hold a parser of its file value
# (PARSE: value -> field value).  Every field annotated int or float
# goes through number() on each construction, and then through the
# bounds its metadata declares (AT_LEAST: 1 means >= 1); the annotations
# are strings (from __future__ import annotations).
PARSE = "parse"
AT_LEAST, ABOVE, AT_MOST = ">=", ">", "<="
_BOUNDS = {AT_LEAST: operator.ge, ABOVE: operator.gt, AT_MOST: operator.le}
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


def open_text(path, error: type[Exception], what: str):
    """path opened as UTF-8 text past a byte-order mark, whatever the
    locale, line ends untouched (as csv needs); else `error` naming it."""
    try:
        return open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc.strerror}") from exc


def read_json(path, error: type[Exception], what: str):
    """The JSON value in the file at path, else `error` naming it."""
    with open_text(path, error, what) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, or nested too deep
            raise error(f"{path}: malformed {what}: {exc}") from exc


@contextmanager
def writing(path):
    """Turn an OSError raised while writing path, or a file under it, into
    a ConfigError naming it: the output argument, not the data, is at fault."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write {exc.filename or path}: {exc.strerror}") from exc


def make_dirs(path) -> None:
    """Create the output directory path and its parents, where missing."""
    with writing(path):
        os.makedirs(path, exist_ok=True)


def write_json(path, obj, **layout) -> None:
    """Write obj as standard JSON, laid out by json.dumps keywords, and a
    newline; a non-finite number is a NumericError naming path, raised
    before the file is opened."""
    try:
        text = json.dumps(obj, allow_nan=False, **layout)
    except ValueError as exc:
        raise NumericError(f"{path}: cannot write a non-finite number") from exc
    with writing(path), open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


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
    A subclass's own __post_init__ calls this one first, then checks
    what no single bound expresses.
    """

    what: str

    def __post_init__(self):
        """Check each int or float field with number() and its declared
        bounds, else ConfigError, and store what number() returns: alike
        from a file, from Python and through dataclasses.replace."""
        for key, f in _file_fields(type(self)):
            if f.type not in _KINDS:
                continue
            what = f"{self.what} field {key!r}"
            value = number(getattr(self, f.name), _KINDS[f.type], what)
            for op, bound in f.metadata.items():
                if op in _BOUNDS and not _BOUNDS[op](value, bound):
                    raise ConfigError(f"{what} must be {op} {bound}, got {value!r}")
            object.__setattr__(self, f.name, value)

    @classmethod
    def from_dict(cls, d):
        """The record a JSON object describes, else ConfigError.

        A key that names no field and a missing field without a default
        are refused; the record's own checks then judge the values.
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
        return cls(**{f.name: f.metadata[PARSE](d[key]) if PARSE in f.metadata else d[key]
                      for key, f in keyed if key in d})

    def to_dict(self) -> dict:
        """The JSON object from_dict reads back to an equal record."""
        out = {}
        for key, f in _file_fields(type(self)):
            value = getattr(self, f.name)
            out[key] = value.to_dict() if isinstance(value, Record) else value
        return out
