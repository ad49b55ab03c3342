"""Survival data container, the one rule for survival arrays (which the
losses and the metrics call too), and CSV schemas.

Dataset CSV columns (_data_header, for the writer and the reader):
time, event, x1..xp, and optionally the simulator's oracle columns
true_event_time and true_censor_time.  Predictions CSV columns
(PREDICTION_COLUMNS): predicted_log_time, predicted_time.  Floats are
written as str(float), the shortest digits that read back to the same
value, so re-reading is bit-exact and output bytes are deterministic.

write_table is the package's one CSV writer: the dataset and
prediction schemas here and the study and calibration tables elsewhere
all hand it their columns.  Both it and the reader core work a block of
_BLOCK_ROWS rows at a time.
_parse_rows tokenises with csv.reader, checks every row's width,
refuses a block whose fields hold a character no plain number has
(_plain), converts all of its fields with one
np.fromiter(map(float, ...)) and tests the event column at once.  Only
when a block fails are its rows scanned one by one, to name the line of
the first fault.
"""
from __future__ import annotations

import csv
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .errors import DataError, DomainError, open_text, writing

ORACLE_COLUMNS = ("true_event_time", "true_censor_time")
PREDICTION_COLUMNS = ("predicted_log_time", "predicted_time")


def survival_arrays(times, events=None, predicted=None, time_name: str = "times"):
    """(times, event mask, predicted times): the one rule every survival
    array meets, with None for an array not given.

    The arrays must share one shape, times must be positive and finite,
    event indicators exactly 0 or 1, and predicted times not NaN (0 and
    infinities rank like any number).  A breach is a DomainError naming
    the array; time_name names the times.
    """
    t = np.asarray(times, dtype=float)
    d = None if events is None else np.asarray(events)
    p = None if predicted is None else np.asarray(predicted, dtype=float)
    for name, x in (("events", d), ("predicted_times", p)):
        if x is not None and x.shape != t.shape:
            raise DomainError(f"{name} has shape {x.shape} but {time_name} has shape {t.shape}")
    # min and max pass NaN on, so two reductions judge every time at once
    if not (t.min(initial=1.0) > 0.0 and t.max(initial=1.0) < np.inf):
        raise DomainError(f"{time_name} must be positive and finite")
    mask = None if d is None else d.astype(bool)
    if d is not None and not np.all(mask == d):
        raise DomainError("events must be 0 or 1")
    if p is not None and np.isnan(p).any():
        raise DomainError("predicted_times must not be NaN")
    return t, mask, p


@dataclass
class SurvivalDataset:
    """Rows of (observed time, event indicator, covariates), optionally
    with oracle true event/censoring times from simulation."""

    times: np.ndarray
    events: np.ndarray
    X: np.ndarray
    true_event_times: np.ndarray | None = None
    true_censor_times: np.ndarray | None = None

    def __post_init__(self):
        self.times, events, _ = survival_arrays(self.times, self.events)
        self.events = events.astype(int)
        self.X = np.asarray(self.X, dtype=float)
        columns = [self.X]
        for name in ("true_event_times", "true_censor_times"):
            if getattr(self, name) is not None:
                setattr(self, name, survival_arrays(getattr(self, name), time_name=name)[0])
                columns.append(getattr(self, name))
        n = self.times.shape[0]
        if self.X.ndim != 2 or any(col.shape[:1] != (n,) for col in columns):
            raise DataError("times, events, X and the oracle columns must agree on the row count")
        if n == 0:
            raise DataError("dataset must be non-empty")
        if self.X.shape[1] == 0:
            raise DataError("dataset must have at least one feature column")
        if not np.all(np.isfinite(self.X)):
            raise DataError("covariates must be finite")

    @property
    def n(self) -> int:
        return self.times.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def has_oracle(self) -> bool:
        return self.true_event_times is not None

    def subset(self, idx) -> "SurvivalDataset":
        idx = np.asarray(idx)
        return SurvivalDataset(
            times=self.times[idx],
            events=self.events[idx],
            X=self.X[idx],
            true_event_times=None if self.true_event_times is None else self.true_event_times[idx],
            true_censor_times=None if self.true_censor_times is None else self.true_censor_times[idx],
        )


_BLOCK_ROWS = 1024


def write_table(path, header, columns) -> None:
    """The one CSV writer: a header, then equal-length columns, each an
    array or a sequence of ints, floats or strs of one kind.

    Each column goes through np.asarray and is turned into Python
    scalars (tolist) one block of _BLOCK_ROWS rows at a time.  Each field
    is str() of one: floats round-trip bit-exactly and ints print as
    digits.  Fields are not quoted and lines end in \r\n, the bytes
    csv.writer gives for these fields.  A block is formatted column by
    column and written in one call, so a long table never sits in memory
    as text.  Columns of unequal length are a DataError, raised before
    the file is opened; an unwritable file is a ConfigError naming it.
    """
    columns = [np.asarray(col) for col in columns]
    n = len(columns[0])
    for name, col in zip(header, columns):
        if len(col) != n:
            raise DataError(f"{path}: column {name} has {len(col)} rows where {header[0]} has {n}")
    with writing(path), open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for a in range(0, n, _BLOCK_ROWS):
            fields = [map(str, col[a:a + _BLOCK_ROWS].tolist()) for col in columns]
            fh.write("\r\n".join(map(",".join, zip(*fields))) + "\r\n")


def _data_header(p: int, has_oracle: bool) -> list[str]:
    """The dataset CSV header of p features, with or without the oracle columns."""
    return ["time", "event", *(f"x{j + 1}" for j in range(p)), *(ORACLE_COLUMNS if has_oracle else ())]


def write_csv(dataset: SurvivalDataset, path) -> None:
    columns = [dataset.times, dataset.events] + list(dataset.X.T)
    if dataset.has_oracle:
        columns += [dataset.true_event_times, dataset.true_censor_times]
    write_table(path, _data_header(dataset.n_features, dataset.has_oracle), columns)


@contextmanager
def _csv_rows(path, what: str):
    """The stripped header and an iterator over the token rows after it;
    `what` ("data file") names the file if it cannot be opened.

    A file the csv module cannot tokenise (a field over its size limit,
    say) is a DataError naming the line, here or in the caller's body;
    so is one that does not decode as text.
    """
    with open_text(path, DataError, what) as fh:
        rows = csv.reader(fh)
        try:
            header = next(rows, None)
            if header is None:
                raise DataError(f"{path}: empty file")
            yield [h.strip() for h in header], rows
        except csv.Error as exc:
            raise DataError(f"{path}: line {rows.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {exc}") from exc


# float() also reads past the number grammar: it skips surrounding
# whitespace, reads PEP 515 underscores ('1_0' is 10.0) and any Unicode
# decimal digits.  A field holding one of these characters, or any
# character outside ASCII, is no number.  Substring scans of a block's
# joined fields find them at a few ms per 20 000 rows.
_NOT_IN_NUMBERS = "_ \t\n\r\x0b\x0c"


def _plain(text: str) -> bool:
    """Whether text holds only characters a plain number may."""
    return text.isascii() and not any(c in text for c in _NOT_IN_NUMBERS)


def _parse_rows(path, rows, width: int, event_col: int | None = None) -> np.ndarray:
    """The (n, width) float table of an iterator over token rows.

    Rows are taken _BLOCK_ROWS at a time, so only one block of tokens is
    held.  Every field must be _plain and go through float(), and the
    event column, if given, must hold 0 or 1.  A block with any fault
    goes to _raise_first_fault; earlier blocks have passed every check.
    """
    blocks = []
    while block := list(islice(rows, _BLOCK_ROWS)):
        table = None
        if all(len(row) == width for row in block) and _plain("".join(chain.from_iterable(block))):
            try:
                flat = np.fromiter(map(float, chain.from_iterable(block)), float, len(block) * width)
                table = flat.reshape(len(block), width)
            except ValueError:
                pass
        if table is None or (
            event_col is not None
            and not np.all((table[:, event_col] == 0.0) | (table[:, event_col] == 1.0))
        ):
            first_line = 2 + _BLOCK_ROWS * len(blocks)  # 1-based, after the header
            _raise_first_fault(path, block, first_line, width, event_col)
        blocks.append(table)
    return np.concatenate(blocks) if blocks else np.empty((0, width))


def _raise_first_fault(path, block, first_line, width, event_col) -> None:
    """Raise a DataError naming the line of the block's first faulty row.

    Runs only after a block has failed.  Fields are checked in file
    order, the event check right after its own field, so a row with
    several faults reports the first of them.
    """
    for line, row in enumerate(block, start=first_line):
        if len(row) != width:
            raise DataError(f"{path}: line {line}: expected {width} fields, got {len(row)}")
        try:
            for j, field in enumerate(row):
                if not _plain(field):
                    raise ValueError(f"not a plain number: {field!r}")
                value = float(field)
                if j == event_col and value not in (0.0, 1.0):
                    raise ValueError(f"event must be 0 or 1, got {field!r}")
        except ValueError as exc:
            raise DataError(f"{path}: line {line}: {exc}") from exc


def read_csv(path) -> SurvivalDataset:
    with _csv_rows(path, "data file") as (header, rows):
        has_oracle = header[-2:] == list(ORACLE_COLUMNS)
        p = len(header) - 2 - 2 * has_oracle
        if header != _data_header(p, has_oracle):
            raise DataError(f"{path}: header must be time,event,x1..xp, "
                            f"then optionally {','.join(ORACLE_COLUMNS)}")
        table = _parse_rows(path, rows, len(header), event_col=1)
    if len(table) == 0:
        raise DataError(f"{path}: no data rows")
    try:
        return SurvivalDataset(
            times=table[:, 0],
            events=table[:, 1],
            X=table[:, 2:2 + p],
            true_event_times=table[:, 2 + p] if has_oracle else None,
            true_censor_times=table[:, 3 + p] if has_oracle else None,
        )
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_predictions_csv(log_times: np.ndarray, times: np.ndarray, path) -> None:
    write_table(path, PREDICTION_COLUMNS,
                [np.asarray(log_times, dtype=float), np.asarray(times, dtype=float)])


def read_predictions_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with _csv_rows(path, "predictions file") as (header, rows):
        if header != list(PREDICTION_COLUMNS):
            raise DataError(f"{path}: bad predictions header")
        table = _parse_rows(path, rows, 2)
    if len(table) == 0:
        raise DataError(f"{path}: no data rows")
    return table[:, 0], table[:, 1]
