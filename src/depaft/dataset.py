"""Survival data container and CSV schemas.

Dataset CSV columns: time, event, x1..xp, and optionally the simulator's
oracle columns true_event_time and true_censor_time.  Predictions CSV
columns: predicted_log_time, predicted_time.  Floats are written with
repr so re-reading is bit-exact and output bytes are deterministic.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import DataError

ORACLE_COLUMNS = ("true_event_time", "true_censor_time")


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
        self.times = np.asarray(self.times, dtype=float)
        self.events = np.asarray(self.events, dtype=int)
        self.X = np.asarray(self.X, dtype=float)
        n = self.times.shape[0]
        if self.X.ndim != 2 or self.X.shape[0] != n or self.events.shape[0] != n:
            raise DataError("times, events, and X must agree on the number of rows")
        if n == 0:
            raise DataError("dataset must be non-empty")
        if self.X.shape[1] == 0:
            raise DataError("dataset must have at least one feature column")
        if not np.all(np.isfinite(self.times)) or np.any(self.times <= 0.0):
            raise DataError("times must be positive and finite")
        if not np.all((self.events == 0) | (self.events == 1)):
            raise DataError("event indicators must be 0 or 1")
        if not np.all(np.isfinite(self.X)):
            raise DataError("covariates must be finite")
        for name in ("true_event_times", "true_censor_times"):
            col = getattr(self, name)
            if col is not None:
                col = np.asarray(col, dtype=float)
                if col.shape[0] != n or not np.all(np.isfinite(col)) or np.any(col <= 0):
                    raise DataError(f"{name} must be positive, finite, length {n}")
                setattr(self, name, col)

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


def _fmt(x: float) -> str:
    return repr(float(x))


def write_csv(dataset: SurvivalDataset, path) -> None:
    header = ["time", "event"] + [f"x{j + 1}" for j in range(dataset.n_features)]
    oracle = dataset.has_oracle
    if oracle:
        header += list(ORACLE_COLUMNS)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(dataset.n):
            row = [_fmt(dataset.times[i]), str(int(dataset.events[i]))]
            row += [_fmt(v) for v in dataset.X[i]]
            if oracle:
                row += [_fmt(dataset.true_event_times[i]), _fmt(dataset.true_censor_times[i])]
            writer.writerow(row)


def _open_for_reading(path):
    try:
        return open(path, newline="")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc


def read_csv(path) -> SurvivalDataset:
    with _open_for_reading(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        rows = list(reader)
    header = [h.strip() for h in header]
    if header[:2] != ["time", "event"]:
        raise DataError(f"{path}: header must start with time,event")
    feature_names = []
    for name in header[2:]:
        if name in ORACLE_COLUMNS:
            break
        feature_names.append(name)
    expected = [f"x{j + 1}" for j in range(len(feature_names))]
    if feature_names != expected:
        raise DataError(f"{path}: feature columns must be named x1..x{len(feature_names)}")
    rest = header[2 + len(feature_names):]
    if rest not in ([], list(ORACLE_COLUMNS)):
        raise DataError(f"{path}: trailing columns must be exactly {ORACLE_COLUMNS}")
    has_oracle = rest == list(ORACLE_COLUMNS)

    n, p = len(rows), len(feature_names)
    if n == 0:
        raise DataError(f"{path}: no data rows")
    times = np.empty(n)
    events = np.empty(n, dtype=int)
    X = np.empty((n, p))
    te = np.empty(n) if has_oracle else None
    tc = np.empty(n) if has_oracle else None
    width = len(header)
    for i, row in enumerate(rows):
        line = i + 2  # 1-based, after header
        if len(row) != width:
            raise DataError(f"{path}: line {line}: expected {width} fields, got {len(row)}")
        try:
            times[i] = float(row[0])
            event = float(row[1])
            if event not in (0.0, 1.0):
                raise ValueError(f"event must be 0 or 1, got {row[1]!r}")
            events[i] = int(event)
            for j in range(p):
                X[i, j] = float(row[2 + j])
            if has_oracle:
                te[i] = float(row[2 + p])
                tc[i] = float(row[3 + p])
        except ValueError as exc:
            raise DataError(f"{path}: line {line}: {exc}") from exc
    try:
        return SurvivalDataset(times, events, X, te, tc)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_predictions_csv(log_times: np.ndarray, times: np.ndarray, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["predicted_log_time", "predicted_time"])
        for lt, t in zip(log_times, times):
            writer.writerow([_fmt(lt), _fmt(t)])


def read_predictions_csv(path) -> tuple[np.ndarray, np.ndarray]:
    with _open_for_reading(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if [h.strip() for h in header] != ["predicted_log_time", "predicted_time"]:
            raise DataError(f"{path}: bad predictions header")
        log_times, times = [], []
        for i, row in enumerate(reader):
            line = i + 2
            if len(row) != 2:
                raise DataError(f"{path}: line {line}: expected 2 fields")
            try:
                log_times.append(float(row[0]))
                times.append(float(row[1]))
            except ValueError as exc:
                raise DataError(f"{path}: line {line}: {exc}") from exc
    if not times:
        raise DataError(f"{path}: no data rows")
    return np.asarray(log_times), np.asarray(times)
