"""Evaluation metrics: Harrell concordance, MAE against oracle truth,
event-restricted MAE, and calibration-curve extraction.

Concordance is an exact integer count in O(n log^2 n) time and O(n)
memory, built on count_larger_before, the per-row inversion count that
the simulator's Kendall tau uses too.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import SurvivalDataset, survival_arrays
from .errors import ConfigError, DataError


def _vectors(times, events, predicted, time_name="times"):
    """dataset.survival_arrays, for one-dimensional arrays only."""
    t, d, p = survival_arrays(times, events, predicted, time_name)
    if t.ndim != 1:
        raise DataError(f"{time_name} must be one-dimensional")
    return t, d, p


def count_larger_before(ranks) -> np.ndarray:
    """For each position k, the number of positions j < k with
    ranks[j] > ranks[k], in O(n log^2 n).

    ranks are integers in 0..n-1 (n = len(ranks)); ties are allowed and
    never counted.
    A bottom-up merge sort vectorised over blocks: at each level every
    entry of a right half counts the entries of its left half that
    exceed it with one searchsorted, then each pair of halves is sorted
    into the next level's block.  Entries carry their position in the
    low digits of a code rank * size + position, so one plain sort moves
    both and keeps equal ranks in position order.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    n = ranks.shape[0]
    if n < 2:
        return np.zeros(n, dtype=np.int64)
    size = 1 << (n - 1).bit_length()
    # padding sits after every real entry, so no real count includes it
    code = np.concatenate([ranks, np.zeros(size - n, dtype=np.int64)]) * size + np.arange(size)
    counts = np.zeros(size, dtype=np.int64)
    width = 1
    while width < size:
        halves = code.reshape(-1, 2, width)  # each half sorted
        n_blocks = halves.shape[0]
        offset = np.arange(n_blocks)[:, None] * size
        left = (halves[:, 0] // size + offset).ravel()
        right = (halves[:, 1] // size + offset).ravel()
        left_at_most = np.searchsorted(left, right, side="right") - np.repeat(
            np.arange(n_blocks) * width, width
        )
        counts[halves[:, 1].ravel() % size] += width - left_at_most
        code = np.sort(code.reshape(-1, 2 * width), axis=1).ravel()
        width *= 2
    return counts[:n]


def concordance(times, events, predicted_times) -> float:
    """Harrell's concordance index over usable pairs.

    An ordered pair (i, j) is usable when t_i < t_j and row i is an
    event, or when t_i == t_j with row i an event and row j censored
    (the event treated as the earlier).  It is concordant when the
    earlier row also has the smaller predicted time; prediction ties
    earn half credit.  Returns 0.5 when no pair is usable.

    Exact in O(n log^2 n).  Each row gets the key 2 * rank(t) + censored,
    so (i, j) is usable exactly when row i is an event and key_j > key_i.
    Per event row, the usable and the tied counts are searchsorted over
    sorted keys and (prediction rank, key) codes; the concordant count is
    count_larger_before over prediction ranks with rows ordered by key
    descending, and by prediction ascending within a key, so rows sharing
    a key never count each other.  The tallies are integers, so the
    result does not depend on the order of the sums.  The arrays meet
    dataset.survival_arrays; infinite predictions rank like any other.
    """
    t, d, p = _vectors(times, events, predicted_times)
    _, t_rank = np.unique(t, return_inverse=True)
    uniq_p, p_rank = np.unique(p, return_inverse=True)
    key = 2 * t_rank + ~d
    n_keys = 2 * int(t_rank.max(initial=0)) + 2
    n_preds = uniq_p.shape[0]
    usable = np.sum(key.shape[0] - np.searchsorted(np.sort(key), key[d], side="right"))
    if usable == 0:
        return 0.5
    order = np.argsort((n_keys - 1 - key) * n_preds + p_rank)
    concordant = np.sum(count_larger_before(p_rank[order])[d[order]])
    pk = np.sort(p_rank * n_keys + key)
    tied = np.sum(
        np.searchsorted(pk, (p_rank[d] + 1) * n_keys, side="left")
        - np.searchsorted(pk, p_rank[d] * n_keys + key[d], side="right")
    )
    # credit counted in half-units so the tally stays integer-exact
    credit2 = 2 * int(concordant) + int(tied)
    return credit2 / (2.0 * int(usable))


def mae(true_times, predicted_times) -> float:
    """Mean absolute error on the raw time scale."""
    a, _, b = _vectors(true_times, None, predicted_times, "true_times")
    return float(np.mean(np.abs(a - b)))


def event_mae(observed_times, events, predicted_times) -> float:
    """MAE restricted to uncensored rows."""
    t, d, p = _vectors(observed_times, events, predicted_times, "observed_times")
    if not np.any(d):
        raise DataError("event MAE undefined: no uncensored rows")
    return float(np.mean(np.abs(t[d] - p[d])))


# the most horizons a calibration curve takes: each costs memory and
# time, and 10^9 of them would ask for 8 GB per array
MAX_HORIZONS = 100_000


@dataclass(frozen=True)
class CalibrationCurve:
    """Cumulative predicted vs observed event proportions at a ladder of
    time horizons (empirical quantiles of the reference times)."""

    horizons: np.ndarray
    predicted_proportion: np.ndarray
    observed_proportion: np.ndarray
    degenerate: bool = False

    def to_dict(self) -> dict:
        return {
            "horizons": [float(x) for x in self.horizons],
            "predicted_proportion": [float(x) for x in self.predicted_proportion],
            "observed_proportion": [float(x) for x in self.observed_proportion],
            "degenerate": self.degenerate,
        }


def calibration(reference_times, predicted_times, n_horizons: int = 9) -> CalibrationCurve:
    """Calibration curve at quantile horizons i/(n_horizons+1), i=1..n,
    for 2 <= n_horizons <= MAX_HORIZONS.

    reference_times should be the true event times when available
    (simulated data); with observed times the curve is only a proxy.
    All-equal reference times degenerate to a single-horizon curve.
    """
    ref, _, pred = _vectors(reference_times, None, predicted_times, "reference_times")
    if n_horizons < 2:
        raise ConfigError(f"n_horizons must be >= 2, got {n_horizons}")
    if n_horizons > MAX_HORIZONS:
        raise ConfigError(f"n_horizons must be <= {MAX_HORIZONS}, got {n_horizons}")
    if np.all(ref == ref[0]):
        horizons = np.array([ref[0]])
        degenerate = True
    else:
        levels = np.arange(1, n_horizons + 1) / (n_horizons + 1.0)
        horizons = np.quantile(ref, levels)
        degenerate = False
    # the share of times <= h: one sort and one search per array
    observed = np.searchsorted(np.sort(ref), horizons, side="right") / ref.shape[0]
    predicted = np.searchsorted(np.sort(pred), horizons, side="right") / pred.shape[0]
    return CalibrationCurve(horizons, predicted, observed, degenerate)


@dataclass(frozen=True)
class MetricsReport:
    c_index: float
    event_mae: float
    calibration: CalibrationCurve
    n_rows: int
    n_events: int
    mae: float | None = None
    calibration_reference: str = "true_event_time"

    def to_dict(self) -> dict:
        out = {
            "c_index": self.c_index,
            "event_mae": self.event_mae,
            "n_rows": self.n_rows,
            "n_events": self.n_events,
            "calibration_reference": self.calibration_reference,
            "calibration": self.calibration.to_dict(),
        }
        if self.mae is not None:
            out["mae"] = self.mae
        else:
            out["warning"] = (
                "no oracle event times: MAE omitted and calibration uses observed times"
            )
        return out


def evaluate_predictions(
    data: SurvivalDataset, predicted_times, n_horizons: int = 9
) -> MetricsReport:
    """Assemble the full metrics report for one prediction vector; the
    first metric, concordance, checks it against the data."""
    c = concordance(data.times, data.events, predicted_times)
    e_mae = event_mae(data.times, data.events, predicted_times)
    if data.has_oracle:
        full_mae = mae(data.true_event_times, predicted_times)
        curve = calibration(data.true_event_times, predicted_times, n_horizons)
        ref = "true_event_time"
    else:
        full_mae = None
        curve = calibration(data.times, predicted_times, n_horizons)
        ref = "observed_time"
    return MetricsReport(
        c_index=c,
        event_mae=e_mae,
        calibration=curve,
        n_rows=data.n,
        n_events=int(np.sum(data.events)),
        mae=full_mae,
        calibration_reference=ref,
    )
