import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from depaft.dataset import SurvivalDataset
from depaft.errors import ConfigError, DataError
from depaft.metrics import (
    MAX_HORIZONS,
    CalibrationCurve,
    calibration,
    concordance,
    count_larger_before,
    evaluate_predictions,
    event_mae,
    mae,
)

from oracles import ref_concordance, ref_concordance_pairwise, ref_count_larger_before


def test_perfect_and_reversed_ranking():
    t = np.array([1.0, 2.0, 3.0, 4.0])
    d = np.ones(4, dtype=int)
    assert concordance(t, d, t * 10.0) == 1.0
    assert concordance(t, d, -t + 100.0) == 0.0


def test_hand_worked_censored_case():
    # times (2,4,6), events (1,0,1), predictions (1,5,4): usable pairs are
    # (1,2) and (1,3), both concordant; (3,2) unusable since the shorter
    # observed time there is censored
    t = np.array([2.0, 4.0, 6.0])
    d = np.array([1, 0, 1])
    p = np.array([1.0, 5.0, 4.0])
    assert concordance(t, d, p) == 1.0
    assert ref_concordance(list(t), list(d), list(p)) == 1.0


def test_no_usable_pairs_returns_half():
    t = np.array([1.0, 2.0, 3.0])
    d = np.zeros(3, dtype=int)
    assert concordance(t, d, np.array([3.0, 2.0, 1.0])) == 0.5


def test_tied_time_pairs():
    # equal times with exactly one event: the event row counts as earlier
    t = np.array([2.0, 2.0])
    assert concordance(t, np.array([1, 0]), np.array([1.0, 5.0])) == 1.0
    assert concordance(t, np.array([1, 0]), np.array([5.0, 1.0])) == 0.0
    # both events at equal times: no usable pair
    assert concordance(t, np.array([1, 1]), np.array([1.0, 5.0])) == 0.5


def test_prediction_ties_half_credit():
    t = np.array([1.0, 2.0])
    d = np.array([1, 1])
    assert concordance(t, d, np.array([3.0, 3.0])) == 0.5


def test_matches_bruteforce_oracle_on_random_instances():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(2, 200))
        # discrete supports force plenty of time and prediction ties
        t = rng.integers(1, 20, size=n).astype(float)
        d = rng.integers(0, 2, size=n)
        p = rng.integers(1, 15, size=n).astype(float)
        assert concordance(t, d, p) == ref_concordance(list(t), list(d), list(p))


def test_matches_pairwise_oracle_at_three_thousand_rows():
    rng = np.random.default_rng(2024)
    n = 3000
    # coarse times and predictions: many ties of each kind, plus infinities
    t = np.round(rng.weibull(3.0, n), 2) + 0.01
    d = rng.integers(0, 2, n)
    p = np.round(rng.weibull(3.0, n), 2)
    p[rng.choice(n, 40, replace=False)] = np.inf
    p[rng.choice(n, 40, replace=False)] = 0.0
    assert concordance(t, d, p) == ref_concordance_pairwise(t, d, p)
    assert concordance(t, d, -p) == ref_concordance_pairwise(t, d, -p)


def test_pairwise_oracle_agrees_with_loop_oracle():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(1, 60))
        t = rng.integers(1, 8, size=n).astype(float)
        d = rng.integers(0, 2, size=n)
        p = rng.integers(1, 6, size=n).astype(float)
        assert ref_concordance_pairwise(t, d, p) == ref_concordance(list(t), list(d), list(p))


def test_count_larger_before_matches_loop():
    rng = np.random.default_rng(4)
    for n in list(range(0, 10)) + [31, 32, 33, 100, 257]:
        for top in (1, 3, n):
            ranks = rng.integers(0, max(top, 1), size=n)
            assert count_larger_before(ranks).tolist() == ref_count_larger_before(ranks.tolist())
    ranks = rng.permutation(500)
    assert count_larger_before(ranks).tolist() == ref_count_larger_before(ranks.tolist())


def test_single_row_and_empty_input():
    assert concordance(np.array([1.0]), np.array([1]), np.array([2.0])) == 0.5
    assert concordance(np.array([]), np.array([], dtype=int), np.array([])) == 0.5


def test_all_censored_returns_half():
    t = np.array([1.0, 1.0, 2.0, 3.0])
    assert concordance(t, np.zeros(4, dtype=int), np.array([4.0, 1.0, 2.0, 2.0])) == 0.5


def test_all_times_tied():
    # only event-censored pairs are usable: events 0 and 2 against 1 and 3
    t = np.full(4, 2.0)
    d = np.array([1, 0, 1, 0])
    p = np.array([1.0, 3.0, 3.0, 0.5])
    # (0,1) concordant, (0,3) discordant, (2,1) tied, (2,3) discordant
    assert concordance(t, d, p) == 1.5 / 4
    assert concordance(t, d, p) == ref_concordance(list(t), list(d), list(p))
    assert concordance(t, np.ones(4, dtype=int), p) == 0.5


def test_all_predictions_tied():
    rng = np.random.default_rng(8)
    t = rng.integers(1, 5, 30).astype(float)
    d = rng.integers(0, 2, 30)
    d[0] = 1
    t[0] = 0.5  # one usable pair at least
    assert concordance(t, d, np.full(30, 7.0)) == 0.5


def test_infinite_predictions_rank_like_numbers():
    t = np.array([1.0, 2.0, 3.0, 4.0])
    d = np.ones(4, dtype=int)
    assert concordance(t, d, np.array([-np.inf, 0.0, 1.0, np.inf])) == 1.0
    assert concordance(t, d, np.array([np.inf, 1.0, 0.0, -np.inf])) == 0.0
    assert concordance(t[:2], d[:2], np.array([np.inf, np.inf])) == 0.5
    # exp overflow of log-time predictions gives +inf ties at the top
    p = np.array([0.5, np.inf, np.inf, 2.0])
    assert concordance(t, d, p) == ref_concordance(list(t), list(d), list(p))


@pytest.mark.parametrize("where", ["times", "predictions"])
def test_nan_input_is_a_data_error(where):
    t = np.array([1.0, 2.0, 3.0])
    p = np.array([1.0, 2.0, 3.0])
    (t if where == "times" else p)[1] = np.nan
    message = {"times": "^times must be positive and finite$",
               "predictions": "^predicted_times must not be NaN$"}[where]
    with pytest.raises(DataError, match=message):
        concordance(t, np.array([1, 0, 1]), p)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_invariance_under_increasing_transform(seed):
    rng = np.random.default_rng(seed)
    n = 40
    t = rng.uniform(0.1, 5.0, n)
    d = rng.integers(0, 2, n)
    p = rng.uniform(0.1, 5.0, n)
    base = concordance(t, d, p)
    assert concordance(t, d, np.exp(p)) == base
    assert concordance(t, d, 3.0 * p + 7.0) == base


def test_reversal_complement():
    rng = np.random.default_rng(11)
    t = rng.uniform(0.1, 5.0, 60)
    d = rng.integers(0, 2, 60)
    p = rng.uniform(0.1, 5.0, 60)  # continuous, no ties
    assert concordance(t, d, p) + concordance(t, d, -p) == pytest.approx(1.0, abs=1e-12)


def test_concordance_shape_errors():
    with pytest.raises(DataError):
        concordance(np.array([1.0, 2.0]), np.array([1, 1]), np.array([1.0]))


def test_mae_basics():
    assert mae(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0])) == 0.0
    assert mae(np.array([1.0, 2.0, 3.0]), np.array([2.0, 2.0, 2.0])) == pytest.approx(2 / 3)
    rng = np.random.default_rng(0)
    x = rng.uniform(1, 5, 30)
    assert mae(x, x + 0.37) == pytest.approx(0.37, rel=1e-12)
    with pytest.raises(DataError):
        mae(np.array([1.0]), np.array([1.0, 2.0]))


def test_event_mae():
    t = np.array([2.0, 9.0])
    assert event_mae(t, np.array([1, 0]), np.array([3.0, 100.0])) == 1.0
    t4 = np.array([1.0, 2.0, 3.0, 4.0])
    p4 = np.array([2.0, 1.0, 5.0, 3.0])
    ones = np.ones(4, dtype=int)
    assert event_mae(t4, ones, p4) == mae(t4, p4)
    perm = np.array([2, 0, 3, 1])
    assert event_mae(t4[perm], ones, p4[perm]) == event_mae(t4, ones, p4)
    with pytest.raises(DataError):
        event_mae(t4, np.zeros(4, dtype=int), p4)


def test_calibration_diagonal_when_identical():
    rng = np.random.default_rng(2)
    ref = rng.uniform(0.5, 4.0, 200)
    curve = calibration(ref, ref, 9)
    assert np.allclose(curve.predicted_proportion, curve.observed_proportion)
    assert not curve.degenerate
    assert np.all(np.diff(curve.horizons) >= 0)
    assert np.all(np.diff(curve.predicted_proportion) >= 0)
    assert np.all(np.diff(curve.observed_proportion) >= 0)


def test_calibration_overestimation_sits_below_diagonal():
    rng = np.random.default_rng(3)
    ref = rng.uniform(0.5, 4.0, 500)
    curve = calibration(ref, 2.0 * ref, 9)
    assert np.all(curve.predicted_proportion <= curve.observed_proportion)


def test_calibration_two_horizons_hand_counted():
    ref = np.array([1.0, 2.0, 3.0, 4.0])
    pred = np.array([1.5, 1.5, 3.5, 5.0])
    curve = calibration(ref, pred, 2)
    assert curve.horizons == pytest.approx([2.0, 3.0])
    assert curve.observed_proportion == pytest.approx([0.5, 0.75])
    assert curve.predicted_proportion == pytest.approx([0.5, 0.5])


def test_calibration_shares_are_the_counts_of_a_loop():
    # the curve sorts each array once and searches it; the reference
    # counts times <= h horizon by horizon, and the bits must agree
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(2, 300))
        ref = np.round(rng.exponential(size=n), int(rng.integers(0, 3))) + 1e-3  # ties
        pred = np.round(rng.exponential(size=n), int(rng.integers(0, 3)))  # ties and 0
        pred[rng.uniform(size=n) < 0.05] = np.inf
        curve = calibration(ref, pred, int(rng.integers(2, 40)))
        for got, times in ((curve.observed_proportion, ref), (curve.predicted_proportion, pred)):
            loop = np.array([np.mean(times <= h) for h in curve.horizons])
            assert got.tobytes() == loop.tobytes()


def test_calibration_takes_up_to_100000_horizons():
    ref = np.array([1.0, 2.0, 2.0, 3.0, 4.0])
    pred = np.array([0.5, 2.0, 2.5, np.inf, 4.0])
    curve = calibration(ref, pred, MAX_HORIZONS)
    assert curve.horizons.shape == (MAX_HORIZONS,)
    # the shares at a horizon are those of a plain count
    for j in (0, 24_999, 50_000, MAX_HORIZONS - 1):
        h = curve.horizons[j]
        assert curve.observed_proportion[j] == np.mean(ref <= h)
        assert curve.predicted_proportion[j] == np.mean(pred <= h)
    with pytest.raises(ConfigError, match="n_horizons must be <= 100000, got 100001"):
        calibration(ref, pred, MAX_HORIZONS + 1)


def test_calibration_degenerate_reference():
    curve = calibration(np.full(10, 2.0), np.linspace(1, 3, 10), 9)
    assert curve.degenerate
    assert curve.horizons.shape == (1,)


def test_evaluate_predictions_with_and_without_oracle():
    rng = np.random.default_rng(5)
    n = 50
    X = rng.uniform(size=(n, 2))
    te = rng.uniform(0.5, 3.0, n)
    tc = rng.uniform(0.5, 3.0, n)
    data = SurvivalDataset(np.minimum(te, tc), (te <= tc).astype(int), X, te, tc)
    pred = rng.uniform(0.5, 3.0, n)
    report = evaluate_predictions(data, pred)
    assert report.mae is not None
    assert report.calibration_reference == "true_event_time"
    assert "mae" in report.to_dict()

    bare = SurvivalDataset(data.times, data.events, X)
    report2 = evaluate_predictions(bare, pred)
    assert report2.mae is None
    out = report2.to_dict()
    assert "mae" not in out
    assert "warning" in out
    assert report2.calibration_reference == "observed_time"


def test_perfect_predictions_no_censoring():
    t = np.linspace(1.0, 5.0, 30)
    data = SurvivalDataset(t, np.ones(30, dtype=int), np.zeros((30, 1)), t, t * 2)
    report = evaluate_predictions(data, t)
    assert report.c_index == 1.0
    assert report.mae == 0.0
    assert report.event_mae == 0.0
