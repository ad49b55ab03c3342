"""Tests of the benchmark's own checkers.

On tiny inputs each checker agrees with depaft, and on a perturbed
prediction vector or result it fails.  Run with

    python3 -m pytest perfbench/test_checks.py -q
"""
import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
from depaft import (  # noqa: E402
    ClaytonAftLoss,
    CopulaSpec,
    CvConfig,
    DgpConfig,
    TrainConfig,
    calibration,
    concordance,
    generate,
    grid_search,
    save,
    train,
)
from depaft.dataset import write_csv, write_predictions_csv  # noqa: E402
from depaft.distributions import BaselineSpec  # noqa: E402
from depaft.studies import StudyConfig, run_study  # noqa: E402

EXTREME = BaselineSpec("extreme", 1.0 / 3.0)


def _tied_sample(rng, n):
    """Times and predictions drawn from few values, so both tie often."""
    times = rng.integers(1, 6, size=n).astype(float)
    events = rng.integers(0, 2, size=n)
    predicted = rng.integers(1, 5, size=n).astype(float)
    return times, events, predicted


@pytest.mark.parametrize("seed", range(20))
def test_concordance_matches_depaft_with_ties(seed):
    rng = np.random.default_rng(seed)
    times, events, predicted = _tied_sample(rng, int(rng.integers(2, 40)))
    ours = checks.concordance(times.tolist(), events.tolist(), predicted.tolist())
    assert ours == concordance(times, events, predicted)


def test_concordance_without_usable_pairs_is_half():
    assert checks.concordance([1.0, 2.0], [0, 0], [1.0, 2.0]) == 0.5
    assert concordance(np.array([1.0, 2.0]), np.array([0, 0]), np.array([1.0, 2.0])) == 0.5


def test_c_index_check_fails_on_perturbed_predictions():
    rng = np.random.default_rng(3)
    times, events, predicted = _tied_sample(rng, 30)
    reported = concordance(times, events, predicted)
    checks.check_c_index(reported, times.tolist(), events.tolist(), predicted.tolist(), "test")
    perturbed = predicted[::-1].tolist()
    with pytest.raises(checks.CheckFailed):
        checks.check_c_index(reported, times.tolist(), events.tolist(), perturbed, "test")


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    d = tmp_path_factory.mktemp("model")
    sim = generate(DgpConfig(n=80, c=1.49, copula=CopulaSpec("clayton", 3.0), seed=5))
    model = train(sim.data, ClaytonAftLoss(3.0, EXTREME, EXTREME), TrainConfig(rounds=15, min_child_weight=1.0))
    save(model, d / "model.json")
    write_csv(sim.data, d / "data.csv")
    log_t = model.predict(sim.data.X)
    write_predictions_csv(log_t, np.exp(log_t), d / "preds.csv")
    return d, model, sim


def test_tree_walk_matches_depaft_predict(small_model):
    d, model, sim = small_model
    doc = checks.load_json(d / "model.json")
    assert checks.walk_model(doc, sim.data.X.tolist()) == model.predict(sim.data.X).tolist()
    data = checks.read_columns(d / "data.csv")
    preds = checks.read_columns(d / "preds.csv")
    checks.check_predictions(doc, data, preds, range(sim.data.n))


def test_prediction_check_fails_on_perturbed_predictions(small_model):
    d, _, sim = small_model
    doc = checks.load_json(d / "model.json")
    data = checks.read_columns(d / "data.csv")
    preds = checks.read_columns(d / "preds.csv")
    preds["predicted_log_time"][7] = np.nextafter(preds["predicted_log_time"][7], np.inf)
    with pytest.raises(checks.CheckFailed):
        checks.check_predictions(doc, data, preds, range(sim.data.n))


def test_calibration_check_agrees_and_fails_on_perturbed_predictions():
    rng = np.random.default_rng(2)
    ref = rng.exponential(size=50)
    pred = ref * rng.uniform(0.5, 1.5, size=50)
    curve = calibration(ref, pred).to_dict()
    checks.check_calibration(curve, 50)
    curve["predicted_proportion"][3] = curve["predicted_proportion"][4] + 0.1
    with pytest.raises(checks.CheckFailed):
        checks.check_calibration(curve, 50)


def test_simulated_data_checks_agree_with_depaft():
    sim = generate(DgpConfig(n=4000, c=1.49, copula=CopulaSpec("clayton", 3.0), seed=9))
    checks.check_censoring(1.49, sim.censoring_fraction, sim.data.n)
    checks.check_kendall_tau(sim.data.true_event_times, sim.data.true_censor_times, 3.0, tol=0.04)
    with pytest.raises(checks.CheckFailed):
        checks.check_censoring(2.06, sim.censoring_fraction, sim.data.n)
    with pytest.raises(checks.CheckFailed):
        checks.check_kendall_tau(sim.data.true_event_times, sim.data.true_event_times, 3.0)


def test_censoring_check_allows_the_dgp_spread_but_not_another_c():
    # a study-2 training table at c = 1.49 with 41.4% censoring (n = 1000)
    # is within the DGP's own spread; the anchor of c = 1.2 is not
    checks.check_censoring(1.49, 0.414, 1000)
    with pytest.raises(checks.CheckFailed):
        checks.check_censoring(1.49, 0.74, 1000)
    with pytest.raises(checks.CheckFailed):
        checks.check_censoring(1.49, 0.25, 1000)


def test_cv_check_agrees_with_grid_search_and_fails_on_perturbed_scores(tmp_path):
    sim = generate(DgpConfig(n=120, c=1.49, copula=CopulaSpec("clayton", 3.0), seed=4))
    loss = {"loss": "clayton", "theta": 3.0, "event_baseline": EXTREME.to_dict(),
            "censor_baseline": EXTREME.to_dict()}
    cv = CvConfig(folds=2, max_rounds=12, checkpoint_stride=4, theta_grid=(2.0, 3.0), seed=1)
    result, model = grid_search(sim.data, loss, TrainConfig(min_child_weight=1.0), cv)
    save(model, tmp_path / "model.json")
    doc = checks.load_json(tmp_path / "model.json")
    checks.check_cv_result(result, doc, 12, 4)
    # raise a non-best point above the best: the reported best is then wrong
    other = next(p for p in result["points"] if p["rounds"] != result["best"]["rounds"])
    other["fold_scores"] = [1.0, 1.0]
    other["mean_score"] = 1.0
    with pytest.raises(checks.CheckFailed):
        checks.check_cv_result(result, doc, 12, 4)


def test_results_mean_check_agrees_with_run_study_and_fails_when_perturbed(tmp_path):
    config = StudyConfig(study=2, repetitions=2, n_train=60, n_test=60, max_rounds=10, checkpoint_stride=5, seed=3)
    run_study(config, str(tmp_path), quiet=True)
    checks.check_results_mean(tmp_path / "results.csv", tmp_path / "results_mean.csv")
    with open(tmp_path / "results_mean.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[1][9] = repr(float(rows[1][9]) + 1e-9)  # mean_c_index of the first group
    with open(tmp_path / "results_mean.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    with pytest.raises(checks.CheckFailed):
        checks.check_results_mean(tmp_path / "results.csv", tmp_path / "results_mean.csv")


def test_study_record_check_fails_on_off_schedule_rounds(tmp_path):
    config = StudyConfig(study=2, repetitions=1, n_train=200, n_test=200, max_rounds=20, checkpoint_stride=5, seed=3)
    records = run_study(config, str(tmp_path), quiet=True)
    record = json.loads(json.dumps(records[(2, 0)]))  # c = 1.49
    checks.check_study_record(record, 200, 200, 20, 5)
    record["models"]["clayton"]["rounds"] = 7
    with pytest.raises(checks.CheckFailed):
        checks.check_study_record(record, 200, 200, 20, 5)
