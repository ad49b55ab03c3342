import numpy as np
import pytest

from depaft import BaselineSpec, CopulaSpec, DgpConfig, generate
from depaft.booster import TrainConfig, train
from depaft.errors import ConfigError
from depaft.loss import IndependentAftLoss
from depaft.tuning import CvConfig, checkpoint_schedule, grid_search, stratified_folds


def test_cv_config_validation():
    with pytest.raises(ConfigError):
        CvConfig(folds=1)
    with pytest.raises(ConfigError):
        CvConfig(theta_grid=())
    with pytest.raises(ConfigError):
        CvConfig.from_dict({"n_folds": 2})
    cfg = CvConfig(folds=3, theta_grid=(1.0, 2.0))
    assert CvConfig.from_dict({"folds": 3, "theta_grid": [1.0, 2.0]}) == cfg


def test_checkpoint_schedule():
    assert checkpoint_schedule(200, 50) == [50, 100, 150, 200]
    assert checkpoint_schedule(120, 50) == [50, 100, 120]
    assert checkpoint_schedule(30, 50) == [30]


def test_stratified_folds_cover_and_balance():
    rng = np.random.default_rng(0)
    events = np.array([1] * 30 + [0] * 10)
    folds = stratified_folds(events, 2, rng)
    all_idx = np.sort(np.concatenate(folds))
    assert np.array_equal(all_idx, np.arange(40))
    for fold in folds:
        assert events[fold].sum() == 15  # events split evenly
    with pytest.raises(ConfigError):
        stratified_folds(np.array([1, 0]), 3, rng)


def _sim(seed=0, n=300):
    return generate(DgpConfig(n=n, c=1.49, copula=CopulaSpec("clayton", 3.0), seed=seed))


def test_single_point_grid_equals_direct_training():
    sim = _sim()
    loss_cfg = {"loss": "independent", "event_baseline": {"family": "extreme", "sigma": 1 / 3}}
    train_cfg = TrainConfig(rounds=40, learning_rate=0.1, max_depth=2)
    cv = CvConfig(folds=2, max_rounds=40, checkpoint_stride=40, seed=3)
    result, model = grid_search(sim.data, loss_cfg, train_cfg, cv)
    assert [p["rounds"] for p in result["points"]] == [40]
    assert result["best"]["rounds"] == 40
    direct = train(
        sim.data, IndependentAftLoss(BaselineSpec("extreme", 1 / 3)), train_cfg
    )
    assert np.array_equal(model.predict(sim.data.X), direct.predict(sim.data.X))


def test_round_selection_deterministic():
    sim = _sim(seed=11)
    loss_cfg = {"loss": "independent", "event_baseline": {"family": "extreme", "sigma": 1 / 3}}
    train_cfg = TrainConfig(rounds=100, learning_rate=0.1, max_depth=2)
    cv = CvConfig(folds=2, max_rounds=100, checkpoint_stride=25, seed=7)
    r1, m1 = grid_search(sim.data, loss_cfg, train_cfg, cv)
    r2, m2 = grid_search(sim.data, loss_cfg, train_cfg, cv)
    assert r1 == r2
    assert r1["best"]["rounds"] <= 100
    assert np.array_equal(m1.predict(sim.data.X), m2.predict(sim.data.X))


def test_theta_grid_recorded_and_searched():
    sim = _sim(seed=4)
    loss_cfg = {
        "loss": "clayton",
        "theta": 1.0,
        "event_baseline": {"family": "extreme", "sigma": 1 / 3},
        "censor_baseline": {"family": "extreme", "sigma": 1 / 3},
    }
    train_cfg = TrainConfig(rounds=30, learning_rate=0.1, max_depth=2)
    grid = (1.1, 1.3, 1.5, 1.8, 2.0)
    cv = CvConfig(folds=2, max_rounds=30, checkpoint_stride=15, seed=5, theta_grid=grid)
    result, model = grid_search(sim.data, loss_cfg, train_cfg, cv)
    seen = {p["theta"] for p in result["points"]}
    assert seen == set(grid)
    for p in result["points"]:
        assert len(p["fold_scores"]) == 2
    assert result["best"]["theta"] in grid
    assert model.loss_config["theta"] == result["best"]["theta"]


def test_theta_grid_requires_clayton():
    sim = _sim(seed=4)
    loss_cfg = {"loss": "independent", "event_baseline": {"family": "extreme", "sigma": 1 / 3}}
    cv = CvConfig(folds=2, max_rounds=10, checkpoint_stride=10, theta_grid=(1.0,))
    with pytest.raises(ConfigError):
        grid_search(sim.data, loss_cfg, TrainConfig(rounds=10), cv)


@pytest.mark.parametrize("field, value", [
    ("folds", "2"), ("max_rounds", "abc"), ("checkpoint_stride", 2.5), ("seed", None),
    ("theta_grid", ["x"]), ("theta_grid", "1.5"), ("theta_grid", 1.5),
])
def test_cv_config_rejects_non_numeric_fields(field, value):
    with pytest.raises(ConfigError, match=field):
        CvConfig.from_dict({field: value})
