import pickle
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from depaft import BaselineSpec, CopulaSpec, DgpConfig, generate, parallel, tuning
from depaft.booster import Boosting, RegressionTree, TrainConfig, TreeEnsemble, train
from depaft.errors import ConfigError
from depaft.loss import ClaytonAftLoss, IndependentAftLoss, loss_from_config
from depaft.parallel import pool_size, usable_cpus
from depaft.tuning import CvConfig, checkpoint_schedule, grid_search, stratified_folds

from oracles import ref_stratified_folds


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


@pytest.mark.parametrize("folds", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 17])
def test_stratified_folds_match_reference(folds, seed):
    # unbalanced classes, one class absent, and tables small enough that
    # some fold gets no row
    for n_events, n_censored in ((30, 10), (7, 23), (1, 12), (0, 9), (11, 0), (3, 2), (2, 2)):
        events = np.random.default_rng(n_events).permutation([1] * n_events + [0] * n_censored)
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if folds > events.shape[0]:
            with pytest.raises(ConfigError, match=f"cannot make {folds} folds"):
                stratified_folds(events, folds, rng)
            assert rng.random() == ref_rng.random()  # refused before any draw
            continue
        want = ref_stratified_folds(events.tolist(), folds, ref_rng)
        if any(not fold for fold in want):
            with pytest.raises(ConfigError, match="some fold is empty"):
                stratified_folds(events, folds, rng)
        else:
            got = stratified_folds(events, folds, rng)
            assert [fold.tolist() for fold in got] == want
            assert all(fold.dtype == np.int64 for fold in got)
        assert rng.random() == ref_rng.random()  # the same draws were taken


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


@pytest.mark.parametrize("loss_cfg", [
    [{"loss": "clayton"}],
    ClaytonAftLoss(3.0, BaselineSpec("extreme", 1 / 3), BaselineSpec("extreme", 1 / 3)),
])
def test_theta_grid_search_refuses_a_loss_config_that_is_no_object(loss_cfg):
    sim = _sim(seed=4)
    cv = CvConfig(folds=2, max_rounds=10, checkpoint_stride=10, theta_grid=(1.0,))
    with pytest.raises(ConfigError, match="loss config must be an object"):
        grid_search(sim.data, loss_cfg, TrainConfig(rounds=10), cv)


@pytest.mark.parametrize("field, value", [
    ("folds", "2"), ("max_rounds", "abc"), ("checkpoint_stride", 2.5), ("seed", None),
    ("theta_grid", ["x"]), ("theta_grid", "1.5"), ("theta_grid", 1.5),
    ("max_rounds", True), ("theta_grid", [True]),
])
def test_cv_config_rejects_non_numeric_fields(field, value):
    with pytest.raises(ConfigError, match=field):
        CvConfig.from_dict({field: value})


CLAYTON_LOSS = {
    "loss": "clayton",
    "theta": 3.0,
    "event_baseline": {"family": "extreme", "sigma": 1 / 3},
    "censor_baseline": {"family": "extreme", "sigma": 1 / 3},
}


def _crossing_one_way(monkeypatch):
    """Substitute tuning.task_map with a map that runs each job in this
    process as a process pool does, on a pickled copy of its arguments,
    and returns a pickled copy of its result.  No result may carry a
    dataset, or the training rows of the fit it grew, back."""
    @contextmanager
    def task_map(workers, jobs):
        def pickling_map(fn, *iterables):
            for args in zip(*iterables):
                args = pickle.loads(pickle.dumps(args))
                blob = pickle.dumps(fn(*args))
                sent = args[0].data
                assert b"SurvivalDataset" not in blob
                assert sent.X.tobytes() not in blob and sent.times.tobytes() not in blob
                yield pickle.loads(blob)
        yield pickling_map

    monkeypatch.setattr(tuning, "task_map", task_map)


@pytest.mark.parametrize("folds", [2, 3])
def test_worker_count_changes_nothing(monkeypatch, folds):
    sim = _sim(seed=8)
    train_cfg = TrainConfig(rounds=30, learning_rate=0.1, max_depth=2)
    cv = CvConfig(folds=folds, max_rounds=30, checkpoint_stride=10, seed=2, theta_grid=(1.5, 3.0))
    serial, serial_model = grid_search(sim.data, CLAYTON_LOSS, train_cfg, cv, workers=1)
    pooled, pooled_model = grid_search(sim.data, CLAYTON_LOSS, train_cfg, cv, workers=2)
    assert pooled == serial
    assert pooled_model.loss_config == serial_model.loss_config
    assert len(serial_model.trees) == serial["best"]["rounds"]
    _same_trees(pooled_model, serial_model)
    # a fit crosses the pool one way: only its leg comes back
    _crossing_one_way(monkeypatch)
    crossed, crossed_model = grid_search(sim.data, CLAYTON_LOSS, train_cfg, cv, workers=2)
    assert crossed == serial
    _same_trees(crossed_model, serial_model)


@pytest.mark.parametrize("workers", [0, -2])
def test_grid_search_refuses_fewer_than_one_worker(workers):
    cv = CvConfig(folds=2, max_rounds=10, checkpoint_stride=10)
    with pytest.raises(ConfigError, match=f"workers must be a positive integer, got {workers}"):
        grid_search(_sim(n=50).data, CLAYTON_LOSS, TrainConfig(rounds=10), cv, workers=workers)


@pytest.mark.parametrize("workers", [True, 2.5, "2"])
def test_grid_search_refuses_a_worker_count_that_is_no_integer(workers):
    cv = CvConfig(folds=2, max_rounds=10, checkpoint_stride=10)
    with pytest.raises(ConfigError, match=f"^workers must be an integer, got {workers!r}$"):
        grid_search(_sim(n=50).data, CLAYTON_LOSS, TrainConfig(rounds=10), cv, workers=workers)


@pytest.mark.parametrize("patience", [0, -1, 2.5, True])
def test_grid_search_refuses_a_bad_patience_before_any_fit(monkeypatch, patience):
    def no_work(*args, **kwargs):
        raise AssertionError("a fit or a pool was started")

    monkeypatch.setattr(tuning, "Boosting", no_work)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_work)
    cv = CvConfig(folds=2, max_rounds=10, checkpoint_stride=5)
    with pytest.raises(ConfigError, match=f"patience must be .*, got {patience!r}"):
        grid_search(_sim(n=50).data, CLAYTON_LOSS, TrainConfig(rounds=10), cv, workers=2,
                    patience=patience)


def test_pool_size_never_exceeds_the_jobs():
    assert (pool_size(2, 4), pool_size(8, 4), pool_size(10**6, 6), pool_size(4, 0)) == (2, 4, 6, 0)
    for workers in range(1, 40):
        for jobs in range(40):
            size = pool_size(workers, jobs)
            assert size <= workers and size <= jobs and (size >= 1 or jobs == 0)


def test_usable_cpus_reads_the_affinity_mask(monkeypatch):
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 3, 5})
    assert usable_cpus() == 3
    monkeypatch.delattr("os.sched_getaffinity")
    monkeypatch.setattr("os.cpu_count", lambda: 7)
    assert usable_cpus() == 7


def _same_trees(a, b):
    assert a.base_score == b.base_score and len(a.trees) == len(b.trees)
    for x, y in zip(a.trees, b.trees):
        for field in type(x).__slots__:
            assert getattr(x, field).tobytes() == getattr(y, field).tobytes()


@pytest.mark.parametrize("legs", [(13, 40), (1, 22, 40), (20, 20, 40)])
def test_fit_resumed_in_legs_equals_one_straight_run(legs):
    sim = _sim(seed=3)
    loss = loss_from_config(CLAYTON_LOSS)
    cfg = TrainConfig(rounds=40, learning_rate=0.3, max_depth=3)
    straight = train(sim.data, loss, cfg)
    fit = Boosting(sim.data, loss, cfg)
    for rounds in legs:
        assert fit.grow(rounds) is fit
        assert fit.model.n_rounds == rounds
    _same_trees(fit.model, straight)
    # the carried training prediction is the model's own, bit for bit
    assert fit.pred.tobytes() == straight.predict(sim.data.X).tobytes()


# a small table and a large learning rate: the mean validation c-index
# peaks within the first 20 rounds and falls after
EARLY_PEAK = dict(train=TrainConfig(rounds=120, learning_rate=0.3, max_depth=3),
                  cv=CvConfig(folds=2, max_rounds=120, checkpoint_stride=5, seed=1))


def test_patience_scores_a_prefix_and_keeps_the_best():
    data = _sim(seed=0, n=200).data
    full, full_model = grid_search(data, CLAYTON_LOSS, EARLY_PEAK["train"], EARLY_PEAK["cv"])
    stopped, stopped_model = grid_search(data, CLAYTON_LOSS, EARLY_PEAK["train"], EARLY_PEAK["cv"],
                                         patience=3)
    assert full["best"]["rounds"] == 20
    assert len(full["points"]) == 24
    # best first reached at round 20 (checkpoint 4), stopped 3 checkpoints on
    assert [p["rounds"] for p in stopped["points"]] == [5, 10, 15, 20, 25, 30, 35]
    assert stopped["points"] == full["points"][:7]
    assert stopped["best"] == full["best"]
    assert stopped["checkpoints"] == full["checkpoints"]
    _same_trees(stopped_model, full_model)


def test_patience_search_walks_each_fold_tree_once(monkeypatch):
    # a fit carries its training prediction from leg to leg: no ensemble
    # predict, and each fold tree is walked once, for its validation rows
    calls = {"ensemble": 0, "tree": 0}
    ensemble_predict, tree_predict = TreeEnsemble.predict, RegressionTree.predict

    def counted(key, predict):
        def wrapper(*args):
            calls[key] += 1
            return predict(*args)
        return wrapper

    monkeypatch.setattr(TreeEnsemble, "predict", counted("ensemble", ensemble_predict))
    monkeypatch.setattr(RegressionTree, "predict", counted("tree", tree_predict))
    result, _ = grid_search(_sim(seed=0, n=200).data, CLAYTON_LOSS, EARLY_PEAK["train"],
                            EARLY_PEAK["cv"], patience=3)
    grown = EARLY_PEAK["cv"].folds * result["points"][-1]["rounds"]
    assert (grown, calls) == (70, {"ensemble": 0, "tree": 70})


def test_patience_past_the_schedule_changes_nothing():
    data = _sim(seed=0, n=200).data
    cv = replace(EARLY_PEAK["cv"], max_rounds=30)
    full, _ = grid_search(data, CLAYTON_LOSS, EARLY_PEAK["train"], cv)
    stopped, _ = grid_search(data, CLAYTON_LOSS, EARLY_PEAK["train"], cv, patience=6)
    assert stopped == full


@pytest.mark.parametrize("folds", [2, 3])
def test_worker_count_changes_nothing_with_patience(monkeypatch, folds):
    data = _sim(seed=0, n=200).data
    cv = replace(EARLY_PEAK["cv"], folds=folds, theta_grid=(0.5, 1.5, 3.0))
    serial, serial_model = grid_search(data, CLAYTON_LOSS, EARLY_PEAK["train"], cv, workers=1,
                                       patience=2)
    pooled, pooled_model = grid_search(data, CLAYTON_LOSS, EARLY_PEAK["train"], cv, workers=2,
                                       patience=2)
    assert pooled == serial
    assert len(serial["points"]) < 3 * 24  # the rule stopped some theta early
    assert pooled_model.loss_config == serial_model.loss_config
    _same_trees(pooled_model, serial_model)
    # a fit resumed in a later leg crosses the pool one way each time
    _crossing_one_way(monkeypatch)
    crossed, crossed_model = grid_search(data, CLAYTON_LOSS, EARLY_PEAK["train"], cv, workers=2,
                                         patience=2)
    assert crossed == serial
    _same_trees(crossed_model, serial_model)


@pytest.mark.parametrize("workers", [1, 2])
def test_full_search_scores_every_checkpoint_in_theta_fold_checkpoint_order(monkeypatch, workers):
    # without patience, every fit is scored in this process at every
    # checkpoint, theta by theta, fold by fold, checkpoint by checkpoint
    calls = []
    concordance = tuning.concordance

    def capture(*args):
        calls.append(concordance(*args))
        return calls[-1]

    monkeypatch.setattr(tuning, "concordance", capture)
    thetas, folds = (2.0, 3.0), 2
    cv = CvConfig(folds=folds, max_rounds=30, checkpoint_stride=5, theta_grid=thetas, seed=4)
    result, _ = grid_search(_sim(seed=6, n=200).data, CLAYTON_LOSS,
                            TrainConfig(rounds=30, max_depth=2), cv, workers=workers)
    schedule = result["checkpoints"]
    assert len(calls) == len(thetas) * folds * len(schedule)
    for ti, theta in enumerate(thetas):
        points = [p for p in result["points"] if p["theta"] == theta]
        assert [p["rounds"] for p in points] == schedule
        for fi in range(folds):
            for j, point in enumerate(points):
                assert calls[(ti * folds + fi) * len(schedule) + j] == point["fold_scores"][fi]


@pytest.mark.parametrize("patience", [None, 2])
def test_ties_go_to_the_first_checkpoint_then_the_smaller_theta(monkeypatch, patience):
    # every checkpoint of every theta scores the same: a theta's best is
    # its first checkpoint, and the best point has the fewest rounds, then
    # the smaller theta, whatever order the grid gives
    monkeypatch.setattr(tuning, "concordance", lambda *args: 0.5)
    cv = CvConfig(folds=2, max_rounds=20, checkpoint_stride=5, theta_grid=(3.0, 2.0), seed=1)
    result, model = grid_search(_sim(seed=2, n=120).data, CLAYTON_LOSS,
                                TrainConfig(rounds=20, max_depth=2), cv, patience=patience)
    assert result["best"] == {"theta": 2.0, "rounds": 5, "mean_score": 0.5}
    assert model.n_rounds == 5 and model.loss_config["theta"] == 2.0
    scored = [5, 10, 15, 20] if patience is None else [5, 10, 15]
    for theta in (3.0, 2.0):
        assert [p["rounds"] for p in result["points"] if p["theta"] == theta] == scored
