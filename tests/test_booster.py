import hashlib
import json
import re
import tracemalloc

import numpy as np
import pytest

from depaft import BaselineSpec, ClaytonAftLoss, CopulaSpec, DgpConfig, booster, generate
from depaft.booster import (
    RegressionTree,
    TrainConfig,
    TreeEnsemble,
    _best_split,
    load,
    save,
    train,
)
from depaft.dataset import SurvivalDataset
from depaft.errors import ConfigError, DataError, NumericError, PersistenceError

from oracles import (
    ref_best_leaf_weight,
    ref_grow_tree,
    ref_leaf_objective,
    ref_split_gain,
    ref_tree_predict,
)


class SquaredErrorLoss:
    """Test-only loss 1/2 (y - yhat)^2 against log observed time."""

    def loss(self, t, delta, yhat):
        return 0.5 * (np.log(t) - yhat) ** 2

    def grad_hess(self, t, delta, yhat):
        return yhat - np.log(t), np.ones_like(yhat)

    def to_config(self):
        return {"loss": "independent", "event_baseline": {"family": "normal", "sigma": 1.0}}


def _toy_data(n=100, seed=0, p=3):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, p))
    # y = x1 through the log-time channel: time = exp(x1)
    times = np.exp(X[:, 0])
    events = np.ones(n, dtype=int)
    return SurvivalDataset(times, events, X)


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(rounds=0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(max_depth=0)
    with pytest.raises(ConfigError):
        TrainConfig(reg_lambda=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"boosting_rounds": 10})
    cfg = TrainConfig(rounds=7, reg_lambda=2.0)
    assert TrainConfig.from_dict({"rounds": 7, "lambda": 2.0}) == cfg


def test_single_tree_interpolates_grid_feature():
    # 100 points whose first feature takes 50 distinct values; depth 6
    # leaves one leaf per distinct value under squared error
    rng = np.random.default_rng(4)
    x1 = rng.choice(np.linspace(0.1, 1.0, 50), size=100)
    X = np.column_stack([x1, rng.uniform(size=100)])
    data = SurvivalDataset(np.exp(x1), np.ones(100, dtype=int), X)
    cfg = TrainConfig(rounds=1, learning_rate=1.0, max_depth=6, reg_lambda=0.0, gamma=0.0)
    model = train(data, SquaredErrorLoss(), cfg)
    mse = float(np.mean((model.predict(X) - x1) ** 2))
    assert mse < 1e-20


def test_constant_features_yield_single_leaf():
    X = np.ones((40, 3))
    data = SurvivalDataset(np.exp(np.linspace(0, 1, 40)), np.ones(40, dtype=int), X)
    model = train(data, SquaredErrorLoss(), TrainConfig(rounds=3))
    for tree in model.trees:
        assert tree.n_nodes == 1 and np.sum(tree.feature < 0) == 1
    pred = model.predict(X)
    assert np.all(pred == pred[0])
    # prediction is base_score plus the shrunken sum of leaf weights
    expected = model.base_score + model.learning_rate * sum(
        float(t.value[0]) for t in model.trees
    )
    assert pred[0] == pytest.approx(expected, rel=1e-15)


def test_split_gain_matches_bruteforce_objective():
    # the gain reported by the scanner equals the objective drop
    # recomputed from raw statistics, on many small instances
    rng = np.random.default_rng(8)
    for trial in range(50):
        n = int(rng.integers(5, 50))
        X = rng.uniform(size=(n, 2))
        g = rng.normal(size=n)
        h = rng.uniform(0.5, 2.0, size=n)
        lam = float(rng.uniform(0.0, 2.0))
        gamma = float(rng.uniform(0.0, 0.5))
        cfg = TrainConfig(rounds=1, reg_lambda=lam, gamma=gamma)
        order = np.argsort(X.T, axis=1, kind="stable")
        found = _best_split(X, g, h, np.arange(n), order, cfg)
        if found is None:
            continue
        gain, f, thr = found
        brute = ref_split_gain(list(g), list(h), list(X[:, f] < thr), lam, gamma)
        assert gain == pytest.approx(brute, abs=1e-9)
        # and no enumerated split beats it
        for ff in range(2):
            for cut in np.unique(X[:, ff]):
                mask = X[:, ff] < cut
                if not (mask.any() and (~mask).any()):
                    continue
                other = ref_split_gain(list(g), list(h), list(mask), lam, gamma)
                assert other <= gain + 1e-9


class FixedStatsLoss(SquaredErrorLoss):
    """Test-only loss whose gradient and Hessian ignore the prediction."""

    def __init__(self, g, h):
        self.g, self.h = g, h

    def grad_hess(self, t, delta, yhat):
        return self.g.copy(), self.h.copy()


def _assert_oracle_tree(tree, X, g, h, cfg):
    feature, threshold, left, right, value = ref_grow_tree(
        X.tolist(), g.tolist(), h.tolist(), cfg.max_depth, cfg.reg_lambda, cfg.gamma,
        cfg.min_child_weight,
    )
    assert tree.feature.tolist() == feature
    assert tree.threshold.tolist() == threshold
    assert tree.left.tolist() == left and tree.right.tolist() == right
    assert np.allclose(tree.value, value, rtol=0.0, atol=1e-12)


def _fit_one_tree(X, g, h, **cfg):
    n = X.shape[0]
    data = SurvivalDataset(np.ones(n), np.ones(n, dtype=int), X)
    cfg = TrainConfig(rounds=1, base_score=0.0, **cfg)
    return train(data, FixedStatsLoss(g, h), cfg).trees[0], cfg


@pytest.mark.parametrize(
    "lam, gamma, mcw",
    [(1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.75, 0.0), (1.0, 0.0, 6.0), (0.0, 0.5, 4.0)],
)
@pytest.mark.parametrize("dyadic", [True, False])
def test_trees_match_exact_greedy_oracle_on_ties(lam, gamma, mcw, dyadic):
    # integer-valued columns, a constant column and a copy of column 0;
    # dyadic statistics make every sum exact, so distinct cuts tie exactly
    rng = np.random.default_rng(11)
    twin_used = False
    for trial in range(15):
        n = int(rng.integers(5, 80))
        X = rng.integers(0, 4, size=(n, 3)).astype(float)
        X = np.column_stack([X, np.full(n, 7.0), X[:, 0]])
        if dyadic:
            g = rng.integers(-16, 17, size=n) / 8.0
            h = rng.integers(1, 5, size=n) / 2.0
        else:
            g = rng.normal(size=n)
            h = rng.uniform(0.3, 2.0, size=n)
        tree, cfg = _fit_one_tree(X, g, h, max_depth=4, reg_lambda=lam, gamma=gamma,
                                  min_child_weight=mcw)
        _assert_oracle_tree(tree, X, g, h, cfg)
        feature = tree.feature.tolist()
        assert 3 not in feature and 4 not in feature  # constant column; copy loses ties
        twin_used |= 0 in feature
    assert twin_used


@pytest.mark.parametrize("max_depth", [1, 2])
def test_shallow_trees_match_exact_greedy_oracle(max_depth):
    # children at max_depth are leaves, so their order matrices are never
    # partitioned; at depth 1 that is both children of the root
    rng = np.random.default_rng(21)
    for trial in range(12):
        n = int(rng.integers(5, 80))
        X = np.column_stack([rng.integers(0, 5, size=(n, 2)).astype(float), rng.uniform(size=n)])
        g = rng.normal(size=n)
        h = rng.uniform(0.3, 2.0, size=n)
        tree, cfg = _fit_one_tree(X, g, h, max_depth=max_depth, min_child_weight=float(trial % 3))
        _assert_oracle_tree(tree, X, g, h, cfg)
        assert tree.n_nodes <= 2 ** (max_depth + 1) - 1


def test_trees_match_oracle_on_adjacent_doubles():
    # columns of v, nextafter(v) and the double after that: the midpoint
    # of two neighbouring doubles rounds onto one of them, so some cuts
    # collapse onto lo (unusable) and others land on hi (usable)
    rng = np.random.default_rng(23)
    on_hi = 0
    for trial in range(12):
        n = int(rng.integers(8, 60))
        steps = rng.integers(0, 3, size=(n, 3))
        X = rng.choice([0.1, 1.0, 1.0 + 2.0**-52, 2.5, -7.0], size=(n, 3))
        for k in (1, 2):
            X = np.where(steps >= k, np.nextafter(X, np.inf), X)
        g = steps.sum(axis=1) - 3.0 + 0.1 * rng.normal(size=n)
        h = rng.uniform(0.3, 2.0, size=n)
        tree, cfg = _fit_one_tree(X, g, h, max_depth=3)
        _assert_oracle_tree(tree, X, g, h, cfg)
        on_hi += sum(thr in X[:, f] for f, thr in zip(tree.feature, tree.threshold) if f >= 0)
    assert on_hi > 0


def test_huge_valued_columns_never_split_at_inf(tmp_path):
    # past ~9e307, lo + hi overflows and the midpoint is inf; such a cut
    # must be unusable, not a threshold that sends every row left.  Column
    # 2 separates the same rows with values of both signs, whose midpoint
    # is 0.0, and column 0's lower index no longer wins the tie.
    rng = np.random.default_rng(31)
    n = 40
    up = rng.uniform(size=n) < 0.5
    big = np.where(up, 1.7e308, 1.6e308)
    X = np.column_stack([big, -big, np.where(up, 1.7e308, -1.7e308), rng.uniform(size=n)])
    g = np.where(up, 1.0, -1.0) + 0.1 * rng.normal(size=n)
    h = np.ones(n)
    tree, cfg = _fit_one_tree(X, g, h, max_depth=3)
    _assert_oracle_tree(tree, X, g, h, cfg)
    assert (tree.feature[0], tree.threshold[0]) == (2, 0.0)
    assert not {0, 1} & set(tree.feature.tolist())
    assert np.all(np.isfinite(tree.threshold))
    leaves = np.flatnonzero(tree.feature < 0)
    assert set(np.unique(tree.predict(X))) == set(tree.value[leaves])
    model = TreeEnsemble(0.0, 0.1, 4, SquaredErrorLoss().to_config(), [tree])
    save(model, tmp_path / "m.json")  # refuses non-finite numbers
    assert load(tmp_path / "m.json").trees[0].threshold.tolist() == tree.threshold.tolist()


def test_carried_arrays_give_the_splits_derived_ones_give(monkeypatch):
    # every node of a real fit: _best_split on the values, cuts and packed
    # statistics the grower carries returns the tuple it returns when it
    # derives them itself
    calls = []
    best_split = booster._best_split

    def spy(X, g, h, rows, order, cfg, **carried):
        assert set(carried) == {"gh", "xs", "cuts", "scratch"}
        assert np.array_equal(carried["xs"], np.take_along_axis(X.T, order, axis=1))
        got = best_split(X, g, h, rows, order, cfg, **carried)
        calls.append((repr(got), repr(best_split(X, g, h, rows, order, cfg))))
        return got

    monkeypatch.setattr(booster, "_best_split", spy)
    sim = generate(DgpConfig(n=300, c=1.49, copula=CopulaSpec("clayton", 3.0), seed=5))
    loss = ClaytonAftLoss(3.0, BaselineSpec("extreme", 1 / 3), BaselineSpec("extreme", 1 / 3))
    train(sim.data, loss, TrainConfig(rounds=6, max_depth=4, min_child_weight=2.0, gamma=0.01))
    assert len(calls) > 40
    assert all(got == derived for got, derived in calls)


def test_tree_growth_allocates_only_split_positions_of_node_size():
    # a fit's node work runs in its _Scratch; of node size, a split
    # allocates only the flat positions it partitions by (8 bytes per
    # entry of the node's (p, m) order matrix), and the rest is per-row
    n, p = 4000, 10
    rng = np.random.default_rng(8)
    X = rng.normal(size=(n, p))
    g, h = rng.normal(size=n), rng.uniform(0.5, 1.5, size=n)
    cfg = TrainConfig(max_depth=4)
    order = np.argsort(X.T, axis=1, kind="stable")
    xs = np.take_along_axis(X.T, order, axis=1)
    cuts = booster._cuts(xs)
    scratch = booster._Scratch(p, n, cfg.max_depth - 1)
    tracemalloc.start()
    try:
        tree, _ = booster._grow_tree(X, g, h, order, xs, cuts, scratch, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.n_nodes == 31
    assert peak <= 8 * p * n + 80 * n


def test_leaf_weight_optimality():
    rng = np.random.default_rng(3)
    data = _toy_data(60, seed=3)
    cfg = TrainConfig(rounds=2, learning_rate=1.0, max_depth=3, reg_lambda=1.3)
    model = train(data, SquaredErrorLoss(), cfg)
    # perturbing any leaf weight cannot lower the penalized objective of
    # its own rows; reconstruct per-leaf statistics from round 0
    g, h = SquaredErrorLoss().grad_hess(data.times, data.events, np.full(data.n, model.base_score))
    tree = model.trees[0]
    idx = np.zeros(data.n, dtype=np.int64)
    while np.any(tree.feature[idx] >= 0):
        feat = np.where(tree.feature[idx] < 0, 0, tree.feature[idx])
        go = data.X[np.arange(data.n), feat] < tree.threshold[idx]
        idx = np.where(tree.feature[idx] < 0, idx, np.where(go, tree.left[idx], tree.right[idx]))
    for leaf in np.unique(idx):
        rows = idx == leaf
        w = tree.value[leaf]
        assert w == pytest.approx(ref_best_leaf_weight(g[rows], h[rows], 1.3), rel=1e-12, abs=1e-12)
        base = ref_leaf_objective(g[rows], h[rows], w, 1.3)
        for eps in (-1e-3, 1e-3):
            assert ref_leaf_objective(g[rows], h[rows], w + eps, 1.3) >= base


def test_depth_and_child_weight_constraints():
    sim = generate(DgpConfig(n=300, c=1.49, copula=CopulaSpec("clayton", 3.0), seed=5))
    loss = ClaytonAftLoss(3.0, BaselineSpec("extreme", 1 / 3), BaselineSpec("extreme", 1 / 3))
    cfg = TrainConfig(rounds=10, max_depth=4, min_child_weight=3.0)
    model = train(sim.data, loss, cfg)

    def depth(tree, node=0):
        if tree.feature[node] < 0:
            return 0
        return 1 + max(depth(tree, tree.left[node]), depth(tree, tree.right[node]))

    for tree in model.trees:
        assert depth(tree) <= 4

    # audit the Hessian-mass constraint on the first tree, whose growth
    # statistics are reproducible from the base score
    g, h = loss.grad_hess(
        sim.data.times, sim.data.events, np.full(sim.data.n, model.base_score)
    )
    tree = model.trees[0]

    def audit(node, rows):
        if tree.feature[node] < 0:
            return
        go = sim.data.X[rows, tree.feature[node]] < tree.threshold[node]
        left_rows, right_rows = rows[go], rows[~go]
        assert h[left_rows].sum() >= 3.0 - 1e-9
        assert h[right_rows].sum() >= 3.0 - 1e-9
        audit(tree.left[node], left_rows)
        audit(tree.right[node], right_rows)

    audit(0, np.arange(sim.data.n))


def test_training_loss_non_increasing_on_study_data():
    sim = generate(DgpConfig(n=1000, c=1.49, copula=CopulaSpec("clayton", 3.0), seed=29))
    loss = ClaytonAftLoss(3.0, BaselineSpec("extreme", 1 / 3), BaselineSpec("extreme", 1 / 3))
    model = train(sim.data, loss, TrainConfig(rounds=60, learning_rate=0.1, max_depth=3))
    data = sim.data
    hist = np.array([
        np.mean(loss.loss(data.times, data.events, model.predict(data.X, num_trees=k)))
        for k in range(1, model.n_rounds + 1)
    ])
    assert np.all(np.diff(hist) <= 1e-12)


def test_empty_tree_list_predicts_base_score():
    model = TreeEnsemble(base_score=1.5, learning_rate=0.1, n_features=2, loss_config={})
    X = np.zeros((4, 2))
    assert np.all(model.predict(X) == 1.5)
    assert np.all(model.predict_time(X) == np.exp(1.5))


def test_predict_time_is_exp_and_monotone():
    data = _toy_data(50, seed=1)
    model = train(data, SquaredErrorLoss(), TrainConfig(rounds=5))
    log_pred = model.predict(data.X)
    assert np.allclose(model.predict_time(data.X), np.exp(log_pred), rtol=1e-15)
    order = np.argsort(log_pred)
    assert np.all(np.diff(model.predict_time(data.X)[order]) >= 0.0)


def test_predict_feature_mismatch():
    data = _toy_data(30)
    model = train(data, SquaredErrorLoss(), TrainConfig(rounds=1))
    with pytest.raises(DataError):
        model.predict(np.zeros((5, 7)))


def test_nonfinite_gradient_aborts_with_location():
    class BadLoss(SquaredErrorLoss):
        def grad_hess(self, t, delta, yhat):
            g = yhat - np.log(t)
            g[3] = np.nan
            return g, np.ones_like(yhat)

    with pytest.raises(NumericError, match=r"round 0, row 3"):
        train(_toy_data(10), BadLoss(), TrainConfig(rounds=1))


def test_loss_numeric_error_names_the_round():
    class FailsInRoundTwo(SquaredErrorLoss):
        calls = 0

        def grad_hess(self, t, delta, yhat):
            self.calls += 1
            if self.calls == 3:
                raise NumericError("non-finite loss value or derivative")
            return super().grad_hess(t, delta, yhat)

    with pytest.raises(NumericError, match=r"^round 2: non-finite loss value or derivative$"):
        train(_toy_data(20), FailsInRoundTwo(), TrainConfig(rounds=4))


def test_save_load_round_trip(tmp_path):
    sim = generate(DgpConfig(n=200, c=1.49, copula=CopulaSpec("clayton", 3.0), seed=2))
    loss = ClaytonAftLoss(3.0, BaselineSpec("extreme", 1 / 3), BaselineSpec("extreme", 1 / 3))
    model = train(sim.data, loss, TrainConfig(rounds=8, max_depth=3))
    path = tmp_path / "model.json"
    save(model, path)
    back = load(path)
    assert np.array_equal(back.predict(sim.data.X), model.predict(sim.data.X))
    # bytes are reproducible
    path2 = tmp_path / "model2.json"
    save(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_save_refuses_non_finite_leaf(tmp_path):
    model = train(_toy_data(30), SquaredErrorLoss(), TrainConfig(rounds=2))
    model.trees[1].value[-1] = np.nan
    path = tmp_path / "m.json"
    with pytest.raises(NumericError, match="non-finite"):
        save(model, path)
    assert not path.exists()


def test_load_reads_17_digit_floats(tmp_path):
    # earlier versions wrote every float at 17 significant digits, not repr
    model = train(_toy_data(60), SquaredErrorLoss(), TrainConfig(rounds=3, max_depth=3))
    path = tmp_path / "m.json"
    save(model, path)
    old = tmp_path / "old.json"
    old.write_text(re.sub(
        r"-?\d+(\.\d+)?e[-+]?\d+|-?\d+\.\d+",
        lambda m: format(float(m.group()), ".17g"),
        path.read_text(),
    ))
    assert old.read_bytes() != path.read_bytes()
    back = load(old)
    assert back.base_score == model.base_score
    assert back.learning_rate == model.learning_rate
    for a, b in zip(back.trees, model.trees):
        for name in ("feature", "threshold", "left", "right", "value"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_training_determinism_bytes(tmp_path):
    sim = generate(DgpConfig(n=150, c=1.2, copula=CopulaSpec("frank", 7.5), seed=3))
    loss = ClaytonAftLoss(2.8, BaselineSpec("extreme", 1 / 3), BaselineSpec("extreme", 1 / 3))
    cfg = TrainConfig(rounds=5, max_depth=3)
    for i in range(2):
        save(train(sim.data, loss, cfg), tmp_path / f"m{i}.json")
    assert (tmp_path / "m0.json").read_bytes() == (tmp_path / "m1.json").read_bytes()


# SHA-256 of model.json for a 4000-row Clayton fit, recorded before split
# search carried sorted values and a per-fit root cut table; its nodes are
# ten times larger than those of the CLI pins.
LARGE_FIT_SHA256 = "a5cb693ee4a68c7b690cade27dcc545671dc8cbb48ee50062583f5a44bd45c6f"


def test_large_fit_model_bytes_are_pinned(tmp_path):
    sim = generate(DgpConfig(n=4000, c=1.49, copula=CopulaSpec("clayton", 3.0), seed=41))
    loss = ClaytonAftLoss(3.0, BaselineSpec("extreme", 1 / 3), BaselineSpec("extreme", 1 / 3))
    save(train(sim.data, loss, TrainConfig(rounds=20, max_depth=3)), tmp_path / "model.json")
    assert hashlib.sha256((tmp_path / "model.json").read_bytes()).hexdigest() == LARGE_FIT_SHA256


def test_load_rejects_unknown_loss(tmp_path):
    path = tmp_path / "m.json"
    doc = {
        "format_version": 1,
        "base_score": 0.0,
        "learning_rate": 0.1,
        "n_features": 2,
        "loss": {"loss": "coxph"},
        "trees": [],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(PersistenceError, match="unknown loss"):
        load(path)


def _split(i, left, right):
    return {"id": i, "split_feature": 0, "threshold": 0.5, "left": left, "right": right,
            "default_direction": "left"}


def _leaf(i):
    return {"id": i, "weight": 0.25}


@pytest.mark.parametrize(
    "nodes, match",
    [
        ([_split(0, 0, 0)], "child ids"),  # self-loop: predict would never halt
        ([_split(0, 1, 2), _split(1, 0, 2), _leaf(2)], "child ids"),  # back edge
        ([_split(0, 1, 2), _leaf(1), _leaf(1)], "ids must be"),  # id 1 twice
        ([_split(0, 1, 3), _leaf(1), _leaf(3)], "ids must be"),  # id 2 missing
        ([_split(0, 1, 1), _leaf(1), _leaf(2)], "two parents"),
        ([_split(0, 1, 2), _split(1, 2, 3), _leaf(2), _leaf(3)], "two parents"),
        ([], "no nodes"),
        # predict indexes X by split feature, so it must be a column of the model
        ([{**_split(0, 1, 2), "split_feature": 1}, _leaf(1), _leaf(2)], "split_feature"),
        ([{**_split(0, 1, 2), "split_feature": -1}, _leaf(1), _leaf(2)], "split_feature"),
    ],
)
def test_load_rejects_malformed_tree(tmp_path, nodes, match):
    path = tmp_path / "m.json"
    doc = {
        "format_version": 1,
        "base_score": 0.0,
        "learning_rate": 0.1,
        "n_features": 1,
        "loss": SquaredErrorLoss().to_config(),
        "trees": [{"nodes": nodes}],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(PersistenceError, match=match):
        load(path)


def _valid_model_doc():
    return {
        "format_version": 1,
        "base_score": 0.0,
        "learning_rate": 0.1,
        "n_features": 1,
        "loss": SquaredErrorLoss().to_config(),
        "trees": [{"nodes": [_split(0, 1, 2), _leaf(1), _leaf(2)]}],
    }


def _set_left(doc, value):
    doc["trees"][0]["nodes"][0]["left"] = value


def _set_weight(doc, value):
    doc["trees"][0]["nodes"][1]["weight"] = value


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda doc: _set_left(doc, "x"), "node 0: field 'left'"),
        (lambda doc: _set_left(doc, None), "node 0: field 'left'"),
        (lambda doc: _set_weight(doc, "abc"), "leaf 1: field 'weight'"),
        (lambda doc: _set_weight(doc, [1.0]), "leaf 1: field 'weight'"),
        (lambda doc: doc["trees"][0].pop("nodes"), "'nodes'"),
        (lambda doc: doc["trees"].__setitem__(0, 5), "tree 0"),
        (lambda doc: doc["trees"][0].__setitem__("nodes", 5), "'nodes'"),
        (lambda doc: doc["trees"][0]["nodes"].__setitem__(2, 5), "node"),
        (lambda doc: doc.__setitem__("trees", 5), "'trees'"),
        (lambda doc: doc.__setitem__("base_score", "foo"), "'base_score'"),
        (lambda doc: doc.__setitem__("base_score", float("nan")), "'base_score'"),
        (lambda doc: doc.__setitem__("learning_rate", "foo"), "'learning_rate'"),
        (lambda doc: doc.__setitem__("learning_rate", None), "'learning_rate'"),
        (lambda doc: doc.__setitem__("n_features", "foo"), "'n_features'"),
        (lambda doc: doc.__setitem__("n_features", [1]), "'n_features'"),
        (lambda doc: doc.__setitem__("n_features", 1.5), "'n_features'"),
        (lambda doc: _set_left(doc, 1.5), "node 0: field 'left'"),
        (lambda doc: _set_left(doc, "1"), "node 0: field 'left'"),
        (lambda doc: _set_left(doc, 10**30), "node 0: field 'left'"),
        (lambda doc: _set_weight(doc, "0.25"), "leaf 1: field 'weight'"),
    ],
    ids=[
        "left-str", "left-null", "weight-str", "weight-list", "tree-without-nodes",
        "tree-not-object", "nodes-not-list", "node-not-object", "trees-not-list",
        "base-score-str", "base-score-nan", "learning-rate-str", "learning-rate-null",
        "n-features-str", "n-features-list", "n-features-fraction", "left-fraction",
        "left-numeric-str", "left-huge", "weight-numeric-str",
    ],
)
def test_load_rejects_malformed_field_values(tmp_path, mutate, match):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(_valid_model_doc()))
    assert load(path).n_rounds == 1
    doc = _valid_model_doc()
    mutate(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(PersistenceError, match=match):
        load(path)


def test_load_missing_file_is_persistence_error(tmp_path):
    with pytest.raises(PersistenceError, match="cannot read model file"):
        load(tmp_path / "absent.json")


def test_load_rejects_bad_version(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"format_version": 99}))
    with pytest.raises(PersistenceError, match="format_version"):
        load(path)


def test_load_rejects_truncated_file(tmp_path):
    data = _toy_data(30)
    model = train(data, SquaredErrorLoss(), TrainConfig(rounds=2))
    path = tmp_path / "m.json"
    save(model, path)
    clipped = tmp_path / "clipped.json"
    clipped.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    with pytest.raises(PersistenceError, match="malformed"):
        load(clipped)


def test_model_file_schema(tmp_path):
    data = _toy_data(30)
    model = train(data, SquaredErrorLoss(), TrainConfig(rounds=2, max_depth=2))
    path = tmp_path / "m.json"
    save(model, path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 1
    assert set(doc) == {
        "format_version", "base_score", "learning_rate", "n_features", "loss", "trees",
    }
    for tree in doc["trees"]:
        for node in tree["nodes"]:
            if "weight" in node:
                assert set(node) == {"id", "weight"}
            else:
                assert set(node) == {
                    "id", "split_feature", "threshold", "left", "right", "default_direction",
                }
                assert node["default_direction"] == "left"


@pytest.mark.parametrize("field, value", [
    ("learning_rate", "0.1"), ("rounds", "10"), ("rounds", 10.5), ("max_depth", None),
    ("lambda", "1"), ("gamma", [0.0]), ("min_child_weight", "x"), ("base_score", "zero"),
    ("seed", "1"),
])
def test_train_config_rejects_non_numeric_fields(field, value):
    with pytest.raises(ConfigError, match=field):
        TrainConfig.from_dict({field: value})


# Hand-built trees as (feature, threshold, left, right, value); a leaf has
# feature -1.  Child ids always exceed their parent's, as load() demands.
HAND_TREES = {
    "single-leaf": ([-1], [0.0], [-1], [-1], [0.75]),
    # left spine of depth 3 with leaves hanging off each split
    "unbalanced": (
        [0, 1, 2, -1, -1, -1, -1],
        [0.5, 0.25, 0.75, 0.0, 0.0, 0.0, 0.0],
        [1, 2, 3, -1, -1, -1, -1],
        [6, 5, 4, -1, -1, -1, -1],
        [0.0, 0.0, 0.0, -1.5, 2.0, 0.125, 3.0],
    ),
    # breadth-first ids instead of the grower's depth-first ones
    "breadth-first": (
        [1, 0, 2, -1, -1, -1, -1],
        [0.5, 0.25, 0.5, 0.0, 0.0, 0.0, 0.0],
        [1, 3, 5, -1, -1, -1, -1],
        [2, 4, 6, -1, -1, -1, -1],
        [0.0, 0.0, 0.0, 1.0, -2.0, 0.5, -0.25],
    ),
    # node 3 has no parent; load() accepts it and no row may reach it
    "orphan": ([2, -1, -1, -1], [0.5, 0.0, 0.0, 0.0], [1, -1, -1, -1], [2, -1, -1, -1],
               [0.0, 1.0, 2.0, 99.0]),
}


def _rows_with_ties(n, seed, thresholds=(0.25, 0.5, 0.75)):
    """Uniform rows in which about a third of the cells sit exactly on a
    threshold."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, 3))
    on = rng.uniform(size=X.shape) < 0.35
    X[on] = rng.choice(thresholds, size=int(on.sum()))
    return X


@pytest.mark.parametrize("name", sorted(HAND_TREES))
@pytest.mark.parametrize("order", ["C", "F"])
def test_tree_predict_matches_row_walk(name, order):
    nodes = HAND_TREES[name]
    tree = RegressionTree(*nodes)
    for n in (0, 1, 7, 500):
        X = np.asarray(_rows_with_ties(n, n), order=order)
        out = tree.predict(X)
        assert out.shape == (n,) and out.dtype == float
        assert out.tolist() == ref_tree_predict(*nodes, X.tolist())


def test_rows_at_threshold_go_right():
    tree = RegressionTree([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.0, -1.0, 1.0])
    X = np.array([[0.5], [np.nextafter(0.5, 0.0)], [np.nextafter(0.5, 1.0)]])
    assert tree.predict(X).tolist() == [1.0, -1.0, 1.0]


def test_trained_trees_match_row_walk():
    data = _toy_data(n=300, seed=11)
    model = train(data, SquaredErrorLoss(), TrainConfig(rounds=25, max_depth=4))
    thresholds = [t for tree in model.trees for t, f in zip(tree.threshold, tree.feature) if f >= 0]
    X = _rows_with_ties(400, 12, thresholds=thresholds)
    for tree in model.trees:
        nodes = (tree.feature.tolist(), tree.threshold.tolist(), tree.left.tolist(),
                 tree.right.tolist(), tree.value.tolist())
        assert tree.predict(X).tolist() == ref_tree_predict(*nodes, X.tolist())


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [0, 1, 333])
def test_ensemble_predict_matches_row_walk(order, n):
    data = _toy_data(n=300, seed=13)
    model = train(data, SquaredErrorLoss(), TrainConfig(rounds=30, max_depth=3))
    model.trees.append(RegressionTree(*HAND_TREES["unbalanced"]))
    model.trees.append(RegressionTree(*HAND_TREES["single-leaf"]))
    X = np.asarray(_rows_with_ties(n, 14), order=order)
    for k in (0, 1, 17, len(model.trees)):
        expect = np.full(n, model.base_score)
        for tree in model.trees[:k]:
            nodes = (tree.feature.tolist(), tree.threshold.tolist(), tree.left.tolist(),
                     tree.right.tolist(), tree.value.tolist())
            expect += model.learning_rate * np.array(ref_tree_predict(*nodes, X.tolist()), dtype=float)
        assert model.predict(X, num_trees=k).tolist() == expect.tolist()
    assert model.predict(X).tolist() == model.predict(X, num_trees=len(model.trees)).tolist()
