"""Metamorphic relations of training and CV (Chen, Cheung & Yiu 1998;
Xie et al. 2011): transformations of the input whose effect on the
output is known bit for bit, so they need no oracle.

Split search depends only on each column's order, on which sorted
neighbours differ (a cut lies between two that do, and only the chosen
cut's midpoint becomes a threshold) and on row-ordered sums of g and h;
ties between features go to the lower feature, and CV ties go to fewer
rounds, then to the smaller theta.
"""
import numpy as np
import pytest

from depaft import BaselineSpec, ClaytonAftLoss, CopulaSpec, DgpConfig, booster, generate
from depaft.booster import TrainConfig, train
from depaft.dataset import SurvivalDataset
from depaft.tuning import CvConfig, grid_search

SIGMA = BaselineSpec("extreme", 1 / 3)
LOSS = ClaytonAftLoss(3.0, SIGMA, SIGMA)
CONFIG = TrainConfig(rounds=15, learning_rate=0.3, max_depth=3)


@pytest.fixture(scope="module")
def data():
    return generate(DgpConfig(n=200, c=1.49, copula=CopulaSpec("clayton", 3.0), seed=12)).data


def _with_X(data, X):
    return SurvivalDataset(data.times, data.events, X)


def _assert_same_trees(a, b, column=None, factor=1.0):
    """The same trees node for node, except that thresholds on `column`
    are multiplied by `factor`."""
    assert len(a.trees) == len(b.trees)
    for ta, tb in zip(a.trees, b.trees):
        assert np.array_equal(ta.feature, tb.feature)
        assert np.array_equal(ta.left, tb.left) and np.array_equal(ta.right, tb.right)
        assert np.array_equal(ta.value, tb.value)
        assert np.array_equal(np.where(ta.feature == column, factor, 1.0) * ta.threshold,
                              tb.threshold)


def _splits_on(model, column):
    return sum(int(np.sum(tree.feature == column)) for tree in model.trees)


@pytest.mark.parametrize("column, k", [(0, 3), (4, -7), (6, 20)])
def test_scaling_a_column_by_a_power_of_two_scales_only_its_thresholds(data, column, k):
    X = data.X.copy()
    X[:, column] *= 2.0 ** k
    base, scaled = train(data, LOSS, CONFIG), train(_with_X(data, X), LOSS, CONFIG)
    assert _splits_on(base, column) > 0
    _assert_same_trees(base, scaled, column, 2.0 ** k)
    assert np.array_equal(base.predict(data.X), scaled.predict(X))


@pytest.mark.parametrize("extra", ["constant", "copy of column 0"])
def test_appending_a_constant_or_duplicate_column_changes_only_n_features(data, extra):
    column = np.full(data.n, 0.5) if extra == "constant" else data.X[:, 0]
    X = np.column_stack([data.X, column])
    base, wider = train(data, LOSS, CONFIG), train(_with_X(data, X), LOSS, CONFIG)
    assert _splits_on(base, 0) > 0
    _assert_same_trees(base, wider)
    assert (wider.base_score, wider.learning_rate, wider.loss_config) == (
        base.base_score, base.learning_rate, base.loss_config)
    assert (base.n_features, wider.n_features) == (data.n_features, data.n_features + 1)
    assert np.array_equal(base.predict(data.X), wider.predict(X))


def test_reordering_the_theta_grid_keeps_the_best_point_and_the_refit(data, tmp_path):
    loss_config = LOSS.to_config()
    train_config = TrainConfig(learning_rate=0.3, max_depth=2)
    runs = []
    for grid in ((1.0, 2.0, 3.0), (3.0, 1.0, 2.0), (2.0, 3.0, 1.0)):
        cv = CvConfig(folds=2, max_rounds=12, checkpoint_stride=3, theta_grid=grid, seed=4)
        result, model = grid_search(data, loss_config, train_config, cv)
        booster.save(model, tmp_path / "model.json")
        runs.append((result["best"], (tmp_path / "model.json").read_bytes()))
    assert runs[1] == runs[0] and runs[2] == runs[0]
