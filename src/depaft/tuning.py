"""K-fold grid-search cross-validation for the boosted models.

The search maximizes mean validation concordance across folds.  Round
counts are searched by training once per fold to the maximum and scoring
checkpoints along the way; an optional theta grid multiplies the search
for the Clayton loss.  The winning configuration is refit on all data.

Every (theta, fold) fit is independent of the others, so the fits are
mapped over a process pool (depaft.parallel) when the caller grants more
than one worker; the folds, the scoring in theta, fold, checkpoint order
and the refit run in the calling process, so the result and the refit
are the same for any worker count.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import repeat

import numpy as np

from .booster import TrainConfig, TreeEnsemble, train
from .dataset import SurvivalDataset
from .errors import ConfigError, number
from .loss import loss_from_config
from .metrics import concordance
from .parallel import check_workers, task_map


@dataclass(frozen=True)
class CvConfig:
    folds: int = 2
    max_rounds: int = 500
    checkpoint_stride: int = 50
    theta_grid: tuple[float, ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.folds, int) and self.folds >= 2):
            raise ConfigError("folds must be an integer >= 2")
        if not (isinstance(self.max_rounds, int) and self.max_rounds >= 1):
            raise ConfigError("max_rounds must be a positive integer")
        if not (isinstance(self.checkpoint_stride, int) and self.checkpoint_stride >= 1):
            raise ConfigError("checkpoint_stride must be a positive integer")
        if self.theta_grid is not None and len(self.theta_grid) == 0:
            raise ConfigError("theta_grid must be non-empty when given")
        if not (isinstance(self.seed, int) and self.seed >= 0):
            raise ConfigError(f"cv seed must be a non-negative integer, got {self.seed}")

    @classmethod
    def from_dict(cls, d: dict) -> "CvConfig":
        known = {"folds", "max_rounds", "checkpoint_stride", "theta_grid", "seed"}
        extra = set(d) - known
        if extra:
            raise ConfigError(f"unknown cv config fields: {sorted(extra)}")
        kwargs = {
            name: number(value, int, f"cv config field {name!r}")
            for name, value in d.items() if name != "theta_grid"
        }
        grid = d.get("theta_grid")
        if grid is not None:
            if not isinstance(grid, list):
                raise ConfigError(f"cv config field 'theta_grid' must be a list, got {grid!r}")
            kwargs["theta_grid"] = tuple(
                number(x, float, "cv config field 'theta_grid' entry") for x in grid
            )
        return cls(**kwargs)


def checkpoint_schedule(max_rounds: int, stride: int) -> list[int]:
    """Stride multiples up to max_rounds, always including max_rounds."""
    points = list(range(stride, max_rounds + 1, stride))
    if not points or points[-1] != max_rounds:
        points.append(max_rounds)
    return points


def stratified_folds(events, folds: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Seeded k-fold split stratified on the event indicator."""
    events = np.asarray(events)
    n = events.shape[0]
    if folds > n:
        raise ConfigError(f"cannot make {folds} folds from {n} rows")
    shuffled = []
    for cls in (1, 0):
        idx = np.flatnonzero(events == cls).astype(np.int64)
        shuffled.append(idx[rng.permutation(idx.shape[0])])
    # fold f deals every folds-th row of each class, from its f-th on
    out = [np.sort(np.concatenate([idx[f::folds] for idx in shuffled])) for f in range(folds)]
    if any(a.shape[0] == 0 for a in out):
        raise ConfigError("fold larger than data: some fold is empty")
    return out


def _checkpoint_scores(model: TreeEnsemble, val: SurvivalDataset, checkpoints) -> list[float]:
    """Validation c-index at each round checkpoint, one tree pass total."""
    X = np.asfortranarray(val.X)  # one column-major copy serves every tree
    pred = np.full(val.n, model.base_score)
    scores = []
    next_i = 0
    for k, tree in enumerate(model.trees, start=1):
        pred += model.learning_rate * tree.predict(X)
        if next_i < len(checkpoints) and k == checkpoints[next_i]:
            scores.append(concordance(val.times, val.events, np.exp(pred)))
            next_i += 1
    return scores


def grid_search(
    data: SurvivalDataset,
    loss_config: dict,
    train_config: TrainConfig,
    cv: CvConfig,
    workers: int = 1,
) -> tuple[dict, TreeEnsemble]:
    """Run the search and refit the best point on all rows.

    Returns (result, refit_model); result records per-point fold scores.
    Ties break toward fewer rounds, then smaller theta.  The (theta, fold)
    fits run on up to `workers` processes; scoring and the refit run here,
    and the result is the same for any worker count.
    """
    check_workers(workers)
    if cv.theta_grid is not None and loss_config.get("loss") != "clayton":
        raise ConfigError("theta_grid applies only to the clayton loss")
    rng = np.random.default_rng(cv.seed)
    folds = stratified_folds(data.events, cv.folds, rng)
    checkpoints = checkpoint_schedule(cv.max_rounds, cv.checkpoint_stride)
    thetas = list(cv.theta_grid) if cv.theta_grid is not None else [None]
    fold_cfg = replace(train_config, rounds=cv.max_rounds)

    # every loss is built before any fit, so a bad theta forks nothing
    losses = []
    for theta in thetas:
        cfg = dict(loss_config)
        if theta is not None:
            cfg["theta"] = theta
        losses.append(loss_from_config(cfg))
    train_sets = [
        data.subset(np.sort(np.concatenate([f for j, f in enumerate(folds) if j != i])))
        for i in range(cv.folds)
    ]
    fits = [(train_set, loss) for loss in losses for train_set in train_sets]
    with task_map(workers, len(fits)) as fit_map:
        models = list(fit_map(train, *zip(*fits), repeat(fold_cfg)))

    val_sets = [data.subset(val_idx) for val_idx in folds]
    points = []
    best = None  # (key, point_dict)
    for t, theta in enumerate(thetas):
        fold_scores = np.array([
            _checkpoint_scores(models[t * cv.folds + i], val, checkpoints)
            for i, val in enumerate(val_sets)
        ])
        means = fold_scores.mean(axis=0)
        for j, rounds in enumerate(checkpoints):
            point = {
                "theta": theta,
                "rounds": rounds,
                "fold_scores": [float(x) for x in fold_scores[:, j]],
                "mean_score": float(means[j]),
            }
            points.append(point)
            key = (
                -point["mean_score"],
                rounds,
                theta if theta is not None else 0.0,
            )
            if best is None or key < best[0]:
                best = (key, point)

    best_point = best[1]
    refit_cfg = dict(loss_config)
    if best_point["theta"] is not None:
        refit_cfg["theta"] = best_point["theta"]
    refit_train_cfg = replace(train_config, rounds=best_point["rounds"])
    refit = train(data, loss_from_config(refit_cfg), refit_train_cfg)
    result = {
        "folds": cv.folds,
        "checkpoints": checkpoints,
        "selection_metric": "c_index",
        "points": points,
        "best": {
            "theta": best_point["theta"],
            "rounds": best_point["rounds"],
            "mean_score": best_point["mean_score"],
        },
    }
    return result, refit
