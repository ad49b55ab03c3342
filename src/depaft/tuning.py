"""K-fold grid-search cross-validation for the boosted models.

The search maximizes mean validation concordance across folds.  Round
counts are searched by scoring checkpoints (every checkpoint_stride
rounds) along each fold fit; an optional theta grid multiplies the
search for the Clayton loss, each theta's loss the config's own with
that theta.  The winning configuration is refit on all data.

With patience P, grid_search's argument (no config file or flag sets
it; the studies pass studies.STUDY_PATIENCE), a theta stops growing once
its best mean score was first reached P or more checkpoints ago (early
stopping on a validation curve, Prechelt 1998).  Boosting is
sequential, so a fit stopped at R rounds holds exactly the first R trees
of the full fit: the stopped search scores a prefix of the full search's
checkpoints.  Each (theta, fold) fit is one booster.Boosting, built up
front and grown in legs, each to the first checkpoint at which the rule
could stop its theta; a fit carries its training prediction from leg to
leg, so no training row is predicted twice.  Without patience there is
one leg, to max_rounds.

Every (theta, fold) fit of a leg is independent of the others, so the
legs are mapped over a process pool (depaft.parallel) when the caller
grants more than one worker.  A fit crosses the pool one way: a job
sends the fit, with its training rows, bound loss and config, and
returns only what the leg made, the trees it added and the new training
prediction, which the caller's own fit takes in place.  The folds, the
scoring in theta, fold, checkpoint order and the refit run in the
calling process, so the result and the refit are the same for any worker
count.  Each fit is scored as soon as the map returns its leg, while the
pool still grows the fits after it.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .booster import Boosting, TrainConfig, TreeEnsemble, train
from .dataset import SurvivalDataset
from .errors import AT_LEAST, ConfigError, Record, number
from .loss import ClaytonAftLoss, loss_from_config
from .metrics import concordance
from .parallel import positive_count, task_map

# the most checkpoints a search takes: checkpoint_schedule lists them all
# before any fit, and 10^7 of them would hold 400 MB
MAX_CHECKPOINTS = 1_000_000


@dataclass(frozen=True)
class CvConfig(Record):
    what = "cv config"

    folds: int = field(default=2, metadata={AT_LEAST: 2})
    max_rounds: int = field(default=500, metadata={AT_LEAST: 1})
    checkpoint_stride: int = field(default=50, metadata={AT_LEAST: 1})
    theta_grid: tuple[float, ...] | None = None  # a list in config files
    seed: int = field(default=0, metadata={AT_LEAST: 0})

    def __post_init__(self):
        super().__post_init__()
        checkpoints = -(-self.max_rounds // self.checkpoint_stride)  # exact ceil
        if checkpoints > MAX_CHECKPOINTS:
            raise ConfigError(f"cv config fields 'max_rounds' / 'checkpoint_stride' must give "
                              f"at most {MAX_CHECKPOINTS} checkpoints, got {checkpoints}")
        grid = self.theta_grid
        if grid is None:
            return
        if not isinstance(grid, (list, tuple)):
            raise ConfigError(f"cv config field 'theta_grid' must be a list, got {grid!r}")
        if len(grid) == 0:
            raise ConfigError("theta_grid must be non-empty when given")
        grid = tuple(number(x, float, "cv config field 'theta_grid' entry") for x in grid)
        object.__setattr__(self, "theta_grid", grid)


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


def _checkpoint_scores(model: TreeEnsemble, val: SurvivalDataset, pred, start: int,
                       checkpoints) -> list[float]:
    """Validation c-index at each of `checkpoints`, a run of round counts
    above `start`.  pred is the running validation prediction of the
    model's first `start` trees; each later tree is added to it once."""
    X = np.asfortranarray(val.X)  # one column-major copy serves every tree
    scores = []
    for stop in checkpoints:
        for tree in model.trees[start:stop]:
            pred += model.learning_rate * tree.predict(X)
        start = stop
        scores.append(concordance(val.times, val.events, np.exp(pred)))
    return scores


def _grow_leg(fit: Boosting, rounds: int):
    """Grow fit to `rounds`; return (the trees the leg added, the training
    prediction), the part of a fit that a pool process makes."""
    start = fit.model.n_rounds
    fit.grow(rounds)
    return fit.model.trees[start:], fit.pred


def grid_search(
    data: SurvivalDataset,
    loss_config: dict,
    train_config: TrainConfig,
    cv: CvConfig,
    workers: int = 1,
    patience: int | None = None,
) -> tuple[dict, TreeEnsemble]:
    """Run the search and refit the best point on all rows.

    Returns (result, refit_model); result records per-point fold scores
    for every checkpoint that was scored.  Ties break toward fewer
    rounds, then smaller theta.  The (theta, fold) fits run on up to
    `workers` processes; scoring and the refit run here, and the result
    is the same for any worker count.  patience (checkpoints) is the
    stop rule of the module docstring; None grows every fit to max_rounds.
    """
    workers = positive_count(workers, "workers")
    checkpoints = checkpoint_schedule(cv.max_rounds, cv.checkpoint_stride)
    # no patience is one the schedule cannot reach: every fit grows to max_rounds
    patience = len(checkpoints) if patience is None else positive_count(patience, "patience")
    loss = loss_from_config(loss_config)
    if cv.theta_grid is not None and not isinstance(loss, ClaytonAftLoss):
        raise ConfigError("theta_grid applies only to the clayton loss")
    rng = np.random.default_rng(cv.seed)
    folds = stratified_folds(data.events, cv.folds, rng)
    last = len(checkpoints) - 1
    thetas = list(cv.theta_grid) if cv.theta_grid is not None else [None]

    # every loss is built before any fit, so a bad theta forks nothing
    losses = [loss if theta is None else replace(loss, theta=theta) for theta in thetas]
    train_sets = [
        data.subset(np.sort(np.concatenate([f for j, f in enumerate(folds) if j != i])))
        for i in range(cv.folds)
    ]
    val_sets = [data.subset(val_idx) for val_idx in folds]

    # per theta and fold: the fit, its running validation prediction and
    # its scores at the checkpoints scored so far; per theta, the mean
    # over folds at each of those checkpoints (the axis-0 mean: a mean per
    # checkpoint would add the folds in another order once there are 8 or
    # more), and the checkpoint at which it first reached its best
    fits = [[Boosting(train_set, loss, train_config) for train_set in train_sets] for loss in losses]
    preds = [[np.full(val.n, fit.model.base_score) for fit, val in zip(row, val_sets)] for row in fits]
    scores = [[[] for _ in range(cv.folds)] for _ in thetas]
    means = [None] * len(thetas)
    best_at = [0] * len(thetas)
    live = list(range(len(thetas)))
    with task_map(workers, len(thetas) * cv.folds) as fit_map:
        while live:
            # one leg: every live fit grows to the first checkpoint at
            # which the stop rule could end its theta
            ends = {t: min(best_at[t] + patience, last) for t in live}
            jobs = [(fits[t][i], checkpoints[ends[t]]) for t in live for i in range(cv.folds)]
            # scored as they come: theta 1's folds while later fits still grow
            grown = fit_map(_grow_leg, *zip(*jobs))
            for t in live:
                done = len(scores[t][0])
                leg = checkpoints[done:ends[t] + 1]
                start = checkpoints[done - 1] if done else 0
                for i, val in enumerate(val_sets):
                    # in this process the fit grew in place, and this
                    # changes nothing; from a pool, the fit takes its leg
                    fit = fits[t][i]
                    trees, fit.pred = next(grown)
                    fit.model.trees[start:] = trees
                    scores[t][i] += _checkpoint_scores(fit.model, val, preds[t][i], start, leg)
                means[t] = np.array(scores[t]).mean(axis=0)
                # argmax keeps the first checkpoint that reaches the best
                best_at[t] = int(means[t].argmax())
            # a theta stops at max_rounds, or once its best is a whole
            # patience of checkpoints old
            live = [t for t in live if ends[t] < last and ends[t] - best_at[t] < patience]

    points = []
    for theta, per_fold, mean in zip(thetas, map(np.array, scores), means):
        points += [{"theta": theta, "rounds": rounds,
                    "fold_scores": [float(x) for x in per_fold[:, j]],
                    "mean_score": float(mean[j])}
                   for j, rounds in enumerate(checkpoints[:len(mean)])]
    # min keeps the first of equal keys
    best = min(points, key=lambda p: (-p["mean_score"], p["rounds"], p["theta"] or 0.0))
    refit = train(data, losses[thetas.index(best["theta"])],
                  replace(train_config, rounds=best["rounds"]))
    result = {
        "folds": cv.folds,
        "checkpoints": checkpoints,
        "selection_metric": "c_index",
        "points": points,
        "best": {key: best[key] for key in ("theta", "rounds", "mean_score")},
    }
    return result, refit
