"""Runners for the three simulation studies.

Each study sweeps one axis of the data-generating process and, per grid
point and repetition, simulates a train/test pair, fits the
copula-linked model ("clayton") and the independence-assuming comparator
("independent") with 2-fold round selection, and evaluates both on the
test set.  Study axes:

* study 1: dependence strength theta at ~50% censoring (c = 1.49)
* study 2: censoring level via c at theta = 3
* study 3: four dependence structures with matched rank correlation at
  c = 1.2: Kendall tau 0.6 between T and C for the three dependent ones.
  The Clayton loss gets each table's residual_clayton_theta (below),
  not the Clayton(3) that shares that tau.

The Clayton model's loss gets the training table's
residual_clayton_theta: the Clayton parameter matching the Kendall tau
between the event noise T / h(X) and C.  The loss couples the
standardised errors given X, and that pair is less dependent than (T, C)
itself (tau ~0.41 against 0.60 for Clayton(3)); handed the copula's own
theta, the loss reads censored rows as early events and its predictions
drift low as censoring grows.

Results are flushed per repetition (one JSON per task under partial/,
with the config it ran under), so interrupted runs resume, and the final
CSVs are written sorted so output bytes do not depend on worker count.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .booster import TrainConfig
from .copula import CopulaSpec
from .dataset import write_rows
from .errors import (AT_LEAST, AT_MOST, ConfigError, DataError, Record, number, read_json,
                     writing)
from .loss import ClaytonAftLoss, IndependentAftLoss
from .metrics import MAX_HORIZONS, evaluate_predictions
from .parallel import check_workers, task_map
from .simulate import DgpConfig, generate
from .tuning import CvConfig, grid_search

STUDY1_THETAS = (1e-10, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
STUDY1_C = 1.49
STUDY2_CS = (0.89, 1.2, 1.49, 2.06)
STUDY2_THETA = 3.0
STUDY3_C = 1.2
STUDY3_COPULAS = (
    CopulaSpec("clayton", 3.0),
    CopulaSpec("gumbel", 2.5),
    CopulaSpec("frank", 7.5),
    CopulaSpec("independent"),
)

MODELS = ("clayton", "independent")

# CV stop rule of every study's round selection, in checkpoints: the
# shortest patience that changes no outcome an acceptance criterion reads
# at study seeds 29, 31 and 47 (the README has the measurement)
STUDY_PATIENCE = 6

# _task_seeds gives each study seed a block of TASK_SEEDS task seeds,
# each grid point GRID_SEEDS of them and each repetition two, so no two
# tasks share a seed while repetitions stay within MAX_REPETITIONS; the
# largest study seed keeps every task seed within an int64
TASK_SEEDS = 1_000_000
GRID_SEEDS = 1_000
MAX_REPETITIONS = GRID_SEEDS // 2
MAX_SEED = (2**63 - 1) // TASK_SEEDS - 1


@dataclass(frozen=True)
class StudyConfig(Record):
    what = "study config"

    study: int
    repetitions: int = field(default=20, metadata={AT_LEAST: 1, AT_MOST: MAX_REPETITIONS})
    n_train: int = field(default=1000, metadata={AT_LEAST: 2})
    n_test: int = field(default=1000, metadata={AT_LEAST: 2})
    seed: int = field(default=29, metadata={AT_LEAST: 0, AT_MOST: MAX_SEED})
    max_rounds: int = 400
    checkpoint_stride: int = 25
    learning_rate: float = 0.1
    max_depth: int = 3
    min_child_weight: float = 1.0
    reg_lambda: float = 1.0  # "lambda" in config files
    gamma: float = 0.0
    n_horizons: int = field(default=9, metadata={AT_LEAST: 2, AT_MOST: MAX_HORIZONS})

    def __post_init__(self):
        super().__post_init__()
        if self.study not in (1, 2, 3):
            raise ConfigError(f"study must be 1, 2, or 3, got {self.study}")
        # every task builds these two; building them here refuses a bad
        # field before any task runs or any partial result is written
        self.cv_config(seed=0)
        self.train_config()

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            rounds=self.max_rounds,
            learning_rate=self.learning_rate,
            max_depth=self.max_depth,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
        )

    def cv_config(self, seed: int) -> CvConfig:
        """2-fold round selection; seed is the task's training-table seed."""
        return CvConfig(
            folds=2,
            max_rounds=self.max_rounds,
            checkpoint_stride=self.checkpoint_stride,
            seed=seed,
        )


@dataclass(frozen=True)
class GridPoint:
    index: int
    label: str
    copula: CopulaSpec
    c: float


def grid_points(config: StudyConfig) -> list[GridPoint]:
    if config.study == 1:
        return [
            GridPoint(i, f"theta={theta:g}", CopulaSpec("clayton", theta), STUDY1_C)
            for i, theta in enumerate(STUDY1_THETAS)
        ]
    if config.study == 2:
        return [
            GridPoint(i, f"c={c:g}", CopulaSpec("clayton", STUDY2_THETA), c)
            for i, c in enumerate(STUDY2_CS)
        ]
    return [
        GridPoint(i, spec.family, spec, STUDY3_C)
        for i, spec in enumerate(STUDY3_COPULAS)
    ]


def _task_seeds(config: StudyConfig, grid_index: int, rep: int) -> tuple[int, int]:
    base = config.seed * TASK_SEEDS + grid_index * GRID_SEEDS + 2 * rep
    return base, base + 1


def run_task(config: StudyConfig, point: GridPoint, rep: int) -> dict:
    """One repetition at one grid point; returns a JSON-able record."""
    train_seed, test_seed = _task_seeds(config, point.index, rep)
    sim_train = generate(
        DgpConfig(n=config.n_train, c=point.c, copula=point.copula, seed=train_seed)
    )
    sim_test = generate(
        DgpConfig(n=config.n_test, c=point.c, copula=point.copula, seed=test_seed)
    )
    losses = {
        "clayton": ClaytonAftLoss(sim_train.residual_clayton_theta, sim_train.event_baseline,
                                  sim_train.censor_baseline),
        "independent": IndependentAftLoss(sim_train.event_baseline),
    }
    train_cfg = config.train_config()
    cv = config.cv_config(seed=train_seed)
    record = {
        "grid_index": point.index,
        "grid_label": point.label,
        "copula_family": point.copula.family,
        "copula_theta": point.copula.theta,
        "c": point.c,
        "rep": rep,
        "train_censoring": sim_train.censoring_fraction,
        "test_censoring": sim_test.censoring_fraction,
        "models": {},
    }
    for name in MODELS:
        # the task is the study's unit of parallelism, so its search runs
        # in this process (grid_search's default of one worker)
        result, model = grid_search(sim_train.data, losses[name].to_config(), train_cfg, cv,
                                    patience=STUDY_PATIENCE)
        predicted = model.predict_time(sim_test.data.X)
        report = evaluate_predictions(sim_test.data, predicted, config.n_horizons)
        record["models"][name] = {
            "rounds": result["best"]["rounds"],
            "cv_score": result["best"]["mean_score"],
            "c_index": report.c_index,
            "mae": report.mae,
            "event_mae": report.event_mae,
            "calibration": report.calibration.to_dict(),
        }
    return record


def _partial_path(out_dir: str, grid_index: int, rep: int) -> str:
    return os.path.join(out_dir, "partial", f"task_g{grid_index:03d}_r{rep:04d}.json")


def _fingerprint(config: StudyConfig) -> dict:
    """What a task file records it ran under: the config and the CV stop
    rule, which is not a config field."""
    return {**config.to_dict(), "patience": STUDY_PATIENCE}


def _read_task(path: str, fingerprint: dict) -> dict:
    """The record of a finished task from its partial file.

    A file that is not JSON, or that lacks the fingerprint or a field
    _write_results reads or holds one of the wrong kind, is a DataError
    naming the file, so it is refused before any table is written; one
    run under another fingerprint is a ConfigError naming it.
    """
    record = read_json(path, DataError, "task file")
    try:
        written_under = record["fingerprint"]
        for key in ("train_censoring", "test_censoring"):
            number(record[key], float, key, DataError)
        for model in MODELS:
            fit = record["models"][model]
            number(fit["rounds"], int, f"{model} rounds", DataError)
            for key in ("c_index", "mae", "event_mae"):
                number(fit[key], float, f"{model} {key}", DataError)
            curves = [fit["calibration"][name] for name in CURVE_FIELDS]
            if len({len(curve) for curve in curves}) != 1:
                raise DataError(f"{model} calibration curves differ in length")
            for curve in curves:
                for x in curve:
                    number(x, float, f"{model} calibration entry", DataError)
    except KeyError as exc:
        raise DataError(f"{path}: task file misses field {exc}") from exc
    except (ValueError, TypeError) as exc:  # a field of the wrong kind
        raise DataError(f"{path}: malformed task file: {exc}") from exc
    # checked after the fields: a ConfigError is a ValueError
    if written_under != fingerprint:
        raise ConfigError(f"{path} holds a task of a different study config; "
                          "use a new output directory")
    del record["fingerprint"]
    return record


def _write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with writing(path):
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)


def run_study(config: StudyConfig, out_dir: str, workers: int = 1, quiet: bool = False):
    """Run all grid points and repetitions, then write the result CSVs.

    Completed repetitions found under partial/ are reused, so an
    interrupted run resumes where it stopped; a task file run under
    another config is refused.  A file that cannot be written is a
    ConfigError naming it; finished task files are kept.
    """
    workers = check_workers(workers, "workers (--threads)")
    points = grid_points(config)
    partial = os.path.join(out_dir, "partial")
    with writing(partial):
        os.makedirs(partial, exist_ok=True)
    fingerprint = _fingerprint(config)
    tasks = [(point, rep) for point in points for rep in range(config.repetitions)]

    records: dict[tuple[int, int], dict] = {}
    pending = []
    for point, rep in tasks:
        path = _partial_path(out_dir, point.index, rep)
        if os.path.exists(path):
            records[(point.index, rep)] = _read_task(path, fingerprint)
        else:
            pending.append((point, rep))

    def note(msg):
        if not quiet:
            print(msg, flush=True)

    note(
        f"study {config.study}: {len(points)} grid points x {config.repetitions} reps; "
        f"{len(pending)} to run, {len(records)} reused"
    )
    with task_map(workers, len(pending)) as map_tasks:
        done = map_tasks(
            run_task, repeat(config), [p for p, _ in pending], [r for _, r in pending]
        )
        for (point, rep), record in zip(pending, done):
            _write_atomic(
                _partial_path(out_dir, point.index, rep),
                json.dumps({**record, "fingerprint": fingerprint}, sort_keys=True),
            )
            records[(point.index, rep)] = record
            note(f"  done grid={point.label} rep={rep}")

    with writing(out_dir):
        _write_results(config, points, records, out_dir)
    note(f"wrote results to {out_dir}")
    return records


def _mean(dicts, key) -> float:
    return float(np.mean([d[key] for d in dicts]))


CURVE_FIELDS = ("horizons", "predicted_proportion", "observed_proportion")


def _write_results(config, points, records, out_dir):
    """Write the three study tables from one pass over points x models.

    results.csv has a row per repetition; results_mean.csv and
    calibration_mean.csv (per horizon) average over repetitions.
    """
    results, means, curves = [], [], []
    for point in points:
        recs = [records[(point.index, rep)] for rep in range(config.repetitions)]
        grid = [config.study, point.index, point.label]
        setting = grid + [point.copula.family, float(point.copula.theta), float(point.c)]
        for model in MODELS:
            fits = [rec["models"][model] for rec in recs]
            for rep, (rec, fit) in enumerate(zip(recs, fits)):
                results.append(setting + [
                    model, rep, fit["rounds"],
                    float(rec["train_censoring"]), float(rec["test_censoring"]),
                    float(fit["c_index"]), float(fit["mae"]), float(fit["event_mae"]),
                ])
            means.append(setting + [
                model, config.repetitions, _mean(recs, "test_censoring"),
                _mean(fits, "c_index"), _mean(fits, "mae"), _mean(fits, "event_mae"),
            ])
            model_curves = [fit["calibration"] for fit in fits]
            n_h = min(len(curve["horizons"]) for curve in model_curves)
            for j in range(n_h):
                curves.append(grid + [model, j] + [
                    float(np.mean([curve[name][j] for curve in model_curves]))
                    for name in CURVE_FIELDS
                ])

    setting_header = ["study", "grid_index", "grid_label", "copula_family", "copula_theta", "c"]
    write_rows(os.path.join(out_dir, "results.csv"), setting_header + [
        "model", "rep", "rounds", "train_censoring", "test_censoring",
        "c_index", "mae", "event_mae",
    ], results)
    write_rows(os.path.join(out_dir, "results_mean.csv"), setting_header + [
        "model", "repetitions", "mean_test_censoring", "mean_c_index",
        "mean_mae", "mean_event_mae",
    ], means)
    write_rows(os.path.join(out_dir, "calibration_mean.csv"), [
        "study", "grid_index", "grid_label", "model", "horizon_index",
        "horizon", "predicted_proportion", "observed_proportion",
    ], curves)
