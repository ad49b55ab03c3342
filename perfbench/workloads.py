"""The benchmark's workloads.

Each workload prepares its inputs from the seed (prepare), lists the
operations of one round (round), counts the boosting rounds a finished
round fitted (fit_rounds) and checks a finished round's outputs (check).
Every operation calls a public depaft entry point in this process.
"""
from __future__ import annotations

import json
import os
import random
from functools import partial

from depaft import cli, studies, tuning

import checks

C = 1.49  # censoring constant of the simulated tables: ~50% censoring
THETA = 3.0  # Clayton dependence of the simulated tables and of the loss
SIGMA = 1.0 / 3.0  # extreme baselines, sigma = 1/weibull_shape of the DGP
CLAYTON_LOSS = {
    "loss": "clayton",
    "theta": THETA,
    "event_baseline": {"family": "extreme", "sigma": SIGMA},
    "censor_baseline": {"family": "extreme", "sigma": SIGMA},
}
TRAIN = {"learning_rate": 0.1, "max_depth": 3, "lambda": 1.0, "min_child_weight": 1.0}


def _write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _cli(*argv) -> None:
    code = cli.main([*argv, "--quiet"])
    if code != 0:
        raise RuntimeError(f"depaft {argv[0]} exited with code {code}")


def _simulate(config_path, out_dir) -> None:
    _cli("simulate", "--config", config_path, "--out", out_dir)


def _dgp(n: int, seed: int) -> dict:
    return {"n": n, "c": C, "copula": {"family": "clayton", "theta": THETA}, "seed": seed}


class StudyTasks:
    """Study 2 (theta = 3) at desk scale: n_train = n_test = 1000, 400
    rounds, stride 25, 2-fold CV, both models.

    One operation is one grid-point task, run through studies.run_study
    with workers=1 into its own directory.  A round is two operations: the
    task and its repeat, which must give an identical record.  The task is
    the grid point c = 1.49 (~50% censoring): at c = 0.89 the CV often
    keeps 300-400 rounds for the independent model and 25-75 on other
    seeds, which moves the task time by a third from seed to seed.
    """

    name = "study-tasks"

    def __init__(self, seed: int):
        self.config = studies.StudyConfig(study=2, repetitions=1, seed=seed)
        self.point = studies.grid_points(self.config)[studies.STUDY2_CS.index(C)]
        self.records: dict[str, dict] = {}

    def prepare(self, setup_dir) -> None:
        pass  # the study simulates its own data inside each task

    def check_inputs(self) -> None:
        pass

    def round(self, round_dir):
        return [(f"task{k}", partial(self._task, os.path.join(round_dir, f"task{k}"))) for k in range(2)]

    def _task(self, out_dir) -> None:
        # run_study sweeps every grid point of the study; the benchmark
        # restricts it to one point so that one task is one operation
        grid_points = studies.grid_points
        studies.grid_points = lambda config: [self.point]
        try:
            records = studies.run_study(self.config, out_dir, workers=1, quiet=True)
        finally:
            studies.grid_points = grid_points
        self.records[out_dir] = records[(self.point.index, 0)]

    def _task_dirs(self, round_dir) -> list[str]:
        return [os.path.join(round_dir, f"task{k}") for k in range(2)]

    def fit_rounds(self, round_dir) -> int:
        return sum(
            2 * self.config.max_rounds + m["rounds"]  # two fold fits and the refit
            for d in self._task_dirs(round_dir)
            for m in self.records[d]["models"].values()
        )

    def check(self, round_dir) -> None:
        cfg = self.config
        dirs = self._task_dirs(round_dir)
        first, repeat = (self.records[d] for d in dirs)
        checks.check_study_record(first, cfg.n_train, cfg.n_test, cfg.max_rounds, cfg.checkpoint_stride)
        checks.expect(repeat == first, "repeating a study task changed its record")
        for name in ("results.csv", "results_mean.csv", "calibration_mean.csv"):
            a, b = (open(os.path.join(d, name), "rb").read() for d in dirs)
            checks.expect(a == b, f"repeating a study task changed {name}")
        checks.check_results_mean(os.path.join(dirs[0], "results.csv"), os.path.join(dirs[0], "results_mean.csv"))


class CvLarge:
    """`depaft cv` through cli.main on 8000 simulated rows (c = 1.49,
    Clayton theta = 3): theta grid {2, 3}, 2 folds, 100 rounds, stride 5.
    One operation is one cv command; a round is one operation.
    """

    name = "cv-large"
    N = 8000
    THETA_GRID = [2.0, 3.0]
    FOLDS = 2
    ROUNDS = 100
    STRIDE = 5

    def __init__(self, seed: int):
        self.seed = seed
        self.captured: dict[str, list] = {}

    def prepare(self, setup_dir) -> None:
        os.makedirs(setup_dir)
        sim = os.path.join(setup_dir, "sim.json")
        _write_json(sim, _dgp(self.N, self.seed))
        _simulate(sim, os.path.join(setup_dir, "sim"))
        self.data = os.path.join(setup_dir, "sim", "data.csv")
        self.config = os.path.join(setup_dir, "cv.json")
        _write_json(self.config, {
            "loss": CLAYTON_LOSS,
            "train": dict(TRAIN, rounds=self.ROUNDS),
            "cv": {"folds": self.FOLDS, "max_rounds": self.ROUNDS, "checkpoint_stride": self.STRIDE,
                   "theta_grid": self.THETA_GRID, "seed": self.seed},
        })

    def check_inputs(self) -> None:
        data = checks.read_columns(self.data)
        events = data["event"]
        checks.check_censoring(C, 1.0 - sum(events) / len(events), self.N)
        checks.check_kendall_tau(data["true_event_time"], data["true_censor_time"], THETA)

    def round(self, round_dir):
        return [("cv", partial(self._cv, os.path.join(round_dir, "cv")))]

    def _cv(self, out_dir) -> None:
        # keep the result of every validation concordance the search
        # computes, and the arguments of those at the first and the last
        # checkpoint of each fit, to check them against checks.concordance
        per_fit = self.ROUNDS // self.STRIDE
        captured = self.captured[out_dir] = []
        concordance = tuning.concordance

        def capture(*args):
            value = concordance(*args)
            kept = len(captured) % per_fit in (0, per_fit - 1)
            captured.append((args if kept else None, value))
            return value

        tuning.concordance = capture
        try:
            _cli("cv", "--data", self.data, "--config", self.config, "--out", out_dir)
        finally:
            tuning.concordance = concordance

    def fit_rounds(self, round_dir) -> int:
        best = checks.load_json(os.path.join(round_dir, "cv", "cv_results.json"))["best"]
        return len(self.THETA_GRID) * self.FOLDS * self.ROUNDS + best["rounds"]

    def check(self, round_dir) -> None:
        out = os.path.join(round_dir, "cv")
        result = checks.load_json(os.path.join(out, "cv_results.json"))
        model = checks.load_json(os.path.join(out, "model.json"))
        checks.check_cv_result(result, model, self.ROUNDS, self.STRIDE)
        schedule = result["checkpoints"]
        calls = self.captured[out]
        checks.expect(
            len(calls) == len(self.THETA_GRID) * self.FOLDS * len(schedule),
            f"cv computed {len(calls)} validation concordances",
        )
        # calls run theta by theta, fold by fold, checkpoint by checkpoint
        for ti, theta in enumerate(self.THETA_GRID):
            points = [p for p in result["points"] if p["theta"] == theta]
            for fi in range(self.FOLDS):
                for j, point in enumerate(points):
                    args, value = calls[(ti * self.FOLDS + fi) * len(schedule) + j]
                    checks.expect(point["fold_scores"][fi] == value, "fold score differs from its concordance")
                    if args is not None:
                        times, events, predicted = (a.tolist() for a in args)
                        checks.check_c_index(value, times, events, predicted, f"cv theta={theta} fold={fi}")


class ScoreLarge:
    """`depaft simulate` -> `predict` -> `evaluate` through cli.main at
    n = 20000 (c = 1.49, Clayton theta = 3).  Set-up trains the 400-tree
    model that predict applies, on 300 simulated rows.  One operation is
    the three commands; a round is one operation.  (Timed one by one, the
    three commands take ~0.6, ~1.2 and ~3.3 s, and the median over a run
    would jump between them as the number of rounds changes.)
    """

    name = "score-large"
    N = 20000
    TRAIN_N = 300
    TREES = 400
    SAMPLE = 64  # rows re-predicted by the plain tree walk

    def __init__(self, seed: int):
        self.seed = seed
        self.sample = sorted(random.Random(seed).sample(range(self.N), self.SAMPLE))

    def prepare(self, setup_dir) -> None:
        os.makedirs(setup_dir)
        train_sim = os.path.join(setup_dir, "train_sim.json")
        _write_json(train_sim, _dgp(self.TRAIN_N, self.seed))
        _simulate(train_sim, os.path.join(setup_dir, "train"))
        train_cfg = os.path.join(setup_dir, "train.json")
        _write_json(train_cfg, {"loss": CLAYTON_LOSS, "train": dict(TRAIN, rounds=self.TREES)})
        self.model = os.path.join(setup_dir, "model.json")
        _cli("train", "--data", os.path.join(setup_dir, "train", "data.csv"), "--config", train_cfg,
             "--out", self.model)
        self.sim = os.path.join(setup_dir, "sim.json")
        _write_json(self.sim, _dgp(self.N, self.seed + 1))

    def check_inputs(self) -> None:
        checks.expect(len(checks.load_json(self.model)["trees"]) == self.TREES, "set-up model has the wrong size")

    def round(self, round_dir):
        return [("score", partial(self._score, round_dir))]

    def _score(self, round_dir) -> None:
        data = os.path.join(round_dir, "sim", "data.csv")
        preds = os.path.join(round_dir, "preds.csv")
        _simulate(self.sim, os.path.join(round_dir, "sim"))
        _cli("predict", "--model", self.model, "--data", data, "--out", preds)
        _cli("evaluate", "--predictions", preds, "--data", data, "--out", os.path.join(round_dir, "eval"))

    def fit_rounds(self, round_dir) -> int:
        return self.TREES  # rounds of the fitted model that predict applies

    def check(self, round_dir) -> None:
        data = checks.read_columns(os.path.join(round_dir, "sim", "data.csv"))
        preds = checks.read_columns(os.path.join(round_dir, "preds.csv"))
        report = checks.load_json(os.path.join(round_dir, "eval", "metrics.json"))
        events = data["event"]
        checks.check_censoring(C, 1.0 - sum(events) / len(events), self.N)
        checks.check_kendall_tau(data["true_event_time"], data["true_censor_time"], THETA)
        checks.check_predictions(checks.load_json(self.model), data, preds, self.sample)
        checks.check_c_index(report["c_index"], data["time"], events, preds["predicted_time"], "evaluate")
        checks.check_calibration(report["calibration"], self.N)


WORKLOADS = {w.name: w for w in (StudyTasks, CvLarge, ScoreLarge)}
