"""Command-line surface.

Subcommands: simulate, train, predict, evaluate, cv, study.  Exit codes:
0 success, 2 configuration or usage error, 3 data error, 4 internal
numeric error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import booster, dataset
from .booster import TrainConfig
from .errors import ConfigError, DataError, NumericError, read_json, section, writing
from .loss import loss_from_config
from .metrics import evaluate_predictions
from .parallel import usable_cpus
from .simulate import DgpConfig, generate
from .studies import StudyConfig, run_study
from .tuning import CvConfig, grid_search


def _load_json(path) -> dict:
    return section(read_json(path, ConfigError, "config file"), f"{path}: config")


def _write_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _say(args, msg) -> None:
    if not args.quiet:
        print(msg, flush=True)


def cmd_simulate(args) -> int:
    cfg_dict = _load_json(args.config)
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    config = DgpConfig.from_dict(cfg_dict)
    sim = generate(config)
    with writing(args.out):
        os.makedirs(args.out, exist_ok=True)
        dataset.write_csv(sim.data, os.path.join(args.out, "data.csv"))
        _write_json(sim.metadata(), os.path.join(args.out, "metadata.json"))
    _say(args, f"wrote {sim.data.n} rows; censoring fraction {sim.censoring_fraction:.4f}")
    return 0


def _train_configs(cfg_dict: dict):
    if "loss" not in cfg_dict:
        raise ConfigError("train config requires a 'loss' section")
    loss = loss_from_config(cfg_dict["loss"])
    return loss, TrainConfig.from_dict(cfg_dict.get("train", {}))


def cmd_train(args) -> int:
    data = dataset.read_csv(args.data)
    loss, train_cfg = _train_configs(_load_json(args.config))
    fit = booster.Boosting(data, loss, train_cfg).grow(train_cfg.rounds)
    model = fit.model
    # the fit carries its training prediction, the model's own bit for
    # bit; a final loss that is not finite is exit 4, and leaves no model file
    final_loss = float(np.mean(fit.loss.loss(fit.pred)))
    with writing(args.out):
        booster.save(model, args.out)
    _say(args, f"trained {model.n_rounds} rounds; final training loss {final_loss!r}")
    return 0


def cmd_predict(args) -> int:
    model = booster.load(args.model)
    data = dataset.read_csv(args.data)
    # a model file's finite numbers may still overflow, or underflow a
    # time to 0, which no survival time is: exit 4, as in train, and no
    # predictions file
    with np.errstate(over="ignore", invalid="ignore"):
        log_times = model.predict(data.X)
        times = np.exp(log_times)
    if not (np.isfinite(log_times).all() and np.isfinite(times).all()):
        raise NumericError(f"{args.model}: non-finite predicted log time or time")
    if not times.all():
        raise NumericError(f"{args.model}: predicted time underflows to 0")
    with writing(args.out):
        dataset.write_predictions_csv(log_times, times, args.out)
    _say(args, f"wrote {data.n} predictions to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    data = dataset.read_csv(args.data)
    _, predicted_times = dataset.read_predictions_csv(args.predictions)
    report = evaluate_predictions(data, predicted_times, n_horizons=args.horizons)
    curve = report.calibration
    with writing(args.out):
        os.makedirs(args.out, exist_ok=True)
        _write_json(report.to_dict(), os.path.join(args.out, "metrics.json"))
        dataset.write_rows(
            os.path.join(args.out, "calibration.csv"),
            ["horizon", "predicted_proportion", "observed_proportion"],
            zip(curve.horizons.tolist(), curve.predicted_proportion.tolist(),
                curve.observed_proportion.tolist()),
        )
    _say(args, f"c-index {report.c_index:.4f}; metrics in {args.out}")
    return 0


def cmd_cv(args) -> int:
    data = dataset.read_csv(args.data)
    cfg_dict = _load_json(args.config)
    loss, train_cfg = _train_configs(cfg_dict)
    cv_dict = dict(section(cfg_dict.get("cv", {}), "config section 'cv'"))
    if args.seed is not None:
        cv_dict["seed"] = args.seed
    cv = CvConfig.from_dict(cv_dict)
    result, model = grid_search(data, loss.to_config(), train_cfg, cv, workers=usable_cpus())
    with writing(args.out):
        os.makedirs(args.out, exist_ok=True)
        _write_json(result, os.path.join(args.out, "cv_results.json"))
        booster.save(model, os.path.join(args.out, "model.json"))
    best = result["best"]
    _say(
        args,
        f"best: theta={best['theta']}, rounds={best['rounds']}, "
        f"mean c-index {best['mean_score']:.4f}",
    )
    return 0


def cmd_study(args) -> int:
    cfg_dict = _load_json(args.config)
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    if args.repetitions is not None:
        cfg_dict["repetitions"] = args.repetitions
    config = StudyConfig.from_dict(cfg_dict)
    run_study(config, args.out, workers=args.threads, quiet=args.quiet)
    return 0


def _add_common(parser, *, seed=True, out_help="output directory"):
    parser.add_argument("--out", required=True, help=out_help)
    if seed:
        parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="depaft",
        description=(
            "Boosted AFT survival regression under dependent censoring: "
            "simulate, train, predict, evaluate, cross-validate, and run studies."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a dependently censored dataset")
    p.add_argument("--config", required=True, help="DGP config JSON")
    _add_common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("train", help="train a boosted model on a dataset CSV")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--config", required=True, help="loss + train config JSON")
    _add_common(p, seed=False, out_help="model JSON path")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="predict log times and times for a dataset")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--data", required=True, help="dataset CSV")
    _add_common(p, seed=False, out_help="predictions CSV path")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against a dataset")
    p.add_argument("--predictions", required=True, help="predictions CSV")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--horizons", type=int, default=9, help="calibration horizons (2 to 100000)")
    _add_common(p, seed=False)
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("cv", help="k-fold grid-search cross-validation")
    p.add_argument("--data", required=True, help="dataset CSV")
    p.add_argument("--config", required=True, help="loss + train + cv config JSON")
    _add_common(p)
    p.set_defaults(fn=cmd_cv)

    p = sub.add_parser("study", help="run a simulation study end to end")
    p.add_argument("--config", required=True, help="study config JSON")
    p.add_argument(
        "--repetitions", type=int, default=None, help="override config repetitions"
    )
    p.add_argument("--threads", type=int, default=1, help="worker processes (>= 1)")
    _add_common(p)
    p.set_defaults(fn=cmd_study)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
