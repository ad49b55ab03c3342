"""Command-line surface.

Subcommands: simulate, train, predict, evaluate, cv, study.  Exit codes:
0 success, 2 configuration or usage error, 3 data error, 4 internal
numeric error or out of memory.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import booster, dataset
from .booster import TrainConfig
from .errors import PARSE, ConfigError, DataError, NumericError, Record, make_dirs, read_json, write_json
from .loss import AftLoss, loss_from_config
from .metrics import CURVE_COLUMNS, CURVE_FIELDS, evaluate_predictions
from .parallel import usable_cpus
from .simulate import DgpConfig, generate
from .studies import StudyConfig, run_study
from .tuning import CvConfig, grid_search


@dataclass(frozen=True)
class TrainCvConfig(Record):
    """A train or cv config file: the loss, the booster settings and the
    CV search, each section checked whichever command reads the file.

    It is only read: its to_dict writes the loss without its tag, which
    loss_from_config needs, so it does not read back.
    """

    what = "train/cv config"

    loss: AftLoss = field(metadata={PARSE: loss_from_config})
    train: TrainConfig = field(default_factory=TrainConfig, metadata={PARSE: TrainConfig.from_dict})
    cv: CvConfig = field(default_factory=CvConfig, metadata={PARSE: CvConfig.from_dict})


def _read_config(record: type[Record], path):
    """The record the config file at path describes, else ConfigError."""
    return record.from_dict(read_json(path, ConfigError, "config file"))


def _with_flags(config: Record, **flags):
    """config, already checked, with each field whose flag was given (is
    not None) replaced by it; the new record is checked again."""
    return replace(config, **{name: value for name, value in flags.items() if value is not None})


def _write_json(obj, path) -> None:
    write_json(path, obj, indent=2, sort_keys=True)  # the CLI's one JSON layout


def _say(args, msg) -> None:
    if not args.quiet:
        print(msg, flush=True)


def cmd_simulate(args) -> int:
    config = _with_flags(_read_config(DgpConfig, args.config), seed=args.seed)
    sim = generate(config)
    make_dirs(args.out)
    dataset.write_csv(sim.data, os.path.join(args.out, "data.csv"))
    _write_json(sim.metadata(), os.path.join(args.out, "metadata.json"))
    _say(args, f"wrote {sim.data.n} rows; censoring fraction {sim.censoring_fraction:.4f}")
    return 0


def cmd_train(args) -> int:
    data = dataset.read_csv(args.data)
    config = _read_config(TrainCvConfig, args.config)
    fit = booster.Boosting(data, config.loss, config.train).grow(config.train.rounds)
    model = fit.model
    # the fit carries its training prediction, the model's own bit for
    # bit; a final loss that is not finite is exit 4, and leaves no model file
    final_loss = float(np.mean(fit.loss.loss(fit.pred)))
    booster.save(model, args.out)
    _say(args, f"trained {model.n_rounds} rounds; final training loss {final_loss!r}")
    return 0


def cmd_predict(args) -> int:
    model = booster.load(args.model)
    data = dataset.read_csv(args.data)
    if data.n_features != model.n_features:
        raise DataError(f"the model {args.model} takes {model.n_features} features, "
                        f"but {args.data} has {data.n_features}")
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
    dataset.write_predictions_csv(log_times, times, args.out)
    _say(args, f"wrote {data.n} predictions to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    data = dataset.read_csv(args.data)
    log_times, predicted_times = dataset.read_predictions_csv(args.predictions)
    report = evaluate_predictions(data, predicted_times, n_horizons=args.horizons)
    # the file's two columns must agree: each predicted time is exp of
    # its log time to a relative 1e-12, where inf matches inf
    with np.errstate(over="ignore"):
        expected = np.exp(log_times)
    agree = np.isclose(predicted_times, expected, rtol=1e-12, atol=0.0)
    if not agree.all():
        k = int(np.argmin(agree))  # the first row that disagrees, on line k + 2
        raise DataError(f"{args.predictions}: line {k + 2}: predicted_time {float(predicted_times[k])!r}"
                        f" is not exp(predicted_log_time {float(log_times[k])!r})")
    curve = report.calibration
    make_dirs(args.out)
    _write_json(report.to_dict(), os.path.join(args.out, "metrics.json"))
    dataset.write_table(os.path.join(args.out, "calibration.csv"), CURVE_COLUMNS,
                        [getattr(curve, name) for name in CURVE_FIELDS])
    _say(args, f"c-index {report.c_index:.4f}; metrics in {args.out}")
    return 0


def cmd_cv(args) -> int:
    data = dataset.read_csv(args.data)
    config = _read_config(TrainCvConfig, args.config)
    cv = _with_flags(config.cv, seed=args.seed)
    result, model = grid_search(data, config.loss.to_config(), config.train, cv, workers=usable_cpus())
    make_dirs(args.out)
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
    config = _with_flags(_read_config(StudyConfig, args.config),
                         seed=args.seed, repetitions=args.repetitions)
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
    except MemoryError as exc:
        print("out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
