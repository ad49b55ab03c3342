"""The one reader and checker of config records (errors.Record), through
every record the CLI reads: each refuses a key that names no field and
names a missing required field, files hold each field under one key, and
every number field is checked alike from a file and from Python."""
import dataclasses
import json
import math

import pytest

from depaft import (BaselineSpec, ClaytonAftLoss, CopulaSpec, CvConfig, DgpConfig,
                    IndependentAftLoss, StudyConfig, TrainConfig)
from depaft.cli import main
from depaft.errors import ConfigError, Record
from depaft.studies import MAX_REPETITIONS, MAX_SEED, STUDY1_THETAS, _task_seeds, grid_points

BASELINE = {"family": "extreme", "sigma": 1 / 3}
SIM = {"n": 50, "c": 1.49, "copula": {"family": "clayton", "theta": 3.0}}
TRAIN = {
    "loss": {"loss": "clayton", "theta": 3.0, "event_baseline": BASELINE, "censor_baseline": BASELINE},
    "train": {"rounds": 5},
    "cv": {"folds": 2, "max_rounds": 5},
}
INDEPENDENT = {**TRAIN, "loss": {"loss": "independent", "event_baseline": BASELINE}}

# (record, command, its config file, path to the record in it, a key it
# must refuse, a required field or None)
RECORDS = [
    ("train", "train", TRAIN, ("train",), "seed", None),
    ("cv", "cv", TRAIN, ("cv",), "patience", None),
    ("study", "study", {"study": 1, "repetitions": 1}, (), "bogus", "study"),
    ("simulate", "simulate", SIM, (), "bogus", "copula"),
    ("copula", "simulate", SIM, ("copula",), "bogus", "family"),
    ("baseline", "train", TRAIN, ("loss", "censor_baseline"), "bogus", "sigma"),
    ("clayton-loss", "train", TRAIN, ("loss",), "bogus", "theta"),
    ("independent-loss", "cv", INDEPENDENT, ("loss",), "theta", "event_baseline"),
]


def _config_error(tmp_path, capsys, command, cfg) -> str:
    """Run command on cfg; assert exit 2 and return the message."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path), "--out", str(tmp_path / "out"), "--quiet"]
    if command in ("train", "cv"):
        data = tmp_path / "data.csv"
        data.write_text("time,event,x1\n1.0,1,0.5\n2.0,0,0.25\n3.0,1,0.75\n4.0,0,0.125\n")
        argv += ["--data", str(data)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("command, cfg, keys, unknown, required",
                         [r[1:] for r in RECORDS], ids=[r[0] for r in RECORDS])
def test_every_record_refuses_unknown_and_missing_fields(tmp_path, capsys, command, cfg, keys,
                                                          unknown, required):
    def edited(edit):
        out = json.loads(json.dumps(cfg))
        record = out
        for key in keys:
            record = record[key]
        edit(record)
        return out

    err = _config_error(tmp_path, capsys, command, edited(lambda r: r.update({unknown: 1})))
    assert f"fields: [{unknown!r}]" in err
    if required is not None:
        err = _config_error(tmp_path, capsys, command, edited(lambda r: r.pop(required)))
        assert "missing fields" in err and repr(required) in err


@pytest.mark.parametrize("record", [
    StudyConfig(study=3, repetitions=2, n_train=80, n_test=90, seed=4, max_rounds=60,
                checkpoint_stride=20, learning_rate=0.3, max_depth=2, min_child_weight=0.5,
                reg_lambda=2.5, gamma=0.25, n_horizons=5),
    DgpConfig(n=70, c=0.89, copula=CopulaSpec("frank", -7.5), weibull_shape=2.0,
              weibull_scale=1.5, seed=12),
], ids=["study", "simulate"])
def test_records_survive_a_round_trip(record):
    d = json.loads(json.dumps(record.to_dict()))
    assert type(record).from_dict(d) == record


def test_lambda_is_the_file_key_of_reg_lambda():
    assert TrainConfig.from_dict({"lambda": 2.5}).reg_lambda == 2.5
    study = StudyConfig.from_dict({"study": 1, "lambda": 2.5})
    assert study.reg_lambda == 2.5
    assert study.to_dict()["lambda"] == 2.5 and "reg_lambda" not in study.to_dict()
    for record, d in ((TrainConfig, {}), (StudyConfig, {"study": 1})):
        with pytest.raises(ConfigError, match="unknown .* fields: \\['reg_lambda'\\]"):
            record.from_dict({**d, "reg_lambda": 2.5})


EXTREME = BaselineSpec("extreme", 1 / 3)
# one valid instance of every record
EXAMPLES = {
    BaselineSpec: EXTREME,
    ClaytonAftLoss: ClaytonAftLoss(3.0, EXTREME, EXTREME),
    CopulaSpec: CopulaSpec("clayton", 3.0),
    CvConfig: CvConfig(theta_grid=(1.0, 2.0)),
    DgpConfig: DgpConfig(n=50, c=1.49, copula=CopulaSpec("clayton", 3.0)),
    IndependentAftLoss: IndependentAftLoss(EXTREME),
    StudyConfig: StudyConfig(study=1),
    TrainConfig: TrainConfig(base_score=0.5),
}


def _records(cls=Record):
    for sub in cls.__subclasses__():
        yield sub
        yield from _records(sub)


def _number_fields():
    """(record, field name, file key, kind) of every int or float field."""
    for cls in _records():
        for f, key in zip(dataclasses.fields(cls), EXAMPLES[cls].to_dict()):
            if f.type in ("int", "float"):
                yield cls, f.name, key, f.type


def test_every_record_has_an_example():
    assert set(_records()) == set(EXAMPLES)


@pytest.mark.parametrize("cls, name, key, kind", list(_number_fields()),
                         ids=lambda x: getattr(x, "__name__", x))
def test_every_number_field_is_checked_from_python(cls, name, key, kind):
    bad = [True, False, math.nan, "1"] + ([2.5, 2**70] if kind == "int" else [math.inf])
    for value in bad:
        with pytest.raises(ConfigError, match=f"^{cls.what} field {key!r} must be"):
            dataclasses.replace(EXAMPLES[cls], **{name: value})


# values the records took, or failed on with another error, before every
# construction went through one checker: (file key, construction)
HOLES = [
    ("gamma", lambda: TrainConfig(gamma=math.nan)),
    ("min_child_weight", lambda: TrainConfig(min_child_weight=math.nan)),
    ("lambda", lambda: TrainConfig(reg_lambda=math.nan)),
    ("rounds", lambda: TrainConfig(rounds=True)),
    ("max_depth", lambda: TrainConfig(max_depth=2**70)),
    ("n_train", lambda: StudyConfig(study=1, n_train=2.5)),
    ("n_test", lambda: StudyConfig(study=1, n_test=math.inf)),
    ("c", lambda: DgpConfig(n=50, c=math.inf, copula=CopulaSpec("clayton", 3.0))),
    ("weibull_shape", lambda: DgpConfig(n=50, c=1.0, copula=CopulaSpec("clayton", 3.0),
                                        weibull_shape=math.inf)),
    ("seed", lambda: CvConfig(seed=True)),
    ("base_score", lambda: TrainConfig(base_score="x")),
    ("theta", lambda: CopulaSpec("clayton", "x")),
    ("sigma", lambda: BaselineSpec("extreme", "1")),
    ("c", lambda: DgpConfig(n=50, c="1", copula=CopulaSpec("clayton", 3.0))),
    ("theta_grid", lambda: CvConfig(theta_grid=(1.0, "x"))),
]


@pytest.mark.parametrize("key, build", HOLES, ids=[key for key, _ in HOLES])
def test_python_construction_is_checked_like_a_file(key, build):
    with pytest.raises(ConfigError, match=f"field {key!r}"):
        build()


@pytest.mark.parametrize("record, key, value, message", [
    (TrainConfig, "rounds", 0, "train config field 'rounds' must be >= 1, got 0"),
    (TrainConfig, "learning_rate", 0, "train config field 'learning_rate' must be > 0, got 0.0"),
    (TrainConfig, "learning_rate", 1.5, "train config field 'learning_rate' must be <= 1, got 1.5"),
    (DgpConfig, "seed", -1, "simulate config field 'seed' must be >= 0, got -1"),
    (ClaytonAftLoss, "theta", -1, "clayton loss config field 'theta' must be > 0, got -1.0"),
    # a study field of the wrong kind names the study config; one out of
    # its bounds names the CV or train config built from it, in that order
    (StudyConfig, "lambda", math.nan, "study config field 'lambda' must be a finite number, got nan"),
    (StudyConfig, "lambda", -1, "train config field 'lambda' must be >= 0, got -1.0"),
    (StudyConfig, "max_rounds", 0, "cv config field 'max_rounds' must be >= 1, got 0"),
    (StudyConfig, "seed", MAX_SEED + 1,
     f"study config field 'seed' must be <= {MAX_SEED}, got {MAX_SEED + 1}"),
], ids=["rounds", "learning_rate-low", "learning_rate-high", "seed", "theta", "study-lambda-nan",
        "study-lambda", "study-max_rounds", "study-seed"])
def test_one_message_for_every_bound(record, key, value, message):
    with pytest.raises(ConfigError, match=f"^{message}$"):
        record.from_dict({**EXAMPLES[record].to_dict(), key: value})


def test_records_store_what_number_reads():
    assert TrainConfig(rounds=3.0).rounds == 3 and type(TrainConfig(rounds=3.0).rounds) is int
    assert TrainConfig(rounds=3.0) == TrainConfig.from_dict({"rounds": 3.0})
    assert type(TrainConfig(learning_rate=1).learning_rate) is float
    assert CvConfig(theta_grid=[1, 2]).theta_grid == (1.0, 2.0)


def test_every_task_seed_of_the_largest_study_seed_builds(tmp_path, capsys):
    # the task records take the study seed scaled up, so the study config
    # refuses a seed whose task seeds would leave int64, before any output
    config = StudyConfig(study=1, seed=MAX_SEED)
    for seed in _task_seeds(config, len(STUDY1_THETAS) - 1, config.repetitions - 1):
        DgpConfig(n=50, c=1.49, copula=CopulaSpec("clayton", 3.0), seed=seed)
        config.cv_config(seed=seed)
    err = _config_error(tmp_path, capsys, "study", {"study": 1, "repetitions": 1, "seed": 10**13})
    assert f"study config field 'seed' must be <= {MAX_SEED}, got {10**13}" in err
    assert not (tmp_path / "out").exists()



def test_repetitions_stop_where_two_tasks_would_share_seeds(tmp_path, capsys):
    # _task_seeds gives each grid point 1000 seeds, two per repetition: at
    # MAX_REPETITIONS every task of a study has seeds of its own, and one
    # repetition more is refused before any task runs
    assert MAX_REPETITIONS == 500
    for study in (1, 2, 3):
        config = StudyConfig(study=study, repetitions=MAX_REPETITIONS)
        seeds = [seed for point in grid_points(config) for rep in range(config.repetitions)
                 for seed in _task_seeds(config, point.index, rep)]
        assert len(set(seeds)) == len(seeds)
    err = _config_error(tmp_path, capsys, "study", {"study": 1, "repetitions": MAX_REPETITIONS + 1})
    assert "study config field 'repetitions' must be <= 500, got 501" in err
    assert not (tmp_path / "out").exists()
    # so is the --repetitions flag
    assert main(["study", "--config", str(tmp_path / "cfg.json"), "--repetitions", "501",
                 "--out", str(tmp_path / "out"), "--quiet"]) == 2
    assert "must be <= 500, got 501" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
