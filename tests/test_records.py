"""The one reader of config records (errors.Record), through every record
the CLI reads: each refuses a key that names no field and names a missing
required field, and files hold each field under one key."""
import json

import pytest

from depaft import CopulaSpec, DgpConfig, StudyConfig, TrainConfig
from depaft.cli import main
from depaft.errors import ConfigError

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
