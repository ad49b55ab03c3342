import contextlib
import functools
import hashlib
import io
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from depaft import booster, cli, parallel, read_csv
from depaft.cli import main
from depaft.copula import FAMILIES
from depaft.dataset import read_predictions_csv
from depaft.errors import NumericError
from depaft.loss import ClaytonAftLoss, loss_from_config
from depaft.metrics import MAX_HORIZONS
from depaft.studies import MAX_SEED, StudyConfig, grid_points

from pins import pin

SIM_CFG = {
    "n": 400,
    "c": 1.49,
    "copula": {"family": "clayton", "theta": 3.0},
    "seed": 7,
}

TRAIN_CFG = {
    "loss": {
        "loss": "clayton",
        "theta": 3.0,
        "event_baseline": {"family": "extreme", "sigma": 1 / 3},
        "censor_baseline": {"family": "extreme", "sigma": 1 / 3},
    },
    "train": {"rounds": 20, "learning_rate": 0.1, "max_depth": 2},
}


def _write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture()
def sim_dir(tmp_path):
    cfg = _write(tmp_path / "sim.json", SIM_CFG)
    out = tmp_path / "sim"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    return out


def test_simulate_outputs(sim_dir, capsys):
    data = read_csv(sim_dir / "data.csv")
    assert data.n == 400
    assert data.has_oracle
    meta = json.loads((sim_dir / "metadata.json").read_text())
    assert 0.4 < meta["censoring_fraction"] < 0.6
    assert meta["event_baseline"]["family"] == "extreme"


def test_simulate_prints_censoring(tmp_path, capsys):
    cfg = _write(tmp_path / "sim.json", SIM_CFG)
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "censoring fraction" in capsys.readouterr().out


def test_simulate_deterministic(tmp_path):
    cfg = _write(tmp_path / "sim.json", SIM_CFG)
    for name in ("a", "b"):
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / name), "--quiet"]) == 0
    assert (tmp_path / "a" / "data.csv").read_bytes() == (tmp_path / "b" / "data.csv").read_bytes()


def test_simulate_seed_flag_writes_the_bytes_of_the_config_seed(tmp_path):
    # --seed 11 overrides the config's seed 7: the bytes of a config with seed 11
    cfg = _write(tmp_path / "sim.json", SIM_CFG)
    runs = {"flag": ["--config", cfg, "--seed", "11"],
            "field": ["--config", _write(tmp_path / "seeded.json", {**SIM_CFG, "seed": 11})],
            "own": ["--config", cfg]}
    for name, argv in runs.items():
        assert main(["simulate", *argv, "--out", str(tmp_path / name), "--quiet"]) == 0
    for name in ("data.csv", "metadata.json"):
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "field" / name).read_bytes()
    assert (tmp_path / "flag" / "data.csv").read_bytes() != (tmp_path / "own" / "data.csv").read_bytes()


def test_simulate_bad_config_exit_2(tmp_path):
    cfg = _write(tmp_path / "sim.json", {**SIM_CFG, "n": 0})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 2


@pytest.mark.parametrize("theta", ["NaN", "Infinity"])
def test_simulate_nonfinite_theta_exit_2(tmp_path, theta):
    cfg = tmp_path / "c.json"
    cfg.write_text(
        '{"n": 50, "c": 1.49, "copula": {"family": "frank", "theta": %s}}' % theta
    )
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 2


@pytest.mark.parametrize("theta", [50.0, -1e300])
def test_simulate_frank_at_large_theta_exit_0_without_warnings(tmp_path, theta, capsys):
    # some of these draws used to cancel to outside the unit square
    # (exit 4); those rows now work in log space
    cfg = _write(tmp_path / "sim.json", {**SIM_CFG, "copula": {"family": "frank", "theta": theta}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("theta", [100.0, 1e6, 1e15])
def test_simulate_gumbel_at_large_theta_exit_0_without_warnings(tmp_path, theta, capsys):
    # the stable mixing leaves the float range at large theta (at seed 0
    # from theta near 80 on), which used to be exit 4; those draws now
    # work in log space, and no numpy warning reaches stderr
    cfg = _write(tmp_path / "sim.json",
                 {**SIM_CFG, "seed": 0, "copula": {"family": "gumbel", "theta": theta}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().err == ""


# each family's largest theta whose Kendall tau is below 1 in double
# precision, and one past it, where tau rounds to 1
TAU_EDGES = [("gumbel", 9e15, 1e16), ("clayton", 1.8e16, 1.9e16), ("frank", 4e16, 1e17)]


@pytest.mark.parametrize("family, below, past", TAU_EDGES)
def test_simulate_copula_whose_tau_rounds_to_1_exit_2_before_any_draw(tmp_path, capsys, family, below, past):
    # tau = 1 matches no Clayton parameter: it was exit 3 after every draw,
    # with a message that named neither the copula nor theta
    for theta in (below, -1e17) if family == "frank" else (below,):
        cfg = _write(tmp_path / "sim.json", {**SIM_CFG, "seed": 0, "copula": {"family": family, "theta": theta}})
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / f"o{theta}"), "--quiet"]) == 0
    for theta in (past, 1e300):
        cfg = _write(tmp_path / "sim.json", {**SIM_CFG, "seed": 0, "copula": {"family": family, "theta": theta}})
        out = tmp_path / "past"
        with mock.patch("depaft.simulate.draw_margins", side_effect=AssertionError("drew")):
            assert main(["simulate", "--config", cfg, "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == (f"config error: {family} copula theta {theta!r} has a Kendall tau "
                                           "that rounds to 1; no Clayton parameter matches it\n")
        assert not out.exists()


@pytest.mark.parametrize("theta", [5e-309, 1e-310, 5e-324])
def test_simulate_clayton_theta_whose_inverse_overflows_exit_0(tmp_path, theta):
    cfg = _write(tmp_path / "sim.json",
                 {"n": 50, "c": 1.49, "seed": 0, "copula": {"family": "clayton", "theta": theta}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 0
    assert read_csv(tmp_path / "o" / "data.csv").n == 50


def test_simulate_times_out_of_the_float_range_exit_3_naming_c(tmp_path, capsys):
    cfg = _write(tmp_path / "sim.json", {**SIM_CFG, "n": 46, "seed": 0, "c": 1.6e308})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 3
    assert capsys.readouterr().err == ("data error: censoring times drawn with c, weibull_scale "
                                       "and weibull_shape must be positive and finite\n")


def test_train_predict_evaluate_pipeline(sim_dir, tmp_path, capsys):
    train_cfg = _write(tmp_path / "train.json", TRAIN_CFG)
    model_path = tmp_path / "model.json"
    assert main([
        "train", "--data", str(sim_dir / "data.csv"), "--config", train_cfg,
        "--out", str(model_path),
    ]) == 0
    printed = capsys.readouterr().out
    assert "final training loss" in printed

    preds_path = tmp_path / "preds.csv"
    assert main([
        "predict", "--model", str(model_path), "--data", str(sim_dir / "data.csv"),
        "--out", str(preds_path), "--quiet",
    ]) == 0
    log_pred, pred = read_predictions_csv(preds_path)
    assert np.allclose(pred, np.exp(log_pred), rtol=1e-15)

    # the printed final training loss is reproducible from the artifacts
    data = read_csv(sim_dir / "data.csv")
    model_doc = json.loads(model_path.read_text())
    loss = loss_from_config(model_doc["loss"])
    assert isinstance(loss, ClaytonAftLoss)
    final = float(np.mean(loss.loss(data.times, data.events, log_pred)))
    assert repr(final) in printed

    eval_dir = tmp_path / "eval"
    assert main([
        "evaluate", "--predictions", str(preds_path), "--data", str(sim_dir / "data.csv"),
        "--out", str(eval_dir), "--quiet",
    ]) == 0
    metrics = json.loads((eval_dir / "metrics.json").read_text())
    assert {"c_index", "mae", "event_mae", "n_rows", "n_events"} <= set(metrics)
    cal_lines = (eval_dir / "calibration.csv").read_text().strip().splitlines()
    assert cal_lines[0] == "horizon,predicted_proportion,observed_proportion"
    assert len(cal_lines) == 10  # 9 horizons by default


def test_evaluate_without_oracle_flags_warning(sim_dir, tmp_path):
    data = read_csv(sim_dir / "data.csv")
    bare = tmp_path / "bare.csv"
    from depaft.dataset import SurvivalDataset, write_csv

    write_csv(SurvivalDataset(data.times, data.events, data.X), bare)
    train_cfg = _write(tmp_path / "train.json", TRAIN_CFG)
    model_path = tmp_path / "model.json"
    main(["train", "--data", str(bare), "--config", train_cfg, "--out", str(model_path), "--quiet"])
    preds = tmp_path / "p.csv"
    main(["predict", "--model", str(model_path), "--data", str(bare), "--out", str(preds), "--quiet"])
    out = tmp_path / "eval"
    assert main(["evaluate", "--predictions", str(preds), "--data", str(bare),
                 "--out", str(out), "--quiet"]) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert "mae" not in metrics
    assert "warning" in metrics
    assert metrics["calibration_reference"] == "observed_time"


def test_evaluate_row_mismatch_exit_3(sim_dir, tmp_path):
    preds = tmp_path / "p.csv"
    preds.write_text("predicted_log_time,predicted_time\n0.0,1.0\n")
    out = tmp_path / "eval"
    assert main(["evaluate", "--predictions", str(preds), "--data", str(sim_dir / "data.csv"),
                 "--out", str(out), "--quiet"]) == 3


def test_evaluate_fewer_than_two_horizons_exit_2(sim_dir, tmp_path, capsys):
    preds = tmp_path / "p.csv"
    n = read_csv(sim_dir / "data.csv").n
    preds.write_text("predicted_log_time,predicted_time\n" + "0.0,1.0\n" * n)
    assert main(["evaluate", "--predictions", str(preds), "--data", str(sim_dir / "data.csv"),
                 "--horizons", "1", "--out", str(tmp_path / "eval"), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("config error: n_horizons must be >= 2")


def test_evaluate_more_than_100000_horizons_exit_2(sim_dir, tmp_path, capsys):
    # each horizon costs memory and time: a bound refuses 10^9 of them
    # before any is placed
    preds = tmp_path / "p.csv"
    n = read_csv(sim_dir / "data.csv").n
    preds.write_text("predicted_log_time,predicted_time\n" + "0.0,1.0\n" * n)
    for horizons in ("100001", "1000000000"):
        assert main(["evaluate", "--predictions", str(preds), "--data", str(sim_dir / "data.csv"),
                     "--horizons", horizons, "--out", str(tmp_path / "eval"), "--quiet"]) == 2
        assert capsys.readouterr().err.startswith("config error: n_horizons must be <= 100000")
    assert not (tmp_path / "eval").exists()


def test_evaluate_nan_prediction_exit_3(sim_dir, tmp_path, capsys):
    data = read_csv(sim_dir / "data.csv")
    rows = ["predicted_log_time,predicted_time"] + ["0.0,1.0"] * data.n
    rows[5] = "nan,nan"
    preds = tmp_path / "p.csv"
    preds.write_text("\n".join(rows) + "\n")
    assert main(["evaluate", "--predictions", str(preds), "--data", str(sim_dir / "data.csv"),
                 "--out", str(tmp_path / "eval"), "--quiet"]) == 3
    assert "NaN" in capsys.readouterr().err


@pytest.mark.parametrize("time", ["inf", "1e308"])
def test_evaluate_infinite_mae_exit_4(sim_dir, tmp_path, capsys, time):
    # an infinite predicted time, or times whose absolute errors sum past
    # the float range, make the MAEs infinite: a numeric error naming the
    # first, with no warning and nothing written
    n = read_csv(sim_dir / "data.csv").n
    preds = tmp_path / "p.csv"
    preds.write_text("predicted_log_time,predicted_time\n" + f"0.0,{time}\n" * n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evaluate", "--predictions", str(preds), "--data", str(sim_dir / "data.csv"),
                     "--out", str(tmp_path / "eval"), "--quiet"]) == 4
    assert capsys.readouterr().err == "numeric error: event_mae is not finite (inf)\n"
    assert not (tmp_path / "eval").exists()


def test_write_json_refuses_non_finite_numbers_before_opening(tmp_path):
    path = tmp_path / "out.json"
    for value in (float("inf"), -float("inf"), float("nan")):
        with pytest.raises(NumericError, match="non-finite"):
            cli._write_json({"a": [1.0, {"b": value}]}, path)
        assert not path.exists()


@pytest.mark.parametrize("command", ["evaluate-predictions", "evaluate-data", "predict-model",
                                     "predict-data", "train-data", "cv-data"])
def test_missing_input_file_exit_3(sim_dir, tmp_path, capsys, command):
    model = tmp_path / "model.json"
    main(["train", "--data", str(sim_dir / "data.csv"), "--config",
          _write(tmp_path / "train.json", TRAIN_CFG), "--out", str(model), "--quiet"])
    preds = tmp_path / "p.csv"
    main(["predict", "--model", str(model), "--data", str(sim_dir / "data.csv"),
          "--out", str(preds), "--quiet"])
    capsys.readouterr()
    missing = str(tmp_path / "absent")
    data = str(sim_dir / "data.csv")
    out = str(tmp_path / "out")
    argv = {
        "evaluate-predictions": ["evaluate", "--predictions", missing, "--data", data],
        "evaluate-data": ["evaluate", "--predictions", str(preds), "--data", missing],
        "predict-model": ["predict", "--model", missing, "--data", data],
        "predict-data": ["predict", "--model", str(model), "--data", missing],
        "train-data": ["train", "--data", missing, "--config", str(tmp_path / "train.json")],
        "cv-data": ["cv", "--data", missing, "--config", str(tmp_path / "train.json")],
    }[command]
    assert main(argv + ["--out", out, "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error: cannot read") and missing in err


@pytest.mark.parametrize("command", ["simulate", "train", "predict", "evaluate", "cv", "study"])
def test_unwritable_out_exit_2(sim_dir, tmp_path, monkeypatch, capsys, command):
    # a file path under a missing directory, or a directory under a file
    monkeypatch.setattr(cli, "usable_cpus", lambda: 1)
    data = str(sim_dir / "data.csv")
    train_cfg = _write(tmp_path / "train.json", TRAIN_CFG)
    model, preds = str(tmp_path / "model.json"), str(tmp_path / "p.csv")
    assert main(["train", "--data", data, "--config", train_cfg, "--out", model, "--quiet"]) == 0
    assert main(["predict", "--model", model, "--data", data, "--out", preds, "--quiet"]) == 0
    (tmp_path / "afile").write_text("")
    under_file = str(tmp_path / "afile" / "sub")
    argv, out = {
        "simulate": (["--config", _write(tmp_path / "sim.json", SIM_CFG)], under_file),
        "train": (["--data", data, "--config", train_cfg], str(tmp_path / "nodir" / "m.json")),
        "predict": (["--model", model, "--data", data], str(tmp_path / "nodir" / "p.csv")),
        "evaluate": (["--predictions", preds, "--data", data], under_file),
        "cv": (["--data", data, "--config",
                _write(tmp_path / "cv.json", {**TRAIN_CFG, "cv": CV_CFG})], under_file),
        "study": (["--config", _write(tmp_path / "study.json", {"study": 1, "repetitions": 1})],
                  under_file),
    }[command]
    capsys.readouterr()
    assert main([command, *argv, "--out", out, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["simulate", "train", "cv", "study"])
def test_config_that_is_a_directory_exit_2(sim_dir, tmp_path, capsys, command):
    data = ["--data", str(sim_dir / "data.csv")] if command in ("train", "cv") else []
    capsys.readouterr()
    argv = [command, *data, "--config", str(tmp_path), "--out", str(tmp_path / "o"), "--quiet"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot read config file {tmp_path}: Is a directory\n"
    )


def test_config_that_is_not_utf8_exit_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe{}")
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}: malformed config file: ") and err.count("\n") == 1


def test_json_nested_too_deep_is_malformed_not_a_traceback(sim_dir, tmp_path, capsys):
    # json.load raises RecursionError, which used to escape as a traceback
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    out = str(tmp_path / "o")
    for argv, code, err in (
        (["simulate", "--config", str(deep)], 2, f"config error: {deep}: malformed config file: "),
        (["predict", "--model", str(deep), "--data", str(sim_dir / "data.csv")], 3,
         f"data error: {deep}: malformed model file: "),
    ):
        capsys.readouterr()
        assert main(argv + ["--out", out, "--quiet"]) == code
        got = capsys.readouterr().err
        assert got.startswith(err) and got.count("\n") == 1


def test_train_reports_its_loss_without_walking_a_tree(sim_dir, tmp_path, monkeypatch, capsys):
    # the final training loss is that of the fit's carried prediction:
    # no tree of the model is walked again (the pipeline test checks the
    # printed loss against the model's own prediction)
    calls = []
    tree_predict = booster.RegressionTree.predict

    def counted(tree, X):
        calls.append(X.shape[0])
        return tree_predict(tree, X)

    monkeypatch.setattr(booster.RegressionTree, "predict", counted)
    cfg = _write(tmp_path / "train.json", TRAIN_CFG)
    assert main(["train", "--data", str(sim_dir / "data.csv"), "--config", cfg,
                 "--out", str(tmp_path / "m.json")]) == 0
    assert f"trained {TRAIN_CFG['train']['rounds']} rounds" in capsys.readouterr().out
    assert calls == []


@pytest.mark.parametrize("command", ["train", "cv"])
def test_config_without_a_loss_section_exit_2_and_writes_nothing(sim_dir, tmp_path, capsys, command):
    cfg = _write(tmp_path / "t.json", {"train": TRAIN_CFG["train"]})
    out = tmp_path / "out"
    assert main([command, "--data", str(sim_dir / "data.csv"), "--config", cfg, "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == "config error: train config requires a 'loss' section\n"
    assert not out.exists()


def test_train_unknown_loss_exit_2(sim_dir, tmp_path):
    cfg = _write(tmp_path / "t.json", {"loss": {"loss": "coxph"}})
    assert main(["train", "--data", str(sim_dir / "data.csv"), "--config", cfg,
                 "--out", str(tmp_path / "m.json"), "--quiet"]) == 2


@pytest.mark.parametrize("loss_field, value", [("event_baseline", "x"), ("loss", "coxph")])
def test_predict_malformed_model_loss_exit_3(sim_dir, tmp_path, capsys, loss_field, value):
    model = tmp_path / "model.json"
    main(["train", "--data", str(sim_dir / "data.csv"), "--config",
          _write(tmp_path / "train.json", TRAIN_CFG), "--out", str(model), "--quiet"])
    doc = json.loads(model.read_text())
    doc["loss"][loss_field] = value
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--data", str(sim_dir / "data.csv"),
                 "--out", str(tmp_path / "p.csv"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(model) in err and "'loss'" in err


def test_train_corrupt_csv_exit_3(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,event,x1\n1.0,1,0.5\noops,1,0.5\n")
    cfg = _write(tmp_path / "t.json", TRAIN_CFG)
    assert main(["train", "--data", str(bad), "--config", cfg,
                 "--out", str(tmp_path / "m.json"), "--quiet"]) == 3


def test_train_csv_that_is_not_utf8_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"time,event,x1\n1.0,1,0.5\n2.0,0,0.\xff\n")
    cfg = _write(tmp_path / "t.json", TRAIN_CFG)
    assert main(["train", "--data", str(bad), "--config", cfg,
                 "--out", str(tmp_path / "m.json"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}: ") and err.count("\n") == 1


def test_predict_model_that_is_not_utf8_exit_3(sim_dir, tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_bytes(b"\xff\xfe{}")
    assert main(["predict", "--model", str(model), "--data", str(sim_dir / "data.csv"),
                 "--out", str(tmp_path / "p.csv"), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {model}: malformed model file: ") and err.count("\n") == 1


def test_predict_model_that_is_a_json_array_exit_3(sim_dir, tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text("[1, 2]")
    out = tmp_path / "p.csv"
    assert main(["predict", "--model", str(model), "--data", str(sim_dir / "data.csv"),
                 "--out", str(out), "--quiet"]) == 3
    assert capsys.readouterr().err == f"data error: {model}: model file must hold a JSON object\n"
    assert not out.exists()


def test_config_and_model_files_read_past_a_bom(sim_dir, tmp_path):
    # both used to be refused as malformed JSON
    bom = b"\xef\xbb\xbf"
    sim = tmp_path / "sim.json"
    sim.write_bytes(bom + json.dumps(SIM_CFG).encode())
    assert main(["simulate", "--config", str(sim), "--out", str(tmp_path / "sim"), "--quiet"]) == 0
    assert (tmp_path / "sim" / "data.csv").read_bytes() == (sim_dir / "data.csv").read_bytes()

    data = str(sim_dir / "data.csv")
    model, bom_model = tmp_path / "model.json", tmp_path / "bom_model.json"
    assert main(["train", "--data", data, "--config", _write(tmp_path / "train.json", TRAIN_CFG),
                 "--out", str(model), "--quiet"]) == 0
    bom_model.write_bytes(bom + model.read_bytes())
    for path in (model, bom_model):
        assert main(["predict", "--model", str(path), "--data", data,
                     "--out", str(path.with_suffix(".csv")), "--quiet"]) == 0
    assert model.with_suffix(".csv").read_bytes() == bom_model.with_suffix(".csv").read_bytes()


def test_config_with_a_non_ascii_unknown_key_names_it_in_any_locale(tmp_path, capsys):
    # the config is UTF-8 whatever the locale: under an ASCII locale it
    # used to be refused as malformed JSON
    cfg = tmp_path / "sim.json"
    cfg.write_bytes(json.dumps({**SIM_CFG, "größe": 3}, ensure_ascii=False).encode("utf-8"))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown simulate config fields: ") and "größe" in err


@pytest.mark.parametrize("field, value", [("base_score", 800.0), ("base_score", 1e308),
                                          ("learning_rate", 1e308)])
def test_predict_overflowing_model_exit_4_without_warnings(sim_dir, tmp_path, capsys, field, value):
    # used to print numpy overflow warnings and write inf rows, exit 0
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(sim_dir / "data.csv"), "--config",
                 _write(tmp_path / "train.json", TRAIN_CFG), "--out", str(model), "--quiet"]) == 0
    doc = json.loads(model.read_text())
    model.write_text(json.dumps({**doc, field: value}))
    preds = tmp_path / "p.csv"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["predict", "--model", str(model), "--data", str(sim_dir / "data.csv"),
                     "--out", str(preds), "--quiet"]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"numeric error: {model}: non-finite") and err.count("\n") == 1
    assert not preds.exists()


@pytest.mark.parametrize("value", [-800.0, -1e308])
def test_predict_underflowing_model_exit_4_without_warnings(sim_dir, tmp_path, capsys, value):
    # a log time below about -745 used to write a predicted time of 0.0, exit 0
    model = tmp_path / "model.json"
    assert main(["train", "--data", str(sim_dir / "data.csv"), "--config",
                 _write(tmp_path / "train.json", TRAIN_CFG), "--out", str(model), "--quiet"]) == 0
    doc = json.loads(model.read_text())
    model.write_text(json.dumps({**doc, "base_score": value}))
    preds = tmp_path / "p.csv"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["predict", "--model", str(model), "--data", str(sim_dir / "data.csv"),
                     "--out", str(preds), "--quiet"]) == 4
    err = capsys.readouterr().err
    assert err == f"numeric error: {model}: predicted time underflows to 0\n"
    assert not preds.exists()


def test_predict_feature_mismatch_exit_3(sim_dir, tmp_path):
    train_cfg = _write(tmp_path / "train.json", TRAIN_CFG)
    model_path = tmp_path / "model.json"
    main(["train", "--data", str(sim_dir / "data.csv"), "--config", train_cfg,
          "--out", str(model_path), "--quiet"])
    narrow = tmp_path / "narrow.csv"
    narrow.write_text("time,event,x1\n1.0,1,0.5\n2.0,0,0.25\n")
    assert main(["predict", "--model", str(model_path), "--data", str(narrow),
                 "--out", str(tmp_path / "p.csv"), "--quiet"]) == 3


def test_predict_cyclic_model_exit_3(sim_dir, tmp_path):
    # a node that is its own child used to send predict into an endless loop
    model = tmp_path / "cyclic.json"
    model.write_text(json.dumps({
        "format_version": 1, "base_score": 0.0, "learning_rate": 0.1, "n_features": 10,
        "loss": TRAIN_CFG["loss"],
        "trees": [{"nodes": [{"id": 0, "split_feature": 0, "threshold": 0.5, "left": 0,
                              "right": 0, "default_direction": "left"}]}],
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "depaft.cli", "predict", "--model", str(model),
         "--data", str(sim_dir / "data.csv"), "--out", str(tmp_path / "p.csv")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3, proc.stderr


def test_cv_single_point_and_grid(sim_dir, tmp_path):
    cfg = _write(
        tmp_path / "cv.json",
        {
            **TRAIN_CFG,
            "cv": {"folds": 2, "max_rounds": 20, "checkpoint_stride": 10,
                    "theta_grid": [1.1, 1.3, 1.5, 1.8, 2.0], "seed": 1},
        },
    )
    out = tmp_path / "cv"
    assert main(["cv", "--data", str(sim_dir / "data.csv"), "--config", cfg,
                 "--out", str(out), "--quiet"]) == 0
    result = json.loads((out / "cv_results.json").read_text())
    assert result["selection_metric"] == "c_index"
    assert {p["theta"] for p in result["points"]} == {1.1, 1.3, 1.5, 1.8, 2.0}
    for p in result["points"]:
        assert len(p["fold_scores"]) == 2
    assert (out / "model.json").exists()


CV_CFG = {"folds": 3, "max_rounds": 20, "checkpoint_stride": 5, "theta_grid": [1.5, 3.0], "seed": 1}


def _cv(sim_dir, tmp_path, cv=CV_CFG):
    cfg = _write(tmp_path / "cv.json", {**TRAIN_CFG, "cv": cv})
    return main(["cv", "--data", str(sim_dir / "data.csv"), "--config", cfg,
                 "--out", str(tmp_path / "cv"), "--quiet"])


_GROW = booster.Boosting.grow


def _grow_fails_in_a_pool_process(fit, rounds):
    if multiprocessing.parent_process() is not None:
        raise NumericError("fold fit broke down")
    return _GROW(fit, rounds)


def test_fold_fit_numeric_error_crosses_the_pool_exit_4(sim_dir, tmp_path, monkeypatch, capfd):
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    monkeypatch.setattr(booster.Boosting, "grow", _grow_fails_in_a_pool_process)
    # forked pool processes inherit the patched grow; a forkserver or
    # spawn process (the default on some platforms) imports the real one
    monkeypatch.setattr(parallel, "ProcessPoolExecutor",
                        functools.partial(parallel.ProcessPoolExecutor,
                                          mp_context=multiprocessing.get_context("fork")))
    capfd.readouterr()
    assert _cv(sim_dir, tmp_path) == 4
    err = capfd.readouterr().err
    assert err == "numeric error: fold fit broke down\n"
    assert not (tmp_path / "cv").exists()


# sizes no allocator can grant, past the 128 TiB of a 48-bit address
# space, so each refusal comes at once: 10**15 rows of 10 covariates, and
# 10**18 checkpoints of 8-byte list slots
_HUGE_ROWS = 10**15
_HUGE_ROUNDS = {"max_rounds": 10**18, "checkpoint_stride": 1}


def _assert_out_of_memory(code, err):
    assert code == 4
    assert err.startswith("out of memory") and err.count("\n") == 1, err


def test_simulate_past_memory_exit_4(tmp_path, capsys):
    cfg = _write(tmp_path / "sim.json", {**SIM_CFG, "n": _HUGE_ROWS})
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"])
    _assert_out_of_memory(code, capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


def test_cv_checkpoints_past_the_bound_exit_2(sim_dir, tmp_path, monkeypatch, capsys):
    # 10^18 checkpoints used to run out of memory listing the schedule
    monkeypatch.setattr(cli, "usable_cpus", lambda: 1)
    capsys.readouterr()
    assert _cv(sim_dir, tmp_path, {**CV_CFG, **_HUGE_ROUNDS}) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cv config fields 'max_rounds' / 'checkpoint_stride'")
    assert err.count("\n") == 1
    assert not (tmp_path / "cv").exists()


def test_study_checkpoints_past_the_bound_exit_2(tmp_path, capsys):
    cfg = _write(tmp_path / "study.json", {"study": 2, "repetitions": 1, "n_train": 30,
                                           "n_test": 30, **_HUGE_ROUNDS})
    assert main(["study", "--config", cfg, "--out", str(tmp_path / "st"), "--threads", "1",
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cv config fields 'max_rounds' / 'checkpoint_stride'")
    assert not (tmp_path / "st").exists()


@pytest.mark.parametrize("bad_theta", [0.0, -1.0])
def test_cv_bad_theta_grid_entry_exits_2_before_any_pool(sim_dir, tmp_path, monkeypatch, capsys,
                                                        bad_theta):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
    capsys.readouterr()
    assert _cv(sim_dir, tmp_path, {**CV_CFG, "theta_grid": [2.0, bad_theta]}) == 2
    err = capsys.readouterr().err
    assert f"clayton loss config field 'theta' must be > 0, got {bad_theta!r}" in err


def test_cli_via_subprocess(tmp_path):
    # the installed console entry point works end to end
    cfg = tmp_path / "sim.json"
    cfg.write_text(json.dumps({**SIM_CFG, "n": 50}))
    proc = subprocess.run(
        [sys.executable, "-m", "depaft.cli", "simulate", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "data.csv").exists()


def _fresh(code: str, *args: str) -> str:
    """Standard output of `code` run in a new interpreter that imports
    depaft from the same source tree as this process."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_scipy_solvers():
    # integrate, optimize, linalg and sparse would add their import time
    # to every command
    heavy = ("scipy.integrate", "scipy.optimize", "scipy.linalg", "scipy.sparse")
    assert _fresh(f"import sys, depaft; print([m for m in {heavy!r} if m in sys.modules])") == "[]"


SCIPY_LOADED = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"


def test_import_loads_no_scipy():
    # scipy.special loads on the first normal or logistic margin or Frank
    # tau, never at import
    assert _fresh("import sys, depaft; " + SCIPY_LOADED) == "[]"


def test_extreme_clayton_pipeline_never_loads_scipy(tmp_path):
    cv = {"folds": 2, "max_rounds": 10, "checkpoint_stride": 5, "theta_grid": [1.5, 3.0]}
    sim = _write(tmp_path / "sim.json", {**SIM_CFG, "n": 200})
    train = _write(tmp_path / "train.json",
                   {**TRAIN_CFG, "train": {**TRAIN_CFG["train"], "rounds": 10}, "cv": cv})
    d = str(tmp_path)
    script = "\n".join([
        "import sys",
        "from depaft.cli import main",
        "sim, train, d = sys.argv[1:]",
        "for argv in (",
        "    ['simulate', '--config', sim, '--out', d + '/sim'],",
        "    ['train', '--data', d + '/sim/data.csv', '--config', train, '--out', d + '/m.json'],",
        "    ['predict', '--model', d + '/m.json', '--data', d + '/sim/data.csv',",
        "     '--out', d + '/p.csv'],",
        "    ['evaluate', '--predictions', d + '/p.csv', '--data', d + '/sim/data.csv',",
        "     '--out', d + '/eval'],",
        "    ['cv', '--data', d + '/sim/data.csv', '--config', train, '--out', d + '/cv'],",
        "):",
        "    assert main(argv + ['--quiet']) == 0, argv[0]",
        SCIPY_LOADED,
    ])
    assert _fresh(script, sim, train, d) == "[]"
    assert (tmp_path / "cv" / "model.json").exists()


def test_lazily_loaded_scipy_gives_the_same_bits():
    # Frank tau and a normal-margin grad/Hessian from a new interpreter,
    # where scipy.special loads on this first use, against this process
    from depaft import CopulaSpec, kendall_tau

    loss_cfg = {**TRAIN_CFG["loss"], "event_baseline": {"family": "normal", "sigma": 0.5},
                "censor_baseline": {"family": "normal", "sigma": 0.8}}
    script = "\n".join([
        "import numpy as np",
        "from depaft import CopulaSpec, kendall_tau",
        "from depaft.loss import loss_from_config",
        "print(kendall_tau(CopulaSpec('frank', 7.5)).hex())",
        f"loss = loss_from_config({loss_cfg!r})",
        "t = np.linspace(0.2, 3.0, 7); d = np.array([1, 0, 1, 1, 0, 0, 1])",
        "g, h = loss.grad_hess(t, d, np.linspace(-2.0, 2.0, 7))",
        "print(g.tobytes().hex(), h.tobytes().hex())",
    ])
    tau_hex, grads = _fresh(script).split("\n")
    assert tau_hex == kendall_tau(CopulaSpec("frank", 7.5)).hex()
    loss = loss_from_config(loss_cfg)
    t = np.linspace(0.2, 3.0, 7)
    g, h = loss.grad_hess(t, np.array([1, 0, 1, 1, 0, 0, 1]), np.linspace(-2.0, 2.0, 7))
    assert grads == f"{g.tobytes().hex()} {h.tobytes().hex()}"


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])  # missing required flags
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flag", [
    ("simulate", "--threads"), ("train", "--threads"), ("predict", "--threads"),
    ("evaluate", "--threads"), ("cv", "--threads"), ("train", "--seed"), ("predict", "--seed"),
    ("evaluate", "--seed"),
])
def test_flags_a_command_does_not_read_are_usage_errors(command, flag, capsys):
    # only study reads --threads; train, predict and evaluate never read --seed
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert flag not in capsys.readouterr().out
    required = {
        "simulate": ["--config", "c.json"],
        "train": ["--data", "d.csv", "--config", "c.json"],
        "predict": ["--model", "m.json", "--data", "d.csv"],
        "evaluate": ["--predictions", "p.csv", "--data", "d.csv"],
        "cv": ["--data", "d.csv", "--config", "c.json"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, "--out", "out", flag, "1"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, keys, value",
    [
        ("simulate", ("n",), "abc"),
        ("simulate", ("copula", "theta"), "x"),
        ("cv", ("loss", "event_baseline", "sigma"), "a"),
        ("train", ("train", "learning_rate"), "0.1"),
    ],
)
def test_non_numeric_config_field_exit_2(sim_dir, tmp_path, capsys, command, keys, value):
    err = _config_error(sim_dir, tmp_path, capsys, command, keys, value)
    assert keys[-1] in err and repr(value) in err


def _config_error(sim_dir, tmp_path, capsys, command, keys, value) -> str:
    """Run `command` with the config field at path `keys` set to value;
    assert exit 2 and return the config error message."""
    cv = {"folds": 2, "max_rounds": 10, "checkpoint_stride": 5}
    cfg = json.loads(json.dumps(SIM_CFG if command == "simulate" else {**TRAIN_CFG, "cv": cv}))
    section = cfg
    for key in keys[:-1]:
        section = section[key]
    section[keys[-1]] = value
    argv = [command, "--config", _write(tmp_path / "cfg.json", cfg)]
    if command != "simulate":
        argv += ["--data", str(sim_dir / "data.csv")]
    capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "out"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    return err


@pytest.mark.parametrize(
    "command, keys, value",
    [
        ("simulate", ("copula",), 5),
        ("train", ("loss",), 5),
        ("train", ("loss", "event_baseline"), "x"),
        ("cv", ("loss", "censor_baseline"), [0.5]),
        ("train", ("train",), 5),
        ("cv", ("cv",), "folds"),
    ],
)
def test_config_section_not_an_object_exit_2(sim_dir, tmp_path, capsys, command, keys, value):
    err = _config_error(sim_dir, tmp_path, capsys, command, keys, value)
    assert "must be an object" in err and repr(value) in err


@pytest.mark.parametrize("command, key", [("train", "trian"), ("cv", "cvv")])
def test_unknown_config_section_exit_2(sim_dir, tmp_path, capsys, command, key):
    # a misspelt section used to be ignored: train grew the default 100
    # rounds and exited 0
    err = _config_error(sim_dir, tmp_path, capsys, command, (key,), {"rounds": 3})
    assert err == f"config error: unknown config sections: [{key!r}]\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "study"])
def test_config_file_not_an_object_exit_2(tmp_path, command):
    argv = [command, "--config", _write(tmp_path / "cfg.json", [SIM_CFG])]
    assert main(argv + ["--out", str(tmp_path / "out"), "--quiet"]) == 2


def test_negative_seed_exit_2(sim_dir, tmp_path, capsys):
    cv_cfg = _write(tmp_path / "cv.json", {**TRAIN_CFG, "cv": {"folds": 2, "max_rounds": 10}})
    study_cfg = _write(tmp_path / "study.json", {"study": 1, "repetitions": 1, "seed": -1})
    for argv in (
        ["simulate", "--config", _write(tmp_path / "sim.json", {**SIM_CFG, "seed": -1})],
        ["cv", "--data", str(sim_dir / "data.csv"), "--config", cv_cfg, "--seed", "-1"],
        ["study", "--config", study_cfg],
    ):
        capsys.readouterr()
        assert main(argv + ["--out", str(tmp_path / "out"), "--quiet"]) == 2, argv[0]
        assert "field 'seed' must be >= 0, got -1" in capsys.readouterr().err


# SHA-256 of each file the pipeline below writes.  data.csv dates from the
# per-row csv-module writer; preds.csv and metrics.json were re-recorded
# when the loss moved to log-space closed forms, which kept every tree's
# splits and moved leaf weights by at most 6.4e-14 relative.  model.json
# was re-recorded again when save() moved to json.dumps: floats are now
# written as repr instead of at 17 significant digits, and the file loads
# back to the same bits.  calibration.csv was recorded from evaluate's own
# csv.writer, before it moved onto dataset.write_rows.  Any change to
# these bytes must be deliberate.  One set per numpy dispatch level
# (tests/pins.py).
PINNED_SHA256 = {
    "X86_V4": {
        "data.csv": "77cbca432fb8a0f5b583c82efc021f940aa6209d83b61f374c6bd5aa8afa3c4b",
        "model.json": "4e50f8456b8f5ad591cd0728844277e1f40fd09d8758edd5f175081c4bd5709a",
        "preds.csv": "a57785377d8670036ef9ea87a6f0cf2c8264c63e3b28f08fb6cd3295e978681a",
        "metrics.json": "0022893b90d7da5fbec9190d5fa88dd2ea4e160b998d6b178512b57a2cee2f05",
        "calibration.csv": "d8f8a08e7d9db215045b3018d4347f84f8e75846697cab4ac19581eb55718987",
    },
    "X86_V3": {
        "data.csv": "ef118fbe0d7e9eb96e313f75031b85e01941c02ffbf138d43d06af3353ffcf09",
        "model.json": "efdf5bf119e3b988ece7fa541c3048e7af27080fc36e2481ecaac86aa1336dec",
        "preds.csv": "94c9222ab91f9e97bc368a3c0985df68fcaffb5467586271d5efa92755c88e27",
        "metrics.json": "0022893b90d7da5fbec9190d5fa88dd2ea4e160b998d6b178512b57a2cee2f05",
        "calibration.csv": "d8f8a08e7d9db215045b3018d4347f84f8e75846697cab4ac19581eb55718987",
    },
}


@pytest.mark.pinned
def test_pipeline_output_bytes_are_pinned(tmp_path):
    sim = _write(tmp_path / "sim.json", {**SIM_CFG, "n": 300})
    train_cfg = _write(tmp_path / "train.json",
                       {**TRAIN_CFG, "train": {**TRAIN_CFG["train"], "rounds": 30}})
    pinned = pin(PINNED_SHA256)
    paths = {name: tmp_path / name for name in pinned}
    paths["data.csv"] = tmp_path / "sim" / "data.csv"
    paths["metrics.json"] = tmp_path / "eval" / "metrics.json"
    paths["calibration.csv"] = tmp_path / "eval" / "calibration.csv"
    data = str(paths["data.csv"])
    for argv in (
        ["simulate", "--config", sim, "--out", str(tmp_path / "sim")],
        ["train", "--data", data, "--config", train_cfg, "--out", str(paths["model.json"])],
        ["predict", "--model", str(paths["model.json"]), "--data", data,
         "--out", str(paths["preds.csv"])],
        ["evaluate", "--predictions", str(paths["preds.csv"]), "--data", data,
         "--out", str(tmp_path / "eval")],
    ):
        assert main(argv + ["--quiet"]) == 0
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in paths.items()}
    assert digests == pinned


# SHA-256 of the files `depaft cv` writes for a 2-value theta grid and 3
# folds, recorded when the fold fits still ran one after another in this
# process.  cv now maps them over a pool of up to one process per usable
# CPU, and its bytes must not depend on that count.  One set per numpy
# dispatch level (tests/pins.py).
CV_PINNED_SHA256 = {
    "X86_V4": {
        "cv_results.json": "e0092bbc72ac38ae37c8e7fecfd1b12c024f9ab2bfa1d1c0ab2d59653ec2e0cf",
        "model.json": "30bce04afd8e7dd3c66b28087676e9d33659e1f0ddf7f3b2260801444ec6b884",
    },
    "X86_V3": {
        "cv_results.json": "f77aca9d1c2fd15a1d9ca16e386e4962421d0a7fdf805d3bd211080ac0875c27",
        "model.json": "94d215c36a952d95cd216ddc581a5a4a7c5daaaab76ead1ae02ab559f769d212",
    },
}


@pytest.mark.pinned
def test_cv_output_bytes_are_pinned(sim_dir, tmp_path):
    assert _cv(sim_dir, tmp_path) == 0
    pinned = pin(CV_PINNED_SHA256)
    digests = {
        name: hashlib.sha256((tmp_path / "cv" / name).read_bytes()).hexdigest()
        for name in pinned
    }
    assert digests == pinned


# -- fuzz of the train section -------------------------------------------------

_JUNK = st.one_of(st.booleans(), st.none(), st.text(max_size=5).filter(lambda s: s != "auto"),
                  st.lists(st.integers(), max_size=2))
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), -float("inf")])
_FRACTION = st.floats(-1e3, 1e3).map(lambda x: x + 0.5 if x.is_integer() else x)
_BAD_COUNT = st.one_of(_JUNK, _NON_FINITE, _FRACTION, st.integers(max_value=0),
                       st.integers(min_value=2**63))
_BAD_PENALTY = st.one_of(_JUNK, _NON_FINITE, st.floats(min_value=5e-324).map(lambda x: -x))
_PENALTY = st.floats(0.0, 1e3)

# (valid values, invalid values) of each train field; rounds stays small,
# and max_depth reaches far past any depth 30 rows can grow to
_TRAIN_FIELDS = {
    "rounds": (st.integers(1, 3), _BAD_COUNT),
    "max_depth": (st.integers(1, 2**62), _BAD_COUNT),
    "learning_rate": (st.floats(0.0, 1.0, exclude_min=True),
                      st.one_of(_JUNK, _NON_FINITE, st.floats(max_value=0.0),
                                st.floats(min_value=1.0, exclude_min=True))),
    "lambda": (_PENALTY, _BAD_PENALTY),
    "gamma": (_PENALTY, _BAD_PENALTY),
    "min_child_weight": (_PENALTY, _BAD_PENALTY),
    "base_score": (st.one_of(st.just("auto"), st.floats(-1e3, 1e3)), st.one_of(_JUNK, _NON_FINITE)),
}


@st.composite
def _train_sections(draw):
    """(train section, whether it is valid): some fields given, and none,
    one or several of them drawn invalid, or a key that names no field.
    rounds is always given, so no example falls back to 100 rounds."""
    names = ["rounds"] + [name for name in list(_TRAIN_FIELDS)[1:] if draw(st.booleans())]
    bad = draw(st.one_of(st.just(set()), st.sets(st.sampled_from(names + ["seed"]), min_size=1)))
    section = {name: draw(_TRAIN_FIELDS[name][name in bad]) for name in names}
    if "seed" in bad:
        section["seed"] = draw(st.integers())
    return section, not bad


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    sim = _write(root / "sim.json", {**SIM_CFG, "n": 30})
    assert main(["simulate", "--config", sim, "--out", str(root / "sim"), "--quiet"]) == 0
    return root


@given(drawn=st.one_of(_train_sections(), _JUNK.map(lambda junk: (junk, False))))
# leaf weights near -9600 make the final training loss overflow
@example(drawn=({"rounds": 1, "lambda": 0.0, "gamma": 0.0, "min_child_weight": 0.0,
                 "base_score": 3.0}, True))
@settings(max_examples=150, deadline=2000)
def test_fuzzed_train_section_exits_with_a_documented_code(fuzz_dir, drawn):
    # a train section with each field drawn valid or invalid, or one that
    # is not an object at all: an invalid one is a config error (exit 2)
    # and a valid one trains, or fails numerically (exit 4) and leaves no
    # model file; never a traceback, whatever max_depth is
    section, valid = drawn
    cfg = _write(fuzz_dir / "train.json", {"loss": TRAIN_CFG["loss"], "train": section})
    model = fuzz_dir / "model.json"
    model.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["train", "--data", str(fuzz_dir / "sim" / "data.csv"), "--config", cfg,
                     "--out", str(model), "--quiet"])
    event(f"exit {code}")
    assert code in ((0, 4) if valid else (2,)), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert model.exists() == (code == 0)
    if code == 0:
        assert booster.load(model).n_rounds == section["rounds"]


# -- fuzz of the loss section -------------------------------------------------

_BASELINE_FAMILIES = ("extreme", "normal", "logistic")
_LOSS_THETA = st.one_of(st.floats(0.1, 10.0),
                        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
_LOSS_BAD_THETA = st.one_of(_JUNK, _NON_FINITE, st.floats(max_value=0.0))
_SIGMA = st.one_of(st.floats(0.1, 3.0), st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
_BAD_SIGMA = st.one_of(_JUNK, _NON_FINITE, st.floats(max_value=0.0))


@st.composite
def _baselines(draw, valid):
    """A baseline section, valid or not: a family and a sigma, or, when
    invalid, one or both of them bad, one missing, an extra key or no
    object at all."""
    section = {"family": draw(st.sampled_from(_BASELINE_FAMILIES)), "sigma": draw(_SIGMA)}
    if valid:
        return section
    how = draw(st.sets(st.sampled_from(["family", "sigma", "missing", "extra", "junk"]), min_size=1))
    if "junk" in how:
        return draw(_JUNK)
    if "family" in how:
        section["family"] = draw(st.one_of(_JUNK, st.sampled_from(["gumbel", "Normal", " extreme"])))
    if "sigma" in how:
        section["sigma"] = draw(_BAD_SIGMA)
    if "missing" in how:
        del section[draw(st.sampled_from(sorted(section)))]
    if "extra" in how:
        section["scale"] = draw(_SIGMA)
    return section


@st.composite
def _loss_sections(draw):
    """(loss section, whether it is valid): a clayton or independent loss
    whose theta and baselines are each drawn valid or invalid, or whose
    tag is unknown, not a string or missing, with a required field left
    out, or with a key no loss has (theta or censor_baseline for the
    independent loss, among them)."""
    tag = draw(st.sampled_from(["clayton", "independent"]))
    names = ["event_baseline"] + (["theta", "censor_baseline"] if tag == "clayton" else [])
    bad = draw(st.one_of(st.just(set()),
                         st.sets(st.sampled_from(names + ["tag", "missing", "extra"]), min_size=1)))
    section = {"loss": tag}
    for name in names:
        if name == "theta":
            section[name] = draw(_LOSS_BAD_THETA if name in bad else _LOSS_THETA)
        else:
            section[name] = draw(_baselines(valid=name not in bad))
    if "tag" in bad:
        tag = draw(st.one_of(_JUNK, st.sampled_from(["Clayton", "gumbel", "frank"]), st.just(None)))
        if tag is None:
            del section["loss"]
        else:
            section["loss"] = tag
    if "missing" in bad:
        del section[draw(st.sampled_from(names))]
    if "extra" in bad:
        key = draw(st.sampled_from(["seed", "sigma"] + (["theta", "censor_baseline"]
                                                         if tag == "independent" else [])))
        section[key] = draw(st.one_of(_JUNK, _LOSS_THETA, _baselines(valid=True)))
    return section, not bad


@given(drawn=st.one_of(_loss_sections(), _JUNK.map(lambda junk: (junk, False))))
@settings(max_examples=200, deadline=2000)
def test_fuzzed_loss_section_exits_with_a_documented_code(fuzz_dir, drawn):
    # a loss section with its tag, theta and baselines drawn valid or
    # invalid, or one that is not an object at all: an invalid one is a
    # config error (exit 2); a valid one trains (2 rounds), or its
    # residuals or predictions leave the float range (exit 3 or 4) and it
    # leaves no model file; never a traceback or a warning
    section, valid = drawn
    cfg = _write(fuzz_dir / "loss.json", {"loss": section, "train": {"rounds": 2, "max_depth": 2}})
    model = fuzz_dir / "loss-model.json"
    model.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["train", "--data", str(fuzz_dir / "sim" / "data.csv"), "--config", cfg,
                     "--out", str(model), "--quiet"])
    event(f"exit {code}")
    assert code in ((0, 3, 4) if valid else (2,)), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert model.exists() == (code == 0)
    if code == 0:
        assert booster.load(model).loss_config == section


# -- fuzz of the cv section ----------------------------------------------------

_THETA = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_BAD_THETA = st.one_of(st.booleans(), st.none(), st.text(max_size=5), _NON_FINITE,
                       st.floats(max_value=0.0))
# (valid values, invalid values) of each cv field; max_rounds stays
# small, and folds and checkpoint_stride reach past what 30 rows and 6
# rounds can use
_CV_FIELDS = {
    "folds": (st.one_of(st.integers(2, 5), st.integers(2, 2**62)),
              st.one_of(_BAD_COUNT, st.just(1))),
    "max_rounds": (st.integers(1, 6), _BAD_COUNT),
    "checkpoint_stride": (st.integers(1, 2**62), _BAD_COUNT),
    "theta_grid": (st.one_of(st.none(), st.lists(_THETA, min_size=1, max_size=3)),
                   st.one_of(st.just([]), st.booleans(), st.text(max_size=5), _THETA,
                             st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
                             st.lists(_THETA, max_size=2).flatmap(
                                 lambda grid: _BAD_THETA.map(lambda bad: grid + [bad])))),
    "seed": (st.integers(0, 2**63 - 1),
             st.one_of(_JUNK, _NON_FINITE, _FRACTION, st.integers(max_value=-1),
                       st.integers(min_value=2**63))),
}


@st.composite
def _cv_sections(draw):
    """(cv section, whether it is valid): some fields given, and none, one
    or several of them drawn invalid, or a patience key, which no config
    file may set.  max_rounds is always given, so no example falls back
    to 500 rounds."""
    names = ["max_rounds"] + [name for name in _CV_FIELDS
                              if name != "max_rounds" and draw(st.booleans())]
    bad = draw(st.one_of(st.just(set()),
                         st.sets(st.sampled_from(names + ["patience"]), min_size=1)))
    section = {name: draw(_CV_FIELDS[name][name in bad]) for name in names}
    if "patience" in bad:
        section["patience"] = draw(st.integers(1, 8))
    return section, not bad


@given(drawn=st.one_of(_cv_sections(), _JUNK.map(lambda junk: (junk, False))))
@settings(max_examples=150, deadline=2000)
def test_fuzzed_cv_section_exits_with_a_documented_code(fuzz_dir, drawn):
    # a cv section with each field drawn valid or invalid, or one that is
    # not an object at all: an invalid one is a config error (exit 2); a
    # valid one searches, or is refused because 30 rows cannot make its
    # folds (exit 2), or fails on the data or numerically (exit 3 or 4).
    # Only a finished search writes its directory; never a traceback
    section, valid = drawn
    cfg = _write(fuzz_dir / "cv.json", {**TRAIN_CFG, "cv": section})
    out = fuzz_dir / "cv"
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), mock.patch.object(cli, "usable_cpus", lambda: 1):
        code = main(["cv", "--data", str(fuzz_dir / "sim" / "data.csv"), "--config", cfg,
                     "--out", str(out), "--quiet"])
    event(f"exit {code}")
    assert code in ((0, 2, 3, 4) if valid else (2,)), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if valid and code == 2:
        assert "folds from 30 rows" in err.getvalue() or "fold is empty" in err.getvalue()
    assert out.exists() == (code == 0)
    if code == 0:
        best = json.loads((out / "cv_results.json").read_text())["best"]
        assert 1 <= best["rounds"] <= section["max_rounds"]
        assert booster.load(out / "model.json").n_rounds == best["rounds"]


# -- fuzz of the simulate config -----------------------------------------------

# valid reals are drawn from the whole range their field allows, and as
# often from the range a study uses, so that many valid configs simulate
_POSITIVE = st.one_of(st.floats(0.5, 5.0),
                      st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
_BAD_POSITIVE = st.one_of(_JUNK, _NON_FINITE, st.floats(max_value=0.0))
_FINITE = st.one_of(st.floats(-10.0, 10.0), st.floats(allow_nan=False, allow_infinity=False))
# (valid theta, invalid theta) of each copula family; a theta whose
# Kendall tau rounds to 1 is invalid, so the valid ones stop at each
# family's last working theta in TAU_EDGES, and the invalid ones start
# where every theta's tau is 1.  That is 2**56 for Frank, but twice the
# first refused theta for Gumbel (2**53) and Clayton (2**54): between the
# two, theta - 1 and theta + 2 round to theta for most theta, and away
# from it for the rest, whose tau stays below 1
_BELOW = {family: below for family, below, _ in TAU_EDGES}
_PAST = {family: st.floats(min_value=past, allow_infinity=False)
         for family, past in (("gumbel", 2.0**54), ("clayton", 2.0**55), ("frank", 2.0**56))}
_COPULA_THETAS = {
    "clayton": (st.one_of(st.floats(0.5, 5.0), st.floats(0.0, _BELOW["clayton"], exclude_min=True)),
                st.one_of(_BAD_POSITIVE, _PAST["clayton"])),
    "gumbel": (st.one_of(st.floats(1.0, 10.0), st.floats(1.0, _BELOW["gumbel"])),
               st.one_of(_JUNK, _NON_FINITE, st.floats(max_value=1.0, exclude_max=True),
                         _PAST["gumbel"])),
    "frank": (st.one_of(st.floats(-10.0, 10.0), st.floats(max_value=_BELOW["frank"], allow_nan=False,
                                                          allow_infinity=False))
              .filter(lambda theta: theta != 0),
              st.one_of(_JUNK, _NON_FINITE, st.just(0.0), _PAST["frank"])),
    "independent": (_FINITE, st.one_of(_JUNK, _NON_FINITE)),
}


@st.composite
def _copulas(draw, valid):
    """A copula section.  A valid one gives theta inside its family's
    range (an independent one may leave it out); an invalid one gives it
    outside, leaves out the family or a theta the family needs, names
    another family or a key that names no field, or is no object."""
    family = draw(st.sampled_from(sorted(_COPULA_THETAS)))
    good, bad = _COPULA_THETAS[family]
    if valid:
        if family == "independent" and draw(st.booleans()):
            return {"family": family}
        return {"family": family, "theta": draw(good)}
    how = draw(st.sampled_from(["theta", "family", "no family", "no theta", "key", "junk"]))
    if how == "theta":
        return {"family": family, "theta": draw(bad)}
    if how == "family":
        other = draw(st.one_of(_JUNK, st.text(max_size=8)).filter(lambda f: f not in FAMILIES))
        return {"family": other, "theta": draw(good)}
    if how == "no family":
        return {"theta": draw(good)}
    if how == "no theta":  # theta defaults to 0, which only independence takes
        return {"family": draw(st.sampled_from(["clayton", "gumbel", "frank"]))}
    if how == "key":
        return {"family": family, "theta": draw(good), draw(st.sampled_from(["tau", "seed"])): 1}
    return draw(st.one_of(_JUNK, _FINITE))


# (valid values, invalid values) of each simulate field; n stays small
_SIM_FIELDS = {
    "n": (st.integers(2, 60), st.one_of(_BAD_COUNT, st.just(1))),
    "c": (_POSITIVE, _BAD_POSITIVE),
    "copula": (_copulas(valid=True), _copulas(valid=False)),
    "weibull_shape": (_POSITIVE, _BAD_POSITIVE),
    "weibull_scale": (_POSITIVE, _BAD_POSITIVE),
    "seed": _CV_FIELDS["seed"],
}
_SIM_REQUIRED = ("n", "c", "copula")


@st.composite
def _simulate_configs(draw):
    """(simulate config, whether it is valid): the required fields and
    some others, with none, one or several drawn invalid (a required one
    may instead be left out), or n_features, a key that names no field."""
    names = [*_SIM_REQUIRED] + [name for name in _SIM_FIELDS
                                if name not in _SIM_REQUIRED and draw(st.booleans())]
    bad = draw(st.one_of(st.just(set()),
                         st.sets(st.sampled_from(names + ["n_features"]), min_size=1)))
    cfg = {}
    for name in names:
        if name in bad and name in _SIM_REQUIRED and draw(st.booleans()):
            continue
        cfg[name] = draw(_SIM_FIELDS[name][name in bad])
    if "n_features" in bad:
        cfg["n_features"] = 10
    return cfg, not bad


@given(drawn=st.one_of(_simulate_configs(), _JUNK.map(lambda junk: (junk, False))))
# the stable sampler's mixing leaves the float range, and is drawn in log space
@example(drawn=({"n": 60, "c": 1.49, "copula": {"family": "gumbel", "theta": 1e6}}, True))
@example(drawn=({"n": 60, "c": 1.49, "copula": {"family": "clayton", "theta": "x"}}, False))
# 2**54, the first Clayton theta whose Kendall tau rounds to 1
@example(drawn=({"n": 2, "c": 1.0, "copula": {"family": "clayton", "theta": 2.0**54}}, False))
@settings(max_examples=300, deadline=2000)
def test_fuzzed_simulate_config_exits_with_a_documented_code(fuzz_dir, drawn):
    # a simulate config with each field, the copula section's too, drawn
    # valid or invalid, or one that is not an object at all: an invalid
    # one is a config error (exit 2); a valid one simulates, or its draws
    # leave the float range (exit 3) or break a sampler (exit 4).  Only a
    # finished run writes its directory; never a traceback or a warning
    cfg, valid = drawn
    path = _write(fuzz_dir / "simulate.json", cfg)
    out = fuzz_dir / "simulated"
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["simulate", "--config", path, "--out", str(out), "--quiet"])
    event(f"exit {code}")
    assert code in ((0, 3, 4) if valid else (2,)), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert out.exists() == (code == 0)
    if code == 0:
        assert read_csv(out / "data.csv").n == cfg["n"]


# -- fuzz of the study config --------------------------------------------------

# (valid values, invalid values) of each study field; a valid study runs
# one repetition on a few dozen rows for at most 6 rounds, and
# checkpoint_stride and max_depth reach past what that can use
_STUDY_FIELDS = {
    "study": (st.sampled_from([1, 2, 3]),
              st.one_of(_JUNK, _NON_FINITE, _FRACTION,
                        st.integers().filter(lambda k: k not in (1, 2, 3)))),
    "repetitions": (st.just(1), _BAD_COUNT),
    "n_train": (st.integers(2, 40), st.one_of(_BAD_COUNT, st.just(1))),
    "n_test": (st.integers(2, 40), st.one_of(_BAD_COUNT, st.just(1))),
    "max_rounds": (st.integers(1, 6), _BAD_COUNT),
    "checkpoint_stride": _CV_FIELDS["checkpoint_stride"],
    "seed": (st.integers(0, MAX_SEED),
             st.one_of(_JUNK, _NON_FINITE, _FRACTION, st.integers(max_value=-1),
                       st.integers(min_value=MAX_SEED + 1))),
    "n_horizons": (st.integers(2, 12),
                   st.one_of(_BAD_COUNT, st.just(1), st.integers(min_value=MAX_HORIZONS + 1))),
    **{name: _TRAIN_FIELDS[name]
       for name in ("learning_rate", "max_depth", "lambda", "gamma", "min_child_weight")},
}
# given in every config, so that no example falls back to a full-size study
_STUDY_REQUIRED = ("study", "repetitions", "n_train", "n_test", "max_rounds")


@st.composite
def _study_configs(draw):
    """(study config, whether it is valid): the fields that keep a study
    tiny and some others, with none, one or several drawn invalid (study
    may instead be left out), or folds or patience, keys that name no
    field."""
    names = [*_STUDY_REQUIRED] + [name for name in _STUDY_FIELDS
                                  if name not in _STUDY_REQUIRED and draw(st.booleans())]
    bad = draw(st.one_of(st.just(set()),
                         st.sets(st.sampled_from(names + ["folds", "patience"]), min_size=1)))
    cfg = {}
    for name in names:
        if name == "study" and name in bad and draw(st.booleans()):
            continue
        cfg[name] = draw(_STUDY_FIELDS[name][name in bad])
    for key in sorted({"folds", "patience"} & bad):
        cfg[key] = draw(st.integers(1, 8))
    return cfg, not bad


@given(drawn=st.one_of(_study_configs(), _JUNK.map(lambda junk: (junk, False))))
@settings(max_examples=150, deadline=3000)
def test_fuzzed_study_config_exits_with_a_documented_code(fuzz_dir, drawn):
    # a study config with each field drawn valid or invalid, or one that
    # is not an object at all: an invalid one is a config error (exit 2)
    # and runs no task; a valid one writes its tables, or is refused
    # because its rows cannot make two folds (exit 2), or fails on the
    # data or numerically (exit 3 or 4).  At most one line on stderr,
    # never a traceback or a warning
    cfg, valid = drawn
    path = _write(fuzz_dir / "study.json", cfg)
    out = fuzz_dir / "study"
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["study", "--config", path, "--out", str(out), "--threads", "1", "--quiet"])
    event(f"exit {code}")
    assert code in ((0, 2, 3, 4) if valid else (2,)), err.getvalue()
    assert err.getvalue().count("\n") == (code != 0), err.getvalue()
    if not valid:
        assert not out.exists()
    if code == 0:
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 1 + 2 * len(grid_points(StudyConfig.from_dict(cfg)))


# -- fuzz of data CSV bytes ----------------------------------------------------

# a small valid data CSV: 8 rows, two covariates and the oracle columns,
# events of both kinds; every mutation below starts from these tokens
_CSV_ROWS = [["time", "event", "x1", "x2", "true_event_time", "true_censor_time"]] + [
    [repr(min(te, tc)), str(int(te <= tc)), repr(x1), repr(x2), repr(te), repr(tc)]
    for te, tc, x1, x2 in np.random.default_rng(5).uniform(0.2, 3.0, (8, 4)).tolist()
]
_TOKENS = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity", "-0", "0", "1e400", "1e-400",
                           "1_0", " 1.5 ", "", "0x10", "1e308", "-1.7976931348623157e308",
                           "5e-324", "2", "0.5", "-1", "1.0", "True"])
_EVENT_TOKENS = st.sampled_from(["2", "0.5", "-1", "-0", "1.0", "0e0", "nan"])
_LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def _csv_bytes(draw):
    """The bytes of _CSV_ROWS after a few token, row and byte mutations,
    each line ended by LF, CRLF or CR."""
    rows = [list(row) for row in _CSV_ROWS]
    for how in draw(st.lists(st.sampled_from(["token", "event", "quote", "extra", "missing",
                                              "blank", "huge"]), max_size=3)):
        i = draw(st.integers(0 if how in ("extra", "missing") else 1, len(rows) - 1))
        j = draw(st.integers(0, len(rows[i]) - 1)) if rows[i] else 0
        if how == "token" and rows[i]:
            rows[i][j] = draw(_TOKENS)
        elif how == "event" and len(rows[i]) > 1:
            rows[i][1] = draw(_EVENT_TOKENS)
        elif how == "quote" and rows[i]:
            rows[i][j] = '"' + rows[i][j] + draw(st.sampled_from(["", ",", "\n"])) + '"'
        elif how == "extra":
            rows[i].append(draw(_TOKENS))
        elif how == "missing" and rows[i]:
            rows[i].pop()
        elif how == "blank":
            rows.insert(i, [])
        elif how == "huge" and rows[i]:
            rows[i][j] = "1" * 200_000
    data = "".join(",".join(row) + draw(_LINE_ENDS) for row in rows).encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    return data


@pytest.fixture(scope="module")
def csv_fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("csv-fuzz")
    _write(root / "train.json", {"loss": TRAIN_CFG["loss"], "train": {"rounds": 2, "max_depth": 2}})
    (root / "preds.csv").write_text(
        "predicted_log_time,predicted_time\n" + "0.25,1.2840254166877414\n" * (len(_CSV_ROWS) - 1))
    return root


@given(data=_csv_bytes())
@example(data=("\n".join(",".join(row) for row in _CSV_ROWS) + "\n").encode())
@example(data=b"\xef\xbb\xbf" + ("\r\n".join(",".join(row) for row in _CSV_ROWS)).encode())
@settings(max_examples=400, deadline=2000)
def test_fuzzed_data_csv_bytes_exit_with_a_documented_code(csv_fuzz_dir, data):
    # train (2 rounds) and evaluate read the mutated file: each succeeds,
    # refuses the data (exit 3) or fails numerically (exit 4); never a
    # traceback or a warning
    path = csv_fuzz_dir / "data.csv"
    path.write_bytes(data)
    model, out = csv_fuzz_dir / "model.json", csv_fuzz_dir / "eval"
    model.unlink(missing_ok=True)
    shutil.rmtree(out, ignore_errors=True)
    for argv, written in (
        (["train", "--data", str(path), "--config", str(csv_fuzz_dir / "train.json")], model),
        (["evaluate", "--data", str(path), "--predictions", str(csv_fuzz_dir / "preds.csv")], out),
    ):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--out", str(written), "--quiet"])
        event(f"{argv[0]} exit {code}")
        assert code in (0, 3, 4), err.getvalue()
        assert "Traceback" not in err.getvalue()
        assert written.exists() == (code == 0)


# -- fuzz of evaluate's predictions and flags -----------------------------------

_EVAL_ROWS = 50
_PREDICTIONS_HEADER = "predicted_log_time,predicted_time\n"
_PREDICTION_TOKENS = st.sampled_from(["inf", "-inf", "1e308", "-1e308", "1e400", "5e-324", "-0",
                                      "0", "nan", "1_0", " 1.5 ", "", "-1", "1.7976931348623157e308",
                                      "2.5", "1e-300", "True"])
_HORIZONS = st.one_of(st.integers(2, 12), st.sampled_from([-1, 0, 1, MAX_HORIZONS, MAX_HORIZONS + 1,
                                                           10**9]))


@st.composite
def _predictions_bytes(draw):
    """An _EVAL_ROWS-row predictions CSV of plain values after a few
    mutations: one field, or a whole predicted_time column, set to a
    _PREDICTION_TOKENS token, or a row dropped."""
    rows = [["0.25", "1.2840254166877414"] for _ in range(_EVAL_ROWS)]
    for how in draw(st.lists(st.sampled_from(["field", "column", "drop"]), max_size=3)):
        i = draw(st.integers(0, len(rows) - 1))
        if how == "field":
            rows[i][draw(st.integers(0, 1))] = draw(_PREDICTION_TOKENS)
        elif how == "column":
            token = draw(_PREDICTION_TOKENS)
            for row in rows:
                row[1] = token
        elif len(rows) > 1:
            del rows[i]
    return (_PREDICTIONS_HEADER + "".join(",".join(row) + "\n" for row in rows)).encode()


@pytest.fixture(scope="module")
def eval_fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("eval-fuzz")
    sim = _write(root / "sim.json", {**SIM_CFG, "n": _EVAL_ROWS})
    assert main(["simulate", "--config", sim, "--out", str(root / "sim"), "--quiet"]) == 0
    return root


def _refuse_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _all_times(token):
    return (_PREDICTIONS_HEADER + f"0.25,{token}\n" * _EVAL_ROWS).encode()


@given(data=_predictions_bytes(), horizons=_HORIZONS)
@example(data=_all_times("inf"), horizons=9)
@example(data=_all_times("1e308"), horizons=9)
@settings(max_examples=200, deadline=2000)
def test_fuzzed_evaluate_exits_with_a_documented_code(eval_fuzz_dir, data, horizons):
    # evaluate reads mutated predictions with --horizons inside and outside
    # 2..100000: it writes standard JSON (no NaN or Infinity), refuses the
    # flag (exit 2) or the predictions (exit 3), or finds a metric that is
    # not finite (exit 4) and writes no metrics.json.  At most one line on
    # stderr, never a traceback or a warning
    preds, out = eval_fuzz_dir / "preds.csv", eval_fuzz_dir / "eval"
    preds.write_bytes(data)
    shutil.rmtree(out, ignore_errors=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["evaluate", "--predictions", str(preds),
                     "--data", str(eval_fuzz_dir / "sim" / "data.csv"),
                     "--horizons", str(horizons), "--out", str(out), "--quiet"])
    event(f"exit {code}")
    assert code in (0, 2, 3, 4), err.getvalue()
    assert err.getvalue().count("\n") == (code != 0), err.getvalue()
    assert (out / "metrics.json").exists() == (code == 0)
    if code == 0:
        report = json.loads((out / "metrics.json").read_text(), parse_constant=_refuse_constant)
        assert np.isfinite([report["c_index"], report["event_mae"], report["mae"]]).all()


# -- fuzz of model files -------------------------------------------------------

_MODEL_NUMBERS = st.one_of(_NON_FINITE, st.sampled_from([800.0, 1e308, -1e308, 5e-324, -0.0]),
                           st.floats(), st.integers(-2**70, 2**70))
_MODEL_JUNK = st.one_of(_JUNK, _MODEL_NUMBERS, st.lists(st.integers(), max_size=2),
                        st.dictionaries(st.sampled_from(["id", "weight", "nodes"]), st.integers(),
                                        max_size=2))
_NOT_UTF8 = st.sampled_from([b"\xff", b"\x80", b"\xc3(", b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80"])


@st.composite
def _model_bytes(draw, doc):
    """The bytes of a mutated copy of the saved model doc: a few fields
    dropped or retyped, node and child ids moved, numbers made non-finite
    or huge; then maybe a BOM, a byte that is not UTF-8, or truncation."""
    doc = json.loads(json.dumps(doc))
    nodes = [node for tree in doc["trees"] for node in tree["nodes"]]
    objects = [doc, doc["loss"]] + doc["trees"] + nodes
    for how in draw(st.lists(st.sampled_from(["drop", "retype", "id"]), max_size=2)):
        obj = draw(st.sampled_from(objects))
        keys = sorted(obj) if how != "id" else ["id", "left", "right"]
        key = draw(st.sampled_from(keys)) if keys else None
        if how == "drop" and key in obj:
            del obj[key]
        elif how == "retype" and key in obj:
            obj[key] = draw(_MODEL_JUNK)
        elif how == "id" and obj in nodes:
            obj[key] = draw(st.one_of(st.integers(-2, len(nodes) + 2), st.integers()))
    for key in draw(st.lists(st.sampled_from(["base_score", "learning_rate", "n_features",
                                              "node"]), max_size=2)):
        if key == "node":
            node = draw(st.sampled_from(nodes))
            node["weight" if "weight" in node else "threshold"] = draw(_MODEL_NUMBERS)
        else:
            doc[key] = draw(_MODEL_NUMBERS)
    data = json.dumps(doc).encode()
    how = draw(st.sampled_from(["keep", "keep", "keep", "bom", "not-utf8", "truncate"]))
    at = draw(st.integers(0, len(data)))
    if how == "bom":
        data = b"\xef\xbb\xbf" + data
    elif how == "not-utf8":
        data = data[:at] + draw(_NOT_UTF8) + data[at:]
    elif how == "truncate":
        data = data[:at]
    return data


@pytest.fixture(scope="module")
def model_fuzz_doc(fuzz_dir):
    cfg = _write(fuzz_dir / "model_train.json",
                 {"loss": TRAIN_CFG["loss"], "train": {"rounds": 4, "max_depth": 2}})
    model = fuzz_dir / "saved_model.json"
    assert main(["train", "--data", str(fuzz_dir / "sim" / "data.csv"), "--config", cfg,
                 "--out", str(model), "--quiet"]) == 0
    return json.loads(model.read_text())


@given(data=st.data())
@settings(max_examples=400, deadline=2000)
def test_fuzzed_model_file_exits_with_a_documented_code(fuzz_dir, model_fuzz_doc, data):
    # predict reads the mutated model: it predicts, refuses the file
    # (exit 3) or overflows (exit 4) and leaves no predictions file;
    # never a traceback or a warning
    model, preds = fuzz_dir / "fuzzed_model.json", fuzz_dir / "fuzzed_preds.csv"
    model.write_bytes(data.draw(_model_bytes(model_fuzz_doc)))
    preds.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["predict", "--model", str(model), "--data", str(fuzz_dir / "sim" / "data.csv"),
                     "--out", str(preds), "--quiet"])
    event(f"exit {code}")
    assert code in (0, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    assert preds.exists() == (code == 0)
