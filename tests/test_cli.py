import hashlib
import json
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from depaft import booster, cli, parallel, read_csv, tuning
from depaft.cli import main
from depaft.dataset import read_predictions_csv
from depaft.errors import NumericError
from depaft.loss import ClaytonAftLoss, loss_from_config

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
    "train": {"rounds": 20, "learning_rate": 0.1, "max_depth": 2, "seed": 0},
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
def test_simulate_frank_sampler_breakdown_exit_4(tmp_path, theta, capsys):
    # draws outside the unit square would silently break the rank coupling
    cfg = _write(tmp_path / "sim.json", {**SIM_CFG, "copula": {"family": "frank", "theta": theta}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"), "--quiet"]) == 4
    assert "frank sampler" in capsys.readouterr().err


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


def test_evaluate_nan_prediction_exit_3(sim_dir, tmp_path, capsys):
    data = read_csv(sim_dir / "data.csv")
    rows = ["predicted_log_time,predicted_time"] + ["0.0,1.0"] * data.n
    rows[5] = "nan,nan"
    preds = tmp_path / "p.csv"
    preds.write_text("\n".join(rows) + "\n")
    assert main(["evaluate", "--predictions", str(preds), "--data", str(sim_dir / "data.csv"),
                 "--out", str(tmp_path / "eval"), "--quiet"]) == 3
    assert "NaN" in capsys.readouterr().err


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
    assert err.startswith(f"config error: {cfg}: malformed JSON: ") and err.count("\n") == 1


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


def _train_fails_in_a_pool_process(data, loss, config):
    if multiprocessing.parent_process() is not None:
        raise NumericError("fold fit broke down")
    return booster.train(data, loss, config)


def test_fold_fit_numeric_error_crosses_the_pool_exit_4(sim_dir, tmp_path, monkeypatch, capfd):
    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    monkeypatch.setattr(tuning, "train", _train_fails_in_a_pool_process)
    capfd.readouterr()
    assert _cv(sim_dir, tmp_path) == 4
    err = capfd.readouterr().err
    assert err == "numeric error: fold fit broke down\n"
    assert not (tmp_path / "cv").exists()


@pytest.mark.parametrize("bad_theta", [0.0, -1.0])
def test_cv_bad_theta_grid_entry_exits_2_before_any_pool(sim_dir, tmp_path, monkeypatch, capsys,
                                                        bad_theta):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(cli, "usable_cpus", lambda: 2)
    monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
    capsys.readouterr()
    assert _cv(sim_dir, tmp_path, {**CV_CFG, "theta_grid": [2.0, bad_theta]}) == 2
    assert "theta must be a positive finite real" in capsys.readouterr().err


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
    ("evaluate", "--threads"), ("cv", "--threads"), ("predict", "--seed"), ("evaluate", "--seed"),
])
def test_flags_a_command_does_not_read_are_usage_errors(command, flag, capsys):
    # only study reads --threads; predict and evaluate never read --seed
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
        assert "seed must be a non-negative integer" in capsys.readouterr().err


# SHA-256 of each file the pipeline below writes.  data.csv dates from the
# per-row csv-module writer; preds.csv and metrics.json were re-recorded
# when the loss moved to log-space closed forms, which kept every tree's
# splits and moved leaf weights by at most 6.4e-14 relative.  model.json
# was re-recorded again when save() moved to json.dumps: floats are now
# written as repr instead of at 17 significant digits, and the file loads
# back to the same bits.  calibration.csv was recorded from evaluate's own
# csv.writer, before it moved onto dataset.write_rows.  Any change to
# these bytes must be deliberate.
PINNED_SHA256 = {
    "data.csv": "77cbca432fb8a0f5b583c82efc021f940aa6209d83b61f374c6bd5aa8afa3c4b",
    "model.json": "4e50f8456b8f5ad591cd0728844277e1f40fd09d8758edd5f175081c4bd5709a",
    "preds.csv": "a57785377d8670036ef9ea87a6f0cf2c8264c63e3b28f08fb6cd3295e978681a",
    "metrics.json": "0022893b90d7da5fbec9190d5fa88dd2ea4e160b998d6b178512b57a2cee2f05",
    "calibration.csv": "d8f8a08e7d9db215045b3018d4347f84f8e75846697cab4ac19581eb55718987",
}


def test_pipeline_output_bytes_are_pinned(tmp_path):
    sim = _write(tmp_path / "sim.json", {**SIM_CFG, "n": 300})
    train_cfg = _write(tmp_path / "train.json",
                       {**TRAIN_CFG, "train": {**TRAIN_CFG["train"], "rounds": 30}})
    paths = {name: tmp_path / name for name in PINNED_SHA256}
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
    assert digests == PINNED_SHA256


# SHA-256 of the files `depaft cv` writes for a 2-value theta grid and 3
# folds, recorded when the fold fits still ran one after another in this
# process.  cv now maps them over a pool of up to one process per usable
# CPU, and its bytes must not depend on that count.
CV_PINNED_SHA256 = {
    "cv_results.json": "e0092bbc72ac38ae37c8e7fecfd1b12c024f9ab2bfa1d1c0ab2d59653ec2e0cf",
    "model.json": "30bce04afd8e7dd3c66b28087676e9d33659e1f0ddf7f3b2260801444ec6b884",
}


def test_cv_output_bytes_are_pinned(sim_dir, tmp_path):
    assert _cv(sim_dir, tmp_path) == 0
    digests = {
        name: hashlib.sha256((tmp_path / "cv" / name).read_bytes()).hexdigest()
        for name in CV_PINNED_SHA256
    }
    assert digests == CV_PINNED_SHA256
