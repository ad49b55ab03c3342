import csv
import hashlib
import json
import shutil

import numpy as np
import pytest

from depaft import studies
from depaft.cli import main
from depaft.errors import ConfigError
from depaft.simulate import DgpConfig, generate
from depaft.studies import (
    StudyConfig,
    grid_points,
    run_study,
    run_task,
)

from pins import pin

TINY = dict(
    study=1, repetitions=2, n_train=60, n_test=60, seed=5,
    max_rounds=10, checkpoint_stride=5, max_depth=2,
)


def test_config_validation():
    with pytest.raises(ConfigError):
        StudyConfig(study=4)
    with pytest.raises(ConfigError):
        StudyConfig(study=1, repetitions=0)
    cfg = StudyConfig(**TINY)
    assert StudyConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        StudyConfig.from_dict({"study": 1, "bogus": 3})


def test_grid_definitions():
    g1 = grid_points(StudyConfig(study=1))
    assert len(g1) == 9
    assert g1[0].copula.theta == 1e-10 and g1[-1].copula.theta == 8.0
    assert all(p.c == 1.49 for p in g1)

    g2 = grid_points(StudyConfig(study=2))
    assert [p.c for p in g2] == [0.89, 1.2, 1.49, 2.06]
    assert all(p.copula.theta == 3.0 for p in g2)

    g3 = grid_points(StudyConfig(study=3))
    assert [p.copula.family for p in g3] == ["clayton", "gumbel", "frank", "independent"]
    assert all(p.c == 1.2 for p in g3)


def test_run_task_record_shape():
    cfg = StudyConfig(**TINY)
    point = grid_points(cfg)[3]
    record = run_task(cfg, point, 0)
    assert set(record["models"]) == {"clayton", "independent"}
    for m in record["models"].values():
        assert m["rounds"] <= cfg.max_rounds
        assert 0.0 <= m["c_index"] <= 1.0
        assert m["mae"] > 0.0
        assert len(m["calibration"]["horizons"]) == 9


def test_run_study_outputs_and_resume(tmp_path):
    cfg = StudyConfig(**TINY)
    out = tmp_path / "study"
    fresh = run_study(cfg, str(out), workers=1, quiet=True)
    rows = list(csv.DictReader(open(out / "results.csv")))
    assert len(rows) == 9 * 2 * 2  # grid x models x reps
    means = list(csv.DictReader(open(out / "results_mean.csv")))
    assert len(means) == 9 * 2
    cal = list(csv.DictReader(open(out / "calibration_mean.csv")))
    assert len(cal) == 9 * 2 * 9

    # partial/ holds one file per task and nothing else
    assert sorted(p.name for p in (out / "partial").iterdir()) == [
        f"task_g{g:03d}_r{r:04d}.json" for g in range(9) for r in range(2)
    ]

    # resume: re-running reuses partials and reproduces identical bytes
    # and records
    before = (out / "results.csv").read_bytes()
    assert run_study(cfg, str(out), workers=1, quiet=True) == fresh
    assert (out / "results.csv").read_bytes() == before


# SHA-256 of the TINY study-3 tables, recorded before the three tables
# moved onto dataset.write_rows; any change to these bytes must be
# deliberate.  One set per numpy dispatch level (tests/pins.py).
TINY_STUDY3_SHA256 = {
    "X86_V4": {
        "results.csv": "151508609508a8f4d05d7ef49e86f2dbe46bf4f4dba4768ca0678c2fde838d8e",
        "results_mean.csv": "7cd27f360cde8c9897bd917741843ea170b0b363c23ec89f6841c47bd2745cce",
        "calibration_mean.csv": "a850bb00833f571a30ecc5d99ebcdd161c3e776b98aba9d45d1893669e5a4ff7",
    },
    "X86_V3": {
        "results.csv": "bc27cc39975ede38b7591a4ec52348c50d338fa84221fa23df992ecd38167614",
        "results_mean.csv": "3045c37603e0fa39f80ca2c5def1f89448566a90bf240be75f357157908fe8e3",
        "calibration_mean.csv": "3621cf0f891f0b09b5f38a7ee0d6b8db2e6eb639711e7c7cd0c512d06b132b8d",
    },
}


@pytest.mark.pinned
def test_study_determinism_across_runs_and_workers(tmp_path):
    cfg = StudyConfig(**{**TINY, "study": 3, "repetitions": 2})
    pinned = pin(TINY_STUDY3_SHA256)
    for name, workers in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / name
        run_study(cfg, str(out), workers=workers, quiet=True)
        digests = {
            table: hashlib.sha256((out / table).read_bytes()).hexdigest()
            for table in pinned
        }
        assert digests == pinned, f"workers={workers}"


def test_study_cli_surface(tmp_path):
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps({**TINY, "study": 2, "repetitions": 1}))
    out = tmp_path / "out"
    assert main(["study", "--config", str(cfg_path), "--out", str(out), "--quiet"]) == 0
    rows = list(csv.DictReader(open(out / "results.csv")))
    assert {r["model"] for r in rows} == {"clayton", "independent"}
    # emitted CSVs parse back through numeric conversion cleanly
    for r in rows:
        float(r["mae"]), float(r["c_index"]), float(r["test_censoring"])


def test_clayton_theta_follows_simulated_dependence():
    cfg = StudyConfig(**{**TINY, "study": 3, "repetitions": 1})
    points = grid_points(cfg)
    gumbel_record = run_task(cfg, points[1], 0)
    assert gumbel_record["copula_family"] == "gumbel"
    independent_record = run_task(cfg, points[3], 0)
    assert independent_record["copula_family"] == "independent"


def test_clayton_loss_gets_residual_theta(monkeypatch):
    # the Clayton loss models dependence given X, so run_task hands it the
    # training table's residual theta, not the copula's own counterpart
    seen = {}
    real_grid_search = studies.grid_search

    def spy(data, loss_config, train_cfg, cv, **kwargs):
        seen[loss_config["loss"]] = loss_config
        return real_grid_search(data, loss_config, train_cfg, cv, **kwargs)

    monkeypatch.setattr(studies, "grid_search", spy)
    cfg = StudyConfig(**{**TINY, "study": 2, "n_train": 300, "repetitions": 1})
    point = grid_points(cfg)[2]
    run_task(cfg, point, 0)
    train_seed, _ = studies._task_seeds(cfg, point.index, 0)
    sim = generate(DgpConfig(n=cfg.n_train, c=point.c, copula=point.copula, seed=train_seed))
    assert seen["clayton"]["theta"] == sim.residual_clayton_theta
    assert seen["clayton"]["theta"] < sim.clayton_equivalent_theta
    assert "theta" not in seen["independent"]


@pytest.mark.parametrize("field, value", [("seed", 6), ("n_train", 61)])
def test_resume_refuses_a_different_config(tmp_path, field, value):
    out = tmp_path / "study"
    cfg = StudyConfig(**{**TINY, "study": 2, "repetitions": 1})
    run_study(cfg, str(out), workers=1, quiet=True)
    task = out / "partial" / "task_g000_r0000.json"
    fingerprint = json.loads(task.read_text())["fingerprint"]
    assert fingerprint == {**cfg.to_dict(), "patience": studies.STUDY_PATIENCE}
    before = (out / "results.csv").read_bytes()
    with pytest.raises(ConfigError, match=f"^{task} holds a task of a different study config"):
        run_study(StudyConfig(**{**TINY, "study": 2, "repetitions": 1, field: value}), str(out),
                  workers=1, quiet=True)
    assert (out / "results.csv").read_bytes() == before


def test_study_cli_second_seed_into_same_directory_exit_2(tmp_path, capsys):
    out = str(tmp_path / "out")
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({**TINY, "study": 2, "repetitions": 1}))
    assert main(["study", "--config", str(cfg), "--out", out, "--seed", "1", "--quiet"]) == 0
    before = (tmp_path / "out" / "results.csv").read_bytes()
    capsys.readouterr()
    assert main(["study", "--config", str(cfg), "--out", out, "--seed", "2", "--quiet"]) == 2
    task = tmp_path / "out" / "partial" / "task_g000_r0000.json"
    assert capsys.readouterr().err == (
        f"config error: {task} holds a task of a different study config; "
        "use a new output directory\n"
    )
    assert (tmp_path / "out" / "results.csv").read_bytes() == before


@pytest.mark.parametrize("field, value", [
    ("n_train", "abc"), ("repetitions", "2"), ("learning_rate", "0.1"), ("study", "x"),
    ("max_depth", 2.5), ("gamma", None),
])
def test_config_rejects_non_numeric_fields(field, value):
    with pytest.raises(ConfigError, match=field):
        StudyConfig.from_dict({**TINY, field: value})


@pytest.mark.parametrize("field, value", [
    ("learning_rate", 5), ("learning_rate", 0.0), ("max_rounds", 0), ("checkpoint_stride", 0),
    ("max_depth", 0), ("gamma", -1.0), ("n_horizons", 1), ("n_horizons", 100_001),
])
def test_config_refuses_bad_model_fields_up_front(field, value):
    with pytest.raises(ConfigError, match=field):
        StudyConfig.from_dict({**TINY, field: value})


def test_bad_study_config_writes_nothing_and_fixed_rerun_resumes(tmp_path, capsys):
    # a field only the train or cv config checks used to pass StudyConfig,
    # write partial/config.json and fail inside the first task; the fixed
    # config was then refused as "a different study config"
    out = tmp_path / "out"
    for field, value in (("learning_rate", 5), ("n_horizons", 1)):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**TINY, "study": 2, "repetitions": 1, field: value}))
        capsys.readouterr()
        assert main(["study", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert field in capsys.readouterr().err
        assert not (out / "partial").exists()
    cfg = tmp_path / "good.json"
    cfg.write_text(json.dumps({**TINY, "study": 2, "repetitions": 1}))
    assert main(["study", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    assert (out / "results.csv").exists()


class _Stop(Exception):
    pass


def test_task_builds_train_and_cv_configs_through_study_config(monkeypatch):
    seen = []

    def spy(data, loss_config, train_cfg, cv, **kwargs):
        seen.append((train_cfg, cv, kwargs))
        raise _Stop

    monkeypatch.setattr(studies, "grid_search", spy)
    cfg = StudyConfig(**{**TINY, "learning_rate": 0.3, "gamma": 0.5})
    point = grid_points(cfg)[1]
    with pytest.raises(_Stop):
        run_task(cfg, point, 1)
    train_seed, _ = studies._task_seeds(cfg, point.index, 1)
    train_cfg, cv, kwargs = seen[0]
    assert (train_cfg, cv) == (cfg.train_config(), cfg.cv_config(seed=train_seed))
    assert (train_cfg.learning_rate, train_cfg.gamma, train_cfg.rounds) == (0.3, 0.5, 10)
    assert (cv.folds, cv.max_rounds, cv.checkpoint_stride, cv.seed) == (2, 10, 5, train_seed)
    assert kwargs == {"patience": studies.STUDY_PATIENCE} and studies.STUDY_PATIENCE == 6


@pytest.mark.parametrize("workers", [0, -2])
def test_run_study_refuses_fewer_than_one_worker(tmp_path, workers):
    with pytest.raises(ConfigError, match="positive integer"):
        run_study(StudyConfig(**TINY), str(tmp_path / "out"), workers=workers, quiet=True)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_study_cli_threads_below_one_exit_2(tmp_path, capsys, threads):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({**TINY, "repetitions": 1}))
    out = tmp_path / "out"
    assert main(["study", "--config", str(cfg), "--out", str(out), "--threads", threads,
                 "--quiet"]) == 2
    assert "--threads" in capsys.readouterr().err
    assert not (out / "partial").exists()


def test_study_cli_resume_under_another_patience_exit_2(tmp_path, capsys):
    # a task file written under another stop rule (here, by a run that
    # grew every fold fit to max_rounds) is not resumed
    out = tmp_path / "out"
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({**TINY, "study": 2, "repetitions": 1}))
    assert main(["study", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    before = (out / "results.csv").read_bytes()
    task = out / "partial" / "task_g002_r0000.json"
    record = json.loads(task.read_text())
    assert record["fingerprint"]["patience"] == studies.STUDY_PATIENCE == 6
    record["fingerprint"]["patience"] = None
    task.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["study", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert f"{task} holds a task of a different study config" in capsys.readouterr().err
    assert (out / "results.csv").read_bytes() == before


def test_study_cli_partial_that_is_a_file_exit_2(tmp_path, capsys):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({**TINY, "repetitions": 1}))
    out = tmp_path / "out"
    out.mkdir()
    (out / "partial").write_text("not a directory")
    assert main(["study", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {out / 'partial'}: ") and err.count("\n") == 1


@pytest.fixture(scope="module")
def finished_study(tmp_path_factory):
    """A finished study-2 run (one repetition) and its config file."""
    root = tmp_path_factory.mktemp("finished")
    cfg = root / "study.json"
    cfg.write_text(json.dumps({**TINY, "study": 2, "repetitions": 1}))
    assert main(["study", "--config", str(cfg), "--out", str(root / "out"), "--quiet"]) == 0
    return cfg, root / "out"


def _drop_calibration_field(record):
    del record["models"]["independent"]["calibration"]["observed_proportion"]


def _drop_fingerprint(record):
    del record["fingerprint"]


def _round_count_as_text(record):
    record["models"]["clayton"]["rounds"] = str(record["models"]["clayton"]["rounds"])


@pytest.mark.parametrize("corrupt", [
    b'{"grid_index": 0', b"{}", b"\xff\xfe{}", b'"task"', b"[1, 2]", _drop_fingerprint,
    _drop_calibration_field, _round_count_as_text,
], ids=["truncated", "empty-object", "not-utf8", "string", "list", "no-fingerprint", "missing-curve",
        "text-rounds"])
def test_study_cli_malformed_task_file_exit_3_before_any_table(finished_study, tmp_path, capsys,
                                                                corrupt):
    cfg, finished = finished_study
    out = tmp_path / "out"
    shutil.copytree(finished, out)
    for name in ("results.csv", "results_mean.csv", "calibration_mean.csv"):
        (out / name).unlink()
    task = out / "partial" / "task_g002_r0000.json"
    if callable(corrupt):
        record = json.loads(task.read_text())
        corrupt(record)
        task.write_text(json.dumps(record))
    else:
        task.write_bytes(corrupt)
    capsys.readouterr()
    assert main(["study", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {task}: ") and err.count("\n") == 1
    assert not any((out / name).exists() for name in ("results.csv", "results_mean.csv"))


def test_study_cli_task_file_that_is_a_directory_exit_3(finished_study, tmp_path, capsys):
    cfg, finished = finished_study
    out = tmp_path / "out"
    shutil.copytree(finished, out)
    task = out / "partial" / "task_g002_r0000.json"
    task.unlink()
    task.mkdir()
    capsys.readouterr()
    assert main(["study", "--config", str(cfg), "--out", str(out), "--quiet"]) == 3
    assert capsys.readouterr().err == (
        f"data error: cannot read task file {task}: Is a directory\n"
    )


@pytest.mark.parametrize("table", ["results.csv", "results_mean.csv", "calibration_mean.csv"])
def test_study_cli_table_that_is_a_directory_exit_2_and_rerun_resumes(tmp_path, capsys, table):
    # the tables are written after every task: the finished task files
    # stay, and the rerun reuses them all
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({**TINY, "study": 2, "repetitions": 1}))
    out = tmp_path / "out"
    (out / table).mkdir(parents=True)
    assert main(["study", "--config", str(cfg), "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"config error: cannot write {out / table}: Is a directory\n"
    (out / table).rmdir()
    assert main(["study", "--config", str(cfg), "--out", str(out)]) == 0
    assert "0 to run, 4 reused" in capsys.readouterr().out
    assert (out / table).is_file()


def _with_bom(path):
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


def test_study_cli_reads_partial_files_past_a_bom(finished_study, tmp_path):
    # the task file used to be refused as malformed
    cfg, finished = finished_study
    out = tmp_path / "out"
    shutil.copytree(finished, out)
    tables = ("results.csv", "results_mean.csv", "calibration_mean.csv")
    for table in tables:
        (out / table).unlink()
    _with_bom(out / "partial" / "task_g002_r0000.json")
    assert main(["study", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    for table in tables:
        assert (out / table).read_bytes() == (finished / table).read_bytes()


def test_study_cli_threads_below_one_leaves_no_out_directory(tmp_path):
    cfg = tmp_path / "study.json"
    cfg.write_text(json.dumps({**TINY, "repetitions": 1}))
    out = tmp_path / "out"
    assert main(["study", "--config", str(cfg), "--out", str(out), "--threads", "0",
                 "--quiet"]) == 2
    assert not out.exists()
