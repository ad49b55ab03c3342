import numpy as np
import pytest

from depaft.dataset import (
    SurvivalDataset,
    read_csv,
    read_predictions_csv,
    write_csv,
    write_predictions_csv,
)
from depaft.errors import DataError


def _data(n=20, oracle=True, seed=0):
    rng = np.random.default_rng(seed)
    te = rng.uniform(0.5, 3.0, n)
    tc = rng.uniform(0.5, 3.0, n)
    X = rng.uniform(size=(n, 4))
    d = SurvivalDataset(
        np.minimum(te, tc),
        (te <= tc).astype(int),
        X,
        te if oracle else None,
        tc if oracle else None,
    )
    return d


def test_validation():
    with pytest.raises(DataError):
        SurvivalDataset(np.array([1.0, -1.0]), np.array([1, 0]), np.ones((2, 1)))
    with pytest.raises(DataError):
        SurvivalDataset(np.array([1.0, 2.0]), np.array([1, 2]), np.ones((2, 1)))
    with pytest.raises(DataError):
        SurvivalDataset(np.array([1.0, 2.0]), np.array([1, 0]), np.ones((3, 1)))
    with pytest.raises(DataError):
        SurvivalDataset(np.array([1.0, 2.0]), np.array([1, 0]), np.full((2, 1), np.nan))
    with pytest.raises(DataError):
        SurvivalDataset(np.array([]), np.array([]), np.empty((0, 1)))
    with pytest.raises(DataError):
        SurvivalDataset(np.array([1.0]), np.array([1]), np.empty((1, 0)))


def test_round_trip_with_oracle(tmp_path):
    d = _data()
    path = tmp_path / "d.csv"
    write_csv(d, path)
    back = read_csv(path)
    assert np.array_equal(back.times, d.times)
    assert np.array_equal(back.events, d.events)
    assert np.array_equal(back.X, d.X)
    assert np.array_equal(back.true_event_times, d.true_event_times)
    assert np.array_equal(back.true_censor_times, d.true_censor_times)
    # bit-deterministic output
    path2 = tmp_path / "d2.csv"
    write_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_round_trip_without_oracle(tmp_path):
    d = _data(oracle=False)
    path = tmp_path / "d.csv"
    write_csv(d, path)
    back = read_csv(path)
    assert not back.has_oracle
    assert np.array_equal(back.X, d.X)


def test_corrupt_row_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,event,x1\n1.0,1,0.5\nnope,0,0.25\n")
    with pytest.raises(DataError, match="line 3"):
        read_csv(path)


@pytest.mark.parametrize("event", ["0.7", "1.9", "2", "-1", "nan"])
def test_event_not_zero_or_one_names_line(tmp_path, event):
    path = tmp_path / "bad.csv"
    path.write_text(f"time,event,x1\n1.0,1,0.5\n2.0,{event},0.25\n")
    with pytest.raises(DataError, match="line 3"):
        read_csv(path)


def test_event_written_as_float_reads(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("time,event,x1\n1.0,1.0,0.5\n2.0,0.0,0.25\n3.0,1e0,0.5\n")
    assert read_csv(path).events.tolist() == [1, 0, 1]


def test_wrong_field_count_names_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,event,x1\n1.0,1,0.5\n1.0,1\n")
    with pytest.raises(DataError, match="line 3"):
        read_csv(path)


def test_header_validation(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("duration,event,x1\n1.0,1,0.5\n")
    with pytest.raises(DataError, match="header"):
        read_csv(path)
    path.write_text("time,event,foo\n1.0,1,0.5\n")
    with pytest.raises(DataError, match="x1"):
        read_csv(path)
    path.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_csv(path)


def test_subset_keeps_oracle():
    d = _data(10)
    s = d.subset(np.array([1, 3, 5]))
    assert s.n == 3
    assert np.array_equal(s.true_event_times, d.true_event_times[[1, 3, 5]])


def test_predictions_round_trip(tmp_path):
    log_t = np.array([-0.5, 0.0, 1.25])
    path = tmp_path / "p.csv"
    write_predictions_csv(log_t, np.exp(log_t), path)
    back_log, back_t = read_predictions_csv(path)
    assert np.array_equal(back_log, log_t)
    assert np.array_equal(back_t, np.exp(log_t))


def test_predictions_bad_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="header"):
        read_predictions_csv(path)


def test_missing_files_are_data_errors(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_csv(tmp_path / "absent.csv")
    with pytest.raises(DataError, match="cannot read"):
        read_predictions_csv(tmp_path / "absent.csv")
