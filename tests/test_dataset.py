import csv

import numpy as np
import pytest

from depaft.dataset import (
    SurvivalDataset,
    read_csv,
    read_predictions_csv,
    write_csv,
    write_predictions_csv,
    write_rows,
)
from depaft.errors import DataError

from oracles import ref_write_csv


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


@pytest.mark.parametrize("n_log, n_time", [(3, 5), (5, 3), (0, 1)])
def test_predictions_of_unequal_lengths_are_refused_before_the_file(tmp_path, n_log, n_time):
    # the writer took the shorter column's rows and dropped the rest
    path = tmp_path / "p.csv"
    with pytest.raises(DataError, match=f"predicted_time has {n_time} rows where predicted_log_time has {n_log}$"):
        write_predictions_csv(np.zeros(n_log), np.ones(n_time), path)
    assert not path.exists()


def test_predictions_bad_header(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(DataError, match="header"):
        read_predictions_csv(path)


def test_byte_order_mark_is_read_past(tmp_path):
    # spreadsheet exports often start with a UTF-8 byte-order mark; both
    # readers read such a file exactly as the file without it
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    write_csv(_data(), plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want, got = read_csv(plain), read_csv(marked)
    for name in ("times", "events", "X", "true_event_times", "true_censor_times"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    log_t = np.array([-0.5, 0.0, 1.25])
    write_predictions_csv(log_t, np.exp(log_t), plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for back, want in zip(read_predictions_csv(marked), read_predictions_csv(plain)):
        assert np.array_equal(back, want)


def test_missing_files_are_data_errors(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_csv(tmp_path / "absent.csv")
    with pytest.raises(DataError, match="cannot read"):
        read_predictions_csv(tmp_path / "absent.csv")


AWKWARD = [5e-324, 1e-300, 1.7976931348623157e308, 1e16, 0.1, 1.0, 2.5e-5, 123456.789]


def _awkward_data(n, oracle=True):
    """Rows whose floats need every repr form: subnormal, huge, exponent
    and plain, with negative and -0.0 covariates."""
    rng = np.random.default_rng(n)
    X = rng.choice(AWKWARD, size=(n, 3)) * rng.choice([1.0, -1.0], size=(n, 3))
    X[:, 2] = rng.uniform(-1, 1, size=n)
    X[::5, 1] = -0.0
    oracle_times = [rng.choice(AWKWARD, size=n) if oracle else None for _ in range(2)]
    return SurvivalDataset(rng.choice(AWKWARD, size=n), rng.integers(0, 2, size=n), X,
                           *oracle_times)


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("oracle", [True, False])
@pytest.mark.parametrize("n", [1, 1023, 1024, 1025])
def test_write_csv_matches_csv_module_and_round_trips(tmp_path, n, oracle):
    d = _awkward_data(n, oracle)
    header = ["time", "event", "x1", "x2", "x3"] + (
        ["true_event_time", "true_censor_time"] if oracle else [])
    columns = [d.times.tolist(), d.events.tolist()] + d.X.T.tolist()
    if oracle:
        columns += [d.true_event_times.tolist(), d.true_censor_times.tolist()]
    ref = tmp_path / "ref.csv"
    ref_write_csv(ref, header, zip(*columns))
    path = tmp_path / "d.csv"
    write_csv(d, path)
    assert path.read_bytes() == ref.read_bytes()
    back = read_csv(path)
    assert _same_bits(back.times, d.times) and _same_bits(back.X, d.X)
    assert back.events.tolist() == d.events.tolist()
    if oracle:
        assert _same_bits(back.true_event_times, d.true_event_times)
        assert _same_bits(back.true_censor_times, d.true_censor_times)
    else:
        assert not back.has_oracle


@pytest.mark.parametrize("n", [0, 1, 1024, 1025])
def test_write_rows_matches_csv_module(tmp_path, n):
    # the study tables mix ints, labels and floats of every repr form
    rows = [[3, i, f"theta={AWKWARD[i % 8]:g}", "clayton", AWKWARD[i % 8], -AWKWARD[(i + 3) % 8],
             -0.0] for i in range(n)]
    header = ["study", "grid_index", "grid_label", "copula_family", "a", "b", "c"]
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    path = tmp_path / "rows.csv"
    write_rows(path, header, iter(rows))
    assert path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025])
def test_write_predictions_matches_csv_module_and_round_trips(tmp_path, n):
    rng = np.random.default_rng(n)
    log_t = rng.choice(AWKWARD, size=n) * rng.choice([1.0, -1.0], size=n)
    log_t[::7] = -0.0
    times = rng.choice(AWKWARD, size=n)
    ref = tmp_path / "ref.csv"
    ref_write_csv(ref, ["predicted_log_time", "predicted_time"], zip(log_t.tolist(), times.tolist()))
    path = tmp_path / "p.csv"
    write_predictions_csv(log_t, times, path)
    assert path.read_bytes() == ref.read_bytes()
    back_log, back_t = read_predictions_csv(path)
    assert _same_bits(back_log, log_t) and _same_bits(back_t, times)


def _lines_with(tmp_path, edits, n=1500):
    """A valid 1500-row dataset file with some lines replaced."""
    path = tmp_path / "d.csv"
    write_csv(_awkward_data(n, oracle=False), path)
    lines = path.read_text().split("\n")
    for line, text in edits.items():
        lines[line - 1] = text + "\r"
    path.write_text("\n".join(lines), encoding="utf-8")
    return path


@pytest.mark.parametrize("edits, message", [
    ({1300: "1.0,1,nope,0.5,0.5"}, "line 1300: could not convert string to float: 'nope'"),
    ({1500: "1.0,0.7,0.5,0.5,0.5"}, "line 1500: event must be 0 or 1, got '0.7'"),
    ({1026: "1.0,1,0.5,0.5"}, "line 1026: expected 5 fields, got 4"),
    # the first faulty line wins, across blocks and within one
    ({1200: "1.0,2,0.5,0.5,0.5", 1030: "x,1,0.5,0.5,0.5"}, "line 1030: could not convert"),
    ({1100: "1.0,1,0.5,0.5", 1050: "1.0,-1,0.5,0.5,0.5"}, "line 1050: event must be"),
    ({1400: "1.0,1,0.5,0.5,0.5", 3: "1.0,1,0.5,0.5,bad"}, "line 3: could not convert"),
    # within a row the event is checked before the covariates after it
    ({1234: "1.0,0.5,bad,0.5,0.5"}, "line 1234: event must be 0 or 1, got '0.5'"),
])
def test_faults_past_the_first_block_name_their_line(tmp_path, edits, message):
    path = _lines_with(tmp_path, edits)
    with pytest.raises(DataError) as exc:
        read_csv(path)
    assert str(exc.value).startswith(f"{path}: {message}")


# float() reads each of these fields as a number; none is one
NOT_NUMBERS = ["1_0", '"1_000"', " 2.5", "2.5 ", "\t0.5", "0.5\x0b", "0.5\x0c", "\u0661",
               "\u00a00.5", "\uff12", "0.5\u2003"]


@pytest.mark.parametrize("token", NOT_NUMBERS)
def test_fields_that_are_no_plain_number_name_their_line(tmp_path, token):
    path = _lines_with(tmp_path, {1300: f"1.0,1,{token},0.5,0.5"})
    with pytest.raises(DataError) as exc:
        read_csv(path)
    assert str(exc.value) == f"{path}: line 1300: not a plain number: {token.strip(chr(34))!r}"
    path = tmp_path / "p.csv"
    path.write_text(f"predicted_log_time,predicted_time\n0.0,1.0\n{token},1.0\n", encoding="utf-8")
    with pytest.raises(DataError, match="line 3: not a plain number: "):
        read_predictions_csv(path)


def test_predictions_faults_past_the_first_block_name_their_line(tmp_path):
    path = tmp_path / "p.csv"
    write_predictions_csv(np.zeros(1500), np.ones(1500), path)
    lines = path.read_text().split("\n")
    lines[1099] = "0.0,oops\r"
    path.write_text("\n".join(lines))
    with pytest.raises(DataError, match="line 1100: could not convert string to float: 'oops'"):
        read_predictions_csv(path)
    lines[1099] = "0.0,1.0,2.0\r"
    path.write_text("\n".join(lines))
    with pytest.raises(DataError) as exc:
        read_predictions_csv(path)
    assert str(exc.value) == f"{path}: line 1100: expected 2 fields, got 3"


def test_predictions_without_rows(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("predicted_log_time,predicted_time\n")
    with pytest.raises(DataError, match="no data rows"):
        read_predictions_csv(path)
    data = tmp_path / "d.csv"
    data.write_text("time,event,x1\n")
    with pytest.raises(DataError, match="no data rows"):
        read_csv(data)


def test_untokenisable_field_is_a_data_error(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("time,event,x1\n1.0,1,0.5\n2.0,0," + "1" * 200_000 + "\n")
    with pytest.raises(DataError, match="line 3: field larger than field limit"):
        read_csv(path)
    path.write_text("predicted_log_time,predicted_time\n0.0,1.0\n0.0," + "1" * 200_000 + "\n")
    with pytest.raises(DataError, match="line 3: field larger than field limit"):
        read_predictions_csv(path)
