"""Output checks for the benchmark, written apart from the depaft package.

Nothing here imports depaft.  Each check recomputes a result from what a
workload produced (CSV and JSON files, parsed with the standard library,
or plain values an entry point returned) or tests a property the method
must have.  A failed check raises CheckFailed.
"""
from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy.stats import kendalltau

# Censoring fraction of study 2's DGP (Clayton theta = 3) at each c, as the
# depaft README states it: ~90/74/50/10% censoring.
CENSORING_ANCHORS = {0.89: 0.90, 1.2: 0.74, 1.49: 0.50, 2.06: 0.10}


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_columns(path) -> dict[str, list[float]]:
    """A CSV file as {column name: floats}, parsed without depaft."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        columns = [[] for _ in header]
        for row in reader:
            for col, cell in zip(columns, row):
                col.append(float(cell))
    return dict(zip(header, columns))


def concordance(times, events, predicted) -> float:
    """Harrell's concordance, O(n log n) with a Fenwick tree over ranks.

    A pair (i, j) is usable when row i is an event and t_i < t_j, or
    t_i == t_j with row j censored; it is concordant when p_i < p_j, and
    a prediction tie earns half credit.  Rows are visited from the latest
    time down; for each time the censored rows enter the tree before the
    events are counted, and the events enter after.
    """
    n = len(times)
    ranks = {v: k + 1 for k, v in enumerate(sorted(set(predicted)))}
    m = len(ranks)
    tree = [0] * (m + 1)

    def add(k):
        while k <= m:
            tree[k] += 1
            k += k & -k

    def prefix(k):  # rows inserted with rank <= k
        s = 0
        while k > 0:
            s += tree[k]
            k -= k & -k
        return s

    order = sorted(range(n), key=lambda i: times[i], reverse=True)
    inserted = usable = credit2 = 0
    start = 0
    while start < n:
        stop = start
        while stop < n and times[order[stop]] == times[order[start]]:
            stop += 1
        group = order[start:stop]
        for i in group:
            if not events[i]:
                add(ranks[predicted[i]])
                inserted += 1
        for i in group:
            if events[i]:
                r = ranks[predicted[i]]
                at_most = prefix(r)
                tied = at_most - prefix(r - 1)
                usable += inserted
                credit2 += 2 * (inserted - at_most) + tied
        for i in group:
            if events[i]:
                add(ranks[predicted[i]])
                inserted += 1
        start = stop
    if usable == 0:
        return 0.5
    return credit2 / (2.0 * usable)


def walk_model(model: dict, rows) -> list[float]:
    """Predicted log time per row by a plain walk over the model JSON.

    Sums in the order the ensemble does (base, then each tree's shrunk
    leaf weight), so the result is bit-identical when the model is right.
    """
    lr = model["learning_rate"]
    trees = [{node["id"]: node for node in tree["nodes"]} for tree in model["trees"]]
    out = []
    for x in rows:
        value = model["base_score"]
        for nodes in trees:
            node = nodes[0]
            while "weight" not in node:
                go_left = x[node["split_feature"]] < node["threshold"]
                node = nodes[node["left"] if go_left else node["right"]]
            value = value + lr * node["weight"]
        out.append(value)
    return out


def check_predictions(model: dict, data: dict, preds: dict, sample) -> None:
    """Predictions equal a tree walk on the sampled rows, and
    predicted_time == exp(predicted_log_time) on every row."""
    log_t = preds["predicted_log_time"]
    expect(len(log_t) == len(data["time"]), "prediction and data row counts differ")
    p = model["n_features"]
    rows = [[data[f"x{j + 1}"][i] for j in range(p)] for i in sample]
    walked = walk_model(model, rows)
    for i, w in zip(sample, walked):
        expect(log_t[i] == w, f"row {i}: predicted_log_time {log_t[i]!r} != tree walk {w!r}")
    t = np.asarray(preds["predicted_time"])
    bad = np.flatnonzero(t != np.exp(np.asarray(log_t)))
    expect(bad.size == 0, f"predicted_time != exp(predicted_log_time) on {bad.size} rows")


def check_c_index(reported: float, times, events, predicted, where: str) -> None:
    ours = concordance(times, events, predicted)
    expect(reported == ours, f"{where}: c_index {reported!r} != reference {ours!r}")


def check_calibration(curve: dict, n: int) -> None:
    """Observed proportions sit within 1/n of the quantile levels i/(H+1),
    and predicted proportions never decrease."""
    observed = curve["observed_proportion"]
    predicted = curve["predicted_proportion"]
    levels = len(observed) + 1
    for i, o in enumerate(observed, start=1):
        expect(abs(o - i / levels) <= 1.0 / n, f"observed_proportion[{i}] = {o} is not ~{i}/{levels}")
    expect(
        all(a <= b for a, b in zip(predicted, predicted[1:])),
        f"predicted_proportion decreases: {predicted}",
    )


def check_censoring(c: float, fraction: float, n: int) -> None:
    """Censoring fraction near the anchor for c: 0.01 for the anchors'
    rounding plus ten binomial standard deviations at n rows.

    The fraction is not binomial.  The DGP draws both margins at random
    and pairs them by the ranks of a fresh copula sample, so at c = 1.49
    it spreads about twice as much as a binomial count (sd 0.031 at
    n = 1000 over 3000 seeds, 0.012 at n = 8000, 0.0075 at n = 20000).
    Ten binomial sds are about five of its own.
    """
    anchor = CENSORING_ANCHORS[c]
    tol = 0.01 + 10.0 * math.sqrt(anchor * (1.0 - anchor) / n)
    expect(abs(fraction - anchor) <= tol, f"c={c}: censoring {fraction:.4f} not within {tol:.3f} of {anchor}")


def check_kendall_tau(event_times, censor_times, theta: float, tol: float = 0.025) -> None:
    """Kendall tau of the true (event, censoring) pair near theta/(theta+2),
    the Clayton copula's tau."""
    tau = kendalltau(event_times, censor_times)[0]
    target = theta / (theta + 2.0)
    expect(abs(tau - target) <= tol, f"Kendall tau {tau:.4f} not within {tol} of {target:.4f}")


def checkpoint_schedule(max_rounds: int, stride: int) -> list[int]:
    points = list(range(stride, max_rounds + 1, stride))
    if points[-1] != max_rounds:
        points.append(max_rounds)
    return points


def check_cv_result(result: dict, model: dict, max_rounds: int, stride: int) -> None:
    """Each point's mean is the mean of its fold scores, the best point is
    the highest mean (ties: fewer rounds, then smaller theta), and the
    refit model has best.rounds trees."""
    schedule = checkpoint_schedule(max_rounds, stride)
    expect(result["checkpoints"] == schedule, "checkpoints differ from the stride schedule")
    best = None
    for point in result["points"]:
        scores = point["fold_scores"]
        expect(point["mean_score"] == sum(scores) / len(scores), f"mean_score of {point} is not the fold mean")
        theta = point["theta"] if point["theta"] is not None else 0.0
        key = (-point["mean_score"], point["rounds"], theta)
        if best is None or key < best[0]:
            best = (key, point)
    chosen = result["best"]
    expect(
        (chosen["theta"], chosen["rounds"], chosen["mean_score"])
        == (best[1]["theta"], best[1]["rounds"], best[1]["mean_score"]),
        f"cv best {chosen} is not the tie-broken maximum {best[1]}",
    )
    expect(len(model["trees"]) == chosen["rounds"], f"refit has {len(model['trees'])} trees, best.rounds is {chosen['rounds']}")


def check_study_record(record: dict, n_train: int, n_test: int, max_rounds: int, stride: int) -> None:
    """Censoring near its anchor, and for each model a c-index above 0.5,
    rounds on the checkpoint schedule and a well-formed calibration curve."""
    schedule = set(checkpoint_schedule(max_rounds, stride))
    check_censoring(record["c"], record["train_censoring"], n_train)
    check_censoring(record["c"], record["test_censoring"], n_test)
    for name, m in record["models"].items():
        expect(m["c_index"] > 0.5, f"{name}: c_index {m['c_index']} <= 0.5")
        expect(m["rounds"] in schedule, f"{name}: rounds {m['rounds']} off the checkpoint schedule")
        check_calibration(m["calibration"], n_test)


def check_results_mean(results_path, mean_path) -> None:
    """results_mean.csv equals the per-(grid point, model) mean of results.csv."""
    groups: dict[tuple[str, str], list[list[float]]] = {}
    with open(results_path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["grid_index"], row["model"])
            groups.setdefault(key, []).append(
                [float(row[k]) for k in ("test_censoring", "c_index", "mae", "event_mae")]
            )
    with open(mean_path, newline="") as fh:
        means = list(csv.DictReader(fh))
    expect(len(means) == len(groups), "results_mean.csv and results.csv cover different groups")
    for row in means:
        rows = groups[(row["grid_index"], row["model"])]
        expect(int(row["repetitions"]) == len(rows), f"repetitions of {row['model']} mismatch")
        got = [float(row[k]) for k in ("mean_test_censoring", "mean_c_index", "mean_mae", "mean_event_mae")]
        want = [float(np.mean(col)) for col in zip(*rows)]
        expect(got == want, f"results_mean row {got} != mean of results rows {want}")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)
