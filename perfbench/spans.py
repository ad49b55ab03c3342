"""Span tracing of depaft from outside the package.

Tracer.install() replaces depaft's public entry points with wrappers that
record one span each: name, parent span, start, end, the benchmark
operation it ran under, and a work count (rows, trees or bytes).  A
function that another depaft module imported by name is replaced in that
module too, so every call path is seen.  No program file is edited, and
uninstall() puts the originals back.  Spans stay in memory until the run
ends.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

from depaft import booster, cli, copula, dataset, distributions, loss, metrics, simulate, studies, tuning


def _from_arg(fn, name, measure):
    """A work count: `measure` of argument `name` of a call to fn."""
    sig = inspect.signature(fn)
    return lambda args, kwargs, out: measure(sig.bind(*args, **kwargs).arguments[name])


# (owner, attribute, span name, work count or None)
_ENTRY_POINTS = [
    (booster, "train", "booster.train", lambda a, k, out: out.n_rounds),
    (booster.TreeEnsemble, "predict", "booster.predict", lambda a, k, out: len(out)),
    (booster, "save", "booster.save", _from_arg(booster.save, "path", os.path.getsize)),
    (booster, "load", "booster.load", None),
    (loss.ClaytonAftLoss, "grad_hess", "loss.grad_hess", None),
    (loss.IndependentAftLoss, "grad_hess", "loss.grad_hess", None),
    (loss.ClaytonAftLoss, "loss", "loss.loss", None),
    (loss.IndependentAftLoss, "loss", "loss.loss", None),
    (distributions, "cdf", "distributions", None),
    (distributions, "survival", "distributions", None),
    (distributions, "pdf", "distributions", None),
    (distributions, "pdf_grad", "distributions", None),
    (distributions, "pdf_hess", "distributions", None),
    (metrics, "concordance", "metrics.concordance", _from_arg(metrics.concordance, "times", len)),
    (metrics, "evaluate_predictions", "metrics.evaluate", None),
    (dataset, "read_csv", "dataset.read_csv", lambda a, k, out: out.n),
    (dataset, "read_predictions_csv", "dataset.read_csv", lambda a, k, out: len(out[1])),
    (dataset, "write_csv", "dataset.write_csv", _from_arg(dataset.write_csv, "dataset", lambda d: d.n)),
    (dataset, "write_predictions_csv", "dataset.write_csv",
     _from_arg(dataset.write_predictions_csv, "log_times", len)),
    (dataset.SurvivalDataset, "subset", "dataset.subset", None),
    (simulate, "generate", "simulate.generate", lambda a, k, out: out.data.n),
    (copula, "sample_pairs", "copula.sample_pairs", None),
    (tuning, "grid_search", "tuning.grid_search", lambda a, k, out: out[1].n_rounds),
    (studies, "run_task", "studies.run_task", None),
    (studies, "run_study", "studies.run_study", None),
    (cli, "main", "cli.main", None),
]


class Tracer:
    def __init__(self):
        # span: (name, parent index or -1, start, end, operation, work count)
        self.spans: list = []
        self.op = None  # label of the benchmark operation now running
        self.tree_predict_calls = 0
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, parent, start, end, self.op, 0)
            if count is not None:
                spans[sid] = (name, parent, start, end, self.op, count(args, kwargs, out))
            return out

        return traced

    def _replace(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        modules = [m for k, m in sorted(sys.modules.items()) if k == "depaft" or k.startswith("depaft.")]
        for owner, attr, name, count in _ENTRY_POINTS:
            fn = owner.__dict__[attr]
            wrapper = self._wrap(name, fn, count)
            if isinstance(owner, type):
                self._replace(owner, attr, wrapper)
                continue
            for module in modules:  # the defining module and every importer
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, key, wrapper)

        tree_predict = booster.RegressionTree.predict

        @functools.wraps(tree_predict)
        def counted(tree, X):
            self.tree_predict_calls += 1
            return tree_predict(tree, X)

        self._replace(booster.RegressionTree, "predict", counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, parent, start, end, op, work) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "name": name, "op": op,
                    "start": start, "end": end, "work": work,
                }) + "\n")


def _inclusive(spans, name):
    """Total time of `name` spans, counting a span nested inside another
    span of the same name once."""
    total = 0.0
    for s in spans:
        if s[0] != name:
            continue
        p = s[1]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            total += s[3] - s[2]
    return total


def _self_times(spans):
    """Self time per span: duration minus the time of its direct children
    (calls are single-threaded, so children never overlap)."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[3] - s[2]
    return own


def _under(spans, i, name):
    p = spans[i][1]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][1]
    return False


def layer_metrics(tracer: Tracer, rounds: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics, per traced round of the workload."""
    spans = tracer.spans
    own = _self_times(spans)

    def time_of(name):
        return _inclusive(spans, name)

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def work(name):
        return sum(s[5] for s in spans if s[0] == name)

    def self_of(name):
        return sum(own[i] for i, s in enumerate(spans) if s[0] == name)

    train_s = time_of("booster.train")
    trees = work("booster.train")
    searched = [
        s[5] for i, s in enumerate(spans)
        if s[0] == "booster.train" and _under(spans, i, "tuning.grid_search")
    ]
    fits, grown = len(searched), sum(searched)
    selected = work("tuning.grid_search")
    total = {
        "booster.train_s": train_s,
        "booster.train_self_s": self_of("booster.train"),
        "booster.trees_grown": trees,
        "booster.s_per_tree": train_s / trees if trees else 0.0,
        "booster.predict_s": time_of("booster.predict"),
        "booster.predict_rows": work("booster.predict"),
        "booster.tree_predict_calls": tracer.tree_predict_calls,
        "booster.save_s": time_of("booster.save"),
        "booster.load_s": time_of("booster.load"),
        "booster.model_bytes": work("booster.save"),
        "loss.grad_hess_s": time_of("loss.grad_hess"),
        "loss.grad_hess_calls": calls("loss.grad_hess"),
        "loss.loss_s": time_of("loss.loss"),
        "loss.loss_calls": calls("loss.loss"),
        "distributions.s": time_of("distributions"),
        "distributions.calls": calls("distributions"),
        "metrics.concordance_s": time_of("metrics.concordance"),
        "metrics.concordance_calls": calls("metrics.concordance"),
        "metrics.concordance_rows": work("metrics.concordance"),
        "metrics.evaluate_s": time_of("metrics.evaluate"),
        "dataset.read_csv_s": time_of("dataset.read_csv"),
        "dataset.write_csv_s": time_of("dataset.write_csv"),
        "dataset.rows_read": work("dataset.read_csv"),
        "dataset.rows_written": work("dataset.write_csv"),
        "dataset.subset_s": time_of("dataset.subset"),
        "simulate.generate_s": time_of("simulate.generate"),
        "simulate.rows": work("simulate.generate"),
        "copula.sample_pairs_s": time_of("copula.sample_pairs"),
        "tuning.grid_search_self_s": self_of("tuning.grid_search"),
        "tuning.fits": fits,
        "tuning.rounds_grown": grown,
        "tuning.rounds_selected": selected,
        "studies.run_task_s": time_of("studies.run_task"),
        "studies.tasks": calls("studies.run_task"),
        "studies.run_study_self_s": self_of("studies.run_study"),
        "cli.self_s": self_of("cli.main"),
    }
    out = {k: v / rounds for k, v in total.items()}
    out["tuning.selected_to_grown_rounds"] = selected / grown if grown else 0.0
    out["trace.overhead_s"] = overhead_s
    return out


def top_level_seconds(tracer: Tracer, op) -> float:
    """Time covered by the spans of operation `op` that have no parent."""
    return sum(s[3] - s[2] for s in tracer.spans if s[4] == op and s[1] < 0)
