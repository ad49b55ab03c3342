"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

The study-level criteria run the desk-scale studies 1 and 2 (5
repetitions) through the same code path as the study CLI.  Those two
runs take ~21 of the module's ~25 s on 2 vCPUs (15 s and 6 s with 2
workers).  Run this module alone with

    pytest tests/test_acceptance.py -v -s
"""
import csv
import json
import time

import numpy as np
import pytest
from scipy.stats import kendalltau

from depaft import (
    BaselineSpec,
    ClaytonAftLoss,
    CopulaSpec,
    DgpConfig,
    concordance,
    generate,
)
from depaft.booster import TrainConfig, _best_split, _Fit, _pack
from depaft.cli import main as cli_main
from depaft.studies import StudyConfig, run_study

from oracles import (
    ref_best_leaf_weight,
    ref_concordance,
    ref_frank_tau,
    ref_independent_limit_loss,
    ref_split_gain,
)

pytestmark = pytest.mark.acceptance


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# -- criterion 1: censoring-rate reproduction -------------------------------


def test_criterion_1_censoring_rates(tmp_path):
    t0 = time.time()
    anchors = [(0.89, 0.90), (1.49, 0.50), (2.06, 0.10)]
    results = {}
    for c, target in anchors:
        cfg = tmp_path / f"sim_{c}.json"
        cfg.write_text(json.dumps({
            "n": 10_000, "c": c, "copula": {"family": "clayton", "theta": 3.0}, "seed": 71,
        }))
        out = tmp_path / f"out_{c}"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        meta = json.loads((out / "metadata.json").read_text())
        results[c] = (meta["censoring_fraction"], target)
    # the c = 1.2 ~ 70% statement is made for the mixed-copula study:
    # average over its four dependence settings
    fractions = []
    for tag, family, theta in (
        ("cl", "clayton", 3.0), ("gu", "gumbel", 2.5), ("fr", "frank", 7.5),
        ("in", "independent", 0.0),
    ):
        cfg = tmp_path / f"sim12_{tag}.json"
        cfg.write_text(json.dumps({
            "n": 10_000, "c": 1.2, "copula": {"family": family, "theta": theta}, "seed": 71,
        }))
        out = tmp_path / f"out12_{tag}"
        assert cli_main(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        fractions.append(json.loads((out / "metadata.json").read_text())["censoring_fraction"])
    results[1.2] = (float(np.mean(fractions)), 0.70)
    elapsed = time.time() - t0
    ok = all(abs(got - target) <= 0.03 for got, target in results.values()) and elapsed < 5.0
    detail = ", ".join(
        f"c={c}: {got:.3f} (target {target:.2f})" for c, (got, target) in sorted(results.items())
    ) + f"; {elapsed:.1f}s"
    _report("criterion 1: censoring fractions within +-0.03 in <5s", ok, detail)


# -- criterion 2: Kendall's tau reproduction ---------------------------------


def test_criterion_2_kendall_tau():
    t0 = time.time()
    cases = [(CopulaSpec("clayton", th), th / (th + 2.0)) for th in (1.0, 2.0, 3.0, 8.0)]
    cases += [(CopulaSpec("gumbel", 2.5), 0.6), (CopulaSpec("frank", 7.5), ref_frank_tau(7.5))]
    details = []
    ok = True
    for spec, target in cases:
        sim = generate(DgpConfig(n=20_000, c=1.49, copula=spec, seed=42))
        tau = kendalltau(sim.data.true_event_times, sim.data.true_censor_times).statistic
        details.append(f"{spec.family}({spec.theta:g}): {tau:.3f} vs {target:.3f}")
        ok = ok and abs(tau - target) <= 0.02
    elapsed = time.time() - t0
    ok = ok and elapsed < 30.0
    _report(
        "criterion 2: induced tau matches theory within +-0.02 in <30s",
        ok, "; ".join(details) + f"; {elapsed:.1f}s",
    )


# -- criterion 3: derivative correctness -------------------------------------


def test_criterion_3_derivatives():
    t0 = time.time()
    worst_g = worst_h = 0.0
    rng = np.random.default_rng(1234)
    for family in ("extreme", "normal", "logistic"):
        for theta in (0.5, 1.0, 3.0, 8.0):
            loss = ClaytonAftLoss(theta, BaselineSpec(family, 1.0), BaselineSpec(family, 0.8))
            t = np.exp(rng.uniform(-1.2, 1.2, 200))
            d = rng.integers(0, 2, 200)
            y = rng.uniform(-1.2, 1.2, 200)
            eps = 1e-5
            fd_g = (loss.loss(t, d, y + eps) - loss.loss(t, d, y - eps)) / (2 * eps)
            g = loss.grad(t, d, y)
            fd_h = (loss.grad(t, d, y + eps) - loss.grad(t, d, y - eps)) / (2 * eps)
            h = loss.hess(t, d, y, floor=False)
            worst_g = max(worst_g, float(np.max(np.abs(g - fd_g) / (np.abs(fd_g) + 1e-8))))
            worst_h = max(worst_h, float(np.max(np.abs(h - fd_h) / (np.abs(fd_h) + 1e-8))))
            if not (np.allclose(g, fd_g, rtol=1e-4, atol=1e-8)
                    and np.allclose(h, fd_h, rtol=1e-4, atol=1e-8)):
                _report("criterion 3: gradients/Hessians match finite differences",
                        False, f"{family} theta={theta}")
    elapsed = time.time() - t0
    ok = elapsed < 5.0
    _report(
        "criterion 3: gradients/Hessians match finite differences (rtol 1e-4) in <5s",
        ok, f"worst rel dev grad {worst_g:.2e}, hess {worst_h:.2e}; {elapsed:.1f}s",
    )


# -- criterion 4: theta -> 0 degeneracy ---------------------------------------


def test_criterion_4_theta_zero_limit():
    loss = ClaytonAftLoss(1e-8, BaselineSpec("normal", 1.0), BaselineSpec("extreme", 0.8))
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        t = float(np.exp(rng.uniform(-1.0, 1.0)))
        delta = int(rng.integers(0, 2))
        yhat = float(rng.uniform(-1.0, 1.0))
        got = float(loss.loss(np.array([t]), np.array([delta]), np.array([yhat]))[0])
        want = ref_independent_limit_loss("normal", 1.0, "extreme", 0.8, t, delta, yhat)
        worst = max(worst, abs(got - want))
    _report(
        "criterion 4: theta=1e-8 loss equals the four-term independent form within 1e-5",
        worst < 1e-5, f"worst abs dev {worst:.2e} over 100 points",
    )


# -- criterion 5: concordance oracle equivalence ------------------------------


def test_criterion_5_concordance_oracle():
    rng = np.random.default_rng(5150)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 201))
        t = rng.integers(1, 25, size=n).astype(float)  # ties guaranteed
        d = rng.integers(0, 2, size=n)
        p = rng.integers(1, 12, size=n).astype(float)
        a = concordance(t, d, p)
        b = ref_concordance(list(t), list(d), list(p))
        worst = max(worst, abs(a - b))
    _report(
        "criterion 5: concordance equals O(n^2) brute force exactly on 100 instances",
        worst == 0.0, f"max abs dev {worst}",
    )


# -- criterion 6: booster objective optimality --------------------------------


def test_criterion_6_split_gain_and_leaf_weights():
    rng = np.random.default_rng(606)
    worst = 0.0
    checked = 0
    for _ in range(60):
        n = int(rng.integers(5, 51))
        X = rng.uniform(size=(n, 3))
        g = rng.normal(size=n)
        h = rng.uniform(0.3, 2.5, size=n)
        lam = float(rng.uniform(0.0, 2.0))
        gamma = float(rng.uniform(0.0, 0.3))
        cfg = TrainConfig(rounds=1, reg_lambda=lam, gamma=gamma)
        fit = _Fit(X)
        found = _best_split(g.sum(), h.sum(), fit.order, fit.xs.ravel(), _pack(g, h), fit, cfg)
        if found is None:
            continue
        gain, f, thr = found
        mask = X[:, f] < thr
        worst = max(worst, abs(gain - ref_split_gain(list(g), list(h), list(mask), lam, gamma)))
        for rows in (mask, ~mask):
            w = -g[rows].sum() / (h[rows].sum() + lam)
            worst = max(worst, abs(w - ref_best_leaf_weight(g[rows], h[rows], lam)))
        checked += 1
    _report(
        "criterion 6: split gains and leaf weights match brute force within 1e-9",
        worst <= 1e-9 and checked >= 40, f"max abs dev {worst:.2e} over {checked} instances",
    )


# -- criteria 7-9: study-level behavior ---------------------------------------


@pytest.fixture(scope="module")
def study1(tmp_path_factory):
    out = tmp_path_factory.mktemp("study1")
    run_study(StudyConfig(study=1, repetitions=5), str(out), workers=2, quiet=True)
    return out


@pytest.fixture(scope="module")
def study2(tmp_path_factory):
    out = tmp_path_factory.mktemp("study2")
    run_study(StudyConfig(study=2, repetitions=5), str(out), workers=2, quiet=True)
    return out


def _mean_mae(out_dir):
    rows = list(csv.DictReader(open(out_dir / "results_mean.csv")))
    return {(r["grid_label"], r["model"]): float(r["mean_mae"]) for r in rows}


def test_criterion_7_dependence_trend(study1):
    mae = _mean_mae(study1)
    std_lo = mae[("theta=1e-10", "independent")]
    std_hi = mae[("theta=8", "independent")]
    cl_lo = mae[("theta=1e-10", "clayton")]
    cl_hi = mae[("theta=8", "clayton")]
    cond_a = std_hi > std_lo
    cond_b = cl_hi < cl_lo
    upper = [(f"theta={th:g}", mae[(f"theta={th:g}", "clayton")],
              mae[(f"theta={th:g}", "independent")]) for th in (2, 3, 4, 5, 6, 7, 8)]
    cond_c = all(c < s for _, c, s in upper)
    detail = (
        f"std {std_lo:.3f}->{std_hi:.3f}; clayton {cl_lo:.3f}->{cl_hi:.3f}; "
        + "theta>=2 clayton<std: "
        + ", ".join(f"{lbl}:{c:.3f}<{s:.3f}" for lbl, c, s in upper)
    )
    _report(
        "criterion 7: dependence-sweep MAE trends (std up, clayton down, clayton<std for theta>=2)",
        cond_a and cond_b and cond_c, detail,
    )


def test_criterion_8_censoring_trend(study2):
    mae = _mean_mae(study2)
    order = ["c=2.06", "c=1.49", "c=1.2", "c=0.89"]  # censoring 10% -> 90%
    std = [mae[(c, "independent")] for c in order]
    cl = [mae[(c, "clayton")] for c in order]
    cond_inc = all(a < b for a, b in zip(std, std[1:]))
    cond_ratio = std[-1] / std[0] >= 2.0
    cond_flat = abs(cl[-1] - cl[0]) <= 0.25 * cl[0]
    cond_beats = all(c < s for c, s in zip(cl[1:], std[1:]))  # censoring >= 40%
    detail = (
        f"std {['%.3f' % v for v in std]} ratio {std[-1] / std[0]:.2f}; "
        f"clayton {['%.3f' % v for v in cl]} 90/10 {cl[-1] / cl[0]:.3f}"
    )
    _report(
        "criterion 8: censoring-sweep MAE trends (std x2+, clayton flat +-25%, clayton<std >=40%)",
        cond_inc and cond_ratio and cond_flat and cond_beats, detail,
    )


def test_criterion_9_calibration(study1):
    rows = list(csv.DictReader(open(study1 / "calibration_mean.csv")))
    curves = {}
    for r in rows:
        if r["grid_label"] == "theta=3":
            curves.setdefault(r["model"], []).append(
                (int(r["horizon_index"]),
                 float(r["predicted_proportion"]), float(r["observed_proportion"]))
            )
    std = sorted(curves["independent"])
    cl = sorted(curves["clayton"])
    below = sum(1 for _, p, o in std if p < o)
    std_dev = np.mean([abs(p - o) for _, p, o in std])
    cl_dev = np.mean([abs(p - o) for _, p, o in cl])
    ok = below >= 7 and cl_dev < std_dev
    _report(
        "criterion 9: calibration at theta=3/50% (std below diagonal >=7/9, clayton closer)",
        ok, f"std below diagonal at {below}/9 horizons; mean |dev| clayton "
            f"{cl_dev:.3f} vs std {std_dev:.3f}",
    )


# -- criterion 10: determinism ------------------------------------------------


def test_criterion_10_study_determinism(tmp_path):
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps({
        "study": 3, "repetitions": 2, "n_train": 80, "n_test": 80,
        "max_rounds": 12, "checkpoint_stride": 6, "max_depth": 2, "seed": 99,
    }))
    blobs = []
    for name, threads in (("a", 1), ("b", 1), ("c", 4)):
        out = tmp_path / name
        assert cli_main(["study", "--config", str(cfg_path), "--out", str(out),
                         "--threads", str(threads), "--quiet"]) == 0
        blobs.append(b"".join(
            (out / f).read_bytes()
            for f in ("results.csv", "results_mean.csv", "calibration_mean.csv")
        ))
    ok = blobs[0] == blobs[1] == blobs[2]
    _report(
        "criterion 10: cmd_study byte-identical across reruns and thread counts 1/4",
        ok, f"{len(blobs[0])} bytes compared",
    )
