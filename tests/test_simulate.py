import math

import numpy as np
import pytest
from scipy.stats import kendalltau

from depaft.copula import CopulaSpec, clayton_theta_for_tau, kendall_tau
from depaft.errors import ConfigError, DataError
from depaft.simulate import (
    DgpConfig,
    _kendall_tau,
    draw_margins,
    generate,
    h_function,
    induce_rank_correlation,
)

CLAYTON3 = CopulaSpec("clayton", 3.0)


def test_config_validation():
    with pytest.raises(ConfigError):
        DgpConfig(n=1, c=1.0, copula=CLAYTON3)
    with pytest.raises(ConfigError):
        DgpConfig(n=100, c=0.0, copula=CLAYTON3)
    with pytest.raises(ConfigError, match=r"unknown simulate config fields: \['n_features'\]"):
        DgpConfig.from_dict({"n": 100, "c": 1.0, "copula": CLAYTON3.to_dict(), "n_features": 10})
    cfg = DgpConfig(n=100, c=1.49, copula=CLAYTON3, seed=3)
    assert DgpConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        DgpConfig.from_dict({"n": 10})


def test_h_function_hand_values():
    assert h_function(np.zeros(10)) == pytest.approx(0.8, rel=1e-15)
    expected = 1.0 + 0.5 + 1.0 + 0.8 * math.exp(-1.0) + math.sin(2.0)
    assert h_function(np.ones(10)) == pytest.approx(expected, rel=1e-14)


def test_h_function_noise_features_inert():
    rng = np.random.default_rng(0)
    x = rng.uniform(size=10)
    y = x.copy()
    y[8:] = rng.uniform(size=2)
    assert h_function(x) == h_function(y)


def test_h_function_shape_error():
    with pytest.raises(DataError):
        h_function(np.zeros(9))
    out = h_function(np.zeros((7, 10)))
    assert out.shape == (7,)


def test_draw_margins_structure():
    cfg = DgpConfig(n=5000, c=2.0, copula=CLAYTON3, seed=11)
    rng = np.random.default_rng(cfg.seed)
    T, U, X = draw_margins(cfg, rng)
    assert T.shape == (5000,) and U.shape == (5000,) and X.shape == (5000, 10)
    assert np.all(T > 0) and np.all(U > 0)
    assert np.all((X >= 0) & (X <= 1))


def test_weibull_margin_mean():
    # mean of Weibull(scale 1, shape 3) is Gamma(1 + 1/3)
    cfg = DgpConfig(n=100_000, c=1.0, copula=CLAYTON3, seed=4)
    rng = np.random.default_rng(cfg.seed)
    T, U, X = draw_margins(cfg, rng)
    r2 = U / cfg.c
    assert np.mean(r2) == pytest.approx(math.gamma(1 + 1 / 3), abs=0.005)


def test_margin_scale_is_h_of_x():
    # conditional on R1, the event time is exactly scale(X) * R1
    cfg = DgpConfig(n=2000, c=1.0, copula=CLAYTON3, seed=9)
    rng = np.random.default_rng(cfg.seed)
    T, U, X = draw_margins(cfg, rng)
    r1 = T / h_function(X)
    assert np.all(r1 > 0)
    # r1 should look like the Weibull noise: its log has the right mean
    assert np.mean(np.log(r1)) == pytest.approx(-np.euler_gamma / 3.0, abs=0.02)


def test_huge_c_removes_censoring():
    sim = generate(DgpConfig(n=2000, c=1e9, copula=CLAYTON3, seed=21))
    assert sim.censoring_fraction == pytest.approx(0.0, abs=1e-3)


@pytest.mark.parametrize("fields, names", [
    ({"c": 1.6e308}, "censoring times drawn with c, weibull_scale and weibull_shape"),
    ({"weibull_scale": 1e308}, "event times drawn with weibull_scale and weibull_shape"),
    ({"weibull_shape": 1e-3}, "event times drawn with weibull_scale and weibull_shape"),
])
def test_times_out_of_the_float_range_name_the_config_fields(fields, names):
    # the times leave the float range before any pair is drawn, so the
    # error names the fields that scale them, not a dataset column
    config = DgpConfig(**{"n": 46, "c": 1.49, "copula": CLAYTON3, "seed": 0, **fields})
    with pytest.raises(DataError, match=f"^{names} must be positive and finite$"):
        generate(config)


def test_rank_induction_preserves_marginals_and_tau():
    rng = np.random.default_rng(31)
    n = 20_000
    T = rng.weibull(3.0, n) * 1.7
    U = rng.weibull(3.0, n)
    X = rng.uniform(size=(n, 10))
    t_w, x_w, u_w = induce_rank_correlation(T, X, U, CLAYTON3, rng)
    assert np.array_equal(np.sort(t_w), np.sort(T))
    assert np.array_equal(np.sort(u_w), np.sort(U))
    tau = kendalltau(t_w, u_w).statistic
    assert abs(tau - 0.6) <= 0.02


def test_rank_induction_keeps_t_x_pairing():
    rng = np.random.default_rng(13)
    n = 500
    T = rng.weibull(3.0, n)
    U = rng.weibull(3.0, n)
    X = rng.uniform(size=(n, 10))
    pairing = {float(t): tuple(row) for t, row in zip(T, X)}
    t_w, x_w, u_w = induce_rank_correlation(T, X, U, CLAYTON3, rng)
    for t, row in zip(t_w, x_w):
        assert pairing[float(t)] == tuple(row)


def test_rank_induction_independent_copula():
    rng = np.random.default_rng(17)
    n = 20_000
    T = rng.weibull(3.0, n)
    U = rng.weibull(3.0, n)
    X = rng.uniform(size=(n, 10))
    t_w, _, u_w = induce_rank_correlation(T, X, U, CopulaSpec("independent"), rng)
    assert abs(kendalltau(t_w, u_w).statistic) <= 0.02


def test_rank_induction_shape_error():
    rng = np.random.default_rng(0)
    with pytest.raises(DataError):
        induce_rank_correlation(np.ones(3), np.ones((4, 10)), np.ones(3), CLAYTON3, rng)


def test_generate_row_level_consistency():
    sim = generate(DgpConfig(n=3000, c=1.49, copula=CLAYTON3, seed=8))
    d = sim.data
    assert np.all(d.times == np.minimum(d.true_event_times, d.true_censor_times))
    ev = d.events == 1
    assert np.all(d.true_event_times[ev] <= d.true_censor_times[ev])
    assert np.all(d.true_event_times[~ev] > d.true_censor_times[~ev])
    assert np.all(d.times[ev] == d.true_event_times[ev])
    assert np.all(d.times[~ev] == d.true_censor_times[~ev])


@pytest.mark.parametrize(
    "c,target",
    [(0.89, 0.90), (1.49, 0.50), (2.06, 0.10)],
)
def test_censoring_fractions_clayton3(c, target):
    sim = generate(DgpConfig(n=10_000, c=c, copula=CLAYTON3, seed=71))
    assert sim.censoring_fraction == pytest.approx(target, abs=0.03)


def test_censoring_fraction_c12_study3_average():
    # c = 1.2 yields ~70% censoring averaged over the four dependence
    # structures of the mixed-copula study
    fractions = []
    for spec in (CLAYTON3, CopulaSpec("gumbel", 2.5), CopulaSpec("frank", 7.5),
                 CopulaSpec("independent")):
        sim = generate(DgpConfig(n=10_000, c=1.2, copula=spec, seed=71))
        fractions.append(sim.censoring_fraction)
    assert np.mean(fractions) == pytest.approx(0.70, abs=0.03)


@pytest.mark.parametrize(
    "spec,tau",
    [
        (CopulaSpec("clayton", 1.0), 1 / 3),
        (CopulaSpec("clayton", 3.0), 0.6),
        (CopulaSpec("gumbel", 2.5), 0.6),
        (CopulaSpec("frank", 7.5), 0.6),
    ],
)
def test_generated_tau_matches_theory(spec, tau):
    sim = generate(DgpConfig(n=20_000, c=1.49, copula=spec, seed=5))
    got = kendalltau(sim.data.true_event_times, sim.data.true_censor_times).statistic
    assert abs(got - tau) <= 0.02


def test_conditional_law_preserved_by_induction():
    # log T regressed on the log event scale recovers slope 1: the (T, X)
    # coupling survives the reordering
    sim = generate(DgpConfig(n=20_000, c=1.49, copula=CLAYTON3, seed=15))
    x = np.log(h_function(sim.data.X))
    y = np.log(sim.data.true_event_times)
    slope = np.cov(x, y)[0, 1] / np.var(x)
    assert slope == pytest.approx(1.0, abs=0.05)


def test_metadata_contents():
    sim = generate(DgpConfig(n=500, c=1.2, copula=CopulaSpec("gumbel", 2.5), seed=2))
    meta = sim.metadata()
    assert meta["event_baseline"] == {"family": "extreme", "sigma": pytest.approx(1 / 3)}
    assert meta["censor_baseline"] == {"family": "extreme", "sigma": pytest.approx(1 / 3)}
    assert meta["theta"] == 2.5
    # gumbel theta=2.5 has tau 0.6, whose clayton counterpart is 3.0
    assert meta["clayton_equivalent_theta"] == pytest.approx(3.0, rel=1e-9)
    assert 0.0 <= meta["censoring_fraction"] <= 1.0


@pytest.mark.parametrize("n", [2, 3, 8, 9, 1000])
def test_kendall_tau_matches_scipy(n):
    rng = np.random.default_rng(n)
    for slope in (-1.0, 0.0, 0.5, 3.0):
        a = rng.normal(size=n)
        b = slope * a + rng.normal(size=n)
        assert _kendall_tau(a, b) == pytest.approx(kendalltau(a, b).statistic, abs=1e-12)


def test_residual_clayton_theta_matches_noise_tau():
    # the Clayton loss couples the errors given X, so the matched theta is
    # the one with the Kendall tau of (T / h(X), C), not that of (T, C)
    sim = generate(DgpConfig(n=5000, c=1.49, copula=CLAYTON3, seed=23))
    d = sim.data
    tau = kendalltau(d.true_event_times / h_function(d.X), d.true_censor_times).statistic
    assert sim.residual_clayton_theta == pytest.approx(clayton_theta_for_tau(tau), rel=1e-12)
    assert sim.metadata()["residual_clayton_theta"] == sim.residual_clayton_theta
    assert 1.0 < sim.residual_clayton_theta < 0.6 * sim.clayton_equivalent_theta

    independent = generate(
        DgpConfig(n=5000, c=1.49, copula=CopulaSpec("independent"), seed=23)
    )
    assert independent.residual_clayton_theta < 0.05


def test_residual_clayton_theta_tiny_sample_stays_finite():
    # two rows give tau +-1; tau 1 has no finite Clayton counterpart
    for seed in range(20):
        sim = generate(DgpConfig(n=2, c=1.49, copula=CLAYTON3, seed=seed))
        assert sim.residual_clayton_theta in (1e-10, sim.clayton_equivalent_theta)


def test_generate_deterministic():
    a = generate(DgpConfig(n=300, c=1.49, copula=CLAYTON3, seed=99))
    b = generate(DgpConfig(n=300, c=1.49, copula=CLAYTON3, seed=99))
    assert np.array_equal(a.data.times, b.data.times)
    assert np.array_equal(a.data.X, b.data.X)
    c = generate(DgpConfig(n=300, c=1.49, copula=CLAYTON3, seed=100))
    assert not np.array_equal(a.data.times, c.data.times)


@pytest.mark.parametrize("field, value", [
    ("n", "abc"), ("n", "300"), ("n", 300.5), ("c", "x"), ("c", None),
    ("weibull_shape", [3.0]), ("seed", "7"), ("n", True), ("c", False),
])
def test_config_rejects_non_numeric_fields(field, value):
    d = {"n": 100, "c": 1.49, "copula": {"family": "clayton", "theta": 3.0}, field: value}
    with pytest.raises(ConfigError, match=field):
        DgpConfig.from_dict(d)


@pytest.mark.parametrize("theta", ["x", "3.0", None, [3.0]])
def test_copula_spec_rejects_non_numeric_theta(theta):
    with pytest.raises(ConfigError, match="theta"):
        CopulaSpec.from_dict({"family": "clayton", "theta": theta})
