import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kendalltau, kstest

from depaft import copula
from depaft.copula import CopulaSpec, clayton_theta_for_tau, kendall_tau, sample_pairs
from depaft.errors import ConfigError, NumericError
from depaft.studies import STUDY3_COPULAS

from oracles import (
    ref_clayton_generator,
    ref_clayton_generator_inv,
    ref_copula_cdf,
    ref_frank_conditional_inverse,
    ref_frank_tau,
    ref_gumbel_draw,
)
from pins import pin

STUDY_SPECS = [
    CopulaSpec("clayton", 1.0),
    CopulaSpec("clayton", 3.0),
    CopulaSpec("clayton", 8.0),
    CopulaSpec("gumbel", 2.5),
    CopulaSpec("frank", 7.5),
    CopulaSpec("independent"),
]


def test_spec_validation():
    with pytest.raises(ConfigError):
        CopulaSpec("clayton", 0.0)
    with pytest.raises(ConfigError):
        CopulaSpec("clayton", -1.0)
    with pytest.raises(ConfigError):
        CopulaSpec("gumbel", 0.9)
    with pytest.raises(ConfigError):
        CopulaSpec("frank", 0.0)
    with pytest.raises(ConfigError):
        CopulaSpec("gaussian", 1.0)
    CopulaSpec("clayton", 1e-10)  # the near-independence setting is legal


@pytest.mark.parametrize("family", ["clayton", "gumbel", "frank", "independent"])
@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_spec_rejects_nonfinite_theta(family, theta):
    with pytest.raises(ConfigError, match="finite"):
        CopulaSpec(family, theta)


# The generator tests pin the reference generator algebra that the CDF
# composition test below checks the closed-form ref_copula_cdf against.


def test_generator_hand_values():
    assert ref_clayton_generator(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert ref_clayton_generator(1.0, 0.5) == pytest.approx(1.0, rel=1e-12)
    assert ref_clayton_generator(2.0, 0.5) == pytest.approx(1.5, rel=1e-12)
    assert ref_clayton_generator_inv(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert ref_clayton_generator_inv(1.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert ref_clayton_generator_inv(2.0, 1.5) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 4.0, 8.0])
def test_generator_round_trip(theta):
    t = np.arange(0.01, 1.0, 0.01)
    back = ref_clayton_generator_inv(theta, ref_clayton_generator(theta, t))
    assert np.all(np.abs(back - t) < 1e-12)
    assert np.all(np.diff(ref_clayton_generator(theta, t)) < 0.0)  # strictly decreasing


@given(
    st.floats(0.05, 8.0),
    st.floats(1e-6, 1.0, exclude_min=False),
)
@settings(max_examples=200)
def test_generator_round_trip_property(theta, t):
    back = ref_clayton_generator_inv(theta, ref_clayton_generator(theta, t))
    assert back == pytest.approx(t, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("theta", [0.5, 2.0, 5.0])
def test_clayton_cdf_is_generator_composition(theta):
    u = np.linspace(0.05, 0.95, 10)
    v = np.linspace(0.9, 0.1, 10)
    direct = ref_copula_cdf("clayton", theta, u, v)
    composed = ref_clayton_generator_inv(
        theta, ref_clayton_generator(theta, u) + ref_clayton_generator(theta, v)
    )
    assert np.allclose(direct, composed, atol=1e-12)


def test_cdf_boundaries_and_product():
    assert ref_copula_cdf("clayton", 3.0, 0.7, 1.0) == pytest.approx(0.7, rel=1e-12)
    for spec in STUDY_SPECS:
        assert ref_copula_cdf(spec.family, spec.theta, 0.4, 0.0) == pytest.approx(0.0, abs=1e-15)
        assert ref_copula_cdf(spec.family, spec.theta, 0.0, 0.4) == pytest.approx(0.0, abs=1e-15)
        assert ref_copula_cdf(spec.family, spec.theta, 1.0, 0.6) == pytest.approx(0.6, rel=1e-9)
    assert ref_copula_cdf("independent", 0.0, 0.5, 0.5) == pytest.approx(0.25)


@pytest.mark.parametrize("spec", STUDY_SPECS)
def test_two_increasing(spec):
    grid = np.linspace(0.0, 1.0, 11)
    c = ref_copula_cdf(spec.family, spec.theta, grid[:, None], grid[None, :])
    rect = c[1:, 1:] - c[:-1, 1:] - c[1:, :-1] + c[:-1, :-1]
    assert np.all(rect >= -1e-12)


@pytest.mark.parametrize("spec", STUDY3_COPULAS, ids=lambda spec: spec.family)
def test_sampler_joint_cdf_matches_the_copula(spec):
    # the bivariate DKW inequality (Naaman 2021) bounds the chance that
    # the empirical CDF of n pairs strays anywhere by more than eps by
    # 2 (n + 1) exp(-2 n eps^2); eps is set for a chance of 1e-6
    n = 50_000
    w1, w2 = sample_pairs(spec, n, np.random.default_rng(3))
    grid = np.linspace(0.05, 0.95, 19)
    below1, below2 = (w1[:, None] <= grid).astype(float), (w2[:, None] <= grid).astype(float)
    empirical = below1.T @ below2 / n  # [i, j]: share of pairs with w1 <= grid[i], w2 <= grid[j]
    eps = math.sqrt(math.log(2 * (n + 1) / 1e-6) / (2 * n))
    exact = ref_copula_cdf(spec.family, spec.theta, grid[:, None], grid[None, :])
    assert np.max(np.abs(empirical - exact)) <= eps


def test_kendall_tau_table_values():
    # theta / (theta + 2) at the dependence-sweep settings
    for theta, tau in [(1.0, 0.33), (2.0, 0.50), (3.0, 0.60), (8.0, 0.80)]:
        assert kendall_tau(CopulaSpec("clayton", theta)) == pytest.approx(tau, abs=0.005)
    assert kendall_tau(CopulaSpec("gumbel", 2.5)) == pytest.approx(0.6, rel=1e-12)
    assert kendall_tau(CopulaSpec("independent")) == 0.0
    assert kendall_tau(CopulaSpec("clayton", 1e-10)) == pytest.approx(5e-11, rel=1e-6)


def test_kendall_tau_frank_debye_quadrature():
    # cross-check D1 against the series pi^2/6 tail bound at theta = 7.5:
    # D1(theta) = (1/theta) * (pi^2/6 - integral_theta^inf t/(e^t-1) dt)
    from scipy.integrate import quad

    tail, _ = quad(lambda t: t / np.expm1(t) if t < 700 else 0.0, 7.5, np.inf)
    d1 = (math.pi**2 / 6.0 - tail) / 7.5
    expected = 1.0 + 4.0 / 7.5 * (d1 - 1.0)
    assert kendall_tau(CopulaSpec("frank", 7.5)) == pytest.approx(expected, abs=1e-9)
    # the nominal tau = 0.6 setting is approximate for frank
    assert kendall_tau(CopulaSpec("frank", 7.5)) == pytest.approx(0.6, abs=0.02)
    # negative theta flips the sign of dependence
    assert kendall_tau(CopulaSpec("frank", -7.5)) == pytest.approx(-expected, abs=1e-9)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_kendall_tau_frank_matches_mpmath(sign):
    # the closed form and its small-theta series, across the switch at
    # |theta| = 0.05 and out to where e^-theta underflows
    grid = np.concatenate([np.logspace(-12, math.log10(700.0), 120), [0.0499, 0.05, 7.5]])
    for theta in sign * grid:
        tau = kendall_tau(CopulaSpec("frank", float(theta)))
        assert abs(tau - ref_frank_tau(float(theta))) <= 1e-12, theta


def test_clayton_theta_for_tau_inverts():
    for theta in (0.5, 1.0, 3.0, 8.0):
        tau = kendall_tau(CopulaSpec("clayton", theta))
        assert clayton_theta_for_tau(tau) == pytest.approx(theta, rel=1e-12)
    assert clayton_theta_for_tau(0.0) == 1e-10


@pytest.mark.parametrize("spec", STUDY_SPECS)
def test_sampler_marginals_uniform(spec):
    rng = np.random.default_rng(42)
    w1, w2 = sample_pairs(spec, 20_000, rng)
    assert kstest(w1, "uniform").pvalue >= 0.01
    assert kstest(w2, "uniform").pvalue >= 0.01


@pytest.mark.parametrize("spec", STUDY_SPECS)
def test_sampler_empirical_tau(spec):
    rng = np.random.default_rng(42)
    w1, w2 = sample_pairs(spec, 20_000, rng)
    tau_hat = kendalltau(w1, w2).statistic
    assert abs(tau_hat - kendall_tau(spec)) <= 0.02


def test_near_independence_clayton_sampler():
    # theta = 1e-10 goes through the Clayton sampler itself, not a special case
    rng = np.random.default_rng(7)
    w1, w2 = sample_pairs(CopulaSpec("clayton", 1e-10), 20_000, rng)
    assert abs(kendalltau(w1, w2).statistic) <= 0.02
    assert kstest(w1, "uniform").pvalue >= 0.01


@pytest.mark.parametrize("theta", [5e-309, 1e-310, 5e-324])
def test_clayton_theta_whose_inverse_overflows_draws_independent_pairs(theta):
    # 1/theta is inf, so no gamma frailty exists; to double precision
    # such a theta is independence, and the pairs are drawn as such
    w1, w2 = sample_pairs(CopulaSpec("clayton", theta), 4000, np.random.default_rng(3))
    assert abs(kendalltau(w1, w2).statistic) <= 0.05
    assert np.all((w1 > 0.0) & (w1 < 1.0) & (w2 > 0.0) & (w2 < 1.0))


@pytest.mark.parametrize("theta", [1e-10, 1e-300, 5.6e-309])
def test_clayton_theta_with_a_finite_inverse_keeps_the_frailty_draws(theta):
    # down to the overflow boundary, theta goes through the gamma frailty
    rng = np.random.default_rng(4)
    k = rng.gamma(1.0 / theta, 1.0, size=50)
    x = rng.uniform(size=(50, 2))
    w = np.exp(-np.log1p(-np.log(x) / k[:, None]) / theta)
    w1, w2 = sample_pairs(CopulaSpec("clayton", theta), 50, np.random.default_rng(4))
    assert np.array_equal(w1, w[:, 0]) and np.array_equal(w2, w[:, 1])


@pytest.mark.pinned
def test_clayton_draws_that_worked_keep_their_bits():
    # SHA-256 of the draws taken before frailties that underflow were
    # drawn in log space: every theta that worked keeps its draws
    digest = hashlib.sha256()
    for theta in (0.5, 3.0, 100.0):
        w1, w2 = sample_pairs(CopulaSpec("clayton", theta), 400, np.random.default_rng(0))
        digest.update(w1.tobytes())
        digest.update(w2.tobytes())
    assert digest.hexdigest() == pin({
        "X86_V4": "6ec962a870124923144dff451a9836f1a10a75d0a70434b1ec66af68e17c2345",
        "X86_V3": "4d3ff4aad98602f0ade0d90fa6c9023e67d06d30e5e00c70824141d4679b3c3f",
    })


@pytest.mark.parametrize("theta, zeros", [(150.0, 26), (1000.0, 1893)])
def test_clayton_sampler_at_large_theta_keeps_its_tau(theta, zeros):
    # rng.gamma(1/theta) underflows to 0 on some rows, which used to be
    # a NumericError; those rows draw their frailty in log space, with
    # no warning, and the pairs keep the copula's tau (a redraw that
    # ignored where the frailty underflowed read 0.9966 at theta = 1000)
    n, spec = 4000, CopulaSpec("clayton", theta)
    assert np.sum(np.random.default_rng(0).gamma(1.0 / theta, 1.0, size=n) == 0.0) == zeros
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w1, w2 = sample_pairs(spec, n, np.random.default_rng(0))
    assert np.all((w1 > 0.0) & (w1 < 1.0) & (w2 > 0.0) & (w2 < 1.0))
    tau = kendall_tau(spec)
    assert abs(kendalltau(w1, w2).statistic - tau) <= 0.25 * (1.0 - tau)


@pytest.mark.pinned
def test_frank_draws_that_worked_keep_their_bits():
    # SHA-256 of the draws taken before rows that cancel were drawn in
    # log space: every theta that worked keeps its draws
    digest = hashlib.sha256()
    for theta in (-30.0, -5.0, 0.5, 7.5, 30.0):
        w1, w2 = sample_pairs(CopulaSpec("frank", theta), 400, np.random.default_rng(0))
        digest.update(w1.tobytes())
        digest.update(w2.tobytes())
    assert digest.hexdigest() == pin({
        "X86_V4": "e09949b69110c40089433cc885f66a694abccba943a3c73cd3bae2142929cec1",
        "X86_V3": "6eef8cbb87ac9729dcf0d33c5d4320fa281d039cda59aa68eee4820c6b1ca317",
    })


@pytest.mark.parametrize("theta", [40.0, 100.0, 1000.0, -720.0])
def test_frank_sampler_at_large_theta_keeps_its_tau(theta):
    # the conditional inverse cancels to outside the unit square past
    # theta ~ 32 and overflows below theta ~ -709, which used to be a
    # NumericError; those rows work in log space, with no warning
    n, spec = 4000, CopulaSpec("frank", theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w1, w2 = sample_pairs(spec, n, np.random.default_rng(0))
    assert np.all((w1 >= 0.0) & (w1 <= 1.0) & (w2 >= 0.0) & (w2 <= 1.0))
    tau = kendall_tau(spec)
    assert abs(kendalltau(w1, w2).statistic - tau) <= 0.25 * (1.0 - abs(tau))


@pytest.mark.parametrize("theta", [31.0, 40.0, 100.0, -31.0, -300.0, -720.0])
def test_frank_sampler_past_theta_30_matches_the_inverse_to_the_last_bits(theta):
    # past |theta| = 30 every row is drawn in log space: the direct
    # inverse lost up to 44 bits to cancellation there (8e-5 at 31)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w1, w2 = sample_pairs(CopulaSpec("frank", theta), 4000, np.random.default_rng(0))
    p = np.random.default_rng(0).uniform(size=8000)[4000:]  # the sampler's second draw
    ref = [ref_frank_conditional_inverse(theta, w1[i], p[i]) for i in range(200)]
    assert np.max(np.abs(w2[:200] - ref)) <= 5e-16


@pytest.mark.pinned
def test_gumbel_draws_that_worked_keep_their_bits():
    # SHA-256 of the draws taken before mixing past the float range was
    # formed in log space: every theta that worked keeps its draws
    digest = hashlib.sha256()
    for theta in (1.0, 1.5, 2.5, 10.0, 50.0):
        w1, w2 = sample_pairs(CopulaSpec("gumbel", theta), 400, np.random.default_rng(0))
        digest.update(w1.tobytes())
        digest.update(w2.tobytes())
    assert digest.hexdigest() == pin({
        "X86_V4": "c01026e1670d721b67bb1f23f47fab1c5b1f5c1ae123bc26867bcad59ecd0415",
        "X86_V3": "7a624e8eb8d0abb27c3c10044da947b5f56977719897be85d7fc25830a3260d6",
    })


@pytest.mark.parametrize("theta", [79.0, 88.0, 100.0, 1e3, 1e4, 1e6, 1e10, 1e300])
def test_gumbel_sampler_at_large_theta_keeps_its_tau(theta):
    # the stable mixing Z, or E/Z, leaves the float range from theta ~ 80
    # on, which used to be a NumericError; those entries work in log
    # space, with no warning
    n, spec = 4000, CopulaSpec("gumbel", theta)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w1, w2 = sample_pairs(spec, n, np.random.default_rng(0))
    assert np.all((w1 >= 0.0) & (w1 <= 1.0) & (w2 >= 0.0) & (w2 <= 1.0))
    tau = kendall_tau(spec)  # (theta - 1) / theta
    # past theta ~ 1e6 only a handful of the 8e6 pairs are discordant
    assert abs(kendalltau(w1, w2).statistic - tau) <= 0.25 * (1.0 - tau) + 1e-5


@pytest.mark.parametrize("theta, rows", [(1.5, 100), (50.0, 100), (79.0, 200), (100.0, 200),
                                         (1e3, 200), (1e6, 200), (1e300, 10)])
def test_gumbel_draws_match_a_60_digit_reference(theta, rows):
    # direct and log-space entries alike, within a few ulps of
    # exp(-(E/Z)^(1/theta)) at 60 digits; from theta = 1e3 on most
    # entries take the log-space form
    n = 4000
    w1, w2 = sample_pairs(CopulaSpec("gumbel", theta), n, np.random.default_rng(0))
    rng = np.random.default_rng(0)  # the sampler's draws, in its order
    v = rng.uniform(size=(n, 2))
    u = rng.uniform(0.0, np.pi, size=n)
    e = rng.exponential(1.0, size=n)
    ref = [[ref_gumbel_draw(theta, v[i, j], u[i], e[i]) for j in range(2)] for i in range(rows)]
    assert np.max(np.abs(np.stack([w1, w2], axis=1)[:rows] - ref)) <= 1e-14


def test_gumbel_mixing_no_form_holds_is_a_numeric_error(monkeypatch):
    # a mixing that neither the direct nor the log-space form holds (an
    # angle of exactly 0 makes both 0/0) is refused, not passed on as NaN
    def broken(alpha, n, rng):
        return np.zeros(n), np.full(n, np.nan)

    monkeypatch.setattr(copula, "_positive_stable", broken)
    with pytest.raises(NumericError, match="stable sampler returned invalid mixing for theta=2.5"):
        sample_pairs(CopulaSpec("gumbel", 2.5), 10, np.random.default_rng(0))


def test_positive_stable_laplace_transform():
    # E[exp(-s Z)] = exp(-s^alpha) pins down the gumbel mixing variable
    from depaft.copula import _positive_stable

    rng = np.random.default_rng(5)
    for theta in (1.5, 2.5, 4.0):
        alpha = 1.0 / theta
        z, alpha_log_z = _positive_stable(alpha, 200_000, rng)
        assert np.allclose(alpha * np.log(z), alpha_log_z, rtol=1e-12, atol=1e-12)
        for s in (0.5, 1.0, 2.0):
            assert np.mean(np.exp(-s * z)) == pytest.approx(
                math.exp(-(s**alpha)), abs=0.004
            )


def test_gumbel_theta_one_is_independence():
    rng = np.random.default_rng(11)
    w1, w2 = sample_pairs(CopulaSpec("gumbel", 1.0), 20_000, rng)
    assert abs(kendalltau(w1, w2).statistic) <= 0.02


def test_sample_pairs_single_draw():
    rng = np.random.default_rng(0)
    w1, w2 = sample_pairs(CopulaSpec("clayton", 3.0), 1, rng)
    assert w1.shape == w2.shape == (1,)
    assert 0.0 < w1[0] < 1.0 and 0.0 < w2[0] < 1.0
