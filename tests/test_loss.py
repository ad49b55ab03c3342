import math
from dataclasses import replace
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from depaft.distributions import BaselineSpec
from depaft.errors import ConfigError, DomainError, NumericError
from depaft.loss import (
    HESSIAN_FLOOR,
    ClaytonAftLoss,
    IndependentAftLoss,
    loss_from_config,
)

from oracles import mp_clayton_loss, mp_independent_loss, ref_clayton_loss, ref_independent_limit_loss

# Grids keep |s| and |r| inside the smooth region of every family: the
# CDF clamp at 1e-12 kinks the extreme family beyond x ~ 3.3, where
# finite differences are meaningless by construction.


def _grid(rng, n, sigma_min):
    log_t = rng.uniform(-1.2, 1.2, n)
    yhat = rng.uniform(-1.2, 1.2, n)
    delta = rng.integers(0, 2, n)
    return np.exp(log_t), delta, yhat


def test_theta_validation():
    b = BaselineSpec("normal", 1.0)
    with pytest.raises(ConfigError):
        ClaytonAftLoss(0.0, b, b)
    with pytest.raises(ConfigError):
        ClaytonAftLoss(-1.0, b, b)


def test_loss_against_independent_reimplementation():
    # dual-route check: direct scalar transcription of the loss formula;
    # the grid keeps 3*(log t - yhat) inside the smooth region
    loss = ClaytonAftLoss(3.0, BaselineSpec("extreme", 1 / 3), BaselineSpec("extreme", 1 / 3))
    for t in (0.8, 0.95, 1.1, 1.3, 1.5):
        for delta in (0, 1):
            for yhat in (-0.3, -0.1, 0.0, 0.2, 0.45):
                got = float(loss.loss(np.array([t]), np.array([delta]), np.array([yhat]))[0])
                want = ref_clayton_loss(3.0, "extreme", 1 / 3, "extreme", 1 / 3, t, delta, yhat)
                assert got == pytest.approx(want, abs=1e-10, rel=1e-10)


def test_loss_against_reimplementation_mixed_baselines():
    loss = ClaytonAftLoss(1.5, BaselineSpec("normal", 0.9), BaselineSpec("logistic", 1.2))
    rng = np.random.default_rng(3)
    for _ in range(40):
        t = float(np.exp(rng.uniform(-1, 1)))
        delta = int(rng.integers(0, 2))
        yhat = float(rng.uniform(-1, 1))
        got = float(loss.loss(np.array([t]), np.array([delta]), np.array([yhat]))[0])
        want = ref_clayton_loss(1.5, "normal", 0.9, "logistic", 1.2, t, delta, yhat)
        assert got == pytest.approx(want, abs=1e-10, rel=1e-10)


def test_theta_to_zero_limit_hand_value():
    # at theta -> 0 with normal/normal sigma=1, t=1, delta=1, yhat=0 the
    # loss tends to -log(phi(0)) + log 2
    loss = ClaytonAftLoss(1e-8, BaselineSpec("normal", 1.0), BaselineSpec("normal", 1.0))
    got = float(loss.loss(np.array([1.0]), np.array([1]), np.array([0.0]))[0])
    want = 0.5 * math.log(2 * math.pi) + math.log(2.0)
    assert got == pytest.approx(want, abs=1e-5)


@pytest.mark.parametrize("family", ["extreme", "normal", "logistic"])
def test_theta_to_zero_limit_grid(family):
    # theta = 1e-8: loss equals the four-term independent likelihood
    loss = ClaytonAftLoss(1e-8, BaselineSpec(family, 1.0), BaselineSpec(family, 0.8))
    rng = np.random.default_rng(17)
    count = 0
    for _ in range(100):
        t = float(np.exp(rng.uniform(-1.0, 1.0)))
        delta = int(rng.integers(0, 2))
        yhat = float(rng.uniform(-1.0, 1.0))
        got = float(loss.loss(np.array([t]), np.array([delta]), np.array([yhat]))[0])
        want = ref_independent_limit_loss(family, 1.0, family, 0.8, t, delta, yhat)
        assert got == pytest.approx(want, abs=1e-5)
        count += 1
    assert count == 100


def test_symmetry_under_identical_baselines():
    # with F_Z = F_V and sigma_Z = sigma_V the two delta branches coincide
    b = BaselineSpec("logistic", 0.7)
    loss = ClaytonAftLoss(2.0, b, b)
    t = np.array([0.5, 1.0, 2.0, 3.0])
    y = np.array([0.2, -0.1, 0.4, 1.0])
    ones, zeros = np.ones(4, dtype=int), np.zeros(4, dtype=int)
    assert np.allclose(loss.loss(t, ones, y), loss.loss(t, zeros, y), rtol=1e-14)
    assert np.allclose(loss.grad(t, ones, y), loss.grad(t, zeros, y), rtol=1e-14)
    assert np.allclose(loss.hess(t, ones, y), loss.hess(t, zeros, y), rtol=1e-14)


def test_translation_consistency():
    # replacing (t, yhat) by (t e^a, yhat + a) keeps s and r fixed, so the
    # loss moves by exactly +a through the log(t) factor
    loss = ClaytonAftLoss(3.0, BaselineSpec("extreme", 0.5), BaselineSpec("normal", 0.8))
    rng = np.random.default_rng(5)
    t = np.exp(rng.uniform(-1, 1, 50))
    d = rng.integers(0, 2, 50)
    y = rng.uniform(-1, 1, 50)
    for a in (-0.7, 0.3, 1.1):
        shifted = loss.loss(t * math.exp(a), d, y + a)
        assert np.allclose(shifted - loss.loss(t, d, y), a, atol=1e-10)


@pytest.mark.parametrize("family", ["extreme", "normal", "logistic"])
@pytest.mark.parametrize("theta", [0.5, 1.0, 3.0, 8.0])
def test_clayton_derivatives_match_finite_differences(family, theta):
    loss = ClaytonAftLoss(theta, BaselineSpec(family, 1.0), BaselineSpec(family, 0.8))
    rng = np.random.default_rng(1234)
    t, d, y = _grid(rng, 200, 0.8)
    eps = 1e-5
    fd_grad = (loss.loss(t, d, y + eps) - loss.loss(t, d, y - eps)) / (2 * eps)
    assert np.allclose(loss.grad(t, d, y), fd_grad, rtol=1e-4, atol=1e-8)
    fd_hess = (loss.grad(t, d, y + eps) - loss.grad(t, d, y - eps)) / (2 * eps)
    assert np.allclose(loss.hess(t, d, y, floor=False), fd_hess, rtol=1e-4, atol=1e-8)


def test_clayton_gradient_at_near_independence():
    loss = ClaytonAftLoss(1e-8, BaselineSpec("normal", 1.0), BaselineSpec("normal", 1.0))
    t = np.array([1.0])
    d = np.array([1])
    y = np.array([0.0])
    eps = 1e-5
    fd = (loss.loss(t, d, y + eps) - loss.loss(t, d, y - eps)) / (2 * eps)
    assert float(loss.grad(t, d, y)[0]) == pytest.approx(float(fd[0]), abs=1e-6)


def test_dual_oracle_on_dense_grid():
    # gradient/Hessian vs finite differences on the documented 150-point grid
    loss = ClaytonAftLoss(3.0, BaselineSpec("extreme", 1 / 3), BaselineSpec("extreme", 1 / 3))
    log_t = np.linspace(-0.3, 0.5, 5)
    yhat = np.linspace(-0.3, 0.5, 5)
    tt, yy = np.meshgrid(np.exp(log_t), yhat)
    t = np.tile(tt.ravel(), 2)
    y = np.tile(yy.ravel(), 2)
    d = np.repeat([0, 1], 25)
    eps = 1e-5
    fd_grad = (loss.loss(t, d, y + eps) - loss.loss(t, d, y - eps)) / (2 * eps)
    assert np.allclose(loss.grad(t, d, y), fd_grad, rtol=1e-5, atol=1e-8)
    fd_hess = (loss.grad(t, d, y + eps) - loss.grad(t, d, y - eps)) / (2 * eps)
    assert np.allclose(loss.hess(t, d, y, floor=False), fd_hess, rtol=1e-4, atol=1e-8)


def test_hessian_floor():
    loss = ClaytonAftLoss(0.5, BaselineSpec("logistic", 1.0), BaselineSpec("logistic", 1.0))
    # point with genuinely negative raw curvature, found by search
    t = np.array([16.467, 1.0])
    d = np.array([0, 1])
    y = np.array([-1.934, 0.0])
    raw = loss.hess(t, d, y, floor=False)
    assert raw[0] < HESSIAN_FLOOR
    floored = loss.hess(t, d, y)
    assert np.all(floored >= HESSIAN_FLOOR)
    assert floored[0] == HESSIAN_FLOOR
    assert floored[1] == raw[1]  # untouched where curvature is healthy


def test_hessian_positive_at_reference_point():
    loss = ClaytonAftLoss(3.0, BaselineSpec("normal", 1.0), BaselineSpec("normal", 1.0))
    h = float(loss.hess(np.array([1.0]), np.array([1]), np.array([0.0]), floor=False)[0])
    assert h > 0.0


def test_all_outputs_finite_over_extreme_ranges():
    for family in ("extreme", "normal", "logistic"):
        loss = ClaytonAftLoss(8.0, BaselineSpec(family, 1 / 3), BaselineSpec(family, 1 / 3))
        t = np.array([1e-8, 1e-4, 1.0, 1e4, 1e8] * 5)
        y = np.repeat([-20.0, -5.0, 0.0, 5.0, 20.0], 5)
        for d in (np.zeros(25, dtype=int), np.ones(25, dtype=int)):
            for out in (loss.loss(t, d, y), loss.grad(t, d, y), loss.hess(t, d, y)):
                assert np.all(np.isfinite(out))


def test_domain_errors():
    loss = ClaytonAftLoss(1.0, BaselineSpec("normal", 1.0), BaselineSpec("normal", 1.0))
    with pytest.raises(DomainError):
        loss.loss(np.array([0.0]), np.array([1]), np.array([0.0]))
    with pytest.raises(DomainError):
        loss.loss(np.array([1.0]), np.array([2]), np.array([0.0]))
    with pytest.raises(DomainError):
        loss.loss(np.array([1.0]), np.array([1]), np.array([np.nan]))


# -- independent-censoring comparator --------------------------------------


def test_independent_loss_hand_value():
    loss = IndependentAftLoss(BaselineSpec("normal", 1.0))
    got = float(loss.loss(np.array([1.0]), np.array([1]), np.array([0.0]))[0])
    assert got == pytest.approx(-math.log(1.0 / math.sqrt(2 * math.pi)), rel=1e-12)


def test_independent_censored_branch_monotone_in_yhat():
    # -log S(s) falls monotonically toward 0 as yhat grows: predicting a
    # later event is always more compatible with a censored row
    loss = IndependentAftLoss(BaselineSpec("logistic", 0.6))
    y = np.linspace(-5.0, 5.0, 101)
    values = loss.loss(np.full(101, 2.0), np.zeros(101, dtype=int), y)
    assert np.all(np.diff(values) <= 0.0)
    assert np.all(values > 0.0)
    assert values[-1] == pytest.approx(0.0, abs=1e-3)


@pytest.mark.parametrize("family", ["extreme", "normal", "logistic"])
def test_independent_derivatives_match_finite_differences(family):
    loss = IndependentAftLoss(BaselineSpec(family, 1.0))
    rng = np.random.default_rng(77)
    t, d, y = _grid(rng, 200, 1.0)
    eps = 1e-5
    fd_grad = (loss.loss(t, d, y + eps) - loss.loss(t, d, y - eps)) / (2 * eps)
    assert np.allclose(loss.grad(t, d, y), fd_grad, rtol=1e-5, atol=1e-8)
    fd_hess = (loss.grad(t, d, y + eps) - loss.grad(t, d, y - eps)) / (2 * eps)
    assert np.allclose(loss.hess(t, d, y, floor=False), fd_hess, rtol=1e-5, atol=1e-8)


def test_loss_config_round_trip():
    clayton = ClaytonAftLoss(2.5, BaselineSpec("extreme", 0.4), BaselineSpec("logistic", 1.1))
    rebuilt = loss_from_config(clayton.to_config())
    assert rebuilt == clayton
    indep = IndependentAftLoss(BaselineSpec("normal", 0.9))
    assert loss_from_config(indep.to_config()) == indep
    with pytest.raises(ConfigError, match="unknown loss"):
        loss_from_config({"loss": "coxph"})


@pytest.mark.parametrize("theta", ["2.5", "x", None, [2.5]])
def test_loss_config_rejects_non_numeric_theta(theta):
    extreme = BaselineSpec("extreme", 0.4)
    config = ClaytonAftLoss(2.5, extreme, extreme).to_config()
    with pytest.raises(ConfigError, match="theta"):
        loss_from_config({**config, "theta": theta})


# -- tails: arbitrary-precision oracle and far-off predictions --------------

FAMILIES = ("extreme", "normal", "logistic")
# standardized event residuals s; the censoring residual is r = s * sigma_z / sigma_v
GRAD_S = (-50.0, -30.0, -15.0, -8.0, -3.0, -1.0, 0.0, 1.0, 3.0, 8.0, 15.0, 30.0, 50.0)
HESS_S = (-8.0, -3.0, -1.0, 0.0, 1.0, 3.0, 8.0)


def _check_against_mpmath(loss, reference, sigma_z, t=1.3):
    """Gradient within 1e-10 relative of the mpmath derivative on GRAD_S,
    Hessian within 1e-8 relative (or 1e-12 absolute) on HESS_S.

    The gradient's 1e-15 absolute allowance covers the independent
    event loss at s = 0, the density's mode, where the exact gradient is
    only the ~1e-16 that float rounding of yhat moves s off the root.
    """
    for delta in (0, 1):
        for s in GRAD_S:
            yhat = math.log(t) - s * sigma_z
            args = (np.array([t]), np.array([delta]), np.array([yhat]))
            with mpmath.workdps(40):
                fn = lambda y: reference(t, delta, y)  # noqa: E731
                order = 2 if s in HESS_S else 1
                want = [float(d) for d in mpmath.diffs(fn, mpmath.mpf(yhat), order)]
            grad = float(loss.grad(*args)[0])
            assert abs(grad - want[1]) <= 1e-10 * abs(want[1]) + 1e-15, (delta, s)
            if order == 2:
                hess = float(loss.hess(*args, floor=False)[0])
                assert abs(hess - want[2]) <= 1e-8 * abs(want[2]) + 1e-12, (delta, s)


@pytest.mark.parametrize("family_v", FAMILIES)
@pytest.mark.parametrize("family_z", FAMILIES)
def test_clayton_tail_derivatives_match_mpmath(family_z, family_v):
    sigma_z, sigma_v = 1 / 3, 0.5
    for theta in (0.1, 1.41, 8.0):
        loss = ClaytonAftLoss(theta, BaselineSpec(family_z, sigma_z), BaselineSpec(family_v, sigma_v))

        def reference(t, delta, yhat):
            return mp_clayton_loss(theta, family_z, sigma_z, family_v, sigma_v, t, delta, yhat)

        _check_against_mpmath(loss, reference, sigma_z)


@pytest.mark.parametrize("family", FAMILIES)
def test_independent_tail_derivatives_match_mpmath(family):
    sigma = 1 / 3
    loss = IndependentAftLoss(BaselineSpec(family, sigma))
    _check_against_mpmath(
        loss, lambda t, delta, yhat: mp_independent_loss(family, sigma, t, delta, yhat), sigma
    )


@pytest.mark.parametrize("family", FAMILIES)
def test_far_off_predictions_keep_a_signed_gradient(family):
    # events at t = 1: yhat = -10 and -3 predict too early (s = 30, 9), so
    # the gradient must push yhat up; yhat = 40 and 300 too late
    spec = BaselineSpec(family, 1 / 3)
    yhat = np.array([-10.0, -3.0, 40.0, 300.0])
    t, d = np.ones(4), np.ones(4, dtype=int)
    for loss in (ClaytonAftLoss(3.0, spec, spec), IndependentAftLoss(spec)):
        g, h = loss.grad_hess(t, d, yhat)
        assert np.all(np.isfinite(g)) and np.all(np.isfinite(h))
        assert np.all(g[:2] < 0.0) and np.all(g[2:] > 0.0), g


def test_extreme_overflow_is_a_numeric_error():
    # finite at s = 690; e^s overflows float64 past s ~ 709.78, which is
    # a NumericError, not a zero gradient or a numpy warning
    spec = BaselineSpec("extreme", 1 / 3)
    t, d = np.ones(2), np.array([0, 1])
    for loss in (ClaytonAftLoss(3.0, spec, spec), IndependentAftLoss(spec)):
        g, h = loss.grad_hess(t, d, np.full(2, -230.0))
        assert np.all(np.isfinite(g)) and np.all(np.isfinite(h))
        with pytest.raises(NumericError):  # and no RuntimeWarning, an error here
            loss.grad_hess(t, d, np.full(2, -240.0))
        with pytest.raises(NumericError):
            loss.loss(t, d, np.full(2, -240.0))


# -- a loss bound once per fit -------------------------------------------------

# (event baseline, censoring baseline): the censoring baseline equal to
# the event one, and not
BOUND_PAIRS = [(BaselineSpec(f, 1 / 3), BaselineSpec(f, 1 / 3)) for f in FAMILIES] + [
    (BaselineSpec("extreme", 1 / 3), BaselineSpec("extreme", 0.5)),
    (BaselineSpec("normal", 1.0), BaselineSpec("logistic", 0.7)),
    (BaselineSpec("logistic", 2.0), BaselineSpec("extreme", 1 / 3)),
]


def _bits(*arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


@pytest.mark.parametrize("ez, ev", BOUND_PAIRS, ids=lambda spec: f"{spec.family}-{spec.sigma:.3g}")
def test_bound_grad_hess_has_the_bits_of_the_one_off_call(ez, ev):
    # a fit binds t and delta once, then calls grad_hess(yhat) each round:
    # the same bits as grad_hess(t, delta, yhat), theta from 1e-10 to 1e3
    # and event residuals s out to +-50, both event classes in one array
    s = np.linspace(-50.0, 50.0, 201)
    t = np.full(2 * s.size, 1.7)
    delta = np.repeat([0, 1], s.size)
    yhat = math.log(1.7) - np.tile(s, 2) * ez.sigma
    losses = [IndependentAftLoss(ez)] + [ClaytonAftLoss(th, ez, ev) for th in np.logspace(-10, 3, 14)]
    for loss in losses:
        bound = loss.bind(t, delta)
        assert _bits(*bound.grad_hess(yhat)) == _bits(*loss.grad_hess(t, delta, yhat))
        assert _bits(bound.loss(yhat)) == _bits(loss.loss(t, delta, yhat))


@pytest.mark.parametrize("family", FAMILIES)
def test_one_margin_has_the_bits_of_two_equal_margins(family):
    # with equal baselines the Clayton loss reads one margin for both;
    # a censoring baseline that is the same family and sigma but not
    # equal to the event one takes the two-margin path
    spec = BaselineSpec(family, 1 / 3)
    s = np.linspace(-50.0, 50.0, 201)
    t, delta = np.full(2 * s.size, 0.8), np.repeat([0, 1], s.size)
    yhat = math.log(0.8) - np.tile(s, 2) * spec.sigma
    for theta in np.logspace(-10, 3, 14):
        one = ClaytonAftLoss(theta, spec, spec)
        two = replace(one, censor_baseline=SimpleNamespace(family=family, sigma=spec.sigma))
        assert two.censor_baseline != two.event_baseline
        assert _bits(*one.bind(t, delta).grad_hess(yhat)) == _bits(*two.bind(t, delta).grad_hess(yhat))


def test_bound_extreme_overflow_is_the_one_off_numeric_error():
    # past s ~ 709.78 the extreme family's e^s overflows: the bound call
    # raises the NumericError of the one-off call, without a warning
    spec = BaselineSpec("extreme", 1 / 3)
    t, d = np.ones(2), np.array([0, 1])
    for loss in (ClaytonAftLoss(3.0, spec, spec), ClaytonAftLoss(1e-10, spec, BaselineSpec("normal", 1.0)),
                 IndependentAftLoss(spec)):
        bound = loss.bind(t, d)
        for yhat in (np.full(2, -237.0), np.array([0.0, -240.0])):
            for call in (lambda: bound.grad_hess(yhat), lambda: loss.grad_hess(t, d, yhat),
                         lambda: bound.loss(yhat), lambda: loss.loss(t, d, yhat)):
                with pytest.raises(NumericError, match="^non-finite loss value or derivative$"):
                    call()


def test_bind_judges_times_and_events_once():
    spec = BaselineSpec("normal", 1.0)
    for loss in (ClaytonAftLoss(2.0, spec, spec), IndependentAftLoss(spec)):
        with pytest.raises(DomainError, match="times must be positive and finite"):
            loss.bind(np.array([1.0, -1.0]), np.array([1, 0]))
        with pytest.raises(DomainError, match="events must be 0 or 1"):
            loss.bind(np.array([1.0, 2.0]), np.array([1, 2]))
