"""Per-observation losses for boosted AFT survival regression.

Two objectives over the predicted log event time yhat = h(x):

* ClaytonAftLoss ties the event and censoring distributions together
  through a Clayton survival copula with parameter theta, so censored
  rows still carry information about the event time.
* IndependentAftLoss is the classical right-censored AFT negative
  log-likelihood that assumes independent censoring.

Both expose value, gradient, and Hessian with respect to yhat, the
quantities a second-order boosting engine needs.  The Hessian is floored
at HESSIAN_FLOOR by default because the exact curvature can be
non-positive far from the optimum while leaf weights need H > 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import distributions as dist
from .distributions import BaselineSpec
from .errors import ConfigError, DomainError, NumericError, number

# The loss is singular where the survival probability hits zero, so
# survival values are floored at SURVIVAL_FLOOR.  The floor sits at the
# underflow frontier rather than higher up: survival() is exact down to
# ~1e-300, and flooring any earlier would misstate the hazard f/S in the
# tail, which destabilizes training (the Hessian turns negative there
# while the gradient is still large).
SURVIVAL_FLOOR = 1e-300
# Floor for log arguments (densities can underflow to exactly zero).
_TINY = 1e-300
HESSIAN_FLOOR = 1e-6


@dataclass(frozen=True)
class LossEval:
    """Per-observation value, gradient, and Hessian at yhat."""

    value: np.ndarray
    grad: np.ndarray
    hess: np.ndarray


def transform(t, yhat, sigma: float):
    """Standardize log time: (log t - yhat) / sigma.

    Used for both the event transform (sigma_Z) and the censoring
    transform (sigma_V).
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or not np.all(np.isfinite(t)):
        raise DomainError("times must be positive and finite")
    if not sigma > 0:
        raise DomainError("sigma must be positive")
    return (np.log(t) - np.asarray(yhat, dtype=float)) / sigma


def _validate(t, delta, yhat):
    t = np.asarray(t, dtype=float)
    delta = np.asarray(delta)
    yhat = np.asarray(yhat, dtype=float)
    t, delta, yhat = np.broadcast_arrays(t, delta, yhat)
    if np.any(t <= 0.0) or not np.all(np.isfinite(t)):
        raise DomainError("times must be positive and finite")
    if not np.all((delta == 0) | (delta == 1)):
        raise DomainError("event indicators must be 0 or 1")
    if not np.all(np.isfinite(yhat)):
        raise DomainError("predictions must be finite")
    return t, delta.astype(bool), yhat


def _safe_survival(family: str, x):
    return np.maximum(dist.survival(family, x), SURVIVAL_FLOOR)


@dataclass(frozen=True)
class ClaytonAftLoss:
    """Dependent-censoring AFT loss with Clayton-copula linkage.

    For s = (log t - yhat)/sigma_Z and r = (log t - yhat)/sigma_V the
    loss of an observation is

        (1 + 1/theta) * log((1-F_Z(s))^-theta + (1-F_V(r))^-theta - 1)
        + (1+theta) * log(1-F_W(q)) - log(f_W(q) / (sigma_W t))

    where (W, q) is (Z, s) for events and (V, r) for censored rows.  The
    copula bracket is evaluated in log space so large theta cannot
    overflow.
    """

    theta: float
    event_baseline: BaselineSpec
    censor_baseline: BaselineSpec

    def __post_init__(self):
        if not (np.isfinite(self.theta) and self.theta > 0):
            raise ConfigError(f"theta must be a positive finite real, got {self.theta}")

    # -- shared pieces -------------------------------------------------

    def _state(self, t, delta, yhat):
        t, delta, yhat = _validate(t, delta, yhat)
        fam_z, sig_z = self.event_baseline.family, self.event_baseline.sigma
        fam_v, sig_v = self.censor_baseline.family, self.censor_baseline.sigma
        s = transform(t, yhat, sig_z)
        r = transform(t, yhat, sig_v)
        sz = _safe_survival(fam_z, s)
        sv = _safe_survival(fam_v, r)
        log_sz = np.log(sz)
        log_sv = np.log(sv)
        # log-space copula bracket: D = Sz^-theta + Sv^-theta - 1 >= 1.
        # expm1/log1p keep full precision when theta is tiny, where log D
        # is O(theta) and gets multiplied back by 1/theta.
        la = -self.theta * log_sz
        lb = -self.theta * log_sv
        m = np.maximum(la, lb)
        excess = np.expm1(la - m) + np.expm1(lb - m) - np.expm1(-m)  # = D/e^m - 1
        excess = np.maximum(excess, -1.0 + _TINY)
        log_d = m + np.log1p(excess)
        bracket = 1.0 + excess  # = D / e^m
        return t, delta, s, r, sz, sv, log_sz, log_sv, la, lb, m, bracket, log_d

    def loss(self, t, delta, yhat) -> np.ndarray:
        """Loss value per observation."""
        th = self.theta
        t, delta, s, r, sz, sv, log_sz, log_sv, la, lb, m, bracket, log_d = self._state(
            t, delta, yhat
        )
        fz = np.maximum(dist.pdf(self.event_baseline.family, s), _TINY)
        fv = np.maximum(dist.pdf(self.censor_baseline.family, r), _TINY)
        log_t = np.log(t)
        g_event = (
            (1.0 + th) * log_sz - np.log(fz) + np.log(self.event_baseline.sigma) + log_t
        )
        g_censor = (
            (1.0 + th) * log_sv - np.log(fv) + np.log(self.censor_baseline.sigma) + log_t
        )
        out = (1.0 + 1.0 / th) * log_d + np.where(delta, g_event, g_censor)
        if not np.all(np.isfinite(out)):
            raise NumericError("non-finite loss value after safeguarding")
        return out

    def grad(self, t, delta, yhat) -> np.ndarray:
        """d loss / d yhat per observation."""
        g, _ = self._grad_hess_raw(t, delta, yhat)
        return g

    def hess(self, t, delta, yhat, floor: bool = True) -> np.ndarray:
        """d^2 loss / d yhat^2 per observation, floored unless floor=False."""
        _, h = self._grad_hess_raw(t, delta, yhat)
        return np.maximum(h, HESSIAN_FLOOR) if floor else h

    def grad_hess(self, t, delta, yhat):
        """(gradient, floored Hessian) pair for the boosting engine."""
        g, h = self._grad_hess_raw(t, delta, yhat)
        return g, np.maximum(h, HESSIAN_FLOOR)

    def evaluate(self, t, delta, yhat) -> LossEval:
        g, h = self.grad_hess(t, delta, yhat)
        return LossEval(value=self.loss(t, delta, yhat), grad=g, hess=h)

    def _grad_hess_raw(self, t, delta, yhat):
        th = self.theta
        fam_z, sig_z = self.event_baseline.family, self.event_baseline.sigma
        fam_v, sig_v = self.censor_baseline.family, self.censor_baseline.sigma
        t, delta, s, r, sz, sv, log_sz, log_sv, la, lb, m, bracket, log_d = self._state(
            t, delta, yhat
        )
        sp = -1.0 / sig_z  # ds/dyhat
        rp = -1.0 / sig_v  # dr/dyhat

        fz = dist.pdf(fam_z, s)
        fv = dist.pdf(fam_v, r)
        fzp = dist.pdf_grad(fam_z, s)
        fvp = dist.pdf_grad(fam_v, r)
        fzpp = dist.pdf_hess(fam_z, s)
        fvpp = dist.pdf_hess(fam_v, r)
        fz_safe = np.maximum(fz, _TINY)
        fv_safe = np.maximum(fv, _TINY)

        # u = Sz^-theta / D and v = Sv^-theta / D, both in (0, 1]
        u = np.exp(la - m) / bracket
        v = np.exp(lb - m) / bracket

        haz_z = fz / sz
        haz_v = fv / sv
        nd = u * haz_z * sp + v * haz_v * rp  # N / D

        grad = (1.0 + th) * nd + np.where(
            delta,
            -(1.0 + th) * haz_z * sp - (fzp / fz_safe) * sp,
            -(1.0 + th) * haz_v * rp - (fvp / fv_safe) * rp,
        )

        # N'/D; the transforms are linear in yhat, so q'' terms vanish
        ndp = u * sp * sp * ((1.0 + th) * haz_z * haz_z + fzp / sz) + v * rp * rp * (
            (1.0 + th) * haz_v * haz_v + fvp / sv
        )
        hess_copula = (1.0 + th) * ndp - th * (1.0 + th) * nd * nd
        hess_branch = np.where(
            delta,
            -(1.0 + th) * sp * sp * (fzp / sz + haz_z * haz_z)
            - sp * sp * (fzpp / fz_safe - (fzp / fz_safe) ** 2),
            -(1.0 + th) * rp * rp * (fvp / sv + haz_v * haz_v)
            - rp * rp * (fvpp / fv_safe - (fvp / fv_safe) ** 2),
        )
        hess = hess_copula + hess_branch
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
            raise NumericError("non-finite derivative after safeguarding")
        return grad, hess

    # -- persistence ----------------------------------------------------

    def to_config(self) -> dict:
        return {
            "loss": "clayton",
            "theta": float(self.theta),
            "event_baseline": self.event_baseline.to_dict(),
            "censor_baseline": self.censor_baseline.to_dict(),
        }


@dataclass(frozen=True)
class IndependentAftLoss:
    """Right-censored AFT negative log-likelihood under independent
    censoring: -log(f_Z(s)/(sigma_Z t)) for events, -log(1 - F_Z(s)) for
    censored rows."""

    event_baseline: BaselineSpec

    def loss(self, t, delta, yhat) -> np.ndarray:
        t, delta, yhat = _validate(t, delta, yhat)
        fam, sig = self.event_baseline.family, self.event_baseline.sigma
        s = transform(t, yhat, sig)
        fz = np.maximum(dist.pdf(fam, s), _TINY)
        sz = _safe_survival(fam, s)
        out = np.where(delta, -np.log(fz) + np.log(sig) + np.log(t), -np.log(sz))
        if not np.all(np.isfinite(out)):
            raise NumericError("non-finite loss value after safeguarding")
        return out

    def grad(self, t, delta, yhat) -> np.ndarray:
        g, _ = self._grad_hess_raw(t, delta, yhat)
        return g

    def hess(self, t, delta, yhat, floor: bool = True) -> np.ndarray:
        _, h = self._grad_hess_raw(t, delta, yhat)
        return np.maximum(h, HESSIAN_FLOOR) if floor else h

    def grad_hess(self, t, delta, yhat):
        g, h = self._grad_hess_raw(t, delta, yhat)
        return g, np.maximum(h, HESSIAN_FLOOR)

    def evaluate(self, t, delta, yhat) -> LossEval:
        g, h = self.grad_hess(t, delta, yhat)
        return LossEval(value=self.loss(t, delta, yhat), grad=g, hess=h)

    def _grad_hess_raw(self, t, delta, yhat):
        t, delta, yhat = _validate(t, delta, yhat)
        fam, sig = self.event_baseline.family, self.event_baseline.sigma
        s = transform(t, yhat, sig)
        sp = -1.0 / sig
        fz = dist.pdf(fam, s)
        fzp = dist.pdf_grad(fam, s)
        fzpp = dist.pdf_hess(fam, s)
        fz_safe = np.maximum(fz, _TINY)
        sz = _safe_survival(fam, s)
        haz = fz / sz
        grad = np.where(delta, -(fzp / fz_safe) * sp, haz * sp)
        hess = np.where(
            delta,
            sp * sp * ((fzp / fz_safe) ** 2 - fzpp / fz_safe),
            sp * sp * (fzp / sz + haz * haz),
        )
        if not (np.all(np.isfinite(grad)) and np.all(np.isfinite(hess))):
            raise NumericError("non-finite derivative after safeguarding")
        return grad, hess

    def to_config(self) -> dict:
        return {"loss": "independent", "event_baseline": self.event_baseline.to_dict()}


def loss_from_config(config: dict):
    """Build a loss object from its serialized configuration."""
    try:
        tag = config["loss"]
    except (KeyError, TypeError) as exc:
        raise ConfigError("loss config must carry a 'loss' tag") from exc
    if tag == "clayton":
        try:
            return ClaytonAftLoss(
                theta=number(config["theta"], float, "clayton loss config field 'theta'"),
                event_baseline=BaselineSpec.from_dict(config["event_baseline"]),
                censor_baseline=BaselineSpec.from_dict(config["censor_baseline"]),
            )
        except KeyError as exc:
            raise ConfigError(f"clayton loss config missing field {exc}") from exc
    if tag == "independent":
        try:
            return IndependentAftLoss(
                event_baseline=BaselineSpec.from_dict(config["event_baseline"])
            )
        except KeyError as exc:
            raise ConfigError(f"independent loss config missing field {exc}") from exc
    raise ConfigError(f"unknown loss {tag!r}")
