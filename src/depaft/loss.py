"""Per-observation losses for boosted AFT survival regression.

Two objectives over the predicted log event time yhat = h(x):

* ClaytonAftLoss ties the event and censoring distributions together
  through a Clayton survival copula with parameter theta, so censored
  rows still carry information about the event time.
* IndependentAftLoss is the classical right-censored AFT negative
  log-likelihood that assumes independent censoring.

Both expose value, gradient, and Hessian with respect to yhat, the
quantities a second-order boosting engine needs, in log space from one
margin core that reads each baseline's row of the family table in
distributions.py.  loss.bind(t, delta) checks t and delta once and keeps
log t and the event mask: its grad_hess(yhat) is a fit's per-round call
and does only the arithmetic.  When the censoring baseline is the event
baseline, the Clayton loss reads their one margin once.  loss, grad, hess
and grad_hess(t, delta, yhat) are thin calls through bind that also
check yhat.  Nothing but the Hessian is floored, so derivatives stay
exact and non-zero in both tails; the extreme family is finite until e^s
overflows (s near 709), where a call raises NumericError, without
numpy's overflow warnings, instead of returning a silent zero.  The
Hessian is floored at HESSIAN_FLOOR by default because the exact
curvature can be non-positive far from the optimum while leaf weights
need H > 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import distributions as dist
from .dataset import survival_arrays
from .distributions import BaselineSpec
from .errors import ABOVE, PARSE, ConfigError, DomainError, NumericError, Record, section

HESSIAN_FLOOR = 1e-6

# decorates each call that ends in _finite: an overflow or invalid value
# there is a NumericError, so numpy's warnings would only repeat it
_judged = np.errstate(over="ignore", invalid="ignore")


class _Bound:
    """A loss bound to one fit's times and event indicators (loss.bind).

    t and delta are judged once, by dataset.survival_arrays, and log t is
    taken once.  The calls take yhat as given: a one-off call has checked
    it (_inputs), and booster.Boosting starts from a finite prediction
    and checks every round's.
    """

    def __init__(self, loss, t, delta):
        t, self.delta, _ = survival_arrays(t, delta)
        self.log_t = np.log(t)
        self.objective = loss

    def loss(self, yhat) -> np.ndarray:
        """Loss value per observation."""
        return self.objective._value(self, yhat)

    def grad_hess(self, yhat):
        """(gradient, floored Hessian) pair: a fit's per-round call."""
        g, h = self.objective._grad_hess_raw(self, yhat)
        return g, np.maximum(h, HESSIAN_FLOOR)


def _inputs(loss, t, delta, yhat):
    """(loss.bind(t, delta), yhat) for a one-off call: the arrays
    broadcast together, t and delta judged by bind, then yhat for
    finiteness."""
    t, delta, yhat = np.asarray(t, dtype=float), np.asarray(delta), np.asarray(yhat, dtype=float)
    try:
        t, delta, yhat = np.broadcast_arrays(t, delta, yhat)
    except ValueError:
        raise DomainError(f"times {t.shape}, events {delta.shape} and predictions {yhat.shape} "
                          "do not broadcast to one shape") from None
    fit = loss.bind(t, delta)
    if not np.all(np.isfinite(yhat)):
        raise DomainError("predictions must be finite")
    return fit, yhat


def _margin(spec: BaselineSpec, log_t, yhat) -> dist.Margin:
    """The baseline's table row at its residual (log t - yhat) / sigma."""
    return dist.margin(spec.family, (log_t - yhat) / spec.sigma)


def _derivs(m: dist.Margin, spec: BaselineSpec):
    """First and second yhat-derivatives of log S, then of log f, at the
    residual, which moves by -1/sigma per unit of yhat."""
    p = -1.0 / spec.sigma
    return -m.haz * p, -m.dhaz * (p * p), m.dlogf * p, m.d2logf * (p * p)


def _finite(*arrays) -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise NumericError("non-finite loss value or derivative")


def _log_bracket(theta: float, z: dist.Margin, v: dist.Margin):
    """(a, b, log D) for the Clayton bracket D = e^a + e^b - 1 with
    a = -theta log S_Z and b = -theta log S_V, both >= 0, so D >= 1.

    expm1/log1p keep full precision when theta is tiny, where log D is
    O(theta) and gets multiplied back by 1/theta.
    """
    a = -theta * z.log_s
    b = -theta * v.log_s
    m = np.maximum(a, b)
    return a, b, m + np.log1p(np.expm1(a - m) + np.expm1(b - m) - np.expm1(-m))


@dataclass(frozen=True)
class ClaytonAftLoss(Record):
    """Dependent-censoring AFT loss with Clayton-copula linkage.

    For s = (log t - yhat)/sigma_Z and r = (log t - yhat)/sigma_V the
    loss of an observation is

        (1 + 1/theta) * log(S_Z(s)^-theta + S_V(r)^-theta - 1)
        + (1+theta) * log S_W(q) - log(f_W(q) / (sigma_W t))

    where (W, q) is (Z, s) for events and (V, r) for censored rows.  The
    copula bracket D is evaluated in log space so large theta cannot
    overflow.  With u = S_Z^-theta / D and w = S_V^-theta / D, which sum
    to 1 + 1/D, the gradient of an event row is

        (1+theta) (w (Z1 - V1) - Z1 / D) - (log f_Z)'

    with Z1, V1 the yhat-derivatives of log S_Z and log S_V (censored
    rows swap Z and V, and u and w), so identical margins cancel
    exactly instead of through two large terms.
    """

    tag, what = "clayton", "clayton loss config"

    theta: float = field(metadata={ABOVE: 0})
    event_baseline: BaselineSpec = field(metadata={PARSE: BaselineSpec.from_dict})
    censor_baseline: BaselineSpec = field(metadata={PARSE: BaselineSpec.from_dict})

    def bind(self, t, delta) -> _Bound:
        """The loss bound to one fit's times and event indicators."""
        return _Bound(self, t, delta)

    def loss(self, t, delta, yhat) -> np.ndarray:
        """Loss value per observation."""
        fit, yhat = _inputs(self, t, delta, yhat)
        return fit.loss(yhat)

    def grad(self, t, delta, yhat) -> np.ndarray:
        """d loss / d yhat per observation."""
        fit, yhat = _inputs(self, t, delta, yhat)
        return self._grad_hess_raw(fit, yhat)[0]

    def hess(self, t, delta, yhat, floor: bool = True) -> np.ndarray:
        """d^2 loss / d yhat^2 per observation, floored unless floor=False."""
        fit, yhat = _inputs(self, t, delta, yhat)
        h = self._grad_hess_raw(fit, yhat)[1]
        return np.maximum(h, HESSIAN_FLOOR) if floor else h

    def grad_hess(self, t, delta, yhat):
        """(gradient, floored Hessian) pair for the boosting engine."""
        fit, yhat = _inputs(self, t, delta, yhat)
        return fit.grad_hess(yhat)

    @_judged
    def _value(self, fit: _Bound, yhat) -> np.ndarray:
        th, ez, ev = self.theta, self.event_baseline, self.censor_baseline
        log_t, delta = fit.log_t, fit.delta
        z, v = _margin(ez, log_t, yhat), _margin(ev, log_t, yhat)
        _, _, log_d = _log_bracket(th, z, v)
        own_log_s = np.where(delta, z.log_s, v.log_s)
        own_log_f = np.where(delta, z.log_f, v.log_f)
        own_log_sigma = np.where(delta, np.log(ez.sigma), np.log(ev.sigma))
        out = (1.0 + 1.0 / th) * log_d + ((1.0 + th) * own_log_s - own_log_f + own_log_sigma + log_t)
        _finite(out)
        return out

    @_judged
    def _grad_hess_raw(self, fit: _Bound, yhat):
        th, ez, ev = self.theta, self.event_baseline, self.censor_baseline
        log_t, delta = fit.log_t, fit.delta
        z = _margin(ez, log_t, yhat)
        z1, z2, fz1, fz2 = _derivs(z, ez)
        if ez == ev:
            # one margin: every row's own and other margin is z, and u = w
            a, b, log_d = _log_bracket(th, z, z)
            u = w = np.exp(a - log_d)
            v1 = own1 = other1 = z1
            own2 = other2 = z2
            weight, f1, f2 = u, fz1, fz2
        else:
            v = _margin(ev, log_t, yhat)
            v1, v2, fv1, fv2 = _derivs(v, ev)
            a, b, log_d = _log_bracket(th, z, v)
            u, w = np.exp(a - log_d), np.exp(b - log_d)
            # own margin (Z for events, V for censored rows), the other
            # one, the other's copula weight, and the own log-density
            # derivatives
            own1, own2 = np.where(delta, z1, v1), np.where(delta, z2, v2)
            other1, other2 = np.where(delta, v1, z1), np.where(delta, v2, z2)
            weight, f1, f2 = np.where(delta, w, u), np.where(delta, fz1, fv1), np.where(delta, fz2, fv2)
        inv_d = np.exp(-log_d)
        grad = (1.0 + th) * (weight * (own1 - other1) - own1 * inv_d) - f1
        # u Z1^2 + w V1^2 - (u Z1 + w V1)^2 = u w (Z1 - V1)^2 - (u Z1^2 + w V1^2) / D;
        # each product is ordered so an underflowed factor zeroes it before
        # a large one can overflow
        gap = z1 - v1
        spread = (u * gap) * (w * gap) - (u * z1 * inv_d) * z1 - (w * v1 * inv_d) * v1
        hess = (1.0 + th) * (weight * (own2 - other2) - own2 * inv_d) + th * (1.0 + th) * spread - f2
        _finite(grad, hess)
        return grad, hess

    def to_config(self) -> dict:
        return {"loss": self.tag, **self.to_dict()}


@dataclass(frozen=True)
class IndependentAftLoss(Record):
    """Right-censored AFT negative log-likelihood under independent
    censoring: -log(f_Z(s)/(sigma_Z t)) for events, -log S_Z(s) for
    censored rows."""

    tag, what = "independent", "independent loss config"

    event_baseline: BaselineSpec = field(metadata={PARSE: BaselineSpec.from_dict})

    def bind(self, t, delta) -> _Bound:
        return _Bound(self, t, delta)

    def loss(self, t, delta, yhat) -> np.ndarray:
        fit, yhat = _inputs(self, t, delta, yhat)
        return fit.loss(yhat)

    def grad(self, t, delta, yhat) -> np.ndarray:
        fit, yhat = _inputs(self, t, delta, yhat)
        return self._grad_hess_raw(fit, yhat)[0]

    def hess(self, t, delta, yhat, floor: bool = True) -> np.ndarray:
        fit, yhat = _inputs(self, t, delta, yhat)
        h = self._grad_hess_raw(fit, yhat)[1]
        return np.maximum(h, HESSIAN_FLOOR) if floor else h

    def grad_hess(self, t, delta, yhat):
        fit, yhat = _inputs(self, t, delta, yhat)
        return fit.grad_hess(yhat)

    @_judged
    def _value(self, fit: _Bound, yhat) -> np.ndarray:
        ez = self.event_baseline
        z = _margin(ez, fit.log_t, yhat)
        out = np.where(fit.delta, -z.log_f + np.log(ez.sigma) + fit.log_t, -z.log_s)
        _finite(out)
        return out

    @_judged
    def _grad_hess_raw(self, fit: _Bound, yhat):
        ez = self.event_baseline
        z1, z2, fz1, fz2 = _derivs(_margin(ez, fit.log_t, yhat), ez)
        grad = -np.where(fit.delta, fz1, z1)
        hess = -np.where(fit.delta, fz2, z2)
        _finite(grad, hess)
        return grad, hess

    def to_config(self) -> dict:
        return {"loss": self.tag, **self.to_dict()}


def loss_from_config(config: dict):
    """Build a loss object from its serialized configuration."""
    config = section(config, "loss config")
    if "loss" not in config:
        raise ConfigError("loss config must carry a 'loss' tag")
    tag = config["loss"]
    for cls in (ClaytonAftLoss, IndependentAftLoss):
        if tag == cls.tag:
            return cls.from_dict({key: value for key, value in config.items() if key != "loss"})
    raise ConfigError(f"unknown loss {tag!r}")
