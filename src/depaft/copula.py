"""Bivariate Archimedean copulas: Kendall's tau and samplers for the four
supported families.

Samplers draw from the CDF-orientation copula (uniform marginals, joint
law C_theta).  The survival orientation used by the data simulator is
obtained there by reflecting both coordinates.

scipy.special (spence) is imported on the first Frank tau, never at
import: the other families need numpy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NumericError, Record

FAMILIES = ("clayton", "gumbel", "frank", "independent")


@dataclass(frozen=True)
class CopulaSpec(Record):
    """Copula family tag plus dependency-strength parameter theta."""

    what = "copula spec"

    family: str
    theta: float = 0.0

    def __post_init__(self):
        super().__post_init__()
        if self.family not in FAMILIES:
            raise ConfigError(
                f"unknown copula family {self.family!r}; expected one of {FAMILIES}"
            )
        th = self.theta
        if self.family == "clayton" and not th > 0:
            raise ConfigError("clayton copula requires theta > 0")
        if self.family == "gumbel" and not th >= 1:
            raise ConfigError("gumbel copula requires theta >= 1")
        if self.family == "frank" and th == 0:
            raise ConfigError("frank copula requires theta != 0")


def kendall_tau(spec: CopulaSpec) -> float:
    """Theoretical Kendall's tau of the copula.

    Frank's tau is 1 + 4/theta (D1(theta) - 1) with the Debye function
    D1(x) = (1/x) int_0^x t/(e^t - 1) dt (Genest 1987).  That integral is
    the dilogarithm Li2(1 - e^-x) = spence(e^-x), so tau has a closed
    form; it is odd in theta.  Below |theta| = 0.05 the closed form loses
    digits to cancellation (2e-12 at 1e-2), while the Taylor series
    theta/9 - theta^3/900 + theta^5/52920 is within 3e-16 there.
    """
    th = spec.theta
    if spec.family == "clayton":
        return th / (th + 2.0)
    if spec.family == "gumbel":
        return (th - 1.0) / th
    if spec.family == "frank":
        x = abs(th)
        if x < 0.05:
            return th / 9.0 - th**3 / 900.0 + th**5 / 52920.0
        from scipy.special import spence

        tau = 1.0 + 4.0 / x * (float(spence(math.exp(-x))) / x - 1.0)
        return math.copysign(tau, th)
    return 0.0


def clayton_theta_for_tau(tau: float) -> float:
    """Clayton parameter whose Kendall's tau equals the given value.

    Inverse of tau = theta / (theta + 2); clipped away from zero so the
    result remains a valid (strictly positive) Clayton parameter.
    """
    if not 0.0 <= tau < 1.0:
        raise DomainError("tau must lie in [0, 1) for a positive Clayton parameter")
    return max(2.0 * tau / (1.0 - tau), 1e-10)


def sample_pairs(spec: CopulaSpec, n: int, rng: np.random.Generator):
    """Draw n pairs with uniform marginals and joint law C_theta.

    Returns two arrays (w1, w2) of length n.  Draw order within each
    family is fixed so runs are reproducible for a given seeded rng.
    """
    if n < 0:
        raise ConfigError("n must be >= 0")
    th = spec.theta
    # a Clayton theta whose 1/theta overflows (below about 5.6e-309) has no
    # gamma frailty, and is independence to double precision
    if spec.family == "independent" or spec.family == "clayton" and 1.0 / th == math.inf:
        return rng.uniform(size=n), rng.uniform(size=n)
    if spec.family == "clayton":
        k = rng.gamma(1.0 / th, 1.0, size=n)
        x = rng.uniform(size=(n, 2))
        if np.any(k < 0.0) or not np.all(np.isfinite(k)):
            raise NumericError(f"gamma sampler returned invalid frailty for theta={th}")
        with np.errstate(divide="ignore", over="ignore"):
            # (1 - log(x)/k)^(-1/theta), written via log1p so tiny theta stays exact
            w = np.exp(-np.log1p(-np.log(x) / k[:, None]) / th)
        # a large theta draws frailties that underflow to 0, or so small
        # that E/k (E = -log x < 37) overflows: those rows work in log
        # space.  A k that underflowed lies below t = 2^-1075, where the
        # Gamma(1/theta) density is k^(1/theta - 1) to double precision,
        # so log k is drawn, after everything above, as log t + theta log V.
        deep = k < 2.0**-1017
        if deep.any():
            zero = k[deep] == 0.0
            log_k = np.log(np.where(zero, 1.0, k[deep]))
            m = int(zero.sum())
            with np.errstate(over="ignore"):  # theta log V, past theta ~ 1e307
                log_k[zero] = -1075.0 * math.log(2.0) + th * np.log1p(-rng.uniform(size=m))
            if not np.all(np.isfinite(log_k)):
                raise NumericError(f"gamma sampler returned invalid frailty for theta={th}")
            with np.errstate(divide="ignore"):
                log_e = np.log(-np.log(x[deep]))
            w[deep] = np.exp(-np.logaddexp(0.0, log_e - log_k[:, None]) / th)
        return w[:, 0], w[:, 1]
    if spec.family == "gumbel":
        v = rng.uniform(size=(n, 2))
        z, alpha_log_z = _positive_stable(1.0 / th, n, rng)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            e = -np.log(v)
            ratio = e / z[:, None]
            w = np.exp(-(ratio ** (1.0 / th)))
        # a large theta (from ~80) draws mixing Z, or E/Z, past the normal
        # float range: those entries form (E/Z)^(1/theta) in log space
        tiny = np.finfo(float).tiny
        deep = ~((ratio >= tiny) & (ratio < np.inf) & (z >= tiny)[:, None])
        if deep.any():
            if not np.all(np.isfinite(alpha_log_z[deep.any(axis=1)])):
                raise NumericError(f"stable sampler returned invalid mixing for theta={th}")
            w[deep] = np.exp(-np.exp((np.log(e) / th - alpha_log_z[:, None])[deep]))
        return w[:, 0], w[:, 1]
    if spec.family == "frank":
        w1 = rng.uniform(size=n)
        p = rng.uniform(size=n)
        # the conditional inverse w2 = -log(1 + x)/theta, with
        # x = (e^-theta - 1) p / (p + (1 - p) e^(-theta w1)).  Past
        # theta = 30, 1 + x (>= e^-theta) loses up to 44 bits to
        # cancellation, and below theta ~ -709 x overflows: past |theta| =
        # 30 every row forms 1 + x as a ratio of sums of exponentials, in
        # log space (Nelsen 2006, 2.9 and 4.2).  The draws at |theta| <= 30
        # stay those of the direct inverse.
        if abs(th) > 30.0:
            with np.errstate(divide="ignore"):  # log p at p = 0
                log_p, log_q = np.log(p), np.log1p(-p) - th * w1
            w2 = (np.logaddexp(log_p, log_q) - np.logaddexp(log_q, log_p - th)) / th
        else:
            a = np.exp(-th * w1)
            x = (-np.expm1(-th)) * p / (p * (a - 1.0) - a)
            w2 = -np.log1p(x) / th
        if not np.all((w2 >= 0.0) & (w2 <= 1.0)):
            raise NumericError(f"frank sampler left [0, 1] for theta={th}")
        return w1, w2
    raise ConfigError(f"unknown copula family {spec.family!r}")


# a small alpha (a large Gumbel theta) overflows the powers below;
# sample_pairs takes the rows it leaves from the log-space form
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _positive_stable(alpha: float, n: int, rng: np.random.Generator):
    """One-sided stable variables Z with Laplace transform exp(-s^alpha),
    and alpha log Z formed in log space.

    Chambers-Mallows-Stuck in its one-sided (beta = 1) form, equivalent
    to a stable law with skew 1, scale cos(pi*alpha/2)^(1/alpha) and
    location 0.  Valid for 0 < alpha <= 1; alpha = 1 degenerates to the
    constant 1 (the expressions below evaluate to exactly that).  With
    U uniform on (0, pi) and W exponential,

        alpha log Z = alpha log sin(alpha U) - log sin U
                      + (1 - alpha) log(sin((1 - alpha) U) / W),

    finite where Z itself overflows or underflows.
    """
    u = rng.uniform(0.0, np.pi, size=n)
    w = rng.exponential(1.0, size=n)
    z = (np.sin(alpha * u) / np.sin(u) ** (1.0 / alpha)) * (
        np.sin((1.0 - alpha) * u) / w
    ) ** ((1.0 - alpha) / alpha)
    alpha_log_z = (alpha * np.log(np.sin(alpha * u)) - np.log(np.sin(u))
                   + (1.0 - alpha) * np.log(np.sin((1.0 - alpha) * u) / w))
    return z, alpha_log_z
