"""Bivariate Archimedean copulas: CDF evaluation, Kendall's tau, and
samplers for the four supported families.

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

from .errors import ConfigError, DomainError, NumericError, number, section

FAMILIES = ("clayton", "gumbel", "frank", "independent")


@dataclass(frozen=True)
class CopulaSpec:
    """Copula family tag plus dependency-strength parameter theta."""

    family: str
    theta: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(
                f"unknown copula family {self.family!r}; expected one of {FAMILIES}"
            )
        th = self.theta
        if not np.isfinite(th):
            raise ConfigError(f"copula theta must be finite, got {th!r}")
        if self.family == "clayton" and not th > 0:
            raise ConfigError("clayton copula requires theta > 0")
        if self.family == "gumbel" and not th >= 1:
            raise ConfigError("gumbel copula requires theta >= 1")
        if self.family == "frank" and th == 0:
            raise ConfigError("frank copula requires theta != 0")

    def to_dict(self) -> dict:
        return {"family": self.family, "theta": float(self.theta)}

    @classmethod
    def from_dict(cls, d: dict) -> "CopulaSpec":
        d = section(d, "copula spec")
        try:
            theta = number(d.get("theta", 0.0), float, "copula field 'theta'")
            return cls(family=d["family"], theta=theta)
        except KeyError as exc:
            raise ConfigError(f"copula spec missing field {exc}") from exc


def copula_cdf(spec: CopulaSpec, u, v):
    """Evaluate C_theta(u, v) on the unit square."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if np.any((u < 0) | (u > 1)) or np.any((v < 0) | (v > 1)):
        raise DomainError("copula arguments must lie in [0, 1]")
    th = spec.theta
    if spec.family == "independent":
        return u * v
    if spec.family == "clayton":
        # boundary C(0, b) = C(a, 0) = 0 taken directly; the formula would
        # need 0^-theta there.
        inner = np.zeros(np.broadcast(u, v).shape)
        ok = (u > 0) & (v > 0)
        us, vs = np.broadcast_arrays(u, v)
        bracket = us[ok] ** -th + vs[ok] ** -th - 1.0
        inner[ok] = bracket ** (-1.0 / th)
        return inner if inner.ndim else float(inner)
    if spec.family == "gumbel":
        out = np.zeros(np.broadcast(u, v).shape)
        us, vs = np.broadcast_arrays(u, v)
        ok = (us > 0) & (vs > 0)
        out[ok] = np.exp(
            -(((-np.log(us[ok])) ** th + (-np.log(vs[ok])) ** th) ** (1.0 / th))
        )
        return out if out.ndim else float(out)
    if spec.family == "frank":
        num = np.expm1(-th * u) * np.expm1(-th * v)
        return -np.log1p(num / np.expm1(-th)) / th
    raise ConfigError(f"unknown copula family {spec.family!r}")


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
    if spec.family == "independent":
        return rng.uniform(size=n), rng.uniform(size=n)
    if spec.family == "clayton":
        k = rng.gamma(1.0 / th, 1.0, size=n)
        x = rng.uniform(size=(n, 2))
        if np.any(k <= 0.0) or not np.all(np.isfinite(k)):
            raise NumericError(f"gamma sampler returned invalid frailty for theta={th}")
        # (1 - log(x)/k)^(-1/theta), written via log1p so tiny theta stays exact
        w = np.exp(-np.log1p(-np.log(x) / k[:, None]) / th)
        return w[:, 0], w[:, 1]
    if spec.family == "gumbel":
        v = rng.uniform(size=(n, 2))
        z = _positive_stable(1.0 / th, n, rng)
        if not np.all(np.isfinite(z)) or np.any(z <= 0.0):
            raise NumericError(f"stable sampler returned invalid mixing for theta={th}")
        w = np.exp(-((-np.log(v) / z[:, None]) ** (1.0 / th)))
        return w[:, 0], w[:, 1]
    if spec.family == "frank":
        w1 = rng.uniform(size=n)
        p = rng.uniform(size=n)
        # the conditional inverse loses all precision for large |theta|
        # and can leave [0, 1]; refuse rather than return broken pairs
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            a = np.exp(-th * w1)
            w2 = -np.log1p((-np.expm1(-th)) * p / (p * (a - 1.0) - a)) / th
        if not np.all((w2 >= 0.0) & (w2 <= 1.0)):
            raise NumericError(f"frank sampler left [0, 1] for theta={th}")
        return w1, w2
    raise ConfigError(f"unknown copula family {spec.family!r}")


def _positive_stable(alpha: float, n: int, rng: np.random.Generator):
    """One-sided stable variables with Laplace transform exp(-s^alpha).

    Chambers-Mallows-Stuck in its one-sided (beta = 1) form, equivalent
    to a stable law with skew 1, scale cos(pi*alpha/2)^(1/alpha) and
    location 0.  Valid for 0 < alpha <= 1; alpha = 1 degenerates to the
    constant 1 (the expressions below evaluate to exactly that).
    """
    u = rng.uniform(0.0, np.pi, size=n)
    w = rng.exponential(1.0, size=n)
    return (np.sin(alpha * u) / np.sin(u) ** (1.0 / alpha)) * (
        np.sin((1.0 - alpha) * u) / w
    ) ** ((1.0 - alpha) / alpha)
