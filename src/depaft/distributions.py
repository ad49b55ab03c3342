"""Standardized baseline error distributions for AFT losses.

Three location-0 scale-1 families: "extreme" (Gumbel minimum, the law of
log of a unit-scale Weibull variable), "normal", and "logistic".  The AFT
scale sigma never enters here; it is applied by the loss through the
log-time transform.  All functions accept scalars or numpy arrays.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, ndtr

from .errors import ConfigError, DomainError, number

FAMILIES = ("extreme", "normal", "logistic")

# Inner exponent of exp(x - e^x) clamped so e^x cannot overflow; the
# density underflows to zero in float64 already near x ~ 6.7, far below
# the clamp, so clamping never changes a nonzero value.
_EXP_CLAMP = 350.0

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class BaselineSpec:
    """A baseline family tag plus the AFT scale sigma (> 0)."""

    family: str
    sigma: float

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(
                f"unknown baseline family {self.family!r}; expected one of {FAMILIES}"
            )
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ConfigError(f"sigma must be a positive finite real, got {self.sigma}")

    def to_dict(self) -> dict:
        return {"family": self.family, "sigma": float(self.sigma)}

    @classmethod
    def from_dict(cls, d: dict) -> "BaselineSpec":
        try:
            sigma = number(d["sigma"], float, "baseline field 'sigma'")
            return cls(family=d["family"], sigma=sigma)
        except KeyError as exc:
            raise ConfigError(f"baseline spec missing field {exc}") from exc


def _checked(x):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("baseline distribution argument must be finite")
    return arr


def _unknown(family: str):
    raise ConfigError(f"unknown baseline family {family!r}; expected one of {FAMILIES}")


def cdf(family: str, x):
    """Distribution function F(x) of the standardized family."""
    x = _checked(x)
    if family == "extreme":
        return -np.expm1(-np.exp(np.minimum(x, _EXP_CLAMP)))
    if family == "normal":
        return ndtr(x)
    if family == "logistic":
        return expit(x)
    _unknown(family)


def survival(family: str, x):
    """Upper-tail probability 1 - F(x), computed directly.

    The direct forms stay exact down to the underflow threshold
    (~1e-300), far beyond where 1 - cdf(x) would cancel to zero; the
    losses depend on this accuracy because they divide densities by the
    survival value.
    """
    x = _checked(x)
    if family == "extreme":
        return np.exp(-np.exp(np.minimum(x, _EXP_CLAMP)))
    if family == "normal":
        return ndtr(-x)
    if family == "logistic":
        return expit(-x)
    _unknown(family)


def pdf(family: str, x):
    """Density f(x) of the standardized family."""
    x = _checked(x)
    if family == "extreme":
        t = np.minimum(x, _EXP_CLAMP)
        return np.exp(t - np.exp(t))
    if family == "normal":
        return _INV_SQRT_2PI * np.exp(-0.5 * x * x)
    if family == "logistic":
        p = expit(x)
        return p * (1.0 - p)
    _unknown(family)


def pdf_grad(family: str, x):
    """First derivative f'(x) of the density."""
    x = _checked(x)
    if family == "extreme":
        t = np.minimum(x, _EXP_CLAMP)
        ex = np.exp(t)
        return np.exp(t - ex) * (1.0 - ex)
    if family == "normal":
        return -x * pdf("normal", x)
    if family == "logistic":
        p = expit(x)
        return p * (1.0 - p) * (1.0 - 2.0 * p)
    _unknown(family)


def pdf_hess(family: str, x):
    """Second derivative f''(x) of the density.

    Closed forms: extreme f((1-e^x)^2 - e^x); normal (x^2-1)f;
    logistic f((1-2F)^2 - 2f) with F the logistic CDF.
    """
    x = _checked(x)
    if family == "extreme":
        t = np.minimum(x, _EXP_CLAMP)
        ex = np.exp(t)
        return np.exp(t - ex) * ((1.0 - ex) ** 2 - ex)
    if family == "normal":
        return (x * x - 1.0) * pdf("normal", x)
    if family == "logistic":
        p = expit(x)
        f = p * (1.0 - p)
        return f * ((1.0 - 2.0 * p) ** 2 - 2.0 * f)
    _unknown(family)
