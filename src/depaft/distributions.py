"""Standardized baseline error distributions for AFT losses.

Three location-0 scale-1 families: "extreme" (Gumbel minimum, the law of
log of a unit-scale Weibull variable), "normal", and "logistic".  The AFT
scale sigma never enters here; it is applied by the loss through the
log-time transform.

Each family is one row of a table of closed forms in log space, after
Barnwal, Cho & Hocking (2020): log S, log f, the hazard h = f/S, its
derivative h', and the first two derivatives of log f.  The losses read
the table directly, so their derivatives stay exact and non-zero in both
tails with no floor on S or f.  The extreme family is finite while e^x
is, i.e. for x below ~709.78; the other two for every finite x.

cdf, survival, pdf, pdf_grad and pdf_hess are views on the table that
accept scalars or numpy arrays and refuse non-finite arguments.

scipy.special (log_ndtr, expit) is imported on the first use of a normal
or logistic row, never at import: extreme-margin runs load no scipy.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, number, section

FAMILIES = ("extreme", "normal", "logistic")

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)


class Margin(NamedTuple):
    """One family's table row at x."""

    log_s: np.ndarray  # log S(x), S = 1 - F
    log_f: np.ndarray  # log f(x)
    haz: np.ndarray  # h = f / S
    dhaz: np.ndarray  # h' = h (d log f + h)
    dlogf: np.ndarray  # (log f)'
    d2logf: np.ndarray  # (log f)''


def _extreme(x) -> Margin:
    e = np.exp(x)
    return Margin(-e, x - e, e, e, 1.0 - e, -e)


def _normal(x) -> Margin:
    from scipy.special import log_ndtr

    log_s = log_ndtr(-x)
    log_f = -0.5 * x * x - _LOG_SQRT_2PI
    haz = np.exp(log_f - log_s)
    return Margin(log_s, log_f, haz, haz * (haz - x), -x, -1.0)


def _logistic(x) -> Margin:
    from scipy.special import expit

    log_s = -np.logaddexp(0.0, x)
    p, q = expit(x), expit(-x)
    return Margin(log_s, log_s - np.logaddexp(0.0, -x), p, p * q, q - p, -2.0 * p * q)


_TABLE = {"extreme": _extreme, "normal": _normal, "logistic": _logistic}


def margin(family: str, x) -> Margin:
    """The family's table row at x (no check that x is finite)."""
    row = _TABLE.get(family)
    if row is None:
        raise ConfigError(f"unknown baseline family {family!r}; expected one of {FAMILIES}")
    return row(x)


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
        d = section(d, "baseline spec")
        try:
            sigma = number(d["sigma"], float, "baseline field 'sigma'")
            return cls(family=d["family"], sigma=sigma)
        except KeyError as exc:
            raise ConfigError(f"baseline spec missing field {exc}") from exc


def _row(family: str, x) -> Margin:
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise DomainError("baseline distribution argument must be finite")
    return margin(family, x)


def cdf(family: str, x):
    """Distribution function F(x) of the standardized family."""
    return -np.expm1(_row(family, x).log_s)


def survival(family: str, x):
    """Upper-tail probability S(x) = 1 - F(x), exact to the underflow threshold."""
    return np.exp(_row(family, x).log_s)


def pdf(family: str, x):
    """Density f(x) of the standardized family."""
    return np.exp(_row(family, x).log_f)


def pdf_grad(family: str, x):
    """First derivative f'(x) = f (log f)' of the density."""
    m = _row(family, x)
    return np.exp(m.log_f) * m.dlogf


def pdf_hess(family: str, x):
    """Second derivative f''(x) = f ((log f)'' + (log f)'^2) of the density."""
    m = _row(family, x)
    f = np.exp(m.log_f)
    return f * m.d2logf + f * m.dlogf * m.dlogf
