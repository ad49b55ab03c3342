"""Copula-driven generator of dependently censored survival data.

Pipeline: draw covariates and Weibull margins, couple the event and
censoring times by reordering them to the ranks of a copula sample
(survival orientation), then assemble observed time and event indicator.
The reordering preserves both marginal distributions exactly while the
pair's rank correlation matches the copula draw exactly.

With Weibull(shape k, scale 1) noise the log event time is

    log T = log(scale_function(X)) + log R,    log R ~ Gumbel-minimum(0, 1/k)

so the matching AFT loss uses extreme baselines with sigma = 1/k for
both the event and the censoring side.

The matching Clayton loss couples the standardised errors of log T and
log C given X, so its theta is the dependence between the event noise
T / h(X) and C, not between T and C themselves.  Rank induction reorders
whole (T, X) rows, so part of T's rank comes from h(X) and the noise
pair is less dependent than the copula: for Clayton(3) the (T, C) pair
has Kendall tau 0.60 but the (T / h(X), C) pair about 0.41.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .copula import CopulaSpec, clayton_theta_for_tau, kendall_tau, sample_pairs
from .dataset import SurvivalDataset, survival_arrays
from .distributions import BaselineSpec
from .errors import ABOVE, AT_LEAST, PARSE, ConfigError, DataError, Record
from .metrics import count_larger_before

N_FEATURES = 10


@dataclass(frozen=True)
class DgpConfig(Record):
    """Full data-generating configuration."""

    what = "simulate config"

    n: int = field(metadata={AT_LEAST: 2})
    c: float = field(metadata={ABOVE: 0})  # censoring-scale constant; lower c censors more
    copula: CopulaSpec = field(metadata={PARSE: CopulaSpec.from_dict})
    weibull_shape: float = field(default=3.0, metadata={ABOVE: 0})
    weibull_scale: float = field(default=1.0, metadata={ABOVE: 0})
    seed: int = field(default=0, metadata={AT_LEAST: 0})


@dataclass
class SimulatedDataset:
    """Generated data plus the metadata a matched training run needs.

    clayton_equivalent_theta is the Clayton parameter with the copula's
    own Kendall tau, i.e. the dependence of the unconditional (T, C)
    pair.  residual_clayton_theta is the Clayton parameter with the
    Kendall tau of (T / h(X), C) measured on the drawn rows: the
    dependence given X, which is what the Clayton loss models and the
    theta a matched Clayton loss gets.
    """

    data: SurvivalDataset
    config: DgpConfig
    censoring_fraction: float
    event_baseline: BaselineSpec
    censor_baseline: BaselineSpec
    theta: float
    clayton_equivalent_theta: float
    residual_clayton_theta: float

    def metadata(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "censoring_fraction": self.censoring_fraction,
            "event_baseline": self.event_baseline.to_dict(),
            "censor_baseline": self.censor_baseline.to_dict(),
            "theta": self.theta,
            "clayton_equivalent_theta": self.clayton_equivalent_theta,
            "residual_clayton_theta": self.residual_clayton_theta,
        }


def h_function(x) -> np.ndarray:
    """Nonlinear regression surface over eight of ten uniform covariates.

    h = x1*x2 + x3^3/2 + x4*x5 + (4/5)exp(-x6) + x7*sin(2*x8); features
    9 and 10 are noise and do not enter.
    """
    x = np.asarray(x, dtype=float)
    squeeze = x.ndim == 1
    if squeeze:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != N_FEATURES:
        raise DataError(f"h_function expects {N_FEATURES} features, got shape {x.shape}")
    out = (
        x[:, 0] * x[:, 1]
        + 0.5 * x[:, 2] ** 3
        + x[:, 3] * x[:, 4]
        + 0.8 * np.exp(-x[:, 5])
        + x[:, 6] * np.sin(2.0 * x[:, 7])
    )
    return float(out[0]) if squeeze else out


def draw_margins(config: DgpConfig, rng: np.random.Generator):
    """Draw (T, U, X) before any dependence is induced.

    T = h(X) * R1 and U = c * R2 with R1, R2 i.i.d. Weibull.  h(X) is
    applied directly as the multiplicative event scale: this is the
    scaling that places the censoring constant c on the same footing as
    the covariate effect, so c in ~[0.9, 2.1] sweeps censoring between
    roughly 90% and 10%.  (An exponentiated scale exp(h) would push the
    event times far above c * R2 and censor nearly everything.)
    """
    n, k, lam = config.n, config.weibull_shape, config.weibull_scale
    X = rng.uniform(size=(n, N_FEATURES))
    # an extreme scale, shape or c can carry times out of the float range;
    # generate refuses those as a data error, so numpy's overflow
    # warnings would only repeat it
    with np.errstate(over="ignore"):
        r1 = lam * rng.weibull(k, size=n)
        r2 = lam * rng.weibull(k, size=n)
        T = h_function(X) * r1
        U = config.c * r2
    return T, U, X


def _ranks(values: np.ndarray) -> np.ndarray:
    """0-based ranks; ties broken by stable input order."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.shape[0], dtype=np.int64)
    ranks[order] = np.arange(values.shape[0])
    return ranks


def _kendall_tau(a: np.ndarray, b: np.ndarray) -> float:
    """Kendall's tau of two tie-free samples, in O(n log^2 n).

    Discordant pairs are the inversions of b's ranks read in a's order,
    summed from metrics.count_larger_before.  scipy.stats.kendalltau
    gives the same value, but importing scipy.stats more than doubles
    the time to import this package.
    """
    n = a.shape[0]
    ranks = _ranks(b)[np.argsort(a, kind="stable")]
    discordant = int(np.sum(count_larger_before(ranks)))
    return 1.0 - 4.0 * discordant / (n * (n - 1))


def induce_rank_correlation(T, X, U, copula: CopulaSpec, rng: np.random.Generator):
    """Reorder T (with its X rows) and U to the ranks of a copula sample.

    The copula is applied in survival orientation (both coordinates
    reflected), matching the dependence structure the Clayton loss
    assumes between the survival functions: strong coupling in the upper
    tail of the times.  Marginal multisets of T and U are unchanged and
    each (T, X) pairing is kept intact.
    """
    T = np.asarray(T, dtype=float)
    U = np.asarray(U, dtype=float)
    X = np.asarray(X, dtype=float)
    n = T.shape[0]
    if U.shape[0] != n or X.shape[0] != n:
        raise DataError("T, U, and X must agree on the number of rows")
    if n < 2:
        raise DataError("rank induction needs at least two rows")
    w1, w2 = sample_pairs(copula, n, rng)
    v1, v2 = 1.0 - w1, 1.0 - w2  # survival orientation
    # the row of T whose rank matches each v1's rank
    rows = np.argsort(T, kind="stable")[_ranks(v1)]
    t_w, x_w = T[rows], X[rows]
    u_w = np.sort(U, kind="stable")[_ranks(v2)]
    return t_w, x_w, u_w


def generate(config: DgpConfig) -> SimulatedDataset:
    """Run the full pipeline and assemble the censored dataset.

    Besides the data, reports the loss settings a matched training run
    uses, among them residual_clayton_theta for the Clayton loss (see
    SimulatedDataset).  Measuring it draws no random numbers, so the
    data columns do not depend on it.
    """
    tau = kendall_tau(config.copula)
    if tau == 1.0:
        # from theta ~ 9e15 tau can round to 1, which no finite Clayton
        # parameter matches: refused before any draw
        raise ConfigError(f"{config.copula.family} copula theta {config.copula.theta!r} has a "
                          "Kendall tau that rounds to 1; no Clayton parameter matches it")
    rng = np.random.default_rng(config.seed)
    T, U, X = draw_margins(config, rng)
    # times out of the float range are a data error naming the fields that scale them
    survival_arrays(T, time_name="event times drawn with weibull_scale and weibull_shape")
    survival_arrays(U, time_name="censoring times drawn with c, weibull_scale and weibull_shape")
    t_w, x_w, u_w = induce_rank_correlation(T, X, U, config.copula, rng)
    delta = (t_w <= u_w).astype(int)
    observed = np.minimum(t_w, u_w)
    data = SurvivalDataset(
        times=observed,
        events=delta,
        X=x_w,
        true_event_times=t_w,
        true_censor_times=u_w,
    )
    baseline = BaselineSpec("extreme", 1.0 / config.weibull_shape)
    theta = float(config.copula.theta)
    equivalent_theta = clayton_theta_for_tau(max(tau, 0.0))
    residual_tau = _kendall_tau(t_w / h_function(x_w), u_w)
    # a tiny sample with every pair concordant has tau 1, which no finite
    # Clayton parameter matches; the copula's own counterpart stands in
    residual_theta = (
        clayton_theta_for_tau(max(residual_tau, 0.0))
        if residual_tau < 1.0
        else equivalent_theta
    )
    return SimulatedDataset(
        data=data,
        config=config,
        censoring_fraction=float(1.0 - np.mean(delta)),
        event_baseline=baseline,
        censor_baseline=baseline,
        theta=theta,
        clayton_equivalent_theta=equivalent_theta,
        residual_clayton_theta=residual_theta,
    )
