"""Independent reference implementations used to cross-check the package.

Everything here is written with the math module and plain loops, with
numpy broadcasting over all pairs at once, or with mpmath where float64
would underflow, straight from the defining formulas, and deliberately
shares no code with the package internals it verifies.
"""
from __future__ import annotations

import csv
import math

import mpmath
import numpy as np


# -- baseline distributions (scalar) --------------------------------------

def ref_cdf(family: str, x: float) -> float:
    if family == "extreme":
        return 1.0 - math.exp(-math.exp(x))
    if family == "normal":
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    if family == "logistic":
        return 1.0 / (1.0 + math.exp(-x))
    raise ValueError(family)


def ref_pdf(family: str, x: float) -> float:
    if family == "extreme":
        return math.exp(x - math.exp(x))
    if family == "normal":
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    if family == "logistic":
        e = math.exp(-x)
        return e / (1.0 + e) ** 2
    raise ValueError(family)


# -- Clayton generator algebra -------------------------------------------

def ref_clayton_generator(theta: float, t: float) -> float:
    """phi(t) = (t^-theta - 1) / theta on (0, 1]."""
    return (t ** -theta - 1.0) / theta


def ref_clayton_generator_inv(theta: float, s: float) -> float:
    """phi^-1(s) = (1 + theta s)^(-1/theta) on [0, inf)."""
    return (1.0 + theta * s) ** (-1.0 / theta)


# -- copula CDFs, closed forms ---------------------------------------------

def ref_copula_cdf(family: str, theta: float, u, v):
    """C_theta(u, v) on the unit square, broadcast over u and v.

    Clayton (u^-theta + v^-theta - 1)^(-1/theta), Gumbel
    exp(-((-log u)^theta + (-log v)^theta)^(1/theta)), Frank
    -log(1 + (e^(-theta u) - 1)(e^(-theta v) - 1)/(e^-theta - 1))/theta,
    and u v.  At u = 0 or v = 0 the Clayton and Gumbel forms pass
    through infinity to the boundary value 0.
    """
    u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
    with np.errstate(divide="ignore"):
        if family == "clayton":
            return (u ** -theta + v ** -theta - 1.0) ** (-1.0 / theta)
        if family == "gumbel":
            return np.exp(-(((-np.log(u)) ** theta + (-np.log(v)) ** theta) ** (1.0 / theta)))
    if family == "frank":
        return -np.log1p(np.expm1(-theta * u) * np.expm1(-theta * v) / np.expm1(-theta)) / theta
    if family == "independent":
        return u * v
    raise ValueError(family)


# -- Frank Kendall tau, by quadrature --------------------------------------

def ref_frank_tau(theta: float) -> float:
    """tau = 1 + 4/theta (D1(theta) - 1), D1(x) = (1/x) int_0^x t/(e^t - 1) dt.

    The Debye integral is taken by mpmath quadrature at 40 digits, so the
    cancellation near theta = 0 costs nothing; tau is odd in theta.
    """
    with mpmath.workdps(40):
        x = abs(mpmath.mpf(theta))
        d1 = mpmath.quad(lambda t: t / mpmath.expm1(t) if t else mpmath.mpf(1), [0, x]) / x
        tau = float(1 + 4 / x * (d1 - 1))
    return tau if theta > 0 else -tau


def ref_frank_conditional_inverse(theta: float, u: float, p: float) -> float:
    """The v with dC/du (u, v) = p for the Frank copula, at 60 digits.

    With A = e^(-theta u), B = e^(-theta v) and K = e^-theta - 1, the
    conditional law of v given u is A (B - 1) / (K + (A - 1)(B - 1)).
    Setting it to p and solving gives B = 1 + p K / (p + (1 - p) A), so
    v = -log B / theta; 60 digits leave no cancellation to float64.
    """
    with mpmath.workdps(60):
        theta, u, p = mpmath.mpf(theta), mpmath.mpf(u), mpmath.mpf(p)
        a, k = mpmath.exp(-theta * u), mpmath.exp(-theta) - 1
        return float(-mpmath.log(1 + p * k / (p + (1 - p) * a)) / theta)


def ref_gumbel_draw(theta: float, v: float, u: float, w: float) -> float:
    """The Gumbel copula coordinate exp(-(E/Z)^(1/theta)), E = -log v, at
    60 digits.

    Z is the Chambers-Mallows-Stuck one-sided stable variable of the
    angle u in (0, pi) and the exponential w, with alpha = 1/theta:
    Z = sin(alpha u) / sin(u)^(1/alpha) (sin((1 - alpha) u) / w)^((1 - alpha)/alpha).
    mpmath's exponents are unbounded, so Z is formed directly however
    far it lies past the float range.
    """
    with mpmath.workdps(60):
        alpha = 1 / mpmath.mpf(theta)
        u, w = mpmath.mpf(u), mpmath.mpf(w)
        z = (mpmath.sin(alpha * u) / mpmath.sin(u) ** (1 / alpha)
             * (mpmath.sin((1 - alpha) * u) / w) ** ((1 - alpha) / alpha))
        return float(mpmath.exp(-((-mpmath.log(mpmath.mpf(v)) / z) ** alpha)))


# -- dependent-censoring loss, direct transcription ------------------------

def ref_clayton_loss(
    theta: float,
    family_z: str,
    sigma_z: float,
    family_v: str,
    sigma_v: float,
    t: float,
    delta: int,
    yhat: float,
) -> float:
    s = (math.log(t) - yhat) / sigma_z
    r = (math.log(t) - yhat) / sigma_v
    sz = 1.0 - ref_cdf(family_z, s)
    sv = 1.0 - ref_cdf(family_v, r)
    value = (1.0 + 1.0 / theta) * math.log(sz ** -theta + sv ** -theta - 1.0)
    if delta == 1:
        value += (1.0 + theta) * math.log(sz) - math.log(
            ref_pdf(family_z, s) / (sigma_z * t)
        )
    else:
        value += (1.0 + theta) * math.log(sv) - math.log(
            ref_pdf(family_v, r) / (sigma_v * t)
        )
    return value


def ref_independent_limit_loss(
    family_z: str,
    sigma_z: float,
    family_v: str,
    sigma_v: float,
    t: float,
    delta: int,
    yhat: float,
) -> float:
    """Four-term fully independent likelihood: the theta -> 0 limit.

    delta=1: -log f_T(t) - log S_U(t); delta=0: -log S_T(t) - log f_U(t),
    all under the AFT transforms of both margins.
    """
    s = (math.log(t) - yhat) / sigma_z
    r = (math.log(t) - yhat) / sigma_v
    if delta == 1:
        return -math.log(ref_pdf(family_z, s) / (sigma_z * t)) - math.log(
            1.0 - ref_cdf(family_v, r)
        )
    return -math.log(1.0 - ref_cdf(family_z, s)) - math.log(
        ref_pdf(family_v, r) / (sigma_v * t)
    )


# -- both losses in arbitrary precision -------------------------------------
#
# The same formulas evaluated with mpmath at the working precision of the
# caller (mpmath.mp.dps), so tail values that underflow float64 stay exact.


def mp_log_survival(family: str, x):
    """log S(x) = log(1 - F(x)), kept exact in both tails."""
    if family == "extreme":
        return -mpmath.exp(x)
    if family == "normal":
        return mpmath.log1p(-mpmath.ncdf(x)) if x <= 0 else mpmath.log(mpmath.ncdf(-x))
    if family == "logistic":
        return -mpmath.log1p(mpmath.exp(x))
    raise ValueError(family)


def mp_log_density(family: str, x):
    if family == "extreme":
        return x - mpmath.exp(x)
    if family == "normal":
        return -x * x / 2 - mpmath.log(mpmath.sqrt(2 * mpmath.pi))
    if family == "logistic":
        return x - 2 * mpmath.log1p(mpmath.exp(x))
    raise ValueError(family)


def mp_clayton_loss(theta, family_z, sigma_z, family_v, sigma_v, t, delta, yhat):
    """ref_clayton_loss in mpmath, as a function of the mpf yhat."""
    log_t = mpmath.log(t)
    s = (log_t - yhat) / sigma_z
    r = (log_t - yhat) / sigma_v
    log_sz = mp_log_survival(family_z, s)
    log_sv = mp_log_survival(family_v, r)
    theta = mpmath.mpf(theta)
    value = (1 + 1 / theta) * mpmath.log(
        mpmath.exp(-theta * log_sz) + mpmath.exp(-theta * log_sv) - 1
    )
    if delta == 1:
        return value + (1 + theta) * log_sz - mp_log_density(family_z, s) + mpmath.log(sigma_z) + log_t
    return value + (1 + theta) * log_sv - mp_log_density(family_v, r) + mpmath.log(sigma_v) + log_t


def mp_independent_loss(family, sigma, t, delta, yhat):
    """-log(f(s) / (sigma t)) for events, -log S(s) for censored rows."""
    log_t = mpmath.log(t)
    s = (log_t - yhat) / sigma
    if delta == 1:
        return -mp_log_density(family, s) + mpmath.log(sigma) + log_t
    return -mp_log_survival(family, s)


# -- concordance, O(n^2) pair enumeration ----------------------------------

def ref_concordance(times, events, predicted_times) -> float:
    n = len(times)
    usable = 0
    credit = 0.0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if times[i] < times[j] and events[i] == 1:
                pass
            elif times[i] == times[j] and events[i] == 1 and events[j] == 0:
                pass
            else:
                continue
            usable += 1
            if predicted_times[i] < predicted_times[j]:
                credit += 1.0
            elif predicted_times[i] == predicted_times[j]:
                credit += 0.5
    if usable == 0:
        return 0.5
    return credit / usable


def ref_concordance_pairwise(times, events, predicted_times) -> float:
    """ref_concordance with every pair compared at once as (n, n) masks.

    O(n^2) time and memory: a few thousand rows at most.  Tallies are
    integers, so the value is exactly ref_concordance's.
    """
    t = np.asarray(times, dtype=float)
    d = np.asarray(events) == 1
    p = np.asarray(predicted_times, dtype=float)
    earlier = t[:, None] < t[None, :]
    earlier |= (t[:, None] == t[None, :]) & ~d[None, :]
    usable = earlier & d[:, None]
    n_usable = int(np.sum(usable))
    if n_usable == 0:
        return 0.5
    concordant = int(np.sum(usable & (p[:, None] < p[None, :])))
    tied = int(np.sum(usable & (p[:, None] == p[None, :])))
    return (2 * concordant + tied) / (2.0 * n_usable)


def ref_count_larger_before(values) -> list[int]:
    """For each position k, how many earlier positions hold a larger value."""
    return [sum(1 for v in values[:k] if v > values[k]) for k in range(len(values))]


# -- second-order tree objective, brute force -------------------------------

def ref_leaf_objective(g, h, w, lam: float) -> float:
    """sum_i [g_i w + 1/2 h_i w^2] + 1/2 lam w^2 for one leaf."""
    return sum(gi * w + 0.5 * hi * w * w for gi, hi in zip(g, h)) + 0.5 * lam * w * w


def ref_best_leaf_weight(g, h, lam: float) -> float:
    return -sum(g) / (sum(h) + lam)


def ref_split_gain(g, h, left_mask, lam: float, gamma: float) -> float:
    """Objective drop of a split, recomputed from optimal leaf objectives."""

    def best_obj(gs, hs):
        w = ref_best_leaf_weight(gs, hs, lam)
        return ref_leaf_objective(gs, hs, w, lam)

    gl = [gi for gi, m in zip(g, left_mask) if m]
    hl = [hi for hi, m in zip(h, left_mask) if m]
    gr = [gi for gi, m in zip(g, left_mask) if not m]
    hr = [hi for hi, m in zip(h, left_mask) if not m]
    return best_obj(g, h) - best_obj(gl, hl) - best_obj(gr, hr) - gamma


# -- exact greedy tree, plain enumeration -----------------------------------

def ref_grow_tree(X, g, h, max_depth: int, lam: float, gamma: float, min_child_weight: float):
    """One second-order tree as lists (feature, threshold, left, right, value).

    Every node sorts its rows by each feature afresh (ties by row index)
    and scans the cuts between neighbours left to right.  A cut counts
    when its neighbours differ, and replaces the incumbent only on
    strictly larger gain, so the lowest feature, then the lowest
    threshold, wins a tie.  Its threshold is the midpoint of the halves,
    0.5 * lo + 0.5 * hi, or hi when that rounds onto lo.  Node totals are summed in row order.  Nodes
    are numbered depth-first, left child first; a leaf has feature -1.
    """
    feature, threshold, left, right, value = [], [], [], [], []

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def grow(node, rows, depth):
        g_total = sum(g[i] for i in rows)
        h_total = sum(h[i] for i in rows)
        best = None  # (gain, feature, threshold)
        if depth < max_depth:
            parent = g_total * g_total / (h_total + lam)
            for f in range(len(X[0])):
                ordered = sorted(rows, key=lambda i: (X[i][f], i))
                gl = hl = 0.0
                for a, b in zip(ordered, ordered[1:]):
                    gl += g[a]
                    hl += h[a]
                    lo, hi = X[a][f], X[b][f]
                    gr, hr = g_total - gl, h_total - hl
                    if not lo < hi:
                        continue
                    if hl < min_child_weight or hr < min_child_weight:
                        continue
                    gain = 0.5 * (gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent) - gamma
                    if best is None or gain > best[0]:
                        mid = 0.5 * lo + 0.5 * hi  # halves: lo + hi may overflow
                        best = (gain, f, mid if mid > lo else hi)
        if best is not None and best[0] > 0.0:
            _, f, thr = best
            feature[node], threshold[node] = f, thr
            left[node] = new_node()
            right[node] = new_node()
            grow(left[node], [i for i in rows if X[i][f] < thr], depth + 1)
            grow(right[node], [i for i in rows if not X[i][f] < thr], depth + 1)
        else:
            value[node] = -g_total / (h_total + lam)

    grow(new_node(), list(range(len(X))), 0)
    return feature, threshold, left, right, value


# -- tree prediction, one row at a time -------------------------------------

def ref_tree_predict(feature, threshold, left, right, value, X) -> list[float]:
    """Leaf value per row, walking from the root.  A row goes left when
    x[f] < threshold, so a row at the threshold goes right; a leaf has
    feature -1."""
    out = []
    for row in X:
        node = 0
        while feature[node] >= 0:
            node = left[node] if row[feature[node]] < threshold[node] else right[node]
        out.append(value[node])
    return out


# -- CSV writing through the csv module --------------------------------------

def ref_write_csv(path, header, rows) -> None:
    """csv.writer output with every field written as repr of its value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) for v in row])


# -- stratified k-fold split, one row at a time -------------------------------

def ref_stratified_folds(events, folds: int, rng) -> list[list[int]]:
    """Rows of each event class (events first, then censored rows) in the
    order of rng.permutation, dealt to folds 0, 1, ... in turn, restarting
    at fold 0 for each class; each fold sorted.  A fold may be empty."""
    assignment = [[] for _ in range(folds)]
    for cls in (1, 0):
        rows = [i for i, e in enumerate(events) if e == cls]
        for j, k in enumerate(rng.permutation(len(rows))):
            assignment[j % folds].append(rows[k])
    return [sorted(a) for a in assignment]
