"""The exact compensator and log-likelihood of an exponential-kernel Hawkes log, for tests.

Node i's intensity is lambda_i(t) = mu_i + sum_j theta_ij X_j(t), with
X_j(t) = sum over j's events s <= t of exp(-beta (t - s)). Since
dX_j = -beta X_j dt + dN_j, the integral of X_j over (a, b] is
(N_j(a, b] + X_j(a) - X_j(b)) / beta (Ogata 1978), so neither the
compensator Lambda_i(t) = mu_i (t - t_start) + sum_j theta_ij
(N_j(t_start, t] - X_j(t)) / beta, where the log starts with X = 0, nor
node i's log-likelihood sum_e log lambda_i(t_e-) - integral of lambda_i
(Jacod 1975) needs quadrature.
"""

from __future__ import annotations

import math

import numpy as np


def _states_after_events(ts: np.ndarray, beta: float) -> np.ndarray:
    """X(s_m) at each event s_m of one node, its own event included."""
    out = np.empty(ts.size)
    x, prev = 0.0, -math.inf
    for m, s in enumerate(ts.tolist()):
        x = 1.0 + x * math.exp(-beta * (s - prev))
        out[m], prev = x, s
    return out


def _states_at(ts: np.ndarray, after: np.ndarray, beta: float, t: np.ndarray,
               side: str) -> np.ndarray:
    """X(t) from the events ts of one node, X(t-) if side is "left"."""
    if not ts.size:
        return np.zeros(np.shape(t))
    k = ts.searchsorted(t, side=side)
    last = np.maximum(k - 1, 0)
    return np.where(k > 0, after[last] * np.exp(-beta * np.maximum(t - ts[last], 0.0)), 0.0)


def rescaled_gaps(log, params) -> np.ndarray:
    """Lambda_i's increments between consecutive events of node i in (0, t_end], all nodes pooled.

    Under the model they are iid Exp(1) (time rescaling; Brown et al. 2002).
    Lambda_i is taken from the log alone, with X = 0 at log.t_start. Events
    before 0 are burn-in: they feed the state but start no gap, so a state
    at t_start that the log does not hold has decayed before the gaps start.
    """
    beta = params.beta
    after = [_states_after_events(ts, beta) for ts in log.events]
    gaps = []
    for i, row in enumerate(params.theta.rows):
        t = log.events[i][log.events[i] > 0.0]
        compensator = params.mu[i] * (t - log.t_start)
        for j, theta_ij in row:
            ts = log.events[j]
            k = ts.searchsorted(t, side="right")  # N_j(t_start, t]
            x = _states_at(ts, after[j], beta, t, "right")
            compensator = compensator + theta_ij * (k - x) / beta
        gaps.append(np.diff(compensator))
    return np.concatenate(gaps)


def log_likelihoods(log, i: int, parents, mu: float, theta: float, beta: float,
                    grid: np.ndarray) -> np.ndarray:
    """Node i's log-likelihood over each interval (grid[m], grid[m + 1]].

    The intensity is mu + theta * sum of X_j over j in parents, with every
    X_j taken from the whole log, burn-in included.
    """
    grid = np.asarray(grid, dtype=float)
    t = log.events[i]
    t = t[(t > grid[0]) & (t <= grid[-1])]
    lam = np.full(t.size, float(mu))
    integral = mu * np.diff(grid)
    for j in parents:
        ts = log.events[j]
        after = _states_after_events(ts, beta)
        lam += theta * _states_at(ts, after, beta, t, "left")
        x = _states_at(ts, after, beta, grid, "right")
        integral += theta * (np.diff(ts.searchsorted(grid, side="right")) + x[:-1] - x[1:]) / beta
    interval = grid.searchsorted(t, side="left") - 1
    return np.bincount(interval, weights=np.log(lam), minlength=grid.size - 1) - integral


def ks_exp1_pvalue(x: np.ndarray) -> float:
    """Asymptotic p-value of the one-sample Kolmogorov-Smirnov test of x against Exp(1)."""
    x = np.sort(x)
    n = x.size
    cdf = -np.expm1(-x)
    D = max(np.max(np.arange(1, n + 1) / n - cdf), np.max(cdf - np.arange(n) / n))
    # Kolmogorov's limit law, with Stephens's (1970) finite-n correction.
    lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * D
    if lam < 0.2:  # the series converges slowly here, and p > 1 - 1e-8
        return 1.0
    p = 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * (k * lam) ** 2) for k in range(1, 101))
    return min(max(p, 0.0), 1.0)
