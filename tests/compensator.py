"""The exact compensator of an exponential-kernel Hawkes log, for tests.

Node i's intensity is lambda_i(t) = mu_i + sum_j theta_ij X_j(t), with
X_j(t) = sum over j's events s <= t of exp(-beta (t - s)). Since
dX_j = -beta X_j dt + dN_j, the integral of X_j from t_start, where the
log starts with X = 0, is (N_j(t_start, t] - X_j(t)) / beta (Ogata 1978),
so the compensator Lambda_i(t) = mu_i (t - t_start) + sum_j theta_ij
(N_j(t_start, t] - X_j(t)) / beta needs no quadrature.
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
            last = np.maximum(k - 1, 0)
            x = after[j][last] * np.exp(-beta * (t - ts[last])) if ts.size else 0.0
            compensator = compensator + theta_ij * (k - np.where(k > 0, x, 0.0)) / beta
        gaps.append(np.diff(compensator))
    return np.concatenate(gaps)


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
