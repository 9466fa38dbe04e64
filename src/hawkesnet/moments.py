"""Closed-form stationary quantities of a stable Hawkes model.

These serve as ground truth in tests: the stationary mean m solving
(beta*I - Theta) m = mu in one linear solve, the stationary covariance
Sigma of the state X(0) solving the continuous Lyapunov equation

    (Theta - beta*I) Sigma + Sigma (Theta - beta*I)^T = -diag(beta*m)

by Smith's doubling on its Cayley transform, with numpy alone, the
population screening scores G_ij = Cov(X_j(0), lambda_i(0)), and the
aggregated-parent second moment used by the information lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import HawkesParams, TrueSupport, require_dense_d, require_subcritical

__all__ = [
    "StationaryMoments",
    "stationary_mean",
    "stationary_covariance",
    "stationary_moments",
    "population_screening_scores",
    "screening_gap",
    "c_path",
]


@dataclass(frozen=True)
class StationaryMoments:
    m: np.ndarray          # stationary mean of X
    lambda_bar: np.ndarray  # stationary intensities beta * m
    sigma: np.ndarray      # stationary covariance of X(0)


def stationary_mean(params: HawkesParams) -> np.ndarray:
    """Solve (beta*I - Theta) m = mu, nonsingular for gamma < 1."""
    require_subcritical(params.k, params.theta_plus, params.beta)
    require_dense_d(params.d)
    theta = params.theta.to_dense()
    return np.linalg.solve(params.beta * np.eye(params.d) - theta, params.mu)


# Doublings before the covariance solve gives up. The error after n of them
# shrinks like rho(P)^(2^n), with rho(P) <= gamma/(2 - gamma): 5 doublings
# at gamma = 0.4, 14 at 0.999 and 44 at 1 - 1e-12 on a d=7 instance.
_MAX_DOUBLINGS = 64


def stationary_covariance(params: HawkesParams, m: np.ndarray) -> np.ndarray:
    """Solve (Theta - beta*I) Sigma + Sigma (Theta - beta*I)^T = -diag(beta*m).

    The Cayley transform with shift beta turns the equation into
    Sigma = P Sigma P^T + S0, with M = (Theta - 2 beta I)^-1, P = Theta M
    and S0 = 2 beta M diag(beta*m) M^T, whose solution is the sum of
    P^j S0 (P^j)^T over j >= 0. Smith's (1968) doubling sums it: each step
    adds P S P^T to S, which doubles the number of terms in S, and squares
    P. Every row of Theta sums to at most gamma*beta, so ||P||_inf <=
    gamma/(2 - gamma) < 1, and the steps needed grow like log(1/(1 - gamma)).
    """
    require_subcritical(params.k, params.theta_plus, params.beta)
    require_dense_d(params.d)
    beta = params.beta
    theta = params.theta.to_dense()
    resolvent = np.linalg.inv(theta - 2.0 * beta * np.eye(params.d))
    p = theta @ resolvent
    s = (2.0 * beta) * (resolvent * (beta * np.asarray(m))) @ resolvent.T
    del theta, resolvent  # only P and S live through the loop
    for _ in range(_MAX_DOUBLINGS):
        s_next = p @ s @ p.T
        s_next += s
        if np.array_equal(s_next, s):  # the step no longer changes S at rounding
            # enforce exact symmetry against fp drift
            return 0.5 * (s + s.T)
        s = s_next
        p = p @ p
    raise ValueError(f"stationary covariance: no convergence in {_MAX_DOUBLINGS} doublings")


def stationary_moments(params: HawkesParams) -> StationaryMoments:
    m = stationary_mean(params)
    sigma = stationary_covariance(params, m)
    return StationaryMoments(m=m, lambda_bar=params.beta * m, sigma=sigma)


def population_screening_scores(params: HawkesParams, sigma: np.ndarray) -> np.ndarray:
    """Population screening score matrix G with G_ij = Cov(X_j(0), lambda_i(0)).

    Expands to G_ij = sum over parents l of i of theta_il * Sigma_jl; rows
    with an empty parent set are identically zero.
    """
    return params.theta.to_dense() @ sigma  # sigma symmetric


def screening_gap(G: np.ndarray, support: TrueSupport) -> list[float | None]:
    """Per-row gap min over parents minus max over non-parents.

    Rows with no parents report None.  When a row has no non-parents the
    gap is the min parent score itself (empty-max convention).
    """
    d = support.d
    parents = np.zeros((d, d), dtype=bool)
    for i, row in enumerate(support.rows):
        parents[i, list(row)] = True
    n_parents = parents.sum(axis=1)
    lo = np.where(parents, G, np.inf).min(axis=1)
    hi = np.where(parents, -np.inf, G).max(axis=1)
    # Rows without non-parents subtract 0; inf - inf is nan, as for Python floats.
    with np.errstate(invalid="ignore"):
        gaps = lo - np.where(n_parents < d, hi, 0.0)
    return [None if k == 0 else g for k, g in zip(n_parents.tolist(), gaps.tolist())]


def c_path(k: int, mu_bar: float, beta: float) -> float:
    """Stationary second moment of the aggregated k-parent shot-noise block."""
    return (k * mu_bar / beta) ** 2 + k * mu_bar / (2.0 * beta)
