"""Closed-form stationary quantities of a stable Hawkes model.

These serve as ground truth in tests: the stationary mean m solving
(beta*I - Theta) m = mu in one linear solve, the stationary covariance
Sigma of the state X(0) solving the continuous Lyapunov equation

    (Theta - beta*I) Sigma + Sigma (Theta - beta*I)^T = -diag(beta*m)

in one Bartels-Stewart solve, the population screening scores
G_ij = Cov(X_j(0), lambda_i(0)), and the aggregated-parent second moment
used by the information lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import HawkesParams, TrueSupport, require_subcritical

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
    theta = params.theta.to_dense()
    return np.linalg.solve(params.beta * np.eye(params.d) - theta, params.mu)


def stationary_covariance(params: HawkesParams, m: np.ndarray) -> np.ndarray:
    """Solve (Theta - beta*I) Sigma + Sigma (Theta - beta*I)^T = -diag(beta*m).

    Theta - beta*I is stable for gamma < 1, so the solution is unique and
    its cost does not grow as gamma approaches 1.
    """
    # scipy is imported here alone: no other path of hawkesnet needs it.
    from scipy.linalg import solve_continuous_lyapunov

    require_subcritical(params.k, params.theta_plus, params.beta)
    a = params.theta.to_dense() - params.beta * np.eye(params.d)
    sigma = solve_continuous_lyapunov(a, -np.diag(params.beta * np.asarray(m)))
    # enforce exact symmetry against fp drift
    return 0.5 * (sigma + sigma.T)


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
