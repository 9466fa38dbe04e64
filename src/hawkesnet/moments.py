"""Closed-form / fixed-point stationary quantities of a stable Hawkes model.

These serve as ground truth in tests: the stationary mean m solving
(beta*I - Theta) m = mu in one linear solve, the stationary covariance
Sigma of the state X(0) solving the entrywise Lyapunov equation

    2*beta*Sigma = Theta Sigma + Sigma Theta^T + diag(beta*m),

the population screening scores G_ij = Cov(X_j(0), lambda_i(0)), and the
aggregated-parent second moment used by the information lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import HawkesParams, TrueSupport

__all__ = [
    "ConvergenceError",
    "StationaryMoments",
    "stationary_mean",
    "stationary_covariance",
    "stationary_moments",
    "population_screening_scores",
    "screening_gap",
    "c_path",
]

# The covariance fixed point stops once no entry moves by TOL.
TOL = 1e-12
MAX_ITER = 10**6


class ConvergenceError(RuntimeError):
    """Fixed-point iteration failed to converge (gamma too close to 1)."""


@dataclass(frozen=True)
class StationaryMoments:
    m: np.ndarray          # stationary mean of X
    lambda_bar: np.ndarray  # stationary intensities beta * m
    sigma: np.ndarray      # stationary covariance of X(0)


def _require_subcritical(params: HawkesParams) -> None:
    if not params.gamma < 1.0:
        raise ValueError(f"stationary moments need gamma < 1, got gamma={params.gamma}")


def stationary_mean(params: HawkesParams) -> np.ndarray:
    """Solve (beta*I - Theta) m = mu, nonsingular for gamma < 1."""
    _require_subcritical(params)
    theta = params.theta.to_dense()
    return np.linalg.solve(params.beta * np.eye(params.d) - theta, params.mu)


def stationary_covariance(params: HawkesParams, m: np.ndarray) -> np.ndarray:
    """Fixed-point solve of the entrywise Lyapunov equation.

    Sigma <- (Theta Sigma + Sigma Theta^T + diag(beta*m)) / (2*beta),
    started at zero; the map contracts with factor at most gamma.
    """
    _require_subcritical(params)
    theta = params.theta.to_dense()
    beta = params.beta
    source = np.diag(beta * np.asarray(m))
    sigma = np.zeros_like(source)
    for _ in range(MAX_ITER):
        sigma_next = (theta @ sigma + sigma @ theta.T + source) / (2.0 * beta)
        if np.max(np.abs(sigma_next - sigma)) < TOL:
            # enforce exact symmetry against fp drift
            return 0.5 * (sigma_next + sigma_next.T)
        sigma = sigma_next
    raise ConvergenceError(
        f"stationary covariance did not converge in {MAX_ITER} iterations"
    )


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
    gaps: list[float | None] = []
    for i in range(d):
        parents = sorted(support.rows[i])
        if not parents:
            gaps.append(None)
            continue
        others = [j for j in range(d) if j not in support.rows[i]]
        lo = float(np.min(G[i, parents]))
        if not others:
            gaps.append(lo)
        else:
            gaps.append(lo - float(np.max(G[i, others])))
    return gaps


def c_path(k: int, mu_bar: float, beta: float) -> float:
    """Stationary second moment of the aggregated k-parent shot-noise block."""
    return (k * mu_bar / beta) ** 2 + k * mu_bar / (2.0 * beta)
