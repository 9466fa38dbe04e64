"""Information-theoretic lower-bound calculator.

Evaluates the KL information budget accumulated by the observation and
the resulting Fano error floor over the hard one-row subclass: the
minimax probability of misidentifying the k-parent set of the target
node among the C(d-1, k) possibilities.

The initial-state KL contribution is a user-supplied bound (default 0,
which makes the reported floor optimistic, i.e. an upper envelope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .model import number, require_subcritical
from .moments import c_path

__all__ = ["FanoInputs", "log_n_choose_k", "kl_budget", "fano_error_floor", "critical_time"]

# Largest dimension accepted. log C(d-1, k) as a difference of lgamma values
# is off by about 1e-16 * d * ln(d): under 1e-7 of it at d = 1e9, all of it
# from d = 2**53 (it reads 0 there), and lgamma overflows near d = 2.6e305.
MAX_D = 10**9


@dataclass(frozen=True)
class FanoInputs:
    d: int
    k: int
    T: float
    beta: float
    mu_bar: float
    mu_bar_star: float
    theta_minus: float
    c_init_bound: float = 0.0

    def __post_init__(self):
        if number("d", self.d, integer=True) > MAX_D:
            raise ValueError(f"need d <= MAX_D = {MAX_D}")
        if number("k", self.k, integer=True) < 1:
            raise ValueError(f"need k >= 1, got k={self.k}")
        for name in ("T", "beta", "mu_bar", "mu_bar_star", "theta_minus", "c_init_bound"):
            number(name, getattr(self, name), finite=True)
        if self.d < self.k + 2:
            raise ValueError(f"need d >= k+2, got d={self.d}, k={self.k}")
        if min(self.beta, self.mu_bar, self.mu_bar_star, self.theta_minus) <= 0:
            raise ValueError("rates must be positive")
        if self.T < 0 or self.c_init_bound < 0:
            raise ValueError("T and c_init_bound must be nonnegative")
        require_subcritical(self.k, self.theta_minus, self.beta)


def log_n_choose_k(n: int, k: int) -> float:
    """log C(n, k) via log-gamma, stable for large n."""
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _kl_rate(inputs: FanoInputs) -> float:
    """KL accumulated per unit of observation time, (theta_-^2/mu_star) C_path."""
    return inputs.theta_minus**2 / inputs.mu_bar_star * c_path(inputs.k, inputs.mu_bar, inputs.beta)


def kl_budget(inputs: FanoInputs) -> float:
    """Initial-state bound plus the dynamic term (theta_-^2/mu_star) C_path T."""
    return inputs.c_init_bound + _kl_rate(inputs) * inputs.T


def fano_error_floor(inputs: FanoInputs) -> float:
    """Minimax error floor 1 - (KL budget + ln 2) / ln C(d-1, k), clamped at 0."""
    log_m = log_n_choose_k(inputs.d - 1, inputs.k)
    return max(0.0, 1.0 - (kl_budget(inputs) + math.log(2.0)) / log_m)


def critical_time(inputs: FanoInputs, target_error: float) -> float:
    """Observation time at which the floor drops to ``target_error``.

    Closed-form inversion of the floor in T; requires the target to be
    strictly between 0 and the floor at T = 0 (same c_init_bound).
    """
    at_zero = fano_error_floor(replace(inputs, T=0.0))
    if not 0.0 < target_error < at_zero:
        raise ValueError(
            f"target error {target_error} not in (0, floor(0)={at_zero})"
        )
    log_m = log_n_choose_k(inputs.d - 1, inputs.k)
    budget = (1.0 - target_error) * log_m - inputs.c_init_bound - math.log(2.0)
    return budget / _kl_rate(inputs)
