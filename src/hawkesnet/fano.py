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

# Largest dimension accepted: the range over which log C(d-1, k) is checked
# against exact integer arithmetic, to 1e-14 relative.
MAX_D = 10**9
# Below this n, log C(n, k) is the log of the exact integer. From it on,
# n - k >= n/2 >= 32, where four terms of Stirling's series leave out less
# than 3e-17.
STIRLING_MIN_N = 64


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
    """log C(n, k) to a few ulps, in time that does not grow with n or k.

    With k <= n - k (C(n, k) = C(n, n - k)), log n!/(n-k)! is Stirling's
    series written as k ln n - (n - k + 1/2) log1p(-k/n) - k plus the
    difference of the series' tails, which keeps k/n whole where a
    difference of log-gamma values of size n ln n loses it; log k! is
    lgamma(k + 1).
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    k = min(k, n - k)
    if n < STIRLING_MIN_N:
        return math.log(math.comb(n, k))
    return (k * math.log(n) - (n - k + 0.5) * math.log1p(-k / n) - k
            + _stirling_tail(n) - _stirling_tail(n - k) - math.lgamma(k + 1))


def _stirling_tail(m: int) -> float:
    """log m! - (m ln m - m + ln(2 pi m)/2): the first four terms of Stirling's series."""
    x = 1.0 / m
    x2 = x * x
    return x * (1 / 12 - x2 * (1 / 360 - x2 * (1 / 1260 - x2 / 1680)))


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
