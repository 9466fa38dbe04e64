"""Monte-Carlo experiment harness.

Runs recovery-rate cells over a (d, T) grid, estimates the empirical
threshold time T*(d) at which the exact-recovery rate crosses a target
level, and fits T* against log d.  Every trial derives its seed from
(base_seed, d, T, trial) so results are a pure function of the spec,
regardless of worker count.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import repeat
from typing import Callable, Optional, Sequence

import numpy as np

from .estimator import EstimatorConfig, evaluate, recover
from .model import (
    number,
    require_dense_d,
    require_subcritical,
    sample_random_instance,
    support_of,
)
from .seeding import mix64, trial_seed
# Sweeps run only simulate_cluster. simulate_thinning stays a name of this
# module because perfbench's layer hooks wrap it here as in cli, and a name
# missing from either module marks the thinning layer absent in every run.
from .simulate import bin_and_clip, simulate_cluster, simulate_thinning

__all__ = [
    "SpecError",
    "SweepSpec",
    "CellResult",
    "ThresholdEstimate",
    "LogFit",
    "SweepResult",
    "wilson_interval",
    "run_trial",
    "run_cell",
    "estimate_threshold_time",
    "fit_log_scaling",
    "run_sweep",
    "write_results_csv",
    "write_thresholds_csv",
    "write_fit_json",
]

# z of the two-sided 95% normal quantile, for the Wilson interval.
WILSON_Z = 1.959963984540054
# Values of the bracket's high (low) end tried, doubling (halving) it each
# time, before the search gives up.
MAX_BRACKET_EXPANSIONS = 12
# Even grid points of the re-scan after non-monotone rates.
RESCAN_POINTS = 9
# Trials a pool worker takes per task of a cell.
TRIALS_PER_TASK = 4


class SpecError(ValueError):
    """Invalid sweep specification."""


@dataclass(frozen=True)
class SweepSpec:
    d_values: tuple[int, ...]
    trials: int
    k: int
    alpha: float
    w_minus: float
    w_plus: float
    mu_minus: float
    mu_plus: float
    beta: float
    base_seed: int
    T_values: tuple[float, ...] = ()
    success_level: float = 0.9
    jobs: int = 1
    # initial bisection bracket for threshold mode (auto-expanded)
    T_bracket: tuple[float, float] = (25.0, 400.0)

    def __post_init__(self):
        # JSON gives bools, floats, strings and nulls where counts and rates belong.
        try:
            for name in ("trials", "k", "jobs", "base_seed"):
                number(name, getattr(self, name), integer=True)
            for d in self.d_values:
                require_dense_d(number("d_values", d, integer=True), "d_values: ")
                if d < self.k:
                    raise ValueError(f"d_values: d={d} is below k={self.k}")
            if len(set(self.d_values)) < len(self.d_values):
                raise ValueError(f"d_values must not repeat a d, got {list(self.d_values)}")
            for name in ("alpha", "w_minus", "w_plus", "mu_minus", "mu_plus", "beta"):
                number(name, getattr(self, name), positive=True)
            if len(self.T_bracket) != 2:
                raise ValueError(f"T_bracket must be two numbers, got {self.T_bracket!r}")
            for name, ts in (("T_values", self.T_values), ("T_bracket", self.T_bracket)):
                if [number(name, T, positive=True) for T in ts] != sorted(ts):
                    raise ValueError(f"{name} must be ascending, got {ts!r}")
            for lo, hi in (("w_minus", "w_plus"), ("mu_minus", "mu_plus")):
                if getattr(self, lo) > getattr(self, hi):
                    raise ValueError(f"{lo} must not exceed {hi}")
            for name in ("trials", "k", "jobs"):
                if getattr(self, name) < 1:
                    raise ValueError(f"{name} must be >= 1")
            if not 0.0 < number("success_level", self.success_level) < 1.0:
                raise ValueError("success_level must be in (0, 1)")
            require_subcritical(self.k, self.alpha * self.w_plus, self.beta)
        except ValueError as exc:
            raise SpecError(str(exc)) from None

    @staticmethod
    def from_json(text: str) -> "SweepSpec":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise SpecError("sweep spec must be a JSON object")
        missing = [
            f.name for f in fields(SweepSpec)
            if f.default is MISSING and f.name not in doc
        ]
        if missing:
            raise SpecError(f"sweep spec missing field(s): {', '.join(missing)}")
        try:
            for name in ("d_values", "T_values", "T_bracket"):
                if name in doc:
                    doc[name] = tuple(doc[name])
            return SweepSpec(**doc)
        except (TypeError, ValueError) as exc:
            raise SpecError(str(exc)) from exc

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CellResult:
    d: int
    T: float
    trials: int
    successes: int

    @property
    def rate(self) -> float:
        return self.successes / self.trials

    def wilson(self) -> tuple[float, float]:
        return wilson_interval(self.successes, self.trials)


@dataclass(frozen=True)
class ThresholdEstimate:
    d: int
    t_star: float
    t_lo: float
    t_hi: float
    cells: tuple[CellResult, ...]
    monotonicity_violated: bool = False


@dataclass(frozen=True)
class LogFit:
    slope: float
    intercept: float
    r2: float


@dataclass(frozen=True)
class SweepResult:
    cells: tuple[CellResult, ...]
    thresholds: tuple[ThresholdEstimate, ...] = ()
    fit: Optional[LogFit] = None


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial rate."""
    z = WILSON_Z
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p = successes / trials
    denom = 1.0 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def run_trial(d: int, T: float, spec: SweepSpec, trial: int) -> bool:
    """One sample-simulate-recover-evaluate round; True on exact recovery."""
    seed = trial_seed(spec.base_seed, d, T, trial)
    params = sample_random_instance(
        d=d, k=spec.k, alpha=spec.alpha,
        w_minus=spec.w_minus, w_plus=spec.w_plus,
        mu_minus=spec.mu_minus, mu_plus=spec.mu_plus,
        beta=spec.beta, seed=mix64(seed, 1),
    )
    log = simulate_cluster(params, T, seed=mix64(seed, 2))
    config = EstimatorConfig.auto(spec.alpha, spec.w_minus, spec.k)
    sample = bin_and_clip(log, params.beta, config.h, config.R)
    net = recover(sample, config)
    return evaluate(net, support_of(params)).exact


def run_cell(d: int, T: float, spec: SweepSpec) -> CellResult:
    """Run spec.trials independent trials of the (d, T) cell.

    The pool starts all its workers at once, so it takes no more of them
    than the host has CPUs or the map has chunks of trials.
    """
    jobs = min(spec.jobs, os.cpu_count() or 1, -(-spec.trials // TRIALS_PER_TASK))
    args = (repeat(d), repeat(T), repeat(spec), range(spec.trials))
    if jobs == 1:
        outcomes = list(map(run_trial, *args))
    else:
        # Imported here, not at load: the pool stack adds ~2 MB and 12 ms to any process.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(run_trial, *args, chunksize=TRIALS_PER_TASK))
    return CellResult(d=d, T=T, trials=spec.trials, successes=sum(outcomes))


def estimate_threshold_time(
    d: int,
    spec: SweepSpec,
    rate_fn: Optional[Callable[[float], CellResult]] = None,
) -> ThresholdEstimate:
    """Bisect on T for the Monte-Carlo rate crossing spec.success_level.

    The initial bracket spec.T_bracket is auto-expanded (halving the low
    end, doubling the high end) until rate(T_lo) < level <= rate(T_hi).
    Bisection stops at 10% relative width.  If the evaluated rates are
    non-monotone beyond Wilson noise, the bracket is re-scanned on an
    even grid instead.  An end that cannot be brought across the level
    raises SpecError naming the last T tried.
    """
    if rate_fn is None:
        rate_fn = lambda T: run_cell(d, T, spec)
    level = spec.success_level
    cells: dict[float, CellResult] = {}

    def rate(T: float) -> float:
        if T not in cells:
            cells[T] = rate_fn(T)
        return cells[T].rate

    # Each end moves away from the other, so the last T tried at the high
    # end is the largest cell and the last at the low end the smallest.
    t_lo, t_hi = spec.T_bracket
    for _ in range(MAX_BRACKET_EXPANSIONS):
        if rate(t_hi) >= level:
            break
        t_hi *= 2.0
    else:
        raise SpecError(f"rate never reached {level} up to T={max(cells)} for d={d}")
    for _ in range(MAX_BRACKET_EXPANSIONS):
        if rate(t_lo) < level:
            break
        t_lo /= 2.0
    else:
        raise SpecError(f"rate already >= {level} down to T={min(cells)} for d={d}")

    while (t_hi - t_lo) > 0.1 * 0.5 * (t_hi + t_lo):
        t_mid = 0.5 * (t_lo + t_hi)
        if rate(t_mid) >= level:
            t_hi = t_mid
        else:
            t_lo = t_mid

    violated = _monotonicity_violated(cells, level)
    if violated:
        t_lo, t_hi = _grid_rescan(cells, rate, level)

    ordered = tuple(cells[T] for T in sorted(cells))
    return ThresholdEstimate(
        d=d, t_star=0.5 * (t_lo + t_hi), t_lo=t_lo, t_hi=t_hi,
        cells=ordered, monotonicity_violated=violated,
    )


def _monotonicity_violated(cells: dict[float, CellResult], level: float) -> bool:
    # Some earlier T confidently above the level, a later T confidently below.
    earlier_above = False
    for T in sorted(cells):
        lo, hi = cells[T].wilson()
        if earlier_above and hi < level:
            return True
        earlier_above = earlier_above or lo > level
    return False


def _grid_rescan(cells, rate, level) -> tuple[float, float]:
    ts = sorted(cells)
    grid = np.linspace(ts[0], ts[-1], RESCAN_POINTS)
    t_lo, t_hi = ts[0], ts[-1]
    for T in grid:
        T = float(T)
        if rate(T) >= level:
            t_hi = T
            break
        t_lo = T
    return t_lo, t_hi


def fit_log_scaling(points: Sequence[tuple[int, float]]) -> LogFit:
    """OLS of T* on ln d; returns slope, intercept, R^2."""
    if len(points) < 3:
        raise ValueError("need at least 3 (d, T*) points")
    if len({d for d, _ in points}) < 2:
        raise ValueError("need at least 2 distinct d")
    x = np.log([d for d, _ in points])
    y = np.array([t for _, t in points])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return LogFit(slope=float(slope), intercept=float(intercept), r2=r2)


def run_sweep(spec: SweepSpec, threshold_mode: bool = False) -> SweepResult:
    """Grid cells, plus per-d threshold estimates and log fit when requested."""
    if threshold_mode:
        thresholds = tuple(estimate_threshold_time(d, spec) for d in spec.d_values)
        cells = tuple(c for th in thresholds for c in th.cells)
        fit = None
        if len(thresholds) >= 3:
            fit = fit_log_scaling([(th.d, th.t_star) for th in thresholds])
        return SweepResult(cells=cells, thresholds=thresholds, fit=fit)
    if not spec.T_values:
        raise SpecError("grid mode requires T_values")
    cells = tuple(
        run_cell(d, T, spec) for d in spec.d_values for T in spec.T_values
    )
    return SweepResult(cells=cells)


def _fmt(x: float) -> str:
    return format(x, ".17g")


def write_results_csv(cells: Sequence[CellResult], path: str) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["d", "T", "trials", "successes", "rate", "ci_lo", "ci_hi"])
        for c in cells:
            lo, hi = c.wilson()
            writer.writerow(
                [c.d, _fmt(c.T), c.trials, c.successes, _fmt(c.rate), _fmt(lo), _fmt(hi)]
            )


def write_thresholds_csv(thresholds: Sequence[ThresholdEstimate], path: str) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["d", "t_star", "t_lo", "t_hi"])
        for th in thresholds:
            writer.writerow([th.d, _fmt(th.t_star), _fmt(th.t_lo), _fmt(th.t_hi)])


def write_fit_json(fit: LogFit, path: str) -> None:
    with open(path, "w") as f:
        json.dump(
            {"slope": fit.slope, "intercept": fit.intercept, "r2": fit.r2},
            f, sort_keys=True, separators=(",", ":"),
        )
        f.write("\n")
