"""The host's speed, from a fixed reference computation timed between operations.

The benchmark's two vCPUs share caches and memory bandwidth with other
tenants of the host, who slow every computation on it by up to a factor
of 1.7 in phases lasting from seconds to a quarter of an hour. Raw
operation times follow those phases from run to run. The reference
computation is slowed by them too, while nothing in the program
changes its time: its inputs are fixed, independent of --seed, and it
runs only numpy and the interpreter, never hawkesnet.

The reference has two halves, after the two kinds of work the program
does, which the host's phases slow by different amounts: bulk array
passes (a grid binning with a cumulative sum and a Gram product) and an
interpreter loop over small arrays, the shape of the thinning
simulator's inner loop. Both are timed after every operation. An
operation's time is scaled by the nominal time of the halves that its
work resembles over their time measured beside it, so that it reads as
seconds on a host where those halves take NOMINAL_S.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Each half's time on this benchmark's host, measured in a fast phase.
# They fix only the scale of the reported seconds.
NOMINAL_S = {"bulk": 0.04, "scalar": 0.04}


class HostSpeed:
    """Times of both halves of the reference, sampled between operations."""

    def __init__(self):
        rng = np.random.default_rng(20261018)
        self.grid_index = rng.integers(0, 25_000 * 40, size=(200_000,))
        self.small = rng.uniform(0.0, 0.05, size=(10, 10))
        self.samples: dict[str, list[float]] = {half: [] for half in NOMINAL_S}
        self._bulk(self._grid())   # warm-up, not kept
        self._scalar()

    @staticmethod
    def _grid() -> np.ndarray:
        # Made afresh for each sample, outside its timing, and freed after
        # it, so that it is not resident while an operation's peak memory is
        # sampled.
        return np.zeros((25_000, 40))

    def _bulk(self, grid: np.ndarray) -> float:
        # A binned cumulative sum and a Gram product over 8 MB, the shape of
        # bin_and_clip and the estimator's products. Nothing is allocated
        # while timed but the 40 x 40 product, so what the program left on
        # the heap does not change the time.
        s = 0.0
        for _ in range(6):
            grid.fill(0.0)
            np.add.at(grid.reshape(-1), self.grid_index, 0.96)
            np.cumsum(grid, axis=0, out=grid)
            np.minimum(grid, 5.0, out=grid)
            s += float((grid.T @ grid).trace())
        return s

    def _scalar(self) -> float:
        rng = np.random.default_rng(1)
        theta, mu, x = self.small, np.ones(10), np.zeros(10)
        total = 0.0
        for _ in range(3000):
            x *= math.exp(-0.01)
            lam = mu + theta @ x
            total += float(np.sum(lam))
            node = int(np.searchsorted(np.cumsum(lam), rng.uniform() * 10.0))
            x[min(node, 9)] += 1.0
        return total

    def sample(self) -> None:
        """Time each half once and keep the times."""
        grid = self._grid()
        t0 = time.perf_counter()
        self._bulk(grid)
        t1 = time.perf_counter()
        self._scalar()
        t2 = time.perf_counter()
        self.samples["bulk"].append(t1 - t0)
        self.samples["scalar"].append(t2 - t1)

    def sample_for(self, seconds: float) -> dict[str, float]:
        """Sample once, then again until `seconds` have passed; each half's median over these samples."""
        end = time.perf_counter() + seconds
        first = len(self.samples["bulk"])
        self.sample()
        while time.perf_counter() < end:
            self.sample()
        return {half: statistics.median(times[first:]) for half, times in self.samples.items()}

    def scale(self, halves: tuple[str, ...], measured: dict[str, float] | None = None) -> float:
        """Seconds here to nominal seconds: the halves' nominal time over their `measured`
        time, by default their median over every sample."""
        if measured is None:
            measured = {half: statistics.median(times) for half, times in self.samples.items()}
        return sum(NOMINAL_S[h] for h in halves) / sum(measured[h] for h in halves)
