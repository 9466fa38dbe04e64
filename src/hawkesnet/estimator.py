"""Two-stage bounded-block support estimator.

Stage one screens candidate parents for each target node by the
empirical covariance between the clipped sampled state of a source and
the binned event indicator of the target, keeping the m highest-scoring
sources.  Stage two runs a centered local least squares on the retained
candidates and thresholds the fitted coefficients.

Both stages read two sufficient statistics of the sample: the centered
covariance of Z and the screening matrix F.  For a row i with candidate
set C the local least squares is exactly solve(Cov(Z)[C, C], F[i, C]).
Both come from the sample's grid sums (n, the column sums of Z and Y,
YᵀZ and ZᵀZ), so recover reads neither Z nor Y, which a sample binned
from a log does not hold.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import TrueSupport, number
from .simulate import BinnedSample

__all__ = [
    "EstimatorConfig",
    "RowRecovery",
    "RecoveredNetwork",
    "RecoveryMetrics",
    "screening_scores",
    "select_candidates",
    "local_least_squares",
    "threshold_support",
    "recover",
    "evaluate",
    "network_to_json",
]

# Relative floor for the smallest Gram eigenvalue before a row is
# declared degenerate.
GRAM_EPS_REL = 1e-10
# Entries of the stacked Cov(Z)[C, C] blocks that recover solves at once: a
# group holds max(1, this // m^2) rows, so its memory does not grow with d.
_GROUP_ENTRIES = 1 << 16


@dataclass(frozen=True)
class EstimatorConfig:
    h: float
    R: float
    m: int
    tau: float

    def __post_init__(self):
        for name in ("h", "R", "tau"):
            number(name, getattr(self, name), positive=True)
        if number("m", self.m, integer=True) < 1:
            raise ValueError("m must be >= 1")

    @classmethod
    def auto(cls, alpha: float, w_minus: float, k: int) -> "EstimatorConfig":
        """Schedule h ~ alpha^2, R ~ 1/alpha, m = 2k, tau = alpha*w_minus*h/2."""
        if number("k", k, integer=True) < 1:
            raise ValueError(f"k must be >= 1, got {k!r}")
        number("alpha", alpha, positive=True)
        h = alpha * alpha  # overflows to inf, which __post_init__ rejects
        return cls(
            h=h,
            R=max(1.0, 1.0 / alpha),
            m=2 * k,
            tau=alpha * w_minus * h / 2.0,
        )


@dataclass(frozen=True)
class RowRecovery:
    i: int
    candidates: tuple[int, ...]       # ordered by score descending
    coeffs: Optional[np.ndarray]      # indexed like candidates; None if degenerate
    support: frozenset[int]
    degenerate: bool


@dataclass(frozen=True)
class RecoveredNetwork:
    d: int
    rows: tuple[RowRecovery, ...]


@dataclass(frozen=True)
class RecoveryMetrics:
    exact: bool
    row_correct: tuple[bool, ...]
    true_positives: int
    false_positives: int
    false_negatives: int
    hamming: int


def screening_scores(sample: BinnedSample) -> np.ndarray:
    """Empirical covariance score matrix F with F[i, j] = Cov_n(Z_j, Y_i)."""
    if sample.n < 2:
        raise ValueError("need at least 2 bins for covariance scores")
    stats = sample.statistics
    n = stats.n
    return stats.ytz / n - np.outer(stats.y_sum / n, stats.z_sum / n)


def select_candidates(score_row: np.ndarray, m: int) -> tuple[int, ...]:
    """Indices of the m largest scores; ties broken by smaller index first."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return tuple(_top_m(score_row, m).tolist())


def _top_m(scores: np.ndarray, m: int) -> np.ndarray:
    """Indices of each row's m largest scores, by score descending then index."""
    return np.argsort(-scores, axis=-1, kind="stable")[..., :m]


def _solve_gram(gram: np.ndarray, g: np.ndarray) -> list[Optional[np.ndarray]]:
    """Cholesky solves of gram[k] @ x = g[k] over a stack of k.

    Entry k is None when gram[k] fails the relative eigenvalue test
    (insufficient data or duplicated columns).
    """
    eps = GRAM_EPS_REL * np.trace(gram, axis1=-2, axis2=-1) / g.shape[-1]
    ok = ~(np.linalg.eigvalsh(gram)[:, 0] <= eps)
    solved: list[Optional[np.ndarray]] = [None] * len(g)
    if ok.any():
        L = np.linalg.cholesky(gram[ok])
        half = np.linalg.solve(L, g[ok, :, None])
        x = np.linalg.solve(L.swapaxes(-1, -2), half)[..., 0]
        for k, row in zip(np.flatnonzero(ok).tolist(), x):
            solved[k] = row
    return solved


def local_least_squares(
    sample: BinnedSample, i: int, C: Sequence[int]
) -> Optional[np.ndarray]:
    """Centered least squares of Y_i on the Z columns in C.

    Returns the coefficient vector ordered like C, or None when the Gram
    matrix fails the relative eigenvalue test (insufficient data or
    duplicated columns).
    """
    C = list(C)
    n = sample.n
    if n < len(C) + 1:
        raise ValueError(f"need n >= |C|+1 bins, got n={n}, |C|={len(C)}")
    Zc = sample.Z[:, C] - sample.Z[:, C].mean(axis=0)
    y = sample.Y[:, i].astype(float)
    y -= y.mean()
    return _solve_gram(((Zc.T @ Zc) / n)[None], ((Zc.T @ y) / n)[None])[0]


def threshold_support(
    coeffs: np.ndarray, C: Sequence[int], tau: float
) -> frozenset[int]:
    """One-sided threshold: keep j in C with coefficient >= tau."""
    return frozenset(int(j) for j, y in zip(C, coeffs) if y >= tau)


def recover(sample: BinnedSample, config: EstimatorConfig) -> RecoveredNetwork:
    """Run screening, candidate selection, local least squares, thresholding.

    Rows are solved independently, their m x m Gram blocks stacked in groups
    of max(1, _GROUP_ENTRIES // m^2) rows; a degenerate Gram yields an empty
    support plus a flag rather than aborting.
    """
    F = screening_scores(sample)
    m = min(config.m, sample.d)
    if sample.n < m + 1:
        raise ValueError(f"need n >= |C|+1 bins, got n={sample.n}, |C|={m}")
    stats = sample.statistics
    z_mean = stats.z_sum / stats.n
    cov = stats.ztz / stats.n - np.outer(z_mean, z_mean)  # Cov_n(Z)
    candidates = _top_m(F, m)
    group = max(1, _GROUP_ENTRIES // (m * m))
    coeffs: list[Optional[np.ndarray]] = []
    for lo in range(0, sample.d, group):
        idx = candidates[lo:lo + group]
        coeffs += _solve_gram(
            cov[idx[:, :, None], idx[:, None, :]],
            np.take_along_axis(F[lo:lo + group], idx, axis=1),
        )
    rows = []
    for i, (C, x) in enumerate(zip(map(tuple, candidates.tolist()), coeffs)):
        rows.append(
            RowRecovery(
                i=i, candidates=C, coeffs=x,
                support=frozenset() if x is None else threshold_support(x, C, config.tau),
                degenerate=x is None,
            )
        )
    return RecoveredNetwork(d=sample.d, rows=tuple(rows))


def evaluate(recovered: RecoveredNetwork, truth: TrueSupport) -> RecoveryMetrics:
    """Compare estimated supports to the truth, edge by edge."""
    if recovered.d != truth.d:
        raise ValueError(f"dimension mismatch: {recovered.d} vs {truth.d}")
    tp = fp = fn = 0
    row_correct = []
    for row in recovered.rows:
        true_set = truth.rows[row.i]
        tp += len(row.support & true_set)
        fp += len(row.support - true_set)
        fn += len(true_set - row.support)
        row_correct.append(row.support == true_set)
    return RecoveryMetrics(
        exact=all(row_correct),
        row_correct=tuple(row_correct),
        true_positives=tp,
        false_positives=fp,
        false_negatives=fn,
        hamming=fp + fn,
    )


def network_to_json(net: RecoveredNetwork) -> str:
    doc = {
        "d": net.d,
        "rows": [
            {
                "i": row.i,
                "candidates": list(row.candidates),
                "coeffs": [] if row.coeffs is None else row.coeffs.tolist(),
                "support": sorted(row.support),
                "degenerate": row.degenerate,
            }
            for row in net.rows
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
