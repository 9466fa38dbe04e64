"""Hawkes model instances over sparse directed interaction networks.

A model is a vector of background rates ``mu``, a sparse nonnegative
interaction matrix ``Theta`` (row i lists the parents of node i), and a
common exponential decay rate ``beta``.  Instances carry the class
bounds (k, alpha, w_minus, w_plus) so that membership in the sparse
weak-interaction class can be checked after the fact.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import dataclass, replace
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "SparseInteractionMatrix",
    "HawkesParams",
    "TrueSupport",
    "Violation",
    "validate",
    "sample_random_instance",
    "build_subclass_instance",
    "support_of",
    "permute_params",
    "params_to_json",
    "params_from_json",
]


@dataclass(frozen=True)
class SparseInteractionMatrix:
    """Row-sparse nonnegative matrix; row i holds (source j, weight) pairs.

    Rows are stored sorted by source index with unique indices, so
    iteration order is deterministic.
    """

    d: int
    rows: tuple[tuple[tuple[int, float], ...], ...]

    def __post_init__(self):
        if len(self.rows) != self.d:
            raise ValueError(f"expected {self.d} rows, got {len(self.rows)}")
        for i, row in enumerate(self.rows):
            cols = [j for j, _ in row]
            if cols != sorted(set(cols)):
                raise ValueError(f"row {i}: source indices not sorted/unique")
            for j, w in row:
                if not 0 <= j < self.d:
                    raise ValueError(f"row {i}: source index {j} out of range")
                if w <= 0.0:
                    raise ValueError(f"row {i}: weight at {j} must be > 0")

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.d, self.d))
        for i, row in enumerate(self.rows):
            for j, w in row:
                out[i, j] = w
        return out

    def column_sums(self) -> np.ndarray:
        """Per-source totals sum_i theta_ij, used by the thinning bound."""
        out = np.zeros(self.d)
        for row in self.rows:
            for j, w in row:
                out[j] += w
        return out

    @staticmethod
    def from_entries(d: int, entries: Iterable[tuple[int, int, float]]) -> "SparseInteractionMatrix":
        """Build from (target i, source j, weight) triples."""
        rows: list[list[tuple[int, float]]] = [[] for _ in range(d)]
        for i, j, w in entries:
            if not 0 <= i < d:
                raise ValueError(f"target index {i} out of range")
            rows[i].append((j, float(w)))
        return SparseInteractionMatrix(
            d=d, rows=tuple(tuple(sorted(row)) for row in rows)
        )


@dataclass(frozen=True)
class HawkesParams:
    """A Hawkes instance together with its class bounds.

    ``mu_minus``/``mu_plus`` are optional background-rate bounds; when
    absent the rate-bound check is skipped (only a positive, finite rate
    is enforced).
    """

    mu: np.ndarray
    theta: SparseInteractionMatrix
    beta: float
    k: int
    alpha: float
    w_minus: float
    w_plus: float
    mu_minus: Optional[float] = None
    mu_plus: Optional[float] = None

    def __post_init__(self):
        object.__setattr__(self, "mu", np.asarray(self.mu, dtype=float))
        self.mu.setflags(write=False)
        if self.mu.shape != (self.theta.d,):
            raise ValueError("mu length does not match node count")

    @property
    def d(self) -> int:
        return self.theta.d

    @property
    def theta_minus(self) -> float:
        return self.alpha * self.w_minus

    @property
    def theta_plus(self) -> float:
        return self.alpha * self.w_plus

    @property
    def gamma(self) -> float:
        """Subcriticality ratio k * theta_plus / beta."""
        return self.k * self.theta_plus / self.beta


@dataclass(frozen=True)
class TrueSupport:
    """Per-row parent sets S_i = {j : theta_ij > 0}."""

    d: int
    rows: tuple[frozenset[int], ...]

    def __post_init__(self):
        if len(self.rows) != self.d:
            raise ValueError("support row count does not match d")


@dataclass(frozen=True)
class Violation:
    code: str  # one of: rate-bound, weight-bound, row-sparsity, subcritical
    where: Optional[int]
    detail: str


def number(name: str, value, *, integer: bool = False, positive: bool = False,
           finite: bool = False):
    """Return value if it is a number a float can hold; else raise a ValueError naming it.

    A bool is not a number. ``integer`` asks for an int, ``finite`` for a
    finite value and ``positive`` for a positive finite one.
    """
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"{name} is too large for a float")
    if positive and not 0 < value < math.inf:  # false for NaN
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    if finite and not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


# Most nodes an input may name where hawkesnet builds dense d×d arrays: an
# event log's side-car, a sweep spec's d_values and a model given to the
# moment oracles. At this d, the two grid statistics of a recovery take
# 16(d+1)² bytes (0.27 GB), and the covariance solve 5·8·d² (0.67 GB), which
# also sets the peak of `hawkesnet oracle`: it prints Σ and G as JSON one
# row at a time, about 5.1·8·d² in all (0.7 GB).
MAX_DENSE_D = 2**12


def require_dense_d(d: int, where: str = "") -> None:
    """Raise ValueError if d is above MAX_DENSE_D, before anything of size d is built."""
    if d > MAX_DENSE_D:
        raise ValueError(f"{where}d={d} is above MAX_DENSE_D = {MAX_DENSE_D}, "
                         f"the most nodes of a dense d×d computation")


def require_subcritical(k, theta_plus, beta) -> None:
    """Raise ValueError unless beta is positive and finite and gamma = k*theta_plus/beta < 1."""
    if not 0 < beta < math.inf:
        raise ValueError(f"subcriticality needs a positive finite beta, got beta={beta!r}")
    gamma = k * theta_plus / beta
    if not gamma < 1.0:
        raise ValueError(f"subcriticality violated: need gamma < 1, got gamma={gamma}")


def validate(params: HawkesParams) -> list[Violation]:
    """Check class membership; returns every violated invariant (never raises)."""
    out: list[Violation] = []
    lo = params.mu_minus
    hi = params.mu_plus
    for i, mu_i in enumerate(params.mu):
        if not 0 < mu_i < np.inf:  # false for NaN
            out.append(Violation("rate-bound", i, f"mu[{i}]={mu_i} not positive and finite"))
        elif lo is not None and mu_i < lo:
            out.append(Violation("rate-bound", i, f"mu[{i}]={mu_i} < mu_minus={lo}"))
        elif hi is not None and mu_i > hi:
            out.append(Violation("rate-bound", i, f"mu[{i}]={mu_i} > mu_plus={hi}"))
    t_lo, t_hi = params.theta_minus, params.theta_plus
    for i, row in enumerate(params.theta.rows):
        if len(row) > params.k:
            out.append(
                Violation("row-sparsity", i, f"row {i} has {len(row)} entries > k={params.k}")
            )
        for j, w in row:
            if not (t_lo <= w <= t_hi):
                out.append(
                    Violation(
                        "weight-bound", i,
                        f"theta[{i},{j}]={w} outside [{t_lo}, {t_hi}]",
                    )
                )
    try:
        require_subcritical(params.k, params.theta_plus, params.beta)
    except ValueError as exc:
        out.append(Violation("subcritical", None, str(exc)))
    return out


def sample_random_instance(
    d: int,
    k: int,
    alpha: float,
    w_minus: float,
    w_plus: float,
    mu_minus: float,
    mu_plus: float,
    beta: float,
    seed: int,
) -> HawkesParams:
    """Draw a uniform instance of the class with exactly k parents per row.

    Parents are drawn without replacement from all of [0, d) (self-loops
    allowed), weights uniform on [w_minus, w_plus] scaled by alpha, and
    background rates uniform on [mu_minus, mu_plus].  Deterministic in
    ``seed``.
    """
    require_subcritical(k, alpha * w_plus, beta)
    if k > d:
        raise ValueError(f"k={k} exceeds d={d}")
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(d):
        parents = np.sort(rng.choice(d, size=k, replace=False))
        weights = alpha * rng.uniform(w_minus, w_plus, size=k)
        rows.append(tuple(zip(parents.tolist(), weights.tolist())))
    mu = rng.uniform(mu_minus, mu_plus, size=d)
    return HawkesParams(
        mu=mu,
        theta=SparseInteractionMatrix(d=d, rows=tuple(rows)),
        beta=beta,
        k=k,
        alpha=alpha,
        w_minus=w_minus,
        w_plus=w_plus,
        mu_minus=mu_minus,
        mu_plus=mu_plus,
    )


def build_subclass_instance(
    d: int,
    k: int,
    i_star: int,
    S: Iterable[int],
    theta_minus: float,
    mu_bar: float,
    mu_bar_star: float,
    beta: float,
) -> HawkesParams:
    """Build a lower-bound instance: only row i_star is nonzero.

    Row i_star carries weight ``theta_minus`` exactly on S; every other
    row is empty.  Background rates are mu_bar_star at i_star and mu_bar
    elsewhere.
    """
    S = sorted(set(S))
    if i_star in S:
        raise ValueError(f"support must exclude the target node {i_star}")
    if len(S) != k:
        raise ValueError(f"support size {len(S)} != k={k}")
    if any(j < 0 or j >= d for j in S):
        raise ValueError("support index out of range")
    require_subcritical(k, theta_minus, beta)
    rows: list[tuple[tuple[int, float], ...]] = [() for _ in range(d)]
    rows[i_star] = tuple((j, theta_minus) for j in S)
    mu = np.full(d, mu_bar)
    mu[i_star] = mu_bar_star
    return HawkesParams(
        mu=mu,
        theta=SparseInteractionMatrix(d=d, rows=tuple(rows)),
        beta=beta,
        k=k,
        alpha=theta_minus,
        w_minus=1.0,
        w_plus=1.0,
        mu_minus=min(mu_bar, mu_bar_star),
        mu_plus=max(mu_bar, mu_bar_star),
    )


def support_of(params: HawkesParams) -> TrueSupport:
    return TrueSupport(
        d=params.d, rows=tuple(frozenset(j for j, _ in row) for row in params.theta.rows)
    )


def permute_params(params: HawkesParams, pi: Sequence[int]) -> HawkesParams:
    """Relabel nodes by the permutation pi (node i becomes pi[i])."""
    try:
        pi = [operator.index(p) for p in pi]  # numpy integers become ints
    except TypeError as exc:
        raise ValueError(f"pi must hold integers: {exc}") from None
    if sorted(pi) != list(range(params.d)):
        raise ValueError("pi is not a permutation of [0, d)")
    mu = np.empty_like(params.mu)
    mu[pi] = params.mu
    entries = [(pi[i], pi[j], w) for i, row in enumerate(params.theta.rows) for j, w in row]
    return replace(params, mu=mu, theta=SparseInteractionMatrix.from_entries(params.d, entries))


def params_to_json(params: HawkesParams) -> str:
    """Canonical JSON serialization; edges sorted by (i, j)."""
    edges = [
        {"i": i, "j": j, "w": w}
        for i, row in enumerate(params.theta.rows)
        for j, w in row
    ]
    doc = {
        "d": params.d,
        "beta": params.beta,
        "mu": params.mu.tolist(),
        "edges": edges,
        "k": params.k,
        "alpha": params.alpha,
        "w_minus": params.w_minus,
        "w_plus": params.w_plus,
    }
    for key in ("mu_minus", "mu_plus"):
        if getattr(params, key) is not None:
            doc[key] = getattr(params, key)
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def params_from_json(text: str) -> HawkesParams:
    """Parse a model document; a missing or mistyped field is a ValueError naming it."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    try:
        edges, mu = doc["edges"], doc["mu"]
        if not (isinstance(edges, list) and all(isinstance(e, dict) for e in edges)):
            raise ValueError("model field edges must be a list of objects")
        if not isinstance(mu, list):
            raise ValueError("model field mu must be a list of numbers")
        # Checked before anything of size d is built.
        d = number("model field d", doc["d"], integer=True)
        if not 1 <= d == len(mu):
            raise ValueError(f"model field d={d} must be >= 1 and match mu's {len(mu)} rates")
        theta = SparseInteractionMatrix.from_entries(
            d,
            [(number("model field edges.i", e["i"], integer=True),
              number("model field edges.j", e["j"], integer=True),
              number("model field edges.w", e["w"])) for e in edges],
        )
        return HawkesParams(
            # NaN and infinite rates pass here, for `validate` to report.
            mu=np.asarray([number("model field mu", x) for x in mu], dtype=float),
            theta=theta,
            beta=number("model field beta", doc["beta"]),
            k=number("model field k", doc["k"], integer=True),
            alpha=number("model field alpha", doc["alpha"]),
            w_minus=number("model field w_minus", doc["w_minus"]),
            w_plus=number("model field w_plus", doc["w_plus"]),
            **{name: None if doc.get(name) is None else number(f"model field {name}", doc[name])
               for name in ("mu_minus", "mu_plus")},
        )
    except KeyError as exc:
        raise ValueError(f"model document missing field {exc}") from exc
