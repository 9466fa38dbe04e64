"""Event-stream simulation and clipped/binned grid extraction.

Two independent exact mechanisms generate stationary event streams:

* ``simulate_thinning`` — Ogata-style rejection against the aggregated
  intensity bound, using the Markov state of the exponential kernel.
* ``simulate_cluster`` — branching construction: Poisson roots per node,
  each event spawning children on an exponentially decaying profile.

``bin_and_clip`` converts an event log into the grid data consumed by
the estimator: sampled states clipped at level R and binary bin
indicators at resolution h.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from typing import NoReturn

import numpy as np
from scipy.signal import lfilter

from .model import HawkesParams

__all__ = [
    "EventLog",
    "BinnedSample",
    "SimulationCapError",
    "default_burn_in",
    "simulate_thinning",
    "simulate_cluster",
    "state_at",
    "bin_and_clip",
    "write_events_csv",
    "read_events_csv",
]

DEFAULT_MAX_EVENTS = 10**8
# Pre-window extension for the cluster construction: roots older than this
# contribute at most e^{-40} of an in-window cluster.
TAU_EXTEND_OVER_BETA = 40.0
# One `node,time` row of an event CSV.
_EVENT_ROW = np.dtype([("node", np.int64), ("time", np.float64)])


class SimulationCapError(RuntimeError):
    """Raised when a simulation exceeds its event-count safety cap."""


@dataclass(frozen=True)
class EventLog:
    """Per-node ascending event times over [t_start, t_end].

    The observation window is [0, t_end]; times in [t_start, 0] are
    burn-in and only feed the state reconstruction.
    """

    d: int
    events: tuple[np.ndarray, ...]
    t_start: float
    t_end: float
    seed: int
    method: str

    def __post_init__(self):
        if len(self.events) != self.d:
            raise ValueError("events list length does not match d")
        if not (self.t_start <= 0.0 < self.t_end):
            raise ValueError("need t_start <= 0 < t_end")
        for ts in self.events:
            ts.setflags(write=False)

    def total_events(self) -> int:
        return sum(len(ts) for ts in self.events)

    def observed_counts(self) -> np.ndarray:
        """Events per node inside the observation window (0, t_end]."""
        return np.array(
            [int(np.sum((ts > 0.0) & (ts <= self.t_end))) for ts in self.events]
        )


@dataclass(frozen=True)
class BinnedSample:
    """Clipped grid states Z and bin indicators Y on an (h, R, n) grid.

    Z[r, j] = min(X_j(r*h), R) using all events up to and including r*h;
    Y[r, i] = 1 iff node i has at least one event in (r*h, (r+1)*h].
    """

    n: int
    h: float
    R: float
    Z: np.ndarray  # shape (n, d), float
    Y: np.ndarray  # shape (n, d), uint8

    def __post_init__(self):
        self.Z.setflags(write=False)
        self.Y.setflags(write=False)

    @property
    def d(self) -> int:
        return self.Z.shape[1]


def default_burn_in(params: HawkesParams) -> float:
    """Burn-in long enough to make residual nonstationarity negligible."""
    beta, gamma = params.beta, params.gamma
    return max(20.0 / beta, 20.0 / (beta * (1.0 - gamma)))


def simulate_thinning(
    params: HawkesParams,
    T: float,
    burn_in: float | None = None,
    seed: int = 0,
    max_events: int = DEFAULT_MAX_EVENTS,
    check_bound: bool = False,
) -> EventLog:
    """Exact simulation by thinning against the aggregated intensity bound.

    The total intensity Lambda(t) = sum_i mu_i + S(t), with excess
    S(t) = sum_j (sum_i theta_ij) X_j(t), is non-increasing between
    events, so one exponential proposal clock against its current value
    is valid. Every node shares beta, so S decays as one scalar and a
    proposal costs O(1); only an accepted event decays the per-node
    excess v = theta @ X, picks its node and adds its column of theta.

    With ``check_bound`` every proposal also recomputes the total
    intensity densely and raises AssertionError if it exceeds the bound
    or departs from mu_total + S.
    """
    if burn_in is None:
        burn_in = default_burn_in(params)
    if not (0 <= burn_in < math.inf and 0 < T < math.inf):
        raise ValueError(f"need finite burn_in >= 0 and T > 0, got burn_in={burn_in}, T={T}")
    rng = np.random.default_rng(seed)
    beta = params.beta
    mu = params.mu
    # Row j is theta's column j: what an event on node j adds to v.
    theta_cols = np.ascontiguousarray(params.theta.to_dense().T)
    col_sums = params.theta.column_sums().tolist()
    mu_total = float(np.sum(mu))

    t = -float(burn_in)
    v = np.zeros(params.d)  # theta @ X at the last accepted event
    decay = 1.0  # X's decay since the last accepted event
    S = 0.0  # sum(theta @ X) now
    times: list[float] = []
    nodes: list[int] = []
    while True:
        bound = mu_total + S
        w = rng.exponential(1.0 / bound)
        t += w
        if t > T:
            break
        f = math.exp(-beta * w)
        S *= f
        decay *= f
        if check_bound:
            dense = float(np.sum(mu + v * decay))
            if dense > bound * (1.0 + 1e-9) or abs(dense - (mu_total + S)) > 1e-9 * bound:
                raise AssertionError(
                    f"thinning bound violated at t={t}: dense intensity {dense}, "
                    f"bound {bound}, scalar intensity {mu_total + S}"
                )
        if rng.random() * bound <= mu_total + S:
            v *= decay
            decay = 1.0
            # Array methods: np.cumsum and np.searchsorted add a dispatch per call.
            cum = (mu + v).cumsum()
            node = int(cum.searchsorted(rng.random() * cum[-1]))
            v += theta_cols[node]
            S += col_sums[node]
            times.append(t)
            nodes.append(node)
            if len(times) > max_events:
                raise SimulationCapError(
                    f"thinning exceeded {max_events} events (gamma={params.gamma})"
                )

    return _log_from_flat(params.d, times, nodes, -float(burn_in), float(T), seed, "thinning")


def simulate_cluster(
    params: HawkesParams,
    T: float,
    burn_in: float | None = None,
    seed: int = 0,
    max_events: int = DEFAULT_MAX_EVENTS,
) -> EventLog:
    """Branching-cascade simulation via the cluster representation.

    Roots arrive per node as Poisson(mu_v) on an extended window; each
    type-j event spawns type-i children through a Poisson process with
    intensity theta_ij * exp(-beta t), i.e. Poisson(theta_ij / beta)
    children at Exp(beta) forward offsets.  Generations expand
    breadth-first until exhausted; events outside the kept window are
    discarded at the end.
    """
    if burn_in is None:
        burn_in = default_burn_in(params)
    if not (0 <= burn_in < math.inf and 0 < T < math.inf):
        raise ValueError(f"need finite burn_in >= 0 and T > 0, got burn_in={burn_in}, T={T}")
    rng = np.random.default_rng(seed)
    beta = params.beta
    t_keep_lo = -float(burn_in)
    t_lo = t_keep_lo - TAU_EXTEND_OVER_BETA / beta
    span = float(T) - t_lo

    # Child edges grouped by source type j: (child type i, mean count K_ij).
    children_of: list[list[tuple[int, float]]] = [[] for _ in range(params.d)]
    for i, row in enumerate(params.theta.rows):
        for j, w in row:
            children_of[j].append((i, w / beta))

    all_times: list[np.ndarray] = []
    all_types: list[np.ndarray] = []
    total = 0

    # roots
    cur_times_parts = []
    cur_types_parts = []
    for v in range(params.d):
        n_roots = rng.poisson(params.mu[v] * span)
        ts = np.sort(t_lo + span * rng.uniform(size=n_roots))
        cur_times_parts.append(ts)
        cur_types_parts.append(np.full(n_roots, v, dtype=np.int64))
    cur_times = np.concatenate(cur_times_parts)
    cur_types = np.concatenate(cur_types_parts)

    while cur_times.size:
        total += cur_times.size
        if total > max_events:
            raise SimulationCapError(
                f"cluster simulation exceeded {max_events} events (gamma={params.gamma})"
            )
        all_times.append(cur_times)
        all_types.append(cur_types)
        next_times_parts = []
        next_types_parts = []
        for j in range(params.d):
            if not children_of[j]:
                continue
            parent_ts = cur_times[cur_types == j]
            if parent_ts.size == 0:
                continue
            for i, mean_count in children_of[j]:
                counts = rng.poisson(mean_count, size=parent_ts.size)
                n_children = int(counts.sum())
                if n_children == 0:
                    continue
                born = np.repeat(parent_ts, counts) + rng.exponential(
                    1.0 / beta, size=n_children
                )
                born = born[born <= T]
                if born.size:
                    next_times_parts.append(born)
                    next_types_parts.append(np.full(born.size, i, dtype=np.int64))
        if next_times_parts:
            cur_times = np.concatenate(next_times_parts)
            cur_types = np.concatenate(next_types_parts)
        else:
            break

    times = np.concatenate(all_times) if all_times else np.empty(0)
    types = np.concatenate(all_types) if all_types else np.empty(0, dtype=np.int64)
    keep = times >= t_keep_lo
    times, types = times[keep], types[keep]
    per_node = tuple(np.sort(times[types == v]) for v in range(params.d))
    return EventLog(
        d=params.d,
        events=per_node,
        t_start=t_keep_lo,
        t_end=float(T),
        seed=seed,
        method="cluster",
    )


def _log_from_flat(d, times, nodes, t_start, t_end, seed, method) -> EventLog:
    """Group time-ordered (time, node) pairs by node in one stable sort."""
    times_arr = np.asarray(times, dtype=np.float64)
    nodes_arr = np.asarray(nodes, dtype=np.int64)
    order = np.argsort(nodes_arr, kind="stable")
    ends = np.cumsum(np.bincount(nodes_arr, minlength=d))
    per_node = tuple(np.split(times_arr[order], ends[:-1]))
    return EventLog(
        d=d, events=per_node, t_start=t_start, t_end=t_end, seed=seed, method=method
    )


def state_at(log: EventLog, beta: float, node: int, t: float) -> float:
    """Shot-noise state X_node(t) = sum over events s <= t of exp(-beta(t-s)).

    Right-continuous: an event at exactly t is included.  The decay rate
    is not part of the log (it belongs to the model), so it is passed in.
    """
    if not (log.t_start <= t <= log.t_end):
        raise ValueError(f"t={t} outside log window [{log.t_start}, {log.t_end}]")
    ts = log.events[node]
    past = ts[ts <= t]
    if past.size == 0:
        return 0.0
    return float(np.sum(np.exp(-beta * (t - past))))


def bin_and_clip(log: EventLog, beta: float, h: float, R: float) -> BinnedSample:
    """Convert an event log into the (h, R) grid sample.

    n = floor(T / h) grid points r*h for r = 0..n-1.  States include all
    burn-in events; an event exactly at a grid point r*h belongs to the
    state at r*h and to indicator bin r-1 (intervals are (r*h, (r+1)*h]).
    Grid points are the floats r*h that `state_at` is given, so an event
    is compared with them, not placed by the rounded quotient ts/h.
    """
    if not (0 < beta < math.inf and 0 < h < math.inf and 0 < R < math.inf):
        raise ValueError(f"need finite beta > 0, h > 0 and R > 0, got beta={beta}, h={h}, R={R}")
    T = log.t_end
    n = int(math.floor(T / h))
    if n == 0:
        raise ValueError(f"T={T} shorter than one bin h={h}")
    decay = math.exp(-beta * h)
    # Column-major, so each node's column is one contiguous write.
    Z = np.empty((n, log.d), order="F")
    Y = np.zeros((n, log.d), dtype=np.uint8, order="F")
    for v in range(log.d):
        ts = log.events[v]
        # first grid index at/after each event; event ts lies in bin grid-1
        grid = np.ceil(ts / h).astype(np.int64)
        # ts/h and r*h round apart within an ulp of a grid point.
        grid -= (grid - 1) * h >= ts
        grid += grid * h < ts
        first_grid = np.maximum(grid, 0)  # burn-in events pulse at r=0
        in_grid = first_grid <= n - 1
        weights = np.exp(-beta * (first_grid[in_grid] * h - ts[in_grid]))
        pulses = np.bincount(first_grid[in_grid], weights=weights, minlength=n)
        # X(rh) = exp(-beta h) X((r-1)h) + pulses[r]
        x_grid = lfilter([1.0], [1.0, -decay], pulses)
        np.minimum(x_grid, R, out=Z[:, v])
        Y[grid[(ts > 0.0) & (grid <= n)] - 1, v] = 1
    return BinnedSample(n=n, h=float(h), R=float(R), Z=Z, Y=Y)


def write_events_csv(log: EventLog, path: str, meta_path: str) -> None:
    """Write `node,time` rows sorted by time, ties by node, plus the metadata side-car.

    Times carry 17 significant digits, so reading the file back gives
    every time bit for bit. Rows end in CRLF, as `csv.writer` ends them.
    """
    times = np.concatenate(log.events)
    nodes = np.repeat(np.arange(log.d), [ts.size for ts in log.events])
    order = np.lexsort((nodes, times))
    rows = map("%d,%.17g".__mod__, zip(nodes[order].tolist(), times[order].tolist()))
    with open(path, "w", newline="") as f:
        f.write("\r\n".join(["node,time", *rows, ""]))
    meta = {
        "d": log.d,
        "t_start": log.t_start,
        "t_end": log.t_end,
        "seed": log.seed,
        "method": log.method,
    }
    with open(meta_path, "w") as f:
        json.dump(meta, f, sort_keys=True, separators=(",", ":"))
        f.write("\n")


def read_events_csv(path: str, meta_path: str) -> EventLog:
    """Read a `node,time` CSV and its side-car; malformed input is a ValueError.

    Every row needs a node that is an integer in [0, d) and a time in
    [t_start, t_end]; the error names the file and line of the first row
    that has not. One `np.loadtxt` call parses the rows; a file it rejects
    is walked row by row only to find the line to name.
    """
    d, window = _read_meta(meta_path)
    # Bytes throughout: a str body would take 4 bytes a character.
    with open(path, "rb") as f:
        # A lone CR ends the header too, as it ends a line for csv.
        line, _, rest = f.readline().partition(b"\r")
        header = next(csv.reader([line.decode("utf-8", "replace")]), None) if line else None
        if header != ["node", "time"]:
            raise ValueError(f"unexpected event CSV header: {header}")
        body = f.read()
    if rest not in (b"", b"\n"):
        # Lone CRs end the lines; loadtxt splits lines at LF only.
        body = (rest + body).replace(b"\r", b"\n")
    rows = _parse_rows(body, d, window["t_start"], window["t_end"])
    if rows is None:
        _raise_at_bad_row(path, body, d, window["t_start"], window["t_end"])
    nodes, times = rows
    order = np.lexsort((times, nodes))
    ends = np.cumsum(np.bincount(nodes, minlength=d))
    return EventLog(d=d, events=tuple(np.split(times[order], ends[:-1])), **window)


def _read_meta(meta_path: str) -> tuple[int, dict]:
    with open(meta_path) as f:
        meta = json.load(f)
    try:
        d, t_start, t_end = meta["d"], meta["t_start"], meta["t_end"]
        seed, method = meta["seed"], meta["method"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{meta_path}: malformed metadata ({exc!r})") from exc
    if not isinstance(d, int) or isinstance(d, bool) or d < 1:
        raise ValueError(f"{meta_path}: d={d!r} is not a positive integer")
    if not (_is_finite_number(t_start) and _is_finite_number(t_end) and t_start <= 0 < t_end):
        raise ValueError(
            f"{meta_path}: need finite numbers t_start <= 0 < t_end, "
            f"got t_start={t_start!r}, t_end={t_end!r}"
        )
    return d, dict(t_start=float(t_start), t_end=float(t_end), seed=seed, method=method)


def _is_finite_number(x) -> bool:
    """A JSON number, not a bool, that a float holds finitely (false for NaN)."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _parse_rows(body: bytes, d: int, t_start: float, t_end: float):
    """(nodes, times) of every row at once, or None if any row is not well formed."""
    if not body:
        return np.empty(0, np.int64), np.empty(0)
    if body.isspace() or not body.isascii():
        # loadtxt warns on an input with no rows, and decoded as latin1 a lone
        # byte such as 0xa0 would pass as whitespace.
        return None
    try:
        rows = np.loadtxt(
            io.BytesIO(body), delimiter=",", quotechar='"', dtype=_EVENT_ROW,
            comments=None, ndmin=1, encoding="latin1",
        )
    except ValueError:
        return None
    nodes, times = rows["node"], rows["time"]
    # loadtxt skips empty lines, which are malformed rows here.
    lines = body.count(b"\n") + (not body.endswith(b"\n"))
    if (rows.size != lines or nodes.min() < 0 or nodes.max() >= d
            or not np.all((times >= t_start) & (times <= t_end))):
        return None
    return nodes, times


def _raise_at_bad_row(path: str, body: bytes, d: int, t_start: float, t_end: float) -> NoReturn:
    """Raise a ValueError naming the first bad line of `path`, read lazily row by row."""
    # Undecodable bytes become U+FFFD, which no node or time parses.
    with io.TextIOWrapper(io.BytesIO(body), encoding="utf-8", errors="replace", newline="") as text:
        for line, row in enumerate(csv.reader(text), start=2):
            try:
                node, t = row
                if not (0 <= int(node) < d and t_start <= float(t) <= t_end):
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"{path}:{line}: expected `node,time` with node an integer in "
                    f"[0, {d}) and time a number in [{t_start!r}, {t_end!r}], "
                    f"got {','.join(row)!r}"
                ) from None
    raise ValueError(f"{path}: malformed node,time rows")
