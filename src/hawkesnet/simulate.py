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
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .model import HawkesParams, number, require_dense_d

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

# Grid points per chunk of binning: a sample binned from a log holds one
# chunk of states and indicators at a time, never the whole n x d grid.
CHUNK_BINS = 4096
# Below this d a chunk holds Y as floats beside Z, and one product gives both
# grid statistics. Per 4096-row chunk on one BLAS thread of a shared 2-vCPU
# host, that product took 6% to 60% less time than Yᵀ[1 | Z] and
# [1 | Z]ᵀ[1 | Z] apart at d = 5 to 40, and 3% to 11% more at d = 80 to 320.
# Neither layout serves every d: at every d, a float [1 | Z | Y] chunk raised
# perfbench's cli-recover-d320 peak RSS from 104.5 to 118.8 MB, and two products
# raised tstar-small's (d = 5 to 20) time per operation from 0.973 to 1.025 s.
_ONE_PRODUCT_BELOW_D = 64
# Event-count safety cap of both simulators; read at call time.
MAX_EVENTS = 10**8
# Most n·(d + 2) a grid of n points and d nodes may have. Binning keeps 16
# bytes a node and chunk of chunk bounds, so at most 256 MB here; a log the
# simulators can draw within MAX_EVENTS stays below it on criterion 7's class.
MAX_GRID_CELLS = 2**36
# Binning runs the state recurrence in blocks of this many grid rows (Blelloch
# 1990): a b x b product makes a block's states from its pulses and its
# incoming state, and the block ends are chained by b x b products too, in
# groups of b; a chunk's column has at most b^2 block ends to chain.
_BLOCK = 16
# Most bytes of states one such product makes before they are clipped back
# into the chunk: 256 KB, whatever d (a whole chunk's are 32 KB a node).
_PRODUCT_BYTES = 256 * 1024
# Thinning folds its decay factor g into its Fenwick tree once g falls below
# this, long before theta_ij / g could overflow.
_RESCALE_BELOW = 1e-150
# Pre-window extension for the cluster construction: roots older than this
# contribute at most e^{-40} of an in-window cluster.
TAU_EXTEND_OVER_BETA = 40.0
# Rows of an event CSV formatted per `%` call: the writer holds the text and
# Python objects of one block, not of the whole file.
CSV_BLOCK_ROWS = 4096
# One `node,time` row of an event CSV.
_EVENT_ROW = np.dtype([("node", np.int64), ("time", np.float64)])


class SimulationCapError(RuntimeError):
    """Raised when a simulation exceeds its event-count safety cap."""


@dataclass(frozen=True)
class EventLog:
    """Per-node ascending event times over [t_start, t_end].

    The observation window is [0, t_end]; times in [t_start, 0] are
    burn-in and only feed the state reconstruction. Times that do not
    ascend within [t_start, t_end] are a ValueError.
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
        for node, ts in enumerate(self.events):
            # A NaN fails an end check or the comparison of neighbours.
            if ts.size and not (self.t_start <= ts[0] and ts[-1] <= self.t_end
                                and np.all(ts[1:] >= ts[:-1])):
                raise ValueError(f"node {node}'s event times do not ascend within "
                                 f"[t_start, t_end] = [{self.t_start}, {self.t_end}]")
            ts.setflags(write=False)

    def total_events(self) -> int:
        return sum(len(ts) for ts in self.events)

    def observed_counts(self) -> np.ndarray:
        """Events per node inside the observation window (0, t_end]."""
        return np.array(
            [int(np.sum((ts > 0.0) & (ts <= self.t_end))) for ts in self.events]
        )


class BinnedSample:
    """Clipped grid states Z and bin indicators Y on an (h, R, n) grid.

    Z[r, j] = min(X_j(r*h), R) using all events up to and including r*h;
    Y[r, i] = 1 iff node i has at least one event in (r*h, (r+1)*h].

    The estimator reads only `statistics`, sums over the grid taken
    CHUNK_BINS rows at a time when the sample is made. A sample made from
    Z and Y sums slices of them. A sample that `bin_and_clip` made from a
    log holds the sums and the log, not Z and Y: reading Z or Y bins the
    log again and keeps the arrays, chunk after chunk.
    """

    def __init__(self, n: int, h: float, R: float, Z: np.ndarray, Y: np.ndarray):
        if Z.ndim != 2 or Z.shape[0] != n or Y.shape != Z.shape:
            raise ValueError(f"Z and Y must both be n×d with n={n}, got {Z.shape} and {Y.shape}")
        Z.setflags(write=False)
        Y.setflags(write=False)
        self.n, self.h, self.R, self.d = n, h, R, Z.shape[1]
        self._Z, self._Y = Z, Y
        self.statistics = GridStatistics.of(self.d, _sliced_chunks(Z, Y))

    @classmethod
    def _binned(cls, log: EventLog, beta: float, n: int, h: float, R: float) -> "BinnedSample":
        """The sample of a log on n grid points: its statistics now, Z and Y when read."""
        sample = cls.__new__(cls)
        sample.n, sample.h, sample.R, sample.d = n, h, R, log.d
        sample._Z = sample._Y = None
        sample._chunks = lambda: _binned_chunks(log, beta, h, R, n)
        sample.statistics = GridStatistics.of(log.d, sample._chunks())
        return sample

    @property
    def Z(self) -> np.ndarray:  # shape (n, d), float
        if self._Z is None:
            self._build_arrays()
        return self._Z

    @property
    def Y(self) -> np.ndarray:  # shape (n, d), uint8
        if self._Y is None:
            self._build_arrays()
        return self._Y

    def _build_arrays(self) -> None:
        Z = np.empty((self.n, self.d), order="F")
        Y = np.empty((self.n, self.d), dtype=np.uint8, order="F")
        s = 0
        for A, Yc in self._chunks():
            Z[s:s + len(Yc)] = A[:, 1:self.d + 1]
            Y[s:s + len(Yc)] = Yc
            s += len(Yc)
        Z.setflags(write=False)
        Y.setflags(write=False)
        self._Z, self._Y = Z, Y


def _sliced_chunks(Z: np.ndarray, Y: np.ndarray):
    """Chunks (A, Y) of a sample's arrays, CHUNK_BINS rows at a time; see GridStatistics."""
    d = Z.shape[1]
    for s in range(0, len(Z), CHUNK_BINS):
        rows, Yc = Z[s:s + CHUNK_BINS], Y[s:s + CHUNK_BINS]
        if d < _ONE_PRODUCT_BELOW_D:
            A = np.column_stack([np.ones(len(rows)), rows, Yc])
            yield A, A[:, d + 1:]
        else:
            yield np.column_stack([np.ones(len(rows)), rows]), Yc


class GridStatistics:
    """The sums the estimator reads: n, the column sums of Z and Y, YᵀZ and ZᵀZ.

    Sums of chunks add up to the sums of the whole grid, so chunks are
    folded in one at a time (Chan, Golub & LeVeque 1983). A chunk comes as
    A, whose first d + 1 columns are Z1 = [1 | Z], and Y, so the products
    Yᵀ Z1 and Z1ᵀ Z1 carry the column sums too. Below d =
    _ONE_PRODUCT_BELOW_D (64), A is [1 | Z | Y] with Y in floats, and one
    product Z1ᵀ A gives both; from there on, A is Z1, Y is uint8, and the
    two are taken apart.
    """

    def __init__(self, d: int):
        self.n = 0
        self._yz1 = np.zeros((d, d + 1))       # [ΣY | YᵀZ]
        self._z1z1 = np.zeros((d + 1, d + 1))  # [[n, ΣZᵀ], [ΣZ, ZᵀZ]]
        self.y_sum, self.ytz = self._yz1[:, 0], self._yz1[:, 1:]
        self.z_sum, self.ztz = self._z1z1[1:, 0], self._z1z1[1:, 1:]

    @classmethod
    def of(cls, d: int, chunks) -> "GridStatistics":
        stats = cls(d)
        one_product = d < _ONE_PRODUCT_BELOW_D
        for A, Y in chunks:
            stats.n += len(Y)
            if one_product:
                both = A[:, :d + 1].T @ A  # [Z1ᵀZ1 | Z1ᵀY]
                stats._z1z1 += both[:, :d + 1]
                stats._yz1 += both[:, d + 1:].T
            else:
                stats._yz1 += Y.T.astype(float) @ A  # only these rows of Y in float
                stats._z1z1 += A.T @ A
        return stats


def default_burn_in(params: HawkesParams) -> float:
    """Burn-in long enough to make residual nonstationarity negligible."""
    beta, gamma = params.beta, params.gamma
    return max(20.0 / beta, 20.0 / (beta * (1.0 - gamma)))


def _window(params: HawkesParams, T, burn_in) -> tuple[float, float]:
    """The kept window [-burn_in, T] of a simulation; burn_in None is the default.

    Refused before any draw if its background events alone, Poisson with mean
    sum(mu)·(T + burn_in), average above 2·MAX_EVENTS: the cap would end the run.
    """
    if burn_in is None:
        burn_in = default_burn_in(params)
    if number("burn_in", burn_in, finite=True) < 0:
        raise ValueError(f"burn_in must be >= 0, got {burn_in!r}")
    t_start, T = -float(burn_in), float(number("T", T, positive=True))
    background = float(np.sum(params.mu)) * (T - t_start)
    if background > 2 * MAX_EVENTS:
        raise SimulationCapError(f"{background:.6g} background events expected, above "
                                 f"2·MAX_EVENTS: the run would have exceeded {MAX_EVENTS} events")
    return t_start, T


def simulate_thinning(
    params: HawkesParams,
    T: float,
    burn_in: float | None = None,
    seed: int = 0,
) -> EventLog:
    """Exact simulation by thinning against the aggregated intensity bound.

    The total intensity Lambda(t) = sum_i mu_i + S(t), with excess
    S(t) = sum_j (sum_i theta_ij) X_j(t), is non-increasing between
    events, so one exponential proposal clock against its current value
    is valid. Every node shares beta, so S decays as one scalar and a
    proposal costs O(1).

    The per-node excess v = theta @ X is not stored itself: a Fenwick
    (1994) tree holds the prefix sums of v / g, with one scalar g that
    each proposal decays. An accepted event picks its node, the first i
    with sum_{l <= i} (mu_l + v_l) >= u * (mu_total + S), by one descent
    of the tree, then adds theta_ij / g to the tree cells holding each
    child i of its node: O(k log d) for k children, where a dense v costs
    O(d). When g falls below 1e-150, it is folded into the tree.
    """
    t_start, T = _window(params, T, burn_in)
    rng = np.random.default_rng(seed)
    exponential, random, exp = rng.exponential, rng.random, math.exp
    beta, d, mu = params.beta, params.d, params.mu
    col_sums = params.theta.column_sums().tolist()
    mu_total = float(np.sum(mu))
    # Tree cell p sums v / g over nodes p - (p & -p) .. p - 1. The descent from 0
    # steps by the powers of two below `size`, so it reads cells 1 .. size - 1.
    # It enters a cell only if mu's prefix there is below the draw: inf from
    # cell d on, so it stops at node d - 1 at the latest (the clamp of a draw
    # past the last prefix by rounding), and no cell from d on holds a node.
    size = 1 << (d - 1).bit_length()
    steps = [size >> b for b in range(1, (d - 1).bit_length() + 1)]
    mu_prefix = np.concatenate([[0.0], np.cumsum(mu[:-1]), np.full(size - d, math.inf)]).tolist()
    cells: list[list[int]] = [[] for _ in range(d)]  # the cells below d holding node i
    for i in range(d - 1):
        p = i + 1
        while p < d:
            cells[i].append(p)
            p += p & -p
    # children[j]: (theta_ij, cells[i]) for each edge j -> i
    children: list[list[tuple]] = [[] for _ in range(d)]
    for i, row in enumerate(params.theta.rows):
        for j, theta_ij in row:
            children[j].append((theta_ij, cells[i]))

    t = t_start
    g = 1.0  # X's decay since the tree was last rescaled
    tree = [0.0] * size
    S = 0.0  # sum(theta @ X) now
    times: list[float] = []
    nodes: list[int] = []
    while True:
        bound = mu_total + S
        w = exponential(1.0 / bound)
        t += w
        if t > T:
            break
        f = exp(-beta * w)
        S *= f
        g *= f
        total = mu_total + S
        if random() * bound <= total:
            if g < _RESCALE_BELOW:
                tree = [x * g for x in tree]
                g = 1.0
            target = random() * total
            node, acc = 0, 0.0
            for step in steps:
                p = node + step
                c = acc + tree[p]
                if mu_prefix[p] + g * c < target:
                    node, acc = p, c
            for theta_ij, held in children[node]:
                x = theta_ij / g
                for p in held:
                    tree[p] += x
            S += col_sums[node]
            times.append(t)
            nodes.append(node)
            if len(times) > MAX_EVENTS:
                raise SimulationCapError(
                    f"thinning exceeded {MAX_EVENTS} events (gamma={params.gamma})"
                )

    events = _group_by_node(np.array(times), np.array(nodes, np.min_scalar_type(d - 1)), d)
    return EventLog(d=d, events=tuple(events), t_start=t_start, t_end=T, seed=seed,
                    method="thinning")


def simulate_cluster(
    params: HawkesParams,
    T: float,
    burn_in: float | None = None,
    seed: int = 0,
) -> EventLog:
    """Branching-cascade simulation via the cluster representation.

    Roots arrive per node as Poisson(mu_v) on an extended window; each
    type-j event spawns type-i children through a Poisson process with
    intensity theta_ij * exp(-beta t), i.e. Poisson(theta_ij / beta)
    children at Exp(beta) forward offsets.  Generations expand
    breadth-first until exhausted; events outside the kept window are
    discarded at the end.

    ``MAX_EVENTS`` caps the events drawn, children born after T included.
    It is checked before each batch of times is drawn: a node's roots, or
    one edge's children of one generation, whose count is the size of
    their parents' times repeated once per child. So an over-cap run
    raises before it draws the batch that would pass the cap.
    """
    t_start, T = _window(params, T, burn_in)
    rng = np.random.default_rng(seed)
    beta = params.beta
    t_lo = t_start - TAU_EXTEND_OVER_BETA / beta
    span = T - t_lo

    # Child edges grouped by source type j: (child type i, mean count K_ij).
    children_of: list[list[tuple[int, float]]] = [[] for _ in range(params.d)]
    for i, row in enumerate(params.theta.rows):
        for j, w in row:
            children_of[j].append((i, w / beta))

    total = 0  # events drawn so far, checked against the cap before each draw of times

    def count(n: int) -> None:
        nonlocal total
        total += n
        if total > MAX_EVENTS:
            raise SimulationCapError(
                f"cluster simulation exceeded {MAX_EVENTS} events (gamma={params.gamma})"
            )

    # Each generation is held as its events by node, each node's in the order
    # drawn: the roots are drawn node by node, and every later generation is
    # grouped by one stable sort on a node key narrow enough for a radix sort.
    key = np.min_scalar_type(params.d - 1)
    roots = []
    for v in range(params.d):
        n_roots = rng.poisson(params.mu[v] * span)
        count(n_roots)
        roots.append(np.sort(t_lo + span * rng.uniform(size=n_roots)))
    generations = [roots]

    while True:
        parts = []
        part_nodes = []  # the node of each part
        for j, parent_ts in enumerate(generations[-1]):
            if not children_of[j] or parent_ts.size == 0:
                continue
            for i, mean_count in children_of[j]:
                # Each parent's time, once per child: the children's birth times
                # less their offsets.
                born = np.repeat(parent_ts, rng.poisson(mean_count, size=parent_ts.size))
                if born.size == 0:
                    continue
                count(born.size)
                born += rng.exponential(1.0 / beta, size=born.size)
                parts.append(born)
                part_nodes.append(i)
        if not parts:
            break
        times = np.concatenate(parts)
        nodes = np.repeat(np.array(part_nodes, dtype=key), [ts.size for ts in parts])
        kept = times <= T
        generations.append(_group_by_node(times[kept], nodes[kept], params.d))

    per_node = []
    for parts in zip(*generations):
        times = np.concatenate(parts)
        times.sort()
        per_node.append(times[times.searchsorted(t_start):])
    return EventLog(
        d=params.d,
        events=tuple(per_node),
        t_start=t_start,
        t_end=T,
        seed=seed,
        method="cluster",
    )


def _group_by_node(times: np.ndarray, nodes: np.ndarray, d: int) -> list[np.ndarray]:
    """Each node's times, in their given order, from one stable sort by node.

    With nodes held in ``np.min_scalar_type(d - 1)`` (16 bits or fewer up
    to d = 65536) that stable sort is numpy's radix sort.
    """
    bounds = [0, *np.cumsum(np.bincount(nodes, minlength=d)).tolist()]
    ordered = times[np.argsort(nodes, kind="stable")]
    return [ordered[a:b] for a, b in zip(bounds, bounds[1:])]


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
    with np.errstate(over="ignore"):  # a huge beta * gap has the exact term exp(-inf) = 0
        return float(np.sum(np.exp(-beta * (t - past))))


def bin_and_clip(log: EventLog, beta: float, h: float, R: float) -> BinnedSample:
    """Convert an event log into the (h, R) grid sample.

    n = floor(T / h) grid points r*h for r = 0..n-1.  States include all
    burn-in events; an event exactly at a grid point r*h belongs to the
    state at r*h and to indicator bin r-1 (intervals are (r*h, (r+1)*h]).
    Grid points are the floats r*h that `state_at` is given, so an event
    is compared with them, not placed by the rounded quotient ts/h.

    One pass over the grid, CHUNK_BINS points at a time, sums the
    sample's statistics; no n x d array is made unless Z or Y is read.
    A grid whose n·(d + 2) is above MAX_GRID_CELLS is refused with a
    ValueError before anything of its size is made.
    """
    for name, value in (("beta", beta), ("h", h), ("R", R)):
        number(name, value, positive=True)
    T = log.t_end
    if not T / h * (log.d + 2) <= MAX_GRID_CELLS:  # false for an infinite T / h too
        raise ValueError(f"T/h = {T / h:.6g} grid points of {log.d} nodes: n·(d + 2) is above "
                         f"MAX_GRID_CELLS = 2**36")
    n = int(math.floor(T / h))
    if n == 0:
        raise ValueError(f"T={T} shorter than one bin h={h}")
    return BinnedSample._binned(log, beta, n, float(h), float(R))


def _binned_chunks(log: EventLog, beta: float, h: float, R: float, n: int):
    """Chunks (A, Y) of the grid, CHUNK_BINS grid points at a time; see GridStatistics.

    Each chunk is made in a buffer that the next one reuses, so a consumer
    is done with a chunk before it asks for the next.
    """
    d, B = log.d, CHUNK_BINS
    starts = np.arange(0, n, B)
    ends = np.minimum(starts + B, n)
    # The chunk of grid points s..e-1 takes each node's events in ((s-1)h, eh]:
    # those pulse at its grid points or fall in its bins s..e-1. The first
    # chunk takes the burn-in events too.
    edges = np.concatenate([(starts - 1) * h, ends * h])
    edges[0] = -math.inf
    cuts = np.array([ts.searchsorted(edges, side="right") for ts in log.events],
                    dtype=np.int64).reshape(d, 2, len(starts))
    # X(rh) = decay X((r-1)h) + pulses[r] for every column at once, in blocks
    # of b rows. Lᵀ[t, u] = decay^(u - t) for t <= u turns a block's pulses into
    # its states, given no incoming state; its last column gives the block's
    # end. The ends follow the same recurrence with factor hop = decay^b: one
    # product chains them within groups of b blocks, one more chains the group
    # ends with factor hop^b, and each end then takes hop^(t+1) times the end
    # of the group before. Every power is at most 1, so nothing overflows.
    decay = math.exp(-beta * h)
    b = _BLOCK
    blocks = -(-(min(n, B) + 2) // b)  # in a column of the largest chunk
    to_states = _decay_powers(decay, b)  # Lᵀ
    to_end = to_states[:, -1].copy()
    hop = to_states[0, -1] * decay
    hops = _decay_powers(hop, b)
    lift = hops[0] * hop  # hop^(t+1)
    to_groups = _decay_powers(lift[-1], b)
    # Times decay, a chained end is what the next block's first pulse takes.
    to_chain = decay * hops
    block_ends = np.zeros((d, b * b))
    group = _PRODUCT_BYTES // (8 * b)  # block rows per product
    states = np.empty((group, b))
    # A chunk holds rows s - 1 .. e of the grid, b-padded. Row s - 1 of Z holds
    # the previous chunk's last state, unclipped, as the pulse that starts the
    # recurrence; row e takes pulses that the next chunk takes again. Row r of
    # Y is the bin that starts at grid point r.
    one_product = d < _ONE_PRODUCT_BELOW_D
    width = 2 * d + 1 if one_product else d + 1  # the columns of A
    a_buf = np.empty(blocks * b * width)
    if not one_product:
        y_buf = np.empty(blocks * b * d, dtype=np.uint8)
    carry = np.zeros(d)
    counts = (cuts[:, 1] - cuts[:, 0]).T
    for s, e, lo, hi, count in zip(starts.tolist(), ends.tolist(),
                                   cuts[:, 0].T.tolist(), cuts[:, 1].T.tolist(), counts):
        rows = e - s + 2
        nblocks = -(-rows // b)  # in a column of this chunk
        stride = nblocks * b
        # (An empty first part, for d=0.)
        ts = np.concatenate([np.empty(0), *(t[i:j] for t, i, j in zip(log.events, lo, hi))])
        # first grid index at/after each event; event ts lies in bin grid-1
        grid = np.ceil(ts / h).astype(np.int64)
        # ts/h and r*h round apart within an ulp of a grid point.
        grid -= (grid - 1) * h >= ts
        grid += grid * h < ts
        if s == 0:
            np.maximum(grid, 0, out=grid)  # burn-in events pulse at r=0
        at = np.repeat(np.arange(0, stride * d, stride), count) + (grid - s)  # Y[grid - 1]
        a_flat = a_buf[:stride * width]
        a_flat[:stride] = 1.0
        a_flat[stride:] = 0.0
        if one_product:
            a_flat[at + (d + 1) * stride] = 1.0
        else:
            y_flat = y_buf[:stride * d]
            y_flat.fill(0)
            y_flat[at] = 1
        with np.errstate(over="ignore"):  # a huge beta * gap has the exact pulse exp(-inf) = 0
            np.add.at(a_flat, at + (stride + 1), np.exp(-beta * (grid * h - ts)))  # Z[grid]
        A = a_flat.reshape(width, stride).T
        Y = A[:, d + 1:] if one_product else y_flat.reshape(d, stride).T
        A[0, 1:d + 1] = carry
        pulses = a_flat[stride:(d + 1) * stride].reshape(d * nblocks, b)
        by_block = pulses.reshape(d, nblocks, b)
        np.matmul(by_block[:, :-1], to_end, out=block_ends[:, :nblocks - 1])
        block_ends[:, nblocks - 1:] = 0.0
        chained = (block_ends.reshape(d * b, b) @ to_chain).reshape(d, b, b)
        group_ends = chained[:, :, -1] @ to_groups
        chained[:, 1:] += group_ends[:, :-1, None] * lift
        # Each block's first pulse takes the state it inherits.
        by_block[:, 1:, 0] += chained.reshape(d, b * b)[:, :nblocks - 1]
        last = rows - 2  # grid point e - 1, whose unclipped state the next chunk takes
        carry[:] = by_block[:, last // b] @ to_states[:, last % b]
        for g in range(0, len(pulses), group):
            part = pulses[g:g + group]
            out = states[:len(part)]
            np.matmul(part, to_states, out=out)
            np.minimum(out, R, out=part)
        yield A[1:rows - 1], Y[1:rows - 1]


def _decay_powers(f: float, b: int) -> np.ndarray:
    """The b x b upper-triangular matrix of f^(u - t) for t <= u, zero below.

    The powers are a cumulative product of f, the factor the recurrence
    multiplies by, so the two round alike.
    """
    powers = np.full(b, f)
    powers[0] = 1.0
    np.cumprod(powers, out=powers)
    lag = np.arange(b) - np.arange(b)[:, None]
    return np.triu(powers[np.abs(lag)])


def write_events_csv(log: EventLog, path: str, meta_path: str) -> None:
    """Write `node,time` rows sorted by time, ties by node, plus the metadata side-car.

    Times carry 17 significant digits, so reading the file back gives
    every time bit for bit. Rows end in CRLF, as `csv.writer` ends them.
    """
    times = np.concatenate(log.events)
    nodes = np.repeat(np.arange(log.d), [ts.size for ts in log.events])
    order = np.lexsort((nodes, times))
    with open(path, "w", newline="") as f:
        f.write("node,time\r\n")
        for start in range(0, order.size, CSV_BLOCK_ROWS):
            block = order[start:start + CSV_BLOCK_ROWS]
            # A block's rows in one `%` call: node, time, node, time, ...
            fields = [None] * (2 * block.size)
            fields[::2] = nodes[block].tolist()
            fields[1::2] = times[block].tolist()
            f.write("%d,%.17g\r\n" * block.size % tuple(fields))
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
    del body  # the rows hold every value now; free the file's bytes before the sort
    nodes, times = rows
    # A node key of 16 bits or fewer makes lexsort's stable pass a radix sort.
    order = np.lexsort((times, nodes.astype(np.min_scalar_type(d - 1))))
    ends = np.cumsum(np.bincount(nodes, minlength=d))
    return EventLog(d=d, events=tuple(np.split(times[order], ends[:-1])), **window)


def _read_meta(meta_path: str) -> tuple[int, dict]:
    with open(meta_path) as f:
        meta = json.load(f)
    try:
        d = number("d", meta["d"], integer=True)
        t_start = number("t_start", meta["t_start"], finite=True)
        t_end = number("t_end", meta["t_end"], finite=True)
        seed, method = meta["seed"], meta["method"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{meta_path}: malformed metadata ({exc!r})") from exc
    except ValueError as exc:
        raise ValueError(f"{meta_path}: {exc}") from None
    if d < 1:
        raise ValueError(f"{meta_path}: d={d!r} is not a positive integer")
    require_dense_d(d, f"{meta_path}: ")
    if not t_start <= 0 < t_end:
        raise ValueError(f"{meta_path}: need t_start <= 0 < t_end, got {t_start!r}, {t_end!r}")
    return d, dict(t_start=float(t_start), t_end=float(t_end), seed=seed, method=method)


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
