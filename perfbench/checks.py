"""Checks of hawkesnet's outputs against computations made apart from it.

Every check returns a list of messages, empty when the output passes.
Nothing here calls into hawkesnet: the binning, covariances, least
squares, linear solves and OLS fits below are the benchmark's own numpy
code, written from the definitions in the package docstrings.
"""

from __future__ import annotations

import math

import numpy as np

# A coefficient this close to tau may fall on either side of it.
TAU_SLACK = 1e-8
# Scores this close are a tie; the order between them is not checked.
SCORE_SLACK = 1e-10


def grid_statistics(events, beta: float, h: float, R: float, T: float):
    """Sufficient statistics of the clipped grid sample of an event log.

    `events[v]` holds node v's event times, burn-in included. Z[r, v] is
    the state X_v(r h) clipped at R, Y[r, v] is 1 when node v fires in
    (r h, (r+1) h]. The n x d grid is never built: rows are produced in
    chunks and folded into (n, sum Z, sum Y, Z'Z, Y'Z).
    """
    d = len(events)
    n = int(math.floor(T / h))
    decay = math.exp(-beta * h)
    # Within a chunk, X is rebuilt as decay^k * cumsum(decay^-q * pulse_q);
    # 30 decay lengths keep decay^-q far from overflow.
    chunk = max(1, int(30.0 / (beta * h)))
    rows, cols, weights, y_rows, y_cols = [], [], [], [], []
    for v, ts in enumerate(events):
        ts = np.asarray(ts, dtype=float)
        g = np.maximum(np.ceil(ts / h).astype(np.int64), 0)
        keep = g <= n - 1
        rows.append(g[keep])
        cols.append(np.full(int(keep.sum()), v))
        weights.append(np.exp(-beta * (g[keep] * h - ts[keep])))
        b = np.ceil(ts / h).astype(np.int64) - 1
        keep = (ts > 0.0) & (b <= n - 1)
        y_rows.append(b[keep])
        y_cols.append(np.full(int(keep.sum()), v))
    rows, cols, weights = np.concatenate(rows), np.concatenate(cols), np.concatenate(weights)
    y_rows, y_cols = np.concatenate(y_rows), np.concatenate(y_cols)
    order, y_order = np.argsort(rows, kind="stable"), np.argsort(y_rows, kind="stable")
    rows, cols, weights = rows[order], cols[order], weights[order]
    y_rows, y_cols = y_rows[y_order], y_cols[y_order]

    sum_z, sum_y = np.zeros(d), np.zeros(d)
    zz, yz = np.zeros((d, d)), np.zeros((d, d))
    carry = np.zeros(d)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        L = hi - lo
        a, b = np.searchsorted(rows, [lo, hi])
        pulses = np.bincount(
            (rows[a:b] - lo) * d + cols[a:b], weights=weights[a:b], minlength=L * d
        ).reshape(L, d)
        k = np.arange(L, dtype=float)[:, None]
        x = np.cumsum(pulses * decay ** (-k), axis=0) * decay**k + carry * decay ** (k + 1)
        carry = x[-1]
        z = np.minimum(x, R)
        a, b = np.searchsorted(y_rows, [lo, hi])
        y = np.zeros((L, d))
        y[y_rows[a:b] - lo, y_cols[a:b]] = 1.0
        sum_z += z.sum(axis=0)
        sum_y += y.sum(axis=0)
        zz += z.T @ z
        yz += y.T @ z
    return n, sum_z, sum_y, zz, yz


class GridModel:
    """Screening scores and local least squares from grid statistics."""

    def __init__(self, stats, m: int, tau: float):
        n, sum_z, sum_y, zz, yz = stats
        mz, my = sum_z / n, sum_y / n
        self.cov = zz / n - np.outer(mz, mz)   # Cov_n(Z_j, Z_l)
        self.F = yz / n - np.outer(my, mz)     # F[i, j] = Cov_n(Z_j, Y_i)
        self.m, self.tau = m, tau

    def candidates(self, i: int) -> list[int]:
        order = np.lexsort((np.arange(self.F.shape[1]), -self.F[i]))
        return [int(j) for j in order[: self.m]]

    def coeffs(self, i: int, C) -> np.ndarray:
        C = list(C)
        return np.linalg.lstsq(self.cov[np.ix_(C, C)], self.F[i, C], rcond=None)[0]

    def support_bounds(self, C, coeffs) -> tuple[set, set]:
        """Supports certain to be kept, and those possibly kept, given TAU_SLACK."""
        sure = {int(j) for j, c in zip(C, coeffs) if c >= self.tau + TAU_SLACK}
        maybe = {int(j) for j, c in zip(C, coeffs) if c >= self.tau - TAU_SLACK}
        return sure, maybe


def check_network(doc: dict, grid: GridModel) -> list[str]:
    """Compare a recovered network (its JSON form) with the grid model."""
    errors = []
    d = grid.F.shape[0]
    if doc.get("d") != d or len(doc.get("rows", ())) != d:
        return [f"network has d={doc.get('d')} and {len(doc.get('rows', ()))} rows, expected {d}"]
    for row in doc["rows"]:
        i, C = row["i"], list(row["candidates"])
        own = grid.candidates(i)
        if len(C) != len(own) or len(set(C)) != len(C):
            errors.append(f"row {i}: candidates {C}, expected {own}")
            continue
        gap = np.abs(grid.F[i, C] - grid.F[i, own])
        if np.any(gap > SCORE_SLACK):
            errors.append(f"row {i}: candidates {C}, expected {own}")
            continue
        cov = grid.cov[np.ix_(C, C)]
        if row["degenerate"]:
            if np.linalg.eigvalsh(cov)[0] > 1e-8 * np.trace(cov) / len(C):
                errors.append(f"row {i}: flagged degenerate, Gram is not")
            continue
        coeffs = np.asarray(row["coeffs"], dtype=float)
        want = grid.coeffs(i, C)
        if coeffs.shape != want.shape or not np.allclose(coeffs, want, rtol=1e-6, atol=1e-9):
            errors.append(f"row {i}: coefficients {coeffs.tolist()}, expected {want.tolist()}")
            continue
        sure, maybe = grid.support_bounds(C, want)
        if not sure <= set(row["support"]) <= maybe:
            errors.append(f"row {i}: support {sorted(row['support'])}, expected {sorted(sure)}")
    return errors


def exact_recovery_bounds(grid: GridModel, truth) -> tuple[bool, bool]:
    """Whether own recovery is exact for sure, and whether it may be.

    `truth[i]` is the parent set of node i. Rows with a coefficient within
    TAU_SLACK of tau can go either way, hence two answers.
    """
    sure_ok = maybe_ok = True
    for i, parents in enumerate(truth):
        C = grid.candidates(i)
        sure, maybe = grid.support_bounds(C, grid.coeffs(i, C))
        sure_ok &= sure == maybe == set(parents)
        maybe_ok &= sure <= set(parents) <= maybe
    return sure_ok, maybe_ok


def dense_theta(d: int, edges) -> np.ndarray:
    """Theta from (target i, source j, weight) triples."""
    theta = np.zeros((d, d))
    for i, j, w in edges:
        theta[i, j] = w
    return theta


def check_oracle(doc: dict, theta: np.ndarray, mu: np.ndarray, beta: float) -> list[str]:
    """Residuals of the stationary moment equations, from `hawkesnet oracle` output."""
    errors = []
    d = len(mu)
    m = np.asarray(doc["m"], dtype=float)
    lam = np.asarray(doc["lambda_bar"], dtype=float)
    sigma = np.asarray(doc["sigma"], dtype=float)
    G = np.asarray(doc["G"], dtype=float)
    if m.shape != (d,) or lam.shape != (d,) or sigma.shape != (d, d) or G.shape != (d, d):
        return [f"oracle shapes m{m.shape} lambda{lam.shape} sigma{sigma.shape} G{G.shape}"]
    A = beta * np.eye(d) - theta
    scale = 1e-9 * (1.0 + float(np.max(np.abs(mu))))
    res = float(np.max(np.abs(A @ m - mu)))
    if res > scale:
        errors.append(f"(beta I - Theta) m - mu residual {res:.3e}")
    m_ref = np.linalg.solve(A, mu)
    if not np.allclose(m, m_ref, rtol=1e-9, atol=0.0):
        errors.append(f"m differs from solve by {float(np.max(np.abs(m - m_ref))):.3e}")
    if not np.allclose(lam, beta * m, rtol=1e-12, atol=0.0):
        errors.append("lambda_bar != beta * m")
    lyap = 2.0 * beta * sigma - theta @ sigma - sigma @ theta.T - np.diag(beta * m)
    res = float(np.max(np.abs(lyap)))
    if res > scale:
        errors.append(f"Lyapunov residual {res:.3e}")
    if not np.array_equal(sigma, sigma.T):
        errors.append("sigma not symmetric")
    if not np.allclose(G, theta @ sigma, rtol=1e-12, atol=1e-15):
        errors.append("G != Theta Sigma")
    gaps = doc["gaps"]
    for i in range(d):
        parents = np.flatnonzero(theta[i])
        others = np.setdiff1d(np.arange(d), parents)
        if parents.size == 0:
            want = None
        elif others.size == 0:
            want = float(G[i, parents].min())
        else:
            want = float(G[i, parents].min() - G[i, others].max())
        got = gaps[i]
        if (want is None) != (got is None) or (want is not None and abs(got - want) > 1e-12):
            errors.append(f"gap of row {i}: {got}, expected {want}")
            break
    return errors


def read_event_csv(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Parse `node,time` rows into (nodes, times), in file order."""
    lines = text.splitlines()
    if not lines or lines[0] != "node,time":
        raise ValueError(f"bad header {lines[:1]}")
    pairs = [line.split(",") for line in lines[1:]]
    nodes = np.array([int(a) for a, _ in pairs], dtype=np.int64)
    times = np.array([float(b) for _, b in pairs])
    return nodes, times


def count_variance_rate(theta: np.ndarray, mu: np.ndarray, beta: float):
    """Stationary rates and Var(N_i(T)) / T for large T.

    With branching matrix K = Theta / beta, lambda_bar = (I - K)^-1 mu and
    the asymptotic count covariance rate is (I - K)^-1 diag(lambda_bar) (I - K)^-T.
    """
    d = len(mu)
    B = np.linalg.inv(np.eye(d) - theta / beta)
    lam = np.linalg.solve(np.eye(d) - theta / beta, mu)
    return lam, np.diag(B @ np.diag(lam) @ B.T)


def check_event_stream(nodes, times, meta: dict, d: int, T: float, lam, var_rate,
                       z: float = 5.0) -> list[str]:
    """Order, window and range of an event stream, and its counts per node.

    Each node's count in (0, T] must lie within z standard deviations of
    T * lambda_bar, the standard deviation being sqrt(T * var_rate).
    """
    errors = []
    if meta.get("d") != d or meta.get("t_end") != T or not meta.get("t_start", 1.0) <= 0.0:
        errors.append(f"meta {meta} does not match d={d}, T={T}")
        return errors
    if nodes.size and (nodes.min() < 0 or nodes.max() >= d):
        errors.append(f"node index outside [0, {d})")
        return errors
    if np.any(np.diff(times) < 0.0):
        errors.append("times do not ascend")
    if times.size and (times[0] < meta["t_start"] or times[-1] > T):
        errors.append(f"times outside [{meta['t_start']}, {T}]")
    inside = times > 0.0
    counts = np.bincount(nodes[inside], minlength=d)
    dev = np.abs(counts - T * lam) / np.sqrt(T * var_rate)
    if np.any(dev > z):
        worst = int(np.argmax(dev))
        errors.append(
            f"node {worst}: {counts[worst]} events, expected {T * lam[worst]:.0f} "
            f"+- {z} x {math.sqrt(T * var_rate[worst]):.0f}"
        )
    return errors


def check_same_events(nodes, times, events) -> list[str]:
    """The stream holds exactly the events of the per-node arrays `events`."""
    for v, ts in enumerate(events):
        got = np.sort(times[nodes == v])
        if got.shape != np.shape(ts) or not np.array_equal(got, np.sort(ts)):
            return [f"node {v}: {got.size} events in the file, {len(ts)} simulated"]
    if nodes.size != sum(len(ts) for ts in events):
        return ["file holds events of unknown nodes"]
    return []


def ols_fit(ds, t_stars) -> tuple[float, float]:
    """Slope and intercept of T* on ln d."""
    X = np.column_stack([np.log(np.asarray(ds, dtype=float)), np.ones(len(ds))])
    (slope, intercept), *_ = np.linalg.lstsq(X, np.asarray(t_stars, dtype=float), rcond=None)
    return float(slope), float(intercept)


def check_threshold(d: int, t_lo: float, t_hi: float, t_star: float, cells, level: float,
                    trials: int, rescanned: bool) -> list[str]:
    """Bisection invariants of one T* search.

    `cells` maps each evaluated T to its success count. The bracket must
    straddle the level, T* must be its midpoint and, unless the search
    fell back to its grid rescan, its width must be within 10% of T*.
    """
    errors = []
    if t_lo not in cells or t_hi not in cells:
        return [f"d={d}: bracket ends {t_lo}, {t_hi} were not evaluated"]
    if any(not 0 <= s <= trials for s in cells.values()):
        errors.append(f"d={d}: a cell has successes outside [0, {trials}]")
    if not cells[t_lo] / trials < level <= cells[t_hi] / trials:
        errors.append(
            f"d={d}: rate({t_lo})={cells[t_lo]}/{trials}, rate({t_hi})={cells[t_hi]}/{trials} "
            f"do not straddle {level}"
        )
    if not t_lo < t_hi or t_star != 0.5 * (t_lo + t_hi):
        errors.append(f"d={d}: T*={t_star} is not the midpoint of ({t_lo}, {t_hi})")
    if not rescanned and (t_hi - t_lo) > 0.1 * t_star * (1.0 + 1e-12):
        errors.append(f"d={d}: bracket ({t_lo}, {t_hi}) wider than 10% of T*")
    return errors
