import json
import math
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hawkesnet import simulate
from hawkesnet.model import (
    SparseInteractionMatrix,
    build_subclass_instance,
    sample_random_instance,
)
from hawkesnet.moments import stationary_mean
from hawkesnet.simulate import (
    EventLog,
    bin_and_clip,
    read_events_csv,
    simulate_cluster,
    simulate_thinning,
    state_at,
    write_events_csv,
)
from hawkesnet.seeding import mix64


def poisson_params(d=3, rate=1.0, beta=1.0):
    return sample_random_instance(d=d, k=0, alpha=0.1, w_minus=1.0, w_plus=1.0,
                                  mu_minus=rate, mu_plus=rate, beta=beta, seed=0)


def scalar_params(theta, mu=1.0, beta=1.0):
    # one node with a self-loop
    return build_scalar(theta, mu, beta)


def build_scalar(theta, mu, beta):
    from hawkesnet.model import HawkesParams, SparseInteractionMatrix

    rows = ((((0, theta),),) if theta > 0 else ((),))
    return HawkesParams(
        mu=np.array([mu]), theta=SparseInteractionMatrix(d=1, rows=rows),
        beta=beta, k=1, alpha=theta if theta else 1.0, w_minus=1.0, w_plus=1.0,
    )


def manual_log(d, events, t_start=-1.0, t_end=10.0):
    arr = tuple(np.asarray(e, dtype=float) for e in events)
    return EventLog(d=d, events=arr, t_start=t_start, t_end=t_end, seed=0,
                    method="thinning")


class TestThinning:
    def test_deterministic(self):
        p = poisson_params()
        a = simulate_thinning(p, T=20.0, seed=5)
        b = simulate_thinning(p, T=20.0, seed=5)
        for x, y in zip(a.events, b.events):
            assert np.array_equal(x, y)

    def test_poisson_reduction_rate(self):
        p = poisson_params(d=2, rate=2.0)
        log = simulate_thinning(p, T=2000.0, seed=3)
        counts = log.observed_counts()
        se = math.sqrt(2.0 * 2000.0)
        assert np.all(np.abs(counts - 4000.0) < 3 * se)

    def test_scalar_hawkes_rate_matches_oracle(self):
        p = build_scalar(theta=1.0, mu=1.0, beta=2.0)
        m = stationary_mean(p)  # 1 / (2 - 1) = 1
        log = simulate_thinning(p, T=2000.0, burn_in=50.0, seed=11)
        count = log.observed_counts()[0]
        lam = p.beta * m[0]  # = 2
        # variance rate of counts for scalar Hawkes: lam / (1 - theta/beta)^3
        se = math.sqrt(lam * 2000.0 / (1 - 0.5) ** 3)
        assert abs(count - lam * 2000.0) < 3 * se

    def test_bound_check_mode_runs(self):
        p = sample_random_instance(d=5, k=2, alpha=0.2, w_minus=0.5, w_plus=1.0,
                                   mu_minus=0.5, mu_plus=1.5, beta=1.0, seed=2)
        log = simulate_thinning(p, T=50.0, seed=1, check_bound=True)
        assert log.total_events() > 0

    @pytest.mark.parametrize("d", [5, 40])
    def test_bound_check_holds_on_log_d_sweep_class(self, d):
        # The instance class of acceptance criterion 7.
        p = sample_random_instance(d=d, k=2, alpha=0.2, w_minus=1.0, w_plus=1.0,
                                   mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=mix64(707, d))
        checked = simulate_thinning(p, T=100.0, burn_in=20.0, seed=3, check_bound=True)
        plain = simulate_thinning(p, T=100.0, burn_in=20.0, seed=3)
        assert checked.total_events() > 0
        # The check draws nothing, so it leaves the stream as it was.
        for x, y in zip(checked.events, plain.events):
            assert x.tobytes() == y.tobytes()

    def test_bound_check_catches_a_wrong_scalar_excess(self, monkeypatch):
        # Column sums that understate theta make mu_total + S lag the
        # dense intensity, which the check recomputes on each proposal.
        p = sample_random_instance(d=5, k=2, alpha=0.2, w_minus=1.0, w_plus=1.0,
                                   mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=mix64(707, 5))
        column_sums = SparseInteractionMatrix.column_sums
        monkeypatch.setattr(SparseInteractionMatrix, "column_sums",
                            lambda self: 0.5 * column_sums(self))
        simulate_thinning(p, T=100.0, seed=3)  # unchecked, it runs on
        with pytest.raises(AssertionError, match="thinning bound violated"):
            simulate_thinning(p, T=100.0, seed=3, check_bound=True)

    def test_events_sorted_within_window(self):
        p = sample_random_instance(d=4, k=1, alpha=0.3, w_minus=1.0, w_plus=1.0,
                                   mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=9)
        log = simulate_thinning(p, T=30.0, burn_in=10.0, seed=4)
        for ts in log.events:
            assert np.all(np.diff(ts) > 0)
            assert np.all((ts >= log.t_start) & (ts <= log.t_end))


def _dense_reference_thinning(params, T, burn_in, seed):
    """The dense thinning loop that the scalar-excess one replaced.

    Each proposal decays the whole state X and recomputes theta @ X. It
    draws the same random numbers in the same order as simulate_thinning
    and maps the node draw through the same cumulative intensities.
    """
    rng = np.random.default_rng(seed)
    theta = params.theta.to_dense()
    col_sums = params.theta.column_sums()
    mu_total = float(np.sum(params.mu))
    t, x = -float(burn_in), np.zeros(params.d)
    times, nodes = [], []
    bound = mu_total
    while True:
        w = rng.exponential(1.0 / bound)
        if t + w > T:
            break
        t += w
        x *= math.exp(-params.beta * w)
        lam = params.mu + theta @ x
        lam_total = float(np.sum(lam))
        if rng.uniform() * bound <= lam_total:
            node = int(np.searchsorted(np.cumsum(lam), rng.uniform() * lam_total))
            node = min(node, params.d - 1)
            x[node] += 1.0
            times.append(t)
            nodes.append(node)
        bound = mu_total + float(col_sums @ x)
    times, nodes = np.array(times), np.array(nodes, dtype=np.int64)
    return [times[nodes == v] for v in range(params.d)]


@pytest.mark.parametrize("d", [1, 4, 10])
def test_thinning_draws_match_dense_reference(d):
    # Same per-node counts, and times equal up to the rounding of the
    # scalar excess against the dense sum: a change in the order of the
    # draws or in the node mapping fails this.
    for inst in range(3):
        p = sample_random_instance(d=d, k=min(2, d), alpha=0.3, w_minus=0.5, w_plus=1.0,
                                   mu_minus=0.5, mu_plus=1.5, beta=1.0, seed=mix64(51, d, inst))
        for trial in range(3):
            seed = mix64(52, d, inst, trial)
            log = simulate_thinning(p, T=300.0, burn_in=30.0, seed=seed)
            ref = _dense_reference_thinning(p, 300.0, 30.0, seed)
            assert log.total_events() > 0
            for ts, want in zip(log.events, ref):
                assert ts.size == want.size
                assert np.all(np.abs(ts - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


class TestCluster:
    def test_deterministic(self):
        p = poisson_params()
        a = simulate_cluster(p, T=20.0, seed=5)
        b = simulate_cluster(p, T=20.0, seed=5)
        for x, y in zip(a.events, b.events):
            assert np.array_equal(x, y)

    def test_poisson_case_agrees_with_thinning(self):
        p = poisson_params(d=3, rate=1.5)
        T, trials = 40.0, 200
        m1 = np.mean([simulate_thinning(p, T=T, seed=mix64(1, i)).observed_counts()
                      for i in range(trials)], axis=0)
        m2 = np.mean([simulate_cluster(p, T=T, seed=mix64(2, i)).observed_counts()
                      for i in range(trials)], axis=0)
        se = math.sqrt(1.5 * T / trials)
        assert np.all(np.abs(m1 - m2) < 3 * math.sqrt(2) * se)

    def test_mean_cluster_size_geometric(self):
        # total progeny of a root is 1/(1-gamma) in expectation
        gamma = 0.4
        p = build_scalar(theta=gamma, mu=1.0, beta=1.0)
        # isolate cluster sizes by running many short windows with rare roots
        total_roots = 0
        total_events = 0
        for i in range(200):
            log = simulate_cluster(p, T=50.0, burn_in=0.0, seed=mix64(3, i))
            n = log.observed_counts()[0]
            total_events += n
            total_roots += 50.0 * 1.0  # expected roots in window
        ratio = total_events / total_roots
        # boundary truncation makes the sample ratio slightly low
        sizes = 1.0 / (1.0 - gamma)
        se = math.sqrt(sizes / total_roots) * 5
        assert abs(ratio - sizes) < 3 * se + 0.05

    def test_subclass_rate_matches_oracle(self):
        p = build_subclass_instance(d=3, k=1, i_star=0, S=[2], theta_minus=0.5,
                                    mu_bar=1.0, mu_bar_star=1.0, beta=1.0)
        m = stationary_mean(p)
        T, trials = 100.0, 100
        counts = np.mean([simulate_cluster(p, T=T, seed=mix64(4, i)).observed_counts()
                          for i in range(trials)], axis=0)
        expected = p.beta * m * T
        se = np.sqrt(expected / trials) * 2.0  # mild overdispersion margin
        assert np.all(np.abs(counts - expected) < 3 * se)


class TestStateAt:
    def test_no_events(self):
        log = manual_log(1, [[]])
        assert state_at(log, 1.0, 0, 1.0) == 0.0

    def test_single_event(self):
        log = manual_log(1, [[0.0]])
        assert state_at(log, 1.0, 0, math.log(2)) == pytest.approx(0.5)

    def test_two_events_right_continuous(self):
        log = manual_log(1, [[0.0, math.log(2)]])
        assert state_at(log, 1.0, 0, math.log(2)) == pytest.approx(1.5)

    def test_outside_window_raises(self):
        log = manual_log(1, [[0.0]], t_start=-1.0, t_end=5.0)
        with pytest.raises(ValueError, match="outside"):
            state_at(log, 1.0, 0, 6.0)


class TestBinAndClip:
    def test_empty_log(self):
        log = manual_log(2, [[], []], t_end=1.0)
        s = bin_and_clip(log, beta=1.0, h=0.25, R=2.0)
        assert s.n == 4
        assert np.all(s.Z == 0) and np.all(s.Y == 0)

    def test_single_event_midbin(self):
        h, beta = 0.5, 2.0
        log = manual_log(2, [[0.25], []], t_end=2.0)
        s = bin_and_clip(log, beta=beta, h=h, R=5.0)
        assert s.Y[0, 0] == 1
        assert s.Y.sum() == 1
        assert s.Z[0, 0] == 0.0
        assert s.Z[1, 0] == pytest.approx(math.exp(-beta * 0.25))

    def test_clipping_saturates(self):
        log = manual_log(1, [np.linspace(0.01, 0.99, 60)], t_end=2.0)
        s = bin_and_clip(log, beta=0.1, h=1.0, R=0.1)
        assert s.Z[1, 0] == pytest.approx(0.1)

    def test_boundary_event_conventions(self):
        # event exactly at a grid point belongs to the state there and to
        # the indicator bin that ends there
        h = 0.5
        log = manual_log(1, [[0.5]], t_end=2.0)
        s = bin_and_clip(log, beta=1.0, h=h, R=5.0)
        assert s.Z[1, 0] == pytest.approx(1.0)
        assert s.Y[0, 0] == 1 and s.Y[1, 0] == 0

    def test_burn_in_events_feed_state_not_indicator(self):
        log = manual_log(1, [[-0.5]], t_start=-1.0, t_end=1.0)
        s = bin_and_clip(log, beta=1.0, h=0.5, R=5.0)
        assert s.Y.sum() == 0
        assert s.Z[0, 0] == pytest.approx(math.exp(-0.5))

    def test_matches_state_at_oracle(self):
        p = sample_random_instance(d=4, k=2, alpha=0.2, w_minus=0.5, w_plus=1.0,
                                   mu_minus=0.5, mu_plus=1.5, beta=1.3, seed=8)
        log = simulate_thinning(p, T=20.0, burn_in=10.0, seed=6)
        h = 0.3
        s = bin_and_clip(log, beta=1.3, h=h, R=100.0)
        for r in (0, 1, 5, s.n - 1):
            for j in range(4):
                assert s.Z[r, j] == pytest.approx(
                    state_at(log, 1.3, j, r * h), abs=1e-9
                )

    def test_permutation_equivariance(self):
        p = sample_random_instance(d=5, k=1, alpha=0.2, w_minus=1.0, w_plus=1.0,
                                   mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=12)
        log = simulate_thinning(p, T=15.0, seed=3)
        pi = [2, 0, 4, 1, 3]
        permuted = EventLog(
            d=5,
            events=tuple(log.events[pi.index(v)] for v in range(5)),
            t_start=log.t_start, t_end=log.t_end, seed=log.seed, method=log.method,
        )
        a = bin_and_clip(log, 1.0, 0.2, 3.0)
        b = bin_and_clip(permuted, 1.0, 0.2, 3.0)
        for orig, new in enumerate(pi):
            assert np.allclose(a.Z[:, orig], b.Z[:, new])
            assert np.array_equal(a.Y[:, orig], b.Y[:, new])

    @settings(max_examples=100, deadline=None)
    @given(case=st.data(), beta=st.floats(0.1, 5.0), R=st.floats(0.1, 20.0))
    def test_matches_state_at_on_random_logs(self, case, beta, R):
        d = case.draw(st.integers(1, 4))
        h = case.draw(st.floats(0.05, 2.0))
        t_end = case.draw(st.floats(h, 10.0))
        t_start = case.draw(st.floats(-5.0, 0.0))
        time = st.floats(t_start, t_end)
        log = manual_log(d, [np.sort(case.draw(st.lists(time, max_size=15))) for _ in range(d)],
                         t_start=t_start, t_end=t_end)
        _assert_matches_state_at(log, beta, h, R)

    @settings(max_examples=100, deadline=None)
    @given(case=st.data(), beta=st.floats(0.1, 5.0), R=st.floats(0.1, 20.0))
    def test_matches_state_at_with_events_on_grid_points(self, case, beta, R):
        # Events at the floats k*h, where ts/h and r*h can round apart.
        d = case.draw(st.integers(1, 3))
        h = case.draw(st.floats(0.01, 2.0))
        t_end = case.draw(st.floats(h, 10.0))
        t_start = case.draw(st.floats(-5.0, 0.0))
        k = st.integers(math.ceil(t_start / h), math.floor(t_end / h))
        events = [np.array(sorted({i * h for i in case.draw(st.lists(k, max_size=15))}))
                  for _ in range(d)]
        events = [ts[(ts >= t_start) & (ts <= t_end)] for ts in events]
        _assert_matches_state_at(manual_log(d, events, t_start=t_start, t_end=t_end),
                                 beta, h, R)

    def test_event_on_a_float_grid_point_lies_in_the_bin_ending_there(self):
        h = 0.3298774119830413
        assert 13 * h / h > 13  # ceil(ts/h) would place it at grid point 14
        log = manual_log(1, [[13 * h]], t_end=5.0)
        s = bin_and_clip(log, beta=1.0, h=h, R=5.0)
        assert s.Z[13, 0] == state_at(log, 1.0, 0, 13 * h) == 1.0
        assert s.Y[12, 0] == 1 and s.Y.sum() == 1

    def test_rejects_window_shorter_than_bin(self):
        log = manual_log(1, [[0.1]], t_end=0.4)
        with pytest.raises(ValueError, match="shorter than one bin"):
            bin_and_clip(log, beta=1.0, h=0.5, R=1.0)


def _assert_matches_state_at(log, beta, h, R):
    """Z against state_at at every grid point r*h, Y against its bin (r*h, (r+1)*h]."""
    s = bin_and_clip(log, beta, h, R)
    assert s.n == math.floor(log.t_end / h)
    for j, ts in enumerate(log.events):
        for r in range(s.n):
            assert s.Z[r, j] == pytest.approx(min(state_at(log, beta, j, r * h), R),
                                              rel=1e-9, abs=1e-12)
            assert s.Y[r, j] == np.any((ts > r * h) & (ts <= (r + 1) * h))


def test_event_csv_round_trip(tmp_path):
    p = sample_random_instance(d=3, k=1, alpha=0.2, w_minus=1.0, w_plus=1.0,
                               mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=17)
    log = simulate_thinning(p, T=10.0, seed=2)
    path, meta = str(tmp_path / "e.csv"), str(tmp_path / "e.meta.json")
    write_events_csv(log, path, meta)
    back = read_events_csv(path, meta)
    assert back.d == log.d and back.method == log.method
    for x, y in zip(back.events, log.events):
        assert np.array_equal(x, y)
    # second write is byte-identical
    path2 = str(tmp_path / "e2.csv")
    write_events_csv(back, path2, str(tmp_path / "e2.meta.json"))
    assert Path(path).read_text() == Path(path2).read_text()


@pytest.mark.parametrize("node", ["2", "9", "-1", "x", "1.5"])
def test_event_csv_rejects_bad_node_naming_the_line(tmp_path, node):
    log = manual_log(2, [[0.7], []])
    path, meta = str(tmp_path / "e.csv"), str(tmp_path / "e.meta.json")
    write_events_csv(log, path, meta)
    with open(path, "a") as f:
        f.write(f"{node},0.5\n")
    with pytest.raises(ValueError, match=r"e\.csv:3: .*node"):
        read_events_csv(path, meta)


def test_event_csv_rejects_short_row(tmp_path):
    log = manual_log(2, [[0.7], []])
    path, meta = str(tmp_path / "e.csv"), str(tmp_path / "e.meta.json")
    write_events_csv(log, path, meta)
    with open(path, "a") as f:
        f.write("1\n")
    with pytest.raises(ValueError, match=r"e\.csv:3:"):
        read_events_csv(path, meta)


@st.composite
def event_logs(draw):
    d = draw(st.integers(1, 6))
    t_start = draw(st.floats(-50.0, 0.0))
    t_end = draw(st.floats(1e-3, 100.0))
    # Times drawn from a small shared pool tie within and across nodes.
    pool = draw(st.lists(st.floats(t_start, t_end), min_size=1, max_size=6))
    time = st.sampled_from(pool) | st.floats(t_start, t_end)
    events = [np.sort(np.array(draw(st.lists(time, max_size=12)), dtype=float)) for _ in range(d)]
    return EventLog(d=d, events=tuple(events), t_start=t_start, t_end=t_end,
                    seed=draw(st.integers(0, 2**63 - 1)),
                    method=draw(st.sampled_from(["thinning", "cluster"])))


@settings(max_examples=150, deadline=None)
@given(log=event_logs())
@example(log=manual_log(3, [[], [], []]))
@example(log=manual_log(2, [[-0.5, -0.5, 0.0, 0.0], [-0.5, 0.0]]))
def test_event_csv_round_trip_is_bit_exact(log):
    with tempfile.TemporaryDirectory() as tmp:
        path, meta = os.path.join(tmp, "e.csv"), os.path.join(tmp, "e.meta.json")
        write_events_csv(log, path, meta)
        back = read_events_csv(path, meta)
        assert (back.d, back.t_start, back.t_end, back.seed, back.method) == (
            log.d, log.t_start, log.t_end, log.seed, log.method)
        for x, y in zip(back.events, log.events):
            assert x.dtype == np.float64 and x.tobytes() == y.tobytes()
        # The whole-column parser takes every row the writer writes.
        with open(path, "rb") as f:
            body = f.read().split(b"\n", 1)[1]
        nodes, times = simulate._parse_rows(body, log.d, log.t_start, log.t_end)
        assert nodes.size == log.total_events()
        for v, ts in enumerate(log.events):
            assert times[nodes == v].tobytes() == ts.tobytes()
        path2 = os.path.join(tmp, "e2.csv")
        write_events_csv(back, path2, os.path.join(tmp, "e2.meta.json"))
        with open(path, "rb") as a, open(path2, "rb") as b:
            assert a.read() == b.read()


def test_event_csv_text_is_pinned(tmp_path):
    # Rows by time, ties by node, 17 significant digits, CRLF line ends.
    log = EventLog(d=4, events=(np.array([-0.5, 0.1, 2.0]), np.array([1 / 3]),
                                np.array([0.1]), np.array([])),
                   t_start=-1.0, t_end=3.0, seed=5, method="cluster")
    path, meta = tmp_path / "e.csv", tmp_path / "e.meta.json"
    write_events_csv(log, str(path), str(meta))
    assert path.read_bytes() == (
        b"node,time\r\n"
        b"0,-0.5\r\n"
        b"0,0.10000000000000001\r\n"
        b"2,0.10000000000000001\r\n"
        b"1,0.33333333333333331\r\n"
        b"0,2\r\n"
    )
    assert meta.read_text() == '{"d":4,"method":"cluster","seed":5,"t_end":3.0,"t_start":-1.0}\n'


def test_event_csv_reads_quoted_fields(tmp_path):
    path, meta = tmp_path / "e.csv", tmp_path / "e.meta.json"
    write_events_csv(manual_log(2, [[], []]), str(path), str(meta))
    path.write_text('node,time\n"1","0.25"\n0, 0.5\n')
    back = read_events_csv(str(path), str(meta))
    assert back.events[0].tolist() == [0.5] and back.events[1].tolist() == [0.25]


def test_event_csv_reads_lf_and_crlf_alike(tmp_path):
    p = sample_random_instance(d=4, k=1, alpha=0.2, w_minus=1.0, w_plus=1.0,
                               mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=17)
    log = simulate_cluster(p, T=50.0, seed=2)
    crlf, meta = tmp_path / "crlf.csv", str(tmp_path / "e.meta.json")
    write_events_csv(log, str(crlf), meta)
    lf = tmp_path / "lf.csv"
    lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
    a, b = read_events_csv(str(crlf), meta), read_events_csv(str(lf), meta)
    assert len(a.events) == len(b.events) == 4
    for x, y, z in zip(a.events, b.events, log.events):
        assert x.tobytes() == y.tobytes() == z.tobytes()


def test_event_csv_reads_lone_cr_line_ends(tmp_path):
    path, meta = tmp_path / "e.csv", tmp_path / "e.meta.json"
    write_events_csv(manual_log(2, [[], []]), str(path), str(meta))
    path.write_bytes(b"node,time\r1,0.5\r0,0.25\r")
    back = read_events_csv(str(path), str(meta))
    assert back.events[0].tolist() == [0.25] and back.events[1].tolist() == [0.5]


def _d40_event_csv(tmp_path):
    # The log of the screening memory test: d=40, T=1000.
    params = sample_random_instance(d=40, k=2, alpha=0.2, w_minus=1.0, w_plus=1.0,
                                    mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=4)
    path, meta = str(tmp_path / "e.csv"), str(tmp_path / "e.meta.json")
    write_events_csv(simulate_cluster(params, T=1000.0, seed=5), path, meta)
    return path, meta


def _read_peak(read):
    """tracemalloc's peak while `read()` runs."""
    tracemalloc.start()
    try:
        read()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_event_csv_read_peak_memory_is_a_few_file_sizes(tmp_path):
    path, meta = _d40_event_csv(tmp_path)
    assert _read_peak(lambda: read_events_csv(path, meta)) < 4 * os.path.getsize(path)


def test_event_csv_bad_last_row_peak_memory_is_a_few_file_sizes(tmp_path):
    path, meta = _d40_event_csv(tmp_path)
    with open(path, "a", newline="") as f:
        f.write("1,x\r\n")

    def read():
        with pytest.raises(ValueError, match=r"e\.csv:\d+: .*'1,x'"):
            read_events_csv(path, meta)

    assert _read_peak(read) < 4 * os.path.getsize(path)


def test_event_csv_quoted_read_peak_memory_is_a_few_file_sizes(tmp_path):
    path, meta = _d40_event_csv(tmp_path)
    want = read_events_csv(path, meta)
    quoted = tmp_path / "q.csv"
    quoted.write_bytes(re.sub(rb"([^,\r\n]+)", rb'"\1"', Path(path).read_bytes()))
    back = read_events_csv(str(quoted), meta)
    for x, y in zip(back.events, want.events):
        assert x.tobytes() == y.tobytes()
    assert _read_peak(lambda: read_events_csv(str(quoted), meta)) < 4 * quoted.stat().st_size


def _write_with_row(tmp_path, row):
    log = manual_log(2, [[0.7], []])  # window [-1, 10]
    path, meta = str(tmp_path / "e.csv"), str(tmp_path / "e.meta.json")
    write_events_csv(log, path, meta)
    with open(path, "a", newline="") as f:
        f.write(row)
    return path, meta


@pytest.mark.parametrize("time", ["nan", "inf", "-inf", "1e400", "10.5", "-1.5"])
def test_event_csv_rejects_time_outside_window_naming_the_line(tmp_path, time):
    path, meta = _write_with_row(tmp_path, f"1,{time}\r\n")
    with pytest.raises(ValueError, match=r"e\.csv:3: .*time"):
        read_events_csv(path, meta)


@pytest.mark.parametrize("rows, line", [
    ("\r\n1,0.5\r\n", 3),   # a blank line inside the body
    ("1,0.5\r\n\r\n", 4),   # a blank line at the end
    ("\n", 3),
])
def test_event_csv_rejects_blank_line(tmp_path, rows, line):
    path, meta = _write_with_row(tmp_path, rows)
    with pytest.raises(ValueError, match=rf"e\.csv:{line}:"):
        read_events_csv(path, meta)


@pytest.mark.parametrize("field, value", [
    ("d", True), ("d", 1.5), ("d", 0),
    ("t_end", "50"), ("t_start", "-1"), ("t_end", float("nan")), ("t_end", float("inf")),
    ("t_start", float("-inf")), ("t_end", 10**400), ("t_start", 1.0), ("t_end", 0.0),
])
def test_event_csv_rejects_bad_side_car(tmp_path, field, value):
    path, meta = _write_with_row(tmp_path, "")
    with open(meta) as f:
        doc = json.load(f)
    doc[field] = value
    with open(meta, "w") as f:
        json.dump(doc, f)
    named = "d=" if field == "d" else "t_start <= 0 < t_end"
    with pytest.raises(ValueError, match=r"e\.meta\.json: .*" + named):
        read_events_csv(path, meta)


@pytest.mark.parametrize("simulate_fn", [simulate_thinning, simulate_cluster])
@pytest.mark.parametrize("T, burn_in", [
    (math.nan, 1.0), (math.inf, 1.0), (10.0, math.nan), (10.0, math.inf),
])
def test_simulators_reject_non_finite_horizon(simulate_fn, T, burn_in):
    with pytest.raises(ValueError, match="finite"):
        simulate_fn(poisson_params(), T=T, burn_in=burn_in, seed=0)


@pytest.mark.parametrize("beta, h, R", [
    (0.0, 0.5, 1.0), (-1.0, 0.5, 1.0), (math.nan, 0.5, 1.0), (math.inf, 0.5, 1.0),
    (1.0, math.nan, 1.0), (1.0, math.inf, 1.0), (1.0, 0.5, math.nan), (1.0, 0.5, math.inf),
])
def test_bin_and_clip_rejects_non_finite_or_non_positive_scales(beta, h, R):
    log = manual_log(1, [[0.1]], t_end=2.0)
    with pytest.raises(ValueError, match="finite"):
        bin_and_clip(log, beta=beta, h=h, R=R)
