import math

import numpy as np
import pytest

from hawkesnet.model import build_subclass_instance, sample_random_instance
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

    def test_events_sorted_within_window(self):
        p = sample_random_instance(d=4, k=1, alpha=0.3, w_minus=1.0, w_plus=1.0,
                                   mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=9)
        log = simulate_thinning(p, T=30.0, burn_in=10.0, seed=4)
        for ts in log.events:
            assert np.all(np.diff(ts) > 0)
            assert np.all((ts >= log.t_start) & (ts <= log.t_end))


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

    def test_rejects_window_shorter_than_bin(self):
        log = manual_log(1, [[0.1]], t_end=0.4)
        with pytest.raises(ValueError, match="shorter than one bin"):
            bin_and_clip(log, beta=1.0, h=0.5, R=1.0)


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
    assert open(path).read() == open(path2).read()


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
