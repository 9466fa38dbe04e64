import dataclasses
import json
import math
import os
import re
import subprocess
import sys
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
    BinnedSample,
    EventLog,
    bin_and_clip,
    read_events_csv,
    simulate_cluster,
    simulate_thinning,
    state_at,
    write_events_csv,
)
from hawkesnet.seeding import mix64

from compensator import ks_exp1_pvalue, rescaled_gaps


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


def test_event_log_rejects_descending_times():
    # Accepted once, this log then failed inside bin_and_clip(log, 1.0, 0.01,
    # 5.0) with an IndexError; a log of one chunk binned to wrong states.
    with pytest.raises(ValueError, match="node 0's event times do not ascend"):
        EventLog(d=1, events=(np.array([90.0, 5.0]),), t_start=0.0, t_end=100.0,
                 seed=0, method="cluster")


@pytest.mark.parametrize("times", [[5.0, np.nan, 7.0], [np.nan], [-0.5, 1.0], [1.0, 100.5]])
def test_event_log_rejects_nan_and_times_outside_the_window(times):
    with pytest.raises(ValueError, match="node 1's"):
        EventLog(d=2, events=(np.array([1.0]), np.array(times)), t_start=0.0,
                 t_end=100.0, seed=0, method="cluster")


def test_event_log_takes_ties_and_both_ends():
    log = manual_log(2, [[-1.0, 0.0, 0.0, 10.0], []])
    assert log.total_events() == 4


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

    def test_default_burn_in_matches_dense_reference(self):
        p = sample_random_instance(d=5, k=2, alpha=0.2, w_minus=0.5, w_plus=1.0,
                                   mu_minus=0.5, mu_plus=1.5, beta=1.0, seed=2)
        log = simulate_thinning(p, T=50.0, seed=1)
        assert log.t_start == -simulate.default_burn_in(p)
        _assert_matches_dense_reference(log, _dense_reference_thinning(p, 50.0, -log.t_start, 1))

    @pytest.mark.parametrize("d", [5, 40])
    def test_log_d_sweep_class_matches_dense_reference(self, d):
        # The instance class of acceptance criterion 7.
        p = sample_random_instance(d=d, k=2, alpha=0.2, w_minus=1.0, w_plus=1.0,
                                   mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=mix64(707, d))
        log = simulate_thinning(p, T=100.0, burn_in=20.0, seed=3)
        _assert_matches_dense_reference(log, _dense_reference_thinning(p, 100.0, 20.0, 3))

    def test_dense_reference_catches_a_wrong_scalar_excess(self, monkeypatch):
        # Column sums that understate theta make mu_total + S lag the dense
        # intensity, which the reference recomputes on each proposal.
        p = sample_random_instance(d=5, k=2, alpha=0.2, w_minus=1.0, w_plus=1.0,
                                   mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=mix64(707, 5))
        ref = _dense_reference_thinning(p, 100.0, 20.0, 3)
        column_sums = SparseInteractionMatrix.column_sums
        monkeypatch.setattr(SparseInteractionMatrix, "column_sums",
                            lambda self: 0.5 * column_sums(self))
        log = simulate_thinning(p, T=100.0, burn_in=20.0, seed=3)
        with pytest.raises(AssertionError):
            _assert_matches_dense_reference(log, ref)

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


def _assert_matches_dense_reference(log, ref):
    # The same nodes in the same order, and times equal up to rounding.
    assert log.total_events() > 0
    assert [ts.size for ts in log.events] == [want.size for want in ref]
    times, want = np.concatenate(log.events), np.concatenate(ref)
    nodes = np.repeat(np.arange(log.d), [want.size for want in ref])
    assert np.array_equal(nodes[np.argsort(times, kind="stable")],
                          nodes[np.argsort(want, kind="stable")])
    assert np.all(np.abs(times - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("d", [7, 40])
def test_thinning_node_descent_matches_dense_reference(d):
    # d not a power of two: the descent of the node tree crosses cells of
    # several sizes and stops short of the cells past the last node.
    for inst in range(2):
        p = sample_random_instance(d=d, k=2, alpha=0.3, w_minus=0.5, w_plus=1.0,
                                   mu_minus=0.5, mu_plus=1.5, beta=1.0, seed=mix64(53, d, inst))
        for trial in range(2):
            seed = mix64(54, d, inst, trial)
            log = simulate_thinning(p, T=200.0, burn_in=20.0, seed=seed)
            _assert_matches_dense_reference(log, _dense_reference_thinning(p, 200.0, 20.0, seed))


class _ScriptedGenerator:
    """A stand-in for numpy's Generator whose uniform draws come from a script.

    Every proposal is accepted (its first draw is 0), and every node draw
    lands exactly on a boundary of the cumulative intensities.
    """

    def __init__(self, node_draws):
        self._draws = iter([u for node_draw in node_draws for u in (0.0, node_draw)])

    def exponential(self, scale):
        return 0.5 * scale

    def random(self):
        return next(self._draws)

    uniform = random


def test_thinning_node_draw_on_a_boundary_picks_the_lower_node(monkeypatch):
    # Integer rates summing to 8 make every u * 8 with u = j / 8 exact, so the
    # draw equals a cumulative intensity; like searchsorted, the node is then
    # the first whose cumulative intensity reaches it.
    p = dataclasses.replace(poisson_params(d=7), mu=np.array([1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 1.0]))
    draws = [j / 8 for j in range(8)] * 4  # proposals every 1/16 over a window of 2
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _ScriptedGenerator(draws))
    log = simulate_thinning(p, T=1.0, burn_in=1.0, seed=0)
    ref = _dense_reference_thinning(p, 1.0, 1.0, 0)
    assert log.total_events() == len(draws)
    _assert_matches_dense_reference(log, ref)
    assert [ts.size for ts in log.events] == [8, 4, 8, 4, 4, 4, 0]


def _rescale_case():
    # The stored excess's decay factor falls by exp(-beta * (T + burn_in)) over
    # the run; four times the floor's logarithm makes it rescale several times.
    p = sample_random_instance(d=6, k=2, alpha=2.0, w_minus=0.5, w_plus=1.0,
                               mu_minus=0.5, mu_plus=1.5, beta=8.0, seed=mix64(55, 6))
    T, burn_in = 200.0, simulate.default_burn_in(p)
    assert p.beta * (T + burn_in) >= 4 * math.log(1 / simulate._RESCALE_BELOW)
    return p, T, burn_in


def test_thinning_rescale_of_the_stored_excess_matches_dense_reference():
    p, T, burn_in = _rescale_case()
    for seed in (1, 2):
        log = simulate_thinning(p, T=T, burn_in=burn_in, seed=seed)
        _assert_matches_dense_reference(log, _dense_reference_thinning(p, T, burn_in, seed))


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

    def test_cap_is_checked_before_drawing_root_times(self, monkeypatch):
        monkeypatch.setattr(simulate, "MAX_EVENTS", 1000)
        params = poisson_params(d=2)

        def run():
            with pytest.raises(simulate.SimulationCapError, match="exceeded 1000 events"):
                simulate_cluster(params, T=1e6, seed=0)

        assert _read_peak(run) < 100_000  # one node's 1e6 root times alone take 8 MB


@pytest.mark.parametrize("simulate_fn, burn_in", [
    # At 1e17 thinning's t += w is absorbed, and t stops moving; at 1e300 the
    # cluster construction's root count is too large for numpy's Poisson.
    (simulate_thinning, 1e17), (simulate_cluster, 1e300),
])
def test_window_above_twice_the_cap_is_refused_before_any_draw(monkeypatch, simulate_fn,
                                                                 burn_in):
    params = poisson_params(d=2)
    monkeypatch.setattr(simulate, "MAX_EVENTS", 10**5)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: pytest.fail("drew"))

    def run():
        with pytest.raises(simulate.SimulationCapError, match="exceeded 100000 events"):
            simulate_fn(params, T=10.0, burn_in=burn_in, seed=0)

    assert _read_peak(run) < 100_000


@pytest.mark.parametrize("simulate_fn, name", [
    (simulate_thinning, "thinning"), (simulate_cluster, "cluster simulation"),
])
def test_window_below_twice_the_cap_runs_to_the_cap(monkeypatch, simulate_fn, name):
    # About 1800 background events in the window, 1880 roots with the
    # cluster construction's extension: not refused, but over the cap.
    monkeypatch.setattr(simulate, "MAX_EVENTS", 1000)
    with pytest.raises(simulate.SimulationCapError, match=f"^{name} exceeded 1000 events"):
        simulate_fn(poisson_params(d=2), T=900.0, burn_in=0.0, seed=0)


def test_cluster_root_count_passing_the_cap_raises_before_its_times(monkeypatch):
    # A window the refusal lets run: node 0's roots are drawn, and node 1's
    # count passes the cap before its times are drawn.
    params, drawn = poisson_params(d=2), []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _RecordingGenerator(seed, drawn))
    monkeypatch.setattr(simulate, "MAX_EVENTS", 1000)
    with pytest.raises(simulate.SimulationCapError, match="exceeded 1000 events"):
        simulate_cluster(params, T=900.0, burn_in=0.0, seed=0)
    assert len(drawn) == 1 and drawn[0] <= 1000


def _masked_reference_cluster(params, T, burn_in=None, seed=0):
    """The cluster construction with one mask per node over each generation."""
    t_start, T = simulate._window(params, T, burn_in)
    rng = np.random.default_rng(seed)
    beta = params.beta
    t_lo = t_start - simulate.TAU_EXTEND_OVER_BETA / beta
    span = T - t_lo
    children_of = [[] for _ in range(params.d)]
    for i, row in enumerate(params.theta.rows):
        for j, w in row:
            children_of[j].append((i, w / beta))
    total = 0

    def count(n):
        nonlocal total
        total += n
        if total > simulate.MAX_EVENTS:
            raise simulate.SimulationCapError(f"exceeded {simulate.MAX_EVENTS} events")

    cur_times, cur_types = [], []
    for v in range(params.d):
        n_roots = rng.poisson(params.mu[v] * span)
        count(n_roots)
        cur_times.append(np.sort(t_lo + span * rng.uniform(size=n_roots)))
        cur_types.append(np.full(n_roots, v, dtype=np.int64))
    cur_times, cur_types = np.concatenate(cur_times), np.concatenate(cur_types)
    all_times, all_types = [], []
    while cur_times.size:
        all_times.append(cur_times)
        all_types.append(cur_types)
        next_times, next_types = [], []
        for j in range(params.d):
            parent_ts = cur_times[cur_types == j]
            if not children_of[j] or parent_ts.size == 0:
                continue
            for i, mean_count in children_of[j]:
                counts = rng.poisson(mean_count, size=parent_ts.size)
                n_children = int(counts.sum())
                if n_children == 0:
                    continue
                count(n_children)
                born = np.repeat(parent_ts, counts) + rng.exponential(1.0 / beta, size=n_children)
                born = born[born <= T]
                if born.size:
                    next_times.append(born)
                    next_types.append(np.full(born.size, i, dtype=np.int64))
        if not next_times:
            break
        cur_times, cur_types = np.concatenate(next_times), np.concatenate(next_types)
    times = np.concatenate(all_times) if all_times else np.empty(0)
    types = np.concatenate(all_types) if all_types else np.empty(0, dtype=np.int64)
    keep = times >= t_start
    times, types = times[keep], types[keep]
    return tuple(np.sort(times[types == v]) for v in range(params.d))


def _cluster_case(d, seed):
    return sample_random_instance(d=d, k=min(2, d), alpha=0.2, w_minus=1.0, w_plus=1.0,
                                  mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=seed)


# The node key is uint8 up to d = 256 and uint16 above.
@pytest.mark.parametrize("d", [1, 2, 255, 256, 257, 300])
def test_cluster_log_matches_masked_per_node_reference(d):
    params = _cluster_case(d, seed=d)
    T = 3000.0 / d if d > 2 else 500.0
    log = simulate_cluster(params, T=T, seed=d + 1)
    ref = _masked_reference_cluster(params, T=T, seed=d + 1)
    assert log.total_events() > 10 * d
    assert len(log.events) == d
    for ts, want in zip(log.events, ref):
        assert ts.dtype == want.dtype and ts.tobytes() == want.tobytes()


class _RecordingGenerator:
    """A numpy generator that records the size of each draw of event times."""

    def __init__(self, seed, drawn):
        self._rng, self.drawn = np.random.Generator(np.random.PCG64(seed)), drawn

    def poisson(self, lam, size=None):
        return self._rng.poisson(lam, size=size)

    def uniform(self, size):
        self.drawn.append(size)
        return self._rng.uniform(size=size)

    def exponential(self, scale, size):
        self.drawn.append(size)
        return self._rng.exponential(scale, size=size)


@pytest.mark.parametrize("d", [2, 257])
def test_cluster_cap_raises_before_the_draw_that_would_pass_it(monkeypatch, d):
    params = _cluster_case(d, seed=3)
    T = 3000.0 / d
    full = []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _RecordingGenerator(seed, full))
    simulate_cluster(params, T=T, seed=4)
    # A cap inside the children's draws: every root is drawn, then the run stops.
    cap = sum(full[:d]) + sum(full[d:]) // 2
    monkeypatch.setattr(simulate, "MAX_EVENTS", cap)
    drawn, ref_drawn = [], []
    for sim, sink in ((simulate_cluster, drawn), (_masked_reference_cluster, ref_drawn)):
        monkeypatch.setattr(np.random, "default_rng", lambda seed: _RecordingGenerator(seed, sink))
        with pytest.raises(simulate.SimulationCapError, match=f"exceeded {cap} events"):
            sim(params, T=T, seed=4)
    assert drawn == ref_drawn == full[:len(drawn)]
    assert sum(drawn) <= cap < sum(full[:len(drawn) + 1])


# Criterion 7's class at d = 20, T = 2000: about 66 k events a log. The seeds
# and the bound p > 1e-3 were fixed before the test first ran.
@pytest.mark.parametrize("simulate_fn", [simulate_thinning, simulate_cluster])
def test_time_rescaled_gaps_are_exp1(simulate_fn):
    params = sample_random_instance(d=20, k=2, alpha=0.2, w_minus=1.0, w_plus=1.0,
                                    mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=20)
    for seed in (1, 2):
        log = simulate_fn(params, T=2000.0, seed=seed)
        gaps = rescaled_gaps(log, params)
        assert gaps.size > 60_000
        assert ks_exp1_pvalue(gaps) > 1e-3, seed
    # The same log read with a wrong decay rate fails by far.
    assert ks_exp1_pvalue(rescaled_gaps(log, dataclasses.replace(params, beta=1.2))) < 1e-12


# One node with a self-loop at gamma = 0.8, T = 20000: about 10^5 gaps, most of
# them from a parent to its child, so the gaps show the offsets' rate, which
# weak edges among 20 nodes hide. The seeds and the bound p > 1e-3 were fixed
# before the test first ran.
@pytest.mark.parametrize("simulate_fn", [simulate_thinning, simulate_cluster])
def test_time_rescaled_gaps_of_a_strong_self_loop_are_exp1(simulate_fn):
    params = scalar_params(0.8)
    for seed in (1, 2):
        gaps = rescaled_gaps(simulate_fn(params, T=20000.0, seed=seed), params)
        assert gaps.size > 90_000
        assert ks_exp1_pvalue(gaps) > 1e-3, seed


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

    @pytest.mark.parametrize("beta, h, t_end", [
        pytest.param(1.0, 0.04, 4000.0, id="n-1e5"),
        pytest.param(1000.0, 1.0, 300.0, id="decay-underflows"),
        pytest.param(1e-6, 1.0, 1e5, id="beta-h-1e-6"),
        pytest.param(650.0, 1.0, 300.0, id="decay-tiny-normal"),
        pytest.param(720.0, 1.0, 300.0, id="decay-subnormal"),
        # The block scan's edges, at b = simulate._BLOCK = 16 rows a block,
        # whose ends are chained within groups of 16 blocks and then across
        # the groups of a chunk: at beta h = 1 a block end carries e^-16 to
        # the next and a group end e^-256 to the next group; at beta h = 40
        # a block end carries e^-640, and a group end's e^-10240 underflows
        # to 0; at beta h = 50 decay^16 = e^-800 underflows to 0, so no end
        # reaches the next block; and a last chunk of 15 rows (n = 4109),
        # padded to one block. n-1e5 and beta-h-1e-6 carry states through
        # every level.
        pytest.param(1.0, 1.0, 5000.0, id="block-ends-carry-e-16"),
        pytest.param(40.0, 1.0, 5000.0, id="group-ends-underflow"),
        pytest.param(50.0, 1.0, 5000.0, id="block-ends-underflow"),
        pytest.param(0.3, 1.0, 4109.5, id="last-chunk-of-15-rows"),
    ])
    def test_matches_sequential_recurrence(self, beta, h, t_end):
        rng = np.random.default_rng(11)
        log = manual_log(2, [np.sort(rng.uniform(-50.0, t_end, size=int(rate * t_end)))
                             for rate in (1.0, 3.0)], t_start=-50.0, t_end=t_end)
        decay = math.exp(-beta * h)
        assert (decay == 0.0) == (beta * h > 745)
        s = bin_and_clip(log, beta, h, R=1e300)
        grid = np.arange(s.n) * h
        for j, ts in enumerate(log.events):
            first = np.searchsorted(grid, ts)  # first grid point r*h >= ts
            kept = first < s.n
            pulses = np.zeros(s.n)
            np.add.at(pulses, first[kept], np.exp(-beta * (grid[first[kept]] - ts[kept])))
            want, x = [], 0.0
            for p in pulses.tolist():
                x = p + decay * x
                want.append(x)
            np.testing.assert_allclose(s.Z[:, j], want, rtol=1e-13, atol=0)

    def test_states_match_sequential_recurrence_where_a_product_ends_inside_a_column(self):
        # d = 64 takes the two-product layout; the states of each product's
        # block rows end partway down a node's column.
        d, beta, h, t_end = simulate._ONE_PRODUCT_BELOW_D, 0.5, 1.0, 5000.0
        blocks = -(-(simulate.CHUNK_BINS + 2) // simulate._BLOCK)  # in a chunk's column
        group = simulate._PRODUCT_BYTES // (8 * simulate._BLOCK)  # block rows per product
        assert group % blocks and d * blocks > 2 * group
        rng = np.random.default_rng(5)
        log = manual_log(d, [np.sort(rng.uniform(-50.0, t_end, size=rng.poisson(t_end)))
                             for _ in range(d)], t_start=-50.0, t_end=t_end)
        Z, _ = _dense_grid(log, beta, h, R=1e300)
        np.testing.assert_allclose(bin_and_clip(log, beta, h, R=1e300).Z, Z, rtol=1e-13, atol=0)

    def test_block_end_chain_is_seen_where_states_stay_normal(self):
        # At beta h = 20 a block end reaches the next block's end as decay^16 =
        # e^-320, and the states of one event stay normal for 36 grid points,
        # into a third block: a wrong block-end factor shows there.
        beta, h = 2000.0, 0.01
        log = manual_log(1, [[0.0]], t_start=-1.0, t_end=1.0)
        Z = bin_and_clip(log, beta, h, R=5.0).Z[:, 0]
        want, x, decay = [], 1.0, math.exp(-beta * h)
        while x >= np.finfo(float).tiny:
            want.append(x)
            x *= decay
        assert len(want) > 2 * simulate._BLOCK
        np.testing.assert_allclose(Z[:len(want)], want, rtol=1e-13, atol=0)
        assert Z[len(want):].max() < np.finfo(float).tiny

    def test_a_chunk_has_at_most_block_squared_ends_to_chain(self):
        # A chunk's column holds CHUNK_BINS + 2 rows; the ends of all its
        # blocks but the last are chained, in at most _BLOCK groups of _BLOCK.
        rows = simulate.CHUNK_BINS + 2
        assert -(-rows // simulate._BLOCK) - 1 <= simulate._BLOCK ** 2

    def test_huge_beta_bins_burn_in_events_without_overflow(self):
        # For an event 3 or 5 before its grid point, beta * gap overflows to
        # inf; its pulse, exp(-inf), is exactly 0.0. The suite turns the
        # overflow warning into an error.
        log = manual_log(1, [[-3.0, -1.0, 0.5, 1.0, 2.25]], t_start=-5.0, t_end=3.0)
        s = bin_and_clip(log, beta=1e308, h=0.5, R=5.0)
        assert s.Z[:, 0].tolist() == [0.0, 1.0, 1.0, 0.0, 0.0, 0.0]
        assert state_at(log, 1e308, 0, 2.0) == 0.0
        assert state_at(log, 1e308, 0, 1.0) == 1.0

    def test_empty_network_bins_without_a_solve(self):
        # d=0 leaves every chunk with no columns. A fresh process shows that
        # binning them neither fails nor leaves the process to crash on exit.
        code = ("from hawkesnet.simulate import EventLog, bin_and_clip\n"
                "s = bin_and_clip(EventLog(d=0, events=(), t_start=0.0, t_end=1.0,"
                " seed=0, method='cluster'), 1.0, 0.25, 1.0)\n"
                "assert s.Z.shape == s.Y.shape == (4, 0)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(simulate.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    def test_peak_memory_is_z_and_y_and_a_few_columns(self):
        # Binning holds one chunk; reading Z builds Z and Y from the chunks in
        # turn, with no copy of either (a copy of Z would add 8 MB).
        params = sample_random_instance(d=40, k=2, alpha=0.2, w_minus=1.0, w_plus=1.0,
                                        mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=4)
        log = simulate_cluster(params, T=1000.0, seed=5)
        peak = _read_peak(lambda: bin_and_clip(log, 1.0, 0.04, 5.0).Z)
        n, d = 25000, 40
        chunk = simulate.CHUNK_BINS * d * 8
        assert peak < n * d * (8 + 1) + 3 * chunk  # Z, Y, one chunk's buffers and events

    @pytest.mark.parametrize("d", [5, simulate._ONE_PRODUCT_BELOW_D])
    def test_statistics_of_a_log_and_of_its_arrays_agree(self, d):
        # n = 10000 grid points: three chunks, by either product route.
        params = sample_random_instance(d=d, k=2, alpha=0.2, w_minus=1.0, w_plus=1.0,
                                        mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=d)
        s = bin_and_clip(simulate_cluster(params, T=400.0, seed=1), 1.0, 0.04, 5.0)
        from_log, from_arrays = s.statistics, BinnedSample(s.n, s.h, s.R, s.Z, s.Y).statistics
        assert from_log.n == from_arrays.n == 10000
        assert np.array_equal(from_log.y_sum, from_arrays.y_sum)
        for got, want in ((from_log.z_sum, from_arrays.z_sum), (from_log.ytz, from_arrays.ytz),
                          (from_log.ztz, from_arrays.ztz)):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("n, z_shape, y_shape", [
        (2, (50, 3), (50, 3)), (500, (50, 3), (50, 3)), (50, (50, 3), (50, 2)),
        (50, (50,), (50,)),
    ])
    def test_arrays_that_are_not_both_n_by_d_are_refused(self, n, z_shape, y_shape):
        with pytest.raises(ValueError, match="Z and Y must both be n×d"):
            BinnedSample(n=n, h=0.1, R=1.0, Z=np.zeros(z_shape),
                         Y=np.zeros(y_shape, dtype=np.uint8))

    def test_n_and_d_do_not_bin_again(self, monkeypatch):
        passes = []
        chunks = simulate._binned_chunks
        monkeypatch.setattr(simulate, "_binned_chunks",
                            lambda *args: passes.append(1) or chunks(*args))
        log = manual_log(2, [[0.3, 0.9], [1.5]], t_end=3.0)
        s = bin_and_clip(log, beta=1.0, h=0.25, R=2.0)
        assert (s.n, s.d, s.statistics.n) == (12, 2, 12) and len(passes) == 1
        assert s.Z.shape == s.Y.shape == (12, 2) and len(passes) == 2
        assert s.Y.sum() == 3 and len(passes) == 2

    # d = 3 takes one product per chunk, d = 64 and 65 the two products.
    @pytest.mark.parametrize("n, d", [
        *(pytest.param(n, 3, id=str(n)) for n in (1, 4095, 4096, 4097, 2 * 4096 + 1)),
        *(pytest.param(4097, d, id=f"4097-d{d}") for d in
          (simulate._ONE_PRODUCT_BELOW_D, simulate._ONE_PRODUCT_BELOW_D + 1)),
    ])
    def test_statistics_across_chunk_edges_match_dense_reference(self, n, d):
        assert simulate.CHUNK_BINS == 4096
        h, beta, R = 0.17, 1.0, 5.0
        assert 4095 * h / h > 4095  # ceil(ts/h) would place it at grid point 4096
        edges = [s for s in (4096, 8192) if s < n]
        rng = np.random.default_rng(n)
        t_end = (n + 0.5) * h
        background = [rng.uniform(-5.0, t_end, size=rng.poisson(0.5 * (t_end + 5.0)))
                      for _ in range(d)]
        # Node 0: bursts that clip the state just before each chunk edge, where a
        # clipped carry would shrink the next chunk's states.
        burst = [(s - 1) * h - 0.001 * i for s in edges for i in range(1, 9)]
        # Node 1: events on the float grid points at and around each chunk start.
        on_grid = [r * h for s in [*edges, n] for r in (s - 1, s, s + 1)] + [0.0, h]
        # Node 2: burn-in events, one exactly at -h and one at 0.
        burn_in = [-4.0, -1.0, -h, 0.0]
        extras = (burst, on_grid, burn_in) + ([],) * (d - 3)
        events = [np.sort(np.concatenate([b, extra])) for b, extra in zip(background, extras)]
        log = manual_log(d, [ts[(ts >= -5.0) & (ts <= t_end)] for ts in events],
                         t_start=-5.0, t_end=t_end)
        s = bin_and_clip(log, beta, h, R)
        Z, Y = _dense_grid(log, beta, h, R)
        stats = s.statistics
        assert s.n == stats.n == n
        assert np.array_equal(stats.y_sum, Y.sum(axis=0))
        for got, want in ((stats.z_sum, Z.sum(axis=0)), (stats.ytz, Y.T @ Z),
                          (stats.ztz, Z.T @ Z)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        np.testing.assert_allclose(s.Z, Z, rtol=1e-13, atol=0)
        assert np.array_equal(s.Y, Y)
        if edges:
            assert Z[edges[0] - 1, 0] == R and Z[edges[0], 0] == R


def _dense_grid(log, beta, h, R):
    """Z and Y (as floats) by the sequential recursion over every grid point."""
    n = math.floor(log.t_end / h)
    grid = np.arange(n + 1) * h
    decay = math.exp(-beta * h)
    Z, Y = np.zeros((n, log.d)), np.zeros((n, log.d))
    for j, ts in enumerate(log.events):
        first = np.searchsorted(grid, ts)  # first grid point r*h >= ts
        kept = first <= n
        pulses = np.zeros(n + 1)
        np.add.at(pulses, first[kept], np.exp(-beta * (grid[first[kept]] - ts[kept])))
        x = 0.0
        for r in range(n):
            x = pulses[r] + decay * x
            Z[r, j] = min(x, R)
        Y[first[(ts > 0.0) & kept] - 1, j] = 1.0
    return Z, Y


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


def test_event_csv_text_of_an_empty_log(tmp_path):
    path, meta = tmp_path / "e.csv", tmp_path / "e.meta.json"
    write_events_csv(manual_log(2, [[], []]), str(path), str(meta))
    assert path.read_bytes() == b"node,time\r\n"
    assert read_events_csv(str(path), str(meta)).total_events() == 0


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


def test_event_csv_write_peak_memory_is_the_columns_and_a_block(tmp_path):
    # The log's sorted columns take 24 bytes a row; the text and objects of a
    # block about 115, which over the whole file took the peak to 115 a row.
    params = sample_random_instance(d=40, k=2, alpha=0.2, w_minus=1.0, w_plus=1.0,
                                    mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=4)
    log = simulate_cluster(params, T=1000.0, seed=5)
    path, meta = str(tmp_path / "e.csv"), str(tmp_path / "e.meta.json")
    peak = _read_peak(lambda: write_events_csv(log, path, meta))
    n = log.total_events()
    assert n > 16 * simulate.CSV_BLOCK_ROWS
    assert peak < 24 * n + 2 * 115 * simulate.CSV_BLOCK_ROWS


def test_event_csv_read_peak_memory_is_a_few_file_sizes(tmp_path):
    # Parsed rows take 16 bytes and the file about 22 a row: the reader frees
    # the file's bytes before its sort by node, which holding them took to 2.8.
    path, meta = _d40_event_csv(tmp_path)
    assert _read_peak(lambda: read_events_csv(path, meta)) < 2.3 * os.path.getsize(path)


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


# The node key is uint8 up to d = 256 and uint16 above.
@pytest.mark.parametrize("d", [256, 257, 300])
def test_event_csv_read_groups_shuffled_rows_like_an_int64_lexsort(tmp_path, d):
    rng = np.random.default_rng(d)
    nodes = rng.integers(0, d, 20 * d)
    nodes[:2 * d] = np.arange(2 * d) % d  # every node, the last ones included
    # Times from a small set: equal times on different nodes and on one node.
    times = rng.choice(np.linspace(-1.0, 10.0, 4 * d), size=nodes.size)
    path, meta = str(tmp_path / "e.csv"), str(tmp_path / "e.meta.json")
    write_events_csv(manual_log(d, [[]] * d), path, meta)
    with open(path, "a", newline="") as f:
        f.writelines(f"{j},{t!r}\r\n" for j, t in zip(nodes.tolist(), times.tolist()))
    back = read_events_csv(path, meta)
    order = np.lexsort((times, nodes))
    want = np.split(times[order], np.cumsum(np.bincount(nodes, minlength=d))[:-1])
    assert len(back.events) == d
    for got, ref in zip(back.events, want):
        assert got.tobytes() == ref.tobytes()


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
    with pytest.raises(ValueError, match=rf"e\.meta\.json: .*\b{field}\b"):
        read_events_csv(path, meta)


@pytest.mark.parametrize("simulate_fn", [simulate_thinning, simulate_cluster])
@pytest.mark.parametrize("T, burn_in", [
    (math.nan, 1.0), (math.inf, 1.0), (10.0, math.nan), (10.0, math.inf),
])
def test_simulators_reject_non_finite_horizon(simulate_fn, T, burn_in):
    with pytest.raises(ValueError, match="finite"):
        simulate_fn(poisson_params(), T=T, burn_in=burn_in, seed=0)


@pytest.mark.parametrize("t_end", [1e308, 1e12])
def test_bin_and_clip_refuses_a_grid_above_the_cap_before_allocating(t_end):
    # At 1e12 the chunk bounds alone would take 20 GiB; at 1e308 T/h is infinite.
    log = manual_log(3, [[0.1], [], [2.0]], t_end=t_end)

    def run():
        with pytest.raises(ValueError, match="MAX_GRID_CELLS"):
            bin_and_clip(log, beta=1.0, h=0.04, R=5.0)

    assert _read_peak(run) < 100_000


@pytest.mark.parametrize("beta, h, R", [
    (0.0, 0.5, 1.0), (-1.0, 0.5, 1.0), (math.nan, 0.5, 1.0), (math.inf, 0.5, 1.0),
    (1.0, math.nan, 1.0), (1.0, math.inf, 1.0), (1.0, 0.5, math.nan), (1.0, 0.5, math.inf),
])
def test_bin_and_clip_rejects_non_finite_or_non_positive_scales(beta, h, R):
    log = manual_log(1, [[0.1]], t_end=2.0)
    with pytest.raises(ValueError, match="finite"):
        bin_and_clip(log, beta=beta, h=h, R=R)
