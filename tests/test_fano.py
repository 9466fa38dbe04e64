import math

import numpy as np
import pytest

from hawkesnet import fano
from hawkesnet.fano import (
    FanoInputs,
    critical_time,
    fano_error_floor,
    kl_budget,
    log_n_choose_k,
)
from hawkesnet.model import build_subclass_instance
from hawkesnet.simulate import simulate_cluster

from compensator import log_likelihoods


def inputs(**overrides):
    base = dict(d=101, k=1, T=1.0, beta=1.0, mu_bar=1.0, mu_bar_star=1.0,
                theta_minus=0.5)
    base.update(overrides)
    return FanoInputs(**base)


class TestLogChoose:
    def test_small_exact(self):
        assert log_n_choose_k(5, 2) == pytest.approx(math.log(10), abs=1e-12)
        assert log_n_choose_k(4, 0) == 0.0
        assert log_n_choose_k(4, 4) == 0.0

    def test_large_stable(self):
        # Pascal recurrence as an independent check
        v = log_n_choose_k(500, 3)
        assert v == pytest.approx(math.log(500 * 499 * 498 / 6), rel=1e-12)

    def test_invalid(self):
        with pytest.raises(ValueError):
            log_n_choose_k(3, 4)

    @pytest.mark.parametrize("n, k", [
        (n, k) for n in (10, 10**3, 10**6, 10**9) for k in (1, 2, 3, 8, 64, n - 1) if k <= n
    ])
    def test_matches_exact_integer_to_1e_14(self, n, k):
        # A difference of lgamma values loses about 1e-16 * n of it: 1e-11 at n = 1e6.
        want = math.log(math.comb(n, k))
        assert abs(log_n_choose_k(n, k) - want) <= 1e-14 * want

    def test_half_of_a_billion(self):
        # k = n/2 takes no longer than k = 1; lgamma holds this value to about 1e-14.
        n = 10**9
        v = log_n_choose_k(n, n // 2)
        assert v == pytest.approx(
            math.lgamma(n + 1) - 2 * math.lgamma(n // 2 + 1), rel=1e-13)
        assert v == log_n_choose_k(n, n - n // 2)


class TestKlBudget:
    def test_hand_example(self):
        # theta_-^2/mu* * C_path(1,1,1) * T = 0.25 * 1.5 * 10 = 3.75
        assert kl_budget(inputs(T=10.0)) == pytest.approx(3.75, abs=1e-12)

    def test_linearity_in_time(self):
        a = kl_budget(inputs(T=3.0))
        b = kl_budget(inputs(T=6.0))
        assert b == pytest.approx(2 * a, abs=1e-12)

    def test_initial_state_offset(self):
        assert kl_budget(inputs(T=0.0, c_init_bound=0.7)) == pytest.approx(0.7)


class TestErrorFloor:
    def test_zero_time_value(self):
        # floor(0) = 1 - ln 2 / ln C(100, 1)
        expected = 1.0 - math.log(2) / math.log(100)
        assert fano_error_floor(inputs(T=0.0)) == pytest.approx(expected, abs=1e-12)

    def test_clamped_at_zero(self):
        assert fano_error_floor(inputs(T=1e6)) == 0.0

    def test_monotone_decreasing_in_time(self):
        vals = [fano_error_floor(inputs(T=t)) for t in (0.0, 1.0, 4.0, 10.0)]
        assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_increasing_in_dimension(self):
        lo = fano_error_floor(inputs(d=20, T=2.0))
        hi = fano_error_floor(inputs(d=2000, T=2.0))
        assert hi > lo


class TestCriticalTime:
    def test_round_trip(self):
        inp = inputs(k=2, theta_minus=0.3, T=0.0)
        target = 0.25
        t_star = critical_time(inp, target)
        back = fano_error_floor(inputs(k=2, theta_minus=0.3, T=t_star))
        assert back == pytest.approx(target, abs=1e-12)

    def test_rejects_out_of_range_target(self):
        inp = inputs(T=0.0)
        with pytest.raises(ValueError, match="not in"):
            critical_time(inp, 0.999)
        with pytest.raises(ValueError, match="not in"):
            critical_time(inp, 0.0)

    def test_scales_with_log_dimension(self):
        # T*(d) at fixed target should fit a k ln d law with high R^2
        k, target = 2, 0.5
        ds = [20, 40, 80, 160, 320, 640]
        ts = [
            critical_time(inputs(d=d, k=k, theta_minus=0.3, T=0.0), target)
            for d in ds
        ]
        x = np.log(ds)
        slope, intercept = np.polyfit(x, ts, 1)
        pred = slope * x + intercept
        ss_res = np.sum((ts - pred) ** 2)
        ss_tot = np.sum((ts - np.mean(ts)) ** 2)
        assert 1 - ss_res / ss_tot > 0.999
        # slope carries the k multiplier: doubling k roughly doubles it
        ts4 = [
            critical_time(inputs(d=d, k=4, theta_minus=0.2, T=0.0), target)
            for d in ds
        ]
        slope4, _ = np.polyfit(x, ts4, 1)
        rate2 = 0.3**2 * (2**2 + 1.0)  # theta^2 * C_path, mu=beta=1
        rate4 = 0.2**2 * (4**2 + 2.0)
        assert slope4 / slope == pytest.approx((4 / 2) * (rate2 / rate4), rel=0.02)


class TestValidation:
    def test_dimension_too_small(self):
        with pytest.raises(ValueError, match="k\\+2"):
            inputs(d=2, k=1)

    def test_supercritical(self):
        with pytest.raises(ValueError, match="subcriticality"):
            inputs(k=3, theta_minus=0.5)

    @pytest.mark.parametrize("field", [
        "T", "beta", "mu_bar", "mu_bar_star", "theta_minus", "c_init_bound",
    ])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_field(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            inputs(**{field: value})

    def test_negative_time(self):
        with pytest.raises(ValueError, match="nonnegative"):
            inputs(T=-1.0)


def test_log_likelihood_matches_quadrature():
    # Node 0 under parents {1, 2}: the closed-form integral against a
    # midpoint sum of the intensity with X summed over every event.
    params = build_subclass_instance(d=3, k=2, i_star=0, S=[1, 2], theta_minus=0.3,
                                     mu_bar=1.0, mu_bar_star=0.7, beta=2.0)
    log = simulate_cluster(params, 12.0, seed=3)
    grid = np.array([0.0, 5.0, 12.0])
    got = log_likelihoods(log, 0, [1, 2], 0.7, 0.3, 2.0, grid)

    def intensity(t):
        lam = np.full(t.size, 0.7)
        for j in (1, 2):
            lag = t[:, None] - log.events[j][None, :]
            lam += 0.3 * np.where(lag > 0, np.exp(-2.0 * np.maximum(lag, 0.0)), 0.0).sum(axis=1)
        return lam

    m = 240_000  # cells of 5e-5 whose edges include 5
    step = 12.0 / m
    mid = (np.arange(m) + 0.5) * step
    lam_mid = intensity(mid)
    t0 = log.events[0][log.events[0] > 0.0]
    for a, b, want_ll in zip(grid[:-1], grid[1:], got):
        inside = (mid > a) & (mid <= b)
        events = t0[(t0 > a) & (t0 <= b)]
        want = np.log(intensity(events)).sum() - lam_mid[inside].sum() * step
        # Each parent event in (a, b] moves the sum by at most theta * step.
        jumps = sum(np.count_nonzero((ts > a) & (ts <= b)) for ts in log.events[1:])
        assert 0 < jumps and abs(want_ll - want) <= 0.3 * step * jumps


class TestKLRate:
    """The simulated path KL rate between two parent sets against `_kl_rate`.

    Node i* = 0 of criterion 8's base class (k=1, theta_-=0.5, mu=mu*=beta=1)
    has parent set S = {1} or S' = {2}. Under S, node 0's log-likelihood ratio
    grows at the path KL rate E_S[lambda log(lambda/lambda') - lambda + lambda'],
    which the bound's rate must not undercut. It reads 0.079 against 0.375.
    """

    T = 20000.0
    BATCHES = 20
    INPUTS = inputs(d=3)

    @pytest.fixture(scope="class")
    def rate(self):
        params = build_subclass_instance(d=3, k=1, i_star=0, S=[1], theta_minus=0.5,
                                         mu_bar=1.0, mu_bar_star=1.0, beta=1.0)
        log = simulate_cluster(params, self.T, seed=8)
        grid = np.linspace(0.0, self.T, self.BATCHES + 1)
        ratio = (log_likelihoods(log, 0, [1], 1.0, 0.5, 1.0, grid)
                 - log_likelihoods(log, 0, [2], 1.0, 0.5, 1.0, grid))
        batch_rates = ratio / np.diff(grid)
        return batch_rates.mean(), batch_rates.std(ddof=1) / math.sqrt(self.BATCHES)

    @staticmethod
    def within(rate, bound):
        mean, stderr = rate
        return mean <= bound + 3.0 * stderr

    def test_bound_covers_the_simulated_rate(self, rate):
        assert fano._kl_rate(self.INPUTS) == pytest.approx(0.375)
        assert self.within(rate, fano._kl_rate(self.INPUTS))

    def test_check_fails_at_a_tenth_of_the_rate(self, rate):
        assert not self.within(rate, fano._kl_rate(self.INPUTS) / 10)
