import time

import numpy as np
import pytest

from hawkesnet.model import (
    HawkesParams,
    SparseInteractionMatrix,
    sample_random_instance,
    support_of,
)
from hawkesnet.moments import (
    c_path,
    population_screening_scores,
    screening_gap,
    stationary_covariance,
    stationary_mean,
)


def make_params(d, rows, mu, beta=1.0, k=None, alpha=1.0):
    rows = tuple(tuple(sorted(r)) for r in rows)
    if k is None:
        k = max((len(r) for r in rows), default=0) or 1
    w_hi = max((w for r in rows for _, w in r), default=1.0) / alpha
    w_lo = min((w for r in rows for _, w in r), default=1.0) / alpha
    return HawkesParams(
        mu=np.asarray(mu, dtype=float),
        theta=SparseInteractionMatrix(d=d, rows=rows),
        beta=beta, k=k, alpha=alpha, w_minus=w_lo, w_plus=w_hi,
    )


def random_instance(d, seed, alpha=0.2, k=2, beta=1.0):
    return sample_random_instance(d=d, k=k, alpha=alpha, w_minus=0.5, w_plus=1.0,
                                  mu_minus=0.5, mu_plus=1.5, beta=beta, seed=seed)


def dense_mean(params):
    theta = params.theta.to_dense()
    return np.linalg.solve(params.beta * np.eye(params.d) - theta, params.mu)


def dense_lyapunov(params, m):
    """Direct linear solve of the vectorized stationary covariance system."""
    d, beta = params.d, params.beta
    theta = params.theta.to_dense()
    eye = np.eye(d)
    A = 2.0 * beta * np.eye(d * d) - np.kron(theta, eye) - np.kron(eye, theta)
    rhs = np.diag(beta * m).ravel()
    return np.linalg.solve(A, rhs).reshape(d, d)


class TestStationaryMean:
    def test_zero_interaction(self):
        p = make_params(3, [(), (), ()], mu=[1.0, 2.0, 3.0], beta=2.0)
        assert np.allclose(stationary_mean(p), [0.5, 1.0, 1.5])

    def test_scalar_closed_form(self):
        p = make_params(1, [((0, 0.5),)], mu=[2.0], alpha=0.5)
        assert stationary_mean(p) == pytest.approx(4.0, abs=1e-10)

    def test_triangular_back_substitution(self):
        p = make_params(2, [(), ((0, 0.5),)], mu=[1.0, 1.0], alpha=0.5)
        assert np.allclose(stationary_mean(p), [1.0, 1.5], atol=1e-10)

    def test_matches_dense_solve(self):
        for seed in range(20):
            p = random_instance(d=8, seed=seed)
            assert np.max(np.abs(stationary_mean(p) - dense_mean(p))) < 1e-10

    def test_mean_bounds(self):
        for seed in range(10):
            p = random_instance(d=12, seed=seed, alpha=0.3)
            m = stationary_mean(p)
            gamma = p.gamma
            assert np.all(m >= 0.5 / p.beta - 1e-12)
            assert np.all(m <= 1.5 / (p.beta * (1 - gamma)) + 1e-12)

    @pytest.mark.parametrize("w", [1.0, 3.0])
    def test_rejects_gamma_at_or_above_one(self, w):
        # The linear solve alone would give m = mu / (beta - w): singular or
        # negative, where no stationary mean exists.
        p = make_params(1, [((0, w),)], mu=[1.0], alpha=1.0)
        with pytest.raises(ValueError, match="gamma < 1"):
            stationary_mean(p)


class TestStationaryCovariance:
    def test_rejects_gamma_at_or_above_one(self):
        # Without the check the fixed point diverges for all MAX_ITER sweeps.
        p = make_params(1, [((0, 3.0),)], mu=[1.0], alpha=1.0)
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="gamma < 1"):
            stationary_covariance(p, np.array([1.0]))
        assert time.perf_counter() - t0 < 1.0

    def test_zero_interaction_diagonal(self):
        p = make_params(3, [(), (), ()], mu=[1.0, 2.0, 4.0], beta=2.0)
        sigma = stationary_covariance(p, stationary_mean(p))
        assert np.allclose(sigma, np.diag([0.25, 0.5, 1.0]), atol=1e-11)

    def test_scalar_closed_form(self):
        # 2*beta*Sigma = 2*theta*Sigma + lambda_bar with lambda_bar = beta*m = 2
        p = make_params(1, [((0, 0.5),)], mu=[1.0], alpha=0.5)
        m = stationary_mean(p)
        sigma = stationary_covariance(p, m)
        assert sigma[0, 0] == pytest.approx(2.0, abs=1e-10)

    def test_matches_dense_solve(self):
        for seed in range(20):
            p = random_instance(d=6, seed=seed)
            m = stationary_mean(p)
            sigma = stationary_covariance(p, m)
            assert np.max(np.abs(sigma - dense_lyapunov(p, m))) < 1e-8

    def test_symmetric_psd(self):
        p = random_instance(d=10, seed=5)
        sigma = stationary_covariance(p, stationary_mean(p))
        assert np.allclose(sigma, sigma.T)
        assert np.min(np.linalg.eigvalsh(sigma)) > -1e-12

    def test_lyapunov_residual(self):
        p = random_instance(d=7, seed=9)
        m = stationary_mean(p)
        sigma = stationary_covariance(p, m)
        theta = p.theta.to_dense()
        resid = (2 * p.beta * sigma - theta @ sigma - sigma @ theta.T
                 - np.diag(p.beta * m))
        assert np.max(np.abs(resid)) < 1e-10

    def test_small_alpha_limit(self):
        # diagonal -> mu/(2 beta), off-diagonal -> 0 as alpha -> 0
        prev_off = np.inf
        prev_diag = np.inf
        for alpha in (0.1, 0.05, 0.01):
            p = sample_random_instance(d=6, k=2, alpha=alpha, w_minus=1.0,
                                       w_plus=1.0, mu_minus=1.0, mu_plus=1.0,
                                       beta=1.0, seed=4)
            sigma = stationary_covariance(p, stationary_mean(p))
            off = np.max(np.abs(sigma - np.diag(np.diag(sigma))))
            diag_err = np.max(np.abs(np.diag(sigma) - p.mu / (2 * p.beta)))
            assert off < prev_off
            assert diag_err < prev_diag
            prev_off, prev_diag = off, diag_err


class TestScreeningScores:
    def test_empty_row_is_zero(self):
        p = make_params(3, [(), ((0, 0.2),), ()], mu=[1.0, 1.0, 1.0], alpha=0.2)
        sigma = stationary_covariance(p, stationary_mean(p))
        G = population_screening_scores(p, sigma)
        assert np.allclose(G[0], 0.0) and np.allclose(G[2], 0.0)
        assert G[1, 0] > 0

    def test_scalar_self_loop(self):
        p = make_params(1, [((0, 0.5),)], mu=[1.0], alpha=0.5)
        sigma = stationary_covariance(p, stationary_mean(p))
        G = population_screening_scores(p, sigma)
        assert G[0, 0] == pytest.approx(0.5 * sigma[0, 0], abs=1e-12)

    def test_parent_scores_near_first_order(self):
        # G_ij ~ (mu_j / 2 beta) theta_ij for parents at weak coupling
        p = sample_random_instance(d=5, k=1, alpha=0.05, w_minus=1.0, w_plus=1.0,
                                   mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=2)
        sigma = stationary_covariance(p, stationary_mean(p))
        G = population_screening_scores(p, sigma)
        for i, row in enumerate(p.theta.rows):
            for j, w in row:
                approx = p.mu[j] / (2 * p.beta) * w
                assert abs(G[i, j] - approx) < 10 * p.alpha**2

    def test_gap_conventions(self):
        p = make_params(1, [((0, 0.5),)], mu=[1.0], alpha=0.5)
        sigma = stationary_covariance(p, stationary_mean(p))
        G = population_screening_scores(p, sigma)
        gaps = screening_gap(G, support_of(p))
        assert gaps[0] == pytest.approx(G[0, 0])  # no non-parents
        p2 = make_params(2, [(), ((0, 0.2),)], mu=[1.0, 1.0], alpha=0.2)
        sigma2 = stationary_covariance(p2, stationary_mean(p2))
        gaps2 = screening_gap(population_screening_scores(p2, sigma2), support_of(p2))
        assert gaps2[0] is None
        assert gaps2[1] is not None

    def test_weak_alpha_gap_exceeds_linear_scale(self):
        alpha = 0.02
        p = sample_random_instance(d=10, k=2, alpha=alpha, w_minus=1.0, w_plus=1.0,
                                   mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=6)
        sigma = stationary_covariance(p, stationary_mean(p))
        gaps = screening_gap(population_screening_scores(p, sigma), support_of(p))
        floor = 1.0 * 1.0 / (4 * 1.0) * alpha  # mu_- w_- alpha / (4 beta)
        for g in gaps:
            assert g is not None and g >= floor


class TestCPath:
    def test_values(self):
        assert c_path(1, 1.0, 1.0) == pytest.approx(1.5)
        assert c_path(2, 1.0, 1.0) == pytest.approx(5.0)  # 2^2 * 1 + 2 / 2
        assert c_path(0, 1.0, 1.0) == 0.0

    def test_scaling_in_beta(self):
        assert c_path(3, 2.0, 2.0) == pytest.approx((3 * 2 / 2) ** 2 + 3 * 2 / 4)
