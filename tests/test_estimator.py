import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkesnet import estimator, simulate
from hawkesnet.estimator import (
    GRAM_EPS_REL,
    EstimatorConfig,
    RecoveredNetwork,
    RowRecovery,
    evaluate,
    local_least_squares,
    network_to_json,
    recover,
    screening_scores,
    select_candidates,
    threshold_support,
)
from hawkesnet.model import (
    TrueSupport,
    build_subclass_instance,
    sample_random_instance,
    support_of,
)
from hawkesnet.seeding import mix64
from hawkesnet.simulate import BinnedSample, bin_and_clip, simulate_cluster


def make_sample(Z, Y, h=0.1, R=1.0):
    Z = np.asarray(Z, dtype=float)
    Y = np.asarray(Y, dtype=np.uint8)
    return BinnedSample(n=Z.shape[0], h=h, R=R, Z=Z, Y=Y)


class TestConfig:
    def test_auto_schedule(self):
        cfg = EstimatorConfig.auto(alpha=0.2, w_minus=0.5, k=2)
        assert cfg.h == pytest.approx(0.04)
        assert cfg.R == pytest.approx(5.0)
        assert cfg.m == 4
        assert cfg.tau == pytest.approx(0.2 * 0.5 * 0.04 / 2)

    def test_auto_clip_floor(self):
        assert EstimatorConfig.auto(alpha=2.0, w_minus=1.0, k=1).R == 1.0

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            EstimatorConfig(h=0.0, R=1.0, m=1, tau=0.1)
        with pytest.raises(ValueError):
            EstimatorConfig(h=0.1, R=1.0, m=0, tau=0.1)
        for m in (2.5, 2.0, True):
            with pytest.raises(ValueError, match="m must be an integer"):
                EstimatorConfig(h=0.1, R=1.0, m=m, tau=0.1)

    @pytest.mark.parametrize("field", ["h", "R", "tau"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_non_finite_or_non_positive_scale(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            EstimatorConfig(**{**dict(h=0.1, R=1.0, m=1, tau=0.1), field: value})

    @pytest.mark.parametrize("alpha, w_minus", [
        (math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (0.2, math.nan), (0.2, math.inf),
        (0.2, 0.0),
        (1e200, 1.0),  # finite, but h = alpha^2 overflows to inf
    ])
    def test_auto_rejects_non_finite_or_non_positive_inputs(self, alpha, w_minus):
        with pytest.raises(ValueError, match="positive and finite"):
            EstimatorConfig.auto(alpha=alpha, w_minus=w_minus, k=1)

    @pytest.mark.parametrize("k", [0, -3])
    def test_auto_rejects_k_below_one(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            EstimatorConfig.auto(alpha=0.2, w_minus=1.0, k=k)


class TestScreeningScores:
    def test_two_bin_hand_example(self):
        # Z_0 = (0, 1), Y_0 = (0, 1): Cov_n = 1/2 - 1/4 = 1/4
        s = make_sample([[0.0], [1.0]], [[0], [1]])
        F = screening_scores(s)
        assert F[0, 0] == pytest.approx(0.25)

    def test_constant_column_scores_zero(self):
        s = make_sample([[1.0, 0.0], [1.0, 1.0]], [[0, 1], [1, 0]])
        F = screening_scores(s)
        assert F[0, 0] == 0.0 and F[1, 0] == 0.0
        assert F[0, 1] == pytest.approx(0.25)
        assert F[1, 1] == pytest.approx(-0.25)

    def test_single_bin_rejected(self):
        s = make_sample([[1.0]], [[1]])
        with pytest.raises(ValueError, match="at least 2"):
            screening_scores(s)

    # d = 5 and 63 take one product per chunk, d = 64 and 65 the two products.
    @pytest.mark.parametrize("n, d", [
        *(pytest.param(n, 5, id=str(n)) for n in (2, 4095, 4096, 4097, 3 * 4096 + 1)),
        *(pytest.param(4097, d, id=f"4097-d{d}") for d in
          (simulate._ONE_PRODUCT_BELOW_D - 1, simulate._ONE_PRODUCT_BELOW_D,
           simulate._ONE_PRODUCT_BELOW_D + 1)),
    ])
    def test_blocked_product_matches_dense_reference(self, n, d):
        assert simulate.CHUNK_BINS == 4096
        rng = np.random.default_rng(n)
        Z = np.asfortranarray(rng.random((n, d)) * 3.0)
        Y = (rng.random((n, d)) < 0.2 + 0.1 * Z).astype(np.uint8, order="F")
        F = screening_scores(make_sample(Z, Y))
        Yf = Y.astype(float)
        ref = (Yf.T @ Z) / n - np.outer(Yf.mean(axis=0), Z.mean(axis=0))
        assert F.shape == (d, d) and F.dtype == np.float64
        assert np.max(np.abs(F - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_holds_no_n_by_d_float_copy(self):
        # d=40, T=1000 on the auto schedule (h = 0.04): n = 25000 bins.
        params = sample_random_instance(d=40, k=2, alpha=0.2, w_minus=1.0, w_plus=1.0,
                                        mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=4)
        log = simulate_cluster(params, T=1000.0, seed=5)
        sample = bin_and_clip(log, params.beta, 0.04, 5.0)
        tracemalloc.start()
        try:
            screening_scores(sample)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * sample.n * sample.d * 8


def test_binning_and_recovery_peak_does_not_grow_with_the_horizon():
    # d=40 on the auto schedule: n = 25000 bins at T=1000 and 100000 at T=4000,
    # where Z and Y alone would be 9 and 36 MB.
    params = sample_random_instance(d=40, k=2, alpha=0.2, w_minus=1.0, w_plus=1.0,
                                    mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=4)
    cfg = EstimatorConfig.auto(alpha=0.2, w_minus=1.0, k=2)
    peaks = []
    for T in (1000.0, 4000.0):
        log = simulate_cluster(params, T=T, seed=5)
        tracemalloc.start()
        try:
            recover(bin_and_clip(log, params.beta, cfg.h, cfg.R), cfg)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < simulate.CHUNK_BINS * params.d * 8


class TestSelectCandidates:
    def test_top_m_order(self):
        assert select_candidates(np.array([0.1, 0.5, 0.3]), 2) == (1, 2)

    def test_tie_prefers_smaller_index(self):
        assert select_candidates(np.array([0.5, 0.7, 0.5]), 2) == (1, 0)
        assert select_candidates(np.array([0.0, 0.0, 0.0]), 3) == (0, 1, 2)

    def test_m_exceeding_d_is_clamped(self):
        assert select_candidates(np.array([0.2, 0.1]), 5) == (0, 1)


class TestLocalLeastSquares:
    def test_hand_example_identity_gram(self):
        # centered Z has variance 1/4, Cov(Z, Y) = 1/8 -> coeff 0.5
        Z = np.array([[0.0], [1.0], [0.0], [1.0]])
        Y = np.array([[0], [1], [1], [1]], dtype=np.uint8)
        s = make_sample(Z, Y)
        coeffs = local_least_squares(s, 0, [0])
        assert coeffs[0] == pytest.approx(0.5)

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(0)
        Z = rng.random((50, 6))
        Y = (rng.random((50, 6)) < 0.3).astype(np.uint8)
        s = make_sample(Z, Y)
        C = [4, 1, 3]
        coeffs = local_least_squares(s, 2, C)
        Zc = Z[:, C] - Z[:, C].mean(axis=0)
        yc = Y[:, 2].astype(float) - Y[:, 2].mean()
        ref = np.linalg.lstsq(Zc, yc, rcond=None)[0]
        assert np.max(np.abs(coeffs - ref)) < 1e-10

    def test_duplicated_column_is_degenerate(self):
        rng = np.random.default_rng(1)
        z = rng.random(30)
        Z = np.column_stack([z, z])
        Y = (rng.random((30, 2)) < 0.5).astype(np.uint8)
        s = make_sample(Z, Y)
        assert local_least_squares(s, 0, [0, 1]) is None

    def test_constant_column_is_degenerate(self):
        Z = np.column_stack([np.ones(10), np.linspace(0, 1, 10)])
        Y = np.zeros((10, 2), dtype=np.uint8)
        s = make_sample(Z, Y)
        assert local_least_squares(s, 0, [0]) is None

    def test_too_few_bins_raises(self):
        s = make_sample(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ValueError, match="n >="):
            local_least_squares(s, 0, [0, 1, 2])


class TestThresholdSupport:
    def test_boundary_is_inclusive(self):
        assert threshold_support(np.array([0.1, 0.05, 0.2]), [3, 1, 0], 0.1) == {3, 0}

    def test_negative_coefficients_dropped(self):
        assert threshold_support(np.array([-0.5]), [0], 0.01) == frozenset()


def planted_sample(T, seed, theta_minus=0.25, d=8):
    params = build_subclass_instance(
        d=d, k=2, i_star=0, S=[1, d - 1], theta_minus=theta_minus,
        mu_bar=1.0, mu_bar_star=1.0, beta=1.0,
    )
    log = simulate_cluster(params, T=T, seed=seed)
    cfg = EstimatorConfig.auto(alpha=theta_minus, w_minus=1.0, k=2)
    return params, bin_and_clip(log, params.beta, cfg.h, cfg.R), cfg


class TestRecover:
    def test_deterministic(self):
        _, sample, cfg = planted_sample(T=200.0, seed=9)
        assert network_to_json(recover(sample, cfg)) == network_to_json(
            recover(sample, cfg)
        )

    def test_support_subset_of_candidates(self):
        _, sample, cfg = planted_sample(T=200.0, seed=4)
        net = recover(sample, cfg)
        for row in net.rows:
            assert row.support <= set(row.candidates)
            assert len(row.candidates) == cfg.m

    def test_planted_row_recovered_at_long_horizon(self):
        hits = 0
        trials = 10
        for t in range(trials):
            params, sample, cfg = planted_sample(T=3000.0, seed=mix64(21, t))
            net = recover(sample, cfg)
            if net.rows[0].support == support_of(params).rows[0]:
                hits += 1
        assert hits >= 9

    def test_null_network_rarely_fires(self):
        params = sample_random_instance(
            d=10, k=0, alpha=0.2, w_minus=1.0, w_plus=1.0,
            mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=0,
        )
        cfg = EstimatorConfig.auto(alpha=0.2, w_minus=1.0, k=2)
        bad = 0
        trials = 20
        for t in range(trials):
            log = simulate_cluster(params, T=2500.0, seed=mix64(33, t))
            sample = bin_and_clip(log, params.beta, cfg.h, cfg.R)
            net = recover(sample, cfg)
            if any(row.support for row in net.rows):
                bad += 1
        assert bad <= 2

    def test_sure_screening_and_coefficient_consistency(self):
        screened = 0
        rel_errs = []
        trials = 10
        for t in range(trials):
            params, sample, cfg = planted_sample(T=2500.0, seed=mix64(55, t))
            net = recover(sample, cfg)
            true_row = support_of(params).rows[0]
            row = net.rows[0]
            if true_row <= set(row.candidates):
                screened += 1
                idx = {j: p for p, j in enumerate(row.candidates)}
                target = 0.25 * cfg.h  # theta_ij * h to first order
                for j in true_row:
                    rel_errs.append(abs(row.coeffs[idx[j]] - target) / target)
        assert screened >= 9
        assert np.median(rel_errs) < 0.25


def _with_columns(sample, columns):
    Z = sample.Z.copy()
    for j, column in columns.items():
        Z[:, j] = column
    return BinnedSample(n=sample.n, h=sample.h, R=sample.R, Z=Z, Y=sample.Y)


def test_recover_matches_per_row_least_squares():
    # recover solves Cov(Z)[C, C] x = F[i, C]; row for row it must agree
    # with the centered least squares on the copied n x |C| block
    _, sample, cfg = planted_sample(T=400.0, seed=13)
    z1 = sample.Z[:, 1]
    cases = [
        sample,
        _with_columns(sample, {2: z1}),  # duplicated parent column
        _with_columns(sample, {3: np.full(sample.n, 0.7), 4: np.zeros(sample.n)}),
        _with_columns(sample, {5: np.full(sample.n, 0.7)}),
    ]
    configs = [cfg, EstimatorConfig(h=cfg.h, R=cfg.R, m=sample.d, tau=cfg.tau)]
    degenerate = 0
    for case in cases:
        F = screening_scores(case)
        for config in configs:
            net = recover(case, config)
            for i, row in enumerate(net.rows):
                C = select_candidates(F[i], config.m)
                ref = local_least_squares(case, i, C)
                assert row.candidates == C
                assert row.degenerate == (ref is None)
                if ref is None:
                    degenerate += 1
                    assert row.coeffs is None and row.support == frozenset()
                    continue
                assert np.max(np.abs(row.coeffs - ref)) < 1e-10
                assert row.support == threshold_support(ref, C, config.tau)
    assert degenerate > 0


def _per_row_reference(sample, config):
    """recover as one row at a time: lexsort candidates, one m x m solve each."""
    F = screening_scores(sample)
    stats = sample.statistics
    z_mean = stats.z_sum / stats.n
    cov = stats.ztz / stats.n - np.outer(z_mean, z_mean)
    rows = []
    for i in range(sample.d):
        order = np.lexsort((np.arange(sample.d), -F[i]))
        C = tuple(int(j) for j in order[:min(config.m, sample.d)])
        idx = np.array(C)
        gram, g = cov[np.ix_(idx, idx)], F[i, idx]
        coeffs = None
        if np.linalg.eigvalsh(gram)[0] > GRAM_EPS_REL * np.trace(gram) / len(g):
            L = np.linalg.cholesky(gram)
            coeffs = np.linalg.solve(L.T, np.linalg.solve(L, g))
        rows.append(RowRecovery(
            i=i, candidates=C, coeffs=coeffs,
            support=frozenset() if coeffs is None else threshold_support(coeffs, C, config.tau),
            degenerate=coeffs is None,
        ))
    return RecoveredNetwork(d=sample.d, rows=tuple(rows))


@pytest.fixture(scope="module")
def d40_samples():
    params = sample_random_instance(d=40, k=2, alpha=0.2, w_minus=1.0, w_plus=1.0,
                                    mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=21)
    cfg = EstimatorConfig.auto(alpha=0.2, w_minus=1.0, k=2)
    sample = bin_and_clip(simulate_cluster(params, T=400.0, seed=22), params.beta, cfg.h, cfg.R)
    # Copies of parent columns and a constant column: some rows, not all, degenerate.
    columns = {30: sample.Z[:, 3], 17: sample.Z[:, 11], 5: sample.Z[:, 25],
               8: np.full(sample.n, 0.7)}
    return cfg, sample, _with_columns(sample, columns)


@pytest.mark.parametrize("m, per_group", [(4, 16), (7, 9), (40, 13), (4, 1)])
def test_grouped_recover_matches_per_row_reference(monkeypatch, d40_samples, m, per_group):
    cfg, sample, modified = d40_samples
    config = replace(cfg, m=m)
    # The largest budget that still gives per_group rows a group.
    monkeypatch.setattr(estimator, "_GROUP_ENTRIES", (per_group + 1) * m * m - 1)
    groups = []
    solve = estimator._solve_gram
    monkeypatch.setattr(estimator, "_solve_gram", lambda gram, g: groups.append(len(g)) or solve(gram, g))
    for case in (sample, modified):
        net = recover(case, config)
        ref = _per_row_reference(case, config)
        assert network_to_json(net) == network_to_json(ref)
    assert groups == 2 * ([per_group] * (40 // per_group) + [40 % per_group] * (40 % per_group > 0))
    flags = [row.degenerate for row in net.rows]
    if m < 40:
        assert any(flags) and not all(flags)  # degenerate rows inside groups
    else:
        assert all(flags)


def test_recover_stacks_gram_blocks_within_the_budget_at_m_equal_to_d():
    # m = d = 200: one (d, m, m) stack of every row's Gram block would take 64 MB.
    d, n = 200, 400
    rng = np.random.default_rng(5)
    # Making the sample takes the grid sums, before the trace starts.
    sample = make_sample(rng.random((n, d)), rng.random((n, d)) < 0.3)
    config = EstimatorConfig(h=0.1, R=1.0, m=d, tau=0.01)
    tracemalloc.start()
    try:
        net = recover(sample, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not any(row.degenerate for row in net.rows)
    assert peak < 0.1 * d * d * d * 8


class TestEvaluate:
    def test_metrics_hand_example(self):
        _, sample, cfg = planted_sample(T=100.0, seed=2, d=4)
        net = recover(sample, cfg)
        truth = TrueSupport(d=4, rows=tuple(r.support for r in net.rows))
        m = evaluate(net, truth)
        assert m.exact and m.hamming == 0

    def test_counts(self):
        net = recover(planted_sample(T=100.0, seed=3, d=4)[1],
                      EstimatorConfig(h=0.0625, R=4.0, m=2, tau=1e9))
        # tau huge: everything empty
        truth = TrueSupport(d=4, rows=(frozenset({1}), frozenset(), frozenset(),
                                       frozenset({0, 2})))
        m = evaluate(net, truth)
        assert m.true_positives == 0
        assert m.false_negatives == 3
        assert m.hamming == 3
        assert m.row_correct == (False, True, True, False)

    def test_dimension_mismatch(self):
        net = recover(planted_sample(T=100.0, seed=3, d=4)[1],
                      EstimatorConfig(h=0.0625, R=4.0, m=2, tau=0.01))
        with pytest.raises(ValueError, match="mismatch"):
            evaluate(net, TrueSupport(d=5, rows=tuple(frozenset() for _ in range(5))))


def test_permutation_equivariance():
    params = sample_random_instance(
        d=6, k=1, alpha=0.3, w_minus=1.0, w_plus=1.0,
        mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=7,
    )
    cfg = EstimatorConfig.auto(alpha=0.3, w_minus=1.0, k=1)
    log = simulate_cluster(params, T=300.0, seed=5)
    sample = bin_and_clip(log, params.beta, cfg.h, cfg.R)
    pi = np.array([3, 0, 5, 1, 4, 2])
    permuted = BinnedSample(
        n=sample.n, h=sample.h, R=sample.R,
        Z=sample.Z[:, np.argsort(pi)].copy(), Y=sample.Y[:, np.argsort(pi)].copy(),
    )
    a = recover(sample, cfg)
    b = recover(permuted, cfg)
    for i in range(6):
        assert b.rows[pi[i]].support == frozenset(pi[j] for j in a.rows[i].support)


@settings(max_examples=12, deadline=None)
@given(d=st.sampled_from([5, 10, 20, 40]), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_recover_is_permutation_equivariant_on_a_relabelled_log(d, seed, data):
    # Node v of the log becomes node pi[v]; the events themselves are not redrawn.
    params = sample_random_instance(
        d=d, k=2, alpha=0.2, w_minus=1.0, w_plus=1.0,
        mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=seed,
    )
    cfg = EstimatorConfig.auto(alpha=0.2, w_minus=1.0, k=2)
    log = simulate_cluster(params, T=300.0, seed=seed)
    pi = data.draw(st.permutations(range(d)))
    relabelled = replace(log, events=tuple(log.events[v] for v in np.argsort(pi)))
    a = recover(bin_and_clip(log, params.beta, cfg.h, cfg.R), cfg)
    b = recover(bin_and_clip(relabelled, params.beta, cfg.h, cfg.R), cfg)
    for i, row in enumerate(a.rows):
        other = b.rows[pi[i]]
        assert other.candidates == tuple(pi[j] for j in row.candidates)
        assert other.support == frozenset(pi[j] for j in row.support)
        assert other.degenerate == row.degenerate
        if row.coeffs is not None:
            scale = np.max(np.abs(row.coeffs))
            assert np.max(np.abs(other.coeffs - row.coeffs)) <= 1e-12 * scale
