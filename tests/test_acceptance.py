"""End-to-end acceptance suite.

Each test covers one numbered acceptance criterion and emits a single
PASS/FAIL line.  Criteria are checked at their stated tolerances and
time budgets; statistical checks run on fixed seeds so the suite is
deterministic.  The horizon T of each statistical check is sized from
the estimator's own noise level, as predicted by the stationary moment
oracles, so that the check's success rate is met with margin; horizons
are not chosen by trying seeds.
"""

import math
import time
from pathlib import Path

import numpy as np

from hawkesnet.cli import main as cli_main
from hawkesnet.estimator import (
    EstimatorConfig,
    evaluate,
    local_least_squares,
    recover,
    screening_scores,
)
from hawkesnet.fano import FanoInputs, critical_time, fano_error_floor
from hawkesnet.model import (
    HawkesParams,
    SparseInteractionMatrix,
    build_subclass_instance,
    params_to_json,
    sample_random_instance,
    support_of,
)
from hawkesnet.moments import stationary_covariance, stationary_mean
from hawkesnet.seeding import mix64
from hawkesnet.simulate import BinnedSample, bin_and_clip, simulate_cluster, simulate_thinning
from hawkesnet.sweep import SweepSpec, estimate_threshold_time, fit_log_scaling


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _random_instance(d, seed, alpha=0.2, k=2, beta=1.0):
    return sample_random_instance(
        d=d, k=k, alpha=alpha, w_minus=0.5, w_plus=1.0,
        mu_minus=0.5, mu_plus=1.5, beta=beta, seed=seed,
    )


def test_criterion_1_moment_oracle_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_mean = worst_cov = 0.0
    for trial in range(100):
        d = int(rng.integers(2, 7))
        p = _random_instance(d=d, seed=int(rng.integers(0, 2**31)))
        theta = p.theta.to_dense()
        m = stationary_mean(p)
        m_ref = np.linalg.solve(p.beta * np.eye(d) - theta, p.mu)
        worst_mean = max(worst_mean, float(np.max(np.abs(m - m_ref))))
        sigma = stationary_covariance(p, m)
        eye = np.eye(d)
        A = (2.0 * p.beta * np.eye(d * d)
             - np.kron(theta, eye) - np.kron(eye, theta))
        sigma_ref = np.linalg.solve(A, np.diag(p.beta * m).ravel()).reshape(d, d)
        worst_cov = max(worst_cov, float(np.max(np.abs(sigma - sigma_ref))))
    elapsed = time.perf_counter() - t0
    ok = worst_mean < 1e-8 and worst_cov < 1e-8 and elapsed < 1.0
    _report(1, ok, f"mean err {worst_mean:.2e}, cov err {worst_cov:.2e}, "
                   f"{elapsed:.2f}s (budget 1s)")


def test_criterion_2_simulator_vs_theory():
    t0 = time.perf_counter()
    worst_z = 0.0
    for trial in range(20):
        p = _random_instance(d=4 + trial % 7, seed=mix64(202, trial), alpha=0.25)
        assert p.gamma <= 0.6
        T = 2000.0 / p.beta
        log = simulate_cluster(p, T=T, seed=mix64(203, trial))
        counts = log.observed_counts()
        m = stationary_mean(p)
        lam = p.beta * m
        K = p.theta.to_dense() / p.beta
        inv = np.linalg.inv(np.eye(p.d) - K)
        var_rate = np.diag(inv @ np.diag(lam) @ inv.T)
        z = np.abs(counts - lam * T) / np.sqrt(var_rate * T)
        worst_z = max(worst_z, float(z.max()))
    # shot-noise variance check on a no-interaction instance
    mu = np.array([0.5, 1.0, 1.5])
    p0 = HawkesParams(
        mu=mu, theta=SparseInteractionMatrix(d=3, rows=((), (), ())),
        beta=1.0, k=0, alpha=0.1, w_minus=1.0, w_plus=1.0,
    )
    log0 = simulate_cluster(p0, T=20000.0, seed=42)
    s = bin_and_clip(log0, beta=1.0, h=1.0, R=1e9)
    var_emp = s.Z.var(axis=0)
    var_rel = np.abs(var_emp - mu / 2.0) / (mu / 2.0)
    elapsed = time.perf_counter() - t0
    ok = worst_z < 3.0 and float(var_rel.max()) < 0.05 and elapsed < 120.0
    _report(2, ok, f"max rate z {worst_z:.2f} (limit 3), "
                   f"max Var(X) rel err {float(var_rel.max()):.3f} (limit 0.05), "
                   f"{elapsed:.1f}s (budget 120s)")


def test_criterion_3_thinning_vs_cluster():
    t0 = time.perf_counter()
    trials = 200
    worst_z = 0.0
    for inst in range(5):
        p = _random_instance(d=4, seed=mix64(301, inst), alpha=0.25)
        T = 50.0
        a = np.array([simulate_thinning(p, T=T, seed=mix64(302, inst, t)).observed_counts()
                      for t in range(trials)], dtype=float)
        b = np.array([simulate_cluster(p, T=T, seed=mix64(303, inst, t)).observed_counts()
                      for t in range(trials)], dtype=float)
        se = np.sqrt(a.var(axis=0) / trials + b.var(axis=0) / trials)
        z = np.abs(a.mean(axis=0) - b.mean(axis=0)) / se
        worst_z = max(worst_z, float(z.max()))
    elapsed = time.perf_counter() - t0
    ok = worst_z < 3.0 and elapsed < 120.0
    _report(3, ok, f"max mean-count z {worst_z:.2f} (limit 3), "
                   f"{elapsed:.1f}s (budget 120s)")


def test_criterion_4_estimator_unit_oracle():
    rng = np.random.default_rng(404)
    worst_ls = worst_scr = 0.0
    for _ in range(1000):
        n = int(rng.integers(12, 51))
        d = int(rng.integers(2, 10))
        Z = rng.random((n, d))
        Y = (rng.random((n, d)) < 0.4).astype(np.uint8)
        sample = BinnedSample(n=n, h=0.1, R=1.0, Z=Z, Y=Y)
        c_size = int(rng.integers(1, min(9, d) + 1))
        C = list(rng.choice(d, size=c_size, replace=False))
        i = int(rng.integers(0, d))
        coeffs = local_least_squares(sample, i, C)
        Zc = Z[:, C] - Z[:, C].mean(axis=0)
        yc = Y[:, i].astype(float) - Y[:, i].mean()
        ref = np.linalg.solve(Zc.T @ Zc, Zc.T @ yc)
        worst_ls = max(worst_ls, float(np.max(np.abs(coeffs - ref))))
        F = screening_scores(sample)
        # direct two-pass covariance
        ref_F = np.empty((d, d))
        for a in range(d):
            for b in range(d):
                ya = Y[:, a].astype(float)
                ref_F[a, b] = np.mean((ya - ya.mean()) * (Z[:, b] - Z[:, b].mean()))
        worst_scr = max(worst_scr, float(np.max(np.abs(F - ref_F))))
    ok = worst_ls < 1e-10 and worst_scr < 1e-12
    _report(4, ok, f"least-squares err {worst_ls:.2e} (limit 1e-10), "
                   f"screening err {worst_scr:.2e} (limit 1e-12)")


def _planted():
    return build_subclass_instance(
        d=15, k=1, i_star=0, S=[7], theta_minus=0.2,
        mu_bar=1.0, mu_bar_star=1.0, beta=1.0,
    )


def test_criterion_5_screening_gap_realized():
    p = _planted()
    cfg = EstimatorConfig.auto(alpha=0.2, w_minus=1.0, k=1)
    parents = support_of(p).rows[0]
    hits = 0
    trials = 50
    # stationary_moments gives lambda_bar_0 = 1.2 and Sigma_jj = Sigma_77
    # = 0.5 for this instance.  A null score has sd
    # h*sqrt(Sigma_jj*lambda_bar_0/T) and the parent leads by
    # z = theta*sqrt(Sigma_77*T/lambda_bar_0) sds, so P(parent beats all
    # 14) = int phi(x - z) Phi(x)^14 dx: 0.78 at T=400, 0.954 at T=800,
    # 0.98 at T=1000, where 45/50 fails by chance with probability 5e-4.
    for t in range(trials):
        log = simulate_cluster(p, T=1000.0, seed=mix64(505, t))
        sample = bin_and_clip(log, p.beta, cfg.h, cfg.R)
        F = screening_scores(sample)[0]
        par = min(F[j] for j in parents)
        non = max(F[j] for j in range(p.d) if j not in parents)
        if par > non:
            hits += 1
    ok = hits >= int(math.ceil(0.9 * trials))
    _report(5, ok, f"parent/non-parent separation in {hits}/{trials} trials "
                   f"(need >= 45)")


def test_criterion_6_exact_recovery_achievability():
    t0 = time.perf_counter()
    p = _planted()
    cfg = EstimatorConfig.auto(alpha=0.2, w_minus=1.0, k=1)
    truth = support_of(p)
    trials = 50

    def rate(T, tag):
        wins = 0
        for t in range(trials):
            log = simulate_cluster(p, T=T, seed=mix64(tag, t))
            sample = bin_and_clip(log, p.beta, cfg.h, cfg.R)
            if evaluate(recover(sample, cfg), truth).exact:
                wins += 1
        return wins / trials

    # A null coefficient has sd sigma = h*sqrt(lambda_bar/(T*Sigma)), with
    # lambda_bar = 1 (1.2 in row 0) and Sigma = 0.5 from stationary_moments,
    # so tau/sigma = (theta/2)*sqrt(T*Sigma/lambda_bar), 2.0 at T=800.
    # Exact recovery needs all ~210 null (row, source) coefficients below
    # tau and the parent's (mean h*theta = 2*tau) above it.  Predicted
    # rate: 0.007 at T=800, 0.978 at T=2800, 0.987 at T=3000.
    long_rate = rate(3000.0, 606)
    short_rate = rate(20.0, 607)
    elapsed = time.perf_counter() - t0
    ok = long_rate >= 0.9 and short_rate <= 0.2 and elapsed < 300.0
    _report(6, ok, f"exact-recovery rate {long_rate:.2f} at T=3000 (need >= 0.9), "
                   f"{short_rate:.2f} at T=20 (need <= 0.2), "
                   f"{elapsed:.1f}s (budget 300s)")


def test_criterion_7_log_d_scaling():
    t0 = time.perf_counter()
    spec = SweepSpec(
        d_values=(10, 20, 40, 80), trials=50, k=2, alpha=0.2,
        w_minus=1.0, w_plus=1.0, mu_minus=1.0, mu_plus=1.0, beta=1.0,
        base_seed=707, success_level=0.9, T_bracket=(500.0, 4000.0), jobs=2,
    )
    thresholds = [estimate_threshold_time(d, spec) for d in spec.d_values]
    fit = fit_log_scaling([(th.d, th.t_star) for th in thresholds])
    elapsed = time.perf_counter() - t0
    ok = fit.r2 >= 0.9 and fit.slope > 0 and elapsed < 900.0
    stars = ", ".join(f"T*({th.d})={th.t_star:.0f}" for th in thresholds)
    _report(7, ok, f"{stars}; slope {fit.slope:.1f}, R2 {fit.r2:.3f} "
                   f"(need R2 >= 0.9, slope > 0), {elapsed:.0f}s (budget 900s)")


def test_criterion_8_fano_calculator():
    t0 = time.perf_counter()
    base = dict(d=101, k=1, beta=1.0, mu_bar=1.0, mu_bar_star=1.0,
                theta_minus=0.5)
    floor0 = fano_error_floor(FanoInputs(T=0.0, **base))
    target_err = abs(floor0 - (1.0 - math.log(2) / math.log(100)))
    t_half = critical_time(FanoInputs(T=0.0, **base), 0.5)
    round_trip_err = abs(fano_error_floor(FanoInputs(T=t_half, **base)) - 0.5)
    grid = np.linspace(0.0, 50.0, 1000)
    floors = [fano_error_floor(FanoInputs(T=float(T), **base)) for T in grid]
    mono_T = all(a >= b for a, b in zip(floors, floors[1:]))
    ds = np.linspace(4, 4000, 1000).astype(int)
    floors_d = [fano_error_floor(FanoInputs(T=5.0, d=int(d), k=1, beta=1.0,
                                            mu_bar=1.0, mu_bar_star=1.0,
                                            theta_minus=0.5)) for d in ds]
    mono_d = all(a <= b for a, b in zip(floors_d, floors_d[1:]))
    nonneg = all(f >= 0.0 for f in floors + floors_d)
    elapsed = time.perf_counter() - t0
    ok = (target_err < 1e-12 and round_trip_err < 1e-12
          and mono_T and mono_d and nonneg and elapsed < 1.0)
    _report(8, ok, f"floor(0) err {target_err:.1e}, round-trip err "
                   f"{round_trip_err:.1e} (limits 1e-12), monotone in T: {mono_T}, "
                   f"in d: {mono_d}, {elapsed:.2f}s (budget 1s)")


def test_criterion_9_cli_determinism(tmp_path):
    params = _random_instance(d=5, seed=9, alpha=0.3, k=1)
    model = tmp_path / "model.json"
    model.write_text(params_to_json(params))

    def run_pipeline(tag):
        ev = str(tmp_path / f"ev_{tag}.csv")
        net = str(tmp_path / f"net_{tag}.json")
        assert cli_main(["simulate", "--model", str(model), "--T", "150",
                         "--seed", "3", "--method", "cluster", "--out", ev]) == 0
        assert cli_main(["recover", "--events", ev, "--beta", "1.0", "--auto",
                         "--alpha", "0.3", "--w-minus", "1.0", "--k", "1",
                         "--out", net]) == 0
        fano = str(tmp_path / f"fano_{tag}.csv")
        assert cli_main(["fano", "--d", "50", "--k", "2", "--beta", "1",
                         "--mu-bar", "1", "--mu-bar-star", "1",
                         "--theta-minus", "0.3", "--curve", "0:20:11",
                         "--out", fano]) == 0
        return (Path(ev).read_bytes(), Path(net).read_bytes(),
                Path(fano).read_bytes())

    same_pipeline = run_pipeline("a") == run_pipeline("b")

    spec = SweepSpec(
        d_values=(4,), trials=6, k=1, alpha=0.3, w_minus=1.0, w_plus=1.0,
        mu_minus=1.0, mu_plus=1.0, beta=1.0, base_seed=5, T_values=(30.0,),
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    sweeps = []
    for tag, jobs in (("s1", "1"), ("s2", "2"), ("s3", "1")):
        out = str(tmp_path / f"sweep_{tag}.csv")
        assert cli_main(["sweep", "--spec", str(spec_path), "--jobs", jobs,
                         "--out", out]) == 0
        sweeps.append(Path(out).read_bytes())
    same_sweep = sweeps[0] == sweeps[1] == sweeps[2]
    ok = same_pipeline and same_sweep
    _report(9, ok, f"repeat pipeline byte-identical: {same_pipeline}, "
                   f"sweep identical across jobs 1/2: {same_sweep}")
