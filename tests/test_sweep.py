import json
import math
from pathlib import Path

import numpy as np
import pytest

from hawkesnet import sweep
from hawkesnet.seeding import float_bits, mix64, trial_seed
from hawkesnet.sweep import (
    CellResult,
    SpecError,
    SweepSpec,
    estimate_threshold_time,
    fit_log_scaling,
    read_results_csv,
    run_cell,
    run_sweep,
    wilson_interval,
    write_results_csv,
)


def small_spec(**overrides):
    base = dict(
        d_values=(4,), trials=4, k=1, alpha=0.3, w_minus=1.0, w_plus=1.0,
        mu_minus=1.0, mu_plus=1.0, beta=1.0, base_seed=1, T_values=(30.0,),
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestWilson:
    def test_known_values(self):
        lo, hi = wilson_interval(8, 10)
        # reference values for 8/10 at z = 1.96
        assert lo == pytest.approx(0.4901, abs=5e-4)
        assert hi == pytest.approx(0.9433, abs=5e-4)

    def test_extremes_clamped(self):
        lo, hi = wilson_interval(0, 5)
        assert lo == 0.0 and 0 < hi < 1
        lo, hi = wilson_interval(5, 5)
        assert 0 < lo < 1 and hi == 1.0

    def test_contains_point_estimate(self):
        for s, n in [(3, 7), (1, 50), (49, 50)]:
            lo, hi = wilson_interval(s, n)
            assert lo <= s / n <= hi


class TestSeeding:
    def test_mix64_deterministic_and_sensitive(self):
        assert mix64(1, 2, 3) == mix64(1, 2, 3)
        assert mix64(1, 2, 3) != mix64(1, 2, 4)
        assert mix64(1, 2, 3) != mix64(1, 3, 2)

    def test_trial_seed_distinguishes_close_T(self):
        a = trial_seed(0, 10, 100.0, 0)
        b = trial_seed(0, 10, 100.00000000000001, 0)
        assert a != b

    def test_float_bits_round_trip_distinct(self):
        assert float_bits(1.5) != float_bits(-1.5)
        assert float_bits(0.1) == float_bits(0.1)


class TestSpec:
    def test_json_round_trip(self):
        spec = small_spec(T_values=(10.0, 20.0), jobs=2)
        assert SweepSpec.from_json(spec.to_json()) == spec

    def test_rejects_bad_fields(self):
        with pytest.raises(SpecError):
            small_spec(trials=0)
        with pytest.raises(SpecError):
            small_spec(T_values=(20.0, 10.0))
        with pytest.raises(SpecError):
            small_spec(alpha=0.9, k=2)
        with pytest.raises(SpecError):
            SweepSpec.from_json('{"d_values": [4], "trials": 1}')
        for field, value in [("trials", 1.5), ("d_values", (4.5,)), ("k", 1.5), ("jobs", 1.5),
                             ("trials", True), ("base_seed", 1.5)]:
            with pytest.raises(SpecError, match=f"{field} must be an integer"):
                small_spec(**{field: value})
        for field in ("alpha", "w_minus", "w_plus", "mu_minus", "mu_plus", "beta"):
            for value in (math.nan, math.inf, 0.0, "1"):
                with pytest.raises(SpecError,
                                   match=f"{field} must be (a number|positive and finite)"):
                    small_spec(**{field: value})
        with pytest.raises(SpecError, match="w_minus must not exceed w_plus"):
            small_spec(w_minus=2.0)
        with pytest.raises(SpecError, match="mu_minus must not exceed mu_plus"):
            small_spec(mu_minus=2.0)

    @pytest.mark.parametrize("field, value, message", [
        pytest.param("beta", 10**400, "beta is too large for a float", id="beta-401-digits"),
        ("T_bracket", [None, None], "T_bracket must be a number"),
        ("T_bracket", [400.0, 25.0], "T_bracket must be ascending"),
        ("T_bracket", [25.0], "T_bracket must be two numbers"),
        ("T_bracket", [0.0, 400.0], "T_bracket must be positive and finite"),
        ("T_bracket", [25.0, math.inf], "T_bracket must be positive and finite"),
        ("k", 0, "k must be >= 1"),
    ])
    def test_from_json_rejects_bad_number(self, field, value, message):
        doc = json.loads(small_spec().to_json())
        doc[field] = value
        with pytest.raises(SpecError, match=message):
            SweepSpec.from_json(json.dumps(doc))

    def test_stock_spec_file_is_criterion_7(self):
        text = (Path(__file__).resolve().parent.parent / "sweep_default.json").read_text()
        assert SweepSpec.from_json(text) == SweepSpec(
            d_values=(10, 20, 40, 80), trials=50, k=2, alpha=0.2,
            w_minus=1.0, w_plus=1.0, mu_minus=1.0, mu_plus=1.0, beta=1.0,
            base_seed=707, success_level=0.9, T_bracket=(500.0, 4000.0),
        )


class TestRunCell:
    def test_deterministic(self):
        spec = small_spec()
        a = run_cell(4, 30.0, spec)
        b = run_cell(4, 30.0, spec)
        assert a == b

    def test_parallel_matches_serial(self):
        serial = run_cell(4, 30.0, small_spec(trials=6))
        parallel = run_cell(4, 30.0, small_spec(trials=6, jobs=2))
        assert serial == parallel

    @pytest.mark.parametrize("jobs, trials, cpus, workers", [
        (100000, 100000, 2, 2),
        (100000, 100000, None, None),
        (100000, 9, 64, 3),
        (3, 100000, 64, 3),
        (8, 4, 64, None),
    ])
    def test_pool_workers_are_capped(self, monkeypatch, jobs, trials, cpus, workers):
        # The pool forks every worker up front: no more than the CPUs or
        # the chunks of TRIALS_PER_TASK trials; one worker runs inline.
        started = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args, chunksize):
                assert chunksize == sweep.TRIALS_PER_TASK
                return [False for _ in args]

        monkeypatch.setattr(sweep, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(sweep, "run_trial", lambda *args: False)
        cell = run_cell(4, 30.0, small_spec(trials=trials, jobs=jobs))
        assert (cell.trials, cell.successes) == (trials, 0)
        assert started == ([] if workers is None else [workers])

    def test_seed_changes_outcome_stream(self):
        # same structure, different base seed: allowed to differ
        a = run_cell(4, 30.0, small_spec(trials=8, base_seed=1))
        b = run_cell(4, 30.0, small_spec(trials=8, base_seed=2))
        assert (a.trials, a.d) == (b.trials, b.d)


class TestThresholdEstimation:
    @staticmethod
    def fake_rate_fn(t_star, trials=50):
        def fn(T):
            return CellResult(d=4, T=T, trials=trials,
                              successes=trials if T >= t_star else 0)
        return fn

    def test_step_function_bisection(self):
        spec = small_spec(T_bracket=(25.0, 400.0))
        est = estimate_threshold_time(4, spec, rate_fn=self.fake_rate_fn(70.0))
        assert est.t_lo < 70.0 <= est.t_hi
        assert (est.t_hi - est.t_lo) <= 0.1 * 0.5 * (est.t_hi + est.t_lo) + 1e-9
        assert abs(est.t_star - 70.0) < 0.05 * 70.0 + 1e-9
        assert not est.monotonicity_violated

    def test_bracket_expansion_up_and_down(self):
        spec = small_spec(T_bracket=(25.0, 30.0))
        est = estimate_threshold_time(4, spec, rate_fn=self.fake_rate_fn(900.0))
        assert est.t_lo < 900.0 <= est.t_hi
        spec = small_spec(T_bracket=(200.0, 400.0))
        est = estimate_threshold_time(4, spec, rate_fn=self.fake_rate_fn(5.0))
        assert est.t_lo < 5.0 <= est.t_hi

    def test_unreachable_level_raises(self):
        spec = small_spec()
        with pytest.raises(RuntimeError, match="never reached"):
            estimate_threshold_time(4, spec, rate_fn=self.fake_rate_fn(1e9))

    def test_nonmonotone_rates_trigger_rescan(self):
        # confidently above the level at small T, confidently below later;
        # both ends of the initial bracket get expanded and witness the dip
        def fn(T):
            up = 50 if (20.0 <= T <= 30.0 or T >= 1000.0) else 0
            return CellResult(d=4, T=T, trials=50, successes=up)

        spec = small_spec(T_bracket=(25.0, 400.0))
        est = estimate_threshold_time(4, spec, rate_fn=fn)
        assert est.monotonicity_violated

    def test_cells_recorded_sorted(self):
        spec = small_spec()
        est = estimate_threshold_time(4, spec, rate_fn=self.fake_rate_fn(70.0))
        ts = [c.T for c in est.cells]
        assert ts == sorted(ts)


class TestFit:
    def test_exact_line_recovered(self):
        pts = [(d, 3.0 * math.log(d) + 2.0) for d in (10, 20, 40, 80)]
        fit = fit_log_scaling(pts)
        assert fit.slope == pytest.approx(3.0, abs=1e-10)
        assert fit.intercept == pytest.approx(2.0, abs=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_needs_three_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            fit_log_scaling([(10, 1.0), (20, 2.0)])

    def test_needs_two_distinct_d(self):
        with pytest.raises(ValueError, match="at least 2 distinct d"):
            fit_log_scaling([(5, 1.0), (5, 2.0), (5, 3.0)])

    def test_noisy_line_r2(self):
        rng = np.random.default_rng(0)
        pts = [(d, 5.0 * math.log(d) + rng.normal(0, 0.01)) for d in
               (10, 20, 40, 80, 160)]
        fit = fit_log_scaling(pts)
        assert fit.r2 > 0.999


class TestRunSweep:
    def test_grid_mode(self):
        spec = small_spec(T_values=(10.0, 30.0), trials=3)
        res = run_sweep(spec)
        assert len(res.cells) == 2
        assert res.thresholds == () and res.fit is None

    def test_grid_mode_requires_T_values(self):
        with pytest.raises(SpecError, match="T_values"):
            run_sweep(small_spec(T_values=()))


def test_results_csv_round_trip(tmp_path):
    cells = [CellResult(d=10, T=37.5, trials=50, successes=41),
             CellResult(d=20, T=75.0, trials=50, successes=50)]
    p1 = str(tmp_path / "a.csv")
    write_results_csv(cells, p1)
    back = read_results_csv(p1)
    assert back == cells
    p2 = str(tmp_path / "b.csv")
    write_results_csv(back, p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
