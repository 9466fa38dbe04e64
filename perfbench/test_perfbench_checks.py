"""The benchmark's output checks pass hawkesnet's outputs and reject corrupted ones."""

import contextlib
import copy
import io
import json

import numpy as np
import pytest

import checks
from hawkesnet import (
    EstimatorConfig,
    bin_and_clip,
    params_to_json,
    recover,
    sample_random_instance,
    simulate_cluster,
    simulate_thinning,
)
from hawkesnet.cli import main as cli_main
from hawkesnet.estimator import network_to_json
from hawkesnet.simulate import write_events_csv
from hawkesnet.sweep import fit_log_scaling


def _instance(d, seed):
    return sample_random_instance(
        d=d, k=2, alpha=0.2, w_minus=1.0, w_plus=1.0,
        mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=seed,
    )


def _arrays(params):
    edges = [(i, j, w) for i, row in enumerate(params.theta.rows) for j, w in row]
    return checks.dense_theta(params.d, edges), np.asarray(params.mu), params.beta


@pytest.fixture(scope="module")
def recovered():
    params = _instance(6, 1)
    log = simulate_cluster(params, 400.0, seed=2)
    cfg = EstimatorConfig.auto(alpha=0.2, w_minus=1.0, k=2)
    net = recover(bin_and_clip(log, params.beta, cfg.h, cfg.R), cfg)
    stats = checks.grid_statistics(log.events, params.beta, cfg.h, cfg.R, log.t_end)
    return params, json.loads(network_to_json(net)), checks.GridModel(stats, cfg.m, cfg.tau)


def test_network_check(recovered):
    _, doc, grid = recovered
    assert checks.check_network(doc, grid) == []

    bad = copy.deepcopy(doc)
    bad["rows"][2]["coeffs"][0] += 1e-6
    assert checks.check_network(bad, grid)

    bad = copy.deepcopy(doc)
    bad["rows"][3]["candidates"][:2] = bad["rows"][3]["candidates"][1::-1]
    assert checks.check_network(bad, grid)

    bad = copy.deepcopy(doc)
    row = bad["rows"][4]
    row["support"] = sorted(set(row["candidates"]) - set(row["support"]))
    assert checks.check_network(bad, grid)


def test_exact_recovery_bounds(recovered):
    params, doc, grid = recovered
    truth = [set(row["support"]) for row in doc["rows"]]
    assert checks.exact_recovery_bounds(grid, truth) == (True, True)
    truth[0] ^= {5}
    assert checks.exact_recovery_bounds(grid, truth) == (False, False)


def test_oracle_check(tmp_path):
    params = _instance(5, 6)
    model = tmp_path / "model.json"
    model.write_text(params_to_json(params))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli_main(["oracle", "--model", str(model)]) == 0
    doc = json.loads(out.getvalue())
    theta, mu, beta = _arrays(params)
    assert checks.check_oracle(doc, theta, mu, beta) == []

    bad = copy.deepcopy(doc)
    bad["sigma"][0][1] += 1e-6
    bad["sigma"][1][0] += 1e-6
    assert checks.check_oracle(bad, theta, mu, beta)

    bad = copy.deepcopy(doc)
    bad["m"][2] *= 1.0 + 1e-6
    assert checks.check_oracle(bad, theta, mu, beta)


def test_event_stream_checks(tmp_path):
    params = _instance(3, 4)
    T = 300.0
    log = simulate_thinning(params, T, seed=5)
    write_events_csv(log, str(tmp_path / "ev.csv"), str(tmp_path / "ev.meta.json"))
    nodes, times = checks.read_event_csv((tmp_path / "ev.csv").read_text())
    meta = json.loads((tmp_path / "ev.meta.json").read_text())
    lam, var_rate = checks.count_variance_rate(*_arrays(params))

    def stream_errors(nodes, times):
        return checks.check_event_stream(nodes, times, meta, 3, T, lam, var_rate)

    assert stream_errors(nodes, times) == []
    assert checks.check_same_events(nodes, times, log.events) == []

    dropped = np.delete(np.arange(nodes.size), nodes.size // 2)
    assert checks.check_same_events(nodes[dropped], times[dropped], log.events)

    late = times.copy()
    late[-1] = T + 1.0
    assert stream_errors(nodes, late)

    swapped = times.copy()
    swapped[[10, 11]] = swapped[[11, 10]]
    assert stream_errors(nodes, swapped)

    assert stream_errors(np.zeros_like(nodes), times)
    assert stream_errors(nodes + 1, times)


def test_threshold_check():
    cells = {500.0: 0, 4000.0: 4, 2250.0: 4, 1375.0: 1, 1812.5: 4, 1593.75: 3, 1703.125: 4}
    ok = dict(d=10, t_lo=1593.75, t_hi=1703.125, t_star=1648.4375, cells=cells,
              level=0.9, trials=4, rescanned=False)
    assert checks.check_threshold(**ok) == []
    assert checks.check_threshold(**{**ok, "cells": {**cells, 1593.75: 4}})
    assert checks.check_threshold(**{**ok, "t_lo": 1375.0, "t_star": 1593.75})
    assert checks.check_threshold(**{**ok, "t_star": 1650.0})
    assert checks.check_threshold(**{**ok, "t_lo": 1500.0})


def test_ols_fit_matches_program():
    points = [(10, 1867.0), (20, 2359.0), (40, 2797.0)]
    fit = fit_log_scaling(points)
    slope, intercept = checks.ols_fit(*zip(*points))
    assert np.allclose([slope, intercept], [fit.slope, fit.intercept], rtol=1e-12)
