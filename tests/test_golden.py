"""Golden sha256 digests of hawkesnet's outputs.

A change that should keep outputs the same (a refactor, a speed-up, a
deletion) is checked against these digests unedited. A change that moves
an output on purpose updates its digest here and says why in CHANGES.md.

Hashed: both simulators' event arrays at a few (d, T, seed), the bytes
`write_events_csv` writes for one log, the files a small grid-mode and a
threshold-mode sweep write, `params_to_json(permute_params(...))`, and
`recover`'s candidates, supports and degenerate flags at d = 320. Not
hashed: `recover`'s coefficients, which move with the BLAS at 1e-14.

numpy does not promise its Generator streams across versions, so the
digests hold for the numpy they were made on, DIGEST_NUMPY. On any other
version the tests skip and print why (`pytest -rs` shows the reason).
"""

import hashlib
import json

import numpy as np
import pytest

from hawkesnet import (
    EstimatorConfig,
    SweepSpec,
    bin_and_clip,
    params_to_json,
    permute_params,
    recover,
    run_sweep,
    sample_random_instance,
    simulate_cluster,
    simulate_thinning,
)
from hawkesnet.simulate import write_events_csv
from hawkesnet.sweep import write_fit_json, write_results_csv, write_thresholds_csv

DIGEST_NUMPY = "2.4.6"

pytestmark = pytest.mark.skipif(
    np.__version__ != DIGEST_NUMPY,
    reason=f"golden digests were made on numpy {DIGEST_NUMPY}, this is numpy {np.__version__}",
)


def sha256(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def instance(d: int, seed: int):
    return sample_random_instance(d=d, k=2, alpha=0.2, w_minus=0.5, w_plus=1.0,
                                  mu_minus=0.5, mu_plus=1.5, beta=1.0, seed=seed)


def log_digest(log) -> str:
    window = np.array([log.t_start, log.t_end], dtype="<f8").tobytes()
    return sha256(window, *(np.asarray(ts, dtype="<f8").tobytes() for ts in log.events))


SIMULATE = {simulate_thinning: "thinning", simulate_cluster: "cluster"}


@pytest.mark.parametrize("simulate", SIMULATE, ids=SIMULATE.get)
@pytest.mark.parametrize("d, T, seed", [(5, 200.0, 0), (20, 50.0, 1)])
def test_event_arrays(simulate, d, T, seed):
    log = simulate(instance(d, seed), T, seed=seed)
    assert log_digest(log) == EVENTS[f"{SIMULATE[simulate]}-d{d}-T{T:g}-seed{seed}"]


def test_events_csv_bytes(tmp_path):
    log = simulate_cluster(instance(5, 0), 50.0, seed=0)
    write_events_csv(log, tmp_path / "e.csv", tmp_path / "e.meta.json")
    files = [(tmp_path / name).read_bytes() for name in ("e.csv", "e.meta.json")]
    assert sha256(*files) == EVENTS_CSV


SPEC = SweepSpec(d_values=(4, 6, 8), trials=4, k=1, alpha=0.3, w_minus=0.5, w_plus=1.0,
                 mu_minus=0.5, mu_plus=1.5, beta=1.0, base_seed=1,
                 T_values=(20.0, 40.0), T_bracket=(10.0, 80.0))


def test_grid_sweep_csv(tmp_path):
    write_results_csv(run_sweep(SPEC).cells, tmp_path / "cells.csv")
    assert sha256((tmp_path / "cells.csv").read_bytes()) == GRID_SWEEP


def test_threshold_sweep_csv_and_fit(tmp_path):
    result = run_sweep(SPEC, threshold_mode=True)
    write_results_csv(result.cells, tmp_path / "cells.csv")
    write_thresholds_csv(result.thresholds, tmp_path / "thresholds.csv")
    write_fit_json(result.fit, tmp_path / "fit.json")
    files = [(tmp_path / name).read_bytes() for name in ("cells.csv", "thresholds.csv", "fit.json")]
    assert sha256(*files) == THRESHOLD_SWEEP


def test_permuted_model_json():
    pi = [3, 0, 5, 1, 7, 2, 6, 4]
    assert sha256(params_to_json(permute_params(instance(8, 3), pi)).encode()) == PERMUTED_MODEL


def test_recover_supports_at_d320():
    config = EstimatorConfig.auto(0.2, 0.5, 2)
    log = simulate_cluster(instance(320, 5), 300.0, seed=5)
    net = recover(bin_and_clip(log, 1.0, config.h, config.R), config)
    rows = [[row.candidates, sorted(row.support), row.degenerate] for row in net.rows]
    assert sha256(json.dumps(rows).encode()) == RECOVER_D320


EVENTS = {
    "thinning-d5-T200-seed0": "d3406aa47ade7b64e19355ad6a1d29d78b081d2021850f0980b75e80e1e00bb6",
    "thinning-d20-T50-seed1": "e8b34839964bfe7aadc71683738d9cf45a7b8bcc22488824e317a054b0ade772",
    "cluster-d5-T200-seed0": "1ad9f84c5e3b9e050cfbaca1c1ad756ca9427e2807d891c9a6642f1f75f9f7f9",
    "cluster-d20-T50-seed1": "a0a4297aa9262a3dad36e6e2fdf89572f3418fd424adba363bf1cdfbcc33ed1e",
}
EVENTS_CSV = "c318f063cf754c39a4a7d13b965d99c730d5c0cb1bb7e5e8cf320b79f5d3d3b9"
GRID_SWEEP = "1d75b8d3fae0376c525dc1f27657e64b399f539ff1fccb216bb8b6b774e626a6"
THRESHOLD_SWEEP = "2ac16538e0a1cd92d395838846724c6a21f73d0e1f7e2249a04fdd26ca3eee66"
PERMUTED_MODEL = "13543e9aae820300dcc5ac5df0abfc62735856643fcf0cd7aae527ddb4d51fea"
RECOVER_D320 = "8f1eff8b50f763ff221fc04b64a9a1b3b723878d9ae0bc4d020d168a5a586436"
