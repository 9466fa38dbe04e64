import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkesnet import cli, estimator, simulate, sweep
from hawkesnet.cli import EXIT_SIM_CAP, EXIT_SPEC_ERROR, main
from hawkesnet.model import (
    MAX_DENSE_D,
    params_from_json,
    params_to_json,
    sample_random_instance,
)
from hawkesnet.simulate import SimulationCapError
from hawkesnet.sweep import SweepSpec


@pytest.fixture
def model_file(tmp_path):
    params = sample_random_instance(
        d=5, k=1, alpha=0.3, w_minus=1.0, w_plus=1.0,
        mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=3,
    )
    path = tmp_path / "model.json"
    path.write_text(params_to_json(params))
    return str(path)


def test_simulate_then_recover_pipeline(tmp_path, model_file):
    events = str(tmp_path / "events.csv")
    net = str(tmp_path / "net.json")
    assert main(["simulate", "--model", model_file, "--T", "200",
                 "--seed", "7", "--method", "cluster", "--out", events]) == 0
    assert (tmp_path / "events.meta.json").exists()
    assert main(["recover", "--events", events, "--beta", "1.0", "--auto",
                 "--alpha", "0.3", "--w-minus", "1.0", "--k", "1",
                 "--out", net]) == 0
    doc = json.loads((tmp_path / "net.json").read_text())
    assert doc["d"] == 5
    assert len(doc["rows"]) == 5


def _count_calls(monkeypatch, names):
    """Replace each module attribute in `names` by a wrapper that counts its calls."""
    calls = {}
    for module, attr in names:
        key = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        calls[key] = 0

        def counted(*args, _original=getattr(module, attr), _key=key, **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    return calls


# The benchmark's tracer (perfbench/workloads.py) wraps these names and the
# program must look each up at call time, reach it once per operation and
# print nothing new on stdout, or the benchmark's result line breaks.
def test_recover_reaches_each_wrapped_layer_once(tmp_path, model_file, capsys, monkeypatch):
    events = str(tmp_path / "events.csv")
    main(["simulate", "--model", model_file, "--T", "200", "--seed", "7",
          "--method", "cluster", "--out", events])
    capsys.readouterr()
    calls = _count_calls(monkeypatch, [
        (cli, "read_events_csv"), (cli, "bin_and_clip"), (cli, "recover"),
        (estimator, "screening_scores"), (simulate, "_binned_chunks"),
    ])
    assert main(["recover", "--events", events, "--beta", "1.0", "--auto", "--alpha", "0.3",
                 "--w-minus", "1.0", "--k", "1", "--out", str(tmp_path / "net.json")]) == 0
    assert calls == dict.fromkeys(calls, 1)  # one pass over the grid: Z is never built
    assert capsys.readouterr().out == ""


def test_run_trial_reaches_each_wrapped_layer_once(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, [
        (sweep, "sample_random_instance"), (sweep, "simulate_cluster"),
        (sweep, "bin_and_clip"), (sweep, "recover"), (sweep, "evaluate"),
        (estimator, "screening_scores"), (simulate, "_binned_chunks"),
    ])
    spec = SweepSpec(d_values=(4,), trials=1, k=1, alpha=0.3, w_minus=1.0, w_plus=1.0,
                     mu_minus=1.0, mu_plus=1.0, beta=1.0, base_seed=1)
    sweep.run_trial(4, 30.0, spec, 0)
    assert calls == dict.fromkeys(calls, 1)
    assert capsys.readouterr().out == ""


def test_pipeline_repeat_is_byte_identical(tmp_path, model_file):
    outs = []
    for tag in ("a", "b"):
        events = str(tmp_path / f"ev_{tag}.csv")
        net = str(tmp_path / f"net_{tag}.json")
        main(["simulate", "--model", model_file, "--T", "100",
              "--seed", "11", "--out", events])
        main(["recover", "--events", events, "--beta", "1.0",
              "--h", "0.09", "--R", "4", "--m", "2", "--tau", "0.0135",
              "--out", net])
        outs.append(Path(net).read_bytes())
    assert outs[0] == outs[1]


def test_recover_explicit_mode_requires_all_flags(tmp_path, model_file):
    events = str(tmp_path / "e.csv")
    main(["simulate", "--model", model_file, "--T", "50", "--seed", "1",
          "--out", events])
    rc = main(["recover", "--events", events, "--beta", "1.0",
               "--h", "0.1", "--out", str(tmp_path / "n.json")])
    assert rc == EXIT_SPEC_ERROR


def test_oracle_output(capsys, model_file):
    assert main(["oracle", "--model", model_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["m"]) == 5
    assert len(doc["sigma"]) == 5 and len(doc["sigma"][0]) == 5
    assert len(doc["gaps"]) == 5


def test_oracle_peak_is_the_solve_not_the_json(tmp_path):
    # Σ and G as whole lists of floats before one encoding peaked at about
    # 21.5·8·d² here; the covariance solve alone peaks at 5·8·d².
    d = 320
    params = sample_random_instance(d=d, k=2, alpha=0.2, w_minus=1.0, w_plus=1.0,
                                    mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=6)
    path = tmp_path / "model.json"
    path.write_text(params_to_json(params))
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            rc = main(["oracle", "--model", str(path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert rc == 0
    assert peak < 6 * 8 * d * d


def test_oracle_json_by_rows_is_the_text_of_one_dumps():
    sigma = np.array([[1.0, math.nan], [0.1, 2.5e-300]])
    G = np.array([[math.inf, -0.0], [1e300, 1 / 3]])
    doc = {"m": [1.0, 2.0], "lambda_bar": [0.5, 3.0], "sigma": sigma, "G": G,
           "gaps": [math.nan, None]}
    out = io.StringIO()
    cli._write_json_by_rows(out, doc)
    whole = {**doc, "sigma": sigma.tolist(), "G": G.tolist()}
    assert out.getvalue() == json.dumps(whole, sort_keys=True, separators=(",", ":")) + "\n"
    assert '"gaps":[NaN,null]' in out.getvalue()


def test_fano_point_and_curve(tmp_path, capsys):
    common = ["--d", "101", "--k", "1", "--beta", "1", "--mu-bar", "1",
              "--mu-bar-star", "1", "--theta-minus", "0.5"]
    assert main(["fano", *common, "--T", "0"]) == 0
    floor = float(capsys.readouterr().out.split()[0])
    assert floor == pytest.approx(1 - 0.6931471805599453 / 4.605170185988092)

    out = str(tmp_path / "curve.csv")
    assert main(["fano", *common, "--curve", "0:10:5", "--out", out]) == 0
    lines = Path(out).read_text().strip().splitlines()
    assert lines[0] == "T,error_floor"
    assert len(lines) == 6
    first = float(lines[1].split(",")[1])
    assert first == pytest.approx(floor)


def test_fano_invalid_dimension_exits_2(capsys):
    rc = main(["fano", "--d", "2", "--k", "1", "--beta", "1", "--mu-bar", "1",
               "--mu-bar-star", "1", "--theta-minus", "0.5"])
    assert rc == EXIT_SPEC_ERROR


FANO_ARGS = ["fano", "--d", "101", "--k", "1", "--T", "1", "--beta", "1", "--mu-bar", "1",
             "--mu-bar-star", "1", "--theta-minus", "0.5", "--c-init", "0"]


@pytest.mark.parametrize("flag, value", [
    ("--T", "nan"), ("--T", "inf"), ("--beta", "nan"), ("--beta", "inf"),
    ("--mu-bar", "nan"), ("--mu-bar-star", "inf"), ("--theta-minus", "nan"),
    ("--c-init", "nan"), ("--c-init", "inf"),
])
def test_fano_rejects_non_finite_input(capsys, flag, value):
    args = list(FANO_ARGS)
    args[args.index(flag) + 1] = value
    assert main(args) == EXIT_SPEC_ERROR
    assert "must be finite" in _one_line_error(capsys)


@pytest.mark.parametrize("flag, value, message", [
    pytest.param("--d", "1" + "0" * 400, "d is too large for a float", id="d-401-digits"),
    pytest.param("--k", "1" + "0" * 400, "k is too large for a float", id="k-401-digits"),
    pytest.param("--k", "0", "need k >= 1", id="k-0"),
    pytest.param("--d", "1" + "0" * 306, "need d <= MAX_D", id="d-307-digits"),
    pytest.param("--d", "1000000001", "need d <= MAX_D", id="d-above-max"),
])
def test_fano_rejects_bad_count(capsys, flag, value, message):
    args = list(FANO_ARGS)
    args[args.index(flag) + 1] = value
    assert main(args) == EXIT_SPEC_ERROR
    assert message in _one_line_error(capsys)


@pytest.mark.parametrize("curve", ["nan:10:5", "0:nan:5", "0:inf:5", "-inf:10:5"])
def test_fano_curve_rejects_non_finite_endpoint(tmp_path, capsys, curve):
    out = tmp_path / "curve.csv"
    assert main([*FANO_ARGS, f"--curve={curve}", "--out", str(out)]) == EXIT_SPEC_ERROR
    assert "T must be finite" in _one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("curve", [
    "0:40:0", "0:40:-1", "0:40:100001", "0:40:1.5", "0:40",
    pytest.param("0:40:1" + "0" * 400, id="0:40:<401 digits>"),
])
def test_fano_curve_rejects_bad_steps(tmp_path, capsys, curve):
    out = tmp_path / "curve.csv"
    assert main([*FANO_ARGS, f"--curve={curve}", "--out", str(out)]) == EXIT_SPEC_ERROR
    assert "STEPS" in _one_line_error(capsys)
    assert not out.exists()


def test_fano_curve_rejects_huge_steps_before_allocating(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    tracemalloc.start()
    try:
        rc = main([*FANO_ARGS, "--curve=0:40:100000000000", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == EXIT_SPEC_ERROR
    assert "need 1 <= STEPS <= 100000" in _one_line_error(capsys)
    assert peak < 1_000_000  # the grid alone would take 745 GiB


def test_cli_import_leaves_out_scipy_signal():
    code = ("import sys, hawkesnet.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.signal')))")
    env = {**os.environ, "PYTHONPATH": str(Path(simulate.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_simulate_and_recover_load_no_scipy_and_oracle_still_runs(tmp_path, model_file):
    # hawkesnet runs on numpy alone: a simulate, a recover and an oracle in
    # one process load no scipy module, and the oracle prints the moments.
    events, net = tmp_path / "events.csv", tmp_path / "net.json"
    code = (
        "import json, sys\n"
        "from hawkesnet.cli import main\n"
        f"assert main(['simulate', '--model', {model_file!r}, '--T', '200', '--seed', '7',"
        f" '--out', {str(events)!r}]) == 0\n"
        f"assert main(['recover', '--events', {str(events)!r}, '--beta', '1.0', '--auto',"
        f" '--alpha', '0.3', '--w-minus', '1.0', '--k', '1', '--out', {str(net)!r}]) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
        f"assert main(['oracle', '--model', {model_file!r}]) == 0\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(simulate.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                         capture_output=True, text=True).stdout
    loaded, oracle, loaded_after_oracle = out.splitlines()
    assert json.loads(loaded) == []
    assert json.loads(loaded_after_oracle) == []
    assert len(json.loads(net.read_text())["rows"]) == 5
    doc = json.loads(oracle)
    assert len(doc["m"]) == 5 and len(doc["sigma"]) == 5 and len(doc["gaps"]) == 5


# A model in the class; the bad-model cases below change one field of it.
GOOD_MODEL = {
    "d": 2, "beta": 1.0, "mu": [1.0, 1.0], "edges": [{"i": 0, "j": 1, "w": 0.3}],
    "k": 1, "alpha": 0.3, "w_minus": 1.0, "w_plus": 1.0,
}


@pytest.mark.parametrize("command", ["simulate", "oracle"])
@pytest.mark.parametrize("doc, message", [
    pytest.param({"d": 2, "beta": -1}, "missing field", id="missing-fields"),
    pytest.param([GOOD_MODEL], "JSON object", id="array"),
    pytest.param({**GOOD_MODEL, "d": 4.0}, "field d ", id="float-d"),
    pytest.param({**GOOD_MODEL, "edges": [{"i": 0.5, "j": 1, "w": 0.3}]}, "field edges.i ",
                 id="float-edge-i"),
    pytest.param({**GOOD_MODEL, "edges": [{"i": -1, "j": 1, "w": 0.3}]}, "index -1",
                 id="negative-edge-i"),
    pytest.param({**GOOD_MODEL, "beta": "1"}, "field beta ", id="string-beta"),
    pytest.param({**GOOD_MODEL, "mu": {"0": 1.0, "1": 1.0}}, "field mu ", id="object-mu"),
    pytest.param({**GOOD_MODEL, "edges": [[0, 1, 0.3]]}, "field edges ", id="array-edge"),
    # Integers a float cannot hold: 401 digits.
    pytest.param({**GOOD_MODEL, "beta": 10**400}, "field beta is too large for a float",
                 id="huge-beta"),
    pytest.param({**GOOD_MODEL, "mu_plus": 10**400}, "field mu_plus is too large for a float",
                 id="huge-mu-plus"),
    pytest.param({**GOOD_MODEL, "d": 3}, "match mu's 2 rates", id="d-not-len-mu"),
    pytest.param({**GOOD_MODEL, "d": 0, "mu": [], "edges": []}, "must be >= 1", id="d-0"),
])
def test_bad_model_file_exits_2(tmp_path, capsys, command, doc, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    args = {"simulate": ["simulate", "--model", str(bad), "--T", "10", "--seed", "0",
                         "--out", str(tmp_path / "e.csv")],
            "oracle": ["oracle", "--model", str(bad)]}[command]
    assert main(args) == EXIT_SPEC_ERROR
    err = _one_line_error(capsys)
    assert "bad.json" in err and message in err
    assert not (tmp_path / "e.csv").exists()


def test_sweep_grid_mode(tmp_path):
    spec = SweepSpec(
        d_values=(4,), trials=3, k=1, alpha=0.3, w_minus=1.0, w_plus=1.0,
        mu_minus=1.0, mu_plus=1.0, beta=1.0, base_seed=5,
        T_values=(20.0, 40.0),
    )
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(spec.to_json())
    out = str(tmp_path / "results.csv")
    assert main(["sweep", "--spec", str(spec_path), "--out", out]) == 0
    with open(out, newline="") as f:
        cells = [(int(row["d"]), float(row["T"])) for row in csv.DictReader(f)]
    assert cells == [(4, 20.0), (4, 40.0)]


def _spec_doc(**overrides):
    doc = json.loads(SweepSpec(
        d_values=(4,), trials=3, k=1, alpha=0.3, w_minus=1.0, w_plus=1.0,
        mu_minus=1.0, mu_plus=1.0, beta=1.0, base_seed=5, T_values=(20.0,),
    ).to_json())
    doc.update(overrides)
    return doc


@pytest.mark.parametrize("doc, field", [
    pytest.param({"d_values": [4], "trials": 0}, "missing", id="missing-fields"),
    pytest.param(_spec_doc(trials=0), "trials", id="trials-0"),
    pytest.param(_spec_doc(trials=1.5), "trials", id="trials-float"),
    pytest.param(_spec_doc(d_values=[4.5]), "d_values", id="d-float"),
    pytest.param(_spec_doc(d_values=[4, 10**6]), "d_values: d=1000000 is above MAX_DENSE_D",
                 id="d-above-cap"),
    pytest.param(_spec_doc(d_values=[80, 1], k=2, T_values=[3000.0], trials=4),
                 "d_values: d=1 is below k=2", id="d-below-k"),
    pytest.param(_spec_doc(d_values=[5, 5, 5]), "d_values must not repeat a d",
                 id="d-repeated"),
    pytest.param(_spec_doc(k=1.5), "k ", id="k-float"),
    pytest.param(_spec_doc(jobs=1.5), "jobs", id="jobs-float"),
    pytest.param(_spec_doc(estimator={"h": 0.09, "R": 4.0, "m": 2, "tau": 0.01}), "'estimator'",
                 id="estimator-removed"),
    pytest.param(_spec_doc(mu_minus=math.nan), "mu_minus", id="mu-minus-nan"),
    pytest.param(_spec_doc(w_minus=math.nan), "w_minus", id="w-minus-nan"),
    pytest.param(_spec_doc(w_plus=math.nan), "w_plus", id="w-plus-nan"),
    pytest.param(_spec_doc(alpha=math.nan), "alpha", id="alpha-nan"),
    pytest.param(_spec_doc(w_minus=2.0), "w_minus must not exceed w_plus", id="w-reversed"),
    pytest.param(_spec_doc(beta=10**400), "beta is too large for a float", id="huge-beta"),
    pytest.param(_spec_doc(T_bracket=[None, None]), "T_bracket", id="bracket-null"),
    pytest.param(_spec_doc(burn_in="x"), "burn_in", id="burn-in-string"),
    pytest.param(_spec_doc(method="cluster"), "'method'", id="method-removed"),
])
def test_sweep_bad_spec_exits_2(tmp_path, capsys, doc, field):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    out = tmp_path / "r.csv"
    rc = main(["sweep", "--spec", str(spec_path), "--out", str(out)])
    assert rc == EXIT_SPEC_ERROR
    assert field in _one_line_error(capsys)
    assert not out.exists()


def _recover_args(events, out):
    return ["recover", "--events", events, "--beta", "1.0", "--auto",
            "--alpha", "0.3", "--w-minus", "1.0", "--k", "1", "--out", out]


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def test_missing_meta_file_exits_2(tmp_path, model_file, capsys):
    events = str(tmp_path / "e.csv")
    assert main(["simulate", "--model", model_file, "--T", "20", "--seed", "1",
                 "--out", events]) == 0
    (tmp_path / "e.meta.json").unlink()
    assert main(_recover_args(events, str(tmp_path / "n.json"))) == EXIT_SPEC_ERROR
    assert "e.meta.json" in _one_line_error(capsys)


def test_missing_model_file_exits_2(tmp_path, capsys):
    assert main(["oracle", "--model", str(tmp_path / "none.json")]) == EXIT_SPEC_ERROR
    assert "none.json" in _one_line_error(capsys)


def test_missing_spec_file_exits_2(tmp_path, capsys):
    rc = main(["sweep", "--spec", str(tmp_path / "none.json"),
               "--out", str(tmp_path / "r.csv")])
    assert rc == EXIT_SPEC_ERROR
    assert "none.json" in _one_line_error(capsys)


def test_event_node_out_of_range_exits_2(tmp_path, model_file, capsys):
    events = tmp_path / "e.csv"
    assert main(["simulate", "--model", model_file, "--T", "20", "--seed", "1",
                 "--out", str(events)]) == 0
    with open(events, "a") as f:
        f.write("5,0.5\n")  # the model has d=5 nodes, 0..4
    assert main(_recover_args(str(events), str(tmp_path / "n.json"))) == EXIT_SPEC_ERROR
    assert "e.csv:" in _one_line_error(capsys)


def test_sweep_spec_without_d_values_exits_2(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"trials": 2}')
    rc = main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "r.csv")])
    assert rc == EXIT_SPEC_ERROR
    assert "d_values" in _one_line_error(capsys)


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(SweepSpec(
        d_values=(4,), trials=3, k=1, alpha=0.3, w_minus=1.0, w_plus=1.0,
        mu_minus=1.0, mu_plus=1.0, beta=1.0, base_seed=5, T_values=(20.0,),
    ).to_json())
    out = tmp_path / "r.csv"
    rc = main(["sweep", "--spec", str(spec_path), "--jobs", jobs, "--out", str(out)])
    assert rc == EXIT_SPEC_ERROR
    assert "jobs must be >= 1" in _one_line_error(capsys)
    assert not out.exists()


def test_sweep_unbracketable_level_exits_2(tmp_path, capsys):
    # No trial of this spec recovers its network at any horizon the search
    # tries: the high end runs 20, 40, ..., 40960 and gives up there.
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "d_values": [5], "trials": 2, "k": 1, "alpha": 0.2, "w_minus": 0.05,
        "w_plus": 0.05, "mu_minus": 1.0, "mu_plus": 1.0, "beta": 1.0,
        "base_seed": 1, "T_bracket": [10.0, 20.0],
    }))
    out = tmp_path / "r.csv"
    rc = main(["sweep", "--spec", str(spec_path), "--threshold-mode", "--out", str(out)])
    assert rc == EXIT_SPEC_ERROR
    assert _one_line_error(capsys) == "error: rate never reached 0.9 up to T=40960.0 for d=5\n"
    assert not out.exists()


def test_sweep_spec_names_missing_fields(tmp_path, capsys):
    doc = json.loads(SweepSpec(
        d_values=(4,), trials=3, k=1, alpha=0.3, w_minus=1.0, w_plus=1.0,
        mu_minus=1.0, mu_plus=1.0, beta=1.0, base_seed=5, T_values=(20.0,),
    ).to_json())
    del doc["beta"], doc["base_seed"]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    rc = main(["sweep", "--spec", str(spec_path), "--out", str(tmp_path / "r.csv")])
    assert rc == EXIT_SPEC_ERROR
    err = _one_line_error(capsys)
    assert "beta" in err and "base_seed" in err
    assert "positional" not in err


# One self-loop of weight 3 at beta=1: gamma = 3.
SUPERCRITICAL = {**GOOD_MODEL, "edges": [{"i": 0, "j": 0, "w": 3.0}], "alpha": 3.0}


def _outside_class_cases():
    """(id prefix, model document, expected violation code)."""
    yield "", SUPERCRITICAL, "subcritical"
    # NaN compares false with everything and Infinity exceeds only mu_plus:
    # a positivity check alone passes both.
    for tag, mu in (("nan", math.nan), ("inf", math.inf), ("minus-inf", -math.inf)):
        yield f"mu-{tag}-", {**GOOD_MODEL, "mu": [mu, 1.0]}, "rate-bound"
        yield (f"mu-{tag}-bounded-", {**GOOD_MODEL, "mu": [mu, 1.0], "mu_minus": 0.5,
                                      "mu_plus": 1.5}, "rate-bound")


@pytest.mark.parametrize("command, doc, code", [
    pytest.param(command, doc, code, id=f"{tag}{command}")
    for tag, doc, code in _outside_class_cases()
    for command in ("simulate", "oracle")
])
def test_supercritical_model_rejected_before_running(tmp_path, capsys, command, doc, code):
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    args = {"simulate": ["simulate", "--model", str(model), "--T", "100", "--seed", "0",
                         "--out", str(tmp_path / "e.csv")],
            "oracle": ["oracle", "--model", str(model)]}[command]
    t0 = time.perf_counter()
    assert main(args) == EXIT_SPEC_ERROR
    assert time.perf_counter() - t0 < 1.0
    assert f"first: {code}:" in _one_line_error(capsys)
    assert not (tmp_path / "e.csv").exists()


def _simulated_events(tmp_path, model_file):
    # window [-10, 20]
    events = tmp_path / "e.csv"
    assert main(["simulate", "--model", model_file, "--T", "20", "--burn-in", "10",
                 "--seed", "1", "--out", str(events)]) == 0
    return events


@pytest.mark.parametrize("when", ["nan", "inf", "70", "-70"])
def test_event_time_outside_window_exits_2(tmp_path, model_file, capsys, when):
    events = _simulated_events(tmp_path, model_file)
    with open(events, "a", newline="") as f:
        f.write(f"1,{when}\r\n")
    last_line = len(events.read_text().splitlines())
    assert main(_recover_args(str(events), str(tmp_path / "n.json"))) == EXIT_SPEC_ERROR
    assert f"e.csv:{last_line}:" in _one_line_error(capsys)
    assert not (tmp_path / "n.json").exists()


@pytest.mark.parametrize("byte", [b"\xff", b"\xa0"])
def test_event_row_not_utf8_exits_2(tmp_path, model_file, capsys, byte):
    # 0xa0 alone is not UTF-8; read as latin1 it would be a space.
    events = _simulated_events(tmp_path, model_file)
    with open(events, "ab") as f:
        f.write(b"1,0.5" + byte + b"\r\n")
    last_line = len(events.read_bytes().splitlines())
    assert main(_recover_args(str(events), str(tmp_path / "n.json"))) == EXIT_SPEC_ERROR
    assert f"e.csv:{last_line}:" in _one_line_error(capsys)
    assert not (tmp_path / "n.json").exists()


@pytest.mark.parametrize("row", [
    b'"1\r\n",0.5\r\n',        # a quoted field that holds a line break
    b"0_1,0.5\r\n",             # a node only Python's int reads
    "\u0661,0.5\r\n".encode(),   # an Arabic-Indic digit one
    b"1,0.5\r0,0.5\r\n",        # a lone CR in a CRLF body
], ids=["quoted-line-break", "underscore", "non-ascii-digit", "mixed-line-ends"])
def test_event_rows_only_python_reads_exit_2(tmp_path, model_file, capsys, row):
    events = _simulated_events(tmp_path, model_file)
    with open(events, "ab") as f:
        f.write(row)
    assert main(_recover_args(str(events), str(tmp_path / "n.json"))) == EXIT_SPEC_ERROR
    assert "e.csv" in _one_line_error(capsys)
    assert not (tmp_path / "n.json").exists()


@pytest.mark.parametrize("field, value", [
    ("d", True), ("t_end", "50"), ("t_start", "-10"), ("t_end", math.nan),
])
def test_bad_side_car_exits_2(tmp_path, model_file, capsys, field, value):
    events = _simulated_events(tmp_path, model_file)
    meta = tmp_path / "e.meta.json"
    doc = json.loads(meta.read_text())
    doc[field] = value
    meta.write_text(json.dumps(doc))
    assert main(_recover_args(str(events), str(tmp_path / "n.json"))) == EXIT_SPEC_ERROR
    assert "e.meta.json" in _one_line_error(capsys)


def _two_row_log(tmp_path, d):
    events, meta = tmp_path / "e.csv", tmp_path / "e.meta.json"
    events.write_text("node,time\n0,0.5\n1,1.5\n")
    meta.write_text(json.dumps({"d": d, "t_start": 0.0, "t_end": 10.0,
                                "seed": 1, "method": "cluster"}))
    return str(events), str(meta)


def test_side_car_d_beyond_int64_exits_2(tmp_path, capsys):
    events, _ = _two_row_log(tmp_path, 2**63)
    assert main(_recover_args(events, str(tmp_path / "n.json"))) == EXIT_SPEC_ERROR
    err = _one_line_error(capsys)
    assert "e.meta.json" in err and "MAX_DENSE_D" in err
    assert not (tmp_path / "n.json").exists()


def test_side_car_d_above_cap_is_refused_before_allocating(tmp_path, capsys):
    # Read in full, a d of 10^6 built 160 MB of per-node arrays for a two-row
    # log, and recover's grid statistics would then ask for 16 TB.
    events, meta = _two_row_log(tmp_path, 10**6)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_DENSE_D = 4096"):
            simulate.read_events_csv(events, meta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert main(_recover_args(events, str(tmp_path / "n.json"))) == EXIT_SPEC_ERROR
    assert "MAX_DENSE_D" in _one_line_error(capsys)


def test_oracle_refuses_model_above_cap_before_allocating(tmp_path, capsys):
    d = MAX_DENSE_D + 1
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**GOOD_MODEL, "d": d, "mu": [1.0] * d}))
    tracemalloc.start()
    try:
        rc = main(["oracle", "--model", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == EXIT_SPEC_ERROR
    assert f"d={d} is above MAX_DENSE_D" in _one_line_error(capsys)
    assert peak < 8 * d * d // 4  # a dense Theta alone is 8·d² bytes


@pytest.mark.parametrize("beta", ["0", "-1", "nan", "inf"])
def test_recover_rejects_bad_beta(tmp_path, model_file, capsys, beta):
    events = _simulated_events(tmp_path, model_file)
    args = _recover_args(str(events), str(tmp_path / "n.json"))
    args[args.index("--beta") + 1] = beta
    assert main(args) == EXIT_SPEC_ERROR
    assert "beta" in _one_line_error(capsys)
    assert not (tmp_path / "n.json").exists()


@pytest.mark.parametrize("method", ["thinning", "cluster"])
@pytest.mark.parametrize("flag, value", [
    ("--T", "nan"), ("--T", "inf"), ("--burn-in", "nan"), ("--burn-in", "inf"),
])
def test_simulate_rejects_non_finite_horizon(tmp_path, model_file, capsys, method, flag, value):
    args = ["simulate", "--model", model_file, "--T", "20", "--seed", "0",
            "--method", method, "--out", str(tmp_path / "e.csv"), flag, value]
    t0 = time.perf_counter()
    assert main(args) == EXIT_SPEC_ERROR
    assert time.perf_counter() - t0 < 1.0
    assert "finite" in _one_line_error(capsys)
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("method", ["thinning", "cluster"])
def test_simulate_refuses_a_window_above_twice_the_cap_with_exit_3(tmp_path, model_file,
                                                                    capsys, monkeypatch, method):
    # A lower cap keeps a run that is not refused small.
    monkeypatch.setattr(simulate, "MAX_EVENTS", 10**5)
    args = ["simulate", "--model", model_file, "--T", "20", "--seed", "0",
            "--method", method, "--out", str(tmp_path / "e.csv"), "--burn-in", "1e300"]
    t0 = time.perf_counter()
    assert main(args) == EXIT_SIM_CAP
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert err.startswith("simulation aborted: ") and err.count("\n") == 1, err
    assert "2·MAX_EVENTS" in err
    assert not (tmp_path / "e.csv").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--tau", "nan", "tau must be positive and finite"),
    ("--tau", "inf", "tau must be positive and finite"),
    ("--h", "nan", "h must be positive and finite"),
    ("--h", "inf", "h must be positive and finite"),
    ("--R", "nan", "R must be positive and finite"),
    ("--R", "inf", "R must be positive and finite"),
])
def test_recover_rejects_non_finite_explicit_config(tmp_path, model_file, capsys,
                                                    flag, value, message):
    events = _simulated_events(tmp_path, model_file)
    args = ["recover", "--events", str(events), "--beta", "1.0", "--h", "0.09", "--R", "4",
            "--m", "2", "--tau", "0.0135", "--out", str(tmp_path / "n.json")]
    args[args.index(flag) + 1] = value
    assert main(args) == EXIT_SPEC_ERROR
    assert message in _one_line_error(capsys)
    assert not (tmp_path / "n.json").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--w-minus", "nan", "tau must be positive and finite"),
    ("--w-minus", "inf", "tau must be positive and finite"),
    ("--alpha", "nan", "alpha must be positive and finite"),
    ("--alpha", "0", "alpha must be positive and finite"),
    ("--alpha", "1e200", "h must be positive and finite"),  # alpha^2 overflows
    ("--k", "0", "k must be >= 1"),
    ("--k", "-3", "k must be >= 1"),
])
def test_recover_rejects_bad_auto_schedule(tmp_path, model_file, capsys, flag, value, message):
    events = _simulated_events(tmp_path, model_file)
    args = _recover_args(str(events), str(tmp_path / "n.json"))
    args[args.index(flag) + 1] = value
    assert main(args) == EXIT_SPEC_ERROR
    assert message in _one_line_error(capsys)
    assert not (tmp_path / "n.json").exists()


@pytest.mark.parametrize("method", ["thinning", "cluster"])
def test_event_cap_aborts_simulation_with_exit_3(tmp_path, model_file, capsys, monkeypatch,
                                                 method):
    monkeypatch.setattr(simulate, "MAX_EVENTS", 10)
    params = params_from_json(Path(model_file).read_text())
    simulator = {"thinning": simulate.simulate_thinning,
                 "cluster": simulate.simulate_cluster}[method]
    with pytest.raises(SimulationCapError, match="exceeded 10 events"):
        simulator(params, 20.0, seed=1)
    out = tmp_path / "e.csv"
    rc = main(["simulate", "--model", model_file, "--T", "20", "--seed", "1",
               "--method", method, "--out", str(out)])
    assert rc == EXIT_SIM_CAP
    err = capsys.readouterr().err
    assert err.startswith("simulation aborted: ") and err.count("\n") == 1, err
    assert not out.exists()


# Values a mutated file may hold. Integers stay small, so a mutated d or node
# index names at most 12 nodes and the run allocates little; floats range
# over every double, infinities and NaN included, and a few large ones are
# drawn more often, as horizons and rates.
_FUZZ_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.floats(),
    st.sampled_from([10**400, -10**400, 1e12, 1e308]), st.text(max_size=3),
)
_FUZZ_VALUES = st.recursive(
    _FUZZ_SCALARS,
    lambda inner: st.lists(inner, max_size=12) | st.dictionaries(st.text(max_size=3), inner,
                                                                 max_size=3),
    max_leaves=16,
)


def _mutated_doc(data, doc):
    """doc with one or two fields, list entries or edge fields replaced or removed."""
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(1, 2))):
        key = data.draw(st.sampled_from([*doc, "extra"]))
        where, field = doc, key
        if isinstance(doc.get(key), list) and doc[key] and data.draw(st.booleans()):
            where, field = doc[key], data.draw(st.integers(0, len(doc[key]) - 1))
            if isinstance(where[field], dict) and where[field] and data.draw(st.booleans()):
                where, field = where[field], data.draw(st.sampled_from(sorted(where[field])))
        if data.draw(st.booleans()):
            where[field] = data.draw(_FUZZ_VALUES)
        elif isinstance(where, list):
            del where[field]
        else:
            where.pop(field, None)
    return doc


def _mutated_text(data, text):
    """text with lines replaced, removed or repeated, or cut short."""
    lines = text.splitlines(keepends=True)
    for _ in range(data.draw(st.integers(1, 3))):
        if not lines:
            break
        at = data.draw(st.integers(0, len(lines) - 1))
        action = data.draw(st.sampled_from(["replace", "remove", "repeat", "cut"]))
        if action == "replace":
            lines[at] = data.draw(st.text(max_size=12)) + data.draw(
                st.sampled_from(["\r\n", "\n", "\r", ""]))
        elif action == "remove":
            del lines[at]
        elif action == "repeat":
            lines.insert(at, lines[at])
        else:
            lines[at] = lines[at][:data.draw(st.integers(0, len(lines[at])))]
    return "".join(lines)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_mutated_input_files_exit_0_2_or_3(data):
    command = data.draw(st.sampled_from(["thinning", "cluster", "oracle", "recover"]))
    params = sample_random_instance(d=3, k=1, alpha=0.3, w_minus=1.0, w_plus=1.0,
                                    mu_minus=1.0, mu_plus=1.0, beta=1.0, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        model, events = os.path.join(tmp, "model.json"), os.path.join(tmp, "e.csv")
        meta = os.path.join(tmp, "e.meta.json")
        if command == "recover":
            simulate.write_events_csv(simulate.simulate_cluster(params, 20.0, seed=1),
                                      events, meta)
            with open(meta) as f:
                side_car = _mutated_doc(data, json.load(f)) if data.draw(st.booleans()) else None
            if side_car is not None:
                with open(meta, "w") as f:
                    f.write(json.dumps(side_car))
            if side_car is None or data.draw(st.booleans()):
                with open(events, newline="") as f:
                    text = _mutated_text(data, f.read())
                with open(events, "w", encoding="utf-8", newline="") as f:
                    f.write(text)
            argv = _recover_args(events, os.path.join(tmp, "n.json"))
        else:
            doc = _mutated_doc(data, json.loads(params_to_json(params)))
            with open(model, "w") as f:
                f.write(json.dumps(doc))
            argv = (["oracle", "--model", model] if command == "oracle" else
                    ["simulate", "--model", model, "--T", "20", "--seed", "1",
                     "--method", command, "--out", events])
        err = io.StringIO()
        # A mutated rate can ask for billions of events: the cap ends the run at 10^4.
        with mock.patch.object(simulate, "MAX_EVENTS", 10**4), \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(argv)
    assert rc in (0, EXIT_SPEC_ERROR, EXIT_SIM_CAP)
    err = err.getvalue()
    if rc == EXIT_SPEC_ERROR:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    elif rc == EXIT_SIM_CAP:
        assert err.startswith("simulation aborted: ") and err.count("\n") == 1, err
    else:
        assert err == ""
