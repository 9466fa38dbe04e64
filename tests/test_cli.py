import json
import time
from pathlib import Path

import pytest

from hawkesnet.cli import EXIT_SPEC_ERROR, main
from hawkesnet.model import params_to_json, sample_random_instance
from hawkesnet.sweep import SweepSpec, read_results_csv


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


@pytest.mark.parametrize("curve", ["nan:10:5", "0:nan:5", "0:inf:5", "-inf:10:5"])
def test_fano_curve_rejects_non_finite_endpoint(tmp_path, capsys, curve):
    out = tmp_path / "curve.csv"
    assert main([*FANO_ARGS, f"--curve={curve}", "--out", str(out)]) == EXIT_SPEC_ERROR
    assert "T must be finite" in _one_line_error(capsys)
    assert not out.exists()


def test_bad_model_file_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"d": 2, "beta": -1}')
    rc = main(["simulate", "--model", str(bad), "--T", "10", "--seed", "0",
               "--out", str(tmp_path / "e.csv")])
    assert rc == EXIT_SPEC_ERROR


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
    cells = read_results_csv(out)
    assert [(c.d, c.T) for c in cells] == [(4, 20.0), (4, 40.0)]


def test_sweep_bad_spec_exits_2(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text('{"d_values": [4], "trials": 0}')
    rc = main(["sweep", "--spec", str(spec_path),
               "--out", str(tmp_path / "r.csv")])
    assert rc == EXIT_SPEC_ERROR


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


@pytest.mark.parametrize("command", ["simulate", "oracle"])
def test_supercritical_model_rejected_before_running(tmp_path, capsys, command):
    # one self-loop of weight 3 at beta=1: gamma = 3
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "d": 2, "beta": 1.0, "mu": [1.0, 1.0], "edges": [{"i": 0, "j": 0, "w": 3.0}],
        "k": 1, "alpha": 3.0, "w_minus": 1.0, "w_plus": 1.0,
    }))
    args = {"simulate": ["simulate", "--model", str(model), "--T", "100", "--seed", "0",
                         "--out", str(tmp_path / "e.csv")],
            "oracle": ["oracle", "--model", str(model)]}[command]
    t0 = time.perf_counter()
    assert main(args) == EXIT_SPEC_ERROR
    assert time.perf_counter() - t0 < 1.0
    assert "subcritical" in _one_line_error(capsys)
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
    ("d", True), ("t_end", "50"), ("t_start", "-10"), ("t_end", float("nan")),
])
def test_bad_side_car_exits_2(tmp_path, model_file, capsys, field, value):
    events = _simulated_events(tmp_path, model_file)
    meta = tmp_path / "e.meta.json"
    doc = json.loads(meta.read_text())
    doc[field] = value
    meta.write_text(json.dumps(doc))
    assert main(_recover_args(str(events), str(tmp_path / "n.json"))) == EXIT_SPEC_ERROR
    assert "e.meta.json" in _one_line_error(capsys)


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
