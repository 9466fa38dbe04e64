"""Command-line interface: simulate, recover, oracle, fano, sweep.

Exit codes: 0 success, 2 spec/argument validation error or unreadable
input file, 3 simulation event-cap abort.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .estimator import EstimatorConfig, network_to_json, recover
from .fano import FanoInputs, fano_error_floor
from .model import number, params_from_json, support_of, validate
from .moments import population_screening_scores, screening_gap, stationary_moments
from .simulate import (
    SimulationCapError,
    bin_and_clip,
    read_events_csv,
    simulate_cluster,
    simulate_thinning,
    write_events_csv,
)
from .sweep import (
    SpecError,
    SweepSpec,
    run_sweep,
    write_fit_json,
    write_results_csv,
    write_thresholds_csv,
)

EXIT_SPEC_ERROR = 2
EXIT_SIM_CAP = 3
# Most points `fano --curve` writes: about 4 MB of CSV.
MAX_CURVE_STEPS = 10**5


def _load_model(path: str):
    """Read a model file and reject it unless it lies in the subcritical class."""
    with open(path) as f:
        text = f.read()
    try:
        params = params_from_json(text)
    except ValueError as exc:
        raise SpecError(f"{path}: {exc}") from exc
    violations = validate(params)
    if violations:
        first = violations[0]
        raise SpecError(
            f"{path}: model rejected ({len(violations)} violation(s)); "
            f"first: {first.code}: {first.detail}"
        )
    return params


def _meta_path(events_path: str) -> str:
    base, _ = os.path.splitext(events_path)
    return base + ".meta.json"


def _cmd_simulate(args) -> int:
    params = _load_model(args.model)
    simulate = simulate_thinning if args.method == "thinning" else simulate_cluster
    log = simulate(params, args.T, burn_in=args.burn_in, seed=args.seed)
    write_events_csv(log, args.out, _meta_path(args.out))
    return 0


def _cmd_recover(args) -> int:
    log = read_events_csv(args.events, _meta_path(args.events))
    if args.auto:
        if args.alpha is None or args.w_minus is None or args.k is None:
            raise SpecError("--auto requires --alpha, --w-minus and --k")
        config = EstimatorConfig.auto(args.alpha, args.w_minus, args.k)
    else:
        if None in (args.h, args.R, args.m, args.tau):
            raise SpecError("explicit mode requires --h, --R, --m and --tau")
        config = EstimatorConfig(h=args.h, R=args.R, m=args.m, tau=args.tau)
    sample = bin_and_clip(log, args.beta, config.h, config.R)
    net = recover(sample, config)
    with open(args.out, "w") as f:
        f.write(network_to_json(net))
        f.write("\n")
    return 0


def _cmd_oracle(args) -> int:
    params = _load_model(args.model)
    mom = stationary_moments(params)
    G = population_screening_scores(params, mom.sigma)
    gaps = screening_gap(G, support_of(params))
    doc = {
        "m": mom.m,
        "lambda_bar": mom.lambda_bar,
        "sigma": mom.sigma,
        "G": G,
        "gaps": gaps,
    }
    _write_json_by_rows(sys.stdout, doc)
    return 0


def _write_json_by_rows(out, doc: dict) -> None:
    """Write the text of json.dumps(doc, sort_keys=True, separators=(",", ":")) and a newline.

    An array value is encoded one row (or entry) at a time, so no list of
    all its entries is built. Each piece goes through json.dumps, which
    encodes in C; json.dump to a stream takes the pure-Python encoder.
    """
    def dumps(value) -> str:
        return json.dumps(value, separators=(",", ":"))

    out.write("{")
    for k, key in enumerate(sorted(doc)):
        value = doc[key]
        out.write(("," if k else "") + dumps(key) + ":")
        if isinstance(value, np.ndarray):
            out.write("[")
            for r, row in enumerate(value):
                out.write(("," if r else "") + dumps(row.tolist()))
            out.write("]")
        else:
            out.write(dumps(value))
    out.write("}\n")


def _cmd_fano(args) -> int:
    def inputs(T: float) -> FanoInputs:
        return FanoInputs(
            d=args.d, k=args.k, T=T, beta=args.beta,
            mu_bar=args.mu_bar, mu_bar_star=args.mu_bar_star,
            theta_minus=args.theta_minus, c_init_bound=args.c_init,
        )

    if args.curve:
        try:
            t0, t1, steps = args.curve.split(":")
            t0, t1, steps = float(t0), float(t1), int(steps)
        except ValueError:
            raise ValueError(f"--curve takes T0:T1:STEPS, got {args.curve!r}") from None
        for T in (t0, t1):
            inputs(T)  # rejects a bad endpoint before linspace spreads it
        steps = number("STEPS", steps, integer=True)
        if not 1 <= steps <= MAX_CURVE_STEPS:
            raise ValueError(f"need 1 <= STEPS <= {MAX_CURVE_STEPS}, got {steps}")
        grid = np.linspace(t0, t1, steps)
        lines = ["T,error_floor"]
        for T in grid:
            lines.append(
                f"{format(float(T), '.17g')},{format(fano_error_floor(inputs(float(T))), '.17g')}"
            )
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
    else:
        floor = fano_error_floor(inputs(args.T))
        note = "optimistic (c_init=0)" if args.c_init == 0.0 else "with supplied c_init"
        print(f"{format(floor, '.17g')}  # error floor, {note}")
    return 0


def _cmd_sweep(args) -> int:
    with open(args.spec) as f:
        spec = SweepSpec.from_json(f.read())
    if args.jobs is not None:
        spec = replace(spec, jobs=args.jobs)
    result = run_sweep(spec, threshold_mode=args.threshold_mode)
    write_results_csv(result.cells, args.out)
    if args.threshold_mode:
        base, _ = os.path.splitext(args.out)
        write_thresholds_csv(result.thresholds, base + "_thresholds.csv")
        if result.fit is not None:
            write_fit_json(result.fit, base + "_fit.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hawkesnet",
        description="Sparse Hawkes network simulation, recovery and lower bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate an event stream from a model file")
    p.add_argument("--model", required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--burn-in", dest="burn_in", type=float, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--method", choices=["thinning", "cluster"], default="thinning")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("recover", help="recover the network from an event CSV")
    p.add_argument("--events", required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--h", type=float, default=None)
    p.add_argument("--R", type=float, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--auto", action="store_true")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--w-minus", dest="w_minus", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("oracle", help="print stationary mean/covariance/scores as JSON")
    p.add_argument("--model", required=True)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("fano", help="evaluate the minimax error floor")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--T", type=float, default=0.0)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--mu-bar", dest="mu_bar", type=float, required=True)
    p.add_argument("--mu-bar-star", dest="mu_bar_star", type=float, required=True)
    p.add_argument("--theta-minus", dest="theta_minus", type=float, required=True)
    p.add_argument("--c-init", dest="c_init", type=float, default=0.0)
    p.add_argument("--curve", default=None, metavar="T0:T1:STEPS")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fano)

    p = sub.add_parser("sweep", help="run a Monte-Carlo recovery sweep")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threshold-mode", action="store_true")
    p.add_argument("--jobs", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except SimulationCapError as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return EXIT_SIM_CAP


if __name__ == "__main__":
    sys.exit(main())
