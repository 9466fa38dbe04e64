"""The three workloads: their inputs, their operation and its checks.

All of them use the class of acceptance criterion 7 (k=2, alpha=0.2,
w=mu=beta=1, auto schedule). Inputs come from the run's --seed only;
round r of a run uses seeds derived from (seed, r).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import replace

import numpy as np

import hawkesnet
from hawkesnet import cli, estimator, sweep
from hawkesnet.model import params_to_json
from hawkesnet.simulate import write_events_csv

import checks

CLASS = dict(k=2, alpha=0.2, w_minus=1.0, w_plus=1.0, mu_minus=1.0, mu_plus=1.0, beta=1.0)
# The auto schedule, from its formula: h = alpha^2, R = 1/alpha, m = 2k,
# tau = alpha * w_minus * h / 2.
H, R, M, TAU = 0.2**2, 1 / 0.2, 4, 0.2 * 1.0 * 0.2**2 / 2
AUTO_ARGS = ["--beta", "1", "--auto", "--alpha", "0.2", "--w-minus", "1", "--k", "2"]
WARM_UP = 1 << 20   # seed tag of the warm-up operation, apart from every round's


def derive(seed: int, *tags: int) -> int:
    """A 63-bit seed for round or input `tags` of the run seeded `seed`."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1, np.uint64)[0] >> 1)


def instance(d: int, seed: int):
    return hawkesnet.sample_random_instance(d=d, seed=seed, **CLASS)


def run_cli(argv: list[str]) -> str:
    """hawkesnet's CLI in this process; returns its stdout, raises on a nonzero exit."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"hawkesnet {argv[0]} exited {code}")
    return out.getvalue()


@contextlib.contextmanager
def capture(module, attr: str, sink: list, keep):
    """Append (args, result) of every call to module.attr whose args `keep` accepts to `sink`."""
    original = getattr(module, attr)

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        if keep(*args):
            sink.append((args, result))
        return result

    setattr(module, attr, recorded)
    try:
        yield
    finally:
        setattr(module, attr, original)


def parents_of(params) -> list[set]:
    return [{j for j, _ in row} for row in params.theta.rows]


def model_arrays(path: str):
    """(theta, mu, beta) read from a model file by the benchmark itself."""
    with open(path) as f:
        doc = json.load(f)
    theta = checks.dense_theta(doc["d"], [(e["i"], e["j"], e["w"]) for e in doc["edges"]])
    return theta, np.asarray(doc["mu"], dtype=float), float(doc["beta"])


class Workload:
    name = ""
    # Layers the operation reaches; a span missing among them is reported absent.
    layers: tuple[str, ...] = ()
    # Operations a run makes at the least, however short --seconds is.
    min_rounds = 1
    # The halves of hostspeed's reference whose time scales this workload's:
    # by default both, for binning and products over arrays and the Python
    # around them (sweep loops, small least-squares rows, CSV parsing).
    host_reference: tuple[str, ...] = ("bulk", "scalar")

    def __init__(self, seed: int, workdir: str):
        self.seed, self.workdir = seed, workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        """Make the inputs and run one small warm-up operation; timed as set-up."""

    def warm_up(self) -> None:
        """Work after set-up that neither figure times: caches and heaps filling."""

    def op(self, r: int):
        raise NotImplementedError

    def check(self, r: int, out) -> list[str]:
        raise NotImplementedError

    def count(self, tracer, out) -> None:
        """Counts of a traced round that the spans do not see."""


SWEEP_LAYERS = (
    "sweep.run_cell", "model.sample_instance", "simulate.cluster",
    "simulate.bin_and_clip", "estimator.recover", "estimator.screening",
)


class TstarSmall(Workload):
    """T* for d in {5, 10, 20}: criterion 7's bracket and level, fewer trials."""

    name, layers = "tstar-small", SWEEP_LAYERS
    trials, level = 4, 0.9
    # The bisection path, and so the work, varies with the seed, and now and
    # then a search widens its bracket or rescans it; the median of four
    # searches holds the run's figure steadier.
    min_rounds = 4
    # The trials of this d's cells are also recomputed one by one; at the
    # larger d the recomputation would cost more than the search.
    checked_d = 10

    def setup(self):
        self.spec = sweep.SweepSpec(
            d_values=(5, 10, 20), trials=self.trials, base_seed=0,
            T_bracket=(500.0, 4000.0), success_level=self.level, **CLASS,
        )
        sweep.run_cell(10, 500.0, replace(self.spec, trials=1, base_seed=derive(self.seed, WARM_UP)))

    def op(self, r):
        logs = []
        with capture(sweep, "simulate_cluster", logs, keep=lambda params, *_: params.d == self.checked_d):
            result = sweep.run_sweep(replace(self.spec, base_seed=derive(self.seed, r)), threshold_mode=True)
        return result, logs

    def check(self, r, out):
        result, logs = out
        errors = self._check_cells(result, logs)
        ths = result.thresholds
        if [th.d for th in ths] != list(self.spec.d_values) or result.fit is None:
            return errors + [f"thresholds for d={[th.d for th in ths]}, fit {result.fit}"]
        for th in ths:
            if any(c.d != th.d or c.trials != self.trials for c in th.cells):
                errors.append(f"d={th.d}: a cell of another d or trial count")
            errors += checks.check_threshold(
                th.d, th.t_lo, th.t_hi, th.t_star, {c.T: c.successes for c in th.cells},
                self.level, self.trials, th.monotonicity_violated,
            )
        slope, intercept = checks.ols_fit([th.d for th in ths], [th.t_star for th in ths])
        if not np.allclose([result.fit.slope, result.fit.intercept], [slope, intercept], rtol=1e-9, atol=1e-6):
            errors.append(f"fit ({result.fit.slope}, {result.fit.intercept}), own ({slope}, {intercept})")
        return errors

    def _check_cells(self, result, logs) -> list[str]:
        """Each d=10 cell's successes against the benchmark's own recovery of its trials."""
        by_T: dict[float, list] = {}
        for (params, T, *_), log in logs:
            by_T.setdefault(T, []).append((params, log))
        cells = [c for c in result.cells if c.d == self.checked_d]
        if sorted(by_T) != sorted(c.T for c in cells):
            return [f"d={self.checked_d}: simulations at T={sorted(by_T)}, cells at {[c.T for c in cells]}"]
        errors = []
        for cell in cells:
            trials = by_T[cell.T]
            if len(trials) != self.trials:
                errors.append(f"cell T={cell.T}: {len(trials)} simulations for {self.trials} trials")
                continue
            lo = hi = 0
            for params, log in trials:
                stats = checks.grid_statistics(log.events, params.beta, H, R, log.t_end)
                sure, maybe = checks.exact_recovery_bounds(checks.GridModel(stats, M, TAU), parents_of(params))
                lo, hi = lo + sure, hi + maybe
            if not lo <= cell.successes <= hi:
                errors.append(f"cell T={cell.T}: {cell.successes} exact recoveries, own recomputation {lo}..{hi}")
        return errors


class CliRecoverD320(Workload):
    """`hawkesnet recover --auto` on a d=320, T=1000 event CSV, then `hawkesnet oracle`."""

    name = "cli-recover-d320"
    layers = (
        "cli.main", "cli.read_events_csv", "simulate.bin_and_clip",
        "estimator.recover", "estimator.screening", "moments.stationary_moments",
    )
    d, T = 320, 1000.0
    min_rounds = 4

    def _write(self, tag: str, d: int, T: float, seed: int):
        params = instance(d, derive(seed, 1))
        log = hawkesnet.simulate_cluster(params, T, seed=derive(seed, 2))
        write_events_csv(log, self.path(f"{tag}.csv"), self.path(f"{tag}.meta.json"))
        with open(self.path(f"{tag}-model.json"), "w") as f:
            f.write(params_to_json(params))
        return params, log

    def _argv(self, tag: str):
        return (
            ["recover", "--events", self.path(f"{tag}.csv"), *AUTO_ARGS, "--out", self.path(f"{tag}-net.json")],
            ["oracle", "--model", self.path(f"{tag}-model.json")],
        )

    def setup(self):
        self.params, self.log = self._write("events", self.d, self.T, self.seed)
        self._write("warm", 10, 200.0, derive(self.seed, WARM_UP))
        for argv in self._argv("warm"):
            run_cli(argv)
        self.grid = None

    def warm_up(self):
        # The first full-size call ran 15% to 20% slower than the next ones.
        self.op(0)

    def op(self, r):
        recover_argv, oracle_argv = self._argv("events")
        run_cli(recover_argv)
        return run_cli(oracle_argv)

    def _network(self) -> dict:
        with open(self.path("events-net.json")) as f:
            return json.load(f)

    def check(self, r, out):
        net, oracle = self._network(), json.loads(out)
        if self.grid is None:
            stats = checks.grid_statistics(self.log.events, self.params.beta, H, R, self.T)
            self.grid = checks.GridModel(stats, M, TAU)
        theta, mu, beta = model_arrays(self.path("events-model.json"))
        return checks.check_network(net, self.grid) + checks.check_oracle(oracle, theta, mu, beta)

    def count(self, tracer, out):
        for row, parents in zip(self._network()["rows"], parents_of(self.params)):
            tracer.counts["estimator.parent_hits"] += len(parents & set(row["candidates"]))
            tracer.counts["estimator.parents"] += len(parents)


class CliSimulateThinning(Workload):
    """`hawkesnet simulate` at its default method, thinning, d=10, T=2000."""

    name = "cli-simulate-thinning"
    layers = ("cli.main", "simulate.thinning", "cli.write_events_csv")
    d, T = 10, 2000.0
    # A Python loop over length-10 arrays, like the reference's scalar half.
    host_reference = ("scalar",)
    # Thinning's rejection rate, and so its time, depends on the instance's
    # column sums; rounds cycle through this many instances.
    models = min_rounds = 8

    def _argv(self, k: int, T: float, seed: int):
        return ["simulate", "--model", self.path(f"model{k}.json"), "--T", repr(T),
                "--seed", str(seed), "--out", self.path("events.csv")]

    def setup(self):
        self.params = [instance(self.d, derive(self.seed, 1, k)) for k in range(self.models)]
        for k, params in enumerate(self.params):
            with open(self.path(f"model{k}.json"), "w") as f:
                f.write(params_to_json(params))
        run_cli(self._argv(0, 200.0, derive(self.seed, WARM_UP)))
        self.rates = {}

    def op(self, r):
        run_cli(self._argv(r % self.models, self.T, derive(self.seed, r)))

    def check(self, r, out):
        with open(self.path("events.csv")) as f, open(self.path("events.meta.json")) as g:
            text, meta = f.read(), json.load(g)
        k = r % self.models
        if k not in self.rates:
            self.rates[k] = checks.count_variance_rate(*model_arrays(self.path(f"model{k}.json")))
        nodes, times = checks.read_event_csv(text)
        errors = checks.check_event_stream(nodes, times, meta, self.d, self.T, *self.rates[k])
        if meta.get("seed") != derive(self.seed, r) or meta.get("method") != "thinning":
            errors.append(f"meta {meta} does not name seed {derive(self.seed, r)} and thinning")
        if r == 0 and not errors:
            # The file against the simulator's own log: catches a lost or altered event.
            log = hawkesnet.simulate_thinning(self.params[k], self.T, seed=derive(self.seed, r))
            errors += checks.check_same_events(nodes, times, log.events)
        return errors


WORKLOADS = {w.name: w for w in (TstarSmall, CliRecoverD320, CliSimulateThinning)}


def install_layer_hooks(tracer) -> None:
    """Spans around every layer boundary the workloads cross, with their counts."""

    def simulated(in_sweep):
        def on_result(t, log, args):
            t.counts["simulate.events"] += log.total_events()
            if log.method == "thinning":
                t.counts["simulate.thinning_events"] += log.total_events()
            if in_sweep:
                t.counts["sweep.simulations"] += 1
                t.counts["sweep.simulated_horizon"] += log.t_end
        return on_result

    def binned(t, sample, args):
        t.counts["simulate.grid_cells"] += sample.n * sample.d
        t.counts["simulate.z_bytes"] += sample.n * sample.d * 8  # computed, float64 Z

    def recovered(t, net, args):
        t.counts["estimator.rows"] += net.d
        t.counts["estimator.degenerate_rows"] += sum(row.degenerate for row in net.rows)

    def evaluated(t, metrics, args):
        net, truth = args
        for row in net.rows:
            parents = truth.rows[row.i]
            t.counts["estimator.parent_hits"] += len(parents & set(row.candidates))
            t.counts["estimator.parents"] += len(parents)

    def cell(t, result, args):
        t.counts["sweep.cells"] += 1

    for module in (sweep, cli):
        in_sweep = module is sweep
        tracer.wrap(module, "simulate_cluster", "simulate.cluster", simulated(in_sweep))
        tracer.wrap(module, "simulate_thinning", "simulate.thinning", simulated(in_sweep))
        tracer.wrap(module, "bin_and_clip", "simulate.bin_and_clip", binned)
        tracer.wrap(module, "recover", "estimator.recover", recovered)
    tracer.wrap(sweep, "sample_random_instance", "model.sample_instance")
    tracer.wrap(sweep, "evaluate", "estimator.evaluate", evaluated)
    tracer.wrap(sweep, "run_cell", "sweep.run_cell", cell)
    tracer.wrap(estimator, "screening_scores", "estimator.screening")
    tracer.wrap(cli, "read_events_csv", "cli.read_events_csv")
    tracer.wrap(cli, "write_events_csv", "cli.write_events_csv")
    tracer.wrap(cli, "stationary_moments", "moments.stationary_moments")
    tracer.wrap(cli, "main", "cli.main")
