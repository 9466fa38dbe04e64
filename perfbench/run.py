"""hawkesnet benchmark: one workload per run, timed end to end or traced by layer.

    python3 perfbench/run.py --workload tstar-small --seed 1 --seconds 16 --trace 0

Run from the root of a source tree (the package is imported from ./src).
The last line of stdout is one JSON object: correct, attempted, failed
and metrics. --trace 0 gives the end-to-end metrics, --trace 1 the
per-layer ones. See perfbench/README.md for the workloads and metrics.
"""

import time

T_PROCESS = time.perf_counter()

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import traceback

# One BLAS thread: the program runs with jobs=1, and two shared CPUs hold
# one thread's timings steadier than two.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_CHILDREN = 2   # set-up is timed in this process and in two fresh ones
# After each operation the host-speed reference is sampled for this share
# of the operation's time, for REFERENCE_MIN_S at the least.
REFERENCE_SHARE, REFERENCE_MIN_S = 0.1, 0.25

# Per-layer metrics: (name, unit, source). A source is ("self" | "total",
# span name), ("count", counter) or a name handled in layer_metrics().
LAYER_METRICS = [
    ("model.sample_instance_s", "s", ("self", "model.sample_instance")),
    ("simulate.cluster_s", "s", ("self", "simulate.cluster")),
    ("simulate.thinning_s", "s", ("self", "simulate.thinning")),
    ("simulate.thinning_us_per_event", "us", ("thinning_us_per_event",)),
    ("simulate.bin_and_clip_s", "s", ("self", "simulate.bin_and_clip")),
    ("simulate.events", "count", ("count", "simulate.events")),
    ("simulate.grid_cells", "count", ("count", "simulate.grid_cells")),
    ("simulate.z_bytes", "B", ("count", "simulate.z_bytes")),
    ("estimator.screening_s", "s", ("self", "estimator.screening")),
    ("estimator.recover_s", "s", ("total", "estimator.recover")),
    ("estimator.lsq_s", "s", ("self", "estimator.recover")),
    ("estimator.rows", "count", ("count", "estimator.rows")),
    ("estimator.degenerate_rows", "count", ("count", "estimator.degenerate_rows")),
    ("estimator.parent_hit_ratio", "ratio", ("parent_hit_ratio",)),
    ("sweep.cells", "count", ("count", "sweep.cells")),
    ("sweep.simulations", "count", ("count", "sweep.simulations")),
    ("sweep.simulated_horizon", "T", ("count", "sweep.simulated_horizon")),
    ("moments.stationary_moments_s", "s", ("self", "moments.stationary_moments")),
    ("cli.main_s", "s", ("self", "cli.main")),
    ("cli.read_events_csv_s", "s", ("self", "cli.read_events_csv")),
    ("cli.write_events_csv_s", "s", ("self", "cli.write_events_csv")),
    ("trace.overhead_pct", "%", ("overhead",)),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_in_child(args) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class PeakRss:
    """Peak resident set of this process during a block, in bytes.

    Sampled every 5 ms from /proc/self/statm by a thread, so an allocation
    that lives for less than that may be missed.
    """

    PAGE = os.sysconf("SC_PAGE_SIZE")

    @classmethod
    def current(cls) -> int:
        with open("/proc/self/statm") as f:
            return int(f.read().split()[1]) * cls.PAGE

    def __enter__(self):
        self.peak = self.current()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()
        return self

    def _sample(self):
        while not self._stop.wait(0.005):
            self.peak = max(self.peak, self.current())

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, self.current())


class Rounds:
    """Whole operations, timed one by one, with their outputs checked."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.peaks: list[int] = []

    def run(self, r: int):
        """Time operation r; returns (seconds, output) or None if it raised."""
        self.attempted += 1
        try:
            with PeakRss() as rss:
                t0 = time.perf_counter()
                out = self.workload.op(r)
                dt = time.perf_counter() - t0
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        self.peaks.append(rss.peak)
        self.errors += [f"round {r}: {e}" for e in self.workload.check(r, out)]
        return dt, out


def layer_metrics(tracer, workload, rounds: int, overhead_pct: float) -> dict:
    totals = tracer.totals()
    counts = tracer.counts
    metrics = {}
    for name, unit, source in LAYER_METRICS:
        kind = source[0]
        span = source[1] if kind in ("self", "total") else None
        if span is not None and span in workload.layers and (span in tracer.missing or span not in totals):
            print(f"layer {span} is absent: no span recorded", file=sys.stderr)
            value = None
        elif kind in ("self", "total"):
            calls, total, self_time = totals.get(span, (0, 0.0, 0.0))
            value = (self_time if kind == "self" else total) / rounds
        elif kind == "count":
            value = counts.get(source[1], 0.0) / rounds
        elif kind == "thinning_us_per_event":
            events = counts.get("simulate.thinning_events", 0.0)
            thinning = totals.get("simulate.thinning", (0, 0.0, 0.0))[2]
            value = 1e6 * thinning / events if events else 0.0
        elif kind == "parent_hit_ratio":
            parents = counts.get("estimator.parents", 0.0)
            value = counts.get("estimator.parent_hits", 0.0) / parents if parents else 0.0
        else:  # overhead
            value = overhead_pct
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hawkesnet", "__init__.py")):
        print(f"no hawkesnet source under {SRC}: run from the root of a source tree", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads
    from hostspeed import HostSpeed
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        workload.setup()
        setup_s = time.perf_counter() - T_PROCESS
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        workload.warm_up()

        rounds = Rounds(workload)
        # Operation times scaled to the host's nominal speed (hostspeed.py),
        # from the reference timed just before and just after each.
        times, traced_times = [], []
        raw_times, spent = [], 0.0
        tracer = Tracer()
        host = HostSpeed()
        before = host.sample_for(REFERENCE_MIN_S)
        r = 0
        while True:
            # A traced run repeats each operation with spans on, alternating
            # which goes first; the difference of the two is the overhead.
            for traced in ((False, True) if r % 2 == 0 else (True, False)) if args.trace else (False,):
                if traced:
                    workloads.install_layer_hooks(tracer)
                try:
                    done = rounds.run(r)
                finally:
                    tracer.unwrap()
                if done is not None:
                    dt = done[0]
                    after = host.sample_for(max(REFERENCE_MIN_S, REFERENCE_SHARE * dt))
                    around = {half: (before[half] + after[half]) / 2 for half in after}
                    (traced_times if traced else times).append(dt * host.scale(workload.host_reference, around))
                    before, spent = after, spent + dt
                    if traced:
                        workload.count(tracer, done[1])
                    else:
                        raw_times.append(dt)
            r += 1
            if r >= workload.min_rounds and spent >= args.seconds:
                break
        if not times or (args.trace and not traced_times):
            print("no operation succeeded", file=sys.stderr)
            return 1
        for e in rounds.errors:
            print(f"check failed: {e}", file=sys.stderr)
        print(f"operation seconds: {[round(t, 4) for t in raw_times]}", file=sys.stderr)
        print(f"operation scaled seconds: {[round(t, 4) for t in times]}", file=sys.stderr)
        for half, samples in host.samples.items():
            print(f"reference {half} seconds: {[round(t, 4) for t in samples]}", file=sys.stderr)
        print(f"operation peak MB: {[round(p / 2**20, 1) for p in rounds.peaks]}", file=sys.stderr)

        if args.trace:
            overhead = 100.0 * (statistics.median(traced_times) / statistics.median(times) - 1.0)
            metrics = layer_metrics(tracer, workload, len(traced_times), overhead)
            tracer.dump(os.path.join(OUT, f"trace-{tag}.json"),
                        workload=args.workload, seed=args.seed, rounds=len(traced_times))
        else:
            setups = [setup_s] + [setup_in_child(args) for _ in range(SETUP_CHILDREN)]
            # Set-up (imports, making inputs) is scaled by both halves'
            # median times over the run.
            scale = host.scale(("bulk", "scalar"))
            print(f"set-up seconds: {[round(t, 4) for t in setups]}; scale {scale:.4f}", file=sys.stderr)
            metrics = {
                "op_s": {"value": statistics.median(times), "unit": "s"},
                "setup_s": {"value": statistics.median(setups) * scale, "unit": "s"},
                # The median operation's peak: the T* bisection sometimes
                # widens its bracket to T=8000, and the process-wide peak
                # would follow that one search.
                "peak_rss_mb": {"value": statistics.median(rounds.peaks) / 2**20, "unit": "MB"},
            }
        result = {
            "correct": not rounds.errors,
            "attempted": rounds.attempted,
            "failed": rounds.failed,
            "metrics": metrics,
        }
        line = json.dumps(result)
        with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
            f.write(line + "\n")
        print(line)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
