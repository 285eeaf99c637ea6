#!/usr/bin/env python3
"""unlearnlab benchmark.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The program is imported from ``src/`` of
that checkout. One process, one client, one op at a time; BLAS is pinned to
one thread. With ``--trace 0`` the run sets up several times (the
median is ``setup_s``), warms up, then cycles through the workload's ops for
``--seconds`` and reports the end-to-end metrics. With ``--trace 1`` it wraps
the traced functions of every layer, sets up once, runs a fixed number of
passes derived from ``--seconds``, unwraps, and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it are
comments (``#``): the environment, every end-to-end figure with its unit, and
for traced runs the heaviest spans by self time.

``--workload all`` runs every workload untraced and traced, each in its own
process, and prints the end-to-end metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("pipeline", "influence", "artifacts")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set up at least SETUP_REPS times and for at least SETUP_MIN_S seconds, so
# that a set-up of a tenth of a second is still a median of many.
SETUP_REPS = 3
SETUP_MIN_S = 1.0
P90_MIN_OPS = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def comment(label: str, payload) -> None:
    print(f"# {label}: {json.dumps(payload, sort_keys=True)}", flush=True)


def environment(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu": cpu,
        "loadavg": os.getloadavg(),
    }


class Runner:
    """Executes ops one at a time and keeps the first fingerprint of each."""

    def __init__(self):
        self.fingerprints: dict = {}
        self.attempted = 0
        self.failed = 0
        self.latencies: dict[str, list[float]] = {}  # op key -> correct timed runs
        self.correct = 0
        self.pass_rates: list[float] = []

    def execute(self, op, timed: bool) -> None:
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            outcome = op.run()
            elapsed = time.perf_counter() - t0
            fingerprint = op.verify(outcome)
        except Exception as e:  # noqa: BLE001 - a failed op is counted, not fatal
            self.failed += 1
            print(f"op {op.key} failed: {type(e).__name__}: {e}", file=sys.stderr)
            return
        if self.fingerprints.setdefault(op.key, fingerprint) != fingerprint:
            self.failed += 1
            print(f"op {op.key} failed: output differs from its first run",
                  file=sys.stderr)
            return
        if timed:
            self.latencies.setdefault(op.key, []).append(elapsed)
            self.correct += 1

    def loop(self, ops, seconds=None, passes=None) -> float:
        """Cycle through ops until ``seconds`` pass or ``passes`` complete,
        recording each complete pass's rate of correct ops; returns the
        loop's wall time."""
        start = pass_start = time.perf_counter()
        pass_correct = self.correct
        i = 0
        while (i < passes * len(ops) if passes is not None
               else time.perf_counter() - start < seconds):
            self.execute(ops[i % len(ops)], timed=True)
            i += 1
            if i % len(ops) == 0:
                now = time.perf_counter()
                self.pass_rates.append((self.correct - pass_correct) / (now - pass_start))
                pass_start, pass_correct = now, self.correct
        return time.perf_counter() - start

    def ops_per_s(self, wall: float) -> float:
        """Median rate over complete passes: a burst of slow ops moves it less
        than it moves the whole loop's rate. A loop shorter than one pass
        falls back to that."""
        if self.pass_rates:
            return statistics.median(self.pass_rates)
        return self.correct / wall

    def op_ms_p50(self) -> float:
        """Each op's median latency, averaged over the pass's ops.

        A pass mixes ops of very different cost (configs, stages), so the
        median of the pooled latencies sits on the edge between two kinds of
        op and jumps between them from run to run; per-op medians do not.
        """
        medians = [statistics.median(v) for v in self.latencies.values()]
        return 1e3 * statistics.fmean(medians) if medians else 0.0


def end_to_end(runner: Runner, wall: float, setup_times: list) -> tuple[dict, dict]:
    """(metrics for the result line, extra figures printed as comments)."""
    lat = [x for runs in runner.latencies.values() for x in runs]
    metrics = {
        "ops_per_s": {"value": runner.ops_per_s(wall), "unit": "1/s"},
        "op_ms_p50": {"value": runner.op_ms_p50(), "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }
    extra = {
        "op_ms_p90": ({"value": 1e3 * statistics.quantiles(lat, n=10)[8], "unit": "ms"}
                      if len(lat) >= P90_MIN_OPS else
                      {"value": None, "unit": "ms", "note": f"needs {P90_MIN_OPS} ops"}),
        "fail_ratio": {"value": runner.failed / runner.attempted, "unit": "ratio"},
        "samples": len(lat),
        "samples_per_op": min((len(v) for v in runner.latencies.values()), default=0),
        "passes": len(runner.pass_rates),
        "setup_runs_s": setup_times,
        "timed_wall_s": wall,
    }
    return metrics, extra


def run_untraced(workload, make_ctx, seconds: float) -> tuple[Runner, dict]:
    setup_times = []
    previous = None
    while len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S:
        ctx = make_ctx(f"setup{len(setup_times)}")
        t0 = time.perf_counter()
        ops = workload.setup(ctx)
        setup_times.append(time.perf_counter() - t0)
        if previous is not None:
            shutil.rmtree(previous)
        previous = ctx.work
    runner = Runner()
    for op in ops * workload.warmup_passes:
        runner.execute(op, timed=False)
    wall = runner.loop(ops, seconds=seconds)
    metrics, extra = end_to_end(runner, wall, setup_times)
    comment("end_to_end", {**metrics, **extra})
    return runner, metrics


def run_traced(workload, make_ctx, seconds: float) -> tuple[Runner, dict]:
    import layers
    from spans import Tracer

    passes = max(1, round(seconds / workload.nominal_pass_s))
    tracer = Tracer()
    runner = Runner()
    with tracer.installed(layers.targets()):
        t0 = tracer.now()
        ops = workload.setup(make_ctx("setup"))
        for op in ops * workload.warmup_passes:
            runner.execute(op, timed=False)
        loop_wall = runner.loop(ops, passes=passes)
        wall = tracer.now() - t0
    summary = tracer.summary()
    result = layers.TraceResult(summary, tracer.counters, wall, tracer.root_seconds(),
                                tracer.hook_s, runner.ops_per_s(loop_wall))
    heaviest = sorted(summary.items(), key=lambda kv: -kv[1]["self_s"])[:12]
    comment("self_time_share", {name: round(s["self_s"] / wall, 4) for name, s in heaviest})
    comment("traced", {"passes": passes, "ops": runner.correct, "wall_s": wall,
                       "hook_s": tracer.hook_s})
    return runner, layers.per_layer_metrics(result)


def run_workload(args) -> int:
    src = ROOT / "src"
    if not (src / "unlearnlab" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no unlearnlab sources under {ROOT}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]
    import numpy as np

    import workloads

    comment("env", environment(np))
    workload = workloads.WORKLOADS[args.workload]
    scratch_root = ROOT / ".perfbench_work"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))

    def make_ctx(label):
        (scratch / label).mkdir()
        return workloads.Context(ROOT, scratch / label, args.seed)

    try:
        if args.trace:
            runner, metrics = run_traced(workload, make_ctx, args.seconds)
        else:
            runner, metrics = run_untraced(workload, make_ctx, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"correct": runner.failed == 0, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a fresh process."""
    rows = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  check=False)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"error: {name} --trace {trace} exited {proc.returncode}",
                      file=sys.stderr)
                return 1
            for line in lines[:-1]:
                print(f"# {name} trace={trace} {line[2:]}")
            rows[name, trace] = json.loads(lines[-1])
    print(f"{'workload':<10} {'metric':<12} {'value':>12} unit")
    for name in WORKLOAD_NAMES:
        untraced, traced = rows[name, 0], rows[name, 1]
        for metric, entry in untraced["metrics"].items():
            print(f"{name:<10} {metric:<12} {entry['value']:>12.4f} {entry['unit']}")
        print(f"{name:<10} {'fail_ratio':<12} "
              f"{untraced['failed'] / untraced['attempted']:>12.4f} ratio")
        overhead = (untraced["metrics"]["ops_per_s"]["value"]
                    / traced["metrics"]["trace.ops_per_s"]["value"])
        print(f"{name:<10} {'trace_cost':<12} {overhead:>12.4f} "
              "untraced/traced ops_per_s")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
