"""Tests of the benchmark itself: span arithmetic, wrapper removal, metric
names, and that wrong outputs count as failures.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from unlearnlab import biasgen, harness, unlearn  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_is_total_minus_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9];
    # d re-enters a at [6, 8], so a's total counts [0, 10] once.
    events = [(0, "open", "a"), (1, "open", "b"), (2, "open", "c"), (3, "close", None),
              (4, "close", None), (5, "open", "d"), (6, "open", "a"), (8, "close", None),
              (9, "close", None), (10, "close", None)]
    stack = []
    for t, kind, name in events:
        clock.t = float(t)
        if kind == "open":
            stack.append(tracer.open(name))
        else:
            tracer.close(stack.pop())
    summary = tracer.summary()
    assert summary["c"] == {"calls": 1, "total_s": 1.0, "self_s": 1.0}
    assert summary["b"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert summary["d"] == {"calls": 1, "total_s": 4.0, "self_s": 2.0}
    # outer a: 10 - 3 - 4 = 3; inner a: 2.
    assert summary["a"] == {"calls": 2, "total_s": 10.0, "self_s": 5.0}
    assert sum(s["self_s"] for s in summary.values()) == tracer.root_seconds() == 10.0


def test_hook_time_is_kept_out_of_every_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def work():
        clock.t += 2.0

    def hook(t, args, kwargs, result):
        clock.t += 5.0
        t.count("work.hooked")

    inner = tracer.wrap("inner", work, hook)

    def outer():
        clock.t += 1.0
        inner()

    tracer.wrap("outer", outer)()
    summary = tracer.summary()
    assert summary["inner"]["self_s"] == 2.0
    assert summary["outer"] == {"calls": 1, "total_s": 3.0, "self_s": 1.0}
    assert tracer.hook_s == 5.0
    assert tracer.counters == {"work.hooked": 1.0}


def test_wrappers_are_gone_after_the_traced_block():
    targets = layers.targets()
    before = [getattr(owner, attr) for owner, attr, _, _ in targets]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(targets):
            assert all(getattr(owner, attr) is not fn
                       for (owner, attr, _, _), fn in zip(targets, before))
            raise RuntimeError("leave the block early")
    assert all(getattr(owner, attr) is fn for (owner, attr, _, _), fn in zip(targets, before))


def _traced_influence():
    """Train the patch baseline and score one forget row, traced."""
    tracer = Tracer()
    with tracer.installed(layers.targets()):
        t0 = tracer.now()
        cfg = harness.load_config(ROOT / "configs" / "patch.cfg")
        bundle = harness.build_bundle(cfg, 1)
        trained, _, _ = harness.train_baseline(cfg, bundle, 1)
        _, bias_fn = unlearn.loss_closure(trained, biasgen.forget_samples(bundle), "head")
        row = bundle.train[int(bundle.forget_idx[0])]
        unlearn.influence(trained, row, bias_fn, bundle.train, scope="head")
        wall = tracer.now() - t0
    return tracer, wall, len(bundle.train)


def test_traced_counters_repeat_and_self_times_sum_to_wall():
    first, wall, n_train = _traced_influence()
    second, _, _ = _traced_influence()
    assert first.counters == second.counters
    assert first.counters["autodiff.cg_solve.iterations"] > 0
    result = layers.TraceResult(first.summary(), first.counters, wall,
                                first.root_seconds(), first.hook_s, 1.0)
    metrics = layers.per_layer_metrics(result)
    total_self = sum(s["self_s"] for s in result.summary.values())
    assert total_self + metrics["trace.other_s"]["value"] == pytest.approx(wall, rel=1e-9)
    assert metrics["model.train.samples"]["value"] == 40 * n_train


def test_metric_names_are_valid_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = ([m["name"] for m in spec["end_to_end"]] + [m["name"] for m in spec["per_layer"]]
             + [w["name"] for w in spec["workloads"]])
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert spec["per_layer"] == layers.benchmark_entries()
    assert spec["workloads"] == workloads.workload_entries()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


class _Op:
    def __init__(self, key, outputs):
        self.key = key
        self._outputs = iter(outputs)

    def run(self):
        return next(self._outputs)

    def verify(self, outcome):
        if outcome is None:
            raise workloads.Mismatch("no output")
        return outcome


def test_runner_counts_raised_wrong_and_changed_outputs():
    runner = run.Runner()
    op = _Op("x", ["a", "a", None, "b"])
    for _ in range(4):
        runner.execute(op, timed=True)
    assert (runner.attempted, runner.failed, runner.correct) == (4, 2, 2)


def test_op_ms_p50_averages_each_ops_median():
    runner = run.Runner()
    runner.latencies = {"cheap": [0.001, 0.002, 0.009], "dear": [0.010, 0.030]}
    assert runner.op_ms_p50() == pytest.approx((2.0 + 20.0) / 2)


def test_tampered_results_file_is_a_failure(tmp_path):
    ctx = workloads.Context(ROOT, tmp_path, seed=1)
    cfg = harness.load_config(ctx.config("patch"))
    reference = workloads.load_reference()["patch@1"]
    op = workloads._pipeline_op(ctx, "patch", cfg, 1, reference)
    runner = run.Runner()
    runner.execute(op, timed=True)
    assert runner.failed == 0

    def tampered():
        out, manifest = op.run()
        with open(out / "results.csv", "a", encoding="utf-8") as fh:
            fh.write("\n")
        return out, manifest

    runner.execute(workloads.Op(op.key, tampered, op.verify), timed=True)
    assert (runner.attempted, runner.failed) == (2, 1)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
