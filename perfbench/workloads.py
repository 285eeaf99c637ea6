"""The benchmark's three workloads.

Each workload's ``setup(ctx)`` prepares its inputs from the workload seed and
returns one pass: a list of :class:`Op`. The runner cycles through the pass,
one op at a time (a closed loop with one client). ``Op.run`` is the timed
call into the program; ``Op.verify`` checks its output untimed and returns a
fingerprint that every later execution of the same op must reproduce.

- ``pipeline``: one ``harness.run_experiment`` per op, on each shipped config
  at two master seeds. This is what users run, and the first-order autodiff
  tape does most of its work.
- ``influence``: one ``unlearn.influence`` call per op on a trained baseline.
  This is the curvature path: Hessian-vector products inside a CG solve.
- ``artifacts``: one in-process ``cli.main`` stage call per op (generate,
  eval, cobum, saliency). Many short ops that read and write files; the tape
  barely matters here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from unlearnlab import biasgen as bg
from unlearnlab import cli
from unlearnlab import harness as hn
from unlearnlab import unlearn as ul

CONFIGS = ("patch", "attribute", "pose")
RESULT_FILES = ("results.csv", "results.json", "results.md")
REFERENCE_PATH = Path(__file__).resolve().with_name("reference.json")

# Influence: forget rows scored per config and pass, and the solver settings.
INFLUENCE_ROWS = 8
INFLUENCE_DAMPING = 1e-2

SALIENCY_LIMIT = 64
REPORT_FIELDS = ("fa", "ra", "ta", "dp_gap", "eo_gap", "mia_auc")


class Mismatch(Exception):
    """An op's output differs from what it must be."""


@dataclass
class Op:
    key: str
    run: Callable[[], object]
    verify: Callable[[object], object]


@dataclass
class Context:
    """Where a set-up writes, and the seed its inputs come from."""

    root: Path
    work: Path
    seed: int
    _dirs: int = 0

    def config(self, name: str) -> str:
        return str(self.root / "configs" / f"{name}.cfg")

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.work / f"{label}-{self._dirs}"
        path.mkdir(parents=True)
        return path


def master_seeds(seed: int) -> tuple[int, int]:
    """The two master seeds the pipeline workload runs each config at."""
    return seed, seed + 1


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------

def results_digests(out: Path) -> dict:
    return {name: _digest(out / name) for name in RESULT_FILES}


def verify_results(out: Path, manifest, expected: dict | None) -> dict:
    """Digests of a run's results.*; raises Mismatch on a failed strategy or
    on digests that differ from ``expected`` (when given)."""
    if manifest.failed_strategies:
        raise Mismatch(f"failed strategies: {manifest.failed_strategies}")
    digests = results_digests(out)
    if expected is not None and digests != expected:
        raise Mismatch(f"results digests differ from the reference in {out}")
    return digests


def setup_pipeline(ctx: Context) -> list[Op]:
    configs = {name: hn.load_config(ctx.config(name)) for name in CONFIGS}
    reference = load_reference()
    ops = []
    for master in master_seeds(ctx.seed):
        for name, cfg in configs.items():
            # Generating the bundles here fills lazy caches before timing.
            hn.build_bundle(cfg, master)
            ops.append(_pipeline_op(ctx, name, cfg, master,
                                    reference.get(f"{name}@{master}")))
    return ops


def _pipeline_op(ctx, name, cfg, master, expected) -> Op:
    config_path = ctx.config(name)

    def run():
        out = ctx.fresh_dir(f"run-{name}-{master}")
        return out, hn.run_experiment(cfg, master, out, config_path=config_path)

    def verify(outcome):
        out, manifest = outcome
        try:
            return verify_results(out, manifest, expected)
        finally:
            shutil.rmtree(out)

    return Op(f"{name}@{master}", run, verify)


# ---------------------------------------------------------------------------
# influence
# ---------------------------------------------------------------------------

def setup_influence(ctx: Context) -> list[Op]:
    rng = np.random.default_rng(ctx.seed)
    per_config = []
    for name in CONFIGS:
        cfg = hn.load_config(ctx.config(name))
        bundle = hn.build_bundle(cfg, ctx.seed)
        model, _, _ = hn.train_baseline(cfg, bundle, ctx.seed)
        _, bias_fn = ul.loss_closure(model, bg.forget_samples(bundle), "head")
        rows = sorted(int(i) for i in rng.choice(bundle.forget_idx, INFLUENCE_ROWS,
                                                 replace=False))
        per_config.append([_influence_op(name, model, bundle, bias_fn, row)
                           for row in rows])
    return [op for group in zip(*per_config) for op in group]


def _influence_op(name, model, bundle, bias_fn, row) -> Op:
    sample = bundle.train[row]

    def run():
        return ul.influence(model, sample, bias_fn, bundle.train,
                            damping=INFLUENCE_DAMPING, scope="head")

    def verify(result):
        if not math.isfinite(result.value):
            raise Mismatch(f"non-finite influence {result.value}")
        return (result.value, result.iterations, result.converged)

    return Op(f"{name}:row{row}", run, verify)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

def call_cli(argv: list[str]) -> int:
    """cli.main in-process, with the stage's progress line swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _exit_ok(code: int, what: str) -> None:
    if code != 0:
        raise Mismatch(f"{what} exited with code {code}")


def _columns(samples: list) -> tuple:
    # Built here rather than with bg.stack so that checks stay out of the trace.
    return (np.array([smp.s for smp in samples]), np.array([smp.b for smp in samples]),
            np.array([(smp.label, smp.group, smp.bias_flag) for smp in samples]))


def bundles_equal(a: bg.DataBundle, b: bg.DataBundle) -> bool:
    same_meta = ((a.kind, a.d_s, a.d_b, a.n_classes, a.seed, a.meta)
                 == (b.kind, b.d_s, b.d_b, b.n_classes, b.seed, b.meta))
    same_rows = all(
        np.array_equal(x, y)
        for split in bg.SPLITS
        for x, y in zip(_columns(a.split(split)), _columns(b.split(split))))
    return same_meta and same_rows and np.array_equal(a.forget_idx, b.forget_idx)


def setup_artifacts(ctx: Context) -> list[Op]:
    ops = []
    for name in CONFIGS:
        ops.extend(_artifact_ops(ctx, name))
    return ops


def _artifact_ops(ctx: Context, name: str) -> list[Op]:
    config, seed = ctx.config(name), str(ctx.seed)
    common = ["--config", config, "--seed", seed]
    run_dir = ctx.fresh_dir(f"setup-{name}")
    _exit_ok(call_cli(["run", *common, "--out", str(run_dir)]), f"run {name}")
    checkpoints = json.loads((run_dir / "manifest.json").read_text())["checkpoints"]
    run_reports = json.loads((run_dir / "eval_reports.json").read_text())
    baseline_report = run_dir / "baseline_report.json"
    baseline_report.write_text(json.dumps(run_reports["baseline"]) + "\n")
    cfg = hn.load_config(config)
    expected_bundle = hn.build_bundle(cfg, ctx.seed)
    out = ctx.fresh_dir(f"stages-{name}")
    ops = []

    def generate():
        code = call_cli(["generate", *common, "--out", str(out / "generate")])
        loaded = bg.load_bundle(out / "generate" / "bundle.csv") if code == 0 else None
        return code, loaded

    def verify_generate(outcome):
        code, loaded = outcome
        _exit_ok(code, f"generate {name}")
        if not bundles_equal(loaded, expected_bundle):
            raise Mismatch(f"bundle for {name} does not round-trip")
        return _digest(out / "generate" / "bundle.csv")

    ops.append(Op(f"{name}:generate", generate, verify_generate))

    for role, checkpoint in checkpoints.items():
        report = out / f"eval-{role}" / "report.json"
        argv = ["eval", *common, "--checkpoint", checkpoint,
                "--baseline-report", str(baseline_report),
                "--out", str(report.parent)]
        ops.append(Op(f"{name}:eval:{role}", _cli_runner(argv),
                      _eval_verifier(report, run_reports[role])))

    for strategy in cfg.strategies:
        target = out / f"cobum-{strategy}" / "cobum.json"
        argv = ["cobum", "--config", config,
                "--unlearned", str(out / f"eval-{strategy}" / "report.json"),
                "--gold-report", str(out / "eval-gold" / "report.json"),
                "--baseline-report", str(out / "eval-baseline" / "report.json"),
                "--out", str(target.parent)]
        ops.append(Op(f"{name}:cobum:{strategy}", _cli_runner(argv),
                      _cobum_verifier(target)))

    target = out / "saliency" / "saliency.csv"
    argv = ["saliency", *common, "--checkpoint", checkpoints["baseline"],
            "--limit", str(SALIENCY_LIMIT), "--out", str(target.parent)]
    ops.append(Op(f"{name}:saliency", _cli_runner(argv), _saliency_verifier(target)))
    return ops


def _cli_runner(argv):
    return lambda: call_cli(argv)


def _eval_verifier(report: Path, expected: dict):
    def verify(code):
        _exit_ok(code, f"eval -> {report}")
        got = json.loads(report.read_text())
        if any(got[k] != expected[k] for k in REPORT_FIELDS):
            raise Mismatch(f"{report} differs from the run's own evaluation")
        return _digest(report)
    return verify


def _cobum_verifier(target: Path):
    def verify(code):
        _exit_ok(code, f"cobum -> {target}")
        if not math.isfinite(json.loads(target.read_text())["composite"]):
            raise Mismatch(f"{target}: non-finite composite")
        return _digest(target)
    return verify


def _saliency_verifier(target: Path):
    def verify(code):
        _exit_ok(code, f"saliency -> {target}")
        lines = target.read_text().splitlines()
        if len(lines) != SALIENCY_LIMIT + 1:
            raise Mismatch(f"{target}: {len(lines) - 1} rows, want {SALIENCY_LIMIT}")
        return _digest(target)
    return verify


@dataclass(frozen=True)
class Workload:
    setup: Callable[[Context], list]
    why: str
    warmup_passes: int
    nominal_pass_s: float  # sets the traced run's pass count from --seconds


WORKLOADS = {
    "pipeline": Workload(
        setup_pipeline, "harness.run_experiment on every shipped config: what users "
        "run, dominated by the first-order autodiff tape", 0, 15.0),
    "influence": Workload(
        setup_influence, "unlearn.influence on trained baselines: the Hessian-vector "
        "product and conjugate-gradient path behind FMD and influence scores", 1, 2.0),
    "artifacts": Workload(
        setup_artifacts, "in-process cli stage calls that write and read bundles, "
        "checkpoints and reports: many short ops where the tape barely matters", 1, 1.0),
}


def workload_entries() -> list:
    """The workloads list of BENCHMARK.json."""
    return [{"name": name, "why": w.why} for name, w in WORKLOADS.items()]

