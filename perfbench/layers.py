"""The traced functions of each program layer and the per-layer metrics
derived from their spans and counters.

A layer is one module of ``src/unlearnlab``. Only the functions named in
``TRACED`` are wrapped; the autodiff primitives (add, matmul, ...) are not,
so their cost lands in the self time of whichever traced function built or
differentiated the tape (``model.forward`` for tape construction,
``autodiff.grad`` for the backward pass).

Counters are machine-independent: they come from the traced calls' arguments
and results (cost units, tape nodes, CG iterations, rows, bytes written), so
two traced runs of the same seed and run length give identical counters.
"""

from __future__ import annotations

import importlib
import math
import os

STRATEGIES = ("hard_unlearn", "gradient_ascent", "lora_unlearn", "scrub_unlearn",
              "fmd_unlearn")

TRACED = {
    "autodiff": ("grad", "hessian_vector_product", "cg_solve"),
    "model": ("forward", "train", "Adam.step", "save_checkpoint", "load_checkpoint"),
    "biasgen": ("gen_patch_bias", "gen_attribute_bias", "gen_pose_bias", "stack",
                "save_bundle", "load_bundle", "build_counterfactual"),
    "unlearn": STRATEGIES + ("influence",),
    "fairness_eval": ("evaluate_model", "mia_auc", "saliency"),
    "cobum": ("score_reports",),
    "harness": ("load_config", "run_experiment", "emit_table"),
    "cli": ("main",),
}

STAGES = ("generate", "baseline", "gold", "strategies", "evaluate", "cobum", "emit")


# ---------------------------------------------------------------------------
# Counter hooks: hook(tracer, args, kwargs, result) after a traced call.
# ---------------------------------------------------------------------------

def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _grad(ad):
    def hook(t, args, kwargs, result):
        output = _arg(args, kwargs, 0, "output")
        t.count("autodiff.grad.tape_nodes", len(ad.trace(output).nodes))
    return hook


def _cg_solve(t, args, kwargs, result):
    t.count("autodiff.cg_solve.iterations", result.iterations)
    t.count("autodiff.cg_solve.converged", result.converged)


def _strategy(name):
    def hook(t, args, kwargs, result):
        t.count(f"unlearn.{name}.steps", len(result.step_log))
        t.count(f"unlearn.{name}.cost_units", result.cost_units)
        if name == "gradient_ascent":
            t.count("unlearn.gradient_ascent.truncated", result.truncated)
        if name == "fmd_unlearn":
            t.count("unlearn.fmd_unlearn.cg_iterations", result.extra["cg_iterations"])
            t.count("unlearn.fmd_unlearn.fallback", result.extra["fallback"])
    return hook


def _train(t, args, kwargs, result):
    n = len(_arg(args, kwargs, 1, "data")[0])
    config = _arg(args, kwargs, 2, "config")
    t.count("model.train.samples", config.epochs * n)
    t.count("model.train.steps", config.epochs * math.ceil(n / config.batch_size))


def _save_checkpoint(t, args, kwargs, result):
    t.count("model.save_checkpoint.bytes", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _save_bundle(t, args, kwargs, result):
    path = str(_arg(args, kwargs, 1, "path"))
    t.count("biasgen.save_bundle.bytes",
            os.path.getsize(path) + os.path.getsize(path + ".meta.json"))


def _stack(t, args, kwargs, result):
    t.count("biasgen.stack.rows", len(_arg(args, kwargs, 0, "samples")))


def _run_experiment(t, args, kwargs, result):
    for stage, seconds in result.stage_seconds.items():
        t.count(f"harness.stage.{stage}_s", seconds)


def targets() -> list:
    """(owner, attribute, span name, hook) for every traced function."""
    modules = {layer: importlib.import_module(f"unlearnlab.{layer}") for layer in TRACED}
    hooks = {
        "autodiff.grad": _grad(modules["autodiff"]),
        "autodiff.cg_solve": _cg_solve,
        "model.train": _train,
        "model.save_checkpoint": _save_checkpoint,
        "biasgen.save_bundle": _save_bundle,
        "biasgen.stack": _stack,
        "harness.run_experiment": _run_experiment,
    }
    hooks.update({f"unlearn.{s}": _strategy(s) for s in STRATEGIES})
    out = []
    for layer, functions in TRACED.items():
        for function in functions:
            owner = modules[layer]
            *outer, attr = function.split(".")
            for part in outer:
                owner = getattr(owner, part)
            name = f"{layer}.{function}"
            out.append((owner, attr, name, hooks.get(name)))
    return out


# ---------------------------------------------------------------------------
# Per-layer metrics.
# ---------------------------------------------------------------------------

class TraceResult:
    """What a traced run measured: span summary, counters, wall and op rate."""

    def __init__(self, summary: dict, counters: dict, wall_s: float, root_s: float,
                 hook_s: float, ops_per_s: float):
        self.summary = summary
        self.counters = counters
        self.wall_s = wall_s  # on the span clock, which excludes hook_s
        self.root_s = root_s
        self.hook_s = hook_s
        self.ops_per_s = ops_per_s

    def span(self, name: str) -> dict:
        return self.summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def _specs() -> list:
    """(name, unit, better, value(TraceResult)) for every per-layer metric."""
    specs = []

    def add(name, unit, better, value):
        specs.append((name, unit, better, value))

    def calls(fn):
        add(f"{fn}.calls", "count", "lower", lambda r: r.span(fn)["calls"])

    def self_s(fn):
        add(f"{fn}.self_s", "s", "lower", lambda r: r.span(fn)["self_s"])

    def total_s(fn):
        add(f"{fn}.total_s", "s", "lower", lambda r: r.span(fn)["total_s"])

    def counter(name, unit):
        add(name, unit, "lower", lambda r: r.counter(name))

    def per_call(name, fn, unit):
        add(name, unit, "lower", lambda r: _ratio(r.counter(name), r.span(fn)["calls"]))

    def call_us(fn):
        add(f"{fn}.call_us", "us", "lower",
            lambda r: _ratio(r.span(fn)["total_s"], r.span(fn)["calls"], 1e6))

    grad, hvp, cg = "autodiff.grad", "autodiff.hessian_vector_product", "autodiff.cg_solve"
    calls(grad)
    self_s(grad)
    per_call("autodiff.grad.tape_nodes", grad, "count")
    calls(hvp)
    self_s(hvp)
    counter("autodiff.cg_solve.iterations", "count")
    add("autodiff.cg_solve.converged_ratio", "ratio", "higher",
        lambda r: _ratio(r.counter("autodiff.cg_solve.converged"), r.span(cg)["calls"]))
    self_s(cg)

    calls("model.forward")
    self_s("model.forward")
    self_s("model.train")
    counter("model.train.samples", "count")
    calls("model.Adam.step")
    self_s("model.Adam.step")
    per_call("model.save_checkpoint.bytes", "model.save_checkpoint", "B")
    self_s("model.save_checkpoint")
    self_s("model.load_checkpoint")

    for gen in ("gen_patch_bias", "gen_attribute_bias", "gen_pose_bias"):
        self_s(f"biasgen.{gen}")
    calls("biasgen.stack")
    counter("biasgen.stack.rows", "count")
    self_s("biasgen.stack")
    per_call("biasgen.save_bundle.bytes", "biasgen.save_bundle", "B")
    self_s("biasgen.save_bundle")
    self_s("biasgen.load_bundle")
    self_s("biasgen.build_counterfactual")

    for strategy in STRATEGIES:
        fn = f"unlearn.{strategy}"
        self_s(fn)
        total_s(fn)
        counter(f"{fn}.steps", "count")
        counter(f"{fn}.cost_units", "count")
    counter("unlearn.gradient_ascent.truncated", "count")
    counter("unlearn.fmd_unlearn.cg_iterations", "count")
    counter("unlearn.fmd_unlearn.fallback", "count")
    self_s("unlearn.influence")

    evaluate = "fairness_eval.evaluate_model"
    calls(evaluate)
    self_s(evaluate)
    total_s(evaluate)
    total_s("fairness_eval.mia_auc")
    calls("fairness_eval.saliency")
    total_s("fairness_eval.saliency")

    calls("cobum.score_reports")
    self_s("cobum.score_reports")

    self_s("harness.load_config")
    self_s("harness.run_experiment")
    self_s("harness.emit_table")
    for stage in STAGES:
        counter(f"harness.stage.{stage}_s", "s")

    calls("cli.main")
    self_s("cli.main")

    # Microseconds per call at the workload's own sizes (ROADMAP item 1).
    add("model.train.step_us", "us", "lower",
        lambda r: _ratio(r.span("model.train")["total_s"], r.counter("model.train.steps"), 1e6))
    call_us("model.forward")
    call_us(hvp)
    add("autodiff.cg_solve.iteration_us", "us", "lower",
        lambda r: _ratio(r.span(cg)["total_s"], r.counter("autodiff.cg_solve.iterations"), 1e6))
    call_us(evaluate)
    for fn in ("biasgen.save_bundle", "biasgen.load_bundle",
               "model.save_checkpoint", "model.load_checkpoint"):
        call_us(fn)

    add("trace.wall_s", "s", "lower", lambda r: r.wall_s)
    add("trace.other_s", "s", "lower", lambda r: r.wall_s - r.root_s)
    add("trace.hooks_s", "s", "lower", lambda r: r.hook_s)
    add("trace.ops_per_s", "1/s", "higher", lambda r: r.ops_per_s)
    return specs


SPECS = _specs()


def per_layer_metrics(result: TraceResult) -> dict:
    return {name: {"value": float(value(result)), "unit": unit}
            for name, unit, _, value in SPECS}


def benchmark_entries() -> list:
    """The per_layer list of BENCHMARK.json."""
    return [{"name": name, "unit": unit, "better": better}
            for name, unit, better, _ in SPECS]
