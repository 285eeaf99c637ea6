"""Unlearning strategies: retraining, gradient ascent, low-rank adapters,
teacher-student distillation, and a one-step Newton update on counterfactual
data, plus influence scores for ranking sample contributions.

Every strategy takes the baseline model as an immutable input and returns a
fresh parameter set with a per-step loss trace. GA, LoRA, SCRUB and FMD's
fine-tune step on model.descend, the loop training runs on: each strategy
gives it a step plan, its read of a step's outputs (the loss to
differentiate, cost units, log fields) and its update rule, which for GA is
the divergence guard. Compute is accounted in deterministic cost units: a
backward pass over a batch of n samples costs n, a Hessian-vector product
costs 2n (it is a double backward). Reports built from these units are
identical across reruns, unlike wall-clock times, which the harness records
around each strategy call and writes only to the run manifest; nothing here
reads the clock. Cost units count work in the algorithm's terms and do not
measure time: a CG solve builds its Hessian-vector operator once and then
runs one first-order pass per product, yet each product still counts 2n, so
FMD's cost stays n_c * (1 + 2 * iterations).
"""

from __future__ import annotations

import contextlib
import itertools
import math
import weakref
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import biasgen as bg
from . import model as md

# Gradient ascent stops once the forget loss passes this ceiling; beyond it
# the iterates are headed for overflow, not useful forgetting.
FORGET_LOSS_CEILING = 50.0

# SCRUB's forget-divergence term stops contributing gradient once the batch
# KL exceeds this, preventing runaway drift away from the teacher.
FORGET_KL_CLIP = 10.0


@dataclass
class StrategyConfig:
    """Post-hoc strategy settings; each strategy reads the fields its record lists."""

    eta: float = 1e-3
    alpha: float = 1.0
    beta: float = 1.0
    rank: int = 8
    steps: int = 50
    damping: float = 1e-2
    seed: int = 0
    finetune_steps: int = 0
    hessian_scope: str = "head"

    def __post_init__(self):
        if not all(map(math.isfinite, (self.eta, self.alpha, self.beta, self.damping))):
            raise ValueError("eta, alpha, beta and damping must be finite")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("loss weights must be non-negative")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.steps < 0 or self.finetune_steps < 0:
            raise ValueError("step counts must be non-negative")
        if self.damping < 0:
            raise ValueError("damping must be non-negative")
        if self.hessian_scope not in ("head", "all"):
            raise ValueError(f"hessian_scope must be 'head' or 'all', got {self.hessian_scope!r}")


@dataclass
class UnlearnResult:
    model: md.ModelParams
    step_log: list[dict]
    cost_units: float = 0.0
    truncated: bool = False
    extra: dict = field(default_factory=dict)


def _forget_retain(bundle: bg.DataBundle) -> tuple:
    """(Xf, yf, Xr, yr): the inputs and labels of D_f and of D_r."""
    Xf, yf, _, _ = bg.stack(bg.forget_samples(bundle))
    Xr, yr, _, _ = bg.stack(bg.retain_samples(bundle))
    return Xf, yf, Xr, yr


def _retain_batches(model: md.ModelParams, Xr, yr, batch: int, cfg: StrategyConfig, *columns):
    """cfg.steps tuples (X, T, *columns) of the same batch rows of D_r, T
    the rows' loss targets for model's head; each step draws its rows without
    replacement from one stream seeded with cfg.seed."""
    T = md.loss_targets(yr, model.head, model.layer_sizes[-1])
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.steps):
        idx = rng.choice(len(Xr), size=batch, replace=False)
        yield tuple(np.take(c, idx, axis=0) for c in (Xr, T, *columns))


def _mean_loss(model: md.ModelParams, X: np.ndarray, y: np.ndarray) -> float:
    if not len(X):
        return float("nan")
    return float(np.mean(md.per_sample_loss(model, X, y)))


def loss_closure(model: md.ModelParams, samples, scope: str = "all"):
    """(theta0, fn) where fn maps a flat parameter tensor to the mean loss
    over samples, a record array or one record.

    The flat layout is the model module's flat_param_closure layout; with
    scope "head" the body activations are frozen at the model's current
    weights and only the last layer is a function of the flat vector.
    """
    X, y, _, _ = bg.stack(samples)
    if not len(X):
        raise ValueError("loss_closure: empty sample set")
    theta0, rebuild = md.flat_param_closure(model, scope)
    inputs = md.head_inputs(model, X).data if scope == "head" else X
    head = model.head

    def fn(flat: ad.Tensor) -> ad.Tensor:
        logits = md.forward_stack(rebuild(flat), inputs)
        return md.loss_from_logits(logits, y, head)

    return theta0, fn


# ---------------------------------------------------------------------------
# Hard unlearning: the gold model.
# ---------------------------------------------------------------------------

def hard_unlearn(
    bundle: bg.DataBundle,
    train_config: md.TrainConfig,
    layer_sizes: list[int],
    head: str = "softmax",
) -> UnlearnResult:
    """Fresh-initialized model trained on D_r only; the retraining oracle."""
    Xf, yf, Xr, yr = _forget_retain(bundle)
    if not len(Xr):
        raise ValueError("hard_unlearn: empty retain set")
    model = md.init_model(layer_sizes, head, train_config.seed)
    md.train(model, (Xr, yr), train_config)
    log = [{
        "step": 0,
        "forget_loss": _mean_loss(model, Xf, yf),
        "retain_loss": _mean_loss(model, Xr, yr),
    }]
    return UnlearnResult(
        model=model, step_log=log, cost_units=float(train_config.epochs * len(Xr)))


# ---------------------------------------------------------------------------
# Gradient ascent.
# ---------------------------------------------------------------------------

def gradient_ascent(
    model: md.ModelParams, bundle: bg.DataBundle, cfg: StrategyConfig
) -> UnlearnResult:
    """theta <- theta + eta * grad(L(D_f) - alpha * L(D_r batch)) per step.

    D_f is taken full-batch and D_r as a same-size seeded minibatch, keeping
    the two gradient terms comparable in scale. If an update pushes the
    forget loss past FORGET_LOSS_CEILING or any parameter non-finite, that
    update is undone and the result is flagged truncated.
    """
    Xf, yf, Xr, yr = _forget_retain(bundle)
    if not len(Xf):
        raise ValueError("gradient_ascent: empty forget set")
    if not len(Xr):
        raise ValueError("gradient_ascent: empty retain set")
    batch = min(len(Xf), len(Xr))

    work = md.copy_model(model)
    params = md.trainable_params(work)

    def build(X, T):
        loss_f = md.loss(work, Xf, yf)
        loss_r = md.target_loss(md.forward(work, X), T, work.head)
        return ad.sub(loss_f, ad.scale(loss_r, cfg.alpha)), loss_f, loss_r

    def read(outputs):
        objective, loss_f, loss_r = outputs
        return objective, len(Xf) + batch, {
            "forget_loss": float(loss_f.data), "retain_loss": float(loss_r.data)}

    def ascend(grads):
        # Updates rebind .data and nothing writes into it, so the arrays
        # themselves are the snapshot.
        snapshot = [p.data for p in params]
        for p, g in zip(params, grads):
            p.data = p.data + cfg.eta * g
        post = math.nan  # if a parameter is non-finite: the forward raises, numpy says nothing
        with contextlib.suppress(ad.NonFiniteError), np.errstate(over="ignore", invalid="ignore"):
            post = _mean_loss(work, Xf, yf)
        if not post <= FORGET_LOSS_CEILING:
            for p, s in zip(params, snapshot):
                p.data = s
            return True

    log, cost, truncated = md.descend(ad.StepPlan(build, params), ascend,
                                      _retain_batches(work, Xr, yr, batch, cfg), read, [])
    return UnlearnResult(model=work, step_log=log, cost_units=cost, truncated=truncated)


# ---------------------------------------------------------------------------
# Low-rank adapter unlearning.
# ---------------------------------------------------------------------------

def adapter_layer_index(model: md.ModelParams) -> int:
    """Last non-head layer, or the only layer of a depth-1 model."""
    return max(len(model.layers) - 2, 0)


def lora_unlearn(
    model: md.ModelParams, bundle: bg.DataBundle, cfg: StrategyConfig
) -> UnlearnResult:
    """Adam on adapter factors only, minimizing L(D_r batch) - beta * L(D_f).

    The base weights stay frozen; the returned model keeps its adapters
    attached (merge via the model module if a plain stack is needed).
    """
    if model.adapters:
        raise ValueError("lora_unlearn: model already carries adapters")
    Xf, yf, Xr, yr = _forget_retain(bundle)
    if not len(Xr):
        raise ValueError("lora_unlearn: empty retain set")
    batch = min(len(Xr), max(len(Xf), 1))

    work = md.copy_model(model)
    layer_idx = adapter_layer_index(work)
    md.attach_lora(work, [layer_idx], cfg.rank, cfg.seed)
    params = md.trainable_params(work)
    use_forget = len(Xf) > 0 and cfg.beta > 0.0

    def build(X, T):
        loss_r = md.target_loss(md.forward(work, X), T, work.head)
        if not use_forget:
            return loss_r, loss_r
        loss_f = md.loss(work, Xf, yf)
        return ad.sub(loss_r, ad.scale(loss_f, cfg.beta)), loss_r, loss_f

    def read(outputs):
        objective, loss_r, *loss_f = outputs
        forget = float(loss_f[0].data) if loss_f else _mean_loss(work, Xf, yf)
        return objective, batch + len(loss_f) * len(Xf), {
            "forget_loss": forget, "retain_loss": float(loss_r.data),
            "objective": float(objective.data)}

    log, cost, _ = md.descend(ad.StepPlan(build, params), md.Adam(params, cfg.eta).step,
                              _retain_batches(work, Xr, yr, batch, cfg), read, [])
    return UnlearnResult(model=work, step_log=log, cost_units=cost,
                         extra={"adapter_layer": layer_idx, "rank": cfg.rank})


# ---------------------------------------------------------------------------
# Teacher-student distillation (SCRUB-style).
# ---------------------------------------------------------------------------

def scrub_unlearn(
    baseline: md.ModelParams,
    teacher: md.ModelParams,
    bundle: bg.DataBundle,
    cfg: StrategyConfig,
) -> UnlearnResult:
    """Student starts from the baseline and is pulled toward the teacher on
    D_r (KL + task cross-entropy) and pushed away on D_f (negated KL).

    Each KL(teacher || student) is the student's loss against the teacher's
    probabilities plus their neg_entropy. The forget KL is clipped at
    FORGET_KL_CLIP per batch by dropping its gradient once past the cap; the
    logged total always equals retain_kl + task_loss - forget_used, and
    extra's clipped_steps counts the steps past the cap.
    """
    if baseline.layer_sizes != teacher.layer_sizes or baseline.head != teacher.head:
        raise ValueError(
            f"scrub_unlearn: teacher {teacher.layer_sizes}/{teacher.head} does not match "
            f"student {baseline.layer_sizes}/{baseline.head}"
        )
    head = baseline.head
    Xf, _, Xr, yr = _forget_retain(bundle)
    if not len(Xr):
        raise ValueError("scrub_unlearn: empty retain set")
    teacher_r = md.predict_proba(teacher, Xr)
    teacher_f = md.predict_proba(teacher, Xf) if len(Xf) else None
    batch = min(len(Xr), len(Xf)) if len(Xf) else min(64, len(Xr))

    student = md.copy_model(baseline)
    params = md.trainable_params(student)

    def build(X, T, P, plogp):
        z_r = md.forward(student, X)
        retain_kl = ad.add(md.target_loss(z_r, P, head), plogp)
        task = md.target_loss(z_r, T, head)
        keep_terms = ad.add(retain_kl, task)
        if not len(Xf):
            return retain_kl, task, keep_terms
        forget_kl = ad.add(md.target_loss(md.forward(student, Xf), ad.tensor(teacher_f), head),
                           ad.tensor(md.neg_entropy(md.plogp(teacher_f, head))))
        return retain_kl, task, keep_terms, forget_kl, ad.sub(keep_terms, forget_kl)

    def read(outputs):
        retain_kl, task, keep_terms, *forget_out = outputs
        total, units, forget_kl_val, forget_used = keep_terms, batch, 0.0, 0.0
        if forget_out:
            forget_kl, used = forget_out
            forget_kl_val = float(forget_kl.data)
            forget_used = min(forget_kl_val, FORGET_KL_CLIP)
            if forget_kl_val <= FORGET_KL_CLIP:
                total, units = used, batch + len(Xf)
        return total, units, {
            "forget_loss": forget_kl_val, "retain_loss": float(retain_kl.data),
            "task_loss": float(task.data), "forget_used": forget_used,
            "total": float(keep_terms.data) - forget_used}

    batches = ((X, T, P, md.neg_entropy(terms)) for X, T, P, terms in _retain_batches(
        student, Xr, yr, batch, cfg, teacher_r, md.plogp(teacher_r, head)))
    log, cost, _ = md.descend(
        ad.StepPlan(build, params), md.Adam(params, cfg.eta).step, batches, read, [])
    return UnlearnResult(model=student, step_log=log, cost_units=cost, extra={
        "clipped_steps": sum(entry["forget_loss"] > FORGET_KL_CLIP for entry in log)})


# ---------------------------------------------------------------------------
# Curvature: influence scores and the Newton step share one gradient and one
# damped solve.
# ---------------------------------------------------------------------------

def _flat_grad(fn: Callable[[ad.Tensor], ad.Tensor], theta0: np.ndarray) -> np.ndarray:
    """Gradient of fn at the flat parameter vector theta0."""
    leaf = ad.tensor(theta0)
    (g,) = ad.grad(fn(leaf), [leaf])
    return g.data


def _damped_solve(fn: Callable[[ad.Tensor], ad.Tensor], theta0: np.ndarray,
                  rhs: np.ndarray, damping: float, max_iter: int, tol: float) -> ad.CGResult:
    """(H + damping*I)^{-1} rhs by CG, H the Hessian of fn at theta0."""
    hvp = ad.hvp_operator(fn, ad.tensor(theta0))
    return ad.cg_solve(lambda v: hvp(v).data, rhs, damping=damping, max_iter=max_iter, tol=tol)


@dataclass
class InfluenceResult:
    value: float
    converged: bool
    iterations: int
    residual_norm: float


# bias_measure -> (the settings of its last damped solve with the dtype and
# shape of each array it read, copies of those arrays, that solve). Keyed on
# the measure object, not its content, so a new measure always solves afresh.
_SOLVES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _raw(a: np.ndarray) -> np.ndarray:
    """a's C-contiguous bytes as a flat uint8 array."""
    return np.ascontiguousarray(a).reshape(-1).view(np.uint8)


def influence(
    model: md.ModelParams,
    sample: np.record,
    bias_measure: Callable[[ad.Tensor], ad.Tensor],
    train_samples: np.recarray,
    damping: float = 1e-2,
    scope: str = "all",
    max_iter: int = 200,
    tol: float = 1e-10,
) -> InfluenceResult:
    """-grad(sample loss) . H^{-1} grad(B): the first-order effect on B of
    upweighting the sample, where H is the training-loss Hessian at the
    current parameters.

    bias_measure builds a scalar from the same flat parameter tensor layout
    as loss_closure(model, ..., scope). CG non-convergence is reported via
    the flags; indefinite curvature, which damping can fail to cover with
    scope "all", raises autodiff.IndefiniteError.

    The damped solve (H + damping*I)^{-1} grad(B) does not read the sample,
    so rows scored against one live measure object share one solve. It is
    reused while the copies it kept of what it read (the effective weights,
    the training records and grad(B), taken afresh each call) match them in
    dtype, shape and bytes and the head, scope, damping, max_iter and tol
    are unchanged; a measure that cannot be weakly referenced solves on
    every call. Either way the bits match a fresh solve.
    """
    theta0, sample_fn = loss_closure(model, sample, scope)
    g_bias = _flat_grad(bias_measure, theta0)
    read = [t.data for W, b in md.effective_weights(model) for t in (W, b)]
    read += [train_samples, g_bias]
    key = (repr((scope, model.head, damping, max_iter, tol)), [(a.dtype, a.shape) for a in read])
    try:
        seen, kept, solve = _SOLVES[bias_measure]
    except (KeyError, TypeError):  # TypeError: not weakly referenceable
        seen = None
    if seen != key or not all(np.array_equal(_raw(k), _raw(a)) for k, a in zip(kept, read)):
        _, train_fn = loss_closure(model, train_samples, scope)
        solve = _damped_solve(train_fn, theta0, g_bias, damping, max_iter, tol)
        with contextlib.suppress(TypeError):
            _SOLVES[bias_measure] = (key, [a.copy() for a in read], solve)
    value = -float(_flat_grad(sample_fn, theta0) @ solve.x)
    return InfluenceResult(value, solve.converged, solve.iterations, solve.residual_norm)


# ---------------------------------------------------------------------------
# One-step Newton unlearning on counterfactual data.
# ---------------------------------------------------------------------------

@dataclass
class NewtonInfo:
    converged: bool
    iterations: int
    residual_norm: float
    fallback: bool
    step_norm: float


def newton_unlearn_step(
    loss_fn: Callable[[ad.Tensor], ad.Tensor],
    theta0: np.ndarray,
    damping: float = 1e-2,
    max_iter: int = 200,
    tol: float = 1e-10,
) -> tuple[np.ndarray, NewtonInfo]:
    """theta0 - (H + damping*I)^{-1} grad, with the solve done by CG on
    Hessian-vector products.

    Indefinite curvature or a non-finite value (CG cannot proceed) falls back
    to a plain gradient step scaled by 1/damping; plain non-convergence keeps
    the partial CG solution and is reported in the info.
    """
    grad_vec = _flat_grad(loss_fn, theta0)
    fallback = False
    try:
        solve = _damped_solve(loss_fn, theta0, grad_vec, damping, max_iter, tol)
        step = solve.x
        converged, iterations, residual = solve.converged, solve.iterations, solve.residual_norm
    except (ad.NonFiniteError, ad.IndefiniteError):
        fallback = True
        step = grad_vec / max(damping, 1e-8)
        converged, iterations, residual = False, 0, float(np.linalg.norm(grad_vec))
    info = NewtonInfo(converged, iterations, residual, fallback, float(np.linalg.norm(step)))
    return theta0 - step, info


def fmd_unlearn(
    model: md.ModelParams,
    bundle: bg.DataBundle,
    counterfactual: np.recarray,
    cfg: StrategyConfig,
) -> UnlearnResult:
    """One damped Newton step on the mean gradient of the counterfactual set
    D_c built from bundle, then an optional fine-tune on D_c.

    The Hessian scope defaults to the head parameters; non-head weights are
    untouched by the Newton step in that mode. How the fine-tune runs depends
    on whether the bundle's scenario pairs D_c with D_f. Unpaired, it is
    cross-entropy on the head only. Paired (row i of D_c alters the bias
    block of forget row i), it is a joint objective over all trainable
    parameters: cross-entropy plus the mean squared distance between the two
    rows' head inputs, pulling the representation toward ignoring the
    altered block; a depth-1 model has no representation and skips it.
    """
    if not len(counterfactual):
        raise ValueError("fmd_unlearn: empty counterfactual set")
    work = md.copy_model(model)
    Xf, yf, Xr, yr = _forget_retain(bundle)
    Xc, yc, _, _ = bg.stack(counterfactual)
    n_c = len(counterfactual)

    theta0, fn = loss_closure(work, counterfactual, cfg.hessian_scope)
    loss_before = float(fn(ad.tensor(theta0)).data)
    theta1, info = newton_unlearn_step(fn, theta0, damping=cfg.damping)
    md.set_flat_params(work, theta1, cfg.hessian_scope)
    cost = float(n_c * (1 + 2 * info.iterations))
    log: list[dict] = [{
        "step": 0,
        "forget_loss": _mean_loss(work, Xf, yf),
        "retain_loss": _mean_loss(work, Xr, yr),
        "counterfactual_loss": loss_before,
        "step_norm": info.step_norm,
    }]

    paired = bg.SCENARIOS[bundle.kind].paired_counterfactual
    params = md.trainable_params(work) if paired else list(work.layers[-1])
    gap = paired and len(work.layers) > 1

    def build():
        objective = md.loss(work, Xc, yc)
        if gap:
            dist = ad.sq_norm(ad.sub(md.head_inputs(work, Xf), md.head_inputs(work, Xc)))
            objective = ad.add(objective, ad.scale(dist, 1.0 / n_c))
        return (objective,)

    log, tuned, _ = md.descend(
        ad.StepPlan(build, params), md.Adam(params, cfg.eta).step,
        itertools.repeat((), cfg.finetune_steps),
        lambda outputs: (outputs[0], 3 * n_c if gap else n_c,
                         {"finetune_loss": float(outputs[0].data)}), log)
    cost += tuned

    return UnlearnResult(
        model=work, step_log=log, cost_units=cost,
        extra={
            "cg_converged": info.converged, "cg_iterations": info.iterations,
            "fallback": info.fallback, "step_norm": info.step_norm,
        },
    )


# ---------------------------------------------------------------------------
# Strategy records.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Strategy:
    """A post-hoc strategy: its table label, the StrategyConfig fields it
    reads (its config section's keys; a config runs it if it has the
    section), and the name of its function, which run looks up on this
    module at each call. run takes the model, then bundle and cfg by
    keyword, and teacher (the gold model) or counterfactual (FMD's D_c) if
    the function has that parameter. The function alone decides which
    inputs it accepts: it raises ValueError on any it rejects."""

    label: str
    reads: tuple[str, ...]
    function: str

    @property
    def run(self) -> Callable[..., UnlearnResult]:
        return globals()[self.function]


POST_HOC_STRATEGIES = {
    "gradient_ascent": Strategy("GA", ("eta", "alpha", "steps"), "gradient_ascent"),
    "lora": Strategy("LoRA", ("eta", "beta", "rank", "steps"), "lora_unlearn"),
    "scrub": Strategy("SCRUB", ("eta", "steps"), "scrub_unlearn"),
    "fmd": Strategy("FMD", ("eta", "damping", "finetune_steps", "hessian_scope"), "fmd_unlearn"),
}
