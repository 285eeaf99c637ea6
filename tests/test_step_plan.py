"""Step plans: a minibatch step replayed on a fixed plan equals the same step
taped afresh, bit for bit, and fails the same way.

The taped reference is the same code with every StepPlan forgetting its
traces before each step, so every step builds, traces and masks its graph
again, as each step did before plans existed.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from unlearnlab import autodiff as ad
from unlearnlab import biasgen as bg
from unlearnlab import model as md
from unlearnlab import unlearn as ul

_replay_forward = ad.StepPlan.forward


def _taped_forward(self, *arrays):
    self.traces.clear()
    self.plans.clear()
    return _replay_forward(self, *arrays)


def run_both(monkeypatch, fn):
    """fn() once with replayed steps and once with taped steps; for each,
    the result, the Adam optimisers and the step plans it made, or the
    exception it raised."""
    outcomes = {}
    for mode in ("replay", "tape"):
        opts, plans = [], []
        with monkeypatch.context() as mp:

            class SpyAdam(md.Adam):
                def __init__(self, *args):
                    super().__init__(*args)
                    opts.append(self)

            class SpyPlan(ad.StepPlan):
                def __init__(self, *args):
                    super().__init__(*args)
                    plans.append(self)

            mp.setattr(md, "Adam", SpyAdam)
            mp.setattr(ad, "StepPlan", SpyPlan)
            if mode == "tape":
                mp.setattr(ad.StepPlan, "forward", _taped_forward)
            try:
                result = fn()
            except ad.NonFiniteError as e:
                result = e
        outcomes[mode] = (result, opts, plans)
    return outcomes


def params_bytes(model: md.ModelParams) -> list[bytes]:
    return [t.data.tobytes() for _, t in md._array_manifest(model)]


def adam_state(opts) -> list:
    return [(o.t, o.m.tobytes(), o.v.tobytes()) for o in opts]


def assert_bitwise_equal(outcomes, model_of, log_of=lambda result: None):
    (replayed, opts_r, plans), (taped, opts_t, _) = outcomes["replay"], outcomes["tape"]
    assert params_bytes(model_of(replayed)) == params_bytes(model_of(taped))
    assert adam_state(opts_r) == adam_state(opts_t)
    assert repr(log_of(replayed)) == repr(log_of(taped))
    # The replayed run did replay: it traced once per batch shape.
    assert plans and all(len(p.traces) <= 2 for p in plans)


def labelled(n, d, k, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, d)), rng.integers(0, k, size=n)


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("head,sizes,n", [
    ("softmax", [6, 10, 4], 64),   # whole batches only
    ("softmax", [6, 10, 4], 70),   # a last partial batch of 6 rows
    ("sigmoid", [5, 7, 6, 1], 45),
])
def test_replayed_training_is_bitwise_taped_training(monkeypatch, head, sizes, n):
    X, y = labelled(n, sizes[0], 2 if head == "sigmoid" else sizes[-1], 80)
    config = md.TrainConfig(epochs=3, batch_size=16, learning_rate=1e-2, seed=3)

    def fn():
        return md.train(md.init_model(sizes, head, 81), (X, y), config)

    outcomes = run_both(monkeypatch, fn)
    assert_bitwise_equal(outcomes, lambda model: model)
    (plan,) = outcomes["replay"][2]
    assert len(plan.traces) == (1 if n % 16 == 0 else 2)


def test_replayed_training_matches_a_plain_tape_loop():
    """The loop every step ran before: md.loss, ad.grad, Adam."""
    X, y = labelled(50, 6, 3, 82)
    config = md.TrainConfig(epochs=2, batch_size=16, learning_rate=1e-2, seed=4)
    trained = md.train(md.init_model([6, 8, 3], "softmax", 83), (X, y), config)
    model = md.init_model([6, 8, 3], "softmax", 83)
    params = md.trainable_params(model)
    opt = md.Adam(params, config.learning_rate)
    for epoch in range(config.epochs):
        order = np.random.default_rng([config.seed, epoch]).permutation(len(X))
        for start in range(0, len(X), config.batch_size):
            idx = order[start : start + config.batch_size]
            grads = ad.grad(md.loss(model, X[idx], y[idx]), params)
            opt.step([g.data for g in grads])
    assert params_bytes(trained) == params_bytes(model)


# ---------------------------------------------------------------------------
# Strategies.
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained_pair():
    """(bundle, baseline, teacher) on a small attribute bundle."""
    bundle = bg.gen_attribute_bias(300, 4.0, seed=84)
    X, y, _, _ = bg.stack(bundle.train)
    sizes = [X.shape[1], 12, 2]
    config = md.TrainConfig(epochs=6, batch_size=32, learning_rate=5e-3, seed=5)
    baseline = md.train(md.init_model(sizes, "softmax", 85), (X, y), config)
    teacher = ul.hard_unlearn(bundle, config, sizes).model
    return bundle, baseline, teacher


def test_replayed_gradient_ascent_is_bitwise_taped(monkeypatch, trained_pair):
    bundle, baseline, _ = trained_pair
    cfg = ul.StrategyConfig(eta=5e-3, alpha=0.5, steps=12, seed=6)
    outcomes = run_both(monkeypatch, lambda: ul.gradient_ascent(baseline, bundle, cfg))
    assert_bitwise_equal(outcomes, lambda r: r.model, lambda r: (r.step_log, r.truncated))


@pytest.mark.parametrize("beta", [0.5, 0.0])
def test_replayed_lora_is_bitwise_taped(monkeypatch, trained_pair, beta):
    bundle, baseline, _ = trained_pair
    cfg = ul.StrategyConfig(eta=1e-2, beta=beta, rank=2, steps=10, seed=7)
    outcomes = run_both(monkeypatch, lambda: ul.lora_unlearn(baseline, bundle, cfg))
    assert_bitwise_equal(outcomes, lambda r: r.model, lambda r: r.step_log)


@pytest.mark.parametrize("head", ["softmax", "sigmoid"])
def test_replayed_scrub_is_bitwise_taped_on_both_clip_branches(monkeypatch, head):
    bundle = bg.gen_attribute_bias(300, 4.0, seed=86)
    X, y, _, _ = bg.stack(bundle.train)
    sizes = [X.shape[1], 12, 2 if head == "softmax" else 1]
    config = md.TrainConfig(epochs=6, batch_size=32, learning_rate=5e-3, seed=8)
    baseline = md.train(md.init_model(sizes, head, 87), (X, y), config)
    teacher = ul.hard_unlearn(bundle, config, sizes, head=head).model
    cfg = ul.StrategyConfig(eta=0.2, steps=14, seed=9)
    outcomes = run_both(monkeypatch, lambda: ul.scrub_unlearn(baseline, teacher, bundle, cfg))
    assert_bitwise_equal(outcomes, lambda r: r.model, lambda r: r.step_log)
    used = [entry["forget_used"] for entry in outcomes["replay"][0].step_log]
    assert ul.FORGET_KL_CLIP in used
    assert any(u < ul.FORGET_KL_CLIP for u in used)


def fmd_setup(kind):
    """(bundle, baseline, D_c) on a small patch bundle, whose D_c is paired
    with D_f, or a small pose bundle, whose D_c is not."""
    bundle = (bg.gen_patch_bias(60, 3, 0, 0.5, 2.5, seed=91) if kind == "patch"
              else bg.gen_pose_bias(150, 3, 0.9, seed=92))
    assert bg.SCENARIOS[kind].paired_counterfactual is (kind == "patch")
    X, y, _, _ = bg.stack(bundle.train)
    config = md.TrainConfig(epochs=6, batch_size=32, learning_rate=5e-3, seed=12)
    baseline = md.train(md.init_model([X.shape[1], 10, 3], "softmax", 93), (X, y), config)
    return bundle, baseline, bg.build_counterfactual(bundle, seed=94)


FMD_CONFIG = ul.StrategyConfig(damping=1.0, eta=3e-3, finetune_steps=4, seed=13)


@pytest.mark.parametrize("kind", ["patch", "pose"])
def test_replayed_fmd_finetune_is_bitwise_taped(monkeypatch, kind):
    bundle, baseline, d_c = fmd_setup(kind)
    outcomes = run_both(monkeypatch, lambda: ul.fmd_unlearn(baseline, bundle, d_c, FMD_CONFIG))
    assert_bitwise_equal(outcomes, lambda r: r.model,
                         lambda r: (r.step_log, r.cost_units, r.extra))


@pytest.mark.parametrize("kind", ["patch", "pose"])
def test_replayed_fmd_finetune_matches_a_plain_tape_loop(kind):
    """The loop the fine-tune ran before: md.loss, the pair gap, ad.grad, Adam."""
    bundle, baseline, d_c = fmd_setup(kind)
    tuned = ul.fmd_unlearn(baseline, bundle, d_c, FMD_CONFIG)
    newton = ul.fmd_unlearn(baseline, bundle, d_c,
                            dataclasses.replace(FMD_CONFIG, finetune_steps=0))
    model, paired = newton.model, kind == "patch"
    Xf, _, _, _ = bg.stack(bg.forget_samples(bundle))
    Xc, yc, _, _ = bg.stack(d_c)
    params = md.trainable_params(model) if paired else list(model.layers[-1])
    opt = md.Adam(params, FMD_CONFIG.eta)
    losses = []
    for _ in range(FMD_CONFIG.finetune_steps):
        objective = md.loss(model, Xc, yc)
        if paired:
            gap = ad.sq_norm(ad.sub(md.head_inputs(model, Xf), md.head_inputs(model, Xc)))
            objective = ad.add(objective, ad.scale(gap, 1.0 / len(Xc)))
        opt.step([g.data for g in ad.grad(objective, params)])
        losses.append(float(objective.data))
    assert params_bytes(tuned.model) == params_bytes(model)
    assert tuned.step_log[0] == newton.step_log[0]
    assert tuned.step_log[1:] == [{"step": k + 1, "finetune_loss": loss}
                                  for k, loss in enumerate(losses)]
    units = len(Xc) * (3 if paired else 1)
    assert tuned.cost_units == newton.cost_units + FMD_CONFIG.finetune_steps * units


# ---------------------------------------------------------------------------
# Failing steps.
# ---------------------------------------------------------------------------

def train_failing(monkeypatch, X, y, config, op: str, steps_before: int):
    """Train a fresh model in both modes and check that each fails with the
    same error after the same Adam steps, leaving the same state."""
    models = []

    def fn():
        models.append(md.init_model([X.shape[1], 8, 3], "softmax", 89))
        return md.train(models[-1], (X, y), config)

    outcomes = run_both(monkeypatch, fn)
    (replayed, opts_r, _), (taped, opts_t, _) = outcomes["replay"], outcomes["tape"]
    assert isinstance(replayed, ad.NonFiniteError)
    assert str(replayed) == str(taped) == f"{op}: result contains non-finite values"
    # Each failure comes after the first step, so it is a replayed one.
    assert [o.t for o in opts_r] == [o.t for o in opts_t] == [steps_before]
    assert adam_state(opts_r) == adam_state(opts_t)
    assert params_bytes(models[0]) == params_bytes(models[1])


def test_nan_row_fails_at_its_batch_under_replay_as_on_the_tape(monkeypatch):
    X, y = labelled(64, 5, 3, 88)
    config = md.TrainConfig(epochs=1, batch_size=16, learning_rate=1e-2, seed=10)
    order = np.random.default_rng([config.seed, 0]).permutation(len(X))
    X[order[2 * config.batch_size + 3]] = np.nan  # the third batch holds the row
    train_failing(monkeypatch, X, y, config, "leaf", 2)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_learning_rate_fails_in_linear_under_replay_as_on_the_tape(monkeypatch):
    X, y = labelled(64, 5, 3, 90)
    config = md.TrainConfig(epochs=2, batch_size=16, learning_rate=1e300, seed=11)
    train_failing(monkeypatch, X, y, config, "linear", 1)


# ---------------------------------------------------------------------------
# The plan itself.
# ---------------------------------------------------------------------------

def test_step_plan_rebinds_its_inputs_and_reads_parameters_afresh():
    w = ad.tensor(np.array([1.0, 2.0]))
    # offset becomes a leaf made inside build: a constant of the plan.
    offset = np.array([0.5, 0.5])
    plan = ad.StepPlan(lambda x: (ad.sum_all(ad.mul(ad.add(x, offset), w)),), [w])
    (out,) = plan.forward(np.array([1.0, 1.0]))
    assert out.item() == 4.5
    w.data = np.array([1.0, -1.0])
    (again,) = plan.forward(np.array([3.0, 1.0]))
    assert again is out and out.item() == 3.5 - 1.5
    (g,) = plan.grad(out)
    assert g.data.tolist() == [3.5, 1.5]
    with pytest.raises(ad.ShapeError):
        vector = ad.StepPlan(lambda x: (ad.mul(x, w),), [w])
        vector.grad(vector.forward(np.ones(2))[0])


def test_a_step_whose_outputs_miss_an_input_raises_at_tape_time():
    # The output reads x's array, not x: a replay would return the taped
    # 6.0 for every input, where a fresh tape gives 2 * x.sum().
    plan = ad.StepPlan(lambda x: (ad.sum_all(ad.tensor(x.data * 2.0)),), [])
    with pytest.raises(ValueError, match="input 0 does not reach"):
        plan.forward(np.ones(3))
    assert not plan.traces
    two = ad.StepPlan(lambda x, y: (ad.sum_all(ad.mul(x, x)), ad.sum_all(ad.tensor(y.data))), [])
    with pytest.raises(ValueError, match="input 1 does not reach"):
        two.forward(np.ones(3), np.ones(3))
    assert not two.traces


def test_a_step_cannot_run_another():
    outer = ad.StepPlan(lambda x: ad.StepPlan(lambda y: (y,), []).forward(x.data), [])
    with pytest.raises(ValueError, match="input 0 does not reach"):
        outer.forward(np.ones(2))
    # The failed tape stores nothing.
    plan = ad.StepPlan(lambda x: (ad.sum_all(x),), [])
    assert plan.forward(np.ones(3))[0].item() == 3.0
    assert not outer.traces
