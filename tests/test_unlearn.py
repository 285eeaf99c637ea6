"""Strategy tests. Optimization claims are checked on convex models where
the behavior is provable (ascent raises loss, Newton solves quadratics in
one step), and the bias-removal claims by running on generated bundles."""

from __future__ import annotations

import numpy as np
import pytest

from unlearnlab import autodiff as ad
from unlearnlab import biasgen as bg
from unlearnlab import model as md
from unlearnlab import unlearn as ul


# ---------------------------------------------------------------------------
# Builders.
# ---------------------------------------------------------------------------

def make_quadratic(A: np.ndarray, theta_hat: np.ndarray):
    """fn(t) = 0.5 (t - theta_hat)^T A (t - theta_hat) over a flat tensor."""
    Ac = ad.tensor(A)
    hat = ad.tensor(theta_hat)

    def fn(t: ad.Tensor) -> ad.Tensor:
        d = ad.reshape(ad.sub(t, hat), (1, A.shape[0]))
        return ad.scale(ad.sum_all(ad.mul(d, ad.matmul(d, Ac))), 0.5)

    return fn


def make_blob_bundle(n_retain=40, n_forget=20, seed=0, d_s=4, d_b=2):
    """Two-class Gaussian blobs; the last n_forget train rows are D_f."""
    rng = np.random.default_rng(seed)

    def draw(n):
        s, b, labels = np.empty((n, d_s)), np.empty((n, d_b)), np.arange(n) % 2
        for i, y in enumerate(labels):
            s[i] = (2 * y - 1) * 1.5 * np.ones(d_s) / np.sqrt(d_s) + rng.normal(size=d_s)
            b[i] = rng.normal(size=d_b)
        return bg.rows(s, b, labels, labels, False)

    train = np.concatenate([draw(n_retain), draw(n_forget)]).view(np.recarray)
    return bg.DataBundle(
        kind="attribute", d_s=d_s, d_b=d_b, n_classes=2,
        train=train, val=draw(6), test=draw(20),
        forget_idx=np.arange(n_retain, n_retain + n_forget), seed=seed,
    )


def from_tuples(samples):
    """A record array from per-sample (s, b, label) tuples, in order."""
    s, b, labels = zip(*samples)
    return bg.rows(np.array(s), np.array(b), labels, 0, False)


@pytest.fixture(scope="module")
def patch_setup():
    bundle = bg.gen_patch_bias(80, 3, 0, 0.5, 2.5, seed=11)
    X, y, _, _ = bg.stack(bundle.train)
    baseline = md.init_model([bundle.d_s + bundle.d_b, 32, 3], "softmax", 7)
    md.train(baseline, (X, y), md.TrainConfig(epochs=40, batch_size=64, learning_rate=3e-3, seed=7))
    return bundle, baseline


def model_bytes(m: md.ModelParams) -> bytes:
    return b"".join(t.data.tobytes() for W, b in m.layers for t in (W, b))


# ---------------------------------------------------------------------------
# Config validation.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"finetune_steps": -1},
        {"eta": 0.0},
        {"alpha": -1.0},
        {"beta": -0.5},
        {"rank": 0},
        {"steps": -1},
        {"damping": -1e-3},
        {"hessian_scope": "tail"},
        # Non-finite floats: NaN slips past every ordered comparison above.
        {"eta": float("nan")},
        {"eta": float("inf")},
        {"alpha": float("nan")},
        {"beta": float("inf")},
        {"damping": float("nan")},
        {"damping": float("inf")},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        ul.StrategyConfig(**kwargs)


# ---------------------------------------------------------------------------
# Hard unlearning.
# ---------------------------------------------------------------------------

def test_hard_rejects_empty_retain():
    bundle = make_blob_bundle()
    bundle.forget_idx = np.arange(len(bundle.train))
    with pytest.raises(ValueError):
        ul.hard_unlearn(bundle, md.TrainConfig(epochs=1), [6, 2])


def test_hard_empty_forget_trains_on_everything():
    bundle = make_blob_bundle(n_forget=0)
    cfg = md.TrainConfig(epochs=30, batch_size=16, learning_rate=5e-3, seed=3)
    result = ul.hard_unlearn(bundle, cfg, [6, 8, 2])
    assert len(result.step_log) == 1
    assert np.isnan(result.step_log[0]["forget_loss"])
    assert result.cost_units == 30 * len(bundle.train)
    X, y, _, _ = bg.stack(bundle.train)
    assert (md.predict(result.model, X) == y).mean() > 0.9


def test_hard_deterministic(tmp_path):
    bundle = make_blob_bundle()
    cfg = md.TrainConfig(epochs=5, batch_size=16, learning_rate=1e-3, seed=9)
    a = ul.hard_unlearn(bundle, cfg, [6, 8, 2]).model
    b = ul.hard_unlearn(bundle, cfg, [6, 8, 2]).model
    md.save_checkpoint(a, tmp_path / "a.ckpt")
    md.save_checkpoint(b, tmp_path / "b.ckpt")
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()


# ---------------------------------------------------------------------------
# Gradient ascent.
# ---------------------------------------------------------------------------

def test_ga_vanishing_step_changes_nothing():
    bundle = make_blob_bundle()
    m = md.init_model([6, 2], "softmax", 0)
    before = model_bytes(m)
    cfg = ul.StrategyConfig(eta=1e-12, steps=1, seed=0)
    result = ul.gradient_ascent(m, bundle, cfg)
    assert model_bytes(m) == before
    deltas = [
        np.abs(r.data - p.data).max()
        for r, p in zip(md.trainable_params(result.model), md.trainable_params(m))
    ]
    assert max(deltas) <= 1e-9


def test_ga_pure_ascent_raises_forget_loss():
    bundle = make_blob_bundle(seed=2)
    m = md.init_model([6, 2], "softmax", 1)
    X, y, _, _ = bg.stack(bundle.train)
    md.train(m, (X, y), md.TrainConfig(epochs=10, batch_size=16, learning_rate=5e-3, seed=1))
    cfg = ul.StrategyConfig(eta=1e-3, alpha=0.0, steps=10, seed=1)
    result = ul.gradient_ascent(m, bundle, cfg)
    trace = [row["forget_loss"] for row in result.step_log]
    assert len(trace) == 10
    assert all(b > a for a, b in zip(trace, trace[1:]))
    assert not result.truncated


def test_ga_one_step_sign_contract():
    bundle = make_blob_bundle(seed=4)
    m = md.init_model([6, 2], "softmax", 2)
    forget = bg.forget_samples(bundle)
    X, y, _, _ = bg.stack(forget)
    before = float(np.mean(md.per_sample_loss(m, X, y)))
    cfg = ul.StrategyConfig(eta=1e-4, alpha=0.0, steps=1, seed=0)
    result = ul.gradient_ascent(m, bundle, cfg)
    after = float(np.mean(md.per_sample_loss(result.model, X, y)))
    assert after >= before


def test_ga_divergence_guard_truncates():
    bundle = make_blob_bundle(seed=5)
    m = md.init_model([6, 2], "softmax", 3)
    cfg = ul.StrategyConfig(eta=1e5, steps=30, seed=0)
    result = ul.gradient_ascent(m, bundle, cfg)
    assert result.truncated
    assert len(result.step_log) < 30
    for p in md.trainable_params(result.model):
        assert np.isfinite(p.data).all()
    Xf, yf, _, _ = bg.stack(bg.forget_samples(bundle))
    assert np.mean(md.per_sample_loss(result.model, Xf, yf)) <= ul.FORGET_LOSS_CEILING


@pytest.mark.filterwarnings("error")
def test_ga_overflowing_step_truncates_to_the_baseline():
    # A step of 1e300 overflows the guard's own forward, which raises
    # NonFiniteError: that too undoes the step, and numpy warns of nothing.
    bundle = bg.gen_attribute_bias(300, 3.0, seed=7)
    m = md.init_model([bundle.d_s + bundle.d_b, 8, 2], "softmax", 5)
    cfg = ul.StrategyConfig(eta=1e300, steps=5, seed=0)
    result = ul.gradient_ascent(m, bundle, cfg)
    assert result.truncated
    assert result.step_log == []
    assert model_bytes(result.model) == model_bytes(m)


def test_ga_rejects_empty_forget():
    bundle = make_blob_bundle(n_forget=0)
    m = md.init_model([6, 2], "softmax", 0)
    with pytest.raises(ValueError):
        ul.gradient_ascent(m, bundle, ul.StrategyConfig())


def test_ga_deterministic():
    bundle = make_blob_bundle(seed=6)
    m = md.init_model([6, 2], "softmax", 4)
    cfg = ul.StrategyConfig(eta=1e-3, steps=5, seed=12)
    a = ul.gradient_ascent(m, bundle, cfg)
    b = ul.gradient_ascent(m, bundle, cfg)
    assert model_bytes(a.model) == model_bytes(b.model)
    assert a.step_log == b.step_log
    assert a.cost_units == b.cost_units


# ---------------------------------------------------------------------------
# Low-rank adapter unlearning.
# ---------------------------------------------------------------------------

def test_lora_zero_steps_is_identity():
    bundle = make_blob_bundle(seed=7)
    m = md.init_model([6, 10, 2], "softmax", 5)
    cfg = ul.StrategyConfig(steps=0, rank=2, seed=0)
    result = ul.lora_unlearn(m, bundle, cfg)
    X = bg.stack(bundle.test)[0]
    np.testing.assert_array_equal(
        md.predict_proba(result.model, X), md.predict_proba(m, X)
    )
    assert result.extra["adapter_layer"] == 0  # last non-head layer of a 2-layer model


def test_lora_base_weights_frozen(patch_setup):
    bundle, baseline = patch_setup
    cfg = ul.StrategyConfig(eta=3e-3, beta=1.0, rank=4, steps=15, seed=1)
    result = ul.lora_unlearn(baseline, bundle, cfg)
    assert model_bytes(result.model) == model_bytes(baseline)
    assert result.model.frozen_base
    assert result.extra["adapter_layer"] == len(baseline.layers) - 2
    assert len(result.step_log) == 15
    # The adapters must actually have moved something.
    X = bg.stack(bundle.test)[0]
    assert not np.allclose(md.predict_proba(result.model, X), md.predict_proba(baseline, X))


def test_lora_beta_zero_is_retain_finetuning():
    # |D_f| >= |D_r| makes every retain batch the full retain set.
    bundle = make_blob_bundle(n_retain=40, n_forget=60, seed=8)
    m = md.init_model([6, 2], "softmax", 6)
    cfg = ul.StrategyConfig(eta=1e-3, beta=0.0, rank=2, steps=10, seed=2)
    result = ul.lora_unlearn(m, bundle, cfg)
    trace = [row["retain_loss"] for row in result.step_log]
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_lora_rejects_attached_adapters():
    m = md.attach_lora(md.init_model([6, 10, 2], "softmax", 0), [0], 2, 0)
    with pytest.raises(ValueError):
        ul.lora_unlearn(m, make_blob_bundle(), ul.StrategyConfig())


# ---------------------------------------------------------------------------
# Teacher-student distillation.
# ---------------------------------------------------------------------------

def test_scrub_rejects_architecture_mismatch():
    a = md.init_model([6, 8, 2], "softmax", 0)
    b = md.init_model([6, 10, 2], "softmax", 0)
    with pytest.raises(ValueError):
        ul.scrub_unlearn(a, b, make_blob_bundle(), ul.StrategyConfig())


@pytest.mark.parametrize("head", ["softmax", "sigmoid"])
def test_scrub_teacher_equals_student_starts_at_zero_kl(head):
    bundle = make_blob_bundle(seed=9)
    m = md.init_model([6, 8, 2 if head == "softmax" else 1], head, 1)
    cfg = ul.StrategyConfig(eta=1e-3, steps=1, seed=0)
    result = ul.scrub_unlearn(m, md.copy_model(m), bundle, cfg)
    assert result.step_log[0]["retain_loss"] < 1e-10
    assert result.step_log[0]["forget_loss"] < 1e-10


def test_scrub_objective_decomposition(patch_setup):
    bundle, baseline = patch_setup
    teacher = ul.hard_unlearn(
        bundle, md.TrainConfig(epochs=40, batch_size=64, learning_rate=3e-3, seed=8),
        [bundle.d_s + bundle.d_b, 32, 3],
    ).model
    cfg = ul.StrategyConfig(eta=3e-3, steps=12, seed=3)
    result = ul.scrub_unlearn(baseline, teacher, bundle, cfg)
    assert len(result.step_log) == 12
    for row in result.step_log:
        recomposed = row["retain_loss"] + row["task_loss"] - row["forget_used"]
        assert abs(row["total"] - recomposed) < 1e-10
        assert row["forget_used"] == min(row["forget_loss"], ul.FORGET_KL_CLIP)


def test_scrub_forget_kl_ends_above_retain_kl(patch_setup):
    bundle, baseline = patch_setup
    teacher = ul.hard_unlearn(
        bundle, md.TrainConfig(epochs=40, batch_size=64, learning_rate=3e-3, seed=8),
        [bundle.d_s + bundle.d_b, 32, 3],
    ).model
    cfg = ul.StrategyConfig(eta=3e-3, steps=25, seed=4)
    result = ul.scrub_unlearn(baseline, teacher, bundle, cfg)
    last = result.step_log[-1]
    assert last["forget_loss"] > last["retain_loss"]


def test_scrub_kl_clip_drops_gradient():
    # Teacher certain of class 0, student certain of class 1: KL far past the cap.
    bundle = make_blob_bundle(n_retain=4, n_forget=4, seed=10)
    teacher = md.init_model([6, 2], "softmax", 0)
    teacher.layers[0][0].data[:] = 0.0
    teacher.layers[0][1].data[:] = [40.0, 0.0]
    student = md.init_model([6, 2], "softmax", 0)
    student.layers[0][0].data[:] = 0.0
    student.layers[0][1].data[:] = [0.0, 40.0]
    cfg = ul.StrategyConfig(eta=1e-3, steps=1, seed=0)
    result = ul.scrub_unlearn(student, teacher, bundle, cfg)
    row = result.step_log[0]
    assert row["forget_loss"] > ul.FORGET_KL_CLIP
    assert row["forget_used"] == ul.FORGET_KL_CLIP
    assert abs(row["total"] - (row["retain_loss"] + row["task_loss"] - ul.FORGET_KL_CLIP)) < 1e-10


def test_scrub_empty_forget_is_pure_distillation():
    bundle = bg.gen_patch_bias(80, 3, 0, 0.0, 2.5, seed=13)
    X, y, _, _ = bg.stack(bundle.train)
    arch = [bundle.d_s + bundle.d_b, 32, 3]
    teacher = md.init_model(arch, "softmax", 1)
    md.train(teacher, (X, y), md.TrainConfig(epochs=40, batch_size=64, learning_rate=3e-3, seed=1))
    student = md.init_model(arch, "softmax", 2)
    cfg = ul.StrategyConfig(eta=5e-3, steps=80, seed=5)
    result = ul.scrub_unlearn(student, teacher, bundle, cfg)
    retain = bg.retain_samples(bundle)
    Xr, yr, _, _ = bg.stack(retain)
    acc_student = float((md.predict(result.model, Xr) == yr).mean())
    acc_teacher = float((md.predict(teacher, Xr) == yr).mean())
    assert abs(acc_student - acc_teacher) <= 0.02
    assert all(row["forget_loss"] == 0.0 for row in result.step_log)


# ---------------------------------------------------------------------------
# Influence scores.
# ---------------------------------------------------------------------------

def probe_measure(model, probe, scope="all"):
    _, fn = ul.loss_closure(model, probe, scope)
    return fn


def test_influence_zero_gradient_sample():
    m = md.init_model([2, 1], "sigmoid", 0)
    m.layers[0][0].data[:] = [[40.0, 0.0]]
    m.layers[0][1].data[:] = 0.0
    rng = np.random.default_rng(0)
    train = from_tuples([(rng.normal(size=1), rng.normal(size=1), int(rng.integers(2))) for _ in range(20)])
    fitted = bg.rows([[1.0]], [[0.0]], 1, 0, False)[0]  # logit 40, label 1
    probe = train[:5]
    result = ul.influence(m, fitted, probe_measure(m, probe), train, damping=1e-1)
    assert abs(result.value) < 1e-12


def test_influence_linear_in_bias_measure():
    rng = np.random.default_rng(1)
    train = from_tuples([(rng.normal(size=3), rng.normal(size=1), int(rng.integers(2))) for _ in range(30)])
    probe = from_tuples([(rng.normal(size=3), rng.normal(size=1), int(rng.integers(2))) for _ in range(10)])
    m = md.init_model([4, 2], "softmax", 2)
    X, y, _, _ = bg.stack(train)
    md.train(m, (X, y), md.TrainConfig(epochs=20, batch_size=16, learning_rate=5e-3, seed=2))
    base_fn = probe_measure(m, probe)
    doubled = lambda t: ad.scale(base_fn(t), 2.0)
    a = ul.influence(m, train[0], base_fn, train, damping=1e-2)
    b = ul.influence(m, train[0], doubled, train, damping=1e-2)
    assert b.value == pytest.approx(2.0 * a.value, rel=1e-9)
    assert a.converged and b.converged


def test_influence_reports_nonconvergence():
    rng = np.random.default_rng(3)
    train = from_tuples([(rng.normal(size=3), rng.normal(size=1), int(rng.integers(2))) for _ in range(20)])
    m = md.init_model([4, 2], "softmax", 3)
    result = ul.influence(m, train[0], probe_measure(m, train[:4]), train, damping=1e-3, max_iter=1)
    assert not result.converged
    assert result.iterations == 1
    assert result.residual_norm > 0.0


def test_influence_rejects_a_measure_of_another_scope(patch_setup):
    bundle, baseline = patch_setup
    forget = bg.forget_samples(bundle)
    n_head = md.flat_param_closure(baseline, "head")[0].size
    n_all = md.flat_param_closure(baseline, "all")[0].size
    # A head-scope measure would otherwise read the first layer's weights as
    # head weights and return a converged, wrong value.
    with pytest.raises(ad.ShapeError, match=rf"\({n_all},\).*length {n_head}"):
        ul.influence(baseline, forget[0], probe_measure(baseline, forget, "head"),
                     bundle.train, scope="all")
    with pytest.raises(ad.ShapeError):
        ul.influence(baseline, forget[0], probe_measure(baseline, forget, "all"),
                     bundle.train, scope="head")


# ---------------------------------------------------------------------------
# Newton step.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("max_iter", [2, 200])
def test_one_taped_gradient_per_cg_solve(monkeypatch, patch_setup, max_iter):
    bundle, baseline = patch_setup
    forget = bg.forget_samples(bundle)
    _, bias_fn = ul.loss_closure(baseline, forget, "head")
    theta0, train_fn = ul.loss_closure(baseline, bundle.train, "head")
    taped = []
    real_grad = ad.grad

    def counting_grad(output, wrt, create_graph=False):
        taped.append(create_graph)
        return real_grad(output, wrt, create_graph)

    monkeypatch.setattr(ad, "grad", counting_grad)
    result = ul.influence(baseline, forget[0], bias_fn, bundle.train,
                          scope="head", max_iter=max_iter)
    assert result.iterations >= 2 and taped.count(True) == 1
    taped.clear()
    _, info = ul.newton_unlearn_step(train_fn, theta0, max_iter=max_iter)
    assert info.iterations >= 2 and not info.fallback and taped.count(True) == 1


@pytest.mark.parametrize("max_iter", [2, 200])
def test_hvp_operator_traces_only_when_built(monkeypatch, patch_setup, max_iter):
    bundle, baseline = patch_setup
    forget = bg.forget_samples(bundle)
    _, bias_fn = ul.loss_closure(baseline, forget, "head")
    theta0, train_fn = ul.loss_closure(baseline, bundle.train, "head")
    traces, per_build, per_apply = [0], [], []
    real_trace, real_operator = ad.trace, ad.hvp_operator

    def counting_trace(output):
        traces[0] += 1
        return real_trace(output)

    def counting_operator(loss_fn, params):
        before = traces[0]
        apply = real_operator(loss_fn, params)
        per_build.append(traces[0] - before)

        def counted_apply(v):
            before = traces[0]
            hv = apply(v)
            per_apply.append(traces[0] - before)
            return hv

        return counted_apply

    monkeypatch.setattr(ad, "trace", counting_trace)
    monkeypatch.setattr(ad, "hvp_operator", counting_operator)
    result = ul.influence(baseline, forget[0], bias_fn, bundle.train,
                          scope="head", max_iter=max_iter)
    _, info = ul.newton_unlearn_step(train_fn, theta0, max_iter=max_iter)
    assert result.iterations >= 2 and info.iterations >= 2 and not info.fallback
    # One trace for the taped gradient and one for its backward plan.
    assert per_build == [2, 2]
    assert len(per_apply) == result.iterations + info.iterations
    assert set(per_apply) == {0}


def test_newton_quadratic_one_step_exact():
    rng = np.random.default_rng(4)
    dim = 8
    M = rng.normal(size=(dim, dim))
    A = M @ M.T + 0.5 * np.eye(dim)
    theta_hat = rng.normal(size=dim)
    theta0 = rng.normal(size=dim)
    theta1, info = ul.newton_unlearn_step(make_quadratic(A, theta_hat), theta0, damping=0.0, tol=1e-14)
    assert np.abs(theta1 - theta_hat).max() <= 1e-8
    assert info.converged and not info.fallback


def test_newton_heavy_damping_freezes():
    dim = 6
    ones = np.ones(dim)
    fn = lambda t: ad.sum_all(ad.mul(t, ad.tensor(ones)))  # gradient exactly 1
    theta0 = np.zeros(dim)
    theta1, info = ul.newton_unlearn_step(fn, theta0, damping=1e6)
    assert np.abs(theta1 - theta0).max() <= 1e-4
    assert info.step_norm <= 1e-4 * np.sqrt(dim)


def test_newton_indefinite_falls_back_to_gradient():
    fn = lambda t: ad.scale(ad.sq_norm(t), -0.5)  # Hessian -I
    theta0 = np.array([1.0, -2.0, 3.0])
    theta1, info = ul.newton_unlearn_step(fn, theta0, damping=0.5)
    assert info.fallback and not info.converged
    # Gradient is -theta0; fallback step = grad / damping.
    np.testing.assert_allclose(theta1, theta0 + theta0 / 0.5, atol=1e-12)
    # What the step fell back from: every value is finite, the curvature is not positive.
    hvp = ad.hvp_operator(fn, ad.tensor(theta0))
    with pytest.raises(ad.IndefiniteError):
        ad.cg_solve(lambda v: hvp(v).data, theta0, damping=0.5)


# ---------------------------------------------------------------------------
# FMD.
# ---------------------------------------------------------------------------

def test_fmd_rejects_empty_counterfactual(patch_setup):
    bundle, baseline = patch_setup
    with pytest.raises(ValueError):
        ul.fmd_unlearn(baseline, bundle, [], ul.StrategyConfig())


def test_fmd_head_scope_touches_only_head(patch_setup):
    bundle, baseline = patch_setup
    d_c = bg.build_counterfactual(bundle, seed=21)
    cfg = ul.StrategyConfig(damping=1e-2, seed=0)
    result = ul.fmd_unlearn(baseline, bundle, d_c, cfg)
    for (W0, b0), (W1, b1) in zip(baseline.layers[:-1], result.model.layers[:-1]):
        assert W0.data.tobytes() == W1.data.tobytes()
        assert b0.data.tobytes() == b1.data.tobytes()
    assert model_bytes(result.model) != model_bytes(baseline)
    assert result.step_log[0]["step_norm"] > 0.0


def test_fmd_newton_step_fixes_masked_probes(patch_setup):
    bundle, baseline = patch_setup
    d_c = bg.build_counterfactual(bundle, seed=22)
    probes = bg.build_counterfactual(bundle, seed=23)
    Xp, yp, _, _ = bg.stack(probes)
    before = float((md.predict(baseline, Xp) == yp).mean())
    cfg = ul.StrategyConfig(damping=1e-2, seed=0)
    result = ul.fmd_unlearn(baseline, bundle, d_c, cfg)
    after = float((md.predict(result.model, Xp) == yp).mean())
    assert after > before


def test_fmd_contrastive_pairs_shrink_embedding_gap(patch_setup):
    bundle, baseline = patch_setup
    forget = bg.forget_samples(bundle)
    d_c = bg.build_counterfactual(bundle, seed=24)

    def gap(m):
        Xa = np.stack([np.concatenate([smp.s, smp.b]) for smp in forget])
        Xb = np.stack([np.concatenate([smp.s, smp.b]) for smp in d_c])
        ea = md.head_inputs(m, Xa).data
        eb = md.head_inputs(m, Xb).data
        return float(np.mean(np.sum((ea - eb) ** 2, axis=1)))

    cfg = ul.StrategyConfig(damping=1e-2, eta=3e-3, finetune_steps=8, seed=0)
    result = ul.fmd_unlearn(baseline, bundle, d_c, cfg)
    assert gap(result.model) < gap(baseline)
    assert len(result.step_log) == 1 + 8


# ---------------------------------------------------------------------------
# Cross-strategy invariants.
# ---------------------------------------------------------------------------

def run_strategy(name, baseline, teacher, bundle):
    if name == "gradient_ascent":
        return ul.gradient_ascent(
            baseline, bundle, ul.StrategyConfig(eta=1e-3, steps=3, seed=1)
        )
    if name == "lora":
        return ul.lora_unlearn(
            baseline, bundle, ul.StrategyConfig(eta=1e-3, rank=2, steps=3, seed=1)
        )
    if name == "scrub":
        return ul.scrub_unlearn(
            baseline, teacher, bundle, ul.StrategyConfig(eta=1e-3, steps=3, seed=1),
        )
    d_c = bg.build_counterfactual(bundle, seed=1)
    return ul.fmd_unlearn(
        baseline, bundle, d_c, ul.StrategyConfig(damping=1e-1, finetune_steps=2, seed=1)
    )


@pytest.mark.parametrize("name", ["gradient_ascent", "lora", "scrub", "fmd"])
def test_strategies_leave_baseline_untouched(name, patch_setup):
    # run_experiment hands every strategy the same in-memory baseline and
    # teacher, so a strategy that wrote into either would corrupt its siblings.
    bundle, baseline = patch_setup
    teacher = md.copy_model(baseline)
    teacher.layers[-1][1].data = teacher.layers[-1][1].data + 0.25
    before, teacher_before = model_bytes(baseline), model_bytes(teacher)
    result = run_strategy(name, baseline, teacher, bundle)
    assert model_bytes(baseline) == before
    assert model_bytes(teacher) == teacher_before
    assert result.model is not baseline
    assert result.cost_units > 0.0


@pytest.fixture(scope="module")
def pose_setup():
    bundle = bg.gen_pose_bias(150, 3, 0.9, seed=12)
    X, y, _, _ = bg.stack(bundle.train)
    baseline = md.init_model([bundle.d_s + bundle.d_b, 8, 3], "softmax", 8)
    md.train(baseline, (X, y), md.TrainConfig(epochs=5, batch_size=32, learning_rate=3e-3, seed=8))
    return bundle, baseline


@pytest.mark.parametrize("setup, paired", [("pose_setup", False), ("patch_setup", True)])
def test_fmd_finetune_pairing_follows_the_scenario(setup, paired, request):
    bundle, baseline = request.getfixturevalue(setup)
    assert bg.SCENARIOS[bundle.kind].paired_counterfactual is paired
    d_c = bg.build_counterfactual(bundle, seed=25)
    cfg = ul.StrategyConfig(damping=1.0, eta=3e-3, finetune_steps=3, seed=0)
    result = ul.fmd_unlearn(baseline, bundle, d_c, cfg)
    body = [t.data.tobytes() for W, b in baseline.layers[:-1] for t in (W, b)]
    moved = [t.data.tobytes() for W, b in result.model.layers[:-1] for t in (W, b)]
    # Unpaired, the fine-tune trains the head alone; paired, it trains the
    # body too, toward equal head inputs across each pair.
    assert (moved != body) is paired
    assert result.model.layers[-1][0].data.tobytes() != baseline.layers[-1][0].data.tobytes()
    assert len(result.step_log) == 1 + 3
