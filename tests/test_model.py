"""Model layer tests. The trainability claim on separable data is checked
against a perceptron oracle, and adapter representability against a truncated
SVD, so neither rests on the trainer under test."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.special import rel_entr

from unlearnlab import autodiff as ad
from unlearnlab import model as md


def model_bytes(m: md.ModelParams) -> bytes:
    return b"".join(t.data.tobytes() for W, b in m.layers for t in (W, b))


def make_blobs(n_per: int, centers, seed: int, spread: float = 0.6):
    rng = np.random.default_rng(seed)
    X, y = [], []
    for label, c in enumerate(centers):
        X.append(rng.normal(loc=c, scale=spread, size=(n_per, len(c))))
        y.append(np.full(n_per, label))
    return np.vstack(X), np.concatenate(y)


def perceptron_finds_separator(X, y, max_epochs: int = 200) -> bool:
    """Rosenblatt's rule converges iff the binary data is linearly separable."""
    Xb = np.hstack([X, np.ones((len(X), 1))])
    w = np.zeros(Xb.shape[1])
    sign = 2.0 * y - 1.0
    for _ in range(max_epochs):
        mistakes = 0
        for xi, si in zip(Xb, sign):
            if si * float(w @ xi) <= 0.0:
                w += si * xi
                mistakes += 1
        if mistakes == 0:
            return True
    return False


# ---------------------------------------------------------------------------
# Construction and forward.
# ---------------------------------------------------------------------------

def test_init_same_seed_identical_bytes():
    a = md.init_model([4, 8, 3], "softmax", seed=9)
    b = md.init_model([4, 8, 3], "softmax", seed=9)
    assert model_bytes(a) == model_bytes(b)
    c = md.init_model([4, 8, 3], "softmax", seed=10)
    assert model_bytes(a) != model_bytes(c)

def test_init_weight_bound_and_zero_bias():
    m = md.init_model([10, 6], "softmax", seed=0)
    W, b = m.layers[0]
    assert np.abs(W.data).max() <= np.sqrt(6.0 / 16.0)
    assert np.all(b.data == 0.0)

def test_zero_weight_softmax_is_uniform():
    m = md.init_model([3, 4], "softmax", seed=0)
    m.layers[0][0].data[:] = 0.0
    probs = md.predict_proba(m, np.random.default_rng(0).normal(size=(5, 3)))
    np.testing.assert_allclose(probs, 0.25, atol=1e-12)

def test_uniform_probability_loss_is_log_k():
    m = md.init_model([3, 4], "softmax", seed=0)
    m.layers[0][0].data[:] = 0.0
    X = np.random.default_rng(1).normal(size=(6, 3))
    y = np.array([0, 1, 2, 3, 0, 1])
    assert md.loss(m, X, y).item() == pytest.approx(np.log(4.0), abs=1e-12)

def test_sigmoid_zero_logit_gives_half():
    m = md.init_model([2, 1], "sigmoid", seed=0)
    m.layers[0][0].data[:] = 0.0
    assert md.predict_proba(m, np.zeros((3, 2)))[0, 0] == pytest.approx(0.5)

def test_head_validation():
    with pytest.raises(ValueError):
        md.init_model([3, 2], "sigmoid", seed=0)
    with pytest.raises(ValueError):
        md.init_model([3, 1], "softmax", seed=0)
    with pytest.raises(ValueError):
        md.init_model([3, 4], "probit", seed=0)

def test_label_range_rejected():
    m = md.init_model([3, 4], "softmax", seed=0)
    with pytest.raises(ValueError):
        md.loss(m, np.zeros((2, 3)), np.array([0, 4]))
    s = md.init_model([3, 1], "sigmoid", seed=0)
    with pytest.raises(ValueError):
        md.loss(s, np.zeros((2, 3)), np.array([0, 2]))

@pytest.mark.parametrize("head,sizes", [("softmax", [5, 7, 4]), ("sigmoid", [5, 7, 1])])
def test_loss_on_teacher_probabilities_plus_neg_entropy_is_kl(head, sizes):
    """target_loss(z, p) + neg_entropy(plogp(p)) is the mean KL(p || q), checked
    against scipy's elementwise p log(p/q); a sigmoid head's is Bernoulli."""
    rng = np.random.default_rng(50)
    X = rng.normal(size=(9, 5))
    p = md.predict_proba(md.init_model(sizes, head, 51), X)
    student = md.init_model(sizes, head, 52)
    q = md.predict_proba(student, X)
    kl = ad.add(md.target_loss(md.forward(student, X), ad.tensor(p), head),
                ad.tensor(md.neg_entropy(md.plogp(p, head)))).item()
    if head == "sigmoid":
        p, q = np.hstack([p, 1.0 - p]), np.hstack([q, 1.0 - q])
    assert kl == pytest.approx(np.mean(np.sum(rel_entr(p, q), axis=1)), abs=1e-12)

@pytest.mark.parametrize("head,sizes", [("softmax", [5, 7, 4]), ("sigmoid", [5, 7, 1])])
def test_neg_entropy_of_a_batchs_rows_of_plogp_is_bitwise_that_of_the_batch(head, sizes):
    """SCRUB takes plogp of the teacher's probabilities once per run and
    reduces each batch's rows of it: bit for bit what plogp of the batch's
    probabilities gives, and for a sigmoid head the mean of its terms."""
    rng = np.random.default_rng(53)
    p = md.predict_proba(md.init_model(sizes, head, 54), rng.normal(size=(700, 5)))
    p[:3] = 0.0 if head == "sigmoid" else np.eye(4)[:3]  # p log p = 0 entries
    terms = md.plogp(p, head)
    for n in (1, 64, 600):
        idx = rng.choice(len(p), size=n, replace=False)
        rows = md.neg_entropy(np.take(terms, idx, axis=0))
        assert rows.tobytes() == md.neg_entropy(md.plogp(p[idx], head)).tobytes()
        if head == "sigmoid":
            assert rows.tobytes() == np.asarray(float(np.mean(md.plogp(p[idx], head)))).tobytes()

@given(st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_loss_strictly_positive(seed):
    rng = np.random.default_rng(seed)
    m = md.init_model([4, 5, 3], "softmax", seed=seed % 97)
    X = rng.normal(size=(4, 4))
    y = rng.integers(0, 3, size=4)
    assert md.loss(m, X, y).item() > 0.0


# ---------------------------------------------------------------------------
# Training.
# ---------------------------------------------------------------------------

def test_zero_learning_rate_leaves_params_unchanged():
    m = md.init_model([4, 6, 3], "softmax", seed=1)
    before = model_bytes(m)
    X, y = make_blobs(30, [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0)], seed=2)
    config = md.TrainConfig(epochs=3, batch_size=16, learning_rate=0.0, seed=3)
    assert md.train(m, (X, y), config) is m
    assert model_bytes(m) == before

def test_training_deterministic_for_fixed_seed():
    X, y = make_blobs(40, [(2.0, 0.0), (0.0, 2.0)], seed=4)
    results = []
    for _ in range(2):
        m = md.init_model([2, 8, 2], "softmax", seed=5)
        md.train(m, (X, y), md.TrainConfig(epochs=5, batch_size=16, learning_rate=1e-3, seed=6))
        results.append(model_bytes(m))
    assert results[0] == results[1]

def test_trains_separable_blobs_to_high_accuracy():
    X, y = make_blobs(100, [(-3.0, -3.0), (3.0, 3.0)], seed=7)
    assert perceptron_finds_separator(X, y)
    m = md.init_model([2, 1], "sigmoid", seed=8)
    md.train(m, (X, y), md.TrainConfig(epochs=200, batch_size=64, learning_rate=5e-3, seed=9))
    acc = float((md.predict(m, X) == y).mean())
    assert acc >= 0.99

def test_trains_three_class_blobs():
    X, y = make_blobs(80, [(-3, 0), (3, 0), (0, 4)], seed=10)
    m = md.init_model([2, 16, 3], "softmax", seed=11)
    md.train(m, (X, y), md.TrainConfig(epochs=120, batch_size=64, learning_rate=5e-3, seed=12))
    assert float((md.predict(m, X) == y).mean()) >= 0.98


# ---------------------------------------------------------------------------
# The descent loop.
# ---------------------------------------------------------------------------

def dot_plan():
    """(w, plan, read): a step whose output is w . x and costs 2 units."""
    w = ad.tensor(np.array([1.0, -1.0]))
    plan = ad.StepPlan(lambda x: (ad.sum_all(ad.mul(x, w)),), [w])
    return w, plan, lambda outputs: (outputs[0], 2, {"value": outputs[0].item()})


def test_descend_stops_on_an_update_that_returns_true():
    w, plan, read = dot_plan()
    stepped = []

    def update(grads):
        w.data = w.data - grads[0]
        stepped.append(w.data.tolist())
        return len(stepped) == 3 or None

    batches = iter([(np.array([1.0, 2.0]),)] * 5)
    log, cost, truncated = md.descend(plan, update, batches, read, [])
    assert truncated is True
    assert stepped == [[0.0, -3.0], [-1.0, -5.0], [-2.0, -7.0]]
    # The stopping step's cost counts, but it is not logged, and no further
    # batch is drawn.
    assert cost == 6.0
    assert log == [{"step": 0, "value": -1.0}, {"step": 1, "value": -6.0}]
    assert len(list(batches)) == 2


def test_descend_numbers_steps_after_the_log_it_is_given():
    w, plan, read = dot_plan()
    opt = md.Adam([w], 0.1)  # its step returns None: go on
    log, cost, truncated = md.descend(plan, opt.step, [(np.ones(2),)] * 2, read,
                                      [{"step": 0, "note": "before"}])
    assert [entry["step"] for entry in log] == [0, 1, 2]
    assert log[0] == {"step": 0, "note": "before"}
    assert (cost, truncated, opt.t) == (4.0, False, 2)


def test_descend_without_batches_changes_nothing():
    w, plan, read = dot_plan()
    before = w.data.tobytes()
    opt = md.Adam([w], 0.1)
    log, cost, truncated = md.descend(plan, opt.step, [], read, [{"step": 0}])
    assert (log, cost, truncated) == ([{"step": 0}], 0.0, False)
    assert not plan.traces and opt.t == 0
    assert w.data.tobytes() == before


# ---------------------------------------------------------------------------
# Adapters.
# ---------------------------------------------------------------------------

def test_attach_then_merge_forward_bit_identical():
    m = md.init_model([5, 7, 3], "softmax", seed=13)
    X = np.random.default_rng(14).normal(size=(9, 5))
    before = md.forward(m, X).data.tobytes()
    md.attach_lora(m, [0], rank=3, seed=15)
    attached = md.forward(m, X).data.tobytes()
    merged = md.merge_lora(m)
    after = md.forward(merged, X).data.tobytes()
    # B starts at zero, so even the attached forward is unchanged.
    assert before == attached == after
    assert not merged.adapters and not merged.frozen_base

def test_adapter_training_freezes_base():
    m = md.init_model([4, 6, 2], "softmax", seed=16)
    md.attach_lora(m, [0], rank=2, seed=17)
    base_before = model_bytes(m)
    a_before = m.adapters[0].A.data.copy()
    b_before = m.adapters[0].B.data.copy()
    X, y = make_blobs(30, [(2.5, 0, 0, 0), (0, 2.5, 0, 0)], seed=18)
    md.train(m, (X, y), md.TrainConfig(epochs=10, batch_size=32, learning_rate=1e-2, seed=19))
    assert model_bytes(m) == base_before
    assert not np.array_equal(m.adapters[0].B.data, b_before)
    assert not np.array_equal(m.adapters[0].A.data, a_before)

def test_merge_matches_w_plus_ab_exactly():
    m = md.init_model([5, 4], "softmax", seed=20)
    md.attach_lora(m, [0], rank=2, seed=21)
    m.adapters[0].B.data = np.random.default_rng(22).normal(size=(2, 5))
    merged = md.merge_lora(m)
    expected = m.layers[0][0].data + m.adapters[0].A.data @ m.adapters[0].B.data
    assert np.array_equal(merged.layers[0][0].data, expected)
    assert not merged.adapters

def test_full_rank_adapter_can_fit_arbitrary_update():
    rng = np.random.default_rng(23)
    d_out, d_in, rank = 6, 5, 5
    target = rng.normal(size=(d_out, d_in))
    # Truncated-SVD oracle: at full rank the best approximation error is zero.
    svals = np.linalg.svd(target, compute_uv=False)
    assert np.sqrt((svals[rank:] ** 2).sum()) == pytest.approx(0.0, abs=1e-12)

    m = md.init_model([d_in, d_out], "softmax", seed=24)
    md.attach_lora(m, [0], rank=rank, seed=25)
    params = md.trainable_params(m)
    opt = md.Adam(params, lr=2e-2)
    tgt = ad.tensor(target)
    for _ in range(2000):
        delta = ad.matmul(m.adapters[0].A, m.adapters[0].B)
        obj = ad.sq_norm(ad.sub(delta, tgt))
        opt.step([g.data for g in ad.grad(obj, params)])
    err = np.linalg.norm(m.adapters[0].A.data @ m.adapters[0].B.data - target)
    assert err <= 1e-3

@pytest.mark.parametrize("scope", ["head", "all"])
@pytest.mark.parametrize("adapter", [False, True], ids=["plain", "lora"])
def test_set_flat_params_writes_back_the_closure_layout(scope, adapter):
    # A head-scope adapter only sits in scope when the head is layer 0.
    sizes = [4, 3] if scope == "head" and adapter else [4, 5, 3]
    m = md.init_model(sizes, "softmax", seed=24)
    if adapter:
        md.attach_lora(m, [0], rank=2, seed=25)
        m.adapters[0].B.data = np.random.default_rng(26).normal(size=(2, 4))
    X = np.random.default_rng(27).normal(size=(6, 4))
    before = md.forward(m, X).data.tobytes()
    md.set_flat_params(m, md.flat_param_closure(m, scope)[0], scope)
    assert md.forward(m, X).data.tobytes() == before
    assert not m.adapters and not m.frozen_base


def test_adapter_rank_bounds_enforced():
    m = md.init_model([5, 3], "softmax", seed=26)
    with pytest.raises(ValueError):
        md.attach_lora(m, [0], rank=4, seed=0)
    with pytest.raises(ValueError):
        md.attach_lora(m, [1], rank=1, seed=0)


@pytest.mark.parametrize("layers, rank", [([0, 7], 2), ([0, 1], 4)],
                         ids=["missing-layer", "rank-too-large"])
def test_failed_attach_leaves_model_unchanged(layers, rank):
    m = md.init_model([5, 4, 3], "softmax", seed=26)
    before = model_bytes(m)
    with pytest.raises(ValueError):
        md.attach_lora(m, layers, rank=rank, seed=0)
    assert not m.adapters and not m.frozen_base
    assert len(md.trainable_params(m)) == 4
    assert model_bytes(m) == before


def test_frozen_base_follows_the_adapters():
    m = md.init_model([5, 4, 3], "softmax", seed=26)
    md.attach_lora(m, [0, 1], rank=2, seed=0)
    assert m.frozen_base
    assert md.trainable_params(m) == [m.adapters[0].A, m.adapters[0].B,
                                      m.adapters[1].A, m.adapters[1].B]
    with pytest.raises(AttributeError):
        m.frozen_base = False


# ---------------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    m = md.init_model([6, 9, 4], "softmax", seed=27)
    md.attach_lora(m, [0], rank=2, seed=28)
    m.adapters[0].B.data = np.random.default_rng(29).normal(size=(2, 6))
    p = tmp_path / "model.ckpt"
    md.save_checkpoint(m, p)
    loaded = md.load_checkpoint(p)
    assert model_bytes(loaded) == model_bytes(m)
    assert loaded.head == m.head and loaded.seed == m.seed
    assert loaded.adapters[0].rank == 2
    assert np.array_equal(loaded.adapters[0].B.data, m.adapters[0].B.data)

def test_checkpoint_save_load_save_identical_files(tmp_path):
    m = md.init_model([3, 5, 2], "softmax", seed=30)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    md.save_checkpoint(m, p1)
    md.save_checkpoint(md.load_checkpoint(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()

def test_checkpoint_corrupted_header_rejected(tmp_path):
    m = md.init_model([3, 2], "softmax", seed=31)
    p = tmp_path / "bad.ckpt"
    md.save_checkpoint(m, p)
    raw = p.read_bytes()
    p.write_bytes(b"{not json" + raw[raw.find(b"\n") :])
    with pytest.raises(ValueError, match="header"):
        md.load_checkpoint(p)

def test_checkpoint_truncated_payload_rejected(tmp_path):
    m = md.init_model([3, 2], "softmax", seed=32)
    p = tmp_path / "short.ckpt"
    md.save_checkpoint(m, p)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(ValueError, match="bytes"):
        md.load_checkpoint(p)


def save_with_adapter(path):
    m = md.init_model([3, 4, 2], "softmax", seed=33)
    md.attach_lora(m, [0], rank=1, seed=34)
    md.save_checkpoint(m, path)
    return path.read_bytes()

def rewrite_header(path, edit):
    raw = path.read_bytes()
    cut = raw.find(b"\n")
    path.write_bytes(json.dumps(edit(json.loads(raw[:cut]))).encode() + raw[cut:])

def replace_field(key, value):
    return lambda h: {**h, key: value}

def drop_field(key):
    return lambda h: {k: v for k, v in h.items() if k != key}

def edit_array(i, **changes):
    return lambda h: {**h, "arrays": [
        {**e, **changes} if j == i else e for j, e in enumerate(h["arrays"])]}

MALFORMED_HEADERS = {
    "no-arrays": drop_field("arrays"),
    "list-header": lambda h: [h],
    "string-shape": edit_array(0, shape="4x3"),
    "negative-shape": edit_array(0, shape=[-2, -6]),
    "transposed-weight": edit_array(0, shape=[3, 4]),
    "renamed-array": edit_array(1, name="layer0.offset"),
    "no-layer-sizes": drop_field("layer_sizes"),
    "layer-sizes-disagree": replace_field("layer_sizes", [4, 3, 2]),
    "unknown-head": replace_field("head", "tanh"),
    "sigmoid-head-two-logits": replace_field("head", "sigmoid"),
    "string-seed": replace_field("seed", "33"),
    "adapter-on-missing-layer": replace_field("adapters", [{"layer": 5, "rank": 1}]),
    "adapter-not-listed": replace_field("adapters", []),
    "adapter-without-rank": replace_field("adapters", [{"layer": 0}]),
    "adapters-with-unfrozen-base": replace_field("frozen_base", False),
}

@pytest.mark.parametrize("edit", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
def test_checkpoint_malformed_header_rejected(tmp_path, edit):
    p = tmp_path / "odd.ckpt"
    save_with_adapter(p)
    rewrite_header(p, edit)
    with pytest.raises(ValueError, match="odd.ckpt"):
        md.load_checkpoint(p)

def test_checkpoint_nonfinite_payload_rejected(tmp_path):
    p = tmp_path / "nan.ckpt"
    raw = save_with_adapter(p)
    p.write_bytes(raw[:-8] + np.array([np.nan], dtype="<f8").tobytes())
    with pytest.raises(ValueError, match="non-finite"):
        md.load_checkpoint(p)

@given(st.data())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_checkpoint_truncated_anywhere_rejected(tmp_path, data):
    p = tmp_path / "cut.ckpt"
    raw = save_with_adapter(p)
    p.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
    with pytest.raises(ValueError, match="cut.ckpt"):
        md.load_checkpoint(p)

@given(st.data())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_checkpoint_bit_flip_loads_or_is_rejected(tmp_path, data):
    """A flipped bit either leaves a loadable model (a changed seed or
    weight) or raises ValueError, never another exception."""
    p = tmp_path / "flip.ckpt"
    raw = bytearray(save_with_adapter(p))
    raw[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    p.write_bytes(bytes(raw))
    try:
        loaded = md.load_checkpoint(p)
    except ValueError as e:
        assert "flip.ckpt" in str(e)
    else:
        assert loaded.layer_sizes == [3, 4, 2] and set(loaded.adapters) == {0}
