"""Engine tests: every differentiation path is checked against an independent
numerical oracle (central differences, an explicit Hessian, or a dense solve)
before any model code relies on it."""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unlearnlab import autodiff as ad
from unlearnlab import biasgen as bg
from unlearnlab import model as md
from unlearnlab import unlearn as ul


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------

def central_difference_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """O(h^2) gradient estimate of a scalar function of a flat vector."""
    g = np.zeros_like(x)
    for i in range(x.size):
        up = x.copy()
        dn = x.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (f(up) - f(dn)) / (2.0 * h)
    return g


def logistic_explicit(X: np.ndarray, y: np.ndarray, theta: np.ndarray):
    """Closed-form gradient and Hessian of mean binary cross-entropy.

    theta = [w_0 .. w_{d-1}, b]; the Hessian is (1/n) sum s_i (1 - s_i) x~ x~^T
    with x~ = [x, 1], which is the textbook result for logistic regression.
    """
    n, d = X.shape
    w, b = theta[:d], theta[d]
    z = X @ w + b
    s = 1.0 / (1.0 + np.exp(-z))
    Xt = np.hstack([X, np.ones((n, 1))])
    grad = Xt.T @ (s - y) / n
    H = (Xt * (s * (1.0 - s))[:, None]).T @ Xt / n
    return grad, H


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(float(np.max(np.abs(b))), 1e-8)
    return float(np.max(np.abs(a - b))) / denom


# ---------------------------------------------------------------------------
# Helper closures: tiny networks built straight from primitives, so these
# tests exercise the engine without depending on the model layer.
# ---------------------------------------------------------------------------

def make_mlp_loss(sizes, X, y_onehot, seed):
    """Return (flat_theta0, loss_on_arrays, loss_on_tensor) for a relu MLP."""
    rng = np.random.default_rng(seed)
    shapes = []
    for d_in, d_out in zip(sizes[:-1], sizes[1:]):
        shapes.append((d_out, d_in))
        shapes.append((d_out,))
    theta0 = np.concatenate(
        [rng.uniform(-0.7, 0.7, size=int(np.prod(s))) for s in shapes]
    )
    n = X.shape[0]

    def loss_tensor(flat: ad.Tensor) -> ad.Tensor:
        pos = 0
        h = ad.tensor(X)
        pieces = []
        for s in shapes:
            size = int(np.prod(s))
            pieces.append(ad.reshape(ad.narrow(flat, pos, size), s))
            pos += size
        for li in range(len(sizes) - 1):
            W, b = pieces[2 * li], pieces[2 * li + 1]
            h = ad.add(ad.matmul(h, ad.transpose(W)), ad.rowbcast(b, n))
            if li < len(sizes) - 2:
                h = ad.relu(h)
        logp = ad.log_softmax(h)
        return ad.scale(ad.sum_all(ad.mul(ad.tensor(y_onehot), logp)), -1.0 / n)

    def loss_array(flat_arr: np.ndarray) -> float:
        return loss_tensor(ad.tensor(flat_arr)).item()

    return theta0, loss_array, loss_tensor


def quadratic_loss(A: np.ndarray):
    def f(x: ad.Tensor) -> ad.Tensor:
        col = ad.reshape(x, (A.shape[0], 1))
        return ad.scale(
            ad.sum_all(ad.matmul(ad.transpose(col), ad.matmul(ad.tensor(A), col))), 0.5
        )

    return f


# ---------------------------------------------------------------------------
# Forward primitives.
# ---------------------------------------------------------------------------

def test_relu_at_boundary_and_signs():
    out = ad.relu(ad.tensor([-1.0, 0.0, 2.5]))
    assert out.data.tolist() == [0.0, 0.0, 2.5]

def test_matmul_identity():
    A = np.arange(9, dtype=float).reshape(3, 3)
    out = ad.matmul(ad.tensor(A), ad.tensor(np.eye(3)))
    np.testing.assert_array_equal(out.data, A)

def test_sigmoid_at_zero():
    assert ad.sigmoid(ad.tensor(np.zeros(3))).data.tolist() == [0.5, 0.5, 0.5]

def test_log_softmax_rows_normalize():
    rng = np.random.default_rng(0)
    out = ad.log_softmax(ad.tensor(rng.normal(size=(5, 7))))
    np.testing.assert_allclose(np.exp(out.data).sum(axis=1), np.ones(5), atol=1e-12)


def _awkward(rng, shape):
    """Values of wide magnitude and both signs, with signed zeros mixed in."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 13, size=shape)
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return x


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("k", range(1, 10))
@pytest.mark.parametrize("n", [1, ad._SWEEP_MIN_ROWS - 1, ad._SWEEP_MIN_ROWS, 1400])
def test_row_reduce_is_bitwise_numpy(n, k):
    rng = np.random.default_rng(100 * n + k)
    for _ in range(3):
        x = _awkward(rng, (n, k))
        np.testing.assert_array_equal(_bits(ad._row_reduce(np.add, x)), _bits(x.sum(axis=1)))
        np.testing.assert_array_equal(_bits(ad._row_reduce(np.maximum, x)),
                                      _bits(x.max(axis=1)))
    zeros = np.where(rng.random((n, k)) < 0.5, 0.0, -0.0)
    np.testing.assert_array_equal(_bits(ad._row_reduce(np.add, zeros)),
                                  _bits(zeros.sum(axis=1)))
    np.testing.assert_array_equal(_bits(ad._row_reduce(np.maximum, zeros)),
                                  _bits(zeros.max(axis=1)))


class _ReduceOnly:
    def __init__(self, ufunc):
        self.reduce = ufunc.reduce

    def __call__(self, *args, **kwargs):
        raise AssertionError("swept the columns")


@pytest.mark.parametrize("view", ["transposed", "column-strided", "row-strided"])
def test_row_reduce_of_a_non_contiguous_view_is_numpy(view):
    rng = np.random.default_rng(7)
    n = 2 * ad._SWEEP_MIN_ROWS
    x = {"transposed": _awkward(rng, (4, n)).T,
         "column-strided": _awkward(rng, (n, 8))[:, ::2],
         "row-strided": _awkward(rng, (2 * n, 4))[::2]}[view]
    assert x.shape[1] < ad._SWEEP_MAX_COLS and not x.flags.c_contiguous
    for ufunc in (np.add, np.maximum):
        np.testing.assert_array_equal(_bits(ad._row_reduce(ufunc, x)),
                                      _bits(ufunc.reduce(x, axis=1)))
        # A sweep calls the ufunc itself; the fallback only its reduce.
        ad._row_reduce(_ReduceOnly(ufunc), x)
        with pytest.raises(AssertionError, match="swept"):
            ad._row_reduce(_ReduceOnly(ufunc), np.ascontiguousarray(x))


def test_softplus_matches_reference():
    x = np.array([-40.0, -1.0, 0.0, 3.0, 40.0])
    np.testing.assert_allclose(
        ad.softplus(ad.tensor(x)).data, np.logaddexp(0.0, x), atol=1e-15
    )

def test_shape_mismatch_names_both_shapes():
    with pytest.raises(ad.ShapeError) as e:
        ad.add(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((3, 2))))
    assert "(2, 3)" in str(e.value) and "(3, 2)" in str(e.value)

def test_matmul_chain_mismatch_rejected():
    with pytest.raises(ad.ShapeError):
        ad.matmul(ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((4, 2))))

def test_nonfinite_result_is_hard_error():
    with pytest.raises(ad.NonFiniteError):
        ad.exp(ad.tensor(np.array([1000.0])))

def test_nonfinite_leaf_rejected():
    with pytest.raises(ad.NonFiniteError):
        ad.tensor(np.array([np.nan]))


# ---------------------------------------------------------------------------
# First-order gradients.
# ---------------------------------------------------------------------------

def test_square_gradient_is_two_x():
    x = ad.tensor(3.0)
    y = ad.mul(x, x)
    (g,) = ad.grad(y, [x])
    assert g.item() == pytest.approx(6.0, abs=1e-12)

def test_linear_map_gradient_rows_equal_input():
    x = np.array([[1.0], [2.0], [-3.0], [0.5]])
    W = ad.tensor(np.random.default_rng(1).normal(size=(3, 4)))
    out = ad.sum_all(ad.matmul(W, ad.tensor(x)))
    (g,) = ad.grad(out, [W])
    np.testing.assert_allclose(g.data, np.tile(x.ravel(), (3, 1)), atol=1e-14)

def test_grad_reaches_every_leaf():
    x = ad.tensor(np.array([1.0, -2.0]))
    w = ad.tensor(np.array([3.0, 0.5]))
    out = ad.add(ad.sq_norm(x), ad.sum_all(ad.mul(w, x)))
    leaves = [n for n in ad.trace(out).nodes if not n.parents]
    assert set(leaves) == {x, w}
    gx, gw = ad.grad(out, [x, w])
    np.testing.assert_allclose(gx.data, [2.0 + 3.0, -4.0 + 0.5], atol=1e-14)
    np.testing.assert_allclose(gw.data, [1.0, -2.0], atol=1e-14)

def test_trace_of_several_outputs_lists_each_node_once_parents_first():
    x = ad.tensor(np.array([1.0, -2.0]))
    shared = ad.scale(x, 2.0)
    a, b = ad.sum_all(ad.relu(shared)), ad.sq_norm(shared)
    nodes = ad.trace(a, b).nodes
    assert len(nodes) == len(set(nodes)) == len(set(ad.trace(a).nodes) | set(ad.trace(b).nodes))
    for i, node in enumerate(nodes):
        assert all(nodes.index(p) < i for p in node.parents)
    # An output under an earlier one adds nothing: shared lies under a.
    assert ad.trace(a, shared).nodes == ad.trace(a).nodes
    assert ad.trace(a, b).nodes[:len(ad.trace(a).nodes)] == ad.trace(a).nodes

def test_grad_rejects_nonscalar_output():
    x = ad.tensor(np.ones(3))
    with pytest.raises(ad.ShapeError):
        ad.grad(ad.scale(x, 2.0), [x])

def test_unreachable_wrt_gets_zeros():
    x = ad.tensor(np.ones(3))
    other = ad.tensor(np.ones((2, 2)))
    (g,) = ad.grad(ad.sum_all(x), [other])
    np.testing.assert_array_equal(g.data, np.zeros((2, 2)))

def test_backward_leaves_forward_values_untouched():
    x = ad.tensor(np.array([0.3, -1.2, 2.0]))
    h = ad.relu(ad.addc(ad.scale(x, 2.0), 0.1))
    out = ad.sum_all(ad.mul(h, h))
    snapshot = [n.data.copy() for n in ad.trace(out).nodes]
    ad.grad(out, [x])
    for n, before in zip(ad.trace(out).nodes, snapshot):
        np.testing.assert_array_equal(n.data, before)

@pytest.mark.parametrize("sizes,seed", [((4, 8, 3), 0), ((5, 6, 6, 2), 1), ((3, 2), 2)])
def test_mlp_gradient_matches_central_differences(sizes, seed):
    rng = np.random.default_rng(seed + 100)
    n = 6
    X = rng.normal(size=(n, sizes[0]))
    y = np.eye(sizes[-1])[rng.integers(0, sizes[-1], size=n)]
    theta0, loss_array, loss_tensor = make_mlp_loss(sizes, X, y, seed)

    flat = ad.tensor(theta0)
    (g,) = ad.grad(loss_tensor(flat), [flat])
    fd = central_difference_grad(loss_array, theta0)
    assert relative_error(g.data, fd) < 1e-6

def test_gradients_bit_identical_across_runs():
    theta0, _, loss_tensor = make_mlp_loss(
        (4, 5, 3),
        np.random.default_rng(7).normal(size=(5, 4)),
        np.eye(3)[[0, 2, 1, 0, 1]],
        seed=7,
    )
    runs = []
    for _ in range(2):
        flat = ad.tensor(theta0.copy())
        (g,) = ad.grad(loss_tensor(flat), [flat])
        runs.append(g.data.tobytes())
    assert runs[0] == runs[1]

@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_product_rule_on_random_vectors(seed):
    rng = np.random.default_rng(seed)
    a_val = rng.normal(size=4)
    b_val = rng.normal(size=4)
    a, b = ad.tensor(a_val), ad.tensor(b_val)
    out = ad.sum_all(ad.mul(a, b))
    ga, gb = ad.grad(out, [a, b])
    np.testing.assert_allclose(ga.data, b_val, atol=1e-12)
    np.testing.assert_allclose(gb.data, a_val, atol=1e-12)


# ---------------------------------------------------------------------------
# The two backward modes and the fused linear layer.
# ---------------------------------------------------------------------------

def assert_modes_agree(build, wrt):
    """Default (array) grads equal taped grads byte for byte."""
    first = [g.data.tobytes() for g in ad.grad(build(), wrt)]
    taped = [g.data.tobytes() for g in ad.grad(build(), wrt, create_graph=True)]
    assert first == taped

def trained_model(sizes, head, X, y, seed):
    model = md.init_model(sizes, head, seed)
    md.train(model, (X, y), md.TrainConfig(epochs=2, batch_size=8, learning_rate=1e-2))
    return model

@pytest.mark.parametrize("head,sizes",
                         [("softmax", [6, 10, 4]), ("sigmoid", [5, 7, 6, 1])])
def test_first_order_grad_matches_taped_on_mlps(head, sizes):
    rng = np.random.default_rng(40)
    X = rng.normal(size=(24, sizes[0]))
    y = rng.integers(0, 2 if head == "sigmoid" else sizes[-1], size=24)
    model = trained_model(sizes, head, X, y, 41)
    assert_modes_agree(lambda: md.loss(model, X, y), md.trainable_params(model))

def test_first_order_grad_matches_taped_with_lora():
    rng = np.random.default_rng(42)
    X = rng.normal(size=(20, 6))
    y = rng.integers(0, 3, size=20)
    model = md.attach_lora(trained_model([6, 9, 3], "softmax", X, y, 43), [0, 1], 2, 44)
    for adapter in model.adapters.values():
        adapter.B.data = rng.normal(size=adapter.B.shape) * 0.3
    assert_modes_agree(lambda: md.loss(model, X, y), md.trainable_params(model))

@pytest.mark.parametrize("head,sizes", [("softmax", [6, 8, 3]), ("sigmoid", [6, 8, 1])])
def test_first_order_grad_matches_taped_on_scrub_kl(head, sizes):
    rng = np.random.default_rng(45)
    X = rng.normal(size=(16, 6))
    y = rng.integers(0, 2 if head == "sigmoid" else 3, size=16)
    teacher = trained_model(sizes, head, X, y, 46)
    student = md.init_model(sizes, head, 47)
    p = md.predict_proba(teacher, X)
    assert_modes_agree(
        lambda: ad.add(md.target_loss(md.forward(student, X), ad.tensor(p), head),
                       ad.tensor(md.neg_entropy(md.plogp(p, head)))),
        md.trainable_params(student),
    )

def test_first_order_grad_matches_taped_on_head_loss_closure():
    bundle = bg.gen_attribute_bias(120, 3.0, seed=48)
    X, y, _, _ = bg.stack(bundle.train)
    model = trained_model([X.shape[1], 6, 1], "sigmoid", X, y, 49)
    theta0, fn = ul.loss_closure(model, bundle.train, scope="head")
    leaf = ad.tensor(theta0)
    assert_modes_agree(lambda: fn(leaf), [leaf])

def chain_layer(h, W, b):
    return ad.add(ad.matmul(h, ad.transpose(W)), ad.rowbcast(b, h.shape[0]))

def test_linear_is_bitwise_the_matmul_chain():
    rng = np.random.default_rng(50)
    X = ad.tensor(rng.normal(size=(12, 5)))
    y = np.eye(3)[rng.integers(0, 3, size=12)]
    shapes = [(4, 5), (4,), (3, 4), (3,)]
    sizes = [int(np.prod(s)) for s in shapes]
    theta0 = rng.normal(size=sum(sizes))

    def loss_with(layer):
        def fn(flat):
            pieces, pos = [], 0
            for shp, size in zip(shapes, sizes):
                pieces.append(ad.reshape(ad.narrow(flat, pos, size), shp))
                pos += size
            h = ad.relu(layer(X, pieces[0], pieces[1]))
            logp = ad.log_softmax(layer(h, pieces[2], pieces[3]))
            return ad.scale(ad.sum_all(ad.mul(ad.tensor(y), logp)), -1.0 / 12)
        return fn

    fused, chain = loss_with(ad.linear), loss_with(chain_layer)
    leaf = ad.tensor(theta0)
    assert fused(leaf).data.tobytes() == chain(leaf).data.tobytes()
    for create_graph in (False, True):
        (gf,) = ad.grad(fused(leaf), [leaf], create_graph=create_graph)
        (gc,) = ad.grad(chain(leaf), [leaf], create_graph=create_graph)
        assert gf.data.tobytes() == gc.data.tobytes()
    v = rng.normal(size=theta0.shape)
    assert (ad.hessian_vector_product(fused, leaf, v).data.tobytes()
            == ad.hessian_vector_product(chain, leaf, v).data.tobytes())

def chain_xent(z, P):
    return ad.scale(ad.sum_all(ad.mul(ad.tensor(P), ad.log_softmax(z))), -1.0 / z.shape[0])

@pytest.mark.parametrize("targets", ["onehot", "soft"])
def test_softmax_xent_is_bitwise_the_chain(targets):
    rng = np.random.default_rng(51)
    X = ad.tensor(rng.normal(size=(10, 4)))
    if targets == "onehot":
        P = np.eye(3)[rng.integers(0, 3, size=10)]
    else:
        e = np.exp(rng.normal(size=(10, 3)) * 2.0)
        P = e / e.sum(axis=1, keepdims=True)
    shapes = [(5, 4), (5,), (3, 5), (3,)]
    sizes = [int(np.prod(s)) for s in shapes]
    theta0 = rng.normal(size=sum(sizes))

    def loss_with(xent):
        def fn(flat):
            pieces, pos = [], 0
            for shp, size in zip(shapes, sizes):
                pieces.append(ad.reshape(ad.narrow(flat, pos, size), shp))
                pos += size
            h = ad.relu(ad.linear(X, pieces[0], pieces[1]))
            # The scale makes the gradient entering the cross-entropy not 1.
            return ad.scale(xent(ad.linear(h, pieces[2], pieces[3]), P), 1.3)
        return fn

    fused, chain = loss_with(ad.softmax_xent), loss_with(chain_xent)
    leaf = ad.tensor(theta0)
    assert fused(leaf).data.tobytes() == chain(leaf).data.tobytes()
    for create_graph in (False, True):
        (gf,) = ad.grad(fused(leaf), [leaf], create_graph=create_graph)
        (gc,) = ad.grad(chain(leaf), [leaf], create_graph=create_graph)
        assert gf.data.tobytes() == gc.data.tobytes()
    for _ in range(2):
        v = rng.normal(size=theta0.shape)
        assert (ad.hessian_vector_product(fused, leaf, v).data.tobytes()
                == ad.hessian_vector_product(chain, leaf, v).data.tobytes())

def test_softmax_xent_checks_operands():
    z = ad.tensor(np.zeros((2, 3)))
    with pytest.raises(ad.ShapeError):
        ad.softmax_xent(z, np.ones((2, 2)) / 2)
    with pytest.raises(ad.ShapeError):
        ad.softmax_xent(ad.tensor(np.zeros((0, 3))), np.zeros((0, 3)))
    with pytest.raises(ad.NonFiniteError):
        ad.softmax_xent(z, np.array([[np.inf, 0.0, 0.0], [1.0, 0.0, 0.0]]))

# ---------------------------------------------------------------------------
# Two cross-entropies on one logits node: SCRUB's retain KL and task loss.
# ---------------------------------------------------------------------------

def two_xent_step(W, b, copy_logits=False, xent=ad.softmax_xent):
    """build(X, P, T) for a StepPlan: two cross-entropies on one logits
    node, or, with copy_logits, the second on a bitwise copy of it."""
    def build(X, P, T):
        z = ad.linear(X, W, b)
        second = ad.scale(z, 1.0) if copy_logits else z
        first, task = xent(z, P), xent(second, T)
        return ad.add(first, ad.scale(task, 0.7)), first, task
    return build

def xent_inputs(rng, n, k=3):
    e = np.exp(rng.normal(size=(n, k)))
    return rng.normal(size=(n, 4)), e / e.sum(axis=1, keepdims=True), np.eye(k)[rng.integers(0, k, n)]

def test_two_xents_on_one_logits_run_log_softmax_once(monkeypatch):
    calls = []
    log_softmax = ad._log_softmax
    monkeypatch.setattr(ad, "_log_softmax", lambda x: calls.append(x) or log_softmax(x))
    rng = np.random.default_rng(80)
    W, b = ad.tensor(rng.normal(size=(3, 4))), ad.tensor(rng.normal(size=3))
    build = two_xent_step(W, b)
    build(*map(ad.tensor, xent_inputs(rng, 5)))
    assert len(calls) == 1
    plan = ad.StepPlan(build, [W, b])
    for step in range(3):  # the tape, then two replays
        calls.clear()
        plan.forward(*xent_inputs(rng, 5))
        assert len(calls) == 1, step
    calls.clear()
    ad.softmax_xent(ad.tensor(rng.normal(size=(5, 3))), xent_inputs(rng, 5)[1])
    assert len(calls) == 1  # other logits: a log_softmax of their own

def test_two_xents_on_one_logits_are_bitwise_two_on_copies():
    rng = np.random.default_rng(81)
    W, b = ad.tensor(rng.normal(size=(3, 4))), ad.tensor(rng.normal(size=3))
    shared = ad.StepPlan(two_xent_step(W, b), [W, b])
    copied = ad.StepPlan(two_xent_step(W, b, copy_logits=True), [W, b])
    for n in (5, 5, 7, 5):  # the tape, a replay, another shape, a replay
        inputs = xent_inputs(rng, n)
        outs = [plan.forward(*inputs) for plan in (shared, copied)]
        assert [o.data.tobytes() for o in outs[0]] == [o.data.tobytes() for o in outs[1]]
        grads = [[g.data.tobytes() for g in plan.grad(o[0])] for plan, o in
                 zip((shared, copied), outs)]
        assert grads[0] == grads[1]
        # Each loss alone too: the first's gradient and the second's.
        for i in (1, 2):
            assert ([g.data.tobytes() for g in shared.grad(outs[0][i])]
                    == [g.data.tobytes() for g in copied.grad(outs[1][i])])

def test_a_replay_never_reuses_a_stale_log_softmax():
    rng = np.random.default_rng(82)
    W, b = ad.tensor(rng.normal(size=(3, 4))), ad.tensor(rng.normal(size=3))
    plan = ad.StepPlan(two_xent_step(W, b), [W, b])

    def fresh(inputs):  # the log_softmax/mul/sum_all/scale chain, which keeps nothing
        chain = two_xent_step(W, b, xent=lambda z, P: chain_xent(z, P.data))
        outputs = chain(*map(ad.tensor, inputs))
        return [o.data.tobytes() for o in outputs], [
            g.data.tobytes() for g in ad.grad(outputs[0], [W, b])]

    X, P, T = xent_inputs(rng, 6)
    for inputs in ((X, P, T), (X + 1.0, P, T), (X, P[::-1].copy(), T), (X, P, T)):
        outputs = plan.forward(*inputs)
        got = [o.data.tobytes() for o in outputs], [g.data.tobytes() for g in plan.grad(outputs[0])]
        # A cross-entropy on other logits between two steps changes nothing.
        ad.softmax_xent(ad.tensor(rng.normal(size=(6, 3))), P)
        assert got == fresh(inputs)
    W.data = W.data * 0.5  # new weights, as an optimiser rebinds them
    outputs = plan.forward(X, P, T)
    assert [o.data.tobytes() for o in outputs] == fresh((X, P, T))[0]

@pytest.mark.parametrize("rows", [1, 64, 600])
def test_linear_forward_is_bitwise_the_matmul_plus_bias(rows):
    rng = np.random.default_rng(83)
    h, W, b = rng.normal(size=(rows, 16)), rng.normal(size=(32, 16)), rng.normal(size=32)
    out = ad.linear(ad.tensor(h), ad.tensor(W), ad.tensor(b)).data
    assert out.tobytes() == (h @ W.T.copy() + b).tobytes()

MULTI_PARENT = {
    "mul": (ad.mul, [(3, 4), (3, 4)]),
    "matmul": (ad.matmul, [(3, 4), (4, 2)]),
    "linear": (ad.linear, [(5, 4), (3, 4), (3,)]),
    "sub": (ad.sub, [(3, 4), (3, 4)]),
}

@pytest.mark.parametrize("op", MULTI_PARENT)
def test_grad_of_any_parent_subset_is_bitwise_the_full_grad(op):
    build, shapes = MULTI_PARENT[op]
    rng = np.random.default_rng(52)
    values = [rng.normal(size=s) for s in shapes]
    for create_graph in (False, True):
        # Parents are nodes, not leaves, so the skipped gradients would have
        # had somewhere to go.
        leaves = [ad.tensor(v) for v in values]
        parents = [ad.addc(leaf, 0.5) for leaf in leaves]
        out = build(*parents)
        loss = ad.sum_all(ad.mul(ad.sigmoid(out), ad.tensor(rng.normal(size=out.shape))))
        full = [g.data.tobytes() for g in ad.grad(loss, leaves, create_graph=create_graph)]
        for mask in range(1, 2 ** len(leaves) - 1):
            subset = [i for i in range(len(leaves)) if mask >> i & 1]
            part = ad.grad(loss, [leaves[i] for i in subset], create_graph=create_graph)
            assert [g.data.tobytes() for g in part] == [full[i] for i in subset]

def record_vjp_requests(output):
    """Wrap every node's vjps under output; return the (node, need, result) log."""
    log = []

    def logged(fn):
        def wrapped(node, g, need):
            result = fn(node, g, need)
            log.append((node, need, result))
            return result
        return wrapped

    for node in ad.trace(output).nodes:
        prim = node.prim
        if prim is not None:
            node.prim = ad._Prim(prim.op, prim.forward, logged(prim.array_vjp),
                                 logged(prim.taped_vjp))
    return log

def assert_vjps_asked_only_for_ancestry(output, wrt, create_graph=False):
    log = record_vjp_requests(output)
    ad.grad(output, wrt, create_graph=create_graph)
    assert log
    for node, need, result in log:
        for parent, wanted, got in zip(node.parents, need, result):
            reaches_wrt = any(t in wrt for t in ad.trace(parent).nodes)
            assert wanted == reaches_wrt
            if not wanted and node.op in ("mul", "matmul", "linear"):
                assert got is None

@pytest.mark.parametrize("scope", ["head", "all"])
def test_vjps_are_never_asked_for_constant_parents(scope):
    theta0, fn = closure_case(f"softmax-{scope}")
    for create_graph in (False, True):
        leaf = ad.tensor(theta0)
        assert_vjps_asked_only_for_ancestry(fn(leaf), [leaf], create_graph)
    # The second pass of a Hessian-vector product: back through the taped
    # gradient, whose graph holds the constant inputs and targets.
    leaf = ad.tensor(theta0)
    (g,) = ad.grad(fn(leaf), [leaf], create_graph=True)
    v = np.random.default_rng(53).normal(size=theta0.shape)
    assert_vjps_asked_only_for_ancestry(ad.sum_all(ad.mul(g, ad.tensor(v))), [leaf])

def test_linear_rejects_mismatched_operands():
    h, W = ad.tensor(np.zeros((2, 3))), ad.tensor(np.zeros((4, 3)))
    with pytest.raises(ad.ShapeError):
        ad.linear(h, W, ad.tensor(np.zeros(3)))
    with pytest.raises(ad.ShapeError):
        ad.linear(ad.tensor(np.zeros((2, 4))), W, ad.tensor(np.zeros(4)))

@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_nonfinite_gradient_of_finite_forward_is_hard_error():
    a = ad.tensor(1e-300)
    loss = ad.scale(ad.sum_all(ad.mul(a, ad.tensor(1e300))), 1e10)
    assert np.isfinite(loss.data)
    with pytest.raises(ad.NonFiniteError):
        ad.grad(loss, [a])


# ---------------------------------------------------------------------------
# Second order: Hessian-vector products.
# ---------------------------------------------------------------------------

def test_hvp_on_quadratic_equals_av():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(6, 6))
    A = M @ M.T + np.eye(6)
    v = rng.normal(size=6)
    hv = ad.hessian_vector_product(quadratic_loss(A), ad.tensor(rng.normal(size=6)), v)
    np.testing.assert_allclose(hv.data, A @ v, atol=1e-10)

def test_hvp_zero_vector_gives_zero():
    A = np.eye(4) * 2.0
    hv = ad.hessian_vector_product(
        quadratic_loss(A), ad.tensor(np.ones(4)), np.zeros(4)
    )
    np.testing.assert_array_equal(hv.data, np.zeros(4))

def test_hvp_matches_explicit_logistic_hessian():
    rng = np.random.default_rng(5)
    n, d = 50, 5
    X = rng.normal(size=(n, d))
    y = (rng.uniform(size=n) < 0.5).astype(float)
    theta = rng.normal(size=d + 1) * 0.5

    def loss_fn(flat: ad.Tensor) -> ad.Tensor:
        w = ad.reshape(ad.narrow(flat, 0, d), (1, d))
        b = ad.narrow(flat, d, 1)
        z = ad.add(ad.matmul(ad.tensor(X), ad.transpose(w)), ad.rowbcast(b, n))
        yc = ad.tensor(y.reshape(n, 1))
        return ad.mean_all(ad.sub(ad.softplus(z), ad.mul(z, yc)))

    g_oracle, H_oracle = logistic_explicit(X, y, theta)
    flat = ad.tensor(theta)
    (g,) = ad.grad(loss_fn(flat), [flat])
    np.testing.assert_allclose(g.data, g_oracle, atol=1e-10)
    for k in range(4):
        v = np.random.default_rng(50 + k).normal(size=d + 1)
        hv = ad.hessian_vector_product(loss_fn, flat, v)
        assert np.max(np.abs(hv.data - H_oracle @ v)) < 1e-6

def test_hvp_is_symmetric_bilinear_form():
    rng = np.random.default_rng(11)
    n, d = 30, 4
    X = rng.normal(size=(n, d))
    y = (rng.uniform(size=n) < 0.5).astype(float)

    def loss_fn(flat: ad.Tensor) -> ad.Tensor:
        w = ad.reshape(ad.narrow(flat, 0, d), (1, d))
        z = ad.matmul(ad.tensor(X), ad.transpose(w))
        yc = ad.tensor(y.reshape(n, 1))
        return ad.mean_all(ad.sub(ad.softplus(z), ad.mul(z, yc)))

    theta = ad.tensor(rng.normal(size=d))
    u = rng.normal(size=d)
    v = rng.normal(size=d)
    hu = ad.hessian_vector_product(loss_fn, theta, u).data
    hv = ad.hessian_vector_product(loss_fn, theta, v).data
    assert abs(float(v @ hu) - float(u @ hv)) < 1e-8

def test_hvp_shape_mismatch_rejected():
    with pytest.raises(ad.ShapeError):
        ad.hessian_vector_product(
            quadratic_loss(np.eye(3)), ad.tensor(np.ones(3)), np.ones(4)
        )


def fresh_hvp(fn, theta0, v):
    """H v built from scratch: a taped gradient, then a first-order pass."""
    leaf = ad.tensor(theta0)
    (g,) = ad.grad(fn(leaf), [leaf], create_graph=True)
    (hv,) = ad.grad(ad.sum_all(ad.mul(g, ad.tensor(v))), [leaf])
    return hv.data.tobytes()

def closure_case(case):
    """(theta0, fn) from unlearn.loss_closure on a briefly trained model."""
    if case.startswith("sigmoid"):
        bundle, head, outputs = bg.gen_attribute_bias(90, 3.0, seed=61), "sigmoid", 1
    else:
        bundle, head, outputs = bg.gen_patch_bias(30, 3, 0, 0.5, 2.5, seed=60), "softmax", 3
    X, y, _, _ = bg.stack(bundle.train)
    if case.startswith("lora"):
        # Three layers with adapters: the middle layer's input depends on the
        # parameters, so its vjps form both matmul transposes and linear's
        # input gradient, which the head scope never asks for.
        model = md.attach_lora(trained_model([X.shape[1], 6, 5, outputs], head, X, y, 65),
                               [0, 1], 2, 66)
        rng = np.random.default_rng(67)
        for adapter in model.adapters.values():
            adapter.B.data = rng.normal(size=adapter.B.shape) * 0.3
    else:
        model = trained_model([X.shape[1], 6, outputs], head, X, y, 62)
    return ul.loss_closure(model, bundle.train, scope=case.split("-")[1])

@pytest.mark.parametrize("case", ["softmax-head", "sigmoid-head", "softmax-all", "lora-all"])
def test_hvp_operator_is_bitwise_a_fresh_product(case):
    theta0, fn = closure_case(case)
    hvp = ad.hvp_operator(fn, ad.tensor(theta0))
    rng = np.random.default_rng(63)
    for _ in range(3):
        v = rng.normal(size=theta0.shape)
        expected = fresh_hvp(fn, theta0, v)
        assert hvp(v).data.tobytes() == expected
        assert ad.hessian_vector_product(fn, ad.tensor(theta0), v).data.tobytes() == expected

def test_transpose_copies_follow_a_rebound_operand():
    rng = np.random.default_rng(68)
    A, B, H, W, b = (ad.tensor(rng.normal(size=s))
                     for s in [(3, 4), (4, 2), (5, 4), (3, 4), (3,)])
    C, D = ad.tensor(rng.normal(size=(3, 2))), ad.tensor(rng.normal(size=(5, 3)))
    leaves = [A, B, H, W, b]

    def build():
        # Linear in every leaf, so the gradients read the leaves' current
        # data, not the forward values taken before the rebind.
        return ad.add(ad.sum_all(ad.mul(ad.matmul(A, B), C)),
                      ad.sum_all(ad.mul(ad.linear(H, W, b), D)))

    loss = build()
    first = [g.data.tobytes() for g in ad.grad(loss, leaves)]
    for t in (A, B, H):
        t.data = rng.normal(size=t.shape)
    again = [g.data.tobytes() for g in ad.grad(loss, leaves)]
    assert again == [g.data.tobytes() for g in ad.grad(build(), leaves)]
    assert again != first

def test_hvp_operator_products_do_not_leak_state():
    theta0, fn = closure_case("softmax-all")
    hvp = ad.hvp_operator(fn, ad.tensor(theta0))
    rng = np.random.default_rng(64)
    u, v = rng.normal(size=theta0.shape), rng.normal(size=theta0.shape)
    first = hvp(u).data.tobytes()
    hvp(v)
    assert hvp(u).data.tobytes() == first

def test_hvp_operator_shape_checks():
    hvp = ad.hvp_operator(quadratic_loss(np.eye(3)), ad.tensor(np.ones(3)))
    with pytest.raises(ad.ShapeError):
        hvp(np.ones(4))
    with pytest.raises(ad.NonFiniteError):
        hvp(np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ad.ShapeError):
        ad.hvp_operator(lambda t: ad.mul(t, t), ad.tensor(np.ones(3)))


# ---------------------------------------------------------------------------
# Freeing graphs. A vjp that held its own node would make a reference cycle,
# and with the cycle collector off its arrays would outlive a dropped graph.
# ---------------------------------------------------------------------------

SELF_REFERENT_OPS = {
    "sigmoid": ad.sigmoid,
    "exp": ad.exp,
    "log_softmax": ad.log_softmax,
    "softmax_xent": lambda z: ad.softmax_xent(z, np.full(z.shape, 1.0 / z.shape[1])),
}

@pytest.mark.parametrize("op", SELF_REFERENT_OPS.values(), ids=SELF_REFERENT_OPS.keys())
def test_dropped_graph_is_freed_without_the_cycle_collector(op):
    x = ad.tensor(np.random.default_rng(70).normal(size=(4, 3)))
    gc.disable()
    try:
        out = op(x)
        (g,) = ad.grad(ad.sum_all(out), [x], create_graph=True)
        (h,) = ad.grad(ad.sum_all(g), [x], create_graph=True)
        ad.grad(ad.sum_all(h), [x])
        freed = weakref.ref(out.data)
        del out, g, h
        assert freed() is None
    finally:
        gc.enable()

def test_dropped_hvp_operator_is_freed_without_the_cycle_collector():
    rng = np.random.default_rng(71)
    P = np.full((4, 3), 1.0 / 3)
    outputs = []

    def loss_fn(t):
        z = ad.reshape(t, (4, 3))
        xent, s = ad.softmax_xent(z, P), ad.sigmoid(z)
        outputs.extend((xent, s))
        return ad.add(xent, ad.mean_all(s))

    gc.disable()
    try:
        hvp = ad.hvp_operator(loss_fn, ad.tensor(rng.normal(size=12)))
        hvp(rng.normal(size=12))
        freed = [weakref.ref(t.data) for t in outputs]
        del hvp, outputs[:]
        assert [ref() is None for ref in freed] == [True, True]
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Conjugate gradients.
# ---------------------------------------------------------------------------

def test_cg_identity_converges_immediately():
    rhs = np.array([1.0, -2.0, 3.0])
    res = ad.cg_solve(lambda p: p, rhs, damping=0.0, max_iter=5, tol=1e-12)
    assert res.converged and res.iterations <= 2
    np.testing.assert_allclose(res.x, rhs, atol=1e-12)

def test_cg_matches_dense_solve_with_damping():
    rng = np.random.default_rng(21)
    for trial in range(5):
        d = 12
        M = rng.normal(size=(d, d))
        H = M @ M.T
        rhs = rng.normal(size=d)
        damping = 1e-2
        res = ad.cg_solve(lambda p: H @ p, rhs, damping=damping, max_iter=500, tol=1e-12)
        x_dense = np.linalg.solve(H + damping * np.eye(d), rhs)
        assert res.converged
        assert np.linalg.norm(res.x - x_dense) / np.linalg.norm(x_dense) < 1e-6

def test_cg_residual_history_non_increasing_on_spd():
    rng = np.random.default_rng(33)
    d = 10
    M = rng.normal(size=(d, d))
    H = M @ M.T + 2.0 * np.eye(d)
    res = ad.cg_solve(lambda p: H @ p, rng.normal(size=d), damping=1e-2, max_iter=200)
    diffs = np.diff(res.residual_norms)
    assert np.all(diffs <= 1e-10)

def test_cg_reports_nonconvergence():
    rng = np.random.default_rng(8)
    d = 30
    M = rng.normal(size=(d, d))
    H = M @ M.T + 1e-6 * np.eye(d)
    res = ad.cg_solve(lambda p: H @ p, rng.normal(size=d), damping=0.0, max_iter=2)
    assert not res.converged and res.iterations == 2

def test_cg_rejects_indefinite_operator():
    with pytest.raises(ad.IndefiniteError) as e:
        ad.cg_solve(lambda p: -p, np.ones(3), damping=0.0)
    assert "iteration" in str(e.value)
    assert not isinstance(e.value, ad.NonFiniteError)

def test_cg_nonfinite_curvature_is_nonfinite_error():
    with pytest.raises(ad.NonFiniteError, match="non-finite curvature"):
        ad.cg_solve(lambda p: np.full_like(p, np.inf), np.ones(3))

def test_cg_rejects_negative_damping():
    with pytest.raises(ValueError):
        ad.cg_solve(lambda p: p, np.ones(2), damping=-1.0)


@pytest.mark.parametrize("setting, value", [
    ("tol", -1.0), ("tol", float("nan")), ("tol", float("inf")),
    ("max_iter", -3), ("damping", float("nan")), ("damping", float("inf")),
])
def test_cg_rejects_settings_it_cannot_honour(setting, value):
    # Unchecked, tol -1 or NaN ran past an exact solve into IndefiniteError,
    # tol inf and max_iter -3 returned x = 0 (inf calling it converged), and
    # damping NaN raised NonFiniteError.
    with pytest.raises(ValueError, match=f"cg_solve: {setting} must be"):
        ad.cg_solve(lambda p: 2.0 * p, np.ones(3), **{setting: value})


def test_cg_accepts_zero_tol_and_zero_iterations():
    exact = ad.cg_solve(lambda p: 2.0 * p, np.ones(3), damping=0.0, tol=0.0)
    assert exact.converged and exact.iterations == 1 and exact.residual_norm == 0.0
    assert exact.x.tolist() == [0.5, 0.5, 0.5]
    none = ad.cg_solve(lambda p: 2.0 * p, np.ones(3), max_iter=0)
    assert not none.converged and none.iterations == 0 and not none.x.any()
