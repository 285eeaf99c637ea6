"""Engine tests: every differentiation path is checked against an independent
numerical oracle (central differences, an explicit Hessian, or a dense solve)
before any model code relies on it."""

from __future__ import annotations

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

def test_backward_sets_leaf_grads():
    x = ad.tensor(np.array([1.0, -2.0]))
    out = ad.sq_norm(x)
    ad.backward(out)
    np.testing.assert_allclose(x.grad, [2.0, -4.0], atol=1e-14)

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
        lambda: ul._kl_to_teacher(p, md.forward(student, X), head),
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
    with pytest.raises(ad.NonFiniteError) as e:
        ad.cg_solve(lambda p: -p, np.ones(3), damping=0.0)
    assert "iteration" in str(e.value)

def test_cg_rejects_negative_damping():
    with pytest.raises(ValueError):
        ad.cg_solve(lambda p: p, np.ones(2), damping=-1.0)
