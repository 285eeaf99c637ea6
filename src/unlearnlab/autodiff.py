"""Reverse-mode automatic differentiation over dense float64 arrays.

Builds a define-by-run tape of primitive operations. Each primitive records its
parents and two vector-Jacobian products that apply the same numpy operations
in the same order, so both give bitwise-identical gradients:

- a taped vjp, built from the primitives themselves. ``grad(...,
  create_graph=True)`` uses it, so the backward pass extends the tape and the
  gradients are differentiable again. That is what makes exact Hessian-vector
  products possible: differentiate the inner product of a first gradient with
  a constant vector (Pearlmutter 1994, "Fast exact multiplication by the
  Hessian").
- an array vjp on plain ndarrays. The default first-order ``grad`` uses it and
  builds no nodes at all.

Scalars are 0-d arrays. Shapes are strict; there is no general broadcasting,
only the explicit row/column broadcast primitives the models need. Any
non-finite value produced by a forward operation is a hard error. A first-order
backward pass checks finiteness once, on each gradient it returns, so a NaN or
infinity that reaches only the gradient of a constant input goes unreported.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class NonFiniteError(FloatingPointError):
    """A NaN or infinity appeared in an operation's result."""


def _finite_or_raise(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op}: result contains non-finite values")


class Tensor:
    """A node in the computation graph: a value plus provenance.

    ``vjp`` maps the gradient flowing into this node to gradients for each
    parent, building new graph nodes as it goes; ``array_vjp`` does the same
    arithmetic on plain arrays. Leaves have no parents; their ``grad`` field
    is populated by :func:`backward`.
    """

    __slots__ = ("data", "parents", "op", "vjp", "array_vjp", "grad", "__weakref__")

    def __init__(self, data, parents=(), op="leaf", vjp=None, array_vjp=None):
        arr = np.asarray(data, dtype=np.float64)
        _finite_or_raise(arr, op)
        self.data = arr
        self.parents: tuple[Tensor, ...] = tuple(parents)
        self.op = op
        self.vjp: Callable | None = vjp
        self.array_vjp: Callable | None = array_vjp
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(op={self.op!r}, shape={self.shape})"


def tensor(data) -> Tensor:
    """Wrap an array or scalar as a leaf node."""
    return Tensor(data)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")


def _require_ndim(a: Tensor, ndim: int, op: str) -> None:
    if a.data.ndim != ndim:
        raise ShapeError(f"{op}: expected {ndim}-d operand, got shape {a.shape}")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# ---------------------------------------------------------------------------
# Primitives. Each returns a new node whose taped vjp is built from
# primitives, so second derivatives come out of the same machinery, and whose
# array vjp repeats that arithmetic on ndarrays.
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    _require_same_shape(a, b, "add")
    return Tensor(a.data + b.data, (a, b), "add", lambda g: (g, g), lambda g: (g, g))


def sub(a, b) -> Tensor:
    """Elementwise difference of two same-shape tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    _require_same_shape(a, b, "sub")
    return Tensor(
        a.data - b.data, (a, b), "sub",
        lambda g: (g, scale(g, -1.0)),
        lambda g: (g, g * -1.0),
    )


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product of two same-shape tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    _require_same_shape(a, b, "mul")
    return Tensor(
        a.data * b.data, (a, b), "mul",
        lambda g: (mul(g, b), mul(g, a)),
        lambda g: (g * b.data, g * a.data),
    )


def scale(a, c: float) -> Tensor:
    """Multiply a tensor by a python scalar constant."""
    a = _as_tensor(a)
    c = float(c)
    return Tensor(
        a.data * c, (a,), "scale", lambda g: (scale(g, c),), lambda g: (g * c,)
    )


def addc(a, c: float) -> Tensor:
    """Add a python scalar constant elementwise."""
    a = _as_tensor(a)
    return Tensor(a.data + float(c), (a,), "addc", lambda g: (g,), lambda g: (g,))


def neg(a) -> Tensor:
    return scale(a, -1.0)


def matmul(a, b) -> Tensor:
    """Strict 2-d matrix product."""
    a, b = _as_tensor(a), _as_tensor(b)
    _require_ndim(a, 2, "matmul")
    _require_ndim(b, 2, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not chain")
    return Tensor(
        a.data @ b.data,
        (a, b),
        "matmul",
        lambda g: (matmul(g, transpose(b)), matmul(transpose(a), g)),
        lambda g: (g @ b.data.T.copy(), a.data.T.copy() @ g),
    )


def linear(h, W, b) -> Tensor:
    """Dense layer h W^T + b for a (n, d_in) input, (d_out, d_in) weight and
    length-d_out bias: one node in place of a matmul/transpose/rowbcast/add
    chain, with the same arithmetic."""
    h, W, b = _as_tensor(h), _as_tensor(W), _as_tensor(b)
    _require_ndim(h, 2, "linear")
    _require_ndim(W, 2, "linear")
    _require_ndim(b, 1, "linear")
    if h.shape[1] != W.shape[1] or b.shape[0] != W.shape[0]:
        raise ShapeError(
            f"linear: input {h.shape}, weight {W.shape} and bias {b.shape} do not chain"
        )
    return Tensor(
        h.data @ W.data.T.copy() + b.data,
        (h, W, b),
        "linear",
        lambda g: (matmul(g, W), transpose(matmul(transpose(h), g)), colsum(g)),
        lambda g: (g @ W.data, (h.data.T.copy() @ g).T.copy(), g.sum(axis=0)),
    )


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    _require_ndim(a, 2, "transpose")
    return Tensor(
        a.data.T.copy(), (a,), "transpose",
        lambda g: (transpose(g),),
        lambda g: (g.T.copy(),),
    )


def relu(a) -> Tensor:
    """max(x, 0); subgradient 0 at the kink."""
    a = _as_tensor(a)
    return Tensor(
        np.maximum(a.data, 0.0), (a,), "relu",
        lambda g: (mul(g, Tensor((a.data > 0.0).astype(np.float64))),),
        lambda g: (g * (a.data > 0.0).astype(np.float64),),
    )


# sigmoid, exp and log_softmax differentiate through their own output. Their
# vjps reach that node through a weak reference: holding the node itself would
# make a reference cycle, and every graph would then wait for the cycle
# collector instead of being freed as soon as it is dropped.

def sigmoid(a) -> Tensor:
    """Logistic function, computed via tanh for stability at large |x|."""
    a = _as_tensor(a)
    out = Tensor(_sigmoid(a.data), (a,), "sigmoid")
    node, s = weakref.ref(out), out.data
    out.vjp = lambda g: (mul(g, mul(node(), addc(neg(node()), 1.0))),)
    out.array_vjp = lambda g: (g * (s * (s * -1.0 + 1.0)),)
    return out


def softplus(a) -> Tensor:
    """log(1 + exp(x)) without overflow; derivative is the logistic function."""
    a = _as_tensor(a)
    return Tensor(
        np.logaddexp(0.0, a.data), (a,), "softplus",
        lambda g: (mul(g, sigmoid(a)),),
        lambda g: (g * _sigmoid(a.data),),
    )


def exp(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(over="ignore"):
        out = Tensor(np.exp(a.data), (a,), "exp")
    node, e = weakref.ref(out), out.data
    out.vjp = lambda g: (mul(g, node()),)
    out.array_vjp = lambda g: (g * e,)
    return out


def log_softmax(a) -> Tensor:
    """Row-wise log of softmax probabilities for a (n, k) logit matrix."""
    a = _as_tensor(a)
    _require_ndim(a, 2, "log_softmax")
    shifted = a.data - a.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    out = Tensor(shifted - lse, (a,), "log_softmax")
    k = a.shape[1]
    node, logp = weakref.ref(out), out.data
    out.vjp = lambda g: (sub(g, mul(exp(node()), colbcast(rowsum(g), k))),)
    out.array_vjp = lambda g: (g - np.exp(logp) * g.sum(axis=1, keepdims=True),)
    return out


def sum_all(a) -> Tensor:
    """Sum of all elements, as a 0-d tensor."""
    a = _as_tensor(a)
    shp = a.shape
    return Tensor(
        a.data.sum(), (a,), "sum",
        lambda g: (bcast_to(g, shp),),
        lambda g: (np.full(shp, g, dtype=np.float64),),
    )


def mean_all(a) -> Tensor:
    """Mean of all elements, as a 0-d tensor."""
    a = _as_tensor(a)
    if a.data.size == 0:
        raise ShapeError("mean: empty operand")
    return scale(sum_all(a), 1.0 / a.data.size)


def sq_norm(a) -> Tensor:
    """Sum of squared elements, as a 0-d tensor."""
    a = _as_tensor(a)
    return sum_all(mul(a, a))


def rowsum(a) -> Tensor:
    """Sum a (n, k) matrix over columns, yielding length-n vector."""
    a = _as_tensor(a)
    _require_ndim(a, 2, "rowsum")
    k = a.shape[1]
    return Tensor(
        a.data.sum(axis=1), (a,), "rowsum",
        lambda g: (colbcast(g, k),),
        lambda g: (np.repeat(g[:, None], k, axis=1),),
    )


def colsum(a) -> Tensor:
    """Sum a (n, k) matrix over rows, yielding length-k vector."""
    a = _as_tensor(a)
    _require_ndim(a, 2, "colsum")
    n = a.shape[0]
    return Tensor(
        a.data.sum(axis=0), (a,), "colsum",
        lambda g: (rowbcast(g, n),),
        lambda g: (np.tile(g, (n, 1)),),
    )


def rowbcast(v, n: int) -> Tensor:
    """Tile a length-k vector into n identical rows."""
    v = _as_tensor(v)
    _require_ndim(v, 1, "rowbcast")
    return Tensor(
        np.tile(v.data, (n, 1)), (v,), "rowbcast",
        lambda g: (colsum(g),),
        lambda g: (g.sum(axis=0),),
    )


def colbcast(v, k: int) -> Tensor:
    """Tile a length-n vector into k identical columns."""
    v = _as_tensor(v)
    _require_ndim(v, 1, "colbcast")
    return Tensor(
        np.repeat(v.data[:, None], k, axis=1), (v,), "colbcast",
        lambda g: (rowsum(g),),
        lambda g: (g.sum(axis=1),),
    )


def bcast_to(s, shape: tuple[int, ...]) -> Tensor:
    """Broadcast a 0-d tensor to a full array of the given shape."""
    s = _as_tensor(s)
    if s.data.ndim != 0:
        raise ShapeError(f"bcast_to: expected scalar, got shape {s.shape}")
    return Tensor(
        np.full(shape, s.data, dtype=np.float64), (s,), "bcast_to",
        lambda g: (sum_all(g),),
        lambda g: (g.sum(),),
    )


def narrow(v, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) of a 1-d tensor."""
    v = _as_tensor(v)
    _require_ndim(v, 1, "narrow")
    total = v.shape[0]
    if start < 0 or length < 0 or start + length > total:
        raise ShapeError(f"narrow: [{start}, {start + length}) outside length {total}")
    return Tensor(
        v.data[start : start + length].copy(), (v,), "narrow",
        lambda g: (embed(g, start, total),),
        lambda g: (_embed(g, start, total),),
    )


def _embed(v: np.ndarray, start: int, total: int) -> np.ndarray:
    out = np.zeros(total, dtype=np.float64)
    out[start : start + v.shape[0]] = v
    return out


def embed(v, start: int, total: int) -> Tensor:
    """Place a 1-d tensor into a zero vector of length ``total`` at ``start``."""
    v = _as_tensor(v)
    _require_ndim(v, 1, "embed")
    length = v.shape[0]
    if start < 0 or start + length > total:
        raise ShapeError(f"embed: [{start}, {start + length}) outside length {total}")
    return Tensor(
        _embed(v.data, start, total), (v,), "embed",
        lambda g: (narrow(g, start, length),),
        lambda g: (g[start : start + length].copy(),),
    )


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {shape}")
    old = a.shape
    return Tensor(
        a.data.reshape(shape).copy(), (a,), "reshape",
        lambda g: (reshape(g, old),),
        lambda g: (g.reshape(old).copy(),),
    )


# ---------------------------------------------------------------------------
# Graph traversal and differentiation.
# ---------------------------------------------------------------------------

@dataclass
class Graph:
    """Topologically ordered view of the nodes reachable from an output."""

    nodes: list[Tensor]


def trace(output: Tensor) -> Graph:
    """Collect the graph under ``output`` in topological (parents-first) order."""
    order: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node in seen:
            continue
        seen.add(node)
        stack.append((node, True))
        for p in node.parents:
            if p not in seen:
                stack.append((p, False))
    return Graph(order)


def grad(
    output: Tensor, wrt: Sequence[Tensor], create_graph: bool = False
) -> list[Tensor]:
    """Gradients of a scalar output with respect to each tensor in ``wrt``.

    By default the backward pass runs the array vjps and returns leaf tensors;
    each is checked for finiteness once. With ``create_graph`` it runs the
    taped vjps instead and returns graph nodes that can be differentiated
    again. Both modes give bitwise-identical values. Tensors in ``wrt`` that
    the output does not depend on get zero gradients. Forward value buffers
    are never touched.
    """
    if output.data.ndim != 0:
        raise ShapeError(f"grad: output must be scalar, got shape {output.shape}")
    graph = trace(output)
    wrt_set = set(wrt)

    # A node needs processing only if some wrt tensor lies in its ancestry.
    needed: set[Tensor] = set()
    for node in graph.nodes:
        if node in wrt_set or any(p in needed for p in node.parents):
            needed.add(node)

    if create_graph:
        adjoint: dict[Tensor, Tensor | np.ndarray] = {output: Tensor(np.ones(()))}
    else:
        adjoint = {output: np.ones(())}
    for node in reversed(graph.nodes):
        g = adjoint.get(node)
        if g is None or not node.parents or node not in needed:
            continue
        parent_grads = node.vjp(g) if create_graph else node.array_vjp(g)
        for parent, pg in zip(node.parents, parent_grads):
            if parent not in needed:
                continue
            held = adjoint.get(parent)
            if held is None:
                adjoint[parent] = pg
            else:
                adjoint[parent] = add(held, pg) if create_graph else held + pg

    out: list[Tensor] = []
    for t in wrt:
        got = adjoint.get(t)
        if got is None:
            out.append(Tensor(np.zeros(t.shape)))
        else:
            out.append(got if create_graph else Tensor(got, op="grad"))
    return out


def backward(output: Tensor) -> None:
    """Populate ``grad`` on every leaf reachable from a scalar output."""
    graph = trace(output)
    leaves = [n for n in graph.nodes if not n.parents]
    for leaf, g in zip(leaves, grad(output, leaves)):
        leaf.grad = g.data


def hessian_vector_product(
    loss_fn: Callable[[Tensor], Tensor], params: Tensor, v: np.ndarray | Tensor
) -> Tensor:
    """Exact H v for the Hessian of ``loss_fn`` at ``params``.

    ``loss_fn`` must build a fresh scalar graph from the given parameter
    tensor. The product is the gradient of <grad(loss), v> with v held
    constant, so it is exact up to floating point, not a finite difference:
    a taped first gradient, then a first-order pass through it.
    """
    v_arr = v.data if isinstance(v, Tensor) else np.asarray(v, dtype=np.float64)
    if v_arr.shape != params.shape:
        raise ShapeError(
            f"hessian_vector_product: v shape {v_arr.shape} vs params {params.shape}"
        )
    loss = loss_fn(params)
    if loss.data.ndim != 0:
        raise ShapeError("hessian_vector_product: loss_fn must return a scalar")
    (g,) = grad(loss, [params], create_graph=True)
    inner = sum_all(mul(g, Tensor(v_arr)))
    (hv,) = grad(inner, [params])
    return hv


@dataclass
class CGResult:
    """Outcome of a damped conjugate-gradient solve."""

    x: np.ndarray
    converged: bool
    iterations: int
    residual_norm: float
    residual_norms: list[float] = field(default_factory=list)


def cg_solve(
    apply_h: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    damping: float = 1e-2,
    max_iter: int = 200,
    tol: float = 1e-8,
) -> CGResult:
    """Solve (H + damping*I) x = rhs by conjugate gradients.

    ``apply_h`` computes H v for a 1-d vector; H must be symmetric positive
    semidefinite for the damped system to be SPD. Stops when the residual norm
    falls to tol * ||rhs|| or after max_iter iterations, and reports which.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim != 1:
        raise ShapeError(f"cg_solve: rhs must be 1-d, got shape {rhs.shape}")
    if damping < 0:
        raise ValueError("cg_solve: damping must be non-negative")

    def matvec(p: np.ndarray) -> np.ndarray:
        hp = np.asarray(apply_h(p), dtype=np.float64)
        if hp.shape != p.shape:
            raise ShapeError(f"cg_solve: operator returned shape {hp.shape}")
        return hp + damping * p

    x = np.zeros_like(rhs)
    r = rhs.copy()
    p = r.copy()
    rs = float(r @ r)
    target = tol * float(np.linalg.norm(rhs))
    history = [float(np.sqrt(rs))]
    if history[0] <= target:
        return CGResult(x, True, 0, history[0], history)

    iterations = 0
    for i in range(1, max_iter + 1):
        hp = matvec(p)
        denom = float(p @ hp)
        if not np.isfinite(denom) or denom <= 0.0:
            raise NonFiniteError(
                f"cg_solve: curvature {denom} at iteration {i}; operator not SPD?"
            )
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * hp
        if not np.all(np.isfinite(r)):
            raise NonFiniteError(f"cg_solve: non-finite residual at iteration {i}")
        rs_new = float(r @ r)
        history.append(float(np.sqrt(rs_new)))
        iterations = i
        if history[-1] <= target:
            return CGResult(x, True, iterations, history[-1], history)
        p = r + (rs_new / rs) * p
        rs = rs_new

    return CGResult(x, False, iterations, history[-1], history)
