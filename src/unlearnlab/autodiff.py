"""Reverse-mode automatic differentiation over dense float64 arrays.

Builds a define-by-run tape of primitive operations. Each primitive records its
parents and two vector-Jacobian products that apply the same numpy operations
in the same order, so both give bitwise-identical gradients. Both are called
as ``vjp(g, need)``: ``g`` is the gradient flowing into the node and ``need``
holds one flag per parent, true when some tensor in ``grad``'s ``wrt`` lies in
that parent's ancestry. A vjp returns one entry per parent and may return
None where the flag is false; the multi-parent primitives (``mul``,
``matmul``, ``linear``, and ``sub`` for its second operand) do, so the
gradient of a constant operand, such as a model's inputs, is never formed:

- a taped vjp, built from the primitives themselves. ``grad(...,
  create_graph=True)`` uses it, so the backward pass extends the tape and the
  gradients are differentiable again. That is what makes exact Hessian-vector
  products possible: differentiate the inner product of a first gradient with
  a constant vector (Pearlmutter 1994, "Fast exact multiplication by the
  Hessian").
- an array vjp on plain ndarrays. The default first-order ``grad`` uses it and
  builds no nodes at all.

``grad`` runs in two steps: ``_plan`` traces the graph and computes the need
masks, and ``_backprop``, the one backward loop, runs the vjps in that order.
Neither the forward pass, nor the taped first gradient, nor its backward plan
depends on the vector, so ``hvp_operator`` builds all three once per operator,
and each product it applies is a single first-order pass down the fixed plan.
A CG solve builds one operator and applies it once per iteration. The array
vjps of ``matmul`` and ``linear`` keep the transposed copy of an operand they
make and reuse it while that operand's ``.data`` is the same array object, so
the constant operands of a CG solve are transposed once, not per iteration;
the reuse keys on array identity, so code that rebinds ``.data`` (as the
optimisers do) gets a fresh copy, and nothing may write into a graph's
arrays in place.

Two fused primitives replace common chains with one node each and the same
arithmetic: ``linear`` (a dense layer) and ``softmax_xent`` (cross-entropy of
logits against a constant target distribution). Their taped vjps build the
chain's backward from primitives, so second derivatives are unchanged too.

Row reductions over narrow logit matrices (the max and sums of
``log_softmax`` and its vjps, ``rowsum``, ``colbcast``'s vjp) go through
``_row_reduce``. numpy reduces a C-contiguous (n, k) array along axis 1 one
row at a time, one inner-loop call per row; for k < 8 it adds each row's
entries left to right from 0.0, and a max does not round. So from 256 rows
on, a sweep that adds (or takes the maximum of) the k columns into one
length-n vector in that order is bit-identical and several times faster.
Wider, shorter or non-contiguous arrays keep numpy's own reduction.

Scalars are 0-d arrays. Shapes are strict; there is no general broadcasting,
only the explicit row/column broadcast primitives the models need. Any
non-finite value produced by a forward operation is a hard error. A first-order
backward pass checks finiteness once, on each gradient it returns, so a NaN or
infinity that reaches only the gradient of a constant input goes unreported.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes incompatible with the requested operation."""


class NonFiniteError(FloatingPointError):
    """A NaN or infinity appeared in an operation's result."""


class IndefiniteError(ArithmeticError):
    """A CG operator showed non-positive curvature: the damped system is not
    positive definite, although every value is finite."""


def _finite_or_raise(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{op}: result contains non-finite values")


class Tensor:
    """A node in the computation graph: a value plus provenance.

    ``vjp(g, need)`` maps the gradient flowing into this node to gradients
    for the parents that ``need`` flags, building new graph nodes as it goes;
    ``array_vjp`` does the same arithmetic on plain arrays. Leaves have no
    parents.
    """

    __slots__ = ("data", "parents", "op", "vjp", "array_vjp")

    def __init__(self, data, parents=(), op="leaf", vjp=None, array_vjp=None):
        arr = np.asarray(data, dtype=np.float64)
        _finite_or_raise(arr, op)
        self.data = arr
        self.parents: tuple[Tensor, ...] = tuple(parents)
        self.op = op
        self.vjp: Callable | None = vjp
        self.array_vjp: Callable | None = array_vjp

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
# array vjp repeats that arithmetic on ndarrays. A single-parent node is only
# differentiated when its parent is needed, so its vjps ignore ``need``.
# A taped vjp closes over its operands only, never over its own node: sigmoid,
# exp and log_softmax, whose derivatives reuse their output, rebuild that
# output from the operand. A graph thus holds no reference cycle and is freed
# as soon as it is dropped.
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    _require_same_shape(a, b, "add")
    return Tensor(
        a.data + b.data, (a, b), "add", lambda g, need: (g, g), lambda g, need: (g, g)
    )


def sub(a, b) -> Tensor:
    """Elementwise difference of two same-shape tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    _require_same_shape(a, b, "sub")
    return Tensor(
        a.data - b.data, (a, b), "sub",
        lambda g, need: (g, scale(g, -1.0) if need[1] else None),
        lambda g, need: (g, g * -1.0 if need[1] else None),
    )


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product of two same-shape tensors."""
    a, b = _as_tensor(a), _as_tensor(b)
    _require_same_shape(a, b, "mul")
    return Tensor(
        a.data * b.data, (a, b), "mul",
        lambda g, need: (mul(g, b) if need[0] else None, mul(g, a) if need[1] else None),
        lambda g, need: (g * b.data if need[0] else None, g * a.data if need[1] else None),
    )


def scale(a, c: float) -> Tensor:
    """Multiply a tensor by a python scalar constant."""
    a = _as_tensor(a)
    c = float(c)
    return Tensor(
        a.data * c, (a,), "scale", lambda g, need: (scale(g, c),), lambda g, need: (g * c,)
    )


def addc(a, c: float) -> Tensor:
    """Add a python scalar constant elementwise."""
    a = _as_tensor(a)
    return Tensor(a.data + float(c), (a,), "addc", lambda g, need: (g,), lambda g, need: (g,))


def neg(a) -> Tensor:
    return scale(a, -1.0)


class _Transposed:
    """``t.data.T.copy()`` for an array vjp: copied on first use and reused
    while ``t.data`` is still the same array object, so repeated backward
    passes over one graph, such as a CG solve's Hessian-vector products,
    transpose a constant operand once. Rebinding ``t.data`` makes a fresh
    copy; a write into the array in place would not be seen, and nothing in
    the package makes one."""

    __slots__ = ("t", "src", "copy")

    def __init__(self, t: Tensor):
        self.t, self.src, self.copy = t, None, None

    def __call__(self) -> np.ndarray:
        data = self.t.data
        if data is not self.src:
            self.src, self.copy = data, data.T.copy()
        return self.copy


def matmul(a, b) -> Tensor:
    """Strict 2-d matrix product."""
    a, b = _as_tensor(a), _as_tensor(b)
    _require_ndim(a, 2, "matmul")
    _require_ndim(b, 2, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not chain")
    aT, bT = _Transposed(a), _Transposed(b)
    return Tensor(
        a.data @ b.data,
        (a, b),
        "matmul",
        lambda g, need: (matmul(g, transpose(b)) if need[0] else None,
                         matmul(transpose(a), g) if need[1] else None),
        lambda g, need: (g @ bT() if need[0] else None,
                         aT() @ g if need[1] else None),
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
    hT = _Transposed(h)
    return Tensor(
        h.data @ W.data.T.copy() + b.data,
        (h, W, b),
        "linear",
        lambda g, need: (matmul(g, W) if need[0] else None,
                         transpose(matmul(transpose(h), g)) if need[1] else None,
                         colsum(g) if need[2] else None),
        lambda g, need: (g @ W.data if need[0] else None,
                         (hT() @ g).T.copy() if need[1] else None,
                         g.sum(axis=0) if need[2] else None),
    )


def transpose(a) -> Tensor:
    a = _as_tensor(a)
    _require_ndim(a, 2, "transpose")
    return Tensor(
        a.data.T.copy(), (a,), "transpose",
        lambda g, need: (transpose(g),),
        lambda g, need: (g.T.copy(),),
    )


def relu(a) -> Tensor:
    """max(x, 0); subgradient 0 at the kink."""
    a = _as_tensor(a)
    return Tensor(
        np.maximum(a.data, 0.0), (a,), "relu",
        lambda g, need: (mul(g, Tensor((a.data > 0.0).astype(np.float64))),),
        lambda g, need: (g * (a.data > 0.0).astype(np.float64),),
    )


def sigmoid(a) -> Tensor:
    """Logistic function, computed via tanh for stability at large |x|."""
    a = _as_tensor(a)
    s = _sigmoid(a.data)

    def vjp(g, need):
        t = sigmoid(a)
        return (mul(g, mul(t, addc(neg(t), 1.0))),)

    return Tensor(s, (a,), "sigmoid", vjp, lambda g, need: (g * (s * (s * -1.0 + 1.0)),))


def softplus(a) -> Tensor:
    """log(1 + exp(x)) without overflow; derivative is the logistic function."""
    a = _as_tensor(a)
    return Tensor(
        np.logaddexp(0.0, a.data), (a,), "softplus",
        lambda g, need: (mul(g, sigmoid(a)),),
        lambda g, need: (g * _sigmoid(a.data),),
    )


def exp(a) -> Tensor:
    a = _as_tensor(a)
    with np.errstate(over="ignore"):
        e = np.exp(a.data)
    return Tensor(e, (a,), "exp", lambda g, need: (mul(g, exp(a)),), lambda g, need: (g * e,))


# See the module docstring. numpy's pairwise summation starts at 8 entries,
# and under 256 rows its per-row calls cost less than a sweep's per-column ones.
_SWEEP_MAX_COLS = 8
_SWEEP_MIN_ROWS = 256


def _row_reduce(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(x, axis=1)`` of a 2-d array, bit for bit, for
    ``np.add`` or ``np.maximum``."""
    n, k = x.shape
    if not (0 < k < _SWEEP_MAX_COLS and n >= _SWEEP_MIN_ROWS and x.flags.c_contiguous):
        return ufunc.reduce(x, axis=1)
    if ufunc is np.add:
        out, start = np.zeros(n), 0
    else:
        out, start = x[:, 0].copy(), 1
    for j in range(start, k):
        ufunc(out, x[:, j], out=out)
    return out


def _log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - _row_reduce(np.maximum, x)[:, None]
    return shifted - np.log(_row_reduce(np.add, np.exp(shifted))[:, None])


def _log_softmax_vjp(logp: np.ndarray, g: np.ndarray) -> np.ndarray:
    return g - np.exp(logp) * _row_reduce(np.add, g)[:, None]


def _log_softmax_taped_vjp(a: Tensor, g: Tensor) -> Tensor:
    return sub(g, mul(exp(log_softmax(a)), colbcast(rowsum(g), a.shape[1])))


def log_softmax(a) -> Tensor:
    """Row-wise log of softmax probabilities for a (n, k) logit matrix."""
    a = _as_tensor(a)
    _require_ndim(a, 2, "log_softmax")
    logp = _log_softmax(a.data)
    return Tensor(
        logp, (a,), "log_softmax",
        lambda g, need: (_log_softmax_taped_vjp(a, g),),
        lambda g, need: (_log_softmax_vjp(logp, g),),
    )


def softmax_xent(z, P) -> Tensor:
    """Cross-entropy -sum(P * log_softmax(z)) / n of a (n, k) logit matrix
    against a constant (n, k) target distribution P: one node in place of a
    log_softmax/mul/sum_all/scale chain, with the same arithmetic.

    The taped vjp builds that chain's backward from primitives, so
    Hessian-vector products are unchanged. Only the scalar is checked for
    finiteness; a NaN or infinity in any intermediate makes it non-finite.
    """
    z = _as_tensor(z)
    _require_ndim(z, 2, "softmax_xent")
    P = np.asarray(P, dtype=np.float64)
    if P.shape != z.shape:
        raise ShapeError(f"softmax_xent: targets {P.shape} vs logits {z.shape}")
    if z.shape[0] == 0:
        raise ShapeError("softmax_xent: empty batch")
    c, shp = -1.0 / z.shape[0], z.shape
    logp = _log_softmax(z.data)
    return Tensor(
        (P * logp).sum() * c, (z,), "softmax_xent",
        lambda g, need: (_log_softmax_taped_vjp(z, mul(bcast_to(scale(g, c), shp), Tensor(P))),),
        lambda g, need: (_log_softmax_vjp(logp, np.full(shp, g * c, dtype=np.float64) * P),),
    )


def sum_all(a) -> Tensor:
    """Sum of all elements, as a 0-d tensor."""
    a = _as_tensor(a)
    shp = a.shape
    return Tensor(
        a.data.sum(), (a,), "sum",
        lambda g, need: (bcast_to(g, shp),),
        lambda g, need: (np.full(shp, g, dtype=np.float64),),
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
        _row_reduce(np.add, a.data), (a,), "rowsum",
        lambda g, need: (colbcast(g, k),),
        lambda g, need: (np.repeat(g[:, None], k, axis=1),),
    )


def colsum(a) -> Tensor:
    """Sum a (n, k) matrix over rows, yielding length-k vector."""
    a = _as_tensor(a)
    _require_ndim(a, 2, "colsum")
    n = a.shape[0]
    return Tensor(
        a.data.sum(axis=0), (a,), "colsum",
        lambda g, need: (rowbcast(g, n),),
        lambda g, need: (np.tile(g, (n, 1)),),
    )


def rowbcast(v, n: int) -> Tensor:
    """Tile a length-k vector into n identical rows."""
    v = _as_tensor(v)
    _require_ndim(v, 1, "rowbcast")
    return Tensor(
        np.tile(v.data, (n, 1)), (v,), "rowbcast",
        lambda g, need: (colsum(g),),
        lambda g, need: (g.sum(axis=0),),
    )


def colbcast(v, k: int) -> Tensor:
    """Tile a length-n vector into k identical columns."""
    v = _as_tensor(v)
    _require_ndim(v, 1, "colbcast")
    return Tensor(
        np.repeat(v.data[:, None], k, axis=1), (v,), "colbcast",
        lambda g, need: (rowsum(g),),
        lambda g, need: (_row_reduce(np.add, g),),
    )


def bcast_to(s, shape: tuple[int, ...]) -> Tensor:
    """Broadcast a 0-d tensor to a full array of the given shape."""
    s = _as_tensor(s)
    if s.data.ndim != 0:
        raise ShapeError(f"bcast_to: expected scalar, got shape {s.shape}")
    return Tensor(
        np.full(shape, s.data, dtype=np.float64), (s,), "bcast_to",
        lambda g, need: (sum_all(g),),
        lambda g, need: (g.sum(),),
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
        lambda g, need: (embed(g, start, total),),
        lambda g, need: (_embed(g, start, total),),
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
        lambda g, need: (narrow(g, start, length),),
        lambda g, need: (g[start : start + length].copy(),),
    )


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    if int(np.prod(shape, dtype=np.int64)) != a.data.size:
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {shape}")
    old = a.shape
    return Tensor(
        a.data.reshape(shape).copy(), (a,), "reshape",
        lambda g, need: (reshape(g, old),),
        lambda g, need: (g.reshape(old).copy(),),
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


def _plan(output: Tensor, wrt: Sequence[Tensor]) -> list[tuple[Tensor, tuple[bool, ...]]]:
    """The backward order of the graph under ``output`` towards ``wrt``.

    Returns (node, need) pairs, outputs first, for every node with a parent
    on a path to ``wrt``; ``need`` flags those parents. The plan depends only
    on the graph's structure, so one plan serves every backward pass over the
    same graph.
    """
    wrt_set = set(wrt)
    # A node is needed if it is in wrt or some wrt tensor lies in its
    # ancestry; need[node] marks which of its parents are needed.
    need: dict[Tensor, tuple[bool, ...]] = {}
    for node in trace(output).nodes:
        mask = tuple(p in need for p in node.parents)
        if node in wrt_set or any(mask):
            need[node] = mask
    return [(node, mask) for node, mask in reversed(need.items()) if any(mask)]


def _backprop(
    plan: list[tuple[Tensor, tuple[bool, ...]]],
    adjoint: dict,
    wrt: Sequence[Tensor],
    create_graph: bool,
) -> list[Tensor]:
    """Run a plan from ``adjoint``, which holds the output's seed gradient,
    and return the gradient of each tensor in ``wrt``."""
    for node, mask in plan:
        g = adjoint.get(node)
        if g is None:
            continue
        parent_grads = node.vjp(g, mask) if create_graph else node.array_vjp(g, mask)
        for parent, pg, wanted in zip(node.parents, parent_grads, mask):
            if not wanted:
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


def grad(
    output: Tensor, wrt: Sequence[Tensor], create_graph: bool = False
) -> list[Tensor]:
    """Gradients of a scalar output with respect to each tensor in ``wrt``.

    By default the backward pass runs the array vjps and returns leaf tensors;
    each is checked for finiteness once. With ``create_graph`` it runs the
    taped vjps instead and returns graph nodes that can be differentiated
    again. Both modes give bitwise-identical values. Each node's vjp is asked
    only for the parents on a path to ``wrt``, so nothing is spent on the
    gradients of constants. Tensors in ``wrt`` that the output does not depend
    on get zero gradients. Forward value buffers are never touched.
    """
    if output.data.ndim != 0:
        raise ShapeError(f"grad: output must be scalar, got shape {output.shape}")
    seed = Tensor(np.ones(())) if create_graph else np.ones(())
    return _backprop(_plan(output, wrt), {output: seed}, wrt, create_graph)


def hvp_operator(
    loss_fn: Callable[[Tensor], Tensor], params: Tensor
) -> Callable[[np.ndarray | Tensor], Tensor]:
    """The map v -> H v for the exact Hessian H of ``loss_fn`` at ``params``.

    ``loss_fn`` must build a fresh scalar graph from the given parameter
    tensor. The forward pass, the taped first gradient g and the backward
    plan of g towards ``params`` are built once, here. Each call of the
    returned function builds <g, v> with v held constant, puts its two nodes
    in front of that fixed plan and runs one first-order pass back to
    ``params``, so a CG solve traces and masks the graph once, not per
    product. The nodes of g's graph keep the transposed copies their array
    vjps make (see ``matmul``), so the constant operands are transposed once
    per operator too. The products are exact up to floating point, not
    finite differences, and bitwise equal to building everything afresh for
    each v.
    """
    loss = loss_fn(params)
    if loss.data.ndim != 0:
        raise ShapeError("hvp_operator: loss_fn must return a scalar")
    (g,) = grad(loss, [params], create_graph=True)
    g_plan = _plan(g, [params])

    def apply(v: np.ndarray | Tensor) -> Tensor:
        v_arr = v.data if isinstance(v, Tensor) else np.asarray(v, dtype=np.float64)
        if v_arr.shape != params.shape:
            raise ShapeError(
                f"hvp_operator: v shape {v_arr.shape} vs params {params.shape}"
            )
        product = mul(g, Tensor(v_arr))
        inner = sum_all(product)
        plan = [(inner, (True,)), (product, (True, False)), *g_plan]
        (hv,) = _backprop(plan, {inner: np.ones(())}, [params], create_graph=False)
        return hv

    return apply


def hessian_vector_product(
    loss_fn: Callable[[Tensor], Tensor], params: Tensor, v: np.ndarray | Tensor
) -> Tensor:
    """Exact H v for the Hessian of ``loss_fn`` at ``params``: one forward
    pass, one taped gradient and one first-order pass through it.

    For many products at the same ``params``, build :func:`hvp_operator` once
    and apply it to each vector instead.
    """
    return hvp_operator(loss_fn, params)(v)


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
    Non-positive curvature along a search direction raises IndefiniteError; a
    NaN or infinity raises NonFiniteError.
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
        if not np.isfinite(denom):
            raise NonFiniteError(f"cg_solve: non-finite curvature at iteration {i}")
        if denom <= 0.0:
            raise IndefiniteError(
                f"cg_solve: curvature {denom} at iteration {i}; operator not SPD"
            )
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * hp
        if not np.isfinite(r).all():
            raise NonFiniteError(f"cg_solve: non-finite residual at iteration {i}")
        rs_new = float(r @ r)
        history.append(float(np.sqrt(rs_new)))
        iterations = i
        if history[-1] <= target:
            return CGResult(x, True, iterations, history[-1], history)
        p = r + (rs_new / rs) * p
        rs = rs_new

    return CGResult(x, False, iterations, history[-1], history)
