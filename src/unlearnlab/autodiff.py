"""Reverse-mode automatic differentiation over dense float64 arrays.

Builds a define-by-run tape of primitive operations. Each primitive has one
record, a ``_Prim``: an array forward, which returns the output and whatever
the backward needs saved, and two vector-Jacobian products that apply the same
numpy operations in the same order, so both give bitwise-identical gradients.
A node holds its record, its parents, the constant its primitive was called
with (a scale factor, a slice, a shape) and the saved value. The vjps are
called as ``vjp(node, g, need)``: ``g`` is the gradient flowing into the node
and ``need`` holds one flag per parent, true when some tensor in ``grad``'s
``wrt`` lies in that parent's ancestry. A vjp returns one entry per parent and
may return None where the flag is false; the multi-parent primitives (``mul``,
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
and each product it applies is a single first-order pass down the fixed plan,
seeded with the vector itself.
A CG solve builds one operator and applies it once per iteration. The array
vjps of ``matmul`` and ``linear`` keep the transposed copy of an operand they
make and reuse it while that operand's ``.data`` is the same array object, so
the constant operands of a CG solve are transposed once, not per iteration;
the reuse keys on array identity, so code that rebinds ``.data`` (as the
optimisers do) gets a fresh copy, and nothing may write into a graph's
arrays in place. A ``StepPlan`` does the same for a minibatch step: it tapes
the step once per batch shape and replays the forwards its outputs depend on,
and its fixed backward, on each new batch (trace once, as in Frostig, Johnson
& Leary 2018, "Compiling machine learning programs via high-level tracing").
Within one forward, a second ``softmax_xent`` on the same logits node
(SCRUB's retain KL and task loss) reuses the first one's ``log_softmax``,
keyed on the logits array object as the transposed copies are.

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

import math
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
    # math.isfinite reads a 0-d array as a float, in a tenth of the time.
    if not (math.isfinite(arr) if arr.ndim == 0 else np.isfinite(arr).all()):
        raise NonFiniteError(f"{op}: result contains non-finite values")


class Tensor:
    """A node in the computation graph: a value plus provenance. A leaf has
    no parents and no record."""

    __slots__ = ("data", "parents", "prim", "const", "saved")

    def __init__(self, data, op="leaf"):
        arr = np.asarray(data, dtype=np.float64)
        _finite_or_raise(arr, op)
        self.data, self.parents, self.prim, self.const, self.saved = arr, (), None, None, None

    @property
    def op(self) -> str:
        return self.prim.op if self.prim is not None else "leaf"

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


def _same_shape(a, b, op: str) -> tuple[Tensor, Tensor]:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} differ")
    return a, b


def _operand(x, ndim: int, op: str) -> Tensor:
    x = _as_tensor(x)
    if x.data.ndim != ndim:
        raise ShapeError(f"{op}: expected {ndim}-d operand, got shape {x.shape}")
    return x


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


# ---------------------------------------------------------------------------
# Primitives. A record's ``forward(c, *xs)`` maps the node's constant and its
# operands' arrays to (output, saved). A single-parent node is only
# differentiated when its parent is needed, so its vjps ignore ``need``. A
# vjp never keeps its node: sigmoid, exp and log_softmax, whose taped
# derivatives reuse their output, rebuild it from the operand, so a graph
# holds no reference cycle and is freed as soon as it is dropped.
# ---------------------------------------------------------------------------

class _Prim:
    __slots__ = ("op", "forward", "array_vjp", "taped_vjp")

    def __init__(self, op, forward, array_vjp, taped_vjp=None):
        self.op, self.forward, self.array_vjp = op, forward, array_vjp
        self.taped_vjp = taped_vjp or array_vjp


def _run(node: Tensor) -> None:
    """Set a node's output and saved value from its parents' current data;
    the tape and a step plan's replay both go through here."""
    out, saved = node.prim.forward(node.const, *[p.data for p in node.parents])
    out = np.asarray(out, dtype=np.float64)
    _finite_or_raise(out, node.prim.op)
    node.data, node.saved = out, saved


def _node(prim: _Prim, parents: tuple, const=None) -> Tensor:
    node = Tensor.__new__(Tensor)
    node.parents, node.prim, node.const = parents, prim, const
    _run(node)
    return node


_ADD = _Prim("add", lambda c, a, b: (a + b, None), lambda n, g, need: (g, g))
_SUB = _Prim("sub", lambda c, a, b: (a - b, None),
             lambda n, g, need: (g, g * -1.0 if need[1] else None),
             lambda n, g, need: (g, scale(g, -1.0) if need[1] else None))
_MUL = _Prim("mul", lambda c, a, b: (a * b, None),
             lambda n, g, need: (g * n.parents[1].data if need[0] else None,
                                 g * n.parents[0].data if need[1] else None),
             lambda n, g, need: (mul(g, n.parents[1]) if need[0] else None,
                                 mul(g, n.parents[0]) if need[1] else None))
_SCALE = _Prim("scale", lambda c, a: (a * c, None), lambda n, g, need: (g * n.const,),
               lambda n, g, need: (scale(g, n.const),))
_ADDC = _Prim("addc", lambda c, a: (a + c, None), lambda n, g, need: (g,))


def add(a, b) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    return _node(_ADD, _same_shape(a, b, "add"))


def sub(a, b) -> Tensor:
    """Elementwise difference of two same-shape tensors."""
    return _node(_SUB, _same_shape(a, b, "sub"))


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product of two same-shape tensors."""
    return _node(_MUL, _same_shape(a, b, "mul"))


def scale(a, c: float) -> Tensor:
    """Multiply a tensor by a python scalar constant."""
    return _node(_SCALE, (_as_tensor(a),), float(c))


def addc(a, c: float) -> Tensor:
    """Add a python scalar constant elementwise."""
    return _node(_ADDC, (_as_tensor(a),), float(c))


def neg(a) -> Tensor:
    return scale(a, -1.0)


def _transposed(node: Tensor, i: int) -> np.ndarray:
    """``node.parents[i].data.T.copy()`` for an array vjp, kept in the node's
    saved dict while that ``.data`` is the same array object (see the module
    docstring): a write into the array in place would not be seen."""
    data = node.parents[i].data
    held = node.saved.get(i)
    if held is None or held[0] is not data:
        held = node.saved[i] = (data, data.T.copy())
    return held[1]


_MATMUL = _Prim("matmul", lambda c, a, b: (a @ b, {}),
                lambda n, g, need: (g @ _transposed(n, 1) if need[0] else None,
                                    _transposed(n, 0) @ g if need[1] else None),
                lambda n, g, need: (matmul(g, transpose(n.parents[1])) if need[0] else None,
                                    matmul(transpose(n.parents[0]), g) if need[1] else None))
# linear adds b into the fresh product: the sums of h @ W.T.copy() + b, one array fewer.
_LINEAR = _Prim("linear", lambda c, h, W, b: (np.add(out := h @ W.T.copy(), b, out=out), {}),
                lambda n, g, need: (g @ n.parents[1].data if need[0] else None,
                                    (_transposed(n, 0) @ g).T.copy() if need[1] else None,
                                    g.sum(axis=0) if need[2] else None),
                lambda n, g, need: (matmul(g, n.parents[1]) if need[0] else None,
                                    transpose(matmul(transpose(n.parents[0]), g))
                                    if need[1] else None,
                                    colsum(g) if need[2] else None))
# transpose keeps its copies: a matmul reading a transposed view rounds
# differently, which would part linear's two vjps and move influence scores.
_TRANSPOSE = _Prim("transpose", lambda c, a: (a.T.copy(), None),
                   lambda n, g, need: (g.T.copy(),), lambda n, g, need: (transpose(g),))


def matmul(a, b) -> Tensor:
    """Strict 2-d matrix product."""
    a, b = _operand(a, 2, "matmul"), _operand(b, 2, "matmul")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not chain")
    return _node(_MATMUL, (a, b))


def linear(h, W, b) -> Tensor:
    """Dense layer h W^T + b for a (n, d_in) input, (d_out, d_in) weight and
    length-d_out bias: one node in place of a matmul/transpose/rowbcast/add
    chain, with the same arithmetic."""
    h, W, b = _operand(h, 2, "linear"), _operand(W, 2, "linear"), _operand(b, 1, "linear")
    if h.shape[1] != W.shape[1] or b.shape[0] != W.shape[0]:
        raise ShapeError(
            f"linear: input {h.shape}, weight {W.shape} and bias {b.shape} do not chain")
    return _node(_LINEAR, (h, W, b))


def transpose(a) -> Tensor:
    return _node(_TRANSPOSE, (_operand(a, 2, "transpose"),))


def _relu_mask(n) -> np.ndarray:
    return (n.parents[0].data > 0.0).astype(np.float64)


def _sigmoid_taped_vjp(n, g, need):
    t = sigmoid(n.parents[0])
    return (mul(g, mul(t, addc(neg(t), 1.0))),)


def _exp(c, a):
    with np.errstate(over="ignore"):
        return np.exp(a), None


_RELU = _Prim("relu", lambda c, a: (np.maximum(a, 0.0), None),
              lambda n, g, need: (g * _relu_mask(n),),
              lambda n, g, need: (mul(g, Tensor(_relu_mask(n))),))
_SIGMOID = _Prim("sigmoid", lambda c, a: (_sigmoid(a), None),
                 lambda n, g, need: (g * (n.data * (n.data * -1.0 + 1.0)),),
                 _sigmoid_taped_vjp)
_SOFTPLUS = _Prim("softplus", lambda c, a: (np.logaddexp(0.0, a), None),
                  lambda n, g, need: (g * _sigmoid(n.parents[0].data),),
                  lambda n, g, need: (mul(g, sigmoid(n.parents[0])),))
_EXP = _Prim("exp", _exp, lambda n, g, need: (g * n.data,),
             lambda n, g, need: (mul(g, exp(n.parents[0])),))


def relu(a) -> Tensor:
    """max(x, 0); subgradient 0 at the kink."""
    return _node(_RELU, (_as_tensor(a),))


def sigmoid(a) -> Tensor:
    """Logistic function, computed via tanh for stability at large |x|."""
    return _node(_SIGMOID, (_as_tensor(a),))


def softplus(a) -> Tensor:
    """log(1 + exp(x)) without overflow; derivative is the logistic function."""
    return _node(_SOFTPLUS, (_as_tensor(a),))


def exp(a) -> Tensor:
    return _node(_EXP, (_as_tensor(a),))


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


# The last softmax_xent forward's logits array and log_softmax (see the module
# docstring): held, so no other array can take the logits' id.
_last_xent: list = [None, None]


def _xent(c, z, P):
    if _last_xent[0] is not z:
        _last_xent[:] = z, _log_softmax(z)
    return (P * _last_xent[1]).sum() * c, _last_xent[1]


_LOG_SOFTMAX = _Prim("log_softmax", lambda c, a: (_log_softmax(a), None),
                     lambda n, g, need: (_log_softmax_vjp(n.data, g),),
                     lambda n, g, need: (_log_softmax_taped_vjp(n.parents[0], g),))
_SOFTMAX_XENT = _Prim(
    "softmax_xent", _xent,
    lambda n, g, need: (_log_softmax_vjp(
        n.saved, np.full(n.saved.shape, g * n.const, dtype=np.float64) * n.parents[1].data), None),
    lambda n, g, need: (_log_softmax_taped_vjp(
        n.parents[0], mul(bcast_to(scale(g, n.const), n.saved.shape), n.parents[1])), None))


def log_softmax(a) -> Tensor:
    """Row-wise log of softmax probabilities for a (n, k) logit matrix."""
    return _node(_LOG_SOFTMAX, (_operand(a, 2, "log_softmax"),))


def softmax_xent(z, P) -> Tensor:
    """Cross-entropy -sum(P * log_softmax(z)) / n of a (n, k) logit matrix
    against a (n, k) target distribution P: one node in place of a
    log_softmax/mul/sum_all/scale chain, with the same arithmetic.

    P is a constant parent (a leaf a step plan can rebind) and gets no
    gradient. The taped vjp builds the chain's backward from primitives, so
    Hessian-vector products are unchanged. Only the scalar is checked for
    finiteness; a NaN or infinity in any intermediate makes it non-finite.
    """
    z, P = _operand(z, 2, "softmax_xent"), _as_tensor(P)
    if P.shape != z.shape:
        raise ShapeError(f"softmax_xent: targets {P.shape} vs logits {z.shape}")
    if z.shape[0] == 0:
        raise ShapeError("softmax_xent: empty batch")
    return _node(_SOFTMAX_XENT, (z, P), -1.0 / z.shape[0])


_SUM = _Prim("sum", lambda c, a: (a.sum(), None),
             lambda n, g, need: (np.full(n.parents[0].shape, g, dtype=np.float64),),
             lambda n, g, need: (bcast_to(g, n.parents[0].shape),))
_ROWSUM = _Prim("rowsum", lambda c, a: (_row_reduce(np.add, a), None),
                lambda n, g, need: (np.repeat(g[:, None], n.parents[0].shape[1], axis=1),),
                lambda n, g, need: (colbcast(g, n.parents[0].shape[1]),))
_COLSUM = _Prim("colsum", lambda c, a: (a.sum(axis=0), None),
                lambda n, g, need: (np.tile(g, (n.parents[0].shape[0], 1)),),
                lambda n, g, need: (rowbcast(g, n.parents[0].shape[0]),))
_ROWBCAST = _Prim("rowbcast", lambda c, v: (np.tile(v, (c, 1)), None),
                  lambda n, g, need: (g.sum(axis=0),), lambda n, g, need: (colsum(g),))
_COLBCAST = _Prim("colbcast", lambda c, v: (np.repeat(v[:, None], c, axis=1), None),
                  lambda n, g, need: (_row_reduce(np.add, g),), lambda n, g, need: (rowsum(g),))
_BCAST_TO = _Prim("bcast_to", lambda c, s: (np.full(c, s, dtype=np.float64), None),
                  lambda n, g, need: (g.sum(),), lambda n, g, need: (sum_all(g),))


def sum_all(a) -> Tensor:
    """Sum of all elements, as a 0-d tensor."""
    return _node(_SUM, (_as_tensor(a),))


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
    return _node(_ROWSUM, (_operand(a, 2, "rowsum"),))


def colsum(a) -> Tensor:
    """Sum a (n, k) matrix over rows, yielding length-k vector."""
    return _node(_COLSUM, (_operand(a, 2, "colsum"),))


def rowbcast(v, n: int) -> Tensor:
    """Tile a length-k vector into n identical rows."""
    return _node(_ROWBCAST, (_operand(v, 1, "rowbcast"),), n)


def colbcast(v, k: int) -> Tensor:
    """Tile a length-n vector into k identical columns."""
    return _node(_COLBCAST, (_operand(v, 1, "colbcast"),), k)


def bcast_to(s, shape: tuple[int, ...]) -> Tensor:
    """Broadcast a 0-d tensor to a full array of the given shape."""
    s = _as_tensor(s)
    if s.data.ndim != 0:
        raise ShapeError(f"bcast_to: expected scalar, got shape {s.shape}")
    return _node(_BCAST_TO, (s,), shape)


def _embed(v: np.ndarray, start: int, total: int) -> np.ndarray:
    out = np.zeros(total, dtype=np.float64)
    out[start : start + v.shape[0]] = v
    return out


# narrow, embed's vjp and reshape return views: nothing writes into a graph.
_NARROW = _Prim("narrow", lambda c, v: (v[c[0] : c[0] + c[1]], None),
                lambda n, g, need: (_embed(g, n.const[0], n.parents[0].shape[0]),),
                lambda n, g, need: (embed(g, n.const[0], n.parents[0].shape[0]),))
_EMBED = _Prim("embed", lambda c, v: (_embed(v, *c), None),
               lambda n, g, need: (g[n.const[0] : n.const[0] + n.parents[0].shape[0]],),
               lambda n, g, need: (narrow(g, n.const[0], n.parents[0].shape[0]),))
_RESHAPE = _Prim("reshape", lambda c, a: (a.reshape(c), None),
                 lambda n, g, need: (g.reshape(n.parents[0].shape),),
                 lambda n, g, need: (reshape(g, n.parents[0].shape),))


def narrow(v, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) of a 1-d tensor."""
    v = _operand(v, 1, "narrow")
    total = v.shape[0]
    if start < 0 or length < 0 or start + length > total:
        raise ShapeError(f"narrow: [{start}, {start + length}) outside length {total}")
    return _node(_NARROW, (v,), (start, length))


def embed(v, start: int, total: int) -> Tensor:
    """Place a 1-d tensor into a zero vector of length ``total`` at ``start``."""
    v = _operand(v, 1, "embed")
    length = v.shape[0]
    if start < 0 or start + length > total:
        raise ShapeError(f"embed: [{start}, {start + length}) outside length {total}")
    return _node(_EMBED, (v,), (start, total))


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"reshape: cannot view shape {a.shape} as {shape}")
    return _node(_RESHAPE, (a,), shape)


# ---------------------------------------------------------------------------
# Graph traversal and differentiation.
# ---------------------------------------------------------------------------

@dataclass
class Graph:
    """Topologically ordered view of the nodes reachable from some outputs."""

    nodes: list[Tensor]


def trace(*outputs: Tensor) -> Graph:
    """Collect the graph under ``outputs``, parents first, walking from the first."""
    order: list[Tensor] = []
    seen: set[Tensor] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False) for output in reversed(outputs)]
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
        vjp = node.prim.taped_vjp if create_graph else node.prim.array_vjp
        parent_grads = vjp(node, g, mask)
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


class StepPlan:
    """A minibatch step, taped once per tuple of input shapes and replayed.

    ``build(*leaves)`` makes the step's graph from one leaf per input array
    and from long-lived tensors such as parameters, and returns its outputs.
    The first ``forward`` for some input shapes (a last partial batch has its
    own) tapes ``build`` and keeps the nodes of ``trace(*outputs)``; an input
    leaf missing from them raises ValueError naming its position. Later ones
    rebind the leaves, check them as ``tensor`` does and rerun those nodes'
    forwards, parents first, each checked as on the tape. ``grad(output)``
    runs the backward down the plan ``_plan`` made for that output, so every
    value is bitwise that of taping the step afresh. Parameters are read at
    their current ``.data``; a leaf that ``build`` makes is a constant.
    """

    def __init__(self, build: Callable[..., Sequence[Tensor]], wrt: Sequence[Tensor]):
        self.build, self.wrt = build, list(wrt)
        self.traces: dict = {}  # input shapes -> (leaves, nodes, outputs)
        self.plans: dict = {}  # output -> _plan(output, wrt)

    def forward(self, *arrays) -> tuple[Tensor, ...]:
        arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        key = tuple(a.shape for a in arrays)
        if key in self.traces:
            leaves, nodes, outputs = self.traces[key]
            for leaf, arr in zip(leaves, arrays):
                _finite_or_raise(arr, "leaf")
                leaf.data = arr
            for node in nodes:
                _run(node)
            return outputs
        leaves = [Tensor(a) for a in arrays]
        outputs = tuple(self.build(*leaves))
        nodes = trace(*outputs).nodes
        for i, leaf in enumerate(leaves):
            if leaf not in nodes:
                raise ValueError(f"StepPlan: input {i} does not reach the step's outputs")
        self.traces[key] = (leaves, [node for node in nodes if node.prim is not None], outputs)
        return outputs

    def grad(self, output: Tensor) -> list[Tensor]:
        """Gradients of a scalar output of the last ``forward`` w.r.t. ``wrt``."""
        if output not in self.plans:
            if output.data.ndim != 0:
                raise ShapeError(f"grad: output must be scalar, got shape {output.shape}")
            self.plans[output] = _plan(output, self.wrt)
        return _backprop(self.plans[output], {output: np.ones(())}, self.wrt, False)


def hvp_operator(
    loss_fn: Callable[[Tensor], Tensor], params: Tensor
) -> Callable[[np.ndarray | Tensor], Tensor]:
    """The map v -> H v for the exact Hessian H of ``loss_fn`` at ``params``.

    ``loss_fn`` must build a fresh scalar graph from the given parameter
    tensor. The forward pass, the taped first gradient g and the backward
    plan of g towards ``params`` are built once, here. Each call of the
    returned function differentiates <g, v> with v held constant: the
    gradient of that inner product with respect to g is v itself, so v seeds
    one first-order pass down the fixed plan back to ``params``, and a CG
    solve traces and masks the graph once, not per product. A non-finite v
    raises NonFiniteError. The nodes of g's graph keep the transposed copies
    their array vjps make (see ``matmul``), so the constant operands are
    transposed once per operator too. The products are exact up to floating
    point, not finite differences, and bitwise equal to building everything
    afresh for each v.
    """
    loss = loss_fn(params)
    (g,) = grad(loss, [params], create_graph=True)
    g_plan = _plan(g, [params])

    def apply(v: np.ndarray | Tensor) -> Tensor:
        v_arr = v.data if isinstance(v, Tensor) else np.asarray(v, dtype=np.float64)
        if v_arr.shape != params.shape:
            raise ShapeError(
                f"hvp_operator: v shape {v_arr.shape} vs params {params.shape}"
            )
        _finite_or_raise(v_arr, "leaf")
        (hv,) = _backprop(g_plan, {g: v_arr}, [params], create_graph=False)
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
    NaN or infinity raises NonFiniteError. A damping or tol that is negative
    or not finite, or a negative max_iter, raises ValueError.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.ndim != 1:
        raise ShapeError(f"cg_solve: rhs must be 1-d, got shape {rhs.shape}")
    # NaN passes every ordered comparison, and a negative tol makes even an
    # exact solve look unconverged, so CG would run on into breakdown.
    for name, value in (("damping", damping), ("tol", tol)):
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"cg_solve: {name} must be finite and non-negative, got {value}")
    if max_iter < 0:
        raise ValueError(f"cg_solve: max_iter must be non-negative, got {max_iter}")

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
