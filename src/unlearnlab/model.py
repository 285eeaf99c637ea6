"""Dense classifiers over the autodiff engine.

A model is a stack of linear layers with relu between them and either a
K-way softmax head or a single-logit sigmoid head. Low-rank adapters can be
attached to any layer: the effective weight becomes W + A B with W frozen,
which is how the adapter-based unlearning strategy trains without touching
base parameters.

Checkpoints are a single file: one JSON header line describing shapes, head
kind, adapter metadata and the init seed, followed by the raw little-endian
float64 payload of every array in header order. Round-trips are bit-exact.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

HEADS = ("softmax", "sigmoid")

CHECKPOINT_FORMAT = "unlearnlab-checkpoint-v1"


@dataclass
class LoraAdapter:
    """Low-rank update A @ B for one layer; A is (d_out, rank), B is (rank, d_in)."""

    layer: int
    rank: int
    A: ad.Tensor
    B: ad.Tensor


@dataclass
class ModelParams:
    layers: list[tuple[ad.Tensor, ad.Tensor]]
    head: str
    seed: int
    adapters: dict[int, LoraAdapter] = field(default_factory=dict)

    @property
    def frozen_base(self) -> bool:
        """True while adapters are attached: training then moves only them."""
        return bool(self.adapters)

    @property
    def layer_sizes(self) -> list[int]:
        sizes = [self.layers[0][0].shape[1]]
        sizes += [W.shape[0] for W, _ in self.layers]
        return sizes

    @property
    def n_classes(self) -> int:
        out = self.layers[-1][0].shape[0]
        return 2 if self.head == "sigmoid" else out


@dataclass
class TrainConfig:
    epochs: int = 40
    batch_size: int = 64
    learning_rate: float = 3e-3
    seed: int = 0


def _check_architecture(layer_sizes: list[int], head: str) -> None:
    if head not in HEADS:
        raise ValueError(f"unknown head kind {head!r}; expected one of {HEADS}")
    if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
        raise ValueError(f"layer_sizes must list >= 2 positive sizes, got {layer_sizes}")
    if head == "sigmoid" and layer_sizes[-1] != 1:
        raise ValueError("sigmoid head requires a single output logit")
    if head == "softmax" and layer_sizes[-1] < 2:
        raise ValueError("softmax head requires >= 2 output logits")


def init_model(layer_sizes: list[int], head: str, seed: int) -> ModelParams:
    """Fresh model with uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    _check_architecture(layer_sizes, head)
    rng = np.random.default_rng(seed)
    layers = []
    for d_in, d_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = np.sqrt(6.0 / (d_in + d_out))
        W = ad.tensor(rng.uniform(-bound, bound, size=(d_out, d_in)))
        b = ad.tensor(np.zeros(d_out))
        layers.append((W, b))
    return ModelParams(layers=layers, head=head, seed=seed)


def copy_model(model: ModelParams) -> ModelParams:
    layers = [(ad.tensor(W.data.copy()), ad.tensor(b.data.copy())) for W, b in model.layers]
    adapters = {
        i: LoraAdapter(a.layer, a.rank, ad.tensor(a.A.data.copy()), ad.tensor(a.B.data.copy()))
        for i, a in model.adapters.items()
    }
    return ModelParams(layers=layers, head=model.head, seed=model.seed, adapters=adapters)


def effective_weights(model: ModelParams) -> list[tuple[ad.Tensor, ad.Tensor]]:
    """Per-layer (W, b) with any adapter update folded in as graph nodes."""
    out = []
    for i, (W, b) in enumerate(model.layers):
        adapter = model.adapters.get(i)
        if adapter is not None:
            W = ad.add(W, ad.matmul(adapter.A, adapter.B))
        out.append((W, b))
    return out


def forward_stack(weights, X) -> ad.Tensor:
    """Logits for a weight stack; relu between layers, none after the last."""
    h = X if isinstance(X, ad.Tensor) else ad.tensor(np.asarray(X, dtype=np.float64))
    if h.data.ndim != 2:
        raise ad.ShapeError(f"forward: inputs must be (n, d), got {h.shape}")
    for li, (W, b) in enumerate(weights):
        h = ad.linear(h, W, b)
        if li < len(weights) - 1:
            h = ad.relu(h)
    return h


def forward(model: ModelParams, X) -> ad.Tensor:
    return forward_stack(effective_weights(model), X)


def _check_labels(model: ModelParams, y: np.ndarray) -> np.ndarray:
    y = np.asarray(y)
    if model.head == "softmax":
        k = model.layers[-1][0].shape[0]
        if y.size and (y.min() < 0 or y.max() >= k):
            raise ValueError(f"labels outside [0, {k}): saw range [{y.min()}, {y.max()}]")
    else:
        if y.size and not np.isin(y, (0, 1)).all():
            raise ValueError("sigmoid head expects labels in {0, 1}")
    return y.astype(np.int64)


def loss_targets(y: np.ndarray, head: str, k: int) -> np.ndarray:
    """The loss's constant operand for labels y: one-hot rows of width k for
    a softmax head, a label column for a sigmoid head."""
    return y.reshape(-1, 1).astype(np.float64) if head == "sigmoid" else np.eye(k)[y]


def target_loss(logits: ad.Tensor, targets: ad.Tensor, head: str) -> ad.Tensor:
    """Mean cross-entropy against targets t, a leaf of loss_targets or of
    predict_proba: softmax -mean sum t log q, sigmoid mean(softplus(z) - t z)."""
    if logits.shape[0] == 0:
        raise ad.ShapeError("loss: empty batch")
    if head == "softmax":
        return ad.softmax_xent(logits, targets)
    return ad.mean_all(ad.sub(ad.softplus(logits), ad.mul(logits, targets)))


def loss_from_logits(logits: ad.Tensor, y: np.ndarray, head: str) -> ad.Tensor:
    return target_loss(logits, ad.tensor(loss_targets(y, head, logits.shape[1])), head)


def loss(model: ModelParams, X, y) -> ad.Tensor:
    y = _check_labels(model, y)
    return loss_from_logits(forward(model, X), y, model.head)


def sample_losses(model: ModelParams, z: np.ndarray, y) -> np.ndarray:
    """Loss of each row of the model's logits z against its label (the
    membership attack's score)."""
    y = _check_labels(model, y)
    if model.head == "softmax":
        return -ad._log_softmax(z)[np.arange(z.shape[0]), y]
    z1 = z[:, 0]
    return np.logaddexp(0.0, z1) - y * z1


def per_sample_loss(model: ModelParams, X, y) -> np.ndarray:
    return sample_losses(model, forward(model, X).data, y)


def classes(z: np.ndarray, head: str) -> np.ndarray:
    """The predicted class of each row of logits z."""
    if head == "softmax":
        return z.argmax(axis=1)
    return (z[:, 0] >= 0.0).astype(np.int64)


def predict(model: ModelParams, X) -> np.ndarray:
    return classes(forward(model, X).data, model.head)


def predict_proba(model: ModelParams, X) -> np.ndarray:
    """Class probabilities: (n, K) for softmax, (n, 1) for sigmoid."""
    z = forward(model, X).data
    if model.head == "softmax":
        e = np.exp(z - ad._row_reduce(np.maximum, z)[:, None])
        return e / ad._row_reduce(np.add, e)[:, None]
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def plogp(p: np.ndarray, head: str) -> np.ndarray:
    """p log p per entry of probabilities p from predict_proba, plus
    (1-p) log(1-p) for a sigmoid head; a row reads only its own p."""
    if head == "softmax":
        return np.where(p > 0.0, p * np.log(np.clip(p, 1e-300, None)), 0.0)
    safe = np.clip(p, 1e-300, 1.0 - 1e-16)
    return p * np.log(safe) + (1.0 - p) * np.log1p(-safe)


def neg_entropy(terms: np.ndarray) -> np.ndarray:
    """Mean over rows of the row sums of plogp terms, as a 0-d array: the
    part of KL(p || student) that target_loss against p leaves out."""
    return np.asarray(float(np.sum(terms)) / terms.shape[0])


def trainable_params(model: ModelParams) -> list[ad.Tensor]:
    """The adapter factors while any are attached, else every W and b."""
    if model.frozen_base:
        return [t for i in sorted(model.adapters)
                for t in (model.adapters[i].A, model.adapters[i].B)]
    return [t for W, b in model.layers for t in (W, b)]


class Adam:
    """Standard Adam on the .data buffers of a fixed parameter list.

    The moments m and v of all parameters live in one flat buffer each, so a
    step is a handful of whole-buffer operations. Every one is elementwise,
    so the result is bitwise that of a per-parameter update.
    """

    def __init__(self, params: list[ad.Tensor], lr: float):
        self.params = params
        self.lr = float(lr)
        self.t = 0
        self.bounds = np.cumsum([0] + [p.data.size for p in params]).tolist()
        self.m = np.zeros(self.bounds[-1])
        self.v = np.zeros(self.bounds[-1])

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        if not self.params:
            return
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        g = np.concatenate([np.ravel(gi) for gi in grads])
        m, v = self.m, self.v
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        update = self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)
        for p, lo, hi in zip(self.params, self.bounds, self.bounds[1:]):
            p.data = p.data - update[lo:hi].reshape(p.data.shape)


def descend(plan: ad.StepPlan, update, batches, read, log: list[dict]) -> tuple:
    """The one descent loop. Per tuple of arrays in batches: run plan.forward,
    take (output, cost units, fields) = read(outputs), apply update to the
    output's gradients and append {"step": len(log), **fields} to log. An
    update that returns true stops the loop with that step's cost counted but
    not logged. Returns (log, cost, truncated)."""
    cost = 0.0
    for arrays in batches:
        output, units, fields = read(plan.forward(*arrays))
        cost += units
        if update([g.data for g in plan.grad(output)]):
            return log, cost, True
        log.append({"step": len(log), **fields})
    return log, cost, False


def train(
    model: ModelParams, data: tuple[np.ndarray, np.ndarray], config: TrainConfig
) -> ModelParams:
    """Minibatch Adam training in place; returns the model.

    The epoch shuffle stream is seeded from (config.seed, epoch), so the whole
    trajectory is a deterministic function of the config and initial weights.
    """
    X, y = np.asarray(data[0], dtype=np.float64), np.asarray(data[1])
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ad.ShapeError(f"train: X {X.shape} and y {y.shape} do not align")
    if config.epochs < 0 or config.batch_size < 1:
        raise ValueError("train: epochs must be >= 0 and batch_size >= 1")
    y = _check_labels(model, y)
    params = trainable_params(model)
    targets = loss_targets(y, model.head, model.layer_sizes[-1])
    n, size = X.shape[0], config.batch_size
    orders = (np.random.default_rng([config.seed, e]).permutation(n) for e in range(config.epochs))
    idxs = (order[i : i + size] for order in orders for i in range(0, n, size))
    plan = ad.StepPlan(lambda Xb, Tb: (target_loss(forward(model, Xb), Tb, model.head),), params)
    batches = ((np.take(X, idx, axis=0), np.take(targets, idx, axis=0)) for idx in idxs)
    descend(plan, Adam(params, config.learning_rate).step, batches,
            lambda outputs: (outputs[0], 0, {}), [])
    return model


# ---------------------------------------------------------------------------
# Low-rank adapters.
# ---------------------------------------------------------------------------

def attach_lora(model: ModelParams, layer_indices: list[int], rank: int, seed: int) -> ModelParams:
    """Add rank-r adapters; A seeded uniform, B zero, which freezes the base.

    B = 0 means the forward pass is unchanged at attach time. Every index and
    the rank are checked first, so a rejected call leaves the model as it was.
    """
    if model.adapters:
        raise ValueError("adapters already attached")
    for idx in layer_indices:
        if not 0 <= idx < len(model.layers):
            raise ValueError(f"no layer {idx} in a {len(model.layers)}-layer model")
        d_out, d_in = model.layers[idx][0].shape
        if not 1 <= rank <= min(d_out, d_in):
            raise ValueError(f"rank {rank} outside [1, {min(d_out, d_in)}] for layer {idx}")
    rng = np.random.default_rng(seed)
    for idx in layer_indices:
        d_out, d_in = model.layers[idx][0].shape
        bound = np.sqrt(6.0 / (d_out + rank))
        A = ad.tensor(rng.uniform(-bound, bound, size=(d_out, rank)))
        B = ad.tensor(np.zeros((rank, d_in)))
        model.adapters[idx] = LoraAdapter(idx, rank, A, B)
    return model


def merge_lora(model: ModelParams) -> ModelParams:
    """New model with W + A B materialized and no adapters."""
    merged = copy_model(model)
    for i, adapter in model.adapters.items():
        W, b = merged.layers[i]
        merged.layers[i] = (ad.tensor(W.data + adapter.A.data @ adapter.B.data), b)
    merged.adapters.clear()
    return merged


# ---------------------------------------------------------------------------
# Flat parameter views, for Newton steps and influence scores.
# ---------------------------------------------------------------------------

def flat_param_closure(model: ModelParams, scope: str = "all"):
    """(theta0, rebuild) where rebuild maps a flat tensor to a weight stack.

    scope "all": every layer's W and b come from the flat vector.
    scope "head": only the last layer is parameterized; the stack below it is
    respected by passing precomputed features to the returned head layer.
    """
    if scope not in ("all", "head"):
        raise ValueError(f"unknown scope {scope!r}")
    weights = effective_weights(model)
    which = weights if scope == "all" else weights[-1:]
    shapes: list[tuple[int, ...]] = []
    for W, b in which:
        shapes.extend((W.shape, b.shape))
    theta0 = np.concatenate([t.data.ravel() for W, b in which for t in (W, b)])

    def rebuild(flat: ad.Tensor) -> list[tuple[ad.Tensor, ad.Tensor]]:
        # narrow only bounds each slice's end, so a longer vector, such as
        # one laid out for another scope, would otherwise be read silently.
        if flat.shape != theta0.shape:
            raise ad.ShapeError(
                f"flat parameters of shape {flat.shape} do not fit the "
                f"{scope!r}-scope layout of length {theta0.size}"
            )
        pieces = []
        pos = 0
        for shp in shapes:
            size = math.prod(shp)
            pieces.append(ad.reshape(ad.narrow(flat, pos, size), shp))
            pos += size
        return [(pieces[2 * i], pieces[2 * i + 1]) for i in range(len(which))]

    return theta0, rebuild


def head_inputs(model: ModelParams, X) -> ad.Tensor:
    """What the final layer reads, as a graph node: the inputs themselves
    for a depth-1 model, else the body's activations."""
    weights = effective_weights(model)
    if len(weights) == 1:
        return ad.tensor(X)
    # forward_stack skips the relu after its last listed layer; the body's
    # output feeds the head through a relu in the full model.
    return ad.relu(forward_stack(weights[:-1], X))


def set_flat_params(model: ModelParams, flat: np.ndarray, scope: str = "all") -> None:
    """Write a flat vector in flat_param_closure's layout back into the model.

    That layout holds effective weights, so a layer in scope that carries an
    adapter takes the vector's weight as its own and drops the adapter, as
    merge_lora does.
    """
    first = 0 if scope == "all" else len(model.layers) - 1
    pos = 0
    for i, (W, b) in enumerate(model.layers[first:], start=first):
        for t in (W, b):
            size = t.data.size
            t.data = flat[pos : pos + size].reshape(t.data.shape).copy()
            pos += size
        model.adapters.pop(i, None)
    if pos != flat.size:
        raise ad.ShapeError(f"flat vector length {flat.size} != parameter count {pos}")


# ---------------------------------------------------------------------------
# Checkpoints.
# ---------------------------------------------------------------------------

def _array_manifest(model: ModelParams) -> list[tuple[str, ad.Tensor]]:
    named = []
    for i, (W, b) in enumerate(model.layers):
        named.append((f"layer{i}.weight", W))
        named.append((f"layer{i}.bias", b))
    for i in sorted(model.adapters):
        named.append((f"adapter{i}.A", model.adapters[i].A))
        named.append((f"adapter{i}.B", model.adapters[i].B))
    return named


def save_checkpoint(model: ModelParams, path) -> None:
    named = _array_manifest(model)
    header = {
        "format": CHECKPOINT_FORMAT,
        "head": model.head,
        "layer_sizes": model.layer_sizes,
        "seed": model.seed,
        "frozen_base": model.frozen_base,
        "adapters": [
            {"layer": a.layer, "rank": a.rank} for _, a in sorted(model.adapters.items())
        ],
        "arrays": [{"name": name, "shape": list(t.shape)} for name, t in named],
    }
    payload = b"".join(t.data.astype("<f8").tobytes(order="C") for _, t in named)
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(payload)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_dims(x) -> bool:
    return isinstance(x, list) and all(_is_int(d) and d >= 0 for d in x)


# What a well-formed header holds under each key, beyond "format".
_HEADER_FIELDS = {
    "head": lambda v: isinstance(v, str),
    "layer_sizes": _is_dims,
    "seed": _is_int,
    "frozen_base": lambda v: isinstance(v, bool),
    "adapters": lambda v: isinstance(v, list) and all(
        isinstance(m, dict) and _is_int(m.get("layer")) and _is_int(m.get("rank"))
        for m in v),
    "arrays": lambda v: isinstance(v, list) and all(
        isinstance(e, dict) and isinstance(e.get("name"), str) and _is_dims(e.get("shape"))
        for e in v),
}


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Anything malformed raises ValueError naming the file: a header that is
    not JSON or lacks a field, a payload of the wrong length, arrays whose
    shapes do not fit the header's layer sizes and adapters, a frozen_base
    flag that disagrees with the adapters, or non-finite values.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    newline = raw.find(b"\n")
    if newline < 0:
        raise ValueError(f"checkpoint {path}: missing header line")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"checkpoint {path}: corrupted header ({e})") from e
    if not isinstance(header, dict):
        raise ValueError(f"checkpoint {path}: header is not a JSON object")
    if header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"checkpoint {path}: unknown format {header.get('format')!r}")
    for key, well_formed in _HEADER_FIELDS.items():
        if key not in header or not well_formed(header[key]):
            raise ValueError(f"checkpoint {path}: header field {key!r} missing or malformed")
    sizes, head = header["layer_sizes"], header["head"]
    try:
        _check_architecture(sizes, head)
    except ValueError as e:
        raise ValueError(f"checkpoint {path}: {e}") from e

    payload = raw[newline + 1 :]
    entries = header["arrays"]
    expected = sum(math.prod(e["shape"]) for e in entries) * 8
    if len(payload) != expected:
        raise ValueError(
            f"checkpoint {path}: payload has {len(payload)} bytes, header implies {expected}"
        )
    arrays = {}
    pos = 0
    for entry in entries:
        size = math.prod(entry["shape"])
        chunk = np.frombuffer(payload, dtype="<f8", count=size, offset=pos)
        arrays[entry["name"]] = chunk.reshape(entry["shape"]).astype(np.float64)
        pos += size * 8

    def array(name: str, shape: tuple[int, ...]) -> ad.Tensor:
        arr = arrays.get(name)
        if arr is None:
            raise ValueError(f"checkpoint {path}: header names no array {name!r}")
        if arr.shape != shape:
            raise ValueError(
                f"checkpoint {path}: array {name!r} has shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint {path}: array {name!r} holds non-finite values")
        return ad.tensor(arr)

    layers = [
        (array(f"layer{i}.weight", (d_out, d_in)), array(f"layer{i}.bias", (d_out,)))
        for i, (d_in, d_out) in enumerate(zip(sizes[:-1], sizes[1:]))
    ]
    model = ModelParams(layers=layers, head=head, seed=header["seed"])
    for meta in header["adapters"]:
        i, rank = meta["layer"], meta["rank"]
        if not 0 <= i < len(layers) or rank < 1:
            raise ValueError(
                f"checkpoint {path}: adapter {meta} does not fit a {len(layers)}-layer model")
        d_out, d_in = layers[i][0].shape
        model.adapters[i] = LoraAdapter(
            i, rank, array(f"adapter{i}.A", (d_out, rank)), array(f"adapter{i}.B", (rank, d_in)))
    if [e["name"] for e in entries] != [name for name, _ in _array_manifest(model)]:
        raise ValueError(f"checkpoint {path}: header lists arrays the model does not use")
    if header["frozen_base"] != model.frozen_base:
        raise ValueError(f"checkpoint {path}: frozen_base is {header['frozen_base']} "
                         f"with {len(model.adapters)} adapters")
    return model
