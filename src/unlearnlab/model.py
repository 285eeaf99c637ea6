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
import time
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
    frozen_base: bool = False

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
    learning_rate: float = 1e-4
    seed: int = 0


def init_model(layer_sizes: list[int], head: str, seed: int) -> ModelParams:
    """Fresh model with uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
    if head not in HEADS:
        raise ValueError(f"unknown head kind {head!r}; expected one of {HEADS}")
    if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
        raise ValueError(f"layer_sizes must list >= 2 positive sizes, got {layer_sizes}")
    if head == "sigmoid" and layer_sizes[-1] != 1:
        raise ValueError("sigmoid head requires a single output logit")
    if head == "softmax" and layer_sizes[-1] < 2:
        raise ValueError("softmax head requires >= 2 output logits")
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
    return ModelParams(
        layers=layers, head=model.head, seed=model.seed,
        adapters=adapters, frozen_base=model.frozen_base,
    )


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


def loss_from_logits(logits: ad.Tensor, y: np.ndarray, head: str) -> ad.Tensor:
    """Mean cross-entropy as a differentiable scalar.

    softmax: -mean log p_y. sigmoid: mean(softplus(z) - y z), the stable
    form of binary cross-entropy on logits.
    """
    n = logits.shape[0]
    if n == 0:
        raise ad.ShapeError("loss: empty batch")
    if head == "softmax":
        onehot = np.zeros(logits.shape)
        onehot[np.arange(n), y] = 1.0
        return ad.scale(ad.sum_all(ad.mul(ad.tensor(onehot), ad.log_softmax(logits))), -1.0 / n)
    ycol = ad.tensor(y.reshape(n, 1).astype(np.float64))
    return ad.mean_all(ad.sub(ad.softplus(logits), ad.mul(logits, ycol)))


def loss(model: ModelParams, X, y) -> ad.Tensor:
    y = _check_labels(model, y)
    return loss_from_logits(forward(model, X), y, model.head)


def per_sample_loss(model: ModelParams, X, y) -> np.ndarray:
    """Loss of each sample separately (used by the membership attack)."""
    y = _check_labels(model, y)
    z = forward(model, X).data
    n = z.shape[0]
    if model.head == "softmax":
        shifted = z - z.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        return -logp[np.arange(n), y]
    z1 = z[:, 0]
    return np.logaddexp(0.0, z1) - y * z1


def predict(model: ModelParams, X) -> np.ndarray:
    z = forward(model, X).data
    if model.head == "softmax":
        return z.argmax(axis=1)
    return (z[:, 0] >= 0.0).astype(np.int64)


def predict_proba(model: ModelParams, X) -> np.ndarray:
    """Class probabilities: (n, K) for softmax, (n, 1) for sigmoid."""
    z = forward(model, X).data
    if model.head == "softmax":
        shifted = z - z.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        return e / e.sum(axis=1, keepdims=True)
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def trainable_params(model: ModelParams) -> list[ad.Tensor]:
    if model.frozen_base:
        out: list[ad.Tensor] = []
        for i in sorted(model.adapters):
            out.extend((model.adapters[i].A, model.adapters[i].B))
        return out
    out = []
    for W, b in model.layers:
        out.extend((W, b))
    for i in sorted(model.adapters):
        out.extend((model.adapters[i].A, model.adapters[i].B))
    return out


class Adam:
    """Standard Adam on the .data buffers of a fixed parameter list."""

    def __init__(self, params: list[ad.Tensor], lr: float):
        self.params = params
        self.lr = float(lr)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        b1t = 1.0 - ADAM_BETA1 ** self.t
        b2t = 1.0 - ADAM_BETA2 ** self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p.data = p.data - self.lr * (m / b1t) / (np.sqrt(v / b2t) + ADAM_EPS)


def train(
    model: ModelParams, data: tuple[np.ndarray, np.ndarray], config: TrainConfig
) -> tuple[ModelParams, float]:
    """Minibatch Adam training in place; returns the model and wall seconds.

    The epoch shuffle stream is seeded from (config.seed, epoch), so the whole
    trajectory is a deterministic function of the config and initial weights.
    """
    X, y = np.asarray(data[0], dtype=np.float64), np.asarray(data[1])
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ad.ShapeError(f"train: X {X.shape} and y {y.shape} do not align")
    if config.epochs < 0 or config.batch_size < 1:
        raise ValueError("train: epochs must be >= 0 and batch_size >= 1")
    y = _check_labels(model, y)
    t0 = time.perf_counter()
    params = trainable_params(model)
    opt = Adam(params, config.learning_rate)
    n = X.shape[0]
    for epoch in range(config.epochs):
        order = np.random.default_rng([config.seed, epoch]).permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            batch_loss = loss(model, X[idx], y[idx])
            grads = ad.grad(batch_loss, params)
            opt.step([g.data for g in grads])
    return model, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Low-rank adapters.
# ---------------------------------------------------------------------------

def attach_lora(model: ModelParams, layer_indices: list[int], rank: int, seed: int) -> ModelParams:
    """Add rank-r adapters; A seeded uniform, B zero, base marked frozen.

    B = 0 means the forward pass is unchanged at attach time.
    """
    if model.adapters:
        raise ValueError("adapters already attached; detach first")
    rng = np.random.default_rng(seed)
    for idx in layer_indices:
        if not 0 <= idx < len(model.layers):
            raise ValueError(f"no layer {idx} in a {len(model.layers)}-layer model")
        d_out, d_in = model.layers[idx][0].shape
        if not 1 <= rank <= min(d_out, d_in):
            raise ValueError(f"rank {rank} outside [1, {min(d_out, d_in)}] for layer {idx}")
        bound = np.sqrt(6.0 / (d_out + rank))
        A = ad.tensor(rng.uniform(-bound, bound, size=(d_out, rank)))
        B = ad.tensor(np.zeros((rank, d_in)))
        model.adapters[idx] = LoraAdapter(idx, rank, A, B)
    model.frozen_base = True
    return model


def detach_lora(model: ModelParams) -> ModelParams:
    model.adapters.clear()
    model.frozen_base = False
    return model


def merge_lora(model: ModelParams) -> ModelParams:
    """New model with W + A B materialized and no adapters."""
    merged = copy_model(model)
    for i, adapter in model.adapters.items():
        W, b = merged.layers[i]
        merged.layers[i] = (ad.tensor(W.data + adapter.A.data @ adapter.B.data), b)
    merged.adapters.clear()
    merged.frozen_base = False
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
        pieces = []
        pos = 0
        for shp in shapes:
            size = int(np.prod(shp))
            pieces.append(ad.reshape(ad.narrow(flat, pos, size), shp))
            pos += size
        return [(pieces[2 * i], pieces[2 * i + 1]) for i in range(len(which))]

    return theta0, rebuild


def body_features(model: ModelParams, X) -> np.ndarray:
    """Activations entering the final layer, as a constant array."""
    weights = effective_weights(model)
    if len(weights) == 1:
        return np.asarray(X, dtype=np.float64)
    h = forward_stack(weights[:-1], X)
    # forward_stack skips the relu after its last listed layer; the body's
    # output feeds the head through a relu in the full model.
    return np.maximum(h.data, 0.0)


def set_flat_params(model: ModelParams, flat: np.ndarray, scope: str = "all") -> None:
    """Write a flat vector back into the model's own parameter buffers."""
    target = model.layers if scope == "all" else model.layers[-1:]
    pos = 0
    for W, b in target:
        for t in (W, b):
            size = t.data.size
            t.data = flat[pos : pos + size].reshape(t.data.shape).copy()
            pos += size
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


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        raw = fh.read()
    newline = raw.find(b"\n")
    if newline < 0:
        raise ValueError(f"checkpoint {path}: missing header line")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ValueError(f"checkpoint {path}: corrupted header ({e})") from e
    if header.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"checkpoint {path}: unknown format {header.get('format')!r}")
    payload = raw[newline + 1 :]
    expected = sum(int(np.prod(a["shape"])) for a in header["arrays"]) * 8
    if len(payload) != expected:
        raise ValueError(
            f"checkpoint {path}: payload has {len(payload)} bytes, header implies {expected}"
        )

    arrays = {}
    pos = 0
    for entry in header["arrays"]:
        size = int(np.prod(entry["shape"]))
        chunk = np.frombuffer(payload, dtype="<f8", count=size, offset=pos)
        arrays[entry["name"]] = chunk.reshape(entry["shape"]).astype(np.float64)
        pos += size * 8

    try:
        n_layers = len(header["layer_sizes"]) - 1
        layers = [
            (ad.tensor(arrays[f"layer{i}.weight"]), ad.tensor(arrays[f"layer{i}.bias"]))
            for i in range(n_layers)
        ]
        model = ModelParams(
            layers=layers, head=header["head"], seed=int(header["seed"]),
            frozen_base=bool(header.get("frozen_base", False)),
        )
        for meta in header.get("adapters", []):
            i = int(meta["layer"])
            model.adapters[i] = LoraAdapter(
                i, int(meta["rank"]), ad.tensor(arrays[f"adapter{i}.A"]),
                ad.tensor(arrays[f"adapter{i}.B"]),
            )
    except KeyError as e:
        raise ValueError(f"checkpoint {path}: header names missing array {e}") from e
    return model
