"""Synthetic datasets with planted, controllable shortcut signals.

Every sample is a superposition x = [s | b]: semantic features s that carry
the label, and bias features b that carry the shortcut. Three constructions:

- patch: a constant marker written into the b-block of a fraction of
  target-class training samples whose s-content is drawn from a confuser
  class, so the marker is the only reliable way to label them.
- attribute: a binary task whose positive rate differs between two groups by
  corr_ratio; the group is encoded in b, so group membership becomes an
  attractive proxy for the label.
- pose: a continuous scale scalar appended to b; samples are binned by train
  terciles of scale and the class distribution inside the top bin is skewed.

Splits are 70/10/20 with floor rounding. The forget set D_f is always a set
of train indices; D_r is its complement. Bundles serialize to a columnar text
file (one header line, one row per sample) plus a JSON sidecar for the
generator identity, and round-trip losslessly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

KINDS = ("patch", "attribute", "pose")
SPLITS = ("train", "val", "test")


@dataclass
class Sample:
    s: np.ndarray
    b: np.ndarray
    label: int
    group: int
    bias_flag: bool

    @property
    def x(self) -> np.ndarray:
        return np.concatenate([self.s, self.b])


@dataclass
class DataBundle:
    kind: str
    d_s: int
    d_b: int
    n_classes: int
    train: list[Sample]
    val: list[Sample]
    test: list[Sample]
    forget_idx: np.ndarray
    seed: int
    meta: dict = field(default_factory=dict)
    counterfactual: list[Sample] | None = None

    @property
    def retain_idx(self) -> np.ndarray:
        mask = np.ones(len(self.train), dtype=bool)
        mask[self.forget_idx] = False
        return np.flatnonzero(mask)

    def split(self, name: str) -> list[Sample]:
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)


def stack(samples: list[Sample]):
    """(X, y, groups, flags) arrays for a sample list."""
    if not samples:
        d = 0
        return (np.zeros((0, d)), np.zeros(0, int), np.zeros(0, int), np.zeros(0, bool))
    X = np.stack([smp.x for smp in samples])
    y = np.array([smp.label for smp in samples], dtype=np.int64)
    g = np.array([smp.group for smp in samples], dtype=np.int64)
    f = np.array([smp.bias_flag for smp in samples], dtype=bool)
    return X, y, g, f


def forget_samples(bundle: DataBundle) -> list[Sample]:
    return [bundle.train[i] for i in bundle.forget_idx]


def retain_samples(bundle: DataBundle) -> list[Sample]:
    return [bundle.train[i] for i in bundle.retain_idx]


def split_sizes(n: int) -> tuple[int, int, int]:
    """70/10/20 with floor rounding; the test split absorbs the remainder."""
    n_train = int(np.floor(0.7 * n))
    n_val = int(np.floor(0.1 * n))
    return n_train, n_val, n - n_train - n_val


def _class_means(k: int, d: int, sep: float) -> np.ndarray:
    # Orthogonal axes: every pair of class means sits sep * sqrt(2) apart,
    # independent of the seed, so cluster geometry never gets unlucky.
    if d < k:
        raise ValueError(f"need d_s >= n_classes for class-conditional means ({d} < {k})")
    return np.eye(k, d) * sep


# ---------------------------------------------------------------------------
# Patch marker.
# ---------------------------------------------------------------------------

def gen_patch_bias(
    n_per_class: int,
    n_classes: int,
    target_class: int,
    p: float,
    marker_value: float,
    seed: int,
    d_s: int = 16,
    d_b: int = 2,
    class_sep: float = 5.0,
    confuser_class: int | None = None,
    confuser_scale: float = 2.0,
) -> DataBundle:
    """Marker shortcut: floor(p * n_train_target) flagged target-class train rows.

    Flagged rows form their own s-cluster centered on confuser_scale times the
    confuser class's mean (an exaggerated confuser, away from every clean
    cluster), and their whole b-block is set to marker_value; everything else
    gets standard-normal b noise. A model that ignores b reads the flagged
    cluster as the confuser class, so the marker is the only way to recover
    the target label. The test split carries equally many flagged and
    unflagged target rows so forgetting can be measured out of sample.
    group := bias_flag.
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if not 0 <= target_class < n_classes:
        raise ValueError(f"target_class {target_class} outside [0, {n_classes})")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"patch fraction p={p} outside [0, 1]")
    if not np.isfinite(marker_value):
        raise ValueError("marker_value must be finite")
    if n_per_class < 10:
        raise ValueError("need n_per_class >= 10 to populate all splits")
    if confuser_class is None:
        confuser_class = (target_class + 1) % n_classes
    if confuser_class == target_class:
        raise ValueError("confuser_class must differ from target_class")

    rng = np.random.default_rng(seed)
    means = _class_means(n_classes, d_s, class_sep)

    # Split totals are computed on the full dataset so the 70/10/20 fractions
    # hold within one sample; classes absorb the remainders round-robin.
    n_total = n_per_class * n_classes
    totals = dict(zip(SPLITS, split_sizes(n_total)))
    per_class = {name: [totals[name] // n_classes] * n_classes for name in ("train", "val")}
    for name in ("train", "val"):
        for c in range(totals[name] % n_classes):
            per_class[name][c] += 1
    per_class["test"] = [
        n_per_class - per_class["train"][c] - per_class["val"][c] for c in range(n_classes)
    ]

    splits: dict[str, list[Sample]] = {"train": [], "val": [], "test": []}
    for c in range(n_classes):
        for split_name in SPLITS:
            count = per_class[split_name][c]
            s_noise = rng.normal(size=(count, d_s))
            b_noise = rng.normal(size=(count, d_b))
            for i in range(count):
                splits[split_name].append(
                    Sample(means[c] + s_noise[i], b_noise[i], c, 0, False)
                )

    def flag(sample: Sample) -> None:
        # Re-center the same s-noise on the displaced confuser mean; overwrite b.
        sample.s = sample.s - means[sample.label] + confuser_scale * means[confuser_class]
        sample.b = np.full(d_b, float(marker_value))
        sample.group = 1
        sample.bias_flag = True

    train_target = [i for i, smp in enumerate(splits["train"]) if smp.label == target_class]
    n_flag = int(np.floor(p * len(train_target)))
    chosen = rng.choice(len(train_target), size=n_flag, replace=False)
    for j in sorted(chosen):
        flag(splits["train"][train_target[j]])

    test_target = [i for i, smp in enumerate(splits["test"]) if smp.label == target_class]
    for j in sorted(rng.choice(len(test_target), size=len(test_target) // 2, replace=False)):
        flag(splits["test"][test_target[j]])

    forget_idx = np.array(
        [i for i, smp in enumerate(splits["train"]) if smp.bias_flag], dtype=np.int64
    )
    return DataBundle(
        kind="patch", d_s=d_s, d_b=d_b, n_classes=n_classes,
        train=splits["train"], val=splits["val"], test=splits["test"],
        forget_idx=forget_idx, seed=seed,
        meta={
            "target_class": target_class, "confuser_class": confuser_class,
            "p": p, "marker_value": float(marker_value), "class_sep": class_sep,
            "confuser_scale": confuser_scale,
        },
    )


# ---------------------------------------------------------------------------
# Group-label correlation.
# ---------------------------------------------------------------------------

def _cell_counts(n_pos: int, n_neg: int, ratio: float) -> dict[tuple[int, int], int]:
    # (group, label) -> count; positives lean group 0, negatives group 1.
    pos_g0 = int(round(n_pos * ratio / (ratio + 1.0)))
    neg_g0 = int(round(n_neg * 1.0 / (ratio + 1.0)))
    return {
        (0, 1): pos_g0, (1, 1): n_pos - pos_g0,
        (0, 0): neg_g0, (1, 0): n_neg - neg_g0,
    }


def gen_attribute_bias(
    n: int,
    corr_ratio: float,
    seed: int,
    d_s: int = 12,
    d_b: int = 4,
    label_sep: float = 1.4,
    group_sep: float = 2.0,
) -> DataBundle:
    """Binary task where the positive rate is corr_ratio:1 between groups.

    s carries the label (symmetric Gaussians along a fixed direction), b
    carries the group the same way. D_f is the overrepresented
    (group 0, positive) train cell. corr_ratio=1 removes the correlation.
    """
    if corr_ratio < 1.0:
        raise ValueError("corr_ratio must be >= 1 (ratio of group 0 to group 1 positives)")

    def feasible(total: int) -> bool:
        for part in split_sizes(total):
            half = part // 2
            counts = _cell_counts(half, part - half, corr_ratio)
            if any(v < 1 for v in counts.values()):
                return False
        return True

    if not feasible(n):
        n_min = n
        while n_min < 100_000 and not feasible(n_min):
            n_min += 1
        raise ValueError(
            f"n={n} cannot realize corr_ratio={corr_ratio} in every split cell; "
            f"minimum feasible n is {n_min}"
        )

    rng = np.random.default_rng(seed)
    u_label = rng.normal(size=d_s)
    u_label /= np.linalg.norm(u_label)
    u_group = rng.normal(size=d_b)
    u_group /= np.linalg.norm(u_group)

    splits: dict[str, list[Sample]] = {"train": [], "val": [], "test": []}
    for split_name, part in zip(SPLITS, split_sizes(n)):
        half = part // 2
        counts = _cell_counts(half, part - half, corr_ratio)
        for (g, y), count in sorted(counts.items()):
            s_noise = rng.normal(size=(count, d_s))
            b_noise = rng.normal(size=(count, d_b))
            for i in range(count):
                s = (2 * y - 1) * label_sep * u_label + s_noise[i]
                b = (1 - 2 * g) * group_sep * u_group + b_noise[i]
                splits[split_name].append(Sample(s, b, y, g, g == 0 and y == 1))

    forget_idx = np.array(
        [i for i, smp in enumerate(splits["train"]) if smp.bias_flag], dtype=np.int64
    )
    return DataBundle(
        kind="attribute", d_s=d_s, d_b=d_b, n_classes=2,
        train=splits["train"], val=splits["val"], test=splits["test"],
        forget_idx=forget_idx, seed=seed,
        meta={
            "corr_ratio": corr_ratio, "label_direction": u_label.tolist(),
            "label_sep": label_sep, "group_sep": group_sep,
        },
    )


# ---------------------------------------------------------------------------
# Pose-bin skew.
# ---------------------------------------------------------------------------

def gen_pose_bias(
    n: int,
    n_classes: int,
    skew: float,
    seed: int,
    d_s: int = 12,
    d_b: int = 4,
    class_sep: float = 3.0,
    scale_sigma: float = 0.6,
) -> DataBundle:
    """Continuous scale scalar, binned by train terciles; top bin is skewed.

    Inside bin 2, a sample's class is drawn from a favored subset with
    probability skew, else uniformly. skew=0 recovers a uniform table.
    The standardized scale is appended as the last b feature; group := bin.
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    if not 0.0 <= skew <= 1.0:
        raise ValueError(f"skew={skew} outside [0, 1]")
    if n < 30:
        raise ValueError("need n >= 30 for three populated bins per split")

    rng = np.random.default_rng(seed)
    means = _class_means(n_classes, d_s, class_sep)
    favored = list(range(max(1, n_classes // 4)))

    n_tr, n_va, n_te = split_sizes(n)
    scales = {
        "train": rng.lognormal(mean=0.0, sigma=scale_sigma, size=n_tr),
        "val": rng.lognormal(mean=0.0, sigma=scale_sigma, size=n_va),
        "test": rng.lognormal(mean=0.0, sigma=scale_sigma, size=n_te),
    }
    cuts = np.quantile(scales["train"], [1.0 / 3.0, 2.0 / 3.0])
    mu, sd = float(scales["train"].mean()), float(scales["train"].std())

    splits: dict[str, list[Sample]] = {"train": [], "val": [], "test": []}
    for split_name in SPLITS:
        for raw_scale in scales[split_name]:
            bin_id = int(np.searchsorted(cuts, raw_scale, side="right"))
            if bin_id == 2 and rng.uniform() < skew:
                label = int(rng.choice(favored))
            else:
                label = int(rng.integers(0, n_classes))
            s = means[label] + rng.normal(size=d_s)
            b = np.append(rng.normal(size=d_b - 1), (raw_scale - mu) / sd)
            splits[split_name].append(Sample(s, b, label, bin_id, bin_id == 2))

    forget_idx = np.array(
        [i for i, smp in enumerate(splits["train"]) if smp.group == 2], dtype=np.int64
    )
    return DataBundle(
        kind="pose", d_s=d_s, d_b=d_b, n_classes=n_classes,
        train=splits["train"], val=splits["val"], test=splits["test"],
        forget_idx=forget_idx, seed=seed,
        meta={
            "skew": skew, "favored_classes": favored,
            "scale_cuts": [float(c) for c in cuts],
            "scale_mean": mu, "scale_std": sd,
        },
    )


# ---------------------------------------------------------------------------
# Counterfactuals.
# ---------------------------------------------------------------------------

def build_counterfactual(bundle: DataBundle, mode: str, seed: int) -> list[Sample]:
    """Counterfactual set D_c derived from the bundle; also attached to it.

    mask_patch (patch bundles): bit-exact s, fresh noise in place of the
    marker, labels kept. rebalance_bins (pose bundles): resample train
    samples to uniform bin marginals, (s, label) untouched.
    """
    rng = np.random.default_rng(seed)
    if mode == "mask_patch":
        if bundle.kind != "patch":
            raise ValueError(f"mask_patch requires a patch bundle, got {bundle.kind!r}")
        d_c = []
        for smp in forget_samples(bundle):
            d_c.append(
                Sample(smp.s.copy(), rng.normal(size=bundle.d_b), smp.label, 0, False)
            )
    elif mode == "rebalance_bins":
        if bundle.kind != "pose":
            raise ValueError(f"rebalance_bins requires a pose bundle, got {bundle.kind!r}")
        per_bin = len(bundle.train) // 3
        d_c = []
        for bin_id in range(3):
            members = [smp for smp in bundle.train if smp.group == bin_id]
            if not members:
                raise ValueError(f"bin {bin_id} is empty; cannot rebalance")
            picks = rng.integers(0, len(members), size=per_bin)
            for j in picks:
                src = members[j]
                d_c.append(Sample(src.s.copy(), src.b.copy(), src.label, src.group, src.bias_flag))
    else:
        raise ValueError(f"unknown counterfactual mode {mode!r}")
    bundle.counterfactual = d_c
    return d_c


# ---------------------------------------------------------------------------
# Columnar serialization.
# ---------------------------------------------------------------------------

def save_bundle(bundle: DataBundle, path) -> None:
    """Write the columnar sample table and a JSON sidecar with generator identity."""
    path = Path(path)
    cols = (
        [f"s_{i}" for i in range(bundle.d_s)]
        + [f"b_{i}" for i in range(bundle.d_b)]
        + ["label", "group", "bias_flag", "split", "forget"]
    )
    forget_set = set(int(i) for i in bundle.forget_idx)
    lines = [",".join(cols)]
    for split_name in SPLITS:
        for i, smp in enumerate(bundle.split(split_name)):
            in_forget = split_name == "train" and i in forget_set
            row = (
                [repr(float(v)) for v in smp.s]
                + [repr(float(v)) for v in smp.b]
                + [str(smp.label), str(smp.group), str(int(smp.bias_flag)),
                   split_name, str(int(in_forget))]
            )
            lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")
    sidecar = {
        "kind": bundle.kind, "d_s": bundle.d_s, "d_b": bundle.d_b,
        "n_classes": bundle.n_classes, "seed": bundle.seed, "meta": bundle.meta,
    }
    Path(str(path) + ".meta.json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_bundle(path) -> DataBundle:
    path = Path(path)
    sidecar_path = Path(str(path) + ".meta.json")
    if not sidecar_path.exists():
        raise ValueError(f"bundle sidecar {sidecar_path} is missing")
    sidecar = json.loads(sidecar_path.read_text())
    d_s, d_b = int(sidecar["d_s"]), int(sidecar["d_b"])

    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    expected = (
        [f"s_{i}" for i in range(d_s)] + [f"b_{i}" for i in range(d_b)]
        + ["label", "group", "bias_flag", "split", "forget"]
    )
    if header != expected:
        raise ValueError(f"bundle {path}: header does not match sidecar dimensions")

    splits: dict[str, list[Sample]] = {"train": [], "val": [], "test": []}
    forget_idx = []
    for line in lines[1:]:
        parts = line.split(",")
        s = np.array([float(v) for v in parts[:d_s]])
        b = np.array([float(v) for v in parts[d_s : d_s + d_b]])
        label, group, flag = int(parts[-5]), int(parts[-4]), bool(int(parts[-3]))
        split_name, forget = parts[-2], bool(int(parts[-1]))
        if split_name not in SPLITS:
            raise ValueError(f"bundle {path}: unknown split {split_name!r}")
        if forget:
            if split_name != "train":
                raise ValueError(f"bundle {path}: forget=1 on a {split_name} row")
            forget_idx.append(len(splits["train"]))
        splits[split_name].append(Sample(s, b, label, group, flag))

    return DataBundle(
        kind=sidecar["kind"], d_s=d_s, d_b=d_b, n_classes=int(sidecar["n_classes"]),
        train=splits["train"], val=splits["val"], test=splits["test"],
        forget_idx=np.array(forget_idx, dtype=np.int64), seed=int(sidecar["seed"]),
        meta=sidecar.get("meta", {}),
    )
