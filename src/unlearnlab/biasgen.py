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
  Its row loop makes only the per-row draws (skew coin, label, normals),
  whose interleaving fixes the bytes; the rest is array work per split.

Each kind is one Scenario record in SCENARIOS, so adding a kind takes a
gen_* function and one record.

Splits are 70/10/20 with floor rounding. Each split is a numpy record array
(see rows): split[i].s is one sample's s, split.s the whole split's. D_f is
a set of train indices; D_r is its complement. Bundles serialize to a
columnar text file (one header line, one row per sample) plus a JSON sidecar
for the generator identity, and round-trip losslessly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

SPLITS = ("train", "val", "test")


def rows(s, b, label, group, bias_flag) -> np.recarray:
    """A record array with one record per sample: fields s (d_s floats),
    b (d_b floats), label, group and bias_flag."""
    s, b = np.asarray(s, dtype=np.float64), np.asarray(b, dtype=np.float64)
    out = np.recarray(len(s), dtype=[
        ("s", np.float64, s.shape[1:]), ("b", np.float64, b.shape[1:]),
        ("label", np.int64), ("group", np.int64), ("bias_flag", np.bool_),
    ])
    out.s, out.b, out.label, out.group, out.bias_flag = s, b, label, group, bias_flag
    return out


@dataclass
class DataBundle:
    kind: str
    d_s: int
    d_b: int
    n_classes: int
    train: np.recarray
    val: np.recarray
    test: np.recarray
    forget_idx: np.ndarray
    seed: int
    meta: dict = field(default_factory=dict)

    @property
    def retain_idx(self) -> np.ndarray:
        return np.setdiff1d(np.arange(len(self.train)), self.forget_idx)

    def split(self, name: str) -> np.recarray:
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)


def stack(samples):
    """(X, y, groups, flags) arrays for a record array or one record;
    X is [s | b] per row."""
    samples = np.atleast_1d(samples)
    X = np.concatenate([samples["s"], samples["b"]], axis=1)
    return X, samples["label"].copy(), samples["group"].copy(), samples["bias_flag"].copy()


def forget_samples(bundle: DataBundle) -> np.recarray:
    return bundle.train[bundle.forget_idx]


def retain_samples(bundle: DataBundle) -> np.recarray:
    return bundle.train[bundle.retain_idx]


def split_sizes(n: int) -> tuple[int, int, int]:
    """70/10/20 with floor rounding; the test split absorbs the remainder."""
    n_train = int(np.floor(0.7 * n))
    n_val = int(np.floor(0.1 * n))
    return n_train, n_val, n - n_train - n_val


def _require_finite(**params: float) -> None:
    for key, value in params.items():
        if not np.isfinite(value):
            raise ValueError(f"{key}={value} must be finite")


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
    patch_fraction: float,
    marker_value: float,
    seed: int,
    d_s: int = 16,
    d_b: int = 2,
    class_sep: float = 5.0,
    confuser_class: int | None = None,
    confuser_scale: float = 2.0,
) -> DataBundle:
    """Marker shortcut: floor(patch_fraction * n_train_target) flagged
    target-class train rows.

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
    _require_finite(patch_fraction=patch_fraction, marker_value=marker_value,
                    class_sep=class_sep, confuser_scale=confuser_scale)
    if not 0.0 <= patch_fraction <= 1.0:
        raise ValueError(f"patch_fraction={patch_fraction} outside [0, 1]")
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

    blocks: dict[str, list] = {name: [] for name in SPLITS}
    for c in range(n_classes):
        for split_name in SPLITS:
            count = per_class[split_name][c]
            s_noise = rng.normal(size=(count, d_s))
            b_noise = rng.normal(size=(count, d_b))
            blocks[split_name].append(rows(means[c] + s_noise, b_noise, c, 0, False))
    splits = {name: np.concatenate(parts).view(np.recarray) for name, parts in blocks.items()}

    # Flag floor(fraction * n) target rows of train and of test: re-center
    # their s-noise on the displaced confuser mean and overwrite b.
    for split, fraction in ((splits["train"], patch_fraction), (splits["test"], 0.5)):
        target = np.flatnonzero(split.label == target_class)
        idx = target[rng.choice(len(target), size=int(np.floor(fraction * len(target))),
                                replace=False)]
        split.s[idx] = split.s[idx] - means[target_class] + confuser_scale * means[confuser_class]
        split.b[idx], split.group[idx], split.bias_flag[idx] = marker_value, 1, True

    return DataBundle(
        kind="patch", d_s=d_s, d_b=d_b, n_classes=n_classes,
        train=splits["train"], val=splits["val"], test=splits["test"],
        forget_idx=np.flatnonzero(splits["train"].bias_flag), seed=seed,
        meta={
            "target_class": target_class, "confuser_class": confuser_class,
            "p": patch_fraction, "marker_value": float(marker_value),
            "class_sep": class_sep, "confuser_scale": confuser_scale,
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
    _require_finite(corr_ratio=corr_ratio, label_sep=label_sep, group_sep=group_sep)
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

    splits = {}
    for split_name, part in zip(SPLITS, split_sizes(n)):
        half = part // 2
        counts = _cell_counts(half, part - half, corr_ratio)
        blocks = []
        for (g, y), count in sorted(counts.items()):
            s_noise = rng.normal(size=(count, d_s))
            b_noise = rng.normal(size=(count, d_b))
            blocks.append(rows((2 * y - 1) * label_sep * u_label + s_noise,
                               (1 - 2 * g) * group_sep * u_group + b_noise,
                               y, g, g == 0 and y == 1))
        splits[split_name] = np.concatenate(blocks).view(np.recarray)

    return DataBundle(
        kind="attribute", d_s=d_s, d_b=d_b, n_classes=2,
        train=splits["train"], val=splits["val"], test=splits["test"],
        forget_idx=np.flatnonzero(splits["train"].bias_flag), seed=seed,
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

    One generator stream feeds everything: first the lognormal scales of all
    three splits, then, row by row, a top-bin row's skew coin, the label, and
    d_s + d_b - 1 standard normals (s noise, then b noise). Whether a row
    draws a coin depends on its bin, so the draws interleave and the row
    loop keeps them in that order; any other order gives other bytes. Bins,
    means, the scale column and the record arrays are built per split.
    """
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    _require_finite(skew=skew, class_sep=class_sep, scale_sigma=scale_sigma)
    if not 0.0 <= skew <= 1.0:
        raise ValueError(f"skew={skew} outside [0, 1]")
    if scale_sigma <= 0.0:
        raise ValueError(f"scale_sigma={scale_sigma} must be > 0 to spread the scale bins")
    if d_b < 1:
        raise ValueError(f"d_b={d_b} must be >= 1 to hold the scale feature")
    if n < 30:
        raise ValueError("need n >= 30 for three populated bins per split")

    rng = np.random.default_rng(seed)
    means = _class_means(n_classes, d_s, class_sep)
    favored = list(range(max(1, n_classes // 4)))

    scales = {name: rng.lognormal(mean=0.0, sigma=scale_sigma, size=size)
              for name, size in zip(SPLITS, split_sizes(n))}
    cuts = np.quantile(scales["train"], [1.0 / 3.0, 2.0 / 3.0])
    mu, sd = float(scales["train"].mean()), float(scales["train"].std())
    if not sd > 0.0:
        raise ValueError(f"scale_sigma={scale_sigma} leaves the train scales without spread")

    splits = {}
    for split_name in SPLITS:
        raw = scales[split_name]
        bins = np.searchsorted(cuts, raw, side="right")
        labels = np.empty(len(raw), np.int64)
        Z = np.empty((len(raw), d_s + d_b - 1))
        for i, bin_id in enumerate(bins.tolist()):
            if bin_id == 2 and rng.random() < skew:
                labels[i] = favored[rng.integers(0, len(favored))]
            else:
                labels[i] = rng.integers(0, n_classes)
            rng.standard_normal(out=Z[i])
        B = np.column_stack([Z[:, d_s:], (raw - mu) / sd])
        splits[split_name] = rows(means[labels] + Z[:, :d_s], B, labels, bins, bins == 2)

    return DataBundle(
        kind="pose", d_s=d_s, d_b=d_b, n_classes=n_classes,
        train=splits["train"], val=splits["val"], test=splits["test"],
        forget_idx=np.flatnonzero(splits["train"].bias_flag), seed=seed,
        meta={
            "skew": skew, "favored_classes": favored,
            "scale_cuts": [float(c) for c in cuts],
            "scale_mean": mu, "scale_std": sd,
        },
    )


# ---------------------------------------------------------------------------
# Counterfactuals.
# ---------------------------------------------------------------------------

def _mask_patch(bundle: DataBundle, rng: np.random.Generator) -> np.recarray:
    """Forget rows in order: bit-exact s, fresh b noise, labels kept."""
    forget = forget_samples(bundle)
    return rows(forget.s, rng.normal(size=(len(forget), bundle.d_b)), forget.label, 0, False)


def _rebalance_bins(bundle: DataBundle, rng: np.random.Generator) -> np.recarray:
    """Train rows resampled to uniform bin marginals, (s, label) untouched."""
    per_bin = len(bundle.train) // 3
    picks = []
    for bin_id in range(3):
        members = np.flatnonzero(bundle.train.group == bin_id)
        if not len(members):
            raise ValueError(f"bin {bin_id} is empty; cannot rebalance")
        picks.append(members[rng.integers(0, len(members), size=per_bin)])
    return bundle.train[np.concatenate(picks)]


def build_counterfactual(bundle: DataBundle, seed: int) -> np.recarray:
    """D_c by the bundle's scenario recipe."""
    recipe = SCENARIOS[bundle.kind].counterfactual
    if recipe is None:
        raise ValueError(f"no counterfactual recipe for {bundle.kind!r} bundles")
    return recipe(bundle, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# Scenario records.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One kind of bundle. generator names its gen_* function, looked up on
    this module at each call. Its parameters other than seed are the
    [scenario] keys, required unless defaulted; without an n_classes
    parameter the task is binary. Group metrics binarize classes by
    membership in positive_classes(meta) and groups by equality with
    sensitive_group; eo_policy is equalized_odds_gap's on_missing policy.
    counterfactual(bundle, rng) builds FMD's D_c. paired_counterfactual:
    row i of D_c is forget row i with its bias block altered."""

    generator: str
    positive_classes: Callable[[dict], list]
    sensitive_group: int
    eo_policy: str
    counterfactual: Callable[[DataBundle, np.random.Generator], np.recarray] | None = None
    paired_counterfactual: bool = False

    @property
    def generate(self) -> Callable[..., DataBundle]:
        return globals()[self.generator]


SCENARIOS = {
    # The flagged group never carries negative labels, so strict EO would refuse.
    "patch": Scenario("gen_patch_bias", lambda meta: [meta["target_class"]], 1,
                      "available", _mask_patch, paired_counterfactual=True),
    "attribute": Scenario("gen_attribute_bias", lambda meta: [1], 1, "raise"),
    # Groups are scale bins {0, 1, 2}; the sensitive attribute is the top bin.
    "pose": Scenario("gen_pose_bias", lambda meta: meta["favored_classes"], 2,
                     "raise", _rebalance_bins),
}


# ---------------------------------------------------------------------------
# Columnar serialization.
# ---------------------------------------------------------------------------

def bundle_header(d_s: int, d_b: int) -> list[str]:
    """The bundle.csv column names: the features, then the per-row fields."""
    return ([f"s_{i}" for i in range(d_s)] + [f"b_{i}" for i in range(d_b)]
            + ["label", "group", "bias_flag", "split", "forget"])


def save_bundle(bundle: DataBundle, path) -> None:
    """Write the columnar sample table and a JSON sidecar with generator identity."""
    path = Path(path)
    lines = [",".join(bundle_header(bundle.d_s, bundle.d_b))]
    for split_name in SPLITS:
        part = bundle.split(split_name)
        forget = np.zeros(len(part), dtype=np.int64)
        if split_name == "train":
            forget[bundle.forget_idx] = 1
        tails = zip(part.label.tolist(), part.group.tolist(),
                    part.bias_flag.astype(np.int64).tolist(), forget.tolist())
        # .tolist() yields python floats, whose repr is repr(float(v)).
        for x, (label, group, flag, in_forget) in zip(stack(part)[0].tolist(), tails):
            lines.append(f"{','.join(map(repr, x))},{label},{group},{flag},"
                         f"{split_name},{in_forget}")
    path.write_text("\n".join(lines) + "\n")
    sidecar = {
        "kind": bundle.kind, "d_s": bundle.d_s, "d_b": bundle.d_b,
        "n_classes": bundle.n_classes, "seed": bundle.seed, "meta": bundle.meta,
    }
    Path(str(path) + ".meta.json").write_text(json.dumps(sidecar, indent=2) + "\n")


def load_bundle(path) -> DataBundle:
    """Read a bundle written by save_bundle. Malformed input (a sidecar key
    missing or mistyped, a short or long row, a bad or non-finite cell, a
    label outside the classes, a flag not 0/1) raises ValueError naming the file."""
    path = Path(path)
    sidecar_path = Path(str(path) + ".meta.json")
    if not sidecar_path.exists():
        raise ValueError(f"bundle sidecar {sidecar_path} is missing")
    try:
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"bundle sidecar {sidecar_path}: {e}") from e
    for key, kind in {"kind": str, "d_s": int, "d_b": int, "n_classes": int, "seed": int,
                      "meta": dict}.items():
        value = sidecar.get(key) if isinstance(sidecar, dict) else None
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"bundle sidecar {sidecar_path}: {key!r} is missing "
                             f"or not a {kind.__name__}")
    if sidecar["kind"] not in SCENARIOS:
        raise ValueError(f"bundle {path}: unknown scenario kind {sidecar['kind']!r}")
    d_s, d_b, n_classes = sidecar["d_s"], sidecar["d_b"], sidecar["n_classes"]
    if d_s < 1 or d_b < 0 or n_classes < 2:
        raise ValueError(f"bundle sidecar {sidecar_path}: need d_s >= 1, d_b >= 0 "
                         "and n_classes >= 2")

    try:
        lines = path.read_text(encoding="utf-8").strip().split("\n")
    except UnicodeDecodeError as e:
        raise ValueError(f"bundle {path}: {e}") from e
    if lines[0].split(",") != bundle_header(d_s, d_b):
        raise ValueError(f"bundle {path}: header does not match sidecar dimensions")
    d = d_s + d_b
    table = [line.split(",") for line in lines[1:]]
    for number, cells in enumerate(table, start=2):
        if len(cells) != d + 5:
            raise ValueError(f"bundle {path}: line {number} has {len(cells)} cells, "
                             f"expected {d + 5}")
    split_of = np.array([cells[-2] for cells in table], dtype=str)
    try:
        values = np.array([cells[:d] for cells in table], dtype=np.float64).reshape(-1, d)
        label, group, flag, forget = np.array(
            [cells[d:-2] + cells[-1:] for cells in table], dtype=np.int64).reshape(-1, 4).T
    except (ValueError, OverflowError) as e:
        raise ValueError(f"bundle {path}: {e}") from e
    unknown = sorted(set(split_of.tolist()) - set(SPLITS))
    if unknown:
        raise ValueError(f"bundle {path}: unknown split {unknown[0]!r}")
    if not np.isfinite(values).all():
        raise ValueError(f"bundle {path}: non-finite feature cell")
    if ((label < 0) | (label >= n_classes)).any():
        raise ValueError(f"bundle {path}: label outside [0, {n_classes})")
    if not np.isin(np.concatenate([flag, forget]), (0, 1)).all():
        raise ValueError(f"bundle {path}: bias_flag and forget cells must be 0 or 1")
    misplaced = split_of[(forget == 1) & (split_of != "train")]
    if len(misplaced):
        raise ValueError(f"bundle {path}: forget=1 on a {misplaced[0]} row")

    splits = {}
    for name in SPLITS:
        at = split_of == name
        splits[name] = rows(values[at, :d_s], values[at, d_s:], label[at], group[at], flag[at] == 1)
    return DataBundle(
        kind=sidecar["kind"], d_s=d_s, d_b=d_b, n_classes=n_classes,
        train=splits["train"], val=splits["val"], test=splits["test"],
        forget_idx=np.flatnonzero(forget[split_of == "train"]),
        seed=sidecar["seed"], meta=sidecar["meta"],
    )
