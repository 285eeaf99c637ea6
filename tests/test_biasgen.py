"""Generator tests. Count-based claims are checked with direct tallies, the
pose skew with a plug-in mutual information estimate, and the shortcut
properties by actually training small models on the generated bundles."""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unlearnlab import biasgen as bg
from unlearnlab import harness as hn
from unlearnlab import model as md

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------

def mutual_information_nats(a: np.ndarray, b: np.ndarray) -> float:
    """Plug-in MI of two discrete vectors from their contingency table."""
    a_vals, b_vals = np.unique(a), np.unique(b)
    n = len(a)
    mi = 0.0
    for av in a_vals:
        pa = float((a == av).mean())
        for bv in b_vals:
            pab = float(((a == av) & (b == bv)).mean())
            if pab > 0.0:
                pb = float((b == bv).mean())
                mi += pab * np.log(pab / (pa * pb))
    return mi


def fit(bundle, samples, epochs=40, lr=3e-3, seed=0, hidden=32):
    X, y, _, _ = bg.stack(samples)
    m = md.init_model([bundle.d_s + bundle.d_b, hidden, bundle.n_classes], "softmax", seed)
    md.train(m, (X, y), md.TrainConfig(epochs=epochs, batch_size=64, learning_rate=lr, seed=seed))
    return m


def accuracy(m, samples):
    X, y, _, _ = bg.stack(samples)
    return float((md.predict(m, X) == y).mean())


# ---------------------------------------------------------------------------
# Split arithmetic.
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "bundle",
    [
        bg.gen_patch_bias(301, 5, 2, 0.5, 3.0, seed=0),
        bg.gen_attribute_bias(2003, 6.0, seed=1),
        bg.gen_pose_bias(1001, 4, 0.8, seed=2),
    ],
    ids=["patch", "attribute", "pose"],
)
def test_split_fractions_within_one_sample(bundle):
    n = len(bundle.train) + len(bundle.val) + len(bundle.test)
    assert abs(len(bundle.train) - 0.7 * n) < 1.0 + 1e-9
    assert abs(len(bundle.val) - 0.1 * n) < 1.0 + 1e-9
    assert abs(len(bundle.test) - 0.2 * n) < 1.0 + 1e-9

def test_forget_retain_partition_train():
    bundle = bg.gen_patch_bias(60, 3, 0, 0.5, 3.0, seed=3)
    joined = np.sort(np.concatenate([bundle.forget_idx, bundle.retain_idx]))
    np.testing.assert_array_equal(joined, np.arange(len(bundle.train)))
    assert len(np.intersect1d(bundle.forget_idx, bundle.retain_idx)) == 0


# ---------------------------------------------------------------------------
# Patch marker.
# ---------------------------------------------------------------------------

def test_patch_forget_count_matches_floor_rule():
    # 10 classes x 1000 samples -> 700 target train rows; p=0.5 flags 350.
    bundle = bg.gen_patch_bias(1000, 10, 2, 0.5, 3.0, seed=4)
    target_train = [s for s in bundle.train if s.label == 2]
    assert len(target_train) == 700
    assert len(bundle.forget_idx) == 350

def test_patch_flags_only_target_class_with_marker_block():
    bundle = bg.gen_patch_bias(120, 4, 1, 0.4, 2.5, seed=5)
    for i in bundle.forget_idx:
        smp = bundle.train[i]
        assert smp.label == 1 and smp.group == 1 and smp.bias_flag
        assert np.all(smp.b == 2.5)
    for i in bundle.retain_idx:
        smp = bundle.train[i]
        assert not smp.bias_flag and not np.all(smp.b == 2.5)

def test_patch_test_split_balances_flagged_target_rows():
    bundle = bg.gen_patch_bias(300, 5, 2, 0.5, 3.0, seed=6)
    test_target = [s for s in bundle.test if s.label == 2]
    flagged = sum(s.bias_flag for s in test_target)
    assert flagged == len(test_target) - flagged
    assert all(not s.bias_flag for s in bundle.test if s.label != 2)

def test_patch_p_zero_and_p_one():
    empty = bg.gen_patch_bias(50, 3, 0, 0.0, 3.0, seed=7)
    assert len(empty.forget_idx) == 0
    assert not any(s.bias_flag for s in empty.train)
    full = bg.gen_patch_bias(50, 3, 0, 1.0, 3.0, seed=8)
    target_train = [s for s in full.train if s.label == 0]
    assert len(full.forget_idx) == len(target_train)

def test_patch_validation_errors():
    with pytest.raises(ValueError):
        bg.gen_patch_bias(50, 3, 5, 0.5, 3.0, seed=0)
    with pytest.raises(ValueError):
        bg.gen_patch_bias(50, 3, 0, 1.5, 3.0, seed=0)
    with pytest.raises(ValueError):
        bg.gen_patch_bias(50, 3, 0, 0.5, np.inf, seed=0)

def test_patch_generation_deterministic():
    a = bg.gen_patch_bias(40, 3, 1, 0.5, 3.0, seed=9)
    b = bg.gen_patch_bias(40, 3, 1, 0.5, 3.0, seed=9)
    Xa = bg.stack(a.train)[0]
    Xb = bg.stack(b.train)[0]
    assert Xa.tobytes() == Xb.tobytes()
    np.testing.assert_array_equal(a.forget_idx, b.forget_idx)


# ---------------------------------------------------------------------------
# Attribute correlation.
# ---------------------------------------------------------------------------

def test_attribute_train_cells_realize_ratio_exactly():
    bundle = bg.gen_attribute_bias(2000, 6.0, seed=10)
    y, g = bg.stack(bundle.train)[1], bg.stack(bundle.train)[2]
    assert len(bundle.train) == 1400
    assert int(((g == 0) & (y == 1)).sum()) == 600
    assert int(((g == 1) & (y == 1)).sum()) == 100
    assert int(((g == 0) & (y == 0)).sum()) == 100
    assert int(((g == 1) & (y == 0)).sum()) == 600
    assert len(bundle.forget_idx) == 600

def test_attribute_forget_cell_is_group0_positive():
    bundle = bg.gen_attribute_bias(1000, 4.0, seed=11)
    for i in bundle.forget_idx:
        smp = bundle.train[i]
        assert smp.group == 0 and smp.label == 1 and smp.bias_flag

def test_attribute_balanced_ratio_has_fair_bayes_rule():
    bundle = bg.gen_attribute_bias(4000, 1.0, seed=12)
    u = np.array(bundle.meta["label_direction"])
    X, y, g, _ = bg.stack(bundle.test)
    preds = (X[:, : bundle.d_s] @ u > 0.0).astype(int)
    assert float((preds == y).mean()) > 0.85
    dp = abs(float(preds[g == 0].mean()) - float(preds[g == 1].mean()))
    assert dp <= 0.05

def test_attribute_infeasible_n_reports_minimum():
    with pytest.raises(ValueError) as e:
        bg.gen_attribute_bias(40, 30.0, seed=13)
    assert "minimum feasible n" in str(e.value)
    with pytest.raises(ValueError):
        bg.gen_attribute_bias(1000, 0.5, seed=13)


# ---------------------------------------------------------------------------
# Pose bins.
# ---------------------------------------------------------------------------

def test_pose_train_terciles_within_one():
    bundle = bg.gen_pose_bias(1500, 4, 0.8, seed=14)
    groups = bg.stack(bundle.train)[2]
    n_train = len(bundle.train)
    for bin_id in range(3):
        assert abs(int((groups == bin_id).sum()) - n_train / 3.0) <= 1.0 + 1e-9

def test_pose_skew_moves_mutual_information():
    flat = bg.gen_pose_bias(1500, 4, 0.0, seed=15)
    y, g = bg.stack(flat.train)[1], bg.stack(flat.train)[2]
    assert mutual_information_nats(y, g) <= 0.02

    skewed = bg.gen_pose_bias(1500, 4, 0.8, seed=16)
    y, g = bg.stack(skewed.train)[1], bg.stack(skewed.train)[2]
    assert mutual_information_nats(y, g) > 0.1

def test_pose_forget_set_is_top_bin():
    bundle = bg.gen_pose_bias(600, 3, 0.5, seed=17)
    for i in bundle.forget_idx:
        assert bundle.train[i].group == 2 and bundle.train[i].bias_flag
    for i in bundle.retain_idx:
        assert bundle.train[i].group in (0, 1)

def test_pose_scale_is_last_b_feature():
    bundle = bg.gen_pose_bias(600, 3, 0.5, seed=18)
    scales = np.array([s.b[-1] for s in bundle.train])
    assert abs(float(scales.mean())) < 1e-9 + 1e-6
    assert float(scales.std()) == pytest.approx(1.0, abs=1e-6)
    order = np.argsort(scales)
    groups = np.array([bundle.train[i].group for i in order])
    assert np.all(np.diff(groups) >= 0)


def pose_rows_one_at_a_time(n, n_classes, skew, seed, d_s, d_b, class_sep, scale_sigma):
    """Reference: the pose splits built row by row with the generator's
    original calls (uniform, choice, two normal draws per row)."""
    rng = np.random.default_rng(seed)
    means = np.eye(n_classes, d_s) * class_sep
    favored = list(range(max(1, n_classes // 4)))
    scales = [rng.lognormal(mean=0.0, sigma=scale_sigma, size=size)
              for size in bg.split_sizes(n)]
    cuts = np.quantile(scales[0], [1.0 / 3.0, 2.0 / 3.0])
    mu, sd = float(scales[0].mean()), float(scales[0].std())
    out = []
    for split in scales:
        S, B, labels, bins = [], [], [], []
        for raw in split:
            bin_id = int(np.searchsorted(cuts, raw, side="right"))
            if bin_id == 2 and rng.uniform() < skew:
                label = int(rng.choice(favored))
            else:
                label = int(rng.integers(0, n_classes))
            S.append(means[label] + rng.normal(size=d_s))
            B.append(np.append(rng.normal(size=d_b - 1), (raw - mu) / sd))
            labels.append(label)
            bins.append(bin_id)
        out.append((np.array(S), np.array(B), np.array(labels), np.array(bins)))
    return out


@pytest.mark.parametrize("n,n_classes,skew,d_s,d_b,class_sep,scale_sigma", [
    (300, 4, 0.9, 12, 4, 2.0, 0.6),
    (450, 8, 0.7, 12, 3, 3.0, 0.6),
    (200, 3, 1.0, 5, 1, 1.5, 0.2),
    (333, 12, 0.5, 12, 2, 3.0, 1.3),
    (120, 2, 0.0, 2, 6, 0.5, 2.0),
])
def test_pose_bundle_is_bitwise_the_row_by_row_reference(
        n, n_classes, skew, d_s, d_b, class_sep, scale_sigma):
    params = dict(n=n, n_classes=n_classes, skew=skew, d_s=d_s, d_b=d_b,
                  class_sep=class_sep, scale_sigma=scale_sigma)
    bundle = bg.gen_pose_bias(seed=23, **params)
    for split, (S, B, labels, bins) in zip(bg.SPLITS, pose_rows_one_at_a_time(seed=23, **params)):
        got = bundle.split(split)
        assert got.s.tobytes() == S.tobytes() and got.b.tobytes() == B.tobytes()
        np.testing.assert_array_equal(got.label, labels)
        np.testing.assert_array_equal(got.group, bins)
        np.testing.assert_array_equal(got.bias_flag, bins == 2)


# ---------------------------------------------------------------------------
# Counterfactuals.
# ---------------------------------------------------------------------------

def test_mask_patch_preserves_s_bit_exactly_and_drops_marker():
    bundle = bg.gen_patch_bias(100, 4, 0, 0.5, 3.0, seed=19)
    d_c = bg.build_counterfactual(bundle, seed=20)
    forget = bg.forget_samples(bundle)
    assert len(d_c) == len(forget)
    for cf, orig in zip(d_c, forget):
        assert cf.s.tobytes() == orig.s.tobytes()
        assert cf.label == orig.label
        assert not np.any(cf.b == 3.0)

def test_rebalance_bins_uniform_marginals_with_original_pairs():
    bundle = bg.gen_pose_bias(900, 3, 0.7, seed=21)
    d_c = bg.build_counterfactual(bundle, seed=22)
    per_bin = len(bundle.train) // 3
    for bin_id in range(3):
        count = sum(1 for s in d_c if s.group == bin_id)
        assert abs(count - len(d_c) / 3.0) <= 1.0 + 1e-9
        assert count == per_bin
    train_keys = {(s.s.tobytes(), s.label) for s in bundle.train}
    assert all((s.s.tobytes(), s.label) in train_keys for s in d_c)

def test_counterfactual_mode_compatibility():
    # The recipe follows the bundle's kind; attribute bundles have none.
    attribute = bg.gen_attribute_bias(500, 3.0, seed=23)
    with pytest.raises(ValueError, match="no counterfactual recipe"):
        bg.build_counterfactual(attribute, seed=0)
    assert not hasattr(attribute, "counterfactual")
    patch = bg.gen_patch_bias(50, 3, 0, 0.5, 3.0, seed=24)
    assert len(bg.build_counterfactual(patch, seed=0)) == len(patch.forget_idx)


# ---------------------------------------------------------------------------
# Serialization.
# ---------------------------------------------------------------------------

def test_bundle_roundtrip_lossless(tmp_path):
    bundle = bg.gen_patch_bias(60, 3, 1, 0.5, 3.0, seed=25)
    p = tmp_path / "bundle.csv"
    bg.save_bundle(bundle, p)
    loaded = bg.load_bundle(p)
    assert loaded.kind == "patch" and loaded.n_classes == 3
    np.testing.assert_array_equal(loaded.forget_idx, bundle.forget_idx)
    for split in ("train", "val", "test"):
        a, b = bundle.split(split), loaded.split(split)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert sa.s.tobytes() == sb.s.tobytes()
            assert sa.b.tobytes() == sb.b.tobytes()
            assert (sa.label, sa.group, sa.bias_flag) == (sb.label, sb.group, sb.bias_flag)

def test_bundle_cells_are_float_reprs(tmp_path):
    bundle = bg.gen_pose_bias(100, 3, 0.5, seed=28)
    p = tmp_path / "bundle.csv"
    bg.save_bundle(bundle, p)
    rows = p.read_text().splitlines()[1:]
    samples = [smp for split in (bundle.train, bundle.val, bundle.test) for smp in split]
    assert len(rows) == len(samples)
    for row, smp in zip(rows, samples):
        cells = row.split(",")[: bundle.d_s + bundle.d_b]
        assert cells == [repr(float(v)) for v in np.concatenate([smp.s, smp.b])]

@pytest.mark.parametrize(
    "samples",
    [
        bg.gen_patch_bias(30, 3, 0, 0.5, 2.5, seed=29).train,
        bg.gen_attribute_bias(200, 3.0, seed=30).test,
        bg.build_counterfactual(bg.gen_pose_bias(90, 3, 0.5, seed=31), seed=32),
        bg.gen_patch_bias(30, 3, 0, 0.5, 2.5, seed=29).train[:1],
    ],
    ids=["patch-train", "attribute-test", "pose-counterfactual", "one-row"],
)
def test_stack_is_bitwise_the_per_row_stack(samples):
    X, y, g, f = bg.stack(samples)
    expected = np.stack([np.concatenate([smp.s, smp.b]) for smp in samples])
    assert X.dtype == expected.dtype and X.shape == expected.shape
    assert X.tobytes() == expected.tobytes()
    assert y.tolist() == [smp.label for smp in samples]
    assert g.tolist() == [smp.group for smp in samples]
    assert f.tolist() == [smp.bias_flag for smp in samples]

def test_stack_of_one_record_is_its_one_row_slice():
    train = bg.gen_attribute_bias(200, 3.0, seed=30).train
    for got, want in zip(bg.stack(train[5]), bg.stack(train[5:6])):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

def test_stack_of_no_samples_is_empty():
    X, y, g, f = bg.stack(bg.rows(np.zeros((0, 0)), np.zeros((0, 0)), [], [], []))
    assert (X.shape, y.shape, g.shape, f.shape) == ((0, 0), (0,), (0,), (0,))
    assert (X.dtype, f.dtype) == (np.float64, np.bool_)

def test_bundle_file_bytes_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    bg.save_bundle(bg.gen_attribute_bias(300, 2.0, seed=26), p1)
    bg.save_bundle(bg.gen_attribute_bias(300, 2.0, seed=26), p2)
    assert p1.read_bytes() == p2.read_bytes()

def test_bundle_missing_sidecar_rejected(tmp_path):
    bundle = bg.gen_pose_bias(100, 3, 0.5, seed=27)
    p = tmp_path / "bundle.csv"
    bg.save_bundle(bundle, p)
    (tmp_path / "bundle.csv.meta.json").unlink()
    with pytest.raises(ValueError, match="sidecar"):
        bg.load_bundle(p)

def test_bundle_unknown_kind_rejected(tmp_path):
    p = tmp_path / "bundle.csv"
    bg.save_bundle(bg.gen_pose_bias(100, 3, 0.5, seed=27), p)
    sidecar = tmp_path / "bundle.csv.meta.json"
    sidecar.write_text(sidecar.read_text().replace('"pose"', '"wavelength"'))
    with pytest.raises(ValueError, match=f"bundle {p}: unknown scenario kind 'wavelength'"):
        bg.load_bundle(p)

@pytest.mark.parametrize("split", ["val", "test"])
def test_bundle_forget_flag_outside_train_rejected(tmp_path, split):
    bundle = bg.gen_pose_bias(100, 3, 0.5, seed=27)
    p = tmp_path / "bundle.csv"
    bg.save_bundle(bundle, p)
    lines = p.read_text().split("\n")
    row = next(i for i, line in enumerate(lines) if line.endswith(f",{split},0"))
    lines[row] = lines[row][: -len("0")] + "1"
    p.write_text("\n".join(lines))
    with pytest.raises(ValueError, match=f"bundle {p}: forget=1 on a {split} row"):
        bg.load_bundle(p)


def _first_row(edit):
    """A bundle.csv edit that rewrites the first data row's cells."""
    def apply(text):
        header, row, rest = text.split("\n", 2)
        return "\n".join([header, ",".join(edit(row.split(","))), rest])
    return apply

def _sidecar(edit):
    """A sidecar edit on the parsed JSON object."""
    return lambda text: json.dumps(edit(json.loads(text)))

@pytest.mark.parametrize(
    "suffix, edit",
    [
        ("", _first_row(lambda cells: cells[3:])),
        ("", _first_row(lambda cells: cells + ["0"])),
        ("", _first_row(lambda cells: ["abc"] + cells[1:])),
        ("", _first_row(lambda cells: ["nan"] + cells[1:])),
        ("", _first_row(lambda cells: cells[:-1] + ["7"])),
        ("", _first_row(lambda cells: cells[:-3] + ["2"] + cells[-2:])),
        ("", _first_row(lambda cells: cells[:-5] + ["3"] + cells[-4:])),
        (".meta.json", _sidecar(lambda meta: {k: v for k, v in meta.items() if k != "seed"})),
        (".meta.json", _sidecar(lambda meta: {**meta, "d_s": str(meta["d_s"])})),
        (".meta.json", lambda text: text[: len(text) // 2]),
        (".meta.json", lambda text: "[]"),
    ],
    ids=["short-row", "long-row", "text-cell", "nan-cell", "forget-7", "bias-flag-2",
         "label-out-of-range", "sidecar-missing-key", "sidecar-wrong-type",
         "sidecar-invalid-json", "sidecar-not-object"],
)
def test_bundle_malformed_input_rejected_naming_the_file(tmp_path, suffix, edit):
    p = tmp_path / "bundle.csv"
    bg.save_bundle(bg.gen_pose_bias(100, 3, 0.5, seed=27), p)
    target = Path(str(p) + suffix)
    target.write_text(edit(target.read_text()))
    with pytest.raises(ValueError, match=re.escape(str(target))):
        bg.load_bundle(p)

@given(st.data())
@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_bundle_truncated_anywhere_loads_whole_rows_or_is_rejected(tmp_path, data):
    """A cut file either loads as the rows it still holds whole (re-saving
    them gives the cut bytes back) or raises ValueError naming the file,
    never another exception."""
    p = tmp_path / "cut.csv"
    bg.save_bundle(bg.gen_pose_bias(40, 3, 0.5, seed=40), p)
    suffix = data.draw(st.sampled_from(["", ".meta.json"]))
    target = Path(str(p) + suffix)
    raw, full = target.read_bytes(), p.read_bytes()
    cut = data.draw(st.integers(0, len(raw) - 1))
    target.write_bytes(raw[:cut])
    try:
        loaded = bg.load_bundle(p)
    except ValueError as e:
        assert str(target) in str(e)
        return
    again = tmp_path / "again.csv"
    bg.save_bundle(loaded, again)
    kept = again.read_bytes()
    assert full.startswith(kept)
    assert len(kept) in ((cut, cut + 1) if not suffix else (len(full),))

# sha256 of each shipped config's seed-1 bundle.csv and sidecar, and of the
# stacked (X, y, groups, flags) bytes of its D_c, as the per-sample
# generators wrote them.
BUNDLE_DIGESTS = {
    "patch": ("fd7908c2902d5269281f1d36008a3c4fbff5326e1441ca11787a4236066662a3",
              "a02a59a6012ce044fde0ee7cfb12f61c6fb09fbfb237c0d6d05c2d461494a6dd"),
    "attribute": ("45c4a275d0eaaedd0bc61d32d60e8d769fc75fd86845f7d02be04041e6c8d25c",
                  "dd8959c62ca6d523437419fb8b06e8f87ee3643995a3e27bcf8d0860c09b55e4"),
    "pose": ("7c25c8b30b3a49833cca9dbc24c76586ab98d5bc10d3fd5b7162de6275600966",
             "11054300f3d03d8aa2183799aa198f66148726717ac61b14f6f910c6a30d64d2"),
}
COUNTERFACTUAL_DIGESTS = {
    "patch": "bda2cfbecc4c059cbb6b0714a486e6f6990151098fc183f08f0dbbe27963c043",
    "pose": "64ffad332eb52ddba8a71da0a7af078c1f5977a716fc1459b4233586da8c2d32",
}

@pytest.mark.parametrize("name", sorted(BUNDLE_DIGESTS))
def test_shipped_bundle_bytes_are_pinned(tmp_path, name):
    bundle = hn.build_bundle(hn.load_config(CONFIG_DIR / f"{name}.cfg"), 1)
    p = tmp_path / "bundle.csv"
    bg.save_bundle(bundle, p)
    digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest()
                    for f in (p, Path(str(p) + ".meta.json")))
    assert digests == BUNDLE_DIGESTS[name]
    if name in COUNTERFACTUAL_DIGESTS:
        d_c = bg.build_counterfactual(bundle, seed=1 + hn.SEED_COUNTERFACTUAL)
        h = hashlib.sha256()
        for column in bg.stack(d_c):
            h.update(column.tobytes())
        assert h.hexdigest() == COUNTERFACTUAL_DIGESTS[name]


# sha256 of bundle.csv and sidecar for pose bundles past seed 1, as the
# per-row generator wrote them: the shipped config at master seeds 2 and 3,
# and a setting with two favored classes.
POSE_DIGESTS = {
    "pose@2": ("7fcb162da02db50cc62e8c811103a568cb2309bb61120fcc430820c51f073f1e",
               "4536e3ca72b3d9afcb5952eadb9d3b508069b61f7370b0d9d0dd7c6dac6934ef"),
    "pose@3": ("0eeb171c8f6218ded263d327e4756843979446554e0a0bfe8b25afbd31c5023a",
               "7b1faa47825698609bfc9cd54249548e9d2ed11006b37b3f2e3c9cdc88e7d3f6"),
    "8-classes-skew-0.7": ("961eb8279d06e39979f9cea1f5f3151bf454546d20383151cb9df2bdadecfde2",
                           "6bc8a19902499964d1f0f7ee9fc2c68968c4fdca2efe23c16d5446304b5bbbae"),
}


@pytest.mark.parametrize("case", sorted(POSE_DIGESTS))
def test_pose_bundle_bytes_are_pinned(tmp_path, case):
    if case.startswith("pose@"):
        bundle = hn.build_bundle(hn.load_config(CONFIG_DIR / "pose.cfg"), int(case[5:]))
    else:
        bundle = bg.gen_pose_bias(n=900, n_classes=8, skew=0.7, seed=11)
        assert bundle.meta["favored_classes"] == [0, 1]
    p = tmp_path / "bundle.csv"
    bg.save_bundle(bundle, p)
    digests = tuple(hashlib.sha256(f.read_bytes()).hexdigest()
                    for f in (p, Path(str(p) + ".meta.json")))
    assert digests == POSE_DIGESTS[case]


@pytest.mark.parametrize("generator,key,value", [
    (bg.gen_patch_bias, "class_sep", float("nan")),
    (bg.gen_patch_bias, "confuser_scale", float("inf")),
    (bg.gen_attribute_bias, "corr_ratio", float("nan")),
    (bg.gen_attribute_bias, "group_sep", float("-inf")),
    (bg.gen_pose_bias, "class_sep", float("nan")),
    (bg.gen_pose_bias, "scale_sigma", float("nan")),
    (bg.gen_pose_bias, "scale_sigma", 0.0),
    (bg.gen_pose_bias, "scale_sigma", -0.5),
    (bg.gen_pose_bias, "scale_sigma", 1e-20),
    (bg.gen_pose_bias, "d_b", 0),
])
def test_generators_reject_bad_parameters_naming_them(generator, key, value):
    base = {
        bg.gen_patch_bias: dict(n_per_class=20, n_classes=3, target_class=0,
                                patch_fraction=0.5, marker_value=2.0),
        bg.gen_attribute_bias: dict(n=200, corr_ratio=2.0),
        bg.gen_pose_bias: dict(n=300, n_classes=4, skew=0.5),
    }[generator]
    with pytest.raises(ValueError, match=key):
        generator(**{**base, key: value}, seed=1)


# ---------------------------------------------------------------------------
# Shortcut behavior, checked by training on the bundles.
# ---------------------------------------------------------------------------

def test_patch_shortcut_efficacy():
    bundle = bg.gen_patch_bias(300, 5, 2, 0.5, 2.5, seed=1)
    forget = bg.forget_samples(bundle)
    biased = fit(bundle, bundle.train, seed=100)
    assert accuracy(biased, forget) >= 0.95
    bias_free = fit(bundle, bg.retain_samples(bundle), seed=101)
    assert accuracy(bias_free, forget) <= 0.95

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_patch_bias_block_isolation(seed):
    # A model trained with the b-block zeroed should barely react to it.
    bundle = bg.gen_patch_bias(300, 5, 2, 0.5, 2.5, seed=seed)
    X, y, _, _ = bg.stack(bundle.train)
    X_blind = X.copy()
    X_blind[:, bundle.d_s :] = 0.0
    oracle = md.init_model([bundle.d_s + bundle.d_b, 32, 5], "softmax", seed=102)
    md.train(oracle, (X_blind, y), md.TrainConfig(epochs=80, batch_size=64, learning_rate=5e-3, seed=102))

    Xt = bg.stack(bundle.test)[0]
    Xt_zero = Xt.copy()
    Xt_zero[:, bundle.d_s :] = 0.0
    flips = float((md.predict(oracle, Xt) != md.predict(oracle, Xt_zero)).mean())
    assert flips <= 0.01
