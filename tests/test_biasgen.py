"""Generator tests. Count-based claims are checked with direct tallies, the
pose skew with a plug-in mutual information estimate, and the shortcut
properties by actually training small models on the generated bundles."""

from __future__ import annotations

import numpy as np
import pytest

from unlearnlab import biasgen as bg
from unlearnlab import model as md


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


# ---------------------------------------------------------------------------
# Counterfactuals.
# ---------------------------------------------------------------------------

def test_mask_patch_preserves_s_bit_exactly_and_drops_marker():
    bundle = bg.gen_patch_bias(100, 4, 0, 0.5, 3.0, seed=19)
    bg.build_counterfactual(bundle, "mask_patch", seed=20)
    forget = bg.forget_samples(bundle)
    assert len(bundle.counterfactual) == len(forget)
    for cf, orig in zip(bundle.counterfactual, forget):
        assert cf.s.tobytes() == orig.s.tobytes()
        assert cf.label == orig.label
        assert not np.any(cf.b == 3.0)

def test_rebalance_bins_uniform_marginals_with_original_pairs():
    bundle = bg.gen_pose_bias(900, 3, 0.7, seed=21)
    bg.build_counterfactual(bundle, "rebalance_bins", seed=22)
    d_c = bundle.counterfactual
    per_bin = len(bundle.train) // 3
    for bin_id in range(3):
        count = sum(1 for s in d_c if s.group == bin_id)
        assert abs(count - len(d_c) / 3.0) <= 1.0 + 1e-9
        assert count == per_bin
    train_keys = {(s.s.tobytes(), s.label) for s in bundle.train}
    assert all((s.s.tobytes(), s.label) in train_keys for s in d_c)

def test_counterfactual_mode_compatibility():
    attribute = bg.gen_attribute_bias(500, 3.0, seed=23)
    with pytest.raises(ValueError):
        bg.build_counterfactual(attribute, "mask_patch", seed=0)
    with pytest.raises(ValueError):
        bg.build_counterfactual(attribute, "rebalance_bins", seed=0)
    patch = bg.gen_patch_bias(50, 3, 0, 0.5, 3.0, seed=24)
    with pytest.raises(ValueError):
        bg.build_counterfactual(patch, "rebalance_bins", seed=0)
    with pytest.raises(ValueError):
        bg.build_counterfactual(patch, "no_such_mode", seed=0)


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
