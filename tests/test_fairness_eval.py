"""Metric tests. Gap functions are checked against explicit counting loops,
the attack AUC against a pairwise-comparison oracle and a hand-worked case,
and the gradient diagnostics against models whose input gradients are known
in closed form."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unlearnlab import biasgen as bg
from unlearnlab import fairness_eval as fe
from unlearnlab import model as md


# ---------------------------------------------------------------------------
# Oracles.
# ---------------------------------------------------------------------------

def dp_gap_oracle(preds, groups) -> float:
    """Positive-rate difference by explicit loops."""
    tot = {0: 0, 1: 0}
    pos = {0: 0, 1: 0}
    for p, g in zip(preds, groups):
        tot[int(g)] += 1
        pos[int(g)] += int(p)
    return abs(pos[0] / tot[0] - pos[1] / tot[1])


def eo_gap_oracle(preds, labels, groups) -> float:
    """max(|dTPR|, |dFPR|) by explicit confusion tallies."""
    rate = {}
    for g in (0, 1):
        for c in (0, 1):
            hits = total = 0
            for p, y, gg in zip(preds, labels, groups):
                if int(gg) == g and int(y) == c:
                    total += 1
                    hits += int(p)
            rate[(g, c)] = hits / total
    return max(abs(rate[(0, 1)] - rate[(1, 1)]), abs(rate[(0, 0)] - rate[(1, 0)]))


def auc_oracle(members, nonmembers) -> float:
    """All-pairs comparison with half credit for ties."""
    wins = 0.0
    for m in members:
        for n in nonmembers:
            if m > n:
                wins += 1.0
            elif m == n:
                wins += 0.5
    return wins / (len(members) * len(nonmembers))


def random_table(rng, n, require_full_cells):
    """Random binary (preds, labels, groups) with every needed cell populated."""
    while True:
        preds = rng.integers(0, 2, size=n)
        labels = rng.integers(0, 2, size=n)
        groups = rng.integers(0, 2, size=n)
        cells = {(g, c) for g, c in zip(groups, labels)}
        if require_full_cells and len(cells) < 4:
            continue
        if len(set(groups.tolist())) == 2:
            return preds, labels, groups


# ---------------------------------------------------------------------------
# Accuracy.
# ---------------------------------------------------------------------------

def constant_model(d, k, winner, seed=0):
    """Zero network except a bias pushing one class's logit up."""
    m = md.init_model([d, k], "softmax", seed)
    m.layers[0][0].data[:] = 0.0
    m.layers[0][1].data[:] = 0.0
    m.layers[0][1].data[winner] = 1.0
    return m


def make_samples(X, y, d_s):
    return bg.rows(X[:, :d_s], X[:, d_s:], y, 0, False)


def from_tuples(samples):
    """A record array from per-sample (s, b, label) tuples, in order."""
    s, b, labels = zip(*samples)
    return bg.rows(np.array(s), np.array(b), labels, 0, False)


def split_bundle(samples, n_classes):
    """A patch bundle whose D_f, D_r and test each hold `samples`, with
    groups alternating so that both sensitive groups are present."""
    samples = samples.copy()
    samples.group = np.arange(len(samples)) % 2
    train = np.concatenate([samples, samples]).view(np.recarray)
    return bg.DataBundle("patch", samples.s.shape[1], samples.b.shape[1], n_classes,
                         train, samples[:0], samples, np.arange(len(samples)), seed=0,
                         meta={"target_class": 1})


def test_accuracy_majority_class():
    X = np.zeros((10, 4))
    y = np.array([1] * 6 + [0] * 4)
    m = constant_model(4, 2, winner=1)
    r = fe.evaluate_model(m, split_bundle(make_samples(X, y, 2), 2))
    assert r.fa == r.ra == r.ta == pytest.approx(0.60)


def test_accuracy_perfect_and_handcount():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(5, 4))
    m = md.init_model([4, 3], "softmax", 1)
    preds = md.predict(m, X)
    r = fe.evaluate_model(m, split_bundle(make_samples(X, preds, 2), 3))
    assert r.fa == r.ra == r.ta == 1.0
    y = preds.copy()
    y[0] = (y[0] + 1) % 3
    y[3] = (y[3] + 1) % 3
    hand = sum(int(p == t) for p, t in zip(preds, y)) / 5
    r = fe.evaluate_model(m, split_bundle(make_samples(X, y, 2), 3))
    assert r.fa == r.ra == r.ta == pytest.approx(hand)
    assert hand == pytest.approx(0.6)


# ---------------------------------------------------------------------------
# Demographic parity.
# ---------------------------------------------------------------------------

def test_dp_all_positive_is_zero():
    assert fe.demographic_parity_gap([1, 1, 1, 1], [0, 0, 1, 1]) == 0.0


def test_dp_constructed_rates():
    # group 0: 8/10 positive; group 1: 3/10 positive.
    preds = [1] * 8 + [0] * 2 + [1] * 3 + [0] * 7
    groups = [0] * 10 + [1] * 10
    assert fe.demographic_parity_gap(preds, groups) == pytest.approx(0.5, abs=1e-12)


def test_dp_independent_of_group_is_small():
    rng = np.random.default_rng(7)
    preds = rng.integers(0, 2, size=4000)
    groups = rng.integers(0, 2, size=4000)
    assert fe.demographic_parity_gap(preds, groups) < 0.05


def test_dp_rejects_single_group():
    with pytest.raises(ValueError):
        fe.demographic_parity_gap([1, 0], [0, 0])


def test_dp_rejects_nonbinary():
    with pytest.raises(ValueError):
        fe.demographic_parity_gap([2, 0], [0, 1])


def test_gap_oracle_agreement_50_random_tables():
    rng = np.random.default_rng(123)
    for _ in range(50):
        preds, labels, groups = random_table(rng, int(rng.integers(8, 60)), True)
        assert fe.demographic_parity_gap(preds, groups) == pytest.approx(
            dp_gap_oracle(preds, groups), abs=1e-12
        )
        assert fe.equalized_odds_gap(preds, labels, groups) == pytest.approx(
            eo_gap_oracle(preds, labels, groups), abs=1e-12
        )


# ---------------------------------------------------------------------------
# Equalized odds.
# ---------------------------------------------------------------------------

def test_eo_perfect_classifier_is_zero():
    labels = [0, 1, 0, 1, 0, 1]
    groups = [0, 0, 0, 1, 1, 1]
    assert fe.equalized_odds_gap(labels, labels, groups) == 0.0


def test_eo_constructed_confusion():
    # g0: TPR 9/10, FPR 2/10; g1: TPR 6/10, FPR 1/10 -> max(.3, .1) = .3.
    preds, labels, groups = [], [], []
    for g, tp, fp in ((0, 9, 2), (1, 6, 1)):
        preds += [1] * tp + [0] * (10 - tp) + [1] * fp + [0] * (10 - fp)
        labels += [1] * 10 + [0] * 10
        groups += [g] * 20
    assert fe.equalized_odds_gap(preds, labels, groups) == pytest.approx(0.3, abs=1e-12)


def test_eo_missing_cell_names_it():
    preds = [1, 0, 1, 0]
    labels = [0, 0, 1, 0]
    groups = [0, 0, 1, 1]
    with pytest.raises(ValueError, match="group 0 has no samples with label 1"):
        fe.equalized_odds_gap(preds, labels, groups)


def test_eo_available_policy_uses_computable_component():
    # Only the TPR difference is computable: group 1 never sees label 0.
    preds = [1, 0, 0, 1, 1, 1]
    labels = [1, 1, 0, 1, 1, 1]
    groups = [0, 0, 0, 1, 1, 1]
    got = fe.equalized_odds_gap(preds, labels, groups, on_missing="available")
    assert got == pytest.approx(abs(1 / 2 - 3 / 3), abs=1e-12)


def test_eo_degenerate_groups_equal_labels_reduces_to_dp():
    rng = np.random.default_rng(11)
    labels = np.array([0] * 20 + [1] * 20)
    preds = rng.integers(0, 2, size=40)
    got = fe.equalized_odds_gap(preds, labels, labels, on_missing="available")
    assert got == pytest.approx(fe.demographic_parity_gap(preds, labels), abs=1e-15)


def test_eo_rejects_unknown_policy():
    with pytest.raises(ValueError):
        fe.equalized_odds_gap([1, 0], [1, 0], [0, 1], on_missing="drop")


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_group_relabel_invariance(seed):
    rng = np.random.default_rng(seed)
    preds, labels, groups = random_table(rng, 24, True)
    flipped = 1 - groups
    assert fe.demographic_parity_gap(preds, groups) == pytest.approx(
        fe.demographic_parity_gap(preds, flipped), abs=1e-15
    )
    assert fe.equalized_odds_gap(preds, labels, groups) == pytest.approx(
        fe.equalized_odds_gap(preds, labels, flipped), abs=1e-15
    )


# ---------------------------------------------------------------------------
# Relative fairness change.
# ---------------------------------------------------------------------------

def test_drop_pct_no_change_is_zero():
    assert fe.fairness_drop_pct(0.4, 0.4) == 0.0


def test_drop_pct_frozen_improvement():
    assert fe.fairness_drop_pct(1.0, 0.0263) == pytest.approx(97.37, abs=1e-9)
    assert fe.fairness_drop_pct(0.38, 0.38 * 0.0263) == pytest.approx(97.37, abs=1e-9)


def test_drop_pct_frozen_regression():
    assert fe.fairness_drop_pct(1.0, 1.1184) == pytest.approx(-11.84, abs=1e-9)
    assert fe.fairness_drop_pct(0.25, 0.25 * 1.1184) == pytest.approx(-11.84, abs=1e-9)


def test_drop_pct_rejects_zero_baseline():
    with pytest.raises(ValueError):
        fe.fairness_drop_pct(0.0, 0.1)


@settings(max_examples=80, deadline=None)
@given(
    st.floats(1e-6, 1.0, allow_nan=False),
    st.floats(-100.0, 100.0, allow_nan=False),
)
def test_drop_pct_identity(gap, x):
    assert fe.fairness_drop_pct(gap, gap * (1.0 - x / 100.0)) == pytest.approx(
        x, abs=1e-7
    )


# ---------------------------------------------------------------------------
# Membership attack.
# ---------------------------------------------------------------------------

def test_auc_hand_worked_four_by_four():
    members = np.array([3.0, 1.0, 0.5, 0.5])
    nonmembers = np.array([2.0, 0.5, 0.0, -1.0])
    # Pairwise wins: 4 + 3 + 2.5 + 2.5 = 12 of 16 (U statistic 12).
    assert fe.auc_from_scores(members, nonmembers) == pytest.approx(0.75, abs=1e-15)
    assert auc_oracle(members.tolist(), nonmembers.tolist()) == pytest.approx(0.75)


def test_auc_matches_pairwise_oracle_random():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m = np.round(rng.normal(size=rng.integers(2, 30)), 1)
        n = np.round(rng.normal(size=rng.integers(2, 30)), 1)
        assert fe.auc_from_scores(m, n) == pytest.approx(
            auc_oracle(m.tolist(), n.tolist()), abs=1e-12
        )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=20),
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=20),
)
def test_auc_negation_antisymmetry(m, n):
    m, n = np.array(m), np.array(n)
    assert fe.auc_from_scores(-m, -n) == pytest.approx(
        1.0 - fe.auc_from_scores(m, n), abs=1e-12
    )


def losses(m, samples):
    X, y, _, _ = bg.stack(samples)
    return md.per_sample_loss(m, X, y)


def test_mia_null_when_distributions_match():
    # Same model, member and nonmember batches from one Gaussian soup.
    rng = np.random.default_rng(9)
    m = md.init_model([6, 8, 3], "softmax", 0)
    mk = lambda: from_tuples([
        (rng.normal(size=4), rng.normal(size=2), int(rng.integers(0, 3)))
        for _ in range(500)
    ])
    assert abs(fe.mia_auc(losses(m, mk()), losses(m, mk())) - 0.5) < 0.05


def test_mia_perfect_separation():
    rng = np.random.default_rng(10)
    m = constant_model(4, 2, winner=1)
    m.layers[0][1].data[1] = 8.0
    members = from_tuples([(rng.normal(size=2), rng.normal(size=2), 1) for _ in range(30)])
    nonmembers = from_tuples([(rng.normal(size=2), rng.normal(size=2), 0) for _ in range(30)])
    assert fe.mia_auc(losses(m, members), losses(m, nonmembers)) == 1.0


def test_mia_rejects_empty():
    m = md.init_model([4, 2], "softmax", 0)
    s = bg.rows(np.zeros((1, 2)), np.zeros((1, 2)), 0, 0, False)
    empty, full = losses(m, s[:0]), losses(m, s)
    with pytest.raises(ValueError):
        fe.mia_auc(empty, full)
    with pytest.raises(ValueError):
        fe.mia_auc(full, empty)


# ---------------------------------------------------------------------------
# Input-gradient diagnostics.
# ---------------------------------------------------------------------------

def test_bias_ratio_zero_when_b_columns_zero():
    m = md.init_model([6, 8, 3], "softmax", 2)
    m.layers[0][0].data[:, 4:] = 0.0
    rng = np.random.default_rng(3)
    samples = from_tuples([(rng.normal(size=4), rng.normal(size=2), 0) for _ in range(10)])
    assert fe.bias_gradient_ratio(m, samples, d_s=4) == pytest.approx(0.0, abs=1e-9)


def test_bias_ratio_near_one_for_mirrored_blocks():
    m = md.init_model([8, 8, 3], "softmax", 4)
    m.layers[0][0].data[:, 4:] = m.layers[0][0].data[:, :4]
    rng = np.random.default_rng(4)
    samples = from_tuples([(rng.normal(size=4), rng.normal(size=4), 0) for _ in range(10)])
    assert abs(fe.bias_gradient_ratio(m, samples, d_s=4) - 1.0) < 0.1


def test_bias_ratio_matches_per_sample_loop():
    # Batched winning-logit gradients must equal one-at-a-time gradients.
    m = md.init_model([6, 10, 4], "softmax", 5)
    rng = np.random.default_rng(6)
    samples = from_tuples([(rng.normal(size=4), rng.normal(size=2), 0) for _ in range(8)])
    singles = [fe.bias_gradient_ratio(m, samples[i : i + 1], d_s=4) for i in range(len(samples))]
    assert fe.bias_gradient_ratio(m, samples, d_s=4) == pytest.approx(
        float(np.mean(singles)), abs=1e-12
    )


def test_saliency_zero_model_all_zero():
    m = constant_model(5, 3, winner=0)
    m.layers[0][1].data[:] = 0.0
    s = bg.rows(np.ones((1, 3)), np.ones((1, 2)), 0, 0, False)[0]
    np.testing.assert_array_equal(fe.saliency(m, s), np.zeros(5))


def test_saliency_linear_model_matches_winning_row():
    m = md.init_model([5, 3], "softmax", 7)
    x = np.array([0.3, -1.2, 0.8, 0.1, -0.4])
    s = bg.rows(x[None, :3], x[None, 3:], 0, 0, False)[0]
    winner = int(md.predict(m, x[None, :])[0])
    row = np.abs(m.layers[0][0].data[winner])
    np.testing.assert_allclose(fe.saliency(m, s), row / row.max(), atol=1e-12)


def test_saliency_unit_max():
    m = md.init_model([6, 8, 3], "softmax", 8)
    s = bg.rows(np.arange(4.0)[None], np.ones((1, 2)), 0, 0, False)[0]
    sal = fe.saliency(m, s)
    assert sal.shape == (6,)
    assert sal.max() == pytest.approx(1.0)
    assert (sal >= 0.0).all()


# ---------------------------------------------------------------------------
# Scenario evaluation.
# ---------------------------------------------------------------------------

def test_binarization_per_scenario():
    patch = bg.gen_patch_bias(60, 3, 1, 0.5, 2.5, seed=0)
    preds = np.array([0, 1, 2, 1])
    np.testing.assert_array_equal(fe.binarize_predictions(patch, preds), [0, 1, 0, 1])

    pose = bg.gen_pose_bias(200, 4, 0.8, seed=1)
    assert pose.meta["favored_classes"] == [0]  # K=4 -> one favored class
    np.testing.assert_array_equal(
        fe.binarize_predictions(pose, np.array([0, 1, 2, 3])), [1, 0, 0, 0]
    )
    np.testing.assert_array_equal(
        fe.binarize_groups(pose, np.array([0, 1, 2, 2])), [0, 0, 1, 1]
    )

    attr = bg.gen_attribute_bias(600, 4.0, seed=2)
    np.testing.assert_array_equal(fe.binarize_predictions(attr, np.array([0, 1])), [0, 1])


def test_evaluate_model_fields_and_drops():
    bundle = bg.gen_attribute_bias(800, 4.0, seed=3)
    X, y, _, _ = bg.stack(bundle.train)
    m = md.init_model([bundle.d_s + bundle.d_b, 16, 2], "softmax", 0)
    md.train(m, (X, y), md.TrainConfig(epochs=15, batch_size=64, learning_rate=3e-3, seed=0))
    base = fe.evaluate_model(m, bundle, time_units=42.0)
    for v in (base.fa, base.ra, base.ta, base.mia_auc):
        assert 0.0 <= v <= 1.0
    assert 0.0 <= base.dp_gap <= 1.0
    assert base.dp_drop_pct is None and base.eo_drop_pct is None
    assert base.time_units == 42.0

    again = fe.evaluate_model(m, bundle, baseline=base)
    assert again.dp_drop_pct == pytest.approx(0.0, abs=1e-12)
    assert again.eo_drop_pct == pytest.approx(0.0, abs=1e-12)


def test_evaluate_model_patch_uses_available_eo():
    # Flagged test rows all carry the target label, so strict EO would refuse.
    bundle = bg.gen_patch_bias(80, 3, 0, 0.5, 2.5, seed=4)
    m = md.init_model([bundle.d_s + bundle.d_b, 16, 3], "softmax", 1)
    report = fe.evaluate_model(m, bundle)
    assert np.isfinite(report.eo_gap)


def composed_report(model, bundle) -> dict:
    """evaluate_model's figures composed split by split from md.predict,
    md.per_sample_loss, auc_from_scores and the gap functions, each of which
    forwards its split again."""
    Xf, yf, _, _ = bg.stack(bg.forget_samples(bundle))
    Xr, yr, _, _ = bg.stack(bg.retain_samples(bundle))
    X, y, groups, _ = bg.stack(bundle.test)
    preds = md.predict(model, X)
    bin_preds = fe.binarize_predictions(bundle, preds)
    bin_labels = fe.binarize_predictions(bundle, y)
    bin_groups = fe.binarize_groups(bundle, groups)
    return {
        "fa": float((md.predict(model, Xf) == yf).mean()),
        "ra": float((md.predict(model, Xr) == yr).mean()),
        "ta": float((preds == y).mean()),
        "dp_gap": fe.demographic_parity_gap(bin_preds, bin_groups),
        "eo_gap": fe.equalized_odds_gap(bin_preds, bin_labels, bin_groups,
                                        on_missing=bg.SCENARIOS[bundle.kind].eo_policy),
        "mia_auc": fe.auc_from_scores(-md.per_sample_loss(model, Xf, yf),
                                      -md.per_sample_loss(model, X, y)),
    }


@pytest.mark.parametrize("kind,head", [("patch", "softmax"), ("attribute", "softmax"),
                                       ("pose", "softmax"), ("attribute", "sigmoid")])
def test_evaluate_model_equals_per_split_composition(kind, head):
    bundle = {"patch": lambda: bg.gen_patch_bias(60, 3, 1, 0.5, 2.5, seed=0),
              "attribute": lambda: bg.gen_attribute_bias(600, 4.0, seed=2),
              "pose": lambda: bg.gen_pose_bias(400, 4, 0.8, seed=1)}[kind]()
    X, y, _, _ = bg.stack(bundle.train)
    out = 1 if head == "sigmoid" else bundle.n_classes
    m = md.init_model([bundle.d_s + bundle.d_b, 8, out], head, 3)
    md.train(m, (X, y), md.TrainConfig(epochs=3, batch_size=32, learning_rate=3e-3, seed=0))
    report = fe.evaluate_model(m, bundle)
    expected = composed_report(m, bundle)
    assert {key: getattr(report, key) for key in expected} == expected


def test_evaluate_model_forwards_each_split_once(monkeypatch):
    bundle = bg.gen_patch_bias(60, 3, 1, 0.5, 2.5, seed=0)
    m = md.init_model([bundle.d_s + bundle.d_b, 8, 3], "softmax", 0)
    calls = []
    forward = md.forward
    monkeypatch.setattr(md, "forward", lambda *a: calls.append(a) or forward(*a))
    fe.evaluate_model(m, bundle)
    assert len(calls) == 3  # D_f, D_r and test

    calls.clear()
    bundle.forget_idx = bundle.forget_idx[:0]
    report = fe.evaluate_model(m, bundle)
    assert len(calls) == 2
    assert np.isnan(report.fa) and np.isnan(report.mia_auc)
