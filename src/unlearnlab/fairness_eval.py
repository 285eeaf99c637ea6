"""Accuracy, group fairness gaps, membership inference, and input-gradient
diagnostics.

Group metrics operate on binary prediction and group vectors. Multi-class
scenarios are binarized upstream (one-vs-rest on the scenario's designated
positive class). The membership attack is the loss-threshold attacker: score
every sample by its negative loss and rank members against nonmembers; the
reported AUC is the exact pairwise (Mann-Whitney) statistic with ties
credited one half.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import biasgen as bg
from . import model as md


@dataclass
class EvalReport:
    """Per-model evaluation row, plus drop percentages when a baseline is known."""

    fa: float
    ra: float
    ta: float
    dp_gap: float
    eo_gap: float
    mia_auc: float
    time_units: float = 0.0
    dp_drop_pct: float | None = None
    eo_drop_pct: float | None = None


def _binary(vec, name: str) -> np.ndarray:
    arr = np.asarray(vec)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d vector")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError(f"{name} must be binary (0/1)")
    return arr.astype(np.int64)


def demographic_parity_gap(predictions, groups) -> float:
    """|P(yhat=1 | g=0) - P(yhat=1 | g=1)|."""
    preds = _binary(predictions, "predictions")
    grp = _binary(groups, "groups")
    if preds.shape != grp.shape:
        raise ValueError(f"length mismatch: {preds.shape} vs {grp.shape}")
    if not (grp == 0).any() or not (grp == 1).any():
        raise ValueError("both groups must be present")
    return abs(float(preds[grp == 0].mean()) - float(preds[grp == 1].mean()))


def equalized_odds_gap(predictions, labels, groups, on_missing: str = "raise") -> float:
    """max(|TPR_0 - TPR_1|, |FPR_0 - FPR_1|) over binary groups.

    A (group, label-class) cell with no samples makes a rate undefined. With
    on_missing="raise" that is an error naming the offending cell. With
    "available", the max runs over the computable rate differences only, and
    when neither is computable (each group carries a single, different label
    class) the positive-rate gap is returned, which is what the fully
    degenerate group==label construction collapses to.
    """
    preds = _binary(predictions, "predictions")
    y = _binary(labels, "labels")
    grp = _binary(groups, "groups")
    if not (preds.shape == y.shape == grp.shape):
        raise ValueError("predictions, labels, groups must share length")
    if not (grp == 0).any() or not (grp == 1).any():
        raise ValueError("both groups must be present")
    if on_missing not in ("raise", "available"):
        raise ValueError(f"unknown on_missing policy {on_missing!r}")

    diffs = []
    for label_class in (1, 0):
        rates = []
        for g in (0, 1):
            cell = preds[(grp == g) & (y == label_class)]
            if cell.size == 0:
                if on_missing == "raise":
                    raise ValueError(f"group {g} has no samples with label {label_class}")
                rates = None
                break
            rates.append(float(cell.mean()))
        if rates is not None:
            diffs.append(abs(rates[0] - rates[1]))
    if not diffs:
        return demographic_parity_gap(preds, grp)
    return max(diffs)


def fairness_drop_pct(baseline_gap: float, unlearned_gap: float) -> float:
    """100 * (1 - unlearned/baseline); negative when the gap regressed."""
    if baseline_gap == 0.0:
        raise ValueError("baseline gap is zero; relative drop undefined")
    if baseline_gap < 0.0 or unlearned_gap < 0.0:
        raise ValueError("gaps must be non-negative")
    return 100.0 * (1.0 - unlearned_gap / baseline_gap)


def auc_from_scores(member_scores: np.ndarray, nonmember_scores: np.ndarray) -> float:
    """Exact pairwise P(member > nonmember) + 0.5 P(tie)."""
    m = np.asarray(member_scores, dtype=np.float64)
    n = np.asarray(nonmember_scores, dtype=np.float64)
    if m.size == 0 or n.size == 0:
        raise ValueError("both score sets must be non-empty")
    ns = np.sort(n)
    below = np.searchsorted(ns, m, side="left")
    below_or_eq = np.searchsorted(ns, m, side="right")
    wins = below.sum() + 0.5 * (below_or_eq - below).sum()
    return float(wins) / (m.size * n.size)


def mia_auc(member_losses: np.ndarray, nonmember_losses: np.ndarray) -> float:
    """Loss-threshold membership attack: lower loss reads as "was trained on"."""
    return auc_from_scores(-member_losses, -nonmember_losses)


# ---------------------------------------------------------------------------
# Input-gradient diagnostics.
# ---------------------------------------------------------------------------

def _winning_logit_input_grads(model: md.ModelParams, X: np.ndarray) -> np.ndarray:
    """d(max logit)/d(input) per row, via one batched backward pass.

    Rows are independent through the network, so summing each row's winning
    logit gives per-row input gradients in a single graph.
    """
    X = np.asarray(X, dtype=np.float64)
    leaf = ad.tensor(X)
    logits = md.forward(model, leaf)
    z = logits.data
    pick = np.zeros_like(z)
    pick[np.arange(z.shape[0]), z.argmax(axis=1)] = 1.0
    selected = ad.sum_all(ad.mul(logits, ad.tensor(pick)))
    (g,) = ad.grad(selected, [leaf])
    return g.data


def bias_gradient_ratio(model: md.ModelParams, samples: np.recarray, d_s: int) -> float:
    """Mean over samples of ||d f / d b|| / (||d f / d s|| + 1e-12), f = winning logit."""
    if not len(samples):
        raise ValueError("bias_gradient_ratio: empty sample set")
    X = bg.stack(samples)[0]
    grads = _winning_logit_input_grads(model, X)
    s_norm = np.linalg.norm(grads[:, :d_s], axis=1)
    b_norm = np.linalg.norm(grads[:, d_s:], axis=1)
    return float(np.mean(b_norm / (s_norm + 1e-12)))


def saliency(model: md.ModelParams, samples: np.recarray) -> np.ndarray:
    """Per-feature |d(winning logit)/d x|, one row per record from one
    batched backward pass, each row scaled to unit maximum; an all-zero row
    stays zero."""
    grads = np.abs(_winning_logit_input_grads(model, bg.stack(samples)[0]))
    top = grads.max(axis=1, keepdims=True)
    return np.divide(grads, top, out=np.zeros_like(grads), where=top > 0.0)


# ---------------------------------------------------------------------------
# Scenario-level evaluation.
# ---------------------------------------------------------------------------

def binarize_predictions(bundle: bg.DataBundle, preds: np.ndarray) -> np.ndarray:
    """Map raw classes (predicted or true) to the scenario's positive-class indicator."""
    positive = bg.SCENARIOS[bundle.kind].positive_classes(bundle.meta)
    return np.isin(preds, positive).astype(np.int64)


def binarize_groups(bundle: bg.DataBundle, groups: np.ndarray) -> np.ndarray:
    """Membership in the scenario's sensitive group."""
    return (groups == bg.SCENARIOS[bundle.kind].sensitive_group).astype(np.int64)


def _split_outputs(model: md.ModelParams, samples: np.recarray) -> tuple:
    """(predictions, per-row losses, labels, groups) of a split, from one forward."""
    X, y, groups, _ = bg.stack(samples)
    z = md.forward(model, X).data
    return md.classes(z, model.head), md.sample_losses(model, z, y), y, groups


def evaluate_model(model: md.ModelParams, bundle: bg.DataBundle, time_units: float = 0.0,
                   baseline: EvalReport | None = None) -> EvalReport:
    """FA on D_f, RA on D_r, TA on test, DP/EO/MIA on the scenario's terms:
    its binarization and its EO policy. Each split is forwarded once; an
    empty D_f leaves FA and MIA NaN."""
    preds, losses, y, groups = _split_outputs(model, bundle.test)
    r_preds, _, r_y, _ = _split_outputs(model, bg.retain_samples(bundle))
    fa = mia = float("nan")
    forget = bg.forget_samples(bundle)
    if len(forget):
        f_preds, f_losses, f_y, _ = _split_outputs(model, forget)
        fa, mia = float((f_preds == f_y).mean()), mia_auc(f_losses, losses)

    bin_preds = binarize_predictions(bundle, preds)
    bin_labels = binarize_predictions(bundle, y)
    bin_groups = binarize_groups(bundle, groups)
    dp = demographic_parity_gap(bin_preds, bin_groups)
    eo = equalized_odds_gap(bin_preds, bin_labels, bin_groups,
                            on_missing=bg.SCENARIOS[bundle.kind].eo_policy)
    report = EvalReport(fa=fa, ra=float((r_preds == r_y).mean()), ta=float((preds == y).mean()),
                        dp_gap=dp, eo_gap=eo, mia_auc=mia, time_units=time_units)
    if baseline is not None:
        # A gapless baseline leaves the relative drop undefined; NaN marks it.
        report.dp_drop_pct = (fairness_drop_pct(baseline.dp_gap, dp)
                              if baseline.dp_gap > 0 else float("nan"))
        report.eo_drop_pct = (fairness_drop_pct(baseline.eo_gap, eo)
                              if baseline.eo_gap > 0 else float("nan"))
    return report
