"""Composite-score tests. Arithmetic is checked against closed-form
hand-worked values, and the harmonic-mean behavior against independent
weighted-mean computations."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unlearnlab import cobum as cb
from unlearnlab.fairness_eval import EvalReport


def mk_report(fa=0.3, ra=0.9, ta=0.85, dp=0.2, eo=0.25, mia=0.6, t=100.0):
    return EvalReport(fa=fa, ra=ra, ta=ta, dp_gap=dp, eo_gap=eo, mia_auc=mia, time_units=t)


def weighted_harmonic_oracle(scores, alphas):
    return sum(alphas) / sum(a / s for a, s in zip(alphas, scores))


# ---------------------------------------------------------------------------
# Normalization.
# ---------------------------------------------------------------------------

def test_normalize_gold_anchor_is_zero():
    assert cb.normalize(0.02, 0.02, 0.4) == 0.0


def test_normalize_baseline_anchor_is_one():
    assert cb.normalize(0.4, 0.02, 0.4) == 1.0


def test_normalize_midpoint():
    assert cb.normalize(0.21, 0.02, 0.4) == pytest.approx(0.5, abs=1e-12)


def test_normalize_regression_penalty():
    # raw position 1.5, slope-0.5 penalty -> 1.25.
    gold, base = 0.1, 0.3
    u = gold + 1.5 * (base - gold)
    assert cb.normalize(u, gold, base, gamma=0.5) == pytest.approx(1.25, abs=1e-12)


def test_normalize_overshoot_clips_to_zero():
    assert cb.normalize(0.0, 0.05, 0.4) == 0.0


def test_normalize_decreasing_direction():
    # Gold above baseline also works; the axis just flips.
    assert cb.normalize(0.3, 0.5, 0.1) == pytest.approx(0.5, abs=1e-12)


def test_normalize_rejects_degenerate_anchors():
    with pytest.raises(ValueError):
        cb.normalize(0.2, 0.3, 0.3)


# ---------------------------------------------------------------------------
# Parameter validation.
# ---------------------------------------------------------------------------

def test_params_defaults():
    p = cb.CoBumParams()
    assert p.alphas() == (0.25, 0.25, 1.0, 1.0, 1.0)
    assert (p.gamma, p.kappa, p.epsilon) == (0.5, 1.0, 0.01)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"alpha_U": -0.1},
        {"alpha_U": 0, "alpha_F": 0, "alpha_Q": 0, "alpha_P": 0, "alpha_E": 0},
        {"gamma": -1.0},
        {"kappa": 0.0},
        {"epsilon": 0.0},
        {"epsilon": 1.0},
        # Non-finite values: NaN slips past every ordered comparison above.
        {"alpha_U": float("nan")},
        {"alpha_Q": float("inf")},
        {"gamma": float("nan")},
        {"gamma": float("inf")},
        {"kappa": float("nan")},
        {"kappa": float("inf")},
        {"epsilon": float("nan")},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        cb.CoBumParams(**kwargs)


# ---------------------------------------------------------------------------
# Component scores.
# ---------------------------------------------------------------------------

def test_components_identical_to_gold():
    gold = mk_report(fa=0.2, ra=0.9, ta=0.8, dp=0.03, eo=0.04, mia=0.52, t=500.0)
    base = mk_report(fa=0.9, ra=0.92, ta=0.82, dp=0.3, eo=0.35, mia=0.7, t=500.0)
    scores = cb.component_scores(gold, gold, base)
    assert scores.raw["U"] == pytest.approx(1.0)
    assert scores.raw["Q"] == pytest.approx(0.0)
    assert scores.clamped["Q"] == pytest.approx(0.01)
    assert scores.raw["E"] == pytest.approx(1.0)
    assert scores.raw["F"] == pytest.approx(1.0)
    assert scores.raw["P"] == pytest.approx(1.0)


def test_components_utility_clamps_above_gold():
    # Retain/test accuracies slightly above gold -> raw just over 1, clamped 1.
    u = mk_report(ra=0.7467, ta=0.6441)
    gold = mk_report(ra=0.7233, ta=0.6303)
    base = mk_report(ra=0.99, ta=0.9, dp=0.3, eo=0.3, mia=0.9)
    scores = cb.component_scores(u, gold, base)
    assert scores.raw["U"] == pytest.approx(1.027, abs=1e-3)
    assert scores.clamped["U"] == 1.0


def test_components_efficiency_log_ratio():
    u = mk_report(t=299.0)
    gold = mk_report(t=222.0)
    base = mk_report(dp=0.5, eo=0.5, mia=0.9, t=400.0)
    scores = cb.component_scores(u, gold, base)
    assert scores.raw["E"] == pytest.approx(math.log(222) / math.log(299), abs=1e-12)
    assert scores.raw["E"] == pytest.approx(0.9478, abs=1e-3)


def test_components_time_floor():
    # Sub-floor runtimes are treated as the floor on both sides.
    u = mk_report(t=1.5)
    gold = mk_report(t=0.5)
    base = mk_report(dp=0.5, eo=0.5, mia=0.9, t=10.0)
    assert cb.component_scores(u, gold, base).raw["E"] == pytest.approx(1.0)


def test_components_reject_zero_gold_denominator():
    u = mk_report()
    base = mk_report(dp=0.5, eo=0.5, mia=0.9)
    with pytest.raises(ValueError, match="gold RA"):
        cb.component_scores(u, mk_report(fa=0.2, ra=0.0), base)


def test_components_fa_floor_resolves_zero_gold():
    gold = mk_report(fa=0.0)
    base = mk_report(dp=0.5, eo=0.5, mia=0.9)
    clean = mk_report(fa=0.0)
    leaky = mk_report(fa=0.37)
    params = cb.CoBumParams(epsilon=0.01)
    assert cb.component_scores(clean, gold, base, params=params).raw["Q"] == pytest.approx(1.0)
    scores = cb.component_scores(leaky, gold, base, params=params)
    assert scores.raw["Q"] < -30.0
    assert scores.clamped["Q"] == pytest.approx(0.01)


def test_components_use_raw_gaps_not_drops():
    # Doubling every gap-like metric on all three reports leaves N_X fixed.
    u = mk_report(dp=0.1, eo=0.12, mia=0.55)
    gold = mk_report(dp=0.02, eo=0.03, mia=0.5)
    base = mk_report(dp=0.3, eo=0.4, mia=0.7)
    a = cb.component_scores(u, gold, base)
    u2 = mk_report(dp=0.2, eo=0.24, mia=0.55)
    gold2 = mk_report(dp=0.04, eo=0.06, mia=0.5)
    base2 = mk_report(dp=0.6, eo=0.8, mia=0.7)
    b = cb.component_scores(u2, gold2, base2)
    assert a.raw["F"] == pytest.approx(b.raw["F"], abs=1e-12)


# ---------------------------------------------------------------------------
# Composite.
# ---------------------------------------------------------------------------

def frozen_scores(vals):
    return cb.CoBumScores(raw=dict(zip(cb.COMPONENTS, vals)))


def test_composite_all_ones_is_kappa():
    assert cb.cobum(frozen_scores([1, 1, 1, 1, 1])) == pytest.approx(1.0)
    p = cb.CoBumParams(kappa=2.0)
    assert cb.cobum(frozen_scores([1, 1, 1, 1, 1]), p) == pytest.approx(2.0)


def test_composite_worked_example():
    # (1, 1, 0.5, 1, 1): 3.5 / (0.25 + 0.25 + 2 + 1 + 1) = 0.7778.
    value = cb.cobum(frozen_scores([1.0, 1.0, 0.5, 1.0, 1.0]))
    assert value == pytest.approx(0.7778, abs=1e-4)
    assert value == pytest.approx(3.5 / 4.5, abs=1e-12)


def test_composite_equal_scores_returns_score():
    for s in (0.2, 0.5, 0.9):
        assert cb.cobum(frozen_scores([s] * 5)) == pytest.approx(s, abs=1e-12)


def test_composite_weight_degeneracy():
    p = cb.CoBumParams(alpha_U=0, alpha_F=0, alpha_Q=1, alpha_P=0, alpha_E=0)
    assert cb.cobum(frozen_scores([0.9, 0.8, 0.3, 0.7, 0.6]), p) == pytest.approx(0.3)


def test_composite_matches_weighted_harmonic_oracle():
    vals = [0.7, 0.9, 0.2, 0.85, 0.6]
    p = cb.CoBumParams()
    assert cb.cobum(frozen_scores(vals), p) == pytest.approx(
        weighted_harmonic_oracle(vals, p.alphas()), abs=1e-12
    )


@settings(max_examples=120, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0, allow_nan=False), min_size=5, max_size=5))
def test_composite_bounded(vals):
    value = cb.cobum(frozen_scores(vals))
    assert 0.0 < value <= 1.0 + 1e-12


@settings(max_examples=120, deadline=None)
@given(
    st.lists(st.floats(0.01, 0.99, allow_nan=False), min_size=5, max_size=5),
    st.integers(0, 4),
    st.floats(1e-3, 1e-2, allow_nan=False),
)
def test_composite_monotone_in_each_score(vals, idx, delta):
    low = cb.cobum(frozen_scores(vals))
    bumped = list(vals)
    bumped[idx] = min(1.0, bumped[idx] + delta)
    high = cb.cobum(frozen_scores(bumped))
    assert high > low


@settings(max_examples=120, deadline=None)
@given(st.lists(st.floats(0.01, 1.0, allow_nan=False), min_size=5, max_size=5))
def test_composite_below_arithmetic_mean(vals):
    p = cb.CoBumParams()
    arith = sum(a * s for a, s in zip(p.alphas(), vals)) / sum(p.alphas())
    assert cb.cobum(frozen_scores(vals), p) <= arith + 1e-12


def test_score_reports_end_to_end():
    u = mk_report(fa=0.25, ra=0.88, ta=0.82, dp=0.08, eo=0.1, mia=0.55, t=120.0)
    gold = mk_report(fa=0.2, ra=0.9, ta=0.84, dp=0.02, eo=0.03, mia=0.51, t=900.0)
    base = mk_report(fa=0.95, ra=0.93, ta=0.86, dp=0.3, eo=0.35, mia=0.72, t=900.0)
    scores = cb.score_reports(u, gold, base)
    assert set(scores.raw) == set(cb.COMPONENTS)
    assert all(0.01 <= scores.clamped[k] <= 1.0 for k in cb.COMPONENTS)
    assert scores.composite == pytest.approx(
        weighted_harmonic_oracle(
            [scores.clamped[k] for k in cb.COMPONENTS], cb.CoBumParams().alphas()
        )
    )
