"""Composite unlearning score: five component scores anchored to a baseline
and a gold (retrained-from-scratch) model, combined by a weighted harmonic
mean.

Components for an unlearned model M_u against gold M_g and baseline M_0:

    U = (RA_u/RA_g + TA_u/TA_g) / 2        utility retention
    F = 1 - (N_DP + N_EO) / 2              fairness recovery
    Q = 1 - FA_u/max(FA_g, epsilon)        forgetting quality
    P = 1 - N_MIA                          privacy
    E = log T_g / log T_u                  efficiency

N_X interpolates a metric between its gold value (0) and baseline value (1),
with a gamma-sloped penalty past baseline and a clip past gold. Raw scores
are clamped to [epsilon, 1] before the harmonic mean, which is undefined at
non-positive values; clamping preserves ordering among bad performers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .fairness_eval import EvalReport

COMPONENTS = ("U", "F", "Q", "P", "E")

# Runtimes at or below this are floored before logs; log of a tiny T_u would
# otherwise blow E up.
MIN_TIME = 2.0


@dataclass
class CoBumParams:
    alpha_U: float = 0.25
    alpha_F: float = 0.25
    alpha_Q: float = 1.0
    alpha_P: float = 1.0
    alpha_E: float = 1.0
    gamma: float = 0.5
    kappa: float = 1.0
    epsilon: float = 0.01

    def __post_init__(self):
        alphas = self.alphas()
        if not all(map(math.isfinite, (*alphas, self.gamma, self.kappa, self.epsilon))):
            raise ValueError("weights, gamma, kappa and epsilon must be finite")
        if any(a < 0 for a in alphas) or not any(a > 0 for a in alphas):
            raise ValueError("weights must be non-negative with at least one positive")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")

    def alphas(self) -> tuple[float, ...]:
        return (self.alpha_U, self.alpha_F, self.alpha_Q, self.alpha_P, self.alpha_E)


@dataclass
class CoBumScores:
    raw: dict[str, float]
    clamped: dict[str, float] = field(default_factory=dict)
    composite: float = float("nan")


def normalize(metric_u: float, metric_gold: float, metric_base: float, gamma: float = 0.5) -> float:
    """Position of metric_u on the gold(0)..baseline(1) axis.

    Past-baseline regressions grow at slope gamma; past-gold overshoot clips
    to 0 (better than gold earns no extra credit).
    """
    if metric_base == metric_gold:
        raise ValueError(
            f"baseline and gold metric coincide at {metric_base}; normalization undefined"
        )
    if gamma < 0:
        raise ValueError("gamma must be non-negative")
    n = (metric_u - metric_gold) / (metric_base - metric_gold)
    if n < 0.0:
        return 0.0
    if n > 1.0:
        return 1.0 + gamma * (n - 1.0)
    return n


def clamp(value: float, epsilon: float) -> float:
    return min(1.0, max(epsilon, value))


def _log_time(t: float) -> float:
    return math.log(max(t, MIN_TIME))


def component_scores(
    report_u: EvalReport,
    report_gold: EvalReport,
    report_base: EvalReport,
    params: CoBumParams | None = None,
) -> CoBumScores:
    """Raw and clamped component scores for one unlearned model.

    Times are taken from the reports' deterministic time_units field so that
    identical runs score identically. Q's denominator is max(FA_g, epsilon):
    a gold model with exactly zero forget accuracy leaves the plain ratio
    undefined, and with the floor any nonzero FA_u scores maximally bad while
    FA_u = 0 scores 1, the continuous limit. Any report's FA or MIA being
    NaN (an empty forget set) leaves Q and P undefined and raises
    ValueError, as do gold RA or TA at or below zero and a DP, EO or MIA
    that baseline and gold share.
    """
    params = params or CoBumParams()
    for role, report in (("unlearned", report_u), ("gold", report_gold),
                         ("baseline", report_base)):
        if math.isnan(report.fa) or math.isnan(report.mia_auc):
            raise ValueError(f"{role} FA or MIA is NaN; forgetting cannot be scored")
    fa_gold = max(report_gold.fa, params.epsilon)
    for name, value in (("RA", report_gold.ra), ("TA", report_gold.ta)):
        if value <= 0.0:
            raise ValueError(f"gold {name} must be positive, got {value}")

    n_dp = normalize(report_u.dp_gap, report_gold.dp_gap, report_base.dp_gap, params.gamma)
    n_eo = normalize(report_u.eo_gap, report_gold.eo_gap, report_base.eo_gap, params.gamma)
    n_mia = normalize(report_u.mia_auc, report_gold.mia_auc, report_base.mia_auc, params.gamma)

    raw = {
        "U": 0.5 * (report_u.ra / report_gold.ra + report_u.ta / report_gold.ta),
        "F": 1.0 - 0.5 * (n_dp + n_eo),
        "Q": 1.0 - report_u.fa / fa_gold,
        "P": 1.0 - n_mia,
        "E": _log_time(report_gold.time_units) / _log_time(report_u.time_units),
    }
    clamped = {k: clamp(v, params.epsilon) for k, v in raw.items()}
    return CoBumScores(raw=raw, clamped=clamped)


def cobum(scores: CoBumScores, params: CoBumParams | None = None) -> float:
    """kappa * (sum of weights) / (weight-over-score sum), on clamped scores."""
    params = params or CoBumParams()
    clamped = scores.clamped or {k: clamp(v, params.epsilon) for k, v in scores.raw.items()}
    assert all(clamped[k] > 0.0 for k in COMPONENTS), "clamping must keep scores positive"
    weights = dict(zip(COMPONENTS, params.alphas()))
    total = sum(weights.values())
    denom = sum(weights[k] / clamped[k] for k in COMPONENTS)
    value = params.kappa * total / denom
    scores.clamped = clamped
    scores.composite = value
    return value


def score_reports(
    report_u: EvalReport,
    report_gold: EvalReport,
    report_base: EvalReport,
    params: CoBumParams | None = None,
) -> CoBumScores:
    """component_scores + cobum in one call; returns the filled CoBumScores."""
    params = params or CoBumParams()
    scores = component_scores(report_u, report_gold, report_base, params)
    cobum(scores, params)
    return scores
