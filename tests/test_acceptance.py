"""End-to-end acceptance checks.

Covers gradient exactness, the curvature machinery, influence faithfulness
against leave-one-out retraining, scenario behavior at the shipped config
defaults, the fairness/membership metrics against counting oracles, the
composite score's algebra, and byte-level run reproducibility. Every check
asserts the wall-clock budget it must fit in; the expensive patch pipelines
are built once per seed and shared.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.stats import spearmanr

from unlearnlab import autodiff as ad
from unlearnlab import biasgen as bg
from unlearnlab import cli
from unlearnlab import cobum as cb
from unlearnlab import fairness_eval as fe
from unlearnlab import harness as hn
from unlearnlab import model as md
from unlearnlab import unlearn as ul

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SEEDS = (1, 2, 3)


def flat_loss_fn(model, X, y):
    """(theta0, fn) with fn mapping a flat parameter tensor to the mean loss."""
    theta0, rebuild = md.flat_param_closure(model)
    head = model.head

    def fn(flat):
        return md.loss_from_logits(md.forward_stack(rebuild(flat), X), y, head)

    return theta0, fn


# ---------------------------------------------------------------------------
# Gradient exactness: reverse-mode vs central finite differences.
# ---------------------------------------------------------------------------

def test_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    probes = 0
    for trial in range(20):
        depth = int(rng.integers(1, 4))
        d_in = int(rng.integers(5, 11))  # >= 5 params even for a linear head
        head = "sigmoid" if trial % 3 == 0 else "softmax"
        n_out = 1 if head == "sigmoid" else int(rng.integers(2, 6))
        sizes = [d_in] + [int(rng.integers(2, 65)) for _ in range(depth - 1)] + [n_out]
        model = md.init_model(sizes, head, seed=trial)
        n = 8
        X = rng.normal(size=(n, d_in))
        hi = 2 if head == "sigmoid" else n_out
        y = rng.integers(0, hi, size=n)

        theta0, fn = flat_loss_fn(model, X, y)
        leaf = ad.tensor(theta0)
        (g,) = ad.grad(fn(leaf), [leaf])

        for j in rng.choice(theta0.size, size=5, replace=False):
            h = 1e-5 * max(1.0, abs(theta0[j]))
            up, dn = theta0.copy(), theta0.copy()
            up[j] += h
            dn[j] -= h
            fd = (fn(ad.tensor(up)).item() - fn(ad.tensor(dn)).item()) / (2 * h)
            denom = max(abs(fd), abs(g.data[j]), 1e-6)
            assert abs(g.data[j] - fd) / denom <= 1e-4, (
                f"trial {trial} coord {j}: grad {g.data[j]} vs fd {fd}")
            probes += 1
    assert probes == 100
    assert time.perf_counter() - t0 < 10.0


# ---------------------------------------------------------------------------
# Curvature: Hessian-vector products and CG vs dense linear algebra.
# ---------------------------------------------------------------------------

def test_hvp_and_cg_match_dense_solves():
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    d, n = 12, 150
    X = rng.normal(size=(n, d))
    y = rng.integers(0, 2, size=n)
    model = md.init_model([d, 1], "sigmoid", seed=0)
    theta0, fn = flat_loss_fn(model, X, y)

    # Mean logistic loss over x~ = (x, 1): H = (1/n) sum sigma'(z) x~ x~^T.
    Xt = np.hstack([X, np.ones((n, 1))])
    z = Xt @ theta0
    w = 1.0 / (np.exp(z) + np.exp(-z) + 2.0)
    H = (Xt.T * w) @ Xt / n

    leaf = ad.tensor(theta0)
    for _ in range(20):
        v = rng.normal(size=theta0.size)
        hv = ad.hessian_vector_product(fn, leaf, v).data
        ref = H @ v
        assert np.linalg.norm(hv - ref) / np.linalg.norm(ref) <= 1e-6

    damping = 1e-2
    rhs = rng.normal(size=theta0.size)
    solve = ad.cg_solve(
        lambda p: ad.hessian_vector_product(fn, leaf, p).data,
        rhs, damping=damping, max_iter=500, tol=1e-12)
    dense = np.linalg.solve(H + damping * np.eye(d + 1), rhs)
    assert solve.converged
    assert np.linalg.norm(solve.x - dense) / np.linalg.norm(dense) <= 1e-6
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# Influence scores vs actual leave-one-out retraining.
# ---------------------------------------------------------------------------

def _logistic_samples(rng, n, d, w_true):
    X = rng.normal(size=(n, d))
    p = 1.0 / (1.0 + np.exp(-(X @ w_true)))
    y = (rng.random(n) < p).astype(int)
    return bg.rows(X, np.zeros((n, 0)), y, 0, False)


def _solve_logistic(model, samples):
    _, fn = ul.loss_closure(model, samples)

    def f_and_g(theta):
        leaf = ad.tensor(theta)
        out = fn(leaf)
        (g,) = ad.grad(out, [leaf])
        return float(out.data), g.data

    res = minimize(f_and_g, np.zeros(model.layers[0][0].shape[1] + 1), jac=True,
                   method="BFGS", options={"gtol": 1e-10, "maxiter": 2000})
    return res.x


def test_influence_tracks_leave_one_out_retraining():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    d, n = 5, 60
    w_true = rng.normal(size=d)
    train = _logistic_samples(rng, n, d, w_true)
    probe = _logistic_samples(rng, 30, d, w_true)

    model = md.init_model([d, 1], "sigmoid", seed=0)
    theta_full = _solve_logistic(model, train)
    md.set_flat_params(model, theta_full)
    _, bias_fn = ul.loss_closure(model, probe)
    b_full = bias_fn(ad.tensor(theta_full)).item()

    values, effects = [], []
    for i in range(30):
        result = ul.influence(model, train[i], bias_fn, train, damping=1e-8,
                              tol=1e-12)
        assert result.converged
        values.append(result.value)
        theta_loo = _solve_logistic(model, train[np.arange(n) != i])
        effects.append(b_full - bias_fn(ad.tensor(theta_loo)).item())

    rho = spearmanr(values, effects).statistic
    assert rho >= 0.9, f"Spearman {rho:.3f} between influence and retraining"
    assert time.perf_counter() - t0 < 60.0


# ---------------------------------------------------------------------------
# One undamped Newton step lands on a quadratic's minimum.
# ---------------------------------------------------------------------------

def test_newton_step_lands_on_quadratic_minimum():
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    d = 8
    M = rng.normal(size=(d, d))
    A = M @ M.T + d * np.eye(d)
    theta_star = rng.normal(size=d)
    theta0 = rng.normal(size=d)

    def loss_fn(flat):
        col = ad.reshape(ad.sub(flat, ad.tensor(theta_star)), (d, 1))
        quad = ad.matmul(ad.transpose(col), ad.matmul(ad.tensor(A), col))
        return ad.scale(ad.sum_all(quad), 0.5)

    theta1, info = ul.newton_unlearn_step(loss_fn, theta0, damping=0.0, tol=1e-14)
    assert info.converged and not info.fallback
    assert np.max(np.abs(theta1 - theta_star)) <= 1e-8
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# Patch scenario at shipped defaults: shortcut learning, forgetting, probes.
# ---------------------------------------------------------------------------

@dataclass
class SeedStack:
    bundle: bg.DataBundle
    baseline: md.ModelParams
    gold: md.ModelParams
    base_report: fe.EvalReport
    gold_report: fe.EvalReport
    strategy_reports: dict = field(default_factory=dict)
    prep_seconds: float = 0.0
    strategy_seconds: float = 0.0


@pytest.fixture(scope="module")
def patch_stack():
    cfg = hn.load_config(CONFIG_DIR / "patch.cfg")
    stacks = {}
    for seed in SEEDS:
        t0 = time.perf_counter()
        bundle = hn.build_bundle(cfg, seed)
        baseline, _, _ = hn.train_baseline(cfg, bundle, seed)
        gold = ul.hard_unlearn(bundle, hn._train_config(cfg, seed + hn.SEED_GOLD),
                               hn.model_arch(cfg, bundle), head=cfg.head).model
        base_report = fe.evaluate_model(baseline, bundle)
        gold_report = fe.evaluate_model(gold, bundle)
        stack = SeedStack(bundle, baseline, gold, base_report, gold_report,
                          prep_seconds=time.perf_counter() - t0)
        t1 = time.perf_counter()
        for name in ("gradient_ascent", "lora", "scrub"):
            result = hn.run_strategy(name, cfg, bundle, md.copy_model(baseline),
                                     md.copy_model(gold), seed)
            stack.strategy_reports[name] = fe.evaluate_model(result.model, bundle)
        stack.strategy_seconds = time.perf_counter() - t1
        stacks[seed] = stack
    return stacks


def test_patch_baseline_learns_shortcut_and_retraining_removes_it(patch_stack):
    stack = patch_stack[1]
    assert stack.base_report.fa >= 0.95, "baseline must latch onto the marker"
    assert stack.gold_report.fa <= 0.60, "retraining must drop the shortcut"
    assert abs(stack.gold_report.ra - stack.base_report.ra) <= 0.10
    assert stack.prep_seconds < 120.0


def test_patch_strategies_forget_without_losing_retain_accuracy(patch_stack):
    for seed in SEEDS:
        stack = patch_stack[seed]
        for name in ("gradient_ascent", "lora", "scrub"):
            rep = stack.strategy_reports[name]
            assert rep.fa < stack.base_report.fa, (
                f"seed {seed} {name}: FA {rep.fa} did not drop below "
                f"baseline {stack.base_report.fa}")
            assert abs(rep.ra - stack.base_report.ra) <= 0.15, (
                f"seed {seed} {name}: RA moved {rep.ra} vs {stack.base_report.ra}")
    total = sum(patch_stack[s].strategy_seconds for s in SEEDS)
    assert total < 300.0


def test_marker_gradient_ratio_separates_baseline_from_retrained(patch_stack):
    t0 = time.perf_counter()
    for seed in SEEDS:
        stack = patch_stack[seed]
        probes = bg.forget_samples(stack.bundle)
        ratio_base = fe.bias_gradient_ratio(stack.baseline, probes,
                                            stack.bundle.d_s)
        ratio_gold = fe.bias_gradient_ratio(stack.gold, probes,
                                            stack.bundle.d_s)
        assert ratio_base > ratio_gold, (
            f"seed {seed}: baseline ratio {ratio_base:.3f} vs gold {ratio_gold:.3f}")
    assert time.perf_counter() - t0 < 30.0


# ---------------------------------------------------------------------------
# Fairness gaps vs counting oracles; frozen relative-drop values.
# ---------------------------------------------------------------------------

def _dp_oracle(preds, groups):
    rates = []
    for g in (0, 1):
        cell = [int(p) for p, gg in zip(preds, groups) if gg == g]
        rates.append(sum(cell) / len(cell))
    return abs(rates[0] - rates[1])


def _eo_oracle(preds, labels, groups):
    diffs = []
    for yv in (1, 0):
        rates = []
        for g in (0, 1):
            cell = [int(p) for p, yy, gg in zip(preds, labels, groups)
                    if yy == yv and gg == g]
            rates.append(sum(cell) / len(cell))
        diffs.append(abs(rates[0] - rates[1]))
    return max(diffs)


def test_fairness_gaps_match_counting_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(88)
    for _ in range(50):
        extra = int(rng.integers(20, 160))
        # Four forced rows keep every (group, label) cell populated.
        groups = [0, 0, 1, 1] + list(rng.integers(0, 2, size=extra))
        labels = [0, 1, 0, 1] + list(rng.integers(0, 2, size=extra))
        preds = list(rng.integers(0, 2, size=extra + 4))
        dp = fe.demographic_parity_gap(preds, groups)
        eo = fe.equalized_odds_gap(preds, labels, groups)
        assert abs(dp - _dp_oracle(preds, groups)) <= 1e-12
        assert abs(eo - _eo_oracle(preds, labels, groups)) <= 1e-12

    assert abs(fe.fairness_drop_pct(1.0, 0.0263) - 97.37) <= 1e-9
    assert abs(fe.fairness_drop_pct(1.0, 1.1184) - (-11.84)) <= 1e-9
    # The drop is a pure ratio, so it is scale invariant.
    assert abs(fe.fairness_drop_pct(0.38, 0.38 * 0.0263) - 97.37) <= 1e-9
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# Membership AUC on known score distributions.
# ---------------------------------------------------------------------------

def test_membership_auc_on_known_distributions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    members = rng.normal(size=500)
    nonmembers = rng.normal(size=500)
    auc = fe.auc_from_scores(members, nonmembers)
    assert 0.45 <= auc <= 0.55, f"identical distributions gave AUC {auc:.4f}"
    assert fe.auc_from_scores(nonmembers + 10.0, nonmembers) == 1.0
    assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# Composite score algebra.
# ---------------------------------------------------------------------------

def test_composite_score_algebra():
    t0 = time.perf_counter()
    params = cb.CoBumParams()

    rng = np.random.default_rng(1010)
    for _ in range(50):
        raw = {k: float(v) for k, v in
               zip(cb.COMPONENTS, rng.uniform(-0.2, 1.2, size=5))}
        value = cb.cobum(cb.CoBumScores(raw=raw), params)
        assert 0.0 < value <= params.kappa

    base = {"U": 0.5, "F": 0.6, "Q": 0.7, "P": 0.8, "E": 0.9}
    ref = cb.cobum(cb.CoBumScores(raw=dict(base)), params)
    for k in cb.COMPONENTS:
        bumped = dict(base)
        bumped[k] += 0.05
        assert cb.cobum(cb.CoBumScores(raw=bumped), params) > ref, (
            f"raising {k} must raise the composite")

    for s in (0.3, 0.8):
        equal = {k: s for k in cb.COMPONENTS}
        wide = cb.CoBumParams(kappa=2.0)
        assert abs(cb.cobum(cb.CoBumScores(raw=dict(equal)), params) - s) <= 1e-12
        assert abs(cb.cobum(cb.CoBumScores(raw=equal), wide) - 2.0 * s) <= 1e-12

    worked = {"U": 1.0, "F": 1.0, "Q": 0.5, "P": 1.0, "E": 1.0}
    assert abs(cb.cobum(cb.CoBumScores(raw=worked), params) - 0.7778) <= 1e-4

    # A model identical to the retrained reference, at equal cost, maxes out
    # every normalized component; Q compares forget accuracies directly and
    # is deliberately outside this identity.
    gold = fe.EvalReport(fa=0.2, ra=0.95, ta=0.9, dp_gap=0.05, eo_gap=0.06,
                         mia_auc=0.52, time_units=300.0)
    baseline = fe.EvalReport(fa=0.9, ra=0.97, ta=0.93, dp_gap=0.4, eo_gap=0.3,
                             mia_auc=0.8, time_units=600.0)
    scored = cb.score_reports(gold, gold, baseline, params)
    for k in ("U", "F", "P", "E"):
        assert scored.clamped[k] == 1.0
    assert time.perf_counter() - t0 < 1.0


# ---------------------------------------------------------------------------
# Attribute scenario: ascent trades accuracy for parity, every seed.
# ---------------------------------------------------------------------------

def test_attribute_ascent_trades_accuracy_for_parity():
    t0 = time.perf_counter()
    cfg = hn.load_config(CONFIG_DIR / "attribute.cfg")
    for seed in SEEDS:
        bundle = hn.build_bundle(cfg, seed)
        baseline, _, _ = hn.train_baseline(cfg, bundle, seed)
        gold = ul.hard_unlearn(bundle, hn._train_config(cfg, seed + hn.SEED_GOLD),
                               hn.model_arch(cfg, bundle), head=cfg.head).model
        base_report = fe.evaluate_model(baseline, bundle)
        reports = {}
        for name in ("gradient_ascent", "lora", "scrub"):
            result = hn.run_strategy(name, cfg, bundle, md.copy_model(baseline),
                                     md.copy_model(gold), seed)
            reports[name] = fe.evaluate_model(result.model, bundle,
                                              baseline=base_report)
        ga = reports["gradient_ascent"]
        for other in ("lora", "scrub"):
            assert ga.dp_drop_pct > reports[other].dp_drop_pct, (
                f"seed {seed}: ascent DP drop {ga.dp_drop_pct:.2f} vs "
                f"{other} {reports[other].dp_drop_pct:.2f}")
            assert ga.ta < reports[other].ta, (
                f"seed {seed}: ascent TA {ga.ta:.4f} vs {other} "
                f"{reports[other].ta:.4f}")
    assert time.perf_counter() - t0 < 300.0


# ---------------------------------------------------------------------------
# Byte-level reproducibility of a full run.
# ---------------------------------------------------------------------------

def test_full_run_is_byte_reproducible(tmp_path):
    t0 = time.perf_counter()
    config = str(CONFIG_DIR / "patch.cfg")
    for name in ("a", "b"):
        code = cli.main(["run", "--config", config, "--seed", "1",
                         "--out", str(tmp_path / name)])
        assert code == 0
    first = (tmp_path / "a" / "results.csv").read_bytes()
    second = (tmp_path / "b" / "results.csv").read_bytes()
    assert first == second
    assert time.perf_counter() - t0 < 300.0
