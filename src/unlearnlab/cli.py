"""Command-line entry point.

Subcommands mirror the pipeline stages: `generate`, `train`, `unlearn`,
`eval`, `cobum`, `saliency` run one stage each against a scenario config;
`run` executes the whole pipeline and writes the report table. Exit codes:
0 success, 2 operator error (bad flags, missing files, malformed config, a
checkpoint that is corrupt or does not fit the config's data), 1 internal
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from . import __version__
from . import biasgen as bg
from . import cobum as cb
from . import fairness_eval as fe
from . import harness as hn
from . import model as md
from . import unlearn as ul


def _out_dir(args, default_name: str) -> Path:
    """The --out directory, or default_name under the output root; created."""
    if args.out:
        out = Path(args.out)
    else:
        out = Path(os.environ.get("UNLEARNLAB_OUT_ROOT", "runs")) / default_name
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:  # a file where a directory should be, say
        raise hn.UserError(f"output directory {out}: {e}") from e
    return out


def _seed(text: str) -> int:
    """The --seed type: every derived seed (master seed plus a role's offset)
    must be non-negative, so the master seed must be too."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _config(args) -> hn.ExperimentConfig:
    if not args.config:
        raise hn.UserError("this subcommand needs --config")
    return hn.load_config(args.config)


def _checkpoint_for(bundle: bg.DataBundle, path,
                    role: str = "checkpoint") -> md.ModelParams:
    """Load a checkpoint, rejecting a missing or corrupt file or one whose
    input width or class count does not fit the bundle."""
    if not Path(path).exists():
        raise hn.UserError(f"{role} not found: {path}")
    try:
        model = md.load_checkpoint(path)
    except (OSError, ValueError) as e:  # OSError: the path is a directory, say
        raise hn.UserError(str(e)) from e
    width = bundle.d_s + bundle.d_b
    if model.layer_sizes[0] != width or model.n_classes != bundle.n_classes:
        raise hn.UserError(
            f"checkpoint {path}: model takes {model.layer_sizes[0]} inputs and "
            f"{model.n_classes} classes, the config's bundle has {width} and "
            f"{bundle.n_classes}")
    return model


def _load_or_train_baseline(cfg, bundle, args):
    if args.baseline:
        return _checkpoint_for(bundle, args.baseline, "baseline checkpoint")
    model, _, _ = hn.train_baseline(cfg, bundle, args.seed)
    return model


def cmd_generate(args) -> int:
    cfg = _config(args)
    bundle = hn.build_bundle(cfg, args.seed)
    path = _out_dir(args, f"{cfg.name}-seed{args.seed}-generate") / "bundle.csv"
    bg.save_bundle(bundle, path)
    print(f"bundle: {path} ({len(bundle.train)} train / {len(bundle.val)} val / "
          f"{len(bundle.test)} test, |D_f|={len(bundle.forget_idx)})")
    return 0


def cmd_train(args) -> int:
    cfg = _config(args)
    bundle = hn.build_bundle(cfg, args.seed)
    model, wall, units = hn.train_baseline(cfg, bundle, args.seed)
    path = hn.save_model(model, _out_dir(args, f"{cfg.name}-seed{args.seed}-train"),
                         "baseline")
    print(f"baseline checkpoint: {path} ({wall:.2f}s, {units:.0f} units)")
    return 0


def cmd_unlearn(args) -> int:
    cfg = _config(args)
    if args.strategy not in cfg.strategies:
        raise hn.UserError(
            f"strategy {args.strategy!r} is not listed in {cfg.name}'s config "
            f"(has: {', '.join(cfg.strategies)})")
    strategy = ul.POST_HOC_STRATEGIES[args.strategy]
    bundle = hn.build_bundle(cfg, args.seed)
    baseline = _load_or_train_baseline(cfg, bundle, args)
    if refused := [name for name in strategy.refuses if getattr(baseline, name)]:
        raise hn.UserError(f"baseline checkpoint {args.baseline}: {args.strategy} "
                           f"cannot start from a model with {', '.join(refused)}")
    gold = None
    if strategy.needs_teacher:
        gold = (_checkpoint_for(bundle, args.gold, "gold checkpoint") if args.gold
                else hn.train_gold(cfg, bundle, args.seed).model)
        if (gold.layer_sizes, gold.head) != (baseline.layer_sizes, baseline.head):
            given = " and ".join(filter(None, (args.baseline, args.gold)))
            raise hn.UserError(
                f"checkpoint {given}: teacher {gold.layer_sizes}/{gold.head} does not "
                f"fit student {baseline.layer_sizes}/{baseline.head}")
    seconds = {}
    with hn.clock(seconds, "unlearn"):
        result = hn.run_strategy(args.strategy, cfg, bundle, baseline, gold, args.seed)
    out = _out_dir(args, f"{cfg.name}-seed{args.seed}-{args.strategy}")
    path = hn.save_model(result.model, out, args.strategy)
    note = " (truncated by divergence guard)" if result.truncated else ""
    print(f"{args.strategy} checkpoint: {path} ({seconds['unlearn']:.2f}s, "
          f"{result.cost_units:.0f} units){note}")
    return 0


def cmd_eval(args) -> int:
    cfg = _config(args)
    bundle = hn.build_bundle(cfg, args.seed)
    model = _checkpoint_for(bundle, args.checkpoint)
    baseline = hn.load_report(args.baseline_report) if args.baseline_report else None
    report = fe.evaluate_model(model, bundle, baseline=baseline)
    out = _out_dir(args, f"{cfg.name}-seed{args.seed}-eval")
    path = hn.write_json(out / "report.json", hn.report_to_dict(report))
    print(f"report: {path} (FA={report.fa:.4f} RA={report.ra:.4f} "
          f"TA={report.ta:.4f} DP={report.dp_gap:.4f} EO={report.eo_gap:.4f} "
          f"MIA={report.mia_auc:.4f})")
    return 0


def cmd_cobum(args) -> int:
    params = _config(args).cobum_params if args.config else cb.CoBumParams()
    unlearned = hn.load_report(args.unlearned)
    gold = hn.load_report(args.gold_report)
    baseline = hn.load_report(args.baseline_report)
    scored = cb.score_reports(unlearned, gold, baseline, params)
    parts = " ".join(f"{k}={scored.clamped[k]:.4f}" for k in cb.COMPONENTS)
    print(f"{parts} Co-BUM={scored.composite:.4f}")
    hn.write_json(_out_dir(args, "cobum") / "cobum.json", dataclasses.asdict(scored))
    return 0


def cmd_run(args) -> int:
    cfg = _config(args)
    out = _out_dir(args, f"{cfg.name}-seed{args.seed}")
    manifest = hn.run_experiment(cfg, args.seed, out, config_path=args.config)
    failed = (f", failed: {', '.join(manifest.failed_strategies)}"
              if manifest.failed_strategies else "")
    print(f"run complete: {manifest.reports['csv']}{failed}")
    return 0


def cmd_saliency(args) -> int:
    cfg = _config(args)
    bundle = hn.build_bundle(cfg, args.seed)
    model = _checkpoint_for(bundle, args.checkpoint)
    samples = bundle.split(args.split)
    if args.limit is not None:
        if args.limit < 1:
            raise hn.UserError("--limit must be >= 1")
        samples = samples[: args.limit]
    path = _out_dir(args, f"{cfg.name}-seed{args.seed}-saliency") / "saliency.csv"
    cols = bg.bundle_header(bundle.d_s, bundle.d_b)[: bundle.d_s + bundle.d_b]
    lines = [",".join(["index", "label", "group"] + cols)]
    for i, smp in enumerate(samples):
        lines.append(",".join([str(i), str(smp.label), str(smp.group)]
                              + [f"{v:.6f}" for v in fe.saliency(model, smp)]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"saliency: {path} ({len(samples)} rows from {args.split})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unlearnlab",
        description="Desk-scale machine-unlearning laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="scenario config file (.cfg)")
        p.add_argument("--seed", type=_seed, default=1, help="master seed, >= 0")
        p.add_argument("--out", help="output directory "
                       "(default: $UNLEARNLAB_OUT_ROOT or ./runs, per-command subdir)")
        p.set_defaults(func=fn)
        return p

    add("generate", cmd_generate, "write a data bundle")
    add("train", cmd_train, "train the biased baseline")
    p = add("unlearn", cmd_unlearn, "run one unlearning strategy")
    p.add_argument("--strategy", required=True,
                   choices=sorted(ul.POST_HOC_STRATEGIES))
    p.add_argument("--baseline", help="baseline checkpoint to start from "
                   "(default: retrain in place)")
    p.add_argument("--gold", help="gold checkpoint for scrub's teacher "
                   "(default: retrain in place; other strategies ignore it)")
    p = add("eval", cmd_eval, "evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--baseline-report", help="baseline report.json for drop columns")
    p = add("cobum", cmd_cobum, "composite score from three report files")
    p.add_argument("--unlearned", required=True, help="unlearned model report.json")
    p.add_argument("--gold-report", required=True, help="gold model report.json")
    p.add_argument("--baseline-report", required=True, help="baseline report.json")
    add("run", cmd_run, "full pipeline: generate, train, unlearn, evaluate, report")
    p = add("saliency", cmd_saliency, "per-sample input attribution dump")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="test", choices=list(bg.SPLITS))
    p.add_argument("--limit", type=int, help="only the first N samples")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except hn.UserError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
