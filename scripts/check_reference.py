#!/usr/bin/env python3
"""Check that every shipped config still reproduces perfbench/reference.json.

Runs each config in configs/ at master seeds 1-3 in a temporary directory and
compares the sha256 of its results.{csv,json,md} with the reference digests.
Prints one `config@seed ok|MISMATCH` line per run and exits 1 on any mismatch.
Then prints one sha256 over every file the runs wrote except manifest.json,
which alone holds wall-clock times and paths: two checkouts that write the
same bytes print the same line, so their outputs compare with `diff`.
Then it prints one sha256 over the `saliency.csv` that the `saliency`
subcommand writes for each run's baseline on the test split, and one over
what each post-hoc strategy that the run completed returns besides its model
(its step_log, truncated, cost_units and extra, as repr), rerun on the run's
bundle, baseline and gold checkpoints: the per-step losses to the last bit.
Last, it runs perfbench's `influence` ops at workload seeds 1 and 2 and prints
one sha256 over every (op key, verified result): the influence values, CG
iterations and convergence flags, to the last bit. Each of these four lines
ends in `ok`, or in `MISMATCH` and the expected digest from DIGESTS, and any
mismatch makes the exit status 1; a change that declares an output change
updates DIGESTS. Last of all it prints the line count of the Python modules
in src/unlearnlab.

    python3 scripts/check_reference.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
DIGESTS = {
    "all files but manifest.json":
        "f9600027fd26ad75adda025b955774df38288e94749baab2b15cd25f15e51022",
    "saliency of the baselines":
        "f836e1005d696c55ec26cdf83e86e4fa3b78b5f9b1d5cd7c5863b217c03d534c",
    "strategy step logs": "ed032fe176935a96121c58ab2594466cafc7b7bdd9e1841b624adc870b788ea6",
    "influence at seeds 1-2":
        "68513699e18505c9743672936445abb25bde764ef1d478820e78c07c4124875a",
}


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True  # leave no cache files under perfbench/
    import workloads
    from unlearnlab import cli
    from unlearnlab import harness as hn

    reference = workloads.load_reference()
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for config in sorted((ROOT / "configs").glob("*.cfg")):
            cfg = hn.load_config(config)
            for seed in SEEDS:
                key = f"{config.stem}@{seed}"
                out = Path(tmp) / key
                manifest = hn.run_experiment(cfg, seed, out, config_path=config)
                try:
                    if key not in reference:
                        raise workloads.Mismatch("no reference digests")
                    workloads.verify_results(out, manifest, reference[key])
                    print(f"{key} ok")
                except workloads.Mismatch as e:
                    failed += 1
                    print(f"{key} MISMATCH: {e}")
        digest = hashlib.sha256()
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file() and path.name != "manifest.json":
                digest.update(str(path.relative_to(tmp)).encode() + b"\0")
                digest.update(path.read_bytes())
        for label, value in zip(DIGESTS, (
                digest.hexdigest(), saliency_digest(cli, Path(tmp)),
                step_log_digest(hn, Path(tmp)), influence_digest(workloads, Path(tmp)))):
            verdict = "ok" if value == DIGESTS[label] else f"MISMATCH: expected {DIGESTS[label]}"
            failed += verdict != "ok"
            print(f"{label}: sha256 {value} {verdict}")
    package = ROOT / "src" / "unlearnlab"
    lines = sum(len(p.read_bytes().splitlines()) for p in package.glob("*.py"))
    print(f"src/unlearnlab: {lines} lines")
    return 1 if failed else 0


def saliency_digest(cli, work: Path) -> str:
    digest = hashlib.sha256()
    for config in sorted((ROOT / "configs").glob("*.cfg")):
        for seed in SEEDS:
            run, out = work / f"{config.stem}@{seed}", work / f"saliency-{config.stem}@{seed}"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["saliency", "--config", str(config), "--seed", str(seed),
                                 "--checkpoint", str(run / "baseline.ckpt"), "--out", str(out)])
            if code != 0:
                raise SystemExit(f"saliency of {run.name} exited {code}")
            digest.update((out / "saliency.csv").read_bytes())
    return digest.hexdigest()


def step_log_digest(hn, work: Path) -> str:
    from unlearnlab import model as md

    digest = hashlib.sha256()
    for config in sorted((ROOT / "configs").glob("*.cfg")):
        cfg = hn.load_config(config)
        for seed in SEEDS:
            run = work / f"{config.stem}@{seed}"
            failed = json.loads((run / "manifest.json").read_text())["failed_strategies"]
            bundle = hn.build_bundle(cfg, seed)
            baseline, gold = (md.load_checkpoint(run / f"{role}.ckpt")
                              for role in ("baseline", "gold"))
            for name in cfg.strategies:
                if name not in failed:
                    r = hn.run_strategy(name, cfg, bundle, baseline, gold, seed)
                    digest.update(repr((run.name, name, r.step_log, r.truncated,
                                        r.cost_units, r.extra)).encode())
    return digest.hexdigest()


def influence_digest(workloads, work: Path) -> str:
    digest = hashlib.sha256()
    for seed in (1, 2):
        ctx = workloads.Context(root=ROOT, work=work / f"influence-{seed}", seed=seed)
        for op in workloads.setup_influence(ctx):
            digest.update(repr((op.key, op.verify(op.run()))).encode())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
