#!/usr/bin/env python3
"""Compare two checkouts on the benchmark in alternating pairs.

    python3 scripts/bench_pairs.py --parent ../parent --change . --pr N \\
        influence:10 pipeline:5 artifacts:5

Each ``workload:pairs`` argument runs ``perfbench/run.py --trace 0`` on both
checkouts ``pairs`` times, from the root of each checkout, alternating which
side runs first. Both runs of a pair use the same workload seed, and each
pair its own (``--seed``, ``--seed + 1``, ...). The result line of every run
is parsed, and ``BENCH_<pr>.json`` records, per workload and end-to-end
metric, each side's runs with their median and quartiles, how many pairs
each side won (ties count for neither), and whether the median gap exceeds
the parent's quartile spread, beside each side's 1-minute load average at
the start of each run, so that a pair lost under host load shows as one.
Two flags read each metric against its bound:
``within_bound`` when the change's median is worse than the parent's by at
most the bound (a fraction of the parent's median), and ``unresolved`` when
the parent's own quartile spread is wider than that, so the runs cannot tell,
unless every run of the change beat every run of the parent. It also records
the environment the runs reported (nproc, numpy, BLAS and its thread
settings) and each checkout's commit, with whether its tree differs from that
commit, or null for both when the checkout is not the top of a git work tree.
Metric directions and bounds come from the change's
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--pr", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path)
    parser.add_argument("workloads", nargs="+", metavar="workload:pairs")
    args = parser.parse_args(argv)
    plan = []
    for spec in args.workloads:
        name, _, pairs = spec.partition(":")
        if not pairs.isdigit() or int(pairs) < 2:
            parser.error(f"expected workload:pairs with pairs >= 2, got {spec!r}")
        plan.append((name, int(pairs)))
    args.workloads = plan
    for side in SIDES:
        if not (getattr(args, side) / "perfbench" / "run.py").is_file():
            parser.error(f"--{side}: no perfbench/run.py under {getattr(args, side)}")
    return args


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(environment comment, result line) of one untraced run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    env = next((json.loads(line.split(":", 1)[1]) for line in lines
                if line.startswith("# env:")), {})
    return env, json.loads(lines[-1])


def summary(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": runs}


def compare(spec: dict, parent: list[float], change: list[float]) -> dict:
    sign = 1.0 if spec["better"] == "higher" else -1.0
    p, c = summary(parent), summary(change)
    gap = sign * (c["median"] - p["median"])
    iqr, allowed = p["q3"] - p["q1"], spec["bound"] * abs(p["median"])
    return {
        "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
        "parent": p, "change": c,
        "change_wins": sum(sign * (b - a) > 0 for a, b in zip(parent, change)),
        "parent_wins": sum(sign * (a - b) > 0 for a, b in zip(parent, change)),
        "change_over_parent": c["median"] / p["median"] if p["median"] else None,
        "gap_exceeds_parent_iqr": gap > iqr,
        "within_bound": gap >= -allowed,
        "unresolved": iqr > allowed and not min(sign * b for b in change) > max(
            sign * a for a in parent),
    }


def git(checkout: Path, *argv: str) -> str:
    proc = subprocess.run(["git", *argv], cwd=checkout, capture_output=True, text=True,
                          check=False)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def provenance(checkout: Path) -> dict:
    """The checkout's commit, and whether its tree differs from that commit;
    both null unless the checkout is the top of a git work tree, since a
    plain copy has no commit and a copy inside another tree is not its HEAD."""
    top = git(checkout, "rev-parse", "--show-toplevel")
    if not top or Path(top).resolve() != checkout.resolve():
        return {"commit": None, "dirty": None}
    return {"commit": git(checkout, "rev-parse", "HEAD") or None,
            "dirty": bool(git(checkout, "status", "--porcelain"))}


def main(argv=None) -> int:
    args = parse_args(argv)
    specs = {m["name"]: m for m in
             json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]}
    report = {
        "checkouts": {side: provenance(getattr(args, side)) for side in SIDES},
        "seconds": args.seconds,
        "environment": {},
        "workloads": {},
    }
    for workload, pairs in args.workloads:
        values = {side: {name: [] for name in specs} for side in SIDES}
        failed = {side: 0 for side in SIDES}
        attempted = {side: 0 for side in SIDES}
        load = {side: [] for side in SIDES}
        for i in range(pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                env, result = run_once(getattr(args, side), workload, seed, args.seconds)
                load[side].append(env.pop("loadavg", [None])[0])
                report["environment"].setdefault(side, env)
                failed[side] += result["failed"]
                attempted[side] += result["attempted"]
                for name in specs:
                    values[side][name].append(result["metrics"][name]["value"])
            line = " ".join(f"{side}={values[side]['ops_per_s'][-1]:.4g}" for side in SIDES)
            print(f"{workload} pair {i + 1}/{pairs} seed {seed}: ops_per_s {line}", flush=True)
        report["workloads"][workload] = {
            "pairs": pairs,
            "seeds": [args.seed + i for i in range(pairs)],
            "first_side": [SIDES[i % 2] for i in range(pairs)],
            "failed": failed,
            "attempted": attempted,
            "load_1m": load,
            "metrics": {name: compare(spec, values["parent"][name], values["change"][name])
                        for name, spec in specs.items()},
        }
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
