#!/usr/bin/env python3
"""Rewrite perfbench/reference.json: sha256 of results.{csv,json,md} for each
shipped config at master seeds 1-3.

    python3 perfbench/make_reference.py

The pipeline workload fails any op whose results differ from these digests,
so rerun this only in a change that declares and explains a results change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import workloads
    from unlearnlab import harness as hn

    reference = {}
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name in workloads.CONFIGS:
            config = ROOT / "configs" / f"{name}.cfg"
            cfg = hn.load_config(config)
            for seed in SEEDS:
                out = Path(tmp) / f"{name}-{seed}"
                manifest = hn.run_experiment(cfg, seed, out, config_path=config)
                reference[f"{name}@{seed}"] = workloads.verify_results(out, manifest, None)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=2, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH} ({len(reference)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
