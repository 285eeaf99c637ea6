#!/usr/bin/env python3
"""Check that every shipped config still reproduces perfbench/reference.json.

Runs each config in configs/ at master seeds 1-3 in a temporary directory and
compares the sha256 of its results.{csv,json,md} with the reference digests.
Prints one `config@seed ok|MISMATCH` line per run and exits 1 on any mismatch.
Then prints one sha256 over every file the runs wrote except manifest.json,
which alone holds wall-clock times and paths: two checkouts that write the
same bytes print the same line, so their outputs compare with `diff`.

    python3 scripts/check_reference.py
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True  # leave no cache files under perfbench/
    import workloads
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
        print(f"all files but manifest.json: sha256 {digest.hexdigest()}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
