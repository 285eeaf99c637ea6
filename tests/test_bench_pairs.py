"""scripts/bench_pairs.py's comparison of one metric's parent and change runs."""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

HIGHER = {"unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"unit": "s", "better": "lower", "bound": 0.25}


def flags(spec, parent, change):
    out = bench_pairs.compare(spec, parent, change)
    return out["within_bound"], out["unresolved"]


@pytest.mark.parametrize("spec, parent, change, within, unresolved", [
    # Parent median 101.5, spread 1.5: a 20% loss is within the 25% bound,
    # a 30% loss is not, and both are resolved.
    (HIGHER, [100, 101, 102, 103], [80, 81, 82, 83], True, False),
    (HIGHER, [100, 101, 102, 103], [70, 71, 72, 73], False, False),
    (LOWER, [100, 101, 102, 103], [125, 126, 127, 128], True, False),
    (LOWER, [100, 101, 102, 103], [128, 129, 130, 131], False, False),
    # Parent median 2.5 with quartiles 1.75-3.25: a spread of 60%, wider
    # than the bound, so only a change that beat every parent run resolves.
    (LOWER, [1, 2, 3, 4], [2, 2.5, 3, 3.5], True, True),
    (LOWER, [1, 2, 3, 4], [0.1, 0.2, 0.3, 0.9], True, False),
    (LOWER, [1, 2, 3, 4], [0.1, 0.2, 0.3, 1.0], True, True),  # a tie is no win
    (HIGHER, [1, 2, 3, 4], [4.5, 5, 6, 7], True, False),
    (HIGHER, [1, 2, 3, 4], [0.5, 1, 1.5, 2], False, True),
])
def test_compare_flags_each_metric_against_its_bound(spec, parent, change, within,
                                                     unresolved):
    assert flags(spec, parent, change) == (within, unresolved)


def test_compare_counts_wins_and_the_gap_against_the_parent_spread():
    out = bench_pairs.compare(LOWER, [100, 101, 102, 103], [90, 102, 92, 93])
    assert (out["change_wins"], out["parent_wins"]) == (3, 1)
    assert out["parent"]["median"] == 101.5 and out["change"]["median"] == 92.5
    assert out["gap_exceeds_parent_iqr"] and out["change_over_parent"] == 92.5 / 101.5


@pytest.mark.parametrize("spec, parent, change, met", [
    # 10 pairs, parent median 100.5, quartiles 100-101: a gain of 5.5 that
    # wins 9 pairs meets the claim, one that wins 8 does not.
    (HIGHER, [100] * 5 + [101] * 5, [106] * 9 + [99], True),
    (HIGHER, [100] * 5 + [101] * 5, [106] * 8 + [99] * 2, False),
    (LOWER, [100] * 5 + [101] * 5, [95] * 9 + [102], True),
    # A tie is no win: 8 wins and 2 ties.
    (HIGHER, [100] * 5 + [101] * 5, [106] * 8 + [100, 101], False),
    # Every pair won, but the gap (1.5) is inside the quartile spread (1.75).
    (HIGHER, [100, 99, 103, 98, 104, 100, 101, 102, 100, 101],
     [104, 102, 105, 101, 106, 102, 102, 103, 101, 102], False),
    # 2 of 2 pairs is at least 9 in 10.
    (HIGHER, [100, 101], [110, 111], True),
])
def test_compare_meets_a_claim_on_nine_in_ten_wins_and_a_gap_past_the_spread(
        spec, parent, change, met):
    assert bench_pairs.compare(spec, parent, change)["claim_met"] is met


def test_main_keeps_each_runs_load_beside_its_values(tmp_path, monkeypatch):
    runs = []

    def fake_run_once(checkout, workload, seed, seconds):
        runs.append(checkout)
        n = len(runs)
        result = {"failed": 0, "attempted": 1,
                  "metrics": {name: {"value": float(n)} for name in
                              ("ops_per_s", "op_ms_p50", "setup_s", "peak_rss_mb")}}
        return {"nproc": 2, "loadavg": [n / 10, 9.0, 9.0]}, result

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    root = SCRIPT.parents[1]
    parent = tmp_path / "parent"
    (parent / "perfbench").mkdir(parents=True)
    (parent / "perfbench" / "run.py").touch()
    out = tmp_path / "bench.json"
    bench_pairs.main(["--parent", str(parent), "--change", str(root), "--pr", "0",
                      "--out", str(out), "w:3"])
    report = json.loads(out.read_text())
    work = report["workloads"]["w"]
    # Pairs alternate which side runs first: parent, change; change, parent; ...
    assert work["first_side"] == ["parent", "change", "parent"]
    assert work["load_1m"] == {"parent": [0.1, 0.4, 0.5], "change": [0.2, 0.3, 0.6]}
    assert work["metrics"]["ops_per_s"]["parent"]["runs"] == [1.0, 4.0, 5.0]
    assert "loadavg" not in report["environment"]["parent"]


def git(cwd, *argv):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv], cwd=cwd,
                   check=True, capture_output=True)


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_provenance_reads_a_commit_only_at_the_top_of_its_work_tree(tmp_path):
    plain = tmp_path / "plain"
    plain.mkdir()
    assert bench_pairs.provenance(plain) == {"commit": None, "dirty": None}
    repo = tmp_path / "repo"
    (repo / "copy").mkdir(parents=True)
    (repo / "copy" / "run.py").write_text("")
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "seed")
    assert bench_pairs.provenance(repo / "copy") == {"commit": None, "dirty": None}
    head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=repo, check=True,
                          capture_output=True, text=True).stdout.strip()
    assert bench_pairs.provenance(repo) == {"commit": head, "dirty": False}
    (repo / "copy" / "run.py").write_text("changed")
    assert bench_pairs.provenance(repo) == {"commit": head, "dirty": True}
