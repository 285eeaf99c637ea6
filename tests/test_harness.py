"""Pipeline and CLI tests: config parsing, table emission, run artifacts,
determinism, and exit codes. Experiment configs here are shrunk to seconds
of work; the shipped configs are exercised by the acceptance suite."""

from __future__ import annotations

import dataclasses
import errno
import functools
import hashlib
import json
import math
import os
import re
import time
from pathlib import Path

import numpy as np
import pytest

from unlearnlab import biasgen as bg
from unlearnlab import cli
from unlearnlab import fairness_eval as fe
from unlearnlab import harness as hn
from unlearnlab import model as md
from unlearnlab import unlearn as ul
from unlearnlab.fairness_eval import EvalReport

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

TINY_PATCH = """
[scenario]
kind = patch
n_per_class = 20
n_classes = 3
target_class = 0
patch_fraction = 0.5
marker_value = 2.0

[model]
hidden = 8

[train]
epochs = 10
batch_size = 16
learning_rate = 5e-3

[gradient_ascent]
eta = 1e-4
steps = 3

[lora]
eta = 1e-3
rank = 2
steps = 3
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_PATCH)
    return path


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def use_cpus(monkeypatch, n: int) -> None:
    """Make run_experiment see n usable CPUs, so use n processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


# ---------------------------------------------------------------------------
# Config parsing.
# ---------------------------------------------------------------------------

def test_shipped_configs_parse():
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        cfg = hn.load_config(path)
        assert cfg.name == path.stem
        assert cfg.kind in ("patch", "attribute", "pose")
        assert cfg.strategies
        for name in cfg.strategies:
            assert name in ul.POST_HOC_STRATEGIES


def test_attribute_config_omits_fmd():
    cfg = hn.load_config(CONFIG_DIR / "attribute.cfg")
    assert "fmd" not in cfg.strategies


def test_tiny_config_values(tiny_config):
    cfg = hn.load_config(tiny_config)
    assert cfg.kind == "patch"
    assert list(cfg.strategies) == ["gradient_ascent", "lora"]
    assert cfg.hidden == 8
    assert cfg.train.epochs == 10
    assert cfg.strategies["gradient_ascent"] == ul.StrategyConfig(eta=1e-4, steps=3)
    assert cfg.scenario_params["n_per_class"] == 20


def test_missing_config_names_path(tmp_path):
    missing = tmp_path / "nope.cfg"
    with pytest.raises(hn.ConfigError, match="nope.cfg"):
        hn.load_config(missing)


def test_unknown_scenario_kind(tmp_path):
    path = write_config(tmp_path, "[scenario]\nkind = wavelength\n")
    with pytest.raises(hn.ConfigError, match="wavelength"):
        hn.load_config(path)


def test_unknown_strategy_rejected(tmp_path, tiny_config):
    text = tiny_config.read_text() + "\n[gradient_descent]\neta = 1e-3\n"
    path = write_config(tmp_path, text)
    with pytest.raises(hn.ConfigError, match="gradient_descent"):
        hn.load_config(path)


def test_hard_not_listable(tmp_path, tiny_config):
    text = tiny_config.read_text() + "\n[hard]\n"
    path = write_config(tmp_path, text)
    with pytest.raises(hn.ConfigError, match="gold reference"):
        hn.load_config(path)


def test_fmd_rejected_without_counterfactual_recipe(tmp_path):
    path = write_config(tmp_path, """
[scenario]
kind = attribute
n = 200
corr_ratio = 4.0

[fmd]
""")
    with pytest.raises(hn.ConfigError, match="counterfactual"):
        hn.load_config(path)


def test_unknown_key_rejected(tmp_path, tiny_config):
    text = tiny_config.read_text().replace("marker_value = 2.0",
                                           "marker_value = 2.0\nglitter = 9")
    path = write_config(tmp_path, text)
    with pytest.raises(hn.ConfigError, match="glitter"):
        hn.load_config(path)


def test_bad_value_type_names_section(tmp_path, tiny_config):
    text = tiny_config.read_text().replace("n_per_class = 20", "n_per_class = many")
    path = write_config(tmp_path, text)
    with pytest.raises(hn.ConfigError, match=r"\[scenario\] n_per_class"):
        hn.load_config(path)


def test_invalid_strategy_param_names_section(tmp_path, tiny_config):
    text = tiny_config.read_text().replace("eta = 1e-4", "eta = -1.0")
    path = write_config(tmp_path, text)
    with pytest.raises(hn.ConfigError, match=r"\[gradient_ascent\]"):
        hn.load_config(path)


def test_a_strategy_section_runs_the_strategy(tmp_path, tiny_config):
    text = tiny_config.read_text() + "\n[scrub]\neta = 1e-2\n"
    cfg = hn.load_config(write_config(tmp_path, text))
    assert list(cfg.strategies) == ["gradient_ascent", "lora", "scrub"]
    assert cfg.strategies["scrub"] == ul.StrategyConfig(eta=1e-2)


# What each strategy reads; every other StrategyConfig key is an error in its section.
STRATEGY_READS = {
    "gradient_ascent": ("eta", "alpha", "steps"),
    "lora": ("eta", "beta", "rank", "steps"),
    "scrub": ("eta", "steps"),
    "fmd": ("eta", "damping", "finetune_steps", "hessian_scope"),
}
STRATEGY_VALUES = {"eta": 1e-3, "alpha": 0.5, "beta": 0.5, "rank": 2, "steps": 3,
                   "damping": 1.0, "finetune_steps": 1, "hessian_scope": "all"}
TINY_SCENARIO = TINY_PATCH.split("[model]")[0]


def test_strategy_sections_accept_the_keys_they_read(tmp_path):
    text = TINY_SCENARIO
    for name, keys in STRATEGY_READS.items():
        text += f"\n[{name}]\n" + "".join(f"{k} = {STRATEGY_VALUES[k]}\n" for k in keys)
    cfg = hn.load_config(write_config(tmp_path, text))
    for name, keys in STRATEGY_READS.items():
        assert cfg.strategies[name] == ul.StrategyConfig(
            **{k: STRATEGY_VALUES[k] for k in keys}), name


@pytest.mark.parametrize("strategy,key", [
    (name, key) for name, reads in STRATEGY_READS.items()
    for key in STRATEGY_VALUES if key not in reads])
def test_strategy_section_rejects_keys_it_ignores(tmp_path, capsys, strategy, key):
    path = write_config(tmp_path,
                        TINY_SCENARIO + f"\n[{strategy}]\n{key} = {STRATEGY_VALUES[key]}\n")
    with pytest.raises(hn.ConfigError, match=rf"\[{strategy}\] has unknown key '{key}'"):
        hn.load_config(path)
    assert cli.main(["generate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
    assert f"[{strategy}] has unknown key '{key}'" in capsys.readouterr().err


def test_scenario_keys_follow_generator_signature(tmp_path, tiny_config):
    text = tiny_config.read_text().replace(
        "marker_value = 2.0", "marker_value = 2.0\nconfuser_class = 2\nclass_sep = 4")
    cfg = hn.load_config(write_config(tmp_path, text))
    assert type(cfg.scenario_params["confuser_class"]) is int  # from int | None
    assert type(cfg.scenario_params["class_sep"]) is float
    assert hn.build_bundle(cfg, 1).meta["confuser_class"] == 2
    # seed comes from the master seed, never from the config.
    seeded = write_config(tmp_path, text.replace("class_sep = 4", "class_sep = 4\nseed = 3"),
                          "seeded.cfg")
    with pytest.raises(hn.ConfigError, match="unknown key 'seed'"):
        hn.load_config(seeded)


def gen_toy_bias(n: int, seed: int, shift: float = 2.0) -> bg.DataBundle:
    """Binary labels carried by s; a group that splits each label evenly, in b."""
    rng = np.random.default_rng(seed)
    splits = {}
    for name, size in zip(bg.SPLITS, bg.split_sizes(n)):
        label, group = np.arange(size) % 2, (np.arange(size) // 2) % 2
        splits[name] = bg.rows(rng.normal(size=(size, 2)) + shift * label[:, None],
                               group[:, None], label, group, (label == 1) & (group == 1))
    return bg.DataBundle("toy", 2, 1, 2, splits["train"], splits["val"], splits["test"],
                         np.flatnonzero(splits["train"].bias_flag), seed)


def test_new_scenario_is_a_generator_and_one_record(tmp_path, monkeypatch):
    monkeypatch.setattr(bg, "gen_toy_bias", gen_toy_bias, raising=False)
    monkeypatch.setitem(bg.SCENARIOS, "toy",
                        bg.Scenario("gen_toy_bias", lambda meta: [1], 1, "raise"))
    path = write_config(tmp_path, """
[scenario]
kind = toy
n = 200
shift = 3

[model]
hidden = 4
head = sigmoid
""")
    cfg = hn.load_config(path)
    assert cfg.scenario_params == {"n": 200, "shift": 3.0}
    bundle = hn.build_bundle(cfg, 1)
    assert bundle.kind == "toy" and bundle.seed == 1 + hn.SEED_DATA
    report = fe.evaluate_model(md.init_model(hn.model_arch(cfg, bundle), cfg.head, 0), bundle)
    assert 0.0 <= report.dp_gap <= 1.0 and 0.0 <= report.eo_gap <= 1.0
    with pytest.raises(hn.ConfigError, match="missing keys: n"):
        hn.load_config(write_config(tmp_path, "[scenario]\nkind = toy\n", "bare.cfg"))
    with pytest.raises(hn.ConfigError, match="counterfactual"):
        hn.load_config(write_config(
            tmp_path, "[scenario]\nkind = toy\nn = 200\n[fmd]\n", "fmd.cfg"))


def test_missing_required_scenario_keys(tmp_path):
    path = write_config(tmp_path, "[scenario]\nkind = patch\n")
    with pytest.raises(hn.ConfigError, match="missing keys"):
        hn.load_config(path)


def test_cobum_section_maps_to_params(tmp_path, tiny_config):
    text = tiny_config.read_text() + "\n[cobum]\ngamma = 0.25\nalpha_u = 0.5\n"
    path = write_config(tmp_path, text)
    cfg = hn.load_config(path)
    assert cfg.cobum_params.gamma == 0.25
    assert cfg.cobum_params.alpha_U == 0.5


def test_train_defaults_to_train_config(tmp_path):
    cfg = hn.load_config(write_config(tmp_path, TINY_SCENARIO))
    assert cfg.train == md.TrainConfig()


def test_train_keys_follow_train_config_fields(tmp_path, tiny_config, monkeypatch):
    @dataclasses.dataclass
    class WarmTrainConfig(md.TrainConfig):
        warmup: int = 0

    monkeypatch.setattr(md, "TrainConfig", WarmTrainConfig)
    text = tiny_config.read_text().replace("epochs = 10", "epochs = 10\nwarmup = 3")
    cfg = hn.load_config(write_config(tmp_path, text))
    assert cfg.train == WarmTrainConfig(epochs=10, batch_size=16, learning_rate=5e-3,
                                        warmup=3)
    assert hn._train_config(cfg, 7) == dataclasses.replace(cfg.train, seed=7)


def test_train_seed_is_not_a_key(tmp_path, tiny_config):
    text = tiny_config.read_text().replace("epochs = 10", "epochs = 10\nseed = 3")
    with pytest.raises(hn.ConfigError, match=r"\[train\] has unknown key 'seed'"):
        hn.load_config(write_config(tmp_path, text))


def test_unknown_model_key_names_the_known_keys(tmp_path, tiny_config):
    text = tiny_config.read_text().replace("hidden = 8", "hidden = 8\ndepth = 2")
    with pytest.raises(hn.ConfigError,
                       match=r"\[model\] has unknown key 'depth' \(known: hidden, head\)"):
        hn.load_config(write_config(tmp_path, text))


def test_strategy_listed_twice_rejected(tmp_path, tiny_config, capsys):
    path = write_config(tmp_path, tiny_config.read_text() + "\n[lora]\nrank = 1\n")
    with pytest.raises(hn.ConfigError, match="section 'lora' already exists"):
        hn.load_config(path)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert "section 'lora' already exists" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_section_order_sets_each_strategy_seed(tmp_path, monkeypatch):
    seeds = {}
    for function in ("gradient_ascent", "lora_unlearn"):
        def spy(*args, _function=function, cfg, **kwargs):
            seeds[_function] = cfg.seed
        monkeypatch.setattr(ul, function, functools.wraps(getattr(ul, function))(spy))
    head, rest = TINY_PATCH.split("[gradient_ascent]")
    ga, lora = rest.split("[lora]")
    swapped = head + "[lora]" + lora + "\n[gradient_ascent]" + ga
    for text, first, second in ((TINY_PATCH, "gradient_ascent", "lora_unlearn"),
                                (swapped, "lora_unlearn", "gradient_ascent")):
        cfg = hn.load_config(write_config(tmp_path, text))
        bundle = hn.build_bundle(cfg, 7)
        for name in cfg.strategies:
            hn.run_strategy(name, cfg, bundle, object(), None, 7)
        assert seeds == {first: 7 + hn.SEED_STRATEGY, second: 7 + hn.SEED_STRATEGY + 100}
    assert cfg.strategies["lora"] == ul.StrategyConfig(eta=1e-3, rank=2, steps=3)


def test_an_empty_strategy_section_runs_on_defaults(tmp_path, monkeypatch):
    got = []
    monkeypatch.setattr(ul, "scrub_unlearn", functools.wraps(ul.scrub_unlearn)(
        lambda model, *, bundle, cfg, teacher: got.append(cfg)))
    cfg = hn.load_config(write_config(tmp_path, TINY_SCENARIO + "\n[scrub]\n"))
    assert cfg.strategies == {"scrub": ul.StrategyConfig()}
    hn.run_strategy("scrub", cfg, hn.build_bundle(cfg, 7), object(), object(), 7)
    assert got == [ul.StrategyConfig(seed=7 + hn.SEED_STRATEGY)]


@pytest.mark.parametrize("text,expect", [
    (TINY_PATCH.replace("kind = patch", "kind = patch\nstrategies = gradient_ascent lora"),
     "[scenario] has unknown key 'strategies'"),
    (TINY_PATCH + "\n[hard]\n", "[hard]: 'hard' runs implicitly as the gold reference"),
    (TINY_PATCH + "\n[scrubs]\neta = 1e-2\n",
     "unknown section [scrubs] (known strategies: gradient_ascent, lora, scrub, fmd)"),
], ids=["strategies-key", "hard", "unknown-section"])
def test_cli_run_rejects_sections_that_name_no_strategy(tmp_path, capsys, text, expect):
    out, config = tmp_path / "o", write_config(tmp_path, text, "old.cfg")
    assert cli.main(["run", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert expect in err and f"error: {config}: " in err
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("section,old,new", [
    ("train", "learning_rate = 5e-3", "learning_rate = nan"),
    ("train", "learning_rate = 5e-3", "learning_rate = inf"),
    ("lora", "eta = 1e-3\nrank", "eta = nan\nrank"),
    ("lora", "eta = 1e-3\nrank", "eta = inf\nrank"),
    ("cobum", "gamma = 0.5", "gamma = nan"),
    ("cobum", "gamma = 0.5", "gamma = inf"),
])
def test_cli_non_finite_value_is_operator_error(tmp_path, capsys, section, old, new):
    text = TINY_PATCH + "\n[cobum]\ngamma = 0.5\n"
    assert text.count(old) == 1
    path = write_config(tmp_path, text.replace(old, new))
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"[{section}]" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_readme_config_format_lists_the_keys_each_section_reads():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Config format\n")[1].split("\n## ")[0]
    listed = {}
    for line in section.splitlines():
        entry = re.fullmatch(r"\s*- `\[(\w+)\]`[^:]*: (.*)", line)
        if entry:
            listed[entry[1]] = entry[2]
    for name, strategy in ul.POST_HOC_STRATEGIES.items():
        assert re.fullmatch(r"`([\w, ]+)`", listed[name])[1].split(", ") == list(strategy.reads)
    train = dict(re.findall(r"`(\w+)` \(([^)]*)\)", listed["train"]))
    fields = [f.name for f in dataclasses.fields(md.TrainConfig) if f.name != "seed"]
    assert list(train) == fields
    assert {k: float(v) for k, v in train.items()} == {
        k: getattr(md.TrainConfig(), k) for k in fields}


def test_sigmoid_head_needs_binary_task(tmp_path, tiny_config):
    text = tiny_config.read_text().replace("hidden = 8", "hidden = 8\nhead = sigmoid")
    path = write_config(tmp_path, text)
    with pytest.raises(hn.ConfigError, match="binary"):
        hn.load_config(path)


def test_seed_offsets_are_stable():
    offsets = (hn.SEED_DATA, hn.SEED_BASELINE, hn.SEED_GOLD,
               hn.SEED_STRATEGY, hn.SEED_COUNTERFACTUAL)
    assert offsets == (1000, 2000, 3000, 4000, 5000)


@pytest.mark.parametrize("seed", [-1, -5, -1000, -1500])
def test_negative_master_seed_is_blamed_on_the_seed(tiny_config, tmp_path, seed):
    cfg = hn.load_config(tiny_config)
    with pytest.raises(hn.UserError, match="master seed") as info:
        hn.build_bundle(cfg, seed)
    assert not isinstance(info.value, hn.ConfigError)
    with pytest.raises(hn.UserError, match="master seed"):
        hn.run_experiment(cfg, seed, tmp_path / "run")
    payload = json.loads((tmp_path / "run" / "manifest.json").read_text(encoding="utf-8"))
    assert payload["failed_stage"] == "generate"


# ---------------------------------------------------------------------------
# Table emission.
# ---------------------------------------------------------------------------

def report(fa=0.3, ra=0.9, ta=0.85, dp=0.2, eo=0.25, mia=0.6, t=100.0,
           dp_drop=None, eo_drop=None):
    return EvalReport(fa=fa, ra=ra, ta=ta, dp_gap=dp, eo_gap=eo, mia_auc=mia,
                      time_units=t, dp_drop_pct=dp_drop, eo_drop_pct=eo_drop)


def test_single_baseline_row(tmp_path):
    rows = [hn.TableRow("Baseline", report())]
    path = hn.emit_table(rows, "csv", tmp_path / "t.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "Baseline"
    assert cells[-1] == "--"
    assert cells[4] == "0.00" and cells[5] == "0.00"


def test_undefined_drop_renders_as_dashes(tmp_path):
    rows = [hn.TableRow("GA", report(dp_drop=float("nan"), eo_drop=12.5),
                        cobum_score=0.5)]
    line = hn.emit_table(rows, "csv", tmp_path / "t.csv").read_text(
        encoding="utf-8").splitlines()[1]
    cells = line.split(",")
    assert cells[4] == "--" and cells[5] == "12.50"


def test_failed_row_cells(tmp_path):
    rows = [hn.TableRow("Baseline", report()),
            hn.TableRow("LoRA", error="ValueError: rank 10 outside [1, 8]")]
    line = hn.emit_table(rows, "csv", tmp_path / "t.csv").read_text(
        encoding="utf-8").splitlines()[2]
    assert line == "LoRA," + ",".join(["failed"] * 8)


def test_json_and_csv_numerics_identical(tmp_path):
    rows = [hn.TableRow("Baseline", report()),
            hn.TableRow("GA", report(fa=0.1, dp_drop=80.0, eo_drop=-5.0),
                        cobum_score=0.62)]
    csv_path = hn.emit_table(rows, "csv", tmp_path / "t.csv")
    json_path = hn.emit_table(rows, "json", tmp_path / "t.json")
    payload = json.loads(json_path.read_text(encoding="utf-8"))
    csv_lines = csv_path.read_text(encoding="utf-8").splitlines()
    header = csv_lines[0].split(",")
    assert header == payload["columns"]
    for line, entry in zip(csv_lines[1:], payload["rows"]):
        for col, cell in zip(header, line.split(",")):
            value = entry[col]
            if isinstance(value, float):
                assert float(cell) == value
            else:
                assert cell == value


def test_markdown_dominant_row_takes_all_bolds(tmp_path):
    better = report(fa=0.05, ra=0.99, ta=0.97, mia=0.45, t=50.0,
                    dp_drop=90.0, eo_drop=80.0)
    worse = report(fa=0.4, ra=0.8, ta=0.7, mia=0.7, t=500.0,
                   dp_drop=10.0, eo_drop=5.0)
    rows = [hn.TableRow("Baseline", report()),
            hn.TableRow("GA", better, cobum_score=0.9),
            hn.TableRow("SCRUB", worse, cobum_score=0.2)]
    text = hn.emit_table(rows, "markdown", tmp_path / "t.md").read_text(
        encoding="utf-8")
    ga_line = next(line for line in text.splitlines() if "| GA |" in line)
    scrub_line = next(line for line in text.splitlines() if "| SCRUB |" in line)
    base_line = next(line for line in text.splitlines() if "| Baseline |" in line)
    assert ga_line.count("**") == 16  # 8 metric columns, opening and closing
    assert "**" not in scrub_line
    assert "**" not in base_line


def test_emit_table_rejects_empty_and_unknown_format(tmp_path):
    with pytest.raises(ValueError, match="at least one row"):
        hn.emit_table([], "csv", tmp_path / "t.csv")
    with pytest.raises(ValueError, match="format"):
        hn.emit_table([hn.TableRow("Baseline", report())], "tsv", tmp_path / "t")


def bold_columns(tmp_path, rows):
    """method -> the columns whose markdown cell is bold."""
    text = hn.emit_table(rows, "markdown", tmp_path / "t.md").read_text(
        encoding="utf-8")
    out = {}
    for line in text.splitlines()[2:]:
        cells = line[2:-2].split(" | ")
        out[cells[0]] = {col for col, cell in zip(hn.TABLE_COLUMNS, cells)
                         if cell.startswith("**")}
    return out


def test_markdown_ties_at_printed_precision_are_all_bold(tmp_path):
    rows = [hn.TableRow("Baseline", report()),
            hn.TableRow("GA", report(fa=0.2), cobum_score=0.03412),
            hn.TableRow("LoRA", report(fa=0.1), cobum_score=0.03408),
            hn.TableRow("SCRUB", report(fa=0.3), cobum_score=0.0173)]
    bold = bold_columns(tmp_path, rows)
    tied = set(hn.TABLE_COLUMNS[1:]) - {"FA ↓", "Co-BUM ↑"}  # equal reports
    assert bold["GA"] == tied | {"Co-BUM ↑"}
    assert bold["LoRA"] == tied | {"Co-BUM ↑", "FA ↓"}
    assert bold["SCRUB"] == tied


def test_markdown_hard_row_is_never_bold(tmp_path):
    best = report(fa=0.0, ra=1.0, ta=1.0, mia=0.01, t=1.0, dp_drop=99.0, eo_drop=99.0)
    rows = [hn.TableRow("Baseline", report()),
            hn.TableRow("Hard", best),
            hn.TableRow("GA", report(fa=0.2, dp_drop=50.0, eo_drop=40.0),
                        cobum_score=0.5)]
    bold = bold_columns(tmp_path, rows)
    assert bold["Hard"] == set() and bold["Baseline"] == set()
    assert bold["GA"] == set(hn.TABLE_COLUMNS[1:])


def test_markdown_failed_row_is_never_bold(tmp_path):
    better = report(fa=0.05, ra=0.99, ta=0.97, mia=0.45, t=50.0,
                    dp_drop=90.0, eo_drop=80.0)
    worse = report(fa=0.4, ra=0.8, ta=0.7, mia=0.7, t=500.0,
                   dp_drop=10.0, eo_drop=5.0)
    rows = [hn.TableRow("Baseline", report()),
            hn.TableRow("LoRA", error="ValueError: rank 10 outside [1, 8]"),
            hn.TableRow("GA", worse, cobum_score=0.2),
            hn.TableRow("SCRUB", better, cobum_score=0.9)]
    bold = bold_columns(tmp_path, rows)
    assert bold["LoRA"] == set() and bold["GA"] == set()
    assert bold["SCRUB"] == set(hn.TABLE_COLUMNS[1:])


def test_markdown_column_of_dashes_has_no_bold(tmp_path):
    rows = [hn.TableRow("Baseline", report()),
            hn.TableRow("GA", report(dp_drop=80.0, eo_drop=float("nan")),
                        cobum_score=0.5),
            hn.TableRow("LoRA", report(dp_drop=60.0, eo_drop=float("nan")),
                        cobum_score=0.4)]
    bold = bold_columns(tmp_path, rows)
    assert all("EO% ↑" not in columns for columns in bold.values())
    assert "DP% ↑" in bold["GA"] and "DP% ↑" not in bold["LoRA"]


# ---------------------------------------------------------------------------
# Report serialization.
# ---------------------------------------------------------------------------

def test_report_roundtrip_preserves_nan():
    src = report(fa=float("nan"), dp_drop=None)
    back = hn.report_from_dict(json.loads(json.dumps(hn.report_to_dict(src))))
    assert math.isnan(back.fa)
    assert back.dp_drop_pct is None
    assert back.ra == src.ra


def test_report_nulls_follow_field_defaults(monkeypatch):
    # A new optional column is one field defaulting to None; its null stays None.
    @dataclasses.dataclass
    class Wider(EvalReport):
        extra_pct: float | None = None

    monkeypatch.setattr(fe, "EvalReport", Wider)
    data = {**hn.report_to_dict(report(dp_drop=12.5)), "fa": None, "extra_pct": None}
    back = hn.report_from_dict(data)
    assert math.isnan(back.fa) and back.extra_pct is None and back.eo_drop_pct is None
    assert back.dp_drop_pct == 12.5


def test_report_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown fields"):
        hn.report_from_dict({"fa": 0.1, "volume": 11})


# ---------------------------------------------------------------------------
# run_experiment.
# ---------------------------------------------------------------------------

def test_rerun_writes_identical_files_but_the_manifest(tiny_config, tmp_path):
    cfg = hn.load_config(tiny_config)
    runs = [tmp_path / "a", tmp_path / "b"]
    manifests = [hn.run_experiment(cfg, 7, out, config_path=tiny_config) for out in runs]
    files = [sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
             for out in runs]
    assert files[0] == files[1]
    assert Path("eval_reports.json") in files[0]
    for rel in files[0]:
        if rel.name != "manifest.json":
            assert (runs[0] / rel).read_bytes() == (runs[1] / rel).read_bytes(), rel
    for manifest in manifests:
        assert set(manifest.wall_seconds) == {"baseline", "gold", "gradient_ascent", "lora"}
        assert all(seconds > 0.0 for seconds in manifest.wall_seconds.values())
    reports = json.loads((runs[0] / "eval_reports.json").read_text(encoding="utf-8"))
    assert all("wall_time_seconds" not in report for report in reports.values())


def test_run_experiment_artifacts(tiny_config, tmp_path):
    cfg = hn.load_config(tiny_config)
    out = tmp_path / "run"
    manifest = hn.run_experiment(cfg, 7, out, config_path=tiny_config)
    assert manifest.failed_stage is None
    assert not manifest.failed_strategies
    assert set(manifest.stage_seconds) == {
        "generate", "baseline", "gold", "strategies", "evaluate", "cobum", "emit"}
    for path in (*manifest.checkpoints.values(), *manifest.reports.values()):
        assert Path(path).exists()
    assert set(manifest.checkpoints) == {"baseline", "gold", "gradient_ascent", "lora"}
    table = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    methods = [line.split(",")[0] for line in table[1:]]
    assert methods == ["Baseline", "Hard", "GA", "LoRA"]
    payload = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert payload["master_seed"] == 7
    assert payload["config_sha256"]


def test_run_experiment_refuses_overwrite(tiny_config, tmp_path):
    cfg = hn.load_config(tiny_config)
    out = tmp_path / "run"
    hn.run_experiment(cfg, 7, out, config_path=tiny_config)
    with pytest.raises(hn.UserError, match="fresh output"):
        hn.run_experiment(cfg, 7, out, config_path=tiny_config)


def test_run_experiment_deterministic(tiny_config, tmp_path):
    cfg = hn.load_config(tiny_config)
    m1 = hn.run_experiment(cfg, 7, tmp_path / "a", config_path=tiny_config)
    m2 = hn.run_experiment(cfg, 7, tmp_path / "b", config_path=tiny_config)
    for name in ("csv", "json", "markdown"):
        assert (Path(m1.reports[name]).read_bytes()
                == Path(m2.reports[name]).read_bytes())


# sha256 of every other file a seed-1 run of each shipped config writes, but
# manifest.json: its bundle, checkpoints, eval_reports.json and cobum.json.
SEED_1_FILES = {
    "patch": {
        "baseline.ckpt": "62ec7ccebb107a6938301c55b5947ed28b8ecc473dd45fa974dfa1d950b2b0fb",
        "bundle.csv": "fd7908c2902d5269281f1d36008a3c4fbff5326e1441ca11787a4236066662a3",
        "bundle.csv.meta.json": "a02a59a6012ce044fde0ee7cfb12f61c6fb09fbfb237c0d6d05c2d461494a6dd",
        "cobum.json": "df643d48497fabd37f5797990a9b815a273aad4786567dc1ef6c46c9bbf2b083",
        "eval_reports.json": "ce30b52bf04cadaa7dd35b8e8a1b4408daf9ac56dbac0cb0bdc4ebc51f25eecd",
        "fmd.ckpt": "198c2bbbb54e2728ec65722368ff83f1880cb7656ecd3c065d2952547c930b56",
        "gold.ckpt": "a19d1db2fae26989d87e97bd330fbf4e579149fb9067e81e1e572e3863993396",
        "gradient_ascent.ckpt": "ad0df31f41c0c57b2736e6afb35e8e15311f398e18f6e898bf8ff9809fc89f59",
        "lora.ckpt": "61c1ee8385ecfaeeafecaea364eb7777a8248d3fe7b7ba26a7ed8bc92b61f4a6",
        "scrub.ckpt": "7cbdb8d7615760a6eaad35c24995df08b47b89beaa70fef6679a304803b2e0c8",
    },
    "attribute": {
        "baseline.ckpt": "fc3180a0cf8493a224cc2e22eef7a833a731318b3a80e673d3636d47004ef920",
        "bundle.csv": "45c4a275d0eaaedd0bc61d32d60e8d769fc75fd86845f7d02be04041e6c8d25c",
        "bundle.csv.meta.json": "dd8959c62ca6d523437419fb8b06e8f87ee3643995a3e27bcf8d0860c09b55e4",
        "cobum.json": "21b1328a0da08801a4ed5ec55f081706fe3474c7a96175574f3f4afc2970549b",
        "eval_reports.json": "35c8b4338f07662e66879c96cbf783d3743bfc6f2a1c3a53ee9a871b90472b27",
        "gold.ckpt": "1deeeca8b3fcbf63d6e5497237c99719d4591960166a7f6727d71f84c3cb841b",
        "gradient_ascent.ckpt": "eaea28c429b17420a7f463537f4a46fb4f53c5924a60e287e1851571306ee363",
        "lora.ckpt": "3918d18f6a9f92bfc848b826a7c8ccc371799cf0c039e9c68906802301b8fd8c",
        "scrub.ckpt": "e5ea24d617bce1bda7970535f2038b49b4f26c8c888c753b0a2a212886be3e4b",
    },
    "pose": {
        "baseline.ckpt": "6dc0f6d94e3176f822cafe95ec02a50da4b5689d3583b41dba07c6de3f9d21cb",
        "bundle.csv": "7c25c8b30b3a49833cca9dbc24c76586ab98d5bc10d3fd5b7162de6275600966",
        "bundle.csv.meta.json": "11054300f3d03d8aa2183799aa198f66148726717ac61b14f6f910c6a30d64d2",
        "cobum.json": "ab02961af33209a6b1bd15ffcb7d9047472369780b9aeb99541cd921e0701bfb",
        "eval_reports.json": "b50318d4ad74ca5e6a58ce0c3772787077b1034c944318f2182c438666e08c6a",
        "fmd.ckpt": "fca446886aed41d0464e3cdeb460b479b12cac6236daa7e4ef67fc3331f0ca50",
        "gold.ckpt": "85480a10dc58704c8687b6baea8bc17c2fbe273502aea42accf1b540819eac15",
        "gradient_ascent.ckpt": "048f1585f405879d1990ca634e43cb38c77d57b512fd135895efd606c6176a4f",
        "lora.ckpt": "e5979495642794dac17ff17b2fb0cf17efebb34334ca065cd79ab98f2552549a",
        "scrub.ckpt": "c20865679d6522ea83aaf6734881ee1c0894e2857ff9e3d621db99184e854015",
    },
}


@pytest.mark.parametrize("name", ["patch", "attribute", "pose"])
def test_shipped_config_reproduces_reference_results(tmp_path, name):
    """The benchmark's reference digests of results.* at seed 1 hold for
    every shipped config, so a drift in any scenario fails here too; so do
    those of its other files, so a kernel change that moves one bit of a
    checkpoint, or a reordered key in a JSON file, fails as well."""
    expected = json.loads(REFERENCE.read_text())[f"{name}@1"]
    config = CONFIG_DIR / f"{name}.cfg"
    out = tmp_path / name
    manifest = hn.run_experiment(hn.load_config(config), 1, out, config_path=config)
    assert not manifest.failed_strategies
    files = ("results.csv", "results.json", "results.md")
    assert {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files} == expected
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())
            if p.name not in (*files, "manifest.json")} == SEED_1_FILES[name]


def test_run_experiment_strategy_isolation(tiny_config, tmp_path):
    cfg = hn.load_config(tiny_config)
    manifest = hn.run_experiment(cfg, 7, tmp_path / "run", config_path=tiny_config)
    base = Path(manifest.checkpoints["baseline"]).read_bytes()
    ga = Path(manifest.checkpoints["gradient_ascent"]).read_bytes()
    assert ga != base
    # The persisted baseline is still loadable and identical in behavior.
    md.load_checkpoint(manifest.checkpoints["baseline"])


def test_run_experiment_reads_no_checkpoint(tmp_path, monkeypatch):
    # Strategies get the in-memory baseline and gold model, not reloads.
    loads = []
    monkeypatch.setattr(md, "load_checkpoint", lambda path: loads.append(path))
    path = write_config(tmp_path, TINY_RUNS["patch"])
    cfg = hn.load_config(path)
    use_cpus(monkeypatch, 1)  # a load in a forked worker would not reach this list
    manifest = hn.run_experiment(cfg, 7, tmp_path / "run", config_path=path)
    assert set(cfg.strategies) == set(ul.POST_HOC_STRATEGIES)
    assert not manifest.failed_strategies
    assert loads == []


def test_failed_strategy_marks_row_and_keeps_siblings(tmp_path, tiny_config, monkeypatch):
    def reject(*args, **kwargs):
        raise ValueError("lora_unlearn: rejected")
    monkeypatch.setattr(ul, "lora_unlearn", reject)
    cfg = hn.load_config(tiny_config)
    out = tmp_path / "run"
    manifest = hn.run_experiment(cfg, 7, out, config_path=tiny_config)
    assert manifest.failed_stage is None
    assert manifest.failed_strategies == {"lora": "ValueError: lora_unlearn: rejected"}
    assert manifest.wall_seconds["lora"] >= 0.0
    lines = (out / "results.csv").read_text(encoding="utf-8").splitlines()
    lora_line = next(line for line in lines if line.startswith("LoRA,"))
    assert lora_line.split(",")[1] == "failed"
    ga_line = next(line for line in lines if line.startswith("GA,"))
    assert ga_line.split(",")[1] != "failed"


def test_failed_stage_writes_manifest_and_reraises(tmp_path, tiny_config, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("evaluator down")

    monkeypatch.setattr(fe, "evaluate_model", broken)
    out = tmp_path / "run"
    with pytest.raises(RuntimeError, match="evaluator down"):
        hn.run_experiment(hn.load_config(tiny_config), 7, out, config_path=tiny_config)
    payload = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert payload["failed_stage"] == "evaluate"
    assert list(payload["stage_seconds"]) == [
        "generate", "baseline", "gold", "strategies", "evaluate"]
    assert all(seconds >= 0.0 for seconds in payload["stage_seconds"].values())


# ---------------------------------------------------------------------------
# Forked workers.
# ---------------------------------------------------------------------------

def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_files(out: Path) -> dict:
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def meet(where: Path, name: str, *others: str) -> None:
    """Mark name as started, then wait until every other name has started
    too: tasks that meet here run at once, so in different processes."""
    (where / name).touch()
    deadline = time.monotonic() + 30.0
    while not all((where / other).exists() for other in others):
        if time.monotonic() > deadline:
            raise TimeoutError(f"{name} waited for {others} in vain")
        time.sleep(0.002)


@pytest.mark.parametrize("seed", [7, 8])
def test_one_and_two_cpus_write_identical_files(tmp_path, monkeypatch, seed):
    path = write_config(tmp_path, TINY_RUNS["patch"])
    cfg = hn.load_config(path)
    assert set(cfg.strategies) == set(ul.POST_HOC_STRATEGIES)
    use_cpus(monkeypatch, 1)
    serial = hn.run_experiment(cfg, seed, tmp_path / "serial", config_path=path)
    use_cpus(monkeypatch, 2)
    forked = hn.run_experiment(cfg, seed, tmp_path / "forked", config_path=path)
    assert_no_child_left()
    assert run_files(tmp_path / "serial") == run_files(tmp_path / "forked")
    for manifest in (serial, forked):
        assert list(manifest.stage_seconds) == [
            "generate", "baseline", "gold", "strategies", "evaluate", "cobum", "emit"]
        assert list(manifest.wall_seconds) == ["baseline", "gold", *cfg.strategies]
        assert list(manifest.checkpoints) == ["baseline", "gold", *cfg.strategies]
        assert list(manifest.strategies) == [*cfg.strategies]
    assert serial.strategies == forked.strategies


def test_manifest_records_what_each_strategy_did(tmp_path):
    # At attribute seed 1 the GA divergence guard fires after 180 of 300
    # steps, and SCRUB's forget KL is past its clip on 583 of 600 steps.
    config = CONFIG_DIR / "attribute.cfg"
    hn.run_experiment(hn.load_config(config), 1, tmp_path / "run", config_path=config)
    payload = json.loads((tmp_path / "run" / "manifest.json").read_text(encoding="utf-8"))
    assert payload["strategies"] == {
        "gradient_ascent": {"steps": 180, "truncated": True, "cost_units": 217200.0,
                            "extra": {}},
        "lora": {"steps": 40, "truncated": False, "cost_units": 48000.0,
                 "extra": {"adapter_layer": 0, "rank": 8}},
        "scrub": {"steps": 600, "truncated": False, "cost_units": 370200.0,
                  "extra": {"clipped_steps": 583}},
    }


def test_strategy_raising_in_a_worker_is_a_failed_row(tmp_path, monkeypatch):
    path = write_config(tmp_path, TINY_RUNS["patch"])
    cfg = hn.load_config(path)
    use_cpus(monkeypatch, 1)
    serial = hn.run_experiment(cfg, 7, tmp_path / "serial", config_path=path)
    use_cpus(monkeypatch, 2)
    parent = os.getpid()
    for name, other in (("gradient_ascent", "lora_unlearn"), ("lora_unlearn", "gradient_ascent")):
        def met(*args, _fn=getattr(ul, name), _name=name, _other=other, **kwargs):
            meet(tmp_path, _name, _other)  # GA and LoRA run in different processes
            if os.getpid() != parent:
                raise RuntimeError(f"{_name} broke in worker {os.getpid()}")
            return _fn(*args, **kwargs)
        monkeypatch.setattr(ul, name, met)
    out = tmp_path / "forked"
    manifest = hn.run_experiment(cfg, 7, out, config_path=path)
    assert_no_child_left()
    assert manifest.failed_stage is None
    [(failed, message)] = manifest.failed_strategies.items()
    assert failed in ("gradient_ascent", "lora")
    assert re.fullmatch(r"RuntimeError: \w+ broke in worker \d+", message)
    assert f"worker {parent}" not in message
    assert manifest.wall_seconds[failed] >= 0.0
    assert failed not in manifest.strategies
    rows = {line.split(",")[0]: line for line in
            (out / "results.csv").read_text(encoding="utf-8").splitlines()}
    label = ul.POST_HOC_STRATEGIES[failed].label
    assert rows[label] == ",".join([label] + ["failed"] * (len(hn.TABLE_COLUMNS) - 1))
    for name in cfg.strategies:  # the siblings: the same bytes as a serial run
        if name != failed:
            assert (Path(manifest.checkpoints[name]).read_bytes()
                    == Path(serial.checkpoints[name]).read_bytes()), name


def test_worker_that_dies_fails_the_stage(tmp_path, monkeypatch):
    use_cpus(monkeypatch, 2)
    parent = os.getpid()
    for name, other in (("train_baseline", "train_gold"), ("train_gold", "train_baseline")):
        def met(*args, _fn=getattr(hn, name), _name=name, _other=other):
            meet(tmp_path, _name, _other)
            if os.getpid() != parent:
                os._exit(3)
            return _fn(*args)
        monkeypatch.setattr(hn, name, met)
    out = tmp_path / "run"
    with pytest.raises(ChildProcessError, match="died"):
        hn.run_experiment(hn.load_config(write_config(tmp_path, TINY_PATCH)), 7, out)
    assert_no_child_left()
    payload = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert payload["failed_stage"] == "baseline"
    assert list(payload["stage_seconds"]) == ["generate", "baseline"]
    assert payload["checkpoints"] == {}


def test_failed_stage_in_this_process_leaves_no_child(tmp_path, tiny_config, monkeypatch):
    monkeypatch.setattr(fe, "evaluate_model", lambda *a, **k: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        hn.run_experiment(hn.load_config(tiny_config), 7, tmp_path / "run")
    assert_no_child_left()


def test_one_cpu_forks_nothing(tmp_path, tiny_config, monkeypatch):
    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    manifest = hn.run_experiment(hn.load_config(tiny_config), 7, tmp_path / "run")
    assert manifest.failed_stage is None and not manifest.failed_strategies


@pytest.mark.parametrize("forks", [0, 1])
def test_failed_fork_leaves_its_tasks_to_the_processes_there(tmp_path, monkeypatch, forks):
    # forks forks succeed, then the next raises: the run still succeeds, with
    # the same files as a serial run, and the failed fork's pipe is closed.
    path = write_config(tmp_path, TINY_RUNS["patch"])
    cfg = hn.load_config(path)
    use_cpus(monkeypatch, 1)
    hn.run_experiment(cfg, 7, tmp_path / "serial", config_path=path)
    use_cpus(monkeypatch, forks + 2)
    left = [forks]

    def fork(_fork=os.fork):
        if left[0] == 0:
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        left[0] -= 1
        return _fork()
    monkeypatch.setattr(os, "fork", fork)
    open_fds = len(os.listdir("/dev/fd"))
    manifest = hn.run_experiment(cfg, 7, tmp_path / "forked", config_path=path)
    assert_no_child_left()
    assert len(os.listdir("/dev/fd")) == open_fds
    assert manifest.failed_stage is None and not manifest.failed_strategies
    assert run_files(tmp_path / "serial") == run_files(tmp_path / "forked")


# GA and LoRA run 3 steps each, SCRUB 5 and FMD none: longest first is SCRUB,
# GA, LoRA, FMD, which is not the config's order.
LONGEST_LAST = TINY_PATCH + "\n[scrub]\nsteps = 5\n\n[fmd]\ndamping = 1.0\n"


@pytest.mark.parametrize("cpus", [1, 2])
def test_strategies_start_longest_first_and_files_keep_config_order(tmp_path, monkeypatch,
                                                                      cpus):
    path = write_config(tmp_path, LONGEST_LAST)
    cfg = hn.load_config(path)
    assert list(cfg.strategies) == ["gradient_ascent", "lora", "scrub", "fmd"]
    use_cpus(monkeypatch, cpus)
    parent, started, forks = os.getpid(), tmp_path / "started", []

    def fork(_fork=os.fork):
        # The strategies' worker waits until this process has taken its
        # first task, so that task is the first handed out.
        forks.append(None)
        pid = _fork()
        if pid == 0 and len(forks) == 2:
            try:
                meet(tmp_path, "worker", "started")
            except TimeoutError:  # the child must not return into the test
                os._exit(1)
        return pid

    def spy(name, *args, _run=hn.run_strategy):
        if os.getpid() == parent:
            with started.open("a") as log:
                log.write(name + "\n")
        return _run(name, *args)
    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(hn, "run_strategy", spy)
    out = tmp_path / "run"
    manifest = hn.run_experiment(cfg, 7, out, config_path=path)
    assert_no_child_left()
    assert len(forks) == 2 * (cpus - 1)  # one worker for each of the two stages
    assert started.read_text().splitlines()[0] == "scrub"
    assert not manifest.failed_strategies
    order = [*cfg.strategies]
    payload = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert list(payload["wall_seconds"]) == ["baseline", "gold", *order]
    assert list(payload["checkpoints"]) == ["baseline", "gold", *order]
    assert list(payload["strategies"]) == order
    assert list(json.loads((out / "eval_reports.json").read_text())) == [
        "baseline", "gold", *order]
    assert list(json.loads((out / "cobum.json").read_text())) == order


def test_a_bundle_write_that_fails_fails_the_baseline_stage(tmp_path, monkeypatch):
    def full(bundle, path):
        raise OSError(errno.ENOSPC, "No space left on device", str(path))
    monkeypatch.setattr(bg, "save_bundle", full)
    use_cpus(monkeypatch, 2)
    out = tmp_path / "run"
    with pytest.raises(OSError, match="No space left"):
        hn.run_experiment(hn.load_config(write_config(tmp_path, TINY_PATCH)), 7, out)
    assert_no_child_left()
    payload = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert payload["failed_stage"] == "baseline"
    assert list(payload["stage_seconds"]) == ["generate", "baseline"]
    assert payload["checkpoints"] == {} and "bundle" not in payload["reports"]
    assert not list(out.glob("*.ckpt"))


# ---------------------------------------------------------------------------
# CLI.
# ---------------------------------------------------------------------------

def test_cli_no_arguments_is_usage_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_cli_unknown_subcommand(capsys):
    assert cli.main(["transmogrify"]) == 2
    capsys.readouterr()


def test_cli_unknown_flag(capsys):
    assert cli.main(["generate", "--config", "x.cfg", "--frobnicate"]) == 2
    capsys.readouterr()


def test_cli_version_exits_zero(capsys):
    assert cli.main(["--version"]) == 0
    capsys.readouterr()


def test_cli_missing_config_names_path(capsys, tmp_path):
    code = cli.main(["generate", "--config", str(tmp_path / "absent.cfg"),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "absent.cfg" in capsys.readouterr().err


def test_cli_config_not_utf8_is_operator_error(capsys, tmp_path):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"[scenario]\nkind = patch\n# caf\xe9\n")
    code = cli.main(["generate", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "latin.cfg" in err and "internal error" not in err


def test_cli_config_directory_is_operator_error(capsys, tmp_path):
    config_dir = tmp_path / "configs"
    config_dir.mkdir()
    code = cli.main(["generate", "--config", str(config_dir),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(config_dir) in err and "missing [scenario]" not in err


@pytest.mark.parametrize("stage,out", [("generate", "taken"), ("run", "taken/x")])
def test_cli_out_through_a_file_is_operator_error(tiny_config, tmp_path, capsys,
                                                  stage, out):
    (tmp_path / "taken").write_text("not a directory")
    code = cli.main([stage, "--config", str(tiny_config), "--out", str(tmp_path / out)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(tmp_path / out) in err and "internal error" not in err


@pytest.mark.parametrize("seed", ["-1", "-1500"])
def test_cli_negative_seed_is_usage_error(tiny_config, tmp_path, capsys, seed):
    out = tmp_path / "o"
    code = cli.main(["generate", "--config", str(tiny_config), "--seed", seed,
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "config" not in err.splitlines()[-1]
    assert not out.exists()


def test_cli_generate_writes_bundle(tiny_config, tmp_path, capsys):
    out = tmp_path / "g"
    assert cli.main(["generate", "--config", str(tiny_config),
                     "--out", str(out)]) == 0
    assert (out / "bundle.csv").exists()
    assert "bundle" in capsys.readouterr().out


def test_cli_train_then_eval(tiny_config, tmp_path, capsys):
    out = tmp_path / "t"
    assert cli.main(["train", "--config", str(tiny_config),
                     "--out", str(out)]) == 0
    ckpt = out / "baseline.ckpt"
    assert ckpt.exists()
    out2 = tmp_path / "e"
    assert cli.main(["eval", "--config", str(tiny_config),
                     "--checkpoint", str(ckpt), "--out", str(out2)]) == 0
    data = json.loads((out2 / "report.json").read_text())
    assert 0.0 <= data["ra"] <= 1.0
    capsys.readouterr()


def test_cli_eval_missing_checkpoint(tiny_config, tmp_path, capsys):
    code = cli.main(["eval", "--config", str(tiny_config),
                     "--checkpoint", str(tmp_path / "ghost.ckpt"),
                     "--out", str(tmp_path / "o")])
    assert code == 2
    assert "ghost.ckpt" in capsys.readouterr().err


def _stage_args(stage, config, checkpoint, out):
    if stage == "unlearn":
        return ["unlearn", "--config", str(config), "--strategy", "gradient_ascent",
                "--baseline", str(checkpoint), "--out", str(out)]
    return [stage, "--config", str(config), "--checkpoint", str(checkpoint),
            "--out", str(out)]


@pytest.mark.parametrize("stage", ["eval", "saliency", "unlearn"])
def test_cli_corrupt_checkpoint_is_operator_error(tiny_config, tmp_path, capsys, stage):
    ckpt = tmp_path / "torn.ckpt"
    md.save_checkpoint(md.init_model([7, 8, 3], "softmax", 0), ckpt)
    ckpt.write_bytes(ckpt.read_bytes()[:-8])
    code = cli.main(_stage_args(stage, tiny_config, ckpt, tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "torn.ckpt" in err and "internal error" not in err
    folder = tmp_path / "folder.ckpt"
    folder.mkdir()
    assert cli.main(_stage_args(stage, tiny_config, folder, tmp_path / "o")) == 2
    err = capsys.readouterr().err
    assert "folder.ckpt" in err and "internal error" not in err


MALFORMED_HEADERS = {
    "no-arrays": lambda h: {k: v for k, v in h.items() if k != "arrays"},
    "list-header": lambda h: [h],
    "string-shape": lambda h: {**h, "arrays": [{**h["arrays"][0], "shape": "8x7"},
                                               *h["arrays"][1:]]},
    "frozen-base-without-adapters": lambda h: {**h, "frozen_base": True},
}


@pytest.mark.parametrize("stage", ["eval", "saliency", "unlearn"])
@pytest.mark.parametrize("edit", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
def test_cli_malformed_checkpoint_header_is_operator_error(
        tiny_config, tmp_path, capsys, stage, edit):
    ckpt = tmp_path / "odd.ckpt"
    # The model fits the tiny config's 18-wide, 3-class bundle, so only the
    # edited header can be at fault.
    md.save_checkpoint(md.init_model([18, 8, 3], "softmax", 0), ckpt)
    raw = ckpt.read_bytes()
    cut = raw.find(b"\n")
    ckpt.write_bytes(json.dumps(edit(json.loads(raw[:cut]))).encode() + raw[cut:])
    code = cli.main(_stage_args(stage, tiny_config, ckpt, tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "odd.ckpt" in err and "internal error" not in err


MALFORMED_REPORTS = {
    "not-json": "{not json",
    "json-list": "[1, 2]",
    "missing-fields": '{"fa": 0.1}',
    "unknown-field": json.dumps({**hn.report_to_dict(report()), "volume": 11}),
    "string-value": json.dumps({**hn.report_to_dict(report()), "ra": "0.9"}),
    "bool-value": json.dumps({**hn.report_to_dict(report()), "mia_auc": True}),
    # Reports once carried their model's wall seconds; the manifest holds them now.
    "stale-wall-time": json.dumps({**hn.report_to_dict(report()), "wall_time_seconds": 1.5}),
    "directory": None,  # odd.json is a directory
}


@pytest.mark.parametrize("stage", ["eval", "cobum"])
@pytest.mark.parametrize("text", MALFORMED_REPORTS.values(), ids=MALFORMED_REPORTS.keys())
def test_cli_malformed_report_is_operator_error(tiny_config, tmp_path, capsys, stage, text):
    bad = tmp_path / "odd.json"
    if text is None:
        bad.mkdir()
    else:
        bad.write_text(text)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(hn.report_to_dict(report())))
    if stage == "eval":
        bundle = hn.build_bundle(hn.load_config(tiny_config), 1)
        ckpt = tmp_path / "model.ckpt"
        md.save_checkpoint(md.init_model([bundle.d_s + bundle.d_b, 8, 3], "softmax", 0), ckpt)
        argv = ["eval", "--config", str(tiny_config), "--checkpoint", str(ckpt),
                "--baseline-report", str(bad)]
    else:
        argv = ["cobum", "--unlearned", str(good), "--gold-report", str(good),
                "--baseline-report", str(bad)]
    code = cli.main(argv + ["--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "odd.json" in err and "internal error" not in err


def test_report_from_dict_rejects_missing_fields_and_non_numbers():
    full = hn.report_to_dict(report())
    with pytest.raises(ValueError, match="lacks fields"):
        hn.report_from_dict({k: v for k, v in full.items() if k != "time_units"})
    with pytest.raises(ValueError, match="not a number or null"):
        hn.report_from_dict({**full, "fa": [0.3]})
    with pytest.raises(ValueError, match="not an object"):
        hn.report_from_dict([full])


@pytest.mark.parametrize("stage", ["eval", "saliency", "unlearn"])
@pytest.mark.parametrize("width_delta,classes", [(1, 3), (0, 4)])
def test_cli_checkpoint_shape_mismatch_is_operator_error(
        tiny_config, tmp_path, capsys, stage, width_delta, classes):
    bundle = hn.build_bundle(hn.load_config(tiny_config), 1)
    width = bundle.d_s + bundle.d_b + width_delta
    ckpt = tmp_path / "other.ckpt"
    md.save_checkpoint(md.init_model([width, 8, classes], "softmax", 0), ckpt)
    code = cli.main(_stage_args(stage, tiny_config, ckpt, tmp_path / "o"))
    assert code == 2
    err = capsys.readouterr().err
    assert "other.ckpt" in err and "internal error" not in err


@pytest.mark.parametrize("stage", [["run"], ["unlearn", "--strategy", "lora"]])
def test_lora_rank_the_model_cannot_take_fails_before_training(tmp_path, capsys, monkeypatch,
                                                               stage):
    config = write_config(tmp_path, TINY_PATCH.replace("rank = 2", "rank = 64"))
    monkeypatch.setattr(md, "train", lambda *args, **kwargs: pytest.fail("trained"))
    out = tmp_path / "o"
    assert cli.main([*stage, "--config", str(config), "--out", str(out)]) == 2
    assert f"{config}: [lora] rank 64 outside [1, 8] for layer 0" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.ckpt")) and not (out / "bundle.csv").exists()
    at_bound = hn.load_config(write_config(tmp_path, TINY_PATCH.replace("rank = 2", "rank = 8")))
    hn.check_lora_rank(at_bound, hn.build_bundle(at_bound, 1))


def test_cli_unlearn_strategy_must_be_configured(tiny_config, tmp_path, capsys):
    code = cli.main(["unlearn", "--config", str(tiny_config), "--strategy",
                     "scrub", "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"{tiny_config} has no [scrub] section" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--gold", "--baseline"])
def test_cli_scrub_teacher_must_fit_student(tmp_path, capsys, flag):
    config = write_config(tmp_path, TINY_RUNS["patch"])
    bundle = hn.build_bundle(hn.load_config(config), 1)
    ckpt = tmp_path / "narrow.ckpt"
    md.save_checkpoint(md.init_model([bundle.d_s + bundle.d_b, 6, 3], "softmax", 0), ckpt)
    code = cli.main(["unlearn", "--config", str(config), "--strategy", "scrub",
                     flag, str(ckpt), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "narrow.ckpt" in err and "internal error" not in err


def test_cli_lora_refuses_a_baseline_that_carries_adapters(tiny_config, tmp_path, capsys):
    first = tmp_path / "first"
    common = ["unlearn", "--config", str(tiny_config), "--strategy", "lora"]
    assert cli.main([*common, "--out", str(first)]) == 0
    capsys.readouterr()
    code = cli.main([*common, "--baseline", str(first / "lora.ckpt"),
                     "--out", str(tmp_path / "second")])
    assert code == 2
    err = capsys.readouterr().err
    assert "lora.ckpt" in err and "adapters" in err and "internal error" not in err
    assert not (tmp_path / "second" / "lora.ckpt").exists()


def no_bias_config(tmp_path):
    """The tiny patch run with no marked rows: D_f, and so D_c, are empty."""
    return write_config(tmp_path, TINY_RUNS["patch"].replace(
        "patch_fraction = 0.5", "patch_fraction = 0.0"), "nobias.cfg")


@pytest.mark.parametrize("strategy,expect", [
    ("lora", "rank 64"),
    ("gradient_ascent", "empty forget set"),
    ("fmd", "empty counterfactual set"),
])
def test_cli_unlearn_input_the_strategy_rejects_is_operator_error(
        tmp_path, capsys, strategy, expect):
    if strategy == "lora":
        config = write_config(tmp_path, TINY_PATCH.replace("rank = 2", "rank = 64"))
    else:
        config = no_bias_config(tmp_path)
    out = tmp_path / "o"
    code = cli.main(["unlearn", "--config", str(config), "--strategy", strategy,
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert config.name in err and expect in err and "internal error" not in err
    assert not out.exists()


def test_run_without_a_forget_set_scores_nothing(tmp_path, capsys):
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(no_bias_config(tmp_path)), "--out", str(out)]) == 0
    capsys.readouterr()

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")
    table = json.loads((out / "results.json").read_text(), parse_constant=reject)
    rows = {row["Method"]: row for row in table["rows"]}
    assert rows["GA"]["FA ↓"] == rows["FMD"]["MIA ↓"] == "failed"
    for method in ("Baseline", "Hard", "LoRA", "SCRUB"):
        assert rows[method]["FA ↓"] == rows[method]["MIA ↓"] == "--", method
    assert {row["Co-BUM ↑"] for row in rows.values()} == {"--", "failed"}
    assert json.loads((out / "cobum.json").read_text()) == {"lora": None, "scrub": None}


@pytest.mark.parametrize("case", ["gold-is-baseline", "gold-ra-zero"])
def test_cli_cobum_unscorable_reports_are_operator_errors(tmp_path, capsys, case):
    paths = {}
    gold = report(ra=0.0) if case == "gold-ra-zero" else report()
    for name, rep in (("unlearned", report(fa=0.1)), ("gold", gold), ("base", report())):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(hn.report_to_dict(rep)))
    if case == "gold-is-baseline":
        paths["gold"] = paths["base"]
    out = tmp_path / "o"
    code = cli.main(["cobum", "--unlearned", str(paths["unlearned"]),
                     "--gold-report", str(paths["gold"]),
                     "--baseline-report", str(paths["base"]), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert all(path.name in err for path in paths.values())
    assert not out.exists()


def test_cli_unlearn_writes_checkpoint(tiny_config, tmp_path, capsys):
    out = tmp_path / "u"
    assert cli.main(["unlearn", "--config", str(tiny_config), "--strategy",
                     "gradient_ascent", "--out", str(out)]) == 0
    assert (out / "gradient_ascent.ckpt").exists()
    capsys.readouterr()


def test_cli_cobum_anchor_identity(tmp_path, capsys):
    gold = report(fa=0.2, ra=0.95, ta=0.9, dp=0.05, eo=0.06, mia=0.5, t=200.0)
    base = report(fa=0.9, ra=0.97, ta=0.93, dp=0.4, eo=0.3, mia=0.8, t=400.0)
    paths = {}
    for name, rep in (("u", gold), ("g", gold), ("b", base)):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(hn.report_to_dict(rep)))
        paths[name] = str(p)
    code = cli.main(["cobum", "--unlearned", paths["u"], "--gold-report",
                     paths["g"], "--baseline-report", paths["b"],
                     "--out", str(tmp_path / "o")])
    assert code == 0
    line = capsys.readouterr().out
    for anchor in ("U=1.0000", "F=1.0000", "P=1.0000", "E=1.0000"):
        assert anchor in line
    assert "Co-BUM=" in line
    assert (tmp_path / "o" / "cobum.json").exists()


def test_cli_run_and_overwrite_guard(tiny_config, tmp_path, capsys):
    out = tmp_path / "r"
    assert cli.main(["run", "--config", str(tiny_config),
                     "--out", str(out)]) == 0
    assert (out / "results.csv").exists()
    assert cli.main(["run", "--config", str(tiny_config),
                     "--out", str(out)]) == 2
    assert "fresh output" in capsys.readouterr().err


def test_cli_saliency_dump(tiny_config, tmp_path, capsys):
    ckpt_out = tmp_path / "t"
    cli.main(["train", "--config", str(tiny_config), "--out", str(ckpt_out)])
    out = tmp_path / "s"
    assert cli.main(["saliency", "--config", str(tiny_config),
                     "--checkpoint", str(ckpt_out / "baseline.ckpt"),
                     "--limit", "4", "--out", str(out)]) == 0
    lines = (out / "saliency.csv").read_text().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("index,label,group,s_0")
    capsys.readouterr()


def test_cli_out_root_env(tiny_config, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UNLEARNLAB_OUT_ROOT", str(tmp_path / "root"))
    assert cli.main(["generate", "--config", str(tiny_config), "--seed", "5"]) == 0
    assert (tmp_path / "root" / "tiny-seed5-generate" / "bundle.csv").exists()
    capsys.readouterr()


def test_cli_internal_error_is_exit_one(tiny_config, tmp_path, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")
    monkeypatch.setattr(hn, "build_bundle", boom)
    code = cli.main(["generate", "--config", str(tiny_config),
                     "--out", str(tmp_path / "o")])
    assert code == 1
    assert "synthetic failure" in capsys.readouterr().err


@pytest.mark.parametrize("key,line", [
    ("scale_sigma", "scale_sigma = 0.0"),
    ("d_b", "d_b = 0"),
    ("class_sep", "class_sep = nan"),
])
@pytest.mark.parametrize("stage", ["generate", "train", "run"])
def test_cli_bad_generator_value_is_operator_error(tmp_path, capsys, stage, key, line):
    text = (CONFIG_DIR / "pose.cfg").read_text().replace("class_sep = 2.0", line)
    config = write_config(tmp_path, text, "pose-bad.cfg")
    out = tmp_path / "o"
    code = cli.main([stage, "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert key in err and f"{config}: [scenario] (pose)" in err
    assert not (out / "bundle.csv").exists()


def test_cli_bad_patch_fraction_names_the_config_file(tmp_path, capsys):
    text = TINY_PATCH.replace("patch_fraction = 0.5", "patch_fraction = 1.5")
    config = write_config(tmp_path, text, "bad_frac.cfg")
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert f"{config}: [scenario] (patch): patch_fraction=1.5 outside [0, 1]" in (
        capsys.readouterr().err)


# ---------------------------------------------------------------------------
# Traced functions.
# ---------------------------------------------------------------------------

# The benchmark's traced run swaps these module attributes for counting
# wrappers; a pipeline that held the function objects themselves would
# bypass the wrappers and zero those per-layer counters.
TRACED = {
    bg: ("gen_patch_bias", "gen_attribute_bias", "gen_pose_bias", "build_counterfactual"),
    ul: ("gradient_ascent", "lora_unlearn", "scrub_unlearn", "fmd_unlearn"),
    fe: ("evaluate_model",),
}

TINY_RUNS = {
    "patch": TINY_PATCH
    + "\n[scrub]\neta = 1e-3\nsteps = 2\n\n[fmd]\ndamping = 1.0\nfinetune_steps = 1\n",
    "attribute": "[scenario]\nkind = attribute\n"
                 "n = 200\ncorr_ratio = 4.0\n[train]\nepochs = 2\n"
                 "[gradient_ascent]\nsteps = 2\n",
    "pose": "[scenario]\nkind = pose\nn = 90\nn_classes = 3\n"
            "skew = 0.5\n[train]\nepochs = 2\n[fmd]\ndamping = 1.0\n",
}


def test_pipeline_calls_traced_functions_through_their_modules(tmp_path, monkeypatch):
    use_cpus(monkeypatch, 1)  # the counters live in this process, not in workers
    calls = {name: 0 for names in TRACED.values() for name in names}
    for module, names in TRACED.items():
        for name in names:
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, functools.wraps(getattr(module, name))(counted))
    for kind, text in TINY_RUNS.items():
        path = write_config(tmp_path, text, f"{kind}.cfg")
        manifest = hn.run_experiment(hn.load_config(path), 7, tmp_path / kind,
                                     config_path=path)
        assert not manifest.failed_strategies
    assert calls == {
        "gen_patch_bias": 1, "gen_attribute_bias": 1, "gen_pose_bias": 1,
        "build_counterfactual": 2, "gradient_ascent": 2, "lora_unlearn": 1,
        "scrub_unlearn": 1, "fmd_unlearn": 2,
        # Baseline and Hard, plus one per strategy: 6 + 3 + 3.
        "evaluate_model": 12,
    }


def test_run_strategy_passes_each_function_the_inputs_it_takes(tmp_path, monkeypatch):
    # Wrapped as the benchmark's traced run wraps them: the wrapper's
    # (*args, **kwargs) must not hide which inputs the function takes.
    got = {}
    for name in TRACED[ul]:
        def spy(*args, _name=name, **kwargs):
            got[_name] = args, kwargs
        monkeypatch.setattr(ul, name, functools.wraps(getattr(ul, name))(spy))
    cfg = hn.load_config(write_config(tmp_path, TINY_RUNS["patch"]))
    bundle, baseline, gold = hn.build_bundle(cfg, 7), object(), object()
    for name in cfg.strategies:
        hn.run_strategy(name, cfg, bundle, baseline, gold, 7)
    for name, (args, kwargs) in got.items():
        assert args == (baseline,) and kwargs["bundle"] is bundle, name
    assert got["scrub_unlearn"][1]["teacher"] is gold
    assert set(got["gradient_ascent"][1]) == set(got["lora_unlearn"][1]) == {"bundle", "cfg"}
    assert set(got["fmd_unlearn"][1]) == {"bundle", "cfg", "counterfactual"}
    assert len(got) == 4


# ---------------------------------------------------------------------------
# The stage subcommands against run.
# ---------------------------------------------------------------------------

REPORT_METRICS = ("fa", "ra", "ta", "dp_gap", "eo_gap", "mia_auc")


def test_stage_subcommands_reproduce_run_artifacts(tmp_path, capsys):
    config = str(write_config(tmp_path, TINY_RUNS["patch"], "tiny.cfg"))
    common = ["--config", config, "--seed", "7"]
    run = tmp_path / "run"
    assert cli.main(["run", *common, "--out", str(run)]) == 0
    assert cli.main(["generate", *common, "--out", str(tmp_path / "g")]) == 0
    assert (tmp_path / "g" / "bundle.csv").read_bytes() == (run / "bundle.csv").read_bytes()
    assert cli.main(["train", *common, "--out", str(tmp_path / "t")]) == 0
    assert ((tmp_path / "t" / "baseline.ckpt").read_bytes()
            == (run / "baseline.ckpt").read_bytes())
    run_reports = json.loads((run / "eval_reports.json").read_text())
    strategies = hn.load_config(config).strategies
    assert set(strategies) == set(ul.POST_HOC_STRATEGIES)
    for name in strategies:
        # No --gold: scrub's teacher is retrained in place, as run trains it.
        out = tmp_path / f"u-{name}"
        assert cli.main(["unlearn", *common, "--strategy", name, "--baseline",
                         str(run / "baseline.ckpt"), "--out", str(out)]) == 0
        ckpt = out / f"{name}.ckpt"
        assert ckpt.read_bytes() == (run / f"{name}.ckpt").read_bytes(), name
        assert cli.main(["eval", *common, "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / f"e-{name}")]) == 0
        report = json.loads((tmp_path / f"e-{name}" / "report.json").read_text())
        assert {k: report[k] for k in REPORT_METRICS} == {
            k: run_reports[name][k] for k in REPORT_METRICS}, name
    capsys.readouterr()


def test_unlearn_trains_the_gold_only_for_a_strategy_with_a_teacher(tmp_path, monkeypatch,
                                                                    capsys):
    config = str(write_config(tmp_path, TINY_RUNS["patch"], "tiny.cfg"))
    common = ["--config", config, "--seed", "7"]
    assert cli.main(["train", *common, "--out", str(tmp_path / "t")]) == 0
    calls = []
    train_gold = hn.train_gold
    monkeypatch.setattr(hn, "train_gold",
                        lambda *args: calls.append(args) or train_gold(*args))
    counts = {}
    for name in ul.POST_HOC_STRATEGIES:
        calls.clear()
        assert cli.main(["unlearn", *common, "--strategy", name, "--baseline",
                         str(tmp_path / "t" / "baseline.ckpt"),
                         "--out", str(tmp_path / f"u-{name}")]) == 0
        counts[name] = len(calls)
    assert counts == {"gradient_ascent": 0, "lora": 0, "scrub": 1, "fmd": 0}
    capsys.readouterr()
