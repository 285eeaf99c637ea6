"""Experiment orchestration: configs, the generate-train-unlearn-evaluate
pipeline, report tables, and run manifests.

A run is a pure function of (config file, master seed): every random draw is
seeded from the master seed plus a fixed per-role offset, and every reported
number (including the Time column, which counts backward passes rather than
wall seconds) is derived from those seeds alone. Running the same config twice
therefore produces byte-identical tables.
"""

from __future__ import annotations

import configparser
import contextlib
import dataclasses
import functools
import hashlib
import inspect
import json
import math
import os
import pickle
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__
from . import biasgen as bg
from . import cobum as cb
from . import fairness_eval as fe
from . import model as md
from . import unlearn as ul

# Sub-seed derivation: master seed plus one offset per role. Strategies add
# 100 * (position among the config's strategy sections) so reordering the
# sections is the only way to change a strategy's stream.
SEED_DATA = 1000
SEED_BASELINE = 2000
SEED_GOLD = 3000
SEED_STRATEGY = 4000
SEED_COUNTERFACTUAL = 5000

class UserError(Exception):
    """Operator mistake (bad flag value, missing file); exit code 2."""


class ConfigError(UserError):
    """Malformed or inconsistent experiment config."""


# ---------------------------------------------------------------------------
# Config schema.
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """One scenario experiment, loaded from path: data recipe, model,
    training, and the strategies to run, {name: StrategyConfig without its
    seed} in run order."""

    name: str
    kind: str
    scenario_params: dict
    path: Path
    hidden: int = 32
    head: str = "softmax"
    train: md.TrainConfig = field(default_factory=md.TrainConfig)
    strategies: dict = field(default_factory=dict)
    cobum_params: cb.CoBumParams = field(default_factory=cb.CoBumParams)


@functools.cache
def _parameters(fn) -> dict:
    """fn's parameters but seed, by lower-cased name; follows __wrapped__."""
    params = inspect.signature(fn, eval_str=True).parameters
    return {name.lower(): p for name, p in params.items() if name != "seed"}


def _section(cp, section: str, fn, only=None, skip=(), tag="") -> dict:
    """{parameter name: value} from cp's [section], {} if it is absent. Its
    keys are fn's parameters but seed (those in only, when given), matched
    lower-cased as configparser reads them and typed by their annotation (X
    for X | None); a parameter without a default is a required key. tag
    qualifies the section in the missing-keys message."""
    params = {k: p for k, p in _parameters(fn).items() if only is None or k in only}
    out = {}
    for key, raw in cp.items(section) if cp.has_section(section) else ():
        if key in skip:
            continue
        if key not in params:
            raise ConfigError(f"[{section}] has unknown key {key!r} "
                              f"(known: {', '.join(params)})")
        want = params[key].annotation
        want = next((t for t in typing.get_args(want) if t is not type(None)), want)
        try:
            out[params[key].name] = want(raw)
        except ValueError as e:
            raise ConfigError(f"[{section}] {key} = {raw!r}: {e}") from e
    missing = [k for k, p in params.items() if p.default is p.empty and p.name not in out]
    if missing:
        raise ConfigError(f"[{section}]{tag} missing keys: {', '.join(missing)}")
    return out


def load_config(path) -> ExperimentConfig:
    """The config at path; ConfigError naming path on anything malformed.
    Every section but [scenario], [model], [train] and [cobum] names a
    post-hoc strategy that runs, in file order, which sets its seed."""
    path = Path(path)
    try:
        return _read_config(path)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def _read_config(path: Path) -> ExperimentConfig:
    if not path.exists():
        raise ConfigError("config file not found")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:  # ConfigParser.read would skip a path it cannot open, a directory say
        with path.open(encoding="utf-8") as f:
            cp.read_file(f, source=str(path))
    except (OSError, configparser.Error, UnicodeDecodeError) as e:
        raise ConfigError(str(e)) from e
    if not cp.has_section("scenario"):
        raise ConfigError("missing [scenario] section")

    kind = cp.get("scenario", "kind", fallback=None)
    if kind not in bg.SCENARIOS:
        known = ", ".join(sorted(bg.SCENARIOS))
        raise ConfigError(f"unknown scenario kind {kind!r} (known: {known})")

    scen = _section(cp, "scenario", bg.SCENARIOS[kind].generate, skip=("kind",),
                    tag=f" ({kind})")
    cfg = ExperimentConfig(name=path.stem, kind=kind, scenario_params=scen, path=path,
                           train=md.TrainConfig(**_section(cp, "train", md.TrainConfig)),
                           **_section(cp, "model", ExperimentConfig, only=("hidden", "head")))

    if cfg.head not in md.HEADS:
        raise ConfigError(f"[model] head must be {' or '.join(md.HEADS)}, got {cfg.head!r}")
    # A generator without an n_classes parameter builds a binary task.
    if cfg.head == "sigmoid" and scen.get("n_classes", 2) != 2:
        raise ConfigError("[model] sigmoid head requires a binary scenario")
    if cfg.hidden < 1:
        raise ConfigError(f"[model] hidden must be >= 1, got {cfg.hidden}")
    train = cfg.train
    if train.epochs < 1 or train.batch_size < 1 or not 0 < train.learning_rate < math.inf:
        raise ConfigError("[train] needs epochs >= 1, batch_size >= 1, "
                          "and a finite learning_rate > 0")

    for name in (s for s in cp.sections() if s not in ("scenario", "model", "train", "cobum")):
        if name == "hard":
            raise ConfigError("[hard]: 'hard' runs implicitly as the gold reference")
        if name not in ul.POST_HOC_STRATEGIES:
            raise ConfigError(f"unknown section [{name}] (known strategies: "
                              f"{', '.join(ul.POST_HOC_STRATEGIES)})")
        if ("counterfactual" in _parameters(ul.POST_HOC_STRATEGIES[name].run)
                and bg.SCENARIOS[kind].counterfactual is None):
            raise ConfigError(f"{name} needs a counterfactual recipe; none exists for {kind!r}")
        params = _section(cp, name, ul.StrategyConfig, only=ul.POST_HOC_STRATEGIES[name].reads)
        try:
            cfg.strategies[name] = ul.StrategyConfig(**params)
        except ValueError as e:
            raise ConfigError(f"[{name}]: {e}") from e

    try:
        cfg.cobum_params = cb.CoBumParams(**_section(cp, "cobum", cb.CoBumParams))
    except ValueError as e:
        raise ConfigError(f"[cobum]: {e}") from e
    return cfg


# ---------------------------------------------------------------------------
# Pipeline stages.
# ---------------------------------------------------------------------------

def build_bundle(cfg: ExperimentConfig, master_seed: int) -> bg.DataBundle:
    """The config's bundle; a negative master seed is a UserError, and a
    generator's ValueError on its [scenario] values is a ConfigError."""
    if master_seed < 0:  # every derived seed must be non-negative
        raise UserError(f"master seed must be >= 0, got {master_seed}")
    try:
        return bg.SCENARIOS[cfg.kind].generate(seed=master_seed + SEED_DATA,
                                              **cfg.scenario_params)
    except ValueError as e:
        raise ConfigError(f"{cfg.path}: [scenario] ({cfg.kind}): {e}") from e


def model_arch(cfg: ExperimentConfig, bundle: bg.DataBundle) -> list:
    out_dim = 1 if cfg.head == "sigmoid" else bundle.n_classes
    return [bundle.d_s + bundle.d_b, cfg.hidden, out_dim]


def check_lora_rank(cfg: ExperimentConfig, bundle: bg.DataBundle) -> None:
    """ConfigError if cfg runs LoRA at a rank that its adapter layer cannot
    take: md.attach_lora alone states the bound, tried on a throwaway model."""
    if "lora" in cfg.strategies:
        model = md.init_model(model_arch(cfg, bundle), cfg.head, 0)
        try:
            md.attach_lora(model, [ul.adapter_layer_index(model)], cfg.strategies["lora"].rank, 0)
        except ValueError as e:
            raise ConfigError(f"{cfg.path}: [lora] {e}") from e


def _train_config(cfg: ExperimentConfig, seed: int) -> md.TrainConfig:
    return dataclasses.replace(cfg.train, seed=seed)


@contextlib.contextmanager
def clock(into: dict, key: str):
    """Write the wall seconds of the with-block into into[key], also when it
    raises. The library reads the clock here and nowhere else."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        into[key] = time.perf_counter() - t0


def _fork_join(tasks: dict, seconds: dict) -> tuple[dict, dict]:
    """({name: value}, {name: exception}) of tasks' thunks, in tasks' order,
    from this process and one forked child per further usable CPU; seconds
    gets each one's wall seconds. A child that dies raises ChildProcessError;
    every child is reaped before this returns or raises."""
    names = list(tasks)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    todo, feed = os.pipe()
    os.write(feed, bytes(range(len(names))))  # one byte per task index
    os.close(feed)
    values, errors, wall = {}, {}, {}

    def work() -> None:
        while index := os.read(todo, 1):
            name = names[index[0]]
            try:
                with clock(wall, name):
                    values[name] = tasks[name]()
            except Exception as e:  # noqa: BLE001 - the caller decides what fails
                errors[name] = e

    children = {}
    try:
        for _ in range(min(cpus, len(names)) - 1):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no room for a worker: the processes there take the rest
                os.close(read)
                os.close(write)
                break
            if pid == 0:  # the child never returns to the caller
                try:
                    with os.fdopen(write, "wb") as sink:
                        work()
                        pickle.dump((values, errors, wall), sink)
                    os._exit(0)
                except BaseException:  # noqa: BLE001 - report, then exit
                    import traceback  # only a dying worker needs it
                    traceback.print_exc()
                finally:
                    os._exit(1)
            os.close(write)
            children[pid] = read
        work()
    finally:
        os.close(todo)
        for pid, read in children.items():
            with os.fdopen(read, "rb") as source:  # drain, then reap
                children[pid] = source.read(), os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    for payload, code in children.values():
        if code != 0:
            raise ChildProcessError(f"a worker died with exit code {code} before reporting")
        for mine, theirs in zip((values, errors, wall), pickle.loads(payload)):
            mine.update(theirs)
    seconds.update((name, wall[name]) for name in names)
    return ({n: values[n] for n in names if n in values},
            {n: errors[n] for n in names if n in errors})


def train_baseline(cfg: ExperimentConfig, bundle: bg.DataBundle,
                   master_seed: int) -> tuple:
    """Biased reference model M_0; returns (model, wall_seconds, cost_units)."""
    X, y, _, _ = bg.stack(bundle.train)
    model = md.init_model(model_arch(cfg, bundle), cfg.head,
                          master_seed + SEED_BASELINE)
    seconds = {}
    with clock(seconds, "train"):
        md.train(model, (X, y), _train_config(cfg, master_seed + SEED_BASELINE))
    return model, seconds["train"], float(cfg.train.epochs * len(bundle.train))


def train_gold(cfg: ExperimentConfig, bundle: bg.DataBundle,
               master_seed: int) -> ul.UnlearnResult:
    """Retrained-from-scratch reference M_g: the Hard row and SCRUB's teacher."""
    return ul.hard_unlearn(bundle, _train_config(cfg, master_seed + SEED_GOLD),
                           model_arch(cfg, bundle), head=cfg.head)


def run_strategy(name: str, cfg: ExperimentConfig, bundle: bg.DataBundle,
                 baseline: md.ModelParams, gold: md.ModelParams | None,
                 master_seed: int) -> ul.UnlearnResult:
    """Run one post-hoc strategy on the shared baseline, seeded by its place
    in cfg.strategies. Its function gets gold as teacher, and D_c as
    counterfactual, only if it takes them."""
    run = ul.POST_HOC_STRATEGIES[name].run
    scfg = dataclasses.replace(cfg.strategies[name], seed=master_seed + SEED_STRATEGY
                               + 100 * list(cfg.strategies).index(name))
    extra = {"teacher": gold} if "teacher" in _parameters(run) else {}
    if "counterfactual" in _parameters(run):
        extra["counterfactual"] = bg.build_counterfactual(
            bundle, seed=master_seed + SEED_COUNTERFACTUAL)
    return run(baseline, bundle=bundle, cfg=scfg, **extra)


def save_model(model: md.ModelParams, out, role: str) -> Path:
    """Write model as <out>/<role>.ckpt; returns the path."""
    path = Path(out) / f"{role}.ckpt"
    md.save_checkpoint(model, path)
    return path


def write_json(path, payload) -> Path:
    """Write payload as every JSON artifact is written: indent 2, non-ASCII
    kept as is, UTF-8, one trailing newline."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, ensure_ascii=False) + "\n",
                    encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Table emission.
# ---------------------------------------------------------------------------

@dataclass
class TableRow:
    """One table line: an evaluated method, or a strategy that failed."""

    method: str
    report: fe.EvalReport | None = None
    cobum_score: float | None = None
    error: str | None = None


# Cells that hold no number: an undefined value, a failed row.
_TEXT_CELLS = ("--", "failed")


def _fmt_drop(value) -> str:
    # None: the row is its own reference point. NaN: the baseline had no gap.
    if value is None:
        return "0.00"
    if math.isnan(value):
        return "--"
    return f"{value:.2f}"


def _fmt_defined(value) -> str:
    # NaN: an empty D_f leaves FA and MIA undefined.
    return "--" if math.isnan(value) else f"{value:.4f}"


# Each column between Method and Co-BUM: name (↓: better smaller), EvalReport field, format.
_REPORT_COLUMNS = (
    ("FA ↓", "fa", _fmt_defined),
    ("RA ↑", "ra", "{:.4f}".format),
    ("TA ↑", "ta", "{:.4f}".format),
    ("DP% ↑", "dp_drop_pct", _fmt_drop),
    ("EO% ↑", "eo_drop_pct", _fmt_drop),
    ("MIA ↓", "mia_auc", _fmt_defined),
    ("Time ↓", "time_units", "{:.0f}".format),
)
TABLE_COLUMNS = ("Method", *(name for name, _, _ in _REPORT_COLUMNS), "Co-BUM ↑")


def _row_cells(row: TableRow) -> list:
    """The cells after Method, in TABLE_COLUMNS order."""
    if row.error is not None:
        return ["failed"] * (len(TABLE_COLUMNS) - 1)
    return [*(fmt(getattr(row.report, key)) for _, key, fmt in _REPORT_COLUMNS),
            "--" if row.cobum_score is None else f"{row.cobum_score:.4f}"]


def _bold_best(rows: list, grid: list) -> list:
    """The grid with each column's best cells in bold, ties all bold. Only
    rows with a Co-BUM score compete, so Baseline, Hard and failed rows never
    do; a column whose name ends in ↓ is better smaller."""
    out = [list(line) for line in grid]
    ranked = [i for i, row in enumerate(rows) if row.cobum_score is not None]
    for col, name in enumerate(TABLE_COLUMNS[1:], start=1):
        values = {i: float(grid[i][col]) for i in ranked if grid[i][col] not in _TEXT_CELLS}
        pick = (min if name.endswith("↓") else max)(values.values(), default=None)
        for i in values:
            if values[i] == pick:
                out[i][col] = f"**{grid[i][col]}**"
    return out


def emit_table(rows: list, fmt: str, path) -> Path:
    """Write the method-by-metric table as csv, json, or markdown."""
    if not rows:
        raise ValueError("emit_table needs at least one row")
    if fmt not in ("csv", "json", "markdown"):
        raise ValueError(f"unknown table format {fmt!r}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    grid = [[row.method, *_row_cells(row)] for row in rows]
    if fmt == "json":
        return write_json(path, {"columns": list(TABLE_COLUMNS), "rows": [
            {col: cell if col == "Method" or cell in _TEXT_CELLS else float(cell)
             for col, cell in zip(TABLE_COLUMNS, line)} for line in grid]})
    if fmt == "csv":
        lines = [",".join(line) for line in (TABLE_COLUMNS, *grid)]
    else:
        lines = ["| " + " | ".join(line) + " |" for line in
                 (TABLE_COLUMNS, ["---"] * len(TABLE_COLUMNS), *_bold_best(rows, grid))]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Report (de)serialization. NaN is not valid JSON, so it round-trips as null.
# ---------------------------------------------------------------------------

def report_to_dict(report: fe.EvalReport) -> dict:
    out = {}
    for key, value in dataclasses.asdict(report).items():
        if isinstance(value, float) and math.isnan(value):
            value = None
        out[key] = value
    return out


def report_from_dict(data: dict) -> fe.EvalReport:
    """The inverse of report_to_dict: null is NaN, or None in a field whose
    default is None. ValueError unless data is an object with exactly the
    report's fields, each a number or null."""
    if not isinstance(data, dict):
        raise ValueError(f"report is a JSON {type(data).__name__}, not an object")
    defaults = {f.name: f.default for f in dataclasses.fields(fe.EvalReport)}
    unknown, missing = set(data) - set(defaults), set(defaults) - set(data)
    if unknown:
        raise ValueError(f"report has unknown fields: {sorted(unknown)}")
    if missing:
        raise ValueError(f"report lacks fields: {sorted(missing)}")
    for key, value in data.items():
        if value is not None and (isinstance(value, bool)
                                  or not isinstance(value, (int, float))):
            raise ValueError(f"report field {key!r} is {value!r}, not a number or null")
    return fe.EvalReport(**{k: float("nan") if v is None and defaults[k] is not None else v
                            for k, v in data.items()})


def load_report(path) -> fe.EvalReport:
    """Read a report.json; a missing or malformed file raises UserError
    naming it."""
    path = Path(path)
    if not path.exists():
        raise UserError(f"report file not found: {path}")
    try:
        return report_from_dict(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, ValueError) as e:  # a directory; JSONDecodeError, UnicodeDecodeError
        raise UserError(f"report {path}: {e}") from e


# ---------------------------------------------------------------------------
# The full pipeline.
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    """What a run produced and how long each stage, training run and
    strategy took; the reports count cost units, so they reproduce. Each
    strategy that ran maps in strategies to its steps run, truncated flag,
    cost units and extra (FMD's CG stats, LoRA's adapter, SCRUB's clipped
    steps)."""

    config_path: str | None
    config_sha256: str
    master_seed: int
    tool_version: str
    out_dir: str
    stage_seconds: dict = field(default_factory=dict)
    wall_seconds: dict = field(default_factory=dict)
    checkpoints: dict = field(default_factory=dict)
    reports: dict = field(default_factory=dict)
    failed_strategies: dict = field(default_factory=dict)
    strategies: dict = field(default_factory=dict)
    failed_stage: str | None = None

    def write(self, path) -> Path:
        return write_json(path, dataclasses.asdict(self))


def run_experiment(cfg: ExperimentConfig, master_seed: int, out_dir,
                   config_path=None) -> RunManifest:
    """generate -> baseline -> gold -> strategies -> evaluate -> Co-BUM -> emit.

    Every strategy gets the in-memory baseline (and SCRUB the gold model as
    teacher) and works on its own copy, so sibling strategies never see each
    other's updates. Baseline and gold, then the strategies, run side by side
    (_fork_join). A failing strategy becomes a "failed" table row, and one
    whose reports Co-BUM cannot score gets null in cobum.json; a failing
    stage aborts the run but leaves the manifest and any partial artifacts
    behind. The manifest takes every stage's, training run's and strategy's
    wall seconds from clock, failed ones included.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    if manifest_path.exists():
        raise UserError(f"{out} already holds a run (manifest.json exists); "
                        "pick a fresh output directory")

    manifest = RunManifest(
        config_path=str(config_path) if config_path else None,
        config_sha256=hashlib.sha256(Path(config_path).read_bytes() if config_path
                                     else repr(cfg).encode()).hexdigest(),
        master_seed=master_seed,
        tool_version=__version__,
        out_dir=str(out),
    )

    @contextlib.contextmanager
    def stage(name):
        try:
            with clock(manifest.stage_seconds, name):
                yield
        except Exception:
            manifest.failed_stage = name
            manifest.write(manifest_path)
            raise

    with stage("generate"):
        bundle = build_bundle(cfg, master_seed)
        check_lora_rank(cfg, bundle)
        bg.save_bundle(bundle, out / "bundle.csv")
        manifest.reports["bundle"] = str(out / "bundle.csv")

    with stage("baseline"):
        trained, failed = _fork_join(
            {"baseline": lambda: train_baseline(cfg, bundle, master_seed),
             "gold": lambda: train_gold(cfg, bundle, master_seed)}, manifest.wall_seconds)
        if "baseline" in failed:
            raise failed["baseline"]
        baseline, _, baseline_units = trained["baseline"]
        manifest.checkpoints["baseline"] = str(save_model(baseline, out, "baseline"))

    with stage("gold"):
        if "gold" in failed:
            raise failed["gold"]
        gold = trained["gold"]
        manifest.checkpoints["gold"] = str(save_model(gold.model, out, "gold"))

    with stage("strategies"):
        results, failed = _fork_join(
            {name: functools.partial(run_strategy, name, cfg, bundle, baseline, gold.model,
                                     master_seed) for name in cfg.strategies},
            manifest.wall_seconds)
        for name, e in failed.items():
            manifest.failed_strategies[name] = f"{type(e).__name__}: {e}"
        for name, result in results.items():
            manifest.checkpoints[name] = str(save_model(result.model, out, name))
            manifest.strategies[name] = {
                "steps": len(result.step_log), "truncated": result.truncated,
                "cost_units": result.cost_units, "extra": result.extra}

    with stage("evaluate"):
        reports = {"baseline": fe.evaluate_model(baseline, bundle, time_units=baseline_units)}
        for name, result in {"gold": gold, **results}.items():
            reports[name] = fe.evaluate_model(result.model, bundle,
                                              time_units=result.cost_units,
                                              baseline=reports["baseline"])
        eval_path = write_json(out / "eval_reports.json",
                               {name: report_to_dict(r) for name, r in reports.items()})
        manifest.reports["eval_json"] = str(eval_path)

    with stage("cobum"):
        scores = dict.fromkeys(results)  # None: reports that leave a component undefined
        for name in results:
            with contextlib.suppress(ValueError):
                scores[name] = cb.score_reports(reports[name], reports["gold"],
                                                reports["baseline"], cfg.cobum_params)
        cobum_path = write_json(out / "cobum.json", {
            name: None if s is None else dataclasses.asdict(s) for name, s in scores.items()})
        manifest.reports["cobum_json"] = str(cobum_path)

    with stage("emit"):
        rows = [TableRow("Baseline", reports["baseline"]), TableRow("Hard", reports["gold"])]
        for name in cfg.strategies:
            label = ul.POST_HOC_STRATEGIES[name].label
            if name in manifest.failed_strategies:
                rows.append(TableRow(label, error=manifest.failed_strategies[name]))
            else:
                rows.append(TableRow(label, reports[name], cobum_score=getattr(
                    scores[name], "composite", None)))
        for fmt, suffix in (("csv", "csv"), ("json", "json"), ("markdown", "md")):
            manifest.reports[fmt] = str(emit_table(rows, fmt, out / f"results.{suffix}"))

    manifest.write(manifest_path)
    return manifest
