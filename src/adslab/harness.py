"""Experiment orchestration: pools of (architecture x scenario x seed) runs,
calibration, scoring, correlation, and report emission.

An experiment directory is fully determined by its config: the pool
manifest, fitted parameter profiles, the run-record stream, and every
CSV/SVG report are pure functions of (config, seeds, dataset bytes).
Completed runs are keyed by (arch_id, scenario_id, seed) and skipped on
resume; records append in completion order but every aggregate is
computed from the key-sorted stream, so scheduling order never changes
a reported number.
"""

from __future__ import annotations

import configparser
import math
import os
import typing
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import stats
from .ads import compute_ads
from .archpool import PoolConfig, generate_pool, load_manifest, save_manifest, _category_counts
from .calib import CalibrationParams, calibrate_params, load_profile, save_profile
from .clrun import TrainConfig, append_records, read_records, run_scenario
from .datasets import Scenario, ScenarioSpec, load_cifar10, load_idx, make_scenario, sample_subset
from .synthdata import IDX_FILENAMES

ENV_DATA_ROOT = "ADSLAB_DATA_ROOT"
ENV_WORKERS = "ADSLAB_WORKERS"

CIFAR_TRAIN_BATCHES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_BATCH = "test_batch.bin"


@dataclass
class ExperimentConfig:
    scenarios: list[ScenarioSpec] = field(default_factory=list)
    pool: PoolConfig = field(default_factory=PoolConfig)
    seeds: tuple[int, ...] = (0, 1, 2)
    workers: int = 1
    out_dir: str = "experiment"
    data_root: str = "data"
    epochs_per_task: int = 1
    steps_per_task: int = 0          # > 0 overrides the epoch-derived count
    batch_size: int = TrainConfig.batch_size
    lr: float = TrainConfig.lr
    momentum: float = TrainConfig.momentum
    weight_decay: float = TrainConfig.weight_decay
    trace_every: int = TrainConfig.trace_every
    path_segments: int = TrainConfig.path_segments
    eval_cap: int = 2000
    min_task1_acc: float = 0.8
    n_calib_archs: int = 10
    calib_fractions: tuple[float, ...] = ()  # defaults to each scenario's calib_fraction
    transfer_profile: str = ""       # load this profile id instead of calibrating
    profiles_dir: str = ""           # defaults to <out_dir>/params
    n_perm: int = 999
    n_boot: int = 1000
    baseline_perms: int = 200

    def __post_init__(self):
        if not self.scenarios:
            raise ValueError("at least one scenario is required")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        if self.workers < 1:
            raise ValueError("worker count must be >= 1")

    def resolved_data_root(self) -> str:
        return os.environ.get(ENV_DATA_ROOT, self.data_root)

    def resolved_workers(self) -> int:
        raw = os.environ.get(ENV_WORKERS)
        if raw is None:
            return self.workers
        if not raw.strip().isdecimal() or int(raw) < 1:
            raise ValueError(f"{ENV_WORKERS} must be an integer >= 1, got {raw!r}")
        return int(raw)

    def resolved_profiles_dir(self) -> str:
        return self.profiles_dir or os.path.join(self.out_dir, "params")

    def profile_path(self, pid: str) -> str:
        return os.path.join(self.resolved_profiles_dir(), f"{pid}.profile")

    def fractions_for(self, spec: ScenarioSpec) -> tuple[float, ...]:
        """The calibration fractions a scenario's profiles are fitted on."""
        return self.calib_fractions or (spec.calib_fraction,)

    def scoring_profile_path(self, spec: ScenarioSpec) -> str:
        """Path of the profile that scores a scenario's architectures: the
        transfer preset when one is set, else the fit on the first fraction."""
        return self.profile_path(self.transfer_profile
                                 or profile_id(spec.scenario_id, self.fractions_for(spec)[0]))


def profile_id(scenario_id: str, fraction: float) -> str:
    """Id of the profile fitted for a scenario on a calibration fraction."""
    return f"{scenario_id}_f{int(round(fraction * 100)):03d}"


# ---------------------------------------------------------------------------
# config file (INI with one [scenario <id>] section per scenario)
# ---------------------------------------------------------------------------

# (section, key) of every ExperimentConfig and PoolConfig field; ScenarioSpec
# fields use their own names in [scenario <id>], and per_category_counts is one
# count_<tag> key per category, or a single per_category count when hand-written
INI_KEYS = {
    "seeds": ("experiment", "seeds"),
    "workers": ("experiment", "workers"),
    "out_dir": ("experiment", "out"),
    "data_root": ("experiment", "data_root"),
    "eval_cap": ("experiment", "eval_cap"),
    "min_task1_acc": ("experiment", "min_task1_acc"),
    "epochs_per_task": ("train", "epochs_per_task"),
    "steps_per_task": ("train", "steps_per_task"),
    "batch_size": ("train", "batch_size"),
    "lr": ("train", "lr"),
    "momentum": ("train", "momentum"),
    "weight_decay": ("train", "weight_decay"),
    "trace_every": ("train", "trace_every"),
    "path_segments": ("train", "path_segments"),
    "depths": ("pool", "depths"),
    "width_candidates": ("pool", "widths"),
    "per_category_counts": ("pool", "count_"),
    "seed": ("pool", "seed"),
    "input_dim": ("pool", "input_dim"),
    "output_dim": ("pool", "output_dim"),
    "n_calib_archs": ("calib", "n_archs"),
    "calib_fractions": ("calib", "fractions"),
    "transfer_profile": ("calib", "profile"),
    "profiles_dir": ("calib", "profiles_dir"),
    "n_perm": ("stats", "n_perm"),
    "n_boot": ("stats", "n_boot"),
    "baseline_perms": ("stats", "baseline_perms"),
}


def _parse(tp, text: str):
    """INI text to a value of the annotated field type (int, float, str or a tuple of one)."""
    if typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]  # tuple[int, ...] or tuple[float, ...]
        return tuple(item(v) for v in text.replace(" ", "").split(",") if v)
    return tp(text)


def _parse_section(section: str, items: dict, names: dict, hints: dict) -> dict:
    """Field values of one INI section; ``names`` maps each known key to its field."""
    values = {}
    for key, text in items.items():
        if key not in names:
            raise ValueError(f"unknown key {key!r} in section [{section}]")
        values[names[key]] = _parse(hints[names[key]], text)
    return values


def load_config(path) -> ExperimentConfig:
    cp = configparser.ConfigParser(interpolation=None)
    if not cp.read(path):
        raise FileNotFoundError(f"config file not found: {path}")
    hints = typing.get_type_hints(ExperimentConfig) | typing.get_type_hints(PoolConfig)
    spec_hints = typing.get_type_hints(ScenarioSpec)
    spec_keys = {name: name for name in spec_hints if name != "scenario_id"}
    values, scenarios = {}, []
    for section in cp.sections():
        items = dict(cp[section])
        if section.startswith("scenario"):
            sid = section.split(None, 1)[1] if " " in section else section
            spec_values = _parse_section(section, items, spec_keys, spec_hints)
            try:
                scenarios.append(ScenarioSpec(sid, **spec_values))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"[{section}]: {exc}") from None
            continue
        if section == "pool":
            if "per_category" in items:
                values["per_category_counts"] = _category_counts(int(items.pop("per_category")))
            counts = {k[len("count_"):]: int(items.pop(k))
                      for k in list(items) if k.startswith("count_")}
            if counts:
                values["per_category_counts"] = counts
        names = {key: name for name, (sec, key) in INI_KEYS.items() if sec == section}
        values |= _parse_section(section, items, names, hints)
    pool_names = {f.name for f in fields(PoolConfig)}
    pool = PoolConfig(**{k: v for k, v in values.items() if k in pool_names})
    return ExperimentConfig(scenarios=scenarios, pool=pool,
                            **{k: v for k, v in values.items() if k not in pool_names})


def save_config(cfg: ExperimentConfig, path) -> None:
    sections: dict = {}
    for obj in (cfg, cfg.pool):
        for f in fields(obj):
            if f.name in ("scenarios", "pool"):
                continue
            section, key = INI_KEYS[f.name]
            value = getattr(obj, f.name)
            items = ({f"count_{tag}": n for tag, n in value.items()}
                     if f.name == "per_category_counts" else {key: value})
            sections.setdefault(section, {}).update({k: _fmt(v) for k, v in items.items()})
    for spec in cfg.scenarios:
        sections[f"scenario {spec.scenario_id}"] = {
            f.name: _fmt(getattr(spec, f.name)) for f in fields(spec) if f.name != "scenario_id"}
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict(sections)
    with open(path, "w") as fh:
        cp.write(fh)


# ---------------------------------------------------------------------------
# dataset resolution
# ---------------------------------------------------------------------------

def dataset_paths(root: str, name: str) -> dict:
    base = os.path.join(root, name)
    if name == "cifar10":
        return {"train": [os.path.join(base, b) for b in CIFAR_TRAIN_BATCHES],
                "test": [os.path.join(base, CIFAR_TEST_BATCH)]}
    return {
        "train": (os.path.join(base, IDX_FILENAMES[("train", "images")]),
                  os.path.join(base, IDX_FILENAMES[("train", "labels")])),
        "test": (os.path.join(base, IDX_FILENAMES[("test", "images")]),
                 os.path.join(base, IDX_FILENAMES[("test", "labels")])),
    }


def load_named_dataset(root: str, name: str) -> dict:
    paths = dataset_paths(root, name)
    missing = [p for split_paths in paths.values() for p in split_paths if not os.path.exists(p)]
    if missing:
        raise FileNotFoundError(
            f"dataset {name!r} is missing files under {root!r}:\n  "
            + "\n  ".join(missing)
            + "\nPoint data_root (or the ADSLAB_DATA_ROOT variable) at a directory "
            "with the canonical binary files, or create synthetic stand-ins with "
            "the make-data command."
        )
    if name == "cifar10":
        return {"train": load_cifar10(paths["train"], name, "train"),
                "test": load_cifar10(paths["test"], name, "test")}
    return {"train": load_idx(*paths["train"], name=name, split="train"),
            "test": load_idx(*paths["test"], name=name, split="test")}


def load_dataset_pool(cfg: ExperimentConfig) -> dict:
    root = cfg.resolved_data_root()
    names = set()
    for spec in cfg.scenarios:
        if spec.kind == "transfer":
            names.update((spec.src, spec.dst))
        else:
            names.add(spec.dataset)
    return {name: load_named_dataset(root, name) for name in sorted(names)}


# ---------------------------------------------------------------------------
# experiment phases
# ---------------------------------------------------------------------------

def steps_for(cfg: ExperimentConfig, n_samples: int) -> int:
    if cfg.steps_per_task > 0:
        return cfg.steps_per_task
    return max(1, math.ceil(n_samples / cfg.batch_size) * cfg.epochs_per_task)


def train_config(cfg: ExperimentConfig, steps: int, seed: int) -> TrainConfig:
    return TrainConfig(
        steps_per_task=steps, batch_size=cfg.batch_size, lr=cfg.lr,
        momentum=cfg.momentum, weight_decay=cfg.weight_decay,
        trace_every=cfg.trace_every, path_segments=cfg.path_segments, seed=seed,
    )


def calibration_scenario(scenario: Scenario, fraction: float) -> Scenario:
    """Shrink both task train sets to the calibration fraction.

    Task 1 reuses the scenario's carved calibration subset when the
    fraction matches; task 2 subsamples with a seed tied to the scenario.
    """
    if abs(fraction - scenario.spec.calib_fraction) < 1e-12:
        t1 = scenario.calib_subset
    else:
        t1 = sample_subset(scenario.task1_train, fraction, scenario.seed + 7001)
    if fraction >= 1.0:
        t2 = scenario.task2_train
    else:
        t2 = sample_subset(scenario.task2_train, fraction, scenario.seed + 7002)
    return Scenario(scenario.spec, t1, scenario.task1_eval, t2,
                    scenario.calib_subset, scenario.task2_eval,
                    scenario.n_classes, scenario.seed)


def pick_calibration_archs(pool: list, n: int) -> list:
    """Deterministic spread over the pool (covers all categories)."""
    if n >= len(pool):
        return list(pool)
    idx = np.unique(np.round(np.linspace(0, len(pool) - 1, n)).astype(int))
    return [pool[i] for i in idx]


def run_calibration(cfg: ExperimentConfig, scenario: Scenario,
                    pool_entries: list, fraction: float) -> CalibrationParams:
    """Train the calibration architectures on the data subset and fit params."""
    calib_sc = calibration_scenario(scenario, fraction)
    steps = steps_for(cfg, len(calib_sc.task1_train))
    entries = pick_calibration_archs(pool_entries, cfg.n_calib_archs)
    runs = []
    for arch_id, arch in entries:
        tc = train_config(cfg, steps, cfg.seeds[0])
        tc = replace(tc, trace_every=1)  # dense cosine sampling for the depth fit
        runs.append(run_scenario(arch, calib_sc, tc,
                                 arch_id=f"calib_{arch_id}", eval_cap=min(cfg.eval_cap, 512)))
    return calibrate_params(runs, source=f"{scenario.scenario_id}@{fraction}",
                            params_id=profile_id(scenario.scenario_id, fraction))


def experiment_run_keys(cfg: ExperimentConfig, pool_entries: list) -> list:
    keys = []
    for spec in cfg.scenarios:
        for arch_id, _ in pool_entries:
            for seed in cfg.seeds:
                keys.append((arch_id, spec.scenario_id, seed))
    return keys


def _drop_torn_tail(path) -> None:
    """Truncate a final line without its newline, left by a crash mid-append."""
    with open(path, "rb+") as fh:
        data = fh.read()
        if data and not data.endswith(b"\n"):
            keep = data.rfind(b"\n") + 1
            fh.truncate(keep)
            warnings.warn(f"{path}: dropped a torn final record line "
                          f"({len(data) - keep} bytes)", stacklevel=2)


def run_experiment(cfg: ExperimentConfig, progress=None) -> str:
    """Execute (or resume) the full experiment; returns the experiment directory."""
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    os.makedirs(cfg.resolved_profiles_dir(), exist_ok=True)
    save_config(cfg, os.path.join(out, "experiment.ini"))

    datasets = load_dataset_pool(cfg)
    scenarios = {s.scenario_id: make_scenario(s, datasets, seed=cfg.seeds[0])
                 for s in cfg.scenarios}

    manifest_path = os.path.join(out, "pool.manifest")
    if not os.path.exists(manifest_path):
        save_manifest(generate_pool(cfg.pool), manifest_path, seed=cfg.pool.seed)
    pool_entries = load_manifest(manifest_path)

    # calibration per scenario, unless a transfer preset scores every scenario;
    # a missing scoring profile fails here, before the pool phase
    for spec in cfg.scenarios:
        if not cfg.transfer_profile:
            for fraction in cfg.fractions_for(spec):
                path = cfg.profile_path(profile_id(spec.scenario_id, fraction))
                if not os.path.exists(path):
                    save_profile(run_calibration(cfg, scenarios[spec.scenario_id],
                                                 pool_entries, fraction), path)
        load_profile(cfg.scoring_profile_path(spec))

    # full pool runs, resumable by key
    records_path = os.path.join(out, "records.jsonl")
    done = set()
    if os.path.exists(records_path):
        _drop_torn_tail(records_path)
        done = {tuple(r.key) for r in read_records(records_path)}

    jobs = [key for key in experiment_run_keys(cfg, pool_entries) if key not in done]
    arch_by_id = dict(pool_entries)

    def execute(job):
        arch_id, scenario_id, seed = job
        scenario = scenarios[scenario_id]
        steps = steps_for(cfg, len(scenario.task1_train))
        tc = train_config(cfg, steps, seed)
        return run_scenario(arch_by_id[arch_id], scenario, tc,
                            arch_id=arch_id, eval_cap=cfg.eval_cap)

    # one worker runs the jobs in this thread; the executor starts no thread until map
    workers = cfg.resolved_workers()
    with ThreadPoolExecutor(max_workers=workers) as ex:
        for rec in (map if workers == 1 else ex.map)(execute, jobs):
            append_records(records_path, [rec])
            if progress:
                progress(rec)

    emit_report(out)
    return out


# ---------------------------------------------------------------------------
# aggregation and reporting
# ---------------------------------------------------------------------------

@dataclass
class ScenarioAggregate:
    scenario_id: str
    arch_ids: list
    ads: np.ndarray
    shift: np.ndarray
    ece_drift: np.ndarray
    n_runs: int
    n_excluded: int


def aggregate_scenario(records: list, sid: str, arch_by_id: dict,
                       params: CalibrationParams, min_task1_acc: float) -> ScenarioAggregate:
    by_arch: dict = {}
    n_excluded = 0
    n_runs = 0
    for rec in sorted((r for r in records if r.scenario_id == sid), key=lambda r: r.key):
        n_runs += 1
        if not rec.valid or not math.isfinite(rec.observed_shift):
            n_excluded += 1
            continue
        if rec.task1_eval_acc < min_task1_acc:
            n_excluded += 1  # underfit gate
            continue
        by_arch.setdefault(rec.arch_id, []).append(rec)
    arch_ids = sorted(a for a in by_arch if a in arch_by_id)
    ads_vals, shifts, drifts = [], [], []
    for arch_id in arch_ids:
        runs = by_arch[arch_id]
        ads_vals.append(compute_ads(arch_by_id[arch_id], params).value)
        shifts.append(float(np.mean([r.observed_shift for r in runs])))
        drifts.append(float(np.mean([r.ece_after - r.ece_before for r in runs])))
    return ScenarioAggregate(sid, arch_ids, np.array(ads_vals), np.array(shifts),
                             np.array(drifts), n_runs, n_excluded)


def selector_baseline(agg: ScenarioAggregate, n_perms: int, seed: int) -> float:
    """Mean AUC-PR of score-shuffled selectors (the random baseline)."""
    positive = stats.low_drift(agg.ece_drift)
    if n_perms < 1 or not positive.any():
        return math.nan
    rng = np.random.default_rng(seed)
    return float(np.mean([stats.average_precision(rng.permutation(agg.ads), positive)
                          for _ in range(n_perms)]))


def _fmt(x) -> str:
    """A CSV cell or an INI value as text; floats in full precision, tuples comma-joined."""
    if isinstance(x, tuple):
        return ",".join(map(_fmt, x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    if isinstance(x, np.integer):
        return str(int(x))
    return str(x)


def write_csv(path, header: list, rows: list) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def emit_report(exp_dir: str) -> list:
    """Rebuild every CSV/SVG report from the persisted experiment state."""
    cfg = load_config(os.path.join(exp_dir, "experiment.ini"))
    records_path = os.path.join(exp_dir, "records.jsonl")
    manifest_path = os.path.join(exp_dir, "pool.manifest")
    for required in (records_path, manifest_path):
        if not os.path.exists(required):
            raise FileNotFoundError(f"incomplete experiment: missing {required}")
    records = read_records(records_path)
    pool_entries = load_manifest(manifest_path)
    arch_by_id = dict(pool_entries)

    expected = set(experiment_run_keys(cfg, pool_entries))
    have = {tuple(r.key) for r in records}
    missing = sorted(expected - have)
    if missing:
        preview = ", ".join(map(str, missing[:5]))
        raise FileNotFoundError(
            f"incomplete experiment: {len(missing)} runs missing (e.g. {preview})")

    reports_dir = os.path.join(exp_dir, "reports")
    os.makedirs(reports_dir, exist_ok=True)
    written = []

    corr_rows = []
    sel_rows = []
    summary_rows = []
    for spec in cfg.scenarios:
        sid = spec.scenario_id
        params = load_profile(cfg.scoring_profile_path(spec))
        agg = aggregate_scenario(records, sid, arch_by_id, params, cfg.min_task1_acc)
        if len(agg.arch_ids) < 3:
            raise ValueError(
                f"insufficient sample: scenario {sid} has {len(agg.arch_ids)} "
                "architectures after exclusions (need >= 3)")
        rep = stats.correlation_report(agg.ads, agg.shift, n_perm=cfg.n_perm,
                                       n_boot=cfg.n_boot, seed=cfg.seeds[0])
        corr_rows.append([sid, len(agg.arch_ids), rep.spearman, rep.kendall,
                          rep.dc, rep.p_value, rep.ci_low, rep.ci_high])
        summary_rows.append([sid, agg.n_runs, agg.n_excluded, len(agg.arch_ids)])

        if len(agg.arch_ids) >= 4:
            sel = stats.pr_analysis(agg.ads, agg.ece_drift)
            baseline = selector_baseline(agg, cfg.baseline_perms, seed=cfg.seeds[0])
            sel_rows.append([sid, sel.auc_pr, sel.positive_rate, baseline, len(agg.arch_ids)])
            pr_path = os.path.join(reports_dir, f"selector_{sid}.csv")
            write_csv(pr_path, ["threshold", "precision", "recall"],
                      [[q, p, r] for q, p, r in zip(sel.thresholds, sel.precision, sel.recall)])
            written.append(pr_path)
            pr_svg = os.path.join(reports_dir, f"pr_{sid}.svg")
            svg_curve(sel.recall, sel.precision, "recall", "precision",
                      f"{sid}: selector PR (AUC-PR {sel.auc_pr:.3f})", pr_svg)
            written.append(pr_svg)
        else:
            sel_rows.append([sid, math.nan, math.nan, math.nan, len(agg.arch_ids)])

        scatter = os.path.join(reports_dir, f"scatter_{sid}.svg")
        svg_scatter(agg.ads, agg.shift, "architecture-driven shift (proxy)",
                    "observed logit shift", f"{sid}: proxy vs observed shift", scatter)
        written.append(scatter)

    corr_path = os.path.join(reports_dir, "correlation.csv")
    write_csv(corr_path, ["scenario", "n_arch", "spearman", "kendall", "dc",
                          "p_value", "ci_low", "ci_high"], corr_rows)
    written.append(corr_path)

    summary_path = os.path.join(reports_dir, "runs_summary.csv")
    write_csv(summary_path,
              ["scenario", "n_runs", "n_excluded", "n_arch_used"], summary_rows)
    written.append(summary_path)

    sel_sum_path = os.path.join(reports_dir, "selector_summary.csv")
    write_csv(sel_sum_path, ["scenario", "auc_pr", "positive_rate",
                             "random_baseline", "n_arch"], sel_rows)
    written.append(sel_sum_path)

    # calibration-transfer table across subset fractions, when a grid is set
    if len(cfg.calib_fractions) > 1:
        rows = []
        for spec in cfg.scenarios:
            sid = spec.scenario_id
            for fraction in cfg.calib_fractions:
                path = cfg.profile_path(profile_id(sid, fraction))
                if not os.path.exists(path):
                    continue
                params = load_profile(path)
                agg = aggregate_scenario(records, sid, arch_by_id, params, cfg.min_task1_acc)
                rows.append([sid, fraction, stats.spearman(agg.ads, agg.shift),
                             stats.direction_consistency(agg.ads, agg.shift)])
        transfer_path = os.path.join(reports_dir, "transfer.csv")
        write_csv(transfer_path, ["scenario", "fraction", "spearman", "dc"], rows)
        written.append(transfer_path)

    return written


# ---------------------------------------------------------------------------
# static SVG plots
# ---------------------------------------------------------------------------

SVG_W, SVG_H = 640, 480
MARGIN = 60


def _axis_ticks(lo: float, hi: float, n: int = 5) -> list:
    if hi <= lo:
        hi = lo + 1.0
    return list(np.linspace(lo, hi, n))


def _svg_frame(title: str, xlabel: str, ylabel: str, xt, yt, xr, yr) -> tuple:
    """The frame's SVG elements and the data-to-pixel maps of x and y."""
    def sx(v):
        return MARGIN + (v - xr[0]) / (xr[1] - xr[0]) * (SVG_W - 2 * MARGIN)

    def sy(v):
        return SVG_H - MARGIN - (v - yr[0]) / (yr[1] - yr[0]) * (SVG_H - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_W}" height="{SVG_H}" '
        f'viewBox="0 0 {SVG_W} {SVG_H}">',
        f'<rect width="{SVG_W}" height="{SVG_H}" fill="white"/>',
        f'<text x="{SVG_W / 2:.1f}" y="24" text-anchor="middle" font-size="15">{title}</text>',
        f'<line x1="{MARGIN}" y1="{SVG_H - MARGIN}" x2="{SVG_W - MARGIN}" '
        f'y2="{SVG_H - MARGIN}" stroke="black"/>',
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{SVG_H - MARGIN}" stroke="black"/>',
        f'<text x="{SVG_W / 2:.1f}" y="{SVG_H - 14}" text-anchor="middle" '
        f'font-size="12">{xlabel}</text>',
        f'<text x="18" y="{SVG_H / 2:.1f}" text-anchor="middle" font-size="12" '
        f'transform="rotate(-90 18 {SVG_H / 2:.1f})">{ylabel}</text>',
    ]
    for v in xt:
        parts.append(f'<line x1="{sx(v):.1f}" y1="{SVG_H - MARGIN}" x2="{sx(v):.1f}" '
                     f'y2="{SVG_H - MARGIN + 5}" stroke="black"/>')
        parts.append(f'<text x="{sx(v):.1f}" y="{SVG_H - MARGIN + 18}" text-anchor="middle" '
                     f'font-size="10">{v:.3g}</text>')
    for v in yt:
        parts.append(f'<line x1="{MARGIN - 5}" y1="{sy(v):.1f}" x2="{MARGIN}" '
                     f'y2="{sy(v):.1f}" stroke="black"/>')
        parts.append(f'<text x="{MARGIN - 8}" y="{sy(v):.1f}" text-anchor="end" '
                     f'font-size="10">{v:.3g}</text>')
    return parts, sx, sy


def svg_scatter(x, y, xlabel: str, ylabel: str, title: str, path) -> None:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xr = (float(x.min()), float(x.max()) if x.max() > x.min() else float(x.min()) + 1)
    yr = (float(y.min()), float(y.max()) if y.max() > y.min() else float(y.min()) + 1)
    parts, sx, sy = _svg_frame(title, xlabel, ylabel, _axis_ticks(*xr), _axis_ticks(*yr), xr, yr)
    ranks = stats.rankdata(x)
    for i in range(len(x)):
        parts.append(f'<circle cx="{sx(x[i]):.1f}" cy="{sy(y[i]):.1f}" r="3.5" '
                     f'fill="steelblue" fill-opacity="0.8"/>')
        parts.append(f'<text x="{sx(x[i]) + 5:.1f}" y="{sy(y[i]) - 4:.1f}" '
                     f'font-size="8" fill="gray">{int(ranks[i])}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def svg_curve(x, y, xlabel: str, ylabel: str, title: str, path) -> None:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xr, yr = (0.0, 1.0), (0.0, 1.0)
    parts, sx, sy = _svg_frame(title, xlabel, ylabel, _axis_ticks(0, 1), _axis_ticks(0, 1), xr, yr)
    order = np.argsort(x, kind="stable")
    pts = " ".join(f"{sx(x[i]):.1f},{sy(y[i]):.1f}" for i in order)
    parts.append(f'<polyline points="{pts}" fill="none" stroke="firebrick" stroke-width="2"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
