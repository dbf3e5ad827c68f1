"""Experiment orchestration: pools of (architecture x scenario x seed) runs,
calibration, scoring, correlation, and report emission.

An experiment directory is fully determined by its config: the pool manifest,
fitted parameter profiles, the run-record stream, and every CSV/SVG report are
pure functions of (config, seeds, dataset bytes). Completed runs are keyed by
(arch_id, scenario_id, seed) and skipped on resume. ``plan_jobs`` makes
calibration and pool runs into jobs alike: the runs of one arch and seed whose
scenarios share a task-1 digest, in any order, are one job, which trains task
1 once and returns its records. A job's records are appended together, jobs in
the order of their first key (arch-major), once every job before it is
complete, whatever the worker count. Every aggregate is computed from the
key-sorted stream, so the record order never changes a reported number.
A loaded dataset lives only until the last scenario that names it is built,
so no job runs beside a raw copy of the data.
Calibration runs evaluate at most 512 rows per evaluation set, as a fit reads
only their traces. Jobs run one at a time in the calling thread: by default
each drives a BLAS that runs one thread per CPU, so worker threads would only
oversubscribe the CPUs. The BLAS thread count moves record bits; the worker
count moves none. Every profile an experiment scores with, a preset included,
lives in its ``params`` directory, so a report reads nothing outside it.
``ExperimentConfig`` is frozen and checked when built (change it with
``dataclasses.replace``), and holds only values its snapshot reads back equal.
Every file written here, the reports included, is replaced whole
(``files.write_atomic``); records are appended. A resume under a changed
config is refused, and one run at a time may use a directory.
"""

from __future__ import annotations

import fcntl
import itertools
import math
import os
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import stats
from .ads import compute_ads
from .archpool import (PoolConfig, generate_pool, load_manifest, pool_entries, save_manifest,
                       _category_counts)
from .calib import CalibrationParams, calibrate_params, load_profile, save_profile
from .clrun import (TrainConfig, append_records, read_records, run_scenario, task1_digest,
                    train_task1)
from .datasets import (Scenario, ScenarioSpec, dataset_paths, load_cifar10,
                       load_idx, make_scenario, sample_subset, subset_size)
from .files import (check_fields, field_types, format_value, parse_section, parse_value,
                    read_ini, write_atomic, write_ini)
from .nncore import ArchitectureSpec, DivergenceError

ENV_DATA_ROOT = "ADSLAB_DATA_ROOT"
ENV_WORKERS = "ADSLAB_WORKERS"


@dataclass(frozen=True)
class ExperimentConfig:
    scenarios: tuple[ScenarioSpec, ...] = ()
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
    transfer_profile: str = ""       # path of a preset profile that scores instead of a fit
    n_perm: int = stats.MIN_PERM
    n_boot: int = stats.MIN_BOOT
    baseline_perms: int = 200

    def __post_init__(self):
        """Refuse every value a later stage would refuse, before any of it is saved."""
        check_fields(self)
        if not self.scenarios:
            raise ValueError("at least one scenario is required")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        train_config(self, steps=1, seed=0)  # TrainConfig's own checks of the shared fields
        for name, value, least in (("seeds", min(self.seeds), 0),
                                   ("workers", self.workers, 1), ("eval_cap", self.eval_cap, 1),
                                   ("epochs_per_task", self.epochs_per_task, 1),
                                   ("steps_per_task", self.steps_per_task, 0),
                                   ("calib n_archs", self.n_calib_archs, 1),
                                   ("n_perm", self.n_perm, stats.MIN_PERM),
                                   ("n_boot", self.n_boot, stats.MIN_BOOT),
                                   ("baseline_perms", self.baseline_perms, 1)):
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if self.transfer_profile and len(self.calib_fractions) > 1:
            raise ValueError("[calib] profile scores every scenario; it cannot stand beside a "
                             f"[calib] fractions grid, got {self.calib_fractions}")
        if not 0.0 <= self.min_task1_acc <= 1.0:
            raise ValueError(f"min_task1_acc must be in [0, 1], got {self.min_task1_acc}")
        if not all(0.0 < f <= 1.0 for f in self.calib_fractions):
            raise ValueError(f"calib fractions must be in (0, 1], got {self.calib_fractions}")
        # a repeated seed or scenario id would run its keys twice, and fractions
        # that round alike would fit one profile under two fractions
        scenario_ids = [s.scenario_id for s in self.scenarios]
        for name, values, keys in (
                ("seeds", self.seeds, self.seeds),
                ("scenario ids", scenario_ids, scenario_ids),
                ("calib fractions (to 0.01, as their profile ids)", self.calib_fractions,
                 [profile_id("", f) for f in self.calib_fractions])):
            if len(set(keys)) < len(keys):
                raise ValueError(f"{name} must be distinct, got {values}")

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
        return os.path.join(self.out_dir, "params")

    def profile_path(self, pid: str) -> str:
        return os.path.join(self.resolved_profiles_dir(), f"{pid}.profile")

    def fractions_for(self, spec: ScenarioSpec) -> tuple[float, ...]:
        """The calibration fractions a scenario's profiles are fitted on."""
        return self.calib_fractions or (spec.calib_fraction,)

    def scoring_profile_path(self, spec: ScenarioSpec) -> str:
        """Path of the profile that scores a scenario's architectures: the
        experiment's copy of the preset when one is set, else the fit on the first fraction."""
        return self.profile_path("preset" if self.transfer_profile
                                 else profile_id(spec.scenario_id, self.fractions_for(spec)[0]))


def profile_id(scenario_id: str, fraction: float) -> str:
    """Id of the profile fitted for a scenario on a calibration fraction."""
    return f"{scenario_id}_f{int(round(fraction * 100)):03d}"


# ---------------------------------------------------------------------------
# config file (INI with one [scenario <id>] section per scenario)
# ---------------------------------------------------------------------------

# (section, key) of every ExperimentConfig and PoolConfig field, in file order;
# ScenarioSpec fields use their own names in [scenario <id>], and per_category_counts
# is one count_<tag> key per category, or a single per_category count when hand-written
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
    "n_calib_archs": ("calib", "n_archs"),
    "calib_fractions": ("calib", "fractions"),
    "transfer_profile": ("calib", "profile"),
    "n_perm": ("stats", "n_perm"),
    "n_boot": ("stats", "n_boot"),
    "baseline_perms": ("stats", "baseline_perms"),
    "depths": ("pool", "depths"),
    "width_candidates": ("pool", "widths"),
    "per_category_counts": ("pool", "count_"),
    "seed": ("pool", "seed"),
    "input_dim": ("pool", "input_dim"),
    "output_dim": ("pool", "output_dim"),
}
POOL_FIELDS = {f.name for f in fields(PoolConfig)}


def load_config(path) -> ExperimentConfig:
    """The config in an INI file; a bad file or value raises ValueError naming the file."""
    return read_ini(path, _config_from_sections)


def _config_from_sections(sections: dict) -> ExperimentConfig:
    hints = field_types(ExperimentConfig) | field_types(PoolConfig)
    spec_hints = field_types(ScenarioSpec)
    values, scenarios = {}, []
    for section, items in sections.items():
        if section == "scenario" or section.startswith("scenario "):
            sid = section.split(None, 1)[1] if " " in section else section
            spec_keys = {name: (section, name) for name in spec_hints if name != "scenario_id"}
            spec_values = parse_section(section, items, spec_keys, spec_hints)
            try:
                scenarios.append(ScenarioSpec(sid, **spec_values))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"[{section}]: {exc}") from None
            continue
        if section == "pool":
            counts = {k[len("count_"):]: parse_value(section, k, int, items.pop(k))
                      for k in list(items) if k.startswith("count_")}
            if "per_category" in items:
                if counts:
                    raise ValueError(f"[{section}] per_category and count_<tag> keys "
                                     "both set the pool's counts; keep one of them")
                counts = _category_counts(
                    parse_value(section, "per_category", int, items.pop("per_category")))
            if counts:
                values["per_category_counts"] = counts
        values |= parse_section(section, items, INI_KEYS, hints)
    pool = PoolConfig(**{k: v for k, v in values.items() if k in POOL_FIELDS})
    return ExperimentConfig(scenarios=scenarios, pool=pool,
                            **{k: v for k, v in values.items() if k not in POOL_FIELDS})


def save_config(cfg: ExperimentConfig, path) -> None:
    sections: dict = {}
    for name, (section, key) in INI_KEYS.items():
        value = getattr(cfg.pool if name in POOL_FIELDS else cfg, name)
        items = ({f"count_{tag}": n for tag, n in value.items()}
                 if name == "per_category_counts" else {key: value})
        sections.setdefault(section, {}).update(items)
    for spec in cfg.scenarios:
        sections[f"scenario {spec.scenario_id}"] = {
            f.name: getattr(spec, f.name) for f in fields(spec) if f.name != "scenario_id"}
    write_ini(path, sections)


# ---------------------------------------------------------------------------
# dataset resolution
# ---------------------------------------------------------------------------

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
        return {split: load_cifar10(files) for split, files in paths.items()}
    return {split: load_idx(*files) for split, files in paths.items()}


def load_dataset_pool(cfg: ExperimentConfig) -> dict:
    root = cfg.resolved_data_root()
    names = sorted({name for spec in cfg.scenarios for name in spec.dataset_names})
    return {name: load_named_dataset(root, name) for name in names}


def build_scenarios(cfg: ExperimentConfig) -> dict:
    """{scenario id: scenario} of every scenario of ``cfg``, built from the
    datasets they name. Each loaded dataset is dropped as soon as the last
    scenario that names it is built, so no raw array outlives the scenarios."""
    datasets = load_dataset_pool(cfg)
    last_use = {name: i for i, spec in enumerate(cfg.scenarios) for name in spec.dataset_names}
    scenarios = {}
    for i, spec in enumerate(cfg.scenarios):
        scenarios[spec.scenario_id] = make_scenario(spec, datasets, seed=cfg.seeds[0],
                                                    eval_cap=cfg.eval_cap)
        for name in spec.dataset_names:
            if last_use[name] == i:
                del datasets[name]
    return scenarios


# ---------------------------------------------------------------------------
# experiment phases
# ---------------------------------------------------------------------------

def steps_for(cfg: ExperimentConfig, n_samples: int) -> int:
    if cfg.steps_per_task > 0:
        return cfg.steps_per_task
    return math.ceil(n_samples / cfg.batch_size) * cfg.epochs_per_task


def train_config(cfg: ExperimentConfig, steps: int, seed: int) -> TrainConfig:
    return TrainConfig(
        steps_per_task=steps, batch_size=cfg.batch_size, lr=cfg.lr,
        momentum=cfg.momentum, weight_decay=cfg.weight_decay,
        trace_every=cfg.trace_every, path_segments=cfg.path_segments, seed=seed,
    )


def calibration_task1(scenario: Scenario, fraction: float) -> Scenario:
    """The scenario with task 1's train set shrunk to the calibration fraction:
    the scenario's carved calibration subset when the fraction matches, else a
    subsample with a seed tied to the scenario.

    Its evaluation sets keep their first 512 rows: a fit reads the layer
    traces and validity of its runs, never an evaluation output."""
    task1_train = (scenario.calib_subset if abs(fraction - scenario.spec.calib_fraction) < 1e-12
                   else sample_subset(scenario.task1_train, fraction, scenario.seed + 7001))
    return replace(scenario, task1_train=task1_train,
                   task1_eval=scenario.task1_eval.take(slice(512)),
                   task2_eval=scenario.task2_eval.take(slice(512)))


def calibration_task2(scenario: Scenario, fraction: float) -> Scenario:
    """The scenario with task 2's train set subsampled to the calibration
    fraction, with a seed tied to the scenario."""
    if fraction >= 1.0:
        return scenario
    return replace(scenario, task2_train=sample_subset(scenario.task2_train, fraction,
                                                       scenario.seed + 7002))


def pick_calibration_archs(pool: list, n: int) -> list:
    """Deterministic spread of n over the pool (covers all categories); all of it,
    in order, when n >= its size."""
    idx = np.unique(np.round(np.linspace(0, len(pool) - 1, min(n, len(pool)))).astype(int))
    return [pool[i] for i in idx]


def plan_jobs(cfg: ExperimentConfig, keys: list, scenarios: dict, arch_by_id: dict,
              complete=lambda sid, scenario: scenario) -> tuple:
    """(groups, job): ``keys`` grouped by (arch, seed, task-1 digest of ``scenarios[key[1]]``)
    in the order of each group's first key, and the function that runs a group.

    ``complete(sid, scenario)`` builds the rest of a scenario as its job starts,
    so only the running job's copies of it are alive."""
    digests = {sid: task1_digest(sc) for sid, sc in scenarios.items()}
    groups: dict = {}
    for key in keys:
        groups.setdefault((key[0], key[2], digests[key[1]]), []).append(key)

    def job(keys: list) -> list:
        arch_id, scenario_id, seed = keys[0]
        # the runs of a job share task 1's length, so its step count
        steps = steps_for(cfg, len(scenarios[scenario_id].task1_train))
        members = [complete(sid, scenarios[sid]) for _, sid, _ in keys]
        return run_job(arch_by_id[arch_id], members, train_config(cfg, steps, seed),
                       arch_id=arch_id)

    return list(groups.values()), job


def run_calibration(cfg: ExperimentConfig, wanted: dict, pool_entries: list) -> dict:
    """``{profile id: (scenario, fraction)}`` to ``{profile id: params}`` fitted on
    that subset's calibration runs, planned as pool runs are and run in this thread."""
    archs = [(f"calib_{arch_id}", arch)
             for arch_id, arch in pick_calibration_archs(pool_entries, cfg.n_calib_archs)]
    keys = [(arch_id, pid, cfg.seeds[0]) for pid in wanted for arch_id, _ in archs]
    # the digests read only task 1; each task-2 subset is drawn when its job runs
    task1_sides = {pid: calibration_task1(sc, fraction) for pid, (sc, fraction) in wanted.items()}
    # dense cosine sampling for the depth fit
    groups, job = plan_jobs(replace(cfg, trace_every=1), keys, task1_sides, dict(archs),
                            complete=lambda pid, sc: calibration_task2(sc, wanted[pid][1]))
    runs = dict(zip(itertools.chain(*groups), itertools.chain(*map(job, groups))))
    return {pid: calibrate_params([runs[(arch_id, pid, cfg.seeds[0])] for arch_id, _ in archs],
                                  source=f"{sc.scenario_id}@{fraction}", params_id=pid)
            for pid, (sc, fraction) in wanted.items()}


def experiment_run_keys(cfg: ExperimentConfig, pool_entries: list) -> list:
    """Every pool run's key, arch-major (arch, seed, scenario)."""
    return [(arch_id, spec.scenario_id, seed) for arch_id, _ in pool_entries
            for seed in cfg.seeds for spec in cfg.scenarios]


def run_job(arch: ArchitectureSpec, scenarios: list, cfg: TrainConfig,
            arch_id: str = "arch") -> list:
    """The records of one architecture and seed on scenarios whose task 1 is
    byte-identical, in scenario order.

    Task 1 trains once and its end is shared; its divergence flags every run
    invalid."""
    try:
        task1 = train_task1(arch, scenarios[0], cfg, arch_id)
    except DivergenceError as exc:
        task1 = exc
    return [run_scenario(arch, scenario, cfg, arch_id=arch_id, task1=task1)
            for scenario in scenarios]


def _drop_torn_tail(path) -> None:
    """Truncate a final line without its newline, left by a crash mid-append."""
    with open(path, "rb+") as fh:
        data = fh.read()
        if data and not data.endswith(b"\n"):
            keep = data.rfind(b"\n") + 1
            fh.truncate(keep)
            warnings.warn(f"{path}: dropped a torn final record line "
                          f"({len(data) - keep} bytes)", stacklevel=2)


def _refuse_changed_config(cfg: ExperimentConfig, ini: str) -> None:
    """Raise if the snapshot at ``ini`` was written under another config.

    Only where the experiment and its data live and how many threads run
    it may change between a run and its resume; any other change would
    mix runs made under two configs."""
    if not os.path.exists(ini):
        return
    old = load_config(ini)
    changed = [f.name for f in fields(cfg) if f.name not in ("workers", "out_dir", "data_root")
               and getattr(old, f.name) != getattr(cfg, f.name)]
    if changed:
        raise ValueError(f"{cfg.out_dir} holds runs made under another config "
                         f"(changed: {', '.join(changed)}); rerun with the config in "
                         f"{ini} or use a new directory")


def _adopt(supplied: str, target: str) -> None:
    """Copy a supplied file to ``target``, or refuse one that differs from it."""
    with open(supplied, "rb") as fh:
        data = fh.read()
    if not os.path.exists(target):
        write_atomic(target, lambda fh: fh.write(data), "wb")
        return
    with open(target, "rb") as fh:
        if fh.read() != data:
            raise ValueError(f"{target} already exists and differs from {supplied}")


def run_experiment(cfg: ExperimentConfig, progress=None, pool_manifest: str | None = None) -> str:
    """Execute (or resume) the full experiment; returns the experiment directory.

    ``pool_manifest`` names a manifest to adopt as the experiment's pool. It
    and the config's preset are copied in under the directory lock, after
    every refusal, so a refused run leaves neither behind; a resume refuses
    a source that no longer matches its copy.
    """
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    records_path = os.path.join(out, "records.jsonl")
    # one run per directory; the kernel drops the lock when the process dies
    with open(records_path, "a") as lock:
        try:
            fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise ValueError(f"{out}: another run is using this experiment directory") from None
        ini = os.path.join(out, "experiment.ini")
        _refuse_changed_config(cfg, ini)
        # everything that can refuse the config runs before its snapshot is saved;
        # that includes a bad ADSLAB_WORKERS, although the jobs run one at a time
        cfg.resolved_workers()
        scenarios = build_scenarios(cfg)
        manifest_path = os.path.join(out, "pool.manifest")
        source = pool_manifest or manifest_path
        pool = None if pool_manifest or os.path.exists(manifest_path) else generate_pool(cfg.pool)
        entries = load_manifest(source) if pool is None else pool_entries(pool)
        # the report ranks architectures; fewer than 3 would strand the finished runs
        if len(entries) < 3:
            raise ValueError(f"the pool has {len(entries)} architectures; an experiment "
                             "needs >= 3 to report")
        # nets train at each scenario's input width, but ADS scores the pool's
        for (arch_id, spec), sc in itertools.product(entries, scenarios.values()):
            if spec.input_dim != sc.input_dim:
                raise ValueError(f"pool input_dim {spec.input_dim} ({arch_id}) differs from the "
                                 f"input width {sc.input_dim} of scenario {sc.scenario_id}")
        # every calibration subset, unless a transfer preset scores every scenario
        wanted = {profile_id(s.scenario_id, f): (scenarios[s.scenario_id], f)
                  for s in cfg.scenarios for f in cfg.fractions_for(s) if not cfg.transfer_profile}
        for pid, (sc, fraction) in wanted.items():
            for task in ("task1_train", "task2_train"):
                try:
                    subset_size(len(getattr(sc, task)), fraction)
                except ValueError as exc:
                    raise ValueError(f"calibration subset {pid}, {task}: {exc}") from None
        if cfg.transfer_profile:
            load_profile(cfg.transfer_profile)  # a bad copy would block the corrected rerun
        os.makedirs(cfg.resolved_profiles_dir(), exist_ok=True)
        for supplied, target in ((pool_manifest, manifest_path),
                                 (cfg.transfer_profile, cfg.profile_path("preset"))):
            if supplied:
                _adopt(supplied, target)
        save_config(cfg, ini)
        if pool is not None:
            save_manifest(pool, manifest_path, seed=cfg.pool.seed)

        # calibration of every missing profile
        missing = {pid: v for pid, v in wanted.items() if not os.path.exists(cfg.profile_path(pid))}
        for pid, params in run_calibration(cfg, missing, entries).items():
            save_profile(params, cfg.profile_path(pid))

        # full pool runs, resumable by key, one job per shared task 1
        _drop_torn_tail(records_path)
        done = {tuple(r.key) for r in read_records(records_path)}
        pending = [key for key in experiment_run_keys(cfg, entries) if key not in done]
        groups, job = plan_jobs(cfg, pending, scenarios, dict(entries))
        for records in map(job, groups):
            append_records(records_path, records)
            if progress:
                for rec in records:
                    progress(rec)

        emit_report(out)
    return out


# ---------------------------------------------------------------------------
# aggregation and reporting
# ---------------------------------------------------------------------------

@dataclass
class ScenarioAggregate:
    """A scenario's included architectures and their seed-mean observations;
    no profile enters it, so every profile scores the same aggregate."""
    arch_ids: list
    shift: np.ndarray
    ece_drift: np.ndarray
    n_runs: int
    n_excluded: int


def aggregate_scenario(records: list, sid: str, arch_by_id: dict,
                       min_task1_acc: float) -> ScenarioAggregate:
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
    shifts = [float(np.mean([r.observed_shift for r in by_arch[a]])) for a in arch_ids]
    drifts = [float(np.mean([r.ece_after - r.ece_before for r in by_arch[a]])) for a in arch_ids]
    return ScenarioAggregate(arch_ids, np.array(shifts), np.array(drifts), n_runs, n_excluded)


def ads_scores(agg: ScenarioAggregate, arch_by_id: dict, params: CalibrationParams) -> np.ndarray:
    """The ADS of each of an aggregate's architectures under a profile."""
    return np.array([compute_ads(arch_by_id[a], params).value for a in agg.arch_ids])


def selector_baseline(ads: np.ndarray, ece_drift: np.ndarray, n_perms: int, seed: int) -> float:
    """Mean AUC-PR of score-shuffled selectors (the random baseline)."""
    positive = stats.low_drift(ece_drift)
    rng = np.random.default_rng(seed)
    return float(np.mean([stats.average_precision(rng.permutation(ads), positive)
                          for _ in range(n_perms)]))


def write_csv(path, header: list, rows: list) -> None:
    def write(fh):
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_value(v) for v in row) + "\n")
    write_atomic(path, write)


def emit_report(exp_dir: str) -> list:
    """Rebuild every CSV/SVG report from the experiment directory ``exp_dir``,
    wherever it now lives; nothing outside it is read."""
    cfg = replace(load_config(os.path.join(exp_dir, "experiment.ini")), out_dir=exp_dir)
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

    # the calibration-transfer table, when a fractions grid is set
    grid = cfg.calib_fractions if len(cfg.calib_fractions) > 1 else ()
    corr_rows, sel_rows, summary_rows, transfer_rows = [], [], [], []
    for spec in cfg.scenarios:
        sid = spec.scenario_id
        agg = aggregate_scenario(records, sid, arch_by_id, cfg.min_task1_acc)
        n_arch = len(agg.arch_ids)
        if n_arch < 3:
            raise ValueError(
                f"insufficient sample: scenario {sid} has {n_arch} "
                "architectures after exclusions (need >= 3)")
        # the scoring profile, then each grid fraction's, each distinct file scored once
        paths = [cfg.scoring_profile_path(spec)] + [cfg.profile_path(profile_id(sid, f))
                                                    for f in grid]
        scores = {p: ads_scores(agg, arch_by_id, load_profile(p)) for p in dict.fromkeys(paths)}
        ads = scores[paths[0]]
        rep = stats.correlation_report(ads, agg.shift, n_perm=cfg.n_perm,
                                       n_boot=cfg.n_boot, seed=cfg.seeds[0])
        corr_rows.append([sid, n_arch, rep.spearman, rep.kendall,
                          rep.dc, rep.p_value, rep.ci_low, rep.ci_high])
        summary_rows.append([sid, agg.n_runs, agg.n_excluded, n_arch])

        if n_arch >= 4:
            sel = stats.pr_analysis(ads, agg.ece_drift)
            baseline = selector_baseline(ads, agg.ece_drift, cfg.baseline_perms,
                                         seed=cfg.seeds[0])
            sel_rows.append([sid, sel.auc_pr, sel.positive_rate, baseline, n_arch])
            pr_path = os.path.join(reports_dir, f"selector_{sid}.csv")
            write_csv(pr_path, ["threshold", "precision", "recall"],
                      [[q, p, r] for q, p, r in zip(sel.thresholds, sel.precision, sel.recall)])
            written.append(pr_path)
            pr_svg = os.path.join(reports_dir, f"pr_{sid}.svg")
            svg_curve(sel.recall, sel.precision, "recall", "precision",
                      f"{sid}: selector PR (AUC-PR {sel.auc_pr:.3f})", pr_svg)
            written.append(pr_svg)
        else:
            sel_rows.append([sid, math.nan, math.nan, math.nan, n_arch])

        scatter = os.path.join(reports_dir, f"scatter_{sid}.svg")
        svg_scatter(ads, agg.shift, "architecture-driven shift (proxy)",
                    "observed logit shift", f"{sid}: proxy vs observed shift", scatter)
        written.append(scatter)

        for fraction, path in zip(grid, paths[1:]):
            transfer_rows.append([sid, fraction, stats.spearman(scores[path], agg.shift),
                                  stats.direction_consistency(scores[path], agg.shift)])

    tables = [("correlation.csv", ["scenario", "n_arch", "spearman", "kendall", "dc",
                                   "p_value", "ci_low", "ci_high"], corr_rows),
              ("runs_summary.csv", ["scenario", "n_runs", "n_excluded", "n_arch_used"],
               summary_rows),
              ("selector_summary.csv", ["scenario", "auc_pr", "positive_rate",
                                        "random_baseline", "n_arch"], sel_rows)]
    if grid:
        tables.append(("transfer.csv", ["scenario", "fraction", "spearman", "dc"],
                       transfer_rows))
    for name, header, rows in tables:
        path = os.path.join(reports_dir, name)
        write_csv(path, header, rows)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# static SVG plots
# ---------------------------------------------------------------------------

SVG_W, SVG_H = 640, 480
MARGIN = 60


def _svg_frame(title: str, xlabel: str, ylabel: str, xr, yr) -> tuple:
    """The frame's SVG elements, with five ticks spanning each of the non-empty
    ranges ``xr`` and ``yr``, and the data-to-pixel maps of x and y."""
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
    for v in np.linspace(*xr, 5):
        parts.append(f'<line x1="{sx(v):.1f}" y1="{SVG_H - MARGIN}" x2="{sx(v):.1f}" '
                     f'y2="{SVG_H - MARGIN + 5}" stroke="black"/>')
        parts.append(f'<text x="{sx(v):.1f}" y="{SVG_H - MARGIN + 18}" text-anchor="middle" '
                     f'font-size="10">{v:.3g}</text>')
    for v in np.linspace(*yr, 5):
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
    parts, sx, sy = _svg_frame(title, xlabel, ylabel, xr, yr)
    ranks = stats.rankdata(x)
    for i in range(len(x)):
        parts.append(f'<circle cx="{sx(x[i]):.1f}" cy="{sy(y[i]):.1f}" r="3.5" '
                     f'fill="steelblue" fill-opacity="0.8"/>')
        parts.append(f'<text x="{sx(x[i]) + 5:.1f}" y="{sy(y[i]) - 4:.1f}" '
                     f'font-size="8" fill="gray">{int(ranks[i])}</text>')
    parts.append("</svg>")
    write_atomic(path, lambda fh: fh.write("\n".join(parts) + "\n"))


def svg_curve(x, y, xlabel: str, ylabel: str, title: str, path) -> None:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    parts, sx, sy = _svg_frame(title, xlabel, ylabel, (0.0, 1.0), (0.0, 1.0))
    order = np.argsort(x, kind="stable")
    pts = " ".join(f"{sx(x[i]):.1f},{sy(y[i]):.1f}" for i in order)
    parts.append(f'<polyline points="{pts}" fill="none" stroke="firebrick" stroke-width="2"/>')
    parts.append("</svg>")
    write_atomic(path, lambda fh: fh.write("\n".join(parts) + "\n"))
