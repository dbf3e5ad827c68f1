"""Workload definitions and their seeded input generators.

Each workload is pinned here: its experiment config, its input sizes and
the one program call it times. Why each workload exists is stated in
BENCHMARK.json and README.md. ``--seed`` only changes the bytes of the
generated inputs (synthetic image noise and labels, experiment seeds, the
report pool), never the amount of work, so runs on different seeds are
comparable. The generators use the library's public writers and run
before any timer starts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from adslab import harness, synthdata
from adslab.ads import compute_ads
from adslab.archpool import PoolConfig, generate_pool, load_manifest, save_manifest
from adslab.calib import CalibrationParams, load_profile, save_profile
from adslab.clrun import LayerTrace, RunRecord, append_records, read_records
from adslab.datasets import ScenarioSpec, make_scenario

MF = ScenarioSpec("mf", "transfer", src="mnist", dst="fashion_mnist",
                  eval_fraction=0.7, calib_fraction=0.3)
# task 1 is byte-identical to MF's: rotating by 0 degrees is an exact identity
ROT = ScenarioSpec("rot", "rotated", dataset="mnist", angle_a=0.0, angle_b=45.0,
                   eval_fraction=0.7, calib_fraction=0.3)

REPORT_COUNTS = {"uniform": 20, "increasing": 75, "decreasing": 75,
                 "bottleneck": 110, "spindle": 110, "random": 110}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                     # "train" (run_experiment) or "report" (emit_report)
    scenarios: tuple
    pool: PoolConfig
    n_seeds: int
    workers: int
    n_train: int = 0              # synthetic images per dataset, train split
    n_test: int = 0
    n_calib_archs: int = 10
    calib_fractions: tuple = ()
    eval_cap: int = 1000
    min_task1_acc: float = 0.8

    def seeds(self, seed: int) -> tuple:
        return tuple(seed + i for i in range(self.n_seeds))

    def config(self, seed: int, out_dir: str, data_root: str) -> harness.ExperimentConfig:
        """The experiment config; everything not set here is the README default."""
        return harness.ExperimentConfig(
            scenarios=list(self.scenarios), pool=self.pool, seeds=self.seeds(seed),
            workers=self.workers, out_dir=out_dir, data_root=data_root,
            eval_cap=self.eval_cap, n_calib_archs=self.n_calib_archs,
            calib_fractions=self.calib_fractions, min_task1_acc=self.min_task1_acc,
        )


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "mf_mixed_depth", "train",
            scenarios=(MF,),
            pool=PoolConfig(depths=(3, 5, 10), width_candidates=(256, 384, 512, 768),
                            per_category_counts={"uniform": 1, "spindle": 3, "random": 1},
                            seed=11),
            n_seeds=1, workers=1, n_train=3000, n_test=1500, n_calib_archs=2,
        ),
        Workload(
            "shared_task1_small", "train",
            scenarios=(MF, ROT),
            pool=PoolConfig(depths=(3, 5), width_candidates=(64, 96, 128, 160, 192, 256),
                            per_category_counts={"uniform": 1, "bottleneck": 2, "spindle": 2},
                            seed=11),
            n_seeds=2, workers=2, n_train=3000, n_test=1000, n_calib_archs=3,
        ),
        Workload(
            "report_n500", "report",
            scenarios=(MF,),
            pool=PoolConfig(per_category_counts=REPORT_COUNTS),
            n_seeds=3, workers=1, calib_fractions=(0.3, 1.0),
        ),
    )
}


def tiny(w: Workload) -> Workload:
    """The same workload shrunk to seconds, for the benchmark's own smoke test."""
    if w.kind == "report":
        counts = {"uniform": 3, "increasing": 2, "decreasing": 2, "bottleneck": 3,
                  "spindle": 3, "random": 3}
        return replace(w, pool=replace(w.pool, per_category_counts=counts))
    return replace(w, pool=replace(w.pool, width_candidates=(16, 24, 32, 48)),
                   n_train=400, n_test=200, min_task1_acc=0.0)


def profile_id(scenario_id: str, fraction: float) -> str:
    """The id the harness gives a scenario's profile fitted at one fraction."""
    return f"{scenario_id}_f{int(round(fraction * 100)):03d}"


def dataset_names(w: Workload) -> list:
    names = set()
    for spec in w.scenarios:
        names.update((spec.src, spec.dst) if spec.kind == "transfer" else (spec.dataset,))
    return sorted(names)


def pool_runs(w: Workload) -> int:
    """Pool runs one program call completes (calibration runs excluded)."""
    return len(generate_pool(w.pool)) * len(w.scenarios) * w.n_seeds


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def make_training_inputs(w: Workload, seed: int, data_root: str) -> None:
    """Synthetic IDX files for every dataset the workload's scenarios name."""
    for name in dataset_names(w):
        synthdata.generate_dataset(data_root, name, n_train=w.n_train, n_test=w.n_test,
                                   seed=seed)


def _report_params(rng, params_id: str) -> CalibrationParams:
    return CalibrationParams(
        alpha=-0.5 + 0.1 * rng.standard_normal(), beta=-0.3 + 0.1 * rng.standard_normal(),
        b=0.8 + 0.1 * rng.standard_normal(), c=0.2 + 0.02 * rng.standard_normal(),
        fit_r2_width=0.9, fit_r2_depth=0.8, n_layer_records=100,
        source="generated", params_id=params_id,
    )


def make_report_inputs(w: Workload, seed: int, exp_dir: str) -> None:
    """A completed experiment directory, written through the public writers.

    Every record is valid and passes the underfit gate. The observed
    shift is a power of the first profile's ADS score times log-normal
    noise, so the proxy loosely tracks it and every report has a
    non-degenerate input.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBE7C]))
    cfg = w.config(seed, exp_dir, data_root="")
    cfg = replace(cfg, pool=replace(cfg.pool, seed=seed))
    os.makedirs(cfg.resolved_profiles_dir(), exist_ok=True)
    harness.save_config(cfg, os.path.join(exp_dir, "experiment.ini"))
    save_manifest(generate_pool(cfg.pool), os.path.join(exp_dir, "pool.manifest"),
                  seed=cfg.pool.seed)
    profiles = []
    for spec in cfg.scenarios:
        for fraction in cfg.calib_fractions:
            pid = profile_id(spec.scenario_id, fraction)
            params = _report_params(rng, pid)
            save_profile(params, os.path.join(cfg.resolved_profiles_dir(), f"{pid}.profile"))
            profiles.append(params)
    entries = load_manifest(os.path.join(exp_dir, "pool.manifest"))
    records = []
    for spec in cfg.scenarios:
        for arch_id, arch in entries:
            log_ads = math.log(compute_ads(arch, profiles[0]).value)
            for s in cfg.seeds:
                traces = [LayerTrace(
                    layer_index=l + 1, disp=1.0, pathlen=1.2, c_traj=1.2,
                    rel_change=float(np.exp(rng.normal(-2.0, 0.3))),
                    mean_abs_cos=float(rng.uniform(0.05, 0.5)), gold_spectral=2.0,
                    w_in=arch.widths[l], w_out=arch.widths[l + 1], grad_norm_sum=5.0,
                ) for l in range(arch.depth)]
                ece_before = float(rng.uniform(0.01, 0.05))
                records.append(RunRecord(
                    arch_id=arch_id, scenario_id=spec.scenario_id, seed=s,
                    observed_shift=float(math.exp(0.2 * log_ads + rng.normal(0.0, 0.5))),
                    layer_traces=traces,
                    task1_eval_acc=float(rng.uniform(0.85, 0.99)),
                    task2_eval_acc=float(rng.uniform(0.8, 0.95)),
                    ece_before=ece_before,
                    ece_after=ece_before + float(rng.normal(0.02, 0.01)) + 1e-3 * log_ads,
                    wall_time=1.0,
                ))
    append_records(os.path.join(exp_dir, "records.jsonl"), records)


# ---------------------------------------------------------------------------
# the set-up calls a user pays before any training or aggregation
# ---------------------------------------------------------------------------

def setup_calls(w: Workload, seed: int, exp_dir: str, data_root: str) -> None:
    if w.kind == "report":
        read_records(os.path.join(exp_dir, "records.jsonl"))
        load_manifest(os.path.join(exp_dir, "pool.manifest"))
        pid = profile_id(w.scenarios[0].scenario_id, w.calib_fractions[0])
        load_profile(os.path.join(exp_dir, "params", f"{pid}.profile"))
        return
    cfg = w.config(seed, exp_dir, data_root)
    datasets = harness.load_dataset_pool(cfg)
    for spec in cfg.scenarios:
        make_scenario(spec, datasets, seed=cfg.seeds[0])
    generate_pool(cfg.pool)
