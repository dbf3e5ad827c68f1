"""The benchmark's trace points resolve in the program, and fire.

``perfbench/spans.py`` wraps each traced function at the module attribute
its callers look it up by. A rename there would not fail the benchmark;
it would silently drop the function's spans from ``--trace 1``. So every
``TRACE_POINTS`` entry is resolved here exactly as ``Tracer.install``
resolves it, and one small run and one report are traced to count the
spans that the per-step and report metrics are made from.
"""

import collections
import importlib
import json
import os
import runpy

import numpy as np
import pytest

from adslab import harness
from adslab.archpool import PoolConfig, generate_pool, pool_entries, save_manifest
from adslab.calib import CalibrationParams, save_profile
from adslab.clrun import RunRecord, TrainConfig, append_records
from adslab.datasets import Dataset, Scenario, ScenarioSpec
from adslab.nncore import ArchitectureSpec
from adslab.synthdata import generate_dataset

SPANS_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "spans.py")


SPANS = runpy.run_path(SPANS_PATH)
TRACE_POINTS = SPANS["TRACE_POINTS"]


@pytest.mark.parametrize("module_name,attr", [(m, a) for m, a, _, _ in TRACE_POINTS])
def test_trace_point_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    assert leaf in owner.__dict__, f"{module_name}.{attr} is not defined where it is traced"
    assert callable(owner.__dict__[leaf])


def test_trace_points_fire_in_a_run():
    # resolving is not enough: the step, evaluation and copy spans must also
    # be recorded, or the benchmark's per-step metrics read 0 without an error
    rng = np.random.default_rng(0)

    def blobs(n):
        labels = rng.integers(0, 3, size=n)
        return Dataset(rng.standard_normal((n, 12)) + 2.0 * np.eye(3, 12)[labels], labels)

    scenario = Scenario(ScenarioSpec("toy_sc", "transfer", src="a", dst="b"), blobs(200),
                        blobs(50), blobs(200), blobs(30), blobs(50), n_classes=3, seed=0)
    arch = ArchitectureSpec(depth=2, widths=(12, 32, 24, 3), topology_tag="random")
    cfg = TrainConfig(steps_per_task=7, batch_size=64, lr=1e-2, seed=0)
    # memory is tracked as `--trace 1` tracks it with one worker: per run_scenario
    # call, from the arch and scenario it is passed
    tracer = SPANS["Tracer"](track_memory=True)
    tracer.install()
    try:
        (record,) = harness.run_job(arch, [scenario], cfg, arch_id="a0")
    finally:
        tracer.uninstall()
    assert record.valid
    assert len(tracer.peak_mem_over_weights) == 1 and tracer.peak_mem_over_weights[0] > 0
    by_id = {s.sid: s for s in tracer.spans}

    def under(name, parent):
        return sum(1 for s in tracer.spans
                   if s.name == name and by_id[s.parent].name == parent)

    n_sgd = sum(1 for s in tracer.spans if s.name == "nncore.sgd_step")
    assert n_sgd == under("nncore.forward", "clrun.train_task") == 2 * cfg.steps_per_task
    assert under("nncore.loss_and_backward", "clrun.train_task") == 2 * cfg.steps_per_task
    assert under("nncore.forward", "clrun.evaluate") == 3
    assert sum(1 for s in tracer.spans if s.name == "nncore.copy") == 1

    # the attributes the per-step metrics are made from: rows and flop per step
    def attrs(name, parent):
        return [s.attrs for s in sorted(tracer.spans, key=lambda s: s.sid)
                if s.name == name and by_id[s.parent].name == parent]

    # 200 rows in batches of 64: 64, 64, 64, 8, then 64, 64, 64 again, per task
    step_rows = [64, 64, 64, 8, 64, 64, 64] * 2
    assert [a["rows"] for a in attrs("nncore.forward", "clrun.train_task")] == step_rows
    # weight gradients 12*32 + 32*24 + 24*3 plus error signals 32*24 + 24*3, 2 flop each
    backward_flop_per_row = 2 * (384 + 768 + 72 + 768 + 72)
    assert [a["flop"] for a in attrs("nncore.loss_and_backward", "clrun.train_task")] == \
        [backward_flop_per_row * rows for rows in step_rows]
    eval_rows = 2 * len(scenario.task1_eval) + len(scenario.task2_eval)
    assert sum(a["rows"] for a in attrs("nncore.forward", "clrun.evaluate")) == eval_rows


def test_shared_task1_trains_once_per_distinct_key(tmp_path):
    # clrun.task1_useful_ratio is distinct task1_keys over task-1 train_task
    # spans; with shared task 1 every pool training is a distinct one
    for name in ("mnist", "fashion_mnist"):
        generate_dataset(str(tmp_path / "data"), name, n_train=300, n_test=150, seed=1)
    specs = [ScenarioSpec("mf", "transfer", src="mnist", dst="fashion_mnist"),
             ScenarioSpec("rot", "rotated", dataset="mnist", angle_a=0.0, angle_b=45.0)]
    cfg = harness.ExperimentConfig(
        scenarios=specs, seeds=(0, 1), out_dir=str(tmp_path / "exp"),
        data_root=str(tmp_path / "data"), batch_size=64, eval_cap=100, min_task1_acc=0.0,
        pool=PoolConfig(depths=(3,), width_candidates=(16, 24, 32),
                        per_category_counts={"uniform": 3}, seed=1),
        transfer_profile=str(tmp_path / "preset.profile"))
    save_profile(CalibrationParams(0.2, -0.4, 2.0, 0.5, 0.9, 0.9, 50, params_id="preset"),
                 cfg.transfer_profile)
    tracer = SPANS["Tracer"]()
    tracer.install()
    try:
        tracer.call("harness.run_experiment", harness.run_experiment, cfg)
    finally:
        tracer.uninstall()
    task1 = [s for s in tracer.spans
             if s.name == "clrun.train_task" and s.attrs.get("task") == 1]
    assert len(task1) == len({json.dumps(s.attrs["task1_key"]) for s in task1}) == 3 * 2
    assert sum(1 for s in tracer.spans if s.name == "clrun.run_scenario") == 3 * 2 * 2
    # one append per job: a job's records reach records.jsonl together
    assert sum(1 for s in tracer.spans if s.name == "clrun.append_records") == 3 * 2
    assert SPANS["nesting_problems"](tracer.spans) == []


def test_report_trace_points_fire(tmp_path):
    # a completed directory written through the public writers, no training:
    # two scenarios, 6 archs x 2 seeds each, profiles on a 2-fraction grid
    rng = np.random.default_rng(0)
    specs = [ScenarioSpec("mf", "transfer", src="mnist", dst="fashion_mnist"),
             ScenarioSpec("rot", "rotated", dataset="mnist", angle_a=0.0, angle_b=45.0)]
    cfg = harness.ExperimentConfig(
        scenarios=specs, seeds=(0, 1), out_dir=str(tmp_path / "exp"), calib_fractions=(0.3, 1.0),
        pool=PoolConfig(depths=(3,), width_candidates=(16, 24, 32),
                        per_category_counts={"uniform": 3, "random": 3}, seed=1))
    os.makedirs(cfg.resolved_profiles_dir())
    harness.save_config(cfg, os.path.join(cfg.out_dir, "experiment.ini"))
    pool = generate_pool(cfg.pool)
    save_manifest(pool, os.path.join(cfg.out_dir, "pool.manifest"), seed=cfg.pool.seed)
    for spec in specs:
        for fraction in cfg.calib_fractions:
            pid = harness.profile_id(spec.scenario_id, fraction)
            save_profile(CalibrationParams(0.2 * fraction, -0.4, 2.0, 0.5, 0.9, 0.9, 50,
                                           params_id=pid), cfg.profile_path(pid))
    append_records(os.path.join(cfg.out_dir, "records.jsonl"), [
        RunRecord(arch_id, sid, seed, observed_shift=float(rng.uniform(0.5, 2.0)),
                  layer_traces=[], task1_eval_acc=0.9, task2_eval_acc=0.9, ece_before=0.02,
                  ece_after=float(rng.uniform(0.02, 0.06)), wall_time=1.0)
        for arch_id, sid, seed in harness.experiment_run_keys(cfg, pool_entries(pool))])

    tracer = SPANS["Tracer"]()
    tracer.install()
    try:
        tracer.call("harness.emit_report", harness.emit_report, cfg.out_dir)
    finally:
        tracer.uninstall()
    count = collections.Counter(s.name for s in tracer.spans)
    n_scenarios, n_arch, n_profiles = len(specs), len(pool), len(cfg.calib_fractions)
    # each scenario is aggregated once; each distinct profile file is loaded and scores it
    # once, and the scoring profile is the first grid fraction's
    assert count["harness.aggregate_scenario"] == n_scenarios
    assert count["calib.load_profile"] == n_scenarios * n_profiles
    assert count["ads.compute_ads"] == n_scenarios * n_profiles * n_arch
    # a selector table per scenario, then correlation, runs summary, selector summary, transfer
    assert count["harness.write_csv"] == n_scenarios + 4
    assert count["harness.svg_scatter"] == count["harness.svg_curve"] == n_scenarios
    assert SPANS["nesting_problems"](tracer.spans) == []
