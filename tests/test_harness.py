"""Orchestration tests: config round-trips, resume, worker invariance, CLI."""

import collections
import configparser
import fcntl
import json
import os
import re
import shutil
import threading
import tracemalloc
import weakref
import xml.etree.ElementTree as ET
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from adslab import clrun, harness
from adslab.archpool import (PoolConfig, _category_counts, generate_pool, load_manifest,
                             pool_entries)
from adslab.calib import CalibrationParams, save_profile
from adslab.cli import main as cli_main
from adslab.clrun import derive_seed, read_records, task1_digest
from adslab.datasets import ScenarioSpec, dataset_paths, make_scenario
from adslab.harness import (
    ExperimentConfig,
    emit_report,
    experiment_run_keys,
    load_config,
    load_dataset_pool,
    load_named_dataset,
    pick_calibration_archs,
    profile_id,
    run_calibration,
    run_experiment,
    run_job,
    save_config,
    steps_for,
    train_config,
)
from adslab.nncore import ArchitectureSpec, DivergenceError
from adslab.synthdata import generate_dataset


def tiny_config(root, out_name="exp", seeds=(0, 1, 2), workers=1, per_category=2):
    counts = {"uniform": per_category, "random": per_category, "bottleneck": per_category}
    return ExperimentConfig(
        scenarios=[ScenarioSpec("mf", "transfer", src="mnist", dst="fashion_mnist",
                                eval_fraction=0.5, calib_fraction=0.4)],
        pool=PoolConfig(depths=(3,), width_candidates=(32, 48, 64, 96),
                        per_category_counts=counts, seed=5),
        seeds=seeds, workers=workers,
        out_dir=os.path.join(root, out_name),
        data_root=os.path.join(root, "data"),
        epochs_per_task=1, batch_size=64, trace_every=1, eval_cap=200,
        n_calib_archs=4, min_task1_acc=0.0, n_perm=999, n_boot=1000,
        baseline_perms=50,
    )


def shared_config(root, out_name, workers=1):
    """tiny_config plus a rotated scenario whose task 1 is byte-identical to mf's."""
    cfg = tiny_config(root, out_name=out_name, seeds=(0, 1), workers=workers)
    rot = ScenarioSpec("rot", "rotated", dataset="mnist", angle_a=0.0, angle_b=45.0,
                       eval_fraction=0.5, calib_fraction=0.4)
    return replace(cfg, scenarios=cfg.scenarios + (rot,))


def preset_config(data_root, out_dir, preset):
    """A one-seed, three-arch experiment that a preset scores (too few archs to calibrate)."""
    return replace(tiny_config(str(data_root), seeds=(0,)), out_dir=str(out_dir),
                   pool=PoolConfig(depths=(3,), width_candidates=(32, 64, 96),
                                   per_category_counts={"uniform": 3}, seed=1),
                   transfer_profile=str(preset))


def write_preset(path, alpha=0.2):
    save_profile(CalibrationParams(alpha, -0.4, 2.0, 0.5, 0.9, 0.9, 50, params_id="preset"), path)


def count_task1_trainings(monkeypatch) -> collections.Counter:
    """Patch clrun.train_task to count task-1 trainings by their shuffle seed."""
    task1_seeds = collections.Counter()
    original = clrun.train_task

    def counting(net, state, dataset, cfg, seed, recorder=None):
        if recorder is None:
            task1_seeds[seed] += 1
        return original(net, state, dataset, cfg, seed=seed, recorder=recorder)

    monkeypatch.setattr(clrun, "train_task", counting)
    return task1_seeds


def record_lines(out):
    """records.jsonl in file order, without the wall-clock field."""
    lines = []
    for line in open(os.path.join(out, "records.jsonl")):
        d = json.loads(line)
        d.pop("wall_time")
        lines.append(json.dumps(d, sort_keys=True))
    return lines


def stand_alone_line(cfg, scenario, arch, arch_id, seed):
    """The records.jsonl line, without wall_time, of a run made as a job of its own."""
    tc = train_config(cfg, steps_for(cfg, len(scenario.task1_train)), seed)
    (rec,) = run_job(arch, [scenario], tc, arch_id=arch_id)
    d = json.loads(rec.to_json())
    d.pop("wall_time")
    return json.dumps(d, sort_keys=True)


class FirstJob(Exception):
    """Raised in place of the first job, once what it sees is recorded."""


def watch_loaded_datasets(monkeypatch) -> dict:
    """Patch harness.load_dataset_pool to keep a weakref to every array it
    returns, and make_scenario and run_job to record, as each is first
    called, which datasets still have a live array. The first job raises
    ``FirstJob`` instead of training."""
    refs: dict = {}
    seen = {"loaded": [], "make_scenario": [], "run_job": []}
    original_load, original_make = harness.load_dataset_pool, harness.make_scenario

    def alive() -> list:
        return sorted(name for name, arrays in refs.items()
                      if any(ref() is not None for ref in arrays))

    def loading(cfg):
        pool = original_load(cfg)
        for name, splits in pool.items():
            refs[name] = [weakref.ref(a) for ds in splits.values()
                          for a in (ds.images, ds.labels)]
        seen["loaded"] = sorted(pool)
        return pool

    def making(spec, *args, **kwargs):
        seen["make_scenario"].append((spec.scenario_id, alive()))
        return original_make(spec, *args, **kwargs)

    def first_job(*args, **kwargs):
        seen["run_job"].append(alive())
        raise FirstJob

    monkeypatch.setattr(harness, "load_dataset_pool", loading)
    monkeypatch.setattr(harness, "make_scenario", making)
    monkeypatch.setattr(harness, "run_job", first_job)
    return seen


def reports(out):
    names = sorted(n for n in os.listdir(os.path.join(out, "reports")) if n.endswith(".csv"))
    return {n: open(os.path.join(out, "reports", n), "rb").read() for n in names}


def non_default_config(kind):
    """A config in which every field that has a default is set to another value."""
    spec = ScenarioSpec(f"s_{kind}", kind, src="cifar10", dst="mnist", dataset="fashion_mnist",
                        classes_a=(1, 3), classes_b=(0, 2), angle_a=15.0, angle_b=350.5,
                        eval_fraction=0.25, calib_fraction=0.125)
    pool = PoolConfig(depths=(2, 7), width_candidates=(16, 40),
                      per_category_counts={"uniform": 3, "spindle": 1},
                      seed=9, input_dim=64, output_dim=5)
    return ExperimentConfig(
        scenarios=[spec], pool=pool, seeds=(4, 11), workers=3, out_dir="runs/x",
        data_root="d", epochs_per_task=3, steps_per_task=17, batch_size=32, lr=0.0125,
        momentum=0.5, weight_decay=1e-5, trace_every=3, path_segments=7, eval_cap=333,
        min_task1_acc=0.55, n_calib_archs=4, calib_fractions=(0.25,),
        transfer_profile="presets/large_shift.profile", n_perm=1999, n_boot=2000,
        baseline_perms=50,
    )


@pytest.fixture(scope="module")
def data_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("h")
    for name in ("mnist", "fashion_mnist"):
        generate_dataset(os.path.join(root, "data"), name, n_train=700, n_test=350, seed=2)
    return root


class TestConfigFile:
    def test_round_trip(self, tmp_path, data_root):
        cfg = tiny_config(str(data_root))
        path = tmp_path / "exp.ini"
        save_config(cfg, path)
        back = load_config(path)
        assert back.seeds == cfg.seeds
        assert back.pool.depths == cfg.pool.depths
        assert back.pool.width_candidates == cfg.pool.width_candidates
        assert back.pool.per_category_counts == cfg.pool.per_category_counts
        assert back.scenarios[0].scenario_id == "mf"
        assert back.scenarios[0].calib_fraction == 0.4
        assert back.lr == cfg.lr

    @pytest.mark.parametrize("kind", ["transfer", "split", "rotated"])
    def test_every_field_round_trips(self, tmp_path, kind):
        cfg = non_default_config(kind)
        save_config(cfg, tmp_path / "exp.ini")
        back = load_config(tmp_path / "exp.ini")
        for obj, loaded in ((cfg, back), (cfg.pool, back.pool),
                            (cfg.scenarios[0], back.scenarios[0])):
            for f in fields(obj):
                value = getattr(obj, f.name)
                if f.default is not MISSING:
                    assert value != f.default, f"{f.name} is left at its default"
                if f.default_factory is not MISSING:
                    assert value != f.default_factory(), f"{f.name} is left at its default"
                assert getattr(loaded, f.name) == value, f.name

    def test_percent_in_strings_round_trips(self, tmp_path):
        # INI values are literal: no %-interpolation on either side
        cfg = replace(non_default_config("transfer"), out_dir="runs/100%", data_root="d%(x)s")
        save_config(cfg, tmp_path / "exp.ini")
        back = load_config(tmp_path / "exp.ini")
        assert (back.out_dir, back.data_root) == ("runs/100%", "d%(x)s")

    def test_config_built_with_lists_round_trips(self, tmp_path):
        # a list kept as a list would be saved as its repr, "[4, 11]", which no load reads
        cfg = non_default_config("split")
        spec = cfg.scenarios[0]
        listed = replace(cfg, seeds=list(cfg.seeds), calib_fractions=list(cfg.calib_fractions),
                         scenarios=[replace(spec, classes_a=list(spec.classes_a),
                                            classes_b=list(spec.classes_b))])
        assert listed == cfg
        save_config(listed, tmp_path / "exp.ini")
        assert load_config(tmp_path / "exp.ini") == cfg

    @pytest.mark.parametrize("section,key", [("stats", "baseline_perm"),
                                             ("scenario sp", "angle")])
    def test_unknown_key_rejected(self, tmp_path, section, key):
        sections = {"experiment": "seeds = 0\n", "stats": "n_perm = 999\n",
                    "scenario sp": "kind = rotated\ndataset = mnist\n"}
        sections[section] += f"{key} = 1\n"
        path = tmp_path / "c.ini"
        path.write_text("".join(f"[{name}]\n{body}" for name, body in sections.items()))
        with pytest.raises(ValueError, match=rf"{key}.*\[{section}\]"):
            load_config(path)

    @pytest.mark.parametrize("misspelt,named", [
        ("[experimnt]\n", "unknown section [experimnt]"),
        ("[scenarios]\nkind = rotated\ndataset = mnist\n", "'kind' in section [scenarios]"),
    ], ids=["empty", "scenario_prefix"])
    def test_misspelt_section_rejected(self, tmp_path, capsys, misspelt, named):
        path = tmp_path / "c.ini"
        path.write_text(misspelt + "[scenario s]\nkind = rotated\ndataset = mnist\n")
        assert cli_main(["gen-pool", "--config", str(path), "--out", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and named in err, err

    def test_readme_example_loads(self, tmp_path):
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as fh:
            readme = fh.read()
        path = tmp_path / "readme.ini"
        path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        cfg = load_config(path)
        assert cfg.out_dir == "runs/mf" and cfg.pool.seed == 11
        assert cfg.pool.per_category_counts == _category_counts(6)
        assert cfg.calib_fractions == (0.3, 1.0)
        assert cfg.scenarios[0].calib_fraction == 0.3

    def test_split_scenario_section(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text(
            "[experiment]\nout = x\nseeds = 0\n"
            "[scenario sp]\nkind = split\ndataset = mnist\n"
            "classes_a = 0,1,2,3,4\nclasses_b = 5,6,7,8,9\n"
        )
        cfg = load_config(path)
        assert cfg.scenarios[0].kind == "split"
        assert cfg.scenarios[0].classes_a == (0, 1, 2, 3, 4)

    def test_unequal_split_named_at_load(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nseeds = 0\n[scenario s]\nkind = split\n"
                        "dataset = mnist\nclasses_a = 0,1\nclasses_b = 2\n")
        with pytest.raises(ValueError, match=r"\[scenario s\].*equal size"):
            load_config(path)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_config("/nonexistent/path.ini")

    def test_duplicate_scenario_id_refused(self, tmp_path):
        # configparser refuses a repeated [scenario <id>] section; a config built
        # in code must be refused too, or two scenarios would share run keys
        cfg = tiny_config(str(tmp_path))
        with pytest.raises(ValueError, match=r"scenario ids must be distinct.*'mf', 'mf'"):
            replace(cfg, scenarios=cfg.scenarios * 2)

    def test_preset_beside_a_fractions_grid_refused(self, tmp_path):
        # a preset skips calibration, so the grid's transfer table would be empty
        cfg = replace(tiny_config(str(tmp_path)), transfer_profile="p.profile")
        assert replace(cfg, calib_fractions=(0.4,)).calib_fractions == (0.4,)
        with pytest.raises(ValueError, match=r"\[calib\] profile .* \[calib\] fractions grid"):
            replace(cfg, calib_fractions=(0.4, 1.0))


class TestDatasetResolution:
    def test_missing_files_actionable_message(self, tmp_path):
        with pytest.raises(FileNotFoundError) as err:
            load_named_dataset(str(tmp_path), "mnist")
        msg = str(err.value)
        assert "train-images-idx3-ubyte" in msg
        assert "make-data" in msg

    def test_env_override(self, data_root, monkeypatch):
        cfg = tiny_config(str(data_root))
        monkeypatch.setenv("ADSLAB_DATA_ROOT", "/elsewhere")
        assert cfg.resolved_data_root() == "/elsewhere"
        monkeypatch.setenv("ADSLAB_WORKERS", "7")
        assert cfg.resolved_workers() == 7
        for bad in ("0", "abc"):
            monkeypatch.setenv("ADSLAB_WORKERS", bad)
            with pytest.raises(ValueError, match="ADSLAB_WORKERS"):
                cfg.resolved_workers()

    def test_cifar_paths(self):
        paths = dataset_paths("r", "cifar10")
        assert len(paths["train"]) == 5
        assert paths["test"][0].endswith("test_batch.bin")

    @pytest.mark.parametrize("name", ["mnist", "cifar10"])
    def test_generated_dataset_loads_from_the_same_paths(self, tmp_path, name):
        # the generator writes, and the loader reads, exactly dataset_paths
        root = str(tmp_path / "d")
        written = generate_dataset(root, name, n_train=40, n_test=15, seed=4)
        assert written == dataset_paths(root, name)
        on_disk = sorted(os.path.join(root, name, f) for f in os.listdir(os.path.join(root, name)))
        assert on_disk == sorted(p for files in written.values() for p in files)
        loaded = load_named_dataset(root, name)
        assert {split: (len(ds), ds.n_features) for split, ds in loaded.items()} == \
               {"train": (40, 784), "test": (15, 784)}


class TestRunExperiment:
    def test_full_run_resume_and_reports(self, data_root):
        cfg = tiny_config(str(data_root), out_name="exp_main")
        out = run_experiment(cfg)
        records = read_records(os.path.join(out, "records.jsonl"))
        n_pool = 6  # 3 categories x 2
        assert len(records) == n_pool * 3  # three seeds

        # three seeds per arch aggregated
        per_arch = {}
        for r in records:
            per_arch.setdefault(r.arch_id, []).append(r)
        assert all(len(v) == 3 for v in per_arch.values())

        corr = open(os.path.join(out, "reports", "correlation.csv")).read()
        header = corr.splitlines()[0]
        assert header == "scenario,n_arch,spearman,kendall,dc,p_value,ci_low,ci_high"

        # resume: no new work, byte-identical reports
        before = corr
        run_experiment(cfg)
        after = open(os.path.join(out, "reports", "correlation.csv")).read()
        assert after == before
        assert len(read_records(os.path.join(out, "records.jsonl"))) == len(records)

        # svgs well formed
        ET.parse(os.path.join(out, "reports", "scatter_mf.svg"))
        ET.parse(os.path.join(out, "reports", "pr_mf.svg"))

        # selector csv monotone threshold grid
        sel = open(os.path.join(out, "reports", "selector_mf.csv")).read().splitlines()
        qs = [float(line.split(",")[0]) for line in sel[1:]]
        assert qs == sorted(qs)

    def test_worker_count_does_not_change_reports(self, data_root):
        cfg1 = tiny_config(str(data_root), out_name="exp_w1", workers=1, seeds=(0, 1))
        cfg2 = tiny_config(str(data_root), out_name="exp_w2", workers=3, seeds=(0, 1))
        out1 = run_experiment(cfg1)
        out2 = run_experiment(cfg2)
        r1 = open(os.path.join(out1, "reports", "correlation.csv")).read()
        r2 = open(os.path.join(out2, "reports", "correlation.csv")).read()
        assert r1 == r2

        def canonical(path):
            recs = read_records(path)
            for r in recs:
                r.wall_time = 0.0  # timing is the only scheduling-dependent field
            return sorted(r.to_json() for r in recs)

        assert canonical(os.path.join(out1, "records.jsonl")) == \
               canonical(os.path.join(out2, "records.jsonl"))

    # OpenBLAS read its thread count when numpy loaded, so a variable set now
    # leaves its threads on every CPU: more jobs at once would oversubscribe them
    @pytest.mark.parametrize("env", [{}, {"OPENBLAS_NUM_THREADS": "1"}])
    def test_every_job_runs_in_the_calling_thread(self, data_root, monkeypatch, env):
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        threads = {}  # the thread each job ran on, by arch id
        original = harness.run_job

        def recording(arch, scenarios, cfg, arch_id="arch", **kwargs):
            threads[arch_id] = threading.get_ident()
            return original(arch, scenarios, cfg, arch_id=arch_id, **kwargs)

        monkeypatch.setattr(harness, "run_job", recording)
        run_experiment(tiny_config(str(data_root), out_name=f"exp_threads_{len(env)}",
                                   seeds=(0,), workers=2))
        assert len(threads) == 4 + 6  # calibration and pool jobs
        assert set(threads.values()) == {threading.get_ident()}

    def test_no_loaded_array_is_alive_when_the_first_job_runs(self, data_root, monkeypatch):
        # fashion_mnist is named by mf only, so it is dropped before rot is built
        seen = watch_loaded_datasets(monkeypatch)
        with pytest.raises(FirstJob):
            run_experiment(shared_config(str(data_root), "exp_drop_pool"))
        assert seen == {"loaded": ["fashion_mnist", "mnist"],
                        "make_scenario": [("mf", ["fashion_mnist", "mnist"]),
                                          ("rot", ["mnist"])],
                        "run_job": [[]]}

    def test_calibration_fraction_without_samples_refused_before_the_snapshot(self, data_root):
        # 0.0005 of 700 task-1 images rounds to none; refused after the snapshot,
        # the corrected config would then be refused as a changed one
        cfg = tiny_config(str(data_root), out_name="exp_tiny_fraction", seeds=(0,))
        with pytest.raises(ValueError, match="calibration subset mf_f000, task1_train: "
                                             "fraction 0.0005 yields < 1 sample from 700"):
            run_experiment(replace(cfg, calib_fractions=(0.0005,)))
        assert not os.path.exists(os.path.join(cfg.out_dir, "experiment.ini"))
        run_experiment(replace(cfg, calib_fractions=(0.4,)))
        assert len(read_records(os.path.join(cfg.out_dir, "records.jsonl"))) == 6

    def test_incomplete_experiment_lists_missing(self, data_root, tmp_path):
        cfg = tiny_config(str(data_root), out_name="exp_frag", seeds=(0,))
        out = run_experiment(cfg)
        records_path = os.path.join(out, "records.jsonl")
        lines = open(records_path).readlines()
        open(records_path, "w").writelines(lines[:-2])
        with pytest.raises(FileNotFoundError, match="missing"):
            emit_report(out)

    def test_torn_final_record_line_resumes(self, data_root):
        cfg = tiny_config(str(data_root), out_name="exp_torn", seeds=(0,))
        out = run_experiment(cfg)
        records_path = os.path.join(out, "records.jsonl")
        reports = sorted(os.listdir(os.path.join(out, "reports")))

        def snapshot():
            recs = read_records(records_path)
            for r in recs:
                r.wall_time = 0.0
            return (sorted(r.to_json() for r in recs),
                    [open(os.path.join(out, "reports", name), "rb").read() for name in reports])

        before = snapshot()
        with open(records_path, "rb") as fh:
            torn = fh.read()[:-25]  # a crash mid-append
        with open(records_path, "wb") as fh:
            fh.write(torn)
        n_torn = len(torn) - torn.rfind(b"\n") - 1
        with pytest.warns(UserWarning, match=rf"torn final record line \({n_torn} bytes\)"):
            run_experiment(cfg)
        assert snapshot() == before

    def test_config_built_with_lists_resumes(self, data_root):
        # a list kept as a list would be saved as "seeds = [0]", refusing every resume and report
        cfg = replace(tiny_config(str(data_root), out_name="exp_lists", seeds=[0]),
                      calib_fractions=[0.4])
        out = run_experiment(cfg)
        assert load_config(os.path.join(out, "experiment.ini")) == cfg
        records = open(os.path.join(out, "records.jsonl"), "rb").read()
        run_experiment(cfg)
        assert open(os.path.join(out, "records.jsonl"), "rb").read() == records

    def test_resume_refuses_a_changed_config(self, data_root, tmp_path, capsys):
        cfg = tiny_config(str(data_root), out_name="exp_refuse", seeds=(0,))
        out = run_experiment(cfg)
        names = ("records.jsonl", "experiment.ini")

        def snapshot():
            return [open(os.path.join(out, name), "rb").read() for name in names]

        before = snapshot()
        with pytest.raises(ValueError, match="changed: lr"):
            run_experiment(replace(cfg, lr=cfg.lr * 2))
        assert snapshot() == before

        # the CLI's single-seed override of a directory made under other seeds
        cfg_path = tmp_path / "c.ini"
        save_config(cfg, cfg_path)
        capsys.readouterr()
        assert cli_main(["run", "--config", str(cfg_path), "--seed", "5", "--quiet"]) == 2
        assert "changed: seeds" in capsys.readouterr().err
        assert snapshot() == before

        # the worker count may change between a run and its resume
        run_experiment(replace(cfg, workers=2))
        assert snapshot()[0] == before[0]

    def test_a_crash_in_the_snapshot_rewrite_keeps_the_old_one(self, data_root, monkeypatch):
        # every run rewrites experiment.ini; a torn snapshot would refuse every resume
        cfg = tiny_config(str(data_root), out_name="exp_torn_ini", seeds=(0,))
        out = run_experiment(cfg)
        ini = os.path.join(out, "experiment.ini")
        before = [open(os.path.join(out, n), "rb").read() for n in ("experiment.ini",
                                                                      "records.jsonl")]

        def torn_write(self, fh, *args):
            fh.write("[experiment]\nseeds = ")
            raise OSError("no space left on device")

        with monkeypatch.context() as m:
            m.setattr(configparser.ConfigParser, "write", torn_write)
            with pytest.raises(OSError, match="no space left"):
                run_experiment(cfg)
        assert open(ini, "rb").read() == before[0]
        run_experiment(cfg)
        assert [open(os.path.join(out, n), "rb").read()
                for n in ("experiment.ini", "records.jsonl")] == before

    @pytest.mark.parametrize("field, change", [
        ("n_perm", lambda cfg: replace(cfg, n_perm=999.0)),
        ("out_dir", lambda cfg: replace(cfg, out_dir=cfg.out_dir + "\r")),
        ("lr", lambda cfg: replace(cfg, lr=10**400)),  # its snapshot would load lr as inf
    ])
    def test_a_config_that_would_not_reload_leaves_no_snapshot(self, tmp_path, data_root,
                                                               field, change):
        # such a config used to train every run, then strand the directory at its report
        cfg = replace(tiny_config(str(data_root), seeds=(0,)), out_dir=str(tmp_path / "exp"))
        with pytest.raises(ValueError, match=rf"^{field} "):
            run_experiment(change(cfg))
        assert not list(tmp_path.rglob("experiment.ini"))

    def test_a_report_write_that_raises_keeps_the_previous_file(self, data_root, monkeypatch):
        # every report is replaced whole, so a failed rewrite leaves the last one
        out = run_experiment(replace(shared_config(str(data_root), "exp_torn_report"),
                                     seeds=(0,)))
        before = reports(out)
        format_cell = harness.format_value

        def failing(value):
            if value == "rot":  # the first cell of correlation.csv's second row
                raise OSError("no space left on device")
            return format_cell(value)

        with monkeypatch.context() as m:
            m.setattr(harness, "format_value", failing)
            with pytest.raises(OSError, match="no space left"):
                emit_report(out)
        assert reports(out) == before
        assert not [n for n in os.listdir(os.path.join(out, "reports")) if n.endswith(".tmp")]

    def test_second_run_on_a_directory_refused(self, data_root):
        cfg = tiny_config(str(data_root), out_name="exp_locked", seeds=(0,))
        os.makedirs(cfg.out_dir)
        records_path = os.path.join(cfg.out_dir, "records.jsonl")
        with open(records_path, "a") as held:
            fcntl.flock(held, fcntl.LOCK_EX | fcntl.LOCK_NB)
            with pytest.raises(ValueError, match=re.escape(cfg.out_dir)):
                run_experiment(cfg)
        assert os.path.getsize(records_path) == 0

    def test_malformed_record_line_named(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('\n{"arch_id": \n{}\n')
        with pytest.raises(ValueError, match=r"records\.jsonl: malformed record on line 2"):
            read_records(path)


class TestSharedTask1:
    """Runs of one arch and seed whose task 1 is byte-identical train it once."""

    def test_records_equal_stand_alone_runs(self, data_root):
        cfg = shared_config(str(data_root), "exp_shared_alone")
        out = run_experiment(cfg)
        datasets = load_dataset_pool(cfg)
        scenarios = {s.scenario_id: make_scenario(s, datasets, seed=cfg.seeds[0],
                                                  eval_cap=cfg.eval_cap)
                     for s in cfg.scenarios}
        assert task1_digest(scenarios["mf"]) == task1_digest(scenarios["rot"])
        arch_by_id = dict(load_manifest(os.path.join(out, "pool.manifest")))
        lines = record_lines(out)
        # arch-major key order: both scenarios of an (arch, seed) are adjacent
        keys = [(d["arch_id"], d["seed"], d["scenario_id"]) for d in map(json.loads, lines)]
        assert keys == [(a, seed, sid) for a in sorted(arch_by_id) for seed in cfg.seeds
                        for sid in ("mf", "rot")]
        for line, (arch_id, seed, sid) in zip(lines, keys):
            assert stand_alone_line(cfg, scenarios[sid], arch_by_id[arch_id], arch_id,
                                    seed).encode() == line.encode()

    def test_task1_trains_once_per_arch_and_seed(self, data_root, monkeypatch, tmp_path):
        cfg = shared_config(str(data_root), "exp_shared_count")
        task1_seeds = count_task1_trainings(monkeypatch)
        out = run_experiment(cfg)
        pool = load_manifest(os.path.join(out, "pool.manifest"))
        # calibration runs train under their own arch ids, so their seeds differ
        assert [task1_seeds[derive_seed(seed, arch_id, "task1")]
                for arch_id, _ in pool for seed in cfg.seeds] == [1] * len(pool) * 2
        # the calibration subsets of mf and rot are byte-identical too
        calib = pick_calibration_archs(pool, cfg.n_calib_archs)
        assert [task1_seeds[derive_seed(cfg.seeds[0], f"calib_{arch_id}", "task1")]
                for arch_id, _ in calib] == [1] * len(calib)
        assert sum(task1_seeds.values()) == len(pool) * 2 + len(calib)
        monkeypatch.undo()
        # each profile is the one its scenario's calibration alone fits
        datasets = load_dataset_pool(cfg)
        for spec in cfg.scenarios:
            pid = profile_id(spec.scenario_id, spec.calib_fraction)
            sc = make_scenario(spec, datasets, seed=cfg.seeds[0], eval_cap=cfg.eval_cap)
            alone = run_calibration(replace(cfg, scenarios=(spec,)),
                                    {pid: (sc, spec.calib_fraction)}, pool)[pid]
            save_profile(alone, tmp_path / f"{pid}.profile")
            assert (tmp_path / f"{pid}.profile").read_bytes() == \
                open(cfg.profile_path(pid), "rb").read()

    def test_sharing_ignores_scenario_order(self, data_root, monkeypatch):
        # split stands between mf and rot, whose task 1 is byte-identical
        cfg = shared_config(str(data_root), "exp_shared_order")
        split = ScenarioSpec("split", "split", dataset="mnist", classes_a=(0, 1, 2, 3, 4),
                             classes_b=(5, 6, 7, 8, 9), eval_fraction=0.5, calib_fraction=0.4)
        cfg = replace(cfg, scenarios=(cfg.scenarios[0], split, cfg.scenarios[1]))
        task1_seeds = count_task1_trainings(monkeypatch)
        out = run_experiment(cfg)
        monkeypatch.undo()
        arch_by_id = dict(load_manifest(os.path.join(out, "pool.manifest")))
        assert [task1_seeds[derive_seed(seed, arch_id, "task1")]
                for arch_id in arch_by_id for seed in cfg.seeds] == [2] * len(arch_by_id) * 2
        datasets = load_dataset_pool(cfg)
        scenarios = {s.scenario_id: make_scenario(s, datasets, seed=cfg.seeds[0],
                                                  eval_cap=cfg.eval_cap)
                     for s in cfg.scenarios}
        lines = record_lines(out)
        keys = [(d["arch_id"], d["scenario_id"], d["seed"]) for d in map(json.loads, lines)]
        assert sorted(keys) == sorted(experiment_run_keys(cfg, list(arch_by_id.items())))
        assert len(set(keys)) == len(keys)
        for line, (arch_id, sid, seed) in zip(lines, keys):
            assert stand_alone_line(cfg, scenarios[sid], arch_by_id[arch_id], arch_id,
                                    seed) == line

    def test_worker_count_gives_identical_record_lines(self, data_root):
        out1 = run_experiment(shared_config(str(data_root), "exp_shared_w1", workers=1))
        out2 = run_experiment(shared_config(str(data_root), "exp_shared_w2", workers=2))
        assert record_lines(out1) == record_lines(out2)
        assert reports(out1) == reports(out2)

    def test_task1_divergence_flags_every_member(self, data_root, monkeypatch):
        cfg = shared_config(str(data_root), "exp_shared_diverge", workers=2)
        boom = derive_seed(1, "arch0002", "task1")
        original = clrun.train_task
        diverged = []

        def diverging(net, state, dataset, cfg, seed, recorder=None):
            if seed == boom:
                diverged.append(seed)
                raise DivergenceError("non-finite loss at step 3")
            return original(net, state, dataset, cfg, seed=seed, recorder=recorder)

        monkeypatch.setattr(clrun, "train_task", diverging)
        out = run_experiment(cfg)
        assert len(diverged) == 1  # the shared task 1, not one per member
        invalid = [r for r in read_records(os.path.join(out, "records.jsonl")) if not r.valid]
        assert sorted((r.arch_id, r.scenario_id, r.seed) for r in invalid) == \
            [("arch0002", "mf", 1), ("arch0002", "rot", 1)]
        assert {r.note for r in invalid} == {"non-finite loss at step 3"}
        assert all(r.layer_traces == [] for r in invalid)

    def test_resume_after_one_member_gives_the_same_lines(self, data_root):
        cfg = shared_config(str(data_root), "exp_shared_resume")
        out = run_experiment(cfg)
        full = record_lines(out)
        before = reports(out)
        records_path = os.path.join(out, "records.jsonl")
        first = open(records_path).readline()
        open(records_path, "w").write(first)  # the crash came after the first member
        run_experiment(cfg)
        assert sorted(record_lines(out)) == sorted(full)
        assert reports(out) == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_failing_job_stops_the_run(self, data_root, monkeypatch, workers):
        whole = record_lines(run_experiment(shared_config(str(data_root), "exp_shared_whole")))
        cfg = shared_config(str(data_root), f"exp_shared_fail_w{workers}", workers=workers)
        original = harness.run_scenario

        def failing(arch, scenario, cfg, arch_id="arch", **kwargs):
            if arch_id == "arch0002":
                raise RuntimeError(f"broken {arch_id}")
            return original(arch, scenario, cfg, arch_id=arch_id, **kwargs)

        monkeypatch.setattr(harness, "run_scenario", failing)
        with pytest.raises(RuntimeError, match="broken arch0002"):
            run_experiment(cfg)
        # the jobs of arch0000 and arch0001 (2 seeds x 2 scenarios each), nothing after
        assert record_lines(cfg.out_dir) == whole[:8]
        monkeypatch.undo()
        run_experiment(cfg)
        assert record_lines(cfg.out_dir) == whole

    def test_calibration_subsets_are_built_as_their_job_runs(self, data_root, monkeypatch):
        # mf and rot share task 1, so each calibration job holds both task-2 subsets
        cfg = shared_config(str(data_root), "unused")
        datasets = load_dataset_pool(cfg)
        wanted = {profile_id(s.scenario_id, 0.4): (make_scenario(s, datasets, seed=0), 0.4)
                  for s in cfg.scenarios}
        events = []
        for name in ("calibration_task2", "run_job"):
            original = getattr(harness, name)

            def recording(*args, _original=original, _name=name, **kwargs):
                events.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(harness, name, recording)
        run_calibration(cfg, wanted, pool_entries(generate_pool(cfg.pool)))
        assert events == ["calibration_task2", "calibration_task2", "run_job"] * cfg.n_calib_archs

    def test_a_shared_job_peaks_no_higher_than_one_run(self, data_root):
        # the job keeps task 1's end alive through every member, but of the old-task
        # gradient only what the recorder reads: a raw gradient (one more copy of
        # the weights) held through task 2 would exceed the slack
        cfg = shared_config(str(data_root), "unused")
        datasets = load_dataset_pool(cfg)
        mf, rot = (make_scenario(s, datasets, seed=0, eval_cap=cfg.eval_cap)
                   for s in cfg.scenarios)
        arch = ArchitectureSpec(3, (784, 256, 384, 256, 10), "spindle")
        tc = train_config(cfg, steps_for(cfg, len(mf.task1_train)), 0)
        weight_bytes = 8 * (784 * 256 + 256 * 384 + 384 * 256 + 256 * 10)

        def peak(scenarios):
            tracemalloc.start()
            try:
                records = list(run_job(arch, scenarios, tc, arch_id="a0"))
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert [r.valid for r in records] == [True] * len(scenarios)
            return top

        one = peak([mf])
        two = peak([mf, rot])
        assert two <= one + 0.02 * weight_bytes, (one, two, weight_bytes)


class TestCli:
    def test_make_data_and_gen_pool_deterministic(self, tmp_path, capsys):
        assert cli_main(["make-data", "--out", str(tmp_path / "d"),
                         "--names", "mnist", "--n-train", "50", "--n-test", "20"]) == 0
        cfg = tiny_config(str(tmp_path))
        save_config(cfg, tmp_path / "c.ini")
        m1, m2 = tmp_path / "p1.manifest", tmp_path / "p2.manifest"
        assert cli_main(["gen-pool", "--config", str(tmp_path / "c.ini"), "--out", str(m1)]) == 0
        assert cli_main(["gen-pool", "--config", str(tmp_path / "c.ini"), "--out", str(m2)]) == 0
        assert m1.read_text() == m2.read_text()

    def test_make_data_cifar10_writes_loadable_batches(self, tmp_path, capsys):
        root = str(tmp_path / "d")
        assert cli_main(["make-data", "--out", root, "--names", "cifar10,mnist",
                         "--n-train", "60", "--n-test", "25"]) == 0
        datasets = {name: load_named_dataset(root, name) for name in ("cifar10", "mnist")}
        for split, n in (("train", 60), ("test", 25)):
            ds = datasets["cifar10"][split]
            assert ds.images.shape == (n, 784)
            assert 0 <= ds.labels.min() and ds.labels.max() < 10
        sc = make_scenario(ScenarioSpec("cm", "transfer", src="cifar10", dst="mnist"),
                           datasets, seed=0)
        assert (sc.input_dim, sc.n_classes) == (784, 10)
        # an empty train batch would not load
        assert cli_main(["make-data", "--out", root, "--names", "cifar10", "--n-train", "4"]) == 2
        assert "--n-train must be >= 5" in capsys.readouterr().err

    @pytest.mark.parametrize("names,bad,named", [
        ("mnist", ["--n-train", "0"], "--n-train must be >= 1 for mnist, got 0"),
        ("mnist", ["--n-test", "-3"], "--n-test must be >= 1 for mnist, got -3"),
        ("cifar10", ["--n-test", "0"], "--n-test must be >= 1"),
        # mnist, listed first, would be written before cifar10 refused its count
        ("mnist,cifar10", ["--n-train", "4"], "--n-train must be >= 5 for mnist, cifar10"),
        ("mnist,", [], "--names lists an empty name"),
    ])
    def test_make_data_refuses_bad_counts_before_writing(self, tmp_path, capsys, names, bad,
                                                         named):
        root = tmp_path / "d"
        assert cli_main(["make-data", "--out", str(root), "--names", names,
                         "--n-train", "50", "--n-test", "20", *bad]) == 2
        assert named in capsys.readouterr().err
        assert not root.exists()

    def test_ads_widths_prints_terms(self, tmp_path, capsys):
        from adslab.calib import CalibrationParams, save_profile
        save_profile(CalibrationParams(0.2, -0.4, 2.0, 0.5, 0.9, 0.9, 50, params_id="p"),
                     tmp_path / "p.profile")
        rc = cli_main(["ads", "--params", str(tmp_path / "p.profile"),
                       "--widths", "784,256,512,10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ads =" in out
        assert "layer 2" in out

    def test_unknown_flag_exits_one(self, capsys):
        assert cli_main(["gen-pool", "--bogus", "x"]) == 1

    def test_unknown_command_exits_one(self, capsys):
        assert cli_main(["frobnicate"]) == 1

    def test_bad_config_value_refused_before_the_directory_is_written(self, tmp_path,
                                                                        data_root, capsys):
        # each of these used to be refused only after experiment.ini was saved,
        # so the corrected config was then refused as a changed one
        cfg = tiny_config(str(data_root), out_name="exp_bad_value", seeds=(0,))
        good = tmp_path / "good.ini"
        save_config(cfg, good)
        bad_path = tmp_path / "bad.ini"
        for section, key, bad in [("train", "lr", "0"), ("train", "batch_size", "0"),
                                  ("stats", "n_perm", "10"), ("stats", "n_boot", "999"),
                                  ("stats", "baseline_perms", "0"),
                                  ("experiment", "eval_cap", "0"), ("calib", "fractions", "1.5"),
                                  ("experiment", "seeds", "-1"), ("experiment", "seeds", "0,0"),
                                  ("calib", "fractions", "0.4,0.401"),
                                  ("pool", "widths", "0,16,24"), ("calib", "n_archs", "0"),
                                  ("pool", "count_unifrom", "5"),
                                  ("pool", "per_category", "2"),
                                  ("train", "lr", "nan"), ("train", "lr", "inf"),
                                  ("train", "momentum", "-3"), ("train", "momentum", "1"),
                                  ("train", "momentum", "nan"),
                                  ("train", "weight_decay", "-1"),
                                  ("train", "weight_decay", "inf"),
                                  ("experiment", "min_task1_acc", "2.0"),
                                  ("experiment", "min_task1_acc", "nan"),
                                  ("experiment", "seeds", "0,,1"), ("pool", "widths", "32,,"),
                                  ("pool", "seed", "-1"),
                                  ("train", "epochs_per_task", "0"),
                                  ("train", "steps_per_task", "-5")]:
            cp = configparser.ConfigParser(interpolation=None)
            cp.read(good)
            cp[section][key] = bad
            with open(bad_path, "w") as fh:
                cp.write(fh)
            capsys.readouterr()
            assert cli_main(["run", "--config", str(bad_path), "--quiet"]) == 2, key
            err = capsys.readouterr().err
            assert str(bad_path) in err and key in err, err
            assert not os.path.exists(os.path.join(cfg.out_dir, "experiment.ini"))
        assert cli_main(["run", "--config", str(good), "--quiet"]) == 0

    @pytest.mark.parametrize("source", ["config", "manifest"])
    def test_pool_input_width_refused_before_the_directory_is_written(self, tmp_path,
                                                                       data_root, capsys,
                                                                       source):
        # nets would train at the data's 784 features while ADS scored the pool's 64
        cfg = tiny_config(str(data_root), out_name=f"exp_width_{source}", seeds=(0,))
        good, bad = tmp_path / "good.ini", tmp_path / "bad.ini"
        save_config(cfg, good)
        save_config(replace(cfg, pool=replace(cfg.pool, input_dim=64)), bad)
        if source == "config":
            run = ["run", "--config", str(bad), "--quiet"]
        else:
            manifest = tmp_path / "pool64.manifest"
            assert cli_main(["gen-pool", "--config", str(bad), "--out", str(manifest)]) == 0
            run = ["run", "--config", str(good), "--quiet", "--pool", str(manifest)]
        capsys.readouterr()
        assert cli_main(run) == 2
        err = capsys.readouterr().err
        assert "input_dim 64" in err and "input width 784 of scenario mf" in err, err
        for name in ("experiment.ini", "pool.manifest"):
            assert not os.path.exists(os.path.join(cfg.out_dir, name))
        assert cli_main(["run", "--config", str(good), "--quiet"]) == 0

    def test_bad_workers_variable_refused_before_the_directory_is_written(
            self, tmp_path, data_root, capsys, monkeypatch):
        cfg = tiny_config(str(data_root), out_name="exp_bad_workers", seeds=(0,))
        good = tmp_path / "good.ini"
        save_config(cfg, good)
        monkeypatch.setenv(harness.ENV_WORKERS, "0")
        capsys.readouterr()
        assert cli_main(["run", "--config", str(good), "--quiet"]) == 2
        assert "ADSLAB_WORKERS must be an integer >= 1, got '0'" in capsys.readouterr().err
        for name in ("experiment.ini", "pool.manifest"):
            assert not os.path.exists(os.path.join(cfg.out_dir, name))
        monkeypatch.delenv(harness.ENV_WORKERS)
        assert cli_main(["run", "--config", str(good), "--quiet"]) == 0

    def test_ads_pool_scores_every_manifest_entry(self, tmp_path):
        from adslab.ads import compute_ads
        from adslab.calib import CalibrationParams, save_profile
        params = CalibrationParams(0.2, -0.4, 2.0, 0.5, 0.9, 0.9, 50, params_id="p")
        save_profile(params, tmp_path / "p.profile")
        cfg = tiny_config(str(tmp_path))
        save_config(replace(cfg, pool=replace(cfg.pool, depths=(3, 5))), tmp_path / "c.ini")
        manifest, scores = tmp_path / "pool.manifest", tmp_path / "scores.csv"
        assert cli_main(["gen-pool", "--config", str(tmp_path / "c.ini"),
                         "--out", str(manifest)]) == 0
        assert cli_main(["ads", "--params", str(tmp_path / "p.profile"), "--pool", str(manifest),
                         "--out", str(scores)]) == 0
        entries = load_manifest(manifest)
        assert {spec.depth for _, spec in entries} == {3, 5}
        lines = scores.read_text().splitlines()
        assert lines[0] == "arch_id,ads," + ",".join(f"term_{l}" for l in range(1, 6))
        assert len(lines) == 1 + len(entries)
        for line, (arch_id, spec) in zip(lines[1:], entries):
            cells = line.split(",")
            assert cells[:2] == [arch_id, repr(compute_ads(spec, params).value)]
            assert len(cells) == 2 + spec.depth

    def test_ads_pool_without_architectures_refused(self, tmp_path, capsys):
        save_profile(CalibrationParams(0.2, -0.4, 2.0, 0.5, 0.9, 0.9, 50), tmp_path / "p.profile")
        manifest = tmp_path / "empty.manifest"
        manifest.write_text("# arch pool manifest v1\n# seed=0\n")
        assert cli_main(["ads", "--params", str(tmp_path / "p.profile"), "--pool", str(manifest),
                         "--out", str(tmp_path / "scores.csv")]) == 2
        assert f"{manifest} lists no architecture" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "scores.csv")

    def test_gen_pool_negative_seed_refused(self, tmp_path, capsys):
        save_config(tiny_config(str(tmp_path)), tmp_path / "c.ini")
        assert cli_main(["gen-pool", "--config", str(tmp_path / "c.ini"),
                         "--out", str(tmp_path / "m"), "--seed", "-1"]) == 2
        assert "pool seed must be >= 0, got -1" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "m")

    def test_pool_that_cannot_be_generated_leaves_no_snapshot(self, tmp_path, data_root,
                                                               capsys):
        cfg = tiny_config(str(data_root), out_name="exp_bad_pool", seeds=(0,))
        good = tmp_path / "good.ini"
        save_config(cfg, good)
        cp = configparser.ConfigParser(interpolation=None)
        cp.read(good)
        cp["pool"]["widths"], cp["pool"]["count_uniform"] = "32,48", "5"
        bad = tmp_path / "bad.ini"
        with open(bad, "w") as fh:
            cp.write(fh)
        capsys.readouterr()
        assert cli_main(["run", "--config", str(bad), "--quiet"]) == 2
        assert "requested 5 unique specs but only 2 are possible" in capsys.readouterr().err
        for name in ("experiment.ini", "pool.manifest"):
            assert not os.path.exists(os.path.join(cfg.out_dir, name))
        assert cli_main(["run", "--config", str(good), "--quiet"]) == 0

    @pytest.mark.parametrize("text,named", [
        ("seeds = 0\n", "no section headers"),
        ("[experiment]\nseeds = 0,x\n[scenario s]\nkind = rotated\ndataset = mnist\n",
         "[experiment] seeds: invalid literal"),
        ("[pool]\ncount_uniform = two\n[scenario s]\nkind = rotated\ndataset = mnist\n",
         "[pool] count_uniform: invalid literal"),
    ], ids=["no_section_header", "bad_seed", "bad_count"])
    def test_config_read_error_names_the_file(self, tmp_path, capsys, text, named):
        path = tmp_path / "c.ini"
        path.write_text(text)
        assert cli_main(["gen-pool", "--config", str(path), "--out", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and named in err, err

    def test_profile_read_error_names_the_file(self, tmp_path, capsys):
        from adslab.calib import CalibrationParams, save_profile
        path = tmp_path / "p.profile"
        save_profile(CalibrationParams(0.2, -0.4, 2.0, 0.5, 0.9, 0.9, 50), path)
        text = path.read_text()
        path.write_text(re.sub(r"(?m)^beta = .*\n", "", text))
        assert cli_main(["ads", "--params", str(path), "--widths", "784,256,10"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "'beta' in section [params]" in err, err
        path.write_text(text.replace("n_layer_records = 50", "n_layer_records = many"))
        assert cli_main(["ads", "--params", str(path), "--widths", "784,256,10"]) == 2
        assert "[fit] n_layer_records: invalid literal" in capsys.readouterr().err

    def test_correlate_insufficient_sample_exits_two(self, tmp_path, data_root, capsys):
        # three archs are too few to calibrate on, so a preset scores them
        cfg = preset_config(data_root, tmp_path / "small_exp", tmp_path / "preset.profile")
        write_preset(cfg.transfer_profile)
        # a pool too small to report on is refused before the snapshot, so the
        # corrected config then runs in the same directory
        two = replace(cfg, pool=replace(cfg.pool, per_category_counts={"uniform": 2}))
        with pytest.raises(ValueError, match="the pool has 2 architectures"):
            run_experiment(two)
        assert not os.path.exists(os.path.join(cfg.out_dir, "experiment.ini"))
        run_experiment(cfg)
        # exclusions that leave 2 architectures make the report itself refuse
        path = os.path.join(cfg.out_dir, "records.jsonl")
        records = read_records(path)
        os.remove(path)
        clrun.append_records(path, [replace(r, valid=False) if r.arch_id == records[0].arch_id
                                    else r for r in records])
        capsys.readouterr()
        assert cli_main(["report", "--exp", cfg.out_dir]) == 2
        assert "insufficient sample: scenario mf has 2 architectures" in capsys.readouterr().err

    def test_moved_directory_reports_the_same_bytes(self, tmp_path, data_root, monkeypatch):
        # the snapshot names the directory the run wrote; a report reads the one it is given
        cfg = replace(tiny_config(str(data_root), seeds=(0,)), out_dir=str(tmp_path / "exp"),
                      calib_fractions=(0.4, 1.0))
        run_experiment(cfg)
        made = reports(cfg.out_dir)
        assert "transfer.csv" in made
        os.makedirs(tmp_path / "elsewhere")
        os.rename(cfg.out_dir, tmp_path / "elsewhere" / "moved")
        shutil.rmtree(tmp_path / "elsewhere" / "moved" / "reports")
        monkeypatch.chdir(tmp_path / "elsewhere")
        assert cli_main(["report", "--exp", "moved"]) == 0
        assert reports("moved") == made

    def test_report_command(self, data_root, capsys):
        out = os.path.join(str(data_root), "exp_main")
        if not os.path.exists(os.path.join(out, "records.jsonl")):
            run_experiment(tiny_config(str(data_root), out_name="exp_main"))
        rc = cli_main(["report", "--exp", out])
        assert rc == 0
        assert "correlation.csv" in capsys.readouterr().out


    def test_run_with_supplied_pool_manifest(self, tmp_path, data_root, capsys):
        cfg = tiny_config(str(data_root), out_name="exp_pool", seeds=(0,))
        cfg_path = tmp_path / "c.ini"
        save_config(cfg, cfg_path)
        manifest = tmp_path / "pool.manifest"
        assert cli_main(["gen-pool", "--config", str(cfg_path), "--out", str(manifest)]) == 0
        out_dir = str(tmp_path / "exp_via_pool")
        run = ["run", "--config", str(cfg_path), "--out", out_dir, "--quiet", "--pool"]
        assert cli_main(run + [str(manifest)]) == 0
        adopted = os.path.join(out_dir, "pool.manifest")
        assert open(adopted).read() == manifest.read_text()

        # the same bytes again resume; a different pool is refused, naming both files
        assert cli_main(run + [str(manifest)]) == 0
        other = tmp_path / "other.manifest"
        assert cli_main(["gen-pool", "--config", str(cfg_path), "--out", str(other),
                         "--seed", "6"]) == 0
        capsys.readouterr()
        assert cli_main(run + [str(other)]) == 2
        err = capsys.readouterr().err
        assert adopted in err and str(other) in err
        assert open(adopted).read() == manifest.read_text()

        # a run refused for its config leaves no manifest behind, as after a
        # run that failed before adopting one; the matching manifest still resumes
        os.remove(adopted)
        records = open(os.path.join(out_dir, "records.jsonl"), "rb").read()
        assert cli_main(run[:-1] + ["--seed", "5", "--pool", str(other)]) == 2
        assert "changed: seeds" in capsys.readouterr().err
        assert not os.path.exists(adopted)
        assert cli_main(run + [str(manifest)]) == 0
        assert open(adopted).read() == manifest.read_text()
        assert open(os.path.join(out_dir, "records.jsonl"), "rb").read() == records


class TestPreset:
    """A preset is copied into the experiment, which then never reads its source."""

    def test_missing_preset_refused_before_the_snapshot(self, tmp_path, data_root):
        out = tmp_path / "exp"
        with pytest.raises(FileNotFoundError, match="presetx.profile"):
            run_experiment(preset_config(data_root, out, tmp_path / "presetx.profile"))
        assert not os.path.exists(out / "experiment.ini")
        assert not os.path.exists(out / "params" / "preset.profile")
        write_preset(tmp_path / "preset.profile")
        run_experiment(preset_config(data_root, out, tmp_path / "preset.profile"))
        assert (out / "params" / "preset.profile").read_bytes() == \
            (tmp_path / "preset.profile").read_bytes()

    def test_report_reads_only_the_copy(self, tmp_path, data_root, monkeypatch, capsys):
        preset = tmp_path / "preset.profile"
        write_preset(preset)
        cfg = preset_config(data_root, tmp_path / "exp", preset)
        run_experiment(cfg)
        made = reports(cfg.out_dir)
        records = open(os.path.join(cfg.out_dir, "records.jsonl"), "rb").read()

        # a resume under an edited source is refused, naming the experiment's copy
        write_preset(preset, alpha=0.9)
        with pytest.raises(ValueError, match=re.escape(os.path.join("params", "preset.profile"))):
            run_experiment(cfg)
        assert open(os.path.join(cfg.out_dir, "records.jsonl"), "rb").read() == records

        # without its source, and moved, the directory reports the same bytes
        os.remove(preset)
        os.rename(cfg.out_dir, tmp_path / "moved")
        shutil.rmtree(tmp_path / "moved" / "reports")
        monkeypatch.chdir(tmp_path)
        assert cli_main(["report", "--exp", "moved"]) == 0
        assert reports("moved") == made

    def test_calibrated_profile_as_a_preset(self, tmp_path, data_root, capsys):
        cfg = tiny_config(str(data_root), seeds=(0,))
        save_config(cfg, tmp_path / "c.ini")
        profile = tmp_path / "p.profile"
        assert cli_main(["calibrate", "--config", str(tmp_path / "c.ini"),
                         "--out", str(profile)]) == 0
        save_config(replace(cfg, transfer_profile=str(profile)), tmp_path / "preset.ini")
        out = tmp_path / "exp"
        assert cli_main(["run", "--config", str(tmp_path / "preset.ini"), "--out", str(out),
                         "--quiet"]) == 0
        assert os.listdir(out / "params") == ["preset.profile"]
        assert (out / "params" / "preset.profile").read_bytes() == profile.read_bytes()
        assert "correlation.csv" in reports(str(out))


class TestAggregation:
    def test_shift_is_mean_of_exactly_three_seed_records(self, data_root):
        from adslab.harness import aggregate_scenario
        from adslab.archpool import load_manifest
        import numpy as np
        out = os.path.join(str(data_root), "exp_main")
        if not os.path.exists(os.path.join(out, "records.jsonl")):
            run_experiment(tiny_config(str(data_root), out_name="exp_main"))
        records = read_records(os.path.join(out, "records.jsonl"))
        pool = dict(load_manifest(os.path.join(out, "pool.manifest")))
        agg = aggregate_scenario(records, "mf", pool, 0.0)
        by_arch = {}
        for r in records:
            by_arch.setdefault(r.arch_id, []).append(r.observed_shift)
        for arch_id, shift in zip(agg.arch_ids, agg.shift):
            assert len(by_arch[arch_id]) == 3
            assert shift == float(np.mean(by_arch[arch_id]))

    def test_calibrate_defaults_to_the_scoring_fraction(self, tmp_path, data_root, capsys):
        # the run scores with the first [calib] fraction, not the scenario's calib_fraction
        cfg = replace(tiny_config(str(data_root), out_name="exp_calib_default", seeds=(0,)),
                      calib_fractions=(1.0, 0.4))
        out = run_experiment(cfg)
        cfg_path, profile = tmp_path / "c.ini", tmp_path / "p.profile"
        save_config(cfg, cfg_path)
        assert cli_main(["calibrate", "--config", str(cfg_path), "--out", str(profile)]) == 0
        assert profile.read_bytes() == open(os.path.join(out, "params", "mf_f100.profile"),
                                            "rb").read()

    def test_calibrate_loads_only_its_scenarios_datasets(self, tmp_path, data_root,
                                                           monkeypatch):
        cfg_path = tmp_path / "c.ini"
        save_config(shared_config(str(data_root), "unused"), cfg_path)
        seen = watch_loaded_datasets(monkeypatch)
        with pytest.raises(FirstJob):
            cli_main(["calibrate", "--config", str(cfg_path), "--scenario", "rot",
                      "--out", str(tmp_path / "p.profile")])
        assert seen == {"loaded": ["mnist"], "make_scenario": [("rot", ["mnist"])],
                        "run_job": [[]]}

    def test_calibrate_cli(self, tmp_path, data_root, capsys):
        cfg = tiny_config(str(data_root))
        cfg_path = tmp_path / "c.ini"
        save_config(cfg, cfg_path)
        out_profile = tmp_path / "p.profile"
        rc = cli_main(["calibrate", "--config", str(cfg_path),
                       "--out", str(out_profile)])
        assert rc == 0
        assert "alpha=" in capsys.readouterr().out
        from adslab.calib import load_profile
        params = load_profile(out_profile)
        assert params.n_layer_records > 0


@pytest.mark.parametrize("size", [0, 1, 2, 7, 30])
def test_calibration_takes_the_whole_pool_when_it_asks_for_as_many(size):
    pool = [f"a{i}" for i in range(size)]
    for n in (size, size + 1, size + 39):
        assert pick_calibration_archs(pool, n) == pool
