"""Orchestration tests: config round-trips, resume, worker invariance, CLI."""

import os
import xml.etree.ElementTree as ET
from dataclasses import MISSING, fields, replace

import numpy as np
import pytest

from adslab.archpool import PoolConfig, _category_counts
from adslab.cli import main as cli_main
from adslab.clrun import read_records
from adslab.datasets import ScenarioSpec
from adslab.harness import (
    ExperimentConfig,
    dataset_paths,
    emit_report,
    load_config,
    load_named_dataset,
    run_experiment,
    save_config,
)
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
        min_task1_acc=0.55, n_calib_archs=4, calib_fractions=(0.25, 0.75),
        transfer_profile="large_shift", profiles_dir="presets", n_perm=1999, n_boot=2000,
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
        cfg = replace(non_default_config("transfer"), out_dir="runs/100%",
                      data_root="d%(x)s", transfer_profile="m%f")
        save_config(cfg, tmp_path / "exp.ini")
        back = load_config(tmp_path / "exp.ini")
        assert (back.out_dir, back.data_root, back.transfer_profile) == \
               ("runs/100%", "d%(x)s", "m%f")

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

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_config("/nonexistent/path.ini")


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

    def test_malformed_record_line_named(self, tmp_path):
        path = tmp_path / "records.jsonl"
        path.write_text('\n{"arch_id": \n{}\n')
        with pytest.raises(ValueError, match=r"records\.jsonl: malformed record on line 2"):
            read_records(path)


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

    def test_correlate_insufficient_sample_exits_two(self, tmp_path, data_root, capsys):
        cfg = tiny_config(str(data_root), out_name="exp_small", seeds=(0,))
        cfg.pool = PoolConfig(depths=(3,), width_candidates=(32, 64),
                              per_category_counts={"uniform": 2}, seed=1)
        cfg.out_dir = str(tmp_path / "small_exp")
        try:
            run_experiment(cfg)
        except ValueError:
            pass  # the run itself reports insufficiency at the report stage
        rc = cli_main(["report", "--exp", cfg.out_dir])
        assert rc == 2
        assert "insufficient" in capsys.readouterr().err

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


class TestAggregation:
    def test_shift_is_mean_of_exactly_three_seed_records(self, data_root):
        from adslab.harness import aggregate_scenario
        from adslab.archpool import load_manifest
        from adslab.calib import load_profile
        import numpy as np
        out = os.path.join(str(data_root), "exp_main")
        if not os.path.exists(os.path.join(out, "records.jsonl")):
            run_experiment(tiny_config(str(data_root), out_name="exp_main"))
        records = read_records(os.path.join(out, "records.jsonl"))
        pool = dict(load_manifest(os.path.join(out, "pool.manifest")))
        params = load_profile(os.path.join(out, "params", "mf_f040.profile"))
        agg = aggregate_scenario(records, "mf", pool, params, 0.0)
        by_arch = {}
        for r in records:
            by_arch.setdefault(r.arch_id, []).append(r.observed_shift)
        for arch_id, shift in zip(agg.arch_ids, agg.shift):
            assert len(by_arch[arch_id]) == 3
            assert shift == float(np.mean(by_arch[arch_id]))

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
