"""Runner tests: trace identities, shift measurement, record round-trips."""

import math

import numpy as np
import pytest

from adslab import clrun
from adslab.clrun import (
    LayerTrace,
    RunRecord,
    TraceRecorder,
    TrainConfig,
    append_records,
    compute_gold,
    derive_seed,
    measure_logit_shift,
    read_records,
    summarize_gold,
    train_task,
    unit_flatten,
)
from adslab.datasets import Dataset, Scenario, ScenarioSpec, make_scenario
from adslab.harness import run_job
from adslab.nncore import (
    ArchitectureSpec,
    forward,
    init_network,
    init_optimizer,
    logit_gradient,
)


def toy_dataset(n=256, d=12, n_classes=3, seed=0, margin=2.0):
    """Linearly separable blobs: class c centered at margin * e_c."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    centers = np.zeros((n_classes, d))
    for c in range(n_classes):
        centers[c, c] = margin
    images = centers[labels] + 0.3 * rng.standard_normal((n, d))
    return Dataset("toy", images, labels, "train")


def toy_scenario(seed=0, n=400):
    ds1 = toy_dataset(n=n, seed=seed)
    ds2 = toy_dataset(n=n, seed=seed + 50, margin=-2.0)  # flipped centers
    eval1 = toy_dataset(n=120, seed=seed + 1)
    eval2 = toy_dataset(n=120, seed=seed + 51, margin=-2.0)
    calib = toy_dataset(n=60, seed=seed + 2)
    spec = ScenarioSpec("toy_sc", "transfer", src="a", dst="b")
    return Scenario(spec, ds1, eval1, ds2, calib, eval2, n_classes=3, seed=seed)


ARCH = ArchitectureSpec(depth=2, widths=(12, 32, 24, 3), topology_tag="random")


class TestTrainTask:
    def test_single_step_pathlen_equals_disp(self):
        scenario = toy_scenario()
        net = init_network(ARCH, seed=1)
        state = init_optimizer(net, lr=1e-2, momentum=0.9, weight_decay=5e-4)
        cfg = TrainConfig(steps_per_task=1, batch_size=64, lr=1e-2, seed=3)
        start = net.copy()
        rec = TraceRecorder(start, summarize_gold(start, scenario.calib_subset), cfg)
        train_task(net, state, scenario.task1_train, cfg, seed=cfg.seed, recorder=rec)
        for tr in rec.finalize(net):
            assert tr.pathlen == tr.disp  # single segment telescopes exactly
            assert tr.c_traj == 1.0

    def test_deterministic(self):
        scenario = toy_scenario()
        outs = []
        for _ in range(2):
            net = init_network(ARCH, seed=1)
            state = init_optimizer(net, lr=1e-2, momentum=0.9, weight_decay=0.0)
            cfg = TrainConfig(steps_per_task=10, batch_size=32, lr=1e-2, seed=5)
            train_task(net, state, scenario.task1_train, cfg, seed=cfg.seed)
            outs.append([w.copy() for w in net.weights])
        for a, b in zip(*outs):
            assert a.tobytes() == b.tobytes()

    def test_loss_decreases_on_separable_data(self):
        ds = toy_dataset(seed=4)
        net = init_network(ARCH, seed=2)
        state = init_optimizer(net, lr=1e-2, momentum=0.0, weight_decay=0.0)
        cfg = TrainConfig(steps_per_task=1, batch_size=256, lr=1e-2, seed=0)
        losses = []
        for _ in range(10):
            _, _, st = train_task(net, state, ds, cfg, seed=cfg.seed)
            losses.append(st["final_loss"])
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_zero_steps_rejected_by_config(self):
        with pytest.raises(ValueError):
            TrainConfig(steps_per_task=0)


class TestMeasureLogitShift:
    def test_identical_networks_zero(self):
        logits = forward(init_network(ARCH, seed=3), toy_dataset(seed=1).images)
        assert measure_logit_shift(logits, logits) == 0.0

    def test_scaled_head_gives_mean_logit_norm(self):
        net = init_network(ARCH, seed=3)
        ds = toy_dataset(seed=1)
        scaled = net.copy()
        scaled.weights[-1] *= 2.0
        f_t = forward(net, ds.images)
        expected = float(np.mean(np.linalg.norm(f_t, axis=1)))
        shift = measure_logit_shift(f_t, forward(scaled, ds.images))
        assert shift == pytest.approx(expected, rel=1e-12)

    def test_hand_computed_three_samples(self):
        net_a = init_network(ARCH, seed=5)
        net_b = init_network(ARCH, seed=6)
        x = toy_dataset(n=3, seed=2).images
        fa = forward(net_a, x)
        fb = forward(net_b, x)
        expected = (np.linalg.norm(fb[0] - fa[0]) + np.linalg.norm(fb[1] - fa[1])
                    + np.linalg.norm(fb[2] - fa[2])) / 3
        assert measure_logit_shift(fa, fb) == pytest.approx(expected, abs=1e-12)

    def test_empty_eval_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            measure_logit_shift(np.zeros((0, 3)), np.zeros((0, 3)))


class TestComputeGold:
    def test_single_sample_matches_logit_gradient(self):
        net = init_network(ARCH, seed=7)
        ds = toy_dataset(n=1, seed=3)
        gold = compute_gold(net, ds)
        direct = logit_gradient(net, ds.images, ds.labels)
        for a, b in zip(gold, direct):
            np.testing.assert_array_equal(a, b)

    def test_unit_flatten_normalizes(self):
        net = init_network(ARCH, seed=7)
        gold = compute_gold(net, toy_dataset(n=20, seed=3))
        for v in unit_flatten(gold):
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_duplicated_subset_invariance(self):
        net = init_network(ARCH, seed=7)
        ds = toy_dataset(n=16, seed=3)
        dup = Dataset("toy", np.vstack([ds.images, ds.images]),
                      np.concatenate([ds.labels, ds.labels]), "train")
        g1 = compute_gold(net, ds)
        g2 = compute_gold(net, dup)
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a, b, atol=1e-15)


class TestRunScenario:
    def run(self, seed=0, scenario=None):
        cfg = TrainConfig(steps_per_task=12, batch_size=64, lr=1e-2,
                          trace_every=1, seed=seed)
        return run_job(ARCH, [scenario or toy_scenario()], cfg, arch_id="a0")[0]

    def test_three_eval_forwards(self, monkeypatch):
        # task-1 eval logits of the frozen and the final net are each computed
        # once and shared by accuracy, ECE and the logit shift
        scenario = toy_scenario()
        eval_images = (scenario.task1_eval.images, scenario.task2_eval.images)
        calls = []
        original = clrun.forward

        def counting(net, batch, **kw):  # the eval sets reach forward as capped views
            if any(np.shares_memory(batch, images) for images in eval_images):
                calls.append(batch)
            return original(net, batch, **kw)

        monkeypatch.setattr(clrun, "forward", counting)
        rec = self.run(scenario=scenario)
        assert rec.valid
        assert len(calls) == 3
        assert sum(np.shares_memory(batch, eval_images[0]) for batch in calls) == 2

    def test_start_net_untouched_by_recording(self):
        scenario = toy_scenario()
        cfg = TrainConfig(steps_per_task=5, batch_size=64, lr=1e-2, seed=1)
        net = init_network(ARCH, seed=1)
        start = net.copy()
        frozen = [w.copy() for w in start.weights]
        rec = TraceRecorder(start, summarize_gold(start, scenario.calib_subset), cfg)
        state = init_optimizer(net, cfg.lr, cfg.momentum, cfg.weight_decay)
        train_task(net, state, scenario.task2_train, cfg, seed=cfg.seed, recorder=rec)
        rec.finalize(net)
        for a, b in zip(start.weights, frozen):
            assert a.tobytes() == b.tobytes()

    def test_pathlen_geq_disp_everywhere(self):
        rec = self.run()
        for tr in rec.layer_traces:
            assert tr.pathlen >= tr.disp >= 0.0
            assert tr.c_traj >= 1.0

    def test_cosines_bounded(self):
        rec = self.run()
        for tr in rec.layer_traces:
            assert 0.0 <= tr.mean_abs_cos <= 1.0

    def test_record_roundtrip_bit_exact(self, tmp_path):
        rec = self.run()
        path = tmp_path / "records.jsonl"
        append_records(path, [rec])
        (back,) = read_records(path)
        assert back.to_json() == rec.to_json()
        assert back.observed_shift == rec.observed_shift
        for a, b in zip(back.layer_traces, rec.layer_traces):
            assert a == b

    def test_rel_change_matches_checkpoints(self):
        # rel_change must equal disp / ||before||_F recomputed independently
        scenario = toy_scenario()
        cfg = TrainConfig(steps_per_task=8, batch_size=64, lr=1e-2, seed=2)
        spec = ARCH.with_dims(scenario.input_dim, scenario.n_classes)
        net = init_network(spec, derive_seed(cfg.seed, "a0", "init"))
        state = init_optimizer(net, cfg.lr, cfg.momentum, cfg.weight_decay)
        train_task(net, state, scenario.task1_train, cfg,
                   seed=derive_seed(cfg.seed, "a0", "task1"))
        before = [w.copy() for w in net.weights]

        rec = run_job(ARCH, [scenario], cfg, arch_id="a0")[0]
        net2 = init_network(spec, derive_seed(cfg.seed, "a0", "init"))
        state2 = init_optimizer(net2, cfg.lr, cfg.momentum, cfg.weight_decay)
        train_task(net2, state2, scenario.task1_train, cfg,
                   seed=derive_seed(cfg.seed, "a0", "task1"))
        state2 = init_optimizer(net2, cfg.lr, cfg.momentum, cfg.weight_decay)
        train_task(net2, state2, scenario.task2_train, cfg,
                   seed=derive_seed(cfg.seed, "a0", "task2"))
        for l, tr in enumerate(rec.layer_traces):
            disp = np.linalg.norm(net2.weights[l] - before[l])
            assert tr.rel_change == pytest.approx(disp / np.linalg.norm(before[l]), abs=1e-10)

    def test_same_seed_identical_record(self):
        a = self.run(seed=4)
        b = self.run(seed=4)
        assert a.to_json() != ""  # sanity
        assert a.observed_shift == b.observed_shift
        assert [t.disp for t in a.layer_traces] == [t.disp for t in b.layer_traces]


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a", "x") == derive_seed(1, "a", "x")
    assert derive_seed(1, "a", "x") != derive_seed(1, "a", "y")
    assert derive_seed(1, "a", "x") != derive_seed(2, "a", "x")
    # seeds a multiple of 2**32 apart are distinct seeds, not one
    assert derive_seed(0, "a", "x") != derive_seed(2**32, "a", "x")
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainConfig(steps_per_task=1, seed=-1)


class TestDivergenceGuard:
    def test_exploding_lr_flags_run_without_crashing(self):
        cfg = TrainConfig(steps_per_task=30, batch_size=64, lr=1e6, momentum=0.9,
                          trace_every=1, seed=0)
        rec = run_job(ARCH, [toy_scenario()], cfg, arch_id="boom")[0]
        assert rec.valid is False
        assert "non-finite" in rec.note
        assert math.isnan(rec.observed_shift)
        assert rec.layer_traces == []

    def test_nonfinite_gradient_flags_run_without_crashing(self, monkeypatch):
        # a finite loss with a NaN gradient takes the same path as a NaN loss
        original = clrun.loss_and_backward

        def nan_grads(net, ws, labels):
            loss, grads = original(net, ws, labels)
            grads[0][0, 0] = np.nan
            return loss, grads

        monkeypatch.setattr(clrun, "loss_and_backward", nan_grads)
        cfg = TrainConfig(steps_per_task=3, batch_size=64, lr=1e-2, seed=0)
        rec = run_job(ARCH, [toy_scenario()], cfg, arch_id="nan")[0]
        assert rec.valid is False
        assert "non-finite gradient" in rec.note
        assert rec.layer_traces == []

    def test_two_class_separable_loss_strictly_decreases(self):
        ds = toy_dataset(n=256, n_classes=2, seed=9)
        net = init_network(ArchitectureSpec(2, (12, 24, 16, 2), "random"), seed=1)
        state = init_optimizer(net, lr=1e-2, momentum=0.0, weight_decay=0.0)
        cfg = TrainConfig(steps_per_task=1, batch_size=256, lr=1e-2, seed=0)
        losses = []
        for _ in range(10):
            _, _, st = train_task(net, state, ds, cfg, seed=cfg.seed)
            losses.append(st["final_loss"])
        assert all(b < a for a, b in zip(losses, losses[1:]))
