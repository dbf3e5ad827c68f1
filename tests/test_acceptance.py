"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line (visible with
`pytest -s` or `-v -rA`). The desk-scale experiments train real pools on
synthetic stand-in datasets generated into the session tmp dir; criteria
1-3, 6b, and 10 are self-contained and fast.

Run: pytest tests/test_acceptance.py -v -s
"""

import math
import os
import time

import numpy as np
import pytest

from adslab import stats
from adslab.ads import compute_ads
from adslab.archpool import PoolConfig, load_manifest, _category_counts
from adslab.calib import fit_depth_profile, fit_width_exponents, load_profile, pooled_traces
from adslab.clrun import RunRecord, TrainConfig, read_records
from adslab.datasets import ScenarioSpec, make_scenario
from adslab.harness import (
    ExperimentConfig,
    ads_scores,
    aggregate_scenario,
    load_named_dataset,
    run_experiment,
    run_job,
    selector_baseline,
)
from adslab.nncore import (
    ArchitectureSpec,
    Workspace,
    forward,
    init_network,
    logit_gradient,
    loss_and_backward,
    spectral_norm,
)
from adslab.synthdata import generate_dataset


def criterion(n: int, desc: str, ok: bool, detail: str = ""):
    line = f"[criterion {n:>2}] {'PASS' if ok else 'FAIL'}: {desc}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# shared desk-scale experiments (built lazily, once per session)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="session")
def lab_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    data_root = os.path.join(root, "data")
    for name in ("mnist", "fashion_mnist"):
        generate_dataset(data_root, name, n_train=6000, n_test=1500, seed=0)
    return str(root)


@pytest.fixture(scope="session")
def desk_mf(lab_root):
    """M->F transfer experiment: 30 heterogeneous archs x 3 seeds, 1 epoch/task."""
    cfg = ExperimentConfig(
        scenarios=[ScenarioSpec("mf", "transfer", src="mnist", dst="fashion_mnist",
                                eval_fraction=0.7, calib_fraction=0.3)],
        pool=PoolConfig(depths=(3, 5, 10), width_candidates=(256, 384, 512, 768),
                        per_category_counts=_category_counts(6), seed=11),
        seeds=(0, 1, 2), workers=1,
        out_dir=os.path.join(lab_root, "exp_mf"),
        data_root=os.path.join(lab_root, "data"),
        epochs_per_task=1, batch_size=128, trace_every=2, eval_cap=1000,
        n_calib_archs=10, calib_fractions=(0.3, 1.0), min_task1_acc=0.8,
    )
    t0 = time.time()
    out = run_experiment(cfg)
    print(f"\n[desk M->F experiment: {time.time() - t0:.0f}s]")
    records = read_records(os.path.join(out, "records.jsonl"))
    pool_entries = load_manifest(os.path.join(out, "pool.manifest"))
    return {"cfg": cfg, "out": out, "records": records,
            "pool": pool_entries, "arch_by_id": dict(pool_entries)}


@pytest.fixture(scope="session")
def desk_split(lab_root):
    """Split scenario (classes 0-4 then 5-9, shared 5-way head)."""
    cfg = ExperimentConfig(
        scenarios=[ScenarioSpec("split_m", "split", dataset="mnist",
                                classes_a=(0, 1, 2, 3, 4), classes_b=(5, 6, 7, 8, 9),
                                eval_fraction=0.7, calib_fraction=0.3)],
        pool=PoolConfig(depths=(3, 5, 10), width_candidates=(256, 384, 512, 768),
                        per_category_counts=_category_counts(4), seed=11, output_dim=5),
        seeds=(0, 1), workers=1,
        out_dir=os.path.join(lab_root, "exp_split"),
        data_root=os.path.join(lab_root, "data"),
        epochs_per_task=1, batch_size=128, trace_every=2, eval_cap=600,
        n_calib_archs=8, min_task1_acc=0.8, baseline_perms=200,
    )
    t0 = time.time()
    out = run_experiment(cfg)
    print(f"\n[desk split experiment: {time.time() - t0:.0f}s]")
    records = read_records(os.path.join(out, "records.jsonl"))
    pool_entries = load_manifest(os.path.join(out, "pool.manifest"))
    params = load_profile(os.path.join(out, "params", "split_m_f030.profile"))
    agg = aggregate_scenario(records, "split_m", dict(pool_entries), cfg.min_task1_acc)
    return {"cfg": cfg, "out": out, "agg": agg,
            "ads": ads_scores(agg, dict(pool_entries), params)}


@pytest.fixture(scope="session")
def depth10_uniform_runs(lab_root):
    """Dedicated depth-10 uniform batch on the M->F scenario for the
    layer-profile criterion: 4 widths x 3 seeds = 12 runs."""
    data_root = os.path.join(lab_root, "data")
    datasets = {name: load_named_dataset(data_root, name)
                for name in ("mnist", "fashion_mnist")}
    scenario = make_scenario(
        ScenarioSpec("mf_d10", "transfer", src="mnist", dst="fashion_mnist",
                     eval_fraction=0.5, calib_fraction=0.3),
        datasets, seed=0, eval_cap=500)
    steps = math.ceil(len(scenario.task1_train) / 128)
    runs = []
    t0 = time.time()
    for width in (256, 320, 384, 512):
        arch = ArchitectureSpec(10, (784,) + (width,) * 10 + (10,), "uniform")
        for seed in (0, 1, 2):
            cfg = TrainConfig(steps_per_task=steps, batch_size=128, trace_every=1,
                              path_segments=12, seed=seed)
            runs.append(run_job(arch, [scenario], cfg, arch_id=f"u{width}")[0])
    print(f"\n[depth-10 uniform batch: {time.time() - t0:.0f}s]")
    return runs


# ---------------------------------------------------------------------------
# criterion 1: gradient oracle
# ---------------------------------------------------------------------------

def fd_grad(objective, net, eps=1e-5):
    grads = []
    for w in net.weights:
        g = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + eps
            f_plus = objective(net)
            w[idx] = orig - eps
            f_minus = objective(net)
            w[idx] = orig
            g[idx] = (f_plus - f_minus) / (2 * eps)
            it.iternext()
        grads.append(g)
    return grads


def kink_free_net(widths, x, seed0, margin=1e-3):
    for s in range(seed0, seed0 + 60):
        net = init_network(ArchitectureSpec(len(widths) - 2, tuple(widths)), seed=s)
        ws = Workspace(net.spec, len(x))
        forward(net, x, ws)
        acts = ws.activations
        if min(np.abs(a @ w.T).min() for a, w in zip(acts, net.weights[:-1])) > margin:
            return net
    raise AssertionError("no kink-free net found")


def test_criterion_1_gradient_oracle():
    t0 = time.time()
    rng = np.random.default_rng(0)
    worst = 0.0
    n_nets = 0
    for i in range(11):
        x = rng.standard_normal((3, 6))
        labels = rng.integers(0, 3, size=3)
        net = kink_free_net([6, 8, 7, 3], x, 1000 + 97 * i)
        assert sum(w.size for w in net.weights) <= 500

        ws = Workspace(net.spec, len(x))
        forward(net, x, ws)
        _, grads = loss_and_backward(net, ws, labels)

        def loss_obj(n):
            ws = Workspace(n.spec, len(x))
            forward(n, x, ws)
            val, _ = loss_and_backward(n, ws, labels)
            return val

        fd = fd_grad(loss_obj, net)
        err = max(
            (np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)).max()
            for a, f in zip(grads, fd))
        worst = max(worst, err)
        n_nets += 1

        net2 = kink_free_net([6, 7, 6, 4], x, 5000 + 97 * i)
        classes = rng.integers(0, 4, size=3)
        grads2 = logit_gradient(net2, x, classes)

        def logit_obj(n):
            logits = forward(n, x)
            return float(np.mean(logits[np.arange(3), classes]))

        fd2 = fd_grad(logit_obj, net2)
        err2 = max(
            (np.abs(a - f) / np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-6)).max()
            for a, f in zip(grads2, fd2))
        worst = max(worst, err2)
        n_nets += 1
    elapsed = time.time() - t0
    criterion(1, "analytic gradients match central finite differences",
              worst < 1e-4 and n_nets >= 20 and elapsed < 30,
              f"{n_nets} nets, max rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2: homogeneity and zero-input invariants
# ---------------------------------------------------------------------------

def test_criterion_2_homogeneity_and_zero_input():
    rng = np.random.default_rng(7)
    worst = 0.0
    zero_ok = True
    for i in range(100):
        depth = int(rng.integers(1, 5))
        widths = [int(rng.integers(3, 20)) for _ in range(depth + 2)]
        net = init_network(ArchitectureSpec(depth, tuple(widths)), seed=i)
        zero_ok &= bool(np.all(forward(net, np.zeros((2, widths[0]))) == 0.0))
        x = rng.standard_normal((3, widths[0]))
        c = float(rng.uniform(0.1, 10.0))
        base = forward(net, x)
        scaled = forward(net, c * x)
        denom = np.maximum(np.abs(c * base), 1e-300)
        worst = max(worst, float((np.abs(scaled - c * base) / denom).max()))
    criterion(2, "zero-input and positive-homogeneity invariants over 100 nets",
              zero_ok and worst < 1e-10, f"max homogeneity rel err {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 3: gradient-norm width scaling
# ---------------------------------------------------------------------------

def test_criterion_3_gradient_norm_width_scaling():
    t0 = time.time()
    means = {}
    for width in (256, 1024):
        vals = []
        for seed in range(20):
            rng = np.random.default_rng(3000 + seed)
            net = init_network(
                ArchitectureSpec(2, (64, width, width, 10)), seed=seed)
            x = rng.standard_normal((1, 64))
            g = logit_gradient(net, x, np.array([0]))
            vals.append(spectral_norm(g[1]).value)
        means[width] = float(np.mean(vals))
    ratio = means[1024] / means[256]
    elapsed = time.time() - t0
    criterion(3, "spectral norm of layer gradient scales like sqrt(fan-in)",
              1.4 < ratio < 2.8 and elapsed < 120,
              f"ratio {ratio:.3f} (target 2.0), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 4, 5, 7, 8: the desk M->F experiment
# ---------------------------------------------------------------------------

def test_criterion_4_width_scaling_regression(desk_mf):
    records = [r for r in desk_mf["records"] if r.valid]
    traces = [t for t in pooled_traces(records) if t.layer_index >= 2]
    pooled = fit_width_exponents(traces)

    per_depth_r = {}
    for depth in (3, 5, 10):
        depth_traces = []
        for rec in records:
            if len(rec.layer_traces) == depth:
                depth_traces.extend(t for t in rec.layer_traces if t.layer_index >= 2)
        per_depth_r[depth] = abs(fit_width_exponents(depth_traces).pearson_r)

    ok = (pooled.alpha > 0 and pooled.beta < 0 and abs(pooled.pearson_r) >= 0.6
          and all(r >= 0.6 for r in per_depth_r.values()))
    criterion(4, "log-log width regression: alpha > 0 > beta, |pearson| >= 0.6", ok,
              f"alpha {pooled.alpha:+.3f}, beta {pooled.beta:+.3f}, "
              f"pooled r {pooled.pearson_r:.3f}, per-depth r "
              + "/".join(f"{per_depth_r[d]:.3f}" for d in (3, 5, 10)))


def test_criterion_5_trajectory_regularity(desk_mf):
    ct = np.array([t.c_traj for r in desk_mf["records"] if r.valid
                   for t in r.layer_traces])
    frac_band = float(np.mean((ct >= 1.0) & (ct <= 1.2)))
    frac_geq1 = float(np.mean(ct >= 1.0))
    criterion(5, "trajectory straightness in [1.0, 1.2] for >= 90% of layers, "
                 ">= 1 for all",
              frac_band >= 0.9 and frac_geq1 == 1.0,
              f"{len(ct)} layers, in-band {frac_band:.3f}, >=1 {frac_geq1:.3f}, "
              f"max {ct.max():.3f}")


def test_criterion_6_middle_layer_vulnerability(depth10_uniform_runs):
    interior = 0
    for rec in depth10_uniform_runs:
        profile = [t.mean_abs_cos for t in rec.layer_traces]
        argmax = int(np.argmax(profile)) + 1
        if 2 <= argmax <= 9:
            interior += 1
    frac = interior / len(depth10_uniform_runs)

    # exact synthetic recovery of the fitted form
    from adslab.clrun import LayerTrace
    synth = [LayerTrace(l, 1, 1, 1, 0.1, 0.5 * l**2 * math.exp(-0.5 * l), 1, 128, 128, 1)
             for l in range(1, 11)]
    fit = fit_depth_profile(synth)
    fit_ok = abs(fit.b - 2.0) < 1e-10 and abs(fit.c - 0.5) < 1e-10

    criterion(6, "interior |cos| peak for depth-10 uniform nets; exact synthetic fit",
              frac >= 0.7 and fit_ok,
              f"interior argmax in {interior}/{len(depth10_uniform_runs)} runs, "
              f"synthetic fit b={fit.b:.12f} c={fit.c:.12f}")


def mf_ads(desk_mf, agg, fraction: int):
    params = load_profile(os.path.join(
        desk_mf["out"], "params", f"mf_f{fraction:03d}.profile"))
    return ads_scores(agg, desk_mf["arch_by_id"], params)


def test_criterion_7_headline_correlation(desk_mf):
    # assert on the emitted report so the whole artifact chain is exercised
    corr_csv = os.path.join(desk_mf["out"], "reports", "correlation.csv")
    rows = [line.split(",") for line in open(corr_csv).read().splitlines()[1:]]
    row = next(r for r in rows if r[0] == "mf")
    n_arch, spearman_v, dc = int(row[1]), float(row[2]), float(row[4])
    p_value, ci_low, ci_high = float(row[5]), float(row[6]), float(row[7])
    ok = n_arch >= 30 and spearman_v >= 0.6 and p_value < 0.01 and dc >= 0.70
    criterion(7, "headline rank agreement between proxy and observed shift",
              ok, f"n={n_arch}, spearman {spearman_v:.3f}, p {p_value:.4f}, "
                  f"dc {dc:.3f}")
    # the bootstrap interval reported alongside must bracket the point DC
    assert ci_low <= dc <= ci_high, (ci_low, dc, ci_high)


def test_criterion_8_calibration_transferability(desk_mf):
    agg = aggregate_scenario(desk_mf["records"], "mf", desk_mf["arch_by_id"],
                             desk_mf["cfg"].min_task1_acc)
    rs30 = stats.spearman(mf_ads(desk_mf, agg, 30), agg.shift)
    rs100 = stats.spearman(mf_ads(desk_mf, agg, 100), agg.shift)
    gap = abs(rs30 - rs100)
    transfer_csv = os.path.join(desk_mf["out"], "reports", "transfer.csv")
    criterion(8, "30%-subset calibration within 0.15 Spearman of full-data",
              gap <= 0.15 and os.path.exists(transfer_csv),
              f"subset {rs30:.3f} vs full {rs100:.3f} (gap {gap:.3f})")


def test_criterion_9_selector(desk_split):
    agg, ads = desk_split["agg"], desk_split["ads"]
    rep = stats.pr_analysis(ads, agg.ece_drift)
    baseline = selector_baseline(ads, agg.ece_drift, 200, seed=0)
    criterion(9, "stability selector beats the permutation baseline",
              rep.auc_pr > 0.55 and rep.auc_pr > baseline,
              f"auc-pr {rep.auc_pr:.3f} vs baseline {baseline:.3f}, "
              f"n={len(agg.arch_ids)}")


# ---------------------------------------------------------------------------
# supplementary: zero-shot parameter transfer across scenarios
# ---------------------------------------------------------------------------

def test_transfer_preset_zero_shot(desk_mf, lab_root):
    """Params fitted on the M->F subset act as a preset for the reversed
    scenario and keep a strong downstream rank correlation."""
    preset = load_profile(os.path.join(desk_mf["out"], "params", "mf_f030.profile"))
    data_root = os.path.join(lab_root, "data")
    datasets = {name: load_named_dataset(data_root, name)
                for name in ("mnist", "fashion_mnist")}
    scenario = make_scenario(
        ScenarioSpec("fm", "transfer", src="fashion_mnist", dst="mnist",
                     eval_fraction=0.5, calib_fraction=0.3),
        datasets, seed=0, eval_cap=500)
    pool = PoolConfig(depths=(3, 5, 10), width_candidates=(256, 384, 512, 768),
                      per_category_counts={"random": 15}, seed=9)
    from adslab.archpool import generate_pool
    steps = math.ceil(len(scenario.task1_train) / 128)
    shifts, scores = [], []
    for i, arch in enumerate(generate_pool(pool)):
        cfg = TrainConfig(steps_per_task=steps, batch_size=128, trace_every=4, seed=0)
        rec = run_job(arch, [scenario], cfg, arch_id=f"fm{i}")[0]
        shifts.append(rec.observed_shift)
        scores.append(compute_ads(arch, preset).value)
    rs = stats.spearman(scores, shifts)
    print(f"[transfer preset] zero-shot reversed-scenario spearman {rs:.3f}")
    assert rs >= 0.8


# ---------------------------------------------------------------------------
# criterion 10: statistics oracles
# ---------------------------------------------------------------------------

def test_criterion_10_statistics_oracles():
    rng = np.random.default_rng(10)

    def kendall_enum(x, y):
        n = len(x)
        conc = disc = tx = ty = 0
        for i in range(n):
            for j in range(i + 1, n):
                sx = int(x[i] > x[j]) - int(x[i] < x[j])
                sy = int(y[i] > y[j]) - int(y[i] < y[j])
                tx += sx == 0
                ty += sy == 0
                conc += sx * sy > 0
                disc += sx * sy < 0
        n0 = n * (n - 1) // 2
        denom = math.sqrt((n0 - tx) * (n0 - ty))
        return (conc - disc) / denom if denom else math.nan

    kendall_ok = True
    for _ in range(1000):
        n = int(rng.integers(3, 13))
        x = rng.integers(0, 5, size=n).astype(float)
        y = rng.integers(0, 5, size=n).astype(float)
        want = kendall_enum(x, y)
        got = stats.kendall(x, y)
        if math.isnan(want):
            kendall_ok &= math.isnan(got)
        else:
            kendall_ok &= abs(got - want) < 1e-12

    spearman_ok = True
    for _ in range(200):
        n = int(rng.integers(3, 15))
        x = rng.permutation(n).astype(float)
        y = rng.permutation(n).astype(float)
        rx, ry = stats.rankdata(x), stats.rankdata(y)
        want = 1 - 6 * ((rx - ry) ** 2).sum() / (n * (n**2 - 1))
        spearman_ok &= abs(stats.spearman(x, y) - want) < 1e-12

    ece_ok = abs(stats.ece(np.full(4, 0.9), np.array([1.0, 1.0, 0.0, 0.0])) - 0.4) < 1e-15
    x = np.array([3.0, 1.0, 4.0, 1.5])
    dc_ok = (stats.direction_consistency(x, 2 * x) == 1.0
             and stats.direction_consistency(x, -x) == 0.0)

    criterion(10, "rank/calibration estimators match enumeration oracles",
              kendall_ok and spearman_ok and ece_ok and dc_ok,
              "kendall 1000 cases, spearman 200 cases, ece + dc hand cases")


# ---------------------------------------------------------------------------
# criterion 11: determinism and merge-order independence
# ---------------------------------------------------------------------------

def small_experiment_cfg(lab_root, out_name, workers=1):
    counts = {"uniform": 2, "bottleneck": 2, "random": 2}
    return ExperimentConfig(
        scenarios=[ScenarioSpec("mf", "transfer", src="mnist", dst="fashion_mnist",
                                eval_fraction=0.3, calib_fraction=0.3)],
        pool=PoolConfig(depths=(3,), width_candidates=(32, 48, 64, 96),
                        per_category_counts=counts, seed=3),
        seeds=(0, 1), workers=workers,
        out_dir=os.path.join(lab_root, out_name),
        data_root=os.path.join(lab_root, "data"),
        epochs_per_task=1, batch_size=128, trace_every=1, eval_cap=300,
        n_calib_archs=4, min_task1_acc=0.0, baseline_perms=50,
    )


def report_bytes(out_dir):
    reports = {}
    rd = os.path.join(out_dir, "reports")
    for name in sorted(os.listdir(rd)):
        if name.endswith(".csv"):
            reports[name] = open(os.path.join(rd, name)).read()
    return reports


def test_criterion_11_determinism(lab_root):
    out_a = run_experiment(small_experiment_cfg(lab_root, "exp_det_a", workers=1))
    out_b = run_experiment(small_experiment_cfg(lab_root, "exp_det_b", workers=1))
    out_c = run_experiment(small_experiment_cfg(lab_root, "exp_det_c", workers=3))
    ra, rb, rc = report_bytes(out_a), report_bytes(out_b), report_bytes(out_c)
    rerun_ok = ra == rb
    merge_ok = ra == rc
    criterion(11, "bit-exact reports across reruns and worker counts",
              rerun_ok and merge_ok,
              f"{len(ra)} report files compared; rerun {rerun_ok}, workers {merge_ok}")
