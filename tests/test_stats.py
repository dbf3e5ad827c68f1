"""Statistics oracles: enumeration-based checks for every estimator."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from adslab.harness import selector_baseline
from adslab.stats import (
    average_precision,
    bootstrap_ci,
    direction_consistency,
    ece,
    ece_of_logits,
    kendall,
    perm_p_value,
    pr_analysis,
    rankdata,
    softmax,
    spearman,
)


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def spearman_rank_difference(x, y):
    """1 - 6 sum(d^2) / (n(n^2-1)); valid for tie-free data only."""
    n = len(x)
    rx = rankdata(np.asarray(x))
    ry = rankdata(np.asarray(y))
    d2 = ((rx - ry) ** 2).sum()
    return 1 - 6 * d2 / (n * (n**2 - 1))


def oracle_inputs(n, ties, seed):
    """Two length-n vectors, drawn from 4 values each (heavy ties) or continuous."""
    rng = np.random.default_rng(seed)
    if ties:
        return rng.integers(0, 4, size=(2, n)).astype(float)
    return rng.standard_normal((2, n))


def perm_p_reference(x, y, n_perm, seed):
    """Spearman recomputed from scratch on each permuted copy of y."""
    obs = spearman(x, y)
    if math.isnan(obs):
        return math.nan
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(n_perm):
        s = spearman(x, rng.permutation(y))
        if not math.isnan(s) and abs(s) >= abs(obs):
            count += 1
    return (1 + count) / (n_perm + 1)


def bootstrap_ci_reference(x, y, n_boot, seed):
    """Percentile interval of DC recomputed on each paired resample."""
    rng = np.random.default_rng(seed)
    vals = []
    for _ in range(n_boot):
        idx = rng.integers(0, len(x), size=len(x))
        s = direction_consistency(x[idx], y[idx])
        if not math.isnan(s):
            vals.append(s)
    if not vals:
        return math.nan, math.nan
    alpha = (1.0 - 0.95) / 2.0
    lo, hi = np.quantile(vals, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def selector_baseline_reference(ads, ece_drift, n_perms, seed):
    """Mean AUC-PR of the full selector analysis on each shuffled score vector."""
    rng = np.random.default_rng(seed)
    vals = []
    for _ in range(n_perms):
        rep = pr_analysis(rng.permutation(ads), ece_drift)
        if math.isfinite(rep.auc_pr):
            vals.append(rep.auc_pr)
    return float(np.mean(vals)) if vals else math.nan


def kendall_pair_enumeration(x, y):
    """Tau-b by explicit triple-loop pair counting."""
    n = len(x)
    conc = disc = tx = ty = 0
    for i in range(n):
        for j in range(i + 1, n):
            sx = int(x[i] > x[j]) - int(x[i] < x[j])
            sy = int(y[i] > y[j]) - int(y[i] < y[j])
            if sx == 0:
                tx += 1
            if sy == 0:
                ty += 1
            if sx * sy > 0:
                conc += 1
            elif sx * sy < 0:
                disc += 1
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - tx) * (n0 - ty))
    if denom == 0:
        return math.nan
    return (conc - disc) / denom


class TestSpearman:
    def test_perfect_monotone(self):
        x = np.arange(10.0)
        assert spearman(x, x**3 + 2) == pytest.approx(1.0)

    def test_hand_case(self):
        assert spearman([1, 2, 3], [3, 1, 2]) == pytest.approx(-0.5)

    def test_rank_difference_formula_tie_free(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(3, 15))
            x = rng.permutation(n).astype(float)
            y = rng.permutation(n).astype(float)
            assert spearman(x, y) == pytest.approx(spearman_rank_difference(x, y), abs=1e-12)

    def test_invariant_to_increasing_transform(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(30)
        y = rng.standard_normal(30)
        base = spearman(x, y)
        assert spearman(np.exp(x), y) == pytest.approx(base, abs=1e-12)
        assert spearman(x, 5 * y + 2) == pytest.approx(base, abs=1e-12)

    def test_constant_vector_nan(self):
        assert math.isnan(spearman([1, 1, 1], [1, 2, 3]))

    def test_short_input_rejected(self):
        with pytest.raises(ValueError):
            spearman([1, 2], [3, 4])


class TestKendall:
    def test_hand_case_third(self):
        assert kendall([1, 2, 3], [1, 3, 2]) == pytest.approx(1 / 3)

    def test_reversed_is_minus_one(self):
        x = np.arange(8.0)
        assert kendall(x, x[::-1]) == pytest.approx(-1.0)

    def test_tie_case_matches_enumeration(self):
        x = [1.0, 1.0, 2.0]
        y = [1.0, 2.0, 3.0]
        assert kendall(x, y) == pytest.approx(kendall_pair_enumeration(x, y), abs=1e-12)

    def test_randomized_against_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(3, 13))
            x = rng.integers(0, 6, size=n).astype(float)  # heavy ties
            y = rng.integers(0, 6, size=n).astype(float)
            got = kendall(x, y)
            want = kendall_pair_enumeration(x, y)
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(want, abs=1e-12)

    def test_invariant_to_increasing_transform(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        assert kendall(np.tanh(x), y) == pytest.approx(kendall(x, y), abs=1e-12)


class TestPermutationP:
    def test_identical_vectors_tiny_p(self):
        x = np.arange(20.0)
        p = perm_p_value(x, x, n_perm=999, seed=0)
        assert p <= 0.001 + 1e-12

    def test_independent_noise_p_not_small(self):
        rng = np.random.default_rng(3)
        n_large = 0
        for trial in range(20):
            x = rng.standard_normal(50)
            y = rng.standard_normal(50)
            p = perm_p_value(x, y, n_perm=999, seed=trial)
            if p > 0.01:
                n_large += 1
        assert n_large >= 18

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(10)
        y = rng.standard_normal(10)
        p = perm_p_value(x, y, n_perm=999, seed=0)
        assert 0.0 < p <= 1.0

    def test_requires_enough_permutations(self):
        with pytest.raises(ValueError):
            perm_p_value([1, 2, 3], [1, 2, 3], n_perm=10, seed=0)

    @pytest.mark.parametrize("n", [4, 30, 200])
    @pytest.mark.parametrize("ties", [True, False])
    def test_equals_spearman_of_each_permuted_copy(self, n, ties):
        x, y = oracle_inputs(n, ties, seed=n)
        assert perm_p_value(x, y, n_perm=999, seed=5) == perm_p_reference(x, y, 999, seed=5)


class TestBootstrapCI:
    def test_monotone_data_collapses_to_one(self):
        x = np.arange(12.0)
        lo, hi = bootstrap_ci(x, 2 * x + 1, n_boot=1000, seed=0)
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(1.0)

    def test_low_leq_high(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(25)
        y = x + rng.standard_normal(25)
        lo, hi = bootstrap_ci(x, y, n_boot=1000, seed=1)
        assert lo <= hi

    def test_deterministic_by_seed(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(15)
        y = rng.standard_normal(15)
        assert bootstrap_ci(x, y, n_boot=1000, seed=3) == bootstrap_ci(x, y, n_boot=1000, seed=3)

    def test_requires_enough_resamples(self):
        with pytest.raises(ValueError):
            bootstrap_ci([1, 2, 3], [1, 2, 3], n_boot=10, seed=0)

    @pytest.mark.parametrize("n", [4, 30, 200])
    @pytest.mark.parametrize("ties", [True, False])
    def test_equals_dc_of_each_resample(self, n, ties):
        x, y = oracle_inputs(n, ties, seed=n + 1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # tiny tied inputs skip some resamples
            got = bootstrap_ci(x, y, n_boot=1000, seed=7)
            want = bootstrap_ci_reference(x, y, 1000, seed=7)
        assert got == want


class TestSelectorBaseline:
    @pytest.mark.parametrize("n", [4, 30, 200])
    @pytest.mark.parametrize("ties", [True, False])
    def test_equals_mean_auc_of_each_shuffle(self, n, ties):
        ads, drift = oracle_inputs(n, ties, seed=n + 2)
        assert (selector_baseline(ads, drift, 200, seed=3)
                == selector_baseline_reference(ads, drift, 200, seed=3))

    def test_no_positives_nan(self):
        assert math.isnan(selector_baseline(np.arange(4.0), np.ones(4), 200, seed=0))


class TestDirectionConsistency:
    def test_identical_ordering_is_one(self):
        x = np.array([3.0, 1.0, 2.0, 5.0])
        assert direction_consistency(x, 10 * x) == 1.0

    def test_reversed_ordering_is_zero(self):
        x = np.array([3.0, 1.0, 2.0, 5.0])
        assert direction_consistency(x, -x) == 0.0

    def test_self_consistency(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(30)
        assert direction_consistency(x, x) == 1.0

    def test_random_orderings_near_half(self):
        rng = np.random.default_rng(9)
        vals = [direction_consistency(rng.standard_normal(100), rng.standard_normal(100))
                for _ in range(30)]
        assert 0.45 < np.mean(vals) < 0.55

    def test_ties_excluded(self):
        # one tied pair in x out of 3 pairs; remaining 2 pairs agree
        dc = direction_consistency([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
        assert dc == 1.0

    def test_all_tied_nan(self):
        assert math.isnan(direction_consistency([1.0, 1.0], [2.0, 3.0]))

    def test_tiny_differences_are_not_ties(self):
        # each product of differences underflows to 0, yet every pair is strictly ordered
        x = [0.0, 1e-200, 2e-200]
        assert direction_consistency(x, x) == 1.0
        with pytest.warns(UserWarning, match="degenerate"):  # resamples of one repeated value
            assert bootstrap_ci(x, x, n_boot=1000, seed=0) == (1.0, 1.0)


def test_correlation_report_independent_of_blas_threads():
    """Counts taken by matrix-vector products are exact, so the thread count moves no bit."""
    script = (
        "import numpy as np\n"
        "from adslab.stats import correlation_report\n"
        "rng = np.random.default_rng(11)\n"
        "x = rng.integers(0, 40, size=200).astype(float)\n"
        "y = x + rng.standard_normal(200) * 10\n"
        "rep = correlation_report(x, y, n_perm=999, n_boot=1000, seed=0)\n"
        "print([repr(v) for v in vars(rep).values()])\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300, check=True)
        outs.append(done.stdout)
    assert outs[0] == outs[1]


class TestEce:
    def test_perfectly_calibrated_bin(self):
        conf = np.full(10, 0.8)
        correct = np.array([1, 1, 1, 1, 1, 1, 1, 1, 0, 0], dtype=float)
        assert ece(conf, correct) == pytest.approx(0.0)

    def test_single_bin_hand_value(self):
        conf = np.full(4, 0.9)
        correct = np.array([1.0, 1.0, 0.0, 0.0])
        assert ece(conf, correct) == pytest.approx(0.4)

    def test_one_bin_dataset_exact(self):
        rng = np.random.default_rng(10)
        conf = rng.uniform(0.31, 0.32, size=50)  # all in one bin
        correct = rng.integers(0, 2, size=50).astype(float)
        assert ece(conf, correct) == pytest.approx(abs(conf.mean() - correct.mean()))

    def test_bounded(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            conf = rng.uniform(0, 1, size=100)
            correct = rng.integers(0, 2, size=100).astype(float)
            assert 0.0 <= ece(conf, correct) <= 1.0

    def test_boundary_confidence_one(self):
        assert ece(np.array([1.0, 1.0]), np.array([1.0, 1.0])) == pytest.approx(0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ece(np.array([]), np.array([]))


def make_self_consistent_logits(n=20000, c=5, scale=2.0, seed=0):
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((n, c)) * scale
    probs = softmax(logits)
    u = rng.uniform(size=n)
    labels = (probs.cumsum(axis=1) < u[:, None]).sum(axis=1)
    return logits, labels


class TestPrAnalysis:
    def test_perfect_ranking(self):
        drift = np.arange(20.0)
        scores = np.arange(20.0)  # identical ordering
        rep = pr_analysis(scores, drift)
        assert rep.auc_pr == pytest.approx(1.0)
        assert rep.positive_rate == pytest.approx(0.5)
        for q, p in zip(rep.thresholds, rep.precision):
            if q <= rep.positive_rate:
                assert p == pytest.approx(1.0)

    def test_precision_at_full_threshold_is_positive_rate(self):
        rng = np.random.default_rng(13)
        scores = rng.standard_normal(40)
        drift = rng.standard_normal(40)
        rep = pr_analysis(scores, drift)
        assert rep.precision[-1] == pytest.approx(rep.positive_rate)
        assert rep.recall[-1] == pytest.approx(1.0)

    def test_random_scores_auc_near_half(self):
        rng = np.random.default_rng(14)
        aucs = []
        for _ in range(30):
            scores = rng.standard_normal(100)
            drift = rng.standard_normal(100)
            aucs.append(pr_analysis(scores, drift).auc_pr)
        assert 0.35 < np.mean(aucs) < 0.65

    def test_all_drifts_equal_degenerate(self):
        rep = pr_analysis(np.arange(6.0), np.ones(6))
        assert rep.positive_rate == 0.0  # no drift is below the median of equal drifts
        assert math.isnan(rep.auc_pr)

    def test_average_precision_oracle(self):
        # hand case: scores [1,2,3,4], positives at ranks 1 and 3
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        positive = np.array([True, False, True, False])
        # AP = (1/2) * (1/1 + 2/3)
        assert average_precision(scores, positive) == pytest.approx(0.5 * (1 + 2 / 3))


def test_ece_of_logits_consistency():
    logits, labels = make_self_consistent_logits(n=5000)
    v = ece_of_logits(logits, labels)
    assert 0.0 <= v < 0.1  # self-consistent data is well calibrated
