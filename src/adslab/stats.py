"""Rank correlations, permutation/bootstrap inference, calibration metrics,
and the precision/recall selector analysis.

All functions are pure and seed-deterministic. Undefined statistics
(constant inputs, fully tied pairs) come back as NaN rather than raising,
so degenerate runs can be carried through reports and flagged there.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

ECE_BINS = 15


# ---------------------------------------------------------------------------
# rank correlations
# ---------------------------------------------------------------------------

def rankdata(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based), ties share the mean of their rank block."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    ranks = np.empty(len(x))
    sx = x[order]
    i = 0
    while i < len(x):
        j = i
        while j + 1 < len(x) and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc**2).sum() * (yc**2).sum())
    if denom == 0.0:
        return math.nan
    return float((xc * yc).sum() / denom)


def spearman(x, y) -> float:
    """Spearman rank correlation (Pearson of average-tied ranks); NaN if constant."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 3:
        raise ValueError("spearman needs two equal-length vectors with n >= 3")
    return _pearson(rankdata(x), rankdata(y))


def kendall(x, y) -> float:
    """Kendall tau-b (tie-corrected) by O(n^2) pair counting; NaN if constant."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 3:
        raise ValueError("kendall needs two equal-length vectors with n >= 3")
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(len(x), k=1)
    prod = dx[iu] * dy[iu]
    concordant = int((prod > 0).sum())
    discordant = int((prod < 0).sum())
    ties_x = int((dx[iu] == 0).sum())
    ties_y = int((dy[iu] == 0).sum())
    n0 = len(iu[0])
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0.0:
        return math.nan
    return (concordant - discordant) / denom


def perm_p_value(x, y, statistic, n_perm: int = 999, seed: int = 0) -> float:
    """Two-sided permutation p-value: (1 + #{|stat_perm| >= |stat_obs|}) / (n_perm + 1)."""
    if n_perm < 999:
        raise ValueError("n_perm must be >= 999")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    obs = statistic(x, y)
    if math.isnan(obs):
        return math.nan
    rng = np.random.default_rng(seed)
    count = 0
    for _ in range(n_perm):
        s = statistic(x, rng.permutation(y))
        if not math.isnan(s) and abs(s) >= abs(obs):
            count += 1
    return (1 + count) / (n_perm + 1)


def bootstrap_ci(x, y, statistic, n_boot: int = 1000, level: float = 0.95,
                 seed: int = 0) -> tuple[float, float]:
    """Percentile bootstrap interval over paired resamples (NaN resamples skipped)."""
    if n_boot < 1000:
        raise ValueError("n_boot must be >= 1000")
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    rng = np.random.default_rng(seed)
    n = len(x)
    vals = []
    skipped = 0
    for _ in range(n_boot):
        idx = rng.integers(0, n, size=n)
        s = statistic(x[idx], y[idx])
        if math.isnan(s):
            skipped += 1
        else:
            vals.append(s)
    if skipped:
        warnings.warn(f"bootstrap: skipped {skipped} degenerate resamples")
    if not vals:
        return math.nan, math.nan
    alpha = (1.0 - level) / 2.0
    lo, hi = np.quantile(vals, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def concordance_counts(a, b) -> tuple[int, int, int]:
    """Unordered-pair sign agreement counts: (agreeing, disagreeing, tied)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    iu = np.triu_indices(len(a), k=1)
    prod = (a[:, None] - a[None, :])[iu] * (b[:, None] - b[None, :])[iu]
    return int((prod > 0).sum()), int((prod < 0).sum()), int((prod == 0).sum())


def direction_consistency(proxy, shift) -> float:
    """Fraction of pairs whose proxy ordering matches the shift ordering.

    Exact-zero products (ties) are excluded from both sides of the
    fraction; all-tied input is undefined (NaN).
    """
    proxy = np.asarray(proxy, dtype=np.float64)
    shift = np.asarray(shift, dtype=np.float64)
    if len(proxy) != len(shift) or len(proxy) < 2:
        raise ValueError("direction_consistency needs equal-length vectors, n >= 2")
    pos, neg, _ = concordance_counts(proxy, shift)
    if pos + neg == 0:
        return math.nan
    return pos / (pos + neg)


# ---------------------------------------------------------------------------
# calibration metrics
# ---------------------------------------------------------------------------

def ece(confidences, correct, n_bins: int = ECE_BINS) -> float:
    """Expected calibration error over equal-width confidence bins."""
    conf = np.asarray(confidences, dtype=np.float64)
    corr = np.asarray(correct, dtype=np.float64)
    if conf.size == 0:
        raise ValueError("empty input")
    if conf.min() < 0.0 or conf.max() > 1.0:
        raise ValueError("confidences must lie in [0, 1]")
    idx = np.minimum((conf * n_bins).astype(int), n_bins - 1)
    total = 0.0
    n = conf.size
    for b in range(n_bins):
        mask = idx == b
        k = int(mask.sum())
        if k == 0:
            continue
        total += (k / n) * abs(conf[mask].mean() - corr[mask].mean())
    return float(total)


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def ece_of_logits(logits: np.ndarray, labels: np.ndarray, n_bins: int = ECE_BINS) -> float:
    probs = softmax(logits)
    conf = probs.max(axis=1)
    correct = probs.argmax(axis=1) == labels
    return ece(conf, correct, n_bins)


# ---------------------------------------------------------------------------
# selector analysis
# ---------------------------------------------------------------------------

DEFAULT_Q_GRID = tuple(np.round(np.linspace(0.05, 1.0, 20), 4))


@dataclass
class SelectorReport:
    thresholds: np.ndarray       # selected lowest-score fractions q
    precision: np.ndarray
    recall: np.ndarray
    auc_pr: float
    positive_rate: float
    degenerate: bool = False


@dataclass
class CorrelationReport:
    spearman: float
    kendall: float
    dc: float
    p_value: float
    ci_low: float
    ci_high: float
    n: int


def average_precision(scores: np.ndarray, positive: np.ndarray) -> float:
    """Step-interpolated area under PR over the full low-score-first ranking."""
    order = np.argsort(scores, kind="stable")
    pos_sorted = positive[order]
    n_pos = int(positive.sum())
    if n_pos == 0:
        return math.nan
    tp = np.cumsum(pos_sorted)
    ranks = np.arange(1, len(scores) + 1)
    precision_at = tp / ranks
    return float((precision_at * pos_sorted).sum() / n_pos)


def pr_analysis(scores, ece_drift, q_grid=DEFAULT_Q_GRID) -> SelectorReport:
    """Selector evaluation: low score predicts drift below the cohort median."""
    scores = np.asarray(scores, dtype=np.float64)
    drift = np.asarray(ece_drift, dtype=np.float64)
    if len(scores) != len(drift) or len(scores) < 4:
        raise ValueError("pr_analysis needs equal-length vectors with n >= 4")
    positive = drift < np.median(drift)
    n = len(scores)
    n_pos = int(positive.sum())
    if n_pos == 0:
        return SelectorReport(np.asarray(q_grid), np.full(len(q_grid), math.nan),
                              np.full(len(q_grid), math.nan), math.nan, 0.0, degenerate=True)
    order = np.argsort(scores, kind="stable")
    precision = np.empty(len(q_grid))
    recall = np.empty(len(q_grid))
    for i, q in enumerate(q_grid):
        k = max(1, int(round(q * n)))
        sel = order[:k]
        tp = int(positive[sel].sum())
        precision[i] = tp / k
        recall[i] = tp / n_pos
    return SelectorReport(
        thresholds=np.asarray(q_grid, dtype=np.float64),
        precision=precision,
        recall=recall,
        auc_pr=average_precision(scores, positive),
        positive_rate=n_pos / n,
    )


def correlation_report(proxy, shift, n_perm: int, n_boot: int,
                       seed: int) -> CorrelationReport:
    """Full rank-agreement report: Spearman + permutation p, Kendall, DC + bootstrap CI."""
    proxy = np.asarray(proxy, dtype=np.float64)
    shift = np.asarray(shift, dtype=np.float64)
    rs = spearman(proxy, shift)
    rk = kendall(proxy, shift)
    dc = direction_consistency(proxy, shift)
    p = perm_p_value(proxy, shift, spearman, n_perm=n_perm, seed=seed)
    lo, hi = bootstrap_ci(proxy, shift, direction_consistency, n_boot=n_boot, seed=seed + 1)
    return CorrelationReport(rs, rk, dc, p, lo, hi, len(proxy))
