"""Rank correlations, permutation/bootstrap inference, calibration metrics,
and the precision/recall selector analysis.

The permutation p-value is Spearman's, taken by permuting ranks computed
once; the bootstrap interval is direction consistency's, taken from each
resample's draw counts over one pair-sign matrix. A tie is an equal value.

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
CI_LEVEL = 0.95
MIN_PERM = 999    # fewest permutations for a p-value
MIN_BOOT = 1000   # fewest bootstrap resamples for an interval


# ---------------------------------------------------------------------------
# rank correlations
# ---------------------------------------------------------------------------

def _paired(x, y, name: str, min_n: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < min_n:
        raise ValueError(f"{name} needs two equal-length vectors with n >= {min_n}")
    return x, y


def rankdata(x: np.ndarray) -> np.ndarray:
    """Average ranks (1-based); a run of equal values shares the mean of its rank block."""
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, kind="stable")
    sx = x[order]
    is_start = np.concatenate(([True], sx[1:] != sx[:-1]))
    starts = np.flatnonzero(is_start)
    ends = np.append(starts[1:], len(x)) - 1
    ranks = np.empty(len(x))
    ranks[order] = (0.5 * (starts + ends) + 1.0)[np.cumsum(is_start) - 1]
    return ranks


def _pearson(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt((xc**2).sum() * (yc**2).sum())
    if denom == 0.0:
        return math.nan
    return float((xc * yc).sum() / denom)


def _pair_signs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sign(x_i - x_j) * sign(y_i - y_j) for all i, j: each unordered pair appears twice."""
    return np.sign(x[:, None] - x[None, :]) * np.sign(y[:, None] - y[None, :])


def _tied_pairs(x: np.ndarray) -> int:
    _, counts = np.unique(x, return_counts=True, equal_nan=False)
    return int((counts * (counts - 1) // 2).sum())


def spearman(x, y) -> float:
    """Spearman rank correlation (Pearson of average-tied ranks); NaN if constant."""
    x, y = _paired(x, y, "spearman", 3)
    return _pearson(rankdata(x), rankdata(y))


def kendall(x, y) -> float:
    """Kendall tau-b (tie-corrected) by O(n^2) pair counting; NaN if constant."""
    x, y = _paired(x, y, "kendall", 3)
    signs = _pair_signs(x, y)
    concordant = int((signs > 0).sum()) // 2
    discordant = int((signs < 0).sum()) // 2
    n0 = len(x) * (len(x) - 1) // 2
    denom = math.sqrt((n0 - _tied_pairs(x)) * (n0 - _tied_pairs(y)))
    if denom == 0.0:
        return math.nan
    return (concordant - discordant) / denom


def direction_consistency(proxy, shift) -> float:
    """Fraction of pairs whose proxy ordering matches the shift ordering.

    A pair is tied when its two values are equal in either vector; tied
    pairs are excluded from both sides of the fraction, and all-tied input
    is undefined (NaN).
    """
    signs = _pair_signs(*_paired(proxy, shift, "direction_consistency", 2))
    pos = int((signs > 0).sum())
    neg = int((signs < 0).sum())
    if pos + neg == 0:
        return math.nan
    return pos / (pos + neg)


def perm_p_value(x, y, n_perm: int, seed: int) -> float:
    """Two-sided permutation p-value of Spearman's r_s.

    (1 + #{|r_perm| >= |r_obs|}) / (n_perm + 1), where each r_perm pairs the
    ranks of x with a permutation of the ranks of y: both are ranked once.
    """
    if n_perm < MIN_PERM:
        raise ValueError(f"n_perm must be >= {MIN_PERM}")
    x, y = _paired(x, y, "perm_p_value", 3)
    rx, ry = rankdata(x), rankdata(y)
    obs = abs(_pearson(rx, ry))
    if math.isnan(obs):
        return math.nan
    rng = np.random.default_rng(seed)
    count = sum(abs(_pearson(rx, rng.permutation(ry))) >= obs for _ in range(n_perm))
    return (1 + count) / (n_perm + 1)


def bootstrap_ci(proxy, shift, n_boot: int, seed: int) -> tuple[float, float]:
    """Percentile bootstrap interval of direction consistency over paired resamples.

    The pairs are compared once. A resample that draws item i c_i times has
    c @ agree @ c agreeing ordered pairs (and likewise disagreeing ones);
    these are sums of integers below 2**53, so exact under any BLAS
    blocking. Resamples whose pairs are all tied are skipped.
    """
    if n_boot < MIN_BOOT:
        raise ValueError(f"n_boot must be >= {MIN_BOOT}")
    signs = _pair_signs(*_paired(proxy, shift, "bootstrap_ci", 2))
    agree = (signs > 0).astype(np.float64)
    disagree = (signs < 0).astype(np.float64)
    n = len(agree)
    rng = np.random.default_rng(seed)
    vals = []
    skipped = 0
    for _ in range(n_boot):
        c = np.bincount(rng.integers(0, n, size=n), minlength=n).astype(np.float64)
        pos = c @ agree @ c
        neg = c @ disagree @ c
        if pos + neg == 0:
            skipped += 1
        else:
            vals.append(pos / (pos + neg))
    if skipped:
        warnings.warn(f"bootstrap: skipped {skipped} degenerate resamples")
    if not vals:
        return math.nan, math.nan
    alpha = (1.0 - CI_LEVEL) / 2.0
    lo, hi = np.quantile(vals, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# calibration metrics
# ---------------------------------------------------------------------------

def ece(confidences, correct) -> float:
    """Expected calibration error over equal-width confidence bins."""
    conf = np.asarray(confidences, dtype=np.float64)
    corr = np.asarray(correct, dtype=np.float64)
    if conf.size == 0:
        raise ValueError("empty input")
    if conf.min() < 0.0 or conf.max() > 1.0:
        raise ValueError("confidences must lie in [0, 1]")
    idx = np.minimum((conf * ECE_BINS).astype(int), ECE_BINS - 1)
    total = 0.0
    n = conf.size
    for b in range(ECE_BINS):
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


def ece_of_logits(logits: np.ndarray, labels: np.ndarray) -> float:
    probs = softmax(logits)
    conf = probs.max(axis=1)
    correct = probs.argmax(axis=1) == labels
    return ece(conf, correct)


# ---------------------------------------------------------------------------
# selector analysis
# ---------------------------------------------------------------------------

Q_GRID = tuple(np.round(np.linspace(0.05, 1.0, 20), 4))


@dataclass
class SelectorReport:
    thresholds: np.ndarray       # selected lowest-score fractions q
    precision: np.ndarray
    recall: np.ndarray
    auc_pr: float
    positive_rate: float


@dataclass
class CorrelationReport:
    spearman: float
    kendall: float
    dc: float
    p_value: float
    ci_low: float
    ci_high: float


def low_drift(ece_drift: np.ndarray) -> np.ndarray:
    """The selector's positives: architectures whose drift is below the cohort median."""
    return ece_drift < np.median(ece_drift)


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


def pr_analysis(scores, ece_drift) -> SelectorReport:
    """Selector evaluation: low score predicts drift below the cohort median."""
    scores, drift = _paired(scores, ece_drift, "pr_analysis", 4)
    positive = low_drift(drift)
    n = len(scores)
    n_pos = int(positive.sum())
    thresholds = np.asarray(Q_GRID, dtype=np.float64)
    if n_pos == 0:
        return SelectorReport(thresholds, np.full(len(Q_GRID), math.nan),
                              np.full(len(Q_GRID), math.nan), math.nan, 0.0)
    order = np.argsort(scores, kind="stable")
    precision = np.empty(len(Q_GRID))
    recall = np.empty(len(Q_GRID))
    for i, q in enumerate(Q_GRID):
        k = max(1, int(round(q * n)))
        sel = order[:k]
        tp = int(positive[sel].sum())
        precision[i] = tp / k
        recall[i] = tp / n_pos
    return SelectorReport(
        thresholds=thresholds,
        precision=precision,
        recall=recall,
        auc_pr=average_precision(scores, positive),
        positive_rate=n_pos / n,
    )


def correlation_report(proxy, shift, n_perm: int, n_boot: int,
                       seed: int) -> CorrelationReport:
    """Full rank-agreement report: Spearman + permutation p, Kendall, DC + bootstrap CI."""
    rs = spearman(proxy, shift)
    rk = kendall(proxy, shift)
    dc = direction_consistency(proxy, shift)
    p = perm_p_value(proxy, shift, n_perm=n_perm, seed=seed)
    lo, hi = bootstrap_ci(proxy, shift, n_boot=n_boot, seed=seed + 1)
    return CorrelationReport(rs, rk, dc, p, lo, hi)
