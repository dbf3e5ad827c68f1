"""Rank correlations, permutation/bootstrap inference, calibration metrics,
and the precision/recall selector analysis, whose precisions, recalls and
AUC-PR all read one running count of positives over one stable sort.

The permutation p-value is Spearman's, taken by permuting ranks computed
once; the bootstrap interval is direction consistency's, taken from each
resample's draw counts over the product of the two pair-order matrices.
Both draw resamples one by one and score them a block at a time with exact
sums, so the same bits come under any BLAS blocking or thread count. A tie
is an equal value, and every statistic refuses NaN input (±inf is ordered).

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
RESAMPLE_BLOCK = 64  # resamples scored per matrix product


# ---------------------------------------------------------------------------
# rank correlations
# ---------------------------------------------------------------------------

def _paired(x, y, name: str, min_n: int) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y) or len(x) < min_n:
        raise ValueError(f"{name} needs two equal-length 1-D vectors with n >= {min_n}")
    if np.isnan(x).any() or np.isnan(y).any():
        raise ValueError(f"{name} is undefined on NaN input")
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


def _orders(v: np.ndarray) -> np.ndarray:
    """sign(v_i - v_j) for all i, j as int8, 0 for a tie: each unordered pair appears twice."""
    return np.greater.outer(v, v).view(np.int8) - np.less.outer(v, v).view(np.int8)


def spearman(x, y) -> float:
    """Spearman rank correlation (Pearson of average-tied ranks); NaN if constant."""
    x, y = _paired(x, y, "spearman", 3)
    return _pearson(rankdata(x), rankdata(y))


def kendall(x, y) -> float:
    """Kendall tau-b: the cosine of the two pair-order matrices; NaN if constant.

    Each unordered pair appears twice, so the numerator is 2(C - D) and each
    count of non-zeros 2(n0 - t). For n <= 9000 every count product is below
    2**53, the factors of 2 cancel exactly, and this is the float of
    (C - D) / sqrt((n0 - t_x)(n0 - t_y)).
    """
    x, y = _paired(x, y, "kendall", 3)
    sx, sy = _orders(x), _orders(y)
    denom = math.sqrt(np.count_nonzero(sx) * np.count_nonzero(sy))
    if denom == 0.0:
        return math.nan
    return int((sx * sy).sum()) / denom


def direction_consistency(proxy, shift) -> float:
    """Fraction of pairs whose proxy ordering matches the shift ordering.

    A pair is tied when its two values are equal in either vector; tied
    pairs are excluded from both sides of the fraction, and all-tied input
    is undefined (NaN).
    """
    x, y = _paired(proxy, shift, "direction_consistency", 2)
    s = _orders(x) * _orders(y)
    pos = int((s > 0).sum())
    neg = int((s < 0).sum())
    if pos + neg == 0:
        return math.nan
    return pos / (pos + neg)


def perm_p_value(x, y, n_perm: int, seed: int) -> float:
    """Two-sided permutation p-value of Spearman's r_s.

    (1 + #{|r_perm| >= |r_obs|}) / (n_perm + 1), where each r_perm pairs the
    ranks of x with a permutation of the ranks of y: both are ranked once.
    Permutations are scored RESAMPLE_BLOCK at a time. Average ranks sum to
    n(n+1)/2, so centred ranks are multiples of 1/2 and their products of
    1/4: for n <= 2**17 each sum is exact in any order, and r_perm is the
    float ``_pearson`` returns for that permutation.
    """
    if n_perm < MIN_PERM:
        raise ValueError(f"n_perm must be >= {MIN_PERM}")
    x, y = _paired(x, y, "perm_p_value", 3)
    rx, ry = rankdata(x), rankdata(y)
    obs = abs(_pearson(rx, ry))
    if math.isnan(obs):
        return math.nan
    xc = rx - rx.mean()
    sxx = (xc**2).sum()
    rng = np.random.default_rng(seed)
    count = 0
    for start in range(0, n_perm, RESAMPLE_BLOCK):
        yc = np.stack([rng.permutation(ry) for _ in range(min(RESAMPLE_BLOCK, n_perm - start))])
        yc -= yc.mean(axis=1, keepdims=True)
        r = (yc @ xc) / np.sqrt(sxx * (yc**2).sum(axis=1))
        count += int((np.abs(r) >= obs).sum())
    return (1 + count) / (n_perm + 1)


def bootstrap_ci(proxy, shift, n_boot: int, seed: int) -> tuple[float, float]:
    """Percentile bootstrap interval of direction consistency over paired resamples.

    The pairs are compared once. A resample that draws item i c_i times has
    c @ agree @ c agreeing ordered pairs (and likewise disagreeing ones), a
    sum of integers at most n**2 < 2**53, exact in any order; so resamples are
    scored RESAMPLE_BLOCK at a time. Resamples whose pairs are all tied are skipped.
    """
    if n_boot < MIN_BOOT:
        raise ValueError(f"n_boot must be >= {MIN_BOOT}")
    x, y = _paired(proxy, shift, "bootstrap_ci", 2)
    s = _orders(x) * _orders(y)
    agree = (s > 0).astype(np.float64)
    disagree = (s < 0).astype(np.float64)
    del s  # the loop holds only the two float64 matrices it multiplies
    n = len(agree)
    rng = np.random.default_rng(seed)
    vals = []
    skipped = 0
    for start in range(0, n_boot, RESAMPLE_BLOCK):
        c = np.stack([np.bincount(rng.integers(0, n, size=n), minlength=n)
                      for _ in range(min(RESAMPLE_BLOCK, n_boot - start))]).astype(np.float64)
        pos = ((c @ agree) * c).sum(axis=1)
        neg = ((c @ disagree) * c).sum(axis=1)
        kept = pos + neg != 0
        skipped += int((~kept).sum())
        vals.extend(pos[kept] / (pos[kept] + neg[kept]))
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


def _auc_pr(ranked: np.ndarray, tp: np.ndarray) -> float:
    """Step-interpolated area under PR from the positive flags in ranking order and
    their running count; NaN when there is no positive."""
    n_pos = int(ranked.sum())
    if n_pos == 0:
        return math.nan
    precision_at = tp / np.arange(1, len(tp) + 1)
    return float((precision_at * ranked).sum() / n_pos)


def average_precision(scores: np.ndarray, positive: np.ndarray) -> float:
    """Step-interpolated area under PR over the full low-score-first ranking."""
    ranked = positive[np.argsort(scores, kind="stable")]
    return _auc_pr(ranked, np.cumsum(ranked))


def pr_analysis(scores, ece_drift) -> SelectorReport:
    """Selector evaluation: low score predicts drift below the cohort median."""
    scores, drift = _paired(scores, ece_drift, "pr_analysis", 4)
    ranked = low_drift(drift)[np.argsort(scores, kind="stable")]
    tp = np.cumsum(ranked)  # tp[k - 1]: positives among the k lowest
    n, n_pos = len(tp), int(tp[-1])
    ks = np.array([max(1, int(round(q * n))) for q in Q_GRID])
    hits = tp[ks - 1] if n_pos else np.full(len(ks), math.nan)
    return SelectorReport(
        thresholds=np.asarray(Q_GRID, dtype=np.float64),
        precision=hits / ks,
        recall=hits / n_pos,
        auc_pr=_auc_pr(ranked, tp),
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
