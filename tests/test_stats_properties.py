"""The rank statistics as properties: agreement with scipy on heavily tied
draws, invariance, symmetry and sign, and the selector's precision and recall."""

import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given
from hypothesis import strategies as st

from adslab.stats import direction_consistency, kendall, pr_analysis, spearman

# few distinct values, so most draws hold many ties; ±inf stays ordered
TIED = st.sampled_from([-np.inf, -2.0, 0.0, 0.5, 1.0, 3.0, np.inf])
WIDE = st.floats(allow_nan=False)


@st.composite
def pairs(draw, values=TIED, min_n=3):
    n = draw(st.integers(min_n, 40))
    x = draw(st.lists(values, min_size=n, max_size=n))
    y = draw(st.lists(values, min_size=n, max_size=n))
    return np.array(x), np.array(y)


@st.composite
def increasing_map(draw, v):
    """``v`` under a strictly increasing map drawn at random: its distinct values
    go, in order, to cumulative sums of positive steps."""
    distinct = np.unique(v)
    steps = draw(st.lists(st.floats(0.5, 1e6), min_size=len(distinct), max_size=len(distinct)))
    return np.cumsum(steps)[np.searchsorted(distinct, v)]


def same(a: float, b: float) -> bool:
    return a == b or math.isnan(a) and math.isnan(b)


def assert_ulp_close(got, want, ulp=4):
    if math.isnan(want):
        assert math.isnan(got)
    else:
        np.testing.assert_array_max_ulp(got, want, maxulp=ulp)


@given(xy=pairs(values=TIED.filter(math.isfinite)))
def test_spearman_and_kendall_match_scipy(xy):
    x, y = xy
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on a constant input, then gives NaN
        want_rs = scipy.stats.spearmanr(x, y).statistic
        want_tau = scipy.stats.kendalltau(x, y, variant="b").statistic
    assert_ulp_close(spearman(x, y), want_rs)
    assert_ulp_close(kendall(x, y), want_tau)


STATISTICS = [spearman, kendall, direction_consistency]


@pytest.mark.parametrize("statistic", STATISTICS)
@given(xy=pairs(), data=st.data())
def test_unchanged_under_an_increasing_map_of_either_input(statistic, xy, data):
    x, y = xy
    want = statistic(x, y)
    for got in (statistic(data.draw(increasing_map(x)), y),
                statistic(x, data.draw(increasing_map(y)))):
        assert same(got, want)


@pytest.mark.parametrize("statistic", STATISTICS)
@given(xy=pairs(values=TIED | WIDE))
def test_symmetric_and_sign_flips_under_negation(statistic, xy):
    x, y = xy
    value = statistic(x, y)
    flipped = statistic(-x, y)
    assert same(statistic(y, x), value)
    if statistic is direction_consistency:  # the share of agreeing pairs: 2 dc - 1 flips
        assert flipped == pytest.approx(1.0 - value, abs=1e-15, nan_ok=True)
    else:
        assert same(flipped, -value)


@given(xy=pairs(values=TIED.filter(math.isfinite) | WIDE, min_n=4))
def test_selector_precision_and_recall(xy):
    scores, drift = xy
    rep = pr_analysis(scores, drift)
    if rep.positive_rate == 0:
        assert np.isnan(rep.precision).all() and np.isnan(rep.recall).all()
        return
    for curve in (rep.precision, rep.recall):
        assert ((0.0 <= curve) & (curve <= 1.0)).all()
    assert (np.diff(rep.recall) >= 0).all()
