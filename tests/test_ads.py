"""Proxy-score tests: hand cases, independent term recomputation, shape laws."""

import dataclasses
import math

import numpy as np
import pytest

from adslab.ads import compute_ads, layer_term
from adslab.calib import CalibrationParams
from adslab.nncore import ArchitectureSpec


def params(alpha=0.0, beta=0.0, b=0.0, c=0.0, pid="t"):
    return CalibrationParams(alpha, beta, b, c, 1.0, 1.0, 10, params_id=pid)


class TestComputeAds:
    def test_single_layer_collapsed_exponents(self):
        spec = ArchitectureSpec(1, (4, 9, 3))
        score = compute_ads(spec, params())
        assert score.value == pytest.approx(2.0, abs=1e-12)  # 4^0.5

    def test_two_layer_hand_case(self):
        spec = ArchitectureSpec(2, (4, 4, 4, 3))
        score = compute_ads(spec, params(b=1.0))
        assert score.per_layer_terms[0] == pytest.approx(2.0, abs=1e-12)
        assert score.per_layer_terms[1] == pytest.approx(4.0, abs=1e-12)
        assert score.value == pytest.approx(6.0, abs=1e-12)

    def test_matches_scalar_recomputation(self):
        spec = ArchitectureSpec(3, (784, 256, 512, 128, 10))
        p = params(alpha=0.2, beta=-0.4, b=2.0, c=0.5)
        score = compute_ads(spec, p)
        widths = spec.widths
        expected_terms = []
        for l in (1, 2, 3):
            t = widths[l - 1] ** 0.7 * widths[l] ** -0.4 * abs(l**2.0 * math.exp(-0.5 * l))
            expected_terms.append(t)
        for got, want in zip(score.per_layer_terms, expected_terms):
            assert got == pytest.approx(want, rel=1e-12)
        assert score.value == pytest.approx(sum(expected_terms), rel=1e-12)

    def test_value_is_term_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            depth = int(rng.integers(1, 8))
            widths = (784,) + tuple(int(w) for w in rng.choice((64, 128, 256), depth)) + (10,)
            spec = ArchitectureSpec(depth, widths)
            p = params(alpha=float(rng.uniform(-0.3, 0.5)), beta=float(rng.uniform(-0.6, 0.2)),
                       b=float(rng.uniform(0, 2)), c=float(rng.uniform(0, 1)))
            score = compute_ads(spec, p)
            assert score.value == pytest.approx(sum(score.per_layer_terms), rel=1e-12)
            assert all(t >= 0 for t in score.per_layer_terms)

    def test_positivity(self):
        spec = ArchitectureSpec(4, (12, 3, 5, 2, 7, 4))
        assert compute_ads(spec, params(alpha=-0.9, beta=-2.0, b=3.0, c=2.0)).value > 0

    def test_invalid_spec_rejected(self):
        # refused when built, so compute_ads never sees one
        with pytest.raises(ValueError, match="width must be >= 1"):
            ArchitectureSpec(1, (4, 0, 3))

    def test_nonfinite_params_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            params(alpha=math.inf)
        p = params()
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.alpha = math.inf  # no corrupting after construction either


class TestShapeProperties:
    def test_monotone_increase_with_positive_exponents(self):
        p = params(alpha=0.1, beta=0.2, b=0.0, c=0.0)
        base = ArchitectureSpec(3, (64, 32, 32, 32, 10))
        v0 = compute_ads(base, p).value
        for l in (1, 2, 3):
            widths = list(base.widths)
            widths[l] *= 2
            v = compute_ads(ArchitectureSpec(3, tuple(widths)), p).value
            assert v > v0

    def test_negative_beta_decreases_own_term_only(self):
        p = params(alpha=0.1, beta=-0.5, b=0.0, c=0.0)
        base = ArchitectureSpec(3, (64, 32, 32, 32, 10))
        t0 = compute_ads(base, p).per_layer_terms
        widths = list(base.widths)
        widths[2] *= 4  # w^(2): appears in term 2 via beta, term 3 via alpha+1/2
        t1 = compute_ads(ArchitectureSpec(3, tuple(widths)), p).per_layer_terms
        assert t1[1] < t0[1]          # beta slot shrinks
        assert t1[2] > t0[2]          # alpha+1/2 slot of the next term grows
        assert t1[0] == pytest.approx(t0[0], rel=1e-15)  # untouched term unchanged

    def test_interior_peak_with_uniform_widths(self):
        p = params(alpha=0.0, beta=0.0, b=2.0, c=0.5)
        spec = ArchitectureSpec(10, (64,) + (128,) * 10 + (10,))
        terms = compute_ads(spec, p).per_layer_terms[1:]  # drop the input-dim term
        grid = np.arange(2, 11, dtype=float)
        expected = int(grid[np.argmax(grid**2.0 * np.exp(-0.5 * grid))])
        assert int(np.argmax(terms)) + 2 == expected
        assert 1 < expected < 10

    def test_topology_tag_irrelevant(self):
        p = params(alpha=0.2, beta=-0.3, b=1.0, c=0.2)
        a = ArchitectureSpec(3, (784, 128, 256, 64, 10), topology_tag="random")
        b = ArchitectureSpec(3, (784, 128, 256, 64, 10), topology_tag="bottleneck")
        assert compute_ads(a, p).value == compute_ads(b, p).value

    def test_layer_term_helper_consistent(self):
        p = params(alpha=0.15, beta=-0.25, b=0.8, c=0.1)
        spec = ArchitectureSpec(2, (100, 20, 30, 5))
        score = compute_ads(spec, p)
        assert score.per_layer_terms[0] == pytest.approx(layer_term(100, 20, 1, p), rel=1e-15)
        assert score.per_layer_terms[1] == pytest.approx(layer_term(20, 30, 2, p), rel=1e-15)
