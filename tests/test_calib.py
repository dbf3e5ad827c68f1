"""Parameter-fitting tests: exact recovery on synthetic traces, invariances."""

import math
from dataclasses import MISSING, fields

import numpy as np
import pytest

from adslab.calib import (
    CalibrationParams,
    calibrate_params,
    fit_depth_profile,
    fit_width_exponents,
    load_profile,
    save_profile,
)
from adslab.clrun import LayerTrace, RunRecord


def make_trace(layer_index, w_in, w_out, rel_change=0.1, mean_abs_cos=0.1):
    return LayerTrace(
        layer_index=layer_index, disp=1.0, pathlen=1.05, c_traj=1.05,
        rel_change=rel_change, mean_abs_cos=mean_abs_cos, gold_spectral=1.0,
        w_in=w_in, w_out=w_out, grad_norm_sum=2.0,
    )


def width_law_traces(alpha, beta, scale=0.01, widths=(64, 128, 256, 512, 1024)):
    rng = np.random.default_rng(0)
    traces = []
    for _ in range(40):
        w_in = int(rng.choice(widths))
        w_out = int(rng.choice(widths))
        rel = scale * w_in**alpha * w_out**beta
        traces.append(make_trace(2, w_in, w_out, rel_change=rel))
    return traces


def depth_profile_traces(b, c, amp=0.5, depth=10):
    return [make_trace(l, 128, 128, mean_abs_cos=amp * l**b * math.exp(-c * l))
            for l in range(1, depth + 1)]


class TestFitWidthExponents:
    def test_exact_recovery_on_noiseless_power_law(self):
        fit = fit_width_exponents(width_law_traces(alpha=0.2, beta=-0.4))
        assert fit.alpha == pytest.approx(0.2, abs=1e-10)
        assert fit.beta == pytest.approx(-0.4, abs=1e-10)
        assert abs(fit.pearson_r) == pytest.approx(1.0, abs=1e-9)

    def test_constant_rel_change_gives_zero_slopes(self):
        traces = [make_trace(2, w_in, w_out, rel_change=0.05)
                  for w_in in (64, 128, 256) for w_out in (64, 128, 256)]
        fit = fit_width_exponents(traces)
        assert fit.alpha == pytest.approx(0.0, abs=1e-9)
        assert fit.beta == pytest.approx(0.0, abs=1e-9)

    def test_all_widths_equal_degenerate(self):
        traces = [make_trace(2, 128, 128, rel_change=0.1 * (i + 1)) for i in range(5)]
        with pytest.raises(ValueError, match="distinct|rank"):
            fit_width_exponents(traces)

    def test_rel_change_scale_only_moves_intercept(self):
        base = width_law_traces(alpha=0.3, beta=-0.2)
        scaled = [make_trace(t.layer_index, t.w_in, t.w_out, rel_change=7.0 * t.rel_change)
                  for t in base]
        f1 = fit_width_exponents(base)
        f2 = fit_width_exponents(scaled)
        assert f2.alpha == pytest.approx(f1.alpha, abs=1e-10)
        assert f2.beta == pytest.approx(f1.beta, abs=1e-10)
        assert f2.intercept == pytest.approx(f1.intercept + math.log(7.0), abs=1e-10)

    def test_order_and_duplication_invariance(self):
        base = width_law_traces(alpha=0.25, beta=-0.35)
        shuffled = list(reversed(base))
        doubled = base + base
        f0, f1, f2 = (fit_width_exponents(t) for t in (base, shuffled, doubled))
        assert f1.alpha == pytest.approx(f0.alpha, abs=1e-12)
        assert f2.alpha == pytest.approx(f0.alpha, abs=1e-12)
        assert f2.beta == pytest.approx(f0.beta, abs=1e-12)

    def test_nonpositive_rel_change_filtered(self):
        traces = width_law_traces(alpha=0.2, beta=-0.4)
        traces.append(make_trace(2, 64, 64, rel_change=0.0))
        fit = fit_width_exponents(traces)
        assert fit.n == len(traces) - 1


class TestFitDepthProfile:
    def test_exact_recovery(self):
        fit = fit_depth_profile(depth_profile_traces(b=2.0, c=0.5))
        assert fit.b == pytest.approx(2.0, abs=1e-10)
        assert fit.c == pytest.approx(0.5, abs=1e-10)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.peak == pytest.approx(4.0, abs=1e-9)

    def test_constant_profile_gives_zero(self):
        traces = [make_trace(l, 128, 128, mean_abs_cos=0.2) for l in range(1, 8)]
        fit = fit_depth_profile(traces)
        assert fit.b == pytest.approx(0.0, abs=1e-9)
        assert fit.c == pytest.approx(0.0, abs=1e-9)

    def test_fitted_peak_matches_argmax_of_fitted_form(self):
        fit = fit_depth_profile(depth_profile_traces(b=1.5, c=0.4))
        grid = np.arange(1, 11, dtype=float)
        argmax = int(grid[np.argmax(grid**fit.b * np.exp(-fit.c * grid))])
        assert argmax == int(np.clip(round(fit.peak), 1, 10))

    def test_amplitude_scale_invariance(self):
        f1 = fit_depth_profile(depth_profile_traces(b=2.0, c=0.5, amp=0.3))
        f2 = fit_depth_profile(depth_profile_traces(b=2.0, c=0.5, amp=0.9))
        assert f2.b == pytest.approx(f1.b, abs=1e-10)
        assert f2.c == pytest.approx(f1.c, abs=1e-10)

    def test_single_layer_index_degenerate(self):
        traces = [make_trace(3, 128, 128, mean_abs_cos=0.1 * (i + 1)) for i in range(5)]
        with pytest.raises(ValueError, match="distinct|rank"):
            fit_depth_profile(traces)

    def test_floor_applied_to_tiny_cosines(self):
        traces = depth_profile_traces(b=2.0, c=0.5)
        traces.append(make_trace(11, 128, 128, mean_abs_cos=0.0))
        fit = fit_depth_profile(traces)
        assert fit.n_floored == 1


def run_from_traces(traces, arch_id="a0", seed=0):
    return RunRecord(
        arch_id=arch_id, scenario_id="sc", seed=seed, observed_shift=1.0,
        layer_traces=traces, task1_eval_acc=1.0, task2_eval_acc=1.0,
        ece_before=0.1, ece_after=0.2, wall_time=0.0,
    )


class TestCalibrateParams:
    def synthetic_runs(self):
        # depth-6 architectures obeying both laws exactly; layer 1 takes the
        # 784-dim input and is excluded from the width fit
        rng = np.random.default_rng(3)
        runs = []
        for k in range(6):
            widths = [784] + [int(rng.choice((64, 128, 256, 512))) for _ in range(6)]
            traces = []
            for l in range(1, 7):
                rel = 0.02 * widths[l - 1]**0.2 * widths[l]**-0.4
                cos = 0.4 * l**2.0 * math.exp(-0.5 * l)
                traces.append(make_trace(l, widths[l - 1], widths[l],
                                         rel_change=rel, mean_abs_cos=cos))
            runs.append(run_from_traces(traces, arch_id=f"a{k}"))
        return runs

    def test_composition_matches_individual_fits(self):
        runs = self.synthetic_runs()
        params = calibrate_params(runs, source="test", params_id="p0")
        assert params.alpha == pytest.approx(0.2, abs=1e-9)
        assert params.beta == pytest.approx(-0.4, abs=1e-9)
        assert params.b == pytest.approx(2.0, abs=1e-9)
        assert params.c == pytest.approx(0.5, abs=1e-9)
        assert params.n_layer_records == 36

    def test_deterministic_given_records(self):
        runs = self.synthetic_runs()
        p1 = calibrate_params(runs)
        p2 = calibrate_params(list(runs))
        assert (p1.alpha, p1.beta, p1.b, p1.c) == (p2.alpha, p2.beta, p2.b, p2.c)

    def test_invalid_runs_excluded(self):
        runs = self.synthetic_runs()
        bad = run_from_traces([], arch_id="bad")
        bad.valid = False
        params = calibrate_params(runs + [bad])
        assert params.n_layer_records == 36


class TestProfiles:
    def test_save_load_round_trip(self, tmp_path):
        p = CalibrationParams(0.21, -0.48, 1.9, 0.52, 0.93, 0.71, 120,
                              source="mf@0.3", params_id="small_shift")
        path = tmp_path / "small_shift.profile"
        save_profile(p, path)
        q = load_profile(path)
        assert (q.alpha, q.beta, q.b, q.c) == (p.alpha, p.beta, p.b, p.c)
        assert q.source == "mf@0.3"
        assert q.n_layer_records == 120

    def test_percent_in_strings_round_trips(self, tmp_path):
        p = CalibrationParams(0.21, -0.48, 1.9, 0.52, 0.93, 0.71, 120,
                              source="m%f@0.3", params_id="shift_100%")
        path = tmp_path / "pct.profile"
        save_profile(p, path)
        q = load_profile(path)
        assert (q.source, q.params_id) == ("m%f@0.3", "shift_100%")

    def test_saved_bytes(self, tmp_path):
        # pins the profile format: sections and keys in PROFILE_KEYS order, floats
        # in full precision, strings literal
        p = CalibrationParams(0.1 + 0.2, -0.48, 2.0, float(np.float64(0.52)), math.nan, 1.0, 120,
                              source="m%f@0.3", params_id="shift_100%")
        save_profile(p, tmp_path / "p.profile")
        assert (tmp_path / "p.profile").read_bytes() == (
            b"[params]\nalpha = 0.30000000000000004\nbeta = -0.48\nb = 2.0\nc = 0.52\n\n"
            b"[fit]\nr2_width = nan\nr2_depth = 1.0\nn_layer_records = 120\n\n"
            b"[provenance]\nsource = m%f@0.3\nparams_id = shift_100%\n\n")

    @pytest.mark.parametrize("name", [f.name for f in fields(CalibrationParams)])
    def test_every_field_round_trips(self, tmp_path, name):
        p = CalibrationParams(0.1 + 0.2, -4.8e-17, 1.9, 0.52, -0.25, math.nan, 7,
                              source="mf@0.3 %(x)s", params_id="f050")
        default = next(f.default for f in fields(p) if f.name == name)
        assert default is MISSING or getattr(p, name) != default, f"{name} is left at its default"
        save_profile(p, tmp_path / "p.profile")
        back = getattr(load_profile(tmp_path / "p.profile"), name)
        assert type(back) is type(getattr(p, name)) and repr(back) == repr(getattr(p, name))

    @pytest.mark.parametrize("anchor,insert,section,key", [
        ("alpha = ", "alhpa = 7\n", "params", "alhpa"),
        ("[fit]", "[extra]\nnote = 1\n\n", "extra", "note"),
    ], ids=["unknown_key", "unknown_section"])
    def test_unknown_key_or_section_refused(self, tmp_path, anchor, insert, section, key):
        path = tmp_path / "p.profile"
        save_profile(CalibrationParams(0.2, -0.4, 2.0, 0.5, 0.9, 0.9, 50), path)
        path.write_text(path.read_text().replace(anchor, insert + anchor, 1))
        with pytest.raises(ValueError) as err:
            load_profile(path)
        assert str(path) in str(err.value)
        assert f"{key!r} in section [{section}]" in str(err.value)

    def test_missing_profile(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope"):
            load_profile(tmp_path / "nope.profile")

    def test_nonfinite_params_rejected(self):
        with pytest.raises(ValueError):
            CalibrationParams(float("nan"), 0.0, 0.0, 0.0, 0.0, 0.0, 3)
