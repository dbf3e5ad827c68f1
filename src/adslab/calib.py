"""Fitting the four proxy parameters (alpha, beta, b, c) from layer traces.

Both fits are ordinary least squares on log-transformed trace
quantities and are exact on noiseless data drawn from their own model
class:

  width law:   log(rel_change) ~ 1 + alpha * log(w_in) + beta * log(w_out)
  depth law:   log(mean_abs_cos) ~ 1 + b * log(l) + c * (-l)

The width fit uses only layers whose input AND output widths are hidden
widths (layer index >= 2), mirroring how the scaling law is stated over
the hidden stack. Profiles are INI files with the same reader and writer
as ``experiment.ini`` (``files.read_ini``, ``write_ini``), so a missing
or unknown key or section is refused; an experiment's ``[calib] profile``
key is the path of a preset profile, copied into the experiment as
``params/preset.profile`` and scoring every scenario in place of a fit,
which is how the "small shift" / "large shift" transfer presets work.
``CalibrationParams`` is frozen, refuses a non-finite parameter, and holds
only values its profile reads back equal (``files.check_fields``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .clrun import LayerTrace, RunRecord
from .files import check_fields, field_types, parse_section, read_ini, write_ini

COS_LOG_FLOOR = 1e-8


@dataclass(frozen=True)
class CalibrationParams:
    alpha: float
    beta: float
    b: float
    c: float
    fit_r2_width: float
    fit_r2_depth: float
    n_layer_records: int
    source: str = ""
    params_id: str = "params"

    def __post_init__(self):
        check_fields(self)
        for name in ("alpha", "beta", "b", "c"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"non-finite calibration parameter {name}")


@dataclass
class WidthFit:
    alpha: float
    beta: float
    intercept: float
    se_alpha: float
    se_beta: float
    pearson_r: float
    r2: float
    n: int


@dataclass
class DepthFit:
    b: float
    c: float
    intercept: float
    r2: float
    n: int
    n_floored: int
    peak: float  # predicted interior peak b/c (NaN unless both positive)


def _ols(design: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Least squares with coefficient standard errors and R^2."""
    n, k = design.shape
    if np.linalg.matrix_rank(design) < k:
        raise ValueError("rank-deficient design matrix (degenerate regressors)")
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    rss = float(resid @ resid)
    tss = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 - rss / tss if tss > 0 else 1.0
    dof = max(n - k, 1)
    sigma2 = rss / dof
    cov = sigma2 * np.linalg.inv(design.T @ design)
    se = np.sqrt(np.diag(cov))
    return coef, se, r2


def fit_width_exponents(records: list[LayerTrace]) -> WidthFit:
    """Log-log OLS of relative weight change on input/output layer widths."""
    recs = [t for t in records if t.rel_change > 0 and math.isfinite(t.rel_change)]
    if len(recs) < 3:
        raise ValueError(f"need >= 3 usable records, got {len(recs)}")
    pairs = {(t.w_in, t.w_out) for t in recs}
    if len(pairs) < 3:
        raise ValueError("need >= 3 distinct (w_in, w_out) pairs")
    y = np.log([t.rel_change for t in recs])
    design = np.column_stack([
        np.ones(len(recs)),
        np.log([t.w_in for t in recs]),
        np.log([t.w_out for t in recs]),
    ])
    coef, se, r2 = _ols(design, y)
    fitted = design @ coef
    fc = fitted - fitted.mean()
    yc = y - y.mean()
    denom = math.sqrt(float((fc**2).sum() * (yc**2).sum()))
    pearson = float((fc * yc).sum() / denom) if denom > 0 else 1.0
    return WidthFit(
        alpha=float(coef[1]), beta=float(coef[2]), intercept=float(coef[0]),
        se_alpha=float(se[1]), se_beta=float(se[2]),
        pearson_r=pearson, r2=r2, n=len(recs),
    )


def fit_depth_profile(records: list[LayerTrace]) -> DepthFit:
    """OLS of log |cos| on [1, log l, -l]; recovers the l^b e^(-cl) profile."""
    recs = [t for t in records if math.isfinite(t.mean_abs_cos)]
    if len(recs) < 3:
        raise ValueError(f"need >= 3 usable records, got {len(recs)}")
    layer_ids = {t.layer_index for t in recs}
    if len(layer_ids) < 3:
        raise ValueError("need >= 3 distinct layer indices")
    vals = np.array([t.mean_abs_cos for t in recs])
    n_floored = int((vals < COS_LOG_FLOOR).sum())
    y = np.log(np.maximum(vals, COS_LOG_FLOOR))
    ls = np.array([t.layer_index for t in recs], dtype=np.float64)
    design = np.column_stack([np.ones(len(recs)), np.log(ls), -ls])
    coef, _, r2 = _ols(design, y)
    b, c = float(coef[1]), float(coef[2])
    peak = b / c if (b > 0 and c > 0) else math.nan
    return DepthFit(b=b, c=c, intercept=float(coef[0]), r2=r2,
                    n=len(recs), n_floored=n_floored, peak=peak)


def pooled_traces(runs: list[RunRecord]) -> list[LayerTrace]:
    out = []
    for run in runs:
        if run.valid:
            out.extend(run.layer_traces)
    return out


def calibrate_params(calib_runs: list[RunRecord], source: str = "",
                     params_id: str = "params") -> CalibrationParams:
    """Pool traces across calibration runs and fit both parameter pairs."""
    traces = pooled_traces(calib_runs)
    if not traces:
        raise ValueError("no valid calibration runs")
    width_records = [t for t in traces if t.layer_index >= 2]
    wfit = fit_width_exponents(width_records)
    dfit = fit_depth_profile(traces)
    return CalibrationParams(
        alpha=wfit.alpha, beta=wfit.beta, b=dfit.b, c=dfit.c,
        fit_r2_width=wfit.r2, fit_r2_depth=dfit.r2,
        n_layer_records=len(traces), source=source, params_id=params_id,
    )


# ---------------------------------------------------------------------------
# parameter profiles on disk
# ---------------------------------------------------------------------------

# (section, key) of every CalibrationParams field in a profile file, in file order
PROFILE_KEYS = {
    "alpha": ("params", "alpha"), "beta": ("params", "beta"),
    "b": ("params", "b"), "c": ("params", "c"),
    "fit_r2_width": ("fit", "r2_width"), "fit_r2_depth": ("fit", "r2_depth"),
    "n_layer_records": ("fit", "n_layer_records"),
    "source": ("provenance", "source"), "params_id": ("provenance", "params_id"),
}


def save_profile(params: CalibrationParams, path) -> None:
    sections: dict = {}
    for name, (section, key) in PROFILE_KEYS.items():
        sections.setdefault(section, {})[key] = getattr(params, name)
    write_ini(path, sections)


def load_profile(path) -> CalibrationParams:
    """The profile in an INI file; a bad file or value raises ValueError naming the file."""
    return read_ini(path, _profile_from_sections)


def _profile_from_sections(sections: dict) -> CalibrationParams:
    hints = field_types(CalibrationParams)
    values = {}
    for section, items in sections.items():
        values |= parse_section(section, items, PROFILE_KEYS, hints)
    for name, (section, key) in PROFILE_KEYS.items():
        if name not in values:
            raise ValueError(f"missing key {key!r} in section [{section}]")
    return CalibrationParams(**values)
