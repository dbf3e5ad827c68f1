"""Output checks, the records digest, pinned report numbers and the
environment block printed with every result."""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import sys

import numpy as np

from adslab.clrun import read_records

# report numbers must match the pinned ones this closely: a wrong result
# moves them far more, reordering a float sum moves them far less
REL_TOL = 1e-6
ABS_TOL = 1e-9

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def expected_report_files(cfg) -> list:
    names = ["correlation.csv", "runs_summary.csv", "selector_summary.csv"]
    for spec in cfg.scenarios:
        sid = spec.scenario_id
        names += [f"selector_{sid}.csv", f"pr_{sid}.svg", f"scatter_{sid}.svg"]
    if len(cfg.calib_fractions) > 1:
        names.append("transfer.csv")
    return names


def records_digest(exp_dir: str, cfg) -> str:
    """sha256 over records.jsonl without wall_time, then every report CSV."""
    h = hashlib.sha256()
    with open(os.path.join(exp_dir, "records.jsonl")) as fh:
        for line in fh:
            d = json.loads(line)
            d.pop("wall_time", None)
            h.update(json.dumps(d, sort_keys=True).encode() + b"\n")
    for name in sorted(n for n in expected_report_files(cfg) if n.endswith(".csv")):
        h.update(name.encode() + b"\0")
        with open(os.path.join(exp_dir, "reports", name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def report_numbers(exp_dir: str) -> dict:
    """file -> header + rows of the summary CSVs, numbers parsed."""
    out = {}
    for name in ("correlation.csv", "runs_summary.csv", "selector_summary.csv", "transfer.csv"):
        path = os.path.join(exp_dir, "reports", name)
        if not os.path.exists(path):
            continue
        with open(path) as fh:
            lines = [ln.rstrip("\n").split(",") for ln in fh if ln.strip()]
        rows = []
        for row in lines[1:]:
            rows.append([row[0]] + [float(v) for v in row[1:]])
        out[name] = {"header": lines[0], "rows": rows}
    return out


def check_outputs(exp_dir: str, cfg, expected_keys: list) -> tuple[int, int, list]:
    """(attempted, failed, problems) for one program call's experiment directory.

    Attempted counts every expected run plus every expected report file;
    failed counts runs that are missing, invalid or non-finite and report
    files that are missing, empty or hold non-finite correlation numbers.
    """
    problems = []
    records = read_records(os.path.join(exp_dir, "records.jsonl"))
    by_key: dict = {}
    for r in records:
        by_key.setdefault(tuple(r.key), []).append(r)
    failed = 0
    for key in expected_keys:
        got = by_key.get(tuple(key), [])
        if len(got) != 1:
            failed += 1
            problems.append(f"run {key}: {len(got)} records")
            continue
        r = got[0]
        values = (r.observed_shift, r.task1_eval_acc, r.task2_eval_acc, r.ece_before, r.ece_after)
        if not r.valid or not all(math.isfinite(v) for v in values) or not r.layer_traces:
            failed += 1
            problems.append(f"run {key}: invalid or non-finite ({r.note})")
    files = expected_report_files(cfg)
    for name in files:
        path = os.path.join(exp_dir, "reports", name)
        if not os.path.exists(path) or os.path.getsize(path) == 0:
            failed += 1
            problems.append(f"report {name} missing or empty")
    numbers = report_numbers(exp_dir)
    for row in numbers.get("correlation.csv", {}).get("rows", []):
        sid, n_arch, spearman, kendall, dc, p, lo, hi = row
        if not (all(math.isfinite(v) for v in row[1:]) and -1 <= spearman <= 1
                and -1 <= kendall <= 1 and 0 <= dc <= 1 and 0 < p <= 1 and lo <= hi):
            failed += 1
            problems.append(f"correlation row {sid} out of range: {row}")
    return len(expected_keys) + len(files), failed, problems


def load_reference() -> dict:
    if not os.path.exists(REFERENCE_PATH):
        return {}
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def compare_reference(numbers: dict, pinned: dict) -> list:
    """Differences between report numbers and the pinned ones."""
    diffs = []
    for name, want in pinned.items():
        got = numbers.get(name)
        if got is None or got["header"] != want["header"] or len(got["rows"]) != len(want["rows"]):
            diffs.append(f"{name}: shape differs")
            continue
        for grow, wrow in zip(got["rows"], want["rows"]):
            if grow[0] != wrow[0]:
                diffs.append(f"{name}: row {grow[0]} != {wrow[0]}")
                continue
            for col, g, w in zip(want["header"][1:], grow[1:], wrow[1:]):
                same = (math.isnan(g) and math.isnan(w)) or math.isclose(
                    g, w, rel_tol=REL_TOL, abs_tol=ABS_TOL)
                if not same:
                    diffs.append(f"{name} {wrow[0]} {col}: {g!r} != pinned {w!r}")
    return diffs


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _openblas_threads():
    """The loaded OpenBLAS's own thread count, read through its C API."""
    paths = set()
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                if "openblas" in line.lower() and "/" in line:
                    paths.add(line[line.index("/"):].strip())
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workers: int) -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _openblas_threads(),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "nproc": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count()),
        "workers": workers,
        "platform": sys.platform,
    }
