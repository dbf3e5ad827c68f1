"""Timed, checked program calls for one workload at one seed."""

from __future__ import annotations

import math
import os
import resource
import shutil
import statistics
import time
import warnings

from adslab import harness
from adslab.archpool import load_manifest

from checks import (check_outputs, compare_reference, load_reference, records_digest,
                    report_numbers)
from inputs import make_report_inputs, make_training_inputs, pool_runs, setup_calls
from spans import Tracer, nesting_problems, per_layer_metrics

# set-up is repeated until this many seconds are spent (within the bounds on
# the count) and the median is reported, so cheap set-ups still get many samples
SETUP_SECONDS = 3.0
SETUP_REPS = (5, 50)

# the timed program calls, looked up before a tracer replaces them with wrappers
PROGRAM_CALLS = {
    "train": ("harness.run_experiment", harness.run_experiment),
    "report": ("harness.emit_report", harness.emit_report),
}


def high_percentile(values: list):
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Bench:
    """Generated inputs plus the tally of every check made on the calls' outputs."""

    def __init__(self, workload, seed: int, work_root: str, log=print):
        self.w = workload
        self.seed = seed
        self.log = log
        # the worker count the library will use; run.main clears the variables
        # that could override the pinned one
        self.workers = workload.config(seed, "", "").resolved_workers()
        self.work = os.path.join(work_root, f"{workload.name}-s{seed}-p{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        self.data_root = os.path.join(self.work, "data")
        self.report_dir = os.path.join(self.work, "report_input")
        start = time.perf_counter()
        if workload.kind == "train":
            make_training_inputs(workload, seed, self.data_root)
        else:
            make_report_inputs(workload, seed, self.report_dir)
        self.log(f"inputs generated in {time.perf_counter() - start:.3f} s (not timed)")
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.digests: list = []
        self.numbers = None
        self.records_bytes = 0
        self._calls = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def _fail(self, problem: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)

    def setup_seconds(self) -> list:
        times = []
        lo, hi = SETUP_REPS
        while len(times) < lo or (len(times) < hi and sum(times) < SETUP_SECONDS):
            start = time.perf_counter()
            setup_calls(self.w, self.seed, self.report_dir, self.data_root)
            times.append(time.perf_counter() - start)
        return times

    def run_once(self, tracer: Tracer | None = None) -> float:
        """Time one program call and check its outputs; returns wall seconds."""
        self._calls += 1
        name, call = PROGRAM_CALLS[self.w.kind]
        if self.w.kind == "report":
            exp = self.report_dir
            shutil.rmtree(os.path.join(exp, "reports"), ignore_errors=True)
            cfg = self.w.config(self.seed, exp, "")
            arg = exp
        else:
            exp = os.path.join(self.work, f"exp{self._calls}")  # a fresh, empty directory
            cfg = self.w.config(self.seed, exp, self.data_root)
            arg = cfg
        start = time.perf_counter()
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if tracer is None:
                    call(arg)
                else:
                    tracer.call(name, call, arg)
        except Exception as exc:  # a failed call is a measured failure, not a crash
            self._fail(f"program call raised {type(exc).__name__}: {exc}")
            return time.perf_counter() - start
        wall = time.perf_counter() - start

        keys = harness.experiment_run_keys(cfg, load_manifest(os.path.join(exp, "pool.manifest")))
        attempted, failed, problems = check_outputs(exp, cfg, keys)
        self.attempted += attempted
        self.failed += failed
        self.problems += problems
        self.digests.append(records_digest(exp, cfg))
        if len(self.digests) > 1:
            self.attempted += 1
            if self.digests[-1] != self.digests[0]:
                self.failed += 1
                self.problems.append("records digest differs between calls")
        if self.numbers is None:
            self.numbers = report_numbers(exp)
        self.records_bytes = os.path.getsize(os.path.join(exp, "records.jsonl"))
        if self.w.kind == "train":
            shutil.rmtree(exp, ignore_errors=True)
        return wall

    def check_reference(self) -> None:
        pinned = load_reference().get(self.w.name, {}).get(str(self.seed))
        if pinned is None or self.numbers is None:
            return
        diffs = compare_reference(self.numbers, pinned)
        if diffs:
            self._fail("report numbers differ from the pinned ones: " + "; ".join(diffs))
        else:
            self.attempted += 1


def measure_end_to_end(bench: Bench, seconds: float) -> dict:
    """Set-up timed several times, then program calls until `seconds` is spent
    in all."""
    start = time.perf_counter()
    setup = bench.setup_seconds()
    walls: list = []
    calls_start = time.perf_counter()
    while True:
        walls.append(bench.run_once())
        bench.log(f"call {len(walls)}: wall {walls[-1]:.4f} s")
        now = time.perf_counter()
        elapsed = now - start
        mean = (now - calls_start) / len(walls)
        # stop once another call would end more than a quarter call past the budget
        if bench.failed or elapsed + mean > seconds + 0.25 * mean:
            break
    for name, values in (("wall_s", walls), ("setup_s", setup)):
        hp = high_percentile(values)
        bench.log(f"{name}: median {statistics.median(values):.4f} s over n={len(values)}; "
                  + (f"p{hp[0]} {hp[1]:.4f} s" if hp else "no percentile has 10 samples above it"))
    runs = pool_runs(bench.w)
    return {
        "wall_s": statistics.median(walls),
        "runs_per_s": statistics.median(runs / w for w in walls),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_per_layer(bench: Bench, spans_path: str) -> dict:
    """A warm-up call, an untraced call, then a traced call whose spans give the
    per-layer metrics; the untraced and traced walls give the tracing overhead."""
    bench.run_once()
    untraced = bench.run_once()
    # concurrent runs would share one tracemalloc peak, and its lock would
    # serialise the workers, so memory is only traced with a single worker
    tracer = Tracer(track_memory=bench.w.kind == "train" and bench.workers == 1)
    tracer.install()
    try:
        traced = bench.run_once(tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    bench.log(f"untraced wall {untraced:.4f} s, traced wall {traced:.4f} s, "
              f"{len(tracer.spans)} spans written to {spans_path}")
    bad = nesting_problems(tracer.spans)
    if bad:
        bench._fail(f"{len(bad)} spans end outside their parent: {bad[:3]}")
    m = per_layer_metrics(tracer.spans, bench.workers, bench.records_bytes,
                          tracer.peak_mem_over_weights)
    m["trace.overhead_share"] = (traced - untraced) / untraced
    bench.log("self time by layer: " + ", ".join(
        f"{k.split('.', 1)[1]} {v:.4f} s" for k, v in m.items() if k.startswith("self_s.")))
    return m
