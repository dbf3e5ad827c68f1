"""In-memory span tracing of the library's public functions, and the
per-layer numbers derived from the spans.

``Tracer.install`` replaces each traced function at the module attribute
its callers look it up by (``adslab.harness.run_scenario``,
``adslab.clrun.forward``, ...) with a wrapper that records a span: name,
start, end, parent span and the run key ``(arch_id, scenario_id, seed)``
of the ``run_scenario`` call it belongs to. ``uninstall`` puts the
originals back, so untraced timings in the same process are unaffected.
Spans opened on a worker thread with nothing open on that thread take
the traced program call as their parent.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
import json
import os
import statistics
import threading
import time
import tracemalloc
from dataclasses import dataclass

LAYERS = ("datasets", "archpool", "nncore", "clrun", "calib", "ads", "stats", "harness")


@dataclass
class Span:
    sid: int
    name: str          # "<layer>.<function>", the layer being the defining module
    start: float
    end: float
    parent: int        # -1 for the program call itself
    key: tuple | None  # (arch_id, scenario_id, seed) inside a run_scenario call
    attrs: dict

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


# ---------------------------------------------------------------------------
# span attributes (counts recorded at the boundary where the work happens)
# ---------------------------------------------------------------------------

def _matmul_params(widths) -> list:
    return [widths[l] * widths[l + 1] for l in range(len(widths) - 1)]


def _forward_attrs(tracer, args, kwargs, out):
    net, batch = args[0], args[1]
    rows = batch.shape[0]
    return {"rows": rows, "flop": 2 * rows * sum(_matmul_params(net.spec.widths))}


def _backward_attrs(tracer, args, kwargs, out):
    net, trace = args[0], args[1]
    rows = trace.logits.shape[0]
    p = _matmul_params(net.spec.widths)
    # weight gradients of every layer plus error signals through layers 1..L
    return {"flop": 2 * rows * (sum(p) + sum(p[1:]))}


def _load_attrs(tracer, args, kwargs, out):
    return {"bytes": sum(os.path.getsize(p) for p in args[:2])}


def _len_attrs(tracer, args, kwargs, out):
    return {"n": len(out)}


def _spectral_attrs(tracer, args, kwargs, out):
    return {"iters": out.iterations}


def _run_attrs(tracer, args, kwargs, out):
    return {"valid": bool(out.valid)}


def _train_attrs(tracer, args, kwargs, out):
    if kwargs.get("recorder") is not None:
        return {"task": 2}
    net, dataset = args[0], args[2]
    return {"task": 1,
            "task1_key": [list(net.spec.widths), kwargs.get("seed"),
                          tracer.digest(dataset.images)]}


def _run_key(args, kwargs):
    arch_id = kwargs.get("arch_id", args[3] if len(args) > 3 else "arch")
    return (arch_id, args[1].scenario_id, args[2].seed)


# (module the caller looks the name up in, attribute, span name, attrs function)
TRACE_POINTS = [
    ("adslab.harness", "load_idx", "datasets.load_idx", _load_attrs),
    ("adslab.harness", "make_scenario", "datasets.make_scenario", None),
    ("adslab.datasets", "rotate_images", "datasets.rotate_images", None),
    ("adslab.datasets", "sample_subset", "datasets.sample_subset", None),
    ("adslab.harness", "sample_subset", "datasets.sample_subset", None),
    ("adslab.harness", "generate_pool", "archpool.generate_pool", _len_attrs),
    ("adslab.harness", "save_manifest", "archpool.save_manifest", None),
    ("adslab.harness", "load_manifest", "archpool.load_manifest", None),
    ("adslab.clrun", "init_network", "nncore.init_network", None),
    ("adslab.clrun", "forward", "nncore.forward", _forward_attrs),
    ("adslab.clrun", "loss_and_backward", "nncore.loss_and_backward", _backward_attrs),
    ("adslab.clrun", "sgd_step", "nncore.sgd_step", None),
    ("adslab.clrun", "logit_gradient", "nncore.logit_gradient", None),
    ("adslab.clrun", "spectral_norm", "nncore.spectral_norm", _spectral_attrs),
    ("adslab.nncore", "DenseNet.copy", "nncore.copy", None),
    ("adslab.harness", "run_scenario", "clrun.run_scenario", _run_attrs),
    ("adslab.clrun", "train_task", "clrun.train_task", _train_attrs),
    ("adslab.clrun", "TraceRecorder.after_step", "clrun.recorder_step", None),
    ("adslab.clrun", "TraceRecorder.finalize", "clrun.finalize", None),
    ("adslab.clrun", "compute_gold", "clrun.compute_gold", None),
    ("adslab.clrun", "evaluate", "clrun.evaluate", None),
    ("adslab.clrun", "measure_logit_shift", "clrun.measure_logit_shift", None),
    ("adslab.harness", "append_records", "clrun.append_records", None),
    ("adslab.harness", "read_records", "clrun.read_records", None),
    ("adslab.harness", "run_calibration", "harness.run_calibration", None),
    ("adslab.harness", "calibrate_params", "calib.calibrate_params", None),
    ("adslab.harness", "save_profile", "calib.save_profile", None),
    ("adslab.harness", "load_profile", "calib.load_profile", None),
    ("adslab.harness", "compute_ads", "ads.compute_ads", None),
    ("adslab.stats", "correlation_report", "stats.correlation_report", None),
    ("adslab.stats", "spearman", "stats.spearman", None),
    ("adslab.stats", "kendall", "stats.kendall", None),
    ("adslab.stats", "direction_consistency", "stats.direction_consistency", None),
    ("adslab.stats", "perm_p_value", "stats.perm_p_value", None),
    ("adslab.stats", "bootstrap_ci", "stats.bootstrap_ci", None),
    ("adslab.stats", "rankdata", "stats.rankdata", None),
    ("adslab.stats", "pr_analysis", "stats.pr_analysis", None),
    ("adslab.stats", "ece_of_logits", "stats.ece_of_logits", None),
    ("adslab.harness", "load_dataset_pool", "harness.load_dataset_pool", None),
    ("adslab.harness", "aggregate_scenario", "harness.aggregate_scenario", None),
    ("adslab.harness", "selector_baseline", "harness.selector_baseline", None),
    ("adslab.harness", "emit_report", "harness.emit_report", None),
    ("adslab.harness", "write_csv", "harness.write_csv", None),
    ("adslab.harness", "svg_scatter", "harness.svg_scatter", None),
    ("adslab.harness", "svg_curve", "harness.svg_curve", None),
]


class Tracer:
    def __init__(self, track_memory: bool = False):
        self.spans: list[Span] = []
        self.track_memory = track_memory
        self.peak_mem_over_weights: list[float] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root = -1
        self._digests: dict = {}
        self._digest_lock = threading.Lock()
        self._saved: list = []

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def digest(self, array) -> str:
        """sha256 of an array's bytes, cached while the array is alive."""
        with self._digest_lock:
            hit = self._digests.get(id(array))
            if hit is None or hit[0] is not array:
                hit = (array, hashlib.sha256(array.tobytes()).hexdigest()[:16])
                self._digests[id(array)] = hit
            return hit[1]

    def wrap(self, fn, name: str, attrs_fn=None):
        tracer = self
        is_run = name == "clrun.run_scenario"

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent, key = stack[-1] if stack else (tracer._root, None)
            if is_run:
                key = _run_key(args, kwargs)
                mem0 = tracer._mem_start()
            sid = next(tracer._ids)
            stack.append((sid, key))
            span = Span(sid, name, time.perf_counter(), 0.0, parent, key, {})
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if attrs_fn:
                span.attrs = attrs_fn(tracer, args, kwargs, out)
            if is_run:
                tracer._mem_end(mem0, args)
            return out

        return traced

    def _mem_start(self):
        if not self.track_memory:
            return None
        tracemalloc.reset_peak()
        return tracemalloc.get_traced_memory()[0]

    def _mem_end(self, mem0, args) -> None:
        if mem0 is None:
            return
        peak = tracemalloc.get_traced_memory()[1]
        arch, scenario = args[0], args[1]
        widths = arch.with_dims(scenario.input_dim, scenario.n_classes).widths
        weight_bytes = 8 * sum(_matmul_params(widths))
        self.peak_mem_over_weights.append((peak - mem0) / weight_bytes)

    def install(self) -> None:
        for module_name, attr, name, attrs_fn in TRACE_POINTS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.wrap(original, name, attrs_fn))
        if self.track_memory:
            tracemalloc.start()

    def uninstall(self) -> None:
        if self.track_memory:
            tracemalloc.stop()
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()

    def call(self, name: str, fn, *args):
        """Run the traced program call itself as the root span."""
        self._root = next(self._ids)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append(Span(self._root, name, start, time.perf_counter(), -1, None, {}))

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.sid):
                fh.write(json.dumps({"id": s.sid, "name": s.name, "start": s.start,
                                     "end": s.end, "parent": s.parent,
                                     "key": s.key, "attrs": s.attrs}) + "\n")


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def children_of(spans: list) -> dict:
    out: dict = {}
    for s in spans:
        out.setdefault(s.parent, []).append(s)
    return out


def self_times(spans: list) -> dict:
    """Span id -> duration minus the part of its interval its children cover."""
    kids = children_of(spans)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(kids.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, s.start), min(c.end, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.sid] = s.duration - covered
    return out


def layer_self_times(spans: list) -> dict:
    st = self_times(spans)
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        if s.layer in out:
            out[s.layer] += st[s.sid]
    return out


def nesting_problems(spans: list) -> list:
    """Spans that end outside their parent's interval (should be none)."""
    by_id = {s.sid: s for s in spans}
    bad = []
    for s in spans:
        p = by_id.get(s.parent)
        if s.parent != -1 and (p is None or s.start < p.start or s.end > p.end):
            bad.append(s.name)
    return bad


def _pct(values: list, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def per_layer_metrics(spans: list, workers: int, records_bytes: int,
                      peak_mem_over_weights: list) -> dict:
    """Name -> value for every per-layer metric; see perfbench/README.md."""
    by_id = {s.sid: s for s in spans}

    def named(*names):
        return [s for s in spans if s.name in names]

    def parent_name(s):
        p = by_id.get(s.parent)
        return p.name if p else ""

    def outermost(*names):
        """Spans of these names not nested in another span of these names."""
        out = []
        for s in named(*names):
            p = by_id.get(s.parent)
            while p is not None and p.name not in names:
                p = by_id.get(p.parent)
            if p is None:
                out.append(s)
        return out

    def total(ss):
        return sum(s.duration for s in ss)

    train_fwd = [s for s in named("nncore.forward") if parent_name(s) == "clrun.train_task"]
    eval_fwd = [s for s in named("nncore.forward")
                if parent_name(s) in ("clrun.evaluate", "clrun.measure_logit_shift")]
    backward = named("nncore.loss_and_backward")
    steps = len(named("nncore.sgd_step"))
    per_step = 1000.0 / steps if steps else 0.0
    gflop = (sum(s.attrs.get("flop", 0) for s in train_fwd + backward)) / 1e9
    fwd_bwd_s = total(train_fwd) + total(backward)

    runs = named("clrun.run_scenario")
    calib_runs = [s for s in runs if parent_name(s) == "harness.run_calibration"]
    pool_runs = [s for s in runs if parent_name(s) != "harness.run_calibration"]
    pool_durations = sorted(s.duration for s in pool_runs)
    trainings = named("clrun.train_task")
    task1 = [s for s in trainings if s.attrs.get("task") == 1]
    task2 = [s for s in trainings if s.attrs.get("task") == 2]
    distinct_task1 = {json.dumps(s.attrs["task1_key"]) for s in task1}
    recorder = named("clrun.recorder_step")

    root = next(s for s in spans if s.parent == -1)
    if pool_runs:
        pool_start = min(s.start for s in pool_runs)
        pool_phase = max(s.end for s in pool_runs) - pool_start
    else:
        pool_start, pool_phase = root.end, 0.0
    first_work = [s.start for s in calib_runs + pool_runs + named("harness.aggregate_scenario")]
    loads = named("datasets.load_idx")

    m = {
        "datasets.load_s": total(loads),
        "datasets.bytes_read": sum(s.attrs.get("bytes", 0) for s in loads),
        "datasets.scenario_s": total(named("datasets.make_scenario")),
        "datasets.rotate_s": total(named("datasets.rotate_images")),
        "datasets.subset_s": total(outermost("datasets.sample_subset")),
        "archpool.generate_s": total(named("archpool.generate_pool")),
        "archpool.n_archs": sum(s.attrs.get("n", 0) for s in named("archpool.generate_pool")),
        "nncore.forward_ms_per_step": total(train_fwd) * per_step,
        "nncore.backward_ms_per_step": total(backward) * per_step,
        "nncore.sgd_ms_per_step": total(named("nncore.sgd_step")) * per_step,
        "nncore.steps": steps,
        "nncore.train_gflop": gflop,
        "nncore.train_gflops_rate": gflop / fwd_bwd_s if fwd_bwd_s else 0.0,
        "nncore.eval_rows": sum(s.attrs.get("rows", 0) for s in eval_fwd),
        "nncore.eval_forward_s": total(eval_fwd),
        "nncore.logit_gradient_s": total(named("nncore.logit_gradient")),
        "nncore.spectral_norm_s": total(named("nncore.spectral_norm")),
        "nncore.spectral_norm_iters": sum(s.attrs.get("iters", 0)
                                          for s in named("nncore.spectral_norm")),
        "nncore.init_s": total(named("nncore.init_network")),
        "nncore.copy_s": total(named("nncore.copy")),
        "nncore.peak_mem_over_weights": max(peak_mem_over_weights, default=0.0),
        "clrun.run_s_p50": _pct(pool_durations, 50),
        "clrun.run_s_p90": _pct(pool_durations, 90),
        "clrun.task1_train_s": total(task1),
        "clrun.task2_train_s": total(task2),
        "clrun.recorder_ms_per_step": 1000.0 * total(recorder) / len(recorder) if recorder else 0.0,
        "clrun.finalize_s": total(named("clrun.finalize")),
        "clrun.gold_s": total(named("clrun.compute_gold")),
        "clrun.eval_s": total(named("clrun.evaluate", "clrun.measure_logit_shift")),
        "clrun.append_s": total(named("clrun.append_records")),
        "clrun.invalid_runs": sum(1 for s in runs if not s.attrs.get("valid", False)),
        "clrun.task1_trainings": len(task1),
        "clrun.task1_useful_ratio": len(distinct_task1) / len(task1) if task1 else 0.0,
        "calib.calibration_s": total(named("harness.run_calibration")),
        "calib.calib_runs": len(calib_runs),
        "calib.fit_s": total(named("calib.calibrate_params")),
        "calib.profile_io_s": total(named("calib.save_profile", "calib.load_profile")),
        "ads.score_s": total(named("ads.compute_ads")),
        "ads.n_scored": len(named("ads.compute_ads")),
        "stats.correlation_report_s": total(named("stats.correlation_report")),
        "stats.perm_p_value_s": total(named("stats.perm_p_value")),
        "stats.bootstrap_ci_s": total(named("stats.bootstrap_ci")),
        "stats.kendall_s": total(outermost("stats.kendall")),
        "stats.rankdata_calls": len(named("stats.rankdata")),
        "stats.selector_s": total(outermost("harness.selector_baseline", "stats.pr_analysis")),
        "stats.ece_s": total(named("stats.ece_of_logits")),
        "harness.setup_s": min(first_work, default=root.end) - root.start,
        "harness.pool_phase_s": pool_phase,
        "harness.worker_busy_share": (sum(pool_durations) / (workers * pool_phase)
                                      if pool_phase else 0.0),
        "harness.report_s": total(named("harness.emit_report")),
        "harness.read_records_s": total(named("clrun.read_records")),
        "harness.csv_s": total(named("harness.write_csv")),
        "harness.svg_s": total(named("harness.svg_scatter", "harness.svg_curve")),
        "harness.records_bytes": records_bytes,
    }
    for layer, value in layer_self_times(spans).items():
        m[f"self_s.{layer}"] = value
    return m
