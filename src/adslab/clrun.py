"""Instrumented two-task continual-learning runner.

Trains task 1, freezes the reference network and the old-task logit
gradient, then trains task 2 while recording per-layer optimization
traces: displacement, trajectory path length, relative weight change,
and the cosine alignment between the frozen old-task gradient and the
step-wise new-task gradient. Finally measures the realized logit shift
on held-out task-1 data.

Path length discretizes the trajectory integral over coarse segments:
the sum of Frobenius displacements between evenly spaced weight
checkpoints (``path_segments`` per task). Segment displacements
telescope to the total displacement, so pathlen >= disp is an exact
triangle inequality at any resolution, and the ratio measures
macroscopic trajectory straightness without counting minibatch jitter
as path. The raw per-step gradient-norm sum is kept alongside as a
diagnostic.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import stats
from .datasets import Dataset, Scenario
from .nncore import (
    ArchitectureSpec,
    DenseNet,
    DivergenceError,
    GradientSet,
    OptimizerState,
    forward,
    init_network,
    init_optimizer,
    logit_gradient,
    loss_and_backward,
    sgd_step,
    spectral_norm,
)


def derive_seed(master: int, *tags) -> int:
    """Stable sub-seed from a master seed and string/int tags."""
    parts = [int(master) & 0xFFFFFFFF]
    for tag in tags:
        if isinstance(tag, str):
            parts.append(zlib.crc32(tag.encode()))
        else:
            parts.append(int(tag) & 0xFFFFFFFF)
    return int(np.random.SeedSequence(parts).generate_state(1)[0])


@dataclass(frozen=True)
class TrainConfig:
    steps_per_task: int
    batch_size: int = 128
    lr: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 5e-4
    trace_every: int = 2
    path_segments: int = 12
    seed: int = 0

    def __post_init__(self):
        if self.steps_per_task < 1:
            raise ValueError("steps_per_task must be >= 1")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")
        if self.path_segments < 1:
            raise ValueError("path_segments must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")


@dataclass
class LayerTrace:
    layer_index: int        # l = 1..L (hidden weight layers)
    disp: float             # ||Theta_after - Theta_before||_F
    pathlen: float          # summed segment displacements along the trajectory
    c_traj: float           # pathlen / disp (NaN when disp == 0)
    rel_change: float       # disp / ||Theta_before||_F
    mean_abs_cos: float     # mean |cos theta| over sampled steps (NaN if none)
    gold_spectral: float    # spectral norm of the old-task gradient matrix
    w_in: int
    w_out: int
    grad_norm_sum: float    # sum of raw per-step gradient Frobenius norms


@dataclass
class RunRecord:
    arch_id: str
    scenario_id: str
    seed: int
    observed_shift: float
    layer_traces: list
    task1_eval_acc: float
    task2_eval_acc: float
    ece_before: float
    ece_after: float
    wall_time: float
    valid: bool = True
    note: str = ""

    @property
    def key(self) -> tuple:
        return (self.arch_id, self.scenario_id, self.seed)

    def to_json(self) -> str:
        d = asdict(self)
        return json.dumps(d, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "RunRecord":
        d = json.loads(line)
        d["layer_traces"] = [LayerTrace(**t) for t in d["layer_traces"]]
        return cls(**d)


def append_records(path, records) -> None:
    """Append one JSON line per record, then fsync: a crash tears at most the last line."""
    with open(path, "a") as fh:
        for rec in records:
            fh.write(rec.to_json() + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def read_records(path) -> list[RunRecord]:
    records = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                try:
                    records.append(RunRecord.from_json(line))
                except (ValueError, TypeError, KeyError) as exc:
                    raise ValueError(f"{path}: malformed record on line {lineno}: {exc}") from None
    return records


def unit_flatten(gset: GradientSet) -> list[np.ndarray]:
    """Flattened, L2-normalized copy of every gradient layer."""
    flats = []
    for g in gset.layers:
        v = g.reshape(-1)
        norm = np.linalg.norm(v)
        flats.append(v / norm if norm > 0 else v.copy())
    return flats


class TraceRecorder:
    """Accumulates per-layer trajectory statistics during task-2 training.

    Reads ``net_start``'s weight arrays uncopied, so ``net_start`` must stay frozen."""

    def __init__(self, net_start: DenseNet, gold: GradientSet, cfg: TrainConfig):
        self.n_layers = net_start.spec.depth  # hidden weight layers; the head is not traced
        self.start_weights = net_start.weights
        self.segment_anchor = net_start.weights[:self.n_layers]
        self.gold = gold
        self.gold_units = unit_flatten(gold)
        self.trace_every = cfg.trace_every
        self.segment_len = max(1, cfg.steps_per_task // cfg.path_segments)
        self.pathlen = np.zeros(self.n_layers)
        self.grad_norm_sum = np.zeros(self.n_layers)
        self.abs_cos_sum = np.zeros(self.n_layers)
        self.n_cos_samples = 0
        self.step = 0

    def after_step(self, net: DenseNet, grads: GradientSet) -> None:
        self.step += 1
        sampled = (self.step - 1) % self.trace_every == 0
        for l in range(self.n_layers):
            v = grads.layers[l].reshape(-1)
            norm = np.linalg.norm(v)  # the Frobenius norm of the layer gradient
            self.grad_norm_sum[l] += norm
            if sampled and norm > 0:
                self.abs_cos_sum[l] += abs(float(self.gold_units[l] @ v) / norm)
        self.n_cos_samples += sampled
        if self.step % self.segment_len == 0:
            self._close_segment(net)

    def _close_segment(self, net: DenseNet) -> None:
        for l in range(self.n_layers):
            self.pathlen[l] += np.linalg.norm(net.weights[l] - self.segment_anchor[l])
            self.segment_anchor[l] = net.weights[l].copy()

    def finalize(self, net_end: DenseNet) -> list[LayerTrace]:
        """Produce LayerTraces for the hidden weight layers l = 1..L."""
        if self.step % self.segment_len != 0:
            self._close_segment(net_end)  # tail segment
        spec = net_end.spec
        traces = []
        for l in range(self.n_layers):  # weight layer l+1 in 1-based terms
            before = self.start_weights[l]
            after = net_end.weights[l]
            disp = float(np.linalg.norm(after - before))
            pathlen = float(self.pathlen[l])
            c_traj = pathlen / disp if disp > 0 else float("nan")
            rel = disp / float(np.linalg.norm(before))
            mean_cos = self.abs_cos_sum[l] / self.n_cos_samples  # step 1 is always sampled
            gold_spec = spectral_norm(self.gold.layers[l]).value
            traces.append(LayerTrace(
                layer_index=l + 1,
                disp=disp,
                pathlen=pathlen,
                c_traj=c_traj,
                rel_change=rel,
                mean_abs_cos=float(mean_cos),
                gold_spectral=float(gold_spec),
                w_in=spec.widths[l],
                w_out=spec.widths[l + 1],
                grad_norm_sum=float(self.grad_norm_sum[l]),
            ))
        return traces


def train_task(net: DenseNet, state: OptimizerState, dataset: Dataset,
               cfg: TrainConfig, seed: int, recorder: TraceRecorder | None = None):
    """Run ``cfg.steps_per_task`` minibatch SGD steps, shuffled by ``seed``;
    mutates net/state in place.

    Returns (net, state, stats_dict). A non-finite loss or gradient raises
    DivergenceError so the caller can flag the run instead of crashing
    a whole pool.
    """
    rng = np.random.default_rng(seed)
    n = len(dataset)
    losses = []
    done = 0
    while done < cfg.steps_per_task:
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            if done >= cfg.steps_per_task:
                break
            idx = order[start:start + cfg.batch_size]
            batch = dataset.images[idx]
            labels = dataset.labels[idx]
            trace = forward(net, batch)
            loss, grads = loss_and_backward(net, trace, labels)
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at step {done}")
            sgd_step(net, grads, state)
            if recorder is not None:
                recorder.after_step(net, grads)
            losses.append(loss)
            done += 1
    return net, state, {
        "n_steps": done,
        "final_loss": losses[-1] if losses else float("nan"),
        "mean_loss": float(np.mean(losses)) if losses else float("nan"),
    }


def measure_logit_shift(f_t: np.ndarray, f_t1: np.ndarray) -> float:
    """Mean L2 distance between two nets' logits on the same eval rows."""
    if f_t.shape[0] == 0:
        raise ValueError("empty eval set")
    return float(np.mean(np.linalg.norm(f_t1 - f_t, axis=1)))


def compute_gold(net: DenseNet, calib_subset: Dataset) -> GradientSet:
    """Old-task sensitivity: true-class logit gradient averaged over the subset."""
    if len(calib_subset) == 0:
        raise ValueError("empty calibration subset")
    return logit_gradient(net, calib_subset.images, calib_subset.labels)


def evaluate(net: DenseNet, ds: Dataset) -> tuple[float, float, np.ndarray]:
    """(accuracy, ECE, logits) of the net on a dataset."""
    logits = forward(net, ds.images).logits
    acc = float(np.mean(logits.argmax(axis=1) == ds.labels))
    return acc, stats.ece_of_logits(logits, ds.labels), logits


def run_scenario(arch: ArchitectureSpec, scenario: Scenario, cfg: TrainConfig,
                 arch_id: str = "arch", eval_cap: int | None = None) -> RunRecord:
    """Full instrumented pipeline for one (architecture, scenario, seed) run."""
    t0 = time.time()
    spec = arch.with_dims(scenario.input_dim, scenario.n_classes)
    net = init_network(spec, derive_seed(cfg.seed, arch_id, "init"))
    state = init_optimizer(net, cfg.lr, cfg.momentum, cfg.weight_decay)

    task1_eval = scenario.task1_eval
    task2_eval = scenario.task2_eval
    if eval_cap is not None and len(task1_eval) > eval_cap:
        task1_eval = task1_eval.take(np.arange(eval_cap))
    if eval_cap is not None and len(task2_eval) > eval_cap:
        task2_eval = task2_eval.take(np.arange(eval_cap))

    note = ""
    valid = True
    try:
        train_task(net, state, scenario.task1_train, cfg,
                   seed=derive_seed(cfg.seed, arch_id, "task1"))
        net_t = net.copy()  # frozen task-1 net; the recorder reads its weights
        gold = compute_gold(net_t, scenario.calib_subset)
        task1_eval_acc, ece_before, f_t = evaluate(net_t, task1_eval)

        recorder = TraceRecorder(net_t, gold, cfg)
        # fresh momentum between tasks: each task is its own S-step phase
        state = init_optimizer(net, cfg.lr, cfg.momentum, cfg.weight_decay)
        train_task(net, state, scenario.task2_train, cfg,
                   seed=derive_seed(cfg.seed, arch_id, "task2"), recorder=recorder)
        traces = recorder.finalize(net)
        _, ece_after, f_t1 = evaluate(net, task1_eval)
        observed_shift = measure_logit_shift(f_t, f_t1)
        task2_eval_acc, _, _ = evaluate(net, task2_eval)
    except DivergenceError as exc:
        valid = False
        note = str(exc)
        traces = []
        observed_shift = float("nan")
        task1_eval_acc = task2_eval_acc = ece_before = ece_after = float("nan")

    return RunRecord(
        arch_id=arch_id,
        scenario_id=scenario.scenario_id,
        seed=cfg.seed,
        observed_shift=observed_shift,
        layer_traces=traces,
        task1_eval_acc=task1_eval_acc,
        task2_eval_acc=task2_eval_acc,
        ece_before=ece_before,
        ece_after=ece_after,
        wall_time=time.time() - t0,
        valid=valid,
        note=note,
    )
