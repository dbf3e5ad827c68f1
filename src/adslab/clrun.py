"""Instrumented two-task continual-learning runner.

Trains task 1, freezes the reference network and the old-task logit
gradient, then trains task 2 while recording per-layer optimization
traces: displacement, trajectory path length, relative weight change,
and the cosine alignment between the frozen old-task gradient and the
step-wise new-task gradient. Finally measures the realized logit shift
on held-out task-1 data. ``train_task1`` trains and measures task 1, and
``run_scenario`` runs the rest from its result (``Task1``). That result
depends only on the architecture, the seed and the scenario bytes that
``task1_digest`` covers, so runs whose digests match share one. A run
evaluates every row of its scenario's evaluation sets.

Path length discretizes the trajectory integral over coarse segments:
the sum of Frobenius displacements between evenly spaced weight
checkpoints (``path_segments`` per task). Segment displacements
telescope to the total displacement, so pathlen >= disp is an exact
triangle inequality at any resolution, and the ratio measures
macroscopic trajectory straightness without counting minibatch jitter
as path. The raw per-step gradient-norm sum is kept alongside as a
diagnostic.

``write_atomic`` replaces a state file whole, and ``read_ini``/``write_ini``
are the one INI codec of ``experiment.ini`` and parameter profiles.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
import time
import typing
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from . import stats
from .datasets import Dataset, Scenario
from .nncore import (
    ArchitectureSpec,
    DenseNet,
    DivergenceError,
    OptimizerState,
    Workspace,
    forward,
    init_network,
    init_optimizer,
    layer_views,
    logit_gradient,
    loss_and_backward,
    sgd_step,
    spectral_norm,
)


def derive_seed(master: int, *tags: str) -> int:
    """Stable sub-seed from a master seed and string tags."""
    parts = [int(master)] + [zlib.crc32(tag.encode()) for tag in tags]
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
        for name in ("steps_per_task", "batch_size", "trace_every", "path_segments"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # NaN fails every comparison, so it is refused with the rest
        for name, ok, rule in (("lr", 0 < self.lr < math.inf, "finite and > 0"),
                               ("momentum", 0 <= self.momentum < 1, "in [0, 1)"),
                               ("weight_decay", 0 <= self.weight_decay < math.inf, "finite, >= 0"),
                               ("seed", self.seed >= 0, ">= 0")):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)}")


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


def write_atomic(path, write, mode: str = "w") -> None:
    """Replace ``path`` whole or not at all: ``write(fh)`` fills a temp file beside
    it, which is fsynced and then renamed over ``path``."""
    tmp = f"{path}.tmp"
    with open(tmp, mode) as fh:
        write(fh)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def format_value(x) -> str:
    """A CSV cell or an INI value as text; floats in full precision, tuples comma-joined."""
    if isinstance(x, tuple):
        return ",".join(map(format_value, x))
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def parse_value(section: str, key: str, tp, text: str):
    """INI text to a value of the annotated field type (int, float, str or a tuple of
    one); an empty text is the empty tuple, and an empty item of a tuple is refused."""
    try:
        if typing.get_origin(tp) is tuple:
            item = typing.get_args(tp)[0]  # tuple[int, ...] or tuple[float, ...]
            items = text.replace(" ", "").split(",") if text.strip() else []
            if "" in items:
                raise ValueError(f"empty item in {text!r}")
            return tuple(map(item, items))
        return tp(text)
    except ValueError as exc:
        raise ValueError(f"[{section}] {key}: {exc}") from None


def parse_section(section: str, items: dict, keys: dict, hints: dict) -> dict:
    """Field values of one INI section; a key or section not in ``keys`` is refused."""
    names = {key: name for name, (sec, key) in keys.items() if sec == section}
    for key in items:
        if key not in names:
            raise ValueError(f"unknown key {key!r} in section [{section}]")
    if not names:
        raise ValueError(f"unknown section [{section}]")
    return {names[key]: parse_value(section, key, hints[names[key]], text)
            for key, text in items.items()}


def read_ini(path, parse):
    """``parse({section: {key: text}})`` of the INI file at ``path``, read literally
    (no %-interpolation); a bad file or value raises ValueError naming the file."""
    cp = configparser.ConfigParser(interpolation=None)
    with open(path) as fh:
        try:
            cp.read_file(fh)
            return parse({section: dict(cp[section]) for section in cp.sections()})
        except (configparser.Error, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None


def write_ini(path, sections: dict) -> None:
    """Replace ``path`` atomically with ``{section: {key: value}}`` as INI text."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_dict({section: {key: format_value(v) for key, v in items.items()}
                  for section, items in sections.items()})
    write_atomic(path, cp.write)


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


def unit_flatten(grads: list[np.ndarray]) -> list[np.ndarray]:
    """Flattened, L2-normalized copy of every gradient layer."""
    flats = []
    for g in grads:
        v = g.reshape(-1)
        norm = np.linalg.norm(v)
        flats.append(v / norm if norm > 0 else v.copy())
    return flats


class Gold(typing.NamedTuple):
    """What a run keeps of the old-task gradient: per hidden layer, its
    spectral norm and its flattened unit vector."""
    spectral: list[float]
    units: list[np.ndarray]


def summarize_gold(net: DenseNet, calib_subset: Dataset) -> Gold:
    """The hidden layers' part of ``compute_gold``; the raw gradient is freed on return."""
    gold = compute_gold(net, calib_subset)[:net.spec.depth]
    return Gold([spectral_norm(g).value for g in gold], unit_flatten(gold))


class TraceRecorder:
    """Accumulates per-layer trajectory statistics during task-2 training.

    Reads ``net_start``'s weight arrays and ``gold``'s unit vectors
    uncopied, so both must stay frozen."""

    def __init__(self, net_start: DenseNet, gold: Gold, cfg: TrainConfig):
        self.n_layers = net_start.spec.depth  # hidden weight layers; the head is not traced
        self.start_weights = net_start.weights
        # the head is stored last, so the hidden layers are a prefix of the flat vector
        self.segment_anchor = net_start.flat[:-net_start.weights[-1].size].copy()
        self.anchor_layers = layer_views(net_start.spec.widths[:-1], self.segment_anchor)
        self.gold_spectral, self.gold_units = gold
        self.trace_every = cfg.trace_every
        self.segment_len = max(1, cfg.steps_per_task // cfg.path_segments)
        self.pathlen = np.zeros(self.n_layers)
        self.grad_norm_sum = np.zeros(self.n_layers)
        self.abs_cos_sum = np.zeros(self.n_layers)
        self.n_cos_samples = 0
        self.step = 0

    def after_step(self, net: DenseNet, grads: list[np.ndarray]) -> None:
        self.step += 1
        sampled = (self.step - 1) % self.trace_every == 0
        for l in range(self.n_layers):
            v = grads[l].reshape(-1)
            norm = np.linalg.norm(v)  # the Frobenius norm of the layer gradient
            self.grad_norm_sum[l] += norm
            if sampled and norm > 0:
                self.abs_cos_sum[l] += abs(float(self.gold_units[l] @ v) / norm)
        self.n_cos_samples += sampled
        if self.step % self.segment_len == 0:
            self._close_segment(net)

    def _close_segment(self, net: DenseNet) -> None:
        hidden = net.flat[:self.segment_anchor.size]
        np.subtract(hidden, self.segment_anchor, out=self.segment_anchor)  # the segment's step
        for l in range(self.n_layers):
            self.pathlen[l] += np.linalg.norm(self.anchor_layers[l])
        np.copyto(self.segment_anchor, hidden)

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
            traces.append(LayerTrace(
                layer_index=l + 1,
                disp=disp,
                pathlen=pathlen,
                c_traj=c_traj,
                rel_change=rel,
                mean_abs_cos=float(mean_cos),
                gold_spectral=float(self.gold_spectral[l]),
                w_in=spec.widths[l],
                w_out=spec.widths[l + 1],
                grad_norm_sum=float(self.grad_norm_sum[l]),
            ))
        return traces


def train_task(net: DenseNet, state: OptimizerState, dataset: Dataset,
               cfg: TrainConfig, seed: int, recorder: TraceRecorder | None = None):
    """Run ``cfg.steps_per_task`` minibatch SGD steps, shuffled by ``seed``;
    mutates net/state in place.

    Every step runs in one preallocated batch buffer and workspace; an
    epoch's short last batch uses their leading rows. Returns the loss
    summary (``n_steps``, ``final_loss``, ``mean_loss``). A non-finite loss
    or gradient raises DivergenceError so the caller can flag the run
    instead of crashing a whole pool.
    """
    rng = np.random.default_rng(seed)
    n = len(dataset)
    rows = min(cfg.batch_size, n)
    full = Workspace(net.spec, rows)
    last = full.head(n % cfg.batch_size or rows)
    batches = np.empty((rows, net.spec.input_dim))
    losses = []
    done = 0
    while done < cfg.steps_per_task:
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            if done >= cfg.steps_per_task:
                break
            idx = order[start:start + cfg.batch_size]
            ws = full if len(idx) == rows else last
            # idx is in range, and "clip" lets take write into the buffer unbuffered
            batch = np.take(dataset.images, idx, axis=0, out=batches[:len(idx)], mode="clip")
            forward(net, batch, ws=ws)
            loss, grads = loss_and_backward(net, ws, dataset.labels[idx])
            if not np.isfinite(loss):
                raise DivergenceError(f"non-finite loss at step {done}")
            sgd_step(net, ws.grad, state)
            if recorder is not None:
                recorder.after_step(net, grads)
            losses.append(loss)
            done += 1
    # TrainConfig and Dataset are never empty, so there is at least one step
    return {"n_steps": done, "final_loss": losses[-1], "mean_loss": float(np.mean(losses))}


def measure_logit_shift(f_t: np.ndarray, f_t1: np.ndarray) -> float:
    """Mean L2 distance between two nets' logits on the same eval rows."""
    if f_t.shape[0] == 0:
        raise ValueError("empty eval set")
    return float(np.mean(np.linalg.norm(f_t1 - f_t, axis=1)))


def compute_gold(net: DenseNet, calib_subset: Dataset) -> list[np.ndarray]:
    """Old-task sensitivity: true-class logit gradient averaged over the subset."""
    return logit_gradient(net, calib_subset.images, calib_subset.labels)


def evaluate(net: DenseNet, ds: Dataset) -> tuple[float, float, np.ndarray]:
    """(accuracy, ECE, logits) of the net on a dataset."""
    logits = forward(net, ds.images)
    acc = float(np.mean(logits.argmax(axis=1) == ds.labels))
    return acc, stats.ece_of_logits(logits, ds.labels), logits


@dataclass
class Task1:
    """The end of task 1: the frozen net and what a run measures on it.

    Every run of one architecture and seed whose scenarios share a
    ``task1_digest`` would compute it bit for bit, so they can share one."""
    net_t: DenseNet
    acc: float
    ece_before: float
    f_t: np.ndarray  # logits on the task-1 eval set
    gold: Gold


def task1_digest(scenario: Scenario) -> str:
    """sha256 of every scenario byte ``train_task1`` reads, hashed without a copy."""
    h = hashlib.sha256(str(scenario.n_classes).encode())
    for ds in (scenario.task1_train, scenario.task1_eval, scenario.calib_subset):
        for a in (ds.images, ds.labels):
            h.update(f"{a.dtype.str}{a.shape}".encode())
            h.update(memoryview(np.ascontiguousarray(a)))
    return h.hexdigest()


def train_task1(arch: ArchitectureSpec, scenario: Scenario, cfg: TrainConfig,
                arch_id: str = "arch") -> Task1:
    """Train task 1 of a run from its seeded init, then measure it; raises
    DivergenceError as ``train_task`` does."""
    spec = arch.with_dims(scenario.input_dim, scenario.n_classes)
    net = init_network(spec, derive_seed(cfg.seed, arch_id, "init"))
    # each task is its own S-step phase with fresh momentum, freed when it ends
    train_task(net, init_optimizer(net, cfg.lr, cfg.momentum, cfg.weight_decay),
               scenario.task1_train, cfg, seed=derive_seed(cfg.seed, arch_id, "task1"))
    acc, ece_before, f_t = evaluate(net, scenario.task1_eval)
    return Task1(net, acc, ece_before, f_t, summarize_gold(net, scenario.calib_subset))


# arch is otherwise unused: perfbench/spans.py reads the four leading positionals
def run_scenario(arch: ArchitectureSpec, scenario: Scenario, cfg: TrainConfig,
                 arch_id: str = "arch", *, task1: Task1 | DivergenceError) -> RunRecord:
    """Task 2 and the measurements of one (architecture, scenario, seed) run.

    ``task1`` is this run's end of task 1 from ``train_task1``. A
    DivergenceError in its place is task 1's divergence, and flags the run
    invalid.
    """
    t0 = time.time()
    note = ""
    valid = True
    try:
        if isinstance(task1, DivergenceError):
            raise task1.with_traceback(None)
        net = task1.net_t.copy()  # net_t stays frozen; the recorder reads its weights
        recorder = TraceRecorder(task1.net_t, task1.gold, cfg)
        train_task(net, init_optimizer(net, cfg.lr, cfg.momentum, cfg.weight_decay),
                   scenario.task2_train, cfg, seed=derive_seed(cfg.seed, arch_id, "task2"),
                   recorder=recorder)
        traces = recorder.finalize(net)
        _, ece_after, f_t1 = evaluate(net, scenario.task1_eval)
        observed_shift = measure_logit_shift(task1.f_t, f_t1)
        task2_eval_acc, _, _ = evaluate(net, scenario.task2_eval)
        task1_eval_acc, ece_before = task1.acc, task1.ece_before
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
