"""Dense network engine: no-bias ReLU nets, backprop, SGD with momentum.

Everything here is deterministic 64-bit numpy. A network's weights are
per-layer views of one flat vector (no autograd); gradients come from the
explicit error-signal recursion and are laid out the same way, so copies
and SGD updates are single passes over contiguous memory. An
``ArchitectureSpec`` is checked once, when it is built.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .stats import softmax

TOPOLOGY_TAGS = ("uniform", "increasing", "decreasing", "bottleneck", "spindle", "random")


@dataclass(frozen=True)
class ArchitectureSpec:
    """One fully-connected architecture: depth plus the full width chain.

    ``widths`` has length ``depth + 2``: input dim, the hidden widths
    w^(1..L), and the output dim.
    """

    depth: int
    widths: tuple[int, ...]
    topology_tag: str = "uniform"

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        problems = []
        if self.depth < 1:
            problems.append(f"depth must be >= 1, got {self.depth}")
        if len(self.widths) != self.depth + 2:
            problems.append(f"widths length must be depth+2 = {self.depth + 2}, "
                            f"got {len(self.widths)}")
        for i, w in enumerate(self.widths):
            if w < 1:
                problems.append(f"width must be >= 1, got {w} at position {i}")
        if self.topology_tag not in TOPOLOGY_TAGS:
            problems.append(f"unknown topology tag {self.topology_tag!r}")
        if problems:
            raise ValueError("invalid architecture spec: " + "; ".join(problems))

    @property
    def input_dim(self) -> int:
        return self.widths[0]

    @property
    def output_dim(self) -> int:
        return self.widths[-1]

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return self.widths[1:-1]

    def with_dims(self, input_dim: int, output_dim: int) -> "ArchitectureSpec":
        """Same hidden stack with a different input/output head."""
        return ArchitectureSpec(self.depth, (input_dim, *self.hidden_widths, output_dim),
                                self.topology_tag)


def n_params(spec: ArchitectureSpec) -> int:
    """Number of weights in a net of this spec."""
    return sum(a * b for a, b in zip(spec.widths[:-1], spec.widths[1:]))


def layer_views(widths, flat: np.ndarray) -> list[np.ndarray]:
    """Per-layer (w_out, w_in) views of a flat parameter-shaped vector, layer 1 first."""
    views, start = [], 0
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        stop = start + fan_in * fan_out
        views.append(flat[start:stop].reshape(fan_out, fan_in))
        start = stop
    return views


@dataclass
class DenseNet:
    """Weights of a no-bias ReLU net, stored in one contiguous float64 vector.

    ``weights[l]`` is the (w_out, w_in) view of ``flat`` for matrix l, which
    maps layer l-1 to l. The head is stored last, so the hidden layers are a
    prefix of ``flat``.
    """

    spec: ArchitectureSpec
    flat: np.ndarray
    weights: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        if self.flat.shape != (n_params(self.spec),) or self.flat.dtype != np.float64:
            raise ValueError(f"flat weights must be float64 of shape ({n_params(self.spec)},), "
                             f"got {self.flat.dtype} {self.flat.shape}")
        self.weights = layer_views(self.spec.widths, self.flat)

    def copy(self) -> "DenseNet":
        return DenseNet(self.spec, self.flat.copy())


# SGD runs over the flat vectors in blocks this long, so each block's four
# arrays stay in cache across the six element-wise passes
SGD_BLOCK = 16384


@dataclass
class OptimizerState:
    buffer: np.ndarray  # momentum, laid out like DenseNet.flat
    lr: float
    momentum: float
    weight_decay: float
    scratch: np.ndarray = field(init=False, repr=False)  # one SGD block's temporary

    def __post_init__(self):  # lr and the other settings are checked by TrainConfig
        self.scratch = np.empty(min(SGD_BLOCK, self.buffer.size))


def init_optimizer(net: DenseNet, lr: float, momentum: float,
                   weight_decay: float) -> OptimizerState:
    return OptimizerState(np.zeros_like(net.flat), lr, momentum, weight_decay)


class Workspace:
    """Buffers for the passes of one net shape at one row count, filled with ``out=``.

    ``forward`` leaves a^(0..L) (a^(0) is its input, not a copy) and the
    logits here for a backward pass. Backward holds one error signal at a
    time, so two buffers hold them all and one the ReLU mask. The next pass
    overwrites everything, the gradients included.
    """

    def __init__(self, spec: ArchitectureSpec, rows: int):
        size = rows * max(spec.hidden_widths)  # the widest hidden layer
        self.activations = [None] + [np.empty((rows, w)) for w in spec.hidden_widths]
        self.logits = np.empty((rows, spec.output_dim))
        self.signals = (np.empty(size), np.empty(size))
        self.mask = np.empty(size, dtype=bool)
        self.grad = np.empty(n_params(spec))
        self.grads = layer_views(spec.widths, self.grad)

    def head(self, rows: int) -> "Workspace":
        """The leading ``rows`` rows of this workspace, sharing all its buffers."""
        ws = copy.copy(self)
        ws.activations = [None] + [a[:rows] for a in self.activations[1:]]
        ws.logits = self.logits[:rows]
        return ws


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


def init_network(spec: ArchitectureSpec, seed: int) -> DenseNet:
    """Kaiming-normal (fan-in) initialization: std = sqrt(2 / w^(l-1))."""
    rng = np.random.default_rng(seed)
    net = DenseNet(spec, np.empty(n_params(spec)))
    for l, w in enumerate(net.weights):
        rng.standard_normal(out=w)
        w *= np.sqrt(2.0 / spec.widths[l])
    return net


def forward(net: DenseNet, batch: np.ndarray, ws: Workspace | None = None) -> np.ndarray:
    """The logits of the net on a (batch, features) matrix; ReLU on hidden layers only.

    With a workspace every activation is left in it for a backward pass;
    without one only the current layer's activation is kept.
    """
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != net.spec.input_dim:
        raise ValueError(
            f"batch must be 2-d with {net.spec.input_dim} features, got shape {batch.shape}"
        )
    a = batch
    if ws is not None:
        ws.activations[0] = batch
    for l in range(net.spec.depth):
        a = np.matmul(a, net.weights[l].T, out=None if ws is None else ws.activations[l + 1])
        np.maximum(a, 0.0, out=a)
    return np.matmul(a, net.weights[-1].T, out=None if ws is None else ws.logits)


def _backward(net: DenseNet, ws: Workspace, dlogits: np.ndarray) -> list[np.ndarray]:
    """Backprop an output-side gradient through the pass ``forward`` left in ``ws``.

    Returns the per-layer weight gradients, shaped like ``net.weights``:
    views of ``ws.grad``. Only one error signal delta^(l) = dObjective/dz^(l)
    is held at a time, in the leading entries of a workspace buffer.
    """
    L = net.spec.depth
    acts, grads = ws.activations, ws.grads
    delta = dlogits
    np.matmul(delta.T, acts[L], out=grads[L])
    for l in range(L - 1, -1, -1):
        a, size = acts[l + 1], acts[l + 1].size
        delta = np.matmul(delta, net.weights[l + 1], out=ws.signals[l % 2][:size].reshape(a.shape))
        # multiply, not select: a negative delta masked to 0 stays -0.0
        np.multiply(delta, np.greater(a, 0.0, out=ws.mask[:size].reshape(a.shape)), out=delta)
        np.matmul(delta.T, acts[l], out=grads[l])
    return grads


def _checked_labels(labels, logits: np.ndarray) -> np.ndarray:
    """One class index per row of a non-empty batch, each in range."""
    labels = np.asarray(labels)
    n, n_classes = logits.shape
    if n == 0:
        raise ValueError("empty batch")
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"label out of range [0, {n_classes})")
    return labels


def loss_and_backward(net: DenseNet, ws: Workspace,
                      labels: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """Mean softmax cross-entropy of the pass in ``ws`` and its weight gradients."""
    labels = _checked_labels(labels, ws.logits)
    n = len(labels)
    dlogits = softmax(ws.logits)  # probabilities, made dLoss/dlogits in place below
    loss = float(-np.mean(np.log(dlogits[np.arange(n), labels] + 1e-300)))
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, _backward(net, ws, dlogits)


def logit_gradient(net: DenseNet, batch: np.ndarray,
                   class_indices: np.ndarray) -> list[np.ndarray]:
    """Gradient of the mean true-class logit over the batch (the g_old probe)."""
    ws = Workspace(net.spec, len(batch))
    logits = forward(net, batch, ws)
    class_indices = _checked_labels(class_indices, logits)
    n = len(class_indices)
    dlogits = np.zeros_like(logits)
    dlogits[np.arange(n), class_indices] = 1.0 / n
    return _backward(net, ws, dlogits)


def sgd_step(net: DenseNet, grad: np.ndarray, state: OptimizerState) -> None:
    """One SGD step with momentum and weight decay, in place.

    buffer <- momentum * buffer + (grad + wd * weight)
    weight <- weight - lr * buffer

    ``grad`` is flat, laid out like ``net.flat``. One blocked pass applies the
    update with the rounding of the per-layer expressions above. A non-finite
    gradient raises DivergenceError before any weight moves.
    """
    # min and max propagate NaN and reach any inf, without a mask the size of grad
    if not (np.isfinite(grad.min()) and np.isfinite(grad.max())):
        for l, g in enumerate(layer_views(net.spec.widths, grad)):
            if not np.all(np.isfinite(g)):
                raise DivergenceError(f"non-finite gradient entries in layer {l + 1}")
    w, buf, t = net.flat, state.buffer, state.scratch
    for start in range(0, w.size, SGD_BLOCK):
        stop = start + SGD_BLOCK
        wb, bb = w[start:stop], buf[start:stop]
        tb = t[:wb.size]
        bb *= state.momentum
        np.multiply(state.weight_decay, wb, out=tb)
        tb += grad[start:stop]
        bb += tb
        np.multiply(state.lr, bb, out=tb)
        wb -= tb


class PowerIterResult(NamedTuple):
    value: float
    converged: bool
    iterations: int


def spectral_norm(matrix: np.ndarray, tol: float = 1e-6, max_iter: int = 500) -> PowerIterResult:
    """Largest singular value by power iteration on A^T A.

    Stops when the estimate's relative change drops below ``tol``. An
    all-zero matrix short-circuits to 0.
    """
    a = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if not a.any():
        return PowerIterResult(0.0, True, 0)
    rng = np.random.default_rng(0)
    v = rng.standard_normal(a.shape[1])
    v /= np.linalg.norm(v)
    sigma_prev = 0.0
    for it in range(1, max_iter + 1):
        u = a @ v
        sigma = float(np.linalg.norm(u))
        if sigma == 0.0:
            # start vector fell in the null space; re-randomize
            v = rng.standard_normal(a.shape[1])
            v /= np.linalg.norm(v)
            continue
        w = a.T @ u
        v = w / np.linalg.norm(w)
        if abs(sigma - sigma_prev) <= tol * sigma:
            return PowerIterResult(sigma, True, it)
        sigma_prev = sigma
    return PowerIterResult(sigma_prev, False, max_iter)

