"""Dense network engine: no-bias ReLU nets, backprop, SGD with momentum.

Everything here is deterministic 64-bit numpy. Networks are plain weight
lists (no autograd); gradients come from the explicit error-signal
recursion, which keeps the per-layer quantities needed by the trace
machinery directly accessible.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        return ArchitectureSpec(
            depth=self.depth,
            widths=(int(input_dim),) + self.hidden_widths + (int(output_dim),),
            topology_tag=self.topology_tag,
        )


def arch_diagnostics(spec: ArchitectureSpec) -> list[str]:
    """Check ArchitectureSpec invariants; returns problem descriptions (empty = ok)."""
    problems = []
    if spec.depth < 1:
        problems.append(f"depth must be >= 1, got {spec.depth}")
    if len(spec.widths) != spec.depth + 2:
        problems.append(f"widths length must be depth+2 = {spec.depth + 2}, "
                        f"got {len(spec.widths)}")
    for i, w in enumerate(spec.widths):
        if w < 1:
            problems.append(f"width must be >= 1, got {w} at position {i}")
    if spec.topology_tag not in TOPOLOGY_TAGS:
        problems.append(f"unknown topology tag {spec.topology_tag!r}")
    return problems


@dataclass
class DenseNet:
    """Weight matrices of a no-bias ReLU net; matrix l maps layer l-1 to l."""

    spec: ArchitectureSpec
    weights: list[np.ndarray]

    def copy(self) -> "DenseNet":
        return DenseNet(self.spec, [w.copy() for w in self.weights])


@dataclass
class OptimizerState:
    momentum_buffers: list[np.ndarray]
    lr: float
    momentum: float
    weight_decay: float

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")


def init_optimizer(net: DenseNet, lr: float, momentum: float,
                   weight_decay: float) -> OptimizerState:
    return OptimizerState([np.zeros_like(w) for w in net.weights], lr, momentum, weight_decay)


@dataclass
class ForwardTrace:
    """The activations of one forward pass (batch-first); the ReLU mask
    z^(l) > 0 of a hidden layer is a^(l) > 0."""

    activations: list[np.ndarray]    # a^(0)..a^(L); a^(0) is the input batch
    logits: np.ndarray


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss or gradient."""


def init_network(spec: ArchitectureSpec, seed: int) -> DenseNet:
    """Kaiming-normal (fan-in) initialization: std = sqrt(2 / w^(l-1))."""
    problems = arch_diagnostics(spec)
    if problems:
        raise ValueError("invalid architecture spec: " + "; ".join(problems))
    rng = np.random.default_rng(seed)
    weights = []
    for l in range(spec.depth + 1):
        fan_in = spec.widths[l]
        fan_out = spec.widths[l + 1]
        std = np.sqrt(2.0 / fan_in)
        weights.append(rng.standard_normal((fan_out, fan_in)) * std)
    return DenseNet(spec, weights)


def forward(net: DenseNet, batch: np.ndarray) -> ForwardTrace:
    """Run the net on a (batch, features) matrix; ReLU on hidden layers only."""
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[1] != net.spec.input_dim:
        raise ValueError(
            f"batch must be 2-d with {net.spec.input_dim} features, got shape {batch.shape}"
        )
    activations = [batch]
    a = batch
    for l in range(net.spec.depth):
        a = np.maximum(a @ net.weights[l].T, 0.0)
        activations.append(a)
    logits = a @ net.weights[-1].T
    return ForwardTrace(activations, logits)


def _backward(net: DenseNet, trace: ForwardTrace,
              dlogits: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Backprop an output-side gradient through the net.

    Returns the per-layer weight gradients, shaped like ``net.weights``,
    plus the error signals delta^(l) = dObjective/dz^(l) (the output
    layer's delta first in reverse order is dlogits itself).
    """
    L = net.spec.depth
    grads: list[np.ndarray | None] = [None] * (L + 1)
    deltas: list[np.ndarray | None] = [None] * (L + 1)
    delta = dlogits
    deltas[L] = delta
    grads[L] = delta.T @ trace.activations[L]
    for l in range(L - 1, -1, -1):
        delta = (delta @ net.weights[l + 1]) * (trace.activations[l + 1] > 0.0)
        deltas[l] = delta
        grads[l] = delta.T @ trace.activations[l]
    return grads, deltas


def loss_and_backward(net: DenseNet, trace: ForwardTrace,
                      labels: np.ndarray) -> tuple[float, list[np.ndarray]]:
    """Mean softmax cross-entropy over the batch and its weight gradients."""
    labels = np.asarray(labels)
    n, n_classes = trace.logits.shape
    if n == 0:
        raise ValueError("empty batch")
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"label out of range [0, {n_classes})")
    dlogits = softmax(trace.logits)  # probabilities, made dLoss/dlogits in place below
    loss = float(-np.mean(np.log(dlogits[np.arange(n), labels] + 1e-300)))
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    grads, _ = _backward(net, trace, dlogits)
    return loss, grads


def error_signals(net: DenseNet, trace: ForwardTrace, labels: np.ndarray) -> list[np.ndarray]:
    """Per-layer error signals delta^(l) of the cross-entropy loss, l = 1..L+1."""
    labels = np.asarray(labels)
    n = trace.logits.shape[0]
    dlogits = softmax(trace.logits)
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    _, deltas = _backward(net, trace, dlogits)
    return deltas


def logit_gradient(net: DenseNet, batch: np.ndarray,
                   class_indices: np.ndarray) -> list[np.ndarray]:
    """Gradient of the mean true-class logit over the batch (the g_old probe)."""
    class_indices = np.asarray(class_indices)
    trace = forward(net, batch)
    n, n_classes = trace.logits.shape
    if class_indices.shape != (n,):
        raise ValueError(f"class_indices must have shape ({n},), got {class_indices.shape}")
    if n == 0:
        raise ValueError("empty batch")
    if class_indices.min() < 0 or class_indices.max() >= n_classes:
        raise ValueError(f"class index out of range [0, {n_classes})")
    dlogits = np.zeros_like(trace.logits)
    dlogits[np.arange(n), class_indices] = 1.0 / n
    grads, _ = _backward(net, trace, dlogits)
    return grads


def sgd_step(net: DenseNet, grads: list[np.ndarray], state: OptimizerState) -> None:
    """One SGD step with momentum and weight decay, in place.

    buffer <- momentum * buffer + (grad + wd * weight)
    weight <- weight - lr * buffer

    A non-finite gradient raises DivergenceError before any weight moves.
    """
    for l, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient entries in layer {l + 1}")
    for w, g, buf in zip(net.weights, grads, state.momentum_buffers):
        buf *= state.momentum
        buf += g + state.weight_decay * w
        w -= state.lr * buf


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

