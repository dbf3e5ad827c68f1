"""Oracle tests for the dense-network engine.

Gradient correctness is checked against central finite differences; the
spectral norm against a hand-rolled Jacobi eigensolver; initialization
statistics against sample-moment bounds; the flat-parameter training step
bit for bit against the list-based reference functions below.
"""

import tracemalloc

import numpy as np
import pytest

from adslab import clrun
from adslab.clrun import TrainConfig, train_task
from adslab.datasets import Dataset
from adslab.nncore import (
    ArchitectureSpec,
    DenseNet,
    DivergenceError,
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
from adslab.stats import softmax


def small_spec(widths, tag="random"):
    return ArchitectureSpec(depth=len(widths) - 2, widths=tuple(widths), topology_tag=tag)


def net_of(spec, matrices):
    """A net holding these weight matrices."""
    return DenseNet(spec, np.concatenate([np.asarray(m, dtype=np.float64).ravel()
                                          for m in matrices]))


# ---------------------------------------------------------------------------
# list-based reference engine: one new array per layer and per operation
# ---------------------------------------------------------------------------

def ref_forward(weights, batch):
    activations = [batch]
    a = batch
    for w in weights[:-1]:
        a = np.maximum(a @ w.T, 0.0)
        activations.append(a)
    return activations, a @ weights[-1].T


def ref_backward(weights, activations, dlogits):
    """Weight gradients and every error signal delta^(l), l = 1..L+1."""
    L = len(weights) - 1
    grads = [None] * (L + 1)
    deltas = [None] * (L + 1)
    delta = dlogits
    deltas[L] = delta
    grads[L] = delta.T @ activations[L]
    for l in range(L - 1, -1, -1):
        delta = (delta @ weights[l + 1]) * (activations[l + 1] > 0.0)
        deltas[l] = delta
        grads[l] = delta.T @ activations[l]
    return grads, deltas


def ref_dloss(logits, labels):
    """Mean cross-entropy and its gradient with respect to the logits."""
    n = logits.shape[0]
    dlogits = softmax(logits)
    loss = float(-np.mean(np.log(dlogits[np.arange(n), labels] + 1e-300)))
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits


def ref_sgd_step(weights, grads, buffers, lr, momentum, weight_decay):
    for l, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient entries in layer {l + 1}")
    for w, g, buf in zip(weights, grads, buffers):
        buf *= momentum
        buf += g + weight_decay * w
        w -= lr * buf


def traced(net, x):
    """A workspace holding the forward pass of the net on x."""
    ws = Workspace(net.spec, len(x))
    forward(net, x, ws)
    return ws


def error_signals(net, labels, x):
    """Per-layer error signals delta^(l) of the cross-entropy loss, l = 1..L+1."""
    activations, logits = ref_forward(net.weights, x)
    _, dlogits = ref_dloss(logits, labels)
    return ref_backward(net.weights, activations, dlogits)[1]


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

class TestInitNetwork:
    def test_deterministic_by_seed(self):
        spec = small_spec([784, 256, 10])
        a = init_network(spec, seed=7)
        b = init_network(spec, seed=7)
        for wa, wb in zip(a.weights, b.weights):
            assert wa.tobytes() == wb.tobytes()

    def test_different_seed_differs(self):
        spec = small_spec([784, 256, 10])
        a = init_network(spec, seed=7)
        b = init_network(spec, seed=8)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_fan_in_variance(self):
        # layer with fan-in 1024 and >= 1e5 entries: sample variance near 2/1024
        spec = small_spec([1024, 128, 10])
        net = init_network(spec, seed=3)
        w = net.weights[0]
        assert w.size >= 10**5
        target = 2.0 / 1024
        assert abs(w.var() - target) / target < 0.10

    def test_mean_within_standard_error(self):
        spec = small_spec([1024, 128, 10])
        net = init_network(spec, seed=11)
        w = net.weights[0]
        std = np.sqrt(2.0 / 1024)
        assert abs(w.mean()) < 3 * std / np.sqrt(w.size)

    def test_shapes_chain(self):
        spec = small_spec([5, 7, 3, 2])
        net = init_network(spec, seed=0)
        assert [w.shape for w in net.weights] == [(7, 5), (3, 7), (2, 3)]

    # a bad spec is refused when built, so no net of it can be initialized
    def test_rejects_zero_width(self):
        with pytest.raises(ValueError, match="width"):
            ArchitectureSpec(depth=1, widths=(4, 0, 2))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="widths length"):
            ArchitectureSpec(depth=2, widths=(4, 3, 2))


def test_spec_construction_names_every_problem():
    with pytest.raises(ValueError) as err:
        ArchitectureSpec(0, (4, 0, 3), "nope")
    problems = str(err.value).split(": ", 1)[1].split("; ")
    assert len(problems) == 4  # depth, length, width, tag
    for named in ("depth must be >= 1", "widths length", "width must be >= 1", "'nope'"):
        assert any(named in p for p in problems), named


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

class TestForward:
    def test_zero_input_zero_logits(self):
        net = init_network(small_spec([6, 8, 4, 3]), seed=1)
        logits = forward(net, np.zeros((5, 6)))
        assert np.all(logits == 0.0)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            net = init_network(small_spec([6, 9, 5, 3]), seed=seed)
            x = rng.standard_normal((4, 6))
            c = float(rng.uniform(0.1, 10.0))
            base = forward(net, x)
            scaled = forward(net, c * x)
            np.testing.assert_allclose(scaled, c * base, rtol=1e-10, atol=1e-12)

    def test_hand_computed_single_layer(self):
        # all-ones weights, input [1, 1]: z = 2, a = 2, logit = 2
        spec = small_spec([2, 1, 1])
        net = net_of(spec, [np.ones((1, 2)), np.ones((1, 1))])
        ws = traced(net, np.array([[1.0, 1.0]]))
        assert ws.activations[1][0, 0] == 2.0
        assert ws.logits[0, 0] == 2.0

    def test_dimension_mismatch_rejected(self):
        net = init_network(small_spec([6, 8, 3]), seed=1)
        with pytest.raises(ValueError, match="features"):
            forward(net, np.zeros((2, 5)))

    def test_relu_applied_to_hidden_only(self):
        net = init_network(small_spec([4, 16, 3]), seed=5)
        ws = traced(net, np.random.default_rng(2).standard_normal((8, 4)))
        assert np.all(ws.activations[1] >= 0.0)
        assert (ws.logits < 0).any()  # output layer keeps negative values


# ---------------------------------------------------------------------------
# gradients vs finite differences
# ---------------------------------------------------------------------------

def fd_grad(objective, net, eps=1e-5):
    """Central finite differences of a scalar objective over every weight."""
    grads = []
    for w in net.weights:
        g = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + eps
            f_plus = objective(net)
            w[idx] = orig - eps
            f_minus = objective(net)
            w[idx] = orig
            g[idx] = (f_plus - f_minus) / (2 * eps)
            it.iternext()
        grads.append(g)
    return grads


def stable_test_net(widths, seed, x, margin=1e-3):
    """A net whose preactivations stay away from the ReLU kink on x."""
    for s in range(seed, seed + 50):
        net = init_network(small_spec(widths), seed=s)
        ws = traced(net, x)
        m = min(np.abs(a @ w.T).min()
                for a, w in zip(ws.activations, net.weights[:-1]))
        if m > margin:
            return net
    raise AssertionError("no kink-free net found")


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)


class TestLossAndBackward:
    def test_uniform_logits_loss_is_log_c(self):
        spec = small_spec([3, 4, 5])
        net = net_of(spec, [np.zeros((4, 3)), np.zeros((5, 4))])
        x = np.random.default_rng(0).standard_normal((7, 3))
        loss, _ = loss_and_backward(net, traced(net, x), np.array([0, 1, 2, 3, 4, 0, 1]))
        assert abs(loss - np.log(5)) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((4, 5))
        labels = np.array([0, 2, 1, 2])
        net = stable_test_net([5, 8, 6, 3], 0, x)

        _, grads = loss_and_backward(net, traced(net, x), labels)

        def objective(n):
            probs_loss, _ = loss_and_backward(n, traced(n, x), labels)
            return probs_loss

        fd = fd_grad(objective, net)
        worst = max(rel_err(a, f).max() for a, f in zip(grads, fd))
        assert worst < 1e-4

    def test_duplicated_batch_mean_invariance(self):
        rng = np.random.default_rng(3)
        net = init_network(small_spec([5, 7, 4]), seed=9)
        x = rng.standard_normal((6, 5))
        labels = rng.integers(0, 4, size=6)
        loss1, g1 = loss_and_backward(net, traced(net, x), labels)
        x2 = np.vstack([x, x])
        loss2, g2 = loss_and_backward(net, traced(net, x2), np.concatenate([labels, labels]))
        assert abs(loss1 - loss2) < 1e-12
        for a, b in zip(g1, g2):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    def test_label_out_of_range(self):
        net = init_network(small_spec([3, 4, 2]), seed=0)
        ws = traced(net, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="range"):
            loss_and_backward(net, ws, np.array([0, 2]))

    def test_empty_batch_rejected(self):
        net = init_network(small_spec([3, 4, 2]), seed=0)
        ws = traced(net, np.zeros((0, 3)))
        with pytest.raises(ValueError, match="empty"):
            loss_and_backward(net, ws, np.array([], dtype=int))


class TestLogitGradient:
    def test_output_layer_row_structure(self):
        # single sample: gradient of output row y is a^(L); other rows zero
        rng = np.random.default_rng(1)
        net = init_network(small_spec([5, 6, 4]), seed=2)
        x = rng.standard_normal((1, 5))
        g = logit_gradient(net, x, np.array([2]))
        a_last = traced(net, x).activations[-1][0]
        np.testing.assert_allclose(g[-1][2], a_last, rtol=0, atol=1e-15)
        for row in (0, 1, 3):
            assert np.all(g[-1][row] == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 5))
        classes = np.array([1, 0, 2])
        net = stable_test_net([5, 7, 6, 3], 100, x)
        grads = logit_gradient(net, x, classes)

        def objective(n):
            logits = forward(n, x)
            return float(np.mean(logits[np.arange(3), classes]))

        fd = fd_grad(objective, net)
        worst = max(rel_err(a, f).max() for a, f in zip(grads, fd))
        assert worst < 1e-4

    def test_batch_mean_linearity(self):
        rng = np.random.default_rng(5)
        net = init_network(small_spec([4, 6, 3]), seed=4)
        xa = rng.standard_normal((3, 4))
        xb = rng.standard_normal((3, 4))
        ca = rng.integers(0, 3, size=3)
        cb = rng.integers(0, 3, size=3)
        ga = logit_gradient(net, xa, ca)
        gb = logit_gradient(net, xb, cb)
        gcat = logit_gradient(net, np.vstack([xa, xb]), np.concatenate([ca, cb]))
        for a, b, c in zip(ga, gb, gcat):
            np.testing.assert_allclose((a + b) / 2, c, rtol=0, atol=1e-15)

    def test_class_out_of_range(self):
        net = init_network(small_spec([3, 4, 2]), seed=0)
        with pytest.raises(ValueError, match="range"):
            logit_gradient(net, np.zeros((1, 3)), np.array([5]))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

class TestSgdStep:
    def test_plain_sgd(self):
        net = init_network(small_spec([2, 3, 2]), seed=0)
        before = net.flat.copy()
        state = init_optimizer(net, lr=0.1, momentum=0.0, weight_decay=0.0)
        sgd_step(net, np.ones_like(net.flat), state)
        np.testing.assert_allclose(net.flat, before - 0.1, rtol=0, atol=1e-15)

    def test_zero_grad_fixed_point(self):
        net = init_network(small_spec([2, 3, 2]), seed=0)
        before = net.flat.copy()
        state = init_optimizer(net, lr=0.5, momentum=0.9, weight_decay=0.0)
        sgd_step(net, np.zeros_like(net.flat), state)
        assert np.array_equal(before, net.flat)

    def test_momentum_matches_scalar_recurrence(self):
        # 1x1 weight, hand-unrolled: b1 = g1 + wd*w0; w1 = w0 - lr*b1;
        # b2 = m*b1 + g2 + wd*w1; w2 = w1 - lr*b2
        spec = ArchitectureSpec(depth=1, widths=(1, 1, 1))
        w0, g1, g2 = 0.7, 0.3, -0.2
        lr, m, wd = 0.05, 0.9, 0.01
        net = net_of(spec, [[[w0]], [[1.0]]])
        state = init_optimizer(net, lr=lr, momentum=m, weight_decay=wd)
        sgd_step(net, np.array([g1, 0.0]), state)
        sgd_step(net, np.array([g2, 0.0]), state)
        b1 = g1 + wd * w0
        w1 = w0 - lr * b1
        b2 = m * b1 + g2 + wd * w1
        w2 = w1 - lr * b2
        assert abs(net.weights[0][0, 0] - w2) < 1e-12

    def test_nonfinite_gradient_names_layer(self):
        net = init_network(small_spec([2, 3, 4, 2]), seed=0)
        state = init_optimizer(net, lr=0.1, momentum=0.9, weight_decay=1e-2)
        sgd_step(net, np.ones_like(net.flat), state)  # a nonzero momentum to protect
        weights, momentum = net.flat.copy(), state.buffer.copy()
        for bad_value in (np.nan, np.inf, -np.inf):
            bad = np.zeros_like(net.flat)
            layer_views(net.spec.widths, bad)[1][2, 1] = bad_value
            with pytest.raises(DivergenceError, match="layer 2"):
                sgd_step(net, bad, state)
            assert np.array_equal(net.flat, weights)
            assert np.array_equal(state.buffer, momentum)

    def test_finite_gradient_whose_square_overflows_steps(self):
        # every entry is finite, though their sum of squares overflows: the step must not raise
        net = init_network(small_spec([2, 3, 4, 2]), seed=0)
        state = init_optimizer(net, lr=0.1, momentum=0.9, weight_decay=1e-2)
        weights = [w.copy() for w in net.weights]
        buffers = [np.zeros_like(w) for w in weights]
        rng = np.random.default_rng(5)
        for big in (None, 1e200):
            grad = rng.standard_normal(net.flat.size)
            if big is not None:
                layer_views(net.spec.widths, grad)[1][2, 1] = big
                with np.errstate(over="ignore"):
                    assert not np.isfinite(grad @ grad)
            sgd_step(net, grad, state)
            ref_sgd_step(weights, [g.copy() for g in layer_views(net.spec.widths, grad)],
                         buffers, 0.1, 0.9, 1e-2)
            for w, ref_w in zip(net.weights, weights):
                assert w.tobytes() == ref_w.tobytes()
            assert state.buffer.tobytes() == np.concatenate(
                [b.ravel() for b in buffers]).tobytes()


# ---------------------------------------------------------------------------
# flat parameters and step workspaces
# ---------------------------------------------------------------------------

def test_copy_is_independent():
    net = init_network(small_spec([5, 7, 3]), seed=0)
    before = net.flat.copy()
    twin = net.copy()
    twin.weights[0][0, 0] += 1.0
    twin.weights[-1][...] = 0.0
    assert np.array_equal(net.flat, before)
    assert not np.shares_memory(twin.flat, net.flat)
    assert all(np.shares_memory(w, twin.flat) for w in twin.weights)


class _StepCapture:
    """Recorder stand-in: copies the gradients, weights and momentum after every step."""

    def __init__(self, state):
        self.state = state
        self.steps = []

    def after_step(self, net, grads):
        self.steps.append(([g.copy() for g in grads], net.flat.copy(), self.state.buffer.copy()))


def ref_train(weights, dataset, cfg, seed):
    """Today's list-based training loop with train_task's batching."""
    rng = np.random.default_rng(seed)
    buffers = [np.zeros_like(w) for w in weights]
    n = len(dataset)
    out = []
    while len(out) < cfg.steps_per_task:
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            if len(out) >= cfg.steps_per_task:
                break
            idx = order[start:start + cfg.batch_size]
            activations, logits = ref_forward(weights, dataset.images[idx])
            loss, dlogits = ref_dloss(logits, dataset.labels[idx])
            grads, _ = ref_backward(weights, activations, dlogits)
            ref_sgd_step(weights, grads, buffers, cfg.lr, cfg.momentum, cfg.weight_decay)
            out.append((loss, grads, [w.copy() for w in weights], [b.copy() for b in buffers]))
    return out


REFERENCE_WIDTHS = [
    (20, 300, 40, 5),                    # more weights than one SGD block
    (20, 64, 16, 96, 8, 5),
    (20,) + (64,) * 10 + (5,),           # depth 10
]


@pytest.mark.parametrize("widths", REFERENCE_WIDTHS)
def test_training_steps_bit_identical_to_list_reference(widths, monkeypatch):
    # 97 rows in batches of 32: every fourth step is a partial batch of one row
    rng = np.random.default_rng(17)
    labels = rng.integers(0, 5, size=97)
    images = rng.standard_normal((97, 20)) + np.eye(5, 20)[labels] * 2.0
    dataset = Dataset(images, labels)
    cfg = TrainConfig(steps_per_task=27, batch_size=32, lr=0.05, momentum=0.9,
                      weight_decay=5e-4)
    spec = small_spec(widths)
    net = init_network(spec, seed=3)
    expected = ref_train([w.copy() for w in net.weights], dataset, cfg, seed=11)

    losses = []
    original = clrun.loss_and_backward

    def capture_loss(*args, **kw):
        loss, grads = original(*args, **kw)
        losses.append(loss)
        return loss, grads

    monkeypatch.setattr(clrun, "loss_and_backward", capture_loss)
    state = init_optimizer(net, cfg.lr, cfg.momentum, cfg.weight_decay)
    capture = _StepCapture(state)
    train_task(net, state, dataset, cfg, seed=11, recorder=capture)

    # compared as bytes, so that a zero of the other sign also fails
    assert len(capture.steps) == len(expected) == 27
    for loss, (ref_loss, ref_grads, ref_weights, ref_buffers), (grads, flat, buf) in zip(
            losses, expected, capture.steps):
        assert loss == ref_loss
        for g, ref_g in zip(grads, ref_grads):
            assert g.tobytes() == ref_g.tobytes()
        assert flat.tobytes() == b"".join(w.tobytes() for w in ref_weights)
        assert buf.tobytes() == b"".join(b.tobytes() for b in ref_buffers)


@pytest.mark.parametrize("widths", REFERENCE_WIDTHS)
def test_logits_and_logit_gradient_bit_identical_to_list_reference(widths):
    rng = np.random.default_rng(23)
    x = rng.standard_normal((37, 20))
    classes = rng.integers(0, 5, size=37)
    net = init_network(small_spec(widths), seed=4)
    activations, logits = ref_forward(net.weights, x)
    dlogits = np.zeros_like(logits)
    dlogits[np.arange(37), classes] = 1.0 / 37
    ref_grads, _ = ref_backward(net.weights, activations, dlogits)
    assert forward(net, x).tobytes() == logits.tobytes()
    grads = logit_gradient(net, x, classes)
    assert len(grads) == len(ref_grads)
    for g, ref_g in zip(grads, ref_grads):
        assert g.tobytes() == ref_g.tobytes()


def test_forward_without_workspace_keeps_one_layer_alive():
    # an evaluation forward holds a layer's input and output, never the whole stack
    net = init_network(small_spec([256] * 11 + [10]), seed=0)  # depth 10, width 256
    x = np.random.default_rng(0).standard_normal((1000, 256))
    layer_bytes = x.nbytes
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        logits = forward(net, x)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 3 * layer_bytes
    assert logits.shape == (1000, 10)


def test_training_step_allocates_under_one_percent_of_weights():
    spec = small_spec([784] + [512] * 5 + [10])
    net = init_network(spec, seed=0)
    state = init_optimizer(net, lr=1e-3, momentum=0.9, weight_decay=5e-4)
    ws = Workspace(spec, 128)
    rng = np.random.default_rng(0)
    batch = rng.standard_normal((128, spec.input_dim))
    labels = rng.integers(0, 10, size=128)

    def step():
        forward(net, batch, ws)
        loss_and_backward(net, ws, labels)
        sgd_step(net, ws.grad, state)

    step()  # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        step()
        allocated = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert allocated < 0.01 * net.flat.nbytes


# ---------------------------------------------------------------------------
# spectral norm
# ---------------------------------------------------------------------------

def jacobi_eigen_max(sym, sweeps=50):
    """Largest eigenvalue of a small symmetric matrix via classical Jacobi rotations."""
    a = sym.copy()
    n = a.shape[0]
    for _ in range(sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(a[p, q]))
                if abs(a[p, q]) < 1e-15:
                    continue
                theta = 0.5 * np.arctan2(2 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
        if off < 1e-15:
            break
    return float(np.max(np.diag(a)))


class TestSpectralNorm:
    def test_identity(self):
        r = spectral_norm(np.eye(5))
        assert r.converged
        assert abs(r.value - 1.0) < 1e-9

    def test_rank_one(self):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(6)
        v = rng.standard_normal(4)
        r = spectral_norm(np.outer(u, v))
        expected = np.linalg.norm(u) * np.linalg.norm(v)
        assert abs(r.value - expected) / expected < 1e-9

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(5):
            a = rng.standard_normal((6, 4))
            r = spectral_norm(a, tol=1e-10, max_iter=5000)
            expected = np.sqrt(jacobi_eigen_max(a.T @ a))
            assert abs(r.value - expected) / expected < 1e-6

    def test_zero_matrix(self):
        r = spectral_norm(np.zeros((3, 3)))
        assert r.value == 0.0
        assert r.iterations == 0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            spectral_norm(np.array([[np.inf, 0.0]]))


# ---------------------------------------------------------------------------
# width-scaling properties at He initialization
# ---------------------------------------------------------------------------

N_PROPERTY_SEEDS = 24


def test_error_signal_energy_stable_across_layers():
    # squared error-signal norms of adjacent hidden layers stay within 2x
    ratios = []
    for seed in range(N_PROPERTY_SEEDS):
        rng = np.random.default_rng(1000 + seed)
        net = init_network(small_spec([256, 256, 256, 256, 10]), seed=seed)
        x = rng.standard_normal((8, 256))
        labels = rng.integers(0, 10, size=8)
        deltas = error_signals(net, labels, x)
        # hidden deltas: indices 0..L-1
        e = [np.sum(d**2) for d in deltas[:-1]]
        ratios.append([e[i] / e[i + 1] for i in range(len(e) - 1)])
    mean_ratios = np.mean(ratios, axis=0)
    assert np.all(mean_ratios > 0.5) and np.all(mean_ratios < 2.0)


def test_activation_norm_scales_with_sqrt_width():
    normalized = {}
    for width in (256, 512, 1024):
        vals = []
        for seed in range(N_PROPERTY_SEEDS):
            rng = np.random.default_rng(2000 + seed)
            net = init_network(small_spec([128, width, width, 10]), seed=seed)
            x = rng.standard_normal((4, 128))
            a2 = traced(net, x).activations[2]
            vals.append(np.mean(np.linalg.norm(a2, axis=1)) / np.sqrt(width))
        normalized[width] = np.mean(vals)
    lo, hi = min(normalized.values()), max(normalized.values())
    assert hi / lo < 2.0


def test_gradient_spectral_norm_scales_with_sqrt_fan_in():
    # spectral norm of the layer-2 logit gradient: fan-in 1024 vs 256 -> ~sqrt(4)
    means = {}
    for width in (256, 1024):
        vals = []
        for seed in range(N_PROPERTY_SEEDS):
            rng = np.random.default_rng(3000 + seed)
            net = init_network(small_spec([64, width, width, 10]), seed=seed)
            x = rng.standard_normal((1, 64))
            g = logit_gradient(net, x, np.array([0]))
            vals.append(spectral_norm(g[1]).value)
        means[width] = np.mean(vals)
    ratio = means[1024] / means[256]
    assert 1.4 < ratio < 2.8
