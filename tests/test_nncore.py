"""Oracle tests for the dense-network engine.

Gradient correctness is checked against central finite differences; the
spectral norm against a hand-rolled Jacobi eigensolver; initialization
statistics against sample-moment bounds.
"""

import numpy as np
import pytest

from adslab.nncore import (
    ArchitectureSpec,
    DenseNet,
    DivergenceError,
    arch_diagnostics,
    error_signals,
    forward,
    init_network,
    init_optimizer,
    load_network,
    logit_gradient,
    loss_and_backward,
    save_network,
    sgd_step,
    spectral_norm,
)


def small_spec(widths, tag="random"):
    return ArchitectureSpec(depth=len(widths) - 2, widths=tuple(widths), topology_tag=tag)


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

    def test_rejects_zero_width(self):
        spec = ArchitectureSpec(depth=1, widths=(4, 0, 2))
        with pytest.raises(ValueError, match="width"):
            init_network(spec, seed=0)

    def test_rejects_length_mismatch(self):
        spec = ArchitectureSpec(depth=2, widths=(4, 3, 2))
        with pytest.raises(ValueError):
            init_network(spec, seed=0)


def test_arch_diagnostics_collects_problems():
    probs = arch_diagnostics(ArchitectureSpec(0, (4, 0, 3), "nope"))
    assert len(probs) == 4  # depth, length, width, tag


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

class TestForward:
    def test_zero_input_zero_logits(self):
        net = init_network(small_spec([6, 8, 4, 3]), seed=1)
        trace = forward(net, np.zeros((5, 6)))
        assert np.all(trace.logits == 0.0)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            net = init_network(small_spec([6, 9, 5, 3]), seed=seed)
            x = rng.standard_normal((4, 6))
            c = float(rng.uniform(0.1, 10.0))
            base = forward(net, x).logits
            scaled = forward(net, c * x).logits
            np.testing.assert_allclose(scaled, c * base, rtol=1e-10, atol=1e-12)

    def test_hand_computed_single_layer(self):
        # all-ones weights, input [1, 1]: z = 2, a = 2, logit = 2
        spec = small_spec([2, 1, 1])
        net = DenseNet(spec, [np.ones((1, 2)), np.ones((1, 1))])
        trace = forward(net, np.array([[1.0, 1.0]]))
        assert trace.activations[1][0, 0] == 2.0
        assert trace.logits[0, 0] == 2.0

    def test_dimension_mismatch_rejected(self):
        net = init_network(small_spec([6, 8, 3]), seed=1)
        with pytest.raises(ValueError, match="features"):
            forward(net, np.zeros((2, 5)))

    def test_relu_applied_to_hidden_only(self):
        net = init_network(small_spec([4, 16, 3]), seed=5)
        trace = forward(net, np.random.default_rng(2).standard_normal((8, 4)))
        assert np.all(trace.activations[1] >= 0.0)
        assert (trace.logits < 0).any()  # output layer keeps negative values


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
        trace = forward(net, x)
        m = min(np.abs(a @ w.T).min()
                for a, w in zip(trace.activations, net.weights[:-1]))
        if m > margin:
            return net
    raise AssertionError("no kink-free net found")


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)


class TestLossAndBackward:
    def test_uniform_logits_loss_is_log_c(self):
        spec = small_spec([3, 4, 5])
        net = DenseNet(spec, [np.zeros((4, 3)), np.zeros((5, 4))])
        x = np.random.default_rng(0).standard_normal((7, 3))
        trace = forward(net, x)
        loss, _ = loss_and_backward(net, trace, np.array([0, 1, 2, 3, 4, 0, 1]))
        assert abs(loss - np.log(5)) < 1e-12

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((4, 5))
        labels = np.array([0, 2, 1, 2])
        net = stable_test_net([5, 8, 6, 3], 0, x)

        trace = forward(net, x)
        _, grads = loss_and_backward(net, trace, labels)

        def objective(n):
            t = forward(n, x)
            probs_loss, _ = loss_and_backward(n, t, labels)
            return probs_loss

        fd = fd_grad(objective, net)
        worst = max(rel_err(a, f).max() for a, f in zip(grads.layers, fd))
        assert worst < 1e-4

    def test_duplicated_batch_mean_invariance(self):
        rng = np.random.default_rng(3)
        net = init_network(small_spec([5, 7, 4]), seed=9)
        x = rng.standard_normal((6, 5))
        labels = rng.integers(0, 4, size=6)
        t1 = forward(net, x)
        loss1, g1 = loss_and_backward(net, t1, labels)
        x2 = np.vstack([x, x])
        t2 = forward(net, x2)
        loss2, g2 = loss_and_backward(net, t2, np.concatenate([labels, labels]))
        assert abs(loss1 - loss2) < 1e-12
        for a, b in zip(g1.layers, g2.layers):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)

    def test_label_out_of_range(self):
        net = init_network(small_spec([3, 4, 2]), seed=0)
        trace = forward(net, np.zeros((2, 3)))
        with pytest.raises(ValueError, match="range"):
            loss_and_backward(net, trace, np.array([0, 2]))

    def test_empty_batch_rejected(self):
        net = init_network(small_spec([3, 4, 2]), seed=0)
        trace = forward(net, np.zeros((0, 3)))
        with pytest.raises(ValueError, match="empty"):
            loss_and_backward(net, trace, np.array([], dtype=int))


class TestLogitGradient:
    def test_output_layer_row_structure(self):
        # single sample: gradient of output row y is a^(L); other rows zero
        rng = np.random.default_rng(1)
        net = init_network(small_spec([5, 6, 4]), seed=2)
        x = rng.standard_normal((1, 5))
        g = logit_gradient(net, x, np.array([2]))
        a_last = forward(net, x).activations[-1][0]
        np.testing.assert_allclose(g.layers[-1][2], a_last, rtol=0, atol=1e-15)
        for row in (0, 1, 3):
            assert np.all(g.layers[-1][row] == 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 5))
        classes = np.array([1, 0, 2])
        net = stable_test_net([5, 7, 6, 3], 100, x)
        grads = logit_gradient(net, x, classes)

        def objective(n):
            logits = forward(n, x).logits
            return float(np.mean(logits[np.arange(3), classes]))

        fd = fd_grad(objective, net)
        worst = max(rel_err(a, f).max() for a, f in zip(grads.layers, fd))
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
        for a, b, c in zip(ga.layers, gb.layers, gcat.layers):
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
        before = [w.copy() for w in net.weights]
        grads_mats = [np.ones_like(w) for w in net.weights]
        from adslab.nncore import GradientSet
        state = init_optimizer(net, lr=0.1, momentum=0.0, weight_decay=0.0)
        sgd_step(net, GradientSet(grads_mats), state)
        for b, w in zip(before, net.weights):
            np.testing.assert_allclose(w, b - 0.1, rtol=0, atol=1e-15)

    def test_zero_grad_fixed_point(self):
        net = init_network(small_spec([2, 3, 2]), seed=0)
        before = [w.copy() for w in net.weights]
        from adslab.nncore import GradientSet
        zero = GradientSet([np.zeros_like(w) for w in net.weights])
        state = init_optimizer(net, lr=0.5, momentum=0.9, weight_decay=0.0)
        sgd_step(net, zero, state)
        for b, w in zip(before, net.weights):
            assert np.array_equal(b, w)

    def test_momentum_matches_scalar_recurrence(self):
        # 1x1 weight, hand-unrolled: b1 = g1 + wd*w0; w1 = w0 - lr*b1;
        # b2 = m*b1 + g2 + wd*w1; w2 = w1 - lr*b2
        from adslab.nncore import GradientSet
        spec = ArchitectureSpec(depth=1, widths=(1, 1, 1))
        w0, g1, g2 = 0.7, 0.3, -0.2
        lr, m, wd = 0.05, 0.9, 0.01
        net = DenseNet(spec, [np.array([[w0]]), np.array([[1.0]])])
        state = init_optimizer(net, lr=lr, momentum=m, weight_decay=wd)
        zero_out = np.zeros((1, 1))
        sgd_step(net, GradientSet([np.array([[g1]]), zero_out.copy()]), state)
        sgd_step(net, GradientSet([np.array([[g2]]), zero_out.copy()]), state)
        b1 = g1 + wd * w0
        w1 = w0 - lr * b1
        b2 = m * b1 + g2 + wd * w1
        w2 = w1 - lr * b2
        assert abs(net.weights[0][0, 0] - w2) < 1e-12

    def test_nonfinite_gradient_names_layer(self):
        from adslab.nncore import GradientSet
        net = init_network(small_spec([2, 3, 2]), seed=0)
        before = [w.copy() for w in net.weights]
        bad = [np.zeros_like(w) for w in net.weights]
        bad[1][0, 0] = np.nan
        state = init_optimizer(net, lr=0.1)
        with pytest.raises(DivergenceError, match="layer 2"):
            sgd_step(net, GradientSet(bad), state)
        for b, w in zip(before, net.weights):
            assert np.array_equal(b, w)


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
        trace = forward(net, x)
        labels = rng.integers(0, 10, size=8)
        deltas = error_signals(net, trace, labels)
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
            trace = forward(net, x)
            a2 = trace.activations[2]
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
            vals.append(spectral_norm(g.layers[1]).value)
        means[width] = np.mean(vals)
    ratio = means[1024] / means[256]
    assert 1.4 < ratio < 2.8


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------

class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = init_network(small_spec([12, 7, 9, 4], tag="random"), seed=13)
        path = tmp_path / "net.adsn"
        save_network(net, path)
        loaded = load_network(path)
        assert loaded.spec.depth == net.spec.depth
        assert loaded.spec.widths == net.spec.widths
        for a, b in zip(net.weights, loaded.weights):
            assert a.tobytes() == b.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.adsn"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_network(path)

    def test_truncated_rejected(self, tmp_path):
        net = init_network(small_spec([4, 3, 2]), seed=1)
        path = tmp_path / "net.adsn"
        save_network(net, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated|trailing"):
            load_network(path)
