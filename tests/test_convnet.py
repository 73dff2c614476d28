"""Pose ConvNet tests: init, forward, gradients, training, checkpoints."""

import struct
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convnet_reference as reference
from posestream.convnet import (
    FORWARD_SLICE,
    NetSpec,
    TrainConfig,
    TrainingDivergedError,
    _conv_grads,
    _conv_input_grad,
    _conv_relu,
    _forward,
    _loss_and_grads,
    _pool,
    _pool_argmax,
    _unpool,
    backward,
    forward,
    init_net,
    load_checkpoint,
    save_checkpoint,
    train,
)

SMALL_ARCH = NetSpec(conv1_channels=3, conv2_channels=4, hidden=8)
SMALL_SHAPE = (8, 10, 3)


def small_net(seed=0):
    return init_net(SMALL_SHAPE, num_classes=3, seed=seed, arch=SMALL_ARCH)


def naive_conv(x, w, b):
    """Loop-based valid convolution oracle."""
    batch, height, width, c_in = x.shape
    fh, fw, _, c_out = w.shape
    out = np.zeros((batch, height - fh + 1, width - fw + 1, c_out))
    for n in range(batch):
        for i in range(out.shape[1]):
            for j in range(out.shape[2]):
                for c in range(c_out):
                    out[n, i, j, c] = np.sum(x[n, i:i + fh, j:j + fw, :] * w[:, :, :, c]) + b[c]
    return out


from conftest import assert_kink_free


def numeric_gradients(net, x, labels, h=1e-4):
    """Central finite differences of the summed batch loss, per parameter."""
    def batch_loss():
        total, _, _ = _loss_and_grads(net, x, labels)
        return total

    grads = {}
    for name, param in net.parameters().items():
        grad = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            saved = param[idx]
            param[idx] = saved + h
            plus = batch_loss()
            param[idx] = saved - h
            minus = batch_loss()
            param[idx] = saved
            grad[idx] = (plus - minus) / (2 * h)
            it.iternext()
        grads[name] = grad
    return grads


class TestInit:
    def test_same_seed_identical(self):
        a, b = small_net(5), small_net(5)
        for name, param in a.parameters().items():
            np.testing.assert_array_equal(param, b.parameters()[name])

    def test_different_seed_differs(self):
        a, b = small_net(5), small_net(6)
        assert not np.array_equal(a.conv1_w, b.conv1_w)

    def test_biases_zero(self):
        net = small_net()
        for name, param in net.parameters().items():
            if name.endswith("_b"):
                assert (param == 0).all()

    def test_xavier_bound(self):
        # fan_in = fan_out = 3 would give bound 1; check the actual bounds
        # per layer instead: |w| <= sqrt(6 / (fan_in + fan_out)).
        net = small_net()
        receptive = 6
        bounds = {
            "conv1_w": np.sqrt(6.0 / (receptive * 3 + receptive * 3)),
            "conv2_w": np.sqrt(6.0 / (receptive * 3 + receptive * 4)),
        }
        for name, bound in bounds.items():
            values = net.parameters()[name]
            assert np.abs(values).max() <= bound

    def test_xavier_unit_bound_for_fan_three(self):
        # fan_in = fan_out = 3 gives bound sqrt(6/6) = 1.
        from posestream.convnet import _xavier

        rng = np.random.default_rng(0)
        values = _xavier(rng, (5000,), fan_in=3, fan_out=3)
        assert np.abs(values).max() <= 1.0
        assert np.abs(values).max() > 0.99  # the bound is actually reached

    def test_xavier_variance(self):
        # Uniform(-a, a) has variance a^2 / 3; a large layer's sample
        # variance must land within 10% of it.
        arch = NetSpec(conv1_channels=32, conv2_channels=32, hidden=400)
        net = init_net((10, 30, 3), num_classes=5, seed=1, arch=arch)
        flat_in = net.fc1_w.shape[0]
        a = np.sqrt(6.0 / (flat_in + 400))
        sample_var = net.fc1_w.var()
        assert net.fc1_w.size > 10_000
        assert abs(sample_var - a * a / 3.0) < 0.1 * (a * a / 3.0)

    def test_shape_underflow(self):
        with pytest.raises(ValueError, match="too small"):
            init_net((5, 10, 3), num_classes=3, arch=SMALL_ARCH)
        with pytest.raises(ValueError, match="too small"):
            init_net((8, 3, 3), num_classes=3, arch=SMALL_ARCH)

    def test_rejects_single_class(self):
        with pytest.raises(ValueError, match="at least 2"):
            init_net(SMALL_SHAPE, num_classes=1)


class TestConvPrimitive:
    def test_hand_computed(self):
        # One 3x4 input channel, one 3x2 filter: output column j is the sum
        # of entries in rows 0..2, columns j..j+1, weighted by the filter.
        x = np.arange(12, dtype=np.float64).reshape(1, 3, 4, 1)
        w = np.zeros((3, 2, 1, 1))
        w[:, :, 0, 0] = [[1.0, 0.0], [0.0, 2.0], [-1.0, 0.0]]
        b = np.array([0.5])
        _, out = _conv_relu(x, w, b, (1, 3))
        # out[j] = x[0,j] + 2*x[1,j+1] - x[2,j] + 0.5
        expected = np.array(
            [[0 + 2 * 5 - 8 + 0.5, 1 + 2 * 6 - 9 + 0.5, 2 + 2 * 7 - 10 + 0.5]]
        ).reshape(1, 1, 3, 1)
        np.testing.assert_allclose(out, expected)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 6, 7, 3))
        w = rng.normal(size=(3, 2, 3, 4))
        b = rng.normal(size=4)
        expected = np.maximum(naive_conv(x, w, b), 0.0)
        for extent in [(4, 6), (3, 5), (1, 1)]:
            _, out = _conv_relu(x, w, b, extent)
            np.testing.assert_allclose(out, expected[:, : extent[0], : extent[1]], atol=1e-12)


class TestForward:
    def test_zero_input_uniform_probabilities(self):
        net = small_net()
        probs = forward(net, np.zeros((1,) + SMALL_SHAPE))
        np.testing.assert_allclose(probs, np.full((1, 3), 1 / 3), atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(1)
        net = small_net()
        batch = rng.normal(size=(20,) + SMALL_SHAPE)
        probs = forward(net, batch)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert (probs >= 0).all()

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(2)
        net = small_net()
        x = rng.normal(size=(1,) + SMALL_SHAPE)
        base = forward(net, x)
        shifted = net.copy()
        shifted.out_b += 7.3
        np.testing.assert_allclose(forward(shifted, x), base, atol=1e-9)

    def test_shape_mismatch(self):
        net = small_net()
        with pytest.raises(ValueError, match="does not match"):
            forward(net, np.zeros((2, 8, 11, 3)))
        # A single tensor is not a batch.
        with pytest.raises(ValueError, match="does not match"):
            forward(net, np.zeros(SMALL_SHAPE))

    # Default tensor shape with a narrow net: im2col buffers dominate memory.
    EVAL_SHAPE = (15, 58, 3)
    EVAL_ARCH = NetSpec(conv1_channels=8, conv2_channels=16, hidden=64)

    def test_memory_flat_in_batch_size(self):
        net = init_net(self.EVAL_SHAPE, num_classes=4, seed=0, arch=self.EVAL_ARCH)
        x = np.random.default_rng(5).normal(size=(256,) + self.EVAL_SHAPE)

        def peak(batch):
            tracemalloc.start()
            try:
                forward(net, batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(x) < 2 * peak(x[:64])

    @pytest.mark.parametrize("count", [1, 2, 7, 8, 9, 17, 63, 64, 65, 129, 130])
    def test_slicing_keeps_probabilities_bit_exact(self, count):
        # Dyadic inputs and conv weights make pool ties and zero activations
        # common, where conv2's bias and ReLU after the pool (forward) must
        # still match them before it (_forward).
        for dyadic in (False, True):
            net = _oracle_net(self.EVAL_SHAPE, 4, self.EVAL_ARCH, 1, dyadic)
            x = _data(6, (count,) + self.EVAL_SHAPE, dyadic)
            assert forward(net, x).tobytes() == _forward(net, x)["probs"].tobytes(), dyadic


def _data(seed, shape, dyadic):
    """Normal draws, or small dyadic values (exact in float64) that make
    ReLU zeros and equal pool entries common."""
    rng = np.random.default_rng(seed)
    if dyadic:
        return rng.integers(-2, 3, size=shape) / 4.0
    return rng.normal(size=shape)


def _oracle_net(shape, classes, arch, seed, dyadic):
    net = init_net(shape, num_classes=classes, seed=seed, arch=arch)
    if dyadic:
        net.conv1_w[...] = _data(seed + 1, net.conv1_w.shape, True) / 2.0
        net.conv2_w[...] = _data(seed + 2, net.conv2_w.shape, True) / 2.0
        net.conv1_b[...] = _data(seed + 4, net.conv1_b.shape, True)
        net.conv2_b[...] = _data(seed + 5, net.conv2_b.shape, True)
    return net


def _reference_forward(net, x):
    """forward() with the reference layers: same slices, same arithmetic."""
    slices = np.array_split(x, -(-len(x) // FORWARD_SLICE))
    return np.concatenate([reference._forward(net, part)["probs"] for part in slices])


def _assert_grads_close(got, want):
    assert list(got) == list(want)
    for name in want:
        tol = 1e-12 * max(1.0, float(np.abs(want[name]).max()))
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=tol, err_msg=name)


class TestAgainstReference:
    """The contiguous-layout layers against the layer functions they replaced
    (tests/convnet_reference.py)."""

    @settings(max_examples=150, deadline=None)
    @given(batch=st.integers(1, 3), rows=st.integers(1, 4), cols=st.integers(1, 4),
           c_in=st.integers(1, 6), c_out=st.integers(1, 6), size=st.sampled_from([2, 3]),
           seed=st.integers(0, 2**32 - 1), dyadic=st.booleans())
    def test_layers(self, batch, rows, cols, c_in, c_out, size, seed, dyadic):
        # rows x cols pool windows; the conv input has spare rows and
        # columns that only the reference computes outputs for.
        r2, c2 = rows * size, cols * size
        x = _data(seed, (batch, r2 + 2 + size - 1, c2 + 1 + size - 1, c_in), dyadic)
        w = _data(seed + 1, (3, 2, c_in, c_out), dyadic)
        b = _data(seed + 2, (c_out,), dyadic)
        z_ref, cols_ref = reference._conv_forward(x, w, b)
        cols, a = _conv_relu(x, w, b, (r2, c2))
        np.testing.assert_allclose(a, np.maximum(z_ref, 0.0)[:, :r2, :c2], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(cols, cols_ref[:, :r2, :c2].reshape(cols.shape))

        a_ref = np.maximum(z_ref, 0.0)
        a = a_ref[:, :r2, :c2]
        pooled_ref, idx_ref = reference._pool_forward(a_ref, size)
        pooled, idx = _pool_argmax(a, size)
        assert pooled.tobytes() == pooled_ref.tobytes()
        assert pooled.tobytes() == _pool(a, size).tobytes()
        np.testing.assert_array_equal(idx, idx_ref)

        d_pooled = _data(seed + 3, pooled.shape, dyadic)
        d_a_ref = reference._pool_backward(d_pooled, idx_ref, a_ref.shape, size)
        d_a = _unpool(d_pooled, idx, size)
        np.testing.assert_array_equal(d_a, d_a_ref[:, :r2, :c2])
        assert not d_a_ref[:, r2:].any() and not d_a_ref[:, :, c2:].any()

        d_x_ref, d_w_ref, d_b_ref = reference._conv_backward(d_a_ref, cols_ref, w, x.shape)
        d_w, d_b = _conv_grads(d_a, cols, w)
        d_x = _conv_input_grad(d_a, w, (batch, r2 + 2, c2 + 1, c_in))
        _assert_grads_close({"d_w": d_w, "d_b": d_b, "d_x": d_x},
                            {"d_w": d_w_ref, "d_b": d_b_ref, "d_x": d_x_ref[:, : r2 + 2, : c2 + 1]})
        assert not d_x_ref[:, r2 + 2:].any() and not d_x_ref[:, :, c2 + 1:].any()

    @settings(max_examples=80, deadline=None)
    @given(c1=st.integers(4, 9), c2=st.integers(5, 9), hidden=st.integers(6, 12),
           pool=st.sampled_from([2, 3]), k_extra=st.integers(0, 7), w_extra=st.integers(0, 7),
           classes=st.integers(2, 5), batch=st.integers(1, 6),
           seed=st.integers(0, 2**31), dyadic=st.booleans())
    def test_net(self, c1, c2, hidden, pool, k_extra, w_extra, classes, batch, seed, dyadic):
        shape = (4 + pool + k_extra, 2 + pool + w_extra, 3)
        arch = NetSpec(conv1_channels=c1, conv2_channels=c2, hidden=hidden, pool=pool)
        net = _oracle_net(shape, classes, arch, seed, dyadic)
        x = _data(seed + 3, (batch, *shape), dyadic)
        labels = np.random.default_rng(seed).integers(0, classes, batch)

        np.testing.assert_allclose(forward(net, x), _reference_forward(net, x), rtol=0, atol=1e-12)
        np.testing.assert_array_equal(_forward(net, x)["pool_idx"],
                                      reference._forward(net, x)["pool_idx"])
        loss_new, probs_new, grads = _loss_and_grads(net, x, labels)
        loss_ref, probs_ref, grads_ref = reference._loss_and_grads(net, x, labels)
        assert abs(loss_new - loss_ref) <= 1e-12 * max(1.0, abs(loss_ref))
        np.testing.assert_allclose(probs_new, probs_ref, rtol=0, atol=1e-12)
        _assert_grads_close(grads, grads_ref)

    # The two architectures the pipeline runs: the default net and the
    # narrow one of the acceptance and benchmark runs, on K=15 tensors.
    PRODUCTION = [NetSpec(), NetSpec(conv1_channels=8, conv2_channels=16, hidden=64)]

    @pytest.mark.parametrize("arch", PRODUCTION, ids=["32_64_256", "8_16_64"])
    @settings(max_examples=10, deadline=None)
    @given(batch=st.integers(1, 8), seed=st.integers(0, 2**31), dyadic=st.booleans())
    def test_production_archs_bit_identical(self, arch, batch, seed, dyadic):
        shape = (15, 58, 3)
        net = _oracle_net(shape, 5, arch, seed, dyadic)
        x = _data(seed + 3, (batch, *shape), dyadic)
        labels = np.random.default_rng(seed).integers(0, 5, batch)
        assert forward(net, x).tobytes() == _reference_forward(net, x).tobytes()
        _, probs, grads = _loss_and_grads(net, x, labels)
        _, probs_ref, grads_ref = reference._loss_and_grads(net, x, labels)
        assert probs.tobytes() == probs_ref.tobytes()
        _assert_grads_close(grads, grads_ref)

    @pytest.mark.parametrize("arch", PRODUCTION, ids=["32_64_256", "8_16_64"])
    def test_last_snippet_is_dead_at_k15(self, arch):
        """K - 4 = 11 conv2 rows, the 2x2 pool reads 10: input row 14 never
        reaches the output, while row 13 does."""
        net = init_net((15, 58, 3), num_classes=4, seed=2, arch=arch)
        x = np.random.default_rng(7).normal(size=(3, 15, 58, 3))
        base = forward(net, x)
        dead, live = x.copy(), x.copy()
        dead[:, 14] = 1e6
        live[:, 13] = 1e6
        assert forward(net, dead).tobytes() == base.tobytes()
        assert not np.array_equal(forward(net, live), base)


def batch_loss(probs_logits, labels):
    """Summed cross entropy of a batch whose logits are exactly the output bias:
    zero weights make every hidden unit and every other term vanish."""
    classes = probs_logits.shape[0]
    net = init_net(SMALL_SHAPE, num_classes=classes, seed=0, arch=SMALL_ARCH)
    net.out_w[...] = 0.0
    net.out_b[...] = probs_logits
    x = np.zeros((len(labels),) + SMALL_SHAPE)
    return _loss_and_grads(net, x, np.asarray(labels))[0]


class TestLoss:
    def test_perfect_prediction(self):
        # exp(-2000) underflows to 0: the true class has probability 1 exactly.
        assert batch_loss(np.array([-1000.0, 1000.0, -1000.0]), [1, 1]) == 0.0

    def test_uniform_four_classes(self):
        value = batch_loss(np.zeros(4), [2, 0, 3])
        np.testing.assert_allclose(value, 3 * np.log(4.0), atol=1e-9)

    def test_clamped(self):
        value = batch_loss(np.array([-1000.0, 1000.0]), [0, 0])
        np.testing.assert_allclose(value, -2 * np.log(1e-12))

    def test_invalid_label(self):
        net = init_net(SMALL_SHAPE, num_classes=2, seed=0, arch=SMALL_ARCH)
        with pytest.raises(ValueError, match="out of range"):
            backward(net, np.zeros((2,) + SMALL_SHAPE), np.array([0, 2]))


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        net = small_net(seed=4)
        x = rng.normal(size=(2,) + SMALL_SHAPE)
        labels = np.array([0, 2])
        assert_kink_free(net, x)
        analytic = backward(net, x, labels)
        numeric = numeric_gradients(net, x, labels)
        for name in analytic:
            err = np.abs(analytic[name] - numeric[name]) / np.maximum(1.0, np.abs(analytic[name]))
            assert err.max() < 1e-4, f"{name}: max rel err {err.max():.3e}"

    def test_matches_finite_differences_odd_pool_dims(self):
        # 9x13 input gives 5x11 pre-pool activations: the pool crops a row
        # and a column, whose gradients must be exactly zero.
        rng = np.random.default_rng(1006)
        shape = (9, 13, 3)
        net = init_net(shape, num_classes=2, seed=6,
                       arch=NetSpec(conv1_channels=2, conv2_channels=3, hidden=6))
        x = rng.normal(size=(2,) + shape)
        labels = np.array([1, 0])
        assert_kink_free(net, x)
        analytic = backward(net, x, labels)
        numeric = numeric_gradients(net, x, labels)
        for name in analytic:
            err = np.abs(analytic[name] - numeric[name]) / np.maximum(1.0, np.abs(analytic[name]))
            assert err.max() < 1e-4, f"{name}: max rel err {err.max():.3e}"

    def test_duplicate_batch_doubles_gradient(self):
        rng = np.random.default_rng(4)
        net = small_net()
        x = rng.normal(size=(1,) + SMALL_SHAPE)
        single = backward(net, x, np.array([1]))
        double = backward(net, np.concatenate([x, x]), np.array([1, 1]))
        for name in single:
            np.testing.assert_allclose(double[name], 2.0 * single[name], atol=1e-12)

    def test_zero_gradient_at_saturated_optimum(self):
        # Drive the true logit far above the rest: probabilities saturate,
        # the loss sits at its optimum, and every gradient vanishes.
        rng = np.random.default_rng(5)
        net = small_net()
        net.out_b[:] = -50.0
        net.out_b[1] = 50.0
        x = rng.normal(size=(1,) + SMALL_SHAPE)
        grads = backward(net, x, np.array([1]))
        norm = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
        assert norm < 1e-6

    def test_label_validation(self):
        net = small_net()
        with pytest.raises(ValueError, match="out of range"):
            backward(net, np.zeros((1,) + SMALL_SHAPE), np.array([3]))
        with pytest.raises(ValueError, match="expected 1 labels"):
            backward(net, np.zeros((1,) + SMALL_SHAPE), 1)


class TestPredict:
    """The predicted class of a video is the argmax of its forward row."""

    def test_tie_breaks_to_lowest_index(self):
        net = small_net()
        probs = forward(net, np.zeros((4,) + SMALL_SHAPE))
        np.testing.assert_allclose(probs, 1 / 3, atol=1e-12)
        assert (probs.argmax(axis=1) == 0).all()

    def test_agrees_with_forward_argmax(self):
        # A batch of one may differ from its row in a larger batch in the
        # last bits (numpy's one-row matmul path), but not in its class.
        rng = np.random.default_rng(6)
        net = small_net(seed=7)
        batch = rng.normal(size=(100,) + SMALL_SHAPE)
        classes = forward(net, batch).argmax(axis=1)
        assert classes.tolist() == [int(np.argmax(forward(net, x[None]))) for x in batch]


def linearly_separable_dataset(rng, count=80):
    """Two motion prototypes distinguishable by their velocity channel."""
    x = np.zeros((count, *SMALL_SHAPE))
    y = np.zeros(count, dtype=np.int64)
    for i in range(count):
        label = i % 2
        ramp = np.linspace(0, 3 if label else -3, SMALL_SHAPE[0])
        x[i, :, :, 0] = ramp[:, None] + rng.normal(0, 0.1, size=SMALL_SHAPE[:2])
        x[i, 1:, :, 1] = np.diff(x[i, :, :, 0], axis=0)
        y[i] = label
    return x, y


class TestTrain:
    def test_learns_separable_classes(self):
        rng = np.random.default_rng(8)
        x, y = linearly_separable_dataset(rng, count=200)
        net = init_net(SMALL_SHAPE, num_classes=2, seed=0, arch=SMALL_ARCH)
        cfg = TrainConfig(learning_rate=0.05, epochs=50, batch_size=20, seed=0)
        trained, trace = train(net, x, y, cfg)
        assert (forward(trained, x).argmax(axis=1) == y).mean() >= 0.99
        assert len(trace) == 50
        assert [s.epoch for s in trace] == list(range(50))

    def test_zero_learning_rate_keeps_parameters(self):
        rng = np.random.default_rng(9)
        x, y = linearly_separable_dataset(rng, count=20)
        net = small_net()
        cfg = TrainConfig(learning_rate=0.0, epochs=3, batch_size=8, seed=0)
        trained, _ = train(net, x, y, cfg)
        for name, param in net.parameters().items():
            np.testing.assert_array_equal(trained.parameters()[name], param)

    def test_zero_epochs_keeps_parameters(self):
        rng = np.random.default_rng(10)
        x, y = linearly_separable_dataset(rng, count=10)
        net = small_net()
        trained, trace = train(net, x, y, TrainConfig(epochs=0))
        assert trace == []
        for name, param in net.parameters().items():
            np.testing.assert_array_equal(trained.parameters()[name], param)

    def test_seed_reproducible(self):
        rng = np.random.default_rng(11)
        x, y = linearly_separable_dataset(rng, count=40)
        cfg = TrainConfig(learning_rate=0.02, epochs=5, batch_size=16, seed=3)
        a, trace_a = train(small_net(), x, y, cfg)
        b, trace_b = train(small_net(), x, y, cfg)
        for name, param in a.parameters().items():
            np.testing.assert_array_equal(param, b.parameters()[name])
        assert [(s.loss, s.accuracy) for s in trace_a] == [(s.loss, s.accuracy) for s in trace_b]

    def test_does_not_mutate_input_net(self):
        rng = np.random.default_rng(12)
        x, y = linearly_separable_dataset(rng, count=20)
        net = small_net()
        before = {k: v.copy() for k, v in net.parameters().items()}
        train(net, x, y, TrainConfig(learning_rate=0.05, epochs=2, batch_size=8))
        for name, param in net.parameters().items():
            np.testing.assert_array_equal(param, before[name])

    def test_nan_aborts_with_diagnostic(self):
        rng = np.random.default_rng(13)
        x, y = linearly_separable_dataset(rng, count=10)
        net = small_net()
        net.fc1_w[:] = np.nan
        with pytest.raises(TrainingDivergedError, match="epoch 0"):
            train(net, x, y, TrainConfig(epochs=1, batch_size=4))

    def test_resample_callback_used(self):
        rng = np.random.default_rng(14)
        x, y = linearly_separable_dataset(rng, count=20)
        calls = []

        def resample(epoch):
            calls.append(epoch)
            return x, y

        train(small_net(), x, y, TrainConfig(epochs=3, batch_size=8), resample=resample)
        assert calls == [0, 1, 2]

    def test_weight_decay_shrinks_weights(self):
        x = np.zeros((8, *SMALL_SHAPE))
        y = np.array([0, 1] * 4, dtype=np.int64)
        net = small_net()
        cfg = TrainConfig(learning_rate=0.1, epochs=1, batch_size=8, weight_decay=0.5)
        trained, _ = train(net, x, y, cfg)
        # On all-zero input conv gradients vanish, so only decay acts.
        np.testing.assert_allclose(trained.conv1_w, net.conv1_w * (1 - 0.1 * 0.5), atol=1e-12)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = small_net(seed=21)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path, meta={"seed": 21, "config_hash": "fff"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"seed": 21, "config_hash": "fff"}
        assert loaded.input_shape == net.input_shape
        assert loaded.num_classes == net.num_classes
        assert loaded.arch == net.arch
        for name, param in net.parameters().items():
            np.testing.assert_array_equal(loaded.parameters()[name], param)

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_loaded_net_forward_identical(self, tmp_path):
        rng = np.random.default_rng(22)
        net = small_net(seed=23)
        x = rng.normal(size=(2,) + SMALL_SHAPE)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        loaded, _ = load_checkpoint(path)
        np.testing.assert_array_equal(forward(loaded, x), forward(net, x))

    def test_rejects_parameter_shape_the_meta_contradicts(self, tmp_path):
        # Input (15, 58, 3) pools to 5 x 28 positions of 6 channels: fc1_w
        # must have 840 rows, and a (570, 8) one is named on load.
        net = init_net((15, 58, 3), num_classes=3, seed=1, arch=NetSpec(4, 6, 8))
        assert net.fc1_w.shape == (840, 8)
        path = tmp_path / "net.ckpt"
        save_checkpoint(replace(net, fc1_w=np.zeros((570, 8))), path)
        with pytest.raises(ValueError, match=r"net\.ckpt: parameter 'fc1_w' has shape \(570, 8\)"):
            load_checkpoint(path)

    def test_rejects_repeated_parameter(self, tmp_path):
        path = tmp_path / "net.ckpt"
        net = small_net()
        save_checkpoint(net, path)
        raw = bytearray(path.read_bytes())
        # Nine parameters: a second copy of the last record, out_b.
        record = (struct.pack("<H", 5) + b"out_b" + struct.pack("<BI", 1, net.num_classes)
                  + net.out_b.astype("<f8").tobytes())
        assert raw.endswith(record)
        (meta_length,) = struct.unpack_from("<I", raw, 8)
        struct.pack_into("<I", raw, 12 + meta_length, 9)
        path.write_bytes(bytes(raw + record))
        with pytest.raises(ValueError, match=r"net\.ckpt: parameter 'out_b' appears twice"):
            load_checkpoint(path)
