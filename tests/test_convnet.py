"""Pose ConvNet tests: init, forward, gradients, training, checkpoints."""

import re
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convnet_reference as reference
from posestream.convnet import (
    CHECKPOINT_FILE,
    FORWARD_SLICE,
    HEAD_ROWS,
    POOL,
    NetSpec,
    TrainConfig,
    TrainingDivergedError,
    Workspace,
    _bias_relu,
    _conv,
    _conv_grads,
    _conv_input_grad,
    _forward,
    _loss_and_grads,
    _pool,
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


def fixed(x):
    """A draw that hands train the same tensors every epoch."""
    return lambda epoch, rows: x[rows]


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


from conftest import assert_kink_free, write_raw


def conv_relu(x, w, b, extent):
    """ReLU of the conv plus bias at extent, as the conv stage runs conv1."""
    return _bias_relu(_conv(x, w, extent, Workspace(), "conv")[1], b)


def numeric_gradients(net, x, labels, h=1e-4):
    """Central finite differences of the summed batch loss, per parameter."""
    def batch_loss():
        total, _, _ = _loss_and_grads(net, x, labels, Workspace())
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
    @pytest.mark.parametrize("field", ["conv1_channels", "conv2_channels", "hidden"])
    def test_netspec_rejects_a_size_below_one(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got 0$"):
            NetSpec(**{field: 0})

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
        out = conv_relu(x, w, b, (1, 3))
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
            out = conv_relu(x, w, b, extent)
            np.testing.assert_allclose(out, expected[:, : extent[0], : extent[1]], atol=1e-12)


class TestForward:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_an_empty_batch_gives_no_rows(self, dtype):
        net = small_net().astype(dtype)
        probs = forward(net, np.zeros((0,) + SMALL_SHAPE))
        assert probs.shape == (0, 3) and probs.dtype == dtype

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

    # Batch sizes around CONV_SLICE and FORWARD_SLICE multiples; the float64
    # cases are named by the count alone.
    @pytest.mark.parametrize("count, dtype", [
        pytest.param(count, dtype, id=str(count) + suffix)
        for dtype, suffix in ((np.float64, ""), (np.float32, "-float32"))
        for count in (1, 2, 7, 8, 9, 17, 63, 64, 65, 129, 130)
    ])
    def test_slicing_keeps_probabilities_bit_exact(self, count, dtype):
        # Dyadic inputs and conv weights make pool ties and zero activations
        # common, where conv2's bias and ReLU after the pool (forward) must
        # still match them before it (_forward). forward pads a batch of
        # fewer than HEAD_ROWS rows with zero rows, so the unsliced pass
        # gets the same zero rows.
        for dyadic in (False, True):
            net = _oracle_net(self.EVAL_SHAPE, 4, self.EVAL_ARCH, 1, dyadic).astype(dtype)
            x = _data(6, (count,) + self.EVAL_SHAPE, dyadic).astype(dtype)
            probs = forward(net, x)
            assert probs.dtype == dtype
            want = _forward(net, _padded(x), Workspace())["probs"][:count]
            assert probs.tobytes() == want.tobytes(), dyadic

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    @pytest.mark.parametrize("arch", [NetSpec(), EVAL_ARCH, NetSpec(5, 7, 9)],
                             ids=["32_64_256", "8_16_64", "5_7_9"])
    def test_a_row_scores_the_same_in_a_batch_of_any_size(self, arch, dtype):
        # Without the zero rows, a 1- or 2-row batch takes OpenBLAS kernels
        # whose last bits differ from those of taller products.
        net = init_net(self.EVAL_SHAPE, num_classes=4, seed=2, arch=arch).astype(dtype)
        x = np.random.default_rng(7).normal(size=(65,) + self.EVAL_SHAPE).astype(dtype)
        want = forward(net, x)
        for count in (1, 2, 7):
            assert forward(net, x[:count]).tobytes() == want[:count].tobytes(), count
        assert forward(net, x[-2:]).tobytes() == want[-2:].tobytes()

    def test_a_kept_workspace_scores_as_a_fresh_one(self):
        net = init_net(self.EVAL_SHAPE, num_classes=4, seed=3, arch=self.EVAL_ARCH)
        x = np.random.default_rng(8).normal(size=(70,) + self.EVAL_SHAPE)
        ws = Workspace()
        for rows in (slice(0, 3), slice(3, 70), slice(60, 61)):
            assert forward(net, x[rows], ws).tobytes() == forward(net, x[rows]).tobytes()


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


def _padded(x):
    """x with zero rows appended up to HEAD_ROWS rows."""
    return np.concatenate([x, np.zeros((max(HEAD_ROWS - len(x), 0),) + x.shape[1:], x.dtype)])


def _reference_forward(net, x):
    """forward() with the reference layers: same slices, same zero rows,
    same arithmetic."""
    slices = np.array_split(x, -(-len(x) // FORWARD_SLICE))
    return np.concatenate([reference._forward(net, _padded(part))["probs"][:len(part)]
                           for part in slices])


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
           c_in=st.integers(1, 6), c_out=st.integers(1, 6),
           seed=st.integers(0, 2**32 - 1), dyadic=st.booleans())
    def test_layers(self, batch, rows, cols, c_in, c_out, seed, dyadic):
        # rows x cols pool windows; the conv input has spare rows and
        # columns that only the reference computes outputs for.
        r2, c2 = rows * POOL, cols * POOL
        x = _data(seed, (batch, r2 + 2 + POOL - 1, c2 + 1 + POOL - 1, c_in), dyadic)
        w = _data(seed + 1, (3, 2, c_in, c_out), dyadic)
        b = _data(seed + 2, (c_out,), dyadic)
        z_ref, cols_ref = reference._conv_forward(x, w, b)
        ws = Workspace()
        cols, z = _conv(x, w, (r2, c2), ws, "conv")
        a = np.maximum(z + b, 0.0)
        np.testing.assert_allclose(a, np.maximum(z_ref, 0.0)[:, :r2, :c2], rtol=0, atol=1e-12)
        np.testing.assert_array_equal(cols, cols_ref[:, :r2, :c2].reshape(cols.shape))

        # The stage pools the unbiased outputs, then adds the bias and takes
        # the ReLU; the reference pools the activations and keeps the argmax.
        pooled_ref, idx_ref = reference._pool_forward(a)
        pooled = _bias_relu(_pool(z, np.empty(pooled_ref.shape)), b)
        assert pooled.tobytes() == pooled_ref.tobytes()

        # Routing without an index lands each window's gradient where the
        # reference's argmax does (equal values; a zero may differ in sign).
        d_pooled = _data(seed + 3, pooled.shape, dyadic) * (pooled > 0)
        d_z = _unpool(d_pooled, pooled, z, b)
        d_z_ref = np.zeros(z_ref.shape)
        d_z_ref[:, :r2, :c2] = reference._pool_backward(d_pooled, idx_ref, a.shape) * (a > 0)
        np.testing.assert_array_equal(d_z, d_z_ref[:, :r2, :c2])

        d_x_ref, d_w_ref, d_b_ref = reference._conv_backward(d_z_ref, cols_ref, w, x.shape)
        d_w, d_b = _conv_grads(d_z, cols, w)
        d_x = _conv_input_grad(d_z, w, (batch, r2 + 2, c2 + 1, c_in), ws, "d_input")
        _assert_grads_close({"d_w": d_w, "d_b": d_b, "d_x": d_x},
                            {"d_w": d_w_ref, "d_b": d_b_ref, "d_x": d_x_ref[:, : r2 + 2, : c2 + 1]})
        assert not d_x_ref[:, r2 + 2:].any() and not d_x_ref[:, :, c2 + 1:].any()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_a_tie_made_by_the_bias_routes_to_the_lowest_offset(self, dtype):
        # One window whose offsets 0, 1 and 3 differ unbiased (the largest is
        # offset 3) but round to the same z + b; the reference's argmax over
        # relu(z + b) picks offset 0, and so must the routing.
        tiny = np.finfo(dtype).eps / 8
        z = np.array([tiny, 2 * tiny, -1.0, 3 * tiny], dtype).reshape(1, POOL, POOL, 1)
        b = np.ones(1, dtype)
        pooled = _bias_relu(_pool(z, np.empty((1, 1, 1, 1), dtype)), b)
        pooled_ref, idx_ref = reference._pool_forward(np.maximum(z + b, 0.0))
        assert pooled.tobytes() == pooled_ref.tobytes() and idx_ref.item() == 0
        d_z = _unpool(np.full(pooled.shape, 0.5, dtype), pooled, z, b)
        assert d_z.ravel().tolist() == [0.5, 0.0, 0.0, 0.0]

    @settings(max_examples=80, deadline=None)
    @given(c1=st.integers(4, 9), c2=st.integers(5, 9), hidden=st.integers(6, 12),
           k_extra=st.integers(0, 7), w_extra=st.integers(0, 7),
           classes=st.integers(2, 5), batch=st.integers(1, 6),
           seed=st.integers(0, 2**31), dyadic=st.booleans())
    def test_net(self, c1, c2, hidden, k_extra, w_extra, classes, batch, seed, dyadic):
        shape = (4 + POOL + k_extra, 2 + POOL + w_extra, 3)
        arch = NetSpec(conv1_channels=c1, conv2_channels=c2, hidden=hidden)
        net = _oracle_net(shape, classes, arch, seed, dyadic)
        x = _data(seed + 3, (batch, *shape), dyadic)
        labels = np.random.default_rng(seed).integers(0, classes, batch)

        np.testing.assert_allclose(forward(net, x), _reference_forward(net, x), rtol=0, atol=1e-12)
        loss_new, probs_new, grads = _loss_and_grads(net, x, labels, Workspace())
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
        _, probs, grads = _loss_and_grads(net, x, labels, Workspace())
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
    return _loss_and_grads(net, x, np.asarray(labels), Workspace())[0]


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
    def test_an_empty_batch_is_refused(self):
        with pytest.raises(ValueError, match=r"^batch must be non-empty, got shape "
                                             r"\(0, 8, 10, 3\)$"):
            backward(small_net(), np.zeros((0,) + SMALL_SHAPE), np.zeros(0, np.int64))

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
    def test_an_sgd_step_needs_no_more_workspace_than_a_forward_pass(self):
        # The backward pass writes into the conv2 buffers the forward pass
        # leaves dead, and a kept workspace gives the gradients fresh arrays give.
        shape = (15, 58, 3)
        net = init_net(shape, num_classes=4, seed=4, arch=NetSpec(8, 16, 64)).astype(np.float32)
        x = np.random.default_rng(9).normal(size=(64, *shape)).astype(np.float32)
        labels = np.arange(64) % 4
        forward_ws, step_ws = Workspace(), Workspace()
        _forward(net, x, forward_ws)
        fresh = _loss_and_grads(net, x, labels, Workspace())[2]
        for _ in range(2):
            grads = _loss_and_grads(net, x, labels, step_ws)[2]
            assert all(grads[name].tobytes() == fresh[name].tobytes() for name in fresh)
        size = lambda ws: sum(buffer.nbytes for buffer in ws._buffers.values())
        assert size(step_ws) <= size(forward_ws)
        # No pool index: every buffer holds the net's float32 values.
        assert {buffer.dtype for buffer in step_ws._buffers.values()} == {np.dtype(np.float32)}

    def test_learns_separable_classes(self):
        rng = np.random.default_rng(8)
        x, y = linearly_separable_dataset(rng, count=200)
        net = init_net(SMALL_SHAPE, num_classes=2, seed=0, arch=SMALL_ARCH)
        cfg = TrainConfig(learning_rate=0.05, epochs=50, batch_size=20, seed=0)
        trained, trace = train(net, fixed(x), y, cfg)
        assert (forward(trained, x).argmax(axis=1) == y).mean() >= 0.99
        assert len(trace) == 50
        assert [s.epoch for s in trace] == list(range(50))

    def test_zero_learning_rate_keeps_parameters(self):
        rng = np.random.default_rng(9)
        x, y = linearly_separable_dataset(rng, count=20)
        net = small_net()
        cfg = TrainConfig(learning_rate=0.0, epochs=3, batch_size=8, seed=0)
        trained, _ = train(net, fixed(x), y, cfg)
        for name, param in net.parameters().items():
            np.testing.assert_array_equal(trained.parameters()[name], param)

    def test_zero_epochs_keeps_parameters(self):
        rng = np.random.default_rng(10)
        x, y = linearly_separable_dataset(rng, count=10)
        net = small_net()
        trained, trace = train(net, fixed(x), y, TrainConfig(epochs=0))
        assert trace == []
        for name, param in net.parameters().items():
            np.testing.assert_array_equal(trained.parameters()[name], param)

    def test_seed_reproducible(self):
        rng = np.random.default_rng(11)
        x, y = linearly_separable_dataset(rng, count=40)
        cfg = TrainConfig(learning_rate=0.02, epochs=5, batch_size=16, seed=3)
        a, trace_a = train(small_net(), fixed(x), y, cfg)
        b, trace_b = train(small_net(), fixed(x), y, cfg)
        for name, param in a.parameters().items():
            np.testing.assert_array_equal(param, b.parameters()[name])
        assert [(s.loss, s.accuracy) for s in trace_a] == [(s.loss, s.accuracy) for s in trace_b]

    def test_does_not_mutate_input_net(self):
        rng = np.random.default_rng(12)
        x, y = linearly_separable_dataset(rng, count=20)
        net = small_net()
        before = {k: v.copy() for k, v in net.parameters().items()}
        train(net, fixed(x), y, TrainConfig(learning_rate=0.05, epochs=2, batch_size=8))
        for name, param in net.parameters().items():
            np.testing.assert_array_equal(param, before[name])

    def test_nan_aborts_with_diagnostic(self):
        rng = np.random.default_rng(13)
        x, y = linearly_separable_dataset(rng, count=10)
        net = small_net()
        net.fc1_w[:] = np.nan
        with pytest.raises(TrainingDivergedError, match="epoch 0"):
            train(net, fixed(x), y, TrainConfig(epochs=1, batch_size=4))

    def test_draw_gets_each_epochs_permutation_once(self):
        rng = np.random.default_rng(14)
        x, y = linearly_separable_dataset(rng, count=20)
        calls = []

        def draw(epoch, rows):
            calls.append((epoch, rows.copy()))
            return x[rows]

        train(small_net(), draw, y, TrainConfig(epochs=3, batch_size=8, seed=4))
        assert [epoch for epoch, _ in calls] == [0, 1, 2]
        permutations = np.random.default_rng(4)
        for _, rows in calls:
            np.testing.assert_array_equal(rows, permutations.permutation(20))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("count, batch_size", [(24, 8), (21, 8)], ids=["whole", "ragged"])
    def test_matches_gather_per_batch_reference(self, dtype, count, batch_size):
        """Slicing the drawn epoch equals gathering each batch from a fixed
        array (tests/convnet_reference.py), bit for bit."""
        x, y = linearly_separable_dataset(np.random.default_rng(18), count=count)
        net = init_net(SMALL_SHAPE, num_classes=2, seed=6, arch=SMALL_ARCH).astype(dtype)
        cfg = TrainConfig(learning_rate=0.05, epochs=3, batch_size=batch_size, seed=2)
        trained, trace = train(net, fixed(x), y, cfg)
        want, want_trace = reference.train(net, x, y, cfg)
        for name, param in want.parameters().items():
            assert trained.parameters()[name].tobytes() == param.tobytes(), name
        assert [(s.loss, s.accuracy) for s in trace] == want_trace

    @pytest.mark.parametrize("draw, message", [
        (lambda epoch, rows: np.zeros((len(rows) - 1, *SMALL_SHAPE)), "draw returned 19 tensors"),
        (lambda epoch, rows: np.zeros((len(rows), 8, 10)), "does not match a batch"),
    ], ids=["count", "shape"])
    def test_rejects_a_draw_that_does_not_fit(self, draw, message):
        y = np.arange(20) % 2
        with pytest.raises(ValueError, match=message):
            train(small_net(), draw, y, TrainConfig(epochs=1, batch_size=8))

    @pytest.mark.parametrize("labels, message", [
        (np.zeros(0, np.int64), "non-empty 1-D"), (np.zeros((4, 2), np.int64), "non-empty 1-D"),
        (np.array([0, 3]), "out of range for 3 classes"),
    ], ids=["empty", "2-D", "class"])
    def test_rejects_labels_before_any_draw(self, labels, message):
        def draw(epoch, rows):
            raise AssertionError("train drew tensors for invalid labels")

        with pytest.raises(ValueError, match=message):
            train(small_net(), draw, labels, TrainConfig(epochs=1))

    @pytest.mark.parametrize("labels, shown", [
        (np.array([0.5, 1.9, 2.2, 0.0]), r"0\.5 is not an integer class id \(labels are float64"),
        (np.array(["1", "0", "2", "1"]), r"'1' is not an integer class id \(labels are <U1"),
        (np.array([True, False, True, True]), r"True is not an integer class id \(labels are bool"),
    ], ids=["float", "string", "bool"])
    def test_refuses_labels_that_are_not_integers(self, labels, shown):
        # Cast to int64, these once trained as classes [0, 1, 2, 0] and [1, 0, 2, 1].
        def draw(epoch, rows):
            raise AssertionError("train drew tensors for invalid labels")

        with pytest.raises(ValueError, match=rf"^label {shown}\)$"):
            train(small_net(), draw, labels, TrainConfig(epochs=1))
        with pytest.raises(ValueError, match=rf"^label {shown}\)$"):
            backward(small_net(), np.zeros((4, *SMALL_SHAPE)), labels)


class TestFloat32:
    """A float32 net computes in float32 from float64 input: a step that
    upcast would throw the halved GEMM cost away."""

    def test_backward_train_and_forward_stay_float32(self):
        x, y = linearly_separable_dataset(np.random.default_rng(15), count=16)
        assert x.dtype == np.float64
        net = small_net(seed=4).astype(np.float32)
        grads = backward(net, x, y)
        assert {name: g.dtype for name, g in grads.items()} == dict.fromkeys(grads, np.float32)
        cfg = TrainConfig(epochs=1, batch_size=8)
        trained, trace = train(net, fixed(x), y, cfg)
        params = trained.parameters()
        assert {name: p.dtype for name, p in params.items()} == dict.fromkeys(params, np.float32)
        assert np.isfinite(trace[0].loss)
        assert forward(trained, x).dtype == np.float32

    def test_train_step_is_float32_backward_step(self):
        # One SGD step on one tensor is the float32 backward step bit for
        # bit: train casts the drawn float64 batch to float32, not the
        # gradients up to float64.
        x, y = linearly_separable_dataset(np.random.default_rng(17), count=1)
        net = small_net(seed=5).astype(np.float32)
        grads = backward(net, x, y)
        cfg = TrainConfig(learning_rate=0.05, epochs=1, batch_size=1)
        stepped, _ = train(net, fixed(x), y, cfg)
        for name, param in net.parameters().items():
            want = param - 0.05 * grads[name]
            assert stepped.parameters()[name].tobytes() == want.tobytes(), name

    def test_astype_copies(self):
        net = small_net()
        for dtype in (np.float64, np.float32):
            cast = net.astype(dtype)
            assert cast.dtype == dtype
            cast.conv1_w[...] = 0.0
            assert net.conv1_w.any()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        # A float64 net is saved, and read back, as its float32 cast bit for bit.
        net = small_net(seed=21)
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path, meta={"seed": 21, "config_hash": "fff"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"seed": 21, "config_hash": "fff"}
        assert loaded.input_shape == net.input_shape
        assert loaded.num_classes == net.num_classes
        assert loaded.arch == net.arch
        assert loaded.dtype == np.float32
        for name, param in net.astype(np.float32).parameters().items():
            assert loaded.parameters()[name].tobytes() == param.tobytes(), name
        save_checkpoint(net.astype(np.float32), tmp_path / "cast.ckpt", meta=meta)
        assert (tmp_path / "cast.ckpt").read_bytes() == path.read_bytes()

    def test_float32_round_trip_exact(self, tmp_path):
        x, y = linearly_separable_dataset(np.random.default_rng(16), count=16)
        net, _ = train(small_net(seed=25).astype(np.float32), fixed(x), y,
                       TrainConfig(learning_rate=0.05, epochs=2, batch_size=8))
        path = tmp_path / "net.ckpt"
        save_checkpoint(net, path)
        restored = load_checkpoint(path)[0].parameters()
        for name, param in net.parameters().items():
            assert restored[name].dtype == np.float32
            assert restored[name].tobytes() == param.tobytes(), name

    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1e300],
                             ids=["nan", "inf", "beyond-float32"])
    def test_rejects_a_parameter_that_is_not_finite(self, tmp_path, value):
        # Refused at save, before any write, and at load from a file written otherwise.
        net = small_net(seed=28)
        net.out_w[1, 2] = value
        path = tmp_path / "net.ckpt"
        message = rf"^{re.escape(str(path))}: parameter 'out_w' is not finite in float32$"
        with pytest.raises(ValueError, match=message):
            save_checkpoint(net, path)
        assert not path.exists()
        header = {"input_shape": list(net.input_shape), "num_classes": net.num_classes,
                  "arch": asdict(net.arch), "meta": {}}
        with np.errstate(over="ignore"):
            write_raw(path, CHECKPOINT_FILE, header, net.astype(np.float32).parameters())
        with pytest.raises(ValueError, match=message):
            load_checkpoint(path)

    @staticmethod
    def assert_old_version_refused(path, version, dtype):
        """A checkpoint as an older writer wrote it is refused by its version,
        naming the file. Versions 2 and 3 held the pool size in arch, version
        2 the parameters as float64."""
        net = small_net(seed=29)
        header = {"input_shape": list(net.input_shape), "num_classes": net.num_classes,
                  "arch": {**asdict(net.arch), "pool": 2}, "meta": {}}
        write_raw(path, replace(CHECKPOINT_FILE, version=version), header,
                  net.astype(dtype).parameters())
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: unsupported pose "
                                             rf"ConvNet checkpoint version {version} \(this "
                                             r"reader reads version 4\)$"):
            load_checkpoint(path)

    def test_rejects_a_version_2_checkpoint_naming_the_file(self, tmp_path):
        self.assert_old_version_refused(tmp_path / "net.ckpt", 2, np.float64)

    def test_rejects_a_version_3_checkpoint_naming_the_file(self, tmp_path):
        self.assert_old_version_refused(tmp_path / "net.ckpt", 3, np.float32)

    @pytest.mark.parametrize("arch, message", [
        ({}, r"arch lacks the NetSpec keys \['conv1_channels', 'conv2_channels', 'hidden'\]"),
        ({"conv1_channels": 3}, r"arch lacks the NetSpec keys \['conv2_channels', 'hidden'\]"),
        ({**asdict(SMALL_ARCH), "extra": 1},
         r"arch has keys that are no NetSpec field: \['extra'\]"),
        ({**asdict(SMALL_ARCH), "pool": 2}, r"arch has keys that are no NetSpec field: \['pool'\]"),
    ], ids=["empty", "one key", "unknown key", "pool"])
    def test_rejects_an_arch_that_is_not_exactly_the_netspec_fields(self, tmp_path, arch,
                                                                     message):
        # Read with NetSpec's defaults, a missing key would load a net of other widths.
        net = small_net(seed=30).astype(np.float32)
        header = {"input_shape": list(net.input_shape), "num_classes": net.num_classes,
                  "arch": arch, "meta": {}}
        path = tmp_path / "net.ckpt"
        write_raw(path, CHECKPOINT_FILE, header, net.parameters())
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: {message}$"):
            load_checkpoint(path)

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
        np.testing.assert_array_equal(forward(loaded, x), forward(net.astype(np.float32), x))

    def test_rejects_parameter_shape_the_meta_contradicts(self, tmp_path):
        # Input (15, 58, 3) pools to 5 x 28 positions of 6 channels: fc1_w
        # must have 840 rows, and a (570, 8) one is refused before any write.
        net = init_net((15, 58, 3), num_classes=3, seed=1, arch=NetSpec(4, 6, 8))
        assert net.fc1_w.shape == (840, 8)
        path = tmp_path / "net.ckpt"
        with pytest.raises(ValueError, match=r"net\.ckpt: array 'fc1_w' has shape \(570, 8\)"):
            save_checkpoint(replace(net, fc1_w=np.zeros((570, 8))), path)
        assert not path.exists()

    def test_rejects_a_checkpoint_of_fewer_than_two_classes(self, tmp_path):
        # A file whose header says 0 classes and whose out layer has 0
        # columns: it fails on load, not in eval's argmax.
        net = small_net().astype(np.float32)
        header = {"input_shape": list(net.input_shape), "num_classes": 0,
                  "arch": asdict(net.arch), "meta": {}}
        params = {**net.parameters(), "out_w": net.out_w[:, :0], "out_b": net.out_b[:0]}
        path = tmp_path / "net.ckpt"
        write_raw(path, CHECKPOINT_FILE, header, params)
        with pytest.raises(ValueError, match=r"net\.ckpt: need at least 2 classes, got 0"):
            load_checkpoint(path)
