"""Earlier forms of the pose ConvNet's layers and training loop, kept as
test oracles.

The layer functions are those before the contiguous-layout rewrite. They
compute every conv output position (including the rows and columns
the pool never reads), take the pool argmax over a transposed window copy,
scatter the conv input gradient through six offset adds, and compute the
conv1 input gradient that the loss gradient discards. ``train`` is the
training loop as it was before tensors came from a callable: it
gathers each batch's rows from one fixed array. None of these is used by
the package; ``test_convnet.py`` checks ``posestream.convnet`` against
them on random inputs.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from posestream import convnet
from posestream.convnet import (
    FILTER_H, FILTER_W, POOL, PROB_FLOOR, PoseConvNet, TrainConfig, _softmax,
)


def _conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Valid-padding stride-1 convolution; returns (output, im2col columns)."""
    windows = sliding_window_view(x, (FILTER_H, FILTER_W), axis=(1, 2))
    batch, rows, cols = windows.shape[:3]
    # (B, R, C, Cin, fh, fw) -> columns flattened in (fh, fw, Cin) order to
    # match w.reshape(-1, Cout).
    columns = windows.transpose(0, 1, 2, 4, 5, 3).reshape(batch, rows, cols, -1)
    out = columns @ w.reshape(-1, w.shape[3]) + b
    return out, columns


def _conv_backward(
    grad_out: np.ndarray,
    columns: np.ndarray,
    w: np.ndarray,
    input_shape: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients for a valid conv: (d_input, d_weights, d_bias)."""
    batch, rows, cols, _ = grad_out.shape
    c_out = w.shape[3]
    flat_cols = columns.reshape(-1, columns.shape[3])
    flat_grad = grad_out.reshape(-1, c_out)
    d_w = (flat_cols.T @ flat_grad).reshape(w.shape)
    d_b = flat_grad.sum(axis=0)
    d_cols = (flat_grad @ w.reshape(-1, c_out).T).reshape(
        batch, rows, cols, FILTER_H, FILTER_W, input_shape[3]
    )
    d_x = np.zeros(input_shape)
    for i in range(FILTER_H):
        for j in range(FILTER_W):
            d_x[:, i:i + rows, j:j + cols, :] += d_cols[:, :, :, i, j, :]
    return d_x, d_w, d_b


def _pool_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping max pool; returns (output, argmax within each window)."""
    size = POOL
    batch, rows, cols, channels = x.shape
    out_rows, out_cols = rows // size, cols // size
    trimmed = x[:, : out_rows * size, : out_cols * size, :]
    windows = trimmed.reshape(batch, out_rows, size, out_cols, size, channels)
    windows = windows.transpose(0, 1, 3, 2, 4, 5).reshape(
        batch, out_rows, out_cols, size * size, channels
    )
    idx = windows.argmax(axis=3)
    out = np.take_along_axis(windows, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return out, idx


def _pool_backward(
    grad_out: np.ndarray, idx: np.ndarray, input_shape: tuple[int, ...]
) -> np.ndarray:
    size = POOL
    batch, rows, cols, channels = input_shape
    out_rows, out_cols = rows // size, cols // size
    d_windows = np.zeros((batch, out_rows, out_cols, size * size, channels))
    np.put_along_axis(d_windows, idx[:, :, :, None, :], grad_out[:, :, :, None, :], axis=3)
    d_trimmed = d_windows.reshape(batch, out_rows, out_cols, size, size, channels).transpose(
        0, 1, 3, 2, 4, 5
    ).reshape(batch, out_rows * size, out_cols * size, channels)
    d_x = np.zeros(input_shape)
    d_x[:, : out_rows * size, : out_cols * size, :] = d_trimmed
    return d_x


def _forward(net: PoseConvNet, x: np.ndarray) -> dict[str, np.ndarray]:
    z1, cols1 = _conv_forward(x, net.conv1_w, net.conv1_b)
    a1 = np.maximum(z1, 0.0)
    z2, cols2 = _conv_forward(a1, net.conv2_w, net.conv2_b)
    a2 = np.maximum(z2, 0.0)
    pooled, pool_idx = _pool_forward(a2)
    flat = pooled.reshape(x.shape[0], -1)
    zf = flat @ net.fc1_w + net.fc1_b
    af = np.maximum(zf, 0.0)
    logits = af @ net.out_w + net.out_b
    return {
        "x": x, "z1": z1, "cols1": cols1, "a1": a1,
        "z2": z2, "cols2": cols2, "a2": a2,
        "pool_idx": pool_idx, "flat": flat,
        "zf": zf, "af": af, "logits": logits, "probs": _softmax(logits),
    }


def _loss_and_grads(
    net: PoseConvNet, x: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray, dict[str, np.ndarray]]:
    """Summed cross-entropy loss and its gradients over a batch."""
    cache = _forward(net, x)
    probs = cache["probs"]
    batch = x.shape[0]
    picked = np.maximum(probs[np.arange(batch), labels], PROB_FLOOR)
    total_loss = float(-np.log(picked).sum())

    d_logits = probs.copy()
    d_logits[np.arange(batch), labels] -= 1.0

    grads: dict[str, np.ndarray] = {}
    grads["out_w"] = cache["af"].T @ d_logits
    grads["out_b"] = d_logits.sum(axis=0)
    d_af = d_logits @ net.out_w.T
    d_zf = d_af * (cache["zf"] > 0)
    grads["fc1_w"] = cache["flat"].T @ d_zf
    grads["fc1_b"] = d_zf.sum(axis=0)
    d_flat = d_zf @ net.fc1_w.T
    d_pooled = d_flat.reshape(cache["pool_idx"].shape[0], cache["pool_idx"].shape[1],
                              cache["pool_idx"].shape[2], -1)
    d_a2 = _pool_backward(d_pooled, cache["pool_idx"], cache["a2"].shape)
    d_z2 = d_a2 * (cache["z2"] > 0)
    d_a1, grads["conv2_w"], grads["conv2_b"] = _conv_backward(
        d_z2, cache["cols2"], net.conv2_w, cache["a1"].shape
    )
    d_z1 = d_a1 * (cache["z1"] > 0)
    _, grads["conv1_w"], grads["conv1_b"] = _conv_backward(
        d_z1, cache["cols1"], net.conv1_w, cache["x"].shape
    )
    return total_loss, probs, grads


def train(net: PoseConvNet, data: np.ndarray, labels: np.ndarray, config: TrainConfig):
    """Mini-batch SGD as it ran before ``fill``: one fixed (N, K, W, 3) array,
    one fancy-index gather of each batch's permuted rows, and the package's
    own ``_loss_and_grads``. Returns (net, [(loss, accuracy) per epoch])."""
    data = np.asarray(data, dtype=net.dtype)
    labels = np.asarray(labels, dtype=np.int64)
    net = net.copy()
    rng = np.random.default_rng(config.seed)
    trace = []
    for _ in range(config.epochs):
        order = rng.permutation(data.shape[0])
        epoch_loss = 0.0
        epoch_hits = 0
        for start in range(0, len(order), config.batch_size):
            batch_idx = order[start:start + config.batch_size]
            x = data[batch_idx]
            y = labels[batch_idx]
            batch_loss, probs, grads = convnet._loss_and_grads(net, x, y, convnet.Workspace())
            epoch_loss += batch_loss
            epoch_hits += int((probs.argmax(axis=1) == y).sum())
            scale = config.learning_rate / len(batch_idx)
            params = net.parameters()
            for name, grad in grads.items():
                params[name] -= scale * grad
        trace.append((epoch_loss / len(order), epoch_hits / len(order)))
    return net, trace
