"""Shallow pose ConvNet: from-scratch forward, backprop, and SGD training.

Architecture: two valid-padding 3x2 convolutions (stride 1) each followed by
ReLU, one 2x2/2 max pool, a hidden fully connected layer with ReLU, and a
softmax output layer. Channel counts and the hidden width are configuration,
not contract; the 3x2 filter and the layer order are fixed. All math runs in
float64 so analytic gradients match central finite differences tightly.

Checkpoint file (little-endian binary)::

    magic b"PCN1" | u32 version | u32 meta length | meta JSON
    | u32 parameter count
    then per parameter:
    | u16 name length | name UTF-8 | u8 ndim | u32 x ndim dims
    | float64 payload (C order)

The meta JSON holds input shape, class count, architecture constants and
any caller-supplied run metadata.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from numpy.lib.stride_tricks import sliding_window_view

from .binio import BinaryReader

FILTER_H = 3  # rows = snippets (time)
FILTER_W = 2  # columns = flattened joint coordinates

CHECKPOINT_MAGIC = b"PCN1"
CHECKPOINT_VERSION = 1

PROB_FLOOR = 1e-12

# Rows per _forward call in forward(): its im2col buffers grow with the rows
# it is given, so scoring in slices keeps eval memory flat in corpus size.
FORWARD_SLICE = 64


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class NetSpec:
    """Tunable architecture constants."""

    conv1_channels: int = 32
    conv2_channels: int = 64
    hidden: int = 256
    pool: int = 2  # window and stride of the single max-pool layer


@dataclass
class PoseConvNet:
    """Parameter container; every array is float64.

    Conv weights have shape (3, 2, in_channels, out_channels); fully
    connected weights are (fan_in, fan_out); biases are 1-D.
    """

    input_shape: tuple[int, int, int]
    num_classes: int
    arch: NetSpec
    conv1_w: np.ndarray
    conv1_b: np.ndarray
    conv2_w: np.ndarray
    conv2_b: np.ndarray
    fc1_w: np.ndarray
    fc1_b: np.ndarray
    out_w: np.ndarray
    out_b: np.ndarray

    def parameters(self) -> dict[str, np.ndarray]:
        """Named parameters in a fixed order (update/checkpoint order)."""
        return {
            "conv1_w": self.conv1_w,
            "conv1_b": self.conv1_b,
            "conv2_w": self.conv2_w,
            "conv2_b": self.conv2_b,
            "fc1_w": self.fc1_w,
            "fc1_b": self.fc1_b,
            "out_w": self.out_w,
            "out_b": self.out_b,
        }

    def copy(self) -> "PoseConvNet":
        return PoseConvNet(
            input_shape=self.input_shape,
            num_classes=self.num_classes,
            arch=self.arch,
            **{name: value.copy() for name, value in self.parameters().items()},
        )


def _pooled_shape(input_shape: tuple[int, int, int], arch: NetSpec) -> tuple[int, int]:
    k, width, _ = input_shape
    rows = k - 2 * (FILTER_H - 1)
    cols = width - 2 * (FILTER_W - 1)
    pooled_rows = rows // arch.pool
    pooled_cols = cols // arch.pool
    if pooled_rows < 1 or pooled_cols < 1:
        raise ValueError(
            f"input {k}x{width} too small for two {FILTER_H}x{FILTER_W} convolutions "
            f"plus {arch.pool}x{arch.pool} pooling"
        )
    return pooled_rows, pooled_cols


def _xavier(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def init_net(
    input_shape: tuple[int, int, int],
    num_classes: int,
    seed: int = 0,
    arch: NetSpec = NetSpec(),
) -> PoseConvNet:
    """Uniform Xavier weights (bound sqrt(6 / (fan_in + fan_out))), zero biases."""
    k, width, channels = input_shape
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    pooled_rows, pooled_cols = _pooled_shape(input_shape, arch)
    flat = pooled_rows * pooled_cols * arch.conv2_channels

    rng = np.random.default_rng(seed)
    receptive = FILTER_H * FILTER_W
    c1, c2, hidden = arch.conv1_channels, arch.conv2_channels, arch.hidden
    return PoseConvNet(
        input_shape=(k, width, channels),
        num_classes=num_classes,
        arch=arch,
        conv1_w=_xavier(rng, (FILTER_H, FILTER_W, channels, c1), receptive * channels, receptive * c1),
        conv1_b=np.zeros(c1),
        conv2_w=_xavier(rng, (FILTER_H, FILTER_W, c1, c2), receptive * c1, receptive * c2),
        conv2_b=np.zeros(c2),
        fc1_w=_xavier(rng, (flat, hidden), flat, hidden),
        fc1_b=np.zeros(hidden),
        out_w=_xavier(rng, (hidden, num_classes), hidden, num_classes),
        out_b=np.zeros(num_classes),
    )


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

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


def _pool_forward(x: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping max pool; returns (output, argmax within each window)."""
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
    grad_out: np.ndarray, idx: np.ndarray, input_shape: tuple[int, ...], size: int
) -> np.ndarray:
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


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def _as_batch(x: np.ndarray, input_shape: tuple[int, int, int]) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 3
    if single:
        x = x[None]
    if x.shape[1:] != input_shape:
        raise ValueError(f"input shape {x.shape[1:]} does not match net input {input_shape}")
    return x, single


def _forward(net: PoseConvNet, x: np.ndarray) -> dict[str, np.ndarray]:
    z1, cols1 = _conv_forward(x, net.conv1_w, net.conv1_b)
    a1 = np.maximum(z1, 0.0)
    z2, cols2 = _conv_forward(a1, net.conv2_w, net.conv2_b)
    a2 = np.maximum(z2, 0.0)
    pooled, pool_idx = _pool_forward(a2, net.arch.pool)
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


def forward(net: PoseConvNet, tensor: np.ndarray) -> np.ndarray:
    """Class probabilities for one tensor (K, W, 3) or a batch (B, K, W, 3).

    A batch is scored in near-equal slices of at most FORWARD_SLICE rows.
    No slice has a single row unless the batch does: numpy scores a lone
    row through a matrix-vector path whose last bits differ, and slicing
    must not change the probabilities."""
    batch, single = _as_batch(tensor, net.input_shape)
    slices = np.array_split(batch, -(-len(batch) // FORWARD_SLICE))
    probs = np.concatenate([_forward(net, part)["probs"] for part in slices])
    return probs[0] if single else probs


def loss(probs: np.ndarray, label: int) -> float:
    """Cross entropy -log p[label], with p floored at 1e-12."""
    probs = np.asarray(probs)
    if not 0 <= label < probs.shape[-1]:
        raise ValueError(f"label {label} out of range for {probs.shape[-1]} classes")
    return float(-np.log(max(float(probs[label]), PROB_FLOOR)))


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
    d_a2 = _pool_backward(d_pooled, cache["pool_idx"], cache["a2"].shape, net.arch.pool)
    d_z2 = d_a2 * (cache["z2"] > 0)
    d_a1, grads["conv2_w"], grads["conv2_b"] = _conv_backward(
        d_z2, cache["cols2"], net.conv2_w, cache["a1"].shape
    )
    d_z1 = d_a1 * (cache["z1"] > 0)
    _, grads["conv1_w"], grads["conv1_b"] = _conv_backward(
        d_z1, cache["cols1"], net.conv1_w, cache["x"].shape
    )
    return total_loss, probs, grads


def backward(net: PoseConvNet, tensor: np.ndarray, label: int | np.ndarray) -> dict[str, np.ndarray]:
    """Analytic loss gradients, summed over the batch when given one."""
    batch, single = _as_batch(tensor, net.input_shape)
    labels = np.atleast_1d(np.asarray(label, dtype=np.int64))
    if single and labels.shape != (1,):
        raise ValueError("single tensor needs a single label")
    if not single and labels.shape != (batch.shape[0],):
        raise ValueError(f"expected {batch.shape[0]} labels, got {labels.shape}")
    if labels.min() < 0 or labels.max() >= net.num_classes:
        raise ValueError(f"labels out of range for {net.num_classes} classes")
    _, _, grads = _loss_and_grads(net, batch, labels)
    return grads


def predict(net: PoseConvNet, tensor: np.ndarray) -> tuple[int, np.ndarray]:
    """(argmax class, probabilities); ties resolve to the lowest class id."""
    probs = forward(net, tensor)
    if probs.ndim != 1:
        raise ValueError("predict takes a single tensor, not a batch")
    return int(np.argmax(probs)), probs


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    learning_rate: float = 0.01
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    weight_decay: float = 0.0

    def __post_init__(self) -> None:
        if self.learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")


@dataclass
class EpochStats:
    epoch: int
    loss: float
    accuracy: float


def train(
    net: PoseConvNet,
    data: np.ndarray,
    labels: np.ndarray,
    config: TrainConfig,
    resample: Callable[[int], tuple[np.ndarray, np.ndarray]] | None = None,
) -> tuple[PoseConvNet, list[EpochStats]]:
    """Mini-batch SGD on summed-then-averaged cross entropy.

    ``resample(epoch)`` may supply fresh (data, labels) each epoch (new
    snippet draws); otherwise the given arrays are reused. The input net is
    not modified. The epoch trace reports mean loss and accuracy over that
    epoch's own batches (measured before each update). Runs are bit
    reproducible for a fixed seed. Raises TrainingDivergedError the moment
    a batch loss stops being finite.
    """
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if data.ndim != 4 or data.shape[0] == 0:
        raise ValueError("training data must be a non-empty (N, K, W, 3) array")
    if labels.shape != (data.shape[0],):
        raise ValueError("labels must be one class id per tensor")
    if labels.min() < 0 or labels.max() >= net.num_classes:
        raise ValueError(f"labels out of range for {net.num_classes} classes")

    net = net.copy()
    rng = np.random.default_rng(config.seed)
    trace: list[EpochStats] = []
    for epoch in range(config.epochs):
        if resample is not None:
            data, labels = resample(epoch)
            data = np.asarray(data, dtype=np.float64)
            labels = np.asarray(labels, dtype=np.int64)
        order = rng.permutation(data.shape[0])
        epoch_loss = 0.0
        epoch_hits = 0
        for start in range(0, len(order), config.batch_size):
            batch_idx = order[start:start + config.batch_size]
            x = data[batch_idx]
            y = labels[batch_idx]
            batch_loss, probs, grads = _loss_and_grads(net, x, y)
            if not np.isfinite(batch_loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}"
                )
            epoch_loss += batch_loss
            epoch_hits += int((probs.argmax(axis=1) == y).sum())
            scale = config.learning_rate / len(batch_idx)
            params = net.parameters()
            for name, grad in grads.items():
                param = params[name]
                param -= scale * grad
                if config.weight_decay:
                    param -= config.learning_rate * config.weight_decay * param
        trace.append(
            EpochStats(
                epoch=epoch,
                loss=epoch_loss / len(order),
                accuracy=epoch_hits / len(order),
            )
        )
    return net, trace


# ---------------------------------------------------------------------------
# Checkpoint I/O
# ---------------------------------------------------------------------------

def save_checkpoint(net: PoseConvNet, path: str | Path, meta: dict | None = None) -> None:
    header = {
        "input_shape": list(net.input_shape),
        "num_classes": net.num_classes,
        "arch": asdict(net.arch),
        "meta": meta or {},
    }
    raw_meta = json.dumps(header, sort_keys=True).encode("utf-8")
    params = net.parameters()
    with open(path, "wb") as handle:
        handle.write(CHECKPOINT_MAGIC)
        handle.write(struct.pack("<II", CHECKPOINT_VERSION, len(raw_meta)))
        handle.write(raw_meta)
        handle.write(struct.pack("<I", len(params)))
        for name, value in params.items():
            raw_name = name.encode("utf-8")
            handle.write(struct.pack("<H", len(raw_name)))
            handle.write(raw_name)
            handle.write(struct.pack("<B", value.ndim))
            handle.write(struct.pack(f"<{value.ndim}I", *value.shape))
            handle.write(value.astype("<f8").tobytes())


def load_checkpoint(path: str | Path) -> tuple[PoseConvNet, dict]:
    """Rebuild a net from a checkpoint; returns (net, caller meta dict).

    Defects raise ValueError naming the file and the field."""
    reader = BinaryReader(path)
    magic = reader.take(4, "magic")
    if magic != CHECKPOINT_MAGIC:
        raise reader.fail(f"not a pose ConvNet checkpoint (bad magic {magic!r})")
    (version,) = reader.unpack("I", "version")
    if version != CHECKPOINT_VERSION:
        raise reader.fail(f"unsupported checkpoint version {version}")
    raw_meta = reader.text("I", "meta")
    (count,) = reader.unpack("I", "parameter count")
    params: dict[str, np.ndarray] = {}
    for i in range(count):
        name = reader.text("H", f"parameter {i} name")
        (ndim,) = reader.unpack("B", f"parameter '{name}' ndim")
        shape = reader.unpack(f"{ndim}I", f"parameter '{name}' shape")
        values = reader.array("<f8", math.prod(shape), f"parameter '{name}'")
        params[name] = values.reshape(shape).copy()
    reader.finish()
    expected = {"conv1_w", "conv1_b", "conv2_w", "conv2_b", "fc1_w", "fc1_b", "out_w", "out_b"}
    if set(params) != expected:
        raise reader.fail(f"checkpoint parameters {sorted(params)} != expected {sorted(expected)}")
    try:
        header = json.loads(raw_meta)
        net = PoseConvNet(
            input_shape=tuple(int(d) for d in header["input_shape"]),
            num_classes=int(header["num_classes"]),
            arch=NetSpec(**header["arch"]),
            **params,
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise reader.fail(f"malformed meta block ({type(exc).__name__}: {exc})") from None
    return net, header.get("meta", {})
