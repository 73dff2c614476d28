"""Shared test helpers."""

from dataclasses import replace

import numpy as np

from posestream.skeleton import _parse


def topology(text, name="test"):
    """The topology a description text gives, read by the parser that reads
    description files and the built-in profiles."""
    return _parse(text, name, name)


def write_raw(path, kind, header, arrays):
    """A file with kind's magic and version holding any header and arrays,
    as given: no header field is typed, and the layout is the arrays' own
    dtypes and shapes."""
    layout = {name: (array.dtype.str, array.shape) for name, array in arrays.items()}
    replace(kind, fields={}, layout=lambda _: layout).write(path, header, arrays)


def assert_kink_free(net, x, h=1e-4, factor=10.0):
    """Precondition for finite-difference gradient oracles.

    Central differences are only valid away from the network's
    non-differentiable points: a ReLU input within ~h of zero, or a pool
    window whose two best positive entries are within ~h of each other,
    turns f(theta +- h) into a kinked comparison. Asserting a safety
    margin makes a gradient-check failure mean wrong gradients rather
    than an invalid oracle. The margins come from the reference forward
    pass, which keeps the pre-ReLU values and every conv output position.
    """
    from convnet_reference import _forward

    from posestream.convnet import POOL

    cache = _forward(net, np.asarray(x, dtype=np.float64))
    z_margin = min(
        np.abs(cache["z1"]).min(), np.abs(cache["z2"]).min(), np.abs(cache["zf"]).min()
    )
    a2 = cache["a2"]
    size = POOL
    batch, rows, cols, channels = a2.shape
    r2, c2 = rows // size, cols // size
    windows = a2[:, : r2 * size, : c2 * size, :].reshape(
        batch, r2, size, c2, size, channels
    ).transpose(0, 1, 3, 2, 4, 5).reshape(batch, r2, c2, size * size, channels)
    ranked = np.sort(windows, axis=3)
    top1, top2 = ranked[:, :, :, -1, :], ranked[:, :, :, -2, :]
    positive = top1 > 0
    pool_margin = float((top1 - top2)[positive].min()) if positive.any() else np.inf
    threshold = factor * h
    assert min(z_margin, pool_margin) > threshold, (
        f"configuration too close to a kink for finite differences "
        f"(relu margin {z_margin:.2e}, pool margin {pool_margin:.2e}); pick other seeds"
    )
