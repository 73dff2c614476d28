"""Reference job: a fixed piece of work that measures how fast the machine is right now.

Usage::

    python3 perfbench/refjob.py

It starts an interpreter, imports numpy, parses JSON records, runs small and
mid-sized numpy operations and a matrix product chain: the same kinds of work
the posestream commands do, but none of the program's code, so a change to
``src/`` never changes its time. ``perfbench/run.py`` runs it as a child
process next to every timed command and expresses the command's time in
multiples of it. Prints one JSON object with a checksum.
"""

from __future__ import annotations

import json

import numpy as np

RECORDS = 60
FRAMES = 40
JOINTS = 15


def main() -> dict:
    rng = np.random.default_rng(0)
    lines = [
        json.dumps({"video": f"v{i}", "frames": [[[float(j), 0.5 * j, 1] for j in range(JOINTS)]
                                                for _ in range(FRAMES)]})
        for i in range(RECORDS)
    ]
    total = 0.0
    for line in lines:
        frames = np.asarray(json.loads(line)["frames"], dtype=float)
        total += float(frames[:, :, 0].mean())
    m = rng.standard_normal((200, 200))
    for _ in range(30):
        m = np.tanh(m @ m * 1e-2)
    big = rng.standard_normal(3_000_000)
    acc = np.zeros(4)
    for i in range(20_000):
        acc += big[i:i + 4]
    return {"checksum": total + float(m[0, 0]) + float(big.sum()) + float(acc[0])}


if __name__ == "__main__":
    print(json.dumps(main()))
