"""Cut and padded checkpoint and corpus files fail with the file name."""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posestream.convnet import NetSpec, init_net, load_checkpoint, save_checkpoint
from posestream.preprocess import PoseCorpus, PoseSequence
from posestream.skeleton import euler_tour, make_topology
from posestream.tensorize import FilledCorpus, read_corpus, write_corpus

TOPOLOGY = make_topology(
    name="tri",
    joint_names=["r", "a", "b"],
    edges=[("r", "a"), ("r", "b")],
    root="r",
    parts={"r": 5, "a": 1, "b": 2},
    torso=("a", "b"),
)


def small_corpus(rng, frames):
    poses = [
        PoseSequence(
            video=f"clip{i}",
            coords=rng.normal(size=(count, TOPOLOGY.n, 2)),
            visibility=rng.integers(1, 5, size=(count, TOPOLOGY.n)),
            label=i,
        )
        for i, count in enumerate(frames)
    ]
    return FilledCorpus(**vars(PoseCorpus.of(poses)), path=euler_tour(TOPOLOGY), seed=7,
                        config_hash="h")


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    frames=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    padding=st.binary(min_size=1, max_size=9),
)
def test_every_cut_and_any_padding_is_rejected(seed, frames, padding):
    rng = np.random.default_rng(seed)
    net = init_net((6, 6, 3), num_classes=2, seed=seed,
                   arch=NetSpec(conv1_channels=1, conv2_channels=1, hidden=2))
    with tempfile.TemporaryDirectory() as tmp:
        files = {
            Path(tmp) / "net.ckpt": (lambda p: save_checkpoint(net, p), load_checkpoint),
            Path(tmp) / "corpus.bin": (
                lambda p: write_corpus(p, small_corpus(rng, frames)), read_corpus
            ),
        }
        for path, (write, read) in files.items():
            write(path)
            raw = path.read_bytes()
            read(path)
            bad = path.with_suffix(".bad")
            for cut in range(len(raw)):
                bad.write_bytes(raw[:cut])
                with pytest.raises(ValueError, match="truncated") as exc:
                    read(bad)
                assert str(bad) in str(exc.value)
            bad.write_bytes(raw + padding)
            with pytest.raises(ValueError, match="trailing bytes") as exc:
                read(bad)
            assert str(bad) in str(exc.value)
