"""Synthetic corpus generator tests."""

from dataclasses import replace

import numpy as np
import pytest

from posestream.cli import cmd_synth
from posestream.synth import CLASS_NAMES, SyntheticSpec, generate


class TestSpec:
    def test_rejects_unknown_class(self):
        with pytest.raises(ValueError, match="unknown motion"):
            SyntheticSpec(classes=("moonwalk",))

    def test_rejects_bad_dropout(self):
        with pytest.raises(ValueError, match="dropout"):
            SyntheticSpec(dropout=1.0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError, match="sigma"):
            SyntheticSpec(noise_sigma=-1.0)


class TestGenerate:
    def test_counts_and_labels(self):
        spec = SyntheticSpec(videos_per_class=3, frames=10, seed=1)
        corpus = generate(spec)
        assert len(corpus.videos) == 3 * len(CLASS_NAMES)
        labels = sorted(set(corpus.labels.tolist()))
        assert labels == list(range(len(CLASS_NAMES)))
        assert (np.diff(corpus.offsets) == 10).all()
        assert len(set(corpus.videos)) == len(corpus.videos)

    def test_clean_spec_fully_visible_and_noise_free(self):
        spec = SyntheticSpec(videos_per_class=2, frames=8, noise_sigma=0.0, dropout=0.0, seed=2)
        corpus = generate(spec)
        assert (corpus.flags == 1).all()
        # Same seed with noise produces different coordinates.
        noisy = generate(SyntheticSpec(videos_per_class=2, frames=8, noise_sigma=1.0, seed=2))
        assert not np.allclose(corpus.coords[:8], noisy.coords[:8])

    def test_deterministic(self):
        spec = SyntheticSpec(videos_per_class=2, frames=8, noise_sigma=1.0, dropout=0.1, seed=3)
        a, b = generate(spec), generate(spec)
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_array_equal(a.flags, b.flags)

    def test_dropout_fraction(self):
        # >= 10^4 joint slots; empirical rate within 0.2 +- 0.02.
        spec = SyntheticSpec(videos_per_class=20, frames=20, dropout=0.2, seed=4)
        vis = generate(spec).flags.ravel()
        assert vis.size >= 10_000
        rate = float((vis == 0).mean())
        assert abs(rate - 0.2) <= 0.02

    def test_profiles_supported(self):
        for profile in ("jhmdb_gt", "estimated_14", "penn"):
            corpus = generate(SyntheticSpec(videos_per_class=1, frames=5, profile=profile))
            assert corpus.coords.shape[1] == {"jhmdb_gt": 15, "estimated_14": 14, "penn": 13}[profile]

    def test_classes_move_differently(self):
        spec = SyntheticSpec(videos_per_class=1, frames=20, noise_sigma=0.0, seed=5)
        corpus = generate(spec)
        motion = {
            video.rsplit("_", 1)[0]: np.abs(np.diff(corpus.coords[a:b], axis=0)).mean(axis=(0, 2))
            for video, a, b in zip(corpus.videos, corpus.offsets[:-1], corpus.offsets[1:])
        }
        # The wave class moves its right wrist far more than its ankles;
        # the stride class moves everything.
        wave, stride = motion["wave"], motion["stride"]
        assert wave[11] > 5 * wave[13]  # r_wrist vs r_ankle in jhmdb order
        assert stride.min() > 0.5

    def test_dropout_only_clears_flags(self):
        # Dropout draws from its own per-video generator: the coordinates
        # stay bit-identical, and the flags differ only where dropout zeroed them.
        spec = SyntheticSpec(videos_per_class=3, frames=12, noise_sigma=1.5, seed=8)
        clean = generate(spec)
        dropped = generate(replace(spec, dropout=0.3))
        assert clean.coords.tobytes() == dropped.coords.tobytes()
        changed = clean.flags != dropped.flags
        assert changed.any()
        assert (dropped.flags[changed] == 0).all()
        np.testing.assert_array_equal(clean.offsets, dropped.offsets)
        assert clean.videos == dropped.videos


class TestAnnotationsFile:
    def test_byte_identical_for_same_seed(self, tmp_path):
        spec = SyntheticSpec(videos_per_class=2, frames=6, noise_sigma=0.5, dropout=0.1, seed=6)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        cmd_synth(spec, a)
        cmd_synth(spec, b)
        assert a.read_bytes() == b.read_bytes()

    def test_readable_by_annotation_reader(self, tmp_path):
        from posestream.preprocess import iter_annotation_lines, parse_annotation_line

        spec = SyntheticSpec(videos_per_class=1, frames=5, seed=7)
        path = tmp_path / "ann.jsonl"
        count = cmd_synth(spec, path)["videos"]
        poses = [parse_annotation_line(line, n_expected=15)
                 for _, line in iter_annotation_lines(path)]
        assert len([pose for pose in poses if pose is not None]) == count
