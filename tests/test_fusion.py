"""Consensus, fusion, evaluation, and score-file tests."""

import numpy as np
import pytest

from posestream.fusion import (
    LOGITS,
    PROBABILITIES,
    FusionWeights,
    StreamScores,
    consensus,
    evaluate,
    fuse,
    infer_kind,
    read_labels,
    read_scores,
    search_weights,
    write_labels,
    write_scores,
)


def stream(name, vectors, kind=PROBABILITIES):
    return StreamScores(
        stream=name,
        scores={vid: np.asarray(vec, dtype=np.float64) for vid, vec in vectors.items()},
        kind=kind,
    )


class TestConsensus:
    def test_two_rows(self):
        np.testing.assert_allclose(consensus([[1.0, 0.0], [0.0, 1.0]]), [0.5, 0.5])

    def test_single_row_identity(self):
        np.testing.assert_allclose(consensus([[0.2, 0.3, 0.5]]), [0.2, 0.3, 0.5])

    def test_matches_bruteforce_mean(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(100, 7))
        expected = np.array([matrix[:, c].sum() / 100 for c in range(7)])
        np.testing.assert_allclose(consensus(matrix), expected, atol=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            consensus(np.zeros((0, 3)))


class TestFuse:
    def test_hand_sum(self):
        fused = fuse(
            stream("pose", {"v": [0.2, 0.8]}),
            stream("spatial", {"v": [0.5, 0.5]}),
            stream("temporal", {"v": [0.6, 0.4]}),
            FusionWeights(1, 1, 1),
        )
        np.testing.assert_allclose(fused.scores["v"], [1.3, 1.7])
        assert int(np.argmax(fused.scores["v"])) == 1

    def test_single_stream_projection(self):
        pose = stream("pose", {"a": [0.9, 0.1], "b": [0.3, 0.7]})
        with pytest.warns(UserWarning):
            fused = fuse(pose, None, None, FusionWeights(1, 0, 0))
        for vid in pose.scores:
            np.testing.assert_allclose(fused.scores[vid], pose.scores[vid])

    def test_weight_scaling_preserves_argmax(self):
        rng = np.random.default_rng(1)
        vids = {f"v{i}": rng.normal(size=5) for i in range(40)}
        pose = stream("pose", vids)
        spatial = stream("spatial", {k: rng.normal(size=5) for k in vids})
        temporal = stream("temporal", {k: rng.normal(size=5) for k in vids})
        base = fuse(pose, spatial, temporal, FusionWeights(1.0, 0.5, 2.0))
        for c in (0.1, 3.0, 17.5):
            scaled = fuse(pose, spatial, temporal, FusionWeights(1.0 * c, 0.5 * c, 2.0 * c))
            for vid in vids:
                np.testing.assert_allclose(scaled.scores[vid], c * base.scores[vid], atol=1e-9)
                assert np.argmax(scaled.scores[vid]) == np.argmax(base.scores[vid])

    def test_symmetric_under_stream_exchange(self):
        a = stream("pose", {"v": [1.0, 2.0]})
        b = stream("spatial", {"v": [3.0, 5.0]})
        c = stream("temporal", {"v": [7.0, 11.0]})
        one = fuse(a, b, c, FusionWeights(2.0, 3.0, 4.0))
        two = fuse(c, a, b, FusionWeights(4.0, 2.0, 3.0))
        np.testing.assert_allclose(one.scores["v"], two.scores["v"])

    def test_missing_stream_warns(self):
        pose = stream("pose", {"v": [0.5, 0.5]})
        with pytest.warns(UserWarning, match="temporal"):
            fuse(pose, stream("spatial", {"v": [1.0, 0.0]}), None, FusionWeights())

    def test_mixed_kind_warns(self):
        pose = stream("pose", {"v": [0.5, 0.5]}, kind=PROBABILITIES)
        spatial = stream("spatial", {"v": [4.0, -2.0]}, kind=LOGITS)
        with pytest.warns(UserWarning, match="normalization"):
            fuse(pose, spatial, stream("temporal", {"v": [0.9, 0.1]}), FusionWeights())

    def test_class_count_mismatch(self):
        with pytest.warns(UserWarning), pytest.raises(ValueError, match="classes"):
            fuse(
                stream("pose", {"v": [0.5, 0.5]}),
                stream("spatial", {"v": [0.2, 0.3, 0.5]}),
                None,
                FusionWeights(),
            )

    def test_video_set_mismatch(self):
        with pytest.warns(UserWarning), pytest.raises(ValueError, match="video set"):
            fuse(
                stream("pose", {"a": [1.0, 0.0]}),
                stream("spatial", {"b": [1.0, 0.0]}),
                None,
                FusionWeights(),
            )

    def test_needs_a_stream(self):
        with pytest.raises(ValueError, match="at least one"):
            fuse(None, None, None, FusionWeights())

    def test_all_zero_weights_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            FusionWeights(0.0, 0.0, 0.0)


class TestEvaluate:
    def test_all_correct(self):
        scores = stream("pose", {"a": [0.9, 0.1], "b": [0.1, 0.9]})
        result = evaluate(scores, {"a": 0, "b": 1})
        assert result.accuracy == 1.0

    def test_three_of_four(self):
        scores = stream("pose", {
            "a": [0.9, 0.1], "b": [0.9, 0.1], "c": [0.1, 0.9], "d": [0.9, 0.1],
        })
        result = evaluate(scores, {"a": 0, "b": 0, "c": 1, "d": 1})
        assert result.accuracy == 0.75

    def test_confusion_rows_sum_to_class_counts(self):
        rng = np.random.default_rng(2)
        labels = {f"v{i}": int(rng.integers(0, 4)) for i in range(200)}
        scores = stream("pose", {vid: rng.normal(size=4) for vid in labels})
        result = evaluate(scores, labels)
        expected_counts = np.bincount(list(labels.values()), minlength=4)
        np.testing.assert_array_equal(result.confusion.sum(axis=1), expected_counts)
        # Brute-force accuracy oracle.
        hits = sum(
            int(np.argmax(scores.scores[vid])) == lab for vid, lab in labels.items()
        )
        np.testing.assert_allclose(result.accuracy, hits / len(labels), atol=1e-12)

    def test_per_class_weighted_mean_is_overall(self):
        rng = np.random.default_rng(3)
        labels = {f"v{i}": int(rng.integers(0, 3)) for i in range(150)}
        scores = stream("pose", {vid: rng.normal(size=3) for vid in labels})
        result = evaluate(scores, labels)
        weighted = np.nansum(result.per_class * result.class_counts) / result.class_counts.sum()
        np.testing.assert_allclose(weighted, result.accuracy, atol=1e-12)

    def test_missing_label_rejected(self):
        scores = stream("pose", {"a": [1.0, 0.0], "b": [1.0, 0.0]})
        with pytest.raises(ValueError, match="missing"):
            evaluate(scores, {"a": 0})

    def test_tie_breaks_to_lowest(self):
        scores = stream("pose", {"a": [0.5, 0.5]})
        result = evaluate(scores, {"a": 0})
        assert result.accuracy == 1.0
        result = evaluate(scores, {"a": 1})
        assert result.accuracy == 0.0


class TestSearchWeights:
    def test_finds_useful_stream(self):
        # Pose stream is perfect, the others are anti-correlated noise; the
        # search must keep pose and drop the bad stream.
        labels = {f"v{i}": i % 2 for i in range(20)}
        pose = stream("pose", {v: [1.0, 0.0] if l == 0 else [0.0, 1.0] for v, l in labels.items()})
        bad = stream("spatial", {v: [0.0, 2.0] if l == 0 else [2.0, 0.0] for v, l in labels.items()})
        grid = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)]
        best, rows = search_weights(pose, bad, None, labels, grid)
        assert best.as_tuple() == (1.0, 0.0, 0.0)
        assert len(rows) == 3
        assert rows[0]["accuracy"] == 1.0


class TestScoreFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        raw = rng.dirichlet(np.ones(4), size=3)
        s = stream("pose", {f"v{i}": raw[i] for i in range(3)})
        path = tmp_path / "scores.csv"
        write_scores(path, s, meta={"seed": 7, "config_hash": "abc"})
        loaded = read_scores(path, stream="pose")
        assert loaded.kind == PROBABILITIES
        assert loaded.videos == ["v0", "v1", "v2"]
        for vid in s.scores:
            np.testing.assert_allclose(loaded.scores[vid], s.scores[vid], atol=1e-9)
        text = path.read_text()
        assert text.splitlines()[0].startswith("#")
        assert "seed=7" in text
        assert text.splitlines()[1] == "video,class_0,class_1,class_2,class_3"

    def test_rows_sorted_by_video(self, tmp_path):
        s = stream("pose", {"zz": [1.0, 0.0], "aa": [0.0, 1.0]})
        path = tmp_path / "scores.csv"
        write_scores(path, s)
        lines = path.read_text().splitlines()
        assert lines[1].startswith("aa,") and lines[2].startswith("zz,")

    def test_kind_inferred_logits(self, tmp_path):
        s = stream("pose", {"v": [3.0, -1.0]}, kind=LOGITS)
        path = tmp_path / "scores.csv"
        write_scores(path, s)
        assert read_scores(path).kind == LOGITS

    def test_snippet_variant(self, tmp_path):
        path = tmp_path / "snips.csv"
        path.write_text(
            "video,snippet,class_0,class_1\n"
            "v,1,0.0,1.0\n"
            "v,0,1.0,0.0\n"
            "w,0,0.5,0.5\n"
        )
        loaded = read_scores(path, stream="temporal")
        np.testing.assert_allclose(loaded.scores["v"], [0.5, 0.5])
        np.testing.assert_allclose(loaded.snippet_scores["v"][0], [1.0, 0.0])  # sorted by snippet
        np.testing.assert_allclose(loaded.scores["w"], [0.5, 0.5])

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,c0\nv,1.0\n")
        with pytest.raises(ValueError, match="header"):
            read_scores(path)

    def test_rejects_duplicate_video(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("video,class_0,class_1\nv,1.0,0.0\nv,0.0,1.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_scores(path)

    def test_infer_kind(self):
        assert infer_kind({"v": np.array([0.25, 0.75])}) == PROBABILITIES
        assert infer_kind({"v": np.array([0.5, 0.75])}) == LOGITS
        assert infer_kind({"v": np.array([-0.5, 1.5])}) == LOGITS


class TestLabelFiles:
    def test_round_trip(self, tmp_path):
        labels = {"b": 1, "a": 0, "c": 2}
        path = tmp_path / "labels.csv"
        write_labels(path, labels, meta={"seed": 1})
        assert read_labels(path) == labels
        assert path.read_text().splitlines()[1] == "video,label"

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("video,cls\nv,0\n")
        with pytest.raises(ValueError, match="header"):
            read_labels(path)
