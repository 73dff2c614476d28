"""Consensus, fusion, evaluation, and score-file tests."""

import itertools
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posestream.cli import cmd_fuse
from posestream.config import PipelineConfig
from posestream.fusion import (
    STREAMS,
    StreamScores,
    consensus,
    evaluate,
    fuse,
    read_labels,
    read_scores,
    search_weights,
    write_labels,
    write_scores,
)


def stream(name, vectors):
    videos = tuple(sorted(vectors))
    return StreamScores(name, videos, np.array([vectors[v] for v in videos], dtype=np.float64))


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
            {
                "pose": stream("pose", {"v": [0.2, 0.8]}),
                "spatial": stream("spatial", {"v": [0.5, 0.5]}),
                "temporal": stream("temporal", {"v": [0.6, 0.4]}),
            },
            (1, 1, 1),
        )
        np.testing.assert_allclose(fused.scores["v"], [1.3, 1.7])
        assert int(np.argmax(fused.scores["v"])) == 1

    def test_single_stream_projection(self):
        pose = stream("pose", {"a": [0.9, 0.1], "b": [0.3, 0.7]})
        fused = fuse({"pose": pose}, (1, 0, 0))
        for vid in pose.scores:
            np.testing.assert_allclose(fused.scores[vid], pose.scores[vid])

    def test_weight_scaling_preserves_argmax(self):
        rng = np.random.default_rng(1)
        vids = {f"v{i}": rng.normal(size=5) for i in range(40)}
        streams = {
            "pose": stream("pose", vids),
            "spatial": stream("spatial", {k: rng.normal(size=5) for k in vids}),
            "temporal": stream("temporal", {k: rng.normal(size=5) for k in vids}),
        }
        base = fuse(streams, (1.0, 0.5, 2.0))
        for c in (0.1, 3.0, 17.5):
            scaled = fuse(streams, (1.0 * c, 0.5 * c, 2.0 * c))
            for vid in vids:
                np.testing.assert_allclose(scaled.scores[vid], c * base.scores[vid], atol=1e-9)
                assert np.argmax(scaled.scores[vid]) == np.argmax(base.scores[vid])

    def test_symmetric_under_stream_exchange(self):
        a = stream("pose", {"v": [1.0, 2.0]})
        b = stream("spatial", {"v": [3.0, 5.0]})
        c = stream("temporal", {"v": [7.0, 11.0]})
        one = fuse({"pose": a, "spatial": b, "temporal": c}, (2.0, 3.0, 4.0))
        two = fuse({"pose": c, "spatial": a, "temporal": b}, (4.0, 2.0, 3.0))
        np.testing.assert_allclose(one.scores["v"], two.scores["v"])

    def test_class_count_mismatch(self):
        with pytest.raises(ValueError, match="classes"):
            fuse(
                {
                    "pose": stream("pose", {"v": [0.5, 0.5]}),
                    "spatial": stream("spatial", {"v": [0.2, 0.3, 0.5]}),
                },
                (1, 1, 1),
            )

    def test_video_set_mismatch(self):
        with pytest.raises(ValueError, match="video set"):
            fuse(
                {"pose": stream("pose", {"a": [1.0, 0.0]}),
                 "spatial": stream("spatial", {"b": [1.0, 0.0]})},
                (1, 1, 1),
            )

    def test_needs_a_stream(self):
        with pytest.raises(ValueError, match="at least one"):
            fuse({}, (1, 1, 1))

    def test_unknown_stream_rejected(self):
        with pytest.raises(ValueError, match="unknown streams \\['flow'\\]"):
            fuse({"pose": stream("pose", {"v": [1.0]}), "flow": stream("flow", {"v": [1.0]})},
                 (1, 1, 1))

    def test_all_zero_weights_rejected(self):
        # All zero on the given streams is enough: the others add nothing.
        pose = stream("pose", {"v": [1.0, 0.0]})
        for weights in ((0.0, 0.0, 0.0), (0.0, 1.0, 2.0)):
            with pytest.raises(ValueError, match=re.escape(f"weights {weights} are zero on every")):
                fuse({"pose": pose}, weights)

    def test_overflow_names_weights(self):
        big = stream("pose", {"a": [1.0, 0.5]})
        with pytest.raises(ValueError, match=r"weights \(1e\+308, 1e\+308, 0\.0\)"):
            fuse({"pose": big, "spatial": big}, (1e308, 1e308, 0.0))


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
        counts = result.confusion.sum(axis=1)
        weighted = np.nansum(result.per_class * counts) / counts.sum()
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
        accuracies = search_weights({"pose": pose, "spatial": bad}, labels, grid)
        assert accuracies.tolist() == [1.0, 0.0, 0.0]

    def test_overflowing_candidate_named(self):
        labels = {"a": 0, "b": 1}
        pose = stream("pose", {"a": [1.0, 0.5], "b": [0.5, 1.0]})
        spatial = stream("spatial", {"a": [1.0, 0.0], "b": [0.0, 1.0]})
        grid = [(1.0, 1.0, 0.0), (1e308, 1.0, 0.0), (1e308, 1e308, 0.0), (2.0, 1.0, 0.0)]
        with pytest.raises(ValueError, match=r"weights \(1e\+308, 1e\+308, 0\.0\)"):
            search_weights({"pose": pose, "spatial": spatial}, labels, grid)
        # The same candidates without the overflowing one all score.
        accuracies = search_weights({"pose": pose, "spatial": spatial}, labels, grid[:2] + grid[3:])
        assert accuracies.tolist() == [1.0, 1.0, 1.0]

    @pytest.mark.parametrize("grid, match", [
        ([], "empty"),
        ([(1.0, 1.0)], r"rows of 3 weights"),
        ([(1.0, 0.0, 0.0), (0.0, 0.0, 1.0)], r"\(0\.0, 0\.0, 1\.0\) are zero on every given"),
    ])
    def test_rejects_bad_grid(self, grid, match):
        labels = {"a": 0}
        with pytest.raises(ValueError, match=match):
            search_weights({"pose": stream("pose", {"a": [1.0, 0.0]})}, labels, grid)

    def test_chunks_match_one_candidate_at_a_time(self):
        # More candidates than one chunk holds, with ties across chunks.
        rng = np.random.default_rng(9)
        videos = [f"v{i:02d}" for i in range(30)]
        labels = {v: int(rng.integers(0, 3)) for v in videos}
        streams = {name: stream(name, {v: rng.integers(0, 3, 3).astype(float) for v in videos})
                   for name in STREAMS}
        values = (0.0, 0.5, 1.0, 2.0, -1.0)
        grid = [(p, s, t) for p in values for s in values for t in values if (p, s, t) != (0, 0, 0)]
        assert len(grid) > 64
        accuracies = search_weights(streams, labels, grid)
        expected = [evaluate(fuse(streams, w), labels).accuracy for w in grid]
        assert accuracies.tolist() == expected


class TestScoreFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        raw = rng.dirichlet(np.ones(4), size=3)
        s = stream("pose", {f"v{i}": raw[i] for i in range(3)})
        path = tmp_path / "scores.csv"
        write_scores(path, s, meta={"seed": 7, "config_hash": "abc"})
        loaded = read_scores(path, stream="pose")
        assert loaded.videos == ("v0", "v1", "v2")
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

    def test_snippet_variant(self, tmp_path):
        path = tmp_path / "snips.csv"
        path.write_text(
            "video,snippet,class_0,class_1\n"
            "v,1,0.0,1.0\n"
            "v,0,1.0,0.0\n"
            "w,0,0.5,0.5\n"
        )
        loaded = read_scores(path, stream="temporal")
        assert loaded.videos == ("v", "w")
        np.testing.assert_allclose(loaded.matrix, [[0.5, 0.5], [0.5, 0.5]])

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


@pytest.mark.parametrize("reader, text, line", [
    (read_scores, "# seed=1\nvideo,class_0,class_1\nv,nan,0.5\n", 3),
    (read_scores, "video,class_0,class_1\nv,0.5,0.5\nw,inf,0.5\n", 3),
    (read_scores, "video,class_0,class_1\nv,abc,0.5\n", 2),
    (read_scores, "# seed=1\nvideo,class_0,class_1\n", 2),
    (read_scores, "video,class_0,class_1\nv,0.5\n", 2),
    (read_scores, "video,snippet,class_0\nv,0,0.5\nv,x,0.5\n", 3),
    (read_scores, "video,snippet,class_0\nv,0,0.5\nw,0,0.5\nv,0,0.7\n", 4),
    (read_labels, "video,label\nv,0\nw,x\n", 3),
    (read_labels, "# seed=1\nvideo,label\nv,-1\n", 3),
    (read_labels, "video,label\nv,0\nv,1\n", 3),
], ids=["nan", "inf", "not-a-number", "header-only", "short-row", "snippet-index",
        "duplicate-snippet", "label-not-int", "negative-label", "duplicate-label"])
def test_csv_defects_name_file_and_line(tmp_path, reader, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=f"{path}:{line}:"):
        reader(path)


class TestStreamScores:
    @pytest.mark.parametrize("videos, matrix, match", [
        ((), np.zeros((0, 2)), "no videos"),
        (("b", "a"), np.zeros((2, 2)), "sorted and unique"),
        (("a", "a"), np.zeros((2, 2)), "sorted and unique"),
        (("a", "b"), np.zeros((3, 2)), "matrix"),
        (("a",), np.zeros((1, 0)), "matrix"),
        (("a",), np.array([[0.5, np.nan]]), "non-finite"),
    ])
    def test_rejects_malformed(self, videos, matrix, match):
        with pytest.raises(ValueError, match=match):
            StreamScores("pose", videos, matrix)

    def test_scores_view(self):
        s = stream("pose", {"b": [0.0, 1.0], "a": [1.0, 0.0]})
        assert list(s.scores) == ["a", "b"]
        np.testing.assert_array_equal(s.scores["b"], [0.0, 1.0])


# ---------------------------------------------------------------------------
# Oracle: the per-video loops fusion used before streams became matrices
# ---------------------------------------------------------------------------

def reference_fuse(streams, weights):
    """streams: (pose, spatial, temporal) dicts video -> vector, or None."""
    present = [(w, s) for w, s in zip(weights, streams) if s is not None]
    videos = set(present[0][1])
    classes = len(next(iter(present[0][1].values())))
    fused = {}
    for video in sorted(videos):
        total = np.zeros(classes)
        for w, s in present:
            total += w * s[video]
        fused[video] = total
    return fused


def reference_evaluate(scores, labels, classes):
    confusion = np.zeros((classes, classes), dtype=np.int64)
    for video in sorted(scores):
        confusion[labels[video], int(np.argmax(scores[video]))] += 1
    counts = confusion.sum(axis=1)
    with np.errstate(invalid="ignore"):
        per_class = np.where(counts > 0, np.diag(confusion) / np.maximum(counts, 1), np.nan)
    return float(np.diag(confusion).sum() / confusion.sum()), per_class, confusion


def reference_search(streams, labels, classes, grid):
    return [reference_evaluate(reference_fuse(streams, w), labels, classes)[0] for w in grid]


def idle(weights, streams):
    """True when every given stream has weight zero."""
    return all(w == 0.0 for w, s in zip(weights, streams) if s is not None)


_WEIGHT = st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, -1.0, 0.1])
_TRIPLE = st.tuples(_WEIGHT, _WEIGHT, _WEIGHT)


@st.composite
def fusion_cases(draw):
    videos = draw(st.lists(st.text("abcv0", min_size=1, max_size=3), min_size=1, max_size=9,
                           unique=True))
    classes = draw(st.integers(1, 4))
    present = draw(st.lists(st.booleans(), min_size=3, max_size=3).filter(any))
    score = st.lists(st.integers(-2, 2), min_size=classes, max_size=classes)
    streams = tuple(
        {v: np.array(draw(score), dtype=np.float64) for v in videos} if on else None
        for on in present
    )
    labels = {v: draw(st.integers(0, classes - 1)) for v in videos}
    grid = draw(st.lists(_TRIPLE, min_size=1, max_size=6))
    return streams, labels, classes, grid


def as_mapping(streams):
    return {name: stream(name, s) for name, s in zip(STREAMS, streams) if s is not None}


@settings(max_examples=200, deadline=None)
@given(case=fusion_cases())
def test_matrix_fusion_matches_per_video_reference(case):
    streams, labels, classes, grid = case
    objects = as_mapping(streams)
    for weights in grid:
        if idle(weights, streams):
            with pytest.raises(ValueError, match="zero on every given stream"):
                fuse(objects, weights)
            continue
        fused = fuse(objects, weights)
        expected = reference_fuse(streams, weights)
        assert fused.videos == tuple(sorted(expected))
        assert fused.matrix.tobytes() == np.stack([expected[v] for v in fused.videos]).tobytes()
        result = evaluate(fused, labels)
        accuracy, per_class, confusion = reference_evaluate(expected, labels, classes)
        assert result.accuracy == accuracy
        np.testing.assert_array_equal(result.per_class, per_class)
        np.testing.assert_array_equal(result.confusion, confusion)
    usable = [weights for weights in grid if not idle(weights, streams)]
    if usable:
        accuracies = search_weights(objects, labels, usable)
        assert accuracies.tolist() == reference_search(streams, labels, classes, usable)
    if len(usable) < len(grid):
        with pytest.raises(ValueError, match="zero on every given stream"):
            search_weights(objects, labels, grid)


@st.composite
def subset_cases(draw):
    streams, labels, classes, _ = draw(fusion_cases())
    return streams, labels, classes, draw(_TRIPLE)


@settings(max_examples=100, deadline=None)
@given(case=subset_cases())
def test_subset_table_matches_per_subset_reference(case):
    """cmd_fuse's table holds, for every subset of the given streams, the
    accuracy of those streams alone fused with their own weights, and null
    where those weights are all zero."""
    streams, labels, classes, weights = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        paths = {}
        for name, s in as_mapping(streams).items():
            paths[f"{name}_scores"] = str(tmp / f"{name}.csv")
            write_scores(paths[f"{name}_scores"], s)
        write_labels(tmp / "labels.csv", labels)
        inputs = sorted(p.name for p in tmp.iterdir())
        cfg = PipelineConfig(weights=weights, labels=str(tmp / "labels.csv"),
                             fused_scores=str(tmp / "fused.csv"), **paths)
        if idle(weights, streams):
            with pytest.raises(ValueError, match="zero on every given stream"):
                cmd_fuse(cfg)
            assert sorted(p.name for p in tmp.iterdir()) == inputs
            return
        report = cmd_fuse(cfg)

    expected = {}
    for keep in itertools.product((False, True), repeat=len(STREAMS)):
        if not any(keep) or any(on and s is None for s, on in zip(streams, keep)):
            continue
        picked = tuple(s if on else None for s, on in zip(streams, keep))
        name = "+".join(n for n, on in zip(STREAMS, keep) if on)
        expected[name] = None if idle(weights, picked) else reference_evaluate(
            reference_fuse(picked, weights), labels, classes)[0]
    assert report["accuracy"] == expected
    given_names = "+".join(n for n, s in zip(STREAMS, streams) if s is not None)
    assert report["fused_accuracy"] == expected[given_names]


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
