"""Corpus, checkpoint and spatial model files share one container: cut,
padded, old-format and arbitrary-header files fail with the file name, also
through the corpus read one video at a time; rows are read only in the
array's own dtype and bounds; and no other module frames a binary file of
its own."""

import ast
import json
import re
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import topology
from posestream import binio
from posestream.convnet import NetSpec, init_net, load_checkpoint, save_checkpoint
from posestream.preprocess import SpatialModel
from posestream.skeleton import euler_tour
from posestream.tensorize import CORPUS_FILE, FilledCorpus, OpenCorpus, read_corpus, write_corpus

ROOT = Path(__file__).resolve().parents[1]

TOPOLOGY = topology("n=3 root=r torso=a,b\nr a part=1\nr b part=2\n", "tri")


def small_corpus(rng, frames):
    return FilledCorpus(
        videos=[f"clip{i}" for i in range(len(frames))], labels=np.arange(len(frames)),
        offsets=np.cumsum([0, *frames]), coords=rng.normal(size=(sum(frames), TOPOLOGY.n, 2)),
        path=euler_tour(TOPOLOGY), seed=7, config_hash="h")


def small_model(rng):
    n = TOPOLOGY.n
    return SpatialModel(TOPOLOGY.name, TOPOLOGY.joint_names, rng.normal(size=(n, n, 3, 2)),
                        rng.random((n, n)) > 0.5)


def read_corpus_by_rows(path):
    """Open the corpus, then read it one video at a time, the last first."""
    with OpenCorpus(path) as corpus:
        return [corpus.read([row]) for row in reversed(range(len(corpus.videos)))]


def write_files(directory, seed=0, frames=(2, 1)):
    """{path: reader} of a valid corpus, checkpoint and spatial model, and of
    the corpus again (r.bin) for the reader of one video at a time."""
    rng = np.random.default_rng(seed)
    net = init_net((6, 6, 3), num_classes=2, seed=seed,
                   arch=NetSpec(conv1_channels=1, conv2_channels=1, hidden=2))
    corpus, checkpoint, model, rows = (
        Path(directory) / name for name in ("c.bin", "n.ckpt", "m.bin", "r.bin"))
    write_corpus(corpus, small_corpus(rng, frames))
    save_checkpoint(net, checkpoint, meta={"seed": seed})
    small_model(rng).save(model)
    rows.write_bytes(corpus.read_bytes())
    return {corpus: read_corpus, checkpoint: load_checkpoint, model: SpatialModel.load,
            rows: read_corpus_by_rows}


def with_header(raw, header, version=None):
    """raw with its header bytes (and optionally its version) replaced."""
    magic, old_version, length = binio.PREFIX.unpack_from(raw)
    prefix = binio.PREFIX.pack(magic, old_version if version is None else version, len(header))
    return prefix + header + raw[binio.PREFIX.size + length:]


def rejected(read, path):
    """The ValueError read raises on path; it must name the file."""
    with pytest.raises(ValueError) as exc:
        read(path)
    assert type(exc.value) is ValueError, repr(exc.value)
    assert str(exc.value).startswith(f"{path}: "), str(exc.value)
    return str(exc.value)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    frames=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    padding=st.binary(min_size=1, max_size=9),
)
def test_every_cut_and_any_padding_is_rejected(seed, frames, padding):
    with tempfile.TemporaryDirectory() as tmp:
        for path, read in write_files(tmp, seed, frames).items():
            raw = path.read_bytes()
            read(path)
            bad = path.with_suffix(".bad")
            for cut in range(len(raw)):
                bad.write_bytes(raw[:cut])
                assert "truncated" in rejected(read, bad)
            bad.write_bytes(raw + padding)
            assert "trailing bytes" in rejected(read, bad)


def test_round_trips_and_old_formats_are_rejected_naming_the_file(tmp_path):
    for path, read in write_files(tmp_path).items():
        read(path)
    # A corpus or checkpoint of the format before the container starts with
    # the same magic and a u32 version 1, as does the spatial model file of
    # the container's first version; before that a spatial model was an .npz file.
    for path, read in ((tmp_path / "c.bin", read_corpus), (tmp_path / "n.ckpt", load_checkpoint),
                       (tmp_path / "r.bin", read_corpus_by_rows),
                       (tmp_path / "m.bin", SpatialModel.load)):
        path.write_bytes(with_header(path.read_bytes(), b"{}", version=1))
        assert "version 1 " in rejected(read, path)
    old_model = tmp_path / "model.npz"
    with open(old_model, "wb") as handle:
        np.savez(handle, topology_name=np.array("tri"), degree=np.array(1),
                 coeffs=np.zeros((3, 3, 3, 2)), trained=np.zeros((3, 3), bool),
                 counts=np.ones((3, 3), np.int64))
    assert "not a spatial model file (bad magic" in rejected(SpatialModel.load, old_model)


def test_rows_read_alone_are_the_rows_read_whole(tmp_path):
    corpus = small_corpus(np.random.default_rng(4), [3, 1, 2, 2])
    write_corpus(tmp_path / "c.bin", corpus)
    whole = read_corpus(tmp_path / "c.bin")
    assert whole.coords.tobytes() == corpus.coords.tobytes()
    with OpenCorpus(tmp_path / "c.bin") as opened:
        part = opened.read([3, 0, 1])
    assert part.videos == ("clip3", "clip0", "clip1")
    np.testing.assert_array_equal(part.offsets, [0, 2, 5, 6])
    assert part.coords.tobytes() == np.concatenate(
        [corpus.coords[6:8], corpus.coords[0:4]]).tobytes()


def test_a_file_that_shrinks_while_open_fails_naming_it(tmp_path):
    path = tmp_path / "c.bin"  # far larger than the reader's buffer
    write_corpus(path, small_corpus(np.random.default_rng(5), [2000, 2000]))
    raw = path.read_bytes()
    with OpenCorpus(path) as corpus:
        path.write_bytes(raw[:-3])
        message = rejected(lambda _: corpus.read(), path)
    assert message == f"{path}: truncated in array 'coords' (the file shrank while it was read)"


def test_threads_reading_one_open_file_get_the_serial_bytes(tmp_path):
    """Two threads read interleaved row ranges of one open file, 200 times
    over, at a short switch interval: every read holds the serial read's
    bytes, as each read is at its own offset and no file position is shared."""
    path = tmp_path / "c.bin"
    write_corpus(path, small_corpus(np.random.default_rng(8), [500] * 8))
    ranges = [(start, 250) for start in range(0, 4000, 250)]
    reads, wrong = [0, 0], []
    with CORPUS_FILE.open(path) as file:
        whole = file.read("coords")

        def read(lane):
            out = np.empty((250, 3, 2), np.float32)
            for _ in range(200):
                for start, rows in ranges[lane::2]:
                    file.read_into("coords", out, start)
                    if out.tobytes() != whole[start:start + rows].tobytes():
                        wrong.append((lane, start))
                    reads[lane] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read, args=(lane,)) for lane in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert reads == [1600, 1600] and wrong == []


def test_rows_outside_an_array_are_refused_naming_them(tmp_path):
    # 10 frames: rows 8 to 11 of coords, the last array, would run past the
    # end of the file, and row -1 before the array.
    path = tmp_path / "c.bin"
    write_corpus(path, small_corpus(np.random.default_rng(6), [4, 6]))
    with CORPUS_FILE.open(path) as file:
        for name, out, start in (("coords", np.empty((3, 3, 2), np.float32), 8),
                                 ("coords", np.empty((1, 3, 2), np.float32), -1)):
            message = rejected(lambda _: file.read_into(name, out, start), path)
            assert message == (f"{path}: rows {start} to {start + len(out)} are outside "
                               f"array '{name}' of 10 rows")
        file.read_into("coords", np.empty((0, 3, 2), np.float32), 10)


def test_a_buffer_of_another_dtype_or_row_shape_is_refused(tmp_path):
    path = tmp_path / "c.bin"
    write_corpus(path, small_corpus(np.random.default_rng(7), [4]))
    with CORPUS_FILE.open(path) as file:
        for out in (np.empty((2, 3, 2)), np.empty((2, 6), np.float32),
                    np.empty((2, 3, 4), np.float32)[:, :, :2]):
            message = rejected(lambda _: file.read_into("coords", out), path)
            assert message == (f"{path}: array 'coords' reads into C-contiguous float32 rows "
                               f"of shape (3, 2), not {out.dtype} {out.shape}")


def test_a_corpus_of_no_videos_is_refused_naming_the_file(tmp_path):
    path = tmp_path / "c.bin"
    header = {"topology": "tri", "tour": list(euler_tour(TOPOLOGY).joints), "config_hash": "h",
              "seed": 7, "videos": [], "frames": 0, "joints": TOPOLOGY.n}
    arrays = {"offsets": np.zeros(1, "<i8"), "labels": np.zeros(0, "<i8"),
              "coords": np.zeros((0, TOPOLOGY.n, 2), "<f4")}
    CORPUS_FILE.write(path, header, arrays)
    assert rejected(OpenCorpus, path) == f"{path}: refusing to build an empty corpus"


def test_a_checkpoint_input_of_two_dimensions_is_refused_naming_the_file(tmp_path):
    write_files(tmp_path)
    path = tmp_path / "n.ckpt"
    raw = path.read_bytes()
    _, _, length = binio.PREFIX.unpack_from(raw)
    header = json.loads(raw[binio.PREFIX.size:binio.PREFIX.size + length])
    header["input_shape"] = header["input_shape"][:2]
    path.write_bytes(with_header(raw, json.dumps(header).encode()))
    assert rejected(load_checkpoint, path) == f"{path}: input_shape [6, 6] is not 3 dimensions"


def test_writers_refuse_what_would_not_read_back(tmp_path):
    rng = np.random.default_rng(3)
    corpus = replace(small_corpus(rng, [2]), seed=np.int64(7))
    model = replace(small_model(rng), joint_names=TOPOLOGY.joint_names[:2])
    cases = [
        (tmp_path / "c.bin", lambda p: write_corpus(p, corpus), "header field 'seed' must be int"),
        (tmp_path / "m.bin", model.save,
         r"array 'coeffs' has shape \(3, 3, 3, 2\), the header implies \(2, 2, 3, 2\)"),
        (tmp_path / "m32.bin",
         replace(small_model(rng), coeffs=model.coeffs.astype(np.float32)).save,
         "array 'coeffs' has dtype float32, the layout's is float64"),
    ]
    for path, write, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}"):
            write(path)
        assert not path.exists()


# Header paths that size an array, and values no header may give them.
DIMENSIONS = {
    "c.bin": [("frames",), ("joints",), ("tour", 0)],
    "n.ckpt": [("num_classes",), ("input_shape", 0), ("input_shape", 1), ("input_shape", 2),
               *(("arch", key) for key in ("conv1_channels", "conv2_channels", "hidden"))],
    "m.bin": [("joint_names",)],
}
DIMENSIONS["r.bin"] = DIMENSIONS["c.bin"]
BAD_DIMENSIONS = st.sampled_from([-1, -(10**12), 1.5, 2.0, 10**12, True])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                              max_size=3),
    max_leaves=6,
)
DEEP = 10**5


@st.composite
def bad_headers(draw, header, name):
    """Header bytes no reader may accept, from a valid header."""
    header = json.loads(json.dumps(header))
    kind = draw(st.sampled_from(["drop", "retype", "dimension", "not an object", "deep",
                                 "not JSON"]))
    key = draw(st.sampled_from(sorted(header)))
    if kind == "drop":
        del header[key]
    elif kind == "retype":
        header[key] = draw(JSON.filter(lambda value: type(value) is not type(header[key])))
    elif kind == "dimension":
        *parents, last = draw(st.sampled_from(DIMENSIONS[name]))
        target = header
        for part in parents:
            target = target[part]
        target[last] = draw(BAD_DIMENSIONS)
    elif kind == "not an object":
        return json.dumps(draw(JSON.filter(lambda value: not isinstance(value, dict)))).encode()
    elif kind == "deep":
        nested = draw(st.sampled_from(["[" * DEEP + "]" * DEEP, '{"a":' * DEEP + "1" + "}" * DEEP]))
        return draw(st.sampled_from([nested, json.dumps({key: 0})[:-3] + nested + "}"])).encode()
    else:
        return draw(st.sampled_from([b"", b"{", b'{"a": 1,}', b"\xff\xfe{}", b"{} {}"]))
    return json.dumps(header).encode()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_any_bad_header_is_a_value_error_naming_the_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        files = write_files(tmp)
        path, read = data.draw(st.sampled_from(sorted(files.items())))
        raw = path.read_bytes()
        _, _, length = binio.PREFIX.unpack_from(raw)
        header = json.loads(raw[binio.PREFIX.size:binio.PREFIX.size + length])
        path.write_bytes(with_header(raw, data.draw(bad_headers(header, path.name))))
        rejected(read, path)


# ---------------------------------------------------------------------------
# Only binio frames binary files
# ---------------------------------------------------------------------------

def _framing_calls(tree: ast.AST) -> list[str]:
    """Imports of struct, and numpy's own file readers and writers, in tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "struct"]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] if node.module.split(".")[0] == "struct" else []
            if node.module.split(".")[0] == "numpy":
                names = [alias.name for alias in node.names if _is_numpy_io(alias.name)]
            found += names
        elif isinstance(node, ast.Attribute):
            numpy = isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
            if node.attr == "tofile" or (numpy and _is_numpy_io(node.attr)):
                found.append(node.attr)
    return found


def _is_numpy_io(name: str) -> bool:
    return name in ("load", "fromfile") or name.startswith("save")


def test_only_binio_frames_binary_files():
    sources = sorted((ROOT / "src" / "posestream").glob("*.py"))
    assert ROOT / "src" / "posestream" / "binio.py" in sources
    bypasses = {
        path.name: calls for path in sources if path.name != "binio.py"
        if (calls := _framing_calls(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert not bypasses, f"binary files framed outside binio: {bypasses}"


def test_the_framing_guard_sees_every_bypass():
    tree = ast.parse("import struct\nfrom struct import pack\nfrom numpy import savez, zeros\n"
                     "np.load(f)\nnumpy.save(f, a)\nnp.fromfile(f)\na.tofile(f)\n"
                     "np.zeros(3)\nnp.loadtxt\nreader.load(f)\n")
    assert sorted(_framing_calls(tree)) == ["fromfile", "load", "save", "savez", "struct",
                                            "struct", "tofile"]
