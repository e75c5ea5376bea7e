"""Feature I/O, manifests, the synthetic corpus, and the limited-label sampler."""

import hashlib
import itertools
import json
import math
import os
import re
import shutil
import struct
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import byte_edits
from signl import featio, forking, train


def _fromfile_reader(path):
    """The buffered ``np.fromfile`` SIGF reader that ``read_feature`` replaced."""
    with open(path, "rb") as fh:
        header = fh.read(14)
        if len(header) < 14:
            raise featio.FormatError(f"{path}: truncated header")
        magic, version, f, t = struct.unpack("<4sHII", header)
        if magic != b"SIGF":
            raise featio.FormatError(f"{path}: bad magic {magic!r}")
        if version != 1:
            raise featio.FormatError(f"{path}: unsupported version {version}")
        extra = os.fstat(fh.fileno()).st_size - 14 - 4 * f * t
        if extra < 0:
            raise featio.FormatError(f"{path}: truncated payload")
        if extra:
            raise featio.FormatError(f"{path}: {extra} bytes after the payload")
        values = np.fromfile(fh, "<f4", count=f * t)
    values.shape = (f, t)
    if not np.isfinite(values).all():
        raise featio.FormatError(f"{path}: non-finite values")
    return values


@st.composite
def sigf_edits(draw):
    """A SIGF file's bytes, unchanged or with one header or payload mutation."""
    kind = draw(st.sampled_from(["none", "truncate", "append", "flip", "magic", "version"]))
    where = draw(st.floats(0, 1, exclude_max=True))
    tail = draw(st.binary(min_size=1, max_size=8))
    mask = draw(st.integers(1, 255))
    magic = draw(st.one_of(st.just(b"SIGF"), st.binary(min_size=4, max_size=4)))
    version = draw(st.one_of(st.just(1), st.integers(0, 2**16 - 1)))

    def edit(raw):
        i = int(where * len(raw))
        if kind == "truncate":
            return raw[:i]
        if kind == "append":
            return raw + tail
        if kind == "flip":
            return raw[:i] + bytes([raw[i] ^ mask]) + raw[i + 1:]
        if kind == "magic":
            return magic + raw[4:]
        if kind == "version":
            return raw[:4] + struct.pack("<H", version) + raw[6:]
        return raw
    return edit


class _ShortReadv:
    """An ``os.readv`` that fills at most 8 bytes of its first buffer, as a read past
    ~2 GiB stops short.

    ``limit`` caps the bytes that all calls return together, as if the file
    shrank after its size was checked."""

    def __init__(self, limit=None):
        self.limit, self.calls = limit, 0

    def __call__(self, fd, buffers):
        self.calls += 1
        want = 8 if self.limit is None else min(8, self.limit)
        got = _READV(fd, [memoryview(buffers[0]).cast("B")[:want]])
        if self.limit is not None:
            self.limit -= got
        return got


_READV = os.readv


class TestFeatureIO:
    def test_roundtrip_bit_exact(self, tmp_path, rng):
        values = rng.standard_normal((4, 4)).astype(np.float32)
        path = tmp_path / "clip.sigf"
        featio.write_feature(values, path)
        back = featio.read_feature(path)
        assert np.array_equal(back, values)
        assert back.dtype == np.float32

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                                                   max_side=9),
                      elements=st.floats(width=32, allow_nan=False, allow_infinity=False)))
    def test_any_finite_matrix_round_trips_bit_exact(self, values):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "clip.sigf"
            featio.write_feature(values, path)
            back = featio.read_feature(path)
        assert back.shape == values.shape
        assert back.tobytes() == values.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sigf"
        path.write_bytes(b"XXXX" + b"\x00" * 10)
        with pytest.raises(featio.FormatError):
            featio.read_feature(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "short.sigf"
        header = struct.pack("<4sHII", b"SIGF", 1, 4, 4)
        path.write_bytes(header + b"\x00" * 8)  # 2 of 16 values
        with pytest.raises(featio.FormatError):
            featio.read_feature(path)

    def test_header_sizes_beyond_the_file_are_truncation(self, tmp_path):
        path = tmp_path / "huge.sigf"
        header = struct.pack("<4sHII", b"SIGF", 1, 2**32 - 1, 2**32 - 1)
        path.write_bytes(header + b"\x00" * 16)
        with pytest.raises(featio.FormatError, match="truncated payload"):
            featio.read_feature(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "long.sigf"
        featio.write_feature(np.zeros((2, 3)), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(featio.FormatError, match="1 bytes after the payload"):
            featio.read_feature(path)

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                                   max_side=4),
                      elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
           byte_edits())
    def test_any_edit_reads_back_as_written_or_raises_format_error(self, values, edit):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "clip.sigf"
            featio.write_feature(values, path)
            assert featio.read_feature(path).tobytes() == values.tobytes()
            edited = edit(path.read_bytes())
            path.write_bytes(edited)
            try:
                back = featio.read_feature(path)
            except featio.FormatError:
                return
            featio.write_feature(back, path)  # only what the writer would write reads back
            assert path.read_bytes() == edited

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0,
                                                   max_side=5),
                      elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
           sigf_edits())
    def test_reads_and_rejects_what_the_fromfile_reader_did(self, values, edit):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "clip.sigf"
            featio.write_feature(values, path)
            path.write_bytes(edit(path.read_bytes()))
            outcomes = []
            for reader in (featio.read_feature, _fromfile_reader):
                try:
                    back = reader(path)
                except featio.FormatError as exc:
                    outcomes.append(("FormatError", str(exc)))
                else:
                    outcomes.append((back.dtype.str, back.shape, back.tobytes()))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("shape", [(3, 5), (1, 1), (0, 4), (4, 0)])
    def test_result_is_a_writable_contiguous_float32_matrix(self, tmp_path, rng, shape):
        path = tmp_path / "clip.sigf"
        featio.write_feature(rng.standard_normal(shape), path)
        back = featio.read_feature(path)
        assert back.shape == shape
        assert back.dtype == np.dtype("<f4")
        assert back.flags.writeable and back.flags.c_contiguous and back.flags.owndata

    def test_missing_file_names_the_path(self, tmp_path):
        path = tmp_path / "absent.sigf"
        with pytest.raises(FileNotFoundError, match=re.escape(str(path))) as info:
            featio.read_feature(path)
        assert info.value.filename == str(path)

    def test_directory_names_the_path(self, tmp_path):
        with pytest.raises(IsADirectoryError, match=re.escape(str(tmp_path))) as info:
            featio.read_feature(tmp_path)
        assert info.value.filename == str(tmp_path)

    def test_short_reads_are_resumed(self, tmp_path, rng, monkeypatch):
        values = rng.standard_normal((3, 7)).astype(np.float32)
        path = tmp_path / "clip.sigf"
        path.write_bytes(struct.pack("<4sHII", b"SIGF", 1, 3, 7) + values.tobytes())
        readv = _ShortReadv()
        monkeypatch.setattr(os, "readv", readv)
        assert featio.read_feature(path).tobytes() == values.tobytes()
        assert readv.calls == 13  # 14 header bytes in 2 reads, 84 payload bytes in 11

    def test_file_shrinking_after_the_size_check_is_truncation(self, tmp_path, monkeypatch):
        path = tmp_path / "clip.sigf"
        featio.write_feature(np.ones((2, 4)), path)
        monkeypatch.setattr(os, "readv", _ShortReadv(limit=14 + 12))  # 3 of 8 values
        with pytest.raises(featio.FormatError, match="clip.sigf: truncated payload"):
            featio.read_feature(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.sigf"
        path.write_bytes(struct.pack("<4sHII", b"SIGF", 9, 1, 1) + b"\x00" * 4)
        with pytest.raises(featio.FormatError):
            featio.read_feature(path)

    def test_file_size_arithmetic(self, tmp_path):
        values = np.zeros((1024, 224), dtype=np.float32)
        path = tmp_path / "big.sigf"
        featio.write_feature(values, path)
        assert path.stat().st_size == 14 + 1024 * 224 * 4

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "inf.sigf"
        with pytest.raises(featio.FormatError):
            featio.write_feature(np.array([[np.inf]]), path)
        assert not path.exists()

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "nan.sigf"
        header = struct.pack("<4sHII", b"SIGF", 1, 1, 2)
        path.write_bytes(header + np.array([0.0, np.nan], dtype="<f4").tobytes())
        with pytest.raises(featio.FormatError, match="non-finite"):
            featio.read_feature(path)

    def test_non_2d_rejected(self, tmp_path):
        path = tmp_path / "flat.sigf"
        with pytest.raises(featio.FormatError, match="2-D"):
            featio.write_feature(np.zeros(4), path)
        assert not path.exists()


def _write_chunk(root, values):
    """Write each F x T matrix of ``values`` as clip<i>.sigf; the (clip_id, path) items."""
    items = []
    for i, matrix in enumerate(values):
        featio.write_feature(matrix, Path(root) / f"clip{i}.sigf")
        items.append((f"clip{i}", f"clip{i}.sigf"))
    return items


def _per_clip_loader(items, data_dir, shape):
    """Per-clip reading as before chunk arrays: each file whole, its finiteness and
    then its shape checked before the next file is opened; the rows stacked."""
    rows = []
    for clip_id, rel in items:
        path = os.path.join(data_dir, rel)
        values = _fromfile_reader(path)
        if values.shape != shape:
            raise featio.ConfigError(f"corpus clips such as {clip_id!r} are {values.shape}, "
                                     f"but (data.f, data.t) is {shape}: {path}")
        rows.append(values)
    return np.stack(rows)


def _outcome(load, items, data_dir, shape):
    """The loaded bytes, or the class and message of the error raised."""
    try:
        mats = load(items, data_dir, shape)
    except (featio.FormatError, featio.ConfigError, OSError) as exc:
        return type(exc), str(exc)
    return mats.dtype.str, mats.shape, mats.tobytes()


def _spoil(path, kind):
    """Make one clip file bad in one way."""
    f, t = 3, 4
    if kind == "nan":
        values = np.ones((f, t), "<f4")
        values[1, 2] = np.nan
        path.write_bytes(struct.pack("<4sHII", b"SIGF", 1, f, t) + values.tobytes())
    elif kind == "truncated":
        path.write_bytes(path.read_bytes()[:-4])
    elif kind == "magic":
        path.write_bytes(b"SIGX" + path.read_bytes()[4:])
    elif kind == "shape":
        featio.write_feature(np.zeros((f, t + 1)), path)
    elif kind == "missing":
        path.unlink()
    elif kind == "directory":
        path.unlink()
        path.mkdir()


class TestChunkReader:
    """``train.load_features`` reads a chunk of clips into one (B, F, T) array and
    accepts and rejects exactly what reading the clips one by one did."""

    SHAPE = (3, 4)

    @pytest.fixture
    def chunk(self, tmp_path, rng):
        values = rng.standard_normal((5, *self.SHAPE)).astype(np.float32)
        return tmp_path, _write_chunk(tmp_path, values), values

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float32, st.tuples(st.integers(1, 4), st.integers(0, 4),
                                            st.integers(0, 4)),
                      elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
           st.integers(0, 3), sigf_edits())
    def test_one_edited_member_reads_or_fails_as_per_clip_reading(self, values, member, edit):
        member %= len(values)
        shape = values.shape[1:]
        with tempfile.TemporaryDirectory() as tmp:
            items = _write_chunk(tmp, values)
            path = os.path.join(tmp, items[member][1])
            with open(path, "r+b") as fh:
                edited = edit(fh.read())
                fh.seek(0)
                fh.truncate()
                fh.write(edited)
            got = _outcome(train.load_features, items, tmp, shape)
            want = _outcome(_per_clip_loader, items, tmp, shape)
        assert got == want
        if len(got) == 2:  # an error, naming the edited member's file
            assert path in got[1]

    @pytest.mark.parametrize("first, second", itertools.permutations(
        ["nan", "truncated", "magic", "shape", "missing", "directory"], 2))
    def test_first_bad_clip_in_item_order_is_named(self, chunk, first, second):
        root, items, _ = chunk
        _spoil(root / items[1][1], first)
        _spoil(root / items[3][1], second)
        got = _outcome(train.load_features, items, str(root), self.SHAPE)
        assert got == _outcome(_per_clip_loader, items, str(root), self.SHAPE)
        assert str(root / items[1][1]) in got[1]

    @pytest.mark.parametrize("bad", [(0,), (2,), (4,), (1, 3), (3, 4)])
    def test_first_non_finite_clip_is_named(self, chunk, bad):
        root, items, _ = chunk
        for i in bad:
            _spoil(root / items[i][1], "nan")
        with pytest.raises(featio.FormatError) as info:
            train.load_features(items, root, self.SHAPE)
        assert str(info.value) == f"{root / items[bad[0]][1]}: non-finite values"

    @pytest.mark.parametrize("kind, error", [("missing", FileNotFoundError),
                                             ("directory", IsADirectoryError)])
    def test_unreadable_file_in_mid_chunk_names_its_path(self, chunk, kind, error):
        root, items, _ = chunk
        _spoil(root / items[2][1], kind)
        with pytest.raises(error) as info:
            train.load_features(items, root, self.SHAPE)
        assert info.value.filename == str(root / items[2][1])

    def test_clip_of_another_shape_names_its_clip_id(self, chunk):
        root, items, _ = chunk
        _spoil(root / items[4][1], "shape")
        path = root / items[4][1]
        with pytest.raises(featio.ConfigError) as info:
            train.load_features(items, root, self.SHAPE)
        assert str(info.value) == ("corpus clips such as 'clip4' are (3, 5), "
                                   f"but (data.f, data.t) is (3, 4): {path}")

    def test_rows_are_the_files_read_once_each(self, chunk, monkeypatch):
        root, items, values = chunk
        calls = []

        def counted(path, out=None):
            calls.append(path)
            return featio.read_feature(path, out)

        monkeypatch.setattr(train, "read_feature", counted)
        mats = train.load_features(items, root, self.SHAPE)
        assert mats.dtype == np.float32 and mats.flags.c_contiguous
        assert mats.tobytes() == values.tobytes()
        assert calls == [os.path.join(root, rel) for _, rel in items]

    def test_short_reads_are_resumed(self, chunk, monkeypatch):
        root, items, values = chunk
        readv = _ShortReadv()
        monkeypatch.setattr(os, "readv", readv)
        assert train.load_features(items, root, self.SHAPE).tobytes() == values.tobytes()
        assert readv.calls == 5 * 8  # per clip: 14 header bytes in 2 reads, 48 payload in 6

    def test_row_of_the_files_shape_is_filled_and_left_unchecked(self, tmp_path):
        path = tmp_path / "nan.sigf"
        _spoil(path, "nan")
        chunk = np.zeros((2, *self.SHAPE), np.float32)
        row = chunk[1]
        assert featio.read_feature(path, row) is row
        assert np.isnan(chunk[1, 1, 2]) and not chunk[0].any()
        with pytest.raises(featio.FormatError, match="non-finite values"):
            featio.read_feature(path)

    def test_file_of_another_shape_is_read_whole(self, tmp_path, rng):
        values = rng.standard_normal((3, 5)).astype(np.float32)
        path = tmp_path / "wide.sigf"
        featio.write_feature(values, path)
        row = np.zeros(self.SHAPE, np.float32)
        back = featio.read_feature(path, row)
        assert back.shape == (3, 5) and back.tobytes() == values.tobytes()
        assert not np.shares_memory(back, row)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        entries = [featio.ManifestEntry("a.sigf", "bonafide", "-", "train"),
                   featio.ManifestEntry("b.sigf", "fake", "A01", "eval")]
        path = tmp_path / "m.jsonl"
        featio.write_manifest(entries, path)
        assert featio.read_manifest(path) == entries

    @pytest.mark.parametrize("previous", [True, False], ids=["over_a_manifest", "none"])
    def test_failed_write_leaves_the_previous_manifest(self, tmp_path, previous):
        entries = [featio.ManifestEntry("a.sigf", "bonafide", "-", "train"),
                   featio.ManifestEntry("b.sigf", "fake", "A01", "eval")]
        path = tmp_path / "m.jsonl"
        if previous:
            featio.write_manifest(entries, path)
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())

        def cut_short():  # a write that fails after its first line
            yield entries[0]
            raise OSError(28, "No space left on device")

        with pytest.raises(OSError, match="No space left"):
            featio.write_manifest(cut_short(), path)
        assert sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir()) == before

    def test_clip_id_is_derived_not_written(self, tmp_path):
        entries = [featio.ManifestEntry("dir/a.sigf", "bonafide", "-", "train"),
                   featio.ManifestEntry("b.sigf", "fake", "A01", "eval")]
        path = tmp_path / "m.jsonl"
        featio.write_manifest(entries, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert [set(r) for r in rows] == [{"path", "label", "attack_id", "split"}] * 2
        back = featio.read_manifest(path)
        assert back == entries
        assert [e.clip_id for e in back] == ["a", "b"]

    def test_label_attack_consistency(self):
        with pytest.raises(featio.FormatError):
            featio.ManifestEntry("a.sigf", "bonafide", "A00", "train")
        with pytest.raises(featio.FormatError):
            featio.ManifestEntry("a.sigf", "fake", "-", "train")

    @pytest.mark.parametrize("field, value, message", [
        ("path", "", "path '' is not a relative path inside the corpus"),
        ("path", "/etc/x.sigf", "path '/etc/x.sigf' is not a relative path inside the corpus"),
        ("path", "../x.sigf", "path '../x.sigf' is not a relative path inside the corpus"),
        ("path", "a/../../x.sigf",
         "path 'a/../../x.sigf' is not a relative path inside the corpus"),
        ("path", "a\0.sigf", "path 'a\\x00.sigf' holds a NUL character"),
        ("path", 5, "path must be a string, not 5"),
        ("attack_id", 5, "attack_id must be a string, not 5"),
        ("attack_id", None, "attack_id must be a string, not None"),
    ])
    def test_bad_path_or_attack_id_rejected_with_location(self, tmp_path, field, value,
                                                           message):
        row = {"path": "a.sigf", "label": "fake", "attack_id": "A00", "split": "train"}
        row[field] = value
        path = tmp_path / "m.jsonl"
        path.write_text('{"path": "b.sigf", "label": "bonafide", "attack_id": "-", '
                        '"split": "train"}\n' + json.dumps(row) + "\n")
        with pytest.raises(featio.FormatError, match=re.escape(f"m.jsonl:2: {message}")):
            featio.read_manifest(path)

    def test_path_inside_a_subdirectory_accepted(self):
        assert featio.ManifestEntry("a/b/x.sigf", "bonafide", "-", "train").clip_id == "x"

    def test_duplicate_clip_id_rejected_naming_both_lines(self, tmp_path):
        # clip_id is the path stem, so a/x.sigf and b/x.sigf would share features
        entries = [featio.ManifestEntry("a/x.sigf", "bonafide", "-", "train"),
                   featio.ManifestEntry("y.sigf", "fake", "A01", "train"),
                   featio.ManifestEntry("b/x.sigf", "fake", "A01", "eval")]
        path = tmp_path / "m.jsonl"
        featio.write_manifest(entries, path)
        with pytest.raises(featio.FormatError,
                           match=r"m\.jsonl:3: clip id 'x' of 'b/x\.sigf' duplicates line 1 "
                                 r"\('a/x\.sigf'\)"):
            featio.read_manifest(path)

    def test_bad_line_reported_with_location(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"path": "a.sigf"}\n')
        with pytest.raises(featio.FormatError, match="m.jsonl:1"):
            featio.read_manifest(path)

    def test_non_utf8_byte_rejected_with_location(self, tmp_path):
        path = tmp_path / "m.jsonl"
        featio.write_manifest([featio.ManifestEntry("a.sigf", "bonafide", "-", "train")], path)
        path.write_bytes(path.read_bytes() + b'{"path": "b\xff.sigf"}\n')
        with pytest.raises(featio.FormatError, match=r"m\.jsonl:2: .*utf-8"):
            featio.read_manifest(path)

    def test_repeated_key_rejected_with_location(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"path": "a.sigf", "label": "bonafide", "attack_id": "-", '
                        '"split": "train", "path": "b.sigf"}\n')
        with pytest.raises(featio.FormatError, match=r"m\.jsonl:1: repeated key"):
            featio.read_manifest(path)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.text(st.characters(blacklist_characters="/.\x00"), min_size=1,
                                      max_size=6),
                              st.sampled_from(featio.SPLITS),
                              st.one_of(st.just("-"), st.text(min_size=1, max_size=4))),
                    max_size=4, unique_by=lambda row: row[0]),
           byte_edits())
    def test_any_edit_reads_back_as_written_or_raises_format_error(self, rows, edit):
        entries = [featio.ManifestEntry(f"{stem}.sigf", "bonafide" if attack == "-" else "fake",
                                        attack, split)
                   for stem, split, attack in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.jsonl"
            featio.write_manifest(entries, path)
            assert featio.read_manifest(path) == entries
            path.write_bytes(edit(path.read_bytes()))
            try:
                back = featio.read_manifest(path)
            except featio.FormatError:
                return
            featio.write_manifest(back, path)  # what was read is what the writer writes
            assert featio.read_manifest(path) == back


class TestSynthCorpus:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = featio.SynthConfig(F=16, T=16,
                                 n_per_split={"train": 6, "dev": 2, "eval": 4}, seed=3)
        featio.gen_synthetic(cfg, tmp_path / "a")
        featio.gen_synthetic(cfg, tmp_path / "b")
        for f in sorted((tmp_path / "a").iterdir()):
            assert f.read_bytes() == (tmp_path / "b" / f.name).read_bytes()

    def test_corpus_bytes_pinned(self, tmp_path, force_processes):
        """The name and bytes of every file, manifest included, hash as they did when
        each clip was computed and written on its own, whether a forked writer or
        this process writes them; 31 frames make rows odd."""
        cfg = featio.SynthConfig(F=32, T=31, n_per_split={"train": 40, "dev": 10, "eval": 33},
                                 n_attack_types=4, artifact_strength=1.5, seed=3)
        for processes in (1, 2):
            force_processes(processes)
            out = tmp_path / str(processes)
            featio.gen_synthetic(cfg, out)
            digest = hashlib.sha256()
            for path in sorted(out.iterdir()):
                digest.update(path.name.encode())
                digest.update(path.read_bytes())
            assert len(list(out.iterdir())) == 84
            assert digest.hexdigest() == \
                "635a9bbb657f06237bdd3fffed8d3a7c702855b1c5e4d738d06d95ee09f8550f"

    def test_zero_strength_degenerates_to_bona_fide(self, tmp_path):
        cfg = featio.SynthConfig(F=32, T=32,
                                 n_per_split={"train": 60, "dev": 0, "eval": 0},
                                 artifact_strength=0.0, seed=5)
        entries = featio.gen_synthetic(cfg, tmp_path)
        bona, fake = [], []
        for e in entries:
            m = featio.read_feature(tmp_path / e.path)
            (bona if e.label == "bonafide" else fake).append(float(m.mean()))
        # two-sample mean test: difference within 3 combined standard errors
        se = math.hypot(np.std(bona) / math.sqrt(len(bona)),
                        np.std(fake) / math.sqrt(len(fake)))
        assert abs(np.mean(bona) - np.mean(fake)) < 3 * se

    def test_split_sizes_and_label_ratio(self, tiny_corpus):
        _, entries = tiny_corpus
        by_split = {s: [e for e in entries if e.split == s]
                    for s in ("train", "dev", "eval")}
        assert [len(by_split[s]) for s in ("train", "dev", "eval")] == [40, 10, 20]
        for rows in by_split.values():
            n_bona = sum(e.label == "bonafide" for e in rows)
            assert n_bona == len(rows) // 2

    def test_attacks_round_robin(self, tiny_corpus):
        _, entries = tiny_corpus
        attack_ids = {e.attack_id for e in entries if e.label == "fake"}
        assert attack_ids == {"A00", "A01", "A02"}

    def test_corpus_separable_by_band_variance(self, tiny_corpus):
        """Variance of the frequency-axis difference, per band, splits the classes."""
        root, entries = tiny_corpus

        def stat(values):
            d = np.diff(values, axis=0)
            return max(float(np.var(b)) for b in np.array_split(d, 8, axis=0))

        vals = np.array([stat(featio.read_feature(root / e.path))
                         for e in entries])
        labs = np.array([e.label == "bonafide" for e in entries])
        best = max(float(np.mean((vals < t) == labs)) for t in np.unique(vals))
        assert best > 0.9

    def test_invalid_config(self):
        with pytest.raises(featio.ConfigError):
            featio.SynthConfig(F=0).validate()
        with pytest.raises(featio.ConfigError):
            featio.SynthConfig(artifact_strength=-1.0).validate()
        with pytest.raises(featio.ConfigError):
            featio.SynthConfig(n_per_split={"train": 4}).validate()

    @settings(max_examples=200, deadline=None)
    @given(f=st.integers(1, 8), t=st.integers(1, 11), attack_types=st.integers(1, 4),
           sizes=st.lists(st.integers(0, 6), min_size=3, max_size=3))
    def test_narrow_clips_rejected_before_any_file_or_generated(self, f, t, attack_types,
                                                                sizes):
        cfg = featio.SynthConfig(F=f, T=t, n_per_split=dict(zip(featio.SPLITS, sizes)),
                                 n_attack_types=attack_types)
        with tempfile.TemporaryDirectory() as scratch:
            out = Path(scratch) / "corpus"
            try:
                entries = featio.gen_synthetic(cfg, out)
            except featio.ConfigError:
                assert not out.exists()
            else:
                assert len(entries) == sum(sizes)

    @pytest.mark.parametrize("f, t, attack_types", [(2, 4, 2), (2, 8, 3)])
    def test_narrowest_accepted_clips(self, tmp_path, f, t, attack_types):
        sizes = {"train": 6, "dev": 2, "eval": 0}
        entries = featio.gen_synthetic(featio.SynthConfig(F=f, T=t, n_per_split=sizes,
                                                          n_attack_types=attack_types),
                                       tmp_path)
        assert {e.attack_id for e in entries} == {"-", *(f"A{i:02d}" for i in range(attack_types))}


class TestWriterThread:
    """``gen_synthetic`` creates files in one writer: a forked child when the probe
    holds, this process otherwise.  By the time it returns or raises no child is
    left and this process runs the OS threads it ran before, as the probe counts
    them.  Each test runs both paths."""

    CFG = featio.SynthConfig(F=8, T=8, n_per_split={"train": 70, "dev": 0, "eval": 0}, seed=4)

    @pytest.fixture(autouse=True)
    def warm_up_fork(self):
        """Fork one child that does nothing before the test takes its "before" list:
        under a threaded BLAS, OpenBLAS ends its worker thread at a process's first
        fork, which would otherwise end a thread that was there before the call."""
        with forking.Child("warm-up", lambda conn: None):
            pass

    @pytest.fixture
    def writers(self, monkeypatch, tmp_path):
        """The pids of the processes that wrote a block of clips since the last call."""
        log, write_block = tmp_path / "writers.log", featio._write_block

        def record(values, paths):
            with open(log, "a") as fh:  # a forked writer's pid reaches this process
                fh.write(f"{os.getpid()}\n")
            write_block(values, paths)
        monkeypatch.setattr(featio, "_write_block", record)

        def pids():
            found = set(map(int, log.read_text().split())) if log.exists() else set()
            log.unlink(missing_ok=True)
            return found
        return pids

    @staticmethod
    def _threads():
        """This process's threads, and whether it has a child, live or zombie."""
        try:
            os.waitpid(-1, os.WNOHANG)
            child = True
        except ChildProcessError:
            child = False
        return threading.active_count(), sorted(os.listdir("/proc/self/task")), child

    def test_no_thread_left_after_return(self, tmp_path, writers, force_processes):
        for processes in (1, 2):
            force_processes(processes)
            before = self._threads()
            featio.gen_synthetic(self.CFG, tmp_path / str(processes))
            assert self._threads() == before
            pids = writers()
            assert len(pids) == 1 and (os.getpid() in pids) == (processes == 1)

    def test_clean_writer_session_exits_0(self, tmp_path, force_processes, child_exits):
        # the writer returns once this process closes the pipe, with no one left to
        # take its result
        force_processes(2)
        featio.gen_synthetic(self.CFG, tmp_path)
        assert child_exits == [("corpus writer", 0)]

    def test_directory_at_a_later_clip_raises_with_no_thread_left(self, tmp_path, writers,
                                                                  force_processes):
        for processes in (1, 2):
            out = tmp_path / str(processes)
            (out / "train_00040.sigf").mkdir(parents=True)  # in the second block of 32
            force_processes(processes)
            before = self._threads()
            with pytest.raises(IsADirectoryError, match="train_00040.sigf"):
                featio.gen_synthetic(self.CFG, out)
            assert self._threads() == before
            assert len(writers()) == 1
            assert sorted(p.name for p in out.iterdir()) == \
                [f"train_{i:05d}.sigf" for i in range(41)]  # 40 clips and the directory

    def test_interrupt_while_computing_leaves_no_thread(self, tmp_path, monkeypatch, writers,
                                                        force_processes):
        plant = featio._plant_artifact
        for processes in (1, 2):
            planted = []

            def interrupted(*args):
                planted.append(args[1])
                if len(planted) == 31:  # clip 65, in the third block
                    raise KeyboardInterrupt
                plant(*args)
            monkeypatch.setattr(featio, "_plant_artifact", interrupted)
            out = tmp_path / str(processes)
            force_processes(processes)
            before = self._threads()
            with pytest.raises(KeyboardInterrupt):
                featio.gen_synthetic(self.CFG, out)
            assert self._threads() == before
            assert len(writers()) == 1  # the first block was written
            assert {f"train_{i:05d}.sigf" for i in range(32)} <= {p.name for p in out.iterdir()}
            assert not (out / "manifest.jsonl").exists()

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast:RuntimeWarning")
    def test_non_finite_clip_raises_as_write_feature_after_the_clips_before_it(
            self, tmp_path, force_processes):
        cfg = featio.SynthConfig(F=8, T=8, n_per_split={"train": 6, "dev": 0, "eval": 0},
                                 artifact_strength=1e39)  # float32 overflow in every fake
        for processes in (1, 2):
            force_processes(processes)
            out = tmp_path / str(processes)
            with pytest.raises(featio.FormatError, match="non-finite values"):
                featio.gen_synthetic(cfg, out)
            assert sorted(p.name for p in out.iterdir()) == \
                ["train_00000.sigf", "train_00001.sigf", "train_00002.sigf"]


class TestLimitedLabels:
    def _manifest(self, n_bona, n_fake, n_attacks=2, split="train"):
        entries = []
        for i in range(n_bona):
            entries.append(featio.ManifestEntry(f"b{i}.sigf", "bonafide", "-", split))
        for i in range(n_fake):
            entries.append(featio.ManifestEntry(
                f"f{i}.sigf", "fake", f"A{i % n_attacks:02d}", split))
        return entries

    def test_identity_at_p_one(self):
        entries = self._manifest(10, 10)
        assert sorted(e.path for e in featio.sample_limited_labels(entries, 1.0, 0)) \
            == sorted(e.path for e in entries)

    def test_ceiling_arithmetic(self):
        entries = self._manifest(1000, 2000, n_attacks=1)
        subset = featio.sample_limited_labels(entries, 0.05, 0)
        assert sum(e.label == "bonafide" for e in subset) == 50
        assert sum(e.label == "fake" for e in subset) == 100

    def test_eval_untouched(self):
        entries = self._manifest(10, 10) + self._manifest(6, 6, split="eval")
        subset = featio.sample_limited_labels(entries, 0.1, 0)
        assert sum(e.split == "eval" for e in subset) == 12

    def test_nonempty_stratum_keeps_at_least_one(self):
        entries = self._manifest(1, 1)
        subset = featio.sample_limited_labels(entries, 0.01, 0)
        assert sum(e.label == "bonafide" for e in subset) == 1
        assert sum(e.label == "fake" for e in subset) == 1

    def test_deterministic_in_seed(self):
        entries = self._manifest(50, 50)
        a = featio.sample_limited_labels(entries, 0.2, 9)
        b = featio.sample_limited_labels(entries, 0.2, 9)
        assert [e.path for e in a] == [e.path for e in b]

    def test_proportions_within_one(self):
        entries = self._manifest(40, 60, n_attacks=3)
        subset = featio.sample_limited_labels(entries, 0.25, 1)
        for attack, total in (("A00", 20), ("A01", 20), ("A02", 20)):
            got = sum(e.attack_id == attack for e in subset)
            assert abs(got - math.ceil(0.25 * total)) <= 1

    def test_invalid_fraction(self):
        with pytest.raises(featio.ConfigError):
            featio.sample_limited_labels([], 0.0, 0)
