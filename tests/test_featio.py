"""Feature I/O, manifests, the synthetic corpus, and the limited-label sampler."""

import io
import json
import math
import os
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import byte_edits
from signl import featio


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


class _ShortReads(io.FileIO):
    """A raw file whose ``readinto`` returns at most 8 bytes, as a read past ~2 GiB stops short.

    ``payload`` caps the bytes that all ``readinto`` calls return together, as
    if the file shrank after its size was checked."""

    def __init__(self, path, mode, payload=None):
        super().__init__(path, mode)
        self.payload, self.calls = payload, 0

    def readinto(self, b):
        self.calls += 1
        chunk = self.read(8 if self.payload is None else min(8, self.payload))
        if self.payload is not None:
            self.payload -= len(chunk)
        np.asarray(b).reshape(-1).view(np.uint8)[:len(chunk)] = np.frombuffer(chunk, np.uint8)
        return len(chunk)


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
        opened = []

        def short_open(p, mode, buffering):
            opened.append(_ShortReads(p, mode))
            return opened[-1]

        monkeypatch.setattr(featio, "open", short_open, raising=False)
        assert featio.read_feature(path).tobytes() == values.tobytes()
        assert opened[0].calls == 11  # 84 payload bytes, 8 per read

    def test_file_shrinking_after_the_size_check_is_truncation(self, tmp_path, monkeypatch):
        path = tmp_path / "clip.sigf"
        featio.write_feature(np.ones((2, 4)), path)
        monkeypatch.setattr(featio, "open", lambda p, mode, buffering:
                            _ShortReads(p, mode, payload=12), raising=False)  # 3 of 8 values
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


class TestManifest:
    def test_roundtrip(self, tmp_path):
        entries = [featio.ManifestEntry("a.sigf", "bonafide", "-", "train"),
                   featio.ManifestEntry("b.sigf", "fake", "A01", "eval")]
        path = tmp_path / "m.jsonl"
        featio.write_manifest(entries, path)
        assert featio.read_manifest(path) == entries

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
