"""Feature I/O, manifests, the synthetic corpus, and the limited-label sampler."""

import json
import math
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
    @given(st.lists(st.tuples(st.text(st.characters(blacklist_characters="/."), min_size=1,
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
