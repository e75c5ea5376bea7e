"""SIGC checkpoint format round-trips and compatibility checks."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import byte_edits
from signl import checkpoint as ckpt


def _sigc(*entries, count=None):
    """Raw SIGC bytes of (name bytes, 1-D float32 payload) entries."""
    raw = ckpt.SIGC_MAGIC + struct.pack("<HI", ckpt.SIGC_VERSION,
                                        len(entries) if count is None else count)
    for name, values in entries:
        values = np.asarray(values, dtype="<f4")
        raw += struct.pack("<H", len(name)) + name + struct.pack("<BI", 1, values.size)
        raw += values.tobytes()
    return raw


_ARRAY_DICTS = st.dictionaries(
    st.text(max_size=12),
    hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
               elements=st.floats(width=32, allow_nan=False, allow_infinity=False)),
    max_size=5)


def _arrays(rng):
    return {"enc_t.layer0.theta": rng.standard_normal((4, 4)).astype(np.float32),
            "cls.l0.b": rng.standard_normal((1, 3)).astype(np.float32),
            "scalarish": rng.standard_normal(5).astype(np.float32)}


class TestRoundTrip:
    def test_bit_exact(self, tmp_path, rng):
        arrays = _arrays(rng)
        path = tmp_path / "m.sigc"
        ckpt.save_arrays(arrays, path)
        back = ckpt.load_arrays(path)
        assert list(back) == list(arrays)
        for name in arrays:
            assert np.array_equal(back[name], arrays[name])

    def test_save_load_save_identical_bytes(self, tmp_path, rng):
        arrays = _arrays(rng)
        a = tmp_path / "a.sigc"
        b = tmp_path / "b.sigc"
        ckpt.save_arrays(arrays, a)
        ckpt.save_arrays(ckpt.load_arrays(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_size_arithmetic(self, tmp_path, rng):
        arrays = {"w": rng.standard_normal((3, 2)).astype(np.float32)}
        path = tmp_path / "s.sigc"
        ckpt.save_arrays(arrays, path)
        # header 10 + (name len 2 + name 1 + rank 1 + dims 8 + payload 24)
        assert path.stat().st_size == 10 + 2 + 1 + 1 + 8 + 24

    @settings(max_examples=60, deadline=None)
    @given(_ARRAY_DICTS)
    def test_any_arrays_round_trip_bit_exact(self, arrays):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.sigc"
            ckpt.save_arrays(arrays, path)
            back = ckpt.load_arrays(path)
        assert list(back) == list(arrays)
        for name, arr in arrays.items():
            assert back[name].shape == arr.shape
            assert back[name].tobytes() == arr.tobytes(), name

    def test_failed_save_keeps_previous_file(self, tmp_path, rng):
        path = tmp_path / "m.sigc"
        ckpt.save_arrays(_arrays(rng), path)
        before = path.read_bytes()
        bad = {**_arrays(rng), "not_numeric": np.array(["x"])}  # raises after three entries
        with pytest.raises(ValueError):
            ckpt.save_arrays(bad, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]  # no temp file left behind

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.sigc"
        path.write_bytes(b"XXXX" + b"\x00" * 8)
        with pytest.raises(ckpt.CheckpointError):
            ckpt.load_arrays(path)

    def test_truncated_file(self, tmp_path, rng):
        path = tmp_path / "t.sigc"
        ckpt.save_arrays(_arrays(rng), path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(ckpt.CheckpointError):
            ckpt.load_arrays(path)

    def test_hand_built_file_loads(self, tmp_path):
        path = tmp_path / "m.sigc"
        path.write_bytes(_sigc((b"w", [2.0]), (b"b", [1.0, -1.0])))
        back = ckpt.load_arrays(path)
        assert list(back) == ["w", "b"] and back["b"].tolist() == [1.0, -1.0]

    def test_bytes_after_last_entry_rejected(self, tmp_path):
        path = tmp_path / "m.sigc"
        path.write_bytes(_sigc((b"w", [2.0])) + b"junk")
        with pytest.raises(ckpt.CheckpointError) as err:
            ckpt.load_arrays(path)
        assert str(err.value) == f"{path}: 4 bytes after the last entry"

    def test_repeated_name_rejected(self, tmp_path):
        path = tmp_path / "m.sigc"
        path.write_bytes(_sigc((b"w", [1.0]), (b"w", [2.0])))
        with pytest.raises(ckpt.CheckpointError) as err:
            ckpt.load_arrays(path)
        assert str(err.value) == f"{path}: entry 'w' appears twice"

    def test_non_utf8_name_rejected(self, tmp_path):
        path = tmp_path / "m.sigc"
        path.write_bytes(_sigc((b"\xff", [1.0])))
        with pytest.raises(ckpt.CheckpointError) as err:
            ckpt.load_arrays(path)
        assert str(err.value) == f"{path}: entry name is not UTF-8"

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        path = tmp_path / "m.sigc"
        path.write_bytes(_sigc((b"cls.l2.b", [0.5, bad])))
        with pytest.raises(ckpt.CheckpointError) as err:
            ckpt.load_arrays(path)
        assert str(err.value) == f"{path}: non-finite values in 'cls.l2.b'"

    def test_non_finite_array_not_saved(self, tmp_path, rng):
        path = tmp_path / "m.sigc"
        ckpt.save_arrays(_arrays(rng), path)
        before = path.read_bytes()
        with pytest.raises(ckpt.CheckpointError, match="non-finite values in 'b'"):
            ckpt.save_arrays({"a": np.zeros(2), "b": np.array([np.nan])}, path)
        assert path.read_bytes() == before

    def test_rank_beyond_numpy_rejected(self, tmp_path):
        path = tmp_path / "m.sigc"
        path.write_bytes(_sigc(count=1) + struct.pack("<H", 1) + b"w"
                         + struct.pack("<B", 65) + struct.pack("<65I", *[0] * 65))
        with pytest.raises(ckpt.CheckpointError, match="rank 65 of 'w' exceeds 64"):
            ckpt.load_arrays(path)

    @settings(max_examples=300, deadline=None)
    @given(_ARRAY_DICTS, byte_edits())
    def test_any_edit_reads_back_as_written_or_raises_checkpoint_error(self, arrays, edit):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.sigc"
            ckpt.save_arrays(arrays, path)
            back = ckpt.load_arrays(path)
            assert {k: (v.shape, v.tobytes()) for k, v in back.items()} == \
                {k: (v.shape, v.tobytes()) for k, v in arrays.items()}
            edited = edit(path.read_bytes())
            path.write_bytes(edited)
            try:
                back = ckpt.load_arrays(path)
            except ckpt.CheckpointError:
                return
            ckpt.save_arrays(back, path)  # only what the writer would write reads back
            assert path.read_bytes() == edited

    @pytest.mark.parametrize("shape", [(2**31, 2**31), (2**16,) * 4])
    def test_header_sizes_beyond_the_file_are_truncation(self, tmp_path, shape):
        # (2**16)**4 floats wrap to 0 in int64; neither shape may be allocated or read
        path = tmp_path / "huge.sigc"
        path.write_bytes(ckpt.SIGC_MAGIC + struct.pack("<HIH", ckpt.SIGC_VERSION, 1, 1) + b"w"
                         + struct.pack(f"<B{len(shape)}I", len(shape), *shape) + bytes(16))
        with pytest.raises(ckpt.CheckpointError, match="truncated payload of 'w'"):
            ckpt.load_arrays(path)

    @pytest.mark.parametrize("shape", [(0, 2**32 - 1, 2**32 - 1), (2**31, 0, 2**30)])
    def test_empty_array_numpy_cannot_make_is_rejected(self, tmp_path, shape):
        # numel is 0, so no payload is due, but 4 * 2**31 * 2**30 bytes is past intp
        path = tmp_path / "huge.sigc"
        path.write_bytes(ckpt.SIGC_MAGIC + struct.pack("<HIH", ckpt.SIGC_VERSION, 1, 1) + b"w"
                         + struct.pack("<B3I", 3, *shape))
        with pytest.raises(ckpt.CheckpointError,
                           match=rf"huge\.sigc: extents \({shape[0]}, .* of 'w' are too large"):
            ckpt.load_arrays(path)

    def test_empty_array_at_the_numpy_limit_reads_back(self, tmp_path):
        path = tmp_path / "m.sigc"
        path.write_bytes(ckpt.SIGC_MAGIC + struct.pack("<HIH", ckpt.SIGC_VERSION, 1, 1) + b"w"
                         + struct.pack("<B3I", 3, 2**31, 0, 2**30 - 1))
        assert ckpt.load_arrays(path)["w"].shape == (2**31, 0, 2**30 - 1)


class TestCompatibility:
    def test_matching_passes(self, rng):
        arrays = _arrays(rng)
        ckpt.check_compatible(arrays, {k: v.shape for k, v in arrays.items()})

    def test_wrong_shape_names_offender(self, rng):
        arrays = _arrays(rng)
        expected = {k: v.shape for k, v in arrays.items()}
        expected["enc_t.layer0.theta"] = (8, 8)
        with pytest.raises(ckpt.CheckpointError, match="enc_t.layer0.theta"):
            ckpt.check_compatible(arrays, expected)

    def test_missing_entry_names_offender(self, rng):
        arrays = _arrays(rng)
        expected = {k: v.shape for k, v in arrays.items()}
        expected["enc_s.layer9.theta"] = (2, 2)
        with pytest.raises(ckpt.CheckpointError, match="enc_s.layer9.theta"):
            ckpt.check_compatible(arrays, expected)
