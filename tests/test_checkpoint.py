"""SIGC checkpoint format round-trips and compatibility checks."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from signl import checkpoint as ckpt


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
    @given(st.dictionaries(
        st.text(max_size=12),
        hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                   elements=st.floats(width=32)),
        max_size=5))
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


    @pytest.mark.parametrize("shape", [(2**31, 2**31), (2**16,) * 4])
    def test_header_sizes_beyond_the_file_are_truncation(self, tmp_path, shape):
        # (2**16)**4 floats wrap to 0 in int64; neither shape may be allocated or read
        path = tmp_path / "huge.sigc"
        path.write_bytes(ckpt.SIGC_MAGIC + struct.pack("<HIH", ckpt.SIGC_VERSION, 1, 1) + b"w"
                         + struct.pack(f"<B{len(shape)}I", len(shape), *shape) + bytes(16))
        with pytest.raises(ckpt.CheckpointError, match="truncated payload of 'w'"):
            ckpt.load_arrays(path)


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
