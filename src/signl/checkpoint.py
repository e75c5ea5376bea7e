"""SIGC checkpoint format.

Layout (little-endian): magic ``SIGC``, u16 version=1, u32 entry count,
then per entry: u16 name length + UTF-8 name, u8 rank, u32 per-dim
extents, finite float32 payload.  Names are distinct and the file ends with
its last entry; ``load_arrays`` rejects any file ``save_arrays`` cannot write.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError

SIGC_MAGIC = b"SIGC"
SIGC_VERSION = 1
MAX_RANK = 64  # numpy's limit on array dimensions


@contextlib.contextmanager
def replacing(path, mode="wb"):
    """A file, opened in ``mode`` on a sibling temp file that replaces ``path``
    only once the block completes, so a failed or interrupted write leaves the
    previous file, or none."""
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_arrays(arrays: dict, path):
    """Write name -> float array entries in the given order, replacing ``path``
    whole (see ``replacing``)."""
    with replacing(path) as fh:
        fh.write(SIGC_MAGIC)
        fh.write(struct.pack("<H", SIGC_VERSION))
        fh.write(struct.pack("<I", len(arrays)))
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype="<f4")
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: non-finite values in {name!r}")
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<H", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<B", arr.ndim))
            for extent in arr.shape:
                fh.write(struct.pack("<I", extent))
            fh.write(arr.tobytes())


def load_arrays(path) -> dict:
    def take(fh, n, what):
        buf = fh.read(n)
        if len(buf) != n:
            raise CheckpointError(f"{path}: truncated {what}")
        return buf

    arrays = {}
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if take(fh, 4, "magic") != SIGC_MAGIC:
            raise CheckpointError(f"{path}: bad magic")
        (version,) = struct.unpack("<H", take(fh, 2, "version"))
        if version != SIGC_VERSION:
            raise CheckpointError(f"{path}: unsupported version {version}")
        (count,) = struct.unpack("<I", take(fh, 4, "entry count"))
        for _ in range(count):
            (name_len,) = struct.unpack("<H", take(fh, 2, "name length"))
            try:
                name = take(fh, name_len, "name").decode("utf-8")
            except UnicodeDecodeError:
                raise CheckpointError(f"{path}: entry name is not UTF-8") from None
            if name in arrays:
                raise CheckpointError(f"{path}: entry {name!r} appears twice")
            (rank,) = struct.unpack("<B", take(fh, 1, "rank"))
            if rank > MAX_RANK:
                raise CheckpointError(f"{path}: rank {rank} of {name!r} exceeds {MAX_RANK}")
            shape = tuple(struct.unpack("<I", take(fh, 4, "dim"))[0] for _ in range(rank))
            numel = math.prod(shape)
            # sized against the file before anything is read: extents can multiply past int64
            if 4 * numel > size - fh.tell():
                raise CheckpointError(f"{path}: truncated payload of {name!r}")
            # numpy refuses even an empty array whose nonzero extents multiply past intp
            if 4 * math.prod(e for e in shape if e) > np.iinfo(np.intp).max:
                raise CheckpointError(f"{path}: extents {shape} of {name!r} are too large")
            payload = take(fh, 4 * numel, f"payload of {name!r}")
            arrays[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
            if not np.isfinite(arrays[name]).all():
                raise CheckpointError(f"{path}: non-finite values in {name!r}")
        if fh.tell() != size:
            raise CheckpointError(f"{path}: {size - fh.tell()} bytes after the last entry")
    return arrays


def check_compatible(arrays: dict, expected: dict):
    """Validate names and shapes; raise naming the first offending entry."""
    for name, shape in expected.items():
        if name not in arrays:
            raise CheckpointError(f"checkpoint incompatible: missing entry {name!r}")
        if tuple(arrays[name].shape) != tuple(shape):
            raise CheckpointError(
                f"checkpoint incompatible: {name!r} has shape {tuple(arrays[name].shape)}, "
                f"expected {tuple(shape)}")
