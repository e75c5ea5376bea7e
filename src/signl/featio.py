"""Feature-matrix I/O, dataset manifests, and the synthetic corpus generator.

File format (SIGF, little-endian): 4-byte magic ``SIGF``, u16 version=1,
u32 F, u32 T, then F*T float32 values row-major with frequency as rows.
``read_feature`` is the one SIGF parser.  It reads a file into a new float32
array, checked to be finite, or, with one ``os.readv`` of header and payload,
into a row of a caller's (B, F, T) chunk, whose finiteness the caller checks
once for the whole chunk.  ``write_feature`` is the one writer.  Clip ids live
in the manifest.  ``gen_synthetic`` computes each split GEN_BLOCK clips at a
time and, with a second core free, has a forked child write one block's files
while it computes the next; every file has the bytes of computing and writing
the clips one at a time.  Manifests are JSON lines with fields path/label/attack_id/split.
Malformed files and lines raise ``errors.FormatError``, which names the file
(and line), so ``signl`` exits 1 on them.
"""

from __future__ import annotations

import contextlib
import errno
import json
import math
import os
import stat
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import forking
from .checkpoint import replacing
from .errors import ConfigError, FormatError
from .seeding import stream

SIGF_MAGIC = b"SIGF"
SIGF_VERSION = 1
_HEADER = struct.Struct("<4sHII")  # magic, version, F, T

LABELS = ("bonafide", "fake")
SPLITS = ("train", "dev", "eval")


@dataclass
class ManifestEntry:
    path: str
    label: str
    attack_id: str
    split: str
    clip_id: str = field(init=False, compare=False, repr=False)  # the path's stem

    def __post_init__(self):
        for name in ("path", "attack_id"):
            if not isinstance(getattr(self, name), str):
                raise FormatError(f"{name} must be a string, not {getattr(self, name)!r}")
        if "\0" in self.path:  # no file name can hold one
            raise FormatError(f"path {self.path!r} holds a NUL character")
        rel = Path(self.path)  # read relative to its corpus, so it may not leave it
        if not self.path or rel.is_absolute() or ".." in rel.parts:
            raise FormatError(f"path {self.path!r} is not a relative path inside the corpus")
        self.clip_id = rel.stem
        if self.label not in LABELS:
            raise FormatError(f"bad label {self.label!r}")
        if self.split not in SPLITS:
            raise FormatError(f"bad split {self.split!r}")
        if (self.label == "bonafide") != (self.attack_id == "-"):
            raise FormatError("label bonafide iff attack_id is '-'")


def write_feature(values, path):
    """Write an F x T matrix as float32 SIGF; refuses what read_feature would reject."""
    values = np.asarray(values, dtype=np.float32)
    if values.ndim != 2:
        raise FormatError("feature matrix must be 2-D")
    if not np.all(np.isfinite(values)):
        raise FormatError("feature matrix contains non-finite values")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SIGF_MAGIC, SIGF_VERSION, *values.shape))
        fh.write(values.astype("<f4").tobytes())


def _fill(fd, buffers, size):
    """Read ``fd`` into ``buffers``, which hold ``size`` bytes, in order, resuming
    short reads: the bytes read, fewer than ``size`` only at the end of the file."""
    got = os.readv(fd, buffers)
    while 0 < got < size:
        rest, skip = [], got
        for view in map(memoryview, buffers):
            if skip < view.nbytes:
                rest.append(view.cast("B")[skip:])
            skip = max(0, skip - view.nbytes)
        n = os.readv(fd, rest)
        if not n:
            break
        got += n
    return got


def read_feature(path, out=None) -> np.ndarray:
    """The F x T float32 matrix of a SIGF file.

    The magic, the version and the header's size against the file's are
    checked before anything is allocated from header values, and short reads
    are resumed.  Without ``out`` the header is read, then the payload into a
    new array, which is checked to be finite.  ``out`` is an F x T float32 row,
    say of a (B, F, T) chunk: one ``os.readv`` fills the header and ``out``,
    which is returned when the file has its shape, its finiteness left to the
    caller's one check over the chunk; a file of another shape is read again
    as without ``out``."""
    fd = os.open(path, os.O_RDONLY)
    try:
        info = os.fstat(fd)
        if stat.S_ISDIR(info.st_mode):  # os.open opens a directory, and readv names no file
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        header = bytearray(_HEADER.size)
        if out is None:
            got = _fill(fd, [header], _HEADER.size)
        else:
            got = _fill(fd, [header, out], _HEADER.size + out.nbytes)
        if got < _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, f, t = _HEADER.unpack(header)
        if magic != SIGF_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != SIGF_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        # sized against the file before anything is allocated: a header can claim 2**66 bytes
        extra = info.st_size - _HEADER.size - 4 * f * t
        if extra < 0:
            raise FormatError(f"{path}: truncated payload")
        if extra:
            raise FormatError(f"{path}: {extra} bytes after the payload")
        fresh = out is None or out.shape != (f, t)
        if fresh:
            out = np.empty((f, t), "<f4")
            os.lseek(fd, _HEADER.size, os.SEEK_SET)
            got = _HEADER.size + _fill(fd, [out], out.nbytes)
        if got < _HEADER.size + out.nbytes:  # the file shrank after fstat
            raise FormatError(f"{path}: truncated payload")
    finally:
        os.close(fd)
    if fresh and not np.isfinite(out).all():
        raise FormatError(f"{path}: non-finite values")
    return out


def write_manifest(entries, path):
    """One JSON line per entry, replacing ``path`` whole: a manifest cut at a line
    boundary would read as a smaller corpus."""
    with replacing(path, "w") as fh:
        for e in entries:
            fh.write(json.dumps({"path": e.path, "label": e.label,
                                 "attack_id": e.attack_id, "split": e.split}) + "\n")


def _unique_keys(pairs):
    """A JSON object as a dict; a repeated key would silently keep its last value."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        raise FormatError(f"repeated key in {[k for k, _ in pairs]}")
    return obj


def read_manifest(path):
    entries, first_seen = [], {}  # a repeated clip_id would overwrite features and labels
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                e = ManifestEntry(**json.loads(line.decode(), object_pairs_hook=_unique_keys))
            except (UnicodeDecodeError, json.JSONDecodeError, TypeError, FormatError) as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            first, first_path = first_seen.setdefault(e.clip_id, (lineno, e.path))
            if first != lineno:
                raise FormatError(f"{path}:{lineno}: clip id {e.clip_id!r} of {e.path!r} "
                                  f"duplicates line {first} ({first_path!r})")
            entries.append(e)
    return entries


# ---------------------------------------------------------------------------
# synthetic corpus

GEN_BLOCK = 32  # clips computed together; a few MB of float64 temporaries at 64 x 64


@dataclass
class SynthConfig:
    F: int = 64
    T: int = 64
    n_per_split: dict = field(default_factory=lambda: {"train": 200, "dev": 50, "eval": 100})
    n_attack_types: int = 3
    artifact_strength: float = 1.0
    seed: int = 0

    def validate(self):
        if self.F <= 0 or self.T <= 0:
            raise ConfigError("F and T must be positive")
        if self.n_attack_types < 1:
            raise ConfigError("n_attack_types must be >= 1")
        if self.artifact_strength < 0:
            raise ConfigError("artifact_strength must be >= 0")
        for s in SPLITS:
            if s not in self.n_per_split or self.n_per_split[s] < 0:
                raise ConfigError(f"n_per_split missing or negative for {s!r}")
        # _plant_artifact needs 2 rows for family 0, 2 frames a half for any, 4 for 2 and up
        fakes = max(n - n // 2 for n in map(self.n_per_split.get, SPLITS))
        families = min(fakes, self.n_attack_types)
        need_t = 8 if families >= 3 else 4
        if families and (self.F < 2 or self.T < need_t):
            raise ConfigError(f"{self.F} x {self.T} clips cannot hold the artifacts of "
                              f"{families} attack families: they need F >= 2 and T >= {need_t}")


def _bona_fide_fields(rngs, f, t):
    """Smooth band-limited random fields, one (F, T) float64 row per clip stream in
    ``rngs``: four sinusoidal bands over frequency-Gaussian envelopes, then noise.

    Each stream draws its 20 band parameters (amplitude, centre, width, period and
    phase of each band) in one call, then its F*T noise values.  The bands are
    added to the whole block with a clip's own elementwise operations in its own
    order, so every row has the bits of computing its clip alone."""
    low = np.tile([0.4, 0, f / 8, t / 4, 0], 4)
    high = np.tile([1.0, f, f / 3, t, 2 * np.pi], 4)
    params = np.empty((len(rngs), 4, 5))
    noise = np.empty((len(rngs), f, t))
    for j, rng in enumerate(rngs):
        params[j] = rng.uniform(low, high).reshape(4, 5)
        rng.standard_normal(out=noise[j])
    rows = np.arange(f)[:, None]
    turns = 2 * np.pi * np.arange(t)[None, :]
    x = np.zeros_like(noise)
    # each band's parameters as (B, 1, 1) columns, broadcast over a clip's rows and frames
    for amp, centre, width, period, phase in params.transpose(1, 2, 0)[..., None, None]:
        env = np.exp(-0.5 * ((rows - centre) / width) ** 2)
        x += amp * env * np.sin(turns / period + phase)
    x += 0.05 * noise
    return x


def _plant_artifact(x, family, strength, rng):
    """Add one artifact instance per temporal half so every graph view sees it."""
    f, t = x.shape
    half = t // 2
    for start in (0, half):
        if family == 0:
            # band discontinuities: two sharp checkerboard-textured rectangles
            bh = max(2, f // 3)
            bw = max(2, half // 3)
            for _ in range(3):
                r0 = rng.integers(0, f - bh + 1)
                c0 = start + rng.integers(0, half - bw + 1)
                rr = np.arange(r0, r0 + bh)[:, None]
                cc = np.arange(c0, c0 + bw)[None, :]
                x[r0:r0 + bh, c0:c0 + bw] += strength * ((-1.0) ** (rr + cc))
        elif family == 1:
            # periodic spectral notches within two time windows
            step = max(3, f // 16)
            bw = max(2, half // 3)
            for _ in range(3):
                r0 = rng.integers(0, step)
                c0 = start + rng.integers(0, half - bw + 1)
                x[r0::step, c0:c0 + bw] -= strength
        else:
            # temporal-seam repetition: blend a copied block over a later block,
            # with rippled seams at both block boundaries
            bw = max(2, half // 4)
            src = start + rng.integers(0, half - 2 * bw + 1)
            dst = src + bw + rng.integers(0, half - (src - start) - 2 * bw + 1)
            x[:, dst:dst + bw] += strength * (x[:, src:src + bw] - x[:, dst:dst + bw])
            ripple = 2.0 * strength * ((-1.0) ** np.arange(f))
            for col in (src, src + bw - 1, dst, dst + bw - 1):
                x[:, col] += ripple if col in (src, dst) else -ripple


def _blocks(cfg):
    """Every split's manifest entries with their clips, GEN_BLOCK clips of a split at
    a time: (entries, (B, F, T) float32 fields), each clip from its own stream."""
    for split in SPLITS:
        n = cfg.n_per_split[split]
        n_bona = n // 2
        families = [None] * n_bona + [i % cfg.n_attack_types for i in range(n - n_bona)]
        for lo in range(0, n, GEN_BLOCK):
            families_here = families[lo:lo + GEN_BLOCK]
            block = [ManifestEntry(path=f"{split}_{i:05d}.sigf", split=split,
                                   label="bonafide" if family is None else "fake",
                                   attack_id="-" if family is None else f"A{family:02d}")
                     for i, family in enumerate(families_here, lo)]
            rngs = [stream(cfg.seed, e.clip_id, sep=":") for e in block]
            x = _bona_fide_fields(rngs, cfg.F, cfg.T)
            for row, rng, family in zip(x, rngs, families_here):
                if family is not None:
                    _plant_artifact(row, family, cfg.artifact_strength, rng)
            yield block, x.astype("<f4")


def _write_block(values, paths):
    for row, path in zip(values, paths):
        write_feature(row, path)


def _write_blocks(conn):
    """The corpus writer: it says it is idle, and writes the (values, paths) block
    that follows, until this process's end of ``conn`` closes."""
    with contextlib.suppress(EOFError):
        while True:
            conn.send(("idle", None))
            _write_block(*conn.recv())


def gen_synthetic(cfg: SynthConfig, out_dir):
    """Write a labelled SIGF corpus plus manifest; pure function of cfg.

    With ``forking.second_core_free``, a forked corpus writer creates a block's
    files while the next is computed, one block in flight; otherwise each block is
    written once computed.  A write error, a non-finite clip's included, is raised
    here after the clips before it are written; the writer is reaped by then."""
    cfg.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    with forking.Child("corpus writer", _write_blocks) if forking.second_core_free() \
            else contextlib.nullcontext() as writer:
        for block, x in _blocks(cfg):
            entries += block
            paths = [os.path.join(out_dir, e.path) for e in block]
            if writer:
                writer.recv()  # idle: the block before is written
                writer.send((x, paths))
            else:
                _write_block(x, paths)
        if writer:
            writer.recv()
    write_manifest(entries, out_dir / "manifest.jsonl")
    return entries


# ---------------------------------------------------------------------------
# limited-label protocol

def sample_limited_labels(entries, p, seed):
    """Stratified subset of train/dev at fraction p; eval kept whole.

    Per (split, label, attack_id) stratum a seeded shuffle selects
    ceil(p * n) entries, so proportions are preserved within one item.
    """
    if not 0 < p <= 1:
        raise ConfigError("label fraction must be in (0, 1]")
    strata: dict[tuple, list[int]] = {}
    for idx, e in enumerate(entries):
        if e.split in ("train", "dev"):
            strata.setdefault((e.split, e.label, e.attack_id), []).append(idx)
    keep = set(idx for idx, e in enumerate(entries) if e.split == "eval")
    for key, idxs in sorted(strata.items()):
        n_take = math.ceil(p * len(idxs))
        rng = stream(seed, "|".join(key), sep=":")
        order = rng.permutation(len(idxs))
        keep.update(idxs[j] for j in order[:n_take])
    return [e for idx, e in enumerate(entries) if idx in keep]
