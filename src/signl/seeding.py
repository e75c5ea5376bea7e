"""sha256-separated random streams: every stream is a pure function of its key."""

from __future__ import annotations

import hashlib

import numpy as np


def stream(*parts, sep="|"):
    """Generator seeded by the first 8 digest bytes of ``sep.join(parts)``."""
    key = sep.join(str(p) for p in parts)
    digest = hashlib.sha256(key.encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))
