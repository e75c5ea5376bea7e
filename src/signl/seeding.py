"""sha256-separated random streams: every stream is a pure function of its key.

``stream`` builds one Generator for one key.  Training builds one per batch
view for its augmentations (``augment.derive_rng``), not one per clip.
"""

from __future__ import annotations

import hashlib

import numpy as np


def _seed(parts, sep):
    key = sep.join(str(p) for p in parts)
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "little")


def stream(*parts, sep="|"):
    """Generator seeded by the first 8 digest bytes of ``sep.join(parts)``."""
    return np.random.default_rng(_seed(parts, sep))
