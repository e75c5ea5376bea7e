"""Turn feature matrices into temporal/spatial patch graphs.

The kernels are batched: leading axes of the inputs are batch axes, and
``knn_graph`` is the single-graph (B=1) view of ``neighbor_table``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass
class GraphView:
    kind: str               # "temporal" | "spatial"
    x: np.ndarray           # N x D node features
    edges: list             # directed (src, dst) pairs, src -> dst
    clip_id: str
    segment_id: str         # "1" | "2" | "whole"


def split_pair(values: np.ndarray):
    """Halve (..., F, T) clips along time; odd widths are repeat-padded from column 0."""
    if values.shape[-1] % 2 == 1:
        values = np.concatenate([values, values[..., :1]], axis=-1)
    half = values.shape[-1] // 2
    return values[..., :half], values[..., half:]


def patchify(values: np.ndarray, n: int, kind: str):
    """(..., F, T) -> (..., n, patch_dim): n equal temporal (column) or spatial
    (row) tiles, each flattened row-major."""
    *lead, f, t = values.shape
    if kind == "temporal":
        if t % n != 0:
            raise ConfigError(f"time dimension {t} not divisible by {n} patches")
        tiles = values.reshape(*lead, f, n, t // n)
        return np.swapaxes(tiles, -3, -2).reshape(*lead, n, -1)
    if kind == "spatial":
        if f % n != 0:
            raise ConfigError(f"frequency dimension {f} not divisible by {n} patches")
        return values.reshape(*lead, n, -1)
    raise ConfigError(f"unknown patch kind {kind!r}")


def neighbor_table(x_batch: np.ndarray, k: int):
    """Batched k-NN: (B, N, D) features -> (B, N, K) neighbor indices.

    Row i lists the k nearest Euclidean neighbors of node i, nearest
    first; ties break toward the smaller node index.
    """
    b, n, _ = x_batch.shape
    if not 1 <= k <= n - 1:
        raise ConfigError(f"K={k} out of range for {n} nodes")
    diff = x_batch[:, :, None, :] - x_batch[:, None, :, :]
    dist = np.sqrt(np.square(diff, out=diff).sum(axis=-1))  # in place: no second (B, N, N, D)
    idx = np.arange(n)
    dist[:, idx, idx] = np.inf
    order = np.argsort(dist, axis=2, kind="stable")  # stable => index tie-break
    return order[:, :, :k]


def knn_graph(x: np.ndarray, k: int):
    """Directed edges neighbor -> node for the k nearest neighbors of each node.

    Edge order is canonical: ascending target node, then ascending
    neighbor rank -- the row-major order of ``neighbor_table``.
    """
    table = neighbor_table(x[None], k)[0]
    return [(int(j), i) for i, row in enumerate(table) for j in row]
