"""Turn feature matrices into temporal/spatial patch graphs.

The kernels are batched: leading axes of the inputs are batch axes, and
``knn_graph`` is the single-graph (B=1) view of ``neighbor_table``.
"""

from __future__ import annotations

import functools
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


def half_width(t: int):
    """The width of each half of a T-frame clip: an odd T is padded by column 0."""
    return (t + 1) // 2


def split_pair(values: np.ndarray):
    """Halve (..., F, T) clips along time; odd widths are repeat-padded from column 0."""
    if values.shape[-1] % 2 == 1:
        values = np.concatenate([values, values[..., :1]], axis=-1)
    half = half_width(values.shape[-1])
    return values[..., :half], values[..., half:]


def patchify(values: np.ndarray, n: int, kind: str):
    """(..., F, T) -> (..., n, patch_dim): n equal temporal (column) or spatial
    (row) tiles, each flattened row-major.

    Spatial tiles are a reshape.  Temporal tiles take one copy, in which each
    row's T/n-value piece of a tile moves as a single void item; any input
    whose last axis is contiguous, such as a ``split_pair`` half, is read in
    place."""
    *lead, f, t = values.shape
    if kind == "temporal":
        if t % n != 0:
            raise ConfigError(f"time dimension {t} not divisible by {n} patches")
        if values.strides[-1] != values.itemsize:  # a void view needs contiguous rows
            values = np.ascontiguousarray(values)
        tiles = values.view(np.dtype((np.void, values.itemsize * (t // n))))  # (..., F, n)
        return np.ascontiguousarray(np.swapaxes(tiles, -2, -1)).view(values.dtype)
    if kind == "spatial":
        if f % n != 0:
            raise ConfigError(f"frequency dimension {f} not divisible by {n} patches")
        return values.reshape(*lead, n, -1)
    raise ConfigError(f"unknown patch kind {kind!r}")


@functools.lru_cache(maxsize=None)
def _pairs(n):
    """Row and column indices of the upper triangle of an n x n matrix, built once per n."""
    i, j = np.triu_indices(n, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def neighbor_table(x_batch: np.ndarray, k: int):
    """Batched k-NN: (B, N, D) features -> (B, N, K) neighbor indices.

    Row i lists the k nearest Euclidean neighbors of node i, nearest
    first; ties break toward the smaller node index.  Each pair's distance
    is computed once, over the upper triangle, and mirrored.
    """
    b, n, _ = x_batch.shape
    if not 1 <= k <= n - 1:
        raise ConfigError(f"K={k} out of range for {n} nodes")
    i, j = _pairs(n)  # each pair once: (a-b)**2 has the bits of (b-a)**2
    diff = np.take(x_batch, i, axis=1) - np.take(x_batch, j, axis=1)
    half = np.sqrt(np.square(diff, out=diff).sum(axis=-1))  # (B, N(N-1)/2)
    dist = np.full((b, n, n), np.inf, dtype=half.dtype)  # the diagonal stays inf
    dist[:, i, j] = half
    dist[:, j, i] = half
    order = np.argsort(dist, axis=2, kind="stable")  # stable => index tie-break
    return order[:, :, :k]


def knn_graph(x: np.ndarray, k: int):
    """Directed edges neighbor -> node for the k nearest neighbors of each node.

    Edge order is canonical: ascending target node, then ascending
    neighbor rank -- the row-major order of ``neighbor_table``.
    """
    table = neighbor_table(x[None], k)[0]
    return [(int(j), i) for i, row in enumerate(table) for j in row]
