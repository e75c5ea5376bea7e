"""Vision graph-convolution pyramid encoder, projection head, classifier head.

A pyramid layer computes M = multi_head(S @ H @ theta) and returns
relu(M) + skip(H), where skip is identity when the width is unchanged
and a learnable linear projection when the width halves.  The per-layer
width reduction lives in the multi-head transform; theta stays square.
Layers, like the MLP heads, are read by name from a ``tensorgrad.ParamStore``:
``{prefix}.layer{i}.theta``, ``.head{j}.w`` and, when the width halves, ``.skip.w``.
"""

from __future__ import annotations

import numpy as np

from . import tensorgrad as tg
from .errors import ConfigError


def _normalize_adjacency(a):
    """(B, N, N) float64 0/1 adjacencies -> D^-1/2 (A + I) D^-1/2 of the
    symmetrized, self-loop-free A."""
    a = np.maximum(a, a.transpose(0, 2, 1))
    idx = np.arange(a.shape[1])
    a[:, idx, idx] = 0.0
    a_hat = a + np.eye(a.shape[1])
    inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=2))
    return a_hat * inv_sqrt[:, :, None] * inv_sqrt[:, None, :]


def normalized_adjacency(edges, n, dtype=np.float32):
    """Symmetrically normalized adjacency with self-loops (dense N x N)."""
    a = np.zeros((1, n, n))
    src, dst = np.asarray(edges, dtype=np.intp).reshape(-1, 2).T
    a[0, dst, src] = 1.0
    return _normalize_adjacency(a)[0].astype(dtype)


def gcn_layer(h: tg.Tensor, s: np.ndarray, theta: tg.Tensor) -> tg.Tensor:
    """Pre-activation graph convolution S @ H @ theta, one S per graph."""
    return tg.matmul(tg.bmm(s, h), theta)


def head_count_for(d_in, d_out, preferred):
    """Largest head count <= preferred dividing both dims (pyramid tail shrinks)."""
    kh = max(1, preferred)
    while d_in % kh or d_out % kh:
        kh -= 1
    return kh


def check_pyramid(d0, n_layers):
    """Raise ConfigError unless each of n_layers layers halves an even width or keeps 1.
    O(log d0) for any n_layers: only d0's factors of 2 can be halved."""
    twos = (d0 & -d0).bit_length() - 1
    if d0 >> twos != 1 and n_layers > twos:
        raise ConfigError(f"pyramid width {d0 >> twos} is not halvable")


def pyramid_dims(d0, n_layers):
    check_pyramid(d0, n_layers)
    dims = [d0]
    for _ in range(n_layers):
        dims.append(max(1, dims[-1] // 2))
    return dims


def _glorot(rng, shape, dtype):
    fan_in, fan_out = shape
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return (std * rng.standard_normal(shape)).astype(dtype)


def init_encoder(store: tg.ParamStore, prefix, d0, n_layers, heads, rng,
                 dtype=np.float32) -> int:
    """Add each pyramid layer's theta (d_in x d_in), heads ((d_in/Kh) x (d_out/Kh)
    each) and, when the width halves, skip (d_in x d_out) under prefix; returns d_L."""
    dims = pyramid_dims(d0, n_layers)
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        kh = head_count_for(d_in, d_out, heads)
        store.add(f"{prefix}.layer{i}.theta",
                  tg.Tensor(_glorot(rng, (d_in, d_in), dtype), requires_grad=True))
        for j in range(kh):
            store.add(f"{prefix}.layer{i}.head{j}.w",
                      tg.Tensor(_glorot(rng, (d_in // kh, d_out // kh), dtype),
                                requires_grad=True))
        if d_in != d_out:
            store.add(f"{prefix}.layer{i}.skip.w",
                      tg.Tensor(_glorot(rng, (d_in, d_out), dtype), requires_grad=True))
    return dims[-1]


def vision_gc_layer(h: tg.Tensor, s: np.ndarray, store: tg.ParamStore, layer) -> tg.Tensor:
    heads = []
    while f"{layer}.head{len(heads)}.w" in store:
        heads.append(store[f"{layer}.head{len(heads)}.w"])
    m = tg.grouped_matmul(gcn_layer(h, s, store[f"{layer}.theta"]), heads)
    skip = f"{layer}.skip.w"
    residual = tg.matmul(h, store[skip]) if skip in store else h
    return tg.add(tg.relu(m), residual)


def run_layers(h: tg.Tensor, s: np.ndarray, store: tg.ParamStore, prefix) -> tg.Tensor:
    """Every pyramid layer init_encoder made under prefix, in order."""
    i = 0
    while f"{prefix}.layer{i}.theta" in store:
        h = vision_gc_layer(h, s, store, f"{prefix}.layer{i}")
        i += 1
    return h


def concat_pool(h: tg.Tensor, nodes_per_graph: int) -> tg.Tensor:
    """Concatenate node embeddings in index order, one row per graph."""
    m, d = h.shape
    if m % nodes_per_graph != 0:
        raise ConfigError("row count not a multiple of nodes_per_graph")
    return tg.reshape(h, (m // nodes_per_graph, nodes_per_graph * d))


# ---------------------------------------------------------------------------
# MLP heads

def init_mlp(store: tg.ParamStore, prefix, dims, rng, dtype=np.float32):
    """Affine layer chain; dims = [in, h1, ..., out]."""
    for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
        store.add(f"{prefix}.l{i}.w", tg.Tensor(_glorot(rng, (a, b), dtype), requires_grad=True))
        store.add(f"{prefix}.l{i}.b",
                  tg.Tensor(np.zeros((1, b), dtype=dtype), requires_grad=True))


def run_mlp(x: tg.Tensor, store: tg.ParamStore, prefix) -> tg.Tensor:
    """Every affine layer init_mlp made under prefix; ReLU between them, none after the last."""
    i = 0
    while f"{prefix}.l{i + 1}.w" in store:
        x = tg.relu(tg.affine(x, store[f"{prefix}.l{i}.w"], store[f"{prefix}.l{i}.b"]))
        i += 1
    return tg.affine(x, store[f"{prefix}.l{i}.w"], store[f"{prefix}.l{i}.b"])


def softmax_np(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)
