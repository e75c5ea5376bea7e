"""Central finite-difference verification of every differentiable piece.

Everything runs in float64; each check compares the reverse-mode gradient
of a scalar function against central differences (h = 1e-5) and reports a
norm-wise relative error per parameter tensor.
"""

from __future__ import annotations

import numpy as np

from . import encoder as enc
from . import metrics
from . import tensorgrad as tg
from .graphbuild import knn_graph

H = 1e-5


def fd_gradient(f, param: tg.Tensor):
    g = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + H
        hi = float(f().data)
        flat[i] = orig - H
        lo = float(f().data)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * H)
    return g


def check(f, params):
    """Max norm-wise relative error of reverse-mode vs central differences."""
    for p in params:
        p.grad = None
    with tg.Tape() as tape:
        loss = f()
        tape.backward(loss)
    worst = 0.0
    for p in params:
        ad = p.grad if p.grad is not None else np.zeros_like(p.data)
        fd = fd_gradient(f, p)
        denom = max(np.linalg.norm(ad), np.linalg.norm(fd), 1e-8)
        worst = max(worst, float(np.linalg.norm(ad - fd) / denom))
    return worst


def _t(rng, shape):
    return tg.Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


def primitive_checks(rng):
    a = _t(rng, (3, 4))
    b = _t(rng, (4, 2))
    yield "matmul", check(lambda: tg.tsum(tg.matmul(a, b)), [a, b])
    stack, rows = rng.standard_normal((3, 4, 4)), _t(rng, (12, 2))
    yield "bmm", check(lambda: tg.tsum(tg.mul(tg.bmm(stack, rows), tg.bmm(stack, rows))), [rows])
    for groups in (4, 1):
        gh, heads = _t(rng, (5, 3 * groups)), [_t(rng, (3, 2)) for _ in range(groups)]
        if groups > 1:
            heads[1].requires_grad = False  # a frozen head among trained ones
        yield f"grouped_matmul[{groups}]", check(
            lambda: tg.tsum(tg.mul(tg.grouped_matmul(gh, heads), tg.grouped_matmul(gh, heads))),
            [gh, *(w for w in heads if w.requires_grad)])

    ax, aw, ab = _t(rng, (5, 3)), _t(rng, (3, 4)), _t(rng, (1, 4))
    yield "affine", check(
        lambda: tg.tsum(tg.mul(tg.affine(ax, aw, ab), tg.affine(ax, aw, ab))), [ax, aw, ab])

    x = _t(rng, (4, 6))
    y = _t(rng, (4, 6))
    yield "add", check(lambda: tg.tsum(tg.add(x, y)), [x, y])
    yield "mul", check(lambda: tg.tsum(tg.mul(x, y)), [x, y])
    yield "scale", check(lambda: tg.tsum(tg.scale(x, 0.37)), [x])

    r = tg.Tensor(rng.standard_normal((5, 5)) + 0.3, requires_grad=True, dtype=np.float64)
    yield "relu", check(lambda: tg.tsum(tg.mul(tg.relu(r), tg.relu(r))), [r])

    c1, c2 = _t(rng, (2, 3)), _t(rng, (2, 5))
    yield "concat", check(
        lambda: tg.tsum(tg.mul(tg.concat([c1, c2], axis=1), tg.concat([c1, c2], axis=1))),
        [c1, c2])
    sp = _t(rng, (6, 4))  # rows, as training splits a batch's two halves
    yield "split", check(
        lambda: tg.tsum(tg.mul(tg.split(sp, [2, 4])[1], tg.split(sp, [2, 4])[1])), [sp])

    s = tg.Tensor(np.abs(rng.standard_normal((3, 3))) + 0.5,
                  requires_grad=True, dtype=np.float64)
    yield "sqrt", check(lambda: tg.tsum(tg.sqrt(s)), [s])
    yield "reciprocal", check(lambda: tg.tsum(tg.reciprocal(s)), [s])

    rs = _t(rng, (3, 4))
    yield "reshape", check(lambda: tg.tsum(tg.mul(tg.reshape(rs, (2, 6)),
                                                  tg.reshape(rs, (2, 6)))), [rs])
    ax = _t(rng, (4, 3))
    yield "sum_axis", check(lambda: tg.tsum(tg.mul(tg.tsum(ax, axis=1),
                                                   tg.tsum(ax, axis=1))), [ax])

    lg = _t(rng, (3, 5))
    w = tg.Tensor(rng.standard_normal((3, 5)), dtype=np.float64)
    yield "log_softmax", check(lambda: tg.tsum(tg.mul(tg.log_softmax(lg), w)), [lg])

    z1, z2 = _t(rng, (4, 6)), _t(rng, (4, 6))
    yield "cosine", check(lambda: tg.tsum(metrics.cosine_similarity(z1, z2)), [z1, z2])
    yield "alignment_loss", check(lambda: metrics.alignment_loss(z1, z2, 0.5), [z1, z2])

    logits = _t(rng, (4, 2))
    labels = rng.integers(0, 2, size=4)
    yield "cross_entropy", check(lambda: metrics.cross_entropy(logits, labels), [logits])


def network_check(rng):
    """Composed stem -> pyramid -> projection head on two random 6-node graphs."""
    n_nodes, d, patch_dim = 6, 16, 10
    store = tg.ParamStore()
    store.add("stem.w", _t(rng, (patch_dim, d)))
    store.add("stem.b", _t(rng, (1, d)))
    d_last = enc.init_encoder(store, "enc", d, 3, heads=4, rng=rng, dtype=np.float64)
    enc.init_mlp(store, "proj", (n_nodes * d_last, 8, 6, 5), rng, dtype=np.float64)
    patches = tg.Tensor(rng.standard_normal((2 * n_nodes, patch_dim)), dtype=np.float64)
    s = np.stack([enc.normalized_adjacency(knn_graph(p, 2), n_nodes, dtype=np.float64)
                  for p in patches.data.reshape(2, n_nodes, -1)])
    target = tg.Tensor(rng.standard_normal((2, 5)), dtype=np.float64)

    def f():
        x = tg.affine(patches, store["stem.w"], store["stem.b"])
        h = enc.concat_pool(enc.run_layers(x, s, store, "enc"), n_nodes)
        z = enc.run_mlp(h, store, "proj")
        diff = tg.add(z, tg.scale(target, -1.0))
        return tg.tsum(tg.mul(diff, diff))

    return check(f, [store[name] for name in store.names()])


def run_gradcheck():
    """Max relative error over two rounds of primitive checks and one composed network."""
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(2):
        for _, err in primitive_checks(rng):
            worst = max(worst, err)
    worst = max(worst, network_check(rng))
    return worst
