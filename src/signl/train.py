"""Pre-training (positive-pair alignment) and fine-tuning (classification).

Batches are pushed through the encoder together: ``tensorgrad.bmm`` applies
each clip's normalized adjacency, one slice of a (B, N, N) stack, to that
clip's N node rows, so a batch is a handful of matmuls instead of per-sample
Python loops.  The math is identical to encoding each graph separately.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import augment as aug
from . import checkpoint as ckpt
from . import encoder as enc
from . import metrics
from . import tensorgrad as tg
from .featio import ConfigError, read_feature
from .graphbuild import GraphConfig, neighbor_table, patchify, split_pair
from .seeding import stream

PROJ_DIMS = (256, 128, 80)
CLS_DIMS = (256, 128, 2)
DEV_HOLDOUT = 0.1  # fraction of train clips monitored during pre-training


def view_kinds(view_mode):
    return {"both": ("temporal", "spatial"),
            "temporal_only": ("temporal",),
            "spatial_only": ("spatial",)}[view_mode]


@dataclass
class Model:
    store: tg.ParamStore
    graph: GraphConfig
    stacks: dict           # kind -> EncoderStack
    patch_dims: dict       # kind -> flattened patch length
    view_mode: str
    head: str              # "proj" | "cls"
    f: int
    t_seg: int

    @property
    def d_last(self):
        return next(iter(self.stacks.values())).dims[-1]

    def embed_len(self):
        return self.graph.n_patches * self.d_last


def _padded_t_seg(t):
    return (t + t % 2) // 2


def build_model(cfg, head, view_mode="both", seed=0):
    """Create all parameters for one phase, deterministically from seed."""
    f, t = cfg["data.f"], cfg["data.t"]
    n, k, d = cfg["graph.n"], cfg["graph.k"], cfg["graph.d"]
    t_seg = _padded_t_seg(t)
    if t_seg % n or f % n:
        raise ConfigError(
            f"patch count {n} must divide half-width {t_seg} and freq bins {f}")
    kinds = view_kinds(view_mode) if head == "cls" else ("temporal", "spatial")
    patch_dims = {"temporal": f * (t_seg // n), "spatial": (f // n) * t_seg}
    store = tg.ParamStore()
    rng = stream(seed, "init")
    stacks = {}
    for kind in kinds:
        tag = "t" if kind == "temporal" else "s"
        store.add(f"stem.{kind}.w",
                  tg.Tensor(enc._glorot(rng, (patch_dims[kind], d), np.float32),
                            requires_grad=True))
        store.add(f"stem.{kind}.b",
                  tg.Tensor(np.zeros((1, d), dtype=np.float32), requires_grad=True))
        stacks[kind] = enc.init_encoder(store, f"enc_{tag}", d, cfg["graph.layers"],
                                        cfg["graph.heads"], rng)
    model = Model(store=store, graph=GraphConfig(n, k, d), stacks=stacks,
                  patch_dims=patch_dims, view_mode=view_mode, head=head, f=f, t_seg=t_seg)
    in_len = len(kinds) * model.embed_len()
    if head == "proj":
        enc.init_mlp(store, "proj", (2 * model.embed_len(), *PROJ_DIMS), rng)
    else:
        enc.init_mlp(store, "cls", (in_len, *CLS_DIMS), rng)
    return model


def encoder_param_shapes(model):
    return {name: model.store[name].shape for name in model.store.names()
            if name.startswith(("stem.", "enc_"))}


def load_encoder_params(model, arrays):
    expected = encoder_param_shapes(model)
    ckpt.check_compatible(arrays, expected)
    model.store.load_arrays({k: arrays[k] for k in expected})


def freeze_encoders(model):
    for name in model.store.names():
        if name.startswith(("stem.", "enc_")):
            model.store[name].requires_grad = False


# ---------------------------------------------------------------------------
# batched forward

def _block_adjacency(neighbors, keep=None):
    """(B, N, K) neighbor table -> per-graph normalized S of shape (B, N, N)."""
    b, n, k = neighbors.shape
    a = np.zeros((b, n, n))
    # edge j -> i marks A[i, j]; kept edges only when ED draws are given
    a[np.arange(b)[:, None, None], np.arange(n)[None, :, None], neighbors] = \
        1.0 if keep is None else keep
    return enc._normalize_adjacency(a).astype(np.float32)


def _view_embed(model, segs, kind, clip_ids=None, spec=None, seed=0, epoch=0, seg_id="1"):
    """Embed one (view, segment) of a (B, F, T_seg) batch: (B, N*d_L) tensor."""
    n, k = model.graph.n_patches, model.graph.k_neighbors
    patches = patchify(segs, n, kind)
    b = patches.shape[0]
    p = tg.Tensor._wrap(patches.reshape(b * n, -1).astype(np.float32, copy=False), False)
    x = tg.affine(p, model.store[f"stem.{kind}.w"], model.store[f"stem.{kind}.b"])
    neighbors = neighbor_table(x.data.reshape(b, n, -1), k)
    keep = None
    if spec is not None and (spec.ed_enabled or spec.gn_enabled or spec.fm_enabled):
        rngs = [aug.derive_rng(seed, cid, epoch, f"{kind}:{seg_id}") for cid in clip_ids]
        draws = aug.sample_draws(spec, rngs, n * k, (n, x.shape[1]))
        if spec.ed_enabled:
            keep = draws.edge_keep.reshape(b, n, k)
        if spec.gn_enabled:
            x = tg.add(x, tg.Tensor._wrap(draws.noise.reshape(x.shape), False))
        if spec.fm_enabled:
            x = tg.mul(x, tg.Tensor._wrap(draws.mask.reshape(x.shape), False))
    h = enc.run_layers(x, _block_adjacency(neighbors, keep), model.stacks[kind])
    return enc.concat_pool(h, n)


def _pair_forward(model, mats, clip_ids, spec, seed, epoch):
    """Positive-pair projections (z1, z2) for a batch of full clips."""
    zs = []
    for seg_id, segs in zip("12", split_pair(np.stack(mats))):
        h_t = _view_embed(model, segs, "temporal", clip_ids, spec, seed, epoch, seg_id)
        h_s = _view_embed(model, segs, "spatial", clip_ids, spec, seed, epoch, seg_id)
        h = tg.concat([h_t, h_s], axis=1)
        zs.append((h, enc.run_mlp(h, model.store, "proj")))
    (h1, z1), (h2, z2) = zs
    return h1, h2, z1, z2


def _classify_forward(model, mats, clip_ids):
    """Logits for a batch using the first clip half, no augmentation."""
    segs = split_pair(np.stack(mats))[0]
    parts = [_view_embed(model, segs, kind) for kind in view_kinds(model.view_mode)]
    return enc.classify(parts, model.store)


# ---------------------------------------------------------------------------
# data plumbing

def strip_labels(entries, split="train"):
    """Label-free view of a manifest split: (clip_id, path) pairs only."""
    return [(e.clip_id, e.path) for e in entries if e.split == split]


def load_features(items, data_dir):
    data_dir = Path(data_dir)
    return {clip_id: read_feature(data_dir / rel).values for clip_id, rel in items}


def _batches(ids, batch_size):
    for i in range(0, len(ids), batch_size):
        yield ids[i:i + batch_size]


def _write_trace(trace, path):
    with open(path, "w") as fh:
        for row in trace:
            fh.write(json.dumps(row) + "\n")


def _abort_diagnostics(model, epoch, batch_idx):
    norms = {name: float(np.linalg.norm(t.data)) for name, t in model.store.items()}
    worst = sorted(norms, key=norms.get, reverse=True)[:5]
    detail = ", ".join(f"{n}={norms[n]:.3g}" for n in worst)
    return f"non-finite loss at epoch {epoch}, batch {batch_idx}; largest param norms: {detail}"


class _EarlyStopper:
    """Tracks the best dev metric; triggers at exactly `patience` stale epochs."""

    def __init__(self, patience):
        self.patience = patience
        self.best = math.inf
        self.best_params = None
        self.stale = 0

    def update(self, metric, store):
        if metric <= self.best:
            # ties keep the later snapshot: extra epochs at the same dev
            # metric mean a better-optimised model, not a stale one
            if metric < self.best:
                self.stale = 0
            else:
                self.stale += 1
            self.best = metric
            self.best_params = store.snapshot()
        else:
            self.stale += 1
        return self.stale == self.patience

    def restore(self, store):
        if self.best_params is not None:
            store.load_arrays(self.best_params)


# ---------------------------------------------------------------------------
# phases

def pretrain(cfg, clips, data_dir, out_dir):
    """Algorithm-1 pre-training on a label-stripped clip list.

    ``clips`` is a list of (clip_id, relative_path); labels are never seen.
    Returns (checkpoint_path, trace).
    """
    if not clips:
        raise ConfigError("pre-training requires a non-empty train split")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = cfg["train.seed"]
    spec = aug.AugmentSpec.from_config(cfg)
    spec.validate()
    tau = cfg["train.temperature"]
    model = build_model(cfg, head="proj", seed=seed)
    feats = load_features(clips, data_dir)
    ids = [cid for cid, _ in clips]

    holdout_rng = stream(seed, "holdout")
    order = holdout_rng.permutation(len(ids))
    n_dev = max(1, int(round(DEV_HOLDOUT * len(ids)))) if len(ids) > 1 else 0
    dev_ids = [ids[i] for i in order[:n_dev]]
    train_ids = [ids[i] for i in order[n_dev:]] or ids

    stopper = _EarlyStopper(cfg["train.patience"])
    trace = []
    bt = cfg["train.batch_size"]
    for epoch in range(1, cfg["train.epochs"] + 1):
        t0 = time.monotonic()
        perm = stream(seed, "order", epoch).permutation(len(train_ids))
        losses = []
        for batch_idx, batch in enumerate(_batches([train_ids[i] for i in perm], bt)):
            mats = [feats[c] for c in batch]
            with tg.Tape() as tape:
                _, _, z1, z2 = _pair_forward(model, mats, batch, spec, seed, epoch)
                loss = tg.scale(metrics.alignment_loss(z1, z2, tau), 1.0 / len(batch))
                if not np.isfinite(loss.data):
                    raise RuntimeError(_abort_diagnostics(model, epoch, batch_idx))
                tape.backward(loss)
            tg.adam_step(model.store, cfg["train.lr"])
            losses.append(float(loss.data))
        dev_metric = _pretrain_dev_loss(model, feats, dev_ids, tau) if dev_ids else float(np.mean(losses))
        trace.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                      "dev_metric": dev_metric,
                      "seconds": round(time.monotonic() - t0, 3)})
        if stopper.update(dev_metric, model.store):
            break
    stopper.restore(model.store)
    path = out_dir / "pretrained.sigc"
    # projection-head entries ship under proj.* and are ignored downstream
    ckpt.save_arrays(model.store.state_arrays(), path)
    _write_trace(trace, out_dir / "pretrain_trace.jsonl")
    return path, trace


def _pretrain_dev_loss(model, feats, dev_ids, tau):
    """Mean per-pair alignment loss on held-out clips, unaugmented."""
    total = 0.0
    for batch in _batches(dev_ids, 96):
        mats = [feats[c] for c in batch]
        _, _, z1, z2 = _pair_forward(model, mats, batch, None, 0, 0)
        total += float(metrics.alignment_loss(z1, z2, tau).data)
    return total / len(dev_ids)


def finetune(cfg, entries, data_dir, out_dir, checkpoint_path=None):
    """Algorithm-2 downstream training with limited labels.

    Returns (model_checkpoint_path, trace, dev_eer_of_best).
    """
    from .featio import sample_limited_labels

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = cfg["train.seed"]
    if not cfg["train.skip_pretrain"] and checkpoint_path is None:
        raise ConfigError("fine-tuning needs a pre-trained checkpoint "
                          "(or train.skip_pretrain = true)")
    model = build_model(cfg, head="cls", view_mode=cfg["train.view_mode"], seed=seed)
    if checkpoint_path is not None:
        load_encoder_params(model, ckpt.load_arrays(checkpoint_path))
    if cfg["train.freeze_encoders"]:
        freeze_encoders(model)

    labeled = sample_limited_labels(entries, cfg["train.label_fraction"], seed)
    train_entries = [e for e in labeled if e.split == "train"]
    dev_entries = [e for e in labeled if e.split == "dev"]
    if not train_entries:
        raise ConfigError("fine-tuning requires labeled train entries")
    used = train_entries + dev_entries  # the eval split is never read here
    feats = load_features([(e.clip_id, e.path) for e in used], data_dir)
    labels = {e.clip_id: 1 if e.label == "bonafide" else 0 for e in used}
    train_ids = [e.clip_id for e in train_entries]

    stopper = _EarlyStopper(cfg["train.patience"])
    trace = []
    bt = cfg["train.batch_size"]
    for epoch in range(1, cfg["train.epochs"] + 1):
        t0 = time.monotonic()
        perm = stream(seed, "order", epoch).permutation(len(train_ids))
        losses = []
        for batch_idx, batch in enumerate(_batches([train_ids[i] for i in perm], bt)):
            mats = [feats[c] for c in batch]
            with tg.Tape() as tape:
                logits = _classify_forward(model, mats, batch)
                loss = metrics.cross_entropy(logits, [labels[c] for c in batch])
                if not np.isfinite(loss.data):
                    raise RuntimeError(_abort_diagnostics(model, epoch, batch_idx))
                tape.backward(loss)
            tg.adam_step(model.store, cfg["train.lr"])
            losses.append(float(loss.data))
        dev_eer = _scores_eer(model, feats, dev_entries).eer if dev_entries \
            else float(np.mean(losses))
        trace.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                      "dev_metric": dev_eer,
                      "seconds": round(time.monotonic() - t0, 3)})
        if stopper.update(dev_eer, model.store):
            break
    stopper.restore(model.store)
    path = out_dir / "model.sigc"
    ckpt.save_arrays(model.store.state_arrays(), path)
    _write_trace(trace, out_dir / "finetune_trace.jsonl")
    return path, trace, stopper.best


def score_entries(model, feats, entries, batch_size=96):
    scores = []
    for batch in _batches(entries, batch_size):
        ids = [e.clip_id for e in batch]
        logits = _classify_forward(model, [feats[c] for c in ids], ids)
        probs = enc.softmax_np(logits.data)[:, 1]  # class 1 = bona fide
        scores.extend((e.clip_id, float(p), e.label) for e, p in zip(batch, probs))
    return metrics.ScoreSet(scores)


def _scores_eer(model, feats, entries):
    return metrics.compute_eer(score_entries(model, feats, entries))


def evaluate(model, entries, data_dir, split="eval"):
    """Bona-fide probabilities + EER on one manifest split."""
    rows = [e for e in entries if e.split == split]
    if not rows:
        raise ConfigError(f"no entries in split {split!r}")
    feats = load_features([(e.clip_id, e.path) for e in rows], data_dir)
    score_set = score_entries(model, feats, rows)
    return score_set, metrics.compute_eer(score_set)


def load_model(cfg, checkpoint_path, head="cls"):
    """Model with all parameters restored from a SIGC file."""
    model = build_model(cfg, head=head,
                        view_mode=cfg["train.view_mode"] if head == "cls" else "both",
                        seed=cfg["train.seed"])
    arrays = ckpt.load_arrays(checkpoint_path)
    expected = {name: model.store[name].shape for name in model.store.names()}
    ckpt.check_compatible(arrays, expected)
    model.store.load_arrays({k: arrays[k] for k in expected})
    return model


def collapse_pair_forward(model):
    """Callable for metrics.collapse_report: clip matrix -> (h1, h2, z1, z2)."""
    def forward(sample):
        clip_id, values = sample
        h1, h2, z1, z2 = _pair_forward(model, [values], [clip_id], None, 0, 0)
        return h1.data[0], h2.data[0], z1.data[0], z2.data[0]
    return forward
