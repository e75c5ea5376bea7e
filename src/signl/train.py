"""Pre-training (positive-pair alignment) and fine-tuning (classification).

Batches are pushed through the encoder together: ``tensorgrad.bmm`` applies
each clip's normalized adjacency, one slice of a (B, N, N) stack, to that
clip's N node rows, so a batch is a handful of matmuls instead of per-sample
Python loops.  The math is identical to encoding each graph separately.
Every forward reaches the encoder through ``_embed`` (the model's views side by side),
and every clip through ``load_features``, which reads a chunk of clips into one
(B, F, T) array, checks each against (data.f, data.t) and the chunk's finiteness once.
Whole splits load in EVAL_BATCH chunks; each clip's matrix is a row of its chunk.
A pre-training step encodes both clip halves as one (2B, F, T/2) batch per view,
built in one copy by ``_pair_halves``.  With dev clips and a second core free,
pre-training forks one worker that trains the temporal view (its stem and graph-conv
layers) while this process trains the spatial view, the projection head and the loss;
the worker's parameter values come back with each embedding of its view.  While it
waits for an embedding's gradient, the worker builds the pair batch and augmentation
draws of the batch ``_fit`` asks for next, whose key it reads from one iterator over
``_fit``'s order.  The views share no parameter and Adam is elementwise, so every
checkpoint byte, trace value and dev loss keeps the bits of one process.
A frozen fine-tune encodes each labelled clip once, into one matrix whose rows
the classifier trains on.
Evaluation streams its clips: each process reads and scores one EVAL_BATCH chunk array
at a time.  On a long eval split with a second core free, a forked child scores the
second half of the chunks, so memory holds one chunk per process; every chunk holds the
same clips either way.  Both forks wait for ``forking.second_core_free`` and go
through ``forking.Child``, with one format.
A whole run, pretrain -> fine-tune -> reload -> evaluate, is composed in one place,
``run_pipeline``; the CLI's ablation grid and the acceptance runs call it.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import augment as aug
from . import checkpoint as ckpt
from . import encoder as enc
from . import forking
from . import metrics
from . import tensorgrad as tg
from .config import VIEW_MODES, patch_dims
from .errors import CheckpointError, ConfigError, FormatError, InputError
from .featio import LABELS, read_feature, sample_limited_labels
from .graphbuild import neighbor_table, patchify, split_pair
from .seeding import stream

PROJ_DIMS = (256, 128, 80)
CLS_DIMS = (256, 128, 2)
DEV_HOLDOUT = 0.1  # fraction of train clips monitored during pre-training
EVAL_BATCH = 96    # clips per forward pass when scoring without gradients
FORK_MIN_CHUNKS = 8  # fewest EVAL_BATCH chunks that evaluate splits across two processes
ENCODER_PREFIX = {"temporal": "enc_t", "spatial": "enc_s"}  # a view's graph-conv layers


@dataclass
class Model:
    store: tg.ParamStore
    kinds: tuple           # the views it encodes, in classifier-input order
    n_patches: int
    k_neighbors: int
    clip_shape: tuple      # (data.f, data.t) of the clips it takes
    remote: _ViewWorker | None = None  # a worker embedding one of ``kinds`` in another process


def build_model(cfg, head):
    """A "proj"-headed model of both views, or a "cls"-headed one of the views of
    ``train.view_mode``, initialised deterministically from ``train.seed``."""
    n, d = cfg["graph.n"], cfg["graph.d"]
    dims = patch_dims(cfg)
    kinds = VIEW_MODES[cfg["train.view_mode"] if head == "cls" else "both"]
    store = tg.ParamStore()
    rng = stream(cfg["train.seed"], "init")
    for kind in kinds:
        store.add(f"stem.{kind}.w",
                  tg.Tensor(enc._glorot(rng, (dims[kind], d), np.float32),
                            requires_grad=True))
        store.add(f"stem.{kind}.b",
                  tg.Tensor(np.zeros((1, d), dtype=np.float32), requires_grad=True))
        d_last = enc.init_encoder(store, ENCODER_PREFIX[kind], d, cfg["graph.layers"],
                                  cfg["graph.heads"], rng)
    embed_len = n * d_last  # concat-pooled length of one view
    head_dims = PROJ_DIMS if head == "proj" else CLS_DIMS
    enc.init_mlp(store, head, (len(kinds) * embed_len, *head_dims), rng)
    return Model(store, kinds, n, cfg["graph.k"], clip_shape=(cfg["data.f"], cfg["data.t"]))


def _is_encoder(name):
    """Stem and graph-conv parameters: what pre-training hands to fine-tuning."""
    return name.startswith(("stem.", "enc_"))


def _restore(model, path, names):
    """Load the named parameters from a SIGC file after checking names and shapes."""
    arrays = ckpt.load_arrays(path)
    expected = {name: model.store[name].shape for name in names}
    try:
        ckpt.check_compatible(arrays, expected)
    except CheckpointError as exc:
        raise CheckpointError(f"{exc}, in {path}") from None
    model.store.load_arrays({k: arrays[k] for k in expected})


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


def _view_draws(spec, clip_ids, seed, epoch, view, rows, n, k, d):
    """The augmentation draws of one view of a batch, ``rows`` graphs of n nodes with
    k in-edges each and d features, from the one stream keyed by (seed, the batch's
    clip ids, epoch, view:segments); None when ``spec`` is None or enables nothing."""
    if spec is None or not (spec.ed_enabled or spec.gn_enabled or spec.fm_enabled):
        return None
    batch_key = hashlib.sha256("\0".join(clip_ids).encode()).hexdigest()
    rng = aug.derive_rng(seed, batch_key, epoch, view)
    return aug.sample_draws(spec, rng, rows, n * k, (n, d))


def _view_embed(model, segs, kind, clip_ids=None, spec=None, seed=0, epoch=0, seg_ids="1",
                draws=None):
    """Embed one view of a (S*B, F, T_seg) batch: (S*B, N*d_L) tensor.

    Row s*B + i is segment seg_ids[s] of clip_ids[i].  With a spec, all rows draw
    from one stream keyed by (seed, the batch's clip ids, epoch, view:segments),
    unless ``draws``, that stream's ``_view_draws`` made beforehand, are given."""
    n, k = model.n_patches, model.k_neighbors
    patches = patchify(segs, n, kind)
    b = patches.shape[0]
    p = tg.Tensor._wrap(patches.reshape(b * n, -1).astype(np.float32, copy=False), False)
    x = tg.affine(p, model.store[f"stem.{kind}.w"], model.store[f"stem.{kind}.b"])
    neighbors = neighbor_table(x.data.reshape(b, n, -1), k)
    if draws is None:
        draws = _view_draws(spec, clip_ids, seed, epoch, f"{kind}:{seg_ids}", b, n, k,
                            x.shape[1])
    keep = None
    if draws is not None:
        if draws.edge_keep is not None:
            keep = draws.edge_keep.reshape(b, n, k)
        if draws.noise is not None:
            x = tg.add(x, tg.Tensor._wrap(draws.noise.reshape(x.shape), False))
        if draws.mask is not None:
            x = tg.mul(x, tg.Tensor._wrap(draws.mask.reshape(x.shape), False))
    h = enc.run_layers(x, _block_adjacency(neighbors, keep), model.store,
                       ENCODER_PREFIX[kind])
    return enc.concat_pool(h, n)


def _embed(model, segs, *aug_key):
    """Every view in ``model.kinds`` of a (S*B, F, T_seg) batch, side by side:
    the (S*B, views*N*d_L) classifier or projection input.  ``aug_key`` is
    _view_embed's (clip_ids, spec, seed, epoch, seg_ids); without it no view is augmented.

    With a view worker attached (pre-training on two cores), ``segs`` is the
    ``_pair_halves`` batch of clip_ids.  The worker's view is requested first and
    the other view computed here; the worker's rows are then recorded as one op
    after that view's ops, so a backward pass hands the worker its gradient
    before it runs this process's share."""
    remote = model.remote
    if remote is None:
        return tg.concat([_view_embed(model, segs, kind, *aug_key) for kind in model.kinds],
                         axis=1)
    remote.request(aug_key)
    views = {kind: _view_embed(model, segs, kind, *aug_key)
             for kind in model.kinds if kind != remote.kind}
    views[remote.kind] = remote.embedding()
    return tg.concat([views[kind] for kind in model.kinds], axis=1)


def _pair_halves(mats):
    """The (2B, F, T/2) pair batch of B (F, T) clips: every clip's first half, then
    every clip's second half, as ``split_pair`` halves them, built in one copy."""
    f, t = mats[0].shape
    half = (t + 1) // 2
    out = np.empty((2, len(mats), f, half), np.result_type(*{m.dtype for m in mats}))
    np.stack([m[:, :half] for m in mats], out=out[0])
    np.stack([m[:, half:] for m in mats], out=out[1, ..., :t - half])
    if t % 2:  # an odd width repeats column 0 at the end of the second half
        np.stack([m[:, 0] for m in mats], out=out[1, ..., -1])
    return out.reshape(2 * len(mats), f, half)


def _pair_forward(model, mats, clip_ids, spec, seed, epoch):
    """Embeddings and projections (h1, h2, z1, z2) of both halves of a batch of clips."""
    h = _embed(model, _pair_halves(mats), clip_ids, spec, seed, epoch, "12")
    b = len(mats)
    return (*tg.split(h, [b, b]), *tg.split(enc.run_mlp(h, model.store, "proj"), [b, b]))


def _classify_forward(model, mats, clip_ids):
    """Logits for a (B, F, T) array or list of clips using the first clip half, no
    augmentation; an array is encoded in place.

    ``clip_ids`` is not read here: it names the batch's clips for perfbench's
    tracer, whose ``_clip_ids`` seam reads it to compute ``encoder.useful_ratio``."""
    return enc.run_mlp(_embed(model, split_pair(np.asarray(mats))[0]), model.store, "cls")


def _embedding_rows(model, chunks):
    """The (n, views*N*d_L) float32 classifier inputs of the clips of ``chunks``, in
    order: one forward per (clip ids, (B, F, T) array) chunk, as ``load_chunks``
    yields them."""
    return np.concatenate([_embed(model, split_pair(mats)[0]).data for _, mats in chunks])


# ---------------------------------------------------------------------------
# data plumbing

def strip_labels(entries):
    """Label-free view of the train split: (clip_id, path) pairs only."""
    return [(e.clip_id, e.path) for e in entries if e.split == "train"]


def load_features(items, data_dir, shape):
    """The (len(items), F, T) float32 array of the (clip_id, relative path) ``items``,
    in order; ``shape`` is the (data.f, data.t) of the model that takes them.

    Each file is read straight into its row.  A clip of another shape raises
    ConfigError as it loads, and one finiteness check covers the whole chunk, so
    the error of a bad clip is raised only once no earlier clip is non-finite:
    the first bad clip in item order is the one named."""
    data_dir = os.fspath(data_dir)  # a string join per clip costs less than a pathlib join
    mats = np.empty((len(items), *shape), np.float32)
    for i, (clip_id, rel) in enumerate(items):
        path = os.path.join(data_dir, rel)
        try:
            values = read_feature(path, mats[i])
            if values.shape != shape:
                raise ConfigError(f"corpus clips such as {clip_id!r} are {values.shape}, "
                                  f"but (data.f, data.t) is {shape}: {path}")
        except (OSError, InputError):  # an earlier non-finite clip is the first bad one
            _check_finite(mats[:i], items, data_dir)
            raise
    _check_finite(mats, items, data_dir)
    return mats


def _check_finite(mats, items, data_dir):
    """Raise FormatError naming the first clip whose row of ``mats`` is not finite."""
    finite = np.isfinite(mats)
    if not finite.all():
        first = int(np.argmin(finite.reshape(len(mats), -1).all(axis=1)))
        path = os.path.join(data_dir, items[first][1])
        raise FormatError(f"{path}: non-finite values") from None


def load_chunks(items, data_dir, shape):
    """(clip ids, load_features array) for each EVAL_BATCH chunk of ``items``."""
    for chunk in _batches(items, EVAL_BATCH):
        yield [clip_id for clip_id, _ in chunk], load_features(chunk, data_dir, shape)


def load_split(items, data_dir, shape):
    """clip_id -> F x T matrix of every item, read by ``load_chunks``: each matrix is a
    row of its chunk's array, so no array larger than a chunk is allocated."""
    return {clip_id: row for ids, mats in load_chunks(items, data_dir, shape)
            for clip_id, row in zip(ids, mats)}


def _check_both_labels(entries, split):
    """Raise ConfigError unless ``entries`` hold both labels, as ``split``'s EER needs."""
    missing = [label for label in LABELS if label not in {e.label for e in entries}]
    if missing:
        raise ConfigError(f"split {split!r} holds no {missing[0]!r} clips, but its EER needs both")


def _batches(ids, batch_size):
    for i in range(0, len(ids), batch_size):
        yield ids[i:i + batch_size]


def _epoch_batches(cfg, ids, epoch):
    """The batches ``_fit`` steps through in ``epoch``: ``ids`` in that epoch's seeded
    order, cut into train.batch_size runs."""
    perm = stream(cfg["train.seed"], "order", epoch).permutation(len(ids))
    return list(_batches([ids[i] for i in perm], cfg["train.batch_size"]))


def _abort_diagnostics(model, what):
    norms = {name: float(np.linalg.norm(a)) for name, a in model.store.state_arrays().items()}
    worst = sorted(norms, key=norms.get, reverse=True)[:5]
    detail = ", ".join(f"{n}={norms[n]:.3g}" for n in worst)
    return f"non-finite {what}; largest param norms: {detail}"


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

@np.errstate(over="ignore", invalid="ignore")  # a non-finite loss or dev metric stops the run
def _fit(model, cfg, train_ids, batch_loss, dev_metric, ckpt_path, trace_path):
    """The epoch loop of both phases: shuffle, Adam steps, early stop, save.

    ``batch_loss(batch, epoch)`` builds one batch's scalar loss on the open
    tape.  ``dev_metric()`` scores the model after each epoch; without one
    the epoch's mean train loss stands in.  Each epoch's trace row is
    appended to ``trace_path`` as soon as the epoch ends, so an interrupted
    run keeps the epochs it finished.  The best epoch's parameters are saved to
    ``ckpt_path``.  Returns (ckpt_path, trace, best dev metric).
    """
    stopper = _EarlyStopper(cfg["train.patience"])
    trace = []
    trace_path.write_text("")
    for epoch in range(1, cfg["train.epochs"] + 1):
        t0 = time.monotonic()
        losses = []
        for batch_idx, batch in enumerate(_epoch_batches(cfg, train_ids, epoch)):
            with tg.Tape() as tape:
                loss = batch_loss(batch, epoch)
                if not np.isfinite(loss.data):
                    raise RuntimeError(
                        _abort_diagnostics(model, f"loss at epoch {epoch}, batch {batch_idx}"))
                tape.backward(loss)
            tg.adam_step(model.store, cfg["train.lr"])
            losses.append(float(loss.data))
        train_loss = float(np.mean(losses))
        metric = train_loss if dev_metric is None else dev_metric()
        if not math.isfinite(metric):  # diverged: NaN would pass as a stale epoch
            raise RuntimeError(_abort_diagnostics(model, f"dev metric at epoch {epoch}"))
        trace.append({"epoch": epoch, "train_loss": train_loss, "dev_metric": metric,
                      "seconds": round(time.monotonic() - t0, 3)})
        with open(trace_path, "a") as fh:
            fh.write(json.dumps(trace[-1]) + "\n")
        if stopper.update(metric, model.store):
            break
    stopper.restore(model.store)
    ckpt.save_arrays(model.store.state_arrays(), ckpt_path)
    return ckpt_path, trace, stopper.best


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
    model = build_model(cfg, head="proj")
    feats = load_split(clips, data_dir, model.clip_shape)
    ids = [cid for cid, _ in clips]

    order = stream(seed, "holdout").permutation(len(ids))
    n_dev = max(1, int(round(DEV_HOLDOUT * len(ids)))) if len(ids) > 1 else 0
    dev_ids = [ids[i] for i in order[:n_dev]]
    train_ids = [ids[i] for i in order[n_dev:]] or ids

    def batch_loss(batch, epoch):
        _, _, z1, z2 = _pair_forward(model, [feats[c] for c in batch], batch, spec, seed, epoch)
        return tg.scale(metrics.alignment_loss(z1, z2, tau), 1.0 / len(batch))

    def dev_loss():
        """Mean per-pair alignment loss on held-out clips, unaugmented."""
        total = 0.0
        for batch in _batches(dev_ids, EVAL_BATCH):
            _, _, z1, z2 = _pair_forward(model, [feats[c] for c in batch], batch, None, 0, 0)
            total += float(metrics.alignment_loss(z1, z2, tau).data)
        return total / len(dev_ids)

    # _fit's training keys, epoch after epoch: the worker prepares each in turn
    keys = ((batch, spec, seed, epoch, "12") for epoch in itertools.count(1)
            for batch in _epoch_batches(cfg, train_ids, epoch))
    # projection-head entries ship under proj.* and are ignored downstream
    with _ViewWorker(model, feats, cfg["train.lr"], keys) \
            if dev_ids and forking.second_core_free() else contextlib.nullcontext():
        path, trace, _ = _fit(model, cfg, train_ids, batch_loss, dev_loss if dev_ids else None,
                              out_dir / "pretrained.sigc", out_dir / "pretrain_trace.jsonl")
    return path, trace


# ---------------------------------------------------------------------------
# pre-training's temporal view in a forked worker

def _prepare(feats, aug_key, kind, n, k, d):
    """The part of an embedding of view ``kind`` of the batch ``aug_key`` that reads
    no parameter: the ``_pair_halves`` batch and the ``_view_draws``."""
    clip_ids, spec, seed, epoch, seg_ids = aug_key
    segs = _pair_halves([feats[c] for c in clip_ids])
    return segs, _view_draws(spec, clip_ids, seed, epoch, f"{kind}:{seg_ids}", len(segs),
                             n, k, d)


@np.errstate(over="ignore", invalid="ignore")  # _fit stops a run whose loss is not finite
def _train_view(model, feats, lr, kind, owned, keys, conn):
    """The worker's loop, until this process's end of ``conn`` closes.  It embeds
    view ``kind`` of the ``_pair_halves`` batch of each requested batch of clips,
    on a tape when the request is recorded, and sends the rows with its ``owned``
    parameters' values; a gradient sent for the last embedding is back-propagated
    and followed by an Adam step.

    After a recorded request's rows are sent, while this process waits for their
    gradient, it prepares the batch of ``next(keys)``: ``keys`` yields the ``_embed``
    key of every training batch in ``_fit``'s order, and the run's first batch is
    asked for before any is prepared.  A request with the prepared batch's whole key
    takes it; any other request, such as a dev batch, computes its own and keeps it.
    A guess that goes unasked (an early stop, the run's last batch) changes no bit."""
    n, k, d = model.n_patches, model.k_neighbors, model.store[f"stem.{kind}.w"].shape[1]
    tape = rows = None
    next(keys)  # the run's first batch, which nothing prepares
    prepared = (None, None, None)  # (key, segs, draws) of the batch expected next
    while True:
        try:
            op, arg = conn.recv()
        except EOFError:
            return
        if op == "embed":
            aug_key, recording = arg
            if prepared[0] == aug_key:
                _, segs, draws = prepared
            else:
                segs, draws = _pair_halves([feats[c] for c in aug_key[0]]), None
            with tg.Tape() if recording else contextlib.nullcontext() as tape:
                rows = _view_embed(model, segs, kind, *aug_key, draws)
            conn.send(("rows", (rows.data, {name: model.store[name].data for name in owned})))
            if recording:
                key = next(keys)
                prepared = (key, *_prepare(feats, key, kind, n, k, d))
        else:  # "grad"
            tape.backward(rows, arg)
            tg.adam_step(model.store, lr)


class _ViewWorker(forking.Child):
    """A forked worker that trains the temporal view of a pre-training ``model`` on
    the clip matrices ``feats`` (clip_id -> F x T), attached to the model until
    the block ends.

    The worker owns the temporal stem and graph-conv layers; this process keeps
    the spatial view, the projection head and the loss.  Each side's Adam step
    sees only its own parameters, and both take one per step, so every value
    keeps the bits of one process.  Each embedding brings the worker's values
    with its rows, so once a batch is embedded this process holds every
    parameter as of the worker's last step.  ``_fit`` reads the whole store only
    at such points: the abort message after a batch's forward pass, and the
    snapshot, restore and save after a dev pass, which follows every epoch's last
    step once ``pretrain`` forks only with dev clips.  ``keys`` iterates over the
    ``_embed`` keys of ``_fit``'s training batches in order: from it the worker reads
    the next training batch, which it prepares while this process computes the
    projection head and the loss (see ``_train_view``).  Its lifecycle is
    ``forking.Child``'s: an error it raises is raised by the next call that waits
    for it, and it is reaped before the block ends."""

    def __init__(self, model, feats, lr, keys):
        kind = "temporal"
        owned = [name for name in model.store.names()  # its stem and graph-conv layers
                 if name.startswith((f"stem.{kind}.", f"{ENCODER_PREFIX[kind]}."))]

        def work(conn):
            for name, t in model.store.items():
                t.requires_grad = name in owned
            _train_view(model, feats, lr, kind, owned, keys, conn)

        super().__init__(f"{kind} view worker", work)
        self.model, self.kind, self.owned = model, kind, owned
        for name in owned:
            model.store[name].requires_grad = False
        model.remote = self

    def __exit__(self, *exc):
        self.model.remote = None
        for name in self.owned:
            self.model.store[name].requires_grad = True
        super().__exit__(*exc)

    def request(self, aug_key):
        """Ask for the worker's view of a batch, on a tape if this process records."""
        self.send(("embed", (aug_key, tg.recording())))

    def embedding(self):
        """The requested rows, as a tensor whose gradient goes to the worker; the
        worker's parameter values that came with them are loaded first."""
        rows, params = self.recv()
        self.model.store.load_arrays(params)
        return tg.external(rows, lambda g: self.send(("grad", g)))


def finetune(cfg, entries, data_dir, out_dir, checkpoint_path=None):
    """Algorithm-2 downstream training with limited labels.

    Returns (model_checkpoint_path, trace, dev_eer_of_best).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = cfg["train.seed"]
    if not cfg["train.skip_pretrain"] and checkpoint_path is None:
        raise ConfigError("fine-tuning needs a pre-trained checkpoint "
                          "(or train.skip_pretrain = true)")
    if cfg["train.skip_pretrain"] and checkpoint_path is not None:
        raise ConfigError(f"train.skip_pretrain = true, yet a checkpoint was given: "
                          f"{checkpoint_path}")
    model = build_model(cfg, head="cls")
    encoder_names = [name for name in model.store.names() if _is_encoder(name)]
    if checkpoint_path is not None:
        _restore(model, checkpoint_path, encoder_names)
    if cfg["train.freeze_encoders"]:
        for name in encoder_names:
            model.store[name].requires_grad = False

    labeled = sample_limited_labels(entries, cfg["train.label_fraction"], seed)
    train_entries = [e for e in labeled if e.split == "train"]
    dev_entries = [e for e in labeled if e.split == "dev"]
    if not train_entries:
        raise ConfigError("fine-tuning requires labeled train entries")
    if not dev_entries:
        raise ConfigError("fine-tuning requires labeled dev entries")
    _check_both_labels(dev_entries, "dev")
    used = train_entries + dev_entries  # the eval split is never read here
    items = [(e.clip_id, e.path) for e in used]
    labels = {e.clip_id: 1 if e.label == "bonafide" else 0 for e in used}
    # a frozen encoder's embedding of a clip never changes: encode each clip once,
    # into one matrix whose rows each batch picks
    rows = feats = None
    if cfg["train.freeze_encoders"]:
        rows = _embedding_rows(model, load_chunks(items, data_dir, model.clip_shape))
        row_of = {clip_id: i for i, (clip_id, _) in enumerate(items)}
    else:
        feats = load_split(items, data_dir, model.clip_shape)

    def logits(ids):
        if rows is None:
            return _classify_forward(model, [feats[c] for c in ids], ids)
        return enc.run_mlp(tg.Tensor._wrap(rows[[row_of[c] for c in ids]], False),
                           model.store, "cls")

    def batch_loss(batch, epoch):
        return metrics.cross_entropy(logits(batch), [labels[c] for c in batch])

    def dev_eer():
        scores = score_entries(dev_entries, logits)
        if not all(math.isfinite(score) for _, score, _ in scores.entries):
            return math.nan  # diverged: _fit names the largest parameter norms
        return metrics.compute_eer(scores).eer

    return _fit(model, cfg, [e.clip_id for e in train_entries], batch_loss,
                dev_eer, out_dir / "model.sigc", out_dir / "finetune_trace.jsonl")


def score_entries(entries, logits):
    """Bona-fide probabilities of entries; ``logits(clip_ids)`` gives one batch's logits."""
    scores = []
    for batch in _batches(entries, EVAL_BATCH):
        probs = enc.softmax_np(logits([e.clip_id for e in batch]).data)[:, 1]  # class 1 = bona fide
        scores.extend((e.clip_id, float(p), e.label) for e, p in zip(batch, probs))
    return metrics.ScoreSet(scores)


def evaluate(model, entries, data_dir):
    """Bona-fide probabilities + EER on the eval split.

    Clips are read into one (B, F, T) array, checked and scored one EVAL_BATCH
    chunk at a time.  With at least FORK_MIN_CHUNKS chunks and a second core free
    (see ``forking.second_core_free``), this process scores the first n_chunks // 2
    chunks while a forked child, on another CPU, scores the second half of the
    chunks; otherwise this process scores every chunk.  A fork has a fixed cost
    (page tables, copy-on-write faults on each side's first chunk, the child's
    exit), so a short split is scored faster in one process.  Desk-shape
    (64 x 64) evaluates in a process that had pre-trained, on 2 CPUs, 10
    alternating pairs, each side the median of 15 calls:

        chunks   one process   forked    forked won
           4       12.4 ms     15.5 ms    1 of 10
           6       19.1 ms     18.9 ms    6 of 10
           8       25.7 ms     24.3 ms    7 of 10
          11       33.2 ms     29.6 ms    9 of 10

    (medians over the pairs).  At 6 chunks the two tie; from 8 the fork is
    ahead, so FORK_MIN_CHUNKS is 8.  Memory holds one chunk of features per
    process whatever the size of the eval split, and every chunk holds the same
    clips, so the scores keep their bits.  The first failing chunk in split order
    raises its error, as in one process: an error in this process's half raises
    at once and kills the child."""
    rows = [e for e in entries if e.split == "eval"]
    _check_both_labels(rows, "eval")
    paths = {e.clip_id: e.path for e in rows}

    def logits(ids):
        mats = load_features([(c, paths[c]) for c in ids], data_dir, model.clip_shape)
        return _classify_forward(model, mats, ids)

    n_chunks = math.ceil(len(rows) / EVAL_BATCH)
    cut = len(rows)  # this process scores rows[:cut], the second scorer the rest
    if n_chunks >= FORK_MIN_CHUNKS and forking.second_core_free():
        cut = n_chunks // 2 * EVAL_BATCH
    back = rows[cut:]
    with forking.Child("second eval scorer",
                lambda conn: [p for _, p, _ in score_entries(back, logits).entries]) \
            if back else contextlib.nullcontext() as child:
        scores = score_entries(rows[:cut], logits).entries
        if child:
            scores += [(e.clip_id, p, e.label) for e, p in zip(back, child.recv())]
    score_set = metrics.ScoreSet(scores)
    return score_set, metrics.compute_eer(score_set)


def load_model(cfg, checkpoint_path, head="cls"):
    """Model with all parameters restored from a SIGC file."""
    model = build_model(cfg, head=head)
    _restore(model, checkpoint_path, model.store.names())
    return model


@dataclass
class PipelineRun:
    """What one ``run_pipeline`` call made; the pretrain fields are None without one."""
    pre_path: Path | None
    pre_trace: list | None
    model_path: Path
    ft_trace: list
    dev_eer: float
    eval_eer: float


def run_pipeline(pre_cfg, ft_cfg, entries, data_dir, out_dir):
    """One whole run: pretrain on the label-stripped train split (unless ``pre_cfg``
    is None, the ``train.skip_pretrain`` arm), fine-tune from that checkpoint, reload
    the classifier and evaluate it.  Every stage writes its files to ``out_dir``."""
    pre_path = pre_trace = None
    if pre_cfg is not None:
        pre_path, pre_trace = pretrain(pre_cfg, strip_labels(entries), data_dir, out_dir)
    model_path, ft_trace, dev_eer = finetune(ft_cfg, entries, data_dir, out_dir, pre_path)
    _, report = evaluate(load_model(ft_cfg, model_path, head="cls"), entries, data_dir)
    return PipelineRun(pre_path, pre_trace, model_path, ft_trace, dev_eer, report.eer)


def collapse_pair_forward(model):
    """Callable for metrics.collapse_report: clip matrix -> (h1, h2, z1, z2)."""
    def forward(sample):
        clip_id, values = sample
        return tuple(t.data[0] for t in _pair_forward(model, [values], [clip_id], None, 0, 0))
    return forward
