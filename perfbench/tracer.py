"""In-memory span tracer that wraps signl functions from outside the package.

A seam names a function reachable as a ``signl`` module attribute
(``"featio.read_feature"``) or class attribute
(``"tensorgrad.Tape.backward"``).  While a tracer is installed, each call
through a seam records a span: name, start, end, the index of the span
that was open when it started, and optional attributes.  Spans stay in
memory until the caller writes them out.

The wrapper replaces the function everywhere a ``signl`` module binds it
by name (``train`` imports ``read_feature`` from ``featio``, for
example), and the originals come back when the tracer is uninstalled.
A seam whose target no longer exists is listed in ``absent`` and skipped,
so the benchmark keeps running while the package is refactored.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

PACKAGE = "signl"


@dataclass(frozen=True)
class Seam:
    target: str                      # "module.attr" or "module.Class.attr" under signl
    scope: str = "op"                # root span kind ("op" or "setup") it reports under
    name: Callable | None = None     # (args, open_span_name) -> span name
    attrs: Callable | None = None    # (args, result) -> dict stored on the span
    peak_memory: bool = False        # store the tracemalloc peak as attrs["peak_mb"]


def _gc_width(args, parent):
    return f"encoder.vision_gc_layer.d{args[0].shape[1]}"


def _mlp_prefix(args, parent):
    return f"encoder.run_mlp.{args[2]}"


def _affine_role(args, parent):
    # the stem is every affine map that is not a layer of an MLP head
    if parent is not None and parent.startswith("encoder.run_mlp."):
        return "tensorgrad.affine.mlp"
    return "stem"


def _density(args, result):
    return {"nnz": int(np.count_nonzero(result)), "entries": int(result.size)}


def _clip_ids(args, result):
    return {"clips": list(args[2])}


SEAMS = (
    Seam("featio.gen_synthetic", scope="setup"),
    Seam("featio.read_feature"),
    Seam("graphbuild.split_pair"),
    Seam("graphbuild.neighbor_table"),
    Seam("train.pretrain"),
    Seam("train.finetune"),
    Seam("train.evaluate"),
    Seam("train.load_model"),
    Seam("train._pair_forward", attrs=_clip_ids),
    Seam("train._classify_forward", attrs=_clip_ids),
    Seam("train._view_embed"),
    Seam("train._stacked_patches"),
    Seam("train._block_adjacency", attrs=_density),
    Seam("augment.derive_rng"),
    Seam("augment.sample_draws"),
    Seam("encoder.vision_gc_layer", name=_gc_width),
    Seam("encoder.run_mlp", name=_mlp_prefix),
    Seam("tensorgrad.affine", name=_affine_role),
    Seam("tensorgrad.Tape.backward"),
    Seam("tensorgrad.adam_step"),
    Seam("metrics.alignment_loss"),
    Seam("metrics.cross_entropy"),
    Seam("metrics.compute_eer", peak_memory=True),
    Seam("checkpoint.save_arrays"),
    Seam("checkpoint.load_arrays"),
)


def _resolve(target):
    """(owner, attribute, function) for a seam target, or None if it is gone."""
    parts = target.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{parts[0]}")
        for part in parts[1:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1], getattr(owner, parts[-1])
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Records spans for calls through the seams while installed."""

    def __init__(self, seams=SEAMS):
        self.seams = tuple(seams)
        self.spans = []      # [name, start, end, parent index or None, attrs or None]
        self.absent = []     # seam targets that could not be resolved
        self.degraded = set()  # seams whose naming or attributes failed on a call
        self._stack = []
        self._patches = []

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, e.g. one operation's root."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def installed(self, scope):
        """Wrap the seams of one scope for the duration of the block."""
        self._install(scope)
        try:
            yield self
        finally:
            self._uninstall()

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _install(self, scope):
        for seam in self.seams:
            if seam.scope != scope:
                continue
            found = _resolve(seam.target)
            if found is None:
                if seam.target not in self.absent:
                    self.absent.append(seam.target)
                continue
            owner, attr, original = found
            wrapper = self._wrap(seam, original)
            self._patch(owner, attr, original, wrapper)
            if isinstance(owner, type):
                continue
            # also rebind names imported with ``from module import fn``
            for mod_name, module in list(sys.modules.items()):
                if module is owner or not mod_name.startswith(PACKAGE):
                    continue
                for other_attr, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, other_attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, seam, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = seam.target
            if seam.name is not None:
                parent = tracer.spans[tracer._stack[-1]][0] if tracer._stack else None
                try:
                    name = seam.name(args, parent)
                except (IndexError, AttributeError, TypeError):
                    tracer.degraded.add(seam.target)
            idx = tracer._open(name)
            if seam.peak_memory:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if seam.peak_memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._close(idx)
            attrs = {"peak_mb": peak / 1e6} if seam.peak_memory else {}
            if seam.attrs is not None:
                try:
                    attrs.update(seam.attrs(args, result))
                except (IndexError, AttributeError, TypeError):
                    tracer.degraded.add(seam.target)
            if attrs:
                tracer.spans[idx][4] = attrs
            return result

        return wrapper


# ---------------------------------------------------------------------------
# aggregation

# span names reported as per-layer metrics, each with calls, busy_s and self_s
LAYERS = (
    "featio.gen_synthetic",
    "featio.read_feature",
    "graphbuild.split_pair",
    "graphbuild.neighbor_table",
    "train.pretrain",
    "train.finetune",
    "train.evaluate",
    "train.load_model",
    "train._pair_forward",
    "train._classify_forward",
    "train._view_embed",
    "train._stacked_patches",
    "train._block_adjacency",
    "augment.derive_rng",
    "augment.sample_draws",
    "encoder.vision_gc_layer.d32",
    "encoder.vision_gc_layer.d16",
    "encoder.vision_gc_layer.d8",
    "encoder.vision_gc_layer.d4",
    "encoder.vision_gc_layer.d2",
    "encoder.run_mlp.proj",
    "encoder.run_mlp.cls",
    "stem",
    "tensorgrad.Tape.backward",
    "tensorgrad.adam_step",
    "metrics.alignment_loss",
    "metrics.cross_entropy",
    "metrics.compute_eer",
    "checkpoint.save_arrays",
    "checkpoint.load_arrays",
)
SETUP_LAYERS = tuple(seam.target for seam in SEAMS if seam.scope == "setup")
OP_ROOT = "bench.op"
SETUP_ROOT = "bench.setup"


def _roots(spans):
    """Index of the outermost ancestor of every span."""
    roots = []
    for _, _, _, parent, _ in spans:
        roots.append(len(roots) if parent is None else roots[parent])
    return roots


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _share(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans):
    """Per-layer metrics from the spans of traced set-ups and operations.

    calls, busy_s and self_s are means per root: per set-up for set-up
    layers, per measured operation for the rest.
    """
    roots = _roots(spans)
    own = self_times(spans)
    n_roots = {OP_ROOT: 0, SETUP_ROOT: 0}
    for name, _, _, parent, _ in spans:
        if parent is None and name in n_roots:
            n_roots[name] += 1
    totals = {}
    under_op = []
    for i, (name, start, end, _, _) in enumerate(spans):
        root = spans[roots[i]][0]
        if root == OP_ROOT:
            under_op.append(i)
        row = totals.setdefault((root, name), [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += own[i]

    metrics = {}
    for layer in LAYERS:
        root = SETUP_ROOT if layer in SETUP_LAYERS else OP_ROOT
        calls, busy, self_s = totals.get((root, layer), (0, 0.0, 0.0))
        per = max(1, n_roots[root])
        metrics[f"{layer}.calls"] = (calls / per, "count")
        metrics[f"{layer}.busy_s"] = (busy / per, "s")
        metrics[f"{layer}.self_s"] = (self_s / per, "s")

    nnz = entries = 0
    peak_mb = 0.0
    gaps_ms = {"train.pretrain": [], "train.finetune": []}
    last_step = {}
    clips_by_op = {}
    for i in under_op:
        name, start, _, parent, attrs = spans[i]
        if name == "train._block_adjacency" and attrs:
            nnz += attrs["nnz"]
            entries += attrs["entries"]
        elif name == "metrics.compute_eer" and attrs:
            peak_mb = max(peak_mb, attrs["peak_mb"])
        elif name == "tensorgrad.adam_step" and parent is not None and spans[parent][0] in gaps_ms:
            # spacing between optimiser steps of one training call
            if parent in last_step:
                gaps_ms[spans[parent][0]].append(1e3 * (start - last_step[parent]))
            last_step[parent] = start
        elif name in ("train._pair_forward", "train._classify_forward") and attrs:
            clips_by_op.setdefault(roots[i], []).extend(attrs["clips"])
    distinct = sum(len(set(c)) for c in clips_by_op.values())
    encoded = sum(len(c) for c in clips_by_op.values())
    pre_busy = totals.get((OP_ROOT, "train.pretrain"), (0, 0.0, 0.0))
    op_busy = totals.get((OP_ROOT, OP_ROOT), (0, 0.0, 0.0))
    metrics.update({
        "train._block_adjacency.density": (_share(nnz, entries), "ratio"),
        "encoder.useful_ratio": (_share(distinct, encoded), "ratio"),
        "metrics.compute_eer.peak_mb": (peak_mb, "MB"),
        "train.pretrain.uncovered_share": (_share(pre_busy[2], pre_busy[1]), "ratio"),
        "bench.op.uncovered_share": (_share(op_busy[2], op_busy[1]), "ratio"),
    })
    for phase, gaps in gaps_ms.items():
        p50, p90 = np.percentile(gaps, [50, 90]) if gaps else (0.0, 0.0)
        metrics[f"{phase}.step_ms.p50"] = (float(p50), "ms")
        metrics[f"{phase}.step_ms.p90"] = (float(p90), "ms")
    return metrics


def write_spans(spans, path):
    """One JSON object per span: index, name, start, end, parent, attrs."""
    with open(path, "w") as fh:
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            row = {"i": i, "name": name, "start": start, "end": end, "parent": parent}
            if attrs:
                row["attrs"] = {k: v for k, v in attrs.items() if k != "clips"}
            fh.write(json.dumps(row) + "\n")
