"""Losses, cosine similarity, EER computation, and collapse diagnostics."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import tensorgrad as tg
from .errors import ConfigError, ContractError, NumericGuardError, ShapeError


@dataclass
class ScoreSet:
    """Per-clip detection scores; higher score means more bona fide."""
    entries: list  # (clip_id, score, label)

    def arrays(self):
        scores = np.array([s for _, s, _ in self.entries], dtype=np.float64)
        is_bona = np.array([lab == "bonafide" for _, _, lab in self.entries])
        return scores, is_bona

    def to_jsonl(self, path):
        with open(path, "w") as fh:
            for clip_id, score, label in self.entries:
                fh.write(json.dumps({"clip_id": clip_id, "score": float(score),
                                     "label": label}) + "\n")


@dataclass
class EERReport:
    eer: float
    threshold: float
    far_curve: np.ndarray
    frr_curve: np.ndarray
    thresholds: np.ndarray
    n_bonafide: int
    n_fake: int

    def to_json(self):
        return json.dumps({"eer": self.eer, "threshold": self.threshold,
                           "n_bonafide": self.n_bonafide, "n_fake": self.n_fake})


# ---------------------------------------------------------------------------
# differentiable pieces

def cosine_similarity(z1: tg.Tensor, z2: tg.Tensor) -> tg.Tensor:
    """Row-wise cosine similarity of two B x d tensors -> B x 1 (differentiable)."""
    if z1.shape != z2.shape:
        raise ShapeError(f"cosine shapes disagree: {z1.shape} vs {z2.shape}")
    dot = tg.tsum(tg.mul(z1, z2), axis=1)
    n1 = tg.tsum(tg.mul(z1, z1), axis=1)
    n2 = tg.tsum(tg.mul(z2, z2), axis=1)
    if np.any(n1.data <= 0) or np.any(n2.data <= 0):
        raise NumericGuardError("cosine similarity of a zero vector")
    return tg.mul(dot, tg.reciprocal(tg.mul(tg.sqrt(n1), tg.sqrt(n2))))


def alignment_loss(z1: tg.Tensor, z2: tg.Tensor, temperature: float) -> tg.Tensor:
    """Negative temperature-scaled cosine similarity summed over the batch."""
    if temperature <= 0:
        raise ConfigError("temperature must be positive")
    return tg.scale(tg.tsum(cosine_similarity(z1, z2)), -1.0 / temperature)


def cross_entropy(logits: tg.Tensor, labels) -> tg.Tensor:
    """Mean softmax + NLL over 2 classes, stabilised by max subtraction."""
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    b, c = logits.shape
    if labels.shape[0] != b:
        raise ShapeError("label count does not match logit rows")
    onehot = np.zeros((b, c), dtype=logits.dtype)
    onehot[np.arange(b), labels] = 1.0
    nll = tg.scale(tg.tsum(tg.mul(tg.Tensor._wrap(onehot, False), tg.log_softmax(logits))), -1.0)
    return tg.scale(nll, 1.0 / b)


def cosine_np(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    num = (a * b).sum(axis=-1)
    return num / (np.linalg.norm(a, axis=-1) * np.linalg.norm(b, axis=-1))


# ---------------------------------------------------------------------------
# EER

def compute_eer(s: ScoreSet) -> EERReport:
    """EER by threshold sweep over distinct scores with +-inf sentinels.

    FAR(t) = fraction of fake scores >= t (non-increasing in t);
    FRR(t) = fraction of bona fide scores < t (non-decreasing).  When no
    candidate threshold gives FAR == FRR exactly, the two piecewise-linear
    curves are interpolated between the adjacent operating points.
    """
    scores, is_bona = s.arrays()
    n_bona = int(is_bona.sum())
    n_fake = int(len(scores) - n_bona)
    if n_bona == 0 or n_fake == 0:
        raise ContractError("EER needs at least one score of each label")
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        clip_id, score, _ = s.entries[bad[0]]
        raise ContractError(f"EER needs finite scores; {clip_id!r} scored {score}")
    bona = np.sort(scores[is_bona])
    fake = np.sort(scores[~is_bona])
    cand = np.concatenate(([-np.inf], np.unique(scores), [np.inf]))
    # counts of fake >= t and bona < t for every t by one sorted sweep, O(n log n)
    far = (n_fake - np.searchsorted(fake, cand, side="left")) / n_fake
    frr = np.searchsorted(bona, cand, side="left") / n_bona
    diff = far - frr  # non-increasing, +1 at -inf, -1 at +inf
    exact = np.nonzero(diff == 0)[0]
    if exact.size:
        k = int(exact[0])
        eer, thr = float(far[k]), float(cand[k])
    else:
        k = int(np.nonzero(diff < 0)[0][0]) - 1
        t = diff[k] / (diff[k] - diff[k + 1])
        eer = float(far[k] + t * (far[k + 1] - far[k]))
        lo = cand[k] if np.isfinite(cand[k]) else cand[k + 1]
        hi = cand[k + 1] if np.isfinite(cand[k + 1]) else cand[k]
        thr = float(lo + t * (hi - lo))
    return EERReport(eer=eer, threshold=thr, far_curve=far, frr_curve=frr,
                     thresholds=cand, n_bonafide=n_bona, n_fake=n_fake)


# ---------------------------------------------------------------------------
# collapse diagnostics

def collapse_report(pair_forward, samples):
    """Mean pair similarity before and after the projection head.

    ``pair_forward(sample)`` must return (h1, h2, z1, z2) numpy vectors for
    one positive pair: concatenated graph embeddings and projections.
    """
    before, after = [], []
    for sample in samples:
        h1, h2, z1, z2 = pair_forward(sample)
        before.append(float(cosine_np(h1, h2)))
        after.append(float(cosine_np(z1, z2)))
    report = {"before": float(np.mean(before)), "after": float(np.mean(after)),
              "n_pairs": len(before)}
    return report
