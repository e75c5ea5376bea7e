"""Stochastic graph augmentations: edge dropping, Gaussian noise, feature masking.

All randomness comes from externally derived streams so that runs are
reproducible.  Application order is fixed: ED -> GN -> FM.  Training draws a
whole batch view's augmentations from one ``derive_rng`` stream with
``sample_draws``, so a clip's draws depend on its batch, whose order is itself
a seeded function of (seed, epoch).  ``edge_drop``, ``gaussian_noise`` and
``feature_mask`` are its single-transform B=1 views on one graph, so chaining
them over one stream reproduces the draws of a full spec on one graph.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .graphbuild import GraphView
from .seeding import stream


@dataclass
class AugmentSpec:
    ed_enabled: bool = False
    gn_enabled: bool = False
    fm_enabled: bool = False
    ed_prob: float = 0.5
    gn_sigma: float = 0.1
    fm_prob: float = 0.5

    @classmethod
    def from_config(cls, cfg):
        return cls(cfg["aug.ed"], cfg["aug.gn"], cfg["aug.fm"],
                   cfg["aug.ed_prob"], cfg["aug.gn_sigma"], cfg["aug.fm_prob"])

    def validate(self):
        for p in (self.ed_prob, self.fm_prob):
            if not 0 <= p <= 1:
                raise ConfigError("augmentation probabilities must be in [0, 1]")
        if not (np.isfinite(self.gn_sigma) and self.gn_sigma >= 0):
            raise ConfigError("gn_sigma must be finite and non-negative")


# Ablation grid: every enable/disable combination of (ED, GN, FM).
GRID = [
    ("SIGNL-1", False, False, False),
    ("SIGNL-2", False, False, True),
    ("SIGNL-3", False, True, False),
    ("SIGNL-4", False, True, True),
    ("SIGNL-5", True, False, False),
    ("SIGNL-6", True, False, True),
    ("SIGNL-7", True, True, False),
    ("SIGNL-8", True, True, True),
]


@dataclass
class AugmentDraws:
    edge_keep: np.ndarray | None    # B x E bool per edge
    noise: np.ndarray | None        # B x N x D additive noise
    mask: np.ndarray | None         # B x N x D multiplicative 0/1 mask


def derive_rng(global_seed, batch_key, epoch, view_tag):
    """The augmentation stream of one (batch, epoch, view:segments)."""
    return stream(global_seed, batch_key, epoch, view_tag)


def sample_draws(spec: AugmentSpec, rng, b, n_edges, feat_shape) -> AugmentDraws:
    """Draw b graphs' augmentations from one stream, each enabled transform as one
    (b, ...) array, in fixed ED -> GN -> FM order."""
    keep = rng.random((b, n_edges)) >= spec.ed_prob if spec.ed_enabled else None
    noise = spec.gn_sigma * rng.standard_normal((b, *feat_shape)) if spec.gn_enabled else None
    mask = rng.random((b, *feat_shape)) >= spec.fm_prob if spec.fm_enabled else None
    return AugmentDraws(keep,
                        None if noise is None else noise.astype(np.float32),
                        None if mask is None else mask.astype(np.float32))


def _draw(rng, g: GraphView, **spec_fields) -> AugmentDraws:
    spec = AugmentSpec(**spec_fields)
    spec.validate()
    return sample_draws(spec, rng, 1, len(g.edges), g.x.shape)


def edge_drop(g: GraphView, p, rng) -> GraphView:
    keep = _draw(rng, g, ed_enabled=True, ed_prob=p).edge_keep[0]
    return replace(g, edges=[e for e, k in zip(g.edges, keep) if k])


def gaussian_noise(g: GraphView, sigma, rng) -> GraphView:
    return replace(g, x=g.x + _draw(rng, g, gn_enabled=True, gn_sigma=sigma).noise[0])


def feature_mask(g: GraphView, p, rng) -> GraphView:
    return replace(g, x=g.x * _draw(rng, g, fm_enabled=True, fm_prob=p).mask[0])
