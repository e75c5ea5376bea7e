"""Shared fixtures: a tiny synthetic corpus and matching configs."""

import os

import numpy as np
import pytest
from hypothesis import strategies as st

from signl import config as cfgmod
from signl import encoder, featio, forking, train


@pytest.fixture(scope="session")
def tiny_corpus(tmp_path_factory):
    """Small corpus (40/10/20 clips, F=T=32) reused across test modules."""
    root = tmp_path_factory.mktemp("tiny-corpus")
    cfg = featio.SynthConfig(F=32, T=32,
                             n_per_split={"train": 40, "dev": 10, "eval": 20},
                             n_attack_types=3, artifact_strength=1.0, seed=11)
    entries = featio.gen_synthetic(cfg, root)
    return root, entries


@pytest.fixture
def tiny_cfg(tiny_corpus):
    root, _ = tiny_corpus
    cfg = cfgmod.defaults()
    cfg.update({"data.dir": str(root), "data.f": 32, "data.t": 32,
                "train.epochs": 2, "train.batch_size": 16, "train.seed": 11})
    return cfg


_FORK = os.fork


def _no_fork():
    raise AssertionError("the one-process path forked")


@pytest.fixture
def force_processes(monkeypatch):
    """Force ``featio.gen_synthetic``, ``train.pretrain`` and ``train.evaluate`` onto
    1 or 2 processes through their one probe, ``forking.second_core_free``: with 2,
    gen_synthetic forks its corpus writer, pretrain its temporal-view worker and
    evaluate its second scorer, for which 2 chunks are then enough.

    Under pytest the probe reads False (the faulthandler watchdog is a thread),
    so the two-process paths run only when forced.  Forced to 1, ``os.fork``
    raises, so a fork on that path fails the test.  After the test no child
    process may be left, zombie or live."""
    def force(processes):
        monkeypatch.setattr(train, "FORK_MIN_CHUNKS", 2)
        monkeypatch.setattr(forking, "second_core_free", lambda: processes == 2)
        monkeypatch.setattr(os, "fork", _FORK if processes == 2 else _no_fork)
    yield force
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def make_model():
    """train.build_model on the defaults plus a dict of config overrides."""
    def make(overrides=(), head="proj"):
        cfg = cfgmod.defaults()
        cfg.update(overrides)
        return train.build_model(cfg, head=head)
    return make


@pytest.fixture
def stem_probe(monkeypatch):
    """Runs train._view_embed with the graph-conv layers stubbed out.

    The probe returns (x, s): the pooled (B, N*d) node features after the
    stem and any augmentation, and the (B, N, N) per-graph adjacency stack
    that the layers would have received.
    """
    seen = {}

    def layers(h, s, store, prefix):
        seen["s"] = s
        return h

    monkeypatch.setattr(encoder, "run_layers", layers)

    def probe(model, segs, kind, *args, **kwargs):
        x = train._view_embed(model, segs, kind, *args, **kwargs)
        return x, seen["s"]
    return probe


@st.composite
def byte_edits(draw):
    """One single-byte change, truncation or append, as a function of a file's bytes."""
    kind = draw(st.sampled_from(["set", "truncate", "append"]))
    tail = draw(st.binary(min_size=1, max_size=8))
    where = draw(st.floats(0, 1, exclude_max=True))

    def edit(raw):
        i = int(where * len(raw))
        if kind == "set":
            return raw[:i] + tail[:1] + raw[i + 1:]
        return raw[:i] if kind == "truncate" else raw + tail
    return edit
