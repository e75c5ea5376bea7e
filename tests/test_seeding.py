"""Seeded streams: the key formats that corpora and checkpoints depend on."""

import hashlib

import numpy as np

from signl import augment, featio
from signl.seeding import stream


def _expected(key):
    seed = int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "little")
    return np.random.default_rng(seed).random(6)


def test_training_streams_join_parts_with_pipes():
    assert np.array_equal(stream(4, "order", 2).random(6), _expected("4|order|2"))


def test_augmentation_streams_keep_their_key():
    rng = augment.derive_rng(0, "train_00001", 3, "spatial:2")
    assert np.array_equal(rng.random(6), _expected("0|train_00001|3|spatial:2"))


def test_corpus_streams_join_seed_and_clip_with_colon(tmp_path):
    assert np.array_equal(stream(9, "train_00000", sep=":").random(6),
                          _expected("9:train_00000"))
    cfg = featio.SynthConfig(F=4, T=4, n_per_split={"train": 2, "dev": 0, "eval": 0},
                             seed=9)
    featio.gen_synthetic(cfg, tmp_path)  # train_00000 is bona fide: no artifact draws
    field = featio._bona_fide_field(stream(9, "train_00000", sep=":"), 4, 4)
    got = featio.read_feature(tmp_path / "train_00000.sigf").values
    assert np.array_equal(got, field.astype(np.float32))
