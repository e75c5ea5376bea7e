"""Seeded streams: the key formats that corpora and checkpoints depend on."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signl import augment, config, featio, train
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
    field = featio._bona_fide_fields([stream(9, "train_00000", sep=":")], 4, 4)[0]
    got = featio.read_feature(tmp_path / "train_00000.sigf")
    assert np.array_equal(got, field.astype(np.float32))


IDS = st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=6)
_MODEL = train.build_model({**config.defaults(), "data.f": 16, "data.t": 16, "graph.n": 4,
                            "graph.k": 2, "graph.d": 8, "graph.layers": 2}, head="proj")


class TestBatchSeeding:
    """Training draws a batch view's augmentations from one ``derive_rng`` stream.

    Its key is (seed, sha256 of the NUL-joined clip ids, epoch, "view:segments"),
    so reruns of a seed draw the same bits and checkpoints reproduce.
    """

    @pytest.mark.parametrize("combo", augment.GRID, ids=[row[0] for row in augment.GRID])
    @settings(max_examples=5, deadline=None)
    @given(ids=IDS, seed=st.integers(0, 2**31), epoch=st.integers(0, 500),
           kind=st.sampled_from(["temporal", "spatial"]), seg_ids=st.sampled_from(["1", "12"]))
    def test_draws_byte_identical_to_derive_rng(self, combo, ids, seed, epoch, kind, seg_ids):
        _, ed, gn, fm = combo
        spec = augment.AugmentSpec(ed, gn, fm, ed_prob=0.3, gn_sigma=0.2, fm_prob=0.6)
        segs = np.random.default_rng(0).standard_normal((len(seg_ids) * len(ids), 16, 8))
        drawn, sample_draws = [], augment.sample_draws

        def recorded(*args):
            drawn.append(sample_draws(*args))
            return drawn[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(augment, "sample_draws", recorded)
            train._view_embed(_MODEL, segs.astype(np.float32), kind, ids, spec, seed, epoch,
                              seg_ids)
        if not (ed or gn or fm):
            assert drawn == []  # nothing to draw: no stream is derived
            return
        batch_key = hashlib.sha256("\0".join(ids).encode()).hexdigest()
        rng = augment.derive_rng(seed, batch_key, epoch, f"{kind}:{seg_ids}")
        n, k = _MODEL.n_patches, _MODEL.k_neighbors
        ref = augment.sample_draws(spec, rng, len(segs), n * k, (n, 8))  # graph.d = 8
        (got,) = drawn
        for a, want in zip((got.edge_keep, got.noise, got.mask),
                           (ref.edge_keep, ref.noise, ref.mask)):
            assert (a is None) == (want is None)
            if a is not None:
                assert a.dtype == want.dtype and a.tobytes() == want.tobytes()
