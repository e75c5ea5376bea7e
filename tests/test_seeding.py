"""Seeded streams: the key formats that corpora and checkpoints depend on."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from signl import augment, featio, seeding
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
    got = featio.read_feature(tmp_path / "train_00000.sigf")
    assert np.array_equal(got, field.astype(np.float32))


# uint64 seeds at the edges of SeedSequence's 32-bit word split, and one in between
BOUNDARY_SEEDS = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 12345678901234)
KEYS = st.lists(st.tuples(st.integers(0, 2**31), st.text(min_size=1, max_size=12),
                          st.integers(0, 500),
                          st.sampled_from(["temporal:1", "temporal:2", "spatial:1", "spatial:2"])),
                min_size=1, max_size=12)


class TestBatchSeeding:
    """``Streams`` seeds a batch like numpy's own SeedSequence -> PCG64, key by key.

    If a numpy release changes either seeding step, these fail rather than let
    training's augmentation draws drift from ``derive_rng``'s.
    """

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1))
    @example(seed=BOUNDARY_SEEDS[0])
    @example(seed=BOUNDARY_SEEDS[1])
    @example(seed=BOUNDARY_SEEDS[2])
    @example(seed=BOUNDARY_SEEDS[3])
    @example(seed=BOUNDARY_SEEDS[4])
    @example(seed=BOUNDARY_SEEDS[5])
    def test_uint64_seed_matches_default_rng(self, seed):
        (state, inc), = seeding._pcg64_states([seed])
        assert np.random.default_rng(seed).bit_generator.state["state"] == \
            {"state": state, "inc": inc}

    def test_boundary_seeds_in_one_batch(self):
        expected = [np.random.default_rng(s).bit_generator.state["state"]
                    for s in BOUNDARY_SEEDS]
        got = [{"state": s, "inc": i} for s, i in seeding._pcg64_states(BOUNDARY_SEEDS)]
        assert got == expected

    @settings(max_examples=30, deadline=None)
    @given(keys=KEYS)
    def test_states_equal_per_key_streams(self, keys):
        batch = seeding.Streams(keys, stream("reused"))
        assert len(batch) == len(keys)
        states = [rng.bit_generator.state for rng in batch]
        assert states == [stream(*key).bit_generator.state for key in keys]

    @pytest.mark.parametrize("combo", augment.GRID, ids=[row[0] for row in augment.GRID])
    @settings(max_examples=5, deadline=None)
    @given(keys=KEYS)
    def test_draws_byte_identical_to_derive_rng(self, combo, keys):
        _, ed, gn, fm = combo
        spec = augment.AugmentSpec(ed, gn, fm, ed_prob=0.3, gn_sigma=0.2, fm_prob=0.6)
        batch = augment.sample_draws(spec, seeding.Streams(keys, stream("reused")), 24, (8, 32))
        ref = augment.sample_draws(spec, [augment.derive_rng(*key) for key in keys], 24, (8, 32))
        for got, want in zip((batch.edge_keep, batch.noise, batch.mask),
                             (ref.edge_keep, ref.noise, ref.mask)):
            assert (got is None) == (want is None)
            if got is not None:
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
