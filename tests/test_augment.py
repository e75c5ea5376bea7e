"""Graph augmentations and their reproducible randomness."""

import numpy as np
import pytest

from signl import augment as aug
from signl import config, train
from signl.errors import ConfigError
from signl.graphbuild import GraphView


def _view(rng, n=8, d=4, k=3):
    x = rng.standard_normal((n, d)).astype(np.float32)
    edges = [(j, i) for i in range(n) for j in range(n) if j != i][: n * k]
    return GraphView("temporal", x, edges, "clip0", "1")


class TestEdgeDrop:
    def test_p_zero_identity(self, rng):
        g = _view(rng)
        out = aug.edge_drop(g, 0.0, np.random.default_rng(0))
        assert out.edges == g.edges

    def test_p_one_empty(self, rng):
        g = _view(rng)
        out = aug.edge_drop(g, 1.0, np.random.default_rng(0))
        assert out.edges == []

    def test_never_adds_edges_or_touches_features(self, rng):
        g = _view(rng)
        out = aug.edge_drop(g, 0.5, np.random.default_rng(1))
        assert set(out.edges) <= set(g.edges)
        assert np.array_equal(out.x, g.x)

    def test_binomial_statistics(self, rng):
        edges = [(j, i) for i in range(4) for j in range(4, 10)]  # 24 edges
        g = GraphView("temporal", rng.standard_normal((10, 2)).astype(np.float32),
                      edges, "c", "1")
        stream = np.random.default_rng(42)
        kept = [len(aug.edge_drop(g, 0.5, stream).edges) for _ in range(10_000)]
        sigma_of_mean = np.sqrt(24 * 0.25 / 10_000)
        assert abs(np.mean(kept) - 12.0) < 3 * sigma_of_mean

    def test_invalid_probability(self, rng):
        with pytest.raises(ConfigError):
            aug.edge_drop(_view(rng), 1.5, np.random.default_rng(0))


class TestGaussianNoise:
    def test_sigma_zero_bit_identical(self, rng):
        g = _view(rng)
        out = aug.gaussian_noise(g, 0.0, np.random.default_rng(0))
        assert np.array_equal(out.x, g.x)

    def test_edges_untouched(self, rng):
        g = _view(rng)
        out = aug.gaussian_noise(g, 0.3, np.random.default_rng(0))
        assert out.edges == g.edges

    def test_moment_statistics(self):
        g = GraphView("temporal", np.zeros((1000, 1000), dtype=np.float32),
                      [], "c", "1")
        out = aug.gaussian_noise(g, 0.1, np.random.default_rng(7))
        added = out.x - g.x
        assert abs(added.mean()) < 3 * 0.1 / np.sqrt(added.size)
        assert abs(added.std() - 0.1) < 0.001  # within 1% of sigma

    def test_invalid_sigma(self, rng):
        with pytest.raises(ConfigError):
            aug.gaussian_noise(_view(rng), -0.1, np.random.default_rng(0))


class TestFeatureMask:
    def test_p_zero_identity(self, rng):
        g = _view(rng)
        out = aug.feature_mask(g, 0.0, np.random.default_rng(0))
        assert np.array_equal(out.x, g.x)

    def test_p_one_all_zero(self, rng):
        g = _view(rng)
        out = aug.feature_mask(g, 1.0, np.random.default_rng(0))
        assert not out.x.any()

    def test_binomial_zero_fraction(self):
        g = GraphView("temporal", np.ones((256, 256), dtype=np.float32), [], "c", "1")
        out = aug.feature_mask(g, 0.5, np.random.default_rng(3))
        frac = float((out.x == 0).mean())
        assert abs(frac - 0.5) < 3 * np.sqrt(0.25 / (256 * 256))


class TestApply:
    """Augmentation as training applies it: one stream per batch view in train._view_embed."""

    CFG = {"data.f": 16, "data.t": 16, "graph.n": 4, "graph.k": 2, "graph.d": 8,
           "graph.layers": 2}
    IDS = ["clip0", "clip1"]

    def _segs(self, rng):
        return rng.standard_normal((2, 16, 8)).astype(np.float32)

    def test_all_disabled_identity(self, rng, make_model):
        model, segs = make_model(self.CFG), self._segs(rng)
        out = train._view_embed(model, segs, "temporal", self.IDS, aug.AugmentSpec())
        plain = train._view_embed(model, segs, "temporal")
        assert np.array_equal(out.data, plain.data)

    def test_deterministic_in_seed_material(self, rng, make_model):
        model, segs = make_model(self.CFG), self._segs(rng)
        spec = aug.AugmentSpec(True, True, True)
        a = train._view_embed(model, segs, "spatial", self.IDS, spec, 5, 3)
        b = train._view_embed(model, segs, "spatial", self.IDS, spec, 5, 3)
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(aug.derive_rng(5, "clip0", 3, "spatial:1").random(4),
                              aug.derive_rng(5, "clip0", 3, "spatial:1").random(4))

    def test_segments_draw_independently(self, rng, make_model, stem_probe):
        model, segs = make_model(self.CFG), self._segs(rng)
        spec = aug.AugmentSpec(gn_enabled=True)
        a, _ = stem_probe(model, segs, "temporal", self.IDS, spec, 5, 3, "1")
        b, _ = stem_probe(model, segs, "temporal", self.IDS, spec, 5, 3, "2")
        assert not np.array_equal(a.data, b.data)

    def test_structure_preserved(self, rng, make_model, stem_probe):
        model, segs = make_model(self.CFG), self._segs(rng)
        x_plain, s_plain = stem_probe(model, segs, "temporal")
        x, s = stem_probe(model, segs, "temporal", self.IDS, aug.AugmentSpec(True, True, True))
        assert x.shape == x_plain.shape
        for block, block_plain in zip(s, s_plain):
            assert not (block != 0)[block_plain == 0].any()  # edge drop never adds edges

    def test_disabled_transform_does_not_shift_draws(self, rng, make_model, stem_probe):
        """Draw streams are consumed only by enabled transforms, in fixed order."""
        full_spec = aug.AugmentSpec(True, True, True, fm_prob=0.0)
        no_fm_spec = aug.AugmentSpec(True, True, False)
        key = (1, "batch0", 0, "temporal:1")
        full = aug.sample_draws(full_spec, aug.derive_rng(*key), 2, 8, (4, 8))
        no_fm = aug.sample_draws(no_fm_spec, aug.derive_rng(*key), 2, 8, (4, 8))
        # FM with p=0 is an identity mask, so both runs share the ED/GN draws
        assert np.array_equal(full.edge_keep, no_fm.edge_keep)
        assert np.array_equal(full.noise, no_fm.noise)
        model, segs = make_model(self.CFG), self._segs(rng)
        x_full, s_full = stem_probe(model, segs, "temporal", self.IDS, full_spec, 1)
        x_no_fm, s_no_fm = stem_probe(model, segs, "temporal", self.IDS, no_fm_spec, 1)
        assert np.array_equal(s_full, s_no_fm)
        assert np.array_equal(x_full.data, x_no_fm.data)


class TestSampleDraws:
    @pytest.mark.parametrize("combo", aug.GRID, ids=[row[0] for row in aug.GRID])
    def test_one_row_equals_single_graph_chain(self, rng, combo):
        """B=1 draws equal the enabled single-graph transforms chained on one stream."""
        _, ed, gn, fm = combo
        spec = aug.AugmentSpec(ed, gn, fm, ed_prob=0.3, gn_sigma=0.2, fm_prob=0.6)
        g = _view(rng)
        draws = aug.sample_draws(spec, np.random.default_rng(9), 1, len(g.edges), g.x.shape)
        chained, stream = g, np.random.default_rng(9)
        if ed:
            chained = aug.edge_drop(chained, spec.ed_prob, stream)
        if gn:
            chained = aug.gaussian_noise(chained, spec.gn_sigma, stream)
        if fm:
            chained = aug.feature_mask(chained, spec.fm_prob, stream)
        edges, x = g.edges, g.x
        if ed:
            edges = [e for e, keep in zip(edges, draws.edge_keep[0]) if keep]
        if gn:
            x = x + draws.noise[0]
        if fm:
            x = x * draws.mask[0]
        assert chained.edges == edges
        assert np.array_equal(chained.x, x)

    def test_rows_follow_one_stream(self):
        """A (b, E) draw is b successive E-draws of its stream: row 0 is random(E)'s bits."""
        spec = aug.AugmentSpec(ed_enabled=True, ed_prob=0.5)
        draws = aug.sample_draws(spec, np.random.default_rng(4), 3, 10, (2, 2))
        ref = np.random.default_rng(4)
        assert np.array_equal(draws.edge_keep, [ref.random(10) >= 0.5 for _ in range(3)])


class TestGrid:
    def test_eight_rows_cover_all_combinations(self):
        assert len(aug.GRID) == 8
        assert {(ed, gn, fm) for _, ed, gn, fm in aug.GRID} == {
            (a, b, c) for a in (False, True) for b in (False, True) for c in (False, True)}

    def test_endpoint_rows(self):
        assert aug.GRID[0] == ("SIGNL-1", False, False, False)
        assert aug.GRID[-1] == ("SIGNL-8", True, True, True)

    def test_grid_row_keeps_base_probabilities(self):
        cfg = config.load(None, overrides=("aug.ed_prob = 0.3",))
        cfg["aug.ed"], cfg["aug.gn"], cfg["aug.fm"] = True, False, True  # as run_grid does
        spec = aug.AugmentSpec.from_config(cfg)
        assert (spec.ed_enabled, spec.gn_enabled, spec.fm_enabled) == (True, False, True)
        assert spec.ed_prob == 0.3

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            aug.AugmentSpec(ed_prob=2.0).validate()
        with pytest.raises(ConfigError):
            aug.AugmentSpec(gn_sigma=float("nan")).validate()
