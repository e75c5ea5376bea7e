"""Graph construction: pair splitting, patchify, stem embedding, k-NN."""

import numpy as np
import pytest

from signl import augment as aug
from signl import graphbuild as gb
from signl import tensorgrad as tg
from signl import train
from signl.errors import ConfigError

# 4 x 8 clips: 4 x 4 halves, 2 temporal patches of 4 x 2 -> patch dim 8 = node dim
STEM_CFG = {"data.f": 4, "data.t": 8, "graph.n": 2, "graph.k": 1, "graph.d": 8,
            "graph.layers": 1, "graph.heads": 2}


def _set_stem(model, w, b):
    model.store["stem.temporal.w"].data = np.asarray(w, dtype=np.float32)
    model.store["stem.temporal.b"].data = np.asarray(b, dtype=np.float32)


class TestSplitPair:
    def test_even_split_restores_original(self, rng):
        values = rng.standard_normal((4, 8)).astype(np.float32)
        m1, m2 = gb.split_pair(values)
        assert m1.shape == m2.shape == (4, 4)
        assert np.array_equal(np.concatenate([m1, m2], axis=1), values)

    def test_odd_width_repeat_padded(self, rng):
        values = rng.standard_normal((4, 9)).astype(np.float32)
        m1, m2 = gb.split_pair(values)
        assert m1.shape == m2.shape == (4, 5)
        assert np.array_equal(m2[:, -1], values[:, 0])

    def test_batch_matches_per_clip(self, rng):
        batch = rng.standard_normal((3, 4, 9)).astype(np.float32)
        halves = gb.split_pair(batch)
        for i in range(3):
            for got, want in zip(halves, gb.split_pair(batch[i])):
                assert np.array_equal(got[i], want)


    @pytest.mark.parametrize("b", [1, 3])
    @pytest.mark.parametrize("t", [8, 9, 2, 1])
    def test_pair_halves_match_split_pair(self, rng, b, t):
        """One copy gives the (2B, F, T/2) batch that concatenating split_pair's halves does."""
        mats = [rng.standard_normal((4, t)).astype(np.float32) for _ in range(b)]
        halves = train._pair_halves(mats)
        assert np.array_equal(halves, np.concatenate(gb.split_pair(np.stack(mats))))
        assert halves.dtype == np.float32 and halves.flags.c_contiguous

    def test_pair_halves_take_rows_of_one_chunk_and_promote_like_stack(self, rng):
        chunk = rng.standard_normal((3, 4, 9)).astype(np.float32)
        assert np.array_equal(train._pair_halves(list(chunk)),
                              np.concatenate(gb.split_pair(chunk)))
        mixed = [chunk[0], chunk[1].astype(np.float64)]
        assert np.array_equal(train._pair_halves(mixed),
                              np.concatenate(gb.split_pair(np.stack(mixed))))
        assert train._pair_halves(mixed).dtype == np.float64


class TestPatchify:
    def test_temporal_tiles(self, rng):
        values = rng.standard_normal((4, 4)).astype(np.float32)
        patches = gb.patchify(values, 2, "temporal")
        assert patches.shape == (2, 8)
        tiles = [p.reshape(4, 2) for p in patches]
        assert np.array_equal(np.concatenate(tiles, axis=1), values)

    def test_spatial_tiles_partition(self, rng):
        values = rng.standard_normal((8, 6)).astype(np.float32)
        patches = gb.patchify(values, 4, "spatial")
        assert patches.shape == (4, 12)
        tiles = [p.reshape(2, 6) for p in patches]
        assert np.array_equal(np.concatenate(tiles, axis=0), values)

    def test_batch_matches_tile_loop(self, rng):
        batch = rng.standard_normal((5, 8, 12)).astype(np.float32)
        for kind, n in (("temporal", 4), ("spatial", 2)):
            patches = gb.patchify(batch, n, kind)
            for b in range(5):
                if kind == "temporal":
                    tiles = np.split(batch[b], n, axis=1)
                else:
                    tiles = np.split(batch[b], n, axis=0)
                want = np.stack([t.reshape(-1) for t in tiles])
                assert np.array_equal(patches[b], want), (kind, b)

    def test_non_divisible_rejected(self):
        with pytest.raises(ConfigError, match="8"):
            gb.patchify(np.zeros((4, 8)), 5, "temporal")

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            gb.patchify(np.zeros((4, 4)), 2, "diagonal")


class TestStemEmbed:
    """The stem as training runs it: the affine map inside train._view_embed."""

    def test_identity_map_returns_flattened_patches(self, rng, make_model, stem_probe):
        model = make_model(STEM_CFG)
        _set_stem(model, np.eye(8), np.zeros((1, 8)))
        segs = rng.standard_normal((3, 4, 4)).astype(np.float32)
        x, _ = stem_probe(model, segs, "temporal")
        assert np.allclose(x.data.reshape(3, 2, 8), gb.patchify(segs, 2, "temporal"))

    def test_zero_weights_yield_bias_rows(self, rng, make_model, stem_probe):
        model = make_model(STEM_CFG)
        bias = np.arange(1.0, 9.0)[None, :]
        _set_stem(model, np.zeros((8, 8)), bias)
        segs = rng.standard_normal((2, 4, 4)).astype(np.float32)
        x, _ = stem_probe(model, segs, "temporal")
        assert np.allclose(x.data.reshape(4, 8), np.tile(bias, (4, 1)))

    def test_shape_mismatch(self, rng, make_model):
        model = make_model(STEM_CFG)
        segs = rng.standard_normal((1, 8, 4)).astype(np.float32)  # patch dim 16
        with pytest.raises(tg.ShapeError):
            train._view_embed(model, segs, "temporal")

    def test_gradient_through_stem(self, rng, make_model, stem_probe):
        model = make_model(STEM_CFG)
        segs = rng.standard_normal((3, 4, 4)).astype(np.float32)
        w, b = model.store["stem.temporal.w"], model.store["stem.temporal.b"]
        with tg.Tape() as tape:
            x, _ = stem_probe(model, segs, "temporal")
            tape.backward(tg.tsum(x))
        flat = gb.patchify(segs, 2, "temporal").reshape(6, 8)
        assert np.allclose(w.grad, np.tile(flat.sum(axis=0)[:, None], (1, 8)), atol=1e-5)
        assert np.allclose(b.grad, np.full((1, 8), 6.0))


class TestKnnGraph:
    def test_collinear_points(self):
        x = np.array([[0.0], [1.0], [10.0]])
        assert set(gb.knn_graph(x, 1)) == {(1, 0), (0, 1), (1, 2)}

    def test_complete_digraph_at_k_max(self, rng):
        x = rng.standard_normal((5, 3))
        edges = gb.knn_graph(x, 4)
        assert len(edges) == 20
        assert set(edges) == {(j, i) for i in range(5) for j in range(5) if i != j}

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            gb.knn_graph(np.zeros((4, 2)), 4)

    @pytest.mark.parametrize("k", [0, 4, 5])
    def test_neighbor_table_k_out_of_range(self, k):
        # k >= N would list a node as its own neighbour
        with pytest.raises(ConfigError):
            gb.neighbor_table(np.zeros((2, 4, 2)), k)

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(4, 17))
            k = int(rng.integers(1, n - 1))
            x = rng.standard_normal((n, 5))
            edges = gb.knn_graph(x, k)
            assert len(edges) == n * k
            expected = set()
            for i in range(n):
                dists = sorted((np.linalg.norm(x[j] - x[i]), j)
                               for j in range(n) if j != i)
                expected.update((j, i) for _, j in dists[:k])
            assert set(edges) == expected

    def test_in_degree_no_self_loops_no_duplicates(self, rng):
        x = rng.standard_normal((8, 4))
        edges = gb.knn_graph(x, 3)
        assert len(edges) == len(set(edges))
        assert all(src != dst for src, dst in edges)
        indeg = {}
        for _, dst in edges:
            indeg[dst] = indeg.get(dst, 0) + 1
        assert all(v == 3 for v in indeg.values())

    def test_permutation_equivariance(self, rng):
        x = rng.standard_normal((7, 4))
        perm = rng.permutation(7)
        edges = set(gb.knn_graph(x, 2))
        permuted = set(gb.knn_graph(x[perm], 2))
        relabeled = {(int(np.where(perm == a)[0][0]), int(np.where(perm == b)[0][0]))
                     for a, b in edges}
        assert permuted == relabeled

    def test_ties_break_toward_smaller_index(self):
        # nodes 1 and 3 are identical, so node 0 is equally far from both
        x = np.array([[[0.0, 0.0], [1.0, 0.0], [5.0, 5.0], [1.0, 0.0]]])
        table = gb.neighbor_table(x, 3)[0]
        assert table[0].tolist() == [1, 3, 2]
        assert table[1].tolist()[0] == 3 and table[3].tolist()[0] == 1
        assert gb.neighbor_table(x[:, ::-1].copy(), 3)[0][3].tolist() == [0, 2, 1]

    @pytest.mark.parametrize("x", [[[0.0], [3.0]], [[2.0], [2.0]]])
    def test_two_nodes_list_each_other(self, x):
        assert gb.neighbor_table(np.array([x]), 1)[0].tolist() == [[1], [0]]

    def test_neighbor_table_matches_single(self, rng):
        xb = rng.standard_normal((3, 6, 4))
        table = gb.neighbor_table(xb, 2)
        for b in range(3):
            edges = gb.knn_graph(xb[b], 2)
            expected = [[src for src, dst in edges if dst == i] for i in range(6)]
            assert table[b].tolist() == expected


class TestBuildBundle:
    """Both segments x both views of a batch, as _pair_forward builds them."""

    def _batch(self, rng, f, t, b=3):
        return rng.standard_normal((b, f, t)).astype(np.float32)

    def test_four_views_with_expected_counts(self, rng, make_model, stem_probe):
        model = make_model({"data.f": 16, "data.t": 16, "graph.n": 4, "graph.k": 2,
                            "graph.d": 8, "graph.layers": 2})
        for segs in gb.split_pair(self._batch(rng, 16, 16)):
            for kind in ("temporal", "spatial"):
                x, s = stem_probe(model, segs, kind)
                nodes = x.data.reshape(3, 4, 8)
                assert s.shape == (3, 4, 4)
                assert gb.neighbor_table(nodes, 2).shape == (3, 4, 2)
                # every row: the self-loop plus at least k neighbours
                for i in range(3):
                    assert ((s[i] > 0).sum(axis=1) >= 3).all()

    def test_deterministic(self, rng, make_model):
        model = make_model({"data.f": 16, "data.t": 16, "graph.n": 4, "graph.k": 2,
                            "graph.d": 8, "graph.layers": 2})
        mats = list(self._batch(rng, 16, 16))
        ids = ["a", "b", "c"]
        spec = aug.AugmentSpec(True, True, True)
        first = train._pair_forward(model, mats, ids, spec, 1, 2)
        second = train._pair_forward(model, mats, ids, spec, 1, 2)
        for u, v in zip(first, second):
            assert np.array_equal(u.data, v.data)

    def test_reference_shapes(self, rng, make_model, stem_probe):
        model = make_model({"data.f": 64, "data.t": 64})
        for segs in gb.split_pair(self._batch(rng, 64, 64, b=2)):
            for kind in ("temporal", "spatial"):
                x, _ = stem_probe(model, segs, kind)
                assert x.shape == (2, 8 * 32)  # 8 nodes x 32 features per view
