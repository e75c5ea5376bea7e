"""Pyramid encoder, multi-head transform (tensorgrad.grouped_matmul), pooling, MLP heads."""

import numpy as np
import pytest

from signl import encoder as enc
from signl import tensorgrad as tg
from signl.errors import ConfigError


class TestNormalizedAdjacency:
    def test_isolated_node(self):
        assert np.array_equal(enc.normalized_adjacency([], 1), [[1.0]])

    def test_two_mutually_connected(self):
        s = enc.normalized_adjacency([(0, 1), (1, 0)], 2)
        assert np.allclose(s, [[0.5, 0.5], [0.5, 0.5]])

    def test_three_node_path_hand_values(self):
        s = enc.normalized_adjacency([(0, 1), (1, 2)], 3)
        assert np.isclose(s[0, 0], 1 / 2)
        assert np.isclose(s[0, 1], 1 / np.sqrt(6))
        assert np.isclose(s[1, 1], 1 / 3)

    def test_symmetrizes_directed_edges(self):
        s = enc.normalized_adjacency([(0, 1)], 2)
        assert np.allclose(s, s.T)

    def test_matches_dense_oracle_small_graphs(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 7))
            edges = [(int(a), int(b)) for a in range(n) for b in range(n)
                     if a != b and rng.random() < 0.4]
            s = enc.normalized_adjacency(edges, n, dtype=np.float64)
            a = np.zeros((n, n))
            for src, dst in edges:
                a[src, dst] = a[dst, src] = 1.0
            np.fill_diagonal(a, 0.0)
            a_hat = a + np.eye(n)
            d = np.diag(1.0 / np.sqrt(a_hat.sum(axis=1)))
            assert np.allclose(s, d @ a_hat @ d)


class TestGcnLayer:
    def test_isolated_node_identity_theta(self):
        s = np.eye(1, dtype=np.float32)[None]
        h = tg.Tensor(np.array([[2.0, -1.0]], dtype=np.float32))
        theta = tg.Tensor(np.eye(2, dtype=np.float32))
        out = enc.gcn_layer(h, s, theta)
        assert np.array_equal(out.data, h.data)

    def test_two_node_average(self):
        s = np.full((1, 2, 2), 0.5, dtype=np.float32)
        h = tg.Tensor(np.array([[1.0, 3.0], [3.0, 5.0]], dtype=np.float32))
        theta = tg.Tensor(np.eye(2, dtype=np.float32))
        out = enc.gcn_layer(h, s, theta)
        assert np.allclose(out.data, [[2.0, 4.0], [2.0, 4.0]])


class TestMultiHead:
    def test_single_head_is_plain_matmul(self, rng):
        h = tg.Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        w = tg.Tensor(rng.standard_normal((4, 2)).astype(np.float32))
        out = tg.grouped_matmul(h, [w])
        assert np.allclose(out.data, h.data @ w.data)

    def test_two_identity_heads_preserve_input(self, rng):
        h = tg.Tensor(rng.standard_normal((3, 4)).astype(np.float32))
        eye = tg.Tensor(np.eye(2, dtype=np.float32))
        out = tg.grouped_matmul(h, [eye, eye])
        assert np.allclose(out.data, h.data)

    def test_matches_block_diagonal_oracle(self, rng):
        h = tg.Tensor(rng.standard_normal((1, 4)).astype(np.float64))
        w1 = tg.Tensor(rng.standard_normal((2, 3)).astype(np.float64))
        w2 = tg.Tensor(rng.standard_normal((2, 3)).astype(np.float64))
        out = tg.grouped_matmul(h, [w1, w2])
        block = np.zeros((4, 6))
        block[:2, :3] = w1.data
        block[2:, 3:] = w2.data
        assert np.allclose(out.data, h.data @ block)

    def test_divisibility_enforced(self, rng):
        h = tg.Tensor(rng.standard_normal((2, 5)).astype(np.float32))
        w = tg.Tensor(rng.standard_normal((2, 2)).astype(np.float32))
        with pytest.raises(tg.ShapeError):
            tg.grouped_matmul(h, [w, w])

    def test_head_count_clamps_to_divisor(self):
        assert enc.head_count_for(32, 16, 4) == 4
        assert enc.head_count_for(4, 2, 4) == 2
        assert enc.head_count_for(2, 1, 4) == 1


class TestPyramid:
    def test_dims_halve(self):
        assert enc.pyramid_dims(32, 5) == [32, 16, 8, 4, 2, 1]

    def test_non_halvable_rejected(self):
        with pytest.raises(ConfigError):
            enc.pyramid_dims(12, 3)  # 12 -> 6 -> 3 is not halvable

    def test_check_reads_only_the_factors_of_two(self):
        enc.check_pyramid(32, 10**12)   # 32 -> ... -> 1, then 1 for ever
        enc.check_pyramid(12, 2)        # 12 -> 6 -> 3
        with pytest.raises(ConfigError, match="pyramid width 3 is not halvable"):
            enc.check_pyramid(12, 10**12)

    def test_zero_weights_pure_residual(self, rng):
        store = tg.ParamStore()
        enc.init_encoder(store, "e", 8, 1, 2, rng)
        for name in store.names():
            if "skip" not in name:
                store[name].data = np.zeros_like(store[name].data)
        h = tg.Tensor(rng.standard_normal((4, 8)).astype(np.float32))
        s = enc.normalized_adjacency([(0, 1), (2, 3)], 4)[None]
        out = enc.vision_gc_layer(h, s, store, "e.layer0")
        skip = store["e.layer0.skip.w"].data
        assert np.allclose(out.data, h.data @ skip, atol=1e-6)

    def test_layer_matches_composed_primitives(self, rng):
        store = tg.ParamStore()
        enc.init_encoder(store, "e", 8, 1, 2, rng)
        h = tg.Tensor(rng.standard_normal((4, 8)).astype(np.float32))
        s = enc.normalized_adjacency([(0, 1), (1, 2)], 4)[None]
        out = enc.vision_gc_layer(h, s, store, "e.layer0")
        heads = [store["e.layer0.head0.w"], store["e.layer0.head1.w"]]
        m = tg.grouped_matmul(enc.gcn_layer(h, s, store["e.layer0.theta"]), heads)
        oracle = np.maximum(m.data, 0) + h.data @ store["e.layer0.skip.w"].data
        assert np.allclose(out.data, oracle, atol=1e-6)

    def test_encode_reference_shape(self, rng):
        store = tg.ParamStore()
        enc.init_encoder(store, "e", 32, 5, 4, rng)
        x = tg.Tensor(rng.standard_normal((8, 32)).astype(np.float32))
        edges = [(j, i) for i in range(8) for j in range(8) if j != i][:24]
        s = enc.normalized_adjacency(edges, 8)[None]
        h = enc.concat_pool(enc.run_layers(x, s, store, "e"), 8)
        assert h.shape == (1, 8)  # node dim halves 32 -> 1 over 5 layers

    def test_encode_node_dim_mismatch(self, rng):
        store = tg.ParamStore()
        enc.init_encoder(store, "e", 32, 2, 4, rng)
        x = tg.Tensor(rng.standard_normal((4, 16)).astype(np.float32))
        s = enc.normalized_adjacency([(0, 1)], 4)[None]
        with pytest.raises(tg.ShapeError):
            enc.run_layers(x, s, store, "e")


class TestConcatPool:
    def test_row_major_concatenation(self, rng):
        h = tg.Tensor(np.arange(12, dtype=np.float32).reshape(6, 2))
        out = enc.concat_pool(h, 3)
        assert out.shape == (2, 6)
        assert np.array_equal(out.data[0], [0, 1, 2, 3, 4, 5])

    def test_indivisible_rejected(self, rng):
        with pytest.raises(ConfigError):
            enc.concat_pool(tg.Tensor(np.zeros((5, 2), dtype=np.float32)), 3)

    def test_node_permutation_permutes_blocks(self, rng):
        store = tg.ParamStore()
        enc.init_encoder(store, "e", 8, 1, 2, rng)
        x = rng.standard_normal((4, 8)).astype(np.float32)
        edges = [(0, 1), (1, 0), (2, 3), (3, 2)]
        perm = [2, 3, 0, 1]
        relabeled = [(perm.index(a), perm.index(b)) for a, b in edges]

        def encode(x, edges):
            s = enc.normalized_adjacency(edges, 4)[None]
            h = enc.run_layers(tg.Tensor(x), s, store, "e")
            return enc.concat_pool(h, 4).data.reshape(4, -1)

        assert np.allclose(encode(x[perm], relabeled), encode(x, edges)[perm], atol=1e-6)


class TestHeads:
    def test_mlp_zero_weights_give_bias(self, rng):
        store = tg.ParamStore()
        enc.init_mlp(store, "proj", [6, 5, 4, 3], rng)
        for i in range(3):
            store[f"proj.l{i}.w"].data = np.zeros_like(store[f"proj.l{i}.w"].data)
        store["proj.l2.b"].data = np.full((1, 3), 7.0, dtype=np.float32)
        x = tg.Tensor(rng.standard_normal((2, 6)).astype(np.float32))
        out = enc.run_mlp(x, store, "proj")
        assert np.allclose(out.data, 7.0)

    def test_projection_output_dim(self, rng):
        store = tg.ParamStore()
        enc.init_mlp(store, "proj", [512, 256, 128, 80], rng)
        h_t = tg.Tensor(rng.standard_normal((3, 256)).astype(np.float32))
        h_s = tg.Tensor(rng.standard_normal((3, 256)).astype(np.float32))
        assert enc.run_mlp(tg.concat([h_t, h_s], axis=1), store, "proj").shape == (3, 80)

    def test_classifier_two_logits_and_view_modes(self, rng):
        # the classifier head reads one view's embedding, or two side by side
        store = tg.ParamStore()
        enc.init_mlp(store, "cls", [8, 6, 4, 2], rng)
        for views in (1, 2):
            parts = [tg.Tensor(rng.standard_normal((2, 8 // views)).astype(np.float32))] * views
            assert enc.run_mlp(tg.concat(parts, axis=1), store, "cls").shape == (2, 2)

    def test_softmax_values(self):
        assert np.allclose(enc.softmax_np(np.array([[0.0, 0.0]])), [[0.5, 0.5]])
        assert np.allclose(enc.softmax_np(np.array([[0.0, np.log(3.0)]])),
                           [[0.25, 0.75]])
