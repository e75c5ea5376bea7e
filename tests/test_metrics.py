"""Losses, EER computation, and the collapse diagnostic."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signl import metrics
from signl import tensorgrad as tg
from signl.errors import ConfigError


def _t(arr):
    return tg.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=True)


class TestCosine:
    def test_identical_vectors(self):
        z = _t([[1.0, 2.0, 3.0]])
        assert np.allclose(metrics.cosine_similarity(z, z).data, 1.0)

    def test_orthogonal_vectors(self):
        a = _t([[1.0, 0.0]])
        b = _t([[0.0, 1.0]])
        assert np.allclose(metrics.cosine_similarity(a, b).data, 0.0)

    def test_hand_value(self):
        a = _t([[1.0, 0.0]])
        b = _t([[1.0, 1.0]])
        assert np.allclose(metrics.cosine_similarity(a, b).data, 1 / np.sqrt(2))

    def test_zero_vector_guard(self):
        a = _t([[0.0, 0.0]])
        b = _t([[1.0, 0.0]])
        with pytest.raises(metrics.NumericGuardError):
            metrics.cosine_similarity(a, b)

    def test_shape_mismatch(self):
        with pytest.raises(tg.ShapeError):
            metrics.cosine_similarity(_t([[1.0, 0.0]]), _t([[1.0, 0.0, 0.0]]))


class TestAlignmentLoss:
    def test_identical_pair_tau_one(self):
        z = _t([[0.5, 0.5]])
        assert np.allclose(metrics.alignment_loss(z, z, 1.0).data, -1.0)

    def test_orthogonal_pair(self):
        a = _t([[1.0, 0.0]])
        b = _t([[0.0, 1.0]])
        assert np.allclose(metrics.alignment_loss(a, b, 1.0).data, 0.0)

    def test_hand_value_with_temperature(self):
        a = _t([[1.0, 0.0]])
        b = _t([[1.0, 1.0]])
        assert np.allclose(metrics.alignment_loss(a, b, 0.5).data, -np.sqrt(2))

    def test_invalid_temperature(self):
        z = _t([[1.0, 0.0]])
        with pytest.raises(ConfigError):
            metrics.alignment_loss(z, z, 0.0)

    def test_minimized_iff_collinear(self, rng):
        z = _t(rng.standard_normal((4, 6)))
        best = metrics.alignment_loss(z, z, 1.0)
        other = _t(rng.standard_normal((4, 6)))
        worse = metrics.alignment_loss(z, other, 1.0)
        assert best.data < worse.data
        assert np.isclose(best.data, -4.0)

    def test_gradient_matches_finite_differences(self, rng):
        z1 = _t(rng.standard_normal((3, 5)))
        z2 = _t(rng.standard_normal((3, 5)))
        with tg.Tape() as tape:
            tape.backward(metrics.alignment_loss(z1, z2, 0.5))
        h = 1e-5
        flat = z1.data.reshape(-1)
        for i in range(0, flat.size, 4):
            orig = flat[i]
            flat[i] = orig + h
            up = float(metrics.alignment_loss(z1, z2, 0.5).data)
            flat[i] = orig - h
            dn = float(metrics.alignment_loss(z1, z2, 0.5).data)
            flat[i] = orig
            fd = (up - dn) / (2 * h)
            assert abs(z1.grad.reshape(-1)[i] - fd) <= 1e-4 * max(1.0, abs(fd))


class TestCrossEntropy:
    def test_confident_correct_near_zero(self):
        logits = _t([[20.0, -20.0]])
        assert metrics.cross_entropy(logits, [0]).data < 1e-6

    def test_equal_logits_ln2(self):
        logits = _t([[0.0, 0.0]])
        assert np.allclose(metrics.cross_entropy(logits, [1]).data, np.log(2.0))

    def test_nonnegative(self, rng):
        logits = _t(rng.standard_normal((8, 2)))
        labels = rng.integers(0, 2, 8)
        assert metrics.cross_entropy(logits, labels).data >= 0

    def test_gradient_is_softmax_minus_onehot(self, rng):
        logits = _t(rng.standard_normal((4, 2)))
        labels = [0, 1, 1, 0]
        with tg.Tape() as tape:
            tape.backward(metrics.cross_entropy(logits, labels))
        sm = np.exp(logits.data) / np.exp(logits.data).sum(axis=1, keepdims=True)
        onehot = np.zeros((4, 2))
        onehot[np.arange(4), labels] = 1.0
        assert np.allclose(logits.grad, (sm - onehot) / 4, atol=1e-8)

    def test_mean_reduction_scales(self, rng):
        logits = _t(rng.standard_normal((4, 2)))
        labels = [0, 1, 0, 1]
        mean = metrics.cross_entropy(logits, labels).data
        log_p = logits.data - np.log(np.exp(logits.data).sum(axis=1, keepdims=True))
        assert np.allclose(mean, -log_p[np.arange(4), labels].sum() / 4)


def _scores(bona, fake):
    entries = [(f"b{i}", s, "bonafide") for i, s in enumerate(bona)]
    entries += [(f"f{i}", s, "fake") for i, s in enumerate(fake)]
    return metrics.ScoreSet(entries)


def _eer_oracle(scores, is_bona):
    """Exhaustive sweep oracle over all candidate thresholds."""
    bona = scores[is_bona]
    fake = scores[~is_bona]
    cand = np.concatenate(([-np.inf], np.unique(scores), [np.inf]))
    far = np.array([(fake >= t).mean() for t in cand])
    frr = np.array([(bona < t).mean() for t in cand])
    diff = far - frr
    exact = np.nonzero(diff == 0)[0]
    if exact.size:
        return float(far[exact[0]])
    k = int(np.nonzero(diff < 0)[0][0]) - 1
    t = diff[k] / (diff[k] - diff[k + 1])
    return float(far[k] + t * (far[k + 1] - far[k]))


class TestEER:
    def test_perfect_separation(self):
        assert metrics.compute_eer(_scores([0.9, 0.8], [0.1, 0.2])).eer == 0.0

    def test_identical_distributions(self):
        rep = metrics.compute_eer(_scores([0.1, 0.5, 0.9], [0.1, 0.5, 0.9]))
        assert np.isclose(rep.eer, 0.5)

    def test_interleaved_hand_case(self):
        rep = metrics.compute_eer(_scores([0.8, 0.6, 0.4], [0.7, 0.5, 0.3]))
        oracle = _eer_oracle(np.array([0.8, 0.6, 0.4, 0.7, 0.5, 0.3]),
                             np.array([True, True, True, False, False, False]))
        assert np.isclose(rep.eer, oracle)

    def test_single_label_rejected(self):
        with pytest.raises(tg.ContractError):
            metrics.compute_eer(_scores([0.5], []))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_score_rejected_naming_clip(self, bad):
        with pytest.raises(tg.ContractError, match=r"'f1' scored"):
            metrics.compute_eer(_scores([0.9, 0.4], [0.1, bad]))

    def test_matches_oracle_on_random_sets(self, rng):
        for _ in range(200):
            n_bona = int(rng.integers(1, 26))
            n_fake = int(rng.integers(1, 26))
            bona = rng.standard_normal(n_bona)
            fake = rng.standard_normal(n_fake) - rng.uniform(0, 2)
            if rng.random() < 0.3:  # force ties sometimes
                bona = np.round(bona, 1)
                fake = np.round(fake, 1)
            rep = metrics.compute_eer(_scores(bona, fake))
            scores = np.concatenate([bona, fake])
            is_bona = np.array([True] * n_bona + [False] * n_fake)
            assert np.isclose(rep.eer, _eer_oracle(scores, is_bona)), \
                f"bona={bona} fake={fake}"

    def test_monotone_curves(self, rng):
        rep = metrics.compute_eer(_scores(rng.standard_normal(20),
                                          rng.standard_normal(20) - 1))
        assert np.all(np.diff(rep.far_curve) <= 0)
        assert np.all(np.diff(rep.frr_curve) >= 0)

    def test_invariant_under_monotone_transform(self, rng):
        bona = rng.standard_normal(15)
        fake = rng.standard_normal(15) - 0.5
        base = metrics.compute_eer(_scores(bona, fake)).eer
        warped = metrics.compute_eer(_scores(np.tanh(bona), np.tanh(fake))).eer
        assert np.isclose(base, warped)

    @settings(max_examples=200, deadline=None)
    @given(bona=st.lists(st.integers(-1000, 1000), min_size=1, max_size=40),
           fake=st.lists(st.integers(-1000, 1000), min_size=1, max_size=40),
           warp=st.sampled_from([lambda x: 3 * x - 7, lambda x: x ** 3,
                                 lambda x: np.exp(x / 100), lambda x: -1 / (x + 2000)]))
    def test_eer_depends_only_on_score_order(self, bona, fake, warp):
        bona, fake = np.array(bona, dtype=np.float64), np.array(fake, dtype=np.float64)
        base = metrics.compute_eer(_scores(bona, fake))
        warped = metrics.compute_eer(_scores(warp(bona), warp(fake)))
        assert warped.eer == base.eer
        assert np.array_equal(warped.far_curve, base.far_curve)
        assert np.array_equal(warped.frr_curve, base.frr_curve)

    def test_memory_linear_in_score_count(self, rng):
        n = 200_000
        labels = np.where(rng.random(n) < 0.5, "bonafide", "fake")
        score_set = metrics.ScoreSet(list(zip(map(str, range(n)), rng.random(n), labels)))
        tracemalloc.start()
        try:
            metrics.compute_eer(score_set)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 50e6

    def test_json_export(self):
        rep = metrics.compute_eer(_scores([0.9], [0.1]))
        payload = json.loads(rep.to_json())
        assert payload["eer"] == 0.0
        assert payload["n_bonafide"] == 1 and payload["n_fake"] == 1


class TestScoreSet:
    def test_jsonl_roundtrip(self, tmp_path):
        s = _scores([0.9], [0.1])
        path = tmp_path / "scores.jsonl"
        s.to_jsonl(path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert rows[0] == {"clip_id": "b0", "score": 0.9, "label": "bonafide"}


class TestCollapseReport:
    def test_constant_encoder_before_similarity_one(self, rng):
        const = rng.standard_normal(8)

        def fwd(sample):
            return const, const, rng.standard_normal(4), rng.standard_normal(4)

        rep = metrics.collapse_report(fwd, list(range(10)))
        assert np.isclose(rep["before"], 1.0)
        assert rep["n_pairs"] == 10

    def test_report_means(self, rng):
        a = np.array([1.0, 0.0])
        b = np.array([0.0, 1.0])

        def fwd(sample):
            return a, b, a, a

        rep = metrics.collapse_report(fwd, [0, 1])
        assert np.isclose(rep["before"], 0.0)
        assert np.isclose(rep["after"], 1.0)
