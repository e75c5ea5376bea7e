"""Release acceptance suite: nine criteria, one test each.

Criteria 5, 6 and 8 share one set of desk-scale runs (module-scoped
fixture) so the expensive pre-training happens once per criterion seed.
"""

import math
import time

import numpy as np
import pytest

from signl import augment, config, encoder, featio, gradcheck, metrics, train
from signl.cli import run_grid
from signl.graphbuild import GraphView, knn_graph

DESK_SEEDS = (0, 1, 2)
TIME_BUDGET = 900  # seconds per arm


def _pre_overrides(seed):
    return (f"train.seed = {seed}", "train.lr = 5e-6", "train.epochs = 50",
            "aug.ed = true", "aug.gn = true", "aug.fm = true")


def _ft_overrides(seed, skip_pretrain):
    ovr = [f"train.seed = {seed}", "train.lr = 1e-3", "train.epochs = 150",
           "train.patience = 150", "train.batch_size = 32",
           "train.label_fraction = 0.1", "train.freeze_encoders = true"]
    if skip_pretrain:
        ovr.append("train.skip_pretrain = true")
    return tuple(ovr)


@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk-corpus")
    cfg = featio.SynthConfig(F=64, T=64,
                             n_per_split={"train": 2000, "dev": 500, "eval": 1000},
                             n_attack_types=6, artifact_strength=2.0, seed=7)
    entries = featio.gen_synthetic(cfg, root)
    return root, entries


@pytest.fixture(scope="module")
def desk_runs(desk_corpus, tmp_path_factory):
    """Both arms over three seeds: one ``train.run_pipeline`` each."""
    root, entries = desk_corpus
    out = tmp_path_factory.mktemp("desk-runs")
    runs = {"signl_seconds": 0.0, "base_seconds": 0.0, "seeds": {}}
    for seed in DESK_SEEDS:
        t0 = time.monotonic()
        signl = train.run_pipeline(config.load(None, overrides=_pre_overrides(seed)),
                                   config.load(None, overrides=_ft_overrides(seed, False)),
                                   entries, root, out / f"signl{seed}")
        runs["signl_seconds"] += time.monotonic() - t0
        t0 = time.monotonic()
        base = train.run_pipeline(None, config.load(None, overrides=_ft_overrides(seed, True)),
                                  entries, root, out / f"base{seed}")
        runs["base_seconds"] += time.monotonic() - t0
        runs["seeds"][seed] = {"signl": signl, "base": base}
    return runs


class TestCriterion1Gradients:
    def test_finite_difference_suite(self):
        t0 = time.monotonic()
        worst = gradcheck.run_gradcheck()
        elapsed = time.monotonic() - t0
        print(f"criterion 1: max relative gradient error {worst:.3e} "
              f"in {elapsed:.1f}s")
        assert worst <= 1e-4
        assert elapsed <= 60


class TestCriterion2EEROracle:
    @staticmethod
    def _oracle(scores, is_bona):
        bona, fake = scores[is_bona], scores[~is_bona]
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

    def test_endpoints_and_random_sets(self):
        def scoreset(bona, fake):
            return metrics.ScoreSet(
                [(f"b{i}", s, "bonafide") for i, s in enumerate(bona)]
                + [(f"f{i}", s, "fake") for i, s in enumerate(fake)])

        assert metrics.compute_eer(scoreset([0.9, 0.8], [0.1, 0.2])).eer == 0.0
        same = [0.1, 0.4, 0.7]
        assert metrics.compute_eer(scoreset(same, same)).eer == 0.5
        rng = np.random.default_rng(2)
        for trial in range(200):
            n_bona = int(rng.integers(1, 30))
            n_fake = int(rng.integers(1, 30))
            bona = rng.standard_normal(n_bona)
            fake = rng.standard_normal(n_fake) - rng.uniform(0, 2)
            if trial % 3 == 0:  # force ties
                bona, fake = np.round(bona, 1), np.round(fake, 1)
            rep = metrics.compute_eer(scoreset(bona, fake))
            oracle = self._oracle(np.concatenate([bona, fake]),
                                  np.arange(n_bona + n_fake) < n_bona)
            assert rep.eer == pytest.approx(oracle, abs=0), trial
        print("criterion 2: compute_eer matches the sweep oracle on 200 sets")


class TestCriterion3Graphs:
    def test_knn_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for trial in range(100):
            n = int(rng.integers(3, 17))
            k = int(rng.integers(1, n))
            x = rng.standard_normal((n, 8))
            edges = knn_graph(x, k)
            assert len(edges) == n * k, trial
            dist = np.sqrt(((x[:, None] - x[None, :]) ** 2).sum(-1))
            np.fill_diagonal(dist, np.inf)
            for i in range(n):
                mine = {src for src, dst in edges if dst == i}
                want = set(np.argsort(dist[i], kind="stable")[:k].tolist())
                assert mine == want, (trial, i)
        print("criterion 3: k-NN matches brute force on 100 instances")

    def test_normalized_adjacency_dense_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n))
            edges = knn_graph(rng.standard_normal((n, 3)), k)
            s = encoder.normalized_adjacency(edges, n)
            a = np.zeros((n, n))
            for src, dst in edges:
                if src != dst:
                    a[src, dst] = a[dst, src] = 1.0
            a_hat = a + np.eye(n)
            d = a_hat.sum(1)
            oracle = a_hat / np.sqrt(np.outer(d, d))
            assert np.allclose(s, oracle, atol=1e-6)


class TestCriterion4AugmentStats:
    def _graph(self, rng, n_edges=24, shape=(8, 16)):
        x = rng.uniform(0.5, 1.5, size=shape).astype(np.float32)
        edges = [(i % shape[0], (i * 7 + 1) % shape[0]) for i in range(n_edges)]
        return GraphView("temporal", x, edges, "c", "1")

    def test_statistics_within_tolerance(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(5)
        g = self._graph(rng)
        trials = 10_000

        p_ed = 0.3
        kept = sum(len(augment.edge_drop(g, p_ed, rng).edges)
                   for _ in range(trials))
        n = trials * len(g.edges)
        sigma = math.sqrt(p_ed * (1 - p_ed) / n)
        assert abs(kept / n - (1 - p_ed)) <= 3 * sigma

        p_fm = 0.4
        zeroed = sum(int((augment.feature_mask(g, p_fm, rng).x == 0).sum())
                     for _ in range(trials))
        n = trials * g.x.size
        sigma = math.sqrt(p_fm * (1 - p_fm) / n)
        assert abs(zeroed / n - p_fm) <= 3 * sigma

        big = GraphView("temporal", np.zeros((1000, 1000), dtype=np.float32),
                        [], "c", "1")
        noise = augment.gaussian_noise(big, 0.1, rng).x
        assert abs(float(noise.std()) - 0.1) <= 0.001  # within 1% of sigma

        elapsed = time.monotonic() - t0
        print(f"criterion 4: augmentation statistics in {elapsed:.1f}s")
        assert elapsed <= 60


class TestCriterion5DeskComparison:
    def test_pretraining_not_worse(self, desk_runs):
        signl = [desk_runs["seeds"][s]["signl"].eval_eer for s in DESK_SEEDS]
        base = [desk_runs["seeds"][s]["base"].eval_eer for s in DESK_SEEDS]
        mean_signl, mean_base = np.mean(signl), np.mean(base)
        print(f"criterion 5: signl {mean_signl:.4f} (per seed {signl}) vs "
              f"baseline {mean_base:.4f} (per seed {base}); "
              f"arm times {desk_runs['signl_seconds']:.0f}s / "
              f"{desk_runs['base_seconds']:.0f}s")
        # fail only if pretraining is strictly worse by > 0.5 points
        assert mean_signl <= mean_base + 0.005
        assert desk_runs["signl_seconds"] <= TIME_BUDGET
        assert desk_runs["base_seconds"] <= TIME_BUDGET


class TestCriterion6CollapseDiagnostic:
    def test_similarity_before_and_after_projection(self, desk_corpus, desk_runs):
        root, entries = desk_corpus
        clips = train.strip_labels(entries)[:64]
        feats = train.load_split(clips, root, (64, 64))  # the desk corpus's F x T
        samples = [(cid, feats[cid]) for cid, _ in clips]
        for seed in DESK_SEEDS:
            cfg = config.load(None, overrides=_pre_overrides(seed))
            model = train.load_model(cfg, desk_runs["seeds"][seed]["signl"].pre_path,
                                     head="proj")
            rep = metrics.collapse_report(train.collapse_pair_forward(model),
                                          samples)
            print(f"criterion 6 seed {seed}: before {rep['before']:.4f} "
                  f"after {rep['after']:.4f}")
            assert rep["after"] >= 0.95
            assert rep["before"] <= rep["after"] - 0.02


class TestCriterion7AblationGrid:
    def test_grid_completes_and_reproduces(self, tiny_corpus, tmp_path):
        root, entries = tiny_corpus
        cfg = config.load(None, overrides=(
            f"data.dir = {root}", "data.f = 32", "data.t = 32",
            "train.epochs = 1", "train.batch_size = 16", "train.lr = 1e-3",
            "train.seed = 5"))
        rows1 = run_grid(cfg, entries, tmp_path / "a")
        rows2 = run_grid(cfg, entries, tmp_path / "b")
        assert [r["name"] for r in rows1] == [f"SIGNL-{i}" for i in range(1, 9)]
        assert rows1 == rows2
        print("criterion 7: 8-combination grid completed and reproduced itself")


class TestCriterion8Determinism:
    @staticmethod
    def _strip(trace):
        return [{k: v for k, v in row.items() if k != "seconds"}
                for row in trace]

    def test_rerun_bit_identical(self, desk_corpus, desk_runs, tmp_path):
        root, entries = desk_corpus
        seed = DESK_SEEDS[0]
        first = desk_runs["seeds"][seed]["signl"]
        rerun = train.run_pipeline(config.load(None, overrides=_pre_overrides(seed)),
                                   config.load(None, overrides=_ft_overrides(seed, False)),
                                   entries, root, tmp_path)
        assert rerun.pre_path.read_bytes() == first.pre_path.read_bytes()
        assert self._strip(rerun.pre_trace) == self._strip(first.pre_trace)
        assert rerun.model_path.read_bytes() == first.model_path.read_bytes()
        assert self._strip(rerun.ft_trace) == self._strip(first.ft_trace)
        assert rerun.eval_eer == first.eval_eer
        print("criterion 8: rerun produced bit-identical checkpoints, traces and eval EER")


class TestCriterion9LimitedLabelSampler:
    def test_table_row(self):
        entries = [featio.ManifestEntry(path=f"b{i:05d}.sigf", label="bonafide",
                                        attack_id="-", split="train")
                   for i in range(2580)]
        for a in range(6):
            entries += [featio.ManifestEntry(path=f"a{a}_{i:05d}.sigf",
                                             label="fake", attack_id=f"A{a:02d}",
                                             split="train")
                        for i in range(3800)]
        assert len(entries) == 25_380
        subset = featio.sample_limited_labels(entries, 0.05, seed=0)
        assert len(subset) == 1_269
        for attack, n_total in [("-", 2580)] + [(f"A{a:02d}", 3800)
                                                for a in range(6)]:
            got = sum(e.attack_id == attack for e in subset)
            assert abs(got - 0.05 * n_total) <= 1, attack
        print("criterion 9: 25,380-entry manifest at 5% -> 1,269 entries")
