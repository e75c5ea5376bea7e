"""Same bits as the reference kernels they replaced.

Each ``_ref_*`` function below is the earlier, plainer implementation of a
shipped kernel, kept verbatim as an oracle: ``neighbor_table`` computed every
distance twice, temporal ``patchify`` copied a float at a time, ``affine`` was
matmul + matmul + add, ``grouped_matmul`` took every weight's gradient from one
batched product, ``adam_step`` kept per-parameter state, and
``load_features`` read each clip into its own array, which every batch
stacked, and ``gen_synthetic`` computed and wrote one clip at a time.  The
shipped kernels must give exactly their bits, compared as unsigned-integer
views, down to whole training runs and the synthetic corpus's files.
"""

import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from signl import config as cfgmod
from signl import featio
from signl import metrics
from signl import tensorgrad as tg
from signl import train
from signl.errors import ConfigError, ContractError, ShapeError
from signl.featio import read_feature
from signl.graphbuild import neighbor_table, patchify, split_pair
from signl.seeding import stream


# ---------------------------------------------------------------------------
# the reference kernels

def _ref_neighbor_table(x_batch, k):
    b, n, _ = x_batch.shape
    if not 1 <= k <= n - 1:
        raise ConfigError(f"K={k} out of range for {n} nodes")
    diff = x_batch[:, :, None, :] - x_batch[:, None, :, :]
    dist = np.sqrt(np.square(diff, out=diff).sum(axis=-1))
    idx = np.arange(n)
    dist[:, idx, idx] = np.inf
    order = np.argsort(dist, axis=2, kind="stable")
    return order[:, :, :k]


def _ref_load_features(items, data_dir, shape):
    data_dir = os.fspath(data_dir)
    feats = {}
    for clip_id, rel in items:
        path = os.path.join(data_dir, rel)
        values = read_feature(path)
        if values.shape != shape:
            raise ConfigError(f"corpus clips such as {clip_id!r} are {values.shape}, "
                              f"but (data.f, data.t) is {shape}: {path}")
        feats[clip_id] = values
    return feats


def _ref_load_stacked(items, data_dir, shape):
    """``_ref_load_features`` in load_features' return form: its clips, stacked."""
    feats = _ref_load_features(items, data_dir, shape)
    return np.stack([feats[clip_id] for clip_id, _ in items])


def _ref_bona_fide_field(rng, f, t):
    """Smooth band-limited random field: low-rank sinusoidal bands + noise."""
    rows = np.arange(f)[:, None]
    cols = np.arange(t)[None, :]
    x = np.zeros((f, t))
    for _ in range(4):
        amp = rng.uniform(0.4, 1.0)
        centre = rng.uniform(0, f)
        width = rng.uniform(f / 8, f / 3)
        period = rng.uniform(t / 4, t)
        phase = rng.uniform(0, 2 * np.pi)
        env = np.exp(-0.5 * ((rows - centre) / width) ** 2)
        x += amp * env * np.sin(2 * np.pi * cols / period + phase)
    x += 0.05 * rng.standard_normal((f, t))
    return x


def _ref_gen_synthetic(cfg, out_dir):
    cfg.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for split in featio.SPLITS:
        n = cfg.n_per_split[split]
        n_bona = n // 2
        for i in range(n):
            bona = i < n_bona
            if bona:
                attack = "-"
                label = "bonafide"
            else:
                family = (i - n_bona) % cfg.n_attack_types
                attack = f"A{family:02d}"
                label = "fake"
            clip_id = f"{split}_{i:05d}"
            rng = stream(cfg.seed, clip_id, sep=":")
            x = _ref_bona_fide_field(rng, cfg.F, cfg.T)
            if not bona:
                featio._plant_artifact(x, family, cfg.artifact_strength, rng)
            rel = f"{clip_id}.sigf"
            featio.write_feature(x, out_dir / rel)
            entries.append(featio.ManifestEntry(path=rel, label=label, attack_id=attack,
                                                split=split))
    featio.write_manifest(entries, out_dir / "manifest.jsonl")
    return entries


def _ref_patchify(values, n, kind):
    *lead, f, t = values.shape
    if kind == "temporal":
        if t % n != 0:
            raise ConfigError(f"time dimension {t} not divisible by {n} patches")
        tiles = values.reshape(*lead, f, n, t // n)
        return np.swapaxes(tiles, -3, -2).reshape(*lead, n, -1)
    if kind == "spatial":
        if f % n != 0:
            raise ConfigError(f"frequency dimension {f} not divisible by {n} patches")
        return values.reshape(*lead, n, -1)
    raise ConfigError(f"unknown patch kind {kind!r}")


def _ref_affine(x, w, b):
    if b.data.ndim != 2 or b.shape[0] != 1:
        raise ShapeError(f"bias must be a 1xK row, got {b.shape}")
    ones = tg.Tensor._wrap(np.ones((x.shape[0], 1), dtype=x.dtype), False)
    return tg.add(tg.matmul(x, w), tg.matmul(ones, b))


def _ref_grouped_matmul(x, weights, g):
    """Output, x's gradient and the weights' gradients of ``grouped_matmul`` when a
    (G, c, o) ``np.matmul`` gave every weight's gradient at once."""
    (c, o), n, m = weights[0].shape, len(weights), x.shape[0]
    w = np.stack(weights)
    xs = x.reshape(m, n, c).transpose(1, 0, 2)
    gs = g.reshape(m, n, o).transpose(1, 0, 2)
    out = np.matmul(xs, w).transpose(1, 0, 2).reshape(m, n * o)
    gx = np.matmul(gs, w.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(x.shape)
    return out, gx, list(np.matmul(xs.transpose(0, 2, 1), gs))


def _ref_adam_step(store, lr):
    # per-parameter state, kept apart from the store's own flat moments
    state_m = store.__dict__.setdefault("_ref_m", {})
    state_v = store.__dict__.setdefault("_ref_v", {})
    store.step_count += 1
    t = store.step_count
    for name, p in store.items():
        if not p.requires_grad:
            continue
        if p.grad is None:
            raise ContractError(f"parameter {name!r} has no gradient")
        g = p.grad
        m = state_m.get(name)
        v = state_v.get(name)
        if m is None:
            m = np.zeros_like(p.data)
            v = np.zeros_like(p.data)
        m = tg.ADAM_BETA1 * m + (1 - tg.ADAM_BETA1) * g
        v = tg.ADAM_BETA2 * v + (1 - tg.ADAM_BETA2) * g * g
        state_m[name] = m
        state_v[name] = v
        mhat = m / (1 - tg.ADAM_BETA1 ** t)
        vhat = v / (1 - tg.ADAM_BETA2 ** t)
        p.data = p.data - lr * mhat / (np.sqrt(vhat) + tg.ADAM_EPS)
        p.grad = None


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.dtype, a.shape, a.view(f"u{a.itemsize}").tobytes()


def _same_bits(a, b):
    return _bits(a) == _bits(b)


# ---------------------------------------------------------------------------
# neighbor_table

@st.composite
def node_batches(draw):
    """(B, N, D) float32 or float64 features, some node rows copies of others, and a valid k."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    b, n, d = draw(st.integers(0, 4)), draw(st.integers(2, 12)), draw(st.integers(1, 8))
    width = 32 if dtype == np.float32 else 64
    x = draw(arrays(dtype, (b, n, d), elements=st.floats(-8, 8, width=width)))
    if draw(st.booleans()):
        # rows that permute one row's values: equal exact distances from the
        # origin whose rounded sums differ with the order of the squares
        x[:, 0] = 0
        for r in range(2, n):
            x[:, r] = x[:, 1, draw(st.permutations(range(d)))]
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=4)):
        x[:, dst] = x[:, src]  # duplicated rows: equal distances, so ties
    return x, draw(st.integers(1, n - 1))


class TestNeighborTableOracle:
    @settings(max_examples=300, deadline=None)
    @given(node_batches())
    def test_same_bits(self, case):
        x, k = case
        assert _same_bits(neighbor_table(x.copy(), k), _ref_neighbor_table(x.copy(), k))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_ties_decided_by_rounding(self, rng, dtype):
        # node 0 at the origin, every other node a permutation of one random
        # row: equal exact distances, so the order hangs on the last bits
        for _ in range(50):
            d = int(rng.integers(1, 33))
            x = np.zeros((2, 12, d), dtype)
            x[:, 1] = rng.uniform(-8, 8, (2, d))
            for r in range(2, 12):
                x[:, r] = x[:, 1, rng.permutation(d)]
            assert _same_bits(neighbor_table(x, 11), _ref_neighbor_table(x, 11))

    def test_coarse_grid_full_of_ties(self, rng):
        x = rng.integers(0, 3, size=(6, 12, 3)).astype(np.float32)
        for k in range(1, 12):
            assert _same_bits(neighbor_table(x, k), _ref_neighbor_table(x, k))

    def test_same_error(self):
        for k in (0, 4):
            with pytest.raises(ConfigError) as new:
                neighbor_table(np.zeros((2, 4, 2)), k)
            with pytest.raises(ConfigError) as ref:
                _ref_neighbor_table(np.zeros((2, 4, 2)), k)
            assert str(new.value) == str(ref.value)


# ---------------------------------------------------------------------------
# patchify

class TestPatchifyOracle:
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_contiguous_and_half_views(self, rng, lead, width, n, dtype):
        t = n * width
        whole = rng.standard_normal((*lead, 6, 2 * t)).astype(dtype)
        first, second = split_pair(whole)  # (..., F, t) views of every other row span
        for values in (whole[..., :t].copy(), first, second):
            assert _same_bits(patchify(values, n, "temporal"), _ref_patchify(values, n, "temporal"))

    def test_rows_not_contiguous(self, rng):
        values = np.asfortranarray(rng.standard_normal((6, 8)).astype(np.float32))
        assert _same_bits(patchify(values, 4, "temporal"), _ref_patchify(values, 4, "temporal"))

    def test_empty_batch(self):
        # the reference's reshape(..., -1) cannot size an empty batch
        assert patchify(np.zeros((0, 4, 8), np.float32), 2, "temporal").shape == (0, 2, 16)

    def test_result_is_a_copy(self, rng):
        values = rng.standard_normal((2, 4, 8)).astype(np.float32)
        patches = patchify(values, 2, "temporal")
        assert not np.shares_memory(patches, values)


# ---------------------------------------------------------------------------
# affine

class TestAffineOracle:
    def _run(self, fn, arrays_, trained, weight):
        x, w, b = (tg.Tensor(a.copy(), requires_grad=r) for a, r in zip(arrays_, trained))
        with tg.Tape() as tape:
            out = fn(x, w, b)
            tape.backward(tg.tsum(tg.mul(out, tg.Tensor(weight))))
        return out.data, x.grad, w.grad, b.grad

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("trained", [(True, True, True), (False, True, True),
                                         (True, False, False), (False, False, True)])
    @pytest.mark.parametrize("m", [1, 7, 96])
    def test_forward_and_gradients(self, rng, dtype, trained, m):
        arrays_ = [rng.standard_normal(s).astype(dtype) for s in ((m, 10), (10, 16), (1, 16))]
        weight = rng.standard_normal((m, 16)).astype(dtype)
        new = self._run(tg.affine, arrays_, trained, weight)
        ref = self._run(_ref_affine, arrays_, trained, weight)
        for a, b in zip(new, ref):
            assert (a is None) == (b is None)
            assert a is None or _same_bits(a, b)

    def test_output_feeding_two_consumers(self, rng):
        arrays_ = [rng.standard_normal(s).astype(np.float32) for s in ((5, 3), (3, 4), (1, 4))]

        def twice(fn):
            x, w, b = (tg.Tensor(a, requires_grad=True) for a in arrays_)
            with tg.Tape() as tape:
                out = fn(x, w, b)
                tape.backward(tg.tsum(tg.mul(out, tg.relu(out))))
            return x.grad, w.grad, b.grad

        assert all(_same_bits(a, b) for a, b in zip(twice(tg.affine), twice(_ref_affine)))

    @pytest.mark.parametrize("shapes", [((4, 3), (3, 2), (2, 2)), ((4, 3), (3, 2), (2,)),
                                        ((4, 3), (5, 2), (1, 2)), ((4, 3), (3, 2), (1, 3)),
                                        ((3,), (3, 2), (1, 2)), ((4, 3), (3,), (1, 2))])
    def test_same_shape_errors(self, shapes):
        x, w, b = (tg.Tensor(np.ones(s, np.float32)) for s in shapes)
        with pytest.raises(ShapeError) as new:
            tg.affine(x, w, b)
        with pytest.raises(ShapeError) as ref:
            _ref_affine(x, w, b)
        assert str(new.value) == str(ref.value)


# ---------------------------------------------------------------------------
# grouped_matmul

class TestGroupedMatmulOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("m, heads, c, o", [(1, 1, 3, 2), (7, 4, 8, 4), (768, 4, 8, 4),
                                                (1536, 4, 4, 2), (96, 2, 16, 16)])
    def test_forward_and_gradients(self, rng, dtype, m, heads, c, o):
        x = rng.standard_normal((m, heads * c)).astype(dtype)
        weights = [rng.standard_normal((c, o)).astype(dtype) for _ in range(heads)]
        g = rng.standard_normal((m, heads * o)).astype(dtype)
        h = tg.Tensor(x, requires_grad=True)
        ws = [tg.Tensor(w, requires_grad=True) for w in weights]
        with tg.Tape() as tape:
            out = tg.grouped_matmul(h, ws)
            tape.backward(tg.tsum(tg.mul(out, tg.Tensor(g))))
        ref_out, ref_gx, ref_gws = _ref_grouped_matmul(x, weights, g)
        assert _same_bits(out.data, ref_out)
        assert _same_bits(h.grad, ref_gx)
        assert all(_same_bits(t.grad, gw) for t, gw in zip(ws, ref_gws))


# ---------------------------------------------------------------------------
# adam_step

def _adam_store(dtype, rng):
    store = tg.ParamStore()
    for name, shape in [("a.w", (4, 3)), ("a.b", (1, 3)), ("frozen", (2, 2)),
                        ("toggled", (3, 5)), ("c.w", (5, 1))]:
        store.add(name, tg.Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True))
    store["frozen"].requires_grad = False
    return store


class TestAdamOracle:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_six_steps_same_bits(self, dtype):
        new = _adam_store(dtype, np.random.default_rng(3))
        ref = _adam_store(dtype, np.random.default_rng(3))
        grads = np.random.default_rng(4)
        for step in range(6):
            for store in (new, ref):
                store["toggled"].requires_grad = step % 2 == 0
            for name, p in new.items():
                if p.requires_grad:
                    g = grads.standard_normal(p.shape).astype(dtype)
                    p.grad, ref[name].grad = g, g.copy()
            tg.adam_step(new, lr=0.01)
            _ref_adam_step(ref, lr=0.01)
            for name, p in new.items():
                assert p.dtype == dtype and p.grad is None
                assert _same_bits(p.data, ref[name].data), (step, name)

    def test_training_run_of_a_frozen_tail(self):
        # a frozen fine-tune: the stem and encoder frozen, the head trained
        new = _adam_store(np.float32, np.random.default_rng(5))
        ref = _adam_store(np.float32, np.random.default_rng(5))
        for store in (new, ref):
            for name in ("a.w", "a.b", "toggled"):
                store[name].requires_grad = False
        grads = np.random.default_rng(6)
        for _ in range(3):
            g = grads.standard_normal((5, 1)).astype(np.float32)
            new["c.w"].grad, ref["c.w"].grad = g, g.copy()
            tg.adam_step(new, lr=0.1)
            _ref_adam_step(ref, lr=0.1)
        assert all(_same_bits(p.data, ref[name].data) for name, p in new.items())

    def test_second_dtype_refused(self):
        store = tg.ParamStore()
        store.add("f32", tg.Tensor(np.ones((2, 2), np.float32), requires_grad=True))
        with pytest.raises(ContractError, match="'f64' is float64, but this store holds float32"):
            store.add("f64", tg.Tensor(np.ones((1, 3), np.float64), requires_grad=True))
        assert store.names() == ["f32"]

    def test_parameter_added_after_a_step(self):
        store = tg.ParamStore()
        ref = tg.ParamStore()
        for s in (store, ref):
            s.add("w", tg.Tensor(np.full((2, 2), 0.5, np.float32), requires_grad=True))
            s["w"].grad = np.ones((2, 2), np.float32)
        tg.adam_step(store, lr=0.1)
        _ref_adam_step(ref, lr=0.1)
        for s in (store, ref):
            s.add("late", tg.Tensor(np.full((1, 2), 0.5, np.float32), requires_grad=True))
            s["w"].grad = np.ones((2, 2), np.float32)
            s["late"].grad = np.full((1, 2), 2.0, np.float32)
        tg.adam_step(store, lr=0.1)
        _ref_adam_step(ref, lr=0.1)
        assert all(_same_bits(p.data, ref[name].data) for name, p in store.items())

    def test_missing_gradient_raises(self):
        store = _adam_store(np.float32, np.random.default_rng(7))
        for name in ("a.w", "a.b", "c.w"):
            store[name].grad = np.ones_like(store[name].data)
        with pytest.raises(ContractError, match="'toggled' has no gradient"):
            tg.adam_step(store, lr=0.1)


@st.composite
def _adam_runs(draw):
    """A store's parameter shapes and dtype, one per-step trainable mask, the step
    after which one more parameter is added (or None), the seed of the gradients
    and the learning rate."""
    shape = st.lists(st.integers(1, 5), min_size=1, max_size=2).map(tuple)
    shapes = draw(st.lists(shape, min_size=1, max_size=6))
    steps = draw(st.integers(1, 8))
    late = draw(st.none() | st.tuples(st.integers(1, steps), shape))
    n_params = len(shapes) + (late is not None)
    masks = draw(st.lists(st.lists(st.booleans(), min_size=n_params, max_size=n_params),
                          min_size=steps, max_size=steps))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return shapes, dtype, masks, late, draw(st.integers(0, 2**32 - 1)), \
        draw(st.sampled_from([1e-3, 0.01, 0.1, 1.0]))


class TestAdamProperty:
    @settings(max_examples=200, deadline=None)
    @given(_adam_runs())
    def test_parameters_and_moments_same_bits_as_per_parameter_state(self, run):
        shapes, dtype, masks, late, seed, lr = run
        values = np.random.default_rng(seed)
        initial = [values.standard_normal(s).astype(dtype) for s in shapes]
        new, ref = tg.ParamStore(), tg.ParamStore()
        for store in (new, ref):
            for i, arr in enumerate(initial):
                store.add(f"p{i}", tg.Tensor(arr.copy(), requires_grad=True))
        for step, mask in enumerate(masks):
            if late is not None and step == late[0]:
                arr = values.standard_normal(late[1]).astype(dtype)
                for store in (new, ref):
                    store.add("late", tg.Tensor(arr.copy(), requires_grad=True))
            for (name, p), trained in zip(new.items(), mask):
                p.requires_grad = ref[name].requires_grad = trained
                if trained:  # gradients over a spread of magnitudes, zeros included
                    g = (values.standard_normal(p.shape) * 10.0 ** values.integers(-4, 3)
                         * (values.random(p.shape) > 0.1)).astype(dtype)
                    p.grad, ref[name].grad = g, g.copy()
            tg.adam_step(new, lr)
            _ref_adam_step(ref, lr)
            lo = 0
            for name, p in new.items():
                hi = lo + p.data.size
                assert p.grad is None and _same_bits(p.data, ref[name].data), (step, name)
                for flat, state in ((new._m, ref._ref_m), (new._v, ref._ref_v)):
                    expected = state.get(name, np.zeros(p.shape, dtype)).ravel()
                    assert _same_bits(flat[lo:hi], expected), (step, name)
                lo = hi


def test_adam_step_peaks_at_three_run_sized_arrays(make_model):
    # a frozen fine-tune's step: the default classifier head is the one run
    model = make_model(head="cls")
    head = [p for name, p in model.store.items() if not train._is_encoder(name)]
    for name, p in model.store.items():
        p.requires_grad = not train._is_encoder(name)
    run_bytes = sum(p.data.nbytes for p in head)
    grads = np.random.default_rng(8)

    def set_grads():
        for p in head:
            p.grad = grads.standard_normal(p.shape).astype(np.float32)
    set_grads()
    tg.adam_step(model.store, lr=1e-3)  # the first step allocates the store's moments
    set_grads()
    tracemalloc.start()
    try:
        tg.adam_step(model.store, lr=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * run_bytes + 64 * 1024, peak / run_bytes


class TestLoadFeaturesOracle:
    def test_same_rows(self, tiny_corpus):
        root, entries = tiny_corpus
        items = [(e.clip_id, e.path) for e in entries]
        assert _same_bits(train.load_features(items, root, (32, 32)),
                          _ref_load_stacked(items, root, (32, 32)))

    def test_evaluate_with_a_short_last_chunk(self, tiny_corpus, tiny_cfg, monkeypatch):
        root, entries = tiny_corpus
        model = train.build_model(tiny_cfg, head="cls")
        monkeypatch.setattr(train, "EVAL_BATCH", 6)  # 20 eval clips: chunks of 6, 6, 6, 2
        rows = [e for e in entries if e.split == "eval"]
        feats = _ref_load_features([(e.clip_id, e.path) for e in rows], root, model.clip_shape)
        probs = train._score_chunks(lambda ids: train._classify_forward(
            model, np.stack([feats[c] for c in ids]), ids),
            train._batches([e.clip_id for e in rows], train.EVAL_BATCH))
        expected = metrics.ScoreSet([(e.clip_id, p, e.label) for e, p in zip(rows, probs)])
        scores, report = train.evaluate(model, entries, root)
        assert scores.entries == expected.entries
        assert _same_bits(np.array([s for _, s, _ in scores.entries]),
                          np.array([s for _, s, _ in expected.entries]))
        ref = metrics.compute_eer(expected)
        assert _same_bits(np.array([report.eer, report.threshold]),
                          np.array([ref.eer, ref.threshold]))


# ---------------------------------------------------------------------------
# synthetic corpus

def _files(root):
    return {path.name: path.read_bytes() for path in sorted(Path(root).iterdir())}


class TestGenSyntheticOracle:
    """Blocks of clips computed together, and written by a forked writer or by this
    process, give the files of computing and writing each clip alone, manifest
    included."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(f=st.integers(2, 16), t=st.integers(4, 17),
           sizes=st.lists(st.integers(0, 70), min_size=3, max_size=3),
           attack_types=st.integers(1, 6), strength=st.floats(0, 3),
           seed=st.integers(0, 2**64))
    def test_same_files_as_one_clip_at_a_time(self, force_processes, f, t, sizes,
                                              attack_types, strength, seed):
        cfg = featio.SynthConfig(F=f, T=t, n_per_split=dict(zip(featio.SPLITS, sizes)),
                                 n_attack_types=attack_types, artifact_strength=strength,
                                 seed=seed)
        try:
            cfg.validate()
        except ConfigError:
            assume(False)
        with tempfile.TemporaryDirectory() as scratch:
            reference = Path(scratch) / "reference"
            entries = _ref_gen_synthetic(cfg, reference)
            for processes in (1, 2):
                force_processes(processes)
                shipped = Path(scratch) / f"shipped{processes}"
                assert featio.gen_synthetic(cfg, shipped) == entries
                assert _files(shipped) == _files(reference)

    @settings(max_examples=100, deadline=None)
    @given(f=st.integers(1, 16), t=st.integers(1, 17), n=st.integers(1, 40),
           seed=st.integers(0, 2**64))
    @example(f=64, t=64, n=33, seed=5)
    def test_fields_same_bits_as_one_clip_at_a_time(self, f, t, n, seed):
        """Before their float32 rounding, which can hide a reordered operation."""
        ids = [f"eval_{i:05d}" for i in range(n)]
        block = featio._bona_fide_fields([stream(seed, c, sep=":") for c in ids], f, t)
        reference = np.stack([_ref_bona_fide_field(stream(seed, c, sep=":"), f, t)
                              for c in ids])
        assert _same_bits(block, reference)


# ---------------------------------------------------------------------------
# whole runs

def _tiny_runs(tiny_corpus, out):
    """2-epoch ED+GN+FM pretrain, frozen and unfrozen fine-tunes, and evaluate:
    (checkpoint bytes by file, score bytes by fine-tune)."""
    root, entries = tiny_corpus
    cfg = cfgmod.defaults()
    cfg.update({"data.dir": str(root), "data.f": 32, "data.t": 32, "train.epochs": 2,
                "train.batch_size": 16, "train.seed": 11,
                "aug.ed": True, "aug.gn": True, "aug.fm": True})
    ckpt, _ = train.pretrain(cfg, train.strip_labels(entries), root, out / "pre")
    files, scores = {"pretrained.sigc": ckpt.read_bytes()}, {}
    for freeze in (True, False):
        ft_cfg = dict(cfg, **{"train.freeze_encoders": freeze})
        model_path, _, _ = train.finetune(ft_cfg, entries, root, out / f"ft-{freeze}", ckpt)
        files[f"model.sigc frozen={freeze}"] = model_path.read_bytes()
        score_set, eer = train.evaluate(train.load_model(ft_cfg, model_path), entries, root)
        ids = [clip_id for clip_id, _, _ in score_set.entries]
        values = np.array([score for _, score, _ in score_set.entries] + [eer.eer, eer.threshold])
        scores[freeze] = (ids, _bits(values))
    return files, scores


def test_training_runs_same_bits_as_reference_kernels(tiny_corpus, tmp_path, monkeypatch):
    shipped = _tiny_runs(tiny_corpus, tmp_path / "shipped")
    with monkeypatch.context() as mp:
        mp.setattr(train, "neighbor_table", _ref_neighbor_table)
        mp.setattr(train, "patchify", _ref_patchify)
        mp.setattr(tg, "affine", _ref_affine)
        mp.setattr(tg, "adam_step", _ref_adam_step)
        mp.setattr(train, "load_split", _ref_load_features)  # pretrain, unfrozen fine-tune
        mp.setattr(train, "load_features", _ref_load_stacked)  # frozen rows, evaluate
        reference = _tiny_runs(tiny_corpus, tmp_path / "reference")
    assert shipped == reference
