"""Training loops: pre-training, fine-tuning, early stopping, evaluation."""

import ast
import contextlib
import dataclasses
import errno
import hashlib
import json
import math
import os
import pickle
import re
import select
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from signl import augment as aug
from signl import checkpoint as ckpt
from signl import cli
from signl import config as cfgmod
from signl import encoder as enc
from signl import featio, forking
from signl import metrics
from signl import tensorgrad as tg
from signl import train
from signl.errors import ConfigError, FormatError, InputError, ShapeError
from signl.graphbuild import GraphView, knn_graph, neighbor_table, split_pair
from signl.seeding import stream


def _pretrain_cfg(tiny_cfg, **extra):
    cfg = dict(tiny_cfg)
    cfg.update({"train.epochs": 2, "train.lr": 1e-4})
    cfg.update(extra)
    return cfg


def _finetune_cfg(tiny_cfg, **extra):
    cfg = dict(tiny_cfg)
    cfg.update({"train.epochs": 3, "train.lr": 1e-3,
                "train.skip_pretrain": True})
    cfg.update(extra)
    return cfg


# the tiny corpus is 32 x 32 clips; a config asking for 64 x 64 must be refused
_SHAPE_MISMATCH = r"are \(32, 32\), but \(data.f, data.t\) is \(64, 64\)"


class TestStripLabels:
    def test_no_label_fields_exposed(self, tiny_corpus):
        _, entries = tiny_corpus
        clips = train.strip_labels(entries)
        assert all(len(item) == 2 for item in clips)
        for clip_id, path in clips:
            assert "bona" not in path and "fake" not in path

    def test_only_train_split(self, tiny_corpus):
        _, entries = tiny_corpus
        clips = train.strip_labels(entries)
        assert len(clips) == 40
        assert all(cid.startswith("train_") for cid, _ in clips)


class TestPretrain:
    def test_smoke_produces_loadable_checkpoint(self, tiny_corpus, tiny_cfg, tmp_path):
        root, entries = tiny_corpus
        cfg = _pretrain_cfg(tiny_cfg, **{"train.epochs": 1})
        path, trace = train.pretrain(cfg, train.strip_labels(entries), root, tmp_path)
        arrays = ckpt.load_arrays(path)
        assert any(n.startswith("enc_t.") for n in arrays)
        assert any(n.startswith("proj.") for n in arrays)
        assert len(trace) == 1
        assert set(trace[0]) == {"epoch", "train_loss", "dev_metric", "seconds"}
        assert np.isfinite(trace[0]["train_loss"])

    def test_same_seed_bit_identical(self, tiny_corpus, tiny_cfg, tmp_path):
        root, entries = tiny_corpus
        cfg = _pretrain_cfg(tiny_cfg)
        clips = train.strip_labels(entries)
        p1, t1 = train.pretrain(cfg, clips, root, tmp_path / "a")
        p2, t2 = train.pretrain(cfg, clips, root, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()
        strip = lambda tr: [{k: v for k, v in row.items() if k != "seconds"}
                            for row in tr]
        assert strip(t1) == strip(t2)

    def test_different_seeds_differ(self, tiny_corpus, tiny_cfg, tmp_path):
        root, entries = tiny_corpus
        clips = train.strip_labels(entries)
        p1, _ = train.pretrain(_pretrain_cfg(tiny_cfg, **{"train.seed": 1}),
                               clips, root, tmp_path / "a")
        p2, _ = train.pretrain(_pretrain_cfg(tiny_cfg, **{"train.seed": 2}),
                               clips, root, tmp_path / "b")
        assert p1.read_bytes() != p2.read_bytes()

    def test_empty_split_rejected(self, tiny_corpus, tiny_cfg, tmp_path):
        root, _ = tiny_corpus
        with pytest.raises(ConfigError):
            train.pretrain(_pretrain_cfg(tiny_cfg), [], root, tmp_path)

    def test_trace_file_written(self, tiny_corpus, tiny_cfg, tmp_path):
        root, entries = tiny_corpus
        cfg = _pretrain_cfg(tiny_cfg, **{"train.epochs": 1})
        train.pretrain(cfg, train.strip_labels(entries), root, tmp_path)
        rows = [json.loads(l) for l in
                (tmp_path / "pretrain_trace.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in rows] == [1]

    @pytest.mark.parametrize("processes", [1, 2], ids=["one_process", "two_processes"])
    def test_abort_keeps_finished_epochs_in_trace(self, tiny_corpus, tiny_cfg, tmp_path,
                                                 monkeypatch, force_processes, processes):
        """A loss that turns non-finite in epoch 2 leaves epoch 1's row on disk."""
        root, entries = tiny_corpus
        force_processes(processes)
        pair_forward = train._pair_forward

        def poisoned(model, mats, clip_ids, spec, seed, epoch):
            h1, h2, z1, z2 = pair_forward(model, mats, clip_ids, spec, seed, epoch)
            return h1, h2, tg.scale(z1, float("nan")) if epoch == 2 else z1, z2

        monkeypatch.setattr(train, "_pair_forward", poisoned)
        cfg = _pretrain_cfg(tiny_cfg, **{"train.epochs": 3})
        with pytest.raises(RuntimeError, match="non-finite loss at epoch 2"):
            train.pretrain(cfg, train.strip_labels(entries), root, tmp_path)
        rows = [json.loads(l) for l in
                (tmp_path / "pretrain_trace.jsonl").read_text().splitlines()]
        assert [r["epoch"] for r in rows] == [1]
        assert not (tmp_path / "pretrained.sigc").exists()


    def test_corpus_shape_other_than_config_rejected(self, tiny_corpus, tiny_cfg, tmp_path):
        root, entries = tiny_corpus  # 32 x 32 clips
        cfg = _pretrain_cfg(tiny_cfg, **{"data.f": 64, "data.t": 64})
        with pytest.raises(ConfigError, match=_SHAPE_MISMATCH):
            train.pretrain(cfg, train.strip_labels(entries), root, tmp_path)
        assert not (tmp_path / "pretrain_trace.jsonl").exists()  # no epoch started


def _trace_rows(trace):
    return [{k: v for k, v in row.items() if k != "seconds"} for row in trace]


def _no_child_left():
    """No child is left, zombie or live, once the helper is shut down; a helper
    left alive was idle, so it exits 0 once its pipe closes."""
    assert forking.shutdown() in (None, 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _up_until_told():
    """A call's work on the helper: say it is up, then wait for the caller's next
    message."""
    forking.caller().send(("up", None))
    forking.caller().recv()


def _log_draws(monkeypatch, path):
    """Log each later ``augment.sample_draws`` call, from either process, to ``path``
    as [pid, seed, batch key, epoch, view]: the key its ``derive_rng`` stream was
    made from.  Returns a reader of the logged calls as tuples."""
    derive, sample, keys = aug.derive_rng, aug.sample_draws, {}

    def derive_rng(*key):
        rng = derive(*key)
        keys[id(rng)] = rng, key  # the stream stays alive, so its id is not reused
        return rng

    def sample_draws(spec, rng, *args):
        with open(path, "a") as fh:
            fh.write(json.dumps([os.getpid(), *keys[id(rng)][1]]) + "\n")
        return sample(spec, rng, *args)

    monkeypatch.setattr(aug, "derive_rng", derive_rng)
    monkeypatch.setattr(aug, "sample_draws", sample_draws)
    return lambda: [tuple(json.loads(line)) for line in path.read_text().splitlines()]


_ALL_AUGMENTATIONS = {"aug.ed": True, "aug.gn": True, "aug.fm": True}


class TestPretrainTwoProcesses:
    """The temporal view trains in a forked worker when the probe allows it."""

    @pytest.fixture(scope="class")
    def odd_corpus(self, tmp_path_factory):
        """24 train clips of 32 x 31: pair halves of 16 frames, the second padded."""
        root = tmp_path_factory.mktemp("odd-corpus")
        synth = featio.SynthConfig(F=32, T=31, n_per_split={"train": 24, "dev": 2, "eval": 2},
                                   n_attack_types=2, artifact_strength=1.0, seed=5)
        return root, featio.gen_synthetic(synth, root)

    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(flags=st.tuples(st.booleans(), st.booleans(), st.booleans()),
           batch_size=st.sampled_from([1, 5, 7, 16]), epochs=st.integers(1, 3),
           patience=st.integers(1, 2), worse=st.sets(st.integers(1, 3)), odd=st.booleans())
    def test_two_processes_write_one_process_bits(self, tiny_corpus, odd_corpus, tiny_cfg,
                                                  tmp_path, monkeypatch, force_processes,
                                                  flags, batch_size, epochs, patience, worse,
                                                  odd):
        """``worse`` epochs' dev loss reads worse (one dev batch an epoch), so patience
        can stop a run early and its best epoch need not be its last."""
        root, entries = odd_corpus if odd else tiny_corpus
        cfg = _pretrain_cfg(tiny_cfg, **{
            "data.dir": str(root), "data.t": 31 if odd else 32, "train.epochs": epochs,
            "train.patience": patience, "train.batch_size": batch_size,
            "aug.ed": flags[0], "aug.gn": flags[1], "aug.fm": flags[2]})
        pair_forward, dev_passes = train._pair_forward, []

        def dev_spoiled(model, mats, clip_ids, spec, seed, epoch):
            h1, h2, z1, z2 = pair_forward(model, mats, clip_ids, spec, seed, epoch)
            if spec is None:  # the dev pass
                dev_passes.append(epoch)
                if len(dev_passes) in worse:
                    z1 = tg.scale(z1, -1.0)
            return h1, h2, z1, z2

        runs = []
        with monkeypatch.context() as patch:  # undone before the next example
            patch.setattr(train, "_pair_forward", dev_spoiled)
            for processes in (2, 1):
                force_processes(processes)
                dev_passes.clear()
                path, trace = train.pretrain(cfg, train.strip_labels(entries), root,
                                             tmp_path / str(processes))
                runs.append((path.read_bytes(), _trace_rows(trace)))
                _no_child_left()
        assert runs[0] == runs[1]

    def test_worker_trains_the_temporal_view_in_another_process(self, tiny_corpus, tiny_cfg,
                                                                tmp_path, monkeypatch,
                                                                force_processes):
        root, entries = tiny_corpus
        view_embed = train._view_embed
        log = os.open(tmp_path / "views", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def logged(model, segs, kind, *args):
            os.write(log, f"{os.getpid()} {kind}\n".encode())
            return view_embed(model, segs, kind, *args)

        monkeypatch.setattr(train, "_view_embed", logged)
        force_processes(2)
        try:
            train.pretrain(_pretrain_cfg(tiny_cfg, **{"train.epochs": 1}),
                           train.strip_labels(entries), root, tmp_path / "out")
        finally:
            os.close(log)
        calls = [line.split() for line in (tmp_path / "views").read_text().splitlines()]
        pids = {kind: {pid for pid, k in calls if k == kind} for kind in ("temporal", "spatial")}
        assert pids["spatial"] == {str(os.getpid())}
        assert len(pids["temporal"]) == 1 and pids["temporal"] != pids["spatial"]
        # 3 train batches of 16, 16 and 4 clips, then one dev batch, per view
        assert sum(k == "temporal" for _, k in calls) == sum(k == "spatial" for _, k in calls) == 4
        _no_child_left()

    def test_worker_draws_each_train_batch_once_and_one_batch_more(self, tiny_corpus,
                                                                   tiny_cfg, tmp_path,
                                                                   monkeypatch,
                                                                   force_processes):
        """The worker draws the temporal view of every train batch exactly once, and
        one batch that is never asked for: the one after the run's last, epoch 3's
        first, prepared while the parent finished epoch 2's last step."""
        root, entries = tiny_corpus
        draws = _log_draws(monkeypatch, tmp_path / "draws")
        force_processes(2)
        train.pretrain(_pretrain_cfg(tiny_cfg, **_ALL_AUGMENTATIONS),
                       train.strip_labels(entries), root, tmp_path / "out")
        _no_child_left()
        parent, calls = os.getpid(), draws()
        assert {view for pid, *_, view in calls if pid == parent} == {"spatial:12"}
        assert {view for pid, *_, view in calls if pid != parent} == {"temporal:12"}
        assert len({pid for pid, *_ in calls}) == 2
        used = [(key, epoch) for pid, _, key, epoch, _ in calls if pid == parent]
        drawn = [(key, epoch) for pid, _, key, epoch, _ in calls if pid != parent]
        assert len(used) == len(set(used)) == 6  # batches of 16, 16 and 4 clips, 2 epochs
        assert len(drawn) == len(set(drawn))
        assert set(used) <= set(drawn)
        assert [epoch for _, epoch in set(drawn) - set(used)] == [3]

    def test_dev_pass_keeps_the_prepared_first_batch_of_the_next_epoch(self, tiny_corpus,
                                                                        tiny_cfg, tmp_path,
                                                                        monkeypatch,
                                                                        force_processes):
        """Every train batch takes the draws the worker prepared, the run's first too;
        epoch 2's first does so after epoch 1's dev pass, which the worker computes on
        its own.  Epoch 2's dev loss reads worse, so patience 1 stops the run there, and
        the prepared epoch 3 batch is the one drawn and never asked for."""
        root, entries = tiny_corpus
        view_embed, pair_forward, dev_passes = train._view_embed, train._pair_forward, []
        log = tmp_path / "views"

        def logged(model, segs, kind, *args):
            if kind == "temporal":  # the worker's: (clip ids, spec, seed, epoch, segs, draws)
                with open(log, "a") as fh:
                    fh.write(json.dumps([args[3], args[1] is not None, args[5] is not None])
                             + "\n")
            return view_embed(model, segs, kind, *args)

        def dev_spoiled(model, mats, clip_ids, spec, seed, epoch):
            h1, h2, z1, z2 = pair_forward(model, mats, clip_ids, spec, seed, epoch)
            if spec is None:
                dev_passes.append(epoch)
                if len(dev_passes) == 2:
                    z1 = tg.scale(z1, -1.0)
            return h1, h2, z1, z2

        monkeypatch.setattr(train, "_view_embed", logged)
        monkeypatch.setattr(train, "_pair_forward", dev_spoiled)
        draws = _log_draws(monkeypatch, tmp_path / "draws")
        force_processes(2)
        cfg = _pretrain_cfg(tiny_cfg, **_ALL_AUGMENTATIONS,
                            **{"train.epochs": 3, "train.patience": 1})
        _, trace = train.pretrain(cfg, train.strip_labels(entries), root, tmp_path / "out")
        _no_child_left()
        assert len(trace) == 2
        train_calls = [[1, True, True], [1, True, True], [1, True, True],
                       [2, True, True], [2, True, True], [2, True, True]]
        dev_call = [0, False, False]
        calls = [json.loads(line) for line in log.read_text().splitlines()]
        assert calls == train_calls[:3] + [dev_call] + train_calls[3:] + [dev_call]
        drawn = [epoch for pid, _, _, epoch, _ in draws() if pid != os.getpid()]
        assert drawn == [1, 1, 1, 2, 2, 2, 3]

    def test_each_process_orders_each_epoch_once(self, tiny_corpus, tiny_cfg, tmp_path,
                                                 monkeypatch, force_processes):
        """``_epoch_batches`` runs once an epoch in each process of a 2-epoch run: here
        for ``_fit``'s epochs 1 and 2, and in the worker for those and epoch 3, whose
        first batch it prepares after the run's last."""
        root, entries = tiny_corpus
        epoch_batches = train._epoch_batches
        log = os.open(tmp_path / "orders", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

        def logged(cfg, ids, epoch):
            os.write(log, f"{os.getpid()} {epoch}\n".encode())
            return epoch_batches(cfg, ids, epoch)

        monkeypatch.setattr(train, "_epoch_batches", logged)
        force_processes(2)
        try:
            train.pretrain(_pretrain_cfg(tiny_cfg), train.strip_labels(entries), root,
                           tmp_path / "out")
        finally:
            os.close(log)
        _no_child_left()
        calls = [line.split() for line in (tmp_path / "orders").read_text().splitlines()]
        parent = str(os.getpid())
        assert len({pid for pid, _ in calls}) == 2
        assert [int(epoch) for pid, epoch in calls if pid == parent] == [1, 2]
        assert [int(epoch) for pid, epoch in calls if pid != parent] == [1, 2, 3]

    def test_no_bit_depends_on_the_workers_guess(self, tiny_corpus, tiny_cfg, tmp_path,
                                                 monkeypatch, force_processes):
        """The worker, forked after the patch, guesses each epoch's batches (16, 16 and
        4 clips) in reverse, so most requests miss the prepared batch and prepare their
        own: the checkpoint and trace keep the bits of one process."""
        root, entries = tiny_corpus
        parent, epoch_batches = os.getpid(), train._epoch_batches

        def reversed_in_the_worker(cfg, ids, epoch):
            batches = epoch_batches(cfg, ids, epoch)
            return batches if os.getpid() == parent else batches[::-1]

        monkeypatch.setattr(train, "_epoch_batches", reversed_in_the_worker)
        draws = _log_draws(monkeypatch, tmp_path / "draws")
        cfg = _pretrain_cfg(tiny_cfg, **_ALL_AUGMENTATIONS, **{"train.epochs": 3})
        runs = []
        for processes in (2, 1):
            force_processes(processes)
            path, trace = train.pretrain(cfg, train.strip_labels(entries), root,
                                         tmp_path / str(processes))
            runs.append((path.read_bytes(), _trace_rows(trace)))
            _no_child_left()
        assert runs[0] == runs[1]
        drawn = [(key, epoch) for pid, _, key, epoch, _ in draws() if pid != parent]
        assert len(drawn) > len(set(drawn))  # a missed train batch, drawn again as a guess

    def test_preparation_reads_no_parameter(self):
        """``_prepare``, and what it calls in ``train``, reads no ``model.store`` entry
        and runs no embedding, tape or Adam step: only work a step's parameters
        cannot change moves off the worker's critical path."""
        tree = ast.parse(Path(train.__file__).read_text())
        functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
        seen, todo = set(), ["_prepare"]
        while todo:
            name = todo.pop()
            seen.add(name)
            for node in ast.walk(functions[name]):
                assert not (isinstance(node, ast.Attribute) and node.attr == "store"), name
                if isinstance(node, ast.Call):
                    callee = ast.unparse(node.func).split(".")[-1]
                    assert callee not in ("_view_embed", "Tape", "adam_step"), name
                    if callee in functions and callee not in seen:
                        todo.append(callee)
        assert seen == {"_prepare", "_pair_halves", "_view_draws"}

    def test_non_finite_loss_names_the_workers_current_norms(self, tiny_corpus, tiny_cfg,
                                                             tmp_path, monkeypatch,
                                                             force_processes):
        """An abort message, at epoch 2's first batch or mid-epoch at epoch 1's third
        (batches of 16, 16 and 4 clips), reads the temporal parameters after the steps
        before it, which the worker sends with the aborted batch's rows."""
        root, entries = tiny_corpus
        pair_forward, poison, train_passes = train._pair_forward, None, []

        def poisoned(model, mats, clip_ids, spec, seed, epoch):
            h1, h2, z1, z2 = pair_forward(model, mats, clip_ids, spec, seed, epoch)
            if spec is not None:  # a train batch, not the dev pass
                train_passes.append(epoch)
                if (epoch, train_passes.count(epoch) - 1) == poison:
                    z1 = tg.scale(z1, float("nan"))
            return h1, h2, z1, z2

        monkeypatch.setattr(train, "_pair_forward", poisoned)
        cfg = _pretrain_cfg(tiny_cfg, **{"train.epochs": 3, "train.lr": 1e-2})
        initial = np.linalg.norm(train.build_model(cfg, head="proj").store["stem.temporal.w"].data)
        for poison in ((2, 0), (1, 2)):
            messages = []
            for processes in (1, 2):
                force_processes(processes)
                train_passes.clear()
                with pytest.raises(RuntimeError, match=f"non-finite loss at epoch {poison[0]}, "
                                                       f"batch {poison[1]};") as info:
                    train.pretrain(cfg, train.strip_labels(entries), root,
                                   tmp_path / f"{poison}-{processes}")
                messages.append(str(info.value))
                _no_child_left()
            assert messages[0] == messages[1]
            assert "stem.temporal.w=" in messages[0]
            assert f"stem.temporal.w={initial:.3g}," not in messages[0]  # the steps moved it

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a diverged run stops quietly
    def test_diverged_run_stops_before_its_trace_row(self, tiny_corpus, tiny_cfg, tmp_path,
                                                     force_processes):
        """At lr 1e39 epoch 1's one step makes the parameters infinite and its dev loss
        NaN: the run stops there with one message on either path, and saves nothing."""
        root, entries = tiny_corpus
        cfg = _pretrain_cfg(tiny_cfg, **{"train.epochs": 1, "train.batch_size": 96,
                                         "train.lr": 1e39})
        messages = []
        for processes in (1, 2):
            force_processes(processes)
            out = tmp_path / str(processes)
            with pytest.raises(RuntimeError, match=r"^non-finite dev metric at epoch 1; "
                                                   r"largest param norms: ") as info:
                train.pretrain(cfg, train.strip_labels(entries), root, out)
            messages.append(str(info.value))
            assert (out / "pretrain_trace.jsonl").read_text() == ""
            assert not (out / "pretrained.sigc").exists()
            _no_child_left()
        assert messages[0] == messages[1]

    def test_one_clip_is_its_own_dev_clip_on_both_paths(self, tiny_corpus, tiny_cfg,
                                                        tmp_path, force_processes):
        """A one-clip split trains on its one clip and scores each epoch by that
        clip's dev loss, with the worker when the probe allows it: both paths write
        the same bits."""
        root, entries = tiny_corpus
        clips = train.strip_labels(entries)[:1]
        cfg = _pretrain_cfg(tiny_cfg, **_ALL_AUGMENTATIONS, **{"train.epochs": 3})
        runs = []
        for processes in (2, 1):
            force_processes(processes)
            path, trace = train.pretrain(cfg, clips, root, tmp_path / str(processes))
            runs.append((path.read_bytes(), _trace_rows(trace)))
            assert (forking._helper is not None) == (processes == 2)
            _no_child_left()
        assert runs[0] == runs[1]
        assert [row["dev_metric"] for row in runs[0][1]] != \
            [row["train_loss"] for row in runs[0][1]]  # the dev loss, not the train loss

    def test_worker_exit_without_a_result_raises_runtime_error(self, tiny_corpus, tiny_cfg,
                                                               tmp_path, monkeypatch,
                                                               force_processes):
        root, entries = tiny_corpus
        parent, view_embed, calls = os.getpid(), train._view_embed, []

        def worker_exits(model, segs, kind, *args):
            calls.append(kind)
            if os.getpid() != parent and len(calls) == 2:  # mid-epoch, after one step
                os._exit(3)
            return view_embed(model, segs, kind, *args)

        monkeypatch.setattr(train, "_view_embed", worker_exits)
        force_processes(2)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=r"without a result \(exit status 3\)"):
            train.pretrain(_pretrain_cfg(tiny_cfg), train.strip_labels(entries), root, tmp_path)
        assert time.monotonic() - start < 30
        _no_child_left()

    def test_parent_interrupt_kills_and_reaps_the_worker(self, tiny_corpus, tiny_cfg,
                                                         tmp_path, monkeypatch,
                                                         force_processes):
        root, entries = tiny_corpus
        parent, view_embed, calls = os.getpid(), train._view_embed, []

        def interrupted(model, segs, kind, *args):
            calls.append(kind)
            if len(calls) == 2:  # the second batch: its temporal view is requested
                if os.getpid() == parent:
                    raise KeyboardInterrupt
                time.sleep(60)  # the worker outlives the parent's share unless killed
            return view_embed(model, segs, kind, *args)

        monkeypatch.setattr(train, "_view_embed", interrupted)
        force_processes(2)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            train.pretrain(_pretrain_cfg(tiny_cfg), train.strip_labels(entries), root, tmp_path)
        assert time.monotonic() - start < 30
        _no_child_left()

    def test_worker_error_reaches_the_parent_with_its_type(self, tiny_corpus, tiny_cfg,
                                                           tmp_path, monkeypatch,
                                                           force_processes):
        root, entries = tiny_corpus
        parent, backward = os.getpid(), tg.Tape.backward

        def worker_fails(tape, out, grad=None):
            if os.getpid() != parent:
                raise ShapeError("matmul inner dims disagree")
            return backward(tape, out, grad)

        monkeypatch.setattr(tg.Tape, "backward", worker_fails)
        force_processes(2)
        with pytest.raises(ShapeError, match="matmul inner dims disagree"):
            train.pretrain(_pretrain_cfg(tiny_cfg), train.strip_labels(entries), root, tmp_path)
        _no_child_left()

    def test_worker_error_that_does_not_pickle_raises_runtime_error(self, tiny_corpus, tiny_cfg,
                                                                    tmp_path, monkeypatch,
                                                                    force_processes):
        root, entries = tiny_corpus
        parent, backward = os.getpid(), tg.Tape.backward

        class Local(Exception):  # a class local to a function does not pickle
            pass

        def worker_fails(tape, out, grad=None):
            if os.getpid() != parent:
                raise Local("not picklable")
            return backward(tape, out, grad)

        monkeypatch.setattr(tg.Tape, "backward", worker_fails)
        force_processes(2)
        with pytest.raises(RuntimeError, match=r"^the temporal view worker ended without a "
                                               r"result \(exit status 1\)$"):
            train.pretrain(_pretrain_cfg(tiny_cfg), train.strip_labels(entries), root, tmp_path)
        _no_child_left()

    def test_probe_fails_and_pretrain_stays_in_one_process_under_default_blas(self,
                                                                              tiny_corpus,
                                                                              tmp_path):
        root, entries = tiny_corpus
        script = (
            "import os, sys\n"
            "from signl import config, featio, forking, train\n"
            "def no_fork():\n"
            "    raise AssertionError('pretrain forked')\n"
            "os.fork = no_fork\n"
            "cfg = config.defaults()\n"
            "cfg.update({'data.f': 32, 'data.t': 32, 'train.epochs': 1, 'train.seed': 11})\n"
            "entries = featio.read_manifest(os.path.join(sys.argv[1], 'manifest.jsonl'))\n"
            "clips = train.strip_labels(entries)[:8]\n"
            "train.pretrain(cfg, clips, sys.argv[1], sys.argv[2])\n"
            "print(forking.second_core_free(), len(os.listdir('/proc/self/task')))\n")
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        env["PYTHONPATH"] = str(Path(train.__file__).parents[1])
        out = subprocess.run([sys.executable, "-c", script, str(root), str(tmp_path)], env=env,
                             capture_output=True, text=True, check=True).stdout.split()
        assert out[0] == "False"
        assert int(out[1]) >= 2 or len(os.sched_getaffinity(0)) < 2  # BLAS runs a thread
        assert (tmp_path / "pretrained.sigc").is_file()

    @pytest.mark.parametrize("fault", ["non-finite", "other shape", "missing file"])
    def test_load_errors_keep_their_type_and_message(self, tiny_corpus, tiny_cfg, tmp_path,
                                                     monkeypatch, force_processes,
                                                     child_exits, fault):
        """Only the worker loads the split: a bad clip's error reaches this process as
        the call's error, with the type and message of one process, before the first
        epoch begins.  The corpus is named by a relative path."""
        root, entries = tiny_corpus
        shutil.copytree(root, tmp_path / "corpus")
        monkeypatch.chdir(tmp_path)
        spoilt = tmp_path / "corpus" / "train_00005.sigf"
        if fault == "non-finite":
            raw = bytearray(spoilt.read_bytes())
            raw[-4:] = np.float32(np.nan).tobytes()
            spoilt.write_bytes(raw)
        elif fault == "other shape":
            featio.write_feature(np.zeros((32, 30)), spoilt)
        else:
            spoilt.unlink()
        errors = []
        for processes in (2, 1):
            force_processes(processes)
            out = tmp_path / str(processes)
            with pytest.raises(Exception) as info:
                train.pretrain(_pretrain_cfg(tiny_cfg), train.strip_labels(entries), "corpus",
                               out)
            errors.append((type(info.value), str(info.value)))
            assert not (out / "pretrain_trace.jsonl").exists()
            _no_child_left()
        assert len(child_exits) == 1  # the two-process run's helper, reaped
        assert errors[0] == errors[1]
        kind = {"non-finite": FormatError, "other shape": ConfigError,
                "missing file": FileNotFoundError}[fault]
        assert errors[0][0] is kind and str(spoilt) in errors[0][1]

    @pytest.mark.parametrize("end", ["clean", "aborted", "worker killed"])
    def test_this_process_reads_no_clip_and_keeps_no_buffer(self, tiny_corpus, tiny_cfg,
                                                            tmp_path, monkeypatch,
                                                            force_processes, end):
        """Every clip of a forked pretrain is read by the worker.  However the run ends,
        this process then holds the descriptors it held before and no shared mapping,
        and the helper serves the next call: the same helper after a clean run,
        holding what it held before, or a new one after a run that killed it."""
        root, entries = tiny_corpus
        parent, log = os.getpid(), tmp_path / "reads"
        read_feature, view_embed, pair_forward = train.read_feature, train._view_embed, \
            train._pair_forward
        calls = []

        def logged(path, *args):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return read_feature(path, *args)

        def poisoned(model, mats, clip_ids, spec, seed, epoch):  # epoch 1's second batch
            h1, h2, z1, z2 = pair_forward(model, mats, clip_ids, spec, seed, epoch)
            calls.append(spec)
            return h1, h2, (tg.scale(z1, float("nan")) if len(calls) == 2 else z1), z2

        def killed(model, segs, kind, *args):
            calls.append(kind)
            if os.getpid() != parent and len(calls) == 2:
                os.kill(os.getpid(), signal.SIGKILL)
            return view_embed(model, segs, kind, *args)

        def held(pid="self"):
            maps = Path(f"/proc/{pid}/maps").read_text()
            return sorted(os.listdir(f"/proc/{pid}/fd")), "memfd:" in maps

        monkeypatch.setattr(train, "read_feature", logged)
        if end == "aborted":
            monkeypatch.setattr(train, "_pair_forward", poisoned)
        elif end == "worker killed":
            monkeypatch.setattr(train, "_view_embed", killed)
        force_processes(2)
        with forking.Call("first call", os.getpid) as call:
            helper = call.recv()
        before, helper_before = held(), held(helper)
        assert not before[1] and not helper_before[1]
        error = {"clean": None, "aborted": "non-finite loss at epoch 1, batch 1;",
                 "worker killed": r"without a result \(signal 9\)"}[end]
        with pytest.raises(RuntimeError, match=error) if error else contextlib.nullcontext():
            train.pretrain(_pretrain_cfg(tiny_cfg), train.strip_labels(entries), root,
                           tmp_path / "out")
        with forking.Call("next call", os.getpid) as call:
            assert (call.recv() == helper) == (end == "clean")
        assert held() == before
        if end == "clean":
            assert held(helper) == helper_before
        readers = set(log.read_text().split())
        assert len(readers) == 1 and str(parent) not in readers
        _no_child_left()

    def test_slots_keep_their_bits_under_a_slow_parent(self, tiny_corpus, tiny_cfg, tmp_path,
                                                       monkeypatch, force_processes):
        """This process's Adam step sleeps, so the worker's next preparation lands in one
        slot while this process still reads the other, through its stem's weight
        gradient too.  Dev batches of 3 clips make two misses in a row, and every
        checkpoint byte and trace value is that of one process."""
        root, entries = tiny_corpus
        parent, adam_step = os.getpid(), tg.adam_step

        def slow(store, lr):
            if os.getpid() == parent:
                time.sleep(0.005)
            adam_step(store, lr)

        monkeypatch.setattr(tg, "adam_step", slow)
        monkeypatch.setattr(train, "EVAL_BATCH", 3)
        cfg = _pretrain_cfg(tiny_cfg, **_ALL_AUGMENTATIONS,
                            **{"train.epochs": 3, "train.batch_size": 5})
        runs = []
        for processes in (2, 1):
            force_processes(processes)
            path, trace = train.pretrain(cfg, train.strip_labels(entries), root,
                                         tmp_path / str(processes))
            runs.append((path.read_bytes(), _trace_rows(trace)))
            _no_child_left()
        assert runs[0] == runs[1]


class TestFinetune:
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a diverged run stops quietly
    def test_diverged_run_names_the_param_norms(self, tiny_corpus, tiny_cfg, tmp_path):
        """At lr 1e39 epoch 1's one step makes the parameters infinite and the dev
        scores NaN: the run stops with the norms, not an EER error, and saves nothing."""
        root, entries = tiny_corpus
        cfg = _finetune_cfg(tiny_cfg, **{"train.label_fraction": 1.0, "train.batch_size": 96,
                                         "train.lr": 1e39})
        with pytest.raises(RuntimeError, match=r"^non-finite dev metric at epoch 1; "
                                               r"largest param norms: "):
            train.finetune(cfg, entries, root, tmp_path)
        assert (tmp_path / "finetune_trace.jsonl").read_text() == ""
        assert not (tmp_path / "model.sigc").exists()

    def test_corpus_shape_other_than_config_rejected(self, tiny_corpus, tiny_cfg, tmp_path):
        root, entries = tiny_corpus  # 32 x 32 clips
        cfg = _finetune_cfg(tiny_cfg, **{"data.f": 64, "data.t": 64})
        with pytest.raises(ConfigError, match=_SHAPE_MISMATCH):
            train.finetune(cfg, entries, root, tmp_path)
        assert not (tmp_path / "finetune_trace.jsonl").exists()  # no epoch started

    def test_no_dev_clips_rejected(self, tiny_corpus, tiny_cfg, tmp_path):
        root, entries = tiny_corpus
        no_dev = [e for e in entries if e.split != "dev"]
        with pytest.raises(ConfigError, match="labeled dev entries"):
            train.finetune(_finetune_cfg(tiny_cfg), no_dev, root, tmp_path)
        assert not (tmp_path / "finetune_trace.jsonl").exists()  # no epoch started

    @pytest.mark.parametrize("missing", ["bonafide", "fake"])
    def test_single_label_dev_split_rejected_before_any_clip_is_read(self, tiny_corpus,
                                                                     tiny_cfg, tmp_path, missing):
        _, entries = tiny_corpus
        one_label = [e for e in entries if e.split != "dev" or e.label != missing]
        with pytest.raises(ConfigError, match=f"split 'dev' holds no '{missing}' clips"):
            train.finetune(_finetune_cfg(tiny_cfg), one_label, tmp_path / "no-corpus", tmp_path)
        assert not (tmp_path / "finetune_trace.jsonl").exists()

    def test_missing_checkpoint_rejected(self, tiny_corpus, tiny_cfg, tmp_path):
        root, entries = tiny_corpus
        cfg = _finetune_cfg(tiny_cfg, **{"train.skip_pretrain": False})
        with pytest.raises(ConfigError, match="checkpoint"):
            train.finetune(cfg, entries, root, tmp_path)

    def test_skip_pretrain_with_checkpoint_rejected_before_any_clip_is_read(
            self, tiny_corpus, tiny_cfg, tmp_path):
        _, entries = tiny_corpus
        ck = tmp_path / "pretrained.sigc"
        ckpt.save_arrays(train.build_model(tiny_cfg, head="proj").store.state_arrays(), ck)
        with pytest.raises(ConfigError, match="skip_pretrain = true, yet a checkpoint"):
            train.finetune(_finetune_cfg(tiny_cfg), entries, tmp_path / "no-corpus", tmp_path,
                           checkpoint_path=ck)
        assert not (tmp_path / "finetune_trace.jsonl").exists()

    def test_skip_pretrain_smoke(self, tiny_corpus, tiny_cfg, tmp_path):
        root, entries = tiny_corpus
        path, trace, best = train.finetune(_finetune_cfg(tiny_cfg), entries,
                                           root, tmp_path)
        assert path.exists()
        assert 0.0 <= best <= 0.5
        assert all(set(r) == {"epoch", "train_loss", "dev_metric", "seconds"}
                   for r in trace)

    def test_same_seed_bit_identical(self, tiny_corpus, tiny_cfg, tmp_path):
        root, entries = tiny_corpus
        cfg = _finetune_cfg(tiny_cfg)
        p1, _, _ = train.finetune(cfg, entries, root, tmp_path / "a")
        p2, _, _ = train.finetune(cfg, entries, root, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()

    def test_freeze_keeps_encoder_bytes(self, tiny_corpus, tiny_cfg, tmp_path):
        root, entries = tiny_corpus
        pre_cfg = _pretrain_cfg(tiny_cfg, **{"train.epochs": 1})
        pre_path, _ = train.pretrain(pre_cfg, train.strip_labels(entries),
                                     root, tmp_path / "pre")
        cfg = _finetune_cfg(tiny_cfg, **{"train.skip_pretrain": False,
                                         "train.freeze_encoders": True})
        model_path, _, _ = train.finetune(cfg, entries, root, tmp_path / "ft",
                                          checkpoint_path=pre_path)
        before = ckpt.load_arrays(pre_path)
        after = ckpt.load_arrays(model_path)
        enc_names = [n for n in after if n.startswith(("stem.", "enc_"))]
        assert enc_names
        for name in enc_names:
            assert after[name].tobytes() == before[name].tobytes(), name
        cls_w = [n for n in after if n.startswith("cls.")]
        assert cls_w  # the classifier head trains

    def test_temporal_only_halves_classifier_input(self, tiny_cfg):
        both = train.build_model(tiny_cfg, head="cls")
        temp = train.build_model({**tiny_cfg, "train.view_mode": "temporal_only"}, head="cls")
        assert temp.store["cls.l0.w"].shape[0] * 2 == both.store["cls.l0.w"].shape[0]

        def spatial(model):
            return [n for n in model.store.names() if n.startswith(("enc_s.", "stem.spatial."))]
        assert spatial(both)
        assert not spatial(temp)

    def test_reads_no_eval_features(self, tiny_corpus, tiny_cfg, tmp_path):
        root, entries = tiny_corpus
        corpus = tmp_path / "corpus"
        shutil.copytree(root, corpus)
        for e in entries:
            if e.split == "eval":
                (corpus / e.path).unlink()
        path, _, _ = train.finetune(_finetune_cfg(tiny_cfg, **{"train.epochs": 1}),
                                    entries, corpus, tmp_path / "run")
        assert path.exists()

    def test_label_fraction_reduces_train_set(self, tiny_corpus, tiny_cfg, tmp_path):
        root, entries = tiny_corpus
        cfg = _finetune_cfg(tiny_cfg, **{"train.label_fraction": 0.5,
                                         "train.epochs": 1})
        path, _, _ = train.finetune(cfg, entries, root, tmp_path)
        assert path.exists()


class TestFrozenEmbeddingCache:
    """A frozen fine-tune encodes each labelled clip once; the rows are the live inputs."""

    VIEWS = 2  # view_mode "both"

    @pytest.fixture
    def view_embed_calls(self, monkeypatch):
        calls = []
        embed = train._view_embed

        def counted(*args, **kwargs):
            calls.append(args[2])
            return embed(*args, **kwargs)
        monkeypatch.setattr(train, "_view_embed", counted)
        return calls

    @staticmethod
    def _labelled(entries):
        return [e for e in entries if e.split in ("train", "dev")]  # label fraction 1

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_frozen_encodes_each_clip_once(self, tiny_corpus, tiny_cfg, tmp_path, monkeypatch,
                                           view_embed_calls, epochs):
        root, entries = tiny_corpus
        monkeypatch.setattr(train, "EVAL_BATCH", 10)  # 50 labelled clips: 5 chunks
        cfg = _finetune_cfg(tiny_cfg, **{"train.freeze_encoders": True, "train.epochs": epochs})
        _, trace, _ = train.finetune(cfg, entries, root, tmp_path)
        assert len(trace) == epochs
        chunks = math.ceil(len(self._labelled(entries)) / train.EVAL_BATCH)
        assert len(view_embed_calls) == self.VIEWS * chunks

    def test_unfrozen_encodes_every_batch(self, tiny_corpus, tiny_cfg, tmp_path,
                                          view_embed_calls):
        root, entries = tiny_corpus
        cfg = _finetune_cfg(tiny_cfg)
        _, trace, _ = train.finetune(cfg, entries, root, tmp_path)
        n_train = sum(e.split == "train" for e in entries)
        n_dev = sum(e.split == "dev" for e in entries)
        per_epoch = (math.ceil(n_train / cfg["train.batch_size"])
                     + math.ceil(n_dev / train.EVAL_BATCH))
        assert len(view_embed_calls) == self.VIEWS * per_epoch * len(trace)

    @pytest.mark.parametrize("eval_batch, live_batch, exact", [
        (10, 16, True),   # every chunk and batch has an even clip count
        (7, 16, False),   # odd chunks: the last bits may differ, by a float32 ulp or so
        (10, 5, False),
    ])
    def test_cached_rows_are_live_classifier_inputs(self, tiny_corpus, tiny_cfg, monkeypatch,
                                                     eval_batch, live_batch, exact):
        root, entries = tiny_corpus
        model = train.build_model({**tiny_cfg, "train.seed": 3}, head="cls")
        ids = [e.clip_id for e in self._labelled(entries)]
        items = [(e.clip_id, e.path) for e in self._labelled(entries)]
        feats = train.load_split(items, root, model.clip_shape)
        monkeypatch.setattr(train, "EVAL_BATCH", eval_batch)
        cached = train._embedding_rows(model, items, root)

        inputs = []
        run_mlp = enc.run_mlp

        def recorded(x, store, prefix):
            inputs.append(x.data)
            return run_mlp(x, store, prefix)
        monkeypatch.setattr(enc, "run_mlp", recorded)
        for batch in train._batches(ids, live_batch):
            train._classify_forward(model, [feats[c] for c in batch], batch)
        live = np.concatenate(inputs)
        assert cached.dtype == np.float32
        assert cached.shape == live.shape == (len(ids), model.store["cls.l0.w"].shape[0])
        if exact:
            assert cached.tobytes() == live.tobytes()
        else:
            assert np.allclose(cached, live, rtol=1e-6, atol=1e-6)


class _RowStream:
    """A stand-in Generator that serves fixed batch draws row by row.

    ``random((b, *shape))`` and ``standard_normal((b, *shape))`` return the next
    b of ``rows`` of one fixed table per (method, shape).  Every _RowStream reads
    the same tables, so a batch stream over rows 0..B-1 and a one-clip stream
    over row i hand clip i the same draws.
    """

    def __init__(self, rows):
        self.rows, self.taken = list(rows), {}

    def _serve(self, method, shape):
        b, *row_shape = shape
        start = self.taken.get((method, *row_shape), 0)
        self.taken[(method, *row_shape)] = start + b
        take = self.rows[start:start + b]
        assert len(take) == b, "a transform asked for more rows than were fed"
        # row i of a Generator's (R, ...) draw is the same bits for every R > i
        table = getattr(stream(method, *row_shape), method)((max(take) + 1, *row_shape))
        return table[take]

    def random(self, shape):
        return self._serve("random", shape)

    def standard_normal(self, shape):
        return self._serve("standard_normal", shape)


@pytest.fixture
def feed_rows(monkeypatch):
    """``feed(rows)``: train's augmentation streams serve ``rows`` of _RowStream's tables."""
    def feed(rows):
        monkeypatch.setattr(aug, "derive_rng", lambda *key: _RowStream(rows))
    return feed


class TestBatchedMatchesReference:
    """Given the same draws, the batched view path equals its one-clip (B=1) references."""

    SPEC = aug.AugmentSpec(True, True, True, ed_prob=0.4, gn_sigma=0.2, fm_prob=0.3)
    IDS = [f"clip{i}" for i in range(5)]
    SEED, EPOCH = 3, 2

    def _halves(self, rng):
        return split_pair(rng.standard_normal((5, 32, 32)).astype(np.float32))

    def test_view_embed_matches_single_clip_calls(self, rng, make_model, feed_rows):
        model = make_model({"data.f": 32, "data.t": 32})
        for seg_id, segs in zip("12", self._halves(rng)):
            for kind in ("temporal", "spatial"):
                args = (self.SPEC, self.SEED, self.EPOCH, seg_id)
                feed_rows(range(5))
                batched = train._view_embed(model, segs, kind, self.IDS, *args)
                singles = []
                for i in range(5):
                    feed_rows([i])
                    singles.append(train._view_embed(model, segs[i:i + 1], kind,
                                                     self.IDS[i:i + 1], *args).data)
                assert np.allclose(batched.data, np.concatenate(singles), atol=1e-5)

    def test_tables_draws_and_adjacency_match_reference(self, rng, make_model, stem_probe,
                                                       feed_rows):
        model = make_model({"data.f": 32, "data.t": 32})
        n, k = model.n_patches, model.k_neighbors
        spec = self.SPEC
        feed_rows(range(5))
        for seg_id, segs in zip("12", self._halves(rng)):
            for kind in ("temporal", "spatial"):
                stem, _ = stem_probe(model, segs, kind)
                nodes = stem.data.reshape(5, n, -1)
                x, s = stem_probe(model, segs, kind, self.IDS, spec, self.SEED, self.EPOCH,
                                  seg_id)
                x = x.data.reshape(5, n, -1)
                assert s.shape == (5, n, n)  # one adjacency per graph, no cross-graph entries
                table = neighbor_table(nodes, k)
                for i, cid in enumerate(self.IDS):
                    edges = knn_graph(nodes[i], k)
                    assert np.array_equal(table[i], neighbor_table(nodes[i][None], k)[0])
                    assert table[i].tolist() == [[j for j, dst in edges if dst == node]
                                                 for node in range(n)]
                    rng_i = _RowStream([i])  # clip i's row of the batch draws
                    g = GraphView(kind, nodes[i], edges, cid, seg_id)
                    g = aug.edge_drop(g, spec.ed_prob, rng_i)
                    g = aug.gaussian_noise(g, spec.gn_sigma, rng_i)
                    g = aug.feature_mask(g, spec.fm_prob, rng_i)
                    assert np.array_equal(x[i], g.x)
                    assert np.array_equal(s[i], enc.normalized_adjacency(g.edges, n))

    def test_pair_forward_matches_per_half_composition(self, rng, make_model, feed_rows):
        """Both halves stacked in one batch per view give each half's own rows."""
        model = make_model({"data.f": 32, "data.t": 32})
        mats = list(rng.standard_normal((5, 32, 32)).astype(np.float32))
        feed_rows(range(10))  # row s*B + i: half s of clip i
        stacked = train._pair_forward(model, mats, self.IDS, self.SPEC, self.SEED, self.EPOCH)
        hs, zs = [], []
        for seg_id, segs, rows in zip("12", split_pair(np.stack(mats)), (range(5), range(5, 10))):
            feed_rows(rows)
            h = tg.concat([train._view_embed(model, segs, kind, self.IDS, self.SPEC, self.SEED,
                                             self.EPOCH, seg_id)
                           for kind in ("temporal", "spatial")], axis=1)
            hs.append(h.data)
            zs.append(enc.run_mlp(h, model.store, "proj").data)
        for got, want in zip(stacked, [*hs, *zs]):
            assert got.shape == want.shape
            assert np.allclose(got.data, want, atol=1e-6)

    def test_pair_forward_derives_one_stream_per_view(self, rng, make_model, monkeypatch):
        model = make_model({"data.f": 32, "data.t": 32})
        mats = list(rng.standard_normal((5, 32, 32)).astype(np.float32))
        keys = []
        derive = aug.derive_rng
        monkeypatch.setattr(aug, "derive_rng", lambda *key: keys.append(key) or derive(*key))
        train._pair_forward(model, mats, self.IDS, self.SPEC, self.SEED, self.EPOCH)
        batch_key = hashlib.sha256("\0".join(self.IDS).encode()).hexdigest()
        assert keys == [(self.SEED, batch_key, self.EPOCH, f"{kind}:12") for kind in model.kinds]

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(perm=st.permutations(range(5)), kind=st.sampled_from(["temporal", "spatial"]))
    def test_clip_permutation_permutes_rows(self, make_model, feed_rows, perm, kind):
        """Given its draws, each clip's row depends on that clip alone, wherever it sits."""
        model = make_model({"data.f": 32, "data.t": 32})
        segs = self._halves(np.random.default_rng(0))[0]
        args = (self.SPEC, self.SEED, self.EPOCH, "1")
        feed_rows(range(5))
        out = train._view_embed(model, segs, kind, self.IDS, *args).data
        feed_rows(perm)  # each clip keeps its own row of the draws
        permuted = train._view_embed(model, segs[perm], kind, [self.IDS[i] for i in perm],
                                     *args).data
        assert np.allclose(permuted, out[perm], atol=1e-5)

    @pytest.mark.parametrize("b", [1, 5, 96])
    def test_bmm_matches_dense_block_diagonal(self, rng, b):
        n, k, d = 8, 3, 32
        keep = rng.random((b, n, k)) >= 0.5
        keep[:, 0] = False  # node 0 keeps none of its own edges
        s = train._block_adjacency(neighbor_table(rng.standard_normal((b, n, 4)), k), keep)
        dense = np.zeros((b * n, b * n))
        for i in range(b):
            dense[i * n:(i + 1) * n, i * n:(i + 1) * n] = s[i]
        h = tg.Tensor(rng.standard_normal((b * n, d)), requires_grad=True)
        g = rng.standard_normal((b * n, d))
        with tg.Tape() as tape:
            out = tg.bmm(s, h)
            tape.backward(tg.tsum(tg.mul(out, tg.Tensor(g))))
        assert np.allclose(out.data, dense @ h.data, rtol=0, atol=1e-6)
        assert np.allclose(h.grad, dense.T @ g, rtol=0, atol=1e-6)


class TestEarlyStopper:
    def _store(self, value):
        store = tg.ParamStore()
        store.add("w", tg.Tensor(np.array([[value]], dtype=np.float32),
                                 requires_grad=True))
        return store

    def test_restores_best_not_last(self):
        store = self._store(0.0)
        stopper = train._EarlyStopper(patience=10)
        for metric, value in [(5.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]:
            store["w"].data[:] = value
            stopper.update(metric, store)
        stopper.restore(store)
        assert store["w"].data[0, 0] == 2.0
        assert stopper.best == 2.0

    def test_triggers_at_exactly_patience(self):
        store = self._store(0.0)
        stopper = train._EarlyStopper(patience=3)
        assert not stopper.update(1.0, store)
        assert not stopper.update(2.0, store)
        assert not stopper.update(2.0, store)
        assert stopper.update(2.0, store)

    def test_tie_keeps_later_snapshot(self):
        # among equal dev metrics the most-trained parameters win
        store = self._store(0.0)
        stopper = train._EarlyStopper(patience=10)
        for metric, value in [(1.0, 1.0), (1.0, 2.0)]:
            store["w"].data[:] = value
            stopper.update(metric, store)
        stopper.restore(store)
        assert store["w"].data[0, 0] == 2.0

    def test_improvement_resets_stale(self):
        store = self._store(0.0)
        stopper = train._EarlyStopper(patience=2)
        assert not stopper.update(3.0, store)
        assert not stopper.update(4.0, store)
        assert not stopper.update(2.0, store)   # improvement resets
        assert not stopper.update(5.0, store)
        assert stopper.update(5.0, store)


_SPOILS = ("shape", "nan", "missing", "directory")


def _spoil_clip(path, kind):
    """Make one 32 x 32 clip file bad in one way."""
    if kind == "shape":
        featio.write_feature(np.zeros((32, 30)), path)
    elif kind == "nan":
        path.write_bytes(path.read_bytes()[:-4] + np.float32(np.nan).tobytes())
    else:
        path.unlink()
        if kind == "directory":
            path.mkdir()


@pytest.fixture
def logged_loads(tmp_path, monkeypatch):
    """``logged_loads()`` logs each later ``train.load_features`` call, from either
    process, and returns a reader of the (pid, clip ids) of every call, in order."""
    path = tmp_path / "loads"
    log, load = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND), train.load_features

    def logged(items, data_dir, shape):
        # one O_APPEND write per load reaches the file from either process
        os.write(log, f"{os.getpid()} {' '.join(c for c, _ in items)}\n".encode())
        return load(items, data_dir, shape)

    def log_loads():
        monkeypatch.setattr(train, "load_features", logged)
        return lambda: [(int(pid), ids.split()) for pid, ids in
                        (line.split(" ", 1) for line in path.read_text().splitlines())]
    yield log_loads
    os.close(log)


class TestEvaluate:
    def _constant_model(self, tiny_cfg):
        model = train.build_model({**tiny_cfg, "train.seed": 0}, head="cls")
        for layer in ("cls.l2.w", "cls.l2.b"):
            model.store[layer].data[:] = 0.0
        return model

    def test_constant_logits_give_chance_eer(self, tiny_corpus, tiny_cfg):
        root, entries = tiny_corpus
        model = self._constant_model(tiny_cfg)
        scores, report = train.evaluate(model, entries, root)
        assert all(s == 0.5 for _, s, _ in scores.entries)
        assert report.eer == 0.5

    def test_eer_matches_scoreset_recomputation(self, tiny_corpus, tiny_cfg, tmp_path):
        root, entries = tiny_corpus
        path, _, _ = train.finetune(_finetune_cfg(tiny_cfg), entries, root, tmp_path)
        model = train.load_model(tiny_cfg, path, head="cls")
        scores, report = train.evaluate(model, entries, root)
        assert metrics.compute_eer(scores).eer == report.eer

    def test_eval_split_only(self, tiny_corpus, tiny_cfg):
        root, entries = tiny_corpus
        scores, _ = train.evaluate(self._constant_model(tiny_cfg), entries, root)
        assert len(scores.entries) == 20
        assert all(cid.startswith("eval_") for cid, _, _ in scores.entries)

    @pytest.mark.parametrize("processes", [1, 2], ids=["one_process", "two_processes"])
    def test_streams_one_chunk_at_a_time_with_the_same_bits(self, tiny_corpus, tiny_cfg,
                                                            monkeypatch, force_processes,
                                                            logged_loads, processes):
        root, entries = tiny_corpus
        model = train.build_model(tiny_cfg, head="cls")
        monkeypatch.setattr(train, "EVAL_BATCH", 6)  # 20 eval clips: chunks of 6, 6, 6, 2
        rows = [e for e in entries if e.split == "eval"]
        # the whole-split algorithm: load every eval clip, then score
        feats = train.load_split([(e.clip_id, e.path) for e in rows], root, model.clip_shape)
        probs = train._score_chunks(
            lambda ids: train._classify_forward(model, [feats[c] for c in ids], ids),
            train._batches([e.clip_id for e in rows], train.EVAL_BATCH))
        expected = metrics.ScoreSet([(e.clip_id, p, e.label) for e, p in zip(rows, probs)])
        loads = logged_loads()
        force_processes(processes)
        scores, report = train.evaluate(model, entries, root)
        chunks = [[e.clip_id for e in chunk] for chunk in train._batches(rows, 6)]
        if processes == 1:
            assert [ids for _, ids in loads()] == chunks
        else:  # this process loads the first half of the chunks, the child the rest
            half = len(chunks) // 2
            assert [ids for pid, ids in loads() if pid == os.getpid()] == chunks[:half]
            assert [ids for pid, ids in loads() if pid != os.getpid()] == chunks[half:]
            assert len({pid for pid, _ in loads()}) == 2
        assert scores.entries == expected.entries
        assert report.eer == metrics.compute_eer(expected).eer

    @pytest.mark.parametrize("change", ["second_model", "eval_batch", "chdir"])
    def test_helper_forked_before_a_change_gives_one_process_bits(self, tiny_corpus, tiny_cfg,
                                                                  monkeypatch,
                                                                  force_processes, change):
        """A helper forked before this process changes its model, its chunk size or
        its working directory scores what this process would: each call carries
        the model, the chunks and an absolute data path."""
        root, entries = tiny_corpus
        model = train.build_model(tiny_cfg, head="cls")
        monkeypatch.setattr(train, "EVAL_BATCH", 6)
        force_processes(2)
        train.evaluate(model, entries, root)  # forks the helper
        helper, data_dir = forking._helper.pid, root
        if change == "second_model":
            model = train.build_model({**tiny_cfg, "train.seed": 12}, head="cls")
        elif change == "eval_batch":
            monkeypatch.setattr(train, "EVAL_BATCH", 4)  # a clip's score hangs on its chunk
        else:
            monkeypatch.chdir(root.parent)
            data_dir = root.name
        runs = []
        for processes in (2, 1):
            force_processes(processes)
            scores, report = train.evaluate(model, entries, data_dir)
            runs.append((scores.entries, report.eer.hex()))
        assert runs[0] == runs[1]
        assert forking._helper.pid == helper

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(eval_batch=st.integers(1, 8), chunks=st.integers(2, 5), offset=st.integers(-1, 1))
    def test_sizes_around_chunk_boundaries_give_one_process_bits(self, tiny_corpus, tiny_cfg,
                                                                  monkeypatch,
                                                                  force_processes,
                                                                  eval_batch, chunks, offset):
        """Splits of one clip fewer than, as many as and one more than a whole number
        of chunks score alike in one process and with the helper, which keeps the
        chunks of one example to the next."""
        root, entries = tiny_corpus
        rows = [e for e in entries if e.split == "eval"]
        mixed = [e for pair in zip(rows[:10], rows[10:]) for e in pair]  # bona fide, fake, ...
        n = min(max(chunks * eval_batch + offset, 2), len(mixed))
        subset = [e for e in entries if e.split != "eval"] + mixed[:n]
        model = train.build_model(tiny_cfg, head="cls")
        monkeypatch.setattr(train, "EVAL_BATCH", eval_batch)
        runs = []
        for processes in (2, 1):
            force_processes(processes)
            scores, report = train.evaluate(model, subset, root)
            runs.append((scores.entries, report.eer.hex(), report.threshold.hex()))
        assert runs[0] == runs[1]
        assert len(runs[0][0]) == n

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(eval_batch=st.integers(1, 24))
    def test_two_processes_give_one_process_bits(self, tiny_corpus, tiny_cfg, monkeypatch,
                                                 force_processes, eval_batch):
        root, entries = tiny_corpus
        model = train.build_model(tiny_cfg, head="cls")
        monkeypatch.setattr(train, "EVAL_BATCH", eval_batch)
        runs = []
        for processes in (2, 1):
            force_processes(processes)
            scores, report = train.evaluate(model, entries, root)
            runs.append((scores.entries, report.eer.hex(), report.threshold.hex()))
        assert runs[0] == runs[1]

    @pytest.fixture(scope="class")
    def eval_copy(self, tiny_corpus, tmp_path_factory):
        root, entries = tiny_corpus
        corpus = tmp_path_factory.mktemp("spoiled-eval") / "corpus"
        shutil.copytree(root, corpus)
        return corpus, entries

    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), eval_batch=st.integers(1, 24))
    def test_two_processes_raise_the_one_process_error(self, eval_copy, tiny_cfg, monkeypatch,
                                                       force_processes, data, eval_batch):
        corpus, entries = eval_copy
        rows = [e for e in entries if e.split == "eval"]
        spoiled = data.draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2,
                                     unique_by=lambda e: e.clip_id))
        kinds = data.draw(st.lists(st.sampled_from(_SPOILS), min_size=2, max_size=2))
        model = train.build_model(tiny_cfg, head="cls")
        monkeypatch.setattr(train, "EVAL_BATCH", eval_batch)
        originals = {e.path: (corpus / e.path).read_bytes() for e in spoiled}
        for e, kind in zip(spoiled, kinds):
            _spoil_clip(corpus / e.path, kind)
        errors = []
        try:
            for processes in (1, 2):
                force_processes(processes)
                with pytest.raises((InputError, OSError)) as info:
                    train.evaluate(model, entries, corpus)
                errors.append((type(info.value), str(info.value),
                               getattr(info.value, "filename", None)))
                _no_child_left()
        finally:
            for rel, raw in originals.items():
                if (corpus / rel).is_dir():
                    (corpus / rel).rmdir()
                (corpus / rel).write_bytes(raw)
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("end, status", [(lambda: os._exit(3), "exit status 3"),
                                             (lambda: os.kill(os.getpid(), signal.SIGKILL),
                                              "signal 9")], ids=["exit", "signal"])
    def test_child_without_a_result_raises_runtime_error(self, tiny_corpus, tiny_cfg,
                                                         monkeypatch, force_processes, end,
                                                         status):
        root, entries = tiny_corpus
        parent, load = os.getpid(), train.load_features

        def child_ends(items, data_dir, shape):
            if os.getpid() != parent:
                end()
            return load(items, data_dir, shape)

        monkeypatch.setattr(train, "load_features", child_ends)
        monkeypatch.setattr(train, "EVAL_BATCH", 6)
        force_processes(2)
        with pytest.raises(RuntimeError, match=f"without a result \\({status}\\)"):
            train.evaluate(train.build_model(tiny_cfg, head="cls"), entries, root)
        _no_child_left()

    def test_child_error_that_does_not_pickle_raises_runtime_error(self, tiny_corpus, tiny_cfg,
                                                                   monkeypatch, force_processes):
        root, entries = tiny_corpus
        parent, classify = os.getpid(), train._classify_forward

        class Local(Exception):  # a class local to a function does not pickle
            pass

        def child_fails(model, mats, ids):
            if os.getpid() != parent:
                raise Local("not picklable")
            return classify(model, mats, ids)

        monkeypatch.setattr(train, "_classify_forward", child_fails)
        monkeypatch.setattr(train, "EVAL_BATCH", 6)
        force_processes(2)
        with pytest.raises(RuntimeError, match=r"without a result \(exit status 1\)"):
            train.evaluate(train.build_model(tiny_cfg, head="cls"), entries, root)

    def test_parent_interrupt_kills_and_reaps_the_child(self, tiny_corpus, tiny_cfg,
                                                        monkeypatch, force_processes):
        root, entries = tiny_corpus
        parent, load = os.getpid(), train.load_features

        def interrupted(items, data_dir, shape):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            time.sleep(60)  # the child outlives the parent's share unless killed
            return load(items, data_dir, shape)

        monkeypatch.setattr(train, "load_features", interrupted)
        monkeypatch.setattr(train, "EVAL_BATCH", 6)
        force_processes(2)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            train.evaluate(train.build_model(tiny_cfg, head="cls"), entries, root)
        assert time.monotonic() - start < 30
        _no_child_left()

    @pytest.mark.parametrize("fork_min_chunks, pids", [(20, 2), (21, 1)],
                             ids=["at_minimum", "below_minimum"])
    def test_fork_min_chunks_is_the_fork_boundary(self, tiny_corpus, tiny_cfg, monkeypatch,
                                                   force_processes, logged_loads,
                                                   fork_min_chunks, pids):
        root, entries = tiny_corpus
        model = train.build_model(tiny_cfg, head="cls")
        monkeypatch.setattr(train, "EVAL_BATCH", 1)  # 20 one-clip chunks
        force_processes(1)
        expected, _ = train.evaluate(model, entries, root)
        force_processes(pids)  # with 1, os.fork raises
        monkeypatch.setattr(forking, "second_core_free", lambda: True)
        monkeypatch.setattr(train, "FORK_MIN_CHUNKS", fork_min_chunks)
        loads = logged_loads()
        scores, _ = train.evaluate(model, entries, root)
        assert len({pid for pid, _ in loads()}) == pids
        assert scores.entries == expected.entries

    def test_error_here_does_not_wait_for_the_child(self, tiny_corpus, tiny_cfg, tmp_path,
                                                     monkeypatch, force_processes):
        root, entries = tiny_corpus
        corpus = tmp_path / "corpus"
        shutil.copytree(root, corpus)
        odd = [e for e in entries if e.split == "eval"][0]
        featio.write_feature(np.zeros((32, 30)), corpus / odd.path)
        model = train.build_model(tiny_cfg, head="cls")
        monkeypatch.setattr(train, "EVAL_BATCH", 6)  # 4 chunks: this process scores 2
        force_processes(1)
        with pytest.raises(ConfigError, match=odd.clip_id) as alone:
            train.evaluate(model, entries, corpus)
        parent, load = os.getpid(), train.load_features

        def child_sleeps(items, data_dir, shape):
            if os.getpid() != parent:
                time.sleep(20)
            return load(items, data_dir, shape)

        monkeypatch.setattr(train, "load_features", child_sleeps)
        force_processes(2)
        start = time.monotonic()
        with pytest.raises(ConfigError) as forked:
            train.evaluate(model, entries, corpus)
        assert time.monotonic() - start < 10
        assert str(forked.value) == str(alone.value)
        _no_child_left()

    def test_probe_refuses_a_second_thread(self):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert not forking.second_core_free()
        finally:
            stop.set()
            thread.join()

    def test_probe_passes_in_a_one_thread_process(self):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "PYTHONPATH": str(Path(train.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c",
                              "from signl import forking, train; "
                              "print(forking.second_core_free())"],
                             env=env, capture_output=True, text=True, check=True).stdout
        assert out.strip() == str(len(os.sched_getaffinity(0)) >= 2)

    @pytest.mark.parametrize("eval_batch, error", [(19, ConfigError), (6, ConfigError)])
    def test_other_shape_in_the_last_chunk_rejected(self, tiny_corpus, tiny_cfg, tmp_path,
                                                    monkeypatch, eval_batch, error):
        # alone in its chunk or beside other clips, the odd clip fails the one
        # shape check in load_features
        root, entries = tiny_corpus
        corpus = tmp_path / "corpus"
        shutil.copytree(root, corpus)
        odd = [e for e in entries if e.split == "eval"][-1]
        featio.write_feature(np.zeros((32, 30)), corpus / odd.path)
        monkeypatch.setattr(train, "EVAL_BATCH", eval_batch)
        with pytest.raises(error, match=odd.clip_id):
            train.evaluate(train.build_model(tiny_cfg, head="cls"), entries, corpus)

    def test_single_label_split_rejected_before_any_clip_is_read(self, tiny_corpus,
                                                                 tiny_cfg, tmp_path):
        _, entries = tiny_corpus
        no_fakes = [e for e in entries if e.split != "eval" or e.label == "bonafide"]
        model = train.build_model(tiny_cfg, head="cls")
        with pytest.raises(ConfigError, match="split 'eval' holds no 'fake' clips"):
            train.evaluate(model, no_fakes, tmp_path / "no-corpus")


class TestDevMetricIsEvaluatesEER:
    """finetune's dev pass and evaluate score through one loop, so evaluating the
    saved model on the dev clips, relabelled as eval clips, reports exactly the best
    dev EER that finetune returned."""

    @pytest.fixture(scope="class")
    def dev_corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("dev-corpus")
        cfg = featio.SynthConfig(F=32, T=32, n_per_split={"train": 40, "dev": 30, "eval": 20},
                                 n_attack_types=3, artifact_strength=1.0, seed=11)
        return root, featio.gen_synthetic(cfg, root)

    @staticmethod
    def _eval_eer_of_dev(cfg, root, entries, out_dir):
        path, _, best = train.finetune(cfg, entries, root, out_dir)
        as_eval = [dataclasses.replace(e, split="eval") for e in entries if e.split == "dev"]
        _, report = train.evaluate(train.load_model(cfg, path, head="cls"), as_eval, root)
        return report.eer, best

    @pytest.mark.parametrize("processes", [1, 2], ids=["one_process", "two_processes"])
    @pytest.mark.parametrize("eval_batch", [96, 7])  # 30 dev clips: one chunk, or five
    def test_unfrozen(self, dev_corpus, tiny_cfg, tmp_path, monkeypatch, force_processes,
                      eval_batch, processes):
        root, entries = dev_corpus
        monkeypatch.setattr(train, "EVAL_BATCH", eval_batch)
        force_processes(processes)  # with 2, the helper scores evaluate's back chunks at 7
        cfg = _finetune_cfg(tiny_cfg, **{"train.label_fraction": 1.0})
        eer, best = self._eval_eer_of_dev(cfg, root, entries, tmp_path)
        assert eer == best

    def test_frozen(self, dev_corpus, tiny_cfg, tmp_path):
        root, entries = dev_corpus
        cfg = _finetune_cfg(tiny_cfg, **{"train.label_fraction": 1.0,
                                         "train.freeze_encoders": True})
        eer, best = self._eval_eer_of_dev(cfg, root, entries, tmp_path)
        assert eer == best


def test_readme_states_the_eval_chunk_sizes():
    # README step 6 spells out EVAL_BATCH, FORK_MIN_CHUNKS and the smallest split
    # of that many chunks
    readme = " ".join((Path(train.__file__).parents[2] / "README.md").read_text().split())
    batch = re.search(r"`train\.EVAL_BATCH` chunk \(([\d,]+) clips\)", readme)
    fork = re.search(r"`train\.FORK_MIN_CHUNKS` chunks \((\d+), i\.e\. ([\d,]+) clips "
                     r"or more\)", readme)
    stated = [int(n.replace(",", "")) for n in (*batch.groups(), *fork.groups())]
    assert stated == [train.EVAL_BATCH, train.FORK_MIN_CHUNKS,
                      (train.FORK_MIN_CHUNKS - 1) * train.EVAL_BATCH + 1]


class TestChild:
    """Every second process, the corpus writer, pre-training's view worker and
    evaluate's second scorer, is a call on one child, the helper, forked once per
    process."""

    @pytest.fixture(autouse=True)
    def no_helper_left(self):
        yield
        forking.shutdown()

    @pytest.mark.parametrize("stage", ["evaluate", "pretrain"])
    def test_fork_failure_raises_and_leaves_no_child_or_pipe(self, tiny_corpus, tiny_cfg,
                                                              tmp_path, monkeypatch,
                                                              force_processes, stage):
        root, entries = tiny_corpus

        def no_process_ids():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(train, "EVAL_BATCH", 6)  # 4 eval chunks: enough to fork
        force_processes(2)
        monkeypatch.setattr(os, "fork", no_process_ids)
        open_fds = len(os.listdir("/proc/self/fd"))
        with pytest.raises(BlockingIOError, match="Resource temporarily unavailable") as info:
            if stage == "evaluate":
                train.evaluate(train.build_model(tiny_cfg, head="cls"), entries, root)
            else:
                train.pretrain(_pretrain_cfg(tiny_cfg), train.strip_labels(entries), root,
                               tmp_path)
        # ``info`` keeps the traceback, so the failed fork's frames and the pipe ends
        # they hold stay alive: only an explicit close frees their descriptors by now
        assert len(os.listdir("/proc/self/fd")) == open_fds
        _no_child_left()

    def test_train_forks_and_exits_only_in_the_helper(self):
        """Every second process comes from the one helper in the probe's module: one
        ``os.fork`` and one ``os._exit`` in signl.  Only that module places
        processes on CPUs (``os.sched_setaffinity``)."""
        calls = []
        for path in sorted(Path(train.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            calls += [(path.name, top.name, node.func.attr) for top in tree.body
                      for node in ast.walk(top)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                      and isinstance(node.func.value, ast.Name) and node.func.value.id == "os"
                      and node.func.attr in ("fork", "_exit", "sched_setaffinity")]
            imported = {alias.name for node in ast.walk(tree)
                        if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
            assert "pickle" not in imported, path.name
        assert {call[0] for call in calls if call[2] == "sched_setaffinity"} == {"forking.py"}
        assert sorted(call for call in calls if call[2] != "sched_setaffinity") == \
            [("forking.py", "_Helper", "_exit"), ("forking.py", "_Helper", "fork")]

    def test_clean_forked_pretrain_worker_exits_0(self, tiny_corpus, tiny_cfg, tmp_path,
                                                  force_processes, child_exits):
        # the worker's call returns on "done", and the helper, idle again, exits 0
        # once shut down
        root, entries = tiny_corpus
        force_processes(2)
        train.pretrain(_pretrain_cfg(tiny_cfg, **{"train.epochs": 1}),
                       train.strip_labels(entries), root, tmp_path)
        assert child_exits == []
        forking.shutdown()
        assert child_exits == [0]

    def test_stages_after_the_first_fork_nothing(self, tiny_corpus, tiny_cfg, tmp_path,
                                                 monkeypatch, force_processes):
        """Once the helper is forked, every later call of every stage runs on it."""
        root, entries = tiny_corpus
        monkeypatch.setattr(train, "EVAL_BATCH", 6)
        force_processes(2)
        featio.gen_synthetic(featio.SynthConfig(F=8, T=8, n_per_split={"train": 4, "dev": 0,
                                                                       "eval": 0}),
                             tmp_path / "corpus")  # forks the helper
        helper, calls, start = forking._helper.pid, [], forking.Call.__init__

        def recorded(call, name, *args):
            start(call, name, *args)
            calls.append((name, call.helper.pid))

        def no_fork():
            raise AssertionError("a stage forked beside the helper")

        monkeypatch.setattr(forking.Call, "__init__", recorded)
        monkeypatch.setattr(os, "fork", no_fork)
        train.pretrain(_pretrain_cfg(tiny_cfg, **{"train.epochs": 1}),
                       train.strip_labels(entries), root, tmp_path / "pre")
        for _ in range(2):
            train.evaluate(train.build_model(tiny_cfg, head="cls"), entries, root)
        assert calls == [("temporal view worker", helper), ("second eval scorer", helper),
                         ("second eval scorer", helper)]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: nothing to share")
    def test_child_and_this_process_share_out_its_cpus(self):
        before = os.sched_getaffinity(0)
        with forking.Call("placed call", _up_until_told) as call:
            call.recv()  # the helper has placed itself
            theirs, ours = os.sched_getaffinity(call.helper.pid), os.sched_getaffinity(0)
            call.send(("go on", None))
        assert theirs and ours and not theirs & ours
        assert theirs | ours == before
        assert os.sched_getaffinity(0) == before
        assert forking.shutdown() == 0

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: nothing to restore")
    @pytest.mark.parametrize("end", ["clean", "exception", "child_exits"])
    def test_cpus_restored_when_the_child_is_reaped(self, child_exits, end):
        """This process gets its CPUs back when the call ends, before the helper is
        reaped: at shutdown, or at once when the call's block raises or the helper
        exits during the call."""
        before = os.sched_getaffinity(0)
        with contextlib.suppress(KeyError):
            call = (forking.Call("placed call", os._exit, 3) if end == "child_exits"
                    else forking.Call("placed call", _up_until_told))
            with call:
                if end == "child_exits":
                    with pytest.raises(RuntimeError, match=r"exit status 3"):
                        call.recv()
                    assert os.sched_getaffinity(0) == before  # reaped by recv
                else:
                    call.recv()
                    assert os.sched_getaffinity(0) != before
                    call.send(("go on", None))
                if end == "exception":
                    raise KeyError
        assert os.sched_getaffinity(0) == before
        forking.shutdown()
        assert child_exits == [{"clean": 0, "exception": -signal.SIGKILL,
                                "child_exits": 3}[end]]

    def test_child_runs_beside_this_process_pinned_to_one_cpu(self):
        before = os.sched_getaffinity(0)
        one = {min(before)}
        try:
            os.sched_setaffinity(0, one)
            with forking.Call("placed call", os.sched_getaffinity, 0) as call:
                assert call.recv() == one
            assert os.sched_getaffinity(0) == one
        finally:
            os.sched_setaffinity(0, before)

    def test_helper_killed_between_calls_is_replaced(self, child_exits):
        with forking.Call("first call", os.getpid) as call:
            first = call.recv()
        os.kill(first, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while Path(f"/proc/{first}/stat").read_text().rpartition(")")[2].split()[0] != "Z":
            assert time.monotonic() < deadline
            time.sleep(0.01)
        with forking.Call("second call", os.getpid) as call:
            second = call.recv()
        assert second != first and forking._helper.pid == second
        with pytest.raises(ChildProcessError):  # the killed helper was reaped
            os.waitpid(first, os.WNOHANG)
        assert child_exits == []  # reaped as found ended, not through a kill here

    def test_call_whose_arguments_do_not_pickle_raises_before_it_starts(self):
        """The pickling error raises before this process pins itself, so its CPUs are
        unchanged, and the helper, sent nothing, serves the next call."""
        before = os.sched_getaffinity(0)
        # a local lambda does not pickle: PicklingError or, on some Pythons, AttributeError
        with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
            forking.Call("bad call", os.getpid, lambda: 1)
        assert os.sched_getaffinity(0) == before
        helper = forking._helper.pid  # forked for the bad call if there was none
        with forking.Call("next call", os.getpid) as call:
            assert call.recv() == helper
        assert forking.shutdown() == 0

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: no pin to refuse")
    def test_start_that_fails_once_sent_drops_the_helper(self, monkeypatch, child_exits):
        """A start that raises after its request is sent, here as this process pins
        itself to one CPU, kills and reaps the helper, which would otherwise run the
        call and leave its result for the next call to read as its own."""
        before, setaffinity = os.sched_getaffinity(0), os.sched_setaffinity
        with forking.Call("first call", int, 1) as call:  # the helper, forked unpatched
            assert call.recv() == 1

        def refuse_one_cpu(pid, cpus):
            if pid == 0 and len(cpus) == 1:
                raise OSError(errno.EINVAL, "Invalid argument")
            setaffinity(pid, cpus)

        monkeypatch.setattr(os, "sched_setaffinity", refuse_one_cpu)
        with pytest.raises(OSError, match="Invalid argument"):
            forking.Call("second call", int, 2)
        assert os.sched_getaffinity(0) == before
        assert child_exits == [-signal.SIGKILL]
        monkeypatch.setattr(os, "sched_setaffinity", setaffinity)
        with forking.Call("third call", int, 3) as call:
            assert call.recv() == 3

    def test_helper_killed_during_a_call_raises_runtime_error(self):
        with forking.Call("sleeping call", time.sleep, 60) as call:
            os.kill(call.helper.pid, signal.SIGKILL)
            with pytest.raises(RuntimeError, match=r"^the sleeping call ended without a "
                                                   r"result \(signal 9\)$"):
                call.recv()
        assert forking._helper is None
        _no_child_left()

    def test_probe_gates_every_call(self, tiny_corpus, tiny_cfg, monkeypatch, force_processes,
                                    logged_loads):
        """With the probe failing, a helper left alive by an earlier call is not used."""
        root, entries = tiny_corpus
        model = train.build_model(tiny_cfg, head="cls")
        monkeypatch.setattr(train, "EVAL_BATCH", 6)
        force_processes(2)
        expected, _ = train.evaluate(model, entries, root)
        helper = forking._helper.pid
        force_processes(1)
        loads = logged_loads()
        scores, _ = train.evaluate(model, entries, root)
        rows = [e for e in entries if e.split == "eval"]
        assert loads() == [(os.getpid(), [e.clip_id for e in chunk])
                           for chunk in train._batches(rows, 6)]
        assert scores.entries == expected.entries
        assert forking._helper.pid == helper  # left alone, not shut down

    def test_own_fork_neither_uses_nor_closes_the_helper(self):
        """A child of the caller's own fork forgets the helper and keeps no end of
        its pipe, so the caller's shutdown does not wait for that child to exit."""
        with forking.Call("first call", os.getpid) as call:
            helper = call.recv()
        read, write = os.pipe()
        hold, release = os.pipe()
        pid = os.fork()
        if pid == 0:  # the caller's own child: what its atexit would run, report, then wait
            status = 1
            try:
                os.close(release)
                forking.shutdown()
                os.write(write, str(forking._helper).encode())
                os.close(write)
                select.select([hold], [], [], 30)  # until released, or 30 s
                status = 0
            finally:
                os._exit(status)
        os.close(write)
        os.close(hold)
        try:
            with os.fdopen(read) as fh:
                assert fh.read() == "None"
            with forking.Call("second call", os.getpid) as call:
                assert call.recv() == helper
            assert forking.shutdown() == 0
            # the child is still waiting to be released (looked at, not reaped)
            assert os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None
        finally:
            os.close(release)
            assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0

    def test_no_module_starts_a_thread(self):
        """Every fork waits for ``forking.second_core_free``'s one-thread probe, which
        a thread would turn off, or outlive into a child: no module imports
        threading, _thread or concurrent, or starts a thread or a pool."""
        imports, starts = set(), set()
        for path in sorted(Path(train.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            for node in ast.walk(tree):
                names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                         else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
                imports |= {(path.name, name) for name in names
                            if name.split(".")[0] in ("threading", "_thread", "concurrent")}
                if isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] in (
                        "Thread", "Timer", "ThreadPoolExecutor", "ThreadPool", "Pool",
                        "ProcessPoolExecutor", "Process", "Queue", "start_new_thread"):
                    starts.add((path.name, ast.unparse(node.func)))
        assert imports == set()
        assert starts == set()

    def test_no_class_in_train_derives_from_the_param_store(self):
        """This process's store stays a plain ``ParamStore``: the view worker's values
        reach it through ``load_arrays``, with the rows of each embedding."""
        tree = ast.parse(Path(train.__file__).read_text())
        bases = [(node.name, ast.unparse(base)) for node in ast.walk(tree)
                 if isinstance(node, ast.ClassDef) for base in node.bases]
        assert [(name, base) for name, base in bases if base.endswith("ParamStore")] == []

    def test_no_cli_function_composes_two_stages(self):
        """The chain pretrain -> fine-tune -> evaluate is composed once, in
        ``train.run_pipeline``: no function of the CLI calls two of its stages."""
        stages = {"pretrain", "finetune", "evaluate"}
        tree = ast.parse(Path(cli.__file__).read_text())
        composing = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = stages & {ast.unparse(call.func).split(".")[-1]
                                   for call in ast.walk(node) if isinstance(call, ast.Call)}
                if len(called) > 1:
                    composing[node.name] = sorted(called)
        assert composing == {}


class TestClipShape:
    """Every entry point refuses clips of a shape other than the model's (F, T)."""

    def test_model_records_its_clip_shape(self, make_model):
        assert make_model({"data.f": 32, "data.t": 16}).clip_shape == (32, 16)

    def test_evaluate_rejects_other_shape(self, tiny_corpus):
        root, entries = tiny_corpus  # 32 x 32 clips, a 64 x 64 default model
        model = train.build_model(cfgmod.defaults(), head="cls")
        with pytest.raises(ConfigError, match=_SHAPE_MISMATCH):
            train.evaluate(model, entries, root)

    @pytest.fixture(scope="class")
    def corpus_copy(self, tiny_corpus, tmp_path_factory):
        root, entries = tiny_corpus
        corpus = tmp_path_factory.mktemp("odd-clip") / "corpus"
        shutil.copytree(root, corpus)
        return corpus, entries

    @pytest.mark.parametrize("split", ["train", "dev", "eval"])
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), eval_batch=st.integers(1, 24))
    def test_one_odd_clip_raises_one_error_wherever_it_falls(self, corpus_copy, tiny_cfg,
                                                            tmp_path, monkeypatch, split,
                                                            data, eval_batch):
        corpus, entries = corpus_copy
        odd = data.draw(st.sampled_from([e for e in entries if e.split == split]))
        path = corpus / odd.path
        expected = (f"corpus clips such as {odd.clip_id!r} are (32, 30), "
                    f"but (data.f, data.t) is (32, 32): {path}")
        monkeypatch.setattr(train, "EVAL_BATCH", eval_batch)
        calls = {
            "pretrain": lambda: train.pretrain(_pretrain_cfg(tiny_cfg),
                                               train.strip_labels(entries), corpus, tmp_path),
            "finetune": lambda: train.finetune(_finetune_cfg(tiny_cfg), entries, corpus,
                                               tmp_path),
            "evaluate": lambda: train.evaluate(train.build_model(tiny_cfg, head="cls"),
                                               entries, corpus),
        }
        readers = {"train": ["pretrain", "finetune"], "dev": ["finetune"],
                   "eval": ["evaluate"]}[split]
        original = path.read_bytes()
        featio.write_feature(np.zeros((32, 30)), path)
        try:
            for name in readers:
                with pytest.raises(ConfigError) as err:
                    calls[name]()
                assert str(err.value) == expected, name
        finally:
            path.write_bytes(original)


class TestBuildModel:
    # sha256 of the SIGC file of a default-config model's initial parameters: the names,
    # their order and the init draws that every saved checkpoint relies on
    @pytest.mark.parametrize("head, overrides, n_entries, sha256", [
        ("proj", (), 60, "a7c5d7c5b94b6e303e2773599ed19935fbae249119ce0d5c5d0c9df4990366c9"),
        ("cls", (), 60, "38f2ff25fbe0d4f9b141f672d2f2ffde64ee9256dee0302ed0aa74ed6fa5922b"),
        ("cls", ("train.view_mode = temporal_only",), 33,
         "2d5d8eeeec720c06bbd907ebc7651d5dfce070aeb9b283703bc19f94cb4eb91d"),
    ], ids=["proj", "cls", "cls-temporal_only"])
    def test_initial_layout_is_pinned(self, tmp_path, head, overrides, n_entries, sha256):
        arrays = train.build_model(cfgmod.load(None, overrides), head).store.state_arrays()
        ckpt.save_arrays(arrays, tmp_path / "init.sigc")
        assert len(arrays) == n_entries
        assert hashlib.sha256((tmp_path / "init.sigc").read_bytes()).hexdigest() == sha256

    def test_proj_head_encodes_both_views_whatever_view_mode(self, tiny_cfg):
        model = train.build_model({**tiny_cfg, "train.view_mode": "spatial_only"}, head="proj")
        assert set(model.kinds) == {"temporal", "spatial"}

    def test_init_follows_train_seed(self, tiny_cfg):
        def weights(seed):
            model = train.build_model({**tiny_cfg, "train.seed": seed}, head="cls")
            return model.store["cls.l0.w"].data
        assert np.array_equal(weights(5), weights(5))
        assert not np.array_equal(weights(5), weights(6))


class TestLoadModel:
    def test_proj_head_round_trip(self, tiny_corpus, tiny_cfg, tmp_path):
        root, entries = tiny_corpus
        cfg = _pretrain_cfg(tiny_cfg, **{"train.epochs": 1})
        path, _ = train.pretrain(cfg, train.strip_labels(entries), root, tmp_path)
        model = train.load_model(cfg, path, head="proj")
        saved = ckpt.load_arrays(path)
        for name in model.store.names():
            assert np.array_equal(model.store[name].data, saved[name]), name

    def test_collapse_pair_forward_shapes(self, tiny_corpus, tiny_cfg, tmp_path):
        root, entries = tiny_corpus
        cfg = _pretrain_cfg(tiny_cfg, **{"train.epochs": 1})
        path, _ = train.pretrain(cfg, train.strip_labels(entries), root, tmp_path)
        model = train.load_model(cfg, path, head="proj")
        clips = train.strip_labels(entries)[:4]
        feats = train.load_split(clips, root, model.clip_shape)
        forward = train.collapse_pair_forward(model)
        h1, h2, z1, z2 = forward(next(iter(feats.items())))
        assert h1.shape == h2.shape
        assert z1.shape == z2.shape == (80,)


class TestRunPipeline:
    """``run_pipeline`` gives the bits of its stages called one by one."""

    @staticmethod
    def _by_hand(pre_cfg, ft_cfg, entries, root, out):
        pre_path = pre_trace = None
        if pre_cfg is not None:
            pre_path, pre_trace = train.pretrain(pre_cfg, train.strip_labels(entries), root,
                                                 out / "pre")
        model_path, ft_trace, dev_eer = train.finetune(ft_cfg, entries, root, out / "ft",
                                                       pre_path)
        model = train.load_model(ft_cfg, model_path, head="cls")
        return pre_path, pre_trace, model_path, ft_trace, dev_eer, \
            train.evaluate(model, entries, root)[1].eer

    @pytest.mark.parametrize("processes", [1, 2], ids=["one_process", "two_processes"])
    @pytest.mark.parametrize("pretrained", [True, False], ids=["pretrained", "skip_pretrain"])
    def test_same_bits_as_the_stages_by_hand(self, tiny_corpus, tiny_cfg, tmp_path,
                                             monkeypatch, force_processes, processes,
                                             pretrained):
        root, entries = tiny_corpus
        # 20 eval clips in chunks of 6: with two processes evaluate calls its scorer too
        monkeypatch.setattr(train, "EVAL_BATCH", 6)
        force_processes(processes)
        pre_cfg = _pretrain_cfg(tiny_cfg) if pretrained else None
        ft_cfg = _finetune_cfg(tiny_cfg, **{"train.skip_pretrain": not pretrained})
        pre_path, pre_trace, model_path, ft_trace, dev_eer, eval_eer = self._by_hand(
            pre_cfg, ft_cfg, entries, root, tmp_path / "by-hand")
        run = train.run_pipeline(pre_cfg, ft_cfg, entries, root, tmp_path / "pipeline")
        if pretrained:
            assert run.pre_path.read_bytes() == pre_path.read_bytes()
            assert _trace_rows(run.pre_trace) == _trace_rows(pre_trace)
        else:
            assert run.pre_path is run.pre_trace is None
        assert run.model_path.read_bytes() == model_path.read_bytes()
        assert _trace_rows(run.ft_trace) == _trace_rows(ft_trace)
        assert (run.dev_eer.hex(), run.eval_eer.hex()) == (dev_eer.hex(), eval_eer.hex())
        files = {"model.sigc", "finetune_trace.jsonl"}
        if pretrained:
            files |= {"pretrained.sigc", "pretrain_trace.jsonl"}
        assert {p.name for p in (tmp_path / "pipeline").iterdir()} == files

    @pytest.mark.parametrize("pretrained, skip_pretrain, message", [
        (False, False, "fine-tuning needs a pre-trained checkpoint"),
        (True, True, "train.skip_pretrain = true, yet a checkpoint was given"),
    ], ids=["no_pretrain_without_skip", "pretrain_with_skip"])
    def test_arm_and_skip_pretrain_must_agree(self, tiny_corpus, tiny_cfg, tmp_path,
                                              pretrained, skip_pretrain, message):
        root, entries = tiny_corpus
        pre_cfg = _pretrain_cfg(tiny_cfg, **{"train.epochs": 1}) if pretrained else None
        ft_cfg = _finetune_cfg(tiny_cfg, **{"train.skip_pretrain": skip_pretrain})
        with pytest.raises(ConfigError, match=re.escape(message)):
            train.run_pipeline(pre_cfg, ft_cfg, entries, root, tmp_path)
        assert not (tmp_path / "model.sigc").exists()
