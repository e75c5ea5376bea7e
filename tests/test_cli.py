"""Command-line surface: dispatch, exit codes, run directories, overrides."""

import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import pytest

from signl import augment, checkpoint, cli, config, featio
from signl import tensorgrad as tg
from signl import train
from signl.errors import ConfigError, ShapeError


BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def only_run_dir(out, verb):
    dirs = [p for p in out.iterdir() if p.name.startswith(verb + "-")]
    assert len(dirs) == 1, dirs
    return dirs[0]


def tree(root):
    """Every path under root, with the bytes of each file."""
    return {p: p.read_bytes() if p.is_file() else None for p in sorted(root.rglob("*"))}


@pytest.fixture
def base_cfg(tmp_path):
    path = tmp_path / "base.cfg"
    path.write_text(
        "data.dir = {corpus}\n"
        "data.f = 32\n"
        "data.t = 32\n"
        "data.n_train = 16\n"
        "data.n_dev = 8\n"
        "data.n_eval = 8\n"
        "data.n_attack_types = 2\n"
        "train.epochs = 1\n"
        "train.batch_size = 8\n"
        "train.lr = 1e-3\n".format(corpus=tmp_path / "corpus"))
    return path


class TestEndToEnd:
    def test_full_pipeline_emits_eer_json(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "runs"
        code, _, err = run(["gen-data", "--config", str(base_cfg),
                            "--out", str(out)], capsys)
        assert code == 0, err
        code, _, err = run(["pretrain", "--config", str(base_cfg),
                            "--out", str(out)], capsys)
        assert code == 0, err
        ck = only_run_dir(out, "pretrain") / "pretrained.sigc"
        assert ck.exists()
        code, _, err = run(["finetune", "--config", str(base_cfg),
                            "--set", f"paths.checkpoint={ck}",
                            "--out", str(out)], capsys)
        assert code == 0, err
        model = only_run_dir(out, "finetune") / "model.sigc"
        code, out_text, err = run(["eval", "--config", str(base_cfg),
                                   "--set", f"paths.checkpoint={model}",
                                   "--out", str(out)], capsys)
        assert code == 0, err
        run_dir = only_run_dir(out, "eval")
        report = json.loads((run_dir / "eer.json").read_text())
        assert 0.0 <= report["eer"] <= 0.5
        assert (run_dir / "scores.jsonl").exists()

    def test_eval_outputs_keep_their_bits_under_one_blas_thread(self, base_cfg, tmp_path,
                                                                capsys):
        # unforced: one BLAS thread leaves the process single-threaded, so eval may
        # fork a second scorer; default BLAS runs its own thread, so it may not
        out = tmp_path / "runs"
        n_eval = train.FORK_MIN_CHUNKS * train.EVAL_BATCH + 4  # a short last chunk
        assert run(["gen-data", "--config", str(base_cfg), "--set", f"data.n_eval={n_eval}",
                    "--out", str(out)], capsys)[0] == 0
        model = train.build_model(config.load(base_cfg), head="cls")
        ck = tmp_path / "model.sigc"
        checkpoint.save_arrays(model.store.state_arrays(), ck)
        env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        outputs = []
        for name, blas in [("pinned", {var: "1" for var in BLAS_ENV}), ("default", {})]:
            subprocess.run([sys.executable, "-m", "signl.cli", "eval", "--config",
                            str(base_cfg), "--set", f"paths.checkpoint={ck}",
                            "--out", str(tmp_path / name)], env={**env, **blas}, check=True,
                           capture_output=True)
            run_dir = only_run_dir(tmp_path / name, "eval")
            outputs.append([(run_dir / f).read_bytes() for f in ("scores.jsonl", "eer.json")])
        assert outputs[0] == outputs[1]
        assert len(outputs[0][0].splitlines()) == n_eval

    def test_pretrain_outputs_keep_their_bits_under_one_blas_thread(self, base_cfg, tmp_path,
                                                                    capsys):
        # unforced: one BLAS thread leaves the process single-threaded, so pretrain may
        # fork its temporal-view worker; default BLAS runs its own thread, so it may not
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        outputs = []
        # the ``signl`` command (module ``signl``) pins BLAS itself when the user has not
        for name, module, blas in [
                ("pinned", "signl.cli", {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}),
                ("default", "signl.cli", {}), ("command", "signl", {})]:
            subprocess.run([sys.executable, "-m", module, "pretrain", "--config",
                            str(base_cfg), "--set", "train.epochs=2", "--set", "aug.gn=true",
                            "--out", str(tmp_path / name)], env={**env, **blas}, check=True,
                           capture_output=True)
            run_dir = only_run_dir(tmp_path / name, "pretrain")
            rows = [json.loads(line) for line in
                    (run_dir / "pretrain_trace.jsonl").read_text().splitlines()]
            outputs.append(((run_dir / "pretrained.sigc").read_bytes(),
                            [{k: v for k, v in row.items() if k != "seconds"} for row in rows]))
        assert outputs[0] == outputs[1] == outputs[2]
        assert [row["epoch"] for row in outputs[0][1]] == [1, 2]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: nothing to fork")
    @pytest.mark.parametrize("user, expected", [({}, "True 1 1 1"),
                                                ({"OPENBLAS_NUM_THREADS": "2"}, "False 2 1 1")],
                             ids=["unset", "user_value_wins"])
    def test_command_pins_blas_so_the_probe_holds(self, user, expected):
        env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        script = ("import os, signl.__main__\n"
                  "from signl import forking\n"
                  f"print(forking.second_core_free(), *map(os.environ.get, {BLAS_ENV!r}))\n")
        out = subprocess.run([sys.executable, "-c", script], env={**env, **user}, check=True,
                             capture_output=True, text=True).stdout
        assert out.split() == expected.split()

    def test_collapse_report(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        assert run(["pretrain", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        ck = only_run_dir(out, "pretrain") / "pretrained.sigc"
        code, _, err = run(["collapse", "--config", str(base_cfg),
                            "--set", f"paths.checkpoint={ck}",
                            "--out", str(out)], capsys)
        assert code == 0, err
        report = json.loads(
            (only_run_dir(out, "collapse") / "collapse.json").read_text())
        assert set(report) == {"before", "after", "n_pairs"}

    def test_pretrain_prints_the_checkpoint_metric(self, tiny_corpus, tmp_path, capsys,
                                                   monkeypatch):
        """The checkpoint holds the best epoch, and early stopping ends a run on
        worse ones: the printed metric is the best row's, not the last row's."""
        root, _ = tiny_corpus
        trace = [{"epoch": epoch, "train_loss": -1.0, "dev_metric": metric, "seconds": 0.0}
                 for epoch, metric in enumerate([-1.5, -1.75, -1.625], 1)]
        monkeypatch.setattr(train, "pretrain", lambda cfg, clips, data_dir, out_dir: (
            Path(out_dir) / "pretrained.sigc", trace))
        code, out_text, err = run(["pretrain", "--set", f"data.dir={root}",
                                   "--out", str(tmp_path / "runs")], capsys)
        assert code == 0, err
        assert out_text.endswith(" (best dev metric -1.7500)\n")

    def test_ablation_grid_runs_every_combination(self, tiny_corpus, tmp_path, capsys):
        root, _ = tiny_corpus  # 40/10/20 clips of 32 x 32
        out = tmp_path / "runs"
        code, out_text, err = run(["ablation-grid", "--set", f"data.dir={root}",
                                   "--set", "data.f=32", "--set", "data.t=32",
                                   "--set", "train.epochs=1", "--set", "train.batch_size=16",
                                   "--out", str(out)], capsys)
        assert code == 0, err
        run_dir = only_run_dir(out, "ablation-grid")
        table = (run_dir / "grid.tsv").read_text()
        assert out_text == table
        header, *lines = table.splitlines()
        assert header == "name\ted\tgn\tfm\tdev_metric\teval_eer"
        rows = [line.split("\t") for line in lines]
        assert [row[:4] for row in rows] == [[name, *("Y" if on else "-" for on in flags)]
                                             for name, *flags in augment.GRID]
        assert all(0.0 <= float(value) <= 1.0 for row in rows for value in row[4:])
        for name, *_ in augment.GRID:
            assert sorted(p.name for p in (run_dir / name).iterdir()) == [
                "config.resolved.cfg", "finetune_trace.jsonl", "model.sigc",
                "pretrain_trace.jsonl", "pretrained.sigc"]

    def test_ablation_grid_records_each_combinations_config(self, tiny_corpus, tmp_path,
                                                            capsys):
        """``SIGNL-k/config.resolved.cfg`` holds the run's config with that
        combination's augmentations: SIGNL-3 is Gaussian noise alone."""
        root, _ = tiny_corpus
        out = tmp_path / "runs"
        code, _, err = run(["ablation-grid", "--set", f"data.dir={root}", "--set", "data.f=32",
                            "--set", "data.t=32", "--set", "train.epochs=1",
                            "--set", "train.batch_size=16", "--set", "aug.ed=true",
                            "--set", "aug.fm=true", "--out", str(out)], capsys)
        assert code == 0, err
        run_dir = only_run_dir(out, "ablation-grid")
        lines = (run_dir / "SIGNL-3" / "config.resolved.cfg").read_text().splitlines()
        assert {"aug.ed = false", "aug.gn = true", "aug.fm = false", "data.f = 32",
                "train.epochs = 1"} <= set(lines)
        resolved = config.load(str(run_dir / "SIGNL-3" / "config.resolved.cfg"), ())
        assert resolved == {**config.load(str(run_dir / "config.resolved.cfg"), ()),
                            "aug.ed": False, "aug.fm": False, "aug.gn": True}


class TestRunDirs:
    def test_resolved_config_snapshot(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        run_dir = only_run_dir(out, "gen-data")
        text = (run_dir / "config.resolved.cfg").read_text()
        assert "data.f = 32" in text

    def test_name_includes_verb_and_seed(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg),
                    "--set", "train.seed=9", "--out", str(out)], capsys)[0] == 0
        assert only_run_dir(out, "gen-data").name.startswith("gen-data-9-")


class TestSampleLabels:
    def test_subset_manifest_written(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        code, _, err = run(["sample-labels", "--config", str(base_cfg),
                            "--set", "train.label_fraction=0.5",
                            "--out", str(out)], capsys)
        assert code == 0, err
        lines = (only_run_dir(out, "sample-labels") /
                 "manifest.jsonl").read_text().splitlines()
        rows = [json.loads(l) for l in lines]
        # eval kept whole (8); train/dev halved (8 + 4)
        assert sum(r["split"] == "eval" for r in rows) == 8
        assert sum(r["split"] == "train" for r in rows) == 8
        assert sum(r["split"] == "dev" for r in rows) == 4


class TestErrors:
    def test_unknown_key_exits_1(self, base_cfg, tmp_path, capsys):
        code, _, err = run(["gen-data", "--config", str(base_cfg),
                            "--set", "bogus.key=1",
                            "--out", str(tmp_path / "runs")], capsys)
        assert code == 1
        assert "bogus.key" in err

    def test_invalid_value_exits_1(self, base_cfg, tmp_path, capsys):
        code, _, err = run(["pretrain", "--config", str(base_cfg),
                            "--set", "train.lr=-1",
                            "--out", str(tmp_path / "runs")], capsys)
        assert code == 1

    def test_nan_learning_rate_exits_1_without_run_dir(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        before = sorted(out.iterdir())
        code, _, err = run(["pretrain", "--config", str(base_cfg),
                            "--set", "train.lr=nan", "--out", str(out)], capsys)
        assert code == 1
        assert "train.lr" in err
        assert sorted(out.iterdir()) == before

    def test_invalid_graph_value_exits_1_without_run_dir(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        before = sorted(out.iterdir())
        code, _, err = run(["pretrain", "--config", str(base_cfg),
                            "--set", "graph.k=8", "--out", str(out)], capsys)
        assert code == 1
        assert "graph.k" in err
        assert sorted(out.iterdir()) == before

    @pytest.mark.parametrize("setting, message", [
        ("graph.d=30", "pyramid width 15 is not halvable"),
        ("graph.n=6", "patch count 6 must divide half-width 16"),
        ("data.f=0", "data.f must be >= 1"),
        ("graph.d=0", "graph.d must be >= 1"),
        ("graph.heads=0", "graph.heads must be >= 1"),
        ("graph.heads=-3", "graph.heads must be >= 1"),
    ])
    def test_model_shape_value_exits_1_without_run_dir(self, base_cfg, tmp_path, capsys,
                                                       setting, message):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        before = sorted(out.iterdir())
        code, _, err = run(["pretrain", "--config", str(base_cfg),
                            "--set", setting, "--out", str(out)], capsys)
        assert code == 1
        assert message in err
        assert sorted(out.iterdir()) == before

    def test_missing_config_file_exits_1_without_run_dir(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent.cfg"
        out = tmp_path / "runs"
        code, _, err = run(["pretrain", "--config", str(missing), "--out", str(out)], capsys)
        assert code == 1
        assert f"config file not found: {missing}" in err
        assert not out.exists()

    def test_finetune_missing_checkpoint_path_exits_1(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        missing = tmp_path / "nope.sigc"
        code, _, err = run(["finetune", "--config", str(base_cfg),
                            "--set", f"paths.checkpoint={missing}",
                            "--out", str(out)], capsys)
        assert code == 1
        assert str(missing) in err

    def test_finetune_without_checkpoint_exits_1(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        code, _, err = run(["finetune", "--config", str(base_cfg),
                            "--out", str(out)], capsys)
        assert code == 1
        assert "checkpoint" in err

    @pytest.mark.parametrize("verb, key", [("pretrain", "data.manifest"),
                                           ("finetune", "paths.checkpoint"),
                                           ("eval", "paths.checkpoint"),
                                           ("collapse", "paths.checkpoint")])
    def test_directory_as_input_file_exits_1_without_run_dir(self, base_cfg, tmp_path, capsys,
                                                             verb, key):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        before = tree(out)
        code, _, err = run([verb, "--config", str(base_cfg), "--set", f"{key}={tmp_path}",
                            "--out", str(out)], capsys)
        assert code == 1, err
        assert f"not found: {tmp_path}" in err
        assert tree(out) == before

    def test_non_utf8_config_exits_1_without_run_dir(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        before = tree(out)
        bad = tmp_path / "bad.cfg"
        lines = base_cfg.read_bytes().splitlines(keepends=True)
        bad.write_bytes(b"".join(lines) + b"data.manifest = caf\xe9.jsonl\n")
        code, _, err = run(["gen-data", "--config", str(bad), "--out", str(out)], capsys)
        assert code == 1
        assert f"{bad}:{len(lines) + 1}: not UTF-8 text" in err
        assert tree(out) == before

    def test_missing_manifest_exits_1(self, base_cfg, tmp_path, capsys):
        code, _, err = run(["pretrain", "--config", str(base_cfg),
                            "--out", str(tmp_path / "runs")], capsys)
        assert code == 1
        assert "manifest" in err

    def test_duplicate_clip_id_exits_1(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        manifest = tmp_path / "corpus" / "manifest.jsonl"
        first = json.loads(manifest.read_text().splitlines()[0])
        first["path"] = "other/" + first["path"]
        with open(manifest, "a") as fh:
            fh.write(json.dumps(first) + "\n")
        before = sorted(out.iterdir())
        code, _, err = run(["pretrain", "--config", str(base_cfg), "--out", str(out)], capsys)
        assert code == 1
        assert "duplicates line 1" in err
        assert sorted(out.iterdir()) == before

    def test_eval_of_pretrain_checkpoint_exits_1_without_run_dir(self, base_cfg, tmp_path,
                                                                  capsys):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        assert run(["pretrain", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        ck = only_run_dir(out, "pretrain") / "pretrained.sigc"
        code, _, err = run(["eval", "--config", str(base_cfg),
                            "--set", f"paths.checkpoint={ck}", "--out", str(out)], capsys)
        assert code == 1  # CheckpointError: the file has no classifier head
        assert "checkpoint incompatible" in err
        assert not [p for p in out.iterdir() if p.name.startswith("eval-")]

    def test_eval_on_corpus_of_another_shape_exits_1(self, base_cfg, tmp_path, capsys):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0  # 32 x 32 clips
        model = train.build_model(config.defaults(), head="cls")  # 64 x 64
        ck = tmp_path / "model64.sigc"
        checkpoint.save_arrays(model.store.state_arrays(), ck)
        code, _, err = run(["eval", "--config", str(base_cfg), "--set", "data.f=64",
                            "--set", "data.t=64", "--set", f"paths.checkpoint={ck}",
                            "--out", str(out)], capsys)
        assert code == 1
        assert "are (32, 32), but (data.f, data.t) is (64, 64)" in err
        assert not [p for p in out.iterdir() if p.name.startswith("eval-")]

    @pytest.mark.parametrize("processes", [1, 2], ids=["one_process", "two_processes"])
    def test_eval_with_other_shape_in_a_later_chunk_exits_1(self, base_cfg, tmp_path, capsys,
                                                            monkeypatch, force_processes,
                                                            processes):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0  # 8 eval clips of 32 x 32
        featio.write_feature(np.zeros((30, 32)), tmp_path / "corpus" / "eval_00007.sigf")
        model = train.build_model(config.load(base_cfg), head="cls")
        ck = tmp_path / "model.sigc"
        checkpoint.save_arrays(model.store.state_arrays(), ck)
        monkeypatch.setattr(train, "EVAL_BATCH", 7)  # the last clip is a chunk of its own
        force_processes(processes)  # with two, the child scores that chunk
        code, _, err = run(["eval", "--config", str(base_cfg),
                            "--set", f"paths.checkpoint={ck}", "--out", str(out)], capsys)
        assert code == 1
        assert "'eval_00007' are (30, 32)" in err
        assert not [p for p in out.iterdir() if p.name.startswith("eval-")]

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="one CPU: nothing to fork")
    @pytest.mark.parametrize("code", [0, 1], ids=["success", "exit_1"])
    def test_eval_command_leaves_no_process_behind(self, base_cfg, tmp_path, capsys, code):
        """``python -m signl eval`` forks its helper once and reaps it before it
        exits, whether it succeeds or exits 1 on a clip in the helper's half."""
        out = tmp_path / "runs"
        n_eval = train.FORK_MIN_CHUNKS * train.EVAL_BATCH
        assert run(["gen-data", "--config", str(base_cfg), "--set", f"data.n_eval={n_eval}",
                    "--out", str(out)], capsys)[0] == 0
        if code:
            last = f"eval_{n_eval - 1:05d}"
            featio.write_feature(np.zeros((30, 32)), tmp_path / "corpus" / f"{last}.sigf")
        model = train.build_model(config.load(base_cfg), head="cls")
        ck = tmp_path / "model.sigc"
        checkpoint.save_arrays(model.store.state_arrays(), ck)
        # every process forked in the command writes its pid, from the child's side
        hooks, forks = tmp_path / "hooks", tmp_path / "forks"
        hooks.mkdir()
        (hooks / "sitecustomize.py").write_text(
            "import os\n"
            f"os.register_at_fork(after_in_child=lambda: open({str(forks)!r}, 'a')"
            ".write(f'{os.getpid()}\\n'))\n")
        env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
        env["PYTHONPATH"] = os.pathsep.join([str(hooks), str(Path(cli.__file__).parents[1])])
        done = subprocess.run([sys.executable, "-m", "signl", "eval", "--config", str(base_cfg),
                               "--set", f"paths.checkpoint={ck}", "--out", str(out)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == code, done.stderr
        assert (f"'{last}' are (30, 32)" in done.stderr) if code else not done.stderr
        helpers = forks.read_text().split()
        assert len(helpers) == 1
        assert not Path(f"/proc/{helpers[0]}").exists()  # reaped before the command exited

    def test_non_finite_finetune_loss_exits_2(self, base_cfg, tmp_path, capsys, monkeypatch):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        classify = train._classify_forward
        monkeypatch.setattr(train, "_classify_forward",
                            lambda *args: tg.scale(classify(*args), float("nan")))
        code, _, err = run(["finetune", "--config", str(base_cfg),
                            "--set", "train.skip_pretrain=true", "--out", str(out)], capsys)
        assert code == 2
        assert "non-finite loss at epoch 1" in err
        assert (only_run_dir(out, "finetune") / "config.resolved.cfg").is_file()

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a diverged run stops quietly
    def test_diverged_pretrain_exits_2_keeping_its_run_dir(self, tiny_corpus, tmp_path,
                                                           capsys):
        """At lr 1e39 epoch 1's one step makes the parameters infinite: a runtime
        failure, not a checkpoint error about the values it would save."""
        root, _ = tiny_corpus  # 40/10/20 clips of 32 x 32
        out = tmp_path / "runs"
        code, _, err = run(["pretrain", "--set", f"data.dir={root}", "--set", "data.f=32",
                            "--set", "data.t=32", "--set", "train.epochs=1",
                            "--set", "train.batch_size=96", "--set", "train.lr=1e39",
                            "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("runtime failure: non-finite dev metric at epoch 1; "
                              "largest param norms: ")
        run_dir = only_run_dir(out, "pretrain")
        assert (run_dir / "config.resolved.cfg").is_file()
        assert (run_dir / "pretrain_trace.jsonl").read_text() == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a diverged run stops quietly
    def test_diverged_finetune_exits_2_keeping_its_run_dir(self, tiny_corpus, tmp_path,
                                                           capsys):
        """At lr 1e39 epoch 1's one step makes the dev scores NaN: the parameter norms,
        not an EER contract error."""
        root, _ = tiny_corpus  # 40/10/20 clips of 32 x 32
        out = tmp_path / "runs"
        code, _, err = run(["finetune", "--set", f"data.dir={root}", "--set", "data.f=32",
                            "--set", "data.t=32", "--set", "train.skip_pretrain=true",
                            "--set", "train.label_fraction=1.0",
                            "--set", "train.batch_size=96", "--set", "train.lr=1e39",
                            "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("runtime failure: non-finite dev metric at epoch 1; "
                              "largest param norms: ")
        run_dir = only_run_dir(out, "finetune")
        assert (run_dir / "config.resolved.cfg").is_file()
        assert (run_dir / "finetune_trace.jsonl").read_text() == ""

    def test_collapse_without_train_clips_exits_1_without_run_dir(self, base_cfg, tmp_path,
                                                                  capsys):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        manifest = tmp_path / "corpus" / "manifest.jsonl"
        manifest.write_text("".join(line + "\n" for line in manifest.read_text().splitlines()
                                    if json.loads(line)["split"] != "train"))
        model = train.build_model(config.load(base_cfg), head="proj")
        ck = tmp_path / "pretrained.sigc"
        checkpoint.save_arrays(model.store.state_arrays(), ck)
        code, _, err = run(["collapse", "--config", str(base_cfg),
                            "--set", f"paths.checkpoint={ck}", "--out", str(out)], capsys)
        assert code == 1
        assert "non-empty train split" in err
        assert not [p for p in out.iterdir() if p.name.startswith("collapse-")]

    _OTHER_SHAPE = ["data.f=64", "data.t=64"]
    _OTHER_SHAPE_ERROR = "are (32, 32), but (data.f, data.t) is (64, 64)"

    @pytest.mark.parametrize("verb, settings, checkpoint_of, edit, message", [
        ("pretrain", _OTHER_SHAPE, None, None, _OTHER_SHAPE_ERROR),
        ("finetune", _OTHER_SHAPE + ["train.skip_pretrain=true"], None, None, _OTHER_SHAPE_ERROR),
        ("eval", _OTHER_SHAPE, ("cls", []), None, _OTHER_SHAPE_ERROR),
        ("collapse", _OTHER_SHAPE, ("proj", []), None, _OTHER_SHAPE_ERROR),
        ("ablation-grid", _OTHER_SHAPE, None, None, _OTHER_SHAPE_ERROR),
        ("ablation-grid", ["train.skip_pretrain=true"], None, None,
         "ablation-grid pretrains every combination"),
        ("pretrain", [], None, "truncate", "train_00000.sigf: truncated payload"),
        ("finetune", [], ("proj", ["graph.d=16"]), None,
         "checkpoint incompatible: 'stem.temporal.w' has shape (64, 16), expected (64, 32), "
         "in {checkpoint}"),
        ("pretrain", [], None, "nul", "path 'x\\x00.sigf' holds a NUL character"),
        ("sample-labels", [], None, "nul", "path 'x\\x00.sigf' holds a NUL character"),
        ("gen-data", ["data.n_attack_types=0"], None, None, "n_attack_types must be >= 1"),
        ("gen-data", ["data.f=2", "data.t=4", "graph.n=2", "graph.k=1",
                      "data.n_attack_types=3", "data.n_train=20"], None, None,
         "2 x 4 clips cannot hold the artifacts of 3 attack families"),
        ("finetune", ["train.skip_pretrain=true"], None, "dev bonafide only",
         "split 'dev' holds no 'fake' clips"),
        ("finetune", ["train.skip_pretrain=true"], ("proj", []), None,
         "train.skip_pretrain = true, yet a checkpoint was given: {checkpoint}"),
        ("eval", [], ("cls", []), "eval bonafide only", "split 'eval' holds no 'fake' clips"),
    ], ids=["pretrain-shape", "finetune-shape", "eval-shape", "collapse-shape",
            "ablation-grid-shape", "ablation-grid-skip-pretrain", "pretrain-truncated-sigf",
            "finetune-incompatible-checkpoint", "pretrain-nul-path", "sample-labels-nul-path", "gen-data-synth-config",
            "gen-data-narrow-clips", "finetune-single-label-dev",
            "finetune-skip-pretrain-checkpoint", "eval-single-label-eval"])
    def test_input_error_inside_a_verb_exits_1_leaving_out_as_it_was(
            self, base_cfg, tmp_path, capsys, verb, settings, checkpoint_of, edit, message):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        corpus = tmp_path / "corpus"
        if edit == "truncate":
            clip = corpus / "train_00000.sigf"
            clip.write_bytes(clip.read_bytes()[:-4])
        if edit == "nul":
            with open(corpus / "manifest.jsonl", "a") as fh:
                fh.write(json.dumps({"path": "x\0.sigf", "label": "bonafide",
                                     "attack_id": "-", "split": "train"}) + "\n")
        if edit is not None and edit.endswith("bonafide only"):
            split = edit.split()[0]
            manifest = corpus / "manifest.jsonl"
            rows = [json.loads(line) for line in manifest.read_text().splitlines()]
            manifest.write_text("".join(json.dumps(r) + "\n" for r in rows
                                        if r["split"] != split or r["label"] == "bonafide"))
        corpus_before = tree(corpus)
        ck = tmp_path / "model.sigc"
        if checkpoint_of is not None:
            head, extra = checkpoint_of
            model = train.build_model(config.load(base_cfg, settings + extra), head=head)
            checkpoint.save_arrays(model.store.state_arrays(), ck)
            settings = settings + [f"paths.checkpoint={ck}"]
        before = tree(out)
        code, _, err = run([verb, "--config", str(base_cfg), "--out", str(out)]
                           + [arg for item in settings for arg in ("--set", item)], capsys)
        assert code == 1
        assert message.format(checkpoint=ck) in err
        assert tree(out) == before
        assert tree(corpus) == corpus_before

    def test_input_error_removes_the_out_directories_it_made(self, base_cfg, tmp_path,
                                                             capsys):
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(tmp_path / "runs")],
                   capsys)[0] == 0
        fresh = tmp_path / "fresh"
        code, _, err = run(["pretrain", "--config", str(base_cfg), "--set", "data.f=64",
                            "--set", "data.t=64", "--out", str(fresh / "runs")], capsys)
        assert code == 1, err
        assert not fresh.exists()

    def test_run_dir_name_collision_exits_1_keeping_the_existing_dir(self, base_cfg, tmp_path,
                                                                     capsys, monkeypatch):
        class Frozen(datetime):
            @classmethod
            def now(cls, tz=None):
                return datetime(2026, 1, 2, tzinfo=timezone.utc)

        monkeypatch.setattr(cli, "datetime", Frozen)
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        before = tree(out)
        code, _, err = run(["gen-data", "--config", str(base_cfg), "--out", str(out)], capsys)
        assert code == 1
        assert "gen-data-0-20260102T000000000000Z already exists" in err
        assert tree(out) == before

    @pytest.mark.parametrize("processes", [1, 2], ids=["one_process", "two_processes"])
    @pytest.mark.parametrize("failure", ["ShapeError", "missing SIGF"])
    def test_runtime_failure_inside_a_verb_exits_2_keeping_its_run_dir(
            self, base_cfg, tmp_path, capsys, monkeypatch, force_processes, processes, failure):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        force_processes(processes)
        if failure == "ShapeError":
            def broken(*args):
                raise ShapeError("matmul inner dims disagree")
            monkeypatch.setattr(train, "_pair_forward", broken)
        else:
            (tmp_path / "corpus" / "train_00003.sigf").unlink()
        code, _, err = run(["pretrain", "--config", str(base_cfg), "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("runtime failure:")
        assert (only_run_dir(out, "pretrain") / "config.resolved.cfg").is_file()

    @pytest.mark.parametrize("error, code", [(ConfigError, 1), (ShapeError, 2)])
    def test_temporal_view_error_in_the_worker_keeps_its_exit_code(
            self, base_cfg, tmp_path, capsys, monkeypatch, force_processes, error, code):
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg), "--out", str(out)],
                   capsys)[0] == 0
        parent, view_embed = os.getpid(), train._view_embed

        def broken(model, segs, kind, *args):
            if kind == "temporal":
                assert os.getpid() != parent  # the worker's view
                raise error("temporal view broke")
            return view_embed(model, segs, kind, *args)

        monkeypatch.setattr(train, "_view_embed", broken)
        force_processes(2)
        exit_code, _, err = run(["pretrain", "--config", str(base_cfg), "--out", str(out)],
                                capsys)
        assert exit_code == code
        assert "temporal view broke" in err
        kept = [p for p in out.iterdir() if p.name.startswith("pretrain-")]
        assert len(kept) == (code == 2)
        with pytest.raises(ChildProcessError):  # the worker is reaped
            os.waitpid(-1, os.WNOHANG)

    def test_runtime_failure_exits_2(self, base_cfg, tmp_path, capsys):
        code, _, err = run(["gen-data", "--config", str(base_cfg),
                            "--set", "data.dir=/proc/no-such-dir/corpus",
                            "--out", str(tmp_path / "runs")], capsys)
        assert code == 2


class TestSeedPrecedence:
    def test_env_var_beats_override(self, base_cfg, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SIGNL_SEED", "42")
        out = tmp_path / "runs"
        assert run(["gen-data", "--config", str(base_cfg),
                    "--set", "train.seed=9", "--out", str(out)], capsys)[0] == 0
        assert only_run_dir(out, "gen-data").name.startswith("gen-data-42-")


    def test_non_integer_env_seed_exits_1_naming_it(self, base_cfg, tmp_path, capsys,
                                                     monkeypatch):
        monkeypatch.setenv("SIGNL_SEED", "abc")
        code, _, err = run(["sample-labels", "--config", str(base_cfg),
                            "--out", str(tmp_path / "runs")], capsys)
        assert code == 1
        assert "SIGNL_SEED" in err and "'abc'" in err


class TestGradcheckVerb:
    def test_exit_zero_and_prints_error(self, tmp_path, capsys):
        code, out_text, _ = run(["gradcheck", "--out", str(tmp_path)], capsys)
        assert code == 0
        assert "max relative gradient error" in out_text
