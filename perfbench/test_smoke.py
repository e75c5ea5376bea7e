"""Smoke test: the benchmark runs end to end on a tiny corpus.

Runs ``run.py`` the way the benchmark is driven, checks the result line
against BENCHMARK.json, and checks that the tracer tolerates a missing seam.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import tracer  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_all_workloads_on_tiny_corpus(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = _run("--tiny", "--seconds", "0.5", "--seed", "5", "--trace", str(trace))
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 3
    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in spec["workloads"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["pretrain.augment.derive_rng.calls"]["value"] > 0
        assert result["metrics"]["finetune_frozen.augment.derive_rng.calls"]["value"] == 0


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "pretrain", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_missing_seam_is_reported_absent():
    from signl import featio, train

    original = featio.read_feature
    t = tracer.Tracer(seams=(tracer.Seam("train.no_such_stage"),
                             tracer.Seam("featio.read_feature")))
    with t.installed("op"):
        assert featio.read_feature is not original
        assert train.read_feature is featio.read_feature  # rebound where imported
    assert featio.read_feature is original and train.read_feature is original
    assert t.absent == ["train.no_such_stage"]
    metrics = tracer.layer_metrics(t.spans)
    assert metrics["train._block_adjacency.calls"] == (0.0, "count")
