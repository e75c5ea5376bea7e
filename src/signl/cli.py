"""Command-line surface for batch experiment runs.

Every verb but gradcheck runs in a fresh run directory named
<verb>-<seed>-<UTC timestamp> under --out, made by ``main`` before the verb
starts and holding a resolved-config snapshot next to its outputs.  Flag
overrides (--set key=value) win over the config file; SIGNL_SEED wins over both.

Exit codes: 0 on success; 1 on an ``errors.InputError``, after removing the run
directory and any --out parents this invocation made; 2 on any other failure,
keeping the run directory for diagnosis.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import augment, config, metrics, train
from .errors import ConfigError, InputError, UsageError
from .featio import (SynthConfig, gen_synthetic, read_manifest, sample_limited_labels,
                     write_manifest)


def _require_file(path, what):
    """``path`` if it names a regular file; a ``UsageError`` otherwise."""
    if not path or not Path(path).is_file():
        raise UsageError(f"{what} not found: {path or '(no path given)'}")
    return path


def _load_cfg(args):
    if args.config is not None:
        _require_file(args.config, "config file")
    cfg = config.load(args.config, args.set or ())
    env_seed = os.environ.get("SIGNL_SEED")
    if env_seed is not None:
        try:
            cfg["train.seed"] = int(env_seed)
        except ValueError:
            raise UsageError(f"SIGNL_SEED: expected an integer, got {env_seed!r}") from None
    return cfg


def _run_dir(args, cfg):
    """Make the run directory; return it and the --out parents it had to make, innermost first."""
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    path = Path(args.out) / f"{args.verb}-{cfg['train.seed']}-{stamp}"
    if path.exists():
        raise UsageError(f"run directory {path} already exists; refusing to overwrite")
    made = [p for p in path.parents if not p.exists()]
    path.mkdir(parents=True)
    config.dump(cfg, path / "config.resolved.cfg")
    return path, made


def _drop_run_dir(path, made):
    """Remove a run directory, then each --out parent made for it that nothing else has filled."""
    shutil.rmtree(path)
    with contextlib.suppress(OSError):  # rmdir refuses a parent that is not empty
        for parent in made:
            parent.rmdir()


def _manifest(cfg):
    path = cfg["data.manifest"] or str(Path(cfg["data.dir"]) / "manifest.jsonl")
    return read_manifest(_require_file(path, "manifest"))


def cmd_gen_data(cfg, run):
    synth = SynthConfig(F=cfg["data.f"], T=cfg["data.t"],
                        n_per_split={"train": cfg["data.n_train"],
                                     "dev": cfg["data.n_dev"],
                                     "eval": cfg["data.n_eval"]},
                        n_attack_types=cfg["data.n_attack_types"],
                        artifact_strength=cfg["data.artifact_strength"],
                        seed=cfg["train.seed"])
    entries = gen_synthetic(synth, cfg["data.dir"])
    (run / "summary.json").write_text(json.dumps(
        {"corpus_dir": cfg["data.dir"], "n_entries": len(entries)}))
    print(f"wrote {len(entries)} clips to {cfg['data.dir']}")
    return 0


def cmd_sample_labels(cfg, run):
    entries = _manifest(cfg)
    subset = sample_limited_labels(entries, cfg["train.label_fraction"], cfg["train.seed"])
    write_manifest(subset, run / "manifest.jsonl")
    print(f"kept {len(subset)} of {len(entries)} entries -> {run / 'manifest.jsonl'}")
    return 0


def cmd_pretrain(cfg, run):
    entries = _manifest(cfg)
    path, trace = train.pretrain(cfg, train.strip_labels(entries), cfg["data.dir"], run)
    best = min(row["dev_metric"] for row in trace)  # the epoch the checkpoint holds
    print(f"checkpoint: {path} (best dev metric {best:.4f})")
    return 0


def cmd_finetune(cfg, run):
    entries = _manifest(cfg)
    checkpoint = cfg["paths.checkpoint"] or None
    if checkpoint is not None:
        _require_file(checkpoint, "checkpoint")
    path, trace, dev_eer = train.finetune(cfg, entries, cfg["data.dir"], run, checkpoint)
    print(f"model: {path} (best dev EER {dev_eer:.4f})")
    return 0


def cmd_eval(cfg, run):
    entries = _manifest(cfg)
    checkpoint = _require_file(cfg["paths.checkpoint"], "checkpoint")
    model = train.load_model(cfg, checkpoint, head="cls")
    score_set, report = train.evaluate(model, entries, cfg["data.dir"])
    score_set.to_jsonl(run / "scores.jsonl")
    (run / "eer.json").write_text(report.to_json())
    print(f"eval EER {report.eer:.4f} at threshold {report.threshold:.4f}")
    return 0


def cmd_collapse(cfg, run):
    entries = _manifest(cfg)
    checkpoint = _require_file(cfg["paths.checkpoint"], "checkpoint")
    clips = train.strip_labels(entries)[:200]
    if not clips:
        raise ConfigError("the collapse diagnostic requires a non-empty train split")
    model = train.load_model(cfg, checkpoint, head="proj")
    samples = list(train.load_split(clips, cfg["data.dir"], model.clip_shape).items())
    report = metrics.collapse_report(train.collapse_pair_forward(model), samples)
    (run / "collapse.json").write_text(json.dumps(report))
    print(f"pair similarity before projection {report['before']:.4f}, "
          f"after {report['after']:.4f} ({report['n_pairs']} pairs)")
    return 0


def cmd_gradcheck(cfg, run):
    from .gradcheck import run_gradcheck
    worst = run_gradcheck()
    print(f"max relative gradient error: {worst:.3e}")
    return 0 if worst <= 1e-4 else 2


def cmd_ablation_grid(cfg, run):
    entries = _manifest(cfg)
    rows = run_grid(cfg, entries, run)
    table = run / "grid.tsv"
    with open(table, "w") as fh:
        fh.write("name\ted\tgn\tfm\tdev_metric\teval_eer\n")
        for r in rows:
            fh.write("{name}\t{ed}\t{gn}\t{fm}\t{dev_metric:.6f}\t{eval_eer:.6f}\n".format(**r))
    print(table.read_text(), end="")
    return 0


def run_grid(cfg, entries, out_dir):
    """``train.run_pipeline`` for each of the 8 augmentation combinations, into
    ``out_dir / name``; one grid.tsv row each."""
    if cfg["train.skip_pretrain"]:
        raise ConfigError("ablation-grid pretrains every combination: train.skip_pretrain "
                          "must be false")
    rows = []
    for name, ed, gn, fm in augment.GRID:
        sub = dict(cfg)
        sub["aug.ed"], sub["aug.gn"], sub["aug.fm"] = ed, gn, fm
        result = train.run_pipeline(sub, sub, entries, sub["data.dir"], Path(out_dir) / name)
        rows.append({"name": name, "ed": "Y" if ed else "-", "gn": "Y" if gn else "-",
                     "fm": "Y" if fm else "-", "dev_metric": result.dev_eer,
                     "eval_eer": result.eval_eer})
    return rows


COMMANDS = {
    "gen-data": cmd_gen_data,
    "sample-labels": cmd_sample_labels,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "eval": cmd_eval,
    "collapse": cmd_collapse,
    "gradcheck": cmd_gradcheck,
    "ablation-grid": cmd_ablation_grid,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="signl",
        description="Spatio-temporal vision-graph non-contrastive learning kit.",
        epilog="Precedence: SIGNL_SEED env var > --set overrides > config file > defaults.")
    parser.add_argument("verb", choices=sorted(COMMANDS))
    parser.add_argument("--config", default=None, help="key = value config file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable; wins over the file)")
    parser.add_argument("--out", default="runs", help="directory for run outputs")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    run = None
    try:
        cfg = _load_cfg(args)
        if args.verb != "gradcheck":
            run, made = _run_dir(args, cfg)
        return COMMANDS[args.verb](cfg, run)
    except InputError as exc:
        if run is not None:
            _drop_run_dir(run, made)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: the run directory stays for diagnosis
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
