#!/usr/bin/env python3
"""Run the signl benchmark.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py                       # all three workloads, one process

Builds nothing: it imports ``signl`` from ``src/`` next to this directory
and exits with code 2, printing no result, when that is missing.  BLAS
runs on a fixed thread count.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics from a traced
run with ``--trace 1``.  Corpora and checkpoints go under ``.perfbench/``
at the repository root and are deleted at exit; the results, spans and
a registry of checkpoint hashes stay there.  See README.md here for the
workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("pretrain", "finetune_frozen", "score_large")
BLAS_THREADS = 1  # at most nproc; one thread keeps a shared 2-core machine steady
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measured time per workload, after set-up")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny corpus and one epoch per stage (smoke test)")
    return ap.parse_args(argv)


def _code_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "signl").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha():
    """HEAD of the enclosing git checkout, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _environment(seed, scale):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
        "code_sha256": _code_digest(),
        "workload_seed": seed,
        "scale": scale,
    }


def _check_registry(run, env, wl_name):
    """Runs of one code state at one seed must write identical checkpoints."""
    path = OUT / "checkpoint_hashes.json"
    registry = json.loads(path.read_text()) if path.is_file() else {}
    key = f"{env['code_sha256']}|{env['scale']}|{wl_name}|seed={env['workload_seed']}"
    hashes = run.hashes()
    earlier = registry.setdefault(key, hashes)
    run.checks.expect(earlier == hashes,
                      f"checkpoint hashes {hashes} differ from an earlier run {earlier}")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(registry, indent=1, sort_keys=True))
    os.replace(tmp, path)


def _measure(run, seconds, traced):
    """Set up, then repeat the operation until the next one would overrun.

    A traced run alternates untraced and traced operations so that the
    tracing overhead is measured on the same run.  Returns (attempted, failed).
    """
    for _ in range(run.wl.setups):
        run.setup()
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        attempted += 1
        try:
            last = run.operation(traced=traced and attempted % 2 == 0)
        except Exception:  # report the failure, keep what was measured
            traceback.print_exc()
            failed += 1
            break
        elapsed = time.perf_counter() - start
        if attempted >= (2 if traced else 1) and elapsed + last > seconds:
            break
    return attempted, failed


def run_workload(name, args, scale, env):
    import tracer as tr
    import workloads as wls

    wl = scale.workloads[name]
    OUT.mkdir(exist_ok=True)
    work = OUT / "work" / f"{name}-{args.seed}-{os.getpid()}"
    tracer = tr.Tracer() if args.trace else None
    run = wls.Run(wl, scale, args.seed, work, tracer)
    try:
        attempted, failed = _measure(run, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.check_repeats()
    _check_registry(run, env, name)
    metrics, recorded = {}, {"error_rate": (failed / attempted, "ratio")}
    if not failed:
        metrics = run.per_layer() if tracer else run.end_to_end()
        recorded["eval_eer"] = (run.eval_eer(), "ratio")
        if not tracer:
            recorded["machine_speed"] = (run.machine_speed(), "ratio")
            recorded.update({f"raw_{k}": v for k, v in run.end_to_end(raw=True).items()
                             if k.endswith("_s")})

    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    if tracer:
        tr.write_spans(tracer.spans, results_dir / f"{stem}.spans.jsonl")
    report = {
        "workload": name, "environment": env, "attempted": attempted, "failed": failed,
        "checks_passed": run.checks.passed, "check_failures": run.checks.failures,
        "checkpoint_sha256": run.hashes(),
        "absent_seams": tracer.absent if tracer else [],
        "degraded_seams": sorted(tracer.degraded) if tracer else [],
        "setup_seconds": run.setup_seconds, "op_seconds": run.op_seconds,
        "traced_op_seconds": run.traced_seconds,
        "reference_seconds": run.reference_seconds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "recorded": {k: {"value": v, "unit": u} for k, (v, u) in recorded.items()},
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(report, indent=1))

    print(f"== {name}: {attempted} operation(s), {failed} failed, "
          f"{run.checks.passed} checks passed, {len(run.checks.failures)} failed")
    for failure in run.checks.failures:
        print(f"   CHECK FAILED: {failure}")
    for seam in report["absent_seams"]:
        print(f"   absent seam: {seam}")
    print(f"   checkpoint sha256: {json.dumps(report['checkpoint_sha256'])}")
    for key, (value, unit) in metrics.items():
        print(f"   {key} = {value!r} {unit}")
    for key, (value, unit) in recorded.items():
        print(f"   {key} = {value!r} {unit}  (recorded, not gated)")
    correct = not run.checks.failures and not failed
    return correct, attempted, failed, metrics


def main(argv=None):
    args = _parse(argv)
    if not (SRC / "signl" / "__init__.py").is_file():
        print(f"perfbench: no signl sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import signl
    import workloads as wls

    if not Path(signl.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: signl imported from {signl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    scale = wls.TINY_SCALE if args.tiny else wls.DESK_SCALE
    env = _environment(args.seed, scale.name)
    print("environment: " + json.dumps(env))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        ok, n, bad, wl_metrics = run_workload(name, args, scale, env)
        correct, attempted, failed = correct and ok, attempted + n, failed + bad
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in wl_metrics.items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
