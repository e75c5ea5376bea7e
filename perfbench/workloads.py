"""The benchmark's workloads: corpus, set-up, measured operation and checks.

Every workload runs signl's pipeline -- pretrain, frozen fine-tune,
evaluate -- on a synthetic corpus made from the workload seed, through
the package's Python API.  A workload chooses the corpus, the stage
sizes, and which stages form the measured operation; the stages before
those run in set-up.  So every stage is timed on every workload, while
each workload spends its measured time in the stage it exists to stress.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

from signl import config, featio, train

import tracer as tr

STAGES = ("pretrain", "finetune", "evaluate")
TRAIN_SEED = 0  # the workload seed varies the corpus; initialisation stays fixed
TEMPERATURE = 0.5
PRETRAIN_SETTINGS = ("train.lr = 5e-6", "train.batch_size = 96", "aug.ed = true",
                     "aug.gn = true", "aug.fm = true", f"train.temperature = {TEMPERATURE}")
FINETUNE_SETTINGS = ("train.lr = 1e-3", "train.batch_size = 32",
                     "train.label_fraction = 0.1", "train.freeze_encoders = true")
DESK = {"train": 2000, "dev": 500, "eval": 1000}
# median time of reference_kernel() on the 2-core Xeon the benchmark was defined on
REFERENCE_S = 0.05


def reference_kernel():
    """Fixed interpreter-bound work that does not use signl.

    signl's stages spend most of their time in the interpreter and in
    numpy calls on small arrays; a plain loop follows the machine's speed
    phases on those stages more closely than matmuls or RNG streams do.
    """
    total = 0
    for i in range(1_000_000):
        total += i
    return total


@dataclass(frozen=True)
class Workload:
    name: str
    splits: dict            # clips per split of the generated corpus
    pretrain_epochs: int
    finetune_epochs: int
    measured: tuple         # stages of the measured operation, a suffix of STAGES
    setups: int             # set-ups per run; setup_s is their median
    eval_only: int = 0      # >0: evaluate on a separate eval-only corpus this large

    @property
    def setup_stages(self):
        return STAGES[:len(STAGES) - len(self.measured)]


@dataclass(frozen=True)
class Scale:
    name: str
    f: int
    t: int
    workloads: dict


DESK_SCALE = Scale("desk", 64, 64, {w.name: w for w in (
    Workload("pretrain", DESK, 2, 4, STAGES, 3),
    Workload("finetune_frozen", DESK, 1, 10, ("finetune", "evaluate"), 3),
    # one set-up: writing 16k clips takes most of a run's time budget
    Workload("score_large", {**DESK, "eval": 0}, 1, 30, ("evaluate",), 1, eval_only=16000),
)})

# a few seconds end to end, for the smoke test
TINY = {"train": 48, "dev": 12, "eval": 24}
TINY_SCALE = Scale("tiny", 32, 32, {w.name: w for w in (
    Workload("pretrain", TINY, 1, 1, STAGES, 1),
    Workload("finetune_frozen", TINY, 1, 2, ("finetune", "evaluate"), 1),
    Workload("score_large", {**TINY, "eval": 0}, 1, 2, ("evaluate",), 1, eval_only=96),
)})

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("pretrain_clips_per_s", "clips/s"),
    ("finetune_clips_per_s", "clips/s"),
    ("eval_clips_per_s", "clips/s"),
    ("peak_rss_mb", "MB"),
    ("pretrain_dev_loss", "loss"),
)


class Checks:
    """Output checks; a run is correct only if every one passes."""

    def __init__(self):
        self.passed = 0
        self.failures = []

    def expect(self, ok, what):
        if ok:
            self.passed += 1
        else:
            self.failures.append(what)

    def same(self, values, what):
        self.expect(len(set(values)) <= 1, f"{what} differ between repeats: {sorted(set(values))}")


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _finite(values):
    return all(math.isfinite(v) for v in values)


class Run:
    """One workload at one seed: set-ups, then measured operations.

    Each piece of timed work -- writing the corpora, one stage -- runs
    between two samples of the reference kernel, and its time is also kept
    multiplied by the machine speed they measured (see ``end_to_end``).  A
    traced run takes no samples: its per-layer times are raw.
    """

    def __init__(self, workload, scale, seed, work_dir, tracer=None):
        self.wl = workload
        self.scale = scale
        self.seed = seed
        self.work = Path(work_dir)
        self.tracer = tracer
        self.checks = Checks()
        self.state = {}
        self.samples = {stage: [] for stage in STAGES}
        self.setup_seconds = []   # (raw, scaled) seconds per set-up
        self.op_seconds = []      # (raw, scaled) seconds per untraced operation
        self.traced_seconds = []  # (raw, scaled) seconds per traced operation
        self.reference_seconds = []
        self._last_reference = None

    def _reference(self):
        t0 = time.perf_counter()
        reference_kernel()
        self.reference_seconds.append(time.perf_counter() - t0)
        return self.reference_seconds[-1]

    def _timed(self, work):
        """(result, seconds, machine speed) of work().

        The speed is REFERENCE_S over the mean of reference samples taken
        just before and just after, so it follows the machine from one piece
        of work to the next; 1 in a traced run.
        """
        before = None
        if self.tracer is None:
            before = self._last_reference or self._reference()
        t0 = time.perf_counter()
        result = work()
        seconds = time.perf_counter() - t0
        if before is None:
            return result, seconds, 1.0
        self._last_reference = self._reference()
        return result, seconds, 2 * REFERENCE_S / (before + self._last_reference)

    # -- configuration -----------------------------------------------------

    def _cfg(self, settings, epochs):
        return config.load(None, overrides=(
            *settings, f"data.f = {self.scale.f}", f"data.t = {self.scale.t}",
            f"train.seed = {TRAIN_SEED}", f"train.epochs = {epochs}",
            f"train.patience = {epochs}"))  # patience >= epochs: no early stop

    # -- stages ------------------------------------------------------------

    def _pretrain(self, out):
        cfg = self._cfg(PRETRAIN_SETTINGS, self.wl.pretrain_epochs)
        clips = train.strip_labels(self.state["entries"])
        t0 = time.perf_counter()
        path, trace = train.pretrain(cfg, clips, self.state["corpus"], out)
        seconds = time.perf_counter() - t0
        self.state["pretrained"] = path
        return {"seconds": seconds, "clips": len(clips) * cfg["train.epochs"], "cfg": cfg,
                "path": path, "head": "proj",
                "losses": [v for row in trace for v in (row["train_loss"], row["dev_metric"])],
                # mean (1 - cos) / tau over dev pairs: the alignment loss shifted by
                # 1/tau so that it is positive
                "dev_loss": trace[-1]["dev_metric"] + 1.0 / TEMPERATURE}

    def _finetune(self, out):
        cfg = self._cfg(FINETUNE_SETTINGS, self.wl.finetune_epochs)
        entries = self.state["entries"]
        labeled = featio.sample_limited_labels(entries, cfg["train.label_fraction"],
                                               cfg["train.seed"])
        n_train = sum(1 for e in labeled if e.split == "train")
        t0 = time.perf_counter()
        path, trace, _ = train.finetune(cfg, entries, self.state["corpus"], out,
                                        checkpoint_path=self.state["pretrained"])
        seconds = time.perf_counter() - t0
        self.state["classifier"] = path
        self.state["classifier_cfg"] = cfg
        return {"seconds": seconds, "clips": n_train * cfg["train.epochs"], "cfg": cfg,
                "path": path, "head": "cls",
                "losses": [v for row in trace for v in (row["train_loss"], row["dev_metric"])]}

    def _evaluate(self, out):
        model = train.load_model(self.state["classifier_cfg"], self.state["classifier"])
        t0 = time.perf_counter()
        score_set, report = train.evaluate(model, self.state["eval_entries"],
                                           self.state["eval_corpus"])
        seconds = time.perf_counter() - t0
        return {"seconds": seconds, "clips": len(score_set.entries),
                "scores": [s for _, s, _ in score_set.entries], "eer": report.eer}

    def _run_stages(self, stages):
        """Run stages in order: (results, raw seconds, scaled seconds)."""
        runners = {"pretrain": self._pretrain, "finetune": self._finetune,
                   "evaluate": self._evaluate}
        results, raw, scaled = {}, 0.0, 0.0
        for stage in stages:
            res, seconds, speed = self._timed(lambda: runners[stage](self.state["dir"] / stage))
            res["speed"] = speed
            results[stage] = res
            raw += seconds
            scaled += seconds * speed
        return results, raw, scaled

    # -- checks ------------------------------------------------------------

    def _check(self, results):
        for stage, res in results.items():
            if "losses" in res:
                self.checks.expect(_finite(res["losses"]), f"{stage}: non-finite loss")
            if "path" in res:
                res["sha256"] = _sha256(res["path"])
                try:
                    train.load_model(res["cfg"], res["path"], head=res["head"])
                except ValueError as exc:
                    self.checks.expect(False, f"{stage}: checkpoint does not reload: {exc}")
                else:
                    self.checks.passed += 1
            if "scores" in res:
                n_eval = len([e for e in self.state["eval_entries"] if e.split == "eval"])
                self.checks.expect(len(res["scores"]) == n_eval,
                                   f"{stage}: {len(res['scores'])} scores for {n_eval} clips")
                self.checks.expect(all(0.0 <= s <= 1.0 for s in res["scores"]),
                                   f"{stage}: score outside [0, 1]")
                self.checks.expect(0.0 <= res["eer"] <= 1.0, f"{stage}: EER outside [0, 1]")
                res["scores"] = hashlib.sha256(repr(res["scores"]).encode()).hexdigest()
            res.pop("cfg", None)
            self.samples[stage].append(res)

    def check_repeats(self):
        """Every repeat of a stage must reproduce the same outputs bit for bit."""
        for stage, rows in self.samples.items():
            for key in ("sha256", "scores", "eer", "dev_loss"):
                self.checks.same([r[key] for r in rows if key in r], f"{stage} {key}")

    def hashes(self):
        return {stage: rows[0]["sha256"] for stage, rows in self.samples.items()
                if rows and "sha256" in rows[0]}

    # -- set-up and operation ----------------------------------------------

    def _traced(self, scope, root, on=True):
        if self.tracer is None or not on:
            return nullcontext(), nullcontext()
        return self.tracer.installed(scope), self.tracer.span(root)

    def _synth(self, splits):
        return featio.SynthConfig(F=self.scale.f, T=self.scale.t, n_per_split=splits,
                                  n_attack_types=6, artifact_strength=2.0, seed=self.seed)

    def setup(self):
        # a fresh directory each time: deleting the previous corpus first
        # would put its file-system work inside this set-up's time
        base = self.work / f"setup{len(self.setup_seconds)}"
        corpus = base / "corpus"
        eval_corpus = base / "eval_corpus" if self.wl.eval_only else corpus

        def write_corpora():
            entries = featio.gen_synthetic(self._synth(dict(self.wl.splits)), corpus)
            if not self.wl.eval_only:
                return entries, entries
            eval_splits = {"train": 0, "dev": 0, "eval": self.wl.eval_only}
            return entries, featio.gen_synthetic(self._synth(eval_splits), eval_corpus)

        gc.collect()
        installed, root = self._traced("setup", tr.SETUP_ROOT)
        with installed, root:
            (entries, eval_entries), seconds, speed = self._timed(write_corpora)
            self.state = {"dir": base, "corpus": corpus, "entries": entries,
                          "eval_corpus": eval_corpus, "eval_entries": eval_entries}
            results, raw, scaled = self._run_stages(self.wl.setup_stages)
        self.setup_seconds.append((seconds + raw, seconds * speed + scaled))
        self._check(results)

    def operation(self, traced=False):
        installed, root = self._traced("op", tr.OP_ROOT, on=traced)
        gc.collect()
        with installed, root:
            results, raw, scaled = self._run_stages(self.wl.measured)
        (self.traced_seconds if traced else self.op_seconds).append((raw, scaled))
        self._check(results)
        return raw

    # -- metrics -------------------------------------------------------------

    def machine_speed(self):
        """How much faster than nominal the machine ran the reference kernel."""
        return REFERENCE_S / statistics.median(self.reference_seconds or [REFERENCE_S])

    def end_to_end(self, raw=False):
        """Metrics, with every time scaled by the machine speed around it.

        The shared machine's speed changes by up to a half in phases that
        last seconds to minutes, so raw times spread across runs by more
        than any bound.  Each piece of timed work is multiplied by the speed
        the reference kernel measured just before and after it; ``raw=True``
        leaves times unscaled.  Throughput and wall time average over the
        whole window rather than taking a median of short operations, which
        jumps between a fast and a slow phase.
        """
        pick = 0 if raw else 1
        med = statistics.median
        rates = {stage: sum(r["clips"] for r in rows)
                 / sum(r["seconds"] * (1.0 if raw else r["speed"]) for r in rows)
                 for stage, rows in self.samples.items()}
        values = {
            "setup_s": med(pair[pick] for pair in self.setup_seconds),
            "wall_s": statistics.fmean(pair[pick] for pair in self.op_seconds),
            "pretrain_clips_per_s": rates["pretrain"],
            "finetune_clips_per_s": rates["finetune"],
            "eval_clips_per_s": rates["evaluate"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pretrain_dev_loss": med(r["dev_loss"] for r in self.samples["pretrain"]),
        }
        return {name: (values[name], unit) for name, unit in END_TO_END}

    def eval_eer(self):
        """Recorded, not gated: it moves with the corpus seed by more than any bound."""
        return statistics.median(r["eer"] for r in self.samples["evaluate"])

    def per_layer(self):
        metrics = tr.layer_metrics(self.tracer.spans)
        overhead = (statistics.fmean(raw for raw, _ in self.traced_seconds)
                    / statistics.fmean(raw for raw, _ in self.op_seconds)
                    if self.traced_seconds and self.op_seconds else 0.0)
        metrics["trace.overhead_ratio"] = (overhead, "ratio")
        return metrics
