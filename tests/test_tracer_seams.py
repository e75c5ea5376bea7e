"""The benchmark's per-layer timings depend on every tracer seam still naming a function."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracer  # noqa: E402

# absent since the batched patchify replaced it; the benchmark reports it as absent
GONE = {"train._stacked_patches"}


def test_every_seam_resolves():
    absent = {seam.target for seam in tracer.SEAMS if tracer._resolve(seam.target) is None}
    assert absent <= GONE, sorted(absent - GONE)
