"""One benchmark workload in a process of its own (started by ``run.py``).

Usage: ``python3 perfbench/child.py MODE WORKLOAD SEED SECONDS``

``import`` only imports the program; ``measure`` runs untraced passes until
SECONDS are used up (at least ``MIN_PASSES``); ``once`` runs one untraced
pass; ``traced`` runs one pass with every layer boundary wrapped, then
restores the program.  The last line of standard output is one JSON object
describing the passes.

Throughout, a :class:`HostSampler` times a fixed pure-Python loop every
``SAMPLE_EVERY_S`` seconds, so the parent can tell a slow host from slow
code: each pass reports the mean loop time measured while it ran.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
SAMPLE_EVERY_S = 0.05


def calibration_loop() -> None:
    """Fixed pure-Python work, independent of the program under test."""
    total = 0
    for index in range(5_000):
        total = (total * 31 + index) % 1_000_003


class HostSampler:
    """Times :func:`calibration_loop` on every SIGALRM tick while active."""

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _tick(self, signum: int, frame: Any) -> None:
        started = time.perf_counter()
        calibration_loop()
        self.samples.append(time.perf_counter() - started)

    def __enter__(self) -> "HostSampler":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean_since(self, index: int) -> float:
        return statistics.fmean(self.samples[index:] or self.samples)


def _summary(done: Any, calibration_s: float) -> Dict[str, Any]:
    """Keep what the parent needs from a pass and let the units go."""
    return {
        "setup_s": done.setup_s,
        "wall_s": done.wall_s,
        "cpu_s": done.cpu_s,
        "calibration_s": calibration_s,
        "digests": [[unit.label, unit.digest] for unit in done.units],
        "failures": [unit.failure for unit in done.units
                     if unit.failure is not None],
        "facts": done.facts(),
    }


def _run(mode: str, workload: str, seed: int, seconds: float,
         sampler: HostSampler) -> Dict[str, Any]:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    started = time.perf_counter()
    import repro
    import work
    import_s = time.perf_counter() - started
    if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"repro was imported from {repro.__file__}, "
                         f"outside {ROOT}")
    from tracer import NullRecorder, SpanRecorder, install

    out: Dict[str, Any] = {"mode": mode, "import_s": import_s, "passes": [],
                           "spans": None}
    if mode == "import":
        out["calibration_s"] = sampler.mean_since(0)
        return out
    begun = time.perf_counter()
    while True:
        gc.collect()
        first_sample = len(sampler.samples)
        pass_started = time.perf_counter()
        if mode == "traced":
            rec = SpanRecorder()
            patches = install(rec)
            try:
                done = work.run_pass(workload, seed, rec)
            finally:
                patches.restore()
            out["spans"] = rec.reduce()
        else:
            done = work.run_pass(workload, seed, NullRecorder())
        now = time.perf_counter()
        out["passes"].append(_summary(done, sampler.mean_since(first_sample)))
        del done
        if mode != "measure" or (len(out["passes"]) >= MIN_PASSES
                                 and now - begun + now - pass_started
                                 > seconds):
            break
    out["calibration_s"] = sampler.mean_since(0)
    out["call_rows"] = work.call_rows(workload, seed)
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def main(argv: List[str]) -> int:
    mode, workload, seed, seconds = argv
    with HostSampler() as sampler:
        out = _run(mode, workload, int(seed), float(seconds), sampler)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
