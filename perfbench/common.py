"""Shared pieces of the benchmark: paths, environment record, statistics."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

#: Root of the checkout (the directory above ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where runs leave their journals, traces and result records.
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
SRC_DIR = os.path.join(ROOT, "src")

#: Iterations of the fixed pure-Python calibration loop.
CALIBRATION_LOOP = 1_000_000


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no program sources)."""


def use_checkout_sources() -> None:
    """Put the checkout's ``src/`` first on ``sys.path`` and refuse to
    run against any other copy of the program."""
    if not os.path.isfile(os.path.join(SRC_DIR, "repro", "__init__.py")):
        raise SetupError(f"no program sources at {SRC_DIR}/repro")
    if sys.path[:1] != [SRC_DIR]:
        sys.path.insert(0, SRC_DIR)
    import repro
    where = os.path.dirname(os.path.abspath(repro.__file__))
    if where != os.path.join(SRC_DIR, "repro"):
        raise SetupError(f"imported repro from {where}, not {SRC_DIR}")


def calibration_s() -> float:
    """Wall time of a fixed pure-Python loop: a noisy machine shows as a
    slow loop next to the sample it was taken with."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


def environment() -> Dict[str, Any]:
    import numpy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
        "calibration_s": calibration_s(),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def out_path(name: str) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, name)


def load_digests() -> Dict[str, Any]:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "digests.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def digest_for(workload: str, seed: int) -> Optional[Dict[str, Any]]:
    return load_digests().get(workload, {}).get(str(seed))


def triplets(result) -> int:
    """Triplets an engine run processed, counted as the hot-path bench
    counts them (extra sync-skip local iterations included)."""
    return int(sum(s.active_edges * max(s.local_iterations, 1)
                   for s in result.stats))


#: RunResult wall-clock phases, as the engine accounts them
PHASES = ("gen", "merge", "apply", "sync", "cache")


def run_counts(result) -> Dict[str, float]:
    """One engine run's counts and program-reported phase times, as
    plain numbers (the server ships these back to the client)."""
    stats = result.stats
    out = {
        "supersteps": len(stats),
        "triplets": triplets(result),
        "total_ms": result.total_ms,
        "iterations": result.iterations,
        "cache_hits": sum(s.cache_hits for s in stats),
        "cache_misses": sum(s.cache_misses for s in stats),
        "uploads": sum(s.uploads for s in stats),
        "local_iterations": sum(s.local_iterations for s in stats),
        "sched_events": result.sched_events,
        "sched_batches": result.sched_batches,
    }
    for phase in PHASES:
        out[f"phase_{phase}_s"] = result.wall_s.get(phase, 0.0)
    return out


def result_counts(runs: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Per-layer counts summed over :func:`run_counts` records."""
    def total(key):
        return float(sum(r[key] for r in runs))
    hits, misses = total("cache_hits"), total("cache_misses")
    out = {f"engines.phase_{p}_s": total(f"phase_{p}_s") for p in PHASES}
    out.update({
        "engines.supersteps": total("supersteps"),
        "engines.triplets": total("triplets"),
        "sim.total_ms": total("total_ms"),
        "sim.iterations": total("iterations"),
        "core.cache_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "core.cache_misses": misses,
        "core.uploads": total("uploads"),
        "core.local_iterations": total("local_iterations"),
        "ipc.sched_events": total("sched_events"),
        "ipc.sched_batches": total("sched_batches"),
    })
    return out


class Checks:
    """Output checks; every failed one counts against ``failed``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def op(self, ok: bool, what: str) -> None:
        """Record one operation's outcome (one attempted op)."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)

