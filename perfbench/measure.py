"""Raw-sample statistics, host probes and provenance.

Percentiles come from the raw per-op samples a :class:`Recorder` keeps,
never from the program's own log-bucketed ``LatencyHistogram``: its 2x
buckets turn one steady latency into values a bucket apart.
"""

from __future__ import annotations

import os
import resource
import statistics
import time
from pathlib import Path
from typing import Any

import numpy as np

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


class Recorder:
    """Every op's wall time and element count, in arrival order."""

    def __init__(self) -> None:
        self.seconds: list[float] = []
        self.elems: list[int] = []

    def observe(self, seconds: float, elems: int = 1) -> None:
        self.seconds.append(seconds)
        self.elems.append(elems)

    def __len__(self) -> int:
        return len(self.seconds)


def tail(samples: list[float], in_flight: int = 1) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with
    :data:`TAIL_BEYOND` x ``in_flight`` samples beyond it (the maximum,
    labelled 100, when there are too few samples for one).

    One stall delays every op in flight at once, so with ``in_flight``
    ops outstanding the tail must reach past ten stalls, not past ten
    samples of a single stall.
    """
    ordered = sorted(samples)
    n = len(ordered)
    beyond = TAIL_BEYOND * in_flight
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def element_median(rec: Recorder) -> float:
    """Seconds per element of the median element: each op's time over
    its elements, weighted by its elements.

    For ops of one size this is the median over ops.  Over a mix of
    sizes it stays inside the size class holding the middle element,
    where a median over ops can fall in the gap between two classes
    and jump with the sample count.
    """
    per_elem = sorted((s / e, e) for s, e in zip(rec.seconds, rec.elems))
    half = sum(rec.elems) / 2.0
    seen = 0
    for value, elems in per_elem:
        seen += elems
        if seen >= half:
            return value
    raise ValueError("no samples")


def e2e_metrics(
    rec: Recorder, wall: float, in_flight: int = 1
) -> tuple[dict[str, float], dict[str, Any]]:
    """End-to-end timing metrics from raw samples, plus their detail.

    ``wall`` is the timed wall time the throughput divides by: the sum
    of op intervals for a one-op-in-flight loop, the window length when
    ops overlap.
    """
    tail_s, tail_pct = tail(rec.seconds, in_flight)
    metrics = {
        "ns_per_elem_p50": 1e9 * element_median(rec),
        "elems_per_s": sum(rec.elems) / wall,
        "latency_p50_ms": 1e3 * statistics.median(rec.seconds),
        "latency_tail_ms": 1e3 * tail_s,
    }
    detail = {"samples": len(rec), "tail_percentile": round(tail_pct, 3), "wall_s": wall}
    return metrics, detail


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def gather_ns_per_elem(n: int = 1 << 22, reps: int = 5, seed: int = 0) -> float:
    """Median ns per element of a random int64 gather over ``n`` slots.

    The host-speed probe recorded next to every result, so a drift of
    the machine can be told apart from a change of the program.
    """
    rng = np.random.default_rng(seed)
    data = np.arange(n, dtype=np.int64)
    index = rng.permutation(n).astype(np.int64)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        data[index]
        times.append(time.perf_counter() - t0)
    return 1e9 * statistics.median(times) / n


def _cache_sizes() -> dict[str, int | None]:
    """Per-level data/unified cache sizes of CPU 0 from sysfs, in bytes."""
    sizes: dict[str, int | None] = {"L2_bytes": None, "L3_bytes": None}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction" or f"L{level}_bytes" not in sizes:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1:], 1)
        sizes[f"L{level}_bytes"] = int(size.rstrip("KMG")) * scale
    return sizes


def provenance() -> dict[str, Any]:
    """Host identity recorded with every result."""
    from repro.calibrate.profile import host_fingerprint

    return {
        "host": host_fingerprint(),
        "nproc": len(os.sched_getaffinity(0)),
        **_cache_sizes(),
    }
