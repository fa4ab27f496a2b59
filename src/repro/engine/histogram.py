"""Log-bucketed latency histograms for the serving path.

The serving front-end (``repro.serve``) reports tail latency, which
means the engine must account latency as a *distribution*, not an
average: a p95 is invisible in a mean.
This module provides the one histogram type used everywhere a latency
is recorded — the engine's ``queue_wait``/``execute`` sub-phases and
the server's admission→response totals — so every surface that reports
percentiles (``EngineStats.snapshot()``, the ``/stats`` endpoint, the
bench client's artifact) computes them the same way.

Design:

* **Geometric buckets.**  Latencies span six orders of magnitude
  (microsecond cache hits to multi-second fused batches), so buckets
  grow by a fixed factor (default 2×) from ``least`` upward.  Relative
  quantile error is bounded by the factor, which is what a tail-latency
  report needs; absolute error would require unbounded buckets.
* **O(1) observe.**  ``observe`` is a ``bisect`` into the precomputed
  bucket bounds plus a few scalar updates — cheap enough to run per
  request under the engine lock.
* **JSON-safe snapshots.**  ``snapshot()`` returns plain ints/floats
  (counts, sum, min/max, p50/p95/p99 and the non-empty buckets), the
  exact payload ``EngineStats.snapshot()`` embeds and the ``/stats``
  endpoint serves.

Quantiles interpolate linearly inside the winning bucket, clamped to
the observed min/max so a single-sample histogram reports that sample
exactly.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = ["LatencyHistogram", "DEFAULT_QUANTILES"]

#: The quantiles every snapshot reports.
DEFAULT_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)


class LatencyHistogram:
    """Fixed-layout geometric histogram of non-negative durations.

    Parameters
    ----------
    least:
        Upper bound of the first bucket, in seconds.  Observations at
        or below it land there.
    factor:
        Geometric growth between consecutive bucket bounds.
    buckets:
        Number of bounded buckets; one unbounded overflow bucket is
        always appended.  The defaults cover 1 µs … ~67 s.
    """

    __slots__ = ("bounds", "counts", "count", "total", "min", "max")

    def __init__(
        self,
        least: float = 1e-6,
        factor: float = 2.0,
        buckets: int = 26,
    ) -> None:
        if least <= 0.0:
            raise ValueError("least must be positive")
        if factor <= 1.0:
            raise ValueError("factor must be > 1")
        if buckets < 1:
            raise ValueError("buckets must be >= 1")
        self.bounds: list[float] = [least * factor**i for i in range(buckets)]
        self.counts: list[int] = [0] * (buckets + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        """Record one duration (negative values clamp to zero)."""
        seconds = max(0.0, float(seconds))
        self.counts[bisect_left(self.bounds, seconds)] += 1
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram with the same layout into this one."""
        if other.bounds != self.bounds:
            raise ValueError("cannot merge histograms with different bucket layouts")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 < q <= 1) of the observed durations.

        Linear interpolation inside the winning bucket, clamped to the
        observed ``[min, max]``; 0.0 on an empty histogram.
        """
        if not 0.0 < q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if seen + c >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i] if i < len(self.bounds) else self.max
                frac = (rank - seen) / c
                value = lo + (hi - lo) * frac
                return min(max(value, self.min), self.max)
            seen += c
        return self.max  # pragma: no cover - unreachable (rank <= count)

    def snapshot(self) -> dict[str, object]:
        """JSON-safe summary: counters, quantiles, non-empty buckets.

        Bucket rows are ``[upper_bound_seconds, count]`` with ``None``
        as the overflow bound — the shared shape consumed by
        ``EngineStats.snapshot()``, the ``/stats`` endpoint and the
        bench client's latency artifact.
        """
        quantiles = {
            f"p{int(q * 100)}": self.quantile(q) for q in DEFAULT_QUANTILES
        }
        buckets: list[list[object]] = [
            [self.bounds[i] if i < len(self.bounds) else None, c]
            for i, c in enumerate(self.counts)
            if c
        ]
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            **quantiles,
            "buckets": buckets,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LatencyHistogram(count={self.count}, mean={self.mean:.6f}, "
            f"p95={self.quantile(0.95):.6f})"
        )
