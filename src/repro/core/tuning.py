"""Parameter tuning for the sublist algorithm (paper Section 4.4).

The algorithm has two free parameters: the number of sublists *m* and
the first pack point *S₁* (which, through the Eq. 6 recurrence, fixes
the whole schedule and hence the number of packs *l*).  The paper's
procedure, reproduced here:

1. For a given *n*, evaluate the expected-time model (Eq. 3/7 plus the
   Phase-2 dispatch cost) over a grid of (m, S₁) values and keep the
   minimizer (:func:`tuned_parameters`; the paper kept any point
   "within about two percent" of the optimum).
2. Fit cubic polynomials in ``ln n`` to the tuned *m(n)* and *S₁(n)*
   (:func:`fit_polylog`); the fits are what the real implementation
   evaluates at run time (:class:`PolylogFit`).  This matches the
   paper's observation that "m and S₁ are approximately cubic
   polynomials of log n" and Table 1's note that the tuned
   ``m = O((log n)³)`` on the C-90.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from collections.abc import Sequence

import numpy as np

from ..analysis.cost_model import KernelCosts, PAPER_C90_COSTS, total_time
from .schedule import optimal_schedule

__all__ = [
    "tuned_parameters",
    "tune_grid",
    "PolylogFit",
    "fit_polylog",
    "default_parameters",
    "sqrt2_bucket",
]

#: Phase-2 dispatch cutoffs shared with the implementation.
SERIAL_CUTOFF = 256
WYLLIE_CUTOFF = 65536


def _m_candidates(n: int) -> np.ndarray:
    """Log-spaced sublist counts, seeded around the (log n)³ scale."""
    if n <= 8:
        return np.asarray([2], dtype=np.int64)
    hi = max(4, n // 4)
    lo = 2
    grid = np.unique(
        np.round(np.geomspace(lo, hi, num=28)).astype(np.int64)
    )
    cube = int(round(0.35 * math.log(n) ** 3))
    extra = np.asarray(
        [c for c in (cube // 2, cube, 2 * cube) if lo <= c <= hi], dtype=np.int64
    )
    return np.unique(np.concatenate((grid, extra)))


def _s1_candidates(n: int, m: int) -> np.ndarray:
    """First-pack-point candidates, scaled by the mean sublist length."""
    mean_len = n / m
    lo = max(1.0, 0.1 * mean_len)
    hi = max(lo + 1.0, 3.0 * mean_len)
    return np.geomspace(lo, hi, num=14)


def tune_grid(
    n: int,
    costs: KernelCosts = PAPER_C90_COSTS,
    n_processors: int = 1,
) -> tuple[int, float, float]:
    """Grid-search (m, S₁) minimizing the expected-time model.

    Returns ``(m, s1, predicted_clocks)``.
    """
    best = (2, 1.0, math.inf)
    for m in _m_candidates(n):
        m = int(m)
        if m >= n:
            continue
        for s1 in _s1_candidates(n, m):
            schedule = optimal_schedule(n, m, float(s1), costs)
            t = total_time(
                n,
                m,
                schedule,
                costs,
                n_processors=n_processors,
                serial_cutoff=SERIAL_CUTOFF,
                recursive_cutoff=WYLLIE_CUTOFF,
            )
            if t < best[2]:
                best = (m, float(s1), t)
    return best


def sqrt2_bucket(n: int) -> int:
    """``n`` rounded to the nearest power of √2; ``n`` itself below 4.

    The size bucket of the tuned-parameter cache and of the engine
    router's decision cache."""
    if n < 4:
        return n
    return int(round(2 ** (round(2 * math.log2(n)) / 2)))


@lru_cache(maxsize=512)
def _tuned_cached(
    n: int, costs: KernelCosts, n_processors: int
) -> tuple[int, float, float]:
    return tune_grid(n, costs, n_processors)


def tuned_parameters(
    n: int,
    costs: KernelCosts = PAPER_C90_COSTS,
    n_processors: int = 1,
) -> tuple[int, float]:
    """Model-optimal ``(m, s1)`` for a list of length ``n`` (cached).

    ``n`` is rounded to the nearest power of √2 before lookup so the
    cache stays small across sweeps; the model is flat enough near the
    optimum (the paper accepted anything within ~2%) for this to be
    harmless.
    """
    if n < 4:
        return 2, 1.0
    m, s1, _ = _tuned_cached(sqrt2_bucket(n), costs, n_processors)
    m = min(m, max(2, n // 2))
    return m, s1


@dataclass(frozen=True)
class PolylogFit:
    """Cubic-in-log-n fits of the tuned parameters (paper Section 4.4).

    ``m(n) = exp(poly₃(ln n))`` clipped to [2, n/2] and
    ``s1(n) = exp(poly₃(ln n))`` clipped to ≥ 1; the log-log form keeps
    the cubic well-behaved across six decades of n.
    """

    m_coeffs: tuple[float, float, float, float]
    s1_coeffs: tuple[float, float, float, float]

    def m(self, n: int) -> int:
        x = math.log(max(n, 2))
        val = math.exp(_horner(self.m_coeffs, x))
        return int(np.clip(round(val), 2, max(2, n // 2)))

    def s1(self, n: int) -> float:
        x = math.log(max(n, 2))
        return float(max(1.0, math.exp(_horner(self.s1_coeffs, x))))


def _horner(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def fit_polylog(
    ns: Sequence[int],
    costs: KernelCosts = PAPER_C90_COSTS,
    n_processors: int = 1,
) -> PolylogFit:
    """Tune every ``n`` in ``ns`` and fit the cubic log-log polynomials."""
    ns = [int(n) for n in ns]
    if len(ns) < 4:
        raise ValueError("need at least 4 sample sizes for a cubic fit")
    ms, s1s = [], []
    for n in ns:
        m, s1, _ = tune_grid(n, costs, n_processors)
        ms.append(m)
        s1s.append(s1)
    x = np.log(np.asarray(ns, dtype=np.float64))
    m_coeffs = tuple(np.polyfit(x, np.log(ms), deg=3))
    s1_coeffs = tuple(np.polyfit(x, np.log(s1s), deg=3))
    return PolylogFit(m_coeffs=m_coeffs, s1_coeffs=s1_coeffs)


def default_parameters(n: int) -> tuple[int, float]:
    """Runtime default ``(m, s1)``: the cached model optimum for the
    paper's C-90 cost table."""
    return tuned_parameters(n, PAPER_C90_COSTS, 1)
