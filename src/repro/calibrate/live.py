"""Direct measurement of fit samples on this machine.

``repro-c90 calibrate fit --live`` needs timings without a prior bench
run or trace artifact: generate randomly-ordered lists (the paper's
canonical workload), force each algorithm the profile fits in turn,
and time the scans with an injectable clock.  Sizes are chosen so the whole
sweep finishes in a few seconds — the serial traversal is a Python
pointer-chase and gets a smaller sweep than the vectorized kernels.
The scans are the engine's own: a Wyllie sample times
``core.forest.wyllie_forest_scan``, the pointer jumping of the engine's
Wyllie shards, so the fitted Wyllie coefficients price what the router
routes to.

Each ``(algorithm, n)`` cell is timed ``repeats`` times and the
*minimum* is kept: for calibration we want the cost equation's clean
signal, and min-of-k is the standard estimator for that (interference
only ever adds time).
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence

import numpy as np

from ..core.list_scan import list_scan
from ..lists.generate import random_list
from .records import FitSample

__all__ = ["DEFAULT_SIZES", "measure_samples"]

#: Per-algorithm default size sweeps.  Serial is a per-node Python
#: loop (~µs/node), so its sweep stays small; the vectorized
#: algorithms need larger n for the per-element term to dominate
#: timer noise.
DEFAULT_SIZES: dict[str, tuple[int, ...]] = {
    "serial": (1 << 8, 1 << 10, 1 << 12, 1 << 14),
    "wyllie": (1 << 10, 1 << 12, 1 << 14, 1 << 16),
    "sublist": (1 << 10, 1 << 12, 1 << 14, 1 << 16),
}


def measure_samples(
    sizes: dict[str, Sequence[int]] | None = None,
    repeats: int = 3,
    seed: int = 0,
    clock: Callable[[], float] = time.perf_counter,
) -> list[FitSample]:
    """Time forced-algorithm scans and return fit-ready samples.

    Parameters
    ----------
    sizes:
        Mapping of algorithm name to its size sweep; defaults to
        :data:`DEFAULT_SIZES`.  Algorithms absent from the mapping are
        skipped, so ``{"serial": [...]}`` measures only the serial
        kernel.
    repeats:
        Timed repetitions per cell; the minimum is recorded.
    seed:
        Seed for the random list layouts (and the sublist algorithm's
        splitter draws), so a sweep is reproducible.
    clock:
        Injectable timer.  The sublist scans run on the process's
        kernel backend (``docs/kernels.md``).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    sweeps = DEFAULT_SIZES if sizes is None else sizes
    rng = np.random.default_rng(seed)
    samples: list[FitSample] = []
    for algorithm, ns in sweeps.items():
        for n in ns:
            lst = random_list(int(n), rng=rng)
            best = float("inf")
            for _ in range(repeats):
                t0 = clock()
                list_scan(lst, algorithm=algorithm, rng=rng)
                elapsed = clock() - t0
                if elapsed < best:
                    best = elapsed
            if best > 0.0:
                samples.append(
                    FitSample(
                        kind=algorithm,
                        x=int(n),
                        seconds=best,
                        source="live",
                    )
                )
    return samples
