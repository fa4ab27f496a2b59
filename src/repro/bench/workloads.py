"""Shared benchmark workloads (cached so sweeps don't regenerate them).

All benchmark inputs are random-permutation lists — the paper's
standard workload — generated from fixed seeds so every bench run sees
identical lists.  The algorithms only read their inputs, so cached
lists are safe to share across benchmark cases.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..lists.generate import LinkedList, random_list

__all__ = ["get_random_list", "get_valued_list", "paper_sizes", "K"]

#: 1K = 1024 elements, matching the paper's axis labels (8K … 32768K).
K = 1024


@lru_cache(maxsize=64)
def get_random_list(n: int, seed: int = 0) -> LinkedList:
    """A cached random-permutation list of ``n`` nodes (unit values)."""
    return random_list(n, np.random.default_rng(seed))


@lru_cache(maxsize=64)
def get_valued_list(n: int, seed: int = 0) -> LinkedList:
    """A cached random list with random integer values in [−999, 999]."""
    rng = np.random.default_rng(seed + 1)
    lst = random_list(n, rng)
    return LinkedList(lst.next, lst.head, rng.integers(-999, 1000, n))


def paper_sizes(lo_k: int = 8, hi_k: int = 32768, step: int = 4) -> list:
    """The paper's x-axis: list lengths lo_k·K … hi_k·K in ×``step``
    hops (Figure 1 uses 8K, 32K, …, 32768K)."""
    sizes = []
    n = lo_k * K
    while n <= hi_k * K:
        sizes.append(n)
        n *= step
    return sizes
