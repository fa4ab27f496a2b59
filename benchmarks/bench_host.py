"""Host-backend wall-clock benchmarks (pytest-benchmark).

These measure the *real* NumPy implementations on the machine running
the suite, demonstrating that the paper's algorithmic claims survive
three decades later: the sublist algorithm's work efficiency beats
Wyllie's O(n log n) at scale, both beat the scalar traversal, and the
crossovers have the same structure as Figure 1.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.anderson_miller import anderson_miller_list_scan
from repro.baselines.random_mate import random_mate_list_scan
from repro.baselines.serial import serial_list_scan
from repro.baselines.wyllie import wyllie_list_scan
from repro.bench.workloads import K, get_valued_list
from repro.core.sublist import sublist_list_scan

N_SMALL = 4 * K
N_LARGE = 1024 * K


@pytest.mark.benchmark(group=f"host-{N_LARGE // K}K")
def test_host_sublist_large(benchmark):
    lst = get_valued_list(N_LARGE)
    rng = np.random.default_rng(0)
    out = benchmark(lambda: sublist_list_scan(lst, rng=rng))
    assert out[lst.head] == 0


@pytest.mark.benchmark(group=f"host-{N_LARGE // K}K")
def test_host_wyllie_large(benchmark):
    lst = get_valued_list(N_LARGE)
    benchmark(lambda: wyllie_list_scan(lst))


@pytest.mark.benchmark(group=f"host-{N_LARGE // K}K")
def test_host_serial_large(benchmark):
    lst = get_valued_list(N_LARGE)
    benchmark.pedantic(lambda: serial_list_scan(lst), rounds=1, iterations=1)


@pytest.mark.benchmark(group=f"host-{N_LARGE // K}K")
def test_host_random_mate_large(benchmark):
    lst = get_valued_list(N_LARGE)
    rng = np.random.default_rng(0)
    benchmark.pedantic(
        lambda: random_mate_list_scan(lst, rng=rng), rounds=1, iterations=1
    )


@pytest.mark.benchmark(group=f"host-{N_LARGE // K}K")
def test_host_anderson_miller_large(benchmark):
    lst = get_valued_list(N_LARGE)
    rng = np.random.default_rng(0)
    benchmark.pedantic(
        lambda: anderson_miller_list_scan(lst, rng=rng), rounds=1, iterations=1
    )


@pytest.mark.benchmark(group=f"host-{N_SMALL // K}K")
def test_host_sublist_small(benchmark):
    lst = get_valued_list(N_SMALL)
    rng = np.random.default_rng(0)
    benchmark(lambda: sublist_list_scan(lst, rng=rng))


@pytest.mark.benchmark(group=f"host-{N_SMALL // K}K")
def test_host_wyllie_small(benchmark):
    """Wyllie wins on short lists — the paper's small-n regime."""
    lst = get_valued_list(N_SMALL)
    benchmark(lambda: wyllie_list_scan(lst))


@pytest.mark.benchmark(group=f"host-{N_SMALL // K}K")
def test_host_serial_small(benchmark):
    lst = get_valued_list(N_SMALL)
    benchmark(lambda: serial_list_scan(lst))
