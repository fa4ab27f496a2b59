"""Ablations of the design decisions DESIGN.md calls out.

* pack schedule: optimal (Eq. 6) vs uniform vs pack-every-step vs
  almost-never-pack, measured on the simulator;
* splitter strategy: equally spaced vs random vs random-with-
  competition (the paper's Section 2.4 discussion);
* the self-loop/identity trick vs a masked traversal loop (host wall
  clock) — the paper's "avoiding conditional tests except when load
  balancing".
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench.harness import print_table, record
from repro.bench.workloads import get_random_list, get_valued_list
from repro.simulate.sublist_sim import SimSublistConfig, sublist_rank_sim

N = 1 << 20


# ----------------------------------------------------------------------
# pack-schedule ablation (simulated cycles)
# ----------------------------------------------------------------------

def _schedule_ablation():
    lst = get_random_list(N)
    out = {}
    out["optimal"] = sublist_rank_sim(lst, rng=0).cycles
    # uniform schedule: emulate by a pathologically small then large s1
    cfg_tiny = SimSublistConfig(s1=1.0)  # guard saves it, but packs early
    out["s1_too_small"] = sublist_rank_sim(lst, sim_config=cfg_tiny, rng=0).cycles
    cfg_huge = SimSublistConfig(s1=10_000.0)  # one pack far too late
    out["s1_too_large"] = sublist_rank_sim(lst, sim_config=cfg_huge, rng=0).cycles
    return out


@pytest.mark.benchmark(group="ablation-schedule")
def test_ablation_pack_schedule(benchmark):
    res = benchmark.pedantic(_schedule_ablation, rounds=1, iterations=1)
    print_table(
        ["schedule", "simulated clocks", "vs optimal"],
        [[k, v, v / res["optimal"]] for k, v in res.items()],
        title=f"Pack-schedule ablation, n = {N}",
    )
    record(
        "ablation",
        "tuned S1 beats too-early packing",
        None,
        res["s1_too_small"] / res["optimal"],
        "× slower",
        ok=res["s1_too_small"] >= res["optimal"] * 0.999,
    )
    record(
        "ablation",
        "tuned S1 beats too-late packing (tail chasing)",
        None,
        res["s1_too_large"] / res["optimal"],
        "× slower",
        ok=res["s1_too_large"] > res["optimal"],
    )


# ----------------------------------------------------------------------
# splitter-strategy ablation (simulated cycles, random layout)
# ----------------------------------------------------------------------

def _splitter_ablation():
    lst = get_random_list(N)
    out = {}
    for strat in ("spaced", "random", "random_competition"):
        cfg = SimSublistConfig(splitters=strat)
        out[strat] = sublist_rank_sim(lst, sim_config=cfg, rng=0).cycles
    return out


@pytest.mark.benchmark(group="ablation-splitters")
def test_ablation_splitter_strategy(benchmark):
    res = benchmark.pedantic(_splitter_ablation, rounds=1, iterations=1)
    base = res["spaced"]
    print_table(
        ["strategy", "simulated clocks", "vs spaced"],
        [[k, v, v / base] for k, v in res.items()],
        title="Splitter-strategy ablation on a randomly ordered list",
    )
    # on random layouts all three are equivalent (the paper's argument
    # for the cheap equally-spaced choice)
    spread = max(res.values()) / min(res.values())
    record(
        "ablation",
        "splitter strategies equivalent on random layouts",
        1.0,
        spread,
        "max/min cycles",
        ok=spread < 1.15,
    )


# ----------------------------------------------------------------------
# the self-loop trick vs masked traversal (host wall clock)
# ----------------------------------------------------------------------

def _masked_traversal(lst):
    """Phase-1-like traversal testing for segment ends at every step —
    the conditional the paper's self-loop trick removes.  The list is
    cut at the same splitters as the self-loop variant, so the two
    benchmarks do identical traversal work and differ only in the
    per-step masking."""
    n = lst.n
    values = lst.values
    m = 1024
    starts = (np.arange(1, m + 1) * n) // (m + 1)
    ends = np.zeros(n, dtype=bool)
    ends[starts] = True  # walkers stop *at* a splitter position
    nxt = lst.next
    cur = starts.astype(np.int64)
    cur = nxt[cur].astype(np.int64)  # begin after the splitter
    acc = np.zeros(m, dtype=np.int64)
    alive = np.ones(m, dtype=bool)
    while alive.any():
        idx = cur[alive]
        acc[alive] += values[idx]
        done = ends[idx] | (nxt[idx] == idx)
        cur[alive] = nxt[idx]
        sub = np.flatnonzero(alive)
        alive[sub[done]] = False
    return acc.sum()


def _selfloop_traversal(lst):
    """The paper's loop: no conditionals, pack on a schedule."""
    n = lst.n
    nxt = lst.next.copy()
    values = lst.values.copy()
    m = 1024
    starts = (np.arange(1, m + 1) * n) // (m + 1)
    # make the traversal self-terminating
    saved = nxt[starts].copy()
    nxt[starts] = starts
    vsaved = values[starts].copy()
    values[starts] = 0
    cur = starts.astype(np.int64)
    acc = np.zeros(m, dtype=np.int64)
    for _ in range(8):
        for _ in range(max(1, n // (m * 8))):
            acc += values[cur]
            cur = nxt[cur]
        live = cur != nxt[cur]
        if not live.any():
            break
        cur, acc = cur[live], acc[live]
    # finish stragglers
    while True:
        live = cur != nxt[cur]
        if not live.any():
            break
        cur, acc = cur[live], acc[live]
        acc += values[cur]
        cur = nxt[cur]
    nxt[starts] = saved
    values[starts] = vsaved
    return acc.sum()


@pytest.mark.benchmark(group="ablation-selfloop")
def test_ablation_masked_traversal(benchmark):
    lst = get_valued_list(N)
    benchmark(_masked_traversal, lst)


@pytest.mark.benchmark(group="ablation-selfloop")
def test_ablation_selfloop_traversal(benchmark):
    lst = get_valued_list(N)
    benchmark(_selfloop_traversal, lst)


# ----------------------------------------------------------------------
# early reconnection (Section 6) — host measurement + machine model
# ----------------------------------------------------------------------

def _early_reconnect_study():
    from repro.analysis.extensions import (
        early_reconnect_advantage,
        with_half_length,
    )
    from repro.core.early_reconnect import early_reconnect_list_scan
    from repro.core.stats import ScanStats

    lst = get_random_list(N)
    s_plain, s_early = ScanStats(), ScanStats()
    early_reconnect_list_scan(lst, switch_count=0, rng=1, stats=s_plain)
    early_reconnect_list_scan(lst, switch_count=None, rng=1, stats=s_early)
    model = {
        n_half: early_reconnect_advantage(N, 3000, costs=with_half_length(n_half))
        for n_half in (21, 100, 500, 2000)
    }
    return {
        "rounds_plain": s_plain.rounds,
        "rounds_early": s_early.rounds,
        "model": model,
    }


@pytest.mark.benchmark(group="ablation-early-reconnect")
def test_ablation_early_reconnect(benchmark):
    res = benchmark.pedantic(_early_reconnect_study, rounds=1, iterations=1)
    print_table(
        ["half-perf length", "tail/reconnect cost ratio"],
        [[k, v] for k, v in res["model"].items()],
        title="Section 6: early-reconnect advantage vs machine pipe length",
    )
    record(
        "ablation",
        "early reconnect removes short-vector rounds",
        None,
        res["rounds_plain"] / res["rounds_early"],
        "× fewer rounds",
        ok=res["rounds_early"] < res["rounds_plain"],
    )
    record(
        "ablation",
        "not worth it on the C-90 (paper left it as future work)",
        1.0,
        res["model"][21],
        "cost ratio",
        ok=res["model"][21] < 1.0,
    )
    record(
        "ablation",
        "pays off on long-half-length machines (paper Section 6)",
        1.0,
        res["model"][2000],
        "cost ratio",
        ok=res["model"][2000] > 1.0,
    )
