"""Early reconnection — the paper's Section 6 future-work variant.

"A large part of the performance loss is due to short vector lengths.
… For these machines it may be better to reconnect the sublists into a
single reduced sublist before all the processors have reached the
tails.  The elements still remaining in the lists could then be packed
into contiguous memory and then Phase 1 recursively applied.  Keeping
track of which elements have been processed and which have not,
requires extra book keeping that would slow down the main ranking
portion of the algorithm.  But the trade off may be worth it if the
vector machine has long vector half lengths."

This module implements exactly that:

* Phases 1 and 3 run the normal vector traversal **with visited-node
  bookkeeping** (the extra scatter per step the paper warns about);
* when the live vector drops to ``switch_count`` virtual processors,
  the unconsumed straggler *suffixes* — which form a forest — are
  **compacted into contiguous memory** and handed to
  :func:`repro.core.forest.forest_list_scan`, which re-splits them into
  fresh sublists and processes them at full vector width;
* the forest scan is seeded with each straggler's partial sum, so its
  results are the exclusive scans *within* each original sublist; the
  Phase-2 carries are folded in afterwards using the forest's
  list-id by-product.

Because Phases 1 and 3 share the pack schedule, both phases switch at
the same traversal depth with the identical straggler set, so the
Phase-1 forest scan's outputs are exactly what Phase 3 needs.

Splitter choice, Initialize, Find-sublist-list, the Phase-2 dispatch
and Restore are the shared steps of ``core.forest``; only the bookkept
Phase 1/3 loops and the straggler compaction live here.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..baselines.serial import serial_list_scan
from ..kernels.backend import resolve_backend
from ..lists.generate import INDEX_DTYPE, LinkedList
from .forest import (
    SublistConfig,
    _cut,
    _link,
    _phase2,
    _plan_splitters,
    forest_list_scan,
    forest_tails,
)
from .operators import Operator, SUM, get_operator
from .schedule import ScheduleIterator, optimal_schedule
from .stats import ScanStats

__all__ = ["early_reconnect_list_scan"]


def early_reconnect_list_scan(
    lst: LinkedList,
    op: Operator | str = SUM,
    inclusive: bool = False,
    config: SublistConfig | None = None,
    switch_count: int | None = None,
    rng: np.random.Generator | int | None = None,
    stats: ScanStats | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """List scan with early straggler reconnection (Section 6).

    ``switch_count``: when the live vector shrinks to this many virtual
    processors, the remaining suffixes are compacted and rescanned at
    full width.  Defaults to ``m // 8``.  ``0`` disables the switch
    (behaviour then matches the standard algorithm).
    """
    op = get_operator(op)
    cfg = config or SublistConfig()
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    n = lst.n
    nxt = lst.next
    values = lst.values
    if out is None:
        out = np.empty_like(values)

    if n <= max(cfg.serial_cutoff, 4):
        serial_list_scan(lst, op, inclusive=inclusive, out=out)
        return out

    positions, s1 = _plan_splitters(nxt, 1, cfg, gen)
    m = int(positions.size) + 1
    if switch_count is None:
        switch_count = m // 8
    backend = resolve_backend(None)
    if not backend.supports(op, values):
        backend = resolve_backend("numpy")

    # the "extra book keeping": which nodes have been consumed
    visited = np.zeros(n, dtype=bool)

    # straggler-forest state shared between the phases
    forest_nodes = None  # original ids of the compacted suffix nodes
    forest_within = None  # exclusive-within-sublist scans of those nodes
    forest_proc = None  # original sublist index of each suffix node

    heads = np.asarray([lst.head], dtype=INDEX_DTYPE)
    with _cut(nxt, values, heads, positions, op, stats, None) as cut:
        schedule = optimal_schedule(n, m, s1, cfg.costs, guard=cfg.schedule_guard)

        # ---------------------------- PHASE 1 --------------------------
        gaps1 = ScheduleIterator(schedule, cfg.tail_growth)
        vp_next = cut.sl_head.copy()
        vp_sum = op.identity_array(m, values.dtype)
        vp_proc = np.arange(m, dtype=INDEX_DTYPE)
        switched = False
        while vp_next.size:
            if switch_count and vp_next.size <= switch_count:
                switched = True
                break
            gap = next(gaps1)
            x = vp_next.size
            for _ in range(gap):
                visited[vp_next] = True
                vp_sum = op.combine(vp_sum, values[vp_next])
                vp_next = nxt[vp_next]
            if stats is not None:
                stats.add_round(gap)
                stats.add_work(gap * x, phase="phase1")
                stats.add_scatter(gap * x)  # the bookkeeping scatter
            done = vp_next == nxt[vp_next]
            visited[vp_next[done]] = True  # tails count as consumed
            fin = vp_proc[done]
            cut.sl_sum[fin] = vp_sum[done]
            cut.sl_tail[fin] = vp_next[done]
            keep = ~done
            vp_next, vp_sum, vp_proc = vp_next[keep], vp_sum[keep], vp_proc[keep]
            if stats is not None:
                stats.add_pack()

        if switched:
            # compact the unconsumed suffixes into contiguous memory
            forest_nodes = np.flatnonzero(~visited).astype(INDEX_DTYPE)
            remap = np.full(n, -1, dtype=INDEX_DTYPE)
            remap[forest_nodes] = np.arange(forest_nodes.size, dtype=INDEX_DTYPE)
            f_next = remap[nxt[forest_nodes]]
            f_values = values[forest_nodes].copy()
            f_heads = remap[vp_next]
            if stats is not None:
                stats.add_gather(2 * forest_nodes.size)
                stats.add_scatter(2 * forest_nodes.size)
                stats.alloc(3 * forest_nodes.size)
            f_out = np.empty_like(f_values)
            # the stragglers are a fresh, smaller problem: tune m and s1
            # for it instead of reusing the whole list's
            forest_within, f_ids = forest_list_scan(
                f_next,
                f_values,
                f_heads,
                op,
                carries=vp_sum,
                config=replace(cfg, m=None, s1=None),
                rng=gen,
                stats=stats,
                out=f_out,
                return_list_ids=True,
            )
            forest_proc = vp_proc[f_ids]
            # finish Phase 1: sublist sums and tails from the forest
            f_tails = forest_tails(f_next, f_heads)
            totals = op.combine(forest_within[f_tails], f_values[f_tails])
            cut.sl_sum[vp_proc] = totals
            cut.sl_tail[vp_proc] = forest_nodes[f_tails]

        # straggler sums from the forest exclude the (zeroed) splitter
        # tail values exactly like the vector path, so the standard
        # add-back applies uniformly.  (The tail sublist's sum may
        # double-count the whole-list tail when it was a straggler;
        # that sum never feeds the exclusive scan.)
        sl_next = _link(nxt, values, cut, op, stats)
        carries = _phase2(sl_next, cut.sl_sum, 1, None, op, cfg, gen, stats, 0, None, backend)

        # ----------------------------- PHASE 3 --------------------------
        gaps3 = ScheduleIterator(schedule, cfg.tail_growth)
        vp_next = cut.sl_head.copy()
        vp_sum = carries.copy()
        vp_proc = np.arange(m, dtype=INDEX_DTYPE)
        while vp_next.size:
            if switch_count and vp_next.size <= switch_count:
                # the stragglers are identical to Phase 1's; fold the
                # Phase-2 carries into the precomputed within-sublist
                # scans and scatter
                out[forest_nodes] = op.combine(
                    carries[forest_proc], forest_within
                )
                if stats is not None:
                    stats.add_scatter(forest_nodes.size)
                break
            gap = next(gaps3)
            x = vp_next.size
            for _ in range(gap):
                out[vp_next] = vp_sum
                vp_sum = op.combine(vp_sum, values[vp_next])
                vp_next = nxt[vp_next]
            if stats is not None:
                stats.add_round(gap)
                stats.add_work(gap * x, phase="phase3")
            done = vp_next == nxt[vp_next]
            if np.any(done):
                out[vp_next] = vp_sum
                keep = ~done
                vp_next, vp_sum, vp_proc = (
                    vp_next[keep],
                    vp_sum[keep],
                    vp_proc[keep],
                )
            if stats is not None:
                stats.add_pack()

    if inclusive:
        out = op.combine(out, values)
    return out
