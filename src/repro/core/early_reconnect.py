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

* Phase 1 runs the normal vector traversal, whose marks are the
  bookkeeping: every node a processor has consumed holds the
  processor's mark in its ``next`` (``core.forest``), so the paper's
  extra scatter per step is the one the host scan already pays;
* when the live vector drops to ``switch_count`` virtual processors,
  the unmarked straggler *suffixes* — which form a forest — are
  **compacted into contiguous memory** and handed to
  :func:`repro.core.forest.forest_list_scan`, which re-splits them into
  fresh sublists and processes them at full vector width;
* the forest scan is seeded with each straggler's partial sum, so its
  results are the exclusive scans *within* each original sublist:
  written back with their owners' marks, they finish Phase 1 exactly
  as the vector loop would have.

Splitter choice, Initialize, Phase 1, Find-sublist-list, the Wyllie
Phase 2 and the streaming Phase 3 are the shared steps of
``core.forest`` and ``kernels.backend``; only the straggler compaction
and the switch live here.  Like every sublist entry, it only reads the
input list, and proves it with ``core.forest``'s checks.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..kernels.backend import resolve_backend
from ..lists.generate import INDEX_DTYPE, LinkedList
from .forest import (
    Forest,
    SublistConfig,
    _Cut,
    _cut,
    _link,
    _phase1,
    _phase2,
    forest_list_scan,
    wyllie_forest_scan,
)
from .operators import Operator, SUM, get_operator
from .schedule import optimal_schedule
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

    if n <= max(cfg.serial_cutoff, 4):  # too small to cut: direct, as core.forest scans it
        heads = np.asarray([lst.head], dtype=INDEX_DTYPE)
        wyllie_forest_scan(nxt, values, heads, op, None, out, stats=stats)
        if inclusive:
            out[...] = op.combine(out, values)
        return out

    forest = Forest.of(nxt, values, [lst.head])
    cut, s1 = _cut(forest, op, cfg, gen, stats, None)
    m = cut.sl_head.shape[0]
    if switch_count is None:
        switch_count = m // 8
    backend = resolve_backend(None)

    schedule = optimal_schedule(n, m, s1)
    vp_next, vp_sum, vp_proc = _phase1(cut, schedule, op, stats, None, backend, switch_count)
    if vp_next.size:
        _reconnect(cut, vp_next, vp_sum, vp_proc, op, cfg, gen, stats)
    sl_next = _link(cut, stats)
    carries = _phase2(sl_next, cut.sl_sum, 1, None, op, stats, None)
    backend.traverse_phase3(cut.rec["next"], cut.rec["value"], carries, op, [out], forest.offsets)
    if stats is not None:
        stats.free(cut.words)

    if inclusive:
        out = op.combine(out, values)
    return out


def _reconnect(
    cut: _Cut,
    vp_next: np.ndarray,
    vp_sum: np.ndarray,
    vp_proc: np.ndarray,
    op: Operator,
    cfg: SublistConfig,
    rng: np.random.Generator,
    stats: ScanStats | None,
) -> None:
    """Finish Phase 1 for the stragglers at full vector width.

    The nodes no processor has marked are the stragglers' suffixes, a
    forest headed at ``vp_next`` whose tails point at the sink.  Compact
    it into contiguous memory (each tail a self-loop) and scan it, each
    chain seeded with its processor's partial sum; the forest scan
    proves it is a forest with those heads.  Then write each suffix
    node's prefix and its owner's mark into the records, and each
    straggler's sublist sum into ``cut.sl_sum``.
    """
    rec_next, rec_value = cut.rec["next"], cut.rec["value"]
    n = rec_next.shape[0] - 1
    nodes = np.flatnonzero(rec_next[:n] <= n)
    remap = np.full(n + 1, -1, dtype=INDEX_DTYPE)  # a link into a marked node: out of range
    remap[nodes] = np.arange(nodes.size, dtype=INDEX_DTYPE)
    succ = rec_next[nodes]
    ends = np.flatnonzero(succ == n)
    f_next = remap[succ]
    f_next[ends] = ends  # sublist tails become self-loops
    f_values = rec_value[nodes]
    if stats is not None:
        stats.add_gather(2 * nodes.size)
        stats.add_scatter(2 * nodes.size)
        stats.alloc(3 * nodes.size)
    # the stragglers are a fresh, smaller problem: tune m and s1 for it
    # instead of reusing the whole list's
    within, f_ids = forest_list_scan(
        f_next,
        f_values,
        remap[vp_next],
        op,
        carries=vp_sum,
        config=replace(cfg, m=None, s1=None),
        rng=rng,
        stats=stats,
        return_list_ids=True,
    )
    owner = vp_proc[f_ids]
    rec_value[nodes] = within
    rec_next[nodes] = owner + (n + 1)
    cut.sl_sum[owner[ends]] = op.combine(within[ends], f_values[ends])
