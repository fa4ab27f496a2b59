"""The paper's list-scan algorithm (Sections 2.4 and 3) over a forest.

A *forest* is a set of disjoint linked lists sharing one node array:
each list has its own head and its own self-loop tail.  The paper's
virtual processors never ask which list a sublist came from, so this
module is the one implementation of the algorithm for any number of
lists; a single list is the forest with one head (``core.sublist`` is
that one-list wrapper).  The algorithm randomly breaks the *n* nodes
into *m* sublists that are processed independently and in parallel:

* **Initialize** — copy the forest into one record array, a
  ``(next, value)`` record per node plus a last *sink* record (a
  self-loop holding the identity), and cut the copy: choose
  ``m − n_lists`` splitter positions, never a list tail; each becomes
  the (self-looped, identity-valued) tail of the sublist that precedes
  it, and its old successor becomes the head of the next sublist.  The
  self-loop/identity trick removes every conditional from the hot
  loops: a finished virtual processor just keeps folding the identity
  into its sum.  One node step reads one record, so one cache line.
* **Phase 1** — the *m* virtual processors traverse their sublists in
  lock-step vector steps, accumulating sublist sums; after
  ``s_1, s_2, …`` steps (the pack schedule of ``core.schedule``) the
  completed sublists are packed out.
* **Find sublist list** — the write-index/read-back trick links the
  sublist sums into a *reduced forest*: one chain per list, ended by
  the sublist that reaches the list's own tail.  Every sublist tail
  then points at the sink.
* **Phase 2** — scan the reduced forest with the kernel backend's
  blocked scan, recursively, with Wyllie, or serially, by size.
* **Phase 3** — traverse the sublists again, writing each node's
  exclusive scan (Phase-2 carry ⊕ prefix within the sublist) over the
  value it has just read; a processor past its tail stands on the sink
  and folds the identity.  One sequential copy of the value column is
  the result.

The input arrays are only read, so there is no Restore step and
read-only inputs are fine.  Every kernel here proves that its input is
a forest of lists, or raises ``ListStructureError`` (``docs/algorithm.md``).

Optional per-list ``carries`` seed each chain; the Section 6
early-reconnect variant (``core.early_reconnect``) uses them to rescan
its straggler suffixes, which form a forest.  This is the *host*
backend: NumPy array operations (or a ``kernels`` backend) per
data-parallel step, measured in real time by the benchmark suite.  The
cycle-accounted Cray C-90 version lives in ``simulate.sublist_sim``.

Public entry point: :func:`forest_list_scan`.  It can also return the
*list id* of every node (which original list it belongs to).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..analysis.cost_model import KernelCosts, PAPER_C90_COSTS
from ..kernels.backend import KernelBackend, resolve_backend
from ..lists.generate import INDEX_DTYPE
from ..lists.validate import ListStructureError, check_range, forest_predecessors
from ..trace.tracer import Tracer, null_span, resolve_trace
from .operators import Operator, SUM, get_operator
from .schedule import ScheduleIterator, optimal_schedule
from .stats import ScanStats
from .tuning import SERIAL_CUTOFF, WYLLIE_CUTOFF, tuned_parameters

__all__ = [
    "SublistConfig",
    "choose_splitters",
    "forest_list_scan",
    "serial_forest_scan",
    "wyllie_forest_scan",
    "forest_tails",
]

_OUT_OF_RANGE = "a successor index lies outside [0, n); not a valid list"
_COPY_BLOCK = 1 << 15  # records per block of the final copy (_copy_out)


@dataclass(frozen=True)
class SublistConfig:
    """Tuning knobs for the sublist algorithm.

    Attributes
    ----------
    m:
        Number of sublists; ``None`` uses the model-tuned value
        (Section 4.4), raised to two per list for a forest.
    s1:
        First pack point; ``None`` uses the model-tuned value.
    splitters:
        ``"spaced"`` — equally spaced positions, the paper's choice for
        randomly ordered lists; ``"random"`` — distinct uniform random
        positions; ``"random_competition"`` — uniform positions drawn
        *with* replacement, deduplicated by the paper's write-index/
        read-back competition.
    serial_cutoff / wyllie_cutoff:
        Phase-2 dispatch: serial scan for reduced lists up to
        ``serial_cutoff`` nodes, Wyllie up to ``wyllie_cutoff``, and a
        recursive invocation beyond ("We determined empirically the
        size m should be when we switch between algorithms").
    schedule_guard:
        Guard mode passed to :func:`repro.core.schedule.optimal_schedule`.
    tail_growth:
        Growth factor for pack gaps past the expected schedule.
    short_vector_fallback:
        When > 0, Phases 1/3 finish the last stragglers *serially* once
        the live vector is shorter than this, instead of spinning short
        vector steps — the practical form of the paper's Section 6
        note that machines with long vector half-performance lengths
        should not chase the longest sublists with tiny vectors.
        0 disables the fallback (pure paper behaviour).
    costs:
        Kernel cost table used for schedule generation and tuning.
    max_depth:
        Recursion depth limit for Phase 2; a scan this deep runs
        serially.
    """

    m: int | None = None
    s1: float | None = None
    splitters: str = "spaced"
    serial_cutoff: int = SERIAL_CUTOFF
    wyllie_cutoff: int = WYLLIE_CUTOFF
    schedule_guard: str = "monotonic_gaps"
    tail_growth: float = 1.5
    short_vector_fallback: int = 0
    costs: KernelCosts = field(default_factory=lambda: PAPER_C90_COSTS)
    max_depth: int = 8

    def __post_init__(self) -> None:
        if self.splitters not in ("spaced", "random", "random_competition"):
            raise ValueError(f"unknown splitter strategy {self.splitters!r}")
        if self.serial_cutoff < 1:
            raise ValueError("serial_cutoff must be >= 1")
        if self.wyllie_cutoff < self.serial_cutoff:
            raise ValueError("wyllie_cutoff must be >= serial_cutoff")
        if self.m is not None and self.m < 2:
            raise ValueError("m must be >= 2 when given")
        if self.s1 is not None and self.s1 <= 0:
            raise ValueError("s1 must be positive when given")


def choose_splitters(
    n: int,
    m: int,
    tail: int | np.ndarray,
    strategy: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Choose the ``m − len(tails)`` splitter positions (sublist tails).

    ``tail`` is the list's tail, or the array of every tail of a forest.
    Positions are distinct, sorted, and exclude every tail ("We do not
    let a processor choose the tail of the whole list … because it is
    convenient not to worry about a zero length list in Phase 2").  The
    returned array may be shorter than requested: the competition
    strategy drops duplicates, exactly as the paper's duplicate
    processors do, and spaced positions that land on a tail drop out.

    Degenerate inputs fall back instead of failing: ``m`` larger than
    the node count clamps to the ``n − len(tails)`` non-tail nodes, and
    a forest with no non-tail node has nothing to split, so the result
    is empty and the caller's serial path takes over.
    """
    tails = np.unique(np.asarray(tail, dtype=INDEX_DTYPE))
    k = tails.size
    want = min(m - k, n - k)
    if want < 1:
        return np.empty(0, dtype=INDEX_DTYPE)
    if strategy == "spaced":
        positions = _spaced(n, want)
    elif strategy == "random":
        # choose from [0, n) minus the tails: draw from [0, n - k), then
        # shift each draw past every tail at or below its target
        draw = rng.choice(n - k, size=want, replace=False).astype(INDEX_DTYPE)
        draw += np.searchsorted(tails - np.arange(k, dtype=INDEX_DTYPE), draw, side="right")
        positions = np.sort(draw)
    elif strategy == "random_competition":
        draw = rng.integers(0, n, size=want, dtype=INDEX_DTYPE)
        # competition: write our id at the position, read it back, and
        # drop out if someone else's id is there (paper Section 2.4)
        claim = np.full(n, -1, dtype=INDEX_DTYPE)
        claim[draw] = np.arange(want, dtype=INDEX_DTYPE)
        winners = claim[draw] == np.arange(want, dtype=INDEX_DTYPE)
        positions = np.unique(draw[winners])
    else:  # pragma: no cover - config validates upstream
        raise ValueError(f"unknown splitter strategy {strategy!r}")
    positions = positions[~np.isin(positions, tails)]
    if positions.size == 0:
        # every draw hit a tail: fall back to the first non-tail node so
        # Phase 2 still sees a cut
        free = np.flatnonzero(tails != np.arange(k, dtype=INDEX_DTYPE))
        positions = np.asarray([free[0] if free.size else k], dtype=INDEX_DTYPE)
    return positions


def _spaced(n: int, want: int) -> np.ndarray:
    positions = np.arange(1, want + 1, dtype=np.float64) * n / (want + 1)
    return np.unique(positions.astype(INDEX_DTYPE))


def forest_tails(nxt: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Tail (self-loop) of each list in the forest, by pointer doubling."""
    ptr = nxt.copy()
    n = nxt.shape[0]
    rounds = max(1, int(np.ceil(np.log2(max(n, 2)))))
    for _ in range(rounds):
        ptr = ptr[ptr]
    return ptr[heads]


def serial_forest_scan(
    nxt: np.ndarray,
    values: np.ndarray,
    heads: np.ndarray,
    op: Operator,
    carries: np.ndarray | None,
    out: np.ndarray,
) -> None:
    """Scalar reference: exclusive scan of each list, seeded by its carry.
    Proves the forest: ``n`` nodes visited in all, and distinct tails."""
    op = get_operator(op)
    check_range(nxt, heads)
    budget = nxt.shape[0]  # node visits left
    tails = set()
    for k in range(heads.shape[0]):
        acc = (
            carries[k]
            if carries is not None
            else op.identity_for(values.dtype)
        )
        cur = int(heads[k])
        for steps in range(1, budget + 1):
            out[cur] = acc
            acc = op.combine(acc, values[cur])
            succ = int(nxt[cur])
            if succ == cur:
                break
            cur = succ
        else:
            raise ListStructureError("forest chains did not terminate within the node count")
        budget -= steps
        tails.add(cur)
    if budget or len(tails) != heads.shape[0]:
        raise ListStructureError("the chains merge, or miss a node; not a forest of lists")


def wyllie_forest_scan(
    nxt: np.ndarray,
    values: np.ndarray,
    heads: np.ndarray,
    op: Operator,
    carries: np.ndarray | None,
    out: np.ndarray,
    stats: ScanStats | None = None,
) -> None:
    """Pointer jumping over a forest — every chain jumps independently.

    Uses the predecessor (prefix) dataflow so any associative operator
    works: each node's working value converges to the ⊕-sum of its
    chain prefix (heads pinned at the identity), and the per-chain head
    value plus carry are folded in at the end via the converged
    head-pointer map.  The round trip and the convergence prove the forest.
    """
    op = get_operator(op)
    n = nxt.shape[0]
    pred = forest_predecessors(nxt, heads)

    ident = op.identity_for(values.dtype)
    work = values.copy()
    work[heads] = ident
    ptr = pred.copy()
    rounds = max(0, int(np.ceil(np.log2(max(n - 1, 2)))) if n > 2 else 0)
    for _ in range(rounds):
        work = op.combine(work[ptr], work)
        ptr = ptr[ptr]
        if stats is not None:
            stats.add_round()
            stats.add_work(n, phase="wyllie_forest")
            stats.add_gather(3 * n)
    if np.any(pred[ptr] != ptr):
        raise ListStructureError("pointer jumping did not converge: a cycle no head reaches")
    # ptr now maps every node to its chain head; fold head value + carry
    head_value = values.copy()
    if carries is not None:
        head_value[heads] = op.combine(carries, values[heads])
    # exclusive = (carry ⊕ head_value ⊕ prefix-without-head) shifted:
    # exclusive[v] = seed_chain ⊕ work_at_pred(v); heads get their seed
    full = op.combine(head_value[ptr], work[pred])
    out[...] = full
    if carries is not None:
        out[heads] = carries
    else:
        out[heads] = ident


def forest_list_scan(
    nxt: np.ndarray,
    values: np.ndarray,
    heads: np.ndarray,
    op: Operator | str = SUM,
    carries: np.ndarray | None = None,
    inclusive: bool = False,
    config: SublistConfig | None = None,
    rng: np.random.Generator | int | None = None,
    stats: ScanStats | None = None,
    out: np.ndarray | None = None,
    return_list_ids: bool = False,
    trace: str | Tracer | None = None,
    kernel_backend: str | KernelBackend | None = None,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Exclusive (or inclusive) scan of every list in a forest.

    Parameters
    ----------
    nxt, values:
        Shared node arrays; every list terminates in its own self-loop.
        Only read (the scan works on a record copy), so they may be
        read-only.
    heads:
        Head node of each list.
    carries:
        Optional per-list seed values (shape like ``values[heads]``);
        list *k*'s exclusive scan starts at ``carries[k]`` instead of
        the identity.  This is what the early-reconnect caller uses.
    config:
        :class:`SublistConfig` tuning knobs (``None`` = defaults).
    return_list_ids:
        Also return, for every node, the index into ``heads`` of the
        list containing it.
    trace:
        ``None`` / ``"off"`` / a :class:`repro.trace.Tracer`; a traced
        run records a ``sublist_scan`` span (with an ``n_lists``
        attribute) holding per-phase children and one ``pack`` event
        per pack carrying the live-sublist count before/after — the
        observed counterpart of the paper's ``g(s)`` trajectory
        (``repro.trace.compare`` overlays the two).  Hooks fire per
        phase and per pack, never per element.
    kernel_backend:
        How the hot loops run — ``"numpy"`` / ``"python"`` /
        ``"numba"`` / a :class:`repro.kernels.KernelBackend` instance /
        ``None`` for env-var-then-auto selection (``docs/kernels.md``).
        A backend that does not support ``op`` over this value dtype
        silently falls back to the NumPy reference.

    Raises :class:`repro.lists.ListStructureError` unless every index
    lies in ``[0, n)``, the heads are distinct, and every node is
    reached exactly once, from one head, along a chain that ends at a
    self-loop.  Returns the scan array (indexed by node), optionally
    with the list id array.
    """
    op = get_operator(op)
    heads = np.asarray(heads, dtype=INDEX_DTYPE)
    n_lists = heads.shape[0]
    if n_lists == 0:
        raise ValueError("forest must contain at least one list")
    check_range(nxt, heads)
    if carries is not None:
        carries = np.asarray(carries)
        if carries.shape[0] != n_lists:
            raise ValueError("carries must have one entry per list")
    backend = resolve_backend(kernel_backend)
    if not backend.supports(op, values):
        backend = resolve_backend("numpy")
    if out is None:
        out = np.empty_like(values)
    if stats is not None:
        stats.alloc(nxt.shape[0])  # the output vector
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    _scan_in_place(
        nxt,
        values,
        heads,
        op,
        config or SublistConfig(),
        gen,
        stats,
        out,
        depth=0,
        tracer=resolve_trace(trace),
        backend=backend,
        carries=carries,
    )
    if inclusive:
        out = op.combine(out, values)
    if return_list_ids:
        return out, _list_ids(nxt, heads)
    return out


def _scan_in_place(
    nxt: np.ndarray,
    values: np.ndarray,
    heads: np.ndarray,
    op: Operator,
    cfg: SublistConfig,
    rng: np.random.Generator,
    stats: ScanStats | None,
    out: np.ndarray,
    depth: int,
    tracer: Tracer | None,
    backend: KernelBackend,
    carries: np.ndarray | None = None,
) -> None:
    """Exclusive scan of every list of the forest into ``out``.

    Reads ``nxt``/``values`` only: the phases cut and overwrite the
    record copy that Initialize makes, and Phase 3 leaves each node's
    scan in its record.  ``tracer`` records per-phase spans and
    per-pack live-count events; every hook is guarded so the untraced
    path only pays branch checks, once per pack or phase.  ``backend``
    runs the hot loops; the caller must have checked
    ``backend.supports(op, values)``.
    """
    n = nxt.shape[0]
    n_lists = heads.shape[0]
    span = tracer.span if tracer is not None else null_span
    if n <= cfg.serial_cutoff or n < 4 * n_lists or depth >= cfg.max_depth:
        with span("serial_scan", n=n, n_lists=n_lists, depth=depth):
            serial_forest_scan(nxt, values, heads, op, carries, out)
        if stats is not None:
            stats.add_work(n, phase="serial")
        return

    with span("sublist_scan", n=n, n_lists=n_lists, depth=depth) as scan_span:
        positions, s1 = _plan_splitters(nxt, n_lists, cfg, rng)
        m = n_lists + int(positions.size)
        schedule = optimal_schedule(n, m, s1, cfg.costs, guard=cfg.schedule_guard)
        if scan_span is not None:
            scan_span.attrs.update(
                m=m,
                s1=float(s1),
                splitters=cfg.splitters,
                scheduled_packs=int(np.asarray(schedule).size),
            )

        cut = _cut(nxt, values, heads, positions, op, stats, tracer)
        rec_next, rec_value = cut.rec["next"], cut.rec["value"]
        # PHASE 1: reduce each sublist to its sum, packing on schedule
        with span("phase1", m=m):
            gaps1 = ScheduleIterator(schedule, cfg.tail_growth)
            vp_next = cut.sl_head.copy()
            vp_sum = op.identity_array(m, values.dtype)
            vp_proc = np.arange(m, dtype=INDEX_DTYPE)
            total_steps = 0
            while vp_next.size:
                if cfg.short_vector_fallback and vp_next.size <= cfg.short_vector_fallback:
                    if tracer is not None:
                        tracer.event("serial_tail", step=total_steps, live=int(vp_next.size))
                    _finish_phase1_serial(
                        rec_next, rec_value, op, vp_next, vp_sum, vp_proc, cut, stats
                    )
                    break
                gap = next(gaps1)
                total_steps = _guard_steps(total_steps, gap, n)
                x = vp_next.size
                vp_next, vp_sum = backend.traverse_phase1(
                    rec_next, rec_value, vp_next, vp_sum, gap, op
                )
                if stats is not None:
                    stats.add_round(gap)
                    stats.add_work(gap * x, phase="phase1")
                    stats.add_gather(2 * gap * x)
                vp_next, vp_sum, vp_proc, n_finished = backend.pack_phase1(
                    rec_next, vp_next, vp_sum, vp_proc, cut.sl_sum, cut.sl_tail
                )
                if stats is not None:
                    stats.add_pack()
                    stats.add_gather(x)
                    stats.add_scatter(2 * n_finished + 3 * vp_next.size)
                if tracer is not None:
                    tracer.event(
                        "pack",
                        step=total_steps,
                        gap=int(gap),
                        live_before=int(x),
                        live_after=int(vp_next.size),
                        finished=int(n_finished),
                    )

        with span("find_sublist_list", m=m):
            sl_next = _link(values, cut, op, stats)
        sl_carries = _phase2(
            sl_next, cut.sl_sum, n_lists, carries, op, cfg, rng, stats, depth, tracer, backend
        )

        # PHASE 3: expand the carries back along each sublist, writing
        # each node's scan over its value
        with span("phase3", m=m):
            gaps3 = ScheduleIterator(schedule, cfg.tail_growth)
            vp_next = cut.sl_head.copy()
            vp_sum = sl_carries
            total_steps = 0
            while vp_next.size:
                if cfg.short_vector_fallback and vp_next.size <= cfg.short_vector_fallback:
                    if tracer is not None:
                        tracer.event("serial_tail", step=total_steps, live=int(vp_next.size))
                    _finish_phase3_serial(rec_next, rec_value, op, vp_next, vp_sum, stats)
                    break
                gap = next(gaps3)
                total_steps = _guard_steps(total_steps, gap, n)
                x = vp_next.size
                vp_next, vp_sum = backend.traverse_phase3(
                    rec_next, rec_value, vp_next, vp_sum, gap, op
                )
                if stats is not None:
                    stats.add_round(gap)
                    stats.add_work(gap * x, phase="phase3")
                    stats.add_gather(2 * gap * x)
                    stats.add_scatter(gap * x)
                vp_next, vp_sum = backend.pack_phase3(rec_next, rec_value, vp_next, vp_sum)
                if stats is not None:
                    stats.add_pack()
                    stats.add_gather(x)
                    stats.add_scatter(x + vp_next.size)
                if tracer is not None:
                    tracer.event(
                        "pack",
                        step=total_steps,
                        gap=int(gap),
                        live_before=int(x),
                        live_after=int(vp_next.size),
                    )
        _copy_out(cut.rec, out)
        if stats is not None:
            stats.free(cut.words)


def _plan_splitters(
    nxt: np.ndarray, n_lists: int, cfg: SublistConfig, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Splitter choice: the cut positions and the first pack point.

    The sublist count ``m`` (lists + splitters) and ``s1`` come from the
    config or the Section 4.4 tuning; a tuned ``m`` gives every list at
    least two sublists.  Spaced positions need only the tail count,
    ``n_lists`` in a forest, and drop the tails among them in O(m); the
    O(n) pass over every tail runs only when all of them are tails.
    """
    n = nxt.shape[0]
    m, s1 = cfg.m, cfg.s1
    if m is None or s1 is None:
        m_t, s1_t = tuned_parameters(n, cfg.costs)
        m = m if m is not None else max(m_t, 2 * n_lists)
        s1 = s1 if s1 is not None else s1_t
    m = min(max(m, n_lists + 1), max(n_lists + 1, n // 2))
    if cfg.splitters == "spaced":
        positions = _spaced(n, min(m, n) - n_lists)
        positions = positions[nxt[positions] != positions]
        if positions.size:  # else every one is a tail: choose_splitters falls back
            return positions, s1
    tails = np.flatnonzero(nxt == np.arange(n, dtype=INDEX_DTYPE))
    return choose_splitters(n, m, tails, cfg.splitters, rng), s1


@dataclass
class _Cut:
    """The sublists of one Initialize.

    ``rec`` is the record copy of the forest the phases run on: record
    ``i < n`` holds node *i*'s ``next`` and ``value``, record ``n`` is
    the sink.  Sublists ``[0, n_lists)`` start at the list heads, the
    rest at the successors of the splitter ``positions``.  ``sl_value``
    holds each splitter's input value (the identity for the head
    sublists).
    """

    n_lists: int
    positions: np.ndarray
    rec: np.ndarray
    sl_head: np.ndarray
    sl_value: np.ndarray
    sl_sum: np.ndarray
    sl_tail: np.ndarray

    @property
    def words(self) -> int:
        """Auxiliary words of the records and the per-sublist arrays."""
        return 2 * self.rec.shape[0] + 6 * self.sl_head.shape[0]


def _cut(
    nxt: np.ndarray,
    values: np.ndarray,
    heads: np.ndarray,
    positions: np.ndarray,
    op: Operator,
    stats: ScanStats | None,
    tracer: Tracer | None,
) -> _Cut:
    """INITIALIZE (Section 3): copy the forest into records and cut them.

    One aligned ``(next, value)`` record per node puts a node step's
    two gathers on one cache line.  Record ``n``, the *sink*, is a
    self-loop holding the identity.  Each splitter becomes a
    self-looped, identity-valued sublist tail in the copy; the input
    arrays are only read.
    """
    span = tracer.span if tracer is not None else null_span
    n = nxt.shape[0]
    n_lists = heads.shape[0]
    m = n_lists + positions.shape[0]
    ident = op.identity_for(values.dtype)
    with span("initialize", m=m):
        record = np.dtype(
            [("next", INDEX_DTYPE), ("value", values.dtype, values.shape[1:])], align=True
        )
        rec = np.empty(n + 1, dtype=record)
        rec_next, rec_value = rec["next"], rec["value"]
        rec_next[:n] = nxt
        rec_value[:n] = values
        rec_next[n] = n
        rec_value[n] = ident
        sl_head = np.empty(m, dtype=INDEX_DTYPE)
        sl_head[:n_lists] = heads
        sl_head[n_lists:] = nxt[positions]  # gather heads
        sl_value = op.identity_array(m, values.dtype)
        sl_value[n_lists:] = values[positions]  # gather splitter values
        rec_value[positions] = ident  # identity at sublist tails
        rec_next[positions] = positions  # self-loops at sublist tails
        cut = _Cut(
            n_lists,
            positions,
            rec,
            sl_head,
            sl_value,
            sl_sum=op.identity_array(m, values.dtype),
            sl_tail=np.full(m, -1, dtype=INDEX_DTYPE),
        )
    if stats is not None:
        stats.alloc(cut.words)
        stats.add_gather(2 * m)
        stats.add_scatter(2 * m)
    return cut


def _link(
    values: np.ndarray,
    cut: _Cut,
    op: Operator,
    stats: ScanStats | None,
) -> np.ndarray:
    """FIND_SUBLIST_LIST: link the sublist sums into the reduced forest.

    Scatter the *negated* sublist index at each splitter so it is
    distinguishable from the original self-loops; a sublist whose tail
    is a list tail reads no index back and ends its list's chain.
    Then points every sublist tail at the sink for Phase 3, folds each
    sublist's true tail value (from the input ``values``) into
    ``cut.sl_sum`` and returns the reduced successor array.

    Raises :class:`ListStructureError` when a sublist ended on the
    sink (it ran off the node array), when fewer sublists than lists
    end at a self-loop tail, or when two end at one tail (a merge).
    """
    nxt = cut.rec["next"]
    sink = nxt.shape[0] - 1
    if np.any(cut.sl_tail == sink):
        raise ListStructureError(_OUT_OF_RANGE)
    m = cut.sl_head.shape[0]
    nxt[cut.positions] = -np.arange(cut.n_lists, m, dtype=INDEX_DTYPE)
    probe = nxt[cut.sl_tail]  # gather: index written by my successor
    sl_next = np.where(probe < 0, -probe, np.arange(m, dtype=INDEX_DTYPE)).astype(INDEX_DTYPE)
    chain_ends = np.flatnonzero(probe >= 0)
    if chain_ends.size < cut.n_lists:
        raise ListStructureError(
            "the reduced list has fewer chain ends (self-loop tails) than "
            "lists; the successor array appears to contain a cycle"
        )
    if np.unique(cut.sl_tail).size != m:
        raise ListStructureError("two sublists end at one tail: two chains merge")
    nxt[cut.sl_tail] = sink  # a processor past its tail stands on the sink
    # fold the splitter values (each sublist's true tail value) back
    # into the sublist sums; a chain's last sublist gets the value of
    # its list's tail
    addback = cut.sl_value[sl_next]
    addback[chain_ends] = values[cut.sl_tail[chain_ends]]
    cut.sl_sum = op.combine(cut.sl_sum, addback)
    if stats is not None:
        stats.add_work(m, phase="find_sublist")
        stats.add_gather(2 * m)
        stats.add_scatter(2 * m)
    return sl_next


def _phase2(
    nxt: np.ndarray,
    sums: np.ndarray,
    n_lists: int,
    carries: np.ndarray | None,
    op: Operator,
    cfg: SublistConfig,
    rng: np.random.Generator,
    stats: ScanStats | None,
    depth: int,
    tracer: Tracer | None,
    backend: KernelBackend,
) -> np.ndarray:
    """PHASE 2: exclusive scan of the reduced forest ``nxt``/``sums``.

    Chain *k* starts at sublist *k*, seeded by ``carries[k]``.  The
    backend's blocked scan takes every size it supports; otherwise the
    size picks a recursive scan, Wyllie, or a serial scan.
    """
    span = tracer.span if tracer is not None else null_span
    m = sums.shape[0]
    heads = np.arange(n_lists, dtype=INDEX_DTYPE)
    out = np.empty_like(sums)
    with span("phase2", m=m) as phase2_span:
        if backend.has_blocked_scan and backend.supports(op, sums):
            # Blelloch blocked exclusive scan over the reduced chains
            # (snippet-1 shape).  Re-associates: exact for integer
            # operators, documented tolerance for floats (docs/kernels.md).
            method = "blocked"
            backend.reduced_scan(nxt, sums, heads, carries, op, out)
            if stats is not None:
                stats.add_work(m, phase="phase2_blocked")
        elif m > cfg.wyllie_cutoff and depth + 1 < cfg.max_depth:
            method = "recursive"
            _scan_in_place(
                nxt, sums, heads, op, cfg, rng, stats, out, depth + 1, tracer, backend, carries
            )
        elif m > cfg.serial_cutoff:
            method = "wyllie"
            wyllie_forest_scan(nxt, sums, heads, op, carries, out, stats=stats)
        else:
            method = "serial"
            serial_forest_scan(nxt, sums, heads, op, carries, out)
            if stats is not None:
                stats.add_work(m, phase="phase2_serial")
        if phase2_span is not None:
            phase2_span.attrs["method"] = method
    return out


def _guard_steps(total: int, gap: int, n: int) -> int:
    """Bound the traversal against corrupted (cyclic) inputs.

    A valid forest finishes every virtual processor within ``n`` steps
    (no sublist is longer than the node count); a structure containing
    a cycle that never reaches a self-loop would otherwise spin forever.
    """
    total += gap
    if total > 4 * n + 64:
        raise ListStructureError(
            "traversal exceeded the maximum possible list length; the "
            "successor array appears to contain a cycle without a "
            "self-loop tail (run validate_list_strict to diagnose)"
        )
    return total


def _finish_phase1_serial(
    nxt: np.ndarray,
    values: np.ndarray,
    op: Operator,
    vp_next: np.ndarray,
    vp_sum: np.ndarray,
    vp_proc: np.ndarray,
    cut: _Cut,
    stats: ScanStats | None,
) -> None:
    """Scalar completion of the last Phase-1 stragglers (Section 6 ablation)."""
    limit = nxt.shape[0] + 1
    for k in range(vp_next.size):
        cur = int(vp_next[k])
        acc = vp_sum[k]
        steps = 0
        while True:
            succ = int(nxt[cur])
            if succ == cur:
                break
            acc = op.combine(acc, values[cur])
            cur = succ
            steps += 1
            if steps > limit:
                raise ListStructureError("cycle detected in straggler sublist")
        proc = int(vp_proc[k])
        cut.sl_sum[proc] = acc
        cut.sl_tail[proc] = cur
        if stats is not None:
            stats.add_work(steps, phase="phase1_serial_tail")


def _finish_phase3_serial(
    nxt: np.ndarray,
    values: np.ndarray,
    op: Operator,
    vp_next: np.ndarray,
    vp_sum: np.ndarray,
    stats: ScanStats | None,
) -> None:
    """Scalar completion of the last Phase-3 stragglers, up to the sink."""
    sink = nxt.shape[0] - 1
    for k in range(vp_next.size):
        cur = int(vp_next[k])
        acc = vp_sum[k]
        steps = 0
        while cur != sink:
            folded = op.combine(acc, values[cur])
            values[cur] = acc
            acc = folded
            nxt[cur], cur = sink, int(nxt[cur])  # mark visited (_copy_out), step
            steps += 1
            if steps > sink:
                raise ListStructureError("cycle detected in straggler sublist")
        if stats is not None:
            stats.add_work(steps, phase="phase3_serial_tail")


def _copy_out(rec: np.ndarray, out: np.ndarray) -> None:
    """Copy the scan out, block by block, refusing a node Phase 3 never
    left: its ``next`` is not the sink (a cycle or a branch off a list)."""
    n = out.shape[0]
    nxt, value = rec["next"][:n], rec["value"][:n]
    for lo in range(0, n, _COPY_BLOCK):
        block = slice(lo, lo + _COPY_BLOCK)
        out[block] = value[block]
        if nxt[block].min() < n:
            raise ListStructureError("a node is not reached from any head")


def _list_ids(nxt: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Which list (index into ``heads``) each node belongs to.

    Pointer doubling maps every node to its tail; tails map back to the
    list index.  Unreachable nodes get −1.
    """
    n = nxt.shape[0]
    tail_of = forest_tails(nxt, np.arange(n, dtype=INDEX_DTYPE))
    tail_to_id = np.full(n, -1, dtype=INDEX_DTYPE)
    tail_to_id[tail_of[heads]] = np.arange(heads.shape[0], dtype=INDEX_DTYPE)
    return tail_to_id[tail_of]
