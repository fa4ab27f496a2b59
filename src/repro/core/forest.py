"""The paper's list-scan algorithm (Sections 2.4 and 3) over a forest.

A *forest* is a set of disjoint linked lists, each with its own head
and its own self-loop tail.  The paper's virtual processors never ask
which list a sublist came from, so this module is the one
implementation of the algorithm for any number of lists; a single list
is the forest with one head (``core.sublist`` is that one-list
wrapper).  A :class:`Forest` may keep its lists in separate node
arrays, its *members*: one node array with any number of heads is a
forest of one member, and the engine's fused shard is a forest of one
member per request.  The algorithm randomly breaks the *n* nodes into
*m* sublists that are processed independently and in parallel:

* **Initialize** — copy each member once, block by block, into its
  block of one record array, a ``(next, value)`` record per node plus a
  last *sink* record (a self-loop holding the identity).  On the way
  the copy adds the member's offset to its successors, range-checks
  them against the member, so no successor reaches another member's
  block, and finds the member's self-loops, the list tails.  Then cut
  the copy: choose ``m − n_lists`` splitter positions, never a list
  tail; each becomes the tail of the sublist that precedes it, and its
  old successor becomes the head of the next sublist.  Every sublist
  tail keeps its value and points at the sink.
* **Phase 1** — the *m* virtual processors traverse their sublists in
  lock-step vector steps.  At each node processor *p* writes its
  running exclusive prefix over the node's value and its *mark*
  ``n + 1 + p`` over the node's successor, folds the value it read and
  steps on.  Past its tail it stands on the sink, which folds the
  identity, until the next pack (after ``s_1, s_2, …`` steps, the
  schedule of ``core.schedule``) retires it with its sublist's sum.
  One node step reads and writes one record, so one cache line.
* **Find sublist list** — each sublist tail's mark names the processor
  that owns it, and the owner of a splitter continues with the sublist
  that starts after it.  That links the sublist sums into a *reduced
  forest*: one chain per list, ended by the owner of the list's tail.
* **Phase 2** — scan the reduced forest with Wyllie's pointer jumping.
* **Phase 3** — one streaming pass over each member's block of the
  records, straight into that member's own result array: a node's
  exclusive scan is its owner's Phase-2 carry ⊕ the prefix Phase 1 left
  in its value.

The paper's Phase 3 walks every sublist a second time.  On the C-90,
which had no caches, that cost about as much as keeping per-node
state; on a cached host it fetches every record line at random again,
so this Phase 3 reads the owner and prefix Phase 1 stored instead, and
each node is visited at random once.  The members are only read, so
there is no Restore step and read-only inputs are fine, and they are
never concatenated: each is copied once into the records, and its
result is written once.  Every kernel here proves that its input is a
forest of lists, or raises ``ListStructureError``
(``docs/algorithm.md``).

A forest too small to cut, of at most ``SublistConfig.serial_cutoff``
nodes or fewer than four per list, is scanned directly with Wyllie's
pointer jumping, and so is every Phase 2: on the C-90 the paper
switched to the serial scan there, but on the host the serial scan is
a Python loop that loses to the vectorized Wyllie on every forest but
a lone list of a few nodes.  :func:`serial_forest_scan` stays as the
oracle the tests compare against.

Optional per-list ``carries`` seed each chain; the Section 6
early-reconnect variant (``core.early_reconnect``) uses them to rescan
its straggler suffixes, which form a forest.  This is the *host*
backend: NumPy array operations (or a ``kernels`` backend) per
data-parallel step, measured in real time by the benchmark suite.  The
cycle-accounted Cray C-90 version, with the paper's Phase 3, its
serial, Wyllie or recursive Phase 2 and its splitter strategies, lives
in ``simulate.sublist_sim``.

Public entry points: :func:`forest_scan` over a :class:`Forest`, and
:func:`forest_list_scan` over one node array, which can also return the
*list id* of every node (which original list it belongs to).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..kernels.backend import REVISITED, STREAM_BLOCK, KernelBackend, resolve_backend
from ..lists.generate import INDEX_DTYPE, LinkedList
from ..lists.validate import (
    ListStructureError,
    check_indices,
    check_range,
    drop_repeats,
    forest_predecessors,
)
from ..trace.tracer import Tracer, null_span, resolve_trace
from .operators import Operator, SUM, get_operator
from .schedule import ScheduleIterator, optimal_schedule
from .stats import ScanStats
from .tuning import SERIAL_CUTOFF, tuned_parameters

__all__ = [
    "Forest",
    "SublistConfig",
    "choose_splitters",
    "forest_scan",
    "forest_list_scan",
    "serial_forest_scan",
    "wyllie_forest_scan",
    "wyllie_scan",
    "forest_tails",
]


@dataclass(frozen=True)
class SublistConfig:
    """The sublist algorithm's two tuned parameters and its cutoff.

    Attributes
    ----------
    m:
        Number of sublists; ``None`` uses the model-tuned value
        (Section 4.4), raised to two per list for a forest.
    s1:
        First pack point; ``None`` uses the model-tuned value.
    serial_cutoff:
        A forest of at most this many nodes is not cut but scanned
        directly, with Wyllie.  The paper's serial scan below the
        cutoff is the C-90's (``simulate.sublist_sim``); on the host it
        is only the oracle.

    The host always cuts at equally spaced splitters, the paper's
    choice for randomly ordered lists, and packs on the schedule and
    tuning of the paper's C-90 cost table.
    """

    m: int | None = None
    s1: float | None = None
    serial_cutoff: int = SERIAL_CUTOFF

    def __post_init__(self) -> None:
        if self.serial_cutoff < 1:
            raise ValueError("serial_cutoff must be >= 1")
        if self.m is not None and self.m < 2:
            raise ValueError("m must be >= 2 when given")
        if self.s1 is not None and self.s1 <= 0:
            raise ValueError("s1 must be positive when given")


@dataclass(frozen=True)
class Forest:
    """A forest whose lists live in separate node arrays, its *members*.

    Member ``k`` is the node arrays ``nexts[k]``/``values[k]``, in its
    own coordinates; in the forest's coordinates its nodes are
    ``[offsets[k], offsets[k + 1])``.  ``heads`` holds every list's
    head, member by member, in the forest's coordinates.
    The scan never concatenates the members: Initialize copies each
    into its block of the records, and Phase 3 writes each member's
    result into an array of its own.  The member arrays are only read.
    """

    nexts: tuple[np.ndarray, ...]
    values: tuple[np.ndarray, ...]
    heads: np.ndarray
    offsets: np.ndarray

    @classmethod
    def of(cls, nxt: np.ndarray, values: np.ndarray, heads: np.ndarray | Sequence[int]) -> Forest:
        """One node array and the heads of its lists: a forest of one member.

        Raises :class:`ListStructureError` unless every head lies in
        ``[0, n)``.
        """
        heads = np.asarray(heads, dtype=INDEX_DTYPE)
        n = nxt.shape[0]
        check_indices("head", heads, n)
        return cls(
            (nxt,),
            (values,),
            heads,
            np.asarray([0, n], dtype=INDEX_DTYPE),
        )

    @classmethod
    def of_lists(cls, lists: Sequence[LinkedList]) -> Forest:
        """Each list its own member, with its one head.

        Raises :class:`ListStructureError` unless every head lies in its
        own list.
        """
        sizes = np.asarray([lst.n for lst in lists], dtype=INDEX_DTYPE)
        local = np.asarray([lst.head for lst in lists], dtype=INDEX_DTYPE)
        bad = np.flatnonzero((local < 0) | (local >= sizes))
        if bad.size:
            k = int(bad[0])
            raise ListStructureError(
                f"head of list {k} = {local[k]} is out of range, outside [0, {sizes[k]})"
            )
        offsets = np.zeros(len(lists) + 1, dtype=INDEX_DTYPE)
        np.cumsum(sizes, out=offsets[1:])
        return cls(
            tuple(lst.next for lst in lists),
            tuple(lst.values for lst in lists),
            offsets[:-1] + local,
            offsets,
        )

    @property
    def n(self) -> int:
        """Nodes in all members."""
        return int(self.offsets[-1])

    @property
    def shape(self) -> tuple[int]:
        """``(n,)``, the node axis a forest stands for where a node array
        used to (``perfbench/layers.py`` counts a shard's nodes from the
        first argument of ``engine.workers.run_fused_kernel`` this way)."""
        return (self.n,)

    def slices(self) -> list[slice]:
        """Each member's block of the forest's coordinates."""
        bounds = self.offsets.tolist()
        return [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]

    def check(self) -> None:
        """Raise :class:`ListStructureError` unless every successor lies
        in its own member.  Offset into one node array, a successor past
        the end of one member would be a valid index into the next, and
        two bad lists could join into a good forest.  The scan checks
        this block by block as it copies; :meth:`copy_into` does not."""
        for nxt in self.nexts:
            check_indices("next", nxt, nxt.shape[0])

    def copy_into(self, nxt: np.ndarray, values: np.ndarray) -> None:
        """Write the forest into one successor and one value array, each
        member once, straight into its block, its offset added.  Call
        :meth:`check` first."""
        for member_next, member_values, block in zip(self.nexts, self.values, self.slices()):
            np.add(member_next, block.start, out=nxt[block])
            values[block] = member_values

    def contiguous(self) -> tuple[np.ndarray, np.ndarray]:
        """The forest as one successor and one value array, checked
        (:meth:`check`): a forest of one member is its own arrays, a
        larger one is copied into fresh arrays (:meth:`copy_into`)."""
        self.check()
        if len(self.nexts) == 1:
            return self.nexts[0], self.values[0]
        first = self.values[0]
        nxt = np.empty(self.n, dtype=INDEX_DTYPE)
        values = np.empty((self.n, *first.shape[1:]), dtype=first.dtype)
        self.copy_into(nxt, values)
        return nxt, values


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
    is empty.
    """
    tails = drop_repeats(np.sort(np.asarray(tail, dtype=INDEX_DTYPE), axis=None))
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
        positions = drop_repeats(np.sort(draw[winners]))
    else:
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
    return drop_repeats(positions.astype(INDEX_DTYPE))  # already sorted


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

    The one serial loop, the oracle the tests compare every path
    against (``baselines.serial.serial_list_scan`` runs it on one
    list); no scan calls it.  Raises :class:`ListStructureError` unless
    the walks from the heads visit exactly ``n`` nodes in all and end
    at distinct self-loops, so no node of ``out`` is left unwritten.
    """
    op = get_operator(op)
    check_range(nxt, heads)
    n = nxt.shape[0]
    budget = n  # node visits left
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
            break  # no self-loop within the nodes left
        budget -= steps
        tails.add(cur)
    if budget or len(tails) != heads.shape[0]:
        raise ListStructureError(
            f"the walks from the heads do not terminate at distinct self-loops "
            f"after exactly {n} nodes in all (a cycle, chains that merge, or "
            f"nodes no head reaches)"
        )


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

    The rounds stop once every pointer stands on a head
    (``ptr[ptr] == ptr``), so a forest takes its longest chain's
    ⌈log₂⌉ rounds, at most ⌈log₂(n − 1)⌉: from then on a round would
    fold the heads' identity and change nothing.  The test runs only
    from the round whose jump spans the average chain, since the
    longest chain is at least that long; one list never runs it.  A
    cycle no head reaches never passes the test unless its pointers
    stand still on it, and the final check refuses those.

    ``stats`` records the arrays held during the rounds, the
    predecessors, working values, pointers and jumped pointers: 4n
    words, the paper's Table 1 figure for Wyllie.
    """
    op = get_operator(op)
    n = nxt.shape[0]
    pred = forest_predecessors(nxt, heads)

    ident = op.identity_for(values.dtype)
    work = values.copy()
    work[heads] = ident
    ptr = pred.copy()
    if stats is not None:
        stats.alloc(4 * n)
    rounds = max(0, int(np.ceil(np.log2(max(n - 1, 2)))) if n > 2 else 0)
    reach = -(-n // max(len(heads), 1)) - 1  # the farthest node is at least this far
    for done in range(rounds):
        jumped = ptr[ptr]
        if 1 << done >= reach and np.array_equal(jumped, ptr):
            break
        work = op.combine(work[ptr], work)
        ptr = jumped
        if stats is not None:
            stats.add_round()
            stats.add_work(n, phase="wyllie_forest")
            stats.add_gather(3 * n)
    if stats is not None:
        stats.free(4 * n)
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


def wyllie_scan(
    forest: Forest,
    outs: Sequence[np.ndarray],
    op: Operator,
    carries: np.ndarray | None = None,
    stats: ScanStats | None = None,
) -> None:
    """:func:`wyllie_forest_scan` over a :class:`Forest`, member *k*'s
    exclusive scan into ``outs[k]``.  Pointer jumping runs over one node
    array, so a forest of several members is copied into one
    (:meth:`Forest.contiguous`) and each member's block of the result
    copied out."""
    nxt, values = forest.contiguous()
    out = outs[0] if len(outs) == 1 else np.empty_like(values)
    wyllie_forest_scan(nxt, values, forest.heads, op, carries, out, stats=stats)
    if len(outs) > 1:
        for dest, block in zip(outs, forest.slices()):
            dest[...] = out[block]


def forest_scan(
    forest: Forest,
    outs: Sequence[np.ndarray],
    op: Operator | str = SUM,
    carries: np.ndarray | None = None,
    inclusive: bool = False,
    config: SublistConfig | None = None,
    rng: np.random.Generator | int | None = None,
    stats: ScanStats | None = None,
    trace: str | Tracer | None = None,
    kernel_backend: str | KernelBackend | None = None,
) -> None:
    """Exclusive (or inclusive) scan of every list of a :class:`Forest`.

    Member *k*'s scan is written into ``outs[k]``, an array shaped like
    its values.  The members are only read: Initialize copies each once
    into the records, and Phase 3 writes each result once.  The other
    parameters are those of :func:`forest_list_scan`; ``carries`` holds
    one seed per list, in the order of ``forest.heads``.

    Raises :class:`repro.lists.ListStructureError` unless every
    successor lies in its own member, the heads are distinct, and every
    node is reached exactly once, from one head, along a chain that
    ends at a self-loop.
    """
    op = get_operator(op)
    n_lists = forest.heads.shape[0]
    if n_lists == 0:
        raise ValueError("forest must contain at least one list")
    if carries is not None:
        carries = np.asarray(carries)
        if carries.shape[0] != n_lists:
            raise ValueError("carries must have one entry per list")
    backend = resolve_backend(kernel_backend)
    if stats is not None:
        stats.alloc(forest.n)  # the output vectors
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    _scan_in_place(
        forest,
        op,
        config or SublistConfig(),
        gen,
        stats,
        outs,
        tracer=resolve_trace(trace),
        backend=backend,
        carries=carries,
    )
    if inclusive:
        for out, values in zip(outs, forest.values):
            out[...] = op.combine(out, values)


def forest_list_scan(
    nxt: np.ndarray,
    values: np.ndarray,
    heads: np.ndarray | Sequence[int],
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
    """Exclusive (or inclusive) scan of every list in a forest over one
    node array: :func:`forest_scan` over the forest of one member.

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
    out:
        Where to write the scan (``None`` = a fresh array).
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
        How the hot loops run: ``None`` (the default) is the process's
        backend (``docs/kernels.md``); a name (``"numpy"`` / ``"c"``)
        or a :class:`repro.kernels.KernelBackend` overrides it for this
        call, which is how the tests compare the two backends and the
        engine runs every kernel on the backend it resolved once.  A
        backend that does not support ``op`` over this value dtype
        silently falls back to the NumPy reference.

    Raises :class:`repro.lists.ListStructureError` unless every index
    lies in ``[0, n)``, the heads are distinct, and every node is
    reached exactly once, from one head, along a chain that ends at a
    self-loop.  Returns the scan array (indexed by node), optionally
    with the list id array.
    """
    forest = Forest.of(nxt, values, heads)
    if out is None:
        out = np.empty_like(values)
    forest_scan(
        forest, [out], op, carries, inclusive, config, rng, stats, trace, kernel_backend
    )
    if return_list_ids:
        return out, _list_ids(nxt, forest.heads)
    return out


def _scan_in_place(
    forest: Forest,
    op: Operator,
    cfg: SublistConfig,
    rng: np.random.Generator,
    stats: ScanStats | None,
    outs: Sequence[np.ndarray],
    tracer: Tracer | None,
    backend: KernelBackend,
    carries: np.ndarray | None = None,
) -> None:
    """Exclusive scan of every list of the forest, member *k*'s into
    ``outs[k]``.

    Reads the members only: the phases cut and overwrite the record
    copy that Initialize makes, and Phase 3 writes ``outs`` from it.
    ``tracer`` records per-phase spans and
    per-pack live-count events; every hook is guarded so the untraced
    path only pays branch checks, once per pack or phase.  ``backend``
    runs the hot loops.
    """
    n = forest.n
    n_lists = forest.heads.shape[0]
    span = tracer.span if tracer is not None else null_span
    if n <= cfg.serial_cutoff or n < 4 * n_lists:
        with span("wyllie_scan", n=n, n_lists=n_lists):
            wyllie_scan(forest, outs, op, carries, stats)
        return

    with span("sublist_scan", n=n, n_lists=n_lists) as scan_span:
        cut, s1 = _cut(forest, op, cfg, rng, stats, tracer)
        m = cut.sl_head.shape[0]
        schedule = optimal_schedule(n, m, s1)
        if scan_span is not None:
            scan_span.attrs.update(
                m=m,
                s1=float(s1),
                scheduled_packs=int(np.asarray(schedule).size),
            )
        with span("phase1", m=m):
            _phase1(cut, schedule, op, stats, tracer, backend, 0)
        with span("find_sublist_list", m=m):
            sl_next = _link(cut, stats)
        sl_carries = _phase2(sl_next, cut.sl_sum, n_lists, carries, op, stats, tracer)
        with span("phase3", m=m):
            backend.traverse_phase3(
                cut.rec["next"], cut.rec["value"], sl_carries, op, outs, forest.offsets
            )
        if stats is not None:
            stats.add_work(n, phase="phase3")
            stats.add_gather(n)  # each node's carry
            stats.free(cut.words)


def _plan_splitters(
    nxt: np.ndarray, tails: np.ndarray, cfg: SublistConfig, rng: np.random.Generator
) -> tuple[np.ndarray, float]:
    """Splitter choice: the cut positions and the first pack point.

    ``nxt`` is the forest's successors and ``tails`` its list tails,
    both as Initialize's copy finds them.  The sublist count ``m``
    (lists + splitters) and ``s1`` come from the config or the Section
    4.4 tuning; a tuned ``m`` gives every list at least two sublists.
    The positions are equally spaced: they need only the tail count,
    ``n_lists`` in a forest, and drop the tails among them in O(m).
    """
    n = nxt.shape[0]
    n_lists = tails.shape[0]
    m, s1 = cfg.m, cfg.s1
    if m is None or s1 is None:
        m_t, s1_t = tuned_parameters(n)
        m = m if m is not None else max(m_t, 2 * n_lists)
        s1 = s1 if s1 is not None else s1_t
    m = min(max(m, n_lists + 1), max(n_lists + 1, n // 2))
    positions = _spaced(n, min(m, n) - n_lists)
    positions = positions[nxt[positions] != positions]
    if positions.size:
        return positions, s1
    # every spaced position is a tail: choose_splitters falls back
    return choose_splitters(n, m, tails, "spaced", rng), s1


@dataclass
class _Cut:
    """The sublists of one Initialize.

    ``rec`` is the record copy of the forest the phases run on: record
    ``i < n`` holds node *i*'s ``next`` and ``value``, record ``n`` is
    the sink.  Sublists ``[0, n_lists)`` start at the list heads, the
    rest at the successors of the splitters.  ``tails`` holds every
    sublist tail: the ``n_lists`` list tails, then the splitters, the
    one at ``tails[n_lists + j]`` ending the sublist before sublist
    ``n_lists + j``.  Phase 1 fills ``sl_sum``.
    """

    n_lists: int
    rec: np.ndarray
    sl_head: np.ndarray
    sl_sum: np.ndarray
    tails: np.ndarray

    @property
    def words(self) -> int:
        """Auxiliary words of the records and the per-sublist arrays
        (``sl_head``, ``sl_sum``, ``tails`` and the reduced links)."""
        return 2 * self.rec.shape[0] + 4 * self.sl_head.shape[0]


def _cut(
    forest: Forest,
    op: Operator,
    cfg: SublistConfig,
    rng: np.random.Generator,
    stats: ScanStats | None,
    tracer: Tracer | None,
) -> tuple[_Cut, float]:
    """INITIALIZE (Section 3): copy the members into records and cut them.

    One aligned ``(next, value)`` record per node puts a node step's
    two gathers on one cache line.  Each member is copied once, block
    by block, into its block of the records, its offset added to its
    successors; while a block is in cache the copy range-checks it
    against its member and finds its self-loops, the list tails.
    Record ``n``, the *sink*, is a self-loop holding the identity.
    Then the splitters are chosen (:func:`_plan_splitters`), and every
    sublist tail, each splitter and each list tail, keeps its value and
    points at the sink.  The members are only read.  Returns the cut
    and the first pack point.

    Raises :class:`ListStructureError` unless every successor lies in
    its own member and the forest holds exactly ``n_lists`` self-loops.
    """
    span = tracer.span if tracer is not None else null_span
    n = forest.n
    n_lists = forest.heads.shape[0]
    first = forest.values[0]
    with span("initialize") as init_span:
        record = np.dtype(
            [("next", INDEX_DTYPE), ("value", first.dtype, first.shape[1:])], align=True
        )
        rec = np.empty(n + 1, dtype=record)
        rec_next, rec_value = rec["next"], rec["value"]
        ramp = np.arange(min(n, STREAM_BLOCK), dtype=INDEX_DTYPE)
        loops: list[np.ndarray] = []
        for nxt, values, block in zip(forest.nexts, forest.values, forest.slices()):
            size, start = nxt.shape[0], block.start
            for lo in range(0, size, STREAM_BLOCK):
                hi = min(lo + STREAM_BLOCK, size)
                seg = nxt[lo:hi]
                check_indices("next", seg, size, lo)
                dest = slice(start + lo, start + hi)
                if start:
                    np.add(seg, start, out=rec_next[dest])
                else:  # a plain copy runs about twice as fast as adding 0
                    rec_next[dest] = seg
                rec_value[dest] = values[lo:hi]
                here = ramp[: hi - lo]  # a self-loop: seg[i] == lo + i
                hits = seg == here if lo == 0 else seg - here == lo
                loops.append(hits.nonzero()[0] + (start + lo))
        list_tails = np.concatenate(loops).astype(INDEX_DTYPE, copy=False)
        if list_tails.shape[0] != n_lists:
            raise ListStructureError(
                f"{list_tails.shape[0]} self-loop tails for {n_lists} "
                "lists: a chain runs into a cycle, or no head reaches a tail"
            )
        positions, s1 = _plan_splitters(rec_next[:n], list_tails, cfg, rng)
        m = n_lists + positions.shape[0]
        sl_head = np.empty(m, dtype=INDEX_DTYPE)
        sl_head[:n_lists] = forest.heads
        sl_head[n_lists:] = rec_next[positions]  # gather heads
        tails = np.concatenate([list_tails, positions])
        rec_next[tails] = n  # every sublist tail points at the sink
        rec_next[n] = n
        rec_value[n] = op.identity_for(first.dtype)
        cut = _Cut(n_lists, rec, sl_head, op.identity_array(m, first.dtype), tails)
        if init_span is not None:
            init_span.attrs["m"] = m
    if stats is not None:
        stats.alloc(cut.words)
        stats.add_gather(m)
        stats.add_scatter(m)
    return cut, s1


def _phase1(
    cut: _Cut,
    schedule: np.ndarray,
    op: Operator,
    stats: ScanStats | None,
    tracer: Tracer | None,
    backend: KernelBackend,
    switch: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PHASE 1: walk every sublist in lock step, packing on schedule.

    Each step leaves the node's exclusive prefix within its sublist in
    its value and the walker's mark in its ``next``; the pack retires
    the processors standing on the sink into ``cut.sl_sum``.  Stops
    once ``switch`` or fewer processors are live and returns their
    ``(vp_next, vp_sum, vp_proc)``, empty when every sublist is done:
    the scan passes 0, ``core.early_reconnect`` its switch count.
    A processor that steps onto a mark (a merge or a cycle) raises
    :class:`ListStructureError`, in the backend or here.
    """
    rec_next, rec_value = cut.rec["next"], cut.rec["value"]
    sink = rec_next.shape[0] - 1
    m = cut.sl_head.shape[0]
    gaps = ScheduleIterator(schedule)
    vp_next = cut.sl_head.copy()
    vp_sum = op.identity_array(m, rec_value.dtype)
    vp_proc = np.arange(m, dtype=INDEX_DTYPE)
    total_steps = 0
    while vp_next.size > switch:
        gap = next(gaps)
        total_steps += gap
        x = vp_next.size
        vp_next, vp_sum = backend.traverse_phase1(
            rec_next, rec_value, vp_next, vp_sum, vp_proc, gap, op
        )
        if stats is not None:
            stats.add_round(gap)
            stats.add_work(gap * x, phase="phase1")
            stats.add_gather(2 * gap * x)
            stats.add_scatter(2 * gap * x)
        vp_next, vp_sum, vp_proc, n_finished = backend.pack_phase1(
            sink, vp_next, vp_sum, vp_proc, cut.sl_sum
        )
        if stats is not None:
            stats.add_pack()
            stats.add_scatter(n_finished + 3 * vp_next.size)
        if tracer is not None:
            tracer.event(
                "pack",
                step=total_steps,
                gap=int(gap),
                live_before=int(x),
                live_after=int(vp_next.size),
                finished=int(n_finished),
            )
    if vp_next.size and vp_next.max() > sink:
        raise ListStructureError(REVISITED)
    return vp_next, vp_sum, vp_proc


def _link(cut: _Cut, stats: ScanStats | None) -> np.ndarray:
    """FIND_SUBLIST_LIST: link the sublist sums into the reduced forest.

    Phase 1 left at every sublist tail the mark of the processor that
    owns it.  The owner of the splitter ``tails[n_lists + j]`` continues
    with sublist ``n_lists + j``; the owner of a list tail ends its
    list's chain.  Returns the reduced successor array.

    Raises :class:`ListStructureError` unless the ``m`` tails have
    ``m`` distinct owners: a tail no processor reached, or one that two
    shared, means chains merge or run into a cycle.
    """
    rec_next = cut.rec["next"]
    n = rec_next.shape[0] - 1
    m = cut.sl_head.shape[0]
    owner = rec_next[cut.tails] - (n + 1)
    if owner.min() < 0 or np.bincount(owner, minlength=m).max() > 1:
        raise ListStructureError(
            "a sublist tail is reached by no chain, or by two: "
            "the chains merge, or one runs into a cycle"
        )
    sl_next = np.arange(m, dtype=INDEX_DTYPE)
    sl_next[owner[cut.n_lists :]] = np.arange(cut.n_lists, m, dtype=INDEX_DTYPE)
    if stats is not None:
        stats.add_work(m, phase="find_sublist")
        stats.add_gather(m)
        stats.add_scatter(m)
    return sl_next


def _phase2(
    nxt: np.ndarray,
    sums: np.ndarray,
    n_lists: int,
    carries: np.ndarray | None,
    op: Operator,
    stats: ScanStats | None,
    tracer: Tracer | None,
) -> np.ndarray:
    """PHASE 2: exclusive scan of the reduced forest ``nxt``/``sums``.

    Chain *k* starts at sublist *k*, seeded by ``carries[k]``.  Wyllie
    scans it at every size: where the tuned ``m`` first passes 64K
    sublists, on lists of about 20 million nodes, it costs under 1% of
    the scan (``docs/algorithm.md``).
    """
    span = tracer.span if tracer is not None else null_span
    heads = np.arange(n_lists, dtype=INDEX_DTYPE)
    out = np.empty_like(sums)
    with span("phase2", m=sums.shape[0]):
        wyllie_forest_scan(nxt, sums, heads, op, carries, out, stats=stats)
    return out


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
