"""Anderson/Miller randomized list ranking (paper Section 2.3).

Anderson and Miller modified random mate "so that it avoids load
balancing (packing).  Processors are assigned the work of log n nodes.
At each round a processor attempts to remove one node in its queue …
in order to splice out its own node, the processor needs reverse link
pointers so that it can get the previous node to jump over the
processor's node.  If a processor is able to splice out its node in one
round, in the next round it attempts to splice out the next node in its
queue.  In this simple way processors remain busy without load
balancing being required."

This implementation follows the paper's own experimental choice: "In
our implementation of this algorithm we did not apply Wyllie's
algorithm.  We simply stopped processors from attempting to splice out
nodes once they had completed their block of nodes."  Since every node
other than the head and tail belongs to some processor's block, the
fully contracted list is the two-node chain head→tail, after which the
recorded splices are replayed in reverse to reconstruct all scan
values.

Contention rule: a processor may splice its current node ``v`` only
when its coin is heads *and* the predecessor of ``v`` is not itself
being spliced this round (another processor's heads-up current node).
This makes each round's splice set vertex-disjoint along the chain, so
the doubly-linked updates commute.  "Again only a small constant
proportion (≥ 1/4) of the processors remove nodes on each round."

A non-list raises ``ListStructureError`` instead of spinning: splicing
shrinks a disjoint cycle to a queued node that is its own predecessor.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.operators import Operator, SUM, get_operator
from ..core.stats import ScanStats
from ..lists.generate import INDEX_DTYPE, LinkedList
from ..lists.validate import ListStructureError, forest_predecessors
from .serial import serial_list_scan

__all__ = ["anderson_miller_list_scan", "anderson_miller_list_rank"]

_SERIAL_SWITCH = 4


def anderson_miller_list_scan(
    lst: LinkedList,
    op: Operator | str = SUM,
    inclusive: bool = False,
    block_size: int | None = None,
    rng: np.random.Generator | int | None = None,
    stats: ScanStats | None = None,
) -> np.ndarray:
    """Exclusive (or inclusive) list scan by queued splice-out.

    ``block_size`` defaults to ⌈log₂ n⌉ nodes per virtual processor.
    """
    op = get_operator(op)
    gen = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    n = lst.n
    values = lst.values
    out = np.empty_like(values)
    if n <= _SERIAL_SWITCH:
        serial_list_scan(lst, op, inclusive=inclusive, out=out)
        return out

    if block_size is None:
        block_size = max(1, int(math.ceil(math.log2(n))))
    if block_size < 1:
        raise ValueError("block_size must be >= 1")

    nxt = lst.next.copy()
    prev = forest_predecessors(lst.next, [lst.head])
    val = values.copy()
    head, tail = lst.head, lst.tail
    if stats is not None:
        stats.alloc(5 * n)  # next/prev/value copies + queue cursors + flags

    # processor queues: processor j owns nodes [j·b, min((j+1)·b, n)).
    cursor = np.arange(0, n, block_size, dtype=INDEX_DTYPE)  # current node
    limit = np.minimum(cursor + block_size, n)
    # skip queue entries that can never be spliced (head / tail anchors)
    cursor, limit = _advance(cursor, limit, head, tail)
    active = cursor < limit
    cursor, limit = cursor[active], limit[active]

    rounds: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    heads_up = np.zeros(n, dtype=bool)  # is node a current node with coin=H?
    while cursor.size:
        k = cursor.size
        coin = gen.random(k) < 0.5
        heads_up[cursor] = coin
        pred = prev[cursor]
        if np.any(pred == cursor):
            raise ListStructureError("a disjoint cycle contracted to a self-loop")
        blocked = heads_up[pred]
        splice = coin & ~blocked
        heads_up[cursor] = False  # reset for the next round
        if stats is not None:
            stats.add_round()
            stats.add_work(k, phase="contract")
            stats.add_gather(2 * k)
        if np.any(splice):
            v = cursor[splice]
            p = prev[v]
            w = nxt[v]
            rounds.append((p, v, val[p].copy()))
            val[p] = op.combine(val[p], val[v])
            nxt[p] = w
            prev[w] = p
            if stats is not None:
                stats.add_scatter(4 * v.size)
                stats.alloc(3 * v.size)
            # successful processors move to the next node of their queue
            cursor = cursor.copy()
            cursor[splice] += 1
            cursor, limit = _advance(cursor, limit, head, tail)
            active = cursor < limit
            cursor, limit = cursor[active], limit[active]

    # fully contracted: only head → tail remain ------------------------
    ident = op.identity_for(values.dtype)
    out[head] = ident
    out[tail] = op.combine(ident, val[head])

    # reconstruction in reverse round order ----------------------------
    for p, v, val_before in reversed(rounds):
        out[v] = op.combine(out[p], val_before)
        if stats is not None:
            stats.add_round()
            stats.add_work(p.size, phase="reconstruct")
            stats.add_gather(p.size)
            stats.add_scatter(p.size)
    if stats is not None:
        stats.free(5 * n)

    if inclusive:
        out = op.combine(out, values)
    return out


def _advance(
    cursor: np.ndarray, limit: np.ndarray, head: int, tail: int
) -> tuple[np.ndarray, np.ndarray]:
    """Skip queue positions holding the head or tail anchor (those nodes
    are never spliced; at most two skips ever happen in total)."""
    for _ in range(2):
        at_anchor = (cursor < limit) & ((cursor == head) | (cursor == tail))
        if not np.any(at_anchor):
            break
        cursor = cursor.copy()
        cursor[at_anchor] += 1
    return cursor, limit


def anderson_miller_list_rank(
    lst: LinkedList,
    rng: np.random.Generator | int | None = None,
    stats: ScanStats | None = None,
) -> np.ndarray:
    """List ranking via Anderson/Miller (scan of ones under ``+``)."""
    ones = LinkedList(lst.next, lst.head, np.ones(lst.n, dtype=np.int64))
    return anderson_miller_list_scan(ones, SUM, rng=rng, stats=stats)
