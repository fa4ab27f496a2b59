"""Wyllie's pointer-jumping algorithm (paper Section 2.2).

"The first parallel algorithm for list ranking is due to Wyllie.  …
Each processor, in parallel, modifies its next pointer to point to its
successor's successor."  After ⌈log₂ n⌉ rounds every pointer has
converged and the accumulated values give the scan.  The algorithm is
simple and fully vectorizable but *work-inefficient*: it performs
Θ(n log n) element operations, which is exactly the sawtooth
degradation measured in the paper's Figures 1 and 3.

Two dataflow variants are provided:

* :func:`wyllie_suffix` — the paper's form: jump along ``next`` toward
  the tail, accumulating inclusive *suffix* sums.  Converting a suffix
  sum to the exclusive prefix scan requires the operator to be an
  invertible (group) operation, which holds for the paper's use cases
  (ranking = +).
* :func:`wyllie_prefix` — jumps along *predecessor* pointers toward the
  head, accumulating inclusive *prefix* sums directly; works for any
  associative operator (including non-commutative ``AFFINE``) at the
  cost of one extra scatter to build the predecessor array.

Both variants use the paper's self-loop-with-identity trick so the
round loop contains no conditionals: the terminal node's working value
is the operator identity, so the repeated self-combinations at the
clamped end contribute nothing.  Reads and writes are double-buffered
("on each call to the inner loop we switch back and forth between
arrays we read from and arrays we write to").

Both variants prove the list: the round trip of :func:`build_predecessors`,
then every pointer must converge on the head (prefix) or the tail (suffix).
"""

from __future__ import annotations

import math

import numpy as np

from ..core.operators import Operator, SUM, get_operator
from ..core.stats import ScanStats
from ..lists.generate import LinkedList
from ..lists.validate import ListStructureError, forest_predecessors

__all__ = [
    "wyllie_list_scan",
    "wyllie_list_rank",
    "wyllie_prefix",
    "wyllie_suffix",
    "wyllie_rounds",
    "build_predecessors",
]


def wyllie_rounds(n: int) -> int:
    """Number of pointer-jumping rounds needed for an ``n``-node list.

    Each round doubles the accumulated window.  The deepest node needs
    a window of ``n − 1`` proper values (the terminal node holds the
    identity), so ⌈log₂(n−1)⌉ rounds suffice — the paper's
    ``⌈log n − 1⌉`` step function whose jumps cause the sawtooth in
    Figures 1 and 3.
    """
    if n <= 2:
        return 0
    return int(math.ceil(math.log2(n - 1)))


def build_predecessors(lst: LinkedList) -> np.ndarray:
    """Predecessor array: ``pred[next[i]] = i``; the head self-loops.
    Raises unless the round trip holds (``forest_predecessors``)."""
    return forest_predecessors(lst.next, [lst.head])


def wyllie_prefix(
    lst: LinkedList,
    op: Operator | str = SUM,
    inclusive: bool = False,
    stats: ScanStats | None = None,
) -> np.ndarray:
    """Pointer jumping along predecessor links — valid for any operator.

    Maintains the invariant that after ``k`` rounds, node ``v``'s
    working value is the ⊕-sum of the (up to) ``2^k`` node values
    ending at ``v``, with the head's working value pinned at the
    identity so window clamping at the head is harmless.
    """
    op = get_operator(op)
    n = lst.n
    values = lst.values
    pred0 = build_predecessors(lst)

    work = values.copy()
    ident = op.identity_for(values.dtype)
    work[lst.head] = ident
    ptr = pred0.copy()
    rounds = wyllie_rounds(n)
    if stats is not None:
        stats.alloc(3 * n)  # pred + working value + pointer double-buffer
    for _ in range(rounds):
        # double-buffered: read old work/ptr, write fresh arrays
        work = op.combine(work[ptr], work)
        ptr = ptr[ptr]
        if stats is not None:
            stats.add_round()
            stats.add_work(n, phase="wyllie")
            stats.add_gather(3 * n)  # work[ptr] (value_width-ignored) + ptr[ptr]
    if np.any(ptr != lst.head):
        raise ListStructureError("pointer jumping did not converge: a disjoint cycle")
    # fold the head's true value back in
    head_val = values[lst.head]
    if inclusive:
        out = op.combine(head_val, work)
    else:
        out = np.empty_like(values)
        out[...] = op.combine(head_val, work[pred0])
        out[lst.head] = ident
    if stats is not None:
        stats.free(3 * n)
    return out


def wyllie_suffix(
    lst: LinkedList,
    op: Operator | str = SUM,
    inclusive: bool = False,
    stats: ScanStats | None = None,
) -> np.ndarray:
    """The paper's variant: jump along ``next``, accumulate suffix sums,
    then convert to a prefix scan via the operator's inverse.

    Requires ``op.invertible`` (e.g. ``SUM``, ``XOR``).  The working
    tail value is the identity, so ``work[v]`` converges to the ⊕-sum
    of values from ``v`` through the *penultimate* node; the exclusive
    prefix is then ``total ⊖ work[v]`` where ``total = work[head]``.
    """
    op = get_operator(op)
    if not op.invertible:
        raise ValueError(
            f"wyllie_suffix requires an invertible operator; {op.name} is not. "
            "Use wyllie_prefix instead."
        )
    n = lst.n
    values = lst.values
    build_predecessors(lst)  # the round trip
    tail = lst.tail
    ident = op.identity_for(values.dtype)

    work = values.copy()
    work[tail] = ident
    ptr = lst.next.copy()
    rounds = wyllie_rounds(n)
    if stats is not None:
        stats.alloc(2 * n)
    for _ in range(rounds):
        work = op.combine(work, work[ptr])
        ptr = ptr[ptr]
        if stats is not None:
            stats.add_round()
            stats.add_work(n, phase="wyllie")
            stats.add_gather(2 * n)
    if np.any(ptr != tail):
        raise ListStructureError("pointer jumping did not converge: a disjoint cycle")
    # work[v] = v ⊕ … ⊕ (last-1); exclusive prefix = total ⊖ suffix
    total = work[lst.head]
    out = op.remove(total, work)
    if inclusive:
        out = op.combine(out, values)
    if stats is not None:
        stats.free(2 * n)
    return out


def wyllie_list_scan(
    lst: LinkedList,
    op: Operator | str = SUM,
    inclusive: bool = False,
    variant: str = "auto",
    stats: ScanStats | None = None,
) -> np.ndarray:
    """List scan via Wyllie pointer jumping.

    ``variant`` selects the dataflow: ``"suffix"`` (the paper's,
    invertible operators only), ``"prefix"`` (any operator), or
    ``"auto"`` (suffix when the operator allows, else prefix).
    """
    op = get_operator(op)
    if variant == "auto":
        variant = "suffix" if op.invertible else "prefix"
    if variant == "suffix":
        return wyllie_suffix(lst, op, inclusive=inclusive, stats=stats)
    if variant == "prefix":
        return wyllie_prefix(lst, op, inclusive=inclusive, stats=stats)
    raise ValueError(f"unknown variant {variant!r}; expected suffix/prefix/auto")


def wyllie_list_rank(
    lst: LinkedList, stats: ScanStats | None = None
) -> np.ndarray:
    """List ranking via Wyllie: scan of all-ones values under ``+``."""
    ones = LinkedList(lst.next, lst.head, np.ones(lst.n, dtype=np.int64))
    return wyllie_suffix(ones, SUM, inclusive=False, stats=stats)
