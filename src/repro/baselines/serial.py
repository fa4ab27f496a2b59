"""The serial list-scan algorithm (paper Section 2.1).

"The serial list scan simply walks down the list saving the accumulated
values of the previous nodes until it reaches the end of the list."  On
the Cray C-90 it costs 8.4 clock cycles (≈35 ns — the paper reports the
loop at 34 clocks / 1960 ns per 58 elements… the figure caption gives
the per-element numbers) per element; here it is the correctness oracle
for every parallel algorithm and the Phase-2 base case of the sublist
algorithm.

Semantics: an *exclusive* prescan.  ``out[head]`` is the operator
identity and ``out[v] = values[head] ⊕ … ⊕ values[pred(v)]`` for every
other node ``v`` — including the tail, which the paper's do/while
pseudocode happens to skip; we define the primitive to cover all ``n``
nodes (the paper's Phase 3 likewise writes every node).
"""

from __future__ import annotations


import numpy as np

from ..core.operators import Operator, SUM, get_operator
from ..lists.generate import LinkedList
from ..lists.validate import ListStructureError, check_range

__all__ = [
    "serial_list_scan",
    "serial_list_rank",
    "serial_scan_segment",
]


def serial_list_scan(
    lst: LinkedList,
    op: Operator | str = SUM,
    inclusive: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Scan a linked list by direct traversal (the reference algorithm).

    Parameters
    ----------
    lst:
        The list to scan.  Not modified.
    op:
        Binary associative operator (or its name).
    inclusive:
        If True, ``out[v]`` includes ``values[v]`` itself.
    out:
        Optional preallocated result array.

    Returns
    -------
    numpy.ndarray
        Scan values indexed by node (same shape as ``lst.values``).

    Raises
    ------
    ListStructureError
        When a successor is out of range or the walk from the head does
        not end at a self-loop after exactly ``n`` nodes (a cycle, or
        nodes the head never reaches), so no node of ``out`` is unwritten.
    """
    op = get_operator(op)
    values = lst.values
    nxt = lst.next
    n = lst.n
    check_range(nxt, [lst.head])
    if out is None:
        out = np.empty_like(values)
    acc = op.identity_for(values.dtype)
    cur = lst.head
    for k in range(n):
        if inclusive:
            acc = op.combine(acc, values[cur])
            out[cur] = acc
        else:
            out[cur] = acc
            acc = op.combine(acc, values[cur])
        succ = int(nxt[cur])
        if succ == cur:
            break
        cur = succ
    else:
        k = n  # no self-loop within n steps
    _check_walk(k, n)
    return out


def serial_list_rank(lst: LinkedList, out: np.ndarray | None = None) -> np.ndarray:
    """Rank each node: its distance in links from the head (head = 0).

    Implemented as a direct traversal rather than a scan of ones, so it
    is an *independent* oracle for the rank = scan(+, 1) identity test.
    Raises :class:`ListStructureError` as :func:`serial_list_scan` does.
    """
    n = lst.n
    if out is None:
        out = np.empty(n, dtype=np.int64)
    cur = lst.head
    nxt = lst.next
    check_range(nxt, [lst.head])
    for k in range(n):
        out[cur] = k
        succ = int(nxt[cur])
        if succ == cur:
            break
        cur = succ
    else:
        k = n  # no self-loop within n steps
    _check_walk(k, n)
    return out


def _check_walk(tail_step: int, n: int) -> None:
    """Raise unless the walk met its self-loop at step ``n - 1``."""
    if tail_step != n - 1:
        raise ListStructureError(
            f"the walk from the head does not end at a self-loop after "
            f"exactly {n} nodes (a cycle, or nodes the head never reaches)"
        )


def serial_scan_segment(
    nxt: np.ndarray,
    values: np.ndarray,
    start: int,
    op: Operator,
    carry_in,
    out: np.ndarray | None = None,
) -> object:
    """Scan a single sublist starting at ``start`` until its self-loop tail.

    Writes exclusive scan values (seeded with ``carry_in``) into ``out``
    when given, and returns the carry after the segment — the sum of
    ``carry_in`` and every value on the segment.  This is the scalar
    building block used by the test oracle for Phase 1 / Phase 3
    invariants of the sublist algorithm.
    """
    op = get_operator(op)
    acc = carry_in
    cur = int(start)
    for _ in range(nxt.shape[0]):
        if out is not None:
            out[cur] = acc
        acc = op.combine(acc, values[cur])
        succ = int(nxt[cur])
        if succ == cur:
            return acc
        cur = succ
    raise ValueError("segment did not terminate within the node count; "
                     "the successor array appears corrupted")
