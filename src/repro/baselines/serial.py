"""The serial list-scan algorithm (paper Section 2.1).

"The serial list scan simply walks down the list saving the accumulated
values of the previous nodes until it reaches the end of the list."  On
the Cray C-90 it costs 8.4 clock cycles (≈35 ns — the paper reports the
loop at 34 clocks / 1960 ns per 58 elements… the figure caption gives
the per-element numbers) per element; here it is the correctness oracle
for every parallel algorithm.  The scan is ``core.forest``'s one serial
loop, :func:`~repro.core.forest.serial_forest_scan`, on a forest of one
list; the rank is a walk of its own, an independent oracle.

Semantics: an *exclusive* prescan.  ``out[head]`` is the operator
identity and ``out[v] = values[head] ⊕ … ⊕ values[pred(v)]`` for every
other node ``v`` — including the tail, which the paper's do/while
pseudocode happens to skip; we define the primitive to cover all ``n``
nodes (the paper's Phase 3 likewise writes every node).
"""

from __future__ import annotations

import numpy as np

from ..core.forest import serial_forest_scan
from ..core.operators import Operator, SUM, get_operator
from ..lists.generate import INDEX_DTYPE, LinkedList
from ..lists.validate import ListStructureError, check_range

__all__ = [
    "serial_list_scan",
    "serial_list_rank",
]


def serial_list_scan(
    lst: LinkedList,
    op: Operator | str = SUM,
    inclusive: bool = False,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Scan a linked list by direct traversal (the reference algorithm):
    :func:`repro.core.forest.serial_forest_scan` over its one list.

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
    if out is None:
        out = np.empty_like(lst.values)
    heads = np.asarray([lst.head], dtype=INDEX_DTYPE)
    serial_forest_scan(lst.next, lst.values, heads, op, None, out)
    if inclusive:
        out[...] = op.combine(out, lst.values)
    return out


def serial_list_rank(lst: LinkedList, out: np.ndarray | None = None) -> np.ndarray:
    """Rank each node: its distance in links from the head (head = 0).

    Implemented as a direct traversal rather than a scan of ones, so it
    is an *independent* oracle for the rank = scan(+, 1) identity test.
    Raises :class:`ListStructureError` when a successor is out of range
    or the walk does not end at a self-loop after exactly ``n`` nodes.
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
    if k != n - 1:
        raise ListStructureError(
            f"the walk from the head does not end at a self-loop after "
            f"exactly {n} nodes (a cycle, or nodes the head never reaches)"
        )
    return out
