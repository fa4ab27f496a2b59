"""Structural operations on linked lists.

The sublist algorithm cuts a copy of its list into sublists; the
utilities here expose such manipulations as safe public operations.
Because a :class:`LinkedList` always covers its whole node array with a
single self-loop-terminated chain, operations that produce *several*
lists return each piece as a compact standalone list together with the
array of original node indices it was extracted from.  Inputs are never
mutated.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..baselines.serial import serial_list_rank
from .generate import INDEX_DTYPE, LinkedList, from_order, list_order
from .validate import forest_predecessors

__all__ = ["concatenate", "split_after", "reverse", "splice_out", "extract"]


def concatenate(lists: Sequence[LinkedList]) -> tuple[LinkedList, np.ndarray]:
    """Concatenate independent lists into one.

    Each input owns its own node space; the output's node space is
    their disjoint union in input order.  Returns ``(combined,
    offsets)`` where node ``k`` of input ``j`` became node
    ``k + offsets[j]``.
    """
    if not lists:
        raise ValueError("need at least one list")
    offsets = np.zeros(len(lists), dtype=INDEX_DTYPE)
    total = 0
    for j, lst in enumerate(lists):
        offsets[j] = total
        total += lst.n
    order_parts = []
    value_parts = []
    for j, lst in enumerate(lists):
        order = list_order(lst) + offsets[j]
        order_parts.append(order)
        value_parts.append(lst.values[list_order(lst)])
    full_order = np.concatenate(order_parts)
    values_in_order = np.concatenate(value_parts)
    values = np.empty_like(values_in_order)
    values[full_order] = values_in_order
    return from_order(full_order, values), offsets


def extract(lst: LinkedList, start: int, length: int) -> tuple[LinkedList, np.ndarray]:
    """The compact sublist of ``length`` nodes beginning at ``start``.

    Returns ``(piece, node_ids)`` with ``node_ids[k]`` the original
    index of the piece's node ``k``.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    ids = np.empty(length, dtype=INDEX_DTYPE)
    cur = int(start)
    nxt = lst.next
    for k in range(length):
        ids[k] = cur
        succ = int(nxt[cur])
        if succ == cur and k < length - 1:
            raise ValueError("segment runs past the tail")
        cur = succ
    piece = from_order(
        np.arange(length, dtype=INDEX_DTYPE), lst.values[ids].copy()
    )
    return piece, ids


def split_after(
    lst: LinkedList, nodes: Sequence[int]
) -> list[tuple[LinkedList, np.ndarray]]:
    """Split the list after each node in ``nodes``.

    Returns the pieces in list order as ``(piece, node_ids)`` pairs —
    the non-destructive form of the paper's INITIALIZE cut.  Splitting
    after the tail is a no-op.
    """
    cut = np.unique(np.asarray(nodes, dtype=INDEX_DTYPE))
    if cut.size and (cut.min() < 0 or cut.max() >= lst.n):
        raise ValueError("split node out of range")
    rank = serial_list_rank(lst)
    order = np.empty(lst.n, dtype=INDEX_DTYPE)
    order[rank] = np.arange(lst.n, dtype=INDEX_DTYPE)
    # boundaries: positions after which we cut
    cut_pos = np.sort(rank[cut])
    cut_pos = cut_pos[cut_pos < lst.n - 1]
    bounds = np.concatenate(([0], cut_pos + 1, [lst.n]))
    pieces = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        ids = order[a:b]
        piece = from_order(
            np.arange(b - a, dtype=INDEX_DTYPE), lst.values[ids].copy()
        )
        pieces.append((piece, ids))
    return pieces


def reverse(lst: LinkedList) -> LinkedList:
    """The same nodes visited in reverse order (same node space)."""
    pred = forest_predecessors(lst.next, [lst.head])  # a fresh array
    return LinkedList(pred, lst.tail, lst.values.copy())


def splice_out(
    lst: LinkedList, start: int, stop: int
) -> tuple[tuple[LinkedList, np.ndarray], tuple[LinkedList, np.ndarray]]:
    """Remove the segment from ``start`` through ``stop`` (inclusive).

    ``start`` must not come after ``stop`` in list order, and at least
    one node must remain.  Returns ``((remainder, remainder_ids),
    (segment, segment_ids))``, both compact.
    """
    rank = serial_list_rank(lst)
    if rank[start] > rank[stop]:
        raise ValueError("start must not come after stop in list order")
    n = lst.n
    a, b = int(rank[start]), int(rank[stop])
    if b - a + 1 >= n:
        raise ValueError("cannot remove every node")
    order = np.empty(n, dtype=INDEX_DTYPE)
    order[rank] = np.arange(n, dtype=INDEX_DTYPE)
    seg_ids = order[a : b + 1]
    rem_ids = np.concatenate((order[:a], order[b + 1 :]))
    segment = from_order(
        np.arange(seg_ids.size, dtype=INDEX_DTYPE), lst.values[seg_ids].copy()
    )
    remainder = from_order(
        np.arange(rem_ids.size, dtype=INDEX_DTYPE), lst.values[rem_ids].copy()
    )
    return (remainder, rem_ids), (segment, seg_ids)
