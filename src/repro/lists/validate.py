"""Structural validation of linked lists.

Two validators give a verdict without a scan (the scans prove their own
input with :func:`check_range` and :func:`forest_predecessors`):

* :func:`validate_list` — vectorized O(n) heuristics (index ranges,
  unique self-loop, in-degree structure).  These catch all *local*
  corruption and most global corruption but cannot, by themselves,
  distinguish a single chain from a chain plus a disjoint cycle.
* :func:`validate_list_strict` — full traversal from the head plus a
  pointer-doubling reachability certificate; O(n log n) work but fully
  sound.  ``list_scan`` runs it before the randomized contractions,
  which make no traversal that could prove the structure.

Both raise :class:`ListStructureError` with a specific message on the
first violation found.
"""

from __future__ import annotations

import numpy as np

from .generate import INDEX_DTYPE, LinkedList

__all__ = [
    "ListStructureError",
    "check_indices",
    "check_range",
    "drop_repeats",
    "forest_predecessors",
    "validate_list",
    "validate_list_strict",
    "is_valid_list",
]


class ListStructureError(ValueError):
    """Raised when a successor array does not encode a single valid list."""


def check_indices(name: str, index: np.ndarray, n: int, first: int = 0) -> None:
    """Raise, naming the first bad entry ``name[first + i]``, unless every
    entry of ``index`` lies in ``[0, n)``: one pass, and no copy for int64,
    since viewed as unsigned a negative index is huge."""
    unsigned = index.view(np.uint64) if index.dtype == np.int64 else index.astype(np.uint64)
    if unsigned.max(initial=0) >= n:
        i = int(np.argmax(unsigned >= n))
        raise ListStructureError(
            f"{name}[{first + i}] = {index[i]} is out of range, outside [0, {n})"
        )


def check_range(nxt: np.ndarray, heads: np.ndarray | list[int]) -> None:
    """Raise, naming the first bad index, unless every successor and head lies
    in ``[0, n)`` (:func:`check_indices`)."""
    n = nxt.shape[0]
    check_indices("next", nxt, n)
    check_indices("head", np.asarray(heads), n)


def drop_repeats(ordered: np.ndarray) -> np.ndarray:
    """The distinct values of a sorted 1-D array, in order:
    ``np.unique(a)`` is ``drop_repeats(np.sort(a))``.  A sort and a
    neighbour mask cost an order of magnitude less than numpy 2's
    hashing ``np.unique``, from a few thousand values up."""
    keep = np.empty(ordered.shape[0], dtype=bool)
    keep[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def forest_predecessors(nxt: np.ndarray, heads: np.ndarray | list[int]) -> np.ndarray:
    """Predecessor of every node of a forest, each head its own; raises unless
    every other node has exactly one and no head has one (a disjoint cycle passes)."""
    heads = np.asarray(heads, dtype=INDEX_DTYPE)
    check_range(nxt, heads)
    idx = np.arange(nxt.shape[0], dtype=INDEX_DTYPE)
    proper = nxt != idx
    src, dst = idx[proper], nxt[proper]
    pred = np.full(nxt.shape[0], -1, dtype=INDEX_DTYPE)
    pred[heads] = heads
    pred[dst] = src
    if (
        drop_repeats(np.sort(heads)).size < heads.size
        or (pred < 0).any()
        or (pred[dst] != src).any()
    ):
        raise ListStructureError("a node has no predecessor or two, or a head repeats")
    if (pred[heads] != heads).any():
        raise ListStructureError("a link enters a head")
    return pred


def validate_list(lst: LinkedList) -> None:
    """Vectorized structural checks (necessary conditions).

    Verifies:

    * all successor indices are in range,
    * there is exactly one self-loop (the tail),
    * the head has in-degree 0 from proper links (or is the tail of a
      singleton list),
    * every non-head node has in-degree exactly 1 from proper links.

    Together these conditions say the proper links form a *functional
    graph* in which every node except the head has a unique
    predecessor; a disjoint extra cycle would give some node in-degree
    1 while making the total reachable count wrong, which only the
    strict check detects.
    """
    nxt = lst.next
    n = lst.n
    if nxt.ndim != 1:
        raise ListStructureError("next must be one-dimensional")
    if nxt.dtype != INDEX_DTYPE:
        raise ListStructureError(f"next must have dtype {INDEX_DTYPE}, got {nxt.dtype}")
    check_range(nxt, [lst.head])
    idx = np.arange(n, dtype=INDEX_DTYPE)
    self_loops = np.flatnonzero(nxt == idx)
    if self_loops.size != 1:
        raise ListStructureError(
            f"expected exactly one self-loop (tail); found {self_loops.size}"
        )
    tail = int(self_loops[0])
    if n == 1:
        if lst.head != tail:
            raise ListStructureError("singleton list must have head == tail")
        return
    if lst.head == tail:
        raise ListStructureError("head is the tail of a multi-node list")
    # in-degree over proper (non-self) links
    proper = nxt[nxt != idx]
    indeg = np.bincount(proper, minlength=n)
    if indeg[lst.head] != 0:
        raise ListStructureError(
            f"head {lst.head} has in-degree {int(indeg[lst.head])}; expected 0"
        )
    others = indeg[idx != lst.head]
    if np.any(others != 1):
        which = idx[idx != lst.head][np.flatnonzero(others != 1)[0]]
        raise ListStructureError(
            f"node {int(which)} has in-degree {int(indeg[which])}; expected 1"
        )


def validate_list_strict(lst: LinkedList) -> None:
    """Sound validation: local checks + pointer-doubling reachability.

    After :func:`validate_list` passes, repeatedly squares the
    successor map (``next ← next∘next``, ⌈log₂ n⌉ rounds).  In a valid
    list every node's pointer converges to the tail; any disjoint cycle
    leaves its members pointing inside the cycle, never at the tail.
    """
    validate_list(lst)
    n = lst.n
    tail = lst.tail
    ptr = lst.next.copy()
    rounds = max(1, int(np.ceil(np.log2(max(n, 2)))))
    for _ in range(rounds):
        ptr = ptr[ptr]
    if not np.all(ptr == tail):
        stranded = int(np.flatnonzero(ptr != tail)[0])
        raise ListStructureError(
            f"node {stranded} cannot reach the tail; the structure contains "
            "a cycle disjoint from the head chain"
        )


def is_valid_list(lst: LinkedList, strict: bool = True) -> bool:
    """Boolean convenience wrapper around the validators."""
    try:
        if strict:
            validate_list_strict(lst)
        else:
            validate_list(lst)
    except ListStructureError:
        return False
    return True
