"""Workload generators for linked lists.

A linked list over ``n`` nodes is represented exactly as in the paper
(Section 2): a *successor* array ``next`` of length ``n`` where
``next[i]`` is the index of the node that follows node ``i``, the tail
is a self-loop (``next[tail] == tail``), and a scalar ``head`` gives the
index of the first node.  Node values live in a separate array of the
same length.

The generators in this module produce the workloads used throughout the
paper's evaluation:

* :func:`random_list` — a list whose nodes are laid out in memory in a
  uniformly random order.  This is the paper's standard workload; the
  equally-spaced splitter strategy (Section 3, ``GEN_TAILS``) relies on
  this layout so that sublist lengths follow the exponential order
  statistics of Section 4.1.
* :func:`ordered_list` / :func:`reversed_list` — fully sequential
  layouts (stride +1 / −1).  These are the friendliest cases for a
  serial traversal and exhibit *no* gather irregularity.
* :func:`blocked_list` — a ``k``-local layout where each link jumps at
  most ``k`` slots; models partially sorted data and produces
  systematic memory-bank collision patterns on the simulated machine.
* :func:`pathological_bank_list` — every link strides by a fixed
  multiple of the memory-bank count; the worst case for a banked
  memory system.

All generators return indices with dtype :data:`INDEX_DTYPE`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "INDEX_DTYPE",
    "LinkedList",
    "random_list",
    "ordered_list",
    "reversed_list",
    "blocked_list",
    "pathological_bank_list",
    "from_order",
    "list_order",
    "random_values",
    "unit_values",
]

#: dtype used for all successor/index arrays in the library.
INDEX_DTYPE = np.int64


@dataclass
class LinkedList:
    """A linked list in the paper's array representation.

    Attributes
    ----------
    next:
        Successor index of each node; the tail is a self-loop.
    head:
        Index of the first node of the list.
    values:
        Per-node values to be scanned.  Defaults to all ones, which
        makes ``list_scan`` compute list ranking (Section 2: "list
        ranking is the list scan where plus is the operator and the
        values to be summed are all equal to one").
    """

    next: np.ndarray
    head: int
    values: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.next = np.ascontiguousarray(self.next, dtype=INDEX_DTYPE)
        if self.values is None:
            self.values = np.ones(self.next.shape[0], dtype=np.int64)
        else:
            self.values = np.ascontiguousarray(self.values)
        if self.values.shape[:1] != self.next.shape:
            raise ValueError(
                f"values leading dimension {self.values.shape} does not match "
                f"list length {self.next.shape[0]}"
            )
        self.head = int(self.head)
        n = self.next.shape[0]
        if n == 0:
            raise ValueError("linked list must have at least one node")
        if not (0 <= self.head < n):
            raise ValueError(f"head {self.head} out of range for n={n}")

    @property
    def n(self) -> int:
        """Number of nodes in the list."""
        return int(self.next.shape[0])

    @property
    def tail(self) -> int:
        """Index of the tail node (the unique self-loop).

        Computed by traversal-free inspection: the tail is the only
        index with ``next[i] == i``.
        """
        loops = np.flatnonzero(self.next == np.arange(self.n, dtype=INDEX_DTYPE))
        if loops.size != 1:
            from .validate import ListStructureError  # validate imports this module

            raise ListStructureError(
                f"list has {loops.size} self-loops; a valid list has exactly 1"
            )
        return int(loops[0])

    def copy(self) -> "LinkedList":
        """Deep copy (used by tests asserting restoration invariants)."""
        return LinkedList(self.next.copy(), self.head, self.values.copy())


def _resolve_rng(
    rng: np.random.Generator | int | None,
) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)


def from_order(order: np.ndarray, values: np.ndarray | None = None) -> LinkedList:
    """Build a list that visits node ``order[0]``, ``order[1]``, … in turn.

    ``order`` must be a permutation of ``0 … n−1``.  The tail
    (``order[-1]``) is given a self-loop.
    """
    order = np.asarray(order, dtype=INDEX_DTYPE)
    n = order.shape[0]
    nxt = np.empty(n, dtype=INDEX_DTYPE)
    nxt[order[:-1]] = order[1:]
    nxt[order[-1]] = order[-1]
    return LinkedList(nxt, int(order[0]), values)


def list_order(lst: LinkedList) -> np.ndarray:
    """Return the node indices of ``lst`` in list order (head first).

    This is the inverse of :func:`from_order`; it walks the list with a
    scalar loop and is intended for validation and small inputs.
    """
    n = lst.n
    order = np.empty(n, dtype=INDEX_DTYPE)
    cur = lst.head
    nxt = lst.next
    for k in range(n):
        order[k] = cur
        succ = int(nxt[cur])
        if succ == cur:
            if k != n - 1:
                raise ValueError(
                    f"reached tail after {k + 1} nodes; list claims n={n}"
                )
            break
        cur = succ
    else:  # pragma: no cover - loop always breaks or fills
        pass
    return order


def random_list(
    n: int,
    rng: np.random.Generator | int | None = None,
    values: np.ndarray | None = None,
) -> LinkedList:
    """A list whose memory layout is a uniformly random permutation.

    This is the paper's canonical workload: "we chose to use equally
    spaced positions and assumed that the linked lists are randomly
    ordered" (Section 3, ``Initialize``).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    gen = _resolve_rng(rng)
    order = gen.permutation(n).astype(INDEX_DTYPE)
    return from_order(order, values)


def ordered_list(n: int, values: np.ndarray | None = None) -> LinkedList:
    """A list laid out sequentially in memory: node ``i`` links to ``i+1``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    nxt = np.arange(1, n + 1, dtype=INDEX_DTYPE)
    nxt[-1] = n - 1
    return LinkedList(nxt, 0, values)


def reversed_list(n: int, values: np.ndarray | None = None) -> LinkedList:
    """A list laid out in reverse memory order: node ``i`` links to ``i−1``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    nxt = np.arange(-1, n - 1, dtype=INDEX_DTYPE)
    nxt[0] = 0
    return LinkedList(nxt, n - 1, values)


def blocked_list(
    n: int,
    block: int,
    rng: np.random.Generator | int | None = None,
    values: np.ndarray | None = None,
) -> LinkedList:
    """A ``block``-local list: list order is random *within* consecutive
    memory blocks, while blocks themselves are visited in order.

    Models partially sorted data.  Each link jumps at most
    ``2·block − 1`` memory slots, so gathers are cache/bank friendly
    compared to :func:`random_list`.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if block < 1:
        raise ValueError("block must be >= 1")
    gen = _resolve_rng(rng)
    order = np.empty(n, dtype=INDEX_DTYPE)
    pos = 0
    for start in range(0, n, block):
        stop = min(start + block, n)
        width = stop - start
        order[pos : pos + width] = start + gen.permutation(width)
        pos += width
    return from_order(order, values)


def pathological_bank_list(
    n: int,
    stride: int,
    values: np.ndarray | None = None,
) -> LinkedList:
    """A list whose traversal gathers with a fixed memory stride.

    The list order visits indices ``0, stride, 2·stride, … (mod n)``
    (with the residue classes concatenated), so a vector gather along
    the list hits memory banks in a fixed pattern.  When ``stride`` is
    a multiple of the simulated machine's bank count every access in a
    vector strip lands on the same bank — the worst case discussed in
    Section 3 ("Bad choices for k can result in the same memory bank
    being accessed at a rate higher than the cycle time").
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    cols = np.arange(stride, dtype=INDEX_DTYPE)
    order = np.concatenate(
        [np.arange(c, n, stride, dtype=INDEX_DTYPE) for c in cols]
    )
    return from_order(order, values)


def random_values(
    n: int,
    rng: np.random.Generator | int | None = None,
    low: int = -1000,
    high: int = 1000,
    dtype: np.dtype = np.int64,
) -> np.ndarray:
    """Uniform random integer node values in ``[low, high)``."""
    gen = _resolve_rng(rng)
    return gen.integers(low, high, size=n, dtype=np.int64).astype(dtype)


def unit_values(n: int, dtype: np.dtype = np.int64) -> np.ndarray:
    """All-ones values: scanning these with ``+`` yields list ranks."""
    return np.ones(n, dtype=dtype)
