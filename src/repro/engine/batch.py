"""Size-class sharding and batch fusion.

Fusing concatenates the node arrays of many independent lists into one
shared array — exactly the *forest* representation of
``core.forest`` — so a single vectorized pass scans them all.  This is
the paper's multi-list trick applied across requests: the virtual
processors never cared that the sublists came from one list, and they
do not care that these come from different callers.

Why size classes?  A fused batch traverses lists in lock step, so the
vector stays full only while every list still has nodes left.  One
million-node list fused with sixty tiny ones would leave the vector
almost empty for most of the walk — the exact pathology the paper's
pack schedule exists to fight.  Sharding requests into geometric size
classes (powers of ``base``, default 2) keeps the per-batch length
skew bounded by ``base``, so fused executions stay near full width.

Requests can only fuse when they agree on the operator, the
inclusive/exclusive flag, the value dtype/width and the (possibly
forced) algorithm; :func:`shard_requests` groups by exactly that key
plus the size class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..core.operators import Operator
from ..lists.generate import INDEX_DTYPE
from ..lists.validate import check_range
from .queue import ScanRequest

__all__ = ["size_class", "shard_key", "shard_requests", "FusedBatch"]

#: Geometric growth factor between size classes.
DEFAULT_SIZE_CLASS_BASE = 2.0

ShardKey = tuple[int, str, tuple[int, ...], bool, str, str]


def size_class(n: int, base: float = DEFAULT_SIZE_CLASS_BASE) -> int:
    """Geometric size-class index of an ``n``-node list.

    Class ``k`` holds lengths in ``(base**(k-1), base**k]``; lengths 0
    and 1 map to class 0.  Within one class the longest/shortest ratio
    is at most ``base``, which bounds vector-width loss in a fused
    lock-step traversal.
    """
    if base <= 1.0:
        raise ValueError("size-class base must be > 1")
    if n <= 1:
        return 0
    return int(math.ceil(math.log(n, base) - 1e-9))


def shard_key(
    request: ScanRequest, base: float = DEFAULT_SIZE_CLASS_BASE
) -> ShardKey:
    """Grouping key under which requests may fuse into one batch.

    The key uses the values' actual trailing shape rather than the
    operator's advertised ``value_width``: if a custom operator's
    metadata disagrees with the arrays it is handed, the requests must
    not be concatenated into one forest (the fused assignment would
    broadcast or raise mid-shard).
    """
    op: Operator = request.op  # normalized by ScanRequest.__post_init__
    return (
        size_class(request.n, base),
        op.name,
        tuple(request.lst.values.shape[1:]),
        bool(request.inclusive),
        request.lst.values.dtype.str,
        request.algorithm,
    )


def shard_requests(
    requests: Sequence[ScanRequest],
    base: float = DEFAULT_SIZE_CLASS_BASE,
) -> dict[ShardKey, list[ScanRequest]]:
    """Group requests into fusable shards (insertion order preserved)."""
    shards: dict[ShardKey, list[ScanRequest]] = {}
    for req in requests:
        shards.setdefault(shard_key(req, base), []).append(req)
    return shards


@dataclass
class FusedBatch:
    """Many independent lists concatenated into one forest problem.

    ``nxt``/``values`` are fresh arrays concatenated from the
    requests' own; the forest scan only reads them.  List *k* occupies
    the index range ``[offsets[k], offsets[k+1])`` and keeps its
    self-loop tail; ``heads[k]`` is its head in fused coordinates.
    """

    requests: list[ScanRequest]
    nxt: np.ndarray
    values: np.ndarray
    heads: np.ndarray
    offsets: np.ndarray  # length n_lists + 1
    op: Operator
    inclusive: bool

    @classmethod
    def fuse(cls, requests: Sequence[ScanRequest]) -> "FusedBatch":
        """Concatenate the requests' lists into one forest.

        All requests must share the operator (by name), the inclusive
        flag and the value dtype — i.e. come from one shard.
        """
        if not requests:
            raise ValueError("cannot fuse an empty batch")
        first = requests[0]
        op: Operator = first.op
        for req in requests[1:]:
            if (
                req.op.name != op.name
                or bool(req.inclusive) != bool(first.inclusive)
                or req.lst.values.dtype != first.lst.values.dtype
            ):
                raise ValueError(
                    "fused requests must share operator, inclusive flag "
                    "and value dtype; shard before fusing"
                )
        sizes = np.asarray([req.n for req in requests], dtype=INDEX_DTYPE)
        offsets = np.zeros(len(requests) + 1, dtype=INDEX_DTYPE)
        np.cumsum(sizes, out=offsets[1:])
        nxt = np.empty(int(offsets[-1]), dtype=INDEX_DTYPE)
        values = np.empty(
            (int(offsets[-1]),) + first.lst.values.shape[1:],
            dtype=first.lst.values.dtype,
        )
        heads = np.empty(len(requests), dtype=INDEX_DTYPE)
        for k, req in enumerate(requests):
            lo, hi = int(offsets[k]), int(offsets[k + 1])
            check_range(req.lst.next, [req.lst.head])  # no link into a neighbour's block
            nxt[lo:hi] = req.lst.next + lo
            values[lo:hi] = req.lst.values
            heads[k] = req.lst.head + lo
        return cls(
            requests=list(requests),
            nxt=nxt,
            values=values,
            heads=heads,
            offsets=offsets,
            op=op,
            inclusive=bool(first.inclusive),
        )

    @property
    def n_nodes(self) -> int:
        return int(self.offsets[-1])

    @property
    def n_lists(self) -> int:
        return len(self.requests)

    def unfuse(self, out: np.ndarray) -> list[np.ndarray]:
        """Slice a fused result array back into per-request results.

        Returns copies, so the (large) fused array does not stay alive
        through views held by callers or the result cache.
        """
        return [
            out[int(self.offsets[k]) : int(self.offsets[k + 1])].copy()
            for k in range(self.n_lists)
        ]
