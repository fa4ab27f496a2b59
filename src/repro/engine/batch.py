"""Working-set sharding and batch fusion.

Fusing concatenates the node arrays of many independent lists into one
shared array — exactly the *forest* representation of
``core.forest`` — so a single vectorized pass scans them all.  This is
the paper's multi-list trick applied across requests: the virtual
processors never cared that the sublists came from one list, and they
do not care that these come from different callers.

Why a cap?  Length skew costs the sublist kernel no vector width: a
sublist ends at a splitter or a tail, whichever list it came from, and
the pack schedule retires the short ones (Section 2.4).  Locality is
what fusion can cost, since a fused forest is one working set: on a
2-vCPU Xeon host a 2^21- and a 2^20-node list cost 94.7 ns/elem fused
into one shard and 81.8 as two.  So :func:`shard_requests` packs the
requests that share a :func:`shard_key` (operator, inclusive flag,
value dtype and shape, forced algorithm) into shards of at most
:data:`FUSE_NODES` nodes, and a longer list runs alone.  The cap plays
the cache-sized block of the PEM analysis (Jacob, Lieber and
Sitchinava); of 2^16–2^20 on that host, 2^20 ran a Zipf mix of
64–65,536-node lists fastest (38.9 ns/elem against 43.1 at 2^18).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..core.operators import Operator
from ..lists.generate import INDEX_DTYPE
from ..lists.validate import check_range
from .queue import ScanRequest

__all__ = ["FUSE_NODES", "shard_key", "shard_requests", "FusedBatch"]

#: Most nodes one fused shard holds; a longer list runs alone.
FUSE_NODES = 1 << 20

ShardKey = tuple[str, tuple[int, ...], bool, str, str]


def shard_key(request: ScanRequest) -> ShardKey:
    """Grouping key under which requests may fuse into one batch.

    The key uses the values' actual trailing shape rather than the
    operator's advertised ``value_width``: if a custom operator's
    metadata disagrees with the arrays it is handed, the requests must
    not be concatenated into one forest (the fused assignment would
    broadcast or raise mid-shard).
    """
    op: Operator = request.op  # normalized by ScanRequest.__post_init__
    return (
        op.name,
        tuple(request.lst.values.shape[1:]),
        bool(request.inclusive),
        request.lst.values.dtype.str,
        request.algorithm,
    )


def shard_requests(requests: Sequence[ScanRequest]) -> list[list[ScanRequest]]:
    """Pack requests into fusable shards of at most :data:`FUSE_NODES` nodes.

    A request joins its key's open shard unless that would take the
    shard past the cap; then it opens a new one.  Shards come back in
    the order they opened, each in arrival order.
    """
    shards: list[list[ScanRequest]] = []
    open_shards: dict[ShardKey, list[ScanRequest]] = {}
    open_nodes: dict[ShardKey, int] = {}
    for req in requests:
        key = shard_key(req)
        if key in open_shards and open_nodes[key] + req.n <= FUSE_NODES:
            open_shards[key].append(req)
            open_nodes[key] += req.n
        else:
            open_shards[key] = [req]
            open_nodes[key] = req.n
            shards.append(open_shards[key])
    return shards


@dataclass
class FusedBatch:
    """Many independent lists concatenated into one forest problem.

    ``nxt``/``values`` are fresh arrays concatenated from the
    requests' own, except that a batch of one holds its request's own
    arrays: the forest scan only reads them.  List *k* occupies the
    index range ``[offsets[k], offsets[k+1])`` and keeps its self-loop
    tail; ``heads[k]`` is its head in fused coordinates.
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
        flag and the value dtype — i.e. come from one shard.  Each
        member is range-checked on its own, so no successor reaches
        into a neighbour's block.
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
        for req in requests:
            check_range(req.lst.next, [req.lst.head])
        sizes = np.asarray([req.n for req in requests], dtype=INDEX_DTYPE)
        offsets = np.zeros(len(requests) + 1, dtype=INDEX_DTYPE)
        np.cumsum(sizes, out=offsets[1:])
        heads = offsets[:-1] + np.asarray(
            [req.lst.head for req in requests], dtype=INDEX_DTYPE
        )
        if len(requests) == 1:
            nxt, values = first.lst.next, first.lst.values
        else:
            nxt = np.empty(int(offsets[-1]), dtype=INDEX_DTYPE)
            values = np.empty(
                (int(offsets[-1]),) + first.lst.values.shape[1:],
                dtype=first.lst.values.dtype,
            )
            for k, req in enumerate(requests):
                lo, hi = int(offsets[k]), int(offsets[k + 1])
                nxt[lo:hi] = req.lst.next + lo
                values[lo:hi] = req.lst.values
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
        through views held by callers or the result cache; a batch of
        one hands ``out`` itself back.
        """
        if self.n_lists == 1:
            return [out]
        return [
            out[int(self.offsets[k]) : int(self.offsets[k + 1])].copy()
            for k in range(self.n_lists)
        ]
