"""Working-set sharding and batch fusion.

Fusing makes many independent lists one *forest* — the
:class:`~repro.core.forest.Forest` of ``core.forest``, one member per
request — so a single vectorized pass scans them all.  This is the
paper's multi-list trick applied across requests: the virtual
processors never cared that the sublists came from one list, and they
do not care that these come from different callers.  Fusing copies
nothing: each member stays in its request's own arrays, and the batch
keeps only their offsets and heads.  The scan copies each member once
into its records and writes each member's result into that request's
own result array; only the paths that need one node array (the
``processes`` executor's shared-memory export, the sharded scan, and
Wyllie) build it, straight from the members.

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

from ..core.forest import Forest
from ..core.operators import Operator
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
    not share one forest (their values could not share one record
    array).
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
    """A shard's requests as one forest, without concatenating them.

    ``forest`` has one member per request, over the request's own
    arrays.  List *k* occupies the index range ``[offsets[k],
    offsets[k+1])`` of the forest's coordinates and keeps its self-loop
    tail; ``heads[k]`` is its head in those coordinates.
    """

    requests: list[ScanRequest]
    forest: Forest
    op: Operator
    inclusive: bool

    @classmethod
    def fuse(cls, requests: Sequence[ScanRequest]) -> "FusedBatch":
        """Make the requests' lists one forest.

        All requests must share the operator (by name), the inclusive
        flag and the value dtype — i.e. come from one shard.  Each head
        is checked against its own list here; each successor is checked
        against its own list by whichever kernel reads it, so no
        successor reaches into a neighbour's block.
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
        return cls(
            requests=list(requests),
            forest=Forest.of_lists([req.lst for req in requests]),
            op=op,
            inclusive=bool(first.inclusive),
        )

    @property
    def heads(self) -> np.ndarray:
        return self.forest.heads

    @property
    def offsets(self) -> np.ndarray:
        return self.forest.offsets

    @property
    def n_nodes(self) -> int:
        return self.forest.n

    @property
    def n_lists(self) -> int:
        return len(self.requests)

    def unfuse(self, out: np.ndarray) -> list[np.ndarray]:
        """Slice a result over the whole forest (the sharded scan's)
        back into per-request results.

        Returns copies, so the (large) forest-wide array does not stay
        alive through views held by callers or the result cache; a
        batch of one hands ``out`` itself back.
        """
        if self.n_lists == 1:
            return [out]
        return [out[block].copy() for block in self.forest.slices()]
