"""Configuration for the sharded / out-of-core list-ranking path.

The distributed path exists for problems that dwarf one worker's
memory (ROADMAP: Sanders/Schimek/Uhl/Weidmann's three-phase shape;
Jacob/Lieber/Sitchinava's PEM model for the out-of-core variant), so
its knobs are *capacity* knobs: a memory budget for the resident
working set, a chunk size carved out of that budget, and the node
count above which the engine stops fusing in one kernel and starts
chunking.  Everything derives from ``memory_budget_bytes`` unless
pinned explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DistributedConfig", "DEFAULT_MEMORY_BUDGET_BYTES"]

#: Default resident-set budget for one sharded scan: chunk buffers in
#: flight (parent + leases) must fit inside this.
DEFAULT_MEMORY_BUDGET_BYTES = 256 << 20

#: Scratch multiplier per resident node: successor + value + output
#: buffers plus kernel temporaries (pack schedule, tails, prefix).
_WORKING_SET_FACTOR = 4

#: Chunks smaller than this lose more to dispatch than they gain from
#: parallelism; the planner never goes below it (except n itself).
_MIN_CHUNK_NODES = 1024


@dataclass(frozen=True)
class DistributedConfig:
    """Tuning for :func:`repro.distribute.sharded_forest_scan`.

    ``memory_budget_bytes``
        Bound on the resident working set of one sharded scan — chunk
        copies, shared-memory leases and reduced-list scratch.  The
        planner sizes chunks so ``max_inflight`` of them fit.
    ``chunk_nodes`` / ``num_chunks``
        Pin the partition explicitly (``num_chunks`` wins); ``None``
        derives from the budget and the backend width.
    ``min_nodes``
        Engine routing threshold: auto-routed shards of at least this
        many nodes go through the sharded path.  ``None`` derives it
        from the budget (shard when the whole working set would blow
        it); ``0`` shards everything (tests / CLI demos).  A fused
        shard holds at most ``engine.batch.FUSE_NODES`` nodes, so a
        threshold above that cap routes only lone oversized lists.
    ``max_inflight``
        Chunks resident at once (drives lease-pool admission).
        ``None`` → backend width.
    """

    memory_budget_bytes: int = DEFAULT_MEMORY_BUDGET_BYTES
    chunk_nodes: int | None = None
    num_chunks: int | None = None
    min_nodes: int | None = None
    max_inflight: int | None = None

    def __post_init__(self) -> None:
        if self.memory_budget_bytes < 1:
            raise ValueError("memory_budget_bytes must be positive")
        if self.chunk_nodes is not None and self.chunk_nodes < 1:
            raise ValueError("chunk_nodes must be positive when given")
        if self.num_chunks is not None and self.num_chunks < 1:
            raise ValueError("num_chunks must be positive when given")
        if self.min_nodes is not None and self.min_nodes < 0:
            raise ValueError("min_nodes must be >= 0 when given")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError("max_inflight must be positive when given")

    def bytes_per_node(self, value_dtype: np.dtype) -> int:
        """Resident bytes one node costs while its chunk is in flight."""
        index_bytes = 8  # INDEX_DTYPE is int64
        return _WORKING_SET_FACTOR * (index_bytes + 2 * np.dtype(value_dtype).itemsize)

    def resolve_inflight(self, workers: int) -> int:
        return self.max_inflight if self.max_inflight is not None else max(1, workers)

    def resolve_num_chunks(self, n: int, value_dtype: np.dtype, workers: int) -> int:
        """How many chunks to carve ``n`` nodes into."""
        if n <= 0:
            return 1
        if self.num_chunks is not None:
            return int(min(self.num_chunks, max(1, n)))
        if self.chunk_nodes is not None:
            return int(max(1, -(-n // self.chunk_nodes)))
        # budget-derived: max_inflight chunks must fit the budget...
        inflight = self.resolve_inflight(workers)
        per_node = self.bytes_per_node(value_dtype)
        budget_chunk = max(_MIN_CHUNK_NODES, self.memory_budget_bytes // (per_node * inflight))
        chunks_for_budget = -(-n // budget_chunk)
        # ...but never fewer chunks than workers when the problem is
        # big enough to split usefully
        if n >= 2 * _MIN_CHUNK_NODES * workers:
            chunks_for_budget = max(chunks_for_budget, workers)
        return int(max(1, chunks_for_budget))

    def resolved_min_nodes(self, value_dtype: np.dtype) -> int:
        """Node count above which the engine routes to the sharded path."""
        if self.min_nodes is not None:
            return self.min_nodes
        return int(self.memory_budget_bytes // self.bytes_per_node(value_dtype))

    def should_shard(self, n_nodes: int, value_dtype: np.dtype) -> bool:
        """Capacity routing: shard when the fused working set would
        overrun the budget (PEM-style), not on predicted latency."""
        return n_nodes >= self.resolved_min_nodes(value_dtype)
