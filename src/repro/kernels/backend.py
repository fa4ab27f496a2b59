"""Pluggable kernel backends for the hot scan loops.

A :class:`KernelBackend` implements the three hottest kernels of the
sublist algorithm — the Phase-1/Phase-3 lock-step gather traversal, the
schedule-driven pack/compress, and the Phase-2 reduced-list scan —
behind one interface, so ``core.forest`` (which ``core.sublist`` wraps
for one list) stays the single implementation of the *algorithm* while
the inner loops swap:

``numpy``
    The reference: exactly the array expressions the core modules have
    always run (it *is* those expressions, hoisted behind the
    interface).  Always available; the universal fallback.  Supports
    every operator, including unregistered custom ones.
``numba``
    The compiled loops of ``kernels.loops`` under ``numba.njit``.
    Auto-selected when numba is importable.  Requires a
    pair-formulated operator (``kernels.pairs``) and a signed-integer
    or float dtype; anything else falls back to ``numpy`` per call
    site.
``python``
    The *same* loop source, interpreted.  Far slower than ``numpy`` —
    it exists so the compiled code path (loop bodies, pack compaction,
    blocked Phase-2 scan) is exercised by tests on hosts without
    numba, not for production use.

Selection precedence: explicit argument (``Engine(kernel_backend=…)``,
``list_scan(kernel_backend=…)``, ``--kernel-backend``) beats the
``REPRO_KERNEL_BACKEND`` environment variable, which beats
auto-detection (numba if importable, else numpy).

Calling convention: ``nxt``/``values`` are the two field views of the
scan's record array (``core.forest``), one ``(next, value)`` record
per node plus a last *sink* record, a self-loop; sublist tails are
self-loops in Phase 1.  Before Phase 3 every sublist tail points at
the sink.  Each Phase-3 step reads a node's value, writes the node's
exclusive scan over it, folds what it read and points the node at the
sink; a processor past its tail stands on the sink and must fold
nothing but the identity (the numpy backend resets the sink's value
every step, the loops stop there).  ``pack_phase3`` retires the
processors whose successor is the sink, writing the scan of one still
standing on its tail.  ``reduced_scan`` must cover all ``m`` sublists.

Traversal/pack methods *return* the (possibly rebound) live arrays.
The numpy backend rebinds fresh arrays; the loop backends mutate in
place and return compacted views.  Callers must therefore treat the
returned arrays as owning and never alias the inputs afterwards.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any

import numpy as np

from ..analysis.cost_model import KernelCosts
from ..core.operators import Operator
from ..lists.generate import INDEX_DTYPE
from .loops import BLOCK, HAVE_NUMBA, jit_kernels, py_kernels
from .pairs import PairSpec, pair_for

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "PythonLoopBackend",
    "NumbaBackend",
    "available_backends",
    "default_backend_name",
    "resolve_backend",
    "ENV_VAR",
]

#: Environment variable consulted when no explicit backend is given.
ENV_VAR = "REPRO_KERNEL_BACKEND"


class KernelBackend:
    """Interface for the three hot kernels (see module docstring)."""

    #: Registry key; also what ``_FusedTask`` ships to worker processes.
    name: str = "abstract"
    #: True when the loops are machine-compiled (drives cost scaling).
    compiled: bool = False
    #: Whether :meth:`reduced_scan` implements the blocked Phase-2 scan.
    has_blocked_scan: bool = False
    #: Per-backend calibration of the Section 3/4 coefficients: the
    #: factor applied to the per-element rank-step slopes (Phase 1/3
    #: traversal, the model's ``a``) and to the pack slopes (``c``).
    #: 1.0 means "the reference machine the table was calibrated for".
    rank_step_scale: float = 1.0
    pack_scale: float = 1.0

    def supports(self, op: Operator, values: np.ndarray) -> bool:
        """Whether this backend can run ``op`` over ``values``."""
        raise NotImplementedError

    def scaled_costs(self, costs: KernelCosts) -> KernelCosts:
        """``costs`` with this backend's calibration factors applied."""
        if self.rank_step_scale == 1.0 and self.pack_scale == 1.0:
            return costs
        return replace(
            costs,
            initial_rank_per_elem=costs.initial_rank_per_elem
            * self.rank_step_scale,
            final_rank_per_elem=costs.final_rank_per_elem
            * self.rank_step_scale,
            initial_pack_per_elem=costs.initial_pack_per_elem * self.pack_scale,
            final_pack_per_elem=costs.final_pack_per_elem * self.pack_scale,
        )

    # -- Phase 1/3 lock-step traversal ---------------------------------

    def traverse_phase1(
        self,
        nxt: np.ndarray,
        values: np.ndarray,
        vp_next: np.ndarray,
        vp_sum: np.ndarray,
        gap: int,
        op: Operator,
    ) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def traverse_phase3(
        self,
        nxt: np.ndarray,
        values: np.ndarray,
        vp_next: np.ndarray,
        vp_sum: np.ndarray,
        gap: int,
        op: Operator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Write each visited node's scan over its value (see module doc)."""
        raise NotImplementedError

    # -- pack/compress --------------------------------------------------

    def pack_phase1(
        self,
        nxt: np.ndarray,
        vp_next: np.ndarray,
        vp_sum: np.ndarray,
        vp_proc: np.ndarray,
        sl_sum: np.ndarray,
        sl_tail: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Scatter finished sublists out, compact the live set.

        Returns ``(vp_next, vp_sum, vp_proc, finished_count)``.
        """
        raise NotImplementedError

    def pack_phase3(
        self,
        nxt: np.ndarray,
        values: np.ndarray,
        vp_next: np.ndarray,
        vp_sum: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Retire the processors on their tail or the sink, compact.

        A processor standing on its tail writes its scan there first.
        """
        raise NotImplementedError

    # -- Phase-2 reduced scan -------------------------------------------

    def reduced_scan(
        self,
        sl_next: np.ndarray,
        sl_sum: np.ndarray,
        heads: np.ndarray,
        carries: np.ndarray | None,
        op: Operator,
        out: np.ndarray,
    ) -> None:
        """Blocked exclusive scan of the reduced chains into ``out``.

        Only meaningful when :attr:`has_blocked_scan` is true; callers
        keep the historical serial/Wyllie/recursive dispatch otherwise.
        """
        raise NotImplementedError


class NumpyBackend(KernelBackend):
    """The reference backend: the historical inline NumPy expressions.

    Bit-for-bit the computation the sublist scan (``core.forest``) always
    performed — the golden results every other backend is tested
    against.
    """

    name = "numpy"

    def supports(self, op: Operator, values: np.ndarray) -> bool:
        return True

    def traverse_phase1(
        self,
        nxt: np.ndarray,
        values: np.ndarray,
        vp_next: np.ndarray,
        vp_sum: np.ndarray,
        gap: int,
        op: Operator,
    ) -> tuple[np.ndarray, np.ndarray]:
        for _ in range(gap):
            vp_sum = op.combine(vp_sum, values[vp_next])
            vp_next = nxt[vp_next]
        return vp_next, vp_sum

    def traverse_phase3(
        self,
        nxt: np.ndarray,
        values: np.ndarray,
        vp_next: np.ndarray,
        vp_sum: np.ndarray,
        gap: int,
        op: Operator,
    ) -> tuple[np.ndarray, np.ndarray]:
        sink = values.shape[0] - 1
        ident = op.identity_for(values.dtype)
        for _ in range(gap):
            values[sink] = ident  # what a processor past its tail folds
            v = values[vp_next]
            values[vp_next] = vp_sum
            vp_sum = op.combine(vp_sum, v)
            nxt[vp_next], vp_next = sink, nxt[vp_next]  # mark visited, step
        return vp_next, vp_sum

    def pack_phase1(
        self,
        nxt: np.ndarray,
        vp_next: np.ndarray,
        vp_sum: np.ndarray,
        vp_proc: np.ndarray,
        sl_sum: np.ndarray,
        sl_tail: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        done = vp_next == nxt[vp_next]
        finished = vp_proc[done]
        sl_sum[finished] = vp_sum[done]
        sl_tail[finished] = vp_next[done]
        keep = ~done
        return vp_next[keep], vp_sum[keep], vp_proc[keep], int(finished.size)

    def pack_phase3(
        self,
        nxt: np.ndarray,
        values: np.ndarray,
        vp_next: np.ndarray,
        vp_sum: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        done = nxt[vp_next] == nxt.shape[0] - 1  # on a tail or the sink
        if np.any(done):
            values[vp_next[done]] = vp_sum[done]  # tails get their final scan
            keep = ~done
            vp_next = vp_next[keep]
            vp_sum = vp_sum[keep]
        return vp_next, vp_sum


class _LoopBackendBase(KernelBackend):
    """Shared implementation for the interpreted and compiled loops."""

    has_blocked_scan = True

    def kernels(self) -> dict[str, Any]:
        raise NotImplementedError

    def supports(self, op: Operator, values: np.ndarray) -> bool:
        spec = pair_for(op)
        if spec is None:
            return False
        if spec.width == 2 and not (
            values.ndim == 2 and values.shape[-1] == 2
        ):
            return False
        if spec.width == 1 and values.ndim != 1:
            return False
        kind = values.dtype.kind
        if kind == "f":
            return not spec.integer_only()
        # unsigned stays on the numpy path: the shared loop source casts
        # bitwise operands through int64, which overflows for uint64
        # when interpreted.
        return kind == "i"

    def _spec(self, op: Operator) -> PairSpec:
        spec = pair_for(op)
        if spec is None:  # pragma: no cover - supports() gates upstream
            raise RuntimeError(
                f"operator {op.name!r} has no pair formulation; the caller "
                "must check backend.supports() first"
            )
        return spec

    def traverse_phase1(
        self,
        nxt: np.ndarray,
        values: np.ndarray,
        vp_next: np.ndarray,
        vp_sum: np.ndarray,
        gap: int,
        op: Operator,
    ) -> tuple[np.ndarray, np.ndarray]:
        spec = self._spec(op)
        k = self.kernels()
        if spec.width == 1:
            k["phase1_traverse"](nxt, values, vp_next, vp_sum, gap, spec.companion)
        else:
            k["phase1_traverse_pair"](
                nxt, values, vp_next, vp_sum, gap,
                spec.companion, spec.cross, spec.plus,
            )
        return vp_next, vp_sum

    def traverse_phase3(
        self,
        nxt: np.ndarray,
        values: np.ndarray,
        vp_next: np.ndarray,
        vp_sum: np.ndarray,
        gap: int,
        op: Operator,
    ) -> tuple[np.ndarray, np.ndarray]:
        spec = self._spec(op)
        k = self.kernels()
        if spec.width == 1:
            k["phase3_traverse"](nxt, values, vp_next, vp_sum, gap, spec.companion)
        else:
            k["phase3_traverse_pair"](
                nxt, values, vp_next, vp_sum, gap,
                spec.companion, spec.cross, spec.plus,
            )
        return vp_next, vp_sum

    def pack_phase1(
        self,
        nxt: np.ndarray,
        vp_next: np.ndarray,
        vp_sum: np.ndarray,
        vp_proc: np.ndarray,
        sl_sum: np.ndarray,
        sl_tail: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        k = self.kernels()
        total = vp_next.shape[0]
        if vp_sum.ndim == 2:
            live = k["pack_phase1_pair"](
                nxt, vp_next, vp_sum, vp_proc, sl_sum, sl_tail
            )
        else:
            live = k["pack_phase1"](
                nxt, vp_next, vp_sum, vp_proc, sl_sum, sl_tail
            )
        live = int(live)
        return (
            vp_next[:live],
            vp_sum[:live],
            vp_proc[:live],
            total - live,
        )

    def pack_phase3(
        self,
        nxt: np.ndarray,
        values: np.ndarray,
        vp_next: np.ndarray,
        vp_sum: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        k = self.kernels()
        if vp_sum.ndim == 2:
            live = int(k["pack_phase3_pair"](nxt, values, vp_next, vp_sum))
        else:
            live = int(k["pack_phase3"](nxt, values, vp_next, vp_sum))
        return vp_next[:live], vp_sum[:live]

    def reduced_scan(
        self,
        sl_next: np.ndarray,
        sl_sum: np.ndarray,
        heads: np.ndarray,
        carries: np.ndarray | None,
        op: Operator,
        out: np.ndarray,
    ) -> None:
        spec = self._spec(op)
        k = self.kernels()
        m = sl_next.shape[0]
        n_lists = heads.shape[0]
        dtype = sl_sum.dtype
        ident = op.identity_for(dtype)
        order = np.empty(m, dtype=INDEX_DTYPE)
        if spec.width == 1:
            seeds = np.empty(n_lists, dtype=dtype)
            seeds[:] = carries if carries is not None else ident
            ordered = np.empty(m, dtype=dtype)
            scanned = np.empty(m, dtype=dtype)
            temp = np.empty(BLOCK, dtype=dtype)
            rc = k["reduced_scan"](
                sl_next, sl_sum, seeds, heads, dtype.type(ident),
                spec.companion, BLOCK, out, order, ordered, scanned, temp,
            )
        else:
            ident = np.asarray(ident, dtype=dtype)
            seeds = np.empty((n_lists, 2), dtype=dtype)
            seeds[:] = carries if carries is not None else ident
            ordered = np.empty((m, 2), dtype=dtype)
            scanned = np.empty((m, 2), dtype=dtype)
            temp = np.empty((BLOCK, 2), dtype=dtype)
            rc = k["reduced_scan_pair"](
                sl_next, sl_sum, seeds, heads,
                dtype.type(ident[0]), dtype.type(ident[1]),
                spec.companion, spec.cross, spec.plus,
                BLOCK, out, order, ordered, scanned, temp,
            )
        if rc != 0:
            from ..lists.validate import ListStructureError

            raise ListStructureError(
                "the reduced chains do not terminate or do not cover every "
                "sublist; the successor array appears to contain a cycle"
            )


class PythonLoopBackend(_LoopBackendBase):
    """The loop kernels, interpreted (testing build — slow).

    Runs the exact source the numba backend compiles, so the compiled
    code path is testable on hosts without numba.  Not calibrated:
    routing coefficients are left at the reference values.
    """

    name = "python"

    def kernels(self) -> dict[str, Any]:
        return py_kernels()


class NumbaBackend(_LoopBackendBase):
    """The loop kernels under ``numba.njit``.

    The 0.25 rank/pack factors are a documented rough estimate of the
    compiled loops versus the one-array-op-per-step NumPy path (the
    gather traversal fuses gather+fold+follow into one pass; packing
    fuses mask+scatter+three compactions into one).  The bench harness
    records the *measured* ratio per host (`benchmarks/bench_kernels.py`)
    — it is recorded, never asserted.
    """

    name = "numba"
    compiled = True
    rank_step_scale = 0.25
    pack_scale = 0.25

    def kernels(self) -> dict[str, Any]:
        return jit_kernels()


_NUMPY = NumpyBackend()
_PYTHON = PythonLoopBackend()
_NUMBA = NumbaBackend()

_REGISTRY: dict[str, KernelBackend] = {
    _NUMPY.name: _NUMPY,
    _PYTHON.name: _PYTHON,
    _NUMBA.name: _NUMBA,
}


def available_backends() -> tuple[str, ...]:
    """Backend names usable on this host."""
    names = ["numpy", "python"]
    if HAVE_NUMBA:
        names.append("numba")
    return tuple(names)


def default_backend_name() -> str:
    """Auto-detected default: numba when importable, else numpy."""
    return "numba" if HAVE_NUMBA else "numpy"


def resolve_backend(
    backend: str | KernelBackend | None = None,
) -> KernelBackend:
    """Resolve a backend selection to an instance.

    Precedence: explicit ``backend`` argument → ``REPRO_KERNEL_BACKEND``
    environment variable → auto-detection.
    """
    if isinstance(backend, KernelBackend):
        return backend
    name = backend or os.environ.get(ENV_VAR) or default_backend_name()
    name = name.strip().lower()
    if name == "numba" and not HAVE_NUMBA:
        raise ValueError(
            "kernel backend 'numba' requested but numba is not importable; "
            f"available backends: {', '.join(available_backends())}"
        )
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; "
            f"available backends: {', '.join(available_backends())}"
        ) from None
