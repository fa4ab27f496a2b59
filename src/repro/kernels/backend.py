"""Pluggable kernel backends for the hot scan loops.

A :class:`KernelBackend` implements the three hottest kernels of the
sublist algorithm — the Phase-1 lock-step traversal, the
schedule-driven pack/compress, and the Phase-2 reduced-list scan —
behind one interface, so ``core.forest`` (which ``core.sublist`` wraps
for one list) stays the single implementation of the *algorithm* while
the inner loops swap:

``numpy``
    The reference: exactly the array expressions the core modules have
    always run (it *is* those expressions, hoisted behind the
    interface).  Always available; the universal fallback.  Supports
    every operator, including custom ones.
``numba``
    The compiled loops of ``kernels.loops`` under ``numba.njit``.
    Auto-selected when numba is importable.  Requires a builtin
    operator (the pair formulations of ``kernels.pairs``) and a
    signed-integer or float dtype; anything else falls back to
    ``numpy`` per call site.
``python``
    The *same* loop source, interpreted.  Far slower than ``numpy`` —
    a test fixture, so the compiled code path (loop bodies, pack
    compaction, blocked Phase-2 scan) is exercised on hosts without
    numba, not a production choice.

Selection: a process runs one backend, numba when importable, numpy
otherwise; the ``REPRO_KERNEL_BACKEND`` environment variable overrides
that (the CI legs run the python twin through it).  An engine resolves
it once, at construction, and ships its name to every worker task.
Only the kernel entries ``core.forest.forest_scan``/``forest_list_scan``
take a backend argument, which beats the variable; tests substitute the
python twin there.

Calling convention: ``nxt``/``values`` are the two field views of the
scan's record array (``core.forest``), one ``(next, value)`` record
per node plus a last *sink* record ``n``, a self-loop holding the
identity; every sublist tail points at the sink.  Each Phase-1 step of
processor ``p`` writes its running exclusive prefix over the node's
value and its *mark* ``n + 1 + p`` over the node's ``next``, folds the
value it read and steps to the old successor.  A processor on the sink
must fold nothing but the identity (the numpy backend resets the sink
every step, the loops stop there), and ``pack_phase1`` retires it.  A
successor past the sink is a mark: the node was visited before, so
chains merge or cycle, and the backend raises ``ListStructureError``.
``traverse_phase3`` is one streaming pass shared by every backend.
``reduced_scan`` must cover all ``m`` sublists.

Traversal/pack methods *return* the (possibly rebound) live arrays.
The numpy backend rebinds fresh arrays; the loop backends mutate in
place and return compacted views.  Callers must therefore treat the
returned arrays as owning and never alias the inputs afterwards.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import replace
from typing import Any

import numpy as np

from ..analysis.cost_model import KernelCosts
from ..core.operators import Operator
from ..lists.generate import INDEX_DTYPE
from ..lists.validate import ListStructureError
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

#: Records per block of the streaming passes (the Initialize copy and
#: Phase 3): a block's temporaries stay in cache.
STREAM_BLOCK = 1 << 15

#: What a Phase-1 processor that steps onto a mark has found.
REVISITED = "a chain reaches a node already visited: chains merge, or one runs into a cycle"


class KernelBackend:
    """Interface for the three hot kernels (see module docstring)."""

    #: Registry key (``REPRO_KERNEL_BACKEND`` names a backend by it).
    name: str = "abstract"
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

    # -- Phase 1 lock-step traversal and pack ---------------------------

    def traverse_phase1(
        self,
        nxt: np.ndarray,
        values: np.ndarray,
        vp_next: np.ndarray,
        vp_sum: np.ndarray,
        vp_proc: np.ndarray,
        gap: int,
        op: Operator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``gap`` steps of every live processor (see module doc)."""
        raise NotImplementedError

    def pack_phase1(
        self,
        sink: int,
        vp_next: np.ndarray,
        vp_sum: np.ndarray,
        vp_proc: np.ndarray,
        sl_sum: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Scatter the sums of the processors on the sink into ``sl_sum``,
        compact the live set.

        Returns ``(vp_next, vp_sum, vp_proc, finished_count)``.
        """
        raise NotImplementedError

    # -- Phase 3 ----------------------------------------------------------

    def traverse_phase3(
        self,
        nxt: np.ndarray,
        values: np.ndarray,
        carry: np.ndarray,
        op: Operator,
        outs: Sequence[np.ndarray],
        offsets: np.ndarray,
    ) -> None:
        """Expand the Phase-2 carries: ``out[i] = carry[p] ⊕ values[i]``,
        ``p`` the owner whose mark ``n + 1 + p`` Phase 1 left in
        ``nxt[i]``, each member's records ``[offsets[k], offsets[k + 1])``
        into its own ``outs[k]``.  One streaming pass, block by block, the
        same for every backend; a node without a mark was reached from no
        head, and the pass raises :class:`ListStructureError`."""
        mark = nxt.shape[0]  # n + 1: the sink is the last record
        for out, start in zip(outs, offsets.tolist()):
            size = out.shape[0]
            for lo in range(0, size, STREAM_BLOCK):
                hi = min(lo + STREAM_BLOCK, size)
                block = slice(start + lo, start + hi)
                owner = nxt[block] - mark
                if owner.min() < 0:
                    raise ListStructureError("a node is not reached from any head")
                if op.ufunc is not None:  # straight into out, no temporary to copy
                    op.ufunc(carry[owner], values[block], out=out[lo:hi])
                else:
                    out[lo:hi] = op.combine(carry[owner], values[block])

    def pack_phase3(self, *args: Any) -> None:
        """Never called: Phase 3 streams and has no pack.  The name stays
        because ``perfbench/layers.py`` patches every ``kernels.*`` hook
        it times through ``inspect.getattr_static``."""
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
        keep the Wyllie/recursive dispatch otherwise.
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
        vp_proc: np.ndarray,
        gap: int,
        op: Operator,
    ) -> tuple[np.ndarray, np.ndarray]:
        sink = nxt.shape[0] - 1
        ident = op.identity_for(values.dtype)
        mark = vp_proc + (sink + 1)
        for _ in range(gap):
            nxt[sink], values[sink] = sink, ident  # what a processor past its tail reads
            try:
                v = values[vp_next]
            except IndexError:  # a processor stepped onto a mark, past the sink
                raise ListStructureError(REVISITED) from None
            values[vp_next] = vp_sum  # the exclusive prefix within the sublist
            vp_sum = op.combine(vp_sum, v)
            succ = nxt[vp_next]
            nxt[vp_next] = mark
            vp_next = succ
        return vp_next, vp_sum

    def pack_phase1(
        self,
        sink: int,
        vp_next: np.ndarray,
        vp_sum: np.ndarray,
        vp_proc: np.ndarray,
        sl_sum: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        done = vp_next == sink
        finished = vp_proc[done]
        sl_sum[finished] = vp_sum[done]
        keep = ~done
        return vp_next[keep], vp_sum[keep], vp_proc[keep], int(finished.size)


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
        vp_proc: np.ndarray,
        gap: int,
        op: Operator,
    ) -> tuple[np.ndarray, np.ndarray]:
        spec = self._spec(op)
        k = self.kernels()
        if spec.width == 1:
            rc = k["phase1_traverse"](nxt, values, vp_next, vp_sum, vp_proc, gap, spec.companion)
        else:
            rc = k["phase1_traverse_pair"](
                nxt, values, vp_next, vp_sum, vp_proc, gap,
                spec.companion, spec.cross, spec.plus,
            )
        if rc != 0:
            raise ListStructureError(REVISITED)
        return vp_next, vp_sum

    def pack_phase1(
        self,
        sink: int,
        vp_next: np.ndarray,
        vp_sum: np.ndarray,
        vp_proc: np.ndarray,
        sl_sum: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        k = self.kernels()
        total = vp_next.shape[0]
        pack = k["pack_phase1_pair"] if vp_sum.ndim == 2 else k["pack_phase1"]
        live = int(pack(sink, vp_next, vp_sum, vp_proc, sl_sum))
        return vp_next[:live], vp_sum[:live], vp_proc[:live], total - live

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
    environment variable → auto-detection; ``None`` is the process's
    backend.
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
