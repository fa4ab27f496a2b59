"""The kernel backends: the hot scan loops, NumPy or compiled.

A backend implements the hottest kernels of the sublist algorithm —
the Initialize copy, the Phase-1 lock-step traversal, the
schedule-driven pack and the Phase-3 expansion — behind one set of
methods, so ``core.forest`` (which ``core.sublist`` wraps for one list)
stays the single implementation of the *algorithm* while the inner
loops swap:

``numpy``
    The reference: exactly the array expressions the core modules have
    always run (it *is* those expressions, hoisted behind the
    methods).  Always available; the universal fallback.  Supports
    every operator, including custom ones.
``c``
    Initialize, the Phase-1 traversal and the Phase-3 expansion as
    three C loops (``kernels/lockstep.c``), compiled once per host by
    the compiler Python was built with and called through ``ctypes``
    (``kernels.clib``), each one call over every forest member;
    everything else is the ``numpy`` code it inherits, so its results
    are numpy's bit for bit.  Phase 1 and Phase 3 cover the scalar
    builtin operators over int64, and ADD and MUL over float64;
    Initialize covers int64 successors with 8-byte scalar values;
    anything else runs on the inherited numpy code.

Selection: a process runs one backend, ``c`` when its library builds,
else numpy; the ``REPRO_KERNEL_BACKEND`` environment variable
overrides that (the CI legs force each of the two through it).  An
engine resolves it once, at construction.  Only the kernel entries
``core.forest.forest_scan``/``forest_list_scan`` take a backend
argument, which beats the variable; the tests compare the two there.

Calling convention: ``nxt``/``values`` are the two field views of the
scan's record array (``core.forest``), one ``(next, value)`` record
per node plus a last *sink* record ``n``, a self-loop holding the
identity; every sublist tail points at the sink.  Each Phase-1 step of
processor ``p`` writes its running exclusive prefix over the node's
value and its *mark* ``n + 1 + p`` over the node's ``next``, folds the
value it read and steps to the old successor.  Every live processor
takes a step before any takes the next (*step-major*, the lock step of
the paper's virtual processors).  A processor on the sink must fold
nothing but the identity (the numpy backend resets the sink every step,
the C loop leaves it there), and ``pack_phase1`` retires it.  A
successor past the sink is a mark: the node was visited before, so
chains merge or cycle, and the backend raises ``ListStructureError``.
``initialize`` and ``traverse_phase3`` are one streaming pass each.

Traversal/pack methods *return* the (possibly rebound) live arrays.
The numpy backend rebinds fresh arrays; the C loop writes in place.
Callers must therefore treat the returned arrays as owning and never
alias the inputs afterwards.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from typing import Any

import numpy as np

from ..core.operators import BUILTIN_OPERATORS, Operator
from ..lists.generate import INDEX_DTYPE
from ..lists.validate import ListStructureError, check_indices
from . import clib

__all__ = [
    "KernelBackend",
    "NumpyBackend",
    "CBackend",
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

#: What Phase 3 finds at a node without a mark.
UNREACHED = "a node is not reached from any head"

#: The C loops' opcode for each scalar builtin operator (the enum of
#: ``lockstep.c``).
OPCODES = {"sum": 0, "prod": 1, "min": 2, "max": 3, "xor": 4, "and": 5, "or": 6}

#: The opcodes the float64 loops take: ADD and MUL.
FLOAT_OPCODES = frozenset({OPCODES["sum"], OPCODES["prod"]})


class NumpyBackend:
    """The reference backend: the historical inline NumPy expressions.

    Bit-for-bit the computation the sublist scan (``core.forest``) always
    performed — the golden results the ``c`` backend is tested against
    — and the base class of every backend: one that replaces a hook
    falls back to this code for any call it does not cover.
    """

    #: Registry key (``REPRO_KERNEL_BACKEND`` names a backend by it).
    name = "numpy"

    def supports(self, op: Operator, values: np.ndarray) -> bool:
        """Whether this backend runs its own loops for ``op`` over
        ``values`` (the numpy reference runs everything)."""
        return True

    # -- Initialize -------------------------------------------------------

    def initialize(
        self,
        nexts: Sequence[np.ndarray],
        values: Sequence[np.ndarray],
        offsets: np.ndarray,
        rec_next: np.ndarray,
        rec_value: np.ndarray,
        n_lists: int,
    ) -> np.ndarray:
        """Copy every forest member into its block of the records and
        return the record index of every self-loop, the list tails, in
        record order.

        Member ``k`` (``nexts[k]``/``values[k]``) goes to the records
        from ``offsets[k]``, its offset added to each successor.  One
        streaming pass, block by block: while a block is in cache it is
        range-checked against its own member, so no successor reaches
        another member's block, and its self-loops found.  Raises
        :class:`ListStructureError`, naming the member-local
        ``next[i] = v``, at the first successor outside its member.
        ``n_lists`` is the self-loops the caller expects, which it
        checks; a C loop sizes its buffer by it.
        """
        ramp = np.arange(min(rec_next.shape[0] - 1, STREAM_BLOCK), dtype=INDEX_DTYPE)
        loops: list[np.ndarray] = []
        for nxt, member_values, start in zip(nexts, values, offsets.tolist()):
            size = nxt.shape[0]
            for lo in range(0, size, STREAM_BLOCK):
                hi = min(lo + STREAM_BLOCK, size)
                seg = nxt[lo:hi]
                check_indices("next", seg, size, lo)
                dest = slice(start + lo, start + hi)
                if start:
                    np.add(seg, start, out=rec_next[dest])
                else:  # a plain copy runs about twice as fast as adding 0
                    rec_next[dest] = seg
                rec_value[dest] = member_values[lo:hi]
                here = ramp[: hi - lo]  # a self-loop: seg[i] == lo + i
                hits = seg == here if lo == 0 else seg - here == lo
                loops.append(hits.nonzero()[0] + (start + lo))
        return np.concatenate(loops).astype(INDEX_DTYPE, copy=False)

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
        """Scatter the sums of the processors on the sink into ``sl_sum``,
        compact the live set.

        Returns ``(vp_next, vp_sum, vp_proc, finished_count)``.
        """
        done = vp_next == sink
        finished = vp_proc[done]
        sl_sum[finished] = vp_sum[done]
        keep = ~done
        return vp_next[keep], vp_sum[keep], vp_proc[keep], int(finished.size)

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
        into its own ``outs[k]``.  One streaming pass, block by block; a
        node without a mark was reached from no head, and the pass
        raises :class:`ListStructureError`."""
        mark = nxt.shape[0]  # n + 1: the sink is the last record
        for out, start in zip(outs, offsets.tolist()):
            size = out.shape[0]
            for lo in range(0, size, STREAM_BLOCK):
                hi = min(lo + STREAM_BLOCK, size)
                block = slice(start + lo, start + hi)
                owner = nxt[block] - mark
                if owner.min() < 0:
                    raise ListStructureError(UNREACHED)
                if op.ufunc is not None:  # straight into out, no temporary to copy
                    op.ufunc(carry[owner], values[block], out=out[lo:hi])
                else:
                    out[lo:hi] = op.combine(carry[owner], values[block])

    # -- hooks that are never called ------------------------------------
    #
    # ``perfbench/layers.py`` patches every ``kernels.*`` hook it times
    # through ``inspect.getattr_static``, so the names stay.

    def pack_phase3(self, *args: Any) -> None:
        """Never called: Phase 3 streams and has no pack."""
        raise NotImplementedError

    def reduced_scan(self, *args: Any) -> None:
        """Never called: Phase 2 is ``core.forest``'s Wyllie scan, the
        same on every backend (the benchmark times it through
        ``wyllie_forest_scan``)."""
        raise NotImplementedError


#: What a backend is, for annotations: the numpy reference, or a
#: subclass that replaces some of its hooks.
KernelBackend = NumpyBackend


class CBackend(NumpyBackend):
    """Initialize, Phase 1 and Phase 3 as the C loops of
    ``kernels/lockstep.c``.

    Initialize is one pass over every member in one call.  Phase 1 is
    step-major, like the numpy lock step, but one C loop instead of
    seven array calls per step, and it prefetches the records its
    processors step to next.  Phase 3 is one pass over every member's
    records, in one call.  The packs and Phase 2 are the inherited
    numpy code, and so is any call the loops do not cover.  ``ctypes``
    releases the GIL for the length of a loop, so a ``threads``
    engine's shards run theirs concurrently.
    """

    name = "c"

    def supports(self, op: Operator, values: np.ndarray) -> bool:
        return _opcode(op, values) is not None

    def initialize(
        self,
        nexts: Sequence[np.ndarray],
        values: Sequence[np.ndarray],
        offsets: np.ndarray,
        rec_next: np.ndarray,
        rec_value: np.ndarray,
        n_lists: int,
    ) -> np.ndarray:
        dtype = rec_value.dtype
        if not (
            _records_fit(rec_next, rec_value)
            and dtype.kind in "iuf"
            and dtype.itemsize == 8
            and all(_member_fits(nxt, vals, dtype) for nxt, vals in zip(nexts, values))
        ):
            return super().initialize(nexts, values, offsets, rec_next, rec_value, n_lists)
        members = len(nexts)
        table = np.array(
            [
                [nxt.ctypes.data for nxt in nexts],
                [vals.ctypes.data for vals in values],
                [nxt.shape[0] for nxt in nexts],
                offsets[:members].tolist(),
            ],
            dtype=INDEX_DTYPE,
        )
        loop, records = _entry("repro_initialize"), _records(rec_next, rec_value)
        found = np.zeros(2, dtype=INDEX_DTYPE)
        capacity = n_lists
        while True:
            loops = np.empty(capacity, dtype=INDEX_DTYPE)
            rc = loop(
                *_rows(table), members, *records, loops.ctypes.data, capacity, found.ctypes.data
            )
            if rc == 1:  # the loop names the member and the node: numpy's message
                k, i = found.tolist()
                check_indices("next", nexts[k][i : i + 1], nexts[k].shape[0], i)
            _check(rc, "a successor lies outside its member")
            count = int(found[0])
            if count <= capacity:
                return loops[:count]
            capacity = count  # more tails than lists: a second pass returns them all

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
        code = _opcode(op, values)
        live = vp_next.shape[0]
        if not (
            code is not None
            and _owned(vp_next, INDEX_DTYPE, live)
            and _owned(vp_sum, values.dtype, live)
            and _owned(vp_proc, INDEX_DTYPE, live)
            and _records_fit(nxt, values)
        ):
            return super().traverse_phase1(nxt, values, vp_next, vp_sum, vp_proc, gap, op)
        vps = (vp_next.ctypes.data, vp_sum.ctypes.data, vp_proc.ctypes.data)
        loop = _entry(f"repro_phase1_{values.dtype.kind}64")
        rc = loop(*_records(nxt, values), *vps, live, gap, code)
        _check(rc, REVISITED)
        return vp_next, vp_sum

    def traverse_phase3(
        self,
        nxt: np.ndarray,
        values: np.ndarray,
        carry: np.ndarray,
        op: Operator,
        outs: Sequence[np.ndarray],
        offsets: np.ndarray,
    ) -> None:
        code = _opcode(op, values)
        m = carry.shape[0]
        if code is None or not (_owned(carry, values.dtype, m) and _records_fit(nxt, values)):
            super().traverse_phase3(nxt, values, carry, op, outs, offsets)
            return
        # a strided or other-dtype out is left to the numpy pass, as a
        # member of size 0 in the C loop's tables
        owned = [_owned(out, values.dtype, out.shape[0]) for out in outs]
        members = len(outs)
        table = np.array(
            [
                [out.ctypes.data if own else 0 for out, own in zip(outs, owned)],
                [out.shape[0] if own else 0 for out, own in zip(outs, owned)],
                offsets[:members].tolist(),
            ],
            dtype=INDEX_DTYPE,
        )
        loop = _entry(f"repro_phase3_{values.dtype.kind}64")
        rc = loop(*_records(nxt, values), *_rows(table), members, carry.ctypes.data, m, code)
        _check(rc, UNREACHED)
        for k, own in enumerate(owned):
            if not own:
                super().traverse_phase3(nxt, values, carry, op, [outs[k]], offsets[k : k + 1])


def _opcode(op: Operator, values: np.ndarray) -> int | None:
    """The opcode the C loops run ``op`` over ``values`` with, or
    ``None`` when they do not: every scalar builtin over int64, ADD and
    MUL over float64.  Only the builtin object itself has an opcode (the
    lookup is by identity), so a custom operator that shadows a
    builtin's name never runs the builtin's loop."""
    code = OPCODES.get(op.name)
    if code is None or BUILTIN_OPERATORS.get(op.name) is not op or values.ndim != 1:
        return None
    if values.dtype == np.dtype(np.int64):
        return code
    if values.dtype == np.dtype(np.float64) and code in FLOAT_OPCODES:
        return code
    return None


def _owned(a: np.ndarray, dtype: np.dtype, size: int) -> bool:
    """Whether a C loop may take ``a`` by its data pointer: ``size``
    contiguous, writable elements of ``dtype``."""
    return (
        a.dtype == dtype
        and a.shape == (size,)
        and a.flags.c_contiguous
        and a.flags.writeable
    )


def _member_fits(nxt: np.ndarray, values: np.ndarray, dtype: np.dtype) -> bool:
    """Whether the Initialize loop may read a forest member by its data
    pointers: contiguous int64 successors, and as many contiguous
    values of the records' ``dtype``."""
    return (
        nxt.dtype == INDEX_DTYPE
        and nxt.ndim == 1
        and nxt.flags.c_contiguous
        and values.dtype == dtype
        and values.shape == nxt.shape
        and values.flags.c_contiguous
    )


def _records_fit(nxt: np.ndarray, values: np.ndarray) -> bool:
    """Whether the two field views are the C loops' records: int64
    successors, one value per record."""
    return nxt.dtype == INDEX_DTYPE and nxt.ndim == 1 and nxt.shape == values.shape


def _records(nxt: np.ndarray, values: np.ndarray) -> tuple[int, int, int, int, int]:
    """The records as the C loops take them: each field view's data
    pointer and byte stride, and the record count."""
    return (nxt.ctypes.data, nxt.strides[0], values.ctypes.data, values.strides[0], nxt.shape[0])


def _rows(table: np.ndarray) -> list[int]:
    """The address of each row of an int64 table of per-member columns
    (addresses, sizes, first records), as the C loops take them."""
    base, step = table.ctypes.data, table.strides[0]
    return [base + k * step for k in range(table.shape[0])]


def _entry(name: str) -> Any:
    lib = clib.load()
    if lib is None:  # pragma: no cover - resolve_backend refuses c first
        raise RuntimeError("the c kernel backend is not available on this host")
    return getattr(lib, name)


def _check(rc: int, structure: str) -> None:
    """Raise for a C loop's return code: 1 is a bad structure, anything
    else a call the loop refused."""
    if rc == 1:
        raise ListStructureError(structure)
    if rc:
        raise RuntimeError(f"the c kernel loop refused its arguments (code {rc})")


_NUMPY = NumpyBackend()
_C = CBackend()

_REGISTRY: dict[str, KernelBackend] = {_NUMPY.name: _NUMPY, _C.name: _C}


def _usable(name: str) -> bool:
    """Whether backend ``name`` runs on this host: c only where its
    library builds (asking builds it)."""
    return name != "c" or clib.load() is not None


def available_backends() -> tuple[str, ...]:
    """Backend names usable on this host."""
    return tuple(name for name in _REGISTRY if _usable(name))


def default_backend_name() -> str:
    """Auto-detected default: c when its library builds, else numpy."""
    return "c" if _usable("c") else "numpy"


def resolve_backend(
    backend: str | KernelBackend | None = None,
) -> KernelBackend:
    """Resolve a backend selection to an instance.

    Precedence: explicit ``backend`` argument → ``REPRO_KERNEL_BACKEND``
    environment variable → auto-detection; ``None`` is the process's
    backend.
    """
    if isinstance(backend, NumpyBackend):
        return backend
    name = backend or os.environ.get(ENV_VAR) or default_backend_name()
    name = name.strip().lower()
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown kernel backend {name!r}; the backends are {', '.join(_REGISTRY)}"
        )
    if not _usable(name):
        raise ValueError(
            f"kernel backend {name!r} requested but its library does not build "
            f"({clib.failure()}); available backends: {', '.join(available_backends())}"
        )
    return _REGISTRY[name]
