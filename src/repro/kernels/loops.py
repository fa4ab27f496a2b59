"""The three hot loops as compilable scalar kernels.

The sublist scan (``core.forest``) runs the paper's kernels one NumPy
array-op per lock-step vector step.  This module re-expresses the three
hottest of them as explicit scalar loops over the same arrays (the
field views of the scan's record array; the calling convention is in
``kernels.backend``):

* the Phase-1 lock-step traversal (``gap`` steps, each taken by every
  live virtual processor before the next: write the running exclusive
  prefix over the node's value and the processor's mark over its
  successor, fold the value read, follow the old successor; stay on the
  sink, and return an error code on a successor past the sink, a mark,
  since numba does not bounds-check);
* the pack/compress step driven by ``core.schedule`` (scatter finished
  sublists out, compact the live virtual processors in place);
* the Phase-2 reduced-list scan, as a Blelloch up-sweep/down-sweep
  *blocked* exclusive scan with a running inter-block carry — the shape
  of SNIPPETS.md snippet 1 — applied to the reduced chains in traversal
  order.

Every kernel is generic over the ``(companion, cross, plus)`` operator
pair formulation (``kernels.pairs``): scalar operators dispatch on one
opcode, width-2 operators (``AFFINE``) on three.  The loops are written
to be ``numba.njit``-compilable *and* runnable as plain Python — the
factory :func:`build_kernels` produces either build from the same
source, so the interpreted build (the ``"python"`` backend) tests
exactly the code the ``"numba"`` backend compiles, on hosts without
numba.

Phase 3 is the numpy backend's streaming pass (``kernels.backend``).

Numerics: the traversal and pack kernels perform the same per-element
operations in the same order as the NumPy path, so their results are
bit-identical for every supported dtype.  The blocked Phase-2 scan
*re-associates* (tree order instead of chain order): exact for integer
operators (associativity is exact mod 2**64), within documented
tolerance for floats (see ``docs/kernels.md``).  NaN caveat: the
MIN/MAX branches use comparisons, which do not propagate NaN the way
``np.minimum`` does — NaN inputs are undefined for comparison operators
here (the engine's validation rejects them upstream).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np

from .pairs import OP_ADD, OP_AND, OP_MAX, OP_MIN, OP_MUL, OP_OR, OP_XOR

__all__ = ["HAVE_NUMBA", "BLOCK", "build_kernels", "py_kernels", "jit_kernels"]

try:  # pragma: no cover - exercised only on hosts with numba
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - the baked-in CI image lacks numba
    numba = None  # type: ignore[assignment]
    HAVE_NUMBA = False

#: Blelloch block length for the Phase-2 blocked scan (power of two;
#: snippet 1 uses work-group-sized blocks the same way).
BLOCK = 256


def build_kernels(jit: Callable[[Any], Any]) -> dict[str, Any]:
    """Build the kernel set, wrapping every function with ``jit``.

    ``jit`` is either the identity (interpreted build) or
    ``numba.njit(...)`` (compiled build); the two builds share this one
    definition, so they cannot drift apart.
    """

    @jit
    def combine(code: int, x: Any, y: Any) -> Any:
        # scalar opcode dispatch; x is earlier in list order.  The
        # bitwise branches go through an int64 cast so the function
        # types under float arguments too (those branches are
        # unreachable for floats — supports() gates bitwise opcodes to
        # signed-integer dtypes).
        if code == OP_ADD:
            return x + y
        if code == OP_MUL:
            return x * y
        if code == OP_MIN:
            return x if x < y else y
        if code == OP_MAX:
            return x if x > y else y
        if code == OP_XOR:
            return np.int64(x) ^ np.int64(y)
        if code == OP_AND:
            return np.int64(x) & np.int64(y)
        return np.int64(x) | np.int64(y)

    # ------------------------------------------------------------------
    # Phase-1 lock-step traversal: each node visited once, left holding
    # its prefix within the sublist and its walker's mark.  Step-major:
    # every live processor takes a step before any takes the next, so
    # one step's loads are independent (a processor-major walk is one
    # serial pointer chase).  A processor on the sink stays there; a
    # successor past the sink is a mark (a merge or a cycle): return -1.
    # ------------------------------------------------------------------

    @jit
    def phase1_traverse(nxt, values, vp_next, vp_sum, vp_proc, gap, code):  # type: ignore[no-untyped-def]
        sink = nxt.shape[0] - 1
        for _ in range(gap):
            for k in range(vp_next.shape[0]):
                cur = vp_next[k]
                if cur == sink:
                    continue
                succ = nxt[cur]
                if succ > sink:
                    return -1
                acc = vp_sum[k]
                v = values[cur]
                values[cur] = acc
                vp_sum[k] = combine(code, acc, v)
                nxt[cur] = sink + 1 + vp_proc[k]
                vp_next[k] = succ
        return 0

    @jit
    def phase1_traverse_pair(nxt, values, vp_next, vp_sum, vp_proc, gap, cc, xc, pc):  # type: ignore[no-untyped-def]
        sink = nxt.shape[0] - 1
        for _ in range(gap):
            for k in range(vp_next.shape[0]):
                cur = vp_next[k]
                if cur == sink:
                    continue
                succ = nxt[cur]
                if succ > sink:
                    return -1
                af = vp_sum[k, 0]
                as_ = vp_sum[k, 1]
                vf = values[cur, 0]
                vs = values[cur, 1]
                values[cur, 0] = af
                values[cur, 1] = as_
                vp_sum[k, 0] = combine(cc, af, vf)
                vp_sum[k, 1] = combine(pc, combine(xc, as_, vf), vs)
                nxt[cur] = sink + 1 + vp_proc[k]
                vp_next[k] = succ
        return 0

    # ------------------------------------------------------------------
    # pack/compress (the step core.schedule's gap sequence drives):
    # retire the processors on the sink
    # ------------------------------------------------------------------

    @jit
    def pack_phase1(sink, vp_next, vp_sum, vp_proc, sl_sum):  # type: ignore[no-untyped-def]
        live = 0
        for k in range(vp_next.shape[0]):
            cur = vp_next[k]
            if cur == sink:
                sl_sum[vp_proc[k]] = vp_sum[k]
            else:
                vp_next[live] = cur
                vp_sum[live] = vp_sum[k]
                vp_proc[live] = vp_proc[k]
                live += 1
        return live

    @jit
    def pack_phase1_pair(sink, vp_next, vp_sum, vp_proc, sl_sum):  # type: ignore[no-untyped-def]
        live = 0
        for k in range(vp_next.shape[0]):
            cur = vp_next[k]
            if cur == sink:
                proc = vp_proc[k]
                sl_sum[proc, 0] = vp_sum[k, 0]
                sl_sum[proc, 1] = vp_sum[k, 1]
            else:
                vp_next[live] = cur
                vp_sum[live, 0] = vp_sum[k, 0]
                vp_sum[live, 1] = vp_sum[k, 1]
                vp_proc[live] = vp_proc[k]
                live += 1
        return live

    # ------------------------------------------------------------------
    # Phase-2 reduced-list scan: Blelloch blocked exclusive scan
    # (snippet-1 shape: per-block up-sweep / clear-root / down-sweep,
    # with a running carry chaining the blocks)
    # ------------------------------------------------------------------

    @jit
    def blocked_exscan(vals, scanned, seed, ident, code, block, temp):  # type: ignore[no-untyped-def]
        m = vals.shape[0]
        carry = seed
        base = 0
        while base < m:
            size = m - base
            if size > block:
                size = block
            for i in range(size):
                temp[i] = vals[base + i]
            for i in range(size, block):
                temp[i] = ident
            # up-sweep (reduce)
            offset = 1
            d = block >> 1
            while d > 0:
                for i in range(d):
                    ai = offset * (2 * i + 1) - 1
                    bi = offset * (2 * i + 2) - 1
                    temp[bi] = combine(code, temp[ai], temp[bi])
                offset <<= 1
                d >>= 1
            total = temp[block - 1]
            temp[block - 1] = ident
            # down-sweep: left child takes the parent prefix, right
            # child takes combine(parent prefix, left subtree sum) —
            # the earlier operand stays on the left, so the sweep is
            # valid for non-commutative operators too.
            d = 1
            while d < block:
                offset >>= 1
                for i in range(d):
                    ai = offset * (2 * i + 1) - 1
                    bi = offset * (2 * i + 2) - 1
                    t = temp[ai]
                    par = temp[bi]
                    temp[ai] = par
                    temp[bi] = combine(code, par, t)
                d <<= 1
            for i in range(size):
                scanned[base + i] = combine(code, carry, temp[i])
            carry = combine(code, carry, total)
            base += block

    @jit
    def blocked_exscan_pair(  # type: ignore[no-untyped-def]
        vals, scanned, seed_f, seed_s, ident_f, ident_s, cc, xc, pc, block, temp
    ):
        m = vals.shape[0]
        carry_f = seed_f
        carry_s = seed_s
        base = 0
        while base < m:
            size = m - base
            if size > block:
                size = block
            for i in range(size):
                temp[i, 0] = vals[base + i, 0]
                temp[i, 1] = vals[base + i, 1]
            for i in range(size, block):
                temp[i, 0] = ident_f
                temp[i, 1] = ident_s
            offset = 1
            d = block >> 1
            while d > 0:
                for i in range(d):
                    ai = offset * (2 * i + 1) - 1
                    bi = offset * (2 * i + 2) - 1
                    f1 = temp[ai, 0]
                    s1 = temp[ai, 1]
                    f2 = temp[bi, 0]
                    s2 = temp[bi, 1]
                    temp[bi, 0] = combine(cc, f1, f2)
                    temp[bi, 1] = combine(pc, combine(xc, s1, f2), s2)
                offset <<= 1
                d >>= 1
            tot_f = temp[block - 1, 0]
            tot_s = temp[block - 1, 1]
            temp[block - 1, 0] = ident_f
            temp[block - 1, 1] = ident_s
            d = 1
            while d < block:
                offset >>= 1
                for i in range(d):
                    ai = offset * (2 * i + 1) - 1
                    bi = offset * (2 * i + 2) - 1
                    tf = temp[ai, 0]
                    ts = temp[ai, 1]
                    pf = temp[bi, 0]
                    ps = temp[bi, 1]
                    temp[ai, 0] = pf
                    temp[ai, 1] = ps
                    temp[bi, 0] = combine(cc, pf, tf)
                    temp[bi, 1] = combine(pc, combine(xc, ps, tf), ts)
                d <<= 1
            for i in range(size):
                f = temp[i, 0]
                s = temp[i, 1]
                scanned[base + i, 0] = combine(cc, carry_f, f)
                scanned[base + i, 1] = combine(pc, combine(xc, carry_s, f), s)
            nf = combine(cc, carry_f, tot_f)
            ns = combine(pc, combine(xc, carry_s, tot_f), tot_s)
            carry_f = nf
            carry_s = ns
            base += block

    @jit
    def reduced_scan(  # type: ignore[no-untyped-def]
        nxt, sums, seeds, heads, ident, code, block, out, order, ordered, scanned, temp
    ):
        # one chain per head: serialize the reduced chain in traversal
        # order, blocked-Blelloch-scan it, scatter the prefixes back.
        limit = order.shape[0]
        covered = 0
        for k in range(heads.shape[0]):
            cur = heads[k]
            cnt = 0
            terminated = False
            while cnt < limit:
                order[cnt] = cur
                cnt += 1
                succ = nxt[cur]
                if succ == cur:
                    terminated = True
                    break
                cur = succ
            if not terminated:
                return -1
            for i in range(cnt):
                ordered[i] = sums[order[i]]
            blocked_exscan(
                ordered[:cnt], scanned[:cnt], seeds[k], ident, code, block, temp
            )
            for i in range(cnt):
                out[order[i]] = scanned[i]
            covered += cnt
        return 0 if covered == limit else -1

    @jit
    def reduced_scan_pair(  # type: ignore[no-untyped-def]
        nxt,
        sums,
        seeds,
        heads,
        ident_f,
        ident_s,
        cc,
        xc,
        pc,
        block,
        out,
        order,
        ordered,
        scanned,
        temp,
    ):
        limit = order.shape[0]
        covered = 0
        for k in range(heads.shape[0]):
            cur = heads[k]
            cnt = 0
            terminated = False
            while cnt < limit:
                order[cnt] = cur
                cnt += 1
                succ = nxt[cur]
                if succ == cur:
                    terminated = True
                    break
                cur = succ
            if not terminated:
                return -1
            for i in range(cnt):
                ordered[i, 0] = sums[order[i], 0]
                ordered[i, 1] = sums[order[i], 1]
            blocked_exscan_pair(
                ordered[:cnt],
                scanned[:cnt],
                seeds[k, 0],
                seeds[k, 1],
                ident_f,
                ident_s,
                cc,
                xc,
                pc,
                block,
                temp,
            )
            for i in range(cnt):
                out[order[i], 0] = scanned[i, 0]
                out[order[i], 1] = scanned[i, 1]
            covered += cnt
        return 0 if covered == limit else -1

    return {
        "combine": combine,
        "phase1_traverse": phase1_traverse,
        "phase1_traverse_pair": phase1_traverse_pair,
        "pack_phase1": pack_phase1,
        "pack_phase1_pair": pack_phase1_pair,
        "blocked_exscan": blocked_exscan,
        "blocked_exscan_pair": blocked_exscan_pair,
        "reduced_scan": reduced_scan,
        "reduced_scan_pair": reduced_scan_pair,
    }


_PY_KERNELS: dict[str, Any] | None = None
_JIT_KERNELS: dict[str, Any] | None = None


def py_kernels() -> dict[str, Any]:
    """The interpreted build (plain Python; always available)."""
    global _PY_KERNELS
    if _PY_KERNELS is None:
        _PY_KERNELS = build_kernels(lambda fn: fn)
    return _PY_KERNELS


def jit_kernels() -> dict[str, Any]:
    """The numba build, compiled lazily on first use.

    ``nogil=True`` lets jitted kernels overlap under the ``threads``
    executor; ``fastmath`` stays off so float results are reproducible
    operation for operation.
    """
    global _JIT_KERNELS
    if not HAVE_NUMBA:  # pragma: no cover - numba absent in the CI image
        raise RuntimeError(
            "the numba kernel backend was requested but numba is not "
            "importable; install numba or set REPRO_KERNEL_BACKEND=numpy"
        )
    if _JIT_KERNELS is None:  # pragma: no cover - needs numba
        _JIT_KERNELS = build_kernels(numba.njit(nogil=True, cache=True))
    return _JIT_KERNELS
