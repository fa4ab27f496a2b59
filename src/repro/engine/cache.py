"""Structural result cache.

Every scan is a pure function of ``(successor array, head, values,
operator, inclusive flag)``, so results can be memoized across
requests: serving layers frequently re-rank the same list (the same
graph arriving from many users, retries, or idempotent replays), and a
cache hit replaces an O(n) traversal with one pass over the arrays.

The key is 128 bits of SHA-256 over a short header (operator name,
inclusive flag, head, values dtype and shape) and two AES-GMAC tags,
one over each array.  AES-GMAC is AES-128-GCM with no plaintext and
the array bytes as associated data: GHASH, a polynomial hash under a
secret key, reads memory about twenty times as fast as SHA-256 does,
even with SHA-NI (``docs/engine.md``, "Cache keying", has the
measurement).  The arrays go in as zero-copy byte views, in chunks
of at most 2^30 bytes (OpenSSL's GCM refuses 2^31), each under its own
nonce built from the field and the chunk index.  Two distinct inputs
collide with probability at most (l+1)/2^128 for l 16-byte blocks,
unless they were chosen with knowledge of the key; no tag leaves the
process, only the SHA-256 over the tags does.

The 16-byte key comes from ``os.urandom`` on the first call, once per
process, so **fingerprints are per process**: the engine is their one
caller and nothing persists or ships one.  ``cryptography`` (about
7 MB of resident memory) is imported on that first call, not at
import time, so a process that never hashes never loads it.

Operators are identified *by name* — the built-in operator table is
canonical; a custom operator must use a unique name to be cached
correctly (two different combine functions registered under one name
would collide).

Entries are value copies in both directions: ``put`` stores a copy and
``get`` returns a fresh copy, so callers can mutate results without
poisoning the cache.  Eviction is LRU by entry count and (optionally)
by total stored bytes.  All operations are thread-safe.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from typing import TYPE_CHECKING

import numpy as np

from ..core.operators import Operator, get_operator
from ..lists.generate import LinkedList
from ..sanitize.runtime import guarded

if TYPE_CHECKING:
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

__all__ = ["fingerprint", "refuse_object_dtype", "ResultCache"]

#: Largest associated-data chunk one GMAC tag covers (OpenSSL's GCM
#: refuses 2^31 bytes or more).
_CHUNK_BYTES = 1 << 30

#: The chunk-index part of a field's first nonce.
_FIRST_CHUNK = (0).to_bytes(8, "little")

_gmac: AESGCM | None = None
_gmac_lock = threading.Lock()


def _mac() -> AESGCM:
    """The process's GMAC, keyed from ``os.urandom`` on first use."""
    global _gmac
    gmac = _gmac
    if gmac is None:
        with guarded(_gmac_lock, "engine.fingerprint_key"):
            if _gmac is None:
                from cryptography.hazmat.primitives.ciphers.aead import AESGCM

                _gmac = AESGCM(os.urandom(16))
            gmac = _gmac
    return gmac


def _tags(gmac: AESGCM, field: bytes, array: np.ndarray) -> bytes:
    """The GMAC tags of ``array``'s bytes, read in place, one per chunk.

    The nonce is the 4-byte ``field`` name and the chunk index, so each
    chunk of each field is tagged under its own nonce.  An array of one
    chunk, the usual case, is one ``encrypt`` call; an empty array
    still gets one tag.
    """
    data = memoryview(np.ascontiguousarray(array)).cast("B")
    if len(data) <= _CHUNK_BYTES:
        return gmac.encrypt(field + _FIRST_CHUNK, b"", data)
    return b"".join(
        gmac.encrypt(field + index.to_bytes(8, "little"), b"", data[start : start + _CHUNK_BYTES])
        for index, start in enumerate(range(0, len(data), _CHUNK_BYTES))
    )


def refuse_object_dtype(lst: LinkedList) -> None:
    """Raise ``TypeError`` for object-dtype arrays, which no fingerprint
    can key (see :func:`fingerprint`)."""
    if lst.next.dtype.hasobject or np.asarray(lst.values).dtype.hasobject:
        raise TypeError(
            "cannot fingerprint object-dtype arrays: their byte "
            "serialization is identity-based, not structural"
        )


def fingerprint(
    lst: LinkedList,
    op: Operator | str,
    inclusive: bool = False,
) -> bytes:
    """128-bit structural digest of one scan problem.

    Two problems share a fingerprint iff they have identical successor
    arrays, heads, value arrays (bytes, dtype and shape), operator
    *name* and inclusive flag.

    Object-dtype arrays are rejected: their bytes are pointers, so two
    structurally equal problems would fingerprint differently (and a
    mutated value would *keep* its stale digest) — a silent
    cache-corruption hazard rather than a usable key.

    The digest is keyed per process (see the module docstring): equal
    within one process, unrelated across processes.
    """
    op = get_operator(op)
    refuse_object_dtype(lst)
    gmac = _mac()
    h = hashlib.sha256(b"repro-scan-v1|")
    h.update(op.name.encode())
    h.update(b"|i" if inclusive else b"|x")
    h.update(f"|{lst.head}|{lst.values.dtype.str}|{lst.values.shape}|".encode())
    h.update(_tags(gmac, b"next", lst.next))
    h.update(_tags(gmac, b"vals", lst.values))
    return h.digest()[:16]


class ResultCache:
    """Thread-safe LRU cache of scan results.

    Parameters
    ----------
    capacity:
        Maximum number of entries; 0 disables the cache entirely
        (every ``get`` misses, every ``put`` is dropped).
    max_bytes:
        Optional bound on the summed ``nbytes`` of stored results.
        A single result larger than the bound is simply not stored.
    """

    def __init__(self, capacity: int = 256, max_bytes: int | None = None) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be >= 0 (or None)")
        self.capacity = capacity
        self.max_bytes = max_bytes
        self._entries: OrderedDict[bytes, np.ndarray] = OrderedDict()
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with guarded(self._lock, "engine.cache", "read"):
            return len(self._entries)

    @property
    def stored_bytes(self) -> int:
        with guarded(self._lock, "engine.cache", "read"):
            return self._bytes

    def get(self, key: bytes) -> np.ndarray | None:
        """Look up a result; returns a fresh copy, or ``None`` on miss."""
        with guarded(self._lock, "engine.cache"):
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry.copy()

    def put(self, key: bytes, result: np.ndarray) -> None:
        """Store a result copy under ``key``, evicting LRU entries as
        needed to respect the capacity and byte bounds."""
        if self.capacity == 0:
            return
        stored = np.ascontiguousarray(result).copy()
        if self.max_bytes is not None and stored.nbytes > self.max_bytes:
            return
        with guarded(self._lock, "engine.cache"):
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old.nbytes
            self._entries[key] = stored
            self._bytes += stored.nbytes
            while len(self._entries) > self.capacity or (
                self.max_bytes is not None and self._bytes > self.max_bytes
            ):
                _, evicted = self._entries.popitem(last=False)
                self._bytes -= evicted.nbytes
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry *and* reset the hit/miss/eviction counters.

        A cleared cache starts a fresh measurement epoch: post-clear
        hit-rate reporting must not blend probes against the old
        contents with probes against the new, so the counters reset
        together with the entries (callers wanting cumulative numbers
        should snapshot :meth:`stats` before clearing).
        """
        with guarded(self._lock, "engine.cache"):
            self._entries.clear()
            self._bytes = 0
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def stats(self) -> dict[str, int]:
        """Counters snapshot (hits/misses/evictions/entries/bytes)."""
        with guarded(self._lock, "engine.cache", "read"):
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "bytes": self._bytes,
            }
