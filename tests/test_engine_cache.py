"""Unit tests for the structural fingerprint and the LRU result cache."""

import hashlib
import os
import pathlib
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.core.operators import AFFINE, MAX, SUM
from repro.engine import cache as cache_module
from repro.engine.cache import ResultCache, fingerprint
from repro.lists.generate import random_list, random_values

from .conftest import make_affine_values

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def make_list(n=32, seed=0):
    rng = np.random.default_rng(seed)
    return random_list(n, rng, values=random_values(n, rng))


def problem(kind, n=32, seed=0):
    """One scan problem per value kind: ``(list, operator)``."""
    rng = np.random.default_rng(seed)
    lst = random_list(n, rng)
    if kind == "int":
        lst.values = random_values(n, rng)
    elif kind == "bool":
        lst.values = rng.integers(0, 2, n).astype(bool)
    elif kind == "float":
        lst.values = rng.standard_normal(n)
    else:
        lst.values = make_affine_values(rng, n)
    return lst, AFFINE if kind == "affine" else SUM


def strided(array):
    """A non-contiguous view holding ``array``'s elements."""
    view = np.repeat(array, 2, axis=0)[::2]
    assert not view.flags.c_contiguous
    return view


def changed(array, index):
    """A copy of ``array`` with one element (or row) changed."""
    out = array.copy()
    if out.dtype == np.bool_:
        out[index] = ~out[index]
    else:
        out[index] = out[index] + 1
    return out


KINDS = ["int", "bool", "float", "affine"]

#: The first, a middle and the last node of :func:`problem`'s lists.
POSITIONS = (0, 16, -1)


def _set_next(index):
    def mutate(lst, op, inclusive):
        lst.next = changed(lst.next, index)
        return lst, op, inclusive

    return mutate


def _set_values(index):
    def mutate(lst, op, inclusive):
        lst.values = changed(lst.values, index)
        return lst, op, inclusive

    return mutate


def _head(lst, op, inclusive):
    lst.head = (lst.head + 1) % lst.n
    return lst, op, inclusive


def _operator(lst, op, inclusive):
    return lst, MAX if op is SUM else SUM, inclusive


def _inclusive(lst, op, inclusive):
    return lst, op, not inclusive


def _dtype(lst, op, inclusive):
    # the same bytes under another dtype: only the header tells them apart
    other = {"b1": np.uint8, "f8": np.int64}.get(lst.values.dtype.str[1:], np.float64)
    lst.values = lst.values.view(other)
    return lst, op, inclusive


def _shape(lst, op, inclusive):
    # the same bytes under another 2-D shape
    values = lst.values
    lst.values = values.reshape(values.shape[::-1] if values.ndim == 2 else (-1, 2))
    return lst, op, inclusive


def assert_each_changes_key(*mutations):
    """The property behind every sensitivity test: for every value kind,
    each mutation of a copy of the problem changes its key."""
    for kind in KINDS:
        lst, op = problem(kind)
        key = fingerprint(lst, op, False)
        for mutate in mutations:
            assert fingerprint(*mutate(lst.copy(), op, False)) != key, kind


class TestFingerprint:
    def test_deterministic(self):
        # copies share a key, whatever their memory layout
        for kind in KINDS:
            lst, op = problem(kind)
            key = fingerprint(lst, op)
            assert len(key) == 16
            assert fingerprint(lst.copy(), op.name) == key
            other = lst.copy()
            other.next, other.values = strided(lst.next), strided(lst.values)
            assert fingerprint(other, op) == key
            if lst.values.ndim == 2:
                other.values = np.asfortranarray(lst.values)
                assert not other.values.flags.c_contiguous
                assert fingerprint(other, op) == key

    def test_sensitive_to_structure(self):
        assert_each_changes_key(*(_set_next(i) for i in POSITIONS))

    def test_sensitive_to_values(self):
        assert_each_changes_key(*(_set_values(i) for i in POSITIONS))

    def test_sensitive_to_head(self):
        assert_each_changes_key(_head)

    def test_sensitive_to_operator(self):
        assert_each_changes_key(_operator)

    def test_sensitive_to_inclusive_flag(self):
        assert_each_changes_key(_inclusive)

    def test_sensitive_to_dtype(self):
        assert_each_changes_key(_dtype)

    def test_sensitive_to_shape(self):
        assert_each_changes_key(_shape)

    def test_threads_share_one_key(self, monkeypatch):
        # the key is made on first use: eight threads racing into that
        # first use, switching as often as the interpreter allows, must
        # all hash under one key
        monkeypatch.setattr(cache_module, "_gmac", None)
        lst = make_list(4096)
        start = threading.Barrier(8, timeout=30)
        keys = []

        def work():
            start.wait()
            keys.extend(fingerprint(x, SUM) for x in (lst, lst.copy()))

        threads = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert len(keys) == 16 and len(set(keys)) == 1

    def test_chunks_each_count(self, monkeypatch):
        # arrays past the chunk size are tagged chunk by chunk; a small
        # chunk size exercises that path: 101 int64 nodes are 808
        # bytes, 12 full chunks of 64 and a partial one
        monkeypatch.setattr(cache_module, "_CHUNK_BYTES", 64)
        lst = make_list(101, seed=4)
        tags = cache_module._tags(cache_module._mac(), b"next", lst.next)
        assert len(tags) == 13 * 16  # 13 tags of 16 bytes
        key = fingerprint(lst, SUM)
        assert fingerprint(lst.copy(), SUM) == key
        seen = {key}
        for field in ("next", "values"):
            for index in range(0, lst.n, 8):  # one element in every chunk
                other = lst.copy()
                setattr(other, field, changed(getattr(other, field), index))
                seen.add(fingerprint(other, SUM))
        assert len(seen) == 1 + 2 * 13
        # swapping two equal-size chunks keeps every chunk's bytes but
        # moves them under another chunk's nonce
        for field in ("next", "values"):
            other = lst.copy()
            array = getattr(other, field)
            array[:16] = np.concatenate([array[8:16], array[:8]])
            assert fingerprint(other, SUM) != key


    @pytest.mark.parametrize("chunk_bytes", [None, 64])
    def test_key_is_gmac_of_each_field_under_its_chunk_nonces(self, monkeypatch, chunk_bytes):
        """Under a known key the fingerprint is SHA-256 over the header
        and one AES-GMAC tag per chunk of each field, the nonce the field
        name and the chunk index: the tags, and so the keys, are pinned."""
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        key = bytes(range(16))
        monkeypatch.setattr(cache_module, "_gmac", AESGCM(key))
        size = chunk_bytes or cache_module._CHUNK_BYTES
        if chunk_bytes:
            monkeypatch.setattr(cache_module, "_CHUNK_BYTES", chunk_bytes)
        reference = AESGCM(key)
        for kind in ("int", "bool", "float", "affine"):
            lst, op = problem(kind, n=101, seed=6)
            for inclusive in (False, True):
                h = hashlib.sha256(b"repro-scan-v1|")
                h.update(op.name.encode())
                h.update(b"|i" if inclusive else b"|x")
                h.update(f"|{lst.head}|{lst.values.dtype.str}|{lst.values.shape}|".encode())
                for field, array in ((b"next", lst.next), (b"vals", lst.values)):
                    data = array.tobytes()
                    for index, start in enumerate(range(0, max(len(data), 1), size)):
                        nonce = field + index.to_bytes(8, "little")
                        h.update(reference.encrypt(nonce, b"", data[start : start + size]))
                assert fingerprint(lst, op, inclusive) == h.digest()[:16]


def test_cryptography_loads_only_to_hash():
    """``cryptography`` costs about 7 MB of resident memory: importing the
    package, or running a cache-disabled engine over requests that share
    no cheap key, must not load it; the first fingerprint does."""
    code = textwrap.dedent(
        """
        import sys

        import repro
        assert "cryptography" not in sys.modules
        import repro.engine
        assert "cryptography" not in sys.modules

        import numpy as np
        from repro.engine import Engine, ScanRequest, fingerprint
        from repro.lists.generate import LinkedList, random_list

        lst = random_list(64, np.random.default_rng(0))
        requests = [
            ScanRequest(lst=LinkedList(lst.next, lst.head, np.arange(64) + i))
            for i in range(8)
        ]
        with Engine(cache_capacity=0) as engine:
            assert all(r.ok for r in engine.run_batch(requests))
        assert "cryptography" not in sys.modules
        fingerprint(lst, "sum")
        assert "cryptography" in sys.modules
        print("ok")
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


class TestResultCache:
    def test_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        key = b"k" * 16
        assert cache.get(key) is None
        cache.put(key, np.arange(5))
        got = cache.get(key)
        np.testing.assert_array_equal(got, np.arange(5))
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1

    def test_returned_copy_is_isolated(self):
        cache = ResultCache()
        cache.put(b"a", np.arange(4))
        got = cache.get(b"a")
        got[:] = -1
        np.testing.assert_array_equal(cache.get(b"a"), np.arange(4))

    def test_stored_copy_is_isolated(self):
        cache = ResultCache()
        arr = np.arange(4)
        cache.put(b"a", arr)
        arr[:] = -1
        np.testing.assert_array_equal(cache.get(b"a"), np.arange(4))

    def test_lru_eviction_order(self):
        cache = ResultCache(capacity=2)
        cache.put(b"a", np.zeros(1))
        cache.put(b"b", np.ones(1))
        cache.get(b"a")  # refresh a; b becomes LRU
        cache.put(b"c", np.full(1, 2.0))
        assert cache.get(b"b") is None
        assert cache.get(b"a") is not None
        assert cache.get(b"c") is not None
        assert cache.evictions == 1

    def test_byte_bound_evicts(self):
        cache = ResultCache(capacity=100, max_bytes=8 * 10)
        cache.put(b"a", np.zeros(6))
        cache.put(b"b", np.zeros(6))
        assert len(cache) == 1
        assert cache.stored_bytes <= 80

    def test_single_result_over_byte_bound_not_stored(self):
        cache = ResultCache(capacity=10, max_bytes=8)
        cache.put(b"a", np.zeros(100))
        assert len(cache) == 0

    def test_zero_capacity_disables(self):
        cache = ResultCache(capacity=0)
        cache.put(b"a", np.zeros(3))
        assert cache.get(b"a") is None
        assert len(cache) == 0

    def test_overwrite_updates_bytes(self):
        cache = ResultCache(capacity=4)
        cache.put(b"a", np.zeros(10))
        cache.put(b"a", np.zeros(2))
        assert len(cache) == 1
        assert cache.stored_bytes == 2 * 8

    def test_clear(self):
        cache = ResultCache()
        cache.put(b"a", np.zeros(3))
        cache.clear()
        assert len(cache) == 0
        assert cache.stored_bytes == 0

    def test_clear_resets_counters(self):
        # post-clear hit-rate reporting must start a fresh epoch: stale
        # hit/miss/eviction counters would blend probes against the old
        # contents into the new measurement
        cache = ResultCache(capacity=1)
        cache.put(b"a", np.zeros(3))
        cache.get(b"a")  # hit
        cache.get(b"b")  # miss
        cache.put(b"b", np.zeros(3))  # evicts a
        before = cache.stats()
        assert (before["hits"], before["misses"], before["evictions"]) == (1, 1, 1)
        cache.clear()
        after = cache.stats()
        assert after == {
            "hits": 0, "misses": 0, "evictions": 0, "entries": 0, "bytes": 0,
        }
        # and the fresh epoch counts from zero
        cache.get(b"a")
        assert cache.stats()["misses"] == 1

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=-1)
        with pytest.raises(ValueError):
            ResultCache(max_bytes=-1)
