"""Concurrent submit + flush under every executor.

The serving contract, stressed from many threads at once: concurrent
``submit`` calls interleave safely with a ``flush()``
batch mixing poisoned, coalesced and cached requests — and on every
backend the responses keep request order, errors stay isolated to
their own requests, and the engine's counters reconcile with the
cache's own probe accounting.

Every test in this module additionally runs under the runtime
lock-order checker (``repro.lint.lockorder``): the engine modules'
locks are swapped for instrumented wrappers that record the
acquisition-order graph and raise at the first acquisition that could
deadlock, so the thread-pool driver is race-audited on every CI
run, not just when a deadlock happens to strike.
"""

import threading

import numpy as np
import pytest

import repro.engine.cache as cache_mod
import repro.engine.engine as engine_mod
import repro.engine.workers as workers_mod
from repro.baselines.serial import serial_list_scan
from repro.core.operators import SUM
from repro.engine import Engine, ScanRequest
from repro.engine.workers import EXECUTORS
from repro.lint.lockorder import instrumented_locks
from repro.lists.generate import random_list, random_values


@pytest.fixture(autouse=True)
def lock_order_audit():
    """Race-audit every test: engine locks become checked locks.

    The fixture instruments the modules *before* the test constructs
    its Engine (so the engine's own ``threading.Lock()`` calls produce
    checked locks), lets any lock-order violation raise inside the
    test, and re-verifies the recorded graph stayed acyclic at
    teardown.
    """
    with instrumented_locks(engine_mod, workers_mod, cache_mod) as graph:
        yield graph
    assert graph.acquisitions > 0, "audit saw no lock activity"
    graph.assert_acyclic()


def healthy_list(n, seed):
    rng = np.random.default_rng(seed)
    return random_list(n, rng, values=random_values(n, rng))


def corrupt_list(n, seed):
    lst = healthy_list(n, seed)
    lst.next[n // 2] = n + 5  # out-of-range successor -> validation error
    return lst


@pytest.mark.parametrize("executor", EXECUTORS)
class TestConcurrentSubmitFlush:
    def test_mixed_poisoned_coalesced_cached(self, executor):
        with Engine(executor=executor, max_workers=4, seed=13) as engine:
            warm = healthy_list(300, seed=7)
            engine.scan(warm)  # pre-warm the cache for the "cached" mix

            per_thread = 12
            n_threads = 4
            ids = {}  # thread -> request ids in submission order
            kinds = {}  # request id -> ("good"|"bad"|"dup"|"warm", payload)

            def submitter(t):
                rng = np.random.default_rng(1000 + t)
                my_ids, my_kinds = [], {}
                shared = healthy_list(150 + t, seed=500 + t)
                for i in range(per_thread):
                    role = i % 4
                    if role == 0:  # healthy, unique
                        lst = healthy_list(int(rng.integers(2, 800)), seed=t * 100 + i)
                        rid = engine.submit(lst, SUM, tag=(t, i))
                        my_kinds[rid] = ("good", lst)
                    elif role == 1:  # poisoned
                        rid = engine.submit(
                            corrupt_list(64 + i, seed=t * 100 + i), SUM, tag=(t, i)
                        )
                        my_kinds[rid] = ("bad", None)
                    elif role == 2:  # duplicate -> coalesces in the batch
                        rid = engine.submit(shared.copy(), SUM, tag=(t, i))
                        my_kinds[rid] = ("dup", shared)
                    else:  # pre-warmed -> cache hit
                        rid = engine.submit(warm.copy(), SUM, tag=(t, i))
                        my_kinds[rid] = ("warm", warm)
                    my_ids.append(rid)
                ids[t] = my_ids
                kinds.update(my_kinds)

            threads = [
                threading.Thread(target=submitter, args=(t,))
                for t in range(n_threads)
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join()

            responses = engine.flush()
            assert len(responses) == n_threads * per_thread

            # response order: exactly the submission (request-id) order
            assert [r.request_id for r in responses] == sorted(
                r.request_id for r in responses
            )
            by_id = {r.request_id: r for r in responses}
            for t in range(n_threads):  # per-thread FIFO preserved
                assert ids[t] == sorted(ids[t])

            n_bad = 0
            for rid, (kind, payload) in kinds.items():
                resp = by_id[rid]
                if kind == "bad":
                    n_bad += 1
                    assert not resp.ok
                    assert resp.error.code == "bad-structure"
                    assert resp.result is None
                else:
                    assert resp.ok, resp.error
                    np.testing.assert_array_equal(
                        resp.result, serial_list_scan(payload, SUM)
                    )
                    if kind == "warm":
                        assert resp.cached
            # error isolation: exactly the poisoned requests failed
            assert sum(not r.ok for r in responses) == n_bad

            # stats totals reconcile (the +1 is the warm-up scan)
            s = engine.stats
            assert s.requests == n_threads * per_thread + 1
            assert s.errors == n_bad
            # every identical "dup" fingerprint beyond the first in the
            # batch coalesced (first occurrence per thread executes or
            # cache-hits; duplicates of the SAME fingerprint coalesce)
            assert s.coalesced > 0
            # every fingerprintable request probes the cache exactly
            # once (duplicates probe *before* coalescing), so probes
            # partition the request count
            assert s.cache_hits + s.cache_misses == s.requests
            # engine counters == the cache's own probe accounting
            cache_stats = engine.cache.stats()
            assert s.cache_hits == cache_stats["hits"]
            assert s.cache_misses == cache_stats["misses"]

    def test_flush_drains_queue(self, executor):
        with Engine(executor=executor, seed=21) as engine:
            for i in range(6):
                engine.submit(healthy_list(40 + i, seed=i), SUM)
            responses = engine.flush()
            assert len(responses) == 6
            assert engine.flush() == []
