"""Execution backends: equivalence, pool lifecycle, shm transport, tracing.

The contracts under test:

* every executor (``sync`` / ``threads`` / ``processes``) returns
  bit-identical results on the same workload — including cache hits,
  coalesced duplicates, inclusive scans and forced algorithms;
* pools are *persistent*: many batches construct at most one pool, and
  ``Engine.close()`` / the context manager tears it down exactly once;
* shared-memory transport round-trips arrays above the threshold and
  falls back to inline pickling below it, releasing every segment on
  success and failure alike;
* fault containment and trace-span pinning survive the process
  boundary: a shard that dies in a worker quarantines normally, and a
  traced kernel's spans come back attached under the batch tree.
"""

import concurrent.futures
import glob

import numpy as np
import pytest

from repro.core.operators import SUM, Operator
from repro.engine import Engine, ScanRequest
from repro.engine.workers import (
    EXECUTORS,
    ProcessBackend,
    SyncBackend,
    ThreadBackend,
    _attach_array,
    _export_array,
    _release,
    create_backend,
)
from repro.lists.generate import random_list, random_values
from repro.trace import Tracer


def mixed_requests(count=200, max_n=2000, seed=0, algorithm="auto"):
    """A mixed workload: log-uniform sizes, alternating inclusive, a
    duplicate (coalescing) pair every 10 requests."""
    rng = np.random.default_rng(seed)
    sizes = np.clip(
        np.exp(rng.uniform(0, np.log(max_n), count)).astype(int), 1, max_n
    )
    reqs = []
    for i, n in enumerate(sizes):
        n = int(n)
        lst = random_list(n, rng, values=random_values(n, rng))
        reqs.append(
            ScanRequest(
                lst=lst, op=SUM, inclusive=bool(i % 2), algorithm=algorithm, tag=i
            )
        )
        if i % 10 == 9:  # duplicate of the previous request -> coalesces
            reqs.append(
                ScanRequest(
                    lst=lst.copy(), op=SUM, inclusive=bool(i % 2),
                    algorithm=algorithm, tag=f"dup-{i}",
                )
            )
    return reqs


class TestExecutorEquivalence:
    def test_all_executors_bit_identical_mixed_200(self):
        # the PR's acceptance criterion: threads and processes match
        # sync bit for bit on a mixed 200-request workload
        baseline = None
        for executor in EXECUTORS:
            with Engine(executor=executor, seed=11) as engine:
                responses = engine.run_batch(mixed_requests(count=200))
            assert all(r.ok for r in responses)
            results = [r.result for r in responses]
            if baseline is None:
                baseline = results
            else:
                for ref, got in zip(baseline, results):
                    assert got.dtype == ref.dtype
                    np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_forced_sublist_and_unroutable_algorithms(self, executor):
        # forced routable algorithms offload; unroutable ones
        # (random_mate has no forest kernel) fall back to solo runs —
        # both must work on every backend
        for algorithm in ("sublist", "random_mate"):
            reqs = mixed_requests(count=12, max_n=600, seed=3, algorithm=algorithm)
            with Engine(executor=executor, cache_capacity=0, seed=5) as engine:
                responses = engine.run_batch(reqs)
            assert all(r.ok for r in responses)
            with Engine(executor="sync", cache_capacity=0, seed=5) as ref_engine:
                ref = ref_engine.run_batch(
                    mixed_requests(count=12, max_n=600, seed=3, algorithm=algorithm)
                )
            for a, b in zip(responses, ref):
                np.testing.assert_array_equal(a.result, b.result)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            Engine(executor="fibers")
        with pytest.raises(ValueError, match="unknown executor"):
            create_backend("fibers")


class TestPoolLifecycle:
    def test_no_pool_constructed_per_batch(self, monkeypatch):
        # the PR 1 engine built a throwaway ThreadPoolExecutor inside
        # every run_batch call; the persistent backend must construct
        # at most one across arbitrarily many batches
        import repro.engine.workers as workers

        constructed = []
        real = concurrent.futures.ThreadPoolExecutor

        class CountingPool(real):
            def __init__(self, *args, **kwargs):
                constructed.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(workers, "ThreadPoolExecutor", CountingPool)
        with Engine(executor="threads", cache_capacity=0) as engine:
            for batch in range(5):
                responses = engine.run_batch(
                    mixed_requests(count=16, max_n=400, seed=batch),
                    parallel=True,
                )
                assert all(r.ok for r in responses)
        assert sum(constructed) == 1
        assert engine._backend.pools_created == 1

    def test_pool_is_lazy(self):
        backend = ThreadBackend()
        assert backend.pools_created == 0  # construction does not pool
        backend.close()
        assert backend.pools_created == 0

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_close_tears_down_exactly_once(self, executor):
        engine = Engine(executor=executor, cache_capacity=0)
        engine.run_batch(mixed_requests(count=8, max_n=300), parallel=True)
        backend = engine._backend
        engine.close()
        engine.close()
        with engine:  # re-entering after close is allowed...
            pass  # ...and __exit__'s close is still a no-op
        assert backend.closes_effective == 1

    def test_context_manager_closes(self):
        with Engine(executor="threads", cache_capacity=0) as engine:
            engine.run_batch(mixed_requests(count=8, max_n=300), parallel=True)
        assert engine._backend.closes_effective == 1

    def test_closed_thread_backend_rejects_dispatch(self):
        backend = ThreadBackend()
        backend.close()
        with pytest.raises(RuntimeError, match="closed"):
            backend.map_shards(lambda s: s, [[1], [2]])

    def test_sync_backend_never_pools(self):
        backend = SyncBackend()
        order = []
        backend.map_shards(order.append, ["a", "b", "c"])
        assert order == ["a", "b", "c"]  # sequential, in submission order
        assert backend.pools_created == 0
        backend.close()


class TestSharedMemoryTransport:
    @pytest.mark.parametrize("n", [4, 100_000])
    def test_export_attach_roundtrip(self, n):
        # small arrays ship inline, large ones through a segment; both
        # must round-trip exactly and release every lease
        rng = np.random.default_rng(0)
        arr = rng.integers(-(2**40), 2**40, n)
        leases, holds = [], []
        ref = _export_array(arr, leases, min_bytes=1 << 15)
        assert (ref.shm_name is not None) == (arr.nbytes >= 1 << 15)
        got = _attach_array(ref, holds)
        np.testing.assert_array_equal(got, arr)
        del got
        _release(holds, unlink=False)
        _release(leases, unlink=True)

    def test_segments_released_after_batch(self):
        # a processes batch must leave /dev/shm exactly as it found it
        before = set(glob.glob("/dev/shm/psm_*"))
        with Engine(executor="processes", cache_capacity=0, seed=2) as engine:
            responses = engine.run_batch(mixed_requests(count=30, max_n=3000))
        assert all(r.ok for r in responses)
        leaked = set(glob.glob("/dev/shm/psm_*")) - before
        assert not leaked

    def test_small_shards_use_inline_transport(self):
        backend = ProcessBackend(max_workers=1)
        try:
            nxt = np.array([1, 2, 2], dtype=np.int64)  # tail self-loops
            values = np.array([5, 7, 9], dtype=np.int64)
            heads = np.array([0], dtype=np.int64)
            out, kstats, spans = backend.run_fused(
                nxt, values, heads, "sum", False, "serial", 0, False
            )
            np.testing.assert_array_equal(out, [0, 5, 12])
            assert kstats.element_ops > 0
            assert spans == []
        finally:
            backend.close()


class TestProcessFaultContainment:
    def test_worker_failure_quarantines_not_crashes(self):
        # two same-size-class lists fuse into one shard; one has an
        # out-of-range successor that only explodes *inside the worker*
        # (validation off) — the healthy shard-mate must still get its
        # result through the quarantine retry
        bad = random_list(64, np.random.default_rng(1))
        bad.next[32] = 10**9  # IndexError in the kernel, not at validation
        good = random_list(60, np.random.default_rng(2))
        with Engine(
            executor="processes", cache_capacity=0, validate="off", seed=3
        ) as engine:
            responses = engine.run_batch(
                [ScanRequest(lst=bad), ScanRequest(lst=good)]
            )
        assert [r.ok for r in responses] == [False, True]
        assert responses[0].error.phase == "execute"
        with Engine(executor="sync", cache_capacity=0, seed=3) as ref:
            np.testing.assert_array_equal(
                responses[1].result, ref.run_batch([ScanRequest(lst=good)])[0].result
            )
        assert engine.stats.retries == 1
        assert engine.stats.quarantined == 1

    def test_custom_operator_runs_inline(self):
        # a custom operator cannot be rehydrated by name in a worker
        # process, so its shards must execute inline (and still be right)
        renamed = Operator(name="my-sum", combine=np.add, identity=0)
        reqs = [
            ScanRequest(lst=random_list(50, np.random.default_rng(s)), op=renamed)
            for s in range(4)
        ]
        with Engine(executor="processes", cache_capacity=0, seed=4) as engine:
            responses = engine.run_batch(reqs)
            assert all(r.ok for r in responses)
            assert engine._backend.tasks_offloaded == 0
        sum_reqs = [
            ScanRequest(lst=random_list(50, np.random.default_rng(s)), op=SUM)
            for s in range(4)
        ]
        with Engine(executor="sync", cache_capacity=0, seed=4) as ref_engine:
            for got, ref in zip(responses, ref_engine.run_batch(sum_reqs)):
                np.testing.assert_array_equal(got.result, ref.result)


class TestProcessTraceAdoption:
    def test_worker_kernel_spans_adopted_under_batch_tree(self):
        # trace-span pinning across the process boundary: the sublist
        # kernel records its spans in the worker; they must come back
        # grafted under this batch's execute span
        rng = np.random.default_rng(7)
        reqs = [
            ScanRequest(lst=random_list(n, rng), algorithm="sublist")
            for n in (3000, 3100)
        ]
        tracer = Tracer()
        with Engine(
            executor="processes", cache_capacity=0, seed=8, trace=tracer
        ) as engine:
            responses = engine.run_batch(reqs)
        assert all(r.ok for r in responses)
        root = tracer.last_root()
        assert root.name == "run_batch"
        assert root.attrs == {"requests": 2, "parallel": True}
        (execute,) = root.find_all("execute")
        assert execute.attrs["algorithm"] == "sublist"
        forest = execute.find("sublist_scan")
        assert forest is not None  # adopted from the worker process
        assert len(forest.children) > 0  # the kernel's phase spans came too

    def test_untraced_processes_run_records_nothing(self):
        rng = np.random.default_rng(9)
        reqs = [ScanRequest(lst=random_list(n, rng)) for n in (200, 220)]
        with Engine(executor="processes", cache_capacity=0, seed=10) as engine:
            responses = engine.run_batch(reqs)
        assert all(r.ok for r in responses)


class TestWorkerCrashRecovery:
    """A SIGKILLed worker must not leak shm or poison the backend: the
    failing dispatch raises ``BrokenProcessPool``, every lease is
    released, the dead pool is dropped, and the next dispatch builds a
    fresh one (the shm teardown / pool-recovery regression)."""

    @staticmethod
    def _worker_pids(backend):
        return [p.pid for p in backend._pool._processes.values()]

    def test_killed_worker_releases_segments_and_recovers(self):
        import os
        import signal

        from concurrent.futures.process import BrokenProcessPool

        rng = np.random.default_rng(0)
        n = 100_000  # above SHM_MIN_BYTES: arrays cross via /dev/shm
        nxt = np.arange(1, n + 1, dtype=np.int64)
        nxt[-1] = n - 1
        values = rng.integers(-9, 9, n)
        heads = np.array([0], dtype=np.int64)
        backend = ProcessBackend(max_workers=1)
        try:
            out, _, _ = backend.run_fused(
                nxt, values, heads, "sum", False, "serial", 0, False
            )
            expect = out.copy()
            assert backend.pools_created == 1
            before = set(glob.glob("/dev/shm/psm_*"))
            for pid in self._worker_pids(backend):
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(BrokenProcessPool):
                backend.run_fused(
                    nxt, values, heads, "sum", False, "serial", 0, False
                )
            # every lease of the failed dispatch released, pool dropped
            assert set(glob.glob("/dev/shm/psm_*")) - before == set()
            assert backend._pool is None
            # next dispatch: fresh pool, correct answer
            out, _, _ = backend.run_fused(
                nxt, values, heads, "sum", False, "serial", 0, False
            )
            np.testing.assert_array_equal(out, expect)
            assert backend.pools_created == 2
            assert set(glob.glob("/dev/shm/psm_*")) - before == set()
        finally:
            backend.close()

    def test_engine_answers_through_quarantine_after_worker_death(self):
        import os
        import signal

        rng = np.random.default_rng(1)
        reqs = [
            ScanRequest(lst=random_list(n, rng, values=random_values(n, rng)))
            for n in (3000, 3100)
        ]
        with Engine(
            executor="processes", max_workers=1, cache_capacity=0, seed=5
        ) as engine:
            # two same-size-class lists fuse and offload -> pool built
            warm = engine.run_batch(
                [ScanRequest(lst=random_list(n, rng)) for n in (400, 500)]
            )
            assert all(r.ok for r in warm)
            assert engine._backend.pools_created == 1
            for pid in self._worker_pids(engine._backend):
                os.kill(pid, signal.SIGKILL)
            responses = engine.run_batch(reqs)
            # the fused attempt died with the pool; quarantine solos
            # run inline in the parent and still answer every request
            assert all(r.ok for r in responses)
            assert engine.stats.retries == 1
        with Engine(executor="sync", cache_capacity=0, seed=5) as ref:
            for got, ref_resp in zip(responses, ref.run_batch(reqs)):
                np.testing.assert_array_equal(got.result, ref_resp.result)
