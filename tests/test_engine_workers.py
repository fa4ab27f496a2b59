"""Execution backends: equivalence and pool lifecycle.

The contracts under test:

* every executor (``sync`` / ``threads``) returns bit-identical
  results on the same workload — including cache hits, coalesced
  duplicates, inclusive scans and forced algorithms;
* the executor alone decides where a batch's shards run: a ``threads``
  engine pools two or more shards unless it is one worker wide;
* pools are *persistent*: many batches construct at most one pool, and
  ``Engine.close()`` / the context manager tears it down exactly once.
"""

import concurrent.futures
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core.operators import SUM
from repro.engine import Engine, ScanRequest
from repro.engine.workers import (
    EXECUTORS,
    SyncBackend,
    ThreadBackend,
    create_backend,
)
from repro.lists.generate import random_list, random_values


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
        # threads matches sync bit for bit on a mixed 200-request workload
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
        # forced routable algorithms run the forest kernel; unroutable
        # ones (random_mate has no forest kernel) fall back to solo
        # runs — both must work on every backend
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

    def test_processes_executor_is_gone(self):
        expected = r"expected one of \('sync', 'threads'\)"
        assert EXECUTORS == ("sync", "threads")
        with pytest.raises(ValueError, match=expected):
            Engine(executor="processes")
        with pytest.raises(ValueError, match=expected):
            create_backend("processes")

    def test_nothing_imports_multiprocessing(self):
        # the engine, the server, the sanitizer and the CLI, and a
        # pooled batch under the sanitizers, load no multiprocessing
        # module
        script = textwrap.dedent(
            """
            import sys

            import repro, repro.cli, repro.engine, repro.sanitize
            import repro.serve.server
            from repro.engine import Engine, ScanRequest
            from repro.lists.generate import random_list
            from repro.sanitize import sanitizers

            with sanitizers() as state, Engine(executor="threads", max_workers=2) as engine:
                responses = engine.run_batch(
                    [ScanRequest(lst=random_list(64, 1)), ScanRequest(lst=random_list(64, 2), op="max")]
                )
            assert all(r.ok for r in responses)
            assert engine._backend.pools_created == 1, "the batch must use the pool"
            assert not state.failures(), state.failures()
            loaded = sorted(m for m in sys.modules if m.split(".")[0] == "multiprocessing")
            assert not loaded, loaded
            """
        )
        subprocess.run([sys.executable, "-c", script], check=True, timeout=120)


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
                    mixed_requests(count=16, max_n=400, seed=batch)
                )
                assert all(r.ok for r in responses)
        assert sum(constructed) == 1
        assert engine._backend.pools_created == 1

    def test_pool_is_lazy(self):
        backend = ThreadBackend()
        assert backend.pools_created == 0  # construction does not pool
        backend.close()
        assert backend.pools_created == 0

    @pytest.mark.parametrize("executor", ["threads"])
    def test_close_tears_down_exactly_once(self, executor):
        engine = Engine(executor=executor, cache_capacity=0)
        engine.run_batch(mixed_requests(count=8, max_n=300))
        backend = engine._backend
        engine.close()
        engine.close()
        with engine:  # re-entering after close is allowed...
            pass  # ...and __exit__'s close is still a no-op
        assert backend.closes_effective == 1

    def test_context_manager_closes(self):
        with Engine(executor="threads", cache_capacity=0) as engine:
            engine.run_batch(mixed_requests(count=8, max_n=300))
        assert engine._backend.closes_effective == 1

    def test_one_worker_runs_inline(self):
        # what `repro-c90 batch --workers 1` builds: three shards (three
        # operators), and the pool is never made
        reqs = [
            ScanRequest(lst=random_list(200, seed), op=op)
            for seed, op in enumerate(("sum", "max", "min"))
        ]
        with Engine(executor="threads", max_workers=1, cache_capacity=0) as engine:
            responses = engine.run_batch(reqs)
            assert engine.stats.shards == 3
        assert all(r.ok for r in responses)
        assert engine._backend.pools_created == 0

    def test_pooled_follows_shards_and_width(self):
        assert not ThreadBackend().pooled([["a"]])
        assert ThreadBackend().pooled([["a"], ["b"]])
        assert ThreadBackend(max_workers=2).pooled([["a"], ["b"]])
        assert not ThreadBackend(max_workers=1).pooled([["a"], ["b"]])
        assert not SyncBackend().pooled([["a"], ["b"]])

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
