"""The sharded / out-of-core list-ranking path (``repro.distribute``).

Contracts under test:

* the three-phase sharded scan is bit-identical to the in-memory
  kernels for integer operators — across layouts, chunk counts,
  multi-list forests, and all three executors;
* partition planning covers ``[0, n)`` exactly and the entry set is
  precisely the boundary-crossing targets plus the heads;
* the lease gate bounds bytes in flight (oversized requests admitted
  alone rather than deadlocking);
* memmapped lists stream through the budget and leave no shm segments
  or stray files behind;
* the engine routes oversized auto shards to the sharded path and
  keeps small or forced shards on the fused kernels;
* several shards routed there at once on one pool finish: each maps
  its chunks inline on its own pool thread.
"""

import glob

import numpy as np
import pytest

import repro.distribute.leases as leases_mod
import repro.distribute.sharded as sharded_mod
import repro.engine.cache as cache_mod
import repro.engine.engine as engine_mod
import repro.engine.workers as workers_mod
from repro.baselines.serial import serial_list_rank, serial_list_scan
from repro.core.forest import forest_list_scan
from repro.core.operators import MAX, MIN, PROD, SUM, XOR
from repro.core.sublist import sublist_list_scan
from repro.distribute import (
    DistributedConfig,
    LeaseGate,
    create_output_memmap,
    find_entries,
    open_memmap_list,
    plan_chunks,
    sharded_forest_scan,
    sharded_list_rank,
    sharded_list_scan,
    write_memmap_list,
)
from repro.engine import Engine, ScanRequest
from repro.engine.batch import FUSE_NODES
from repro.engine.workers import create_backend
from repro.kernels import ENV_VAR
from repro.lint.lockorder import instrumented_locks
from repro.lists.generate import (
    INDEX_DTYPE,
    blocked_list,
    ordered_list,
    random_list,
    reversed_list,
)

from .conftest import within


@pytest.fixture(autouse=True)
def lock_order_audit():
    """Race-audit every test: distribute + engine locks become checked.

    Mirrors the engine-concurrency suite: the sharded scan's merge lock
    and the engine locks under it are created as checked locks, any
    lock-order violation raises inside the test, and the recorded
    graph must be acyclic at teardown.  (No minimum-acquisitions
    assertion — the pure partition/planning tests take no locks.)
    """
    with instrumented_locks(
        sharded_mod, leases_mod, engine_mod, workers_mod, cache_mod
    ) as graph:
        yield graph
    graph.assert_acyclic()


@pytest.fixture
def process_backend():
    """A process pool per test, closed at its teardown: inside the
    sanitizer plugin's per-test scope, so a leak warning is a real leak."""
    backend = create_backend("processes", 2)
    yield backend
    backend.close()


def chunked(num_chunks):
    return DistributedConfig(num_chunks=num_chunks)


class TestConfig:
    def test_num_chunks_clamped_to_n(self):
        cfg = DistributedConfig(num_chunks=64)
        assert cfg.resolve_num_chunks(10, np.dtype(np.int64), 4) == 10

    def test_chunk_nodes_ceil_division(self):
        cfg = DistributedConfig(chunk_nodes=1000)
        assert cfg.resolve_num_chunks(2500, np.dtype(np.int64), 1) == 3

    def test_budget_derivation_covers_workers(self):
        cfg = DistributedConfig(memory_budget_bytes=1 << 30)
        # big problem, roomy budget: still at least one chunk per worker
        assert cfg.resolve_num_chunks(1 << 20, np.dtype(np.int64), 8) >= 8

    def test_budget_derivation_respects_budget(self):
        cfg = DistributedConfig(memory_budget_bytes=1 << 20, max_inflight=1)
        chunks = cfg.resolve_num_chunks(1 << 20, np.dtype(np.int64), 1)
        per_node = cfg.bytes_per_node(np.dtype(np.int64))
        assert -(-(1 << 20) // chunks) * per_node <= 1 << 20

    def test_should_shard_thresholds(self):
        assert DistributedConfig(min_nodes=0).should_shard(1, np.int64)
        assert not DistributedConfig(min_nodes=100).should_shard(99, np.int64)
        derived = DistributedConfig(memory_budget_bytes=96 * 100)
        assert derived.should_shard(100, np.dtype(np.int64))
        assert not derived.should_shard(99, np.dtype(np.int64))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(memory_budget_bytes=0),
            dict(chunk_nodes=0),
            dict(num_chunks=0),
            dict(min_nodes=-1),
            dict(max_inflight=0),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DistributedConfig(**kwargs)


class TestPartition:
    @pytest.mark.parametrize("n,k", [(10, 3), (1, 1), (7, 7), (100, 8)])
    def test_plan_covers_range_contiguously(self, n, k):
        plan = plan_chunks(n, k)
        assert plan.n == n
        assert plan.num_chunks == k
        lo0, _ = plan.bounds(0)
        assert lo0 == 0
        prev_hi = 0
        for c in range(k):
            lo, hi = plan.bounds(c)
            assert lo == prev_hi
            assert hi >= lo
            prev_hi = hi
        assert prev_hi == n

    def test_chunk_of_matches_bounds(self):
        plan = plan_chunks(100, 7)
        nodes = np.arange(100, dtype=INDEX_DTYPE)
        owner = plan.chunk_of(nodes)
        for c in range(7):
            lo, hi = plan.bounds(c)
            assert np.all(owner[lo:hi] == c)

    def test_entries_are_cross_targets_plus_heads(self):
        # 0→1→2→3→4→5 (tail self-loop), chunks [0,3) and [3,6):
        # node 3 is the only cross-chunk target besides the head
        nxt = np.array([1, 2, 3, 4, 5, 5], dtype=INDEX_DTYPE)
        plan = plan_chunks(6, 2)
        heads = np.array([0], dtype=INDEX_DTYPE)
        entries = find_entries(lambda lo, hi: nxt[lo:hi], plan, heads)
        assert [e.tolist() for e in entries] == [[0], [3]]


class TestLeaseGate:
    def test_tracks_outstanding_and_peak(self):
        gate = LeaseGate(100)
        with gate.admit(40):
            with gate.admit(50):
                assert gate.outstanding_bytes == 90
            assert gate.outstanding_bytes == 40
        assert gate.outstanding_bytes == 0
        assert gate.peak_bytes == 90

    def test_oversize_admitted_alone(self):
        gate = LeaseGate(10)
        with gate.admit(1000):  # must not deadlock
            assert gate.outstanding_bytes == 1000

    def test_blocks_until_capacity_frees(self):
        import threading

        gate = LeaseGate(100)
        order = []
        release_first = threading.Event()

        def holder():
            with gate.admit(80):
                order.append("held")
                release_first.wait(5)

        def waiter():
            while not order:  # ensure holder is inside first
                pass
            with gate.admit(80):
                order.append("waited")

        t1 = threading.Thread(target=holder)
        t2 = threading.Thread(target=waiter)
        t1.start()
        t2.start()
        release_first.set()
        t1.join(5)
        t2.join(5)
        assert order == ["held", "waited"]
        assert gate.outstanding_bytes == 0


class TestCorrectness:
    @pytest.mark.parametrize("layout", [ordered_list, reversed_list])
    @pytest.mark.parametrize("num_chunks", [1, 2, 3, 8])
    def test_sequential_layouts(self, layout, num_chunks, rng):
        lst = layout(500, values=rng.integers(-9, 9, 500))
        got = sharded_list_scan(lst, config=chunked(num_chunks), rng=rng)
        assert np.array_equal(got, serial_list_scan(lst))

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 5000])
    def test_random_lists(self, n, rng):
        lst = random_list(n, rng, values=rng.integers(-9, 9, n))
        got = sharded_list_scan(lst, config=chunked(4), rng=rng)
        assert np.array_equal(got, serial_list_scan(lst))

    @pytest.mark.parametrize("op", [MAX, MIN, PROD, XOR], ids=lambda o: o.name)
    def test_operators(self, op, rng):
        vals = rng.integers(1, 9, 3000)
        lst = blocked_list(3000, 64, rng, values=vals)
        got = sharded_list_scan(lst, op, config=chunked(5), rng=rng)
        assert np.array_equal(got, serial_list_scan(lst, op))

    def test_inclusive(self, rng):
        lst = blocked_list(2000, 32, rng, values=rng.integers(-9, 9, 2000))
        got = sharded_list_scan(
            lst, inclusive=True, config=chunked(3), rng=rng
        )
        assert np.array_equal(got, serial_list_scan(lst, inclusive=True))

    def test_rank(self, rng):
        lst = blocked_list(5000, 64, rng)
        got = sharded_list_rank(lst, config=chunked(6), rng=rng)
        assert np.array_equal(got, serial_list_rank(lst))

    def test_multi_list_forest(self, rng):
        # three lists fused into one successor array, ranked together
        sizes = [700, 1, 1300]
        offsets = np.cumsum([0] + sizes)
        nxt = np.empty(int(offsets[-1]), dtype=INDEX_DTYPE)
        heads = []
        for off, size in zip(offsets, sizes):
            lst = random_list(size, rng)
            nxt[off : off + size] = lst.next + off
            heads.append(lst.head + off)
        values = rng.integers(-9, 9, int(offsets[-1]))
        heads = np.asarray(heads, dtype=INDEX_DTYPE)
        expect = forest_list_scan(nxt, values, heads, rng=rng)
        got = sharded_forest_scan(
            nxt, values, heads, config=chunked(5), rng=rng
        )
        assert np.array_equal(got, expect)

    def test_matches_sublist_bit_for_bit(self, rng):
        lst = blocked_list(20_000, 64, rng, values=rng.integers(-9, 9, 20_000))
        expect = sublist_list_scan(lst, rng=rng)
        got = sharded_list_scan(lst, config=chunked(8), rng=rng)
        assert np.array_equal(got, expect)

    def test_threads_backend_identical(self, rng):
        lst = blocked_list(20_000, 64, rng, values=rng.integers(-9, 9, 20_000))
        expect = serial_list_scan(lst)
        backend = create_backend("threads", 4)
        try:
            got = sharded_list_scan(
                lst, config=chunked(8), backend=backend, rng=rng
            )
        finally:
            backend.close()
        assert np.array_equal(got, expect)

    def test_processes_backend_identical(self, rng, process_backend):
        lst = blocked_list(60_000, 64, rng, values=rng.integers(-9, 9, 60_000))
        before = set(glob.glob("/dev/shm/psm_*"))
        got = sharded_list_scan(
            lst, config=chunked(6), backend=process_backend, rng=rng
        )
        assert np.array_equal(got, serial_list_scan(lst))
        assert set(glob.glob("/dev/shm/psm_*")) == before

    def test_offloaded_chunks_carry_the_process_backend(self, rng, monkeypatch):
        # no backend passed: inline or offloaded, every chunk runs on
        # the process's kernel backend, so every chunk task names it
        from repro.distribute.chunks import _ChunkTask

        monkeypatch.setenv(ENV_VAR, "python")
        named = []
        run_task = workers_mod.ProcessBackend.run_task

        def spy(self, fn, *args):
            if isinstance(args[0], _ChunkTask):
                named.append(args[0].kernel_backend)
            return run_task(self, fn, *args)

        monkeypatch.setattr(workers_mod.ProcessBackend, "run_task", spy)
        lst = blocked_list(20_000, 64, rng, values=rng.integers(-9, 9, 20_000))
        heads = np.asarray([lst.head], dtype=INDEX_DTYPE)
        got = sharded_forest_scan(
            lst.next, lst.values, heads, SUM, config=chunked(4), backend="processes", rng=0
        )
        assert np.array_equal(got, serial_list_scan(lst))
        assert len(named) == 8 and set(named) == {"python"}  # 4 contractions, 4 expansions

    def test_deterministic_across_executors(self, rng, process_backend):
        # same seed -> identical bytes from sync, threads, and processes
        lst = blocked_list(30_000, 64, rng, values=rng.integers(-9, 9, 30_000))
        outs = []
        for backend in ("sync", "threads", process_backend):
            outs.append(
                sharded_list_scan(lst, config=chunked(5), backend=backend, rng=42)
            )
        assert np.array_equal(outs[0], outs[1])
        assert np.array_equal(outs[0], outs[2])

    def test_report_telemetry(self, rng):
        lst = blocked_list(8000, 64, rng)
        report = {}
        sharded_list_rank(lst, config=chunked(4), rng=rng, report=report)
        assert report["num_chunks"] == 4
        assert 0 < report["n_reduced"] <= 8000
        assert report["reduced_algorithm"] in ("serial", "wyllie", "sublist")
        assert report["memory_budget_bytes"] > 0

    def test_inputs_not_modified(self, rng):
        lst = blocked_list(5000, 64, rng, values=rng.integers(-9, 9, 5000))
        before_next = lst.next.copy()
        before_vals = lst.values.copy()
        sharded_list_scan(lst, config=chunked(7), rng=rng)
        assert np.array_equal(lst.next, before_next)
        assert np.array_equal(lst.values, before_vals)

    def test_float_values_close(self, rng):
        # floats re-associate across segment boundaries (docs/kernels.md)
        lst = blocked_list(4000, 64, rng, values=rng.random(4000))
        got = sharded_list_scan(lst, config=chunked(5), rng=rng)
        assert np.allclose(got, serial_list_scan(lst))


class TestOutOfCore:
    def test_memmap_roundtrip(self, tmp_path, rng):
        write_memmap_list(tmp_path, 5000, layout="blocked", seed=3)
        mlist = open_memmap_list(tmp_path)
        assert mlist.n == 5000
        assert isinstance(mlist.next, np.memmap)
        # a valid list: every node reachable from the head exactly once
        seen = np.zeros(5000, dtype=bool)
        node = mlist.head
        for _ in range(5000):
            assert not seen[node]
            seen[node] = True
            node = int(mlist.next[node])
        assert seen.all()

    @pytest.mark.parametrize("layout", ["ordered", "blocked"])
    def test_memmap_rank_inside_budget(self, tmp_path, layout, rng):
        n = 50_000
        write_memmap_list(tmp_path, n, layout=layout, seed=5)
        mlist = open_memmap_list(tmp_path)
        out = create_output_memmap(tmp_path, n, INDEX_DTYPE)
        cfg = DistributedConfig(
            memory_budget_bytes=1 << 20, chunk_nodes=4096
        )
        report = {}
        sharded_forest_scan(
            mlist.next,
            mlist.values,
            np.array([mlist.head], dtype=INDEX_DTYPE),
            SUM,
            config=cfg,
            out=out,
            rng=rng,
            report=report,
        )
        # the ranks of an n-node list are a permutation of [0, n)
        assert np.array_equal(np.sort(np.asarray(out)), np.arange(n))
        # chunk leases stayed inside the configured budget
        assert report["gate_peak_bytes"] <= cfg.memory_budget_bytes

    def test_memmap_through_process_pool(self, tmp_path, rng, process_backend):
        n = 60_000
        write_memmap_list(tmp_path, n, layout="blocked", seed=7)
        mlist = open_memmap_list(tmp_path)
        out = create_output_memmap(tmp_path, n, INDEX_DTYPE)
        before = set(glob.glob("/dev/shm/psm_*"))
        sharded_forest_scan(
            mlist.next,
            mlist.values,
            np.array([mlist.head], dtype=INDEX_DTYPE),
            SUM,
            config=DistributedConfig(
                memory_budget_bytes=2 << 20, chunk_nodes=8192
            ),
            backend=process_backend,
            out=out,
            rng=rng,
        )
        assert np.array_equal(np.sort(np.asarray(out)), np.arange(n))
        assert set(glob.glob("/dev/shm/psm_*")) == before


class TestEngineRouting:
    def test_oversized_auto_requests_route_distributed(self, rng):
        # above the fusion cap the big list is a shard of its own
        n = FUSE_NODES + 1000
        big = blocked_list(n, 64, rng, values=rng.integers(-9, 9, n))
        small = random_list(500, rng, values=rng.integers(-9, 9, 500))
        expect_big = serial_list_scan(big)
        expect_small = serial_list_scan(small)
        with Engine(
            executor="threads",
            max_workers=2,
            cache_capacity=0,
            distributed=DistributedConfig(min_nodes=10_000, num_chunks=4),
        ) as engine:
            responses = engine.run_batch(
                [ScanRequest(lst=big), ScanRequest(lst=small)]
            )
            assert all(r.ok for r in responses)
            assert responses[0].algorithm == "distributed"
            assert responses[1].algorithm != "distributed"
            assert np.array_equal(responses[0].result, expect_big)
            assert np.array_equal(responses[1].result, expect_small)
            snap = engine.stats.snapshot()
        assert snap["distributed_runs"] == 1
        assert snap["distributed_chunks"] == 4
        assert snap["algorithms"]["distributed"] == 1

    def test_chunks_run_on_the_engine_backend(self, rng, monkeypatch):
        # the engine resolves its kernel backend once: a distributed
        # shard's chunk tasks carry it, though the variable changes later
        from repro.distribute.chunks import _ChunkTask

        monkeypatch.setenv(ENV_VAR, "python")
        named = []
        run_task = workers_mod.ProcessBackend.run_task

        def spy(self, fn, *args):
            if isinstance(args[0], _ChunkTask):
                named.append(args[0].kernel_backend)
            return run_task(self, fn, *args)

        monkeypatch.setattr(workers_mod.ProcessBackend, "run_task", spy)
        lst = blocked_list(20_000, 64, rng, values=rng.integers(-9, 9, 20_000))
        with Engine(
            executor="processes",
            max_workers=2,
            cache_capacity=0,
            distributed=DistributedConfig(min_nodes=10_000, num_chunks=4),
        ) as engine:
            monkeypatch.setenv(ENV_VAR, "numpy")
            [resp] = engine.run_batch([ScanRequest(lst=lst)])
        assert resp.ok and resp.algorithm == "distributed"
        assert np.array_equal(resp.result, serial_list_scan(lst))
        assert len(named) == 8 and set(named) == {"python"}  # 4 contractions, 4 expansions

    def test_fused_shard_reaching_pinned_min_nodes_routes_distributed(self, rng):
        # two lists below the cap fuse; together they reach min_nodes
        lists = [blocked_list(n, 64, rng, values=rng.integers(-9, 9, n)) for n in (6_000, 7_000)]
        with Engine(
            executor="threads",
            max_workers=2,
            cache_capacity=0,
            distributed=DistributedConfig(min_nodes=10_000, num_chunks=4),
        ) as engine:
            responses = engine.run_batch([ScanRequest(lst=lst) for lst in lists])
            assert engine.stats.shards == 1
            assert engine.stats.distributed_runs == 1
        for lst, resp in zip(lists, responses):
            assert resp.ok and resp.algorithm == "distributed"
            assert resp.batch_lists == 2
            assert np.array_equal(resp.result, serial_list_scan(lst))

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_concurrent_distributed_shards_finish(self, rng, executor):
        # a SUM and a MAX list are two shards, run at once on a 2-wide
        # pool; each maps its chunks from a pool thread, which must run
        # them inline rather than queue them behind itself
        ops = (SUM, MAX)
        lists = [blocked_list(20_000, 64, rng, values=rng.integers(-9, 9, 20_000)) for _ in ops]
        engine = Engine(
            executor=executor,
            max_workers=2,
            cache_capacity=0,
            distributed=DistributedConfig(min_nodes=10_000, num_chunks=4),
        )
        try:
            with within(60):
                responses = engine.run_batch(
                    [ScanRequest(lst=lst, op=op) for lst, op in zip(lists, ops)]
                )
        except TimeoutError:
            # the pool threads wait on each other: cancel the chunk
            # tasks queued behind them so close() can join them
            backend = engine._backend
            for pool in (backend._pool, getattr(backend, "_driver", None)):
                if pool is not None:
                    pool.shutdown(wait=False, cancel_futures=True)
            raise
        finally:
            engine.close()
        for lst, op, resp in zip(lists, ops, responses):
            assert resp.ok and resp.algorithm == "distributed"
            assert np.array_equal(resp.result, serial_list_scan(lst, op))

    def test_forced_algorithm_bypasses_sharding(self, rng):
        big = blocked_list(50_000, 64, rng, values=rng.integers(-9, 9, 50_000))
        with Engine(
            executor="sync",
            cache_capacity=0,
            distributed=DistributedConfig(min_nodes=0),
        ) as engine:
            (resp,) = engine.run_batch(
                [ScanRequest(lst=big, algorithm="sublist")]
            )
            assert resp.ok and resp.algorithm == "sublist"
            assert engine.stats.distributed_runs == 0

    def test_without_config_nothing_routes(self, rng):
        big = blocked_list(50_000, 64, rng)
        with Engine(executor="sync", cache_capacity=0) as engine:
            (resp,) = engine.run_batch([ScanRequest(lst=big)])
            assert resp.ok and resp.algorithm != "distributed"
            assert engine.stats.distributed_runs == 0

    def test_distributed_failure_quarantines(self, rng):
        # a poisoned oversized request fails in the sharded path, then
        # again solo — the engine answers with a structured error, and
        # a healthy shard-mate still gets its result
        bad = blocked_list(30_000, 64, rng)
        bad.next[15_000] = 10**9  # out of range; the kernels refuse it
        good = blocked_list(29_000, 64, rng, values=rng.integers(-9, 9, 29_000))
        with Engine(
            executor="sync",
            cache_capacity=0,
            distributed=DistributedConfig(min_nodes=10_000, num_chunks=4),
        ) as engine:
            responses = engine.run_batch(
                [ScanRequest(lst=bad), ScanRequest(lst=good)]
            )
        assert [r.ok for r in responses] == [False, True]
        assert responses[0].error.phase == "execute"
        assert np.array_equal(responses[1].result, serial_list_scan(good))

    def test_traced_sharded_run_has_chunk_spans(self, rng):
        from repro.trace import Tracer

        lst = blocked_list(20_000, 64, rng)
        tracer = Tracer()
        with Engine(
            executor="sync",
            cache_capacity=0,
            trace=tracer,
            distributed=DistributedConfig(min_nodes=10_000, num_chunks=3),
        ) as engine:
            (resp,) = engine.run_batch([ScanRequest(lst=lst)])
        assert resp.ok and resp.algorithm == "distributed"
        root = tracer.last_root()
        (sharded,) = root.find_all("sharded_scan")
        contract = sharded.find("contract")
        expand = sharded.find("expand")
        assert sharded.find("reduce") is not None
        assert len(contract.find_all("chunk_contract")) == 3
        assert len(expand.find_all("chunk_expand")) == 3
