"""Fault isolation, intra-batch coalescing and health counters.

The serving contract under test: ``Engine.run_batch`` never raises for
a single bad request.  Validation and execution failures come back as
``ok=False`` responses carrying a structured ``RequestError`` while
every healthy request in the batch — under both the sync and
thread-pool drivers — still gets exactly the result ``list_scan``
would have produced for it alone.
"""

import threading

import numpy as np
import pytest

from repro.baselines.serial import serial_list_scan
from repro.core.operators import MAX, MIN, SUM, AFFINE, Operator
from repro.engine import (
    Engine,
    EngineRequestError,
    RequestError,
    ScanRequest,
)
from repro.lists.generate import list_order, random_list, random_values

SENTINEL = -1234567


def _poison_combine(a, b):
    if np.any(np.equal(a, SENTINEL)) or np.any(np.equal(b, SENTINEL)):
        raise RuntimeError("poisoned value encountered")
    return np.add(a, b)


#: Associative "sum" whose combine raises on a sentinel value — models
#: a custom operator blowing up mid-kernel for one request's data.
POISON = Operator(name="poison-sum", combine=_poison_combine, identity=0)


def healthy_list(n, seed):
    rng = np.random.default_rng(seed)
    return random_list(n, rng, values=random_values(n, rng))


def corrupt_list(n, seed):
    lst = healthy_list(n, seed)
    lst.next[n // 2] = n + 5  # out-of-range successor
    return lst


class TestValidationChannel:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_corrupted_successor_array_isolated(self, parallel):
        # the PR's acceptance criterion: one corrupted request fails
        # structurally, everyone else still gets correct results
        lists = [healthy_list(n, seed) for seed, n in enumerate((40, 800, 7, 120, 3000))]
        bad = corrupt_list(64, seed=99)
        reqs = [ScanRequest(lst=lst) for lst in lists] + [ScanRequest(lst=bad)]
        engine = Engine(max_workers=4)
        responses = engine.run_batch(reqs, parallel=parallel)
        assert [r.ok for r in responses] == [True] * 5 + [False]
        failed = responses[-1]
        assert failed.result is None
        assert isinstance(failed.error, RequestError)
        assert failed.error.code == "bad-structure"
        assert failed.error.phase == "execute"
        for lst, resp in zip(lists, responses):
            np.testing.assert_array_equal(resp.result, serial_list_scan(lst, SUM))
        assert engine.stats.errors == 1

    def test_responses_keep_request_order_and_tags(self):
        reqs = [
            ScanRequest(lst=corrupt_list(30, 1), tag="bad-0"),
            ScanRequest(lst=healthy_list(50, 2), tag="good-1"),
            ScanRequest(lst=corrupt_list(31, 3), tag="bad-2"),
        ]
        responses = Engine().run_batch(reqs)
        assert [r.tag for r in responses] == ["bad-0", "good-1", "bad-2"]
        assert [r.ok for r in responses] == [False, True, False]

    def test_nan_rejected_for_nan_hostile_operators(self):
        lst = healthy_list(20, 4)
        lst.values = lst.values.astype(np.float64)
        lst.values[7] = np.nan
        for op in (MIN, MAX):
            [resp] = Engine().run_batch([ScanRequest(lst=lst, op=op)])
            assert not resp.ok and resp.error.code == "nan-values"
        [resp] = Engine().run_batch([ScanRequest(lst=lst, op=SUM)])
        assert resp.ok  # NaN is well-defined under +

    def test_operator_dtype_mismatch_rejected(self):
        lst = healthy_list(16, 5)
        lst.values = np.linspace(0.0, 1.0, 16)
        [resp] = Engine().run_batch([ScanRequest(lst=lst, op="xor")])
        assert not resp.ok and resp.error.code == "op-mismatch"

    def test_value_shape_mismatches_rejected(self):
        short = healthy_list(12, 6)
        short.values = np.ones(5, dtype=np.int64)  # wrong length
        flat = healthy_list(12, 7)  # AFFINE needs (n, 2) values
        [a, b] = Engine().run_batch(
            [ScanRequest(lst=short), ScanRequest(lst=flat, op=AFFINE)]
        )
        assert not a.ok and a.error.code == "bad-shape"
        assert not b.ok and b.error.code == "bad-shape"

    def test_object_dtype_values_rejected(self):
        lst = healthy_list(8, 8)
        lst.values = np.array([object() for _ in range(8)], dtype=object)
        [resp] = Engine().run_batch([ScanRequest(lst=lst)])
        assert not resp.ok
        assert resp.error.code in ("fingerprint", "bad-dtype")

    def test_strict_mode_catches_disjoint_cycle(self):
        """What only the old opt-in strict mode caught, the default
        engine now refuses: a chain plus a disjoint 3-cycle, whose
        in-degrees are all right, at serial and sublist sizes."""
        for n in (32, 5000):
            lst = healthy_list(n, 10)
            order = list_order(lst)
            lst.next[order[-4]] = order[-4]  # the chain ends early...
            lst.next[order[-3:]] = order[[-2, -1, -3]]  # ...beside a 3-cycle
            [resp] = Engine().run_batch([ScanRequest(lst=lst)])
            assert not resp.ok and resp.error.code == "bad-structure"
            assert resp.error.phase == "execute"
        [resp] = Engine().run_batch([ScanRequest(lst=healthy_list(32, 10))])
        assert resp.ok  # the healthy list still passes


class TestExecutionContainment:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_operator_raises_mid_shard_partial_results(self, parallel):
        # three same-operator requests fuse into one shard; one of
        # them carries the sentinel that makes POISON.combine raise
        def make(seed):
            lst = random_list(100, seed, values=np.arange(100, dtype=np.int64))
            return lst

        a, b, c = make(1), make(2), make(3)
        b.values = b.values.copy()
        b.values[57] = SENTINEL  # mid-array: past the validation probe
        extra = healthy_list(500, 11)  # a healthy SUM shard alongside
        engine = Engine(max_workers=4)
        responses = engine.run_batch(
            [ScanRequest(lst=x, op=POISON) for x in (a, b, c)]
            + [ScanRequest(lst=extra)],
            parallel=parallel,
        )
        assert [r.ok for r in responses] == [True, False, True, True]
        assert responses[1].error.phase == "execute"
        assert responses[1].error.code == "execution"
        np.testing.assert_array_equal(responses[0].result, serial_list_scan(a, POISON))
        np.testing.assert_array_equal(responses[2].result, serial_list_scan(c, POISON))
        np.testing.assert_array_equal(responses[3].result, serial_list_scan(extra, SUM))
        assert engine.stats.retries == 1  # the fused shard was retried
        assert engine.stats.quarantined == 1  # only the poisoned request
        assert engine.stats.errors == 1

    def test_singleton_shard_failure_quarantined_without_retry(self):
        lst = random_list(60, 0, values=np.arange(60, dtype=np.int64))
        lst.values[30] = SENTINEL
        engine = Engine()
        [resp] = engine.run_batch([ScanRequest(lst=lst, op=POISON)])
        assert not resp.ok and resp.error.phase == "execute"
        assert engine.stats.quarantined == 1
        assert engine.stats.retries == 0  # nothing fused to retry

    def test_failed_results_never_cached(self):
        lst = random_list(60, 1, values=np.arange(60, dtype=np.int64))
        lst.values[30] = SENTINEL
        engine = Engine()
        for _ in range(2):
            [resp] = engine.run_batch([ScanRequest(lst=lst, op=POISON)])
            assert not resp.ok
        assert engine.stats.cache_hits == 0
        assert engine.stats.errors == 2

    def test_scan_and_map_scan_raise_engine_request_error(self):
        bad = corrupt_list(24, 12)
        engine = Engine()
        with pytest.raises(EngineRequestError) as excinfo:
            engine.scan(bad)
        assert excinfo.value.error.code == "bad-structure"
        with pytest.raises(EngineRequestError):
            engine.map_scan([healthy_list(10, 13), bad])

    def test_list_scan_engine_path_raises_structured(self):
        bad = corrupt_list(24, 14)
        engine = Engine()
        with pytest.raises(EngineRequestError) as excinfo:
            engine.scan(bad, SUM)
        assert excinfo.value.error.code == "bad-structure"
        with pytest.raises(EngineRequestError):
            engine.rank(bad)


class TestCoalescing:
    def test_duplicate_in_batch_executes_once(self):
        # the PR's acceptance criterion: same list twice in one batch
        # executes exactly once and stats.coalesced == 1
        lst = healthy_list(300, 20)
        other = healthy_list(80, 21)
        engine = Engine()
        responses = engine.run_batch(
            [ScanRequest(lst=lst), ScanRequest(lst=other), ScanRequest(lst=lst)]
        )
        assert engine.stats.coalesced == 1
        assert engine.stats.fused_lists + engine.stats.solo_runs == 2
        assert responses[2].coalesced and not responses[0].coalesced
        np.testing.assert_array_equal(responses[0].result, responses[2].result)
        np.testing.assert_array_equal(
            responses[0].result, serial_list_scan(lst, SUM)
        )

    def test_coalescing_works_with_cache_disabled(self):
        lst = healthy_list(150, 22)
        engine = Engine(cache_capacity=0)
        responses = engine.run_batch([ScanRequest(lst=lst), ScanRequest(lst=lst)])
        assert engine.stats.coalesced == 1
        assert all(r.ok for r in responses)
        np.testing.assert_array_equal(responses[0].result, responses[1].result)

    def test_cache_disabled_engine_hashes_only_to_coalesce(self, monkeypatch):
        """Without a cache a fingerprint serves only coalescing: a request
        that shares its cheap key (size, head, shard key) with no other
        request of the batch is not hashed."""
        import repro.engine.engine as engine_module

        hashed = []
        fingerprint = engine_module.fingerprint
        monkeypatch.setattr(
            engine_module,
            "fingerprint",
            lambda lst, *args: hashed.append(lst) or fingerprint(lst, *args),
        )
        lst, other = healthy_list(150, 22), healthy_list(90, 21)
        engine = Engine(cache_capacity=0)
        [lone] = engine.run_batch([ScanRequest(lst=lst)])
        assert lone.ok and hashed == []
        responses = engine.run_batch(
            [ScanRequest(lst=lst), ScanRequest(lst=other), ScanRequest(lst=lst)]
        )
        assert hashed == [lst, lst]
        assert engine.stats.coalesced == 1 and responses[2].coalesced
        for resp, ref in zip(responses, (lst, other, lst)):
            np.testing.assert_array_equal(resp.result, serial_list_scan(ref, SUM))

    def test_cheap_key_reads_the_head_node(self, monkeypatch):
        """Requests that share size and head but not the head node's
        successor and value are never hashed; sharing those too, they
        are hashed and still execute apart unless identical."""
        import repro.engine.engine as engine_module

        hashed = []
        fingerprint = engine_module.fingerprint
        monkeypatch.setattr(
            engine_module,
            "fingerprint",
            lambda lst, *args: hashed.append(lst) or fingerprint(lst, *args),
        )
        base = healthy_list(64, 24)
        head_value = base.copy()
        head_value.values[base.head] += 1
        tail_value = base.copy()
        tail_value.values[base.next[base.head]] += 1
        engine = Engine(cache_capacity=0)
        responses = engine.run_batch(
            [ScanRequest(lst=x) for x in (base, head_value, tail_value)]
        )
        assert hashed == [base, tail_value]
        assert engine.stats.coalesced == 0
        for resp, ref in zip(responses, (base, head_value, tail_value)):
            np.testing.assert_array_equal(resp.result, serial_list_scan(ref, SUM))

    def test_disabled_cache_is_never_probed(self):
        lst = healthy_list(150, 22)
        engine = Engine(cache_capacity=0)
        engine.run_batch([ScanRequest(lst=lst), ScanRequest(lst=lst.copy())])
        assert engine.stats.coalesced == 1
        assert engine.stats.cache_misses == 0 and engine.stats.cache_hits == 0
        assert engine.cache.stats()["misses"] == 0

    def test_unhashed_object_dtype_request_keeps_fingerprint_code(self):
        lst = healthy_list(8, 8)
        lst.values = np.array([object() for _ in range(8)], dtype=object)
        [resp] = Engine(cache_capacity=0).run_batch([ScanRequest(lst=lst)])
        assert not resp.ok and resp.error.code == "fingerprint"

    def test_coalesced_results_are_independent_copies(self):
        lst = healthy_list(64, 23)
        engine = Engine()
        first, second = engine.run_batch(
            [ScanRequest(lst=lst), ScanRequest(lst=lst)]
        )
        first.result[:] = -1
        np.testing.assert_array_equal(second.result, serial_list_scan(lst, SUM))

    def test_error_fans_out_to_duplicates(self):
        lst = random_list(90, 24, values=np.arange(90, dtype=np.int64))
        lst.values[40] = SENTINEL
        engine = Engine()
        responses = engine.run_batch(
            [ScanRequest(lst=lst, op=POISON), ScanRequest(lst=lst, op=POISON)]
        )
        assert [r.ok for r in responses] == [False, False]
        assert responses[1].coalesced
        assert responses[1].error is responses[0].error
        assert engine.stats.coalesced == 1
        assert engine.stats.errors == 2

    def test_semantically_different_duplicates_do_not_coalesce(self):
        lst = healthy_list(70, 25)
        engine = Engine()
        responses = engine.run_batch(
            [
                ScanRequest(lst=lst, inclusive=False),
                ScanRequest(lst=lst, inclusive=True),
            ]
        )
        assert engine.stats.coalesced == 0
        np.testing.assert_array_equal(
            responses[1].result, serial_list_scan(lst, SUM, inclusive=True)
        )


class TestConcurrentServing:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_concurrent_submit_and_flush(self, parallel):
        """Producers submit (some poisoned) while a consumer flushes."""
        engine = Engine(max_workers=4, max_pending=None)
        per_thread = 12
        n_threads = 4
        lists = {}
        for t in range(n_threads):
            for k in range(per_thread):
                tag = (t, k)
                if k == 5:  # one corrupted request per producer
                    lists[tag] = corrupt_list(40 + t, seed=100 + t)
                else:
                    lists[tag] = healthy_list(20 + 10 * k + t, seed=200 + 10 * t + k)

        def producer(t):
            for k in range(per_thread):
                engine.submit(lists[(t, k)], SUM, tag=(t, k))

        threads = [
            threading.Thread(target=producer, args=(t,)) for t in range(n_threads)
        ]
        for th in threads:
            th.start()

        collected = {}
        expected = n_threads * per_thread
        while len(collected) < expected or any(th.is_alive() for th in threads):
            for resp in engine.flush(parallel=parallel):
                assert resp.tag not in collected  # answered exactly once
                collected[resp.tag] = resp
        for th in threads:
            th.join()
        for resp in engine.flush(parallel=parallel):
            assert resp.tag not in collected
            collected[resp.tag] = resp

        assert len(collected) == expected
        for tag, resp in collected.items():
            if tag[1] == 5:
                assert not resp.ok and resp.error.code == "bad-structure"
            else:
                assert resp.ok
                np.testing.assert_array_equal(
                    resp.result, serial_list_scan(lists[tag], SUM)
                )
        assert engine.stats.errors == n_threads

    def test_concurrent_drain_run_batch_threadpool(self):
        """Multiple drainers racing over one queue still answer every
        request exactly once, with failures contained per request."""
        engine = Engine(max_workers=4, max_pending=None)
        total = 40
        lists = {}
        for k in range(total):
            if k % 10 == 3:
                lists[k] = corrupt_list(30 + k, seed=300 + k)
            else:
                lists[k] = healthy_list(15 + 3 * k, seed=400 + k)
        for k in range(total):
            engine.submit(lists[k], SUM, tag=k)

        collected = {}
        lock = threading.Lock()

        def drainer():
            while True:
                batch = engine.queue.drain(max_requests=7)
                if not batch:
                    return
                for resp in engine.run_batch(batch, parallel=True):
                    with lock:
                        assert resp.tag not in collected
                        collected[resp.tag] = resp

        threads = [threading.Thread(target=drainer) for _ in range(3)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()

        assert sorted(collected) == list(range(total))
        for k, resp in collected.items():
            if k % 10 == 3:
                assert not resp.ok
            else:
                np.testing.assert_array_equal(
                    resp.result, serial_list_scan(lists[k], SUM)
                )


class TestHealthCounters:
    def test_counters_in_as_rows(self):
        engine = Engine()
        engine.run_batch([ScanRequest(lst=corrupt_list(16, 30))])
        rows = {name: value for name, value in engine.stats.as_rows()}
        assert rows["errors"] == 1
        for counter in ("retries", "quarantined", "coalesced"):
            assert counter in rows

    def test_cli_batch_stats_and_poison(self, capsys):
        from repro.cli import main

        code = main(
            [
                "batch", "--count", "12", "-n", "2048", "--min-n", "32",
                "--poison", "2", "--stats", "--seed", "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "engine health counters" in out
        assert "errors" in out and "coalesced" in out
        assert "2 request(s) failed" in out
