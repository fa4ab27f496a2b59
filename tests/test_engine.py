"""End-to-end tests for the batched execution engine.

The engine contract: a batch of requests submitted together returns,
for every request, exactly the array the dispatch API would have
produced for that request alone — regardless of how requests were
sharded, fused, routed or cached.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.serial import serial_list_scan
from repro.core.list_scan import list_rank, list_scan
from repro.core.operators import AFFINE, MAX, SUM, XOR
from repro.engine import BackpressureError, Engine, ScanRequest
from repro.lists.generate import random_list, random_values

from .conftest import make_affine_values


def mixed_batch(count=64, max_n=4000, seed=0, op=SUM, values=True):
    """``count`` random lists with log-uniform sizes in [1, max_n]."""
    rng = np.random.default_rng(seed)
    sizes = np.exp(rng.uniform(0, np.log(max_n), count)).astype(int)
    sizes = np.clip(sizes, 1, max_n)
    lists = []
    for n in sizes:
        vals = random_values(int(n), rng) if values else None
        lists.append(random_list(int(n), rng, values=vals))
    return lists


class TestEquivalence:
    """Engine results are element-for-element equal to per-list scans."""

    def test_acceptance_64_mixed_lists(self):
        # the PR's acceptance criterion: >= 64 mixed-size lists through
        # the engine match individual list_scan calls exactly
        lists = mixed_batch(count=72, max_n=6000, seed=42)
        engine = Engine()
        results = engine.map_scan(lists, SUM)
        assert len(results) == 72
        for lst, got in zip(lists, results):
            np.testing.assert_array_equal(got, list_scan(lst, SUM))
        assert engine.stats.requests == 72
        assert engine.stats.fused_lists + engine.stats.solo_runs == 72

    @pytest.mark.parametrize("op", [SUM, MAX, XOR])
    @pytest.mark.parametrize("inclusive", [False, True])
    def test_operators_and_inclusive(self, op, inclusive):
        lists = mixed_batch(count=24, max_n=1500, seed=7)
        engine = Engine()
        results = engine.map_scan(lists, op, inclusive=inclusive)
        for lst, got in zip(lists, results):
            ref = serial_list_scan(lst, op, inclusive=inclusive)
            np.testing.assert_array_equal(got, ref)

    def test_affine_noncommutative(self):
        rng = np.random.default_rng(11)
        lists = [
            random_list(n, rng, values=make_affine_values(rng, n))
            for n in (3, 17, 120, 700, 2500)
        ]
        engine = Engine()
        for lst, got in zip(lists, engine.map_scan(lists, AFFINE)):
            np.testing.assert_array_equal(got, serial_list_scan(lst, AFFINE))

    @pytest.mark.parametrize(
        "algorithm", ["serial", "wyllie", "sublist", "random_mate"]
    )
    def test_forced_algorithms(self, algorithm):
        lists = mixed_batch(count=12, max_n=600, seed=3)
        engine = Engine()
        results = engine.map_scan(lists, SUM, algorithm=algorithm)
        for lst, got in zip(lists, results):
            np.testing.assert_array_equal(got, serial_list_scan(lst, SUM))

    def test_threaded_driver_matches_sync(self):
        lists = mixed_batch(count=40, max_n=3000, seed=9)
        sync = Engine(executor="sync", cache_capacity=0)
        threaded = Engine(executor="threads", cache_capacity=0, max_workers=4)
        got_sync = sync.map_scan(lists, SUM)
        got_threaded = threaded.map_scan(lists, SUM)
        for a, b in zip(got_sync, got_threaded):
            np.testing.assert_array_equal(a, b)

    def test_single_node_lists(self):
        lists = [random_list(1, i) for i in range(8)]
        engine = Engine()
        for lst, got in zip(lists, engine.map_scan(lists, SUM)):
            np.testing.assert_array_equal(got, serial_list_scan(lst, SUM))

    def test_inputs_never_mutated(self):
        lists = mixed_batch(count=16, max_n=800, seed=5)
        snapshots = [(x.next.copy(), x.values.copy()) for x in lists]
        Engine().map_scan(lists, SUM)
        for lst, (nxt, vals) in zip(lists, snapshots):
            np.testing.assert_array_equal(lst.next, nxt)
            np.testing.assert_array_equal(lst.values, vals)

    def test_solo_request_over_read_only_arrays(self):
        # the scans only read their input, so the engine hands the
        # request's own arrays to the kernel
        lst = random_list(20_000, 4, values=random_values(20_000, 4))
        lst.next.flags.writeable = False
        lst.values.flags.writeable = False
        with Engine(executor="sync", cache_capacity=0) as engine:
            (resp,) = engine.run_batch([ScanRequest(lst=lst, algorithm="sublist")])
        assert resp.ok
        np.testing.assert_array_equal(resp.result, serial_list_scan(lst, SUM))

    def test_rank_convenience(self):
        lst = random_list(500, 0)
        engine = Engine()
        np.testing.assert_array_equal(engine.rank(lst), list_rank(lst))


class TestCachingBehavior:
    def test_resubmission_hits_cache(self):
        lists = mixed_batch(count=10, max_n=500, seed=1)
        engine = Engine()
        first = engine.map_scan(lists, SUM)
        assert engine.stats.cache_hits == 0
        second = engine.map_scan(lists, SUM)
        assert engine.stats.cache_hits == 10
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_cached_responses_flagged(self):
        lst = random_list(100, 0)
        engine = Engine()
        engine.scan(lst, SUM)
        [resp] = engine.run_batch([ScanRequest(lst=lst, op=SUM)])
        assert resp.cached
        assert resp.algorithm == "cached"

    def test_different_semantics_do_not_collide(self):
        lst = random_list(64, 0, values=random_values(64, 0))
        engine = Engine()
        ex = engine.scan(lst, SUM, inclusive=False)
        inc = engine.scan(lst, SUM, inclusive=True)
        assert engine.stats.cache_hits == 0
        np.testing.assert_array_equal(
            inc, serial_list_scan(lst, SUM, inclusive=True)
        )
        np.testing.assert_array_equal(ex, serial_list_scan(lst, SUM))

    def test_cache_disabled(self):
        lists = mixed_batch(count=6, max_n=200, seed=2)
        engine = Engine(cache_capacity=0)
        engine.map_scan(lists, SUM)
        engine.map_scan(lists, SUM)
        assert engine.stats.cache_hits == 0

    def test_mutating_returned_result_does_not_poison_cache(self):
        lst = random_list(50, 0)
        engine = Engine()
        first = engine.scan(lst, SUM)
        first[:] = -999
        np.testing.assert_array_equal(
            engine.scan(lst, SUM), serial_list_scan(lst, SUM)
        )


class TestSubmissionFlow:
    def test_submit_flush_roundtrip(self):
        lists = mixed_batch(count=8, max_n=300, seed=4)
        engine = Engine()
        ids = [
            engine.submit(lst, SUM, tag=f"req-{k}")
            for k, lst in enumerate(lists)
        ]
        responses = engine.flush()
        assert [r.request_id for r in responses] == ids
        assert [r.tag for r in responses] == [f"req-{k}" for k in range(8)]
        for lst, resp in zip(lists, responses):
            np.testing.assert_array_equal(
                resp.result, serial_list_scan(lst, SUM)
            )
        assert len(engine.queue) == 0

    def test_submit_backpressure(self):
        engine = Engine(max_pending=2)
        engine.submit(random_list(10, 0))
        engine.submit(random_list(10, 1))
        with pytest.raises(BackpressureError):
            engine.submit(random_list(10, 2), block=False)
        engine.flush()
        engine.submit(random_list(10, 2), block=False)

    def test_submit_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            Engine().submit(random_list(10, 0), algorithm="quantum")

    def test_list_scan_engine_path(self):
        lst = random_list(300, 0, values=random_values(300, 0))
        engine = Engine()
        got = engine.scan(lst, SUM, algorithm="auto")
        np.testing.assert_array_equal(got, serial_list_scan(lst, SUM))
        assert engine.stats.requests == 1

    def test_list_rank_engine_kwarg(self):
        lst = random_list(200, 0)
        engine = Engine()
        np.testing.assert_array_equal(engine.rank(lst), list_rank(lst))


class TestStats:
    def test_counters_accumulate(self):
        lists = mixed_batch(count=20, max_n=1000, seed=6)
        engine = Engine()
        engine.map_scan(lists, SUM)
        s = engine.stats
        assert s.batches == 1
        assert s.requests == 20
        assert s.shards >= 1
        assert s.fused_nodes > 0
        assert sum(s.algorithms.values()) == 20
        assert s.seconds_executing > 0

    def test_as_rows_table_friendly(self):
        from repro.bench.harness import format_table

        engine = Engine()
        engine.map_scan(mixed_batch(count=4, max_n=100, seed=8), SUM)
        table = format_table(["counter", "value"], engine.stats.as_rows())
        assert "requests" in table and "fused lists" in table

    def test_fingerprint_failure_is_not_a_cache_miss(self):
        # regression: requests whose fingerprint raises never probe the
        # cache, so they must not inflate cache_misses (the old code
        # derived misses as len(requests) - hits)
        rng = np.random.default_rng(5)
        good = random_list(40, rng, values=random_values(40, rng))
        bad = random_list(8, rng)
        bad.values = np.array([object()] * 8, dtype=object)  # unfingerprintable
        engine = Engine()
        responses = engine.run_batch(
            [ScanRequest(lst=good), ScanRequest(lst=bad)]
        )
        assert [r.ok for r in responses] == [True, False]
        assert responses[1].error.code == "fingerprint"
        assert engine.stats.cache_misses == 1  # only the good request probed
        assert engine.stats.cache_hits == 0
        assert engine.stats.errors == 1
        # and the engine's counters agree with the cache's own probes
        assert engine.stats.cache_misses == engine.cache.stats()["misses"]
        assert engine.stats.cache_hits == engine.cache.stats()["hits"]


@st.composite
def batch_shapes(draw):
    """Random batch shapes: several lists with arbitrary small sizes."""
    return draw(
        st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=24)
    )


class TestPropertyEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        sizes=batch_shapes(),
        op=st.sampled_from([SUM, MAX, XOR]),
        inclusive=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_random_batch_shapes_match_serial(self, sizes, op, inclusive, seed):
        rng = np.random.default_rng(seed)
        lists = [
            random_list(n, rng, values=random_values(n, rng)) for n in sizes
        ]
        engine = Engine(cache_capacity=0, seed=seed)
        results = engine.map_scan(lists, op, inclusive=inclusive)
        for lst, got in zip(lists, results):
            ref = serial_list_scan(lst, op, inclusive=inclusive)
            np.testing.assert_array_equal(got, ref)

    @settings(max_examples=25, deadline=None)
    @given(
        sizes=batch_shapes(),
        dup_every=st.integers(min_value=2, max_value=5),
        repeats=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_engine_stats_reconcile_with_cache_stats(
        self, sizes, dup_every, repeats, seed
    ):
        # reconciliation property: on every workload — duplicates that
        # coalesce, resubmissions that hit the cache — the engine's
        # hit/miss counters equal the cache's own probe accounting, and
        # probes partition the fingerprintable requests
        rng = np.random.default_rng(seed)
        lists = [
            random_list(n, rng, values=random_values(n, rng)) for n in sizes
        ]
        engine = Engine(seed=seed)
        for _ in range(repeats):
            reqs = []
            for i, lst in enumerate(lists):
                reqs.append(ScanRequest(lst=lst))
                if i % dup_every == 0:  # in-batch duplicate
                    reqs.append(ScanRequest(lst=lst.copy()))
            engine.run_batch(reqs)
        s = engine.stats
        cache_stats = engine.cache.stats()
        assert s.cache_hits == cache_stats["hits"]
        assert s.cache_misses == cache_stats["misses"]
        assert s.cache_hits + s.cache_misses == s.requests
