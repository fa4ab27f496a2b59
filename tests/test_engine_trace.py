"""Engine-level tracing and the kernel-stats double-count regression.

The traced serving path must expose the whole lifecycle as a span
tree — ``run_batch`` → ``admit`` / ``shard`` / ``respond``, with
``route``/``cache_hit``/``coalesced``/``queue_wait`` events and a
``quarantine_retry`` span where the batch took that path — without
changing any result.

The regression half pins the per-attempt kernel-stats contract: a
fused execution that raises discards its partial ``ScanStats``; the
quarantine solo re-runs collect from zero, so the engine's
``element_ops`` / ``kernel_rounds`` / ``kernel_packs`` counters match
an engine that only ever served the healthy requests.
"""

import numpy as np
import pytest

from repro.engine import Engine, ScanRequest
from repro.engine.router import CANDIDATES
from repro.lists.generate import random_list, random_values
from repro.trace import Tracer, counting_clock

from .test_engine_faults import POISON, SENTINEL, healthy_list


def _batch(count, n, seed0=0):
    return [ScanRequest(lst=healthy_list(n, seed0 + k)) for k in range(count)]


class TestEngineSpans:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_batch_span_tree(self, parallel):
        tracer = Tracer(clock=counting_clock())
        engine = Engine(trace=tracer, max_workers=4)
        # two operators: two shards
        reqs = _batch(3, 3000) + [
            ScanRequest(lst=healthy_list(40, 10 + k), op="max") for k in range(2)
        ]
        responses = engine.run_batch(reqs, parallel=parallel)
        assert all(r.ok for r in responses)

        root = tracer.last_root()
        assert root.name == "run_batch"
        assert root.attrs == {"requests": 5, "parallel": parallel}
        child_names = [c.name for c in root.children]
        assert child_names[0] == "admit"
        assert child_names[-1] == "respond"
        shards = root.find_all("shard")
        assert len(shards) == 2  # thread-pool shards pinned via parent=
        for shard in shards:
            assert shard.t1 is not None
            assert shard.find("execute") is not None
        # every span closed, even under the pool driver
        for span in root.walk():
            assert span.t1 is not None, span.name

    def test_route_event_carries_cost_model_prediction(self):
        tracer = Tracer()
        engine = Engine(trace=tracer)
        engine.run_batch(_batch(3, 2000))
        (shard,) = tracer.last_root().find_all("shard")
        (route,) = shard.events_named("route")
        assert route.attrs["algorithm"] in CANDIDATES
        assert route.attrs["forced"] is False
        assert route.attrs["n_lists"] == 3
        assert set(route.attrs["predicted_clocks"]) == set(CANDIDATES)
        assert all(v > 0 for v in route.attrs["predicted_clocks"].values())

    def test_queue_wait_events_from_submission_path(self):
        tracer = Tracer()
        engine = Engine(trace=tracer)
        ids = [engine.submit(healthy_list(500, seed)) for seed in range(3)]
        responses = engine.flush()
        assert [r.request_id for r in responses] == ids
        waits = tracer.last_root().find("admit").events_named("queue_wait")
        assert len(waits) == 3
        assert {e.attrs["request_id"] for e in waits} == set(ids)
        assert all(e.attrs["seconds"] >= 0.0 for e in waits)

    def test_direct_run_batch_records_no_queue_wait(self):
        tracer = Tracer()
        Engine(trace=tracer).run_batch(_batch(2, 300))
        assert tracer.last_root().find("admit").events_named("queue_wait") == []

    def test_cache_and_coalescing_events(self):
        tracer = Tracer()
        engine = Engine(trace=tracer)
        lst = healthy_list(400, 1)
        [first, dup] = engine.run_batch(
            [ScanRequest(lst=lst), ScanRequest(lst=lst.copy())]
        )
        admit = tracer.last_root().find("admit")
        (coalesced,) = admit.events_named("coalesced")
        assert coalesced.attrs == {
            "request_id": dup.request_id,
            "primary": first.request_id,
        }
        [again] = engine.run_batch([ScanRequest(lst=lst.copy())])
        assert again.cached
        admit2 = tracer.last_root().find("admit")
        assert len(admit2.events_named("cache_hit")) == 1
        assert admit2.events_named("cache_miss") == []

    def test_validation_error_event(self):
        tracer = Tracer()
        lst = healthy_list(64, 3)
        lst.values = np.ones(5, dtype=np.int64)  # wrong length
        [resp] = Engine(trace=tracer).run_batch([ScanRequest(lst=lst)])
        assert not resp.ok
        (ev,) = tracer.last_root().find("admit").events_named("validation_error")
        assert ev.attrs == {"request_id": resp.request_id, "code": "bad-shape"}

    def test_quarantine_retry_span(self):
        a, b, c = (healthy_list(100, s) for s in (1, 2, 3))
        b.values = np.arange(100, dtype=np.int64)
        b.values[57] = SENTINEL
        tracer = Tracer()
        engine = Engine(trace=tracer)
        responses = engine.run_batch(
            [ScanRequest(lst=x, op=POISON) for x in (a, b, c)]
        )
        assert [r.ok for r in responses] == [True, False, True]
        shard = tracer.last_root().find("shard")
        assert shard.attrs["lists"] == 3
        retry = shard.find("quarantine_retry")
        assert retry is not None
        assert retry.attrs == {"lists": 3}
        # every member re-ran as a shard of one, routed like any shard
        members = retry.find_all("shard")
        assert [m.attrs["lists"] for m in members] == [1, 1, 1]
        for member in members:
            (route,) = member.events_named("route")
            assert route.attrs["n_lists"] == 1
            assert member.find("execute") is not None
        assert engine.stats.retries == 1 and engine.stats.quarantined == 1

    def test_trace_off_engine_records_nothing_and_matches(self):
        lists = [healthy_list(600, s) for s in range(4)]
        plain = Engine(seed=0).map_scan(lists, "sum")
        off_engine = Engine(seed=0, trace="off")
        off = off_engine.map_scan(lists, "sum")
        for got, ref in zip(off, plain):
            np.testing.assert_array_equal(got, ref)
        assert off_engine.trace.roots == []

    def test_traced_engine_matches_untraced_results(self):
        lists = [healthy_list(700, 20 + s) for s in range(5)]
        plain = Engine(seed=0).map_scan(lists, "sum")
        traced = Engine(seed=0, trace=Tracer()).map_scan(lists, "sum")
        for got, ref in zip(traced, plain):
            np.testing.assert_array_equal(got, ref)


class TestKernelStatsAccounting:
    """Satellite regression: failed attempts must not leak kernel work."""

    def _healthy_pair(self):
        rng_a = np.random.default_rng(5)
        rng_c = np.random.default_rng(6)
        a = random_list(300, rng_a, values=random_values(300, rng_a))
        c = random_list(300, rng_c, values=random_values(300, rng_c))
        return a, c

    def _poisoned(self):
        lst = random_list(300, 7, values=np.arange(300, dtype=np.int64))
        lst.values[150] = SENTINEL
        return lst

    def test_kernel_counters_populated_on_success(self):
        engine = Engine()
        engine.run_batch(_batch(3, 1500))
        assert engine.stats.element_ops > 0
        rows = dict((k, v) for k, v in engine.stats.as_rows())
        assert rows["element ops"] == engine.stats.element_ops
        assert "kernel rounds" in rows and "kernel packs" in rows

    def test_failed_fused_attempt_discards_partial_kernel_stats(self):
        # wyllie accumulates ScanStats round by round, so the fused
        # attempt has already counted real work when POISON raises
        # mid-kernel; pre-fix that partial work stayed in the engine
        # counters *and* the solo re-runs added their own full runs.
        a, c = self._healthy_pair()
        b = self._poisoned()

        engine = Engine()
        responses = engine.run_batch(
            [
                ScanRequest(lst=x, op=POISON, algorithm="wyllie")
                for x in (a, b, c)
            ]
        )
        assert [r.ok for r in responses] == [True, False, True]
        assert engine.stats.retries == 1  # the fused attempt did run (and fail)

        control = Engine()
        for lst in (a, c):
            [resp] = control.run_batch(
                [ScanRequest(lst=lst, op=POISON, algorithm="wyllie")]
            )
            assert resp.ok

        assert control.stats.element_ops > 0
        assert engine.stats.element_ops == control.stats.element_ops
        assert engine.stats.kernel_rounds == control.stats.kernel_rounds
        assert engine.stats.kernel_packs == control.stats.kernel_packs

    def test_failed_solo_rerun_contributes_nothing(self):
        # a singleton shard: the fused attempt *is* the solo run; its
        # partial counters must vanish with the exception
        engine = Engine()
        [resp] = engine.run_batch(
            [ScanRequest(lst=self._poisoned(), op=POISON, algorithm="wyllie")]
        )
        assert not resp.ok
        assert engine.stats.element_ops == 0
        assert engine.stats.kernel_rounds == 0
        assert engine.stats.kernel_packs == 0
