"""Unit tests for the engine's submission queue and backpressure."""

import numpy as np
import pytest

from repro.core.operators import SUM
from repro.engine.queue import (
    BackpressureError,
    ScanRequest,
    ScanResponse,
    SubmissionQueue,
)
from repro.lists.generate import random_list


def make_request(n=8, seed=0, **kwargs):
    return ScanRequest(lst=random_list(n, seed), **kwargs)


class TestScanRequest:
    def test_normalizes_operator(self):
        req = make_request(op="sum")
        assert req.op is SUM

    def test_unknown_operator_rejected(self):
        with pytest.raises(KeyError):
            make_request(op="frobnicate")

    def test_ids_unique_and_increasing(self):
        a, b = make_request(), make_request()
        assert b.request_id > a.request_id

    def test_n_property(self):
        assert make_request(n=17).n == 17


class TestSubmissionQueue:
    def test_fifo_drain(self):
        q = SubmissionQueue()
        reqs = [make_request(seed=i) for i in range(5)]
        for r in reqs:
            q.submit(r)
        assert [r.request_id for r in q.drain()] == [
            r.request_id for r in reqs
        ]
        assert len(q) == 0

    def test_partial_drain(self):
        q = SubmissionQueue()
        for i in range(4):
            q.submit(make_request(seed=i))
        assert len(q.drain(max_requests=3)) == 3
        assert len(q) == 1

    def test_submit_returns_request_id(self):
        q = SubmissionQueue()
        req = make_request()
        assert q.submit(req) == req.request_id

    def test_nonblocking_raises_when_full(self):
        q = SubmissionQueue(max_requests=2)
        q.submit(make_request())
        q.submit(make_request())
        with pytest.raises(BackpressureError):
            q.submit(make_request())

    def test_node_bound(self):
        q = SubmissionQueue(max_requests=None, max_nodes=100)
        q.submit(make_request(n=80))
        with pytest.raises(BackpressureError):
            q.submit(make_request(n=30))
        assert q.pending_nodes == 80

    def test_oversized_request_admitted_when_empty(self):
        # a single request larger than max_nodes must not wedge forever
        q = SubmissionQueue(max_nodes=10)
        q.submit(make_request(n=50))
        assert q.pending_nodes == 50

    def test_oversized_nonblocking_still_respects_busy_queue(self):
        q = SubmissionQueue(max_nodes=100)
        q.submit(make_request(n=50))
        with pytest.raises(BackpressureError):
            q.submit(make_request(n=500))

    def test_oversized_respects_request_count_bound(self):
        q = SubmissionQueue(max_requests=1, max_nodes=100)
        q.submit(make_request(n=10))
        with pytest.raises(BackpressureError):
            q.submit(make_request(n=500))

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            SubmissionQueue(max_requests=0)
        with pytest.raises(ValueError):
            SubmissionQueue(max_nodes=0)


class TestScanResponse:
    def test_carries_tag_and_metadata(self):
        resp = ScanResponse(
            request_id=7,
            result=np.arange(3),
            algorithm="serial",
            cached=True,
            n=3,
            tag={"user": 42},
        )
        assert resp.tag == {"user": 42}
        assert resp.cached
