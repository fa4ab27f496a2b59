"""Engine/queue shutdown semantics.

``Engine.close()`` must leave no request in limbo: everything still
queued comes back as a structured ``shutdown`` failure, later
submissions raise :class:`QueueClosedError`, and the whole sequence is
idempotent.  These are the guarantees the serving front-end's graceful
shutdown is built on.
"""

import numpy as np
import pytest

from repro.engine import Engine, QueueClosedError, ScanRequest
from repro.engine.queue import SubmissionQueue
from repro.lists.generate import random_list, random_values


def make_request(n, seed, tag=None):
    rng = np.random.default_rng(seed)
    lst = random_list(n, rng, values=random_values(n, rng))
    return ScanRequest(lst=lst, op="sum", tag=tag)


def test_close_fails_pending_requests_with_shutdown_error():
    engine = Engine(executor="sync")
    ids = [engine.queue.submit(make_request(32, s, tag=s)) for s in range(5)]
    responses = engine.close()
    assert [r.request_id for r in responses] == ids
    for resp in responses:
        assert not resp.ok
        assert resp.result is None
        assert resp.error is not None
        assert resp.error.code == "shutdown"
        assert resp.error.phase == "shutdown"
    assert len(engine.queue) == 0
    assert engine.stats.errors == 5


def test_submit_after_close_raises():
    engine = Engine(executor="sync")
    engine.close()
    with pytest.raises(QueueClosedError):
        engine.queue.submit(make_request(8, 0))


def test_close_is_idempotent():
    engine = Engine(executor="sync")
    engine.queue.submit(make_request(8, 0))
    first = engine.close()
    assert len(first) == 1
    assert engine.close() == []


def test_queue_close_returns_pending_and_marks_closed():
    queue = SubmissionQueue(max_requests=None)
    req = make_request(8, 0)
    queue.submit(req)
    assert not queue.closed
    pending = queue.close()
    assert pending == [req]
    assert queue.closed
    assert len(queue) == 0
    assert queue.close() == []  # idempotent


def test_context_manager_close_still_works_after_run():
    with Engine(executor="sync") as engine:
        resp = engine.run_batch([make_request(64, 7)])[0]
        assert resp.ok
    # exiting the context closed the engine; submissions now fail
    with pytest.raises(QueueClosedError):
        engine.queue.submit(make_request(8, 1))
