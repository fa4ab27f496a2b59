"""The concurrency & resource sanitizer suite (``repro.sanitize``).

Contracts under test:

* the vector-clock race detector reports exactly the unordered
  conflicting pairs — lock edges, queue/future handoffs and atomic
  reference swaps all suppress reports, back-to-back short-lived
  threads (recycled OS idents) do not;
* ``cv_wait`` keeps the lock model honest across the hidden
  release/reacquire inside ``Condition.wait``;
* the resource ledger sees every worker pool open and shut down while
  active, and reports a pool still open as a warning;
* the loop watchdog files a stall when a coroutine blocks the loop;
* the engine runs a real batch under full instrumentation with zero
  findings — the "clean tree stays clean" half of the gate;
* ``repro-c90 sanitize`` exits 1 on the seeded violation corpus with
  every detector represented, 0 on clean code, 2 on usage errors.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.engine import Engine, ScanRequest
from repro.lists.generate import random_list, random_values
from repro.sanitize import (
    LoopWatchdog,
    RaceDetector,
    ResourceLedger,
    annotate_access,
    atomic_read,
    atomic_write,
    cv_wait,
    guarded,
    hb_join,
    hb_publish,
    sanitizers,
)
from repro.sanitize.exercise import has_exercise, run_exercise

CORPUS = Path(__file__).parent / "fixtures" / "sanitize_bad"


def run_threads(*targets):
    threads = [threading.Thread(target=t) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


# ----------------------------------------------------------------------
# race detector
# ----------------------------------------------------------------------


class TestRaceDetector:
    def test_unordered_writes_race(self):
        with sanitizers() as state:
            run_threads(
                lambda: annotate_access("cell", "write"),
                lambda: annotate_access("cell", "write"),
            )
        (report,) = state.race_reports()
        assert report.cell == "cell"
        assert "unordered" in report.describe()

    def test_sequential_threads_still_race(self):
        """Recycled OS thread idents must not forge program order: the
        second thread often reuses the first's ident once it has been
        joined, yet the two writes stay unordered."""
        with sanitizers() as state:
            for _ in range(2):
                t = threading.Thread(target=lambda: annotate_access("cell", "write"))
                t.start()
                t.join()
        assert len(state.race_reports()) == 1

    def test_common_lock_suppresses_report(self):
        lock = threading.Lock()

        def locked_bump():
            with guarded(lock, "cell"):
                pass

        with sanitizers() as state:
            run_threads(locked_bump, locked_bump, locked_bump)
        assert state.race_reports() == []
        assert state.races.annotations == 3

    def test_read_write_race(self):
        with sanitizers() as state:
            run_threads(
                lambda: annotate_access("cell", "read"),
                lambda: annotate_access("cell", "write"),
            )
        (report,) = state.race_reports()
        kinds = {report.first_kind, report.second_kind}
        assert "write" in kinds

    def test_concurrent_reads_do_not_race(self):
        with sanitizers() as state:
            run_threads(
                lambda: annotate_access("cell", "read"),
                lambda: annotate_access("cell", "read"),
            )
        assert state.race_reports() == []

    def test_handoff_edge_orders_producer_before_consumer(self):
        def produce():
            annotate_access("payload", "write")
            hb_publish("chan")

        def consume():
            hb_join("chan")
            annotate_access("payload", "read")

        with sanitizers() as state:
            t = threading.Thread(target=produce)
            t.start()
            t.join()
            # producer finished before the consumer starts, but only the
            # publish/join edge tells the detector that
            consume()
        assert state.race_reports() == []

    def test_missing_join_races(self):
        def produce():
            annotate_access("payload", "write")
            hb_publish("chan")

        with sanitizers() as state:
            t = threading.Thread(target=produce)
            t.start()
            t.join()
            annotate_access("payload", "read")  # no hb_join("chan")
        assert len(state.race_reports()) == 1

    def test_atomic_swap_orders_without_report(self):
        def writer():
            annotate_access("routes", "write")
            atomic_write("router.state")

        def reader():
            atomic_read("router.state")
            annotate_access("routes", "read")

        with sanitizers() as state:
            t = threading.Thread(target=writer)
            t.start()
            t.join()
            reader()
        assert state.race_reports() == []

    def test_cv_wait_keeps_lock_model_honest(self):
        cv = threading.Condition()
        ready = threading.Event()

        def waiter():
            with guarded(cv, "shared"):
                ready.set()
                cv_wait(cv, timeout=5.0)

        def notifier():
            ready.wait(5.0)
            with guarded(cv, "shared"):
                cv.notify_all()

        with sanitizers() as state:
            run_threads(waiter, notifier)
        assert state.race_reports() == []

    def test_report_dedup_and_cap(self):
        detector = RaceDetector(max_reports=2)
        with sanitizers() as state:
            state.races = detector
            for _ in range(5):
                run_threads(
                    lambda: annotate_access("cell", "write"),
                    lambda: annotate_access("cell", "write"),
                )
        assert len(detector.reports) <= 2

    def test_inactive_hooks_are_noops(self):
        annotate_access("cell", "write")
        hb_publish("chan")
        hb_join("chan")
        atomic_write("cell")
        atomic_read("cell")

    def test_invalid_kind_rejected(self):
        detector = RaceDetector()
        with pytest.raises(ValueError, match="kind"):
            detector.access("cell", "mutate", "here")

    def test_nested_scopes_innermost_wins(self):
        with sanitizers() as outer:
            with sanitizers() as inner:
                run_threads(
                    lambda: annotate_access("cell", "write"),
                    lambda: annotate_access("cell", "write"),
                )
            assert len(inner.race_reports()) == 1
        assert outer.race_reports() == []


# ----------------------------------------------------------------------
# resource ledger
# ----------------------------------------------------------------------


class TestResourceLedger:
    def test_pool_leak_is_soft(self):
        marker = object()
        with sanitizers() as state:
            state.ledger.pool_opened(marker, "threads", "here")
        assert [leak.kind for leak in state.leaks()] == ["pool"]
        assert state.failures() == []  # soft: warning, not failure
        assert [f.check for f in state.warnings()] == ["leak"]
        state.ledger.pool_closed(marker)
        assert state.leaks() == []

    def test_summary_counts(self):
        ledger = ResourceLedger()
        marker = object()
        ledger.pool_opened(marker, "threads", "here")
        ledger.pool_closed(marker)
        assert ledger.summary() == {"events": 2, "pools_tracked": 1}
        assert ledger.leaks() == []


# ----------------------------------------------------------------------
# loop watchdog
# ----------------------------------------------------------------------


class TestWatchdog:
    def test_blocking_coroutine_stalls(self):
        watchdog = LoopWatchdog(interval=0.01, threshold=0.05)

        async def scenario():
            watchdog.start()
            await asyncio.sleep(0.03)  # let the heartbeat settle
            time.sleep(0.2)  # block the loop
            await asyncio.sleep(0.03)  # let the late beat be measured
            watchdog.stop()

        asyncio.run(scenario())
        assert watchdog.stalls
        assert watchdog.stalls[0].stalled_for > 0.05
        assert "blocking" in watchdog.stalls[0].describe()

    def test_cooperative_loop_is_clean(self):
        watchdog = LoopWatchdog(interval=0.01, threshold=0.1)

        async def scenario():
            watchdog.start()
            for _ in range(10):
                await asyncio.sleep(0.01)
            watchdog.stop()

        asyncio.run(scenario())
        assert watchdog.stalls == []
        assert watchdog.beats > 0

    def test_injectable_clock(self):
        ticks = iter([0.0, 10.0])
        watchdog = LoopWatchdog(interval=0.0, threshold=0.5, clock=lambda: next(ticks))

        async def scenario():
            watchdog.start()
            await asyncio.sleep(0.02)
            watchdog.stop()

        asyncio.run(scenario())
        (stall,) = watchdog.stalls
        assert stall.stalled_for == pytest.approx(10.0)


# ----------------------------------------------------------------------
# engine under full instrumentation (the clean half of the gate)
# ----------------------------------------------------------------------


class TestEngineClean:
    def test_threaded_batch_has_no_findings(self):
        rng = np.random.default_rng(7)
        requests = [
            ScanRequest(
                random_list(512, rng, values=random_values(512, rng)),
                request_id=i,
            )
            for i in range(8)
        ]
        with sanitizers() as state:
            with Engine(executor="threads", max_workers=2) as engine:
                results = engine.run_batch(requests)
        assert len(results) == 8
        assert state.failures() == [], [f.message for f in state.failures()]
        assert state.races.annotations > 0, "instrumentation saw no accesses"
        assert state.leaks() == []  # the context manager shut the pool down

    def test_stats_snapshot_is_locked(self):
        rng = np.random.default_rng(11)
        requests = [
            ScanRequest(
                random_list(256, rng, values=random_values(256, rng)),
                request_id=i,
            )
            for i in range(4)
        ]
        with sanitizers() as state:
            with Engine(executor="sync") as engine:
                engine.run_batch(requests)
                snapshot = engine.stats_snapshot()
        assert snapshot["batches"] >= 1
        assert state.failures() == []


# ----------------------------------------------------------------------
# exercise runner + seeded corpus
# ----------------------------------------------------------------------


class TestExercise:
    def test_has_exercise(self, tmp_path):
        assert has_exercise(CORPUS / "race.py")
        plain = tmp_path / "plain.py"
        plain.write_text("x = 1\n", encoding="utf-8")
        assert not has_exercise(plain)

    def test_race_fixture_reports_race(self):
        result = run_exercise(CORPUS / "race.py")
        assert result.error is None
        assert [f.check for f in result.findings] == ["race"]

    def test_leak_fixture_reports_leak(self):
        result = run_exercise(CORPUS / "leak.py")
        assert result.error is None
        assert [f.check for f in result.findings] == ["leak"]
        assert "never shut down" in result.findings[0].message

    def test_broken_fixture_becomes_error(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def exercise():\n    raise RuntimeError('boom')\n")
        result = run_exercise(bad)
        assert result.error is not None
        assert "boom" in result.error


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


class TestSanitizeCli:
    def test_corpus_fails_with_every_detector(self, capsys):
        code = main(["sanitize", "--json", str(CORPUS)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        static_rules = {d["rule"] for d in payload["static"]}
        assert "no-blocking-in-async" in static_rules
        dynamic = {f["check"] for d in payload["dynamic"] for f in d["findings"]}
        assert dynamic == {"race", "leak", "stall"}
        assert payload["errors"] >= 3  # the leak is a warning
        assert payload["warnings"] >= 1
        assert payload["internal_errors"] == 0

    def test_clean_file_exits_zero(self, capsys, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n", encoding="utf-8")
        code = main(["sanitize", str(clean)])
        cap = capsys.readouterr()
        assert code == 0
        assert "clean" in cap.out

    def test_static_only_skips_dynamic(self, capsys):
        code = main(["sanitize", "--static-only", "--json", str(CORPUS)])
        assert code == 1  # static findings alone still fail
        payload = json.loads(capsys.readouterr().out)
        assert payload["dynamic"] == []

    def test_missing_path_is_usage_error(self, capsys):
        code = main(["sanitize", "definitely/not/a/path"])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_resource_wrapper_env(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SANITIZE", "1")
        code = main(["tune", "-n", "4096"])
        cap = capsys.readouterr()
        assert code == 0
        assert "resource sanitizer clean" in cap.err
