"""An engine's calibration profile and the drift check against it.

A profile is fixed when the engine is built (``Engine(calibration=)``):
it is validated, the router prices from its table, and every executed
shard is judged against it.  ``drift_checks`` counts the judged shards
and ``drift_alerts`` those whose observed/predicted time left
``[1/3, 3]``; runs under 0.1 ms and algorithms the router does not
price are skipped.  Covers the install, the band's edges and the
short-run floor, a real scan that alerts, a grid search kept out of the
shard's timer, and a lock-order-audited ``threads`` run whose drift
counts add up.
"""

import dataclasses
import itertools
import sys
import threading

import numpy as np
import pytest

import repro.core.tuning as tuning_mod
import repro.engine.cache as cache_mod
import repro.engine.engine as engine_mod
import repro.engine.workers as workers_mod
from repro.analysis.cost_model import PAPER_C90_COSTS
from repro.baselines.serial import serial_list_scan
from repro.calibrate import CalibrationProfile
from repro.engine import Engine, Router
from repro.lint.lockorder import instrumented_locks
from repro.lists.generate import random_list, random_values


def make_profile(wyllie_round_per_elem=7.5, wyllie_round_const=2000.0, source="test"):
    """A synthetic fitted profile (host-ns units) without running a fit:
    a fitted ``wyllie`` kind, the C-90 table's other coefficients read
    as nanoseconds."""
    costs = dataclasses.replace(
        PAPER_C90_COSTS,
        wyllie_round_per_elem=wyllie_round_per_elem,
        wyllie_round_const=wyllie_round_const,
        clock_ns=1.0,
    )
    return CalibrationProfile(
        costs=costs,
        created_at=1.0,
        source=source,
        samples={"wyllie": 2},
        residuals={"wyllie": 0.0},
    )


def healthy_list(n, seed):
    rng = np.random.default_rng(seed)
    return random_list(n, rng, values=random_values(n, rng))


def observe(engine, ratio, n=10_000):
    """Judge a Wyllie run of ``n`` nodes that took ``ratio`` times its
    prediction (the default profile predicts 1.08 ms at 10,000 nodes)."""
    predicted = engine._predicted_seconds("wyllie", n, 1)
    engine._observe_execution(predicted, ratio * predicted)


def drift(engine):
    return engine.stats.drift_checks, engine.stats.drift_alerts


class TestDriftDetector:
    def test_no_alert_inside_tolerance(self):
        with Engine(executor="sync", seed=1, calibration=make_profile()) as engine:
            for ratio in (0.34, 0.5, 1.0, 1.4, 2.99):
                observe(engine, ratio)
            assert drift(engine) == (5, 0)

    def test_alert_beyond_tolerance_both_sides(self):
        with Engine(executor="sync", seed=1, calibration=make_profile()) as engine:
            observe(engine, 3.01)
            assert drift(engine) == (1, 1)
            observe(engine, 0.33)
            assert drift(engine) == (2, 2)
            snap = engine.calibration_snapshot()["drift"]
            assert snap == {"observations": 2, "alerts": 2}

    def test_short_runs_and_bad_kinds_skipped(self):
        # 10,000 nodes are predicted at 1.08 ms: both runs below are
        # far out of the band, but only the one at the floor is judged
        with Engine(executor="sync", seed=1, calibration=make_profile()) as engine:
            predicted = engine._predicted_seconds("wyllie", 10_000, 1)
            engine._observe_execution(predicted, 0.9e-4)
            assert drift(engine) == (0, 0)
            engine._observe_execution(predicted, 1e-4)
            assert drift(engine) == (1, 1)
            # the router prices neither: no prediction to judge against
            for algorithm in ("serial", "random_mate"):
                assert engine._predicted_seconds(algorithm, 10_000, 1) is None
            engine._observe_execution(None, 1e-3)
            assert drift(engine) == (1, 1)

    def test_thread_safety_counters_reconcile(self):
        """Four scanner threads on a calibrated ``threads`` engine.

        The engine's locks are instrumented; every response must match
        the serial reference, the lock acquisition graph must stay
        acyclic, and every executed shard must be judged exactly once.
        A counting clock makes each shard last at least 1 ms, over the
        floor and far over its sub-0.1 ms prediction, so every check
        alerts.
        """
        ticks = itertools.count()
        per_thread = 10
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the counter updates finely
        try:
            with instrumented_locks(engine_mod, workers_mod, cache_mod) as graph:
                with Engine(executor="threads", max_workers=4, seed=13,
                            calibration=make_profile(),
                            clock=lambda: next(ticks) * 1e-3) as engine:
                    errors = []

                    def scanner(t):
                        for i in range(per_thread):
                            lst = healthy_list(400 + 37 * t + i, seed=t * 100 + i)
                            got = engine.scan(lst)
                            if not np.array_equal(got, serial_list_scan(lst)):
                                errors.append((t, i))

                    threads = [threading.Thread(target=scanner, args=(t,))
                               for t in range(4)]
                    for th in threads:
                        th.start()
                    for th in threads:
                        th.join(timeout=60)
                        assert not th.is_alive()
                    assert not errors
                    assert engine.stats.shards == 4 * per_thread
                    assert drift(engine) == (4 * per_thread, 4 * per_thread)
        finally:
            sys.setswitchinterval(switch)
        assert graph.acquisitions > 0
        graph.assert_acyclic()


class TestTimerHoldsOnlyTheKernel:
    def test_grid_search_runs_before_the_timer(self, monkeypatch):
        """The first shard of a size bucket tunes the kernel's (m, S₁).

        That grid search must run before the shard's timer starts, for
        an auto-routed shard (the router prices the kernel's (m, S₁))
        and a forced ``sublist`` one (the engine prices it first).  The
        clock ticks 1 ms a call, and each grid search adds 1 s to it.
        """
        ticks = itertools.count()
        searched = [0.0]
        real_tune_grid = tuning_mod.tune_grid

        def slow_tune_grid(*args, **kwargs):
            searched[0] += 1.0
            return real_tune_grid(*args, **kwargs)

        def clock():
            return next(ticks) * 1e-3 + searched[0]

        tuning_mod._tuned_cached.cache_clear()
        monkeypatch.setattr(tuning_mod, "tune_grid", slow_tune_grid)
        profile = make_profile()
        with Engine(executor="sync", seed=1, calibration=profile, clock=clock) as engine:
            timed = []
            real_observe = engine._observe_execution

            def spy(*args):
                timed.append(args[-1])
                real_observe(*args)

            monkeypatch.setattr(engine, "_observe_execution", spy)
            for n, algorithm in ((20_000, "auto"), (40_000, "sublist")):
                lst = healthy_list(n, seed=3)
                got = engine.scan(lst, algorithm=algorithm)
                assert np.array_equal(got, serial_list_scan(lst))
            assert engine.stats.algorithms == {"sublist": 2}
            assert searched[0] >= 2.0  # each bucket did tune
            assert len(timed) == 2 and max(timed) < 1.0, timed
            assert drift(engine)[0] == 2


class TestEngineCalibration:
    def test_constructor_installs_profile_without_counting(self):
        profile = make_profile()
        with Engine(seed=1, calibration=profile) as engine:
            assert engine.calibration is profile
            # a fitted table is measured through the process's kernel
            # backend, so it is installed verbatim, not rescaled
            assert engine.router.costs is profile.costs
            assert drift(engine) == (0, 0)  # construction is free
            snap = engine.calibration_snapshot()
            assert snap["active"] and snap["source"] == "test"
            assert snap["fitted_kinds"] == ["wyllie"]
            assert snap["drift"] == {"observations": 0, "alerts": 0}

    def test_uncalibrated_snapshot_is_inactive(self):
        with Engine(seed=1) as engine:
            snap = engine.calibration_snapshot()
            assert snap == {"active": False}

    def test_invalid_profile_raises_at_construction(self):
        bad = dataclasses.replace(make_profile(), samples={})
        with pytest.raises(ValueError):
            Engine(seed=1, calibration=bad)
        negative = dataclasses.replace(
            make_profile(),
            costs=dataclasses.replace(make_profile().costs, serial_per_elem=-1.0),
        )
        with pytest.raises(ValueError, match="serial_per_elem"):
            Engine(seed=1, calibration=negative)

    def test_router_and_drift_parameters_are_gone(self):
        # the profile is the only way to set an engine's cost table
        with pytest.raises(TypeError):
            Engine(router=Router())
        with pytest.raises(TypeError):
            Engine(drift=object())

    def test_real_scan_beyond_tolerance_raises_drift_alert(self):
        # Wyllie predicted at 0.01 ns a node and round: any real
        # pointer jumping over 20,000 nodes is orders of magnitude
        # slower, and over the 0.1 ms floor, so the run must alert
        profile = make_profile(wyllie_round_per_elem=0.01, wyllie_round_const=1.0)
        with Engine(seed=1, calibration=profile) as engine:
            lst = healthy_list(20_000, seed=3)
            assert engine.router.choose(20_000) == "wyllie"
            got = engine.scan(lst)
            assert np.array_equal(got, serial_list_scan(lst))
            assert drift(engine) == (1, 1)
            assert engine.calibration_snapshot()["drift"]["alerts"] == 1

    def test_static_table_never_drift_checked(self):
        with Engine(seed=1) as engine:
            engine.scan(healthy_list(20_000, seed=3))
            assert engine._predicted_seconds("wyllie", 20_000, 1) is None
            assert drift(engine) == (0, 0)
            assert "drift" not in engine.calibration_snapshot()
