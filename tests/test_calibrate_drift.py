"""Drift detection and the engine's recalibration loop.

Covers the detector as a pure bookkeeper (tolerance bands, consecutive
streaks, the auto-refit trigger, window bounds), the engine integration
(``drift_alerts``/``recalibrations`` counters, hot-swap via
``recalibrate``, drift-driven auto-refit from window telemetry), and a
lock-order-audited concurrency run mixing scans with mid-batch
recalibrations.
"""

import dataclasses
import threading

import numpy as np
import pytest

import repro.calibrate.drift as drift_mod
import repro.engine.cache as cache_mod
import repro.engine.engine as engine_mod
import repro.engine.workers as workers_mod
from repro.analysis.cost_model import PAPER_C90_COSTS
from repro.baselines.serial import serial_list_scan
from repro.calibrate import (
    CalibrationProfile,
    DriftConfig,
    DriftDetector,
    FitSample,
    fit_profile,
)
from repro.engine import Engine
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


class TestDriftConfig:
    def test_defaults_are_valid(self):
        cfg = DriftConfig()
        assert cfg.tolerance == 3.0
        assert cfg.auto_refit_after == 0  # alerts only by default

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance": 1.0},
            {"tolerance": 0.5},
            {"decay_tolerance": 0.0},
            {"decay_tolerance": 1.5},
            {"window": 0},
            {"auto_refit_after": -1},
            {"min_seconds": -1e-9},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            DriftConfig(**kwargs)


class TestDriftDetector:
    def test_no_alert_inside_tolerance(self):
        det = DriftDetector(DriftConfig(tolerance=3.0, min_seconds=0.0))
        for ratio in (0.5, 0.9, 1.0, 1.4, 2.9):
            verdict = det.observe_run("serial", 1000, 1e-3,
                                      predicted_ns=1e6 / ratio)
            assert not verdict.alert and not verdict.refit
            assert verdict.ratio == pytest.approx(ratio)
        snap = det.snapshot()
        assert snap["observations"] == 5
        assert snap["alerts"] == 0
        assert snap["consecutive"] == 0

    def test_alert_beyond_tolerance_both_sides(self):
        det = DriftDetector(DriftConfig(tolerance=2.0, min_seconds=0.0))
        slow = det.observe_run("serial", 1000, 1e-3, predicted_ns=1e6 / 2.5)
        assert slow.alert and slow.ratio == pytest.approx(2.5)
        fast = det.observe_run("serial", 1000, 1e-3, predicted_ns=1e6 * 2.5)
        assert fast.alert and fast.ratio == pytest.approx(0.4)
        assert det.snapshot()["alerts"] == 2

    def test_short_runs_and_bad_kinds_skipped(self):
        det = DriftDetector(DriftConfig(min_seconds=1e-4))
        assert det.observe_run("serial", 1000, 1e-6, 1e9) == drift_mod.DriftVerdict()
        assert det.observe_run("quantum", 1000, 1e-3, 1e9) == drift_mod.DriftVerdict()
        assert det.snapshot()["observations"] == 0

    def test_unpredicted_run_lands_in_window_without_judgement(self):
        det = DriftDetector(DriftConfig(min_seconds=0.0))
        verdict = det.observe_run("serial", 1000, 1e-3, predicted_ns=None)
        assert not verdict.alert and verdict.ratio is None
        snap = det.snapshot()
        assert snap["observations"] == 1 and snap["window"] == 1

    def test_clean_run_resets_consecutive_streak(self):
        cfg = DriftConfig(tolerance=2.0, auto_refit_after=3, min_seconds=0.0)
        det = DriftDetector(cfg)
        det.observe_run("serial", 1000, 1e-3, 1e5)  # drift
        det.observe_run("serial", 2000, 1e-3, 1e5)  # drift
        det.observe_run("serial", 3000, 1e-3, 1e6)  # clean: streak resets
        assert det.snapshot()["consecutive"] == 0
        verdict = det.observe_run("serial", 4000, 1e-3, 1e5)
        assert verdict.alert and not verdict.refit  # streak restarted at 1

    def test_auto_refit_after_k_consecutive(self):
        cfg = DriftConfig(tolerance=2.0, auto_refit_after=3, min_seconds=0.0)
        det = DriftDetector(cfg)
        verdicts = [
            det.observe_run("serial", 1000 * (i + 1), 1e-3, 1e5)
            for i in range(3)
        ]
        assert [v.refit for v in verdicts] == [False, False, True]
        snap = det.snapshot()
        assert snap["refits_signalled"] == 1
        assert snap["consecutive"] == 0  # streak resets on signal
        # window holds fit-ready samples for the recalibration
        samples = det.samples()
        assert len(samples) == 3
        assert all(isinstance(s, FitSample) and s.source == "drift"
                   for s in samples)

    def test_auto_refit_disabled_by_default(self):
        det = DriftDetector(DriftConfig(tolerance=2.0, min_seconds=0.0))
        for i in range(50):
            verdict = det.observe_run("serial", 1000 + i, 1e-3, 1e5)
            assert not verdict.refit
        assert det.snapshot()["refits_signalled"] == 0

    def test_decay_observation_tolerance_band(self):
        det = DriftDetector(DriftConfig(decay_tolerance=0.35))
        ok = det.observe_decay(observed=0.40, expected=0.37)
        assert not ok.alert
        bad = det.observe_decay(observed=0.90, expected=0.37)
        assert bad.alert
        snap = det.snapshot()
        assert snap["decay_alerts"] == 1
        assert snap["alerts"] == 1  # decay alerts share the alert count

    def test_decay_alerts_count_toward_refit_streak(self):
        cfg = DriftConfig(tolerance=2.0, decay_tolerance=0.2,
                          auto_refit_after=2, min_seconds=0.0)
        det = DriftDetector(cfg)
        det.observe_run("serial", 1000, 1e-3, 1e5)  # duration drift
        verdict = det.observe_decay(observed=0.9, expected=0.3)  # decay drift
        assert verdict.refit

    def test_window_is_bounded(self):
        det = DriftDetector(DriftConfig(window=4, min_seconds=0.0))
        for i in range(10):
            det.observe_run("serial", 100 + i, 1e-3, None)
        samples = det.samples()
        assert len(samples) == 4
        assert [s.x for s in samples] == [106, 107, 108, 109]  # oldest evicted

    def test_reset_drops_window_and_streak(self):
        cfg = DriftConfig(tolerance=2.0, auto_refit_after=5, min_seconds=0.0)
        det = DriftDetector(cfg)
        for i in range(3):
            det.observe_run("serial", 1000 + i, 1e-3, 1e5)
        det.reset()
        snap = det.snapshot()
        assert snap == {"observations": 0, "alerts": 0, "decay_alerts": 0,
                        "consecutive": 0, "refits_signalled": 0, "window": 0}

    def test_thread_safety_counters_reconcile(self):
        det = DriftDetector(DriftConfig(tolerance=2.0, min_seconds=0.0))
        per_thread = 200

        def feeder(t):
            for i in range(per_thread):
                # alternate clean/drifting so both paths run concurrently
                predicted = 1e6 if i % 2 else 1e5
                det.observe_run("serial", 1000 + t * per_thread + i,
                                1e-3, predicted)

        threads = [threading.Thread(target=feeder, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        snap = det.snapshot()
        assert snap["observations"] == 4 * per_thread
        assert snap["alerts"] == 4 * per_thread // 2


class TestEngineCalibration:
    def test_constructor_installs_profile_without_counting(self):
        profile = make_profile()
        with Engine(seed=1, calibration=profile) as engine:
            assert engine.calibration is profile
            assert engine.router.costs is profile.costs
            assert engine.stats.recalibrations == 0  # construction is free
            snap = engine.calibration_snapshot()
            assert snap["active"] and snap["source"] == "test"
            assert snap["drift"]["observations"] == 0

    def test_uncalibrated_snapshot_is_inactive(self):
        with Engine(seed=1) as engine:
            snap = engine.calibration_snapshot()
            assert snap == {"active": False}

    def test_recalibrate_counts_and_swaps(self):
        first = make_profile(source="first")
        second = make_profile(wyllie_round_per_elem=6.0, source="second")
        with Engine(seed=1, calibration=first) as engine:
            engine.recalibrate(second)
            assert engine.stats.recalibrations == 1
            assert engine.calibration.source == "second"
            assert engine.router.costs is second.costs

    def test_recalibrate_rejects_invalid_profile(self):
        bad = dataclasses.replace(make_profile(), samples={})
        with Engine(seed=1) as engine:
            with pytest.raises(ValueError):
                engine.recalibrate(bad)
            assert engine.calibration is None

    def test_real_scan_beyond_tolerance_raises_drift_alert(self):
        # Wyllie predicted at 0.01 ns a node and round: any real
        # pointer jumping is orders of magnitude slower, so the run
        # must alert
        profile = make_profile(wyllie_round_per_elem=0.01, wyllie_round_const=1.0)
        cfg = DriftConfig(tolerance=3.0, min_seconds=0.0)
        with Engine(seed=1, calibration=profile, drift=cfg) as engine:
            lst = healthy_list(5000, seed=3)
            assert engine.router.choose(5000) == "wyllie"
            got = engine.scan(lst)
            assert np.array_equal(got, serial_list_scan(lst))
            assert engine.stats.drift_alerts >= 1
            snap = engine.calibration_snapshot()
            assert snap["drift"]["alerts"] >= 1

    def test_static_table_never_drift_checked(self):
        with Engine(seed=1) as engine:
            lst = healthy_list(5000, seed=3)
            engine.scan(lst)
            engine.observe_deviation(0.9, 0.1)  # no detector: no-op
            assert engine.stats.drift_alerts == 0

    def test_observe_deviation_feeds_detector(self):
        cfg = DriftConfig(decay_tolerance=0.2)
        with Engine(seed=1, calibration=make_profile(), drift=cfg) as engine:
            engine.observe_deviation(observed=0.35, expected=0.30)
            assert engine.stats.drift_alerts == 0
            engine.observe_deviation(observed=0.95, expected=0.30)
            assert engine.stats.drift_alerts == 1

    def test_auto_refit_refits_from_window_telemetry(self):
        profile = make_profile(wyllie_round_per_elem=10.0, wyllie_round_const=0.0)
        cfg = DriftConfig(tolerance=3.0, auto_refit_after=2, min_seconds=0.0)
        with Engine(seed=1, calibration=profile, drift=cfg) as engine:
            # two consecutive Wyllie runs observed 10x slower than the
            # profile predicts (distinct sizes so the refit is solvable)
            for n in (10_000, 20_000):
                predicted = engine.router.predicted_clocks(n, "wyllie")
                engine._observe_execution(
                    "wyllie", n, 1, predicted * 10 * 1e-9, epoch=engine._drift
                )
            assert engine.stats.drift_alerts == 2
            assert engine.stats.recalibrations == 1
            fresh = engine.calibration
            assert fresh is not profile
            assert fresh.source == "auto-refit"
            # the refit profile tracks the observed (10x slower) rate
            assert fresh.costs.wyllie_round_per_elem == pytest.approx(100.0, rel=0.05)
            assert engine.router.costs is fresh.costs
            # the new detector starts with a clean window
            assert engine.calibration_snapshot()["drift"]["window"] == 0

    def test_auto_refit_survives_unfittable_window(self):
        profile = make_profile(wyllie_round_per_elem=10.0, wyllie_round_const=0.0)
        cfg = DriftConfig(tolerance=3.0, auto_refit_after=2, min_seconds=0.0)
        with Engine(seed=1, calibration=profile, drift=cfg) as engine:
            # same x twice: degenerate design, the refit must fail
            # quietly and keep the current profile serving
            for _ in range(2):
                engine._observe_execution(
                    "wyllie", 10_000, 1, 1e-1, epoch=engine._drift
                )
            assert engine.stats.drift_alerts == 2
            assert engine.stats.recalibrations == 0
            assert engine.calibration is profile

    def test_recalibrate_clears_window_and_discards_stale_epochs(self):
        """Installing a new profile must retire the old rolling window.

        Samples timed under profile A's cost table that complete after
        profile B is installed carry A-epoch timings; feeding them to
        B's detector would seed the fresh window with stale data and
        could fire a spurious alert/auto-refit immediately after the
        swap.  The epoch guard discards them instead.
        """
        profile_a = make_profile(wyllie_round_per_elem=10.0, source="a")
        profile_b = make_profile(wyllie_round_per_elem=9.0, source="b")
        cfg = DriftConfig(tolerance=3.0, auto_refit_after=2, min_seconds=0.0)
        with Engine(seed=1, calibration=profile_a, drift=cfg) as engine:
            # seed the rolling window with one out-of-tolerance sample
            epoch_a = engine._drift
            predicted = engine.router.predicted_clocks(10_000, "wyllie")
            slow = predicted * 10 * 1e-9
            engine._observe_execution("wyllie", 10_000, 1, slow, epoch=epoch_a)
            assert engine.stats.drift_alerts == 1
            assert engine.calibration_snapshot()["drift"]["window"] == 1
            engine.recalibrate(profile_b)
            assert engine.stats.recalibrations == 1
            # the new profile starts with a clean window and streak
            snap = engine.calibration_snapshot()["drift"]
            assert snap["window"] == 0
            assert snap["consecutive"] == 0
            # an A-epoch run finishing late is discarded, not judged
            # against B — one more such sample would otherwise hit
            # auto_refit_after=2 and trigger a spurious refit
            engine._observe_execution("wyllie", 20_000, 1, slow, epoch=epoch_a)
            snap = engine.calibration_snapshot()["drift"]
            assert snap["window"] == 0
            assert engine.stats.drift_alerts == 1
            assert engine.stats.recalibrations == 1
            assert engine.calibration is profile_b
            # a B-epoch run is judged normally against the new table
            engine._observe_execution(
                "wyllie", 20_000, 1, slow, epoch=engine._drift
            )
            assert engine.calibration_snapshot()["drift"]["window"] == 1


class TestRecalibrateConcurrency:
    def test_scans_race_recalibrations_lock_audited(self):
        """Hot-swaps mid-batch: correctness + deadlock-freedom.

        Engine and drift locks are instrumented; worker threads hammer
        scans while the main thread flips between two profiles.  Every
        response must still match the serial reference, and the lock
        acquisition graph must stay acyclic.
        """
        profiles = [
            make_profile(wyllie_round_per_elem=0.5, wyllie_round_const=1.0, source="a"),
            make_profile(wyllie_round_per_elem=1000.0, source="b"),
        ]
        cfg = DriftConfig(tolerance=1e9, min_seconds=0.0)  # observe, never alert
        with instrumented_locks(
            engine_mod, workers_mod, cache_mod, drift_mod
        ) as graph:
            with Engine(executor="threads", max_workers=4, seed=13,
                        calibration=profiles[0], drift=cfg) as engine:
                stop = threading.Event()
                errors = []

                def scanner(t):
                    try:
                        for i in range(10):
                            lst = healthy_list(400 + 37 * t + i, seed=t * 100 + i)
                            got = engine.scan(lst)
                            expect = serial_list_scan(lst)
                            if not np.array_equal(got, expect):
                                errors.append((t, i))
                    finally:
                        stop.set()

                threads = [threading.Thread(target=scanner, args=(t,))
                           for t in range(4)]
                for th in threads:
                    th.start()
                flips = 0
                while not stop.is_set():
                    engine.recalibrate(profiles[flips % 2])
                    flips += 1
                for th in threads:
                    th.join()
                assert not errors
                assert engine.stats.recalibrations == flips
                assert engine.calibration in profiles
        assert graph.acquisitions > 0
        graph.assert_acyclic()
