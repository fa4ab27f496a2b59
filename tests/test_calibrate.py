"""Unit and property tests for the host-calibration subsystem.

The fitter must recover the coefficients it was shown (``fit_linear``
is exercised with hypothesis-generated ground truth plus bounded
noise), profiles must round-trip through their JSON schema and reject
the absurd-coefficient class, and — the point of the whole package — a
profile fitted from host-shaped timings must *change routing* relative
to the paper's static C-90 table.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.cost_model import PAPER_C90_COSTS
from repro.analysis.predict import predict_run
from repro.calibrate import (
    SCHEMA_VERSION,
    CalibrationProfile,
    FitError,
    FitSample,
    ProfileError,
    fit_linear,
    fit_profile,
    load_profile,
    load_samples,
    measure_samples,
)
from repro.engine.router import Router

COMMON = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Paper-shaped serial walk vs host-shaped: on the C-90 the serial
#: per-element cost is 34 clocks (~142 ns); a Python pointer-chase on a
#: modern host is ~1 µs/node while the vectorized kernels run at
#: memory-bandwidth speed.  These synthetic samples encode that regime.
HOST_SERIAL_NS_PER_ELEM = 1100.0
HOST_SERIAL_CONST_NS = 2500.0
HOST_SUBLIST_ALPHA = 5.0


def serial_samples(ns=(256, 1024, 4096, 16384)):
    return [
        FitSample(
            kind="serial",
            x=n,
            seconds=(HOST_SERIAL_NS_PER_ELEM * n + HOST_SERIAL_CONST_NS) * 1e-9,
        )
        for n in ns
    ]


def sublist_samples(ns=(1 << 10, 1 << 12, 1 << 14, 1 << 16)):
    return [
        FitSample(
            kind="sublist",
            x=n,
            seconds=HOST_SUBLIST_ALPHA * predict_run(n, PAPER_C90_COSTS).cycles * 1e-9,
        )
        for n in ns
    ]


def wyllie_samples(a=30.0, b=400.0, ns=(1 << 10, 1 << 12, 1 << 14, 1 << 16)):
    out = []
    for n in ns:
        rounds = math.ceil(math.log2(n))
        out.append(
            FitSample(kind="wyllie", x=n, seconds=rounds * (a * n + b) * 1e-9)
        )
    return out


def host_profile(tune=False):
    """A deterministic fitted profile in the host regime."""
    return fit_profile(
        serial_samples() + sublist_samples(),
        source="test",
        created_at=1000.0,
        tune=tune,
        tune_sizes=(1 << 9, 1 << 10, 1 << 11, 1 << 12),
    )


class TestFitLinear:
    @settings(max_examples=50, **COMMON)
    @given(
        slope=st.floats(min_value=0.1, max_value=1000.0),
        intercept=st.floats(min_value=0.0, max_value=1e6),
    )
    def test_recovers_exact_coefficients(self, slope, intercept):
        xs = [100.0, 1000.0, 10_000.0, 100_000.0]
        ys = [slope * x + intercept for x in xs]
        fit = fit_linear(xs, ys)
        assert fit.slope == pytest.approx(slope, rel=1e-6)
        assert fit.intercept == pytest.approx(intercept, rel=1e-6, abs=1e-3)
        assert fit.rms_rel_residual < 1e-6
        assert fit.n_samples == 4

    @settings(max_examples=50, **COMMON)
    @given(
        slope=st.floats(min_value=0.5, max_value=500.0),
        intercept=st.floats(min_value=0.0, max_value=1e4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_recovers_under_relative_noise(self, slope, intercept, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        xs = [128.0, 512.0, 2048.0, 8192.0, 32_768.0, 131_072.0]
        noise = rng.uniform(-0.01, 0.01, size=len(xs))
        ys = [(slope * x + intercept) * (1.0 + d) for x, d in zip(xs, noise)]
        fit = fit_linear(xs, ys)
        # 1% multiplicative noise over a 3-decade sweep: the slope (the
        # routing-relevant coefficient) must come back tight; the
        # intercept absorbs noise from the large-x samples, so it is
        # only required to stay physical (>= 0, the repair invariant)
        assert fit.slope == pytest.approx(slope, rel=0.05)
        assert fit.intercept >= 0.0
        # the fit still predicts the large-x samples it saw to ~noise level
        x_big = 131_072.0
        predicted = fit.slope * x_big + fit.intercept
        assert predicted == pytest.approx(slope * x_big + intercept, rel=0.05)

    def test_negative_intercept_repaired_through_origin(self):
        # true intercept 0; noise drags the free fit's intercept
        # negative — the repair must refit through the origin
        xs = [10.0, 20.0, 40.0]
        ys = [95.0, 205.0, 410.0]  # free fit: slope 10.46, intercept -7.5
        fit = fit_linear(xs, ys)
        assert fit.intercept == 0.0
        assert fit.slope == pytest.approx(10.21, rel=0.01)

    def test_too_few_samples(self):
        with pytest.raises(FitError):
            fit_linear([100.0], [3400.0])

    def test_mismatched_lengths(self):
        with pytest.raises(FitError):
            fit_linear([1.0, 2.0], [1.0])

    def test_degenerate_design(self):
        with pytest.raises(FitError):
            fit_linear([500.0, 500.0, 500.0], [1.0, 2.0, 3.0])

    def test_non_finite_samples(self):
        with pytest.raises(FitError):
            fit_linear([1.0, float("nan")], [1.0, 2.0])

    def test_non_positive_slope_rejected(self):
        # decreasing data: the free fit's slope is negative and the
        # through-origin repair cannot rescue a negative dot product
        with pytest.raises(FitError):
            fit_linear([1.0, 2.0, 3.0], [-3.0, -6.0, -9.0])


class TestFitProfile:
    def test_serial_fit_recovers_host_coefficients(self):
        profile = fit_profile(serial_samples(), created_at=1.0, tune=False)
        assert profile.costs.serial_per_elem == pytest.approx(
            HOST_SERIAL_NS_PER_ELEM, rel=1e-6
        )
        assert profile.costs.serial_const == pytest.approx(
            HOST_SERIAL_CONST_NS, rel=1e-4
        )
        assert profile.costs.clock_ns == 1.0
        assert profile.fitted_kinds == ("serial",)

    def test_wyllie_fit_recovers_round_cost(self):
        profile = fit_profile(wyllie_samples(a=30.0, b=400.0),
                              created_at=1.0, tune=False)
        assert profile.costs.wyllie_round_per_elem == pytest.approx(30.0, rel=1e-6)
        assert profile.costs.wyllie_round_const == pytest.approx(400.0, rel=1e-4)

    def test_sublist_alpha_scales_vector_group_uniformly(self):
        profile = fit_profile(sublist_samples(), created_at=1.0, tune=False)
        base = PAPER_C90_COSTS
        fitted = profile.costs
        for name in ("initial_rank_per_elem", "final_pack_per_elem",
                     "find_sublist_const", "restore_per_elem"):
            assert getattr(fitted, name) == pytest.approx(
                getattr(base, name) * HOST_SUBLIST_ALPHA, rel=1e-4
            ), name
        # the paper's internal kernel ratios survive the rescale
        assert fitted.initial_rank_per_elem / fitted.final_rank_per_elem == (
            pytest.approx(base.initial_rank_per_elem / base.final_rank_per_elem)
        )

    def test_missing_kinds_inherit_alpha_scaled_base(self):
        profile = fit_profile(sublist_samples(), created_at=1.0, tune=False)
        alpha = profile.residuals  # fitted from sublist only
        assert set(alpha) == {"sublist"}
        assert profile.costs.serial_per_elem == pytest.approx(
            PAPER_C90_COSTS.serial_per_elem * HOST_SUBLIST_ALPHA, rel=1e-4
        )
        assert profile.costs.wyllie_round_per_elem == pytest.approx(
            PAPER_C90_COSTS.wyllie_round_per_elem * HOST_SUBLIST_ALPHA, rel=1e-4
        )

    def test_needs_two_samples_of_one_kind(self):
        with pytest.raises(FitError):
            fit_profile([], created_at=1.0)
        with pytest.raises(FitError):
            fit_profile(serial_samples()[:1], created_at=1.0)

    def test_tuning_refit_produces_cubics(self):
        profile = host_profile(tune=True)
        assert profile.m_coeffs is not None and len(profile.m_coeffs) == 4
        assert profile.s1_coeffs is not None and len(profile.s1_coeffs) == 4
        assert all(math.isfinite(c) for c in profile.m_coeffs)

    def test_tuning_needs_four_sizes(self):
        with pytest.raises(FitError):
            fit_profile(serial_samples(), created_at=1.0,
                        tune=True, tune_sizes=(512, 1024))

    def test_records_provenance(self):
        profile = host_profile()
        assert profile.source == "test"
        assert profile.created_at == 1000.0
        assert profile.samples == {"serial": 4, "sublist": 4}
        assert all(r < 1e-3 for r in profile.residuals.values())
        assert profile.host.get("cpu_count", 0) >= 1


class TestRoutingChange:
    """Acceptance: the fitted profile measurably changes routing."""

    @staticmethod
    def fitted_router():
        # host-shaped pointer jumping: a few ns per node and round plus
        # a per-round call overhead, cheap against the sublist group
        samples = serial_samples() + sublist_samples() + wyllie_samples(a=7.5, b=2000.0)
        return Router(costs=fit_profile(samples, source="test", created_at=1.0).costs)

    def test_host_profile_moves_crossover_up(self):
        static = Router()
        # Wyllie is far cheaper relative to the sublist kernels on the
        # synthetic host than on the C-90, so the Wyllie/sublist
        # crossover must rise
        assert self.fitted_router().crossover() > static.crossover()

    def test_routing_differs_on_synthetic_workload(self):
        static = Router()
        fitted = self.fitted_router()
        probes = [1 << k for k in range(4, 18)]
        flipped = [n for n in probes
                   if static.choose(n) != fitted.choose(n)]
        assert flipped, "fitted profile never changed a routing decision"
        # every flip is toward pointer jumping, not away from it
        for n in flipped:
            assert static.choose(n) == "sublist"
            assert fitted.choose(n) == "wyllie"


class TestProfileRoundTrip:
    def test_dict_round_trip(self):
        profile = host_profile(tune=True)
        clone = CalibrationProfile.from_dict(
            json.loads(json.dumps(profile.as_dict()))
        )
        assert clone.costs == profile.costs
        assert clone.m_coeffs == pytest.approx(profile.m_coeffs)
        assert clone.samples == profile.samples
        assert clone.source == profile.source
        assert clone.schema_version == SCHEMA_VERSION

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "profile.json")
        profile = host_profile()
        profile.save(path)
        assert load_profile(path).costs == profile.costs

    def test_load_rejects_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ProfileError):
            load_profile(str(path))


class TestProfileValidation:
    def doc(self, **edits):
        doc = host_profile().as_dict()
        doc.update(edits)
        return doc

    def test_wrong_schema_version(self):
        with pytest.raises(ProfileError, match="schema_version"):
            CalibrationProfile.from_dict(self.doc(schema_version=99))

    def test_missing_required_key(self):
        doc = self.doc()
        del doc["costs"]
        with pytest.raises(ProfileError, match="missing required key"):
            CalibrationProfile.from_dict(doc)

    def test_missing_cost_field(self):
        doc = self.doc()
        del doc["costs"]["serial_per_elem"]
        with pytest.raises(ProfileError, match="missing fields"):
            CalibrationProfile.from_dict(doc)

    def test_unknown_cost_field(self):
        doc = self.doc()
        doc["costs"]["quantum_per_elem"] = 1.0
        with pytest.raises(ProfileError, match="unknown fields"):
            CalibrationProfile.from_dict(doc)

    def test_non_positive_slope_is_absurd(self):
        doc = self.doc()
        doc["costs"]["serial_per_elem"] = -1.0
        with pytest.raises(ProfileError, match="serial_per_elem"):
            CalibrationProfile.from_dict(doc)
        doc["costs"]["serial_per_elem"] = 0.0
        with pytest.raises(ProfileError, match="serial_per_elem"):
            CalibrationProfile.from_dict(doc)

    def test_non_finite_cost_rejected(self):
        profile = host_profile()
        bad = dataclasses.replace(
            profile,
            costs=dataclasses.replace(profile.costs, sync_const=float("nan")),
        )
        with pytest.raises(ProfileError, match="not finite"):
            bad.validate()

    def test_bad_tuning_coefficients(self):
        doc = self.doc()
        doc["tuning"] = {"m_coeffs": [1.0, 2.0], "s1_coeffs": [1, 2, 3, 4]}
        with pytest.raises(ProfileError, match="m_coeffs"):
            CalibrationProfile.from_dict(doc)

    def test_unknown_sample_kind(self):
        doc = self.doc()
        doc["fit"]["samples"]["quantum"] = 5
        with pytest.raises(ProfileError, match="quantum"):
            CalibrationProfile.from_dict(doc)

    def test_single_sample_count_rejected(self):
        doc = self.doc()
        doc["fit"]["samples"]["serial"] = 1
        with pytest.raises(ProfileError, match="at least 2"):
            CalibrationProfile.from_dict(doc)

    def test_save_refuses_invalid_profile(self, tmp_path):
        profile = host_profile()
        bad = dataclasses.replace(profile, created_at=float("nan"))
        with pytest.raises(ProfileError):
            bad.save(str(tmp_path / "never.json"))
        assert not (tmp_path / "never.json").exists()


class TestSampleIngestion:
    def test_fit_sample_rejects_bad_fields(self):
        with pytest.raises(ValueError):
            FitSample(kind="quantum", x=10, seconds=1.0)
        with pytest.raises(ValueError):
            FitSample(kind="serial", x=0, seconds=1.0)
        with pytest.raises(ValueError):
            FitSample(kind="serial", x=10, seconds=0.0)
        with pytest.raises(ValueError):
            FitSample(kind="wyllie", x=10, seconds=1.0, n_lists=0)

    def test_load_bare_array(self, tmp_path):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps([s.as_dict() for s in serial_samples()]))
        loaded = load_samples(str(path))
        assert [s.x for s in loaded] == [s.x for s in serial_samples()]
        assert all(s.kind == "serial" for s in loaded)

    def test_load_bench_artifact(self, tmp_path):
        payload = {
            "records": [
                {"experiment": "e", "claim": "c", "measured": 2.0, "unit": "x",
                 "trace": {"n": 4096, "observed_seconds": 3.2e-4, "m": 64}},
            ],
            "fit_samples": [s.as_dict() for s in wyllie_samples()],
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload))
        loaded = load_samples(str(path))
        kinds = sorted({s.kind for s in loaded})
        assert kinds == ["sublist", "wyllie"]
        sub = [s for s in loaded if s.kind == "sublist"]
        assert len(sub) == 1 and sub[0].x == 4096
        assert sub[0].seconds == pytest.approx(3.2e-4)

    def test_load_trace_payload(self, tmp_path):
        payload = {
            "algorithm": "sublist",
            "n": 100_000,
            "seconds": 0.05,
            "trace": {"events": 12},
            "compare": {"n": 100_000, "observed_seconds": 0.042, "m": 1024,
                        "trajectory": {"decay_ratio": 0.31}},
        }
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(payload))
        (sample,) = load_samples(str(path))
        assert sample.kind == "sublist"
        # the scan span's own duration wins over the payload wall time
        assert sample.seconds == pytest.approx(0.042)
        assert sample.meta["decay_ratio"] == pytest.approx(0.31)

    def test_load_unrecognized_layout(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text(json.dumps({"hello": "world"}))
        with pytest.raises(ProfileError, match="unrecognized"):
            load_samples(str(path))

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ProfileError):
            load_samples(str(tmp_path / "absent.json"))


class TestLiveMeasurement:
    def test_injected_clock_gives_deterministic_samples(self):
        ticks = iter(range(1000))

        def fake_clock():
            return float(next(ticks))

        samples = measure_samples(
            sizes={"serial": (64, 128)}, repeats=2, seed=7, clock=fake_clock
        )
        assert [s.x for s in samples] == [64, 128]
        # each repeat spans exactly one tick; min-of-k keeps 1.0 s
        assert all(s.seconds == 1.0 for s in samples)
        assert all(s.kind == "serial" and s.source == "live" for s in samples)

    def test_live_samples_fit_end_to_end(self):
        samples = measure_samples(sizes={"serial": (64, 256, 1024)},
                                  repeats=1, seed=3)
        profile = fit_profile(samples, created_at=5.0, tune=False)
        assert profile.costs.serial_per_elem > 0
        assert profile.fitted_kinds == ("serial",)

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            measure_samples(repeats=0)
