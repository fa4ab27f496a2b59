"""Exit-code contracts for ``calibrate``, ``perf-gate``, and the
``--calibration`` flag — the surface the CI jobs script
against (0 = pass, 1 = gate failure, 2 = unusable input).

Also covers the ``bench.regression`` comparison logic the perf-gate
builds on, with synthetic baselines and reports.
"""

import json
from pathlib import Path

import pytest

from repro.bench.regression import (
    GateError,
    baseline_from_records,
    compare_records,
    load_baseline,
    results_as_dict,
)
from repro.calibrate import load_profile
from repro.cli import build_parser, main

from .test_calibrate import serial_samples, sublist_samples


@pytest.fixture
def samples_file(tmp_path):
    """A bare-array fit-sample artifact covering serial + sublist."""
    path = tmp_path / "samples.json"
    docs = [s.as_dict() for s in serial_samples() + sublist_samples()]
    path.write_text(json.dumps(docs))
    return str(path)


@pytest.fixture
def profile_file(tmp_path, samples_file):
    """A fitted profile written through the real CLI path."""
    out = str(tmp_path / "profile.json")
    assert main(["calibrate", "fit", "--from-bench", samples_file,
                 "--no-tune", "--out", out]) == 0
    return out


def bench_report(tmp_path, measured, name="report.json"):
    """A minimal bench artifact with one ratio record per entry."""
    path = tmp_path / name
    path.write_text(json.dumps({
        "records": [
            {"experiment": exp, "claim": claim, "measured": value,
             "unit": "x", "ok": True, "note": ""}
            for (exp, claim), value in measured.items()
        ],
    }))
    return str(path)


class TestParserDefaults:
    def test_calibrate_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["calibrate"])

    def test_calibrate_fit_defaults(self):
        args = build_parser().parse_args(["calibrate", "fit", "--live"])
        assert args.out == "calibration.json"
        assert args.from_bench == [] and args.from_trace == []
        assert args.repeats == 3 and args.seed == 0
        assert not args.no_tune

    def test_perf_gate_requires_report(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["perf-gate"])

    def test_perf_gate_defaults(self):
        args = build_parser().parse_args(["perf-gate", "--report", "r.json"])
        assert args.baseline == "benchmarks/baselines/speedups-smoke.json"
        assert args.warn_ratio is None and args.fail_ratio is None
        assert not args.warn_only and not args.update_baseline

    def test_batch_and_serve_accept_calibration(self):
        assert build_parser().parse_args(["batch"]).calibration is None
        args = build_parser().parse_args(["serve", "--calibration", "p.json"])
        assert args.calibration == "p.json"


class TestCalibrateFit:
    def test_no_source_is_usage_error(self, capsys):
        assert main(["calibrate", "fit"]) == 2
        assert "sample source" in capsys.readouterr().err

    def test_missing_artifact_exits_2(self, tmp_path, capsys):
        absent = str(tmp_path / "absent.json")
        assert main(["calibrate", "fit", "--from-bench", absent]) == 2
        assert "absent.json" in capsys.readouterr().err

    def test_artifact_without_samples_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"records": []}))
        assert main(["calibrate", "fit", "--from-bench", str(empty)]) == 2
        assert "no fit samples" in capsys.readouterr().err

    def test_unfittable_samples_exit_1(self, tmp_path, capsys):
        # two samples sharing one x: degenerate design, FitError
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps([
            {"kind": "serial", "x": 1000, "seconds": 1e-3},
            {"kind": "serial", "x": 1000, "seconds": 2e-3},
        ]))
        assert main(["calibrate", "fit", "--from-bench", str(path)]) == 1
        assert "calibrate fit" in capsys.readouterr().err

    def test_fit_writes_valid_profile(self, profile_file, capsys):
        profile = load_profile(profile_file)  # load_profile validates
        assert profile.fitted_kinds == ("serial", "sublist")
        assert profile.costs.clock_ns == 1.0


class TestCalibrateShowCheck:
    def test_show_table(self, profile_file, capsys):
        assert main(["calibrate", "show", profile_file]) == 0
        out = capsys.readouterr().out
        assert "serial T(n)" in out and "fit[sublist]" in out

    def test_show_json_round_trips(self, profile_file, capsys):
        assert main(["calibrate", "show", profile_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema_version"] == 1

    def test_show_missing_file_exits_1(self, tmp_path, capsys):
        assert main(["calibrate", "show", str(tmp_path / "no.json")]) == 1

    def test_check_ok(self, profile_file, capsys):
        assert main(["calibrate", "check", profile_file]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "crossover" in out

    def test_check_prints_the_wyllie_sublist_crossover(self, profile_file, capsys):
        from repro.engine.router import Router

        assert main(["calibrate", "check", profile_file]) == 0
        out = capsys.readouterr().out
        assert "wyllie->sublist crossover" in out
        assert f"(static C-90 table: {Router().crossover():,})" in out

    def test_check_rejects_absurd_coefficients(self, profile_file, capsys):
        doc = json.loads(Path(profile_file).read_text())
        doc["costs"]["serial_per_elem"] = -1.0
        with open(profile_file, "w") as fp:
            json.dump(doc, fp)
        assert main(["calibrate", "check", profile_file]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_check_rejects_wrong_schema(self, profile_file, capsys):
        doc = json.loads(Path(profile_file).read_text())
        doc["schema_version"] = 99
        with open(profile_file, "w") as fp:
            json.dump(doc, fp)
        assert main(["calibrate", "check", profile_file]) == 1


class TestBatchCalibration:
    def test_batch_hot_swaps_profile_into_stats(self, profile_file, capsys):
        code = main(["batch", "-n", "4000", "--count", "8",
                     "--calibration", profile_file, "--stats"])
        assert code == 0
        out = capsys.readouterr().out
        snap = json.loads(out[out.index("{"):])
        assert snap["calibration"]["active"] is True
        assert snap["calibration"]["drift"]["observations"] >= 0
        # the snapshot's drift counts are the engine's own counters
        assert snap["calibration"]["drift"] == {
            "observations": snap["drift_checks"],
            "alerts": snap["drift_alerts"],
        }

    def test_batch_rejects_bad_profile(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = main(["batch", "-n", "1000", "--count", "4",
                     "--calibration", str(bad)])
        assert code == 2
        assert "calibration" in capsys.readouterr().err


class TestPerfGateCommand:
    KEYS = {("engine", "batching beats solo"): 2.4,
            ("kernels", "numpy beats python"): 30.0}

    def baseline_file(self, tmp_path):
        report = bench_report(tmp_path, self.KEYS, name="base-report.json")
        baseline = str(tmp_path / "baseline.json")
        assert main(["perf-gate", "--report", report,
                     "--baseline", baseline, "--update-baseline"]) == 0
        return baseline

    def test_update_baseline_then_pass(self, tmp_path, capsys):
        baseline = self.baseline_file(tmp_path)
        doc = json.loads(Path(baseline).read_text())
        assert doc["schema_version"] == 1
        assert len(doc["records"]) == 2
        report = bench_report(tmp_path, self.KEYS)
        assert main(["perf-gate", "--report", report,
                     "--baseline", baseline]) == 0
        assert "OK" in capsys.readouterr().out

    def test_regression_beyond_fail_ratio_exits_1(self, tmp_path, capsys):
        baseline = self.baseline_file(tmp_path)
        slow = {k: v / 3.0 for k, v in self.KEYS.items()}  # 3x regression
        report = bench_report(tmp_path, slow)
        out_json = str(tmp_path / "gate.json")
        assert main(["perf-gate", "--report", report, "--baseline", baseline,
                     "--json-out", out_json]) == 1
        assert "FAIL" in capsys.readouterr().err
        gate = json.loads(Path(out_json).read_text())
        assert gate["counts"]["fail"] == 2
        assert all(r["regression"] == pytest.approx(3.0)
                   for r in gate["results"])

    def test_warn_band_does_not_fail(self, tmp_path, capsys):
        baseline = self.baseline_file(tmp_path)
        slow = {k: v / 1.7 for k, v in self.KEYS.items()}  # warn, not fail
        report = bench_report(tmp_path, slow)
        assert main(["perf-gate", "--report", report,
                     "--baseline", baseline]) == 0
        assert "WARN" in capsys.readouterr().out

    def test_warn_only_downgrades_hard_failures(self, tmp_path, capsys):
        baseline = self.baseline_file(tmp_path)
        slow = {k: v / 10.0 for k, v in self.KEYS.items()}
        report = bench_report(tmp_path, slow)
        assert main(["perf-gate", "--report", report, "--baseline", baseline,
                     "--warn-only"]) == 0
        assert "advisory" in capsys.readouterr().out

    def test_missing_benchmark_fails_the_gate(self, tmp_path, capsys):
        baseline = self.baseline_file(tmp_path)
        only_one = {("engine", "batching beats solo"): 2.4}
        report = bench_report(tmp_path, only_one)
        assert main(["perf-gate", "--report", report,
                     "--baseline", baseline]) == 1

    def test_custom_ratios(self, tmp_path):
        baseline = self.baseline_file(tmp_path)
        slow = {k: v / 1.7 for k, v in self.KEYS.items()}
        report = bench_report(tmp_path, slow)
        # tighten the hard gate below the observed 1.7x: now it fails
        assert main(["perf-gate", "--report", report, "--baseline", baseline,
                     "--warn-ratio", "1.1", "--fail-ratio", "1.5"]) == 1

    def test_unreadable_report_exits_2(self, tmp_path, capsys):
        baseline = self.baseline_file(tmp_path)
        assert main(["perf-gate", "--report", str(tmp_path / "no.json"),
                     "--baseline", baseline]) == 2

    def test_unreadable_baseline_exits_2(self, tmp_path, capsys):
        report = bench_report(tmp_path, self.KEYS)
        assert main(["perf-gate", "--report", report,
                     "--baseline", str(tmp_path / "no-base.json")]) == 2

    def test_bad_ratio_band_exits_2(self, tmp_path, capsys):
        baseline = self.baseline_file(tmp_path)
        report = bench_report(tmp_path, self.KEYS)
        assert main(["perf-gate", "--report", report, "--baseline", baseline,
                     "--warn-ratio", "3.0", "--fail-ratio", "2.0"]) == 2


class TestGateLogic:
    def test_baseline_keeps_only_positive_ratio_records(self):
        records = [
            {"experiment": "a", "claim": "x", "measured": 2.0, "unit": "x"},
            {"experiment": "a", "claim": "y", "measured": 120.0, "unit": "ms"},
            {"experiment": "a", "claim": "z", "measured": 0.0, "unit": "x"},
            {"experiment": "a", "claim": "w", "measured": float("nan"),
             "unit": "x"},
        ]
        doc = baseline_from_records(records, created_at=5.0)
        assert list(doc["records"]) == ["a|x"]
        assert doc["created_at"] == 5.0

    def test_duplicate_keys_keep_last_occurrence(self):
        records = [
            {"experiment": "a", "claim": "x", "measured": 2.0, "unit": "x"},
            {"experiment": "a", "claim": "x", "measured": 3.0, "unit": "x"},
        ]
        doc = baseline_from_records(records)
        assert doc["records"]["a|x"]["measured"] == 3.0

    def test_statuses_cover_all_cases(self):
        baseline = {
            "ok|1": {"measured": 2.0},
            "warn|1": {"measured": 2.0},
            "fail|1": {"measured": 2.0},
            "missing|1": {"measured": 2.0},
        }
        records = [
            {"experiment": "ok", "claim": "1", "measured": 1.9, "unit": "x"},
            {"experiment": "warn", "claim": "1", "measured": 1.1, "unit": "x"},
            {"experiment": "fail", "claim": "1", "measured": 0.9, "unit": "x"},
            {"experiment": "new", "claim": "1", "measured": 5.0, "unit": "x"},
        ]
        results = compare_records(records, baseline)
        by_key = {r.key: r.status for r in results}
        assert by_key == {"ok|1": "ok", "warn|1": "warn", "fail|1": "fail",
                          "missing|1": "missing", "new|1": "new"}
        counts = results_as_dict(results)["counts"]
        assert counts == {"ok": 1, "warn": 1, "fail": 1, "new": 1,
                          "missing": 1}

    def test_improvements_are_always_ok(self):
        baseline = {"a|x": {"measured": 2.0}}
        records = [{"experiment": "a", "claim": "x", "measured": 50.0,
                    "unit": "x"}]
        (result,) = compare_records(records, baseline)
        assert result.status == "ok"
        assert result.regression == pytest.approx(0.04)

    def test_load_baseline_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "base.json"
        path.write_text(json.dumps({"schema_version": 99, "records": {}}))
        with pytest.raises(GateError, match="schema"):
            load_baseline(str(path))

    def test_committed_smoke_baseline_is_loadable(self):
        # the file the CI bench-smoke job gates against must stay valid
        baseline = load_baseline("benchmarks/baselines/speedups-smoke.json")
        assert baseline, "committed baseline has no records"
        for key, entry in baseline.items():
            assert "|" in key
            assert entry["measured"] > 0
