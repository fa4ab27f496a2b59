"""Perf-regression gate: bench records vs a committed baseline.

The bench harness records headline speedup ratios (engine batching,
kernel backends, serve batching — unit ``"x"``, higher is better).  ``benchmarks/baselines/`` commits a snapshot of those ratios;
this module compares a fresh run's records against it with a tolerance
band:

* ``ok``       — within ``warn_ratio`` of baseline (or faster);
* ``warn``     — regressed by more than ``warn_ratio`` but at most
  ``fail_ratio`` (PR runs surface this without failing — shared CI
  runners are noisy);
* ``fail``     — regressed by more than ``fail_ratio`` (default 2× —
  the hard gate);
* ``new``      — recorded now but absent from the baseline (informational;
  refresh the baseline to start tracking it);
* ``missing``  — in the baseline but not recorded by this run (treated
  as a failure by the gate: a silently vanished benchmark must not
  pass).

Keys are ``experiment|claim`` — stable identifiers for a recorded
quantity across runs.  Only ratio-valued records (unit ``"x"``)
participate; paper-constant comparisons have their own ``ok`` flags.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

__all__ = [
    "GateResult",
    "WARN_RATIO",
    "FAIL_RATIO",
    "baseline_from_records",
    "compare_records",
    "gate_rows",
    "load_baseline",
    "load_bench_records",
    "results_as_dict",
]

#: Default tolerance band: warn beyond 1.5× slower, fail beyond 2×.
WARN_RATIO = 1.5
FAIL_RATIO = 2.0

#: Baseline file schema version (bump on layout changes).
BASELINE_SCHEMA = 1


class GateError(ValueError):
    """A baseline or report artifact is unreadable or malformed."""


@dataclass(frozen=True)
class GateResult:
    """One baseline-vs-measured comparison."""

    key: str
    status: str  #: ok / warn / fail / new / missing
    baseline: float | None
    measured: float | None
    regression: float | None  #: baseline / measured (>1 = slower now)
    note: str = ""


def _record_key(rec: dict[str, Any]) -> str:
    return f"{rec.get('experiment', '?')}|{rec.get('claim', '?')}"


def load_bench_records(path: str) -> list[dict[str, Any]]:
    """The ``records`` array of a bench JSON artifact."""
    try:
        with open(path) as fp:
            payload = json.load(fp)
    except OSError as exc:
        raise GateError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise GateError(f"{path}: not valid JSON: {exc}") from None
    records = payload.get("records") if isinstance(payload, dict) else None
    if not isinstance(records, list):
        raise GateError(f"{path}: no 'records' array (not a bench artifact?)")
    return [rec for rec in records if isinstance(rec, dict)]


def baseline_from_records(
    records: list[dict[str, Any]], created_at: float = 0.0, note: str = ""
) -> dict[str, Any]:
    """Build a committable baseline document from a run's records.

    Keeps only ratio-valued records (unit ``"x"``) with a positive
    finite measurement; duplicate keys keep the *last* occurrence
    (reruns within a session supersede earlier ones).
    """
    kept: dict[str, Any] = {}
    for rec in records:
        measured = rec.get("measured")
        if rec.get("unit") != "x" or not isinstance(measured, (int, float)):
            continue
        if not measured > 0 or measured != measured or measured == float("inf"):
            continue
        kept[_record_key(rec)] = {
            "measured": float(measured),
            "unit": "x",
            "note": rec.get("note", ""),
        }
    return {
        "schema_version": BASELINE_SCHEMA,
        "created_at": created_at,
        "note": note,
        "records": kept,
    }


def load_baseline(path: str) -> dict[str, dict[str, Any]]:
    """The baseline's ``key -> {measured, ...}`` mapping."""
    try:
        with open(path) as fp:
            payload = json.load(fp)
    except OSError as exc:
        raise GateError(f"{path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise GateError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(payload, dict) or not isinstance(
        payload.get("records"), dict
    ):
        raise GateError(f"{path}: no 'records' mapping (not a baseline file?)")
    version = payload.get("schema_version")
    if version != BASELINE_SCHEMA:
        raise GateError(
            f"{path}: baseline schema {version!r} unsupported "
            f"(expected {BASELINE_SCHEMA})"
        )
    return {
        str(key): dict(entry)
        for key, entry in payload["records"].items()
        if isinstance(entry, dict)
    }


def compare_records(
    records: list[dict[str, Any]],
    baseline: dict[str, dict[str, Any]],
    warn_ratio: float = WARN_RATIO,
    fail_ratio: float = FAIL_RATIO,
) -> list[GateResult]:
    """Judge a run's ratio records against the baseline band."""
    if not 1.0 < warn_ratio <= fail_ratio:
        raise ValueError(
            f"need 1 < warn_ratio <= fail_ratio, got {warn_ratio}/{fail_ratio}"
        )
    measured_by_key: dict[str, tuple[float, str]] = {}
    for rec in records:
        value = rec.get("measured")
        if rec.get("unit") != "x" or not isinstance(value, (int, float)):
            continue
        measured_by_key[_record_key(rec)] = (float(value), rec.get("note", ""))

    results: list[GateResult] = []
    for key in sorted(set(baseline) | set(measured_by_key)):
        base_entry = baseline.get(key)
        if base_entry is None:
            value, note = measured_by_key[key]
            results.append(
                GateResult(key, "new", None, value, None, note=note)
            )
            continue
        base = float(base_entry.get("measured", 0.0))
        if key not in measured_by_key:
            results.append(
                GateResult(
                    key, "missing", base, None, None,
                    note="baselined benchmark produced no record this run",
                )
            )
            continue
        value, note = measured_by_key[key]
        regression = base / value if value > 0 else float("inf")
        if regression > fail_ratio:
            status = "fail"
        elif regression > warn_ratio:
            status = "warn"
        else:
            status = "ok"
        results.append(GateResult(key, status, base, value, regression, note))
    return results


def gate_rows(results: list[GateResult]) -> list[list[object]]:
    """Rows for ``format_table``: key, baseline, measured, regression, status."""
    rows: list[list[object]] = []
    for res in results:
        rows.append([
            res.key,
            res.baseline if res.baseline is not None else "-",
            res.measured if res.measured is not None else "-",
            res.regression if res.regression is not None else "-",
            res.status.upper(),
        ])
    return rows


def results_as_dict(
    results: list[GateResult],
    warn_ratio: float = WARN_RATIO,
    fail_ratio: float = FAIL_RATIO,
) -> dict[str, Any]:
    """The comparison-report artifact CI uploads."""
    return {
        "schema_version": BASELINE_SCHEMA,
        "warn_ratio": warn_ratio,
        "fail_ratio": fail_ratio,
        "counts": {
            status: sum(1 for r in results if r.status == status)
            for status in ("ok", "warn", "fail", "new", "missing")
        },
        "results": [
            {
                "key": r.key,
                "status": r.status,
                "baseline": r.baseline,
                "measured": r.measured,
                "regression": r.regression,
                "note": r.note,
            }
            for r in results
        ],
    }
