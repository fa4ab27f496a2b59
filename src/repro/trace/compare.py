"""Model-vs-observed comparison: Section 4 predictions against a trace.

The analytical core of the paper is a *trajectory* claim: after ``s``
unpacked traversal steps the expected number of live sublists is
``g(s) = m·e^(−m·s/n)`` (Eq. 2), and the pack points ``S_1 < S_2 < …``
generated by the Eq. 6 recurrence minimize the Phase 1/3 time.  A
traced sublist scan (``core.forest``, for one list or many) records the
observable counterpart — one ``pack`` event per pack with the
cumulative step count and the live vector width before/after — so the
claim becomes checkable per run instead of per aggregate.

:func:`compare_trace` walks a trace, finds the top-level sublist scan,
and returns a :class:`DeviationReport`:

* per-pack :class:`TrajectoryPoint` rows — observed live count vs
  ``g(s)`` at the same step, with absolute and relative deviation
  (relative to ``m``, the natural scale: ``g`` starts at ``m`` and the
  interesting regime is the decay);
* trajectory summary metrics (max/RMS relative deviation, and the
  decay-rate ratio ``m̂/m`` fitted from the observed log-counts);
* pack-schedule metrics — observed pack points vs the Eq. 6 schedule
  (shared-prefix RMS relative deviation, pack and step counts);
* phase durations from the spans and the model's predicted cycles
  (:func:`repro.analysis.predict.predict_run`) for context.

A *random* list should track ``g(s)`` closely (the paper's Figure 12);
an *ordered* list split at equally spaced positions produces
near-equal sublists and a near-step-function trajectory — a large
deviation is the tool working, not failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Iterable
from typing import Any

import numpy as np

from ..analysis.cost_model import KernelCosts, PAPER_C90_COSTS
from ..analysis.distribution import expected_live_sublists
from ..analysis.predict import predict_run
from ..core.schedule import integer_gaps, optimal_schedule
from .export import jsonable
from .tracer import Span, Tracer

__all__ = [
    "TrajectoryPoint",
    "DeviationReport",
    "compare_trace",
    "find_scan_span",
    "deviation_ok",
]


@dataclass(frozen=True)
class TrajectoryPoint:
    """One pack: observed live-sublist count vs the Eq. 2 prediction."""

    step: int  #: cumulative traversal steps when the pack ran
    observed: int  #: live sublists after the pack
    predicted: float  #: g(step) = m·e^(−m·step/n)
    abs_dev: float  #: observed − predicted
    rel_dev: float  #: (observed − predicted) / m

    def as_dict(self) -> dict[str, Any]:
        return {
            "step": self.step,
            "observed": self.observed,
            "predicted": self.predicted,
            "abs_dev": self.abs_dev,
            "rel_dev": self.rel_dev,
        }


@dataclass
class DeviationReport:
    """Structured deviation of one traced run from the Section 4 model.

    Trajectory metrics are normalized by ``m`` (the initial live
    count): ``rms_rel_dev`` is the root-mean-square of
    ``(observed − g(s))/m`` over the recorded packs, ``max_rel_dev``
    the worst single pack.  ``decay_ratio`` is ``m̂/m`` where ``m̂`` is
    the decay rate fitted to the observed log live counts — 1.0 means
    the observed trajectory decays exactly as ``g``'s exponent says.

    Schedule metrics compare where the packs *happened* against where
    Eq. 6 put them: ``schedule_rms_rel_dev`` is the RMS of
    ``(observed_step − scheduled_step)/scheduled_step`` over the
    shared prefix of pack points.
    """

    n: int
    m: int
    s1: float
    points: list[TrajectoryPoint] = field(default_factory=list)
    # trajectory vs g(s)
    max_rel_dev: float = 0.0
    rms_rel_dev: float = 0.0
    mean_rel_dev: float = 0.0
    decay_ratio: float = float("nan")
    # pack schedule vs Eq. 6
    observed_packs: int = 0
    predicted_packs: int = 0
    observed_steps: int = 0
    predicted_steps: int = 0
    schedule_rms_rel_dev: float = float("nan")
    # context
    phase_durations: dict[str, float] = field(default_factory=dict)
    predicted_cycles: float = 0.0
    predicted_clocks_per_element: float = 0.0
    #: wall duration of the scan span itself (0.0 when the span was
    #: still open) — the observation ``repro.calibrate`` fits against
    observed_seconds: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (the ``repro-c90 trace --json`` payload)."""
        return jsonable(
            {
                "n": self.n,
                "m": self.m,
                "s1": self.s1,
                "observed_seconds": self.observed_seconds,
                "trajectory": {
                    "points": [p.as_dict() for p in self.points],
                    "max_rel_dev": self.max_rel_dev,
                    "rms_rel_dev": self.rms_rel_dev,
                    "mean_rel_dev": self.mean_rel_dev,
                    "decay_ratio": self.decay_ratio,
                },
                "schedule": {
                    "observed_packs": self.observed_packs,
                    "predicted_packs": self.predicted_packs,
                    "observed_steps": self.observed_steps,
                    "predicted_steps": self.predicted_steps,
                    "rms_rel_dev": self.schedule_rms_rel_dev,
                },
                "phase_durations": self.phase_durations,
                "model": {
                    "predicted_cycles": self.predicted_cycles,
                    "predicted_clocks_per_element": self.predicted_clocks_per_element,
                },
            }
        )

    def summary_rows(self) -> list[list[object]]:
        """Rows for ``bench.harness.format_table`` (the human report)."""
        return [
            ["n / m / S1", f"{self.n:,} / {self.m:,} / {self.s1:.1f}"],
            ["packs observed vs Eq.6", f"{self.observed_packs} vs {self.predicted_packs}"],
            ["steps observed vs Eq.6", f"{self.observed_steps} vs {self.predicted_steps}"],
            ["trajectory RMS dev (of m)", self.rms_rel_dev],
            ["trajectory max dev (of m)", self.max_rel_dev],
            ["decay-rate ratio m̂/m", self.decay_ratio],
            ["pack-point RMS rel dev", self.schedule_rms_rel_dev],
            ["model predicted clocks/elem", self.predicted_clocks_per_element],
        ]

    def fit_record(self) -> dict[str, Any] | None:
        """This run as a calibration fit sample (plain dict).

        The shape matches ``repro.calibrate.records.FitSample.as_dict``
        — a ``sublist`` observation of ``n`` nodes over the scan span's
        wall seconds — without this module importing the calibration
        package (the dependency points the other way).  ``None`` when
        the scan span carried no usable duration.
        """
        if not self.observed_seconds > 0.0:
            return None
        return {
            "kind": "sublist",
            "x": self.n,
            "seconds": self.observed_seconds,
            "n_lists": 1,
            "source": "trace",
            "meta": {"m": self.m, "decay_ratio": self.decay_ratio},
        }


def find_scan_span(
    trace: Tracer | Span | Iterable[Span], name: str = "sublist_scan"
) -> Span | None:
    """The first (outermost, DFS) span named ``name`` in the trace."""
    if isinstance(trace, Tracer):
        roots: Iterable[Span] = trace.roots
    elif isinstance(trace, Span):
        roots = [trace]
    else:
        roots = trace
    for root in roots:
        found = root.find(name)
        if found is not None:
            return found
    return None


def _fit_decay_ratio(steps: np.ndarray, observed: np.ndarray, n: int, m: int) -> float:
    """Fit the observed decay rate and compare it to the model's.

    The model says ``ln g(s) = ln m − (m/n)·s``; a least-squares line
    through the observed positive ``(s, ln count)`` points yields the
    observed rate ``m̂/n``.  Returns ``m̂/m`` (NaN with < 2 usable
    points).
    """
    mask = observed > 0
    if int(mask.sum()) < 2:
        return float("nan")
    s = steps[mask].astype(np.float64)
    logc = np.log(observed[mask].astype(np.float64))
    slope = float(np.polyfit(s, logc, 1)[0])
    model_rate = m / n
    return -slope / model_rate if model_rate > 0 else float("nan")


def compare_trace(
    trace: Tracer | Span | Iterable[Span],
    costs: KernelCosts = PAPER_C90_COSTS,
) -> DeviationReport:
    """Compare one traced sublist scan against the Section 4 model.

    The trajectory is Phase 1's, the only phase that packs on the host
    (its Phase 3 is a streaming pass).

    Parameters
    ----------
    trace:
        A tracer, span, or span iterable containing a ``sublist_scan``
        span, as recorded by one list's scan or by a fused forest shard.
    costs:
        Calibration used to regenerate the Eq. 6 schedule and the
        predicted cycle count.

    Raises
    ------
    ValueError
        If the trace holds no sublist scan, or the scan recorded no
        pack events (e.g. the run fell through to the serial base
        case).
    """
    scan = find_scan_span(trace, "sublist_scan")
    if scan is None:
        raise ValueError(
            "trace contains no 'sublist_scan' span; "
            "run the scan with trace= enabled and algorithm='sublist'"
        )
    try:
        n = int(scan.attrs["n"])
        m = int(scan.attrs["m"])
        s1 = float(scan.attrs["s1"])
    except KeyError as exc:
        raise ValueError(
            f"scan span lacks the {exc.args[0]!r} attribute; was it recorded "
            "by an incompatible tracer version?"
        ) from None

    phase_span = scan.find("phase1")
    if phase_span is None:
        raise ValueError("scan span has no 'phase1' child span")
    packs = phase_span.events_named("pack")
    if not packs:
        raise ValueError(
            "phase1 recorded no pack events (serial base case or "
            "short-vector fallback before the first pack)"
        )

    steps = np.asarray([int(e.attrs["step"]) for e in packs], dtype=np.int64)
    observed = np.asarray([int(e.attrs["live_after"]) for e in packs], dtype=np.int64)
    predicted = np.asarray(expected_live_sublists(steps, n, m), dtype=np.float64)
    abs_dev = observed.astype(np.float64) - predicted
    rel_dev = abs_dev / max(m, 1)

    points = [
        TrajectoryPoint(
            step=int(s),
            observed=int(o),
            predicted=float(p),
            abs_dev=float(a),
            rel_dev=float(r),
        )
        for s, o, p, a, r in zip(steps, observed, predicted, abs_dev, rel_dev)
    ]

    # Eq. 6 schedule regenerated from the run's own (n, m, s1)
    schedule = optimal_schedule(n, m, s1, costs)
    scheduled_steps = np.cumsum(integer_gaps(schedule))
    shared = min(steps.size, scheduled_steps.size)
    if shared:
        sched_dev = (
            steps[:shared].astype(np.float64) - scheduled_steps[:shared]
        ) / np.maximum(scheduled_steps[:shared].astype(np.float64), 1.0)
        schedule_rms = float(np.sqrt(np.mean(sched_dev**2)))
    else:  # pragma: no cover - packs is non-empty, so shared >= 1
        schedule_rms = float("nan")

    durations = {
        child.name: float(child.duration)
        for child in scan.children
        if child.t1 is not None
    }
    prediction = predict_run(n, costs, m=m, s1=s1)

    return DeviationReport(
        n=n,
        m=m,
        s1=s1,
        points=points,
        max_rel_dev=float(np.max(np.abs(rel_dev))) if points else 0.0,
        rms_rel_dev=float(np.sqrt(np.mean(rel_dev**2))) if points else 0.0,
        mean_rel_dev=float(np.mean(rel_dev)) if points else 0.0,
        decay_ratio=_fit_decay_ratio(steps, observed, n, m),
        observed_packs=len(points),
        predicted_packs=int(scheduled_steps.size),
        observed_steps=int(steps[-1]),
        predicted_steps=int(scheduled_steps[-1]) if scheduled_steps.size else 0,
        schedule_rms_rel_dev=schedule_rms,
        phase_durations=durations,
        predicted_cycles=float(prediction.cycles),
        predicted_clocks_per_element=float(prediction.clocks_per_element),
        observed_seconds=float(scan.duration) if scan.t1 is not None else 0.0,
    )


def deviation_ok(
    report: DeviationReport,
    rms_tol: float = 0.1,
    decay_tol: float = 0.35,
) -> bool:
    """Loose qualitative gate: does the observed trajectory track the
    model?  True iff the RMS deviation (in units of ``m``) is within
    ``rms_tol`` and the fitted decay rate is within ``decay_tol`` of
    the model's (when fittable).  Random lists pass comfortably;
    adversarial layouts (equal-length sublists) fail by design.
    """
    if report.rms_rel_dev > rms_tol:
        return False
    if not math.isnan(report.decay_ratio):
        return abs(report.decay_ratio - 1.0) <= decay_tol
    return True
