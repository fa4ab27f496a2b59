"""Least-squares refits of the paper's cost model for the host machine.

Three fits, one per kind of the cost table (the router prices
``wyllie`` and ``sublist``; the ``serial`` coefficients price the
sublist model's serial Phase 2):

``serial``
    ``T(n) = a·n + b`` directly — the host's pointer-chasing traversal
    (the analogue of the paper's measured ``34·m + 255``).
``wyllie``
    ``T(n) = rounds(n)·(a·n + b)`` with ``rounds = ⌈log₂(n/k)⌉`` known
    per sample, so the round cost is still a linear least squares over
    the design ``[rounds·n, rounds]``.
``sublist``
    the full Section 4 model has too many coefficients to identify
    from end-to-end timings, so the *group* of vectorized kernels
    (rank, pack, bookkeeping) is scaled together: a least-squares
    ``alpha`` maps the paper-shaped prediction
    (``analysis.predict.predict_run`` under the base table) onto the
    observed nanoseconds, preserving the paper's internal ratios
    while fitting the host's absolute speed.  This is the same
    one-knob-per-machine discipline ``machine.calibration`` uses for
    simulated machines, driven by measurements instead of spec sheets.

Fitted profiles are expressed in host nanoseconds (``clock_ns = 1.0``),
so a router prediction reads directly as wall time and the engine's
drift check can compare it against observed durations.

The tuning stage then re-runs the paper's Section 4.4 procedure
against the *fitted* table: grid-tune ``(m, S₁)`` across a size sweep
and refit the cubic-in-``log n`` polynomials
(``core.tuning.fit_polylog``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from collections.abc import Sequence

import numpy as np

from ..analysis.cost_model import KernelCosts, PAPER_C90_COSTS
from ..analysis.predict import predict_run
from ..core.tuning import fit_polylog
from .profile import CalibrationProfile, host_fingerprint
from .records import FitSample

__all__ = ["FitError", "FitResult", "fit_linear", "fit_profile"]

#: Cost fields scaled together by the sublist group factor ``alpha``
#: (the vectorized kernels of Sections 3/4.2).
_VECTOR_FIELDS = (
    "initialize_per_elem",
    "initialize_const",
    "initial_rank_per_elem",
    "initial_rank_const",
    "initial_pack_per_elem",
    "initial_pack_const",
    "find_sublist_per_elem",
    "find_sublist_const",
    "final_rank_per_elem",
    "final_rank_const",
    "final_pack_per_elem",
    "final_pack_const",
    "restore_per_elem",
    "restore_const",
    "sync_const",
)

#: Default size sweep for the tuning-polynomial refit (Section 4.4's
#: "tune every n, then fit cubics in log n").
DEFAULT_TUNE_SIZES = (1 << 9, 1 << 11, 1 << 13, 1 << 15, 1 << 17, 1 << 19, 1 << 21)


class FitError(ValueError):
    """The samples cannot produce a sane calibration."""


@dataclass(frozen=True)
class FitResult:
    """One linear fit: slope/intercept plus fit-quality metadata."""

    slope: float
    intercept: float
    rms_rel_residual: float
    n_samples: int


def _lstsq(design: np.ndarray, ys: np.ndarray) -> np.ndarray:
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    return np.asarray(coef, dtype=np.float64)


def _rel_residual(predicted: np.ndarray, observed: np.ndarray) -> float:
    rel = (predicted - observed) / np.maximum(np.abs(observed), 1e-30)
    return float(np.sqrt(np.mean(rel**2)))


def fit_linear(
    xs: Sequence[float], ys: Sequence[float], label: str = "linear"
) -> FitResult:
    """Least-squares ``y = a·x + b`` with a non-negativity repair.

    Raises :class:`FitError` with fewer than 2 samples, a degenerate
    design (all ``x`` equal), or a non-positive fitted slope.  A
    negative intercept (possible when the true ``b`` is tiny and the
    noise isn't) is repaired by refitting the slope through the
    origin — the paper's intercepts are scalar overheads and cannot be
    negative.
    """
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    if x.size != y.size:
        raise FitError(f"{label}: {x.size} x values vs {y.size} y values")
    if x.size < 2:
        raise FitError(f"{label}: need at least 2 samples, got {x.size}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise FitError(f"{label}: samples contain non-finite values")
    if float(np.ptp(x)) == 0.0:
        raise FitError(f"{label}: all samples share x={x[0]:g}; cannot fit a slope")
    design = np.stack([x, np.ones_like(x)], axis=1)
    slope, intercept = _lstsq(design, y)
    if intercept < 0.0 or slope <= 0.0:
        # a negative coefficient is always noise, not physics (costs
        # are positive): drop to the through-origin estimator, which
        # is positive whenever the observations are
        intercept = 0.0
        slope = float(np.dot(x, y) / np.dot(x, x))
    if not math.isfinite(slope) or slope <= 0.0:
        raise FitError(f"{label}: fitted slope {slope:g} is not positive")
    predicted = slope * x + intercept
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        rms_rel_residual=_rel_residual(predicted, y),
        n_samples=int(x.size),
    )


def _wyllie_rounds(sample: FitSample) -> float:
    longest = max(2.0, sample.x / sample.n_lists)
    return float(math.ceil(math.log2(longest)))


def _fit_wyllie(samples: list[FitSample]) -> FitResult:
    """``T = rounds·(a·n + b)`` — linear in ``(rounds·n, rounds)``."""
    rounds = np.asarray([_wyllie_rounds(s) for s in samples], dtype=np.float64)
    x = np.asarray([s.x for s in samples], dtype=np.float64)
    y = np.asarray([s.seconds * 1e9 for s in samples], dtype=np.float64)
    if x.size < 2:
        raise FitError(f"wyllie: need at least 2 samples, got {x.size}")
    if float(np.ptp(rounds * x)) == 0.0:
        raise FitError("wyllie: degenerate sample sizes; cannot fit a slope")
    design = np.stack([rounds * x, rounds], axis=1)
    slope, intercept = _lstsq(design, y)
    if intercept < 0.0 or slope <= 0.0:
        intercept = 0.0
        slope = float(np.dot(rounds * x, y) / np.dot(rounds * x, rounds * x))
    if not math.isfinite(slope) or slope <= 0.0:
        raise FitError(f"wyllie: fitted round slope {slope:g} is not positive")
    predicted = rounds * (slope * x + intercept)
    return FitResult(
        slope=float(slope),
        intercept=float(intercept),
        rms_rel_residual=_rel_residual(predicted, y),
        n_samples=int(x.size),
    )


def _fit_sublist_alpha(
    samples: list[FitSample], base: KernelCosts
) -> FitResult:
    """Group scale ``alpha``: observed ns ≈ alpha · model(n) + beta."""
    if len(samples) < 2:
        raise FitError(f"sublist: need at least 2 samples, got {len(samples)}")
    cycles = np.asarray(
        [predict_run(s.x, base).cycles for s in samples], dtype=np.float64
    )
    y = np.asarray([s.seconds * 1e9 for s in samples], dtype=np.float64)
    if float(np.ptp(cycles)) == 0.0:
        raise FitError("sublist: degenerate sample sizes; cannot fit a scale")
    design = np.stack([cycles, np.ones_like(cycles)], axis=1)
    alpha, beta = _lstsq(design, y)
    if beta < 0.0 or alpha <= 0.0:
        beta = 0.0
        alpha = float(np.dot(cycles, y) / np.dot(cycles, cycles))
    if not math.isfinite(alpha) or alpha <= 0.0:
        raise FitError(f"sublist: fitted scale {alpha:g} is not positive")
    predicted = alpha * cycles + beta
    return FitResult(
        slope=float(alpha),
        intercept=float(beta),
        rms_rel_residual=_rel_residual(predicted, y),
        n_samples=len(samples),
    )


def fit_profile(
    samples: Sequence[FitSample],
    base: KernelCosts = PAPER_C90_COSTS,
    source: str = "live",
    created_at: float = 0.0,
    tune: bool = True,
    tune_sizes: Sequence[int] = DEFAULT_TUNE_SIZES,
) -> CalibrationProfile:
    """Fit a full calibration profile from timing samples.

    Parameters
    ----------
    samples:
        At least 2 samples of at least one fit kind.  Kinds that are
        missing inherit the base table's coefficients rescaled by the
        fitted group factor, so the profile stays unit-consistent (all
        nanoseconds) even from a partial sample set.
    base:
        The cost table giving the sublist model its *shape* (internal
        kernel ratios); the paper's C-90 table by default.
    source / created_at:
        Provenance recorded in the profile (``created_at`` is injected
        by the caller — this module never reads a clock).
    tune:
        Re-run the Section 4.4 tuning sweep against the fitted table
        and store the refit ``m(n)``/``S₁(n)`` cubics.

    Raises
    ------
    FitError
        When no kind has enough samples or any fit produces an absurd
        (non-positive) coefficient.
    """
    by_kind: dict[str, list[FitSample]] = {}
    for sample in samples:
        by_kind.setdefault(sample.kind, []).append(sample)
    if not any(len(v) >= 2 for v in by_kind.values()):
        raise FitError(
            "need at least 2 samples of one kind "
            f"(got {({k: len(v) for k, v in by_kind.items()}) or 'none'})"
        )

    fits: dict[str, FitResult] = {}
    if len(by_kind.get("serial", ())) >= 2:
        serial_samples = by_kind["serial"]
        fits["serial"] = fit_linear(
            [s.x for s in serial_samples],
            [s.seconds * 1e9 for s in serial_samples],
            label="serial",
        )
    if len(by_kind.get("wyllie", ())) >= 2:
        fits["wyllie"] = _fit_wyllie(by_kind["wyllie"])
    if len(by_kind.get("sublist", ())) >= 2:
        fits["sublist"] = _fit_sublist_alpha(by_kind["sublist"], base)

    # The group factor that carries paper-shaped coefficients into host
    # nanoseconds.  Preference order: the sublist fit measures the
    # vector kernels directly; the others are crude fallbacks that at
    # least keep the units consistent when only one kind was sampled.
    if "sublist" in fits:
        alpha = fits["sublist"].slope
    elif "wyllie" in fits:
        alpha = fits["wyllie"].slope / base.wyllie_round_per_elem
    else:
        alpha = fits["serial"].slope / base.serial_per_elem

    fields: dict[str, float] = {
        name: float(getattr(base, name)) * alpha for name in _VECTOR_FIELDS
    }
    if "sublist" in fits:
        # the fit's intercept is unmodelled per-run overhead; fold it
        # into the bookkeeping constant (paper: part of f)
        fields["initialize_const"] += fits["sublist"].intercept
    if "serial" in fits:
        fields["serial_per_elem"] = fits["serial"].slope
        fields["serial_const"] = fits["serial"].intercept
    else:
        fields["serial_per_elem"] = base.serial_per_elem * alpha
        fields["serial_const"] = base.serial_const * alpha
    if "wyllie" in fits:
        fields["wyllie_round_per_elem"] = fits["wyllie"].slope
        fields["wyllie_round_const"] = fits["wyllie"].intercept
    else:
        fields["wyllie_round_per_elem"] = base.wyllie_round_per_elem * alpha
        fields["wyllie_round_const"] = base.wyllie_round_const * alpha
    costs = replace(KernelCosts(), **fields, clock_ns=1.0)

    m_coeffs = s1_coeffs = None
    if tune:
        if len(tune_sizes) < 4:
            raise FitError("tuning refit needs at least 4 sweep sizes")
        polyfit = fit_polylog([int(n) for n in tune_sizes], costs)
        m_coeffs = tuple(float(c) for c in polyfit.m_coeffs)
        s1_coeffs = tuple(float(c) for c in polyfit.s1_coeffs)

    profile = CalibrationProfile(
        costs=costs,
        created_at=float(created_at),
        source=source,
        host=host_fingerprint(),
        m_coeffs=m_coeffs,
        s1_coeffs=s1_coeffs,
        samples={kind: fit.n_samples for kind, fit in fits.items()},
        residuals={kind: fit.rms_rel_residual for kind, fit in fits.items()},
    )
    profile.validate()
    return profile
